//! Explains where a test code's modeled time goes, component by
//! component, on the simulated System 3 at the code's own affinity.
//!
//! ```console
//! $ explain omp_atomicadd_scalar --threads 16
//! $ explain cuda_atomicadd_scalar --blocks 2 --threads 1024
//! $ explain omp_atomicadd_array --threads 16 --stride 1 --dtype double
//! $ explain list
//! ```
//!
//! `--dtype` and `--stride` pick among the code's kernel instances
//! (first match in sweep order); a kernel instance's own name, such as
//! `cuda_vote_All`, picks that instance. `--blocks` (default 2) is the
//! CUDA codes' axis: an OpenMP code runs one team and takes only
//! `--blocks 1`.

use syncperf_bench::codes::{self, AnyKernel};
use syncperf_core::{DType, SYSTEM3};

fn usage() -> ! {
    eprintln!(
        "usage: explain <name|list> [--threads N] [--blocks N] [--stride N] [--dtype int|ull|float|double]"
    );
    std::process::exit(2);
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn number(arg: Option<&String>) -> u32 {
    arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn data_type(arg: Option<&String>) -> DType {
    arg.and_then(|l| DType::ALL.into_iter().find(|d| d.label() == l))
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut threads = 16u32;
    let mut blocks = None;
    let mut stride = None;
    let mut dtype = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => threads = number(it.next()),
            "--blocks" => blocks = Some(number(it.next())),
            "--stride" => stride = Some(number(it.next())),
            "--dtype" => dtype = Some(data_type(it.next())),
            other if other.starts_with('-') => usage(),
            other => name = Some(other.to_string()),
        }
    }
    let Some(name) = name else { usage() };
    if name == "list" {
        for code in codes::registry() {
            println!("{}", code.name);
        }
        return;
    }
    let Some((code, inst)) = codes::find_instance(&name, dtype, stride) else {
        let instances: Vec<&str> = codes::registry()
            .iter()
            .filter(|c| c.name == name)
            .flat_map(|c| c.instances.iter().map(|i| i.kernel.name()))
            .collect();
        if instances.is_empty() {
            fail(format!(
                "unknown code or instance `{name}` (try `explain list`)"
            ));
        }
        fail(format!(
            "no instance of `{name}` has that dtype and stride; its instances: {}",
            instances.join(", ")
        ));
    };
    let blocks = blocks.unwrap_or(match inst.kernel {
        AnyKernel::Cpu(_) => 1,
        AnyKernel::Gpu(_) => 2,
    });
    match code.explain(inst, &SYSTEM3, threads, blocks) {
        Ok(report) => print!("{report}"),
        Err(e) => fail(e),
    }
}
