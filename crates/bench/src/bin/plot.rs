//! Re-renders a stored figure CSV (from `results/`) as a terminal chart
//! and an SVG.
//!
//! ```console
//! $ plot results/fig01.csv
//! $ plot results/fig09a.csv --log-x --svg /tmp/fig09a.svg
//! ```

use syncperf_core::report::write_if_changed;
use syncperf_core::svg::{render_svg, SvgStyle};
use syncperf_core::FigureData;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut log_x = false;
    let mut svg_out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--log-x" => log_x = true,
            "--svg" => svg_out = it.next().cloned(),
            other if other.starts_with('-') => {
                eprintln!("usage: plot <file.csv> [--log-x] [--svg OUT.svg]");
                std::process::exit(2);
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        eprintln!("usage: plot <file.csv> [--log-x] [--svg OUT.svg]");
        std::process::exit(2);
    };
    let csv = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            std::process::exit(1);
        }
    };
    let id = std::path::Path::new(&path).file_stem().map_or_else(
        || "figure".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let mut fig = match FigureData::from_csv(id, &csv) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error parsing {path}: {e}");
            std::process::exit(1);
        }
    };
    if log_x {
        fig = fig.with_log_x();
    }
    println!("{}", fig.render_table());
    println!("{}", fig.render_ascii(72, 16));
    if let Some(out) = svg_out {
        match write_if_changed(&out, render_svg(&fig, &SvgStyle::default())) {
            Ok(()) => println!("wrote {out}"),
            Err(e) => {
                eprintln!("error writing {out}: {e}");
                std::process::exit(1);
            }
        }
    }
}
