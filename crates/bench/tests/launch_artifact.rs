//! The artifact layout end to end: a flagless `launch all` on each
//! simulated system must rewrite the committed `results/system{1,2,3}`
//! trees byte for byte, one `runtimes.csv` per test code.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every file under `dir`, relative to it, sorted.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn flagless_launch_reproduces_the_committed_trees() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let out = std::env::temp_dir().join(format!("syncperf-launch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    for n in 1..=3 {
        let status = Command::new(env!("CARGO_BIN_EXE_launch"))
            .args(["all", "--yes", "--system", &n.to_string(), "--out"])
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "launch --system {n}: {status}");
        let host = format!("system{n}");
        let (want, got) = (committed.join(&host), out.join(&host));
        let names = files(&want);
        assert_eq!(names.len(), 20, "{host}: one runtimes.csv per code");
        assert_eq!(files(&got), names, "{host}: same files");
        for name in &names {
            assert!(
                std::fs::read(want.join(name)).unwrap() == std::fs::read(got.join(name)).unwrap(),
                "{host}/{} differs from the committed tree",
                name.display()
            );
        }
    }
    std::fs::remove_dir_all(&out).unwrap();
}
