//! Byte checks of the density-matrix figures: the reduced Figure 13 and
//! Figure 15 sweeps, regenerated through `run_sweep` with the same
//! drivers the binaries use, must equal the checked-in
//! `ci/baselines/fig13.jsonl` and `ci/baselines/fig15.jsonl` byte for
//! byte. Every energy in them comes out of `run_noisy`, so a kernel change
//! that moves one bit of ρ shows here.

use eft_vqa_repro::prelude::*;
use std::path::{Path, PathBuf};

fn baseline(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../ci/baselines")
        .join(format!("{name}.jsonl"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{} is checked in: {e}", path.display()))
}

fn artifact(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eftq-density-baselines-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_same_bytes(name: &str, path: &Path) {
    let got = std::fs::read(path).unwrap();
    let want = baseline(name);
    if got != want {
        let got = String::from_utf8_lossy(&got);
        let want = String::from_utf8_lossy(&want);
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{name}: line {} differs from ci/baselines", i + 1);
        }
        panic!(
            "{name}: {} lines regenerated, {} in ci/baselines",
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn fig13_reduced_regenerates_the_baseline_bytes() {
    let path = artifact("fig13");
    let driver = Fig13Driver::new(false);
    let opts = SweepOptions {
        artifact: Some(path.clone()),
        ..SweepOptions::default()
    };
    let report = run_sweep(&Fig13Driver::spec(false), &opts, |p, _| driver.eval(p)).unwrap();
    assert_eq!(report.failed, 0);
    assert_same_bytes("fig13", &path);
}

#[test]
fn fig15_reduced_regenerates_the_baseline_bytes() {
    let path = artifact("fig15");
    let driver = Fig15Driver::new(false);
    let opts = SweepOptions {
        artifact: Some(path.clone()),
        ..SweepOptions::default()
    };
    let report = run_sweep(&Fig15Driver::spec(false), &opts, |p, _| driver.eval(p)).unwrap();
    assert_eq!(report.failed, 0);
    assert_same_bytes("fig15", &path);
}
