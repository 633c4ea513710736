//! Byte check of the reduced Figure 14 sweep: regenerated through
//! `run_sweep` with the driver the binary uses, it must equal the
//! checked-in `ci/baselines/fig14.jsonl` byte for byte. Every energy in it
//! comes out of the genetic Clifford VQE's stabilizer estimator, so a
//! change to the noiseless expectations, the frame walk or the Bernoulli
//! stream that moves one bit shows here. (The reduced Figure 12 sweep,
//! which runs the same estimator, is byte-checked in `sweep_chaos.rs` and
//! `sweep_farm.rs`.)

use eft_vqa_repro::prelude::*;
use std::path::Path;

#[test]
fn fig14_reduced_regenerates_the_baseline_bytes() {
    let dir = std::env::temp_dir().join(format!("eftq-clifford-baselines-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig14.jsonl");
    let _ = std::fs::remove_file(&path);
    let driver = Fig14Driver::new(false);
    let opts = SweepOptions {
        artifact: Some(path.clone()),
        ..SweepOptions::default()
    };
    let report = run_sweep(&Fig14Driver::spec(false), &opts, |p, _| driver.eval(p)).unwrap();
    assert_eq!(report.failed, 0);

    let got = std::fs::read(&path).unwrap();
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ci/baselines/fig14.jsonl");
    let want = std::fs::read(&baseline).expect("ci/baselines/fig14.jsonl is checked in");
    if got != want {
        let (got, want) = (
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
        );
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "fig14: line {} differs from ci/baselines", i + 1);
        }
        panic!(
            "fig14: {} lines regenerated, {} in ci/baselines",
            got.lines().count(),
            want.lines().count()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
