//! The `cheap_grid` workload: a dense advisor grid (each point one
//! `eftq_planner::index::advisor_eval`, a few microseconds) whose axis
//! values come from the seed, run through the local executor and through
//! a loopback farm (a coordinator with no local threads plus one
//! in-process TCP worker) on the same thread budget. Evaluation is
//! small, so the executor, leases, protocol and emitter dominate.

use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::{Duration, Instant};

use eftq_planner::index::{advisor_eval, ADVISOR_SPEC};
use eftq_sweep::jsonl::parse_row;
use eftq_sweep::{run_sweep, FarmState, Msg, Row, SweepOptions, SweepPoint, SweepSpec};

use crate::checks::mismatched_lines;
use crate::host::{self, HostFacts, InputRng};
use crate::metrics::Values;
use crate::spans::{where_table, Spans, ROOT};
use crate::stats::{median, median_secs, tail, trimmed_mean};
use crate::{Outcome, RunCfg};

/// Evaluation threads, identical for both topologies.
const EVAL_THREADS: usize = 1;

/// Distinct device sizes and program sizes drawn per seed.
const DEVICE_VALUES: usize = 60;
const PROGRAM_VALUES: usize = 80;

/// Share of the fastest and of the slowest repetitions left out of the
/// reported wall and CPU means: robust to a stalled repetition, and for
/// the farm it averages the two modes of its run time.
const TRIM: f64 = 0.1;

/// Seconds of untimed grid runs before the timed ones.
const WARMUP_SECS: f64 = 1.0;

/// Set-up repetitions whose median is reported.
const SETUP_REPS: usize = 31;

/// Set-ups timed together in one sample: one set-up takes under a
/// millisecond, so a sample of several is less at the mercy of a single
/// scheduler tick or page fault.
const SETUP_BATCH: usize = 10;

/// Point latencies pooled for the percentiles: a bound, so a faster
/// program (more repetitions) does not grow the benchmark's own memory.
const MAX_LATENCY_SAMPLES: usize = 100_000;

/// Iterations of each protocol/row micro-replay.
const CODEC_ITERS: usize = 20_000;

/// `count` distinct integers from `lo..=hi`, ascending.
fn distinct(rng: &mut InputRng, count: usize, lo: i64, hi: i64) -> Vec<i64> {
    let mut v: Vec<i64> = Vec::with_capacity(count);
    while v.len() < count {
        let x = rng.range(lo, hi);
        if !v.contains(&x) {
            v.push(x);
        }
    }
    v.sort_unstable();
    v
}

/// The seeded advisor grid.
pub fn grid_spec(seed: u64) -> SweepSpec {
    let mut rng = InputRng::new(seed, 0x9d1d);
    SweepSpec::new(ADVISOR_SPEC)
        .axis_ints(
            "device_qubits",
            distinct(&mut rng, DEVICE_VALUES, 5_000, 60_000),
        )
        .axis_ints("logical_qubits", distinct(&mut rng, PROGRAM_VALUES, 8, 96))
}

/// One grid run.
struct GridRun {
    text: String,
    wall: f64,
    cpu: f64,
    point_secs: Vec<f64>,
    failed: usize,
}

fn options(artifact: &Path) -> SweepOptions {
    // A leftover file would be resumed instead of recomputed.
    let _ = std::fs::remove_file(artifact);
    SweepOptions {
        threads: EVAL_THREADS,
        artifact: Some(artifact.to_path_buf()),
        ..SweepOptions::default()
    }
}

fn finish(report: eftq_sweep::SweepReport, artifact: &Path, wall: f64, cpu: f64) -> GridRun {
    GridRun {
        text: std::fs::read_to_string(artifact).expect("read the grid artifact"),
        wall,
        cpu,
        point_secs: report.point_secs.clone(),
        failed: report.failed + report.quarantined,
    }
}

fn local_run<F>(spec: &SweepSpec, artifact: &Path, eval: F) -> GridRun
where
    F: Fn(&SweepPoint) -> Row + Sync,
{
    let opts = options(artifact);
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let report = run_sweep(spec, &opts, |p, _| eval(p)).expect("local grid runs");
    let wall = t0.elapsed().as_secs_f64();
    finish(report, artifact, wall, host::cpu_seconds() - cpu0)
}

/// Whether the coordinator accepts connections on `addr`. The probe
/// connection closes without a hello; the coordinator drops such a
/// connection without registering a worker. (Listing `/proc/net/tcp`
/// instead costs milliseconds per read while thousands of loopback
/// connections from an earlier run sit in TIME_WAIT.)
fn listening(addr: &str) -> bool {
    std::net::TcpStream::connect(addr).is_ok()
}

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .expect("a free loopback port")
}

fn farm_run<F>(spec: &SweepSpec, artifact: &Path, eval: F) -> GridRun
where
    F: Fn(&SweepPoint) -> Row + Sync,
{
    let port = free_port();
    let addr = SocketAddr::from(([127, 0, 0, 1], port)).to_string();
    let probe = addr.clone();
    let coordinator = SweepOptions {
        threads: 0,
        farm: Some(addr.clone()),
        ..options(artifact)
    };
    let worker = SweepOptions {
        threads: EVAL_THREADS,
        worker: Some(addr),
        ..SweepOptions::default()
    };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let (report, wall) = std::thread::scope(|s| {
        let coord = s.spawn(|| {
            let report = run_sweep(spec, &coordinator, |p, _| eval(p)).expect("farm coordinates");
            (report, t0.elapsed().as_secs_f64())
        });
        // Start the worker once the coordinator listens: a worker that
        // finds no listener backs off for 100 ms.
        while !listening(&probe) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "coordinator never listened"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        let w = s.spawn(|| run_sweep(spec, &worker, |p, _| eval(p)).expect("worker joins"));
        let out = coord.join().expect("coordinator thread");
        w.join().expect("worker thread");
        out
    });
    finish(report, artifact, wall, host::cpu_seconds() - cpu0)
}

/// Mean microseconds of `f` over [`CODEC_ITERS`] calls.
fn micro<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..CODEC_ITERS {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / CODEC_ITERS as f64
}

/// Farm runs in a traced run; their trimmed mean is `farm.wall_s`.
const FARM_TRACE_RUNS: usize = 9;

/// The `cheap_grid` workload. The timed unit is one grid run through
/// the local executor. Every run also sends the grid once through a
/// loopback farm, whose artifact must equal the local one; the traced
/// run times the farm, replays its protocol and lease machine, and runs
/// the traced `planner_mixed` section for the planner layer's metrics.
pub fn cheap_grid(cfg: &RunCfg) -> Outcome {
    let spec = grid_spec(cfg.seed);
    let n = spec.num_points();
    let setup_s = median_secs(SETUP_REPS, SETUP_BATCH, || {
        grid_spec(cfg.seed).select(None).expect("full grid")
    });
    let mut notes = vec![format!(
        "grid: {DEVICE_VALUES} device sizes x {PROGRAM_VALUES} program sizes = {n} points; \
         timed through the local executor, checked through a loopback farm \
         (coordinator threads 0 + 1 TCP worker)"
    )];
    let facts = HostFacts {
        nproc: host::nproc(),
        sweep_threads: EVAL_THREADS,
        ga_threads: 0,
        generator_threads: EVAL_THREADS,
        loopback: true,
    };
    // The first local run's artifact is the reference every run must match.
    let path = host::work_file("grid-rep");
    let reference = local_run(&spec, &host::work_file("grid-reference"), advisor_eval);
    let rss = host::peak_rss_mb();
    let mut failed = reference.failed;
    let mut attempted = n;
    let mut check = |run: &GridRun, topology: &str, failed: &mut usize, notes: &mut Vec<String>| {
        let bad = mismatched_lines(&run.text, &reference.text) + run.failed;
        if bad > 0 && notes.iter().all(|l| !l.starts_with("check:")) {
            notes.push(format!(
                "check: {topology} artifact differs from the first local run in {bad} line(s)"
            ));
        }
        *failed += bad;
        attempted += n;
    };

    let mut v = Values::new();
    // Untimed warm-up: the first grid runs of a process pay one-off costs
    // (page faults, idle cores waking).
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARMUP_SECS {
        let run = local_run(&spec, &path, advisor_eval);
        check(&run, "local", &mut failed, &mut notes);
    }
    if !cfg.trace {
        // Keep only the timings of each repetition: the artifact text is
        // checked and dropped, so memory stays the program's own.
        let start = Instant::now();
        let (mut walls, mut cpus, mut points_ms) = (Vec::new(), Vec::new(), Vec::new());
        while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
            let run = local_run(&spec, &path, advisor_eval);
            check(&run, "local", &mut failed, &mut notes);
            walls.push(run.wall);
            cpus.push(run.cpu);
            if points_ms.len() < MAX_LATENCY_SAMPLES {
                points_ms.extend(run.point_secs.iter().map(|s| s * 1e3));
            }
        }
        let farm = farm_run(&spec, &path, advisor_eval);
        check(&farm, "farm", &mut failed, &mut notes);
        // Single points (a few microseconds each) are printed, but their
        // median moves with per-process cache placement far more than the
        // run time does.
        let runs_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let t = tail(&runs_ms);
        let pt = tail(&points_ms);
        notes.push(format!(
            "{} repetitions; run time p50 {:.3} ms, {} {:.3} ms over n={} ({:.0} points/s); \
             point eval p50 {:.4} ms, {} {:.4} ms over n={}; one farm run {:.4} s",
            walls.len(),
            median(&runs_ms),
            t.label,
            t.value,
            t.n,
            n as f64 / median(&walls),
            median(&points_ms),
            pt.label,
            pt.value,
            pt.n,
            farm.wall
        ));
        v.insert("setup_s", setup_s);
        v.insert("wall_s", trimmed_mean(&walls, TRIM));
        v.insert("cpu_s", trimmed_mean(&cpus, TRIM));
        v.insert("peak_rss_mb", rss);
    } else {
        let untimed = local_run(&spec, &path, advisor_eval);
        check(&untimed, "local", &mut failed, &mut notes);
        let spans = Spans::default();
        let traced = spans.time("sweep.run_sweep", ROOT, |sid| {
            local_run(&spec, &path, |p: &SweepPoint| {
                spans.time("planner.advisor_eval", sid, |_| advisor_eval(p))
            })
        });
        check(&traced, "local", &mut failed, &mut notes);
        let row_mismatches = mismatched_lines(&traced.text, &untimed.text);
        let busy: f64 = untimed.point_secs.iter().sum();
        v.insert("sweep.eval_busy_s", busy);
        v.insert(
            "sweep.executor_self_s",
            untimed.wall - busy / EVAL_THREADS as f64,
        );
        // The farm topology on the same grid and thread budget. Its wall
        // time has two modes and a run-to-run spread beyond any gate, so
        // it is reported here as a trimmed mean of several runs.
        let mut farm_walls = Vec::new();
        for _ in 0..FARM_TRACE_RUNS {
            let farm = farm_run(&spec, &path, advisor_eval);
            check(&farm, "farm", &mut failed, &mut notes);
            farm_walls.push(farm.wall);
        }
        let farm_wall = trimmed_mean(&farm_walls, TRIM);
        v.insert("farm.wall_s", farm_wall);
        v.insert("farm.self_s", farm_wall - untimed.wall);
        notes.push(format!(
            "farm {farm_wall:.4} s (trimmed mean of {FARM_TRACE_RUNS}) vs local {:.4} s \
             on the same grid and thread budget",
            untimed.wall
        ));
        v.insert("sweep.point_p50_s", median(&untimed.point_secs));
        v.insert(
            "sweep.point_max_s",
            untimed.point_secs.iter().copied().fold(0.0, f64::max),
        );
        v.insert("trace.overhead_s", traced.wall - untimed.wall);
        v.insert("trace.untimed_wall_s", untimed.wall);
        v.insert("trace.row_mismatches", row_mismatches as f64);
        failed += row_mismatches;

        // Protocol and row codecs on a done message carrying a typical row.
        let row = advisor_eval(&spec.point(n / 2));
        let json = row.to_json_row();
        let done = Msg::Done {
            lease: 7,
            point: n / 2,
            attempt: 1,
            secs: median(&untimed.point_secs),
            data: json.clone(),
        };
        let line = done.encode();
        assert_eq!(
            Msg::decode(&line).expect("done decodes"),
            done,
            "protocol round trip"
        );
        let encode_us = micro(|| done.encode());
        let decode_us = micro(|| Msg::decode(&line));
        let to_json_us = micro(|| row.to_json_row());
        let parse_us = micro(|| parse_row(&json));
        v.insert("protocol.encode_us", encode_us);
        v.insert("protocol.decode_us", decode_us);
        v.insert("rows.to_json_us", to_json_us);
        v.insert("jsonl.parse_row_us", parse_us);

        // FarmState replayed at this grid's size and measured point times.
        let ids: Vec<usize> = (0..n).collect();
        let mut state = FarmState::new(&ids, eftq_sweep::farm::DEFAULT_LEASE_SECS);
        let (mut grant_s, mut complete_s, mut leases) = (0.0, 0.0, 0usize);
        let mut now = 0.0;
        loop {
            let t0 = Instant::now();
            let grant = state.grant(1, now);
            grant_s += t0.elapsed().as_secs_f64();
            let Some(grant) = grant else { break };
            leases += 1;
            for &p in &grant.points {
                let secs = untimed.point_secs[p % untimed.point_secs.len()];
                now += secs;
                let t0 = Instant::now();
                black_box(state.complete(grant.lease, p, secs));
                complete_s += t0.elapsed().as_secs_f64();
            }
        }
        assert!(state.is_done(), "replayed farm completes every point");
        v.insert("farm.grant_us", grant_s * 1e6 / leases.max(1) as f64);
        v.insert("farm.complete_us", complete_s * 1e6 / n as f64);
        v.insert("farm.leases", leases as f64);
        v.insert("farm.points_per_lease", n as f64 / leases.max(1) as f64);

        notes.extend(where_table(
            "cheap_grid (local)",
            &spans.totals(),
            traced.wall,
        ));
        let per_point = [
            (
                "rows to_json + parse_row",
                to_json_us + parse_us,
                untimed.wall,
            ),
            ("protocol encode + decode", encode_us + decode_us, farm_wall),
            (
                "FarmState grant + complete",
                (grant_s + complete_s) * 1e6 / n as f64,
                farm_wall,
            ),
        ];
        for (what, us, wall) in per_point {
            notes.push(format!(
                "  replayed {what:<28} {us:>8.3} us/point = {:>5.1}% of its topology's wall",
                100.0 * us * 1e-6 * n as f64 / wall
            ));
        }

        // The planner layer: `planner_mixed` is not a listed workload (see
        // `metrics::UNLISTED`), so its traced run rides along here.
        let planner = crate::planner::planner_mixed(cfg);
        notes.extend(planner.notes);
        attempted += planner.attempted as usize;
        failed += planner.failed as usize;
        for (metric, value) in planner.values {
            v.entry(metric).or_insert(value);
        }
    }
    Outcome {
        attempted: attempted as u64,
        failed: failed as u64,
        correct: failed == 0,
        values: v,
        notes,
        facts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_axes_come_from_the_seed() {
        let a = grid_spec(1);
        assert_eq!(a, grid_spec(1));
        assert_ne!(a, grid_spec(2));
        assert_eq!(a.num_points(), DEVICE_VALUES * PROGRAM_VALUES);
    }

    #[test]
    fn farm_artifact_matches_local_and_a_flipped_byte_is_caught() {
        let spec = SweepSpec::new(ADVISOR_SPEC)
            .axis_ints("device_qubits", [10_000, 30_000])
            .axis_ints("logical_qubits", [8, 16, 24]);
        let local = local_run(&spec, &host::work_file("test-local"), advisor_eval);
        let farm = farm_run(&spec, &host::work_file("test-farm"), advisor_eval);
        assert_eq!(mismatched_lines(&farm.text, &local.text), 0);
        let mut flipped = farm.text.into_bytes();
        flipped[40] ^= 1;
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(mismatched_lines(&flipped, &local.text) > 0);
        for f in ["test-local", "test-farm"] {
            let _ = std::fs::remove_file(host::work_file(f));
        }
    }
}
