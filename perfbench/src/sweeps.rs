//! The figure workloads: `clifford_ga` (fig12 at paper scale) and
//! `density_vqe` (fig13 reduced), both through `run_sweep` and the
//! figure drivers, plus their traced replicas.
//!
//! A traced replica reproduces the driver's `eval` call for call through
//! the same public functions, with a span around each call into a layer.
//! Its rows must match the untimed run's rows byte for byte; the
//! difference in wall time is the tracing overhead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eft_vqa::clifford_vqe::{genome_energy, reevaluate_genome, CliffordVqeConfig};
use eft_vqa::hamiltonians::COUPLINGS;
use eft_vqa::regimes::ExecutionRegime;
use eft_vqa::relative_improvement;
use eft_vqa::sweeps::{Fig12Driver, Fig13Driver};
use eft_vqa::varsaw::measured_energy;
use eft_vqa::vqe::VqeConfig;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::{Ansatz, Circuit};
use eftq_numerics::SeedSequence;
use eftq_optim::genetic::{minimize_genetic, GeneticConfig};
use eftq_optim::{NelderMead, Optimizer};
use eftq_pauli::PauliSum;
use eftq_stabilizer::{
    estimate_energy_program_grouped, GroupedObservable, NoiseProgram, NoiseTemplate,
    StabilizerNoise, Tableau,
};
use eftq_statesim::noise::run_noisy;
use eftq_sweep::{run_sweep, ArtifactCache, AxisValue, Row, SweepOptions, SweepPoint, SweepSpec};
use rand::Rng;

use crate::checks::{fig12_row_ok, fig13_row_ok, mismatched_lines, model_hamiltonian};
use crate::host::{self, HostFacts, InputRng};
use crate::metrics::Values;
use crate::spans::{where_table, LayerTotals, SpanId, Spans, ROOT};
use crate::stats::{median, median_secs, tail};
use crate::{Outcome, RunCfg};

/// Set-up repetitions whose median is reported.
const SETUP_REPS: usize = 31;

/// Builds timed together in one set-up sample.
const SETUP_BATCH: usize = 1000;

/// One in this many GA fitness calls is kept for the estimator replay.
const REPLAY_EVERY: usize = 32;

/// Sweep worker threads of `clifford_ga`: the figure binaries' default.
/// The driver's GA runs four fitness threads per point; the run is pinned
/// to one core (see `metrics::PINNED`), so they share it.
const CLIFFORD_SWEEP_THREADS: usize = 1;

/// Sweep worker threads of `density_vqe`. Its points are single-threaded
/// and of unequal length; one at a time keeps a run's wall time the sum
/// of its points instead of a packing of six points onto two cores that
/// also share those cores with each other.
const DENSITY_SWEEP_THREADS: usize = 1;

/// Qubits of the reduced fig13 grid.
const FIG13_QUBITS: usize = 6;

/// The couplings a seed's grid uses: the paper's on the default seed 0,
/// otherwise three distinct values drawn from [0.2, 1.2].
pub fn couplings(seed: u64) -> Vec<f64> {
    if seed == 0 {
        return COUPLINGS.to_vec();
    }
    let mut rng = InputRng::new(seed, 0x0c0u64);
    let mut js: Vec<f64> = Vec::new();
    while js.len() < COUPLINGS.len() {
        let j = (200.0 + (rng.unit() * 1000.0).floor()) / 1000.0;
        if !js.contains(&j) {
            js.push(j);
        }
    }
    js.sort_by(f64::total_cmp);
    js
}

/// `spec` with its `j` axis replaced by `js` (every other axis, the
/// name and the configuration stamp kept as the driver defines them).
fn with_couplings(spec: &SweepSpec, js: &[f64]) -> SweepSpec {
    let mut out = SweepSpec::new(spec.name());
    if let Some(tag) = spec.config() {
        out = out.with_config(tag);
    }
    for axis in spec.axes() {
        let values = if axis.name == "j" {
            js.iter().map(|&j| AxisValue::Num(j)).collect()
        } else {
            axis.values.clone()
        };
        out = out.axis(&axis.name, values);
    }
    out
}

/// One sweep run through `run_sweep` with a checkpoint artifact.
struct SweepRun {
    text: String,
    wall: f64,
    cpu: f64,
    point_secs: Vec<f64>,
    failed: usize,
}

fn run_to_artifact<F>(spec: &SweepSpec, threads: usize, artifact: &Path, eval: F) -> SweepRun
where
    F: Fn(&SweepPoint) -> Row + Sync,
{
    // A leftover file would be resumed instead of recomputed.
    let _ = std::fs::remove_file(artifact);
    let opts = SweepOptions {
        threads,
        artifact: Some(artifact.to_path_buf()),
        ..SweepOptions::default()
    };
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let report = run_sweep(spec, &opts, |p, _| eval(p)).expect("sweep runs");
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu0;
    let text = std::fs::read_to_string(artifact).expect("read the sweep artifact");
    SweepRun {
        text,
        wall,
        cpu,
        point_secs: report.point_secs.clone(),
        failed: report.failed + report.quarantined,
    }
}

fn read(path: &Path) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Where the `clifford_ga` seed-0 reference rows live.
fn reference_path() -> PathBuf {
    host::bench_dir().join("reference/clifford_ga_seed0.jsonl")
}

/// Recaptures the `clifford_ga` reference artifact for seed 0.
pub fn write_reference() -> PathBuf {
    let spec = with_couplings(&Fig12Driver::spec(true), &couplings(0));
    let driver = Fig12Driver::new(true);
    let scratch = host::work_file("reference");
    let run = run_to_artifact(&spec, host::nproc(), &scratch, |p| driver.eval(p));
    let _ = std::fs::remove_file(&scratch);
    assert_eq!(run.failed, 0, "reference run quarantined points");
    let path = reference_path();
    std::fs::write(&path, run.text).expect("write the reference artifact");
    path
}

/// What a figure workload needs to know about its figure.
struct Figure {
    /// The driver's full grid (couplings replaced per seed).
    spec: SweepSpec,
    /// Artifact the default seed must reproduce byte for byte.
    reference: PathBuf,
    /// Invariant check of one row on other seeds.
    row_ok: fn(&str) -> bool,
}

fn fig13_row_ok_reduced(line: &str) -> bool {
    fig13_row_ok(line, FIG13_QUBITS)
}

/// Checks one artifact: byte identity with the reference on seed 0,
/// row invariants on other seeds. Returns the number of failed rows.
fn check_artifact(text: &str, fig: &Figure, seed: u64, notes: &mut Vec<String>) -> usize {
    if seed == 0 {
        let Some(want) = read(&fig.reference) else {
            notes.push(format!(
                "check: reference {} missing",
                fig.reference.display()
            ));
            return fig.spec.num_points();
        };
        let bad = mismatched_lines(text, &want);
        notes.push(format!(
            "check: rows vs {}: {bad} mismatched line(s)",
            fig.reference.display()
        ));
        bad
    } else {
        let bad = text.lines().skip(1).filter(|l| !(fig.row_ok)(l)).count();
        let rows = text.lines().count().saturating_sub(1);
        let missing = fig.spec.num_points().abs_diff(rows);
        notes.push(format!(
            "check: {rows} rows, {bad} failing invariants, {missing} missing"
        ));
        bad + missing
    }
}

/// The fig12 reduced check run: byte-identical to the checked-in
/// artifact on every seed.
fn fig12_reduced_check(threads: usize, notes: &mut Vec<String>) -> (usize, usize) {
    let spec = Fig12Driver::spec(false);
    let driver = Fig12Driver::new(false);
    let run = run_to_artifact(&spec, threads, &host::work_file("fig12_reduced"), |p| {
        driver.eval(p)
    });
    let want = read(&host::repo_root().join("ci/baselines/fig12.jsonl")).unwrap_or_default();
    let bad = mismatched_lines(&run.text, &want) + run.failed;
    notes.push(format!(
        "check: fig12 reduced vs ci/baselines/fig12.jsonl: {bad} mismatched line(s)"
    ));
    (spec.num_points(), bad)
}

/// Timed repetitions of one sweep while another one still fits in
/// `seconds` (always at least one), and the process's peak RSS after the
/// first one (one pass of the workload). Stopping before a repetition
/// would overrun keeps a run's length near `seconds` on a slow host too.
fn timed_reps<F>(cfg: &RunCfg, fig: &Figure, rep: F) -> (Vec<SweepRun>, f64)
where
    F: Fn(&Path) -> SweepRun,
{
    let path = host::work_file(&format!("{}-rep", fig.spec.name()));
    let start = Instant::now();
    let mut runs = vec![rep(&path)];
    let rss = host::peak_rss_mb();
    while start.elapsed().as_secs_f64() + runs.last().map_or(0.0, |r| r.wall) <= cfg.seconds {
        runs.push(rep(&path));
    }
    (runs, rss)
}

/// Shared tail of both figure workloads: checks, end-to-end metrics.
fn untimed_outcome(
    cfg: &RunCfg,
    fig: &Figure,
    runs: &[SweepRun],
    setup_s: f64,
    mut notes: Vec<String>,
) -> (u64, u64, Values, Vec<String>) {
    let mut failed = check_artifact(&runs[0].text, fig, cfg.seed, &mut notes);
    for (i, r) in runs.iter().enumerate() {
        failed += r.failed;
        let drift = mismatched_lines(&r.text, &runs[0].text);
        if drift > 0 {
            notes.push(format!(
                "check: repetition {i} differs from the first in {drift} line(s)"
            ));
            failed += drift;
        }
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    let cpus: Vec<f64> = runs.iter().map(|r| r.cpu).collect();
    let points_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.point_secs.iter().map(|s| s * 1e3))
        .collect();
    let t = tail(&points_ms);
    notes.push(format!(
        "{} repetitions of {} points; wall {walls:.3?} s; cpu {cpus:.3?} s; \
         point latency p50 {:.1} ms, {} {:.1} ms over n={}",
        runs.len(),
        fig.spec.num_points(),
        median(&points_ms),
        t.label,
        t.value,
        t.n
    ));
    let mut v = Values::new();
    v.insert("setup_s", setup_s);
    v.insert("wall_s", median(&walls));
    v.insert("cpu_s", median(&cpus));
    let attempted = (fig.spec.num_points() * runs.len()) as u64;
    (attempted, failed as u64, v, notes)
}

// ---------------------------------------------------------------------
// clifford_ga
// ---------------------------------------------------------------------

/// Inputs of one GA fitness call, kept for the estimator replay.
struct EstimateSample {
    circuit: Circuit,
    program: NoiseProgram,
    observable: Arc<PauliSum>,
    grouped: Arc<GroupedObservable>,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    energy: f64,
}

/// `Fig12Driver::eval` reproduced through the same public functions,
/// with a span around every call into a layer.
struct Fig12Replica<'a> {
    config: CliffordVqeConfig,
    spans: &'a Spans,
    ansatze: ArtifactCache<usize, Ansatz>,
    templates: ArtifactCache<u64, NoiseTemplate>,
    fitness_calls: AtomicUsize,
    samples: Mutex<Vec<EstimateSample>>,
    /// (fresh evaluations, memo hits) summed over every GA run.
    ga_counts: Mutex<(usize, usize)>,
}

impl<'a> Fig12Replica<'a> {
    fn new(config: CliffordVqeConfig, spans: &'a Spans) -> Self {
        Fig12Replica {
            config,
            spans,
            ansatze: ArtifactCache::new(),
            templates: ArtifactCache::new(),
            fitness_calls: AtomicUsize::new(0),
            samples: Mutex::new(Vec::new()),
            ga_counts: Mutex::new((0, 0)),
        }
    }

    fn template(
        &self,
        ansatz: &Ansatz,
        noise: &StabilizerNoise,
        parent: SpanId,
    ) -> Arc<NoiseTemplate> {
        self.templates
            .get_or_build(NoiseTemplate::cache_key(ansatz.circuit(), noise), || {
                self.spans.time("stabilizer.template_compile", parent, |_| {
                    NoiseTemplate::compile(ansatz.circuit(), noise)
                })
            })
    }

    /// `clifford_vqe_with_template`: returns (best energy, best genome).
    fn vqe(
        &self,
        ansatz: &Ansatz,
        h: &Arc<PauliSum>,
        template: &NoiseTemplate,
        parent: SpanId,
    ) -> (f64, Vec<u8>) {
        let sp = self.spans;
        let seeds = SeedSequence::new(self.config.seed);
        let shot_seed = seeds.derive("shots");
        let ga = GeneticConfig {
            seed: seeds.derive("ga").seed(),
            ..self.config.ga
        };
        let shots = self.config.shots.max(1);
        let grouped = Arc::new(sp.time("stabilizer.group_compile", parent, |_| {
            GroupedObservable::compile(h)
        }));
        let result = sp.time("optim.minimize_genetic", parent, |ga_id| {
            minimize_genetic(ansatz.num_params(), &ga, |genome| {
                sp.time("core.fitness", ga_id, |fid| {
                    let circuit = sp.time("circuit.bind_clifford", fid, |_| {
                        ansatz.bind_clifford(genome)
                    });
                    let program = sp.time("stabilizer.template_bind", fid, |_| {
                        template.bind_clifford(genome)
                    });
                    let energy = sp.time("stabilizer.estimate", fid, |_| {
                        estimate_energy_program_grouped(
                            &circuit,
                            h,
                            &grouped,
                            &program,
                            template.meas_flip(),
                            shots,
                            shot_seed,
                            1,
                        )
                        .energy
                    });
                    if self
                        .fitness_calls
                        .fetch_add(1, Ordering::Relaxed)
                        .is_multiple_of(REPLAY_EVERY)
                    {
                        self.samples
                            .lock()
                            .expect("samples poisoned")
                            .push(EstimateSample {
                                circuit,
                                program,
                                observable: Arc::clone(h),
                                grouped: Arc::clone(&grouped),
                                meas_flip: template.meas_flip(),
                                shots,
                                seed: shot_seed,
                                energy,
                            });
                    }
                    energy
                })
            })
        });
        let mut counts = self.ga_counts.lock().expect("ga counts poisoned");
        counts.0 += result.evaluations;
        counts.1 += result.cache_hits;
        (result.best_fitness, result.best_genome)
    }

    fn eval(&self, point: &SweepPoint, parent: SpanId) -> Row {
        let sp = self.spans;
        let n = point.int("qubits") as usize;
        let j = point.num("j");
        let model = point.str("model");
        let h = Arc::new(model_hamiltonian(model, n, j));
        let ansatz = self.ansatze.get_or_build(n, || {
            sp.time("circuit.ansatz_build", parent, |_| {
                fully_connected_hea(n, 1)
            })
        });
        let config = &self.config;
        let pqec_noise = ExecutionRegime::pqec_default().stabilizer_noise();
        let nisq_noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let pqec = self.vqe(
            &ansatz,
            &h,
            &self.template(&ansatz, &pqec_noise, parent),
            parent,
        );
        let nisq = self.vqe(
            &ansatz,
            &h,
            &self.template(&ansatz, &nisq_noise, parent),
            parent,
        );
        let reeval_shots = 8 * config.shots;
        let reeval = |noise: &StabilizerNoise, genome: &[u8]| {
            sp.time("core.reevaluate_genome", parent, |_| {
                reevaluate_genome(
                    &ansatz,
                    &h,
                    noise,
                    genome,
                    reeval_shots,
                    17,
                    config.ga.threads,
                )
            })
        };
        let e_pqec = reeval(&pqec_noise, &pqec.1);
        let e_nisq = reeval(&nisq_noise, &nisq.1);
        let noiseless = StabilizerNoise::noiseless();
        let reference = self.vqe(
            &ansatz,
            &h,
            &self.template(&ansatz, &noiseless, parent),
            parent,
        );
        let exact = |genome: &[u8]| {
            sp.time("core.genome_energy", parent, |_| {
                genome_energy(&ansatz, &h, genome)
            })
        };
        let e0 = reference.0.min(exact(&pqec.1)).min(exact(&nisq.1));
        let gamma = relative_improvement(e0, e_pqec, e_nisq);
        Row::new("fig12")
            .str("model", model)
            .int("qubits", n as i64)
            .num("j", j)
            .num("e0", e0)
            .num("e_pqec", e_pqec)
            .num("e_nisq", e_nisq)
            .num("gamma", gamma)
    }
}

/// Seconds spent in each piece of the grouped estimator, replayed on
/// kept (circuit, program) inputs.
#[derive(Default)]
struct Replay {
    calls: usize,
    tableau_run: f64,
    grouped_expect: f64,
    frames: f64,
    flip_plane: f64,
    mismatches: usize,
}

/// Replays `estimate_energy_program_grouped` piece by piece: the
/// noiseless `Tableau::run`, `GroupedObservable::expectations`,
/// `NoiseProgram::run_threaded` (frame walk plus Bernoulli sampling) and
/// the per-term `PauliFrames::flip_plane_into` accumulation. Each
/// replayed energy must equal the recorded one bit for bit.
fn replay_estimates(samples: &[EstimateSample]) -> Replay {
    let mut r = Replay::default();
    let clock = |acc: &mut f64, t0: Instant| *acc += t0.elapsed().as_secs_f64();
    for s in samples {
        r.calls += 1;
        let t0 = Instant::now();
        let mut ideal = Tableau::new(s.circuit.num_qubits());
        ideal.run(&s.circuit);
        clock(&mut r.tableau_run, t0);
        let t0 = Instant::now();
        let mut e0s = vec![0.0; s.grouped.num_terms()];
        s.grouped.expectations(&ideal, &mut e0s);
        clock(&mut r.grouped_expect, t0);
        let weights: Vec<f64> = s
            .observable
            .terms()
            .iter()
            .zip(&e0s)
            .map(|(term, &e0)| {
                let damp = (1.0 - 2.0 * s.meas_flip).powi(term.string.weight() as i32);
                if e0 == 0.0 {
                    0.0
                } else {
                    term.coefficient * damp * e0
                }
            })
            .collect();
        let energy = if s.program.num_sites() == 0 {
            // A fold from +0.0 like the estimator's loop: `Sum` starts
            // from -0.0 and would flip the sign bit of an all-zero energy.
            let e = weights
                .iter()
                .filter(|v| **v != 0.0)
                .fold(0.0, |acc, v| acc + v);
            eftq_numerics::stats::mean(&vec![e; s.shots])
        } else {
            let t0 = Instant::now();
            let frames = s
                .program
                .run_threaded(s.shots, s.seed.derive("pauli-frames"), 1);
            clock(&mut r.frames, t0);
            let t0 = Instant::now();
            let mut energies = vec![0.0f64; s.shots];
            let mut plane = vec![0u64; s.shots.div_ceil(64)];
            for (term, &v) in s.observable.terms().iter().zip(&weights) {
                if v == 0.0 {
                    continue;
                }
                energies.iter_mut().for_each(|e| *e += v);
                frames.flip_plane_into(&term.string, &mut plane);
                for (w, &word) in plane.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        energies[w * 64 + bits.trailing_zeros() as usize] -= 2.0 * v;
                        bits &= bits - 1;
                    }
                }
            }
            clock(&mut r.flip_plane, t0);
            eftq_numerics::stats::mean(&energies)
        };
        if energy.to_bits() != s.energy.to_bits() {
            r.mismatches += 1;
        }
    }
    r
}

fn get(totals: &BTreeMap<&'static str, LayerTotals>, layer: &str) -> LayerTotals {
    totals.get(layer).copied().unwrap_or_default()
}

/// Per-layer values every traced sweep reports.
fn sweep_layer_values(
    v: &mut Values,
    totals: &BTreeMap<&'static str, LayerTotals>,
    untimed: &SweepRun,
    traced: &SweepRun,
    row_mismatches: usize,
) {
    v.insert("sweep.eval_busy_s", get(totals, "core.point").total_s);
    v.insert(
        "sweep.executor_self_s",
        get(totals, "sweep.run_sweep").self_s,
    );
    v.insert("sweep.point_p50_s", median(&untimed.point_secs));
    v.insert(
        "sweep.point_max_s",
        untimed.point_secs.iter().copied().fold(0.0, f64::max),
    );
    v.insert("trace.overhead_s", traced.wall - untimed.wall);
    v.insert("trace.untimed_wall_s", untimed.wall);
    v.insert("trace.row_mismatches", row_mismatches as f64);
}

/// The `clifford_ga` workload.
pub fn clifford_ga(cfg: &RunCfg) -> Outcome {
    let threads = CLIFFORD_SWEEP_THREADS;
    let js = couplings(cfg.seed);
    let fig = Figure {
        spec: with_couplings(&Fig12Driver::spec(true), &js),
        reference: reference_path(),
        row_ok: fig12_row_ok,
    };
    let setup_s = median_secs(SETUP_REPS, SETUP_BATCH, || {
        let spec = with_couplings(&Fig12Driver::spec(true), &couplings(cfg.seed));
        (
            spec.select(None).expect("full grid"),
            Fig12Driver::new(true),
        )
    });
    let ga_threads = Fig12Driver::new(true).config().ga.threads;
    let mut notes = vec![format!("couplings j = {js:?}")];
    let (check_points, check_bad) = fig12_reduced_check(threads, &mut notes);
    let rep = |path: &Path| {
        let driver = Fig12Driver::new(true);
        let run = run_to_artifact(&fig.spec, threads, path, |p| driver.eval(p));
        (run, driver.append_cache_stats(Row::new("cache")))
    };
    let facts = HostFacts {
        nproc: host::nproc(),
        sweep_threads: threads,
        ga_threads,
        generator_threads: 1,
        loopback: false,
    };
    if !cfg.trace {
        let (runs, rss) = timed_reps(cfg, &fig, |p| rep(p).0);
        let (attempted, failed, mut v, notes) = untimed_outcome(cfg, &fig, &runs, setup_s, notes);
        v.insert("peak_rss_mb", rss);
        let failed = failed + check_bad as u64;
        return Outcome {
            attempted: attempted + check_points as u64,
            failed,
            correct: failed == 0,
            values: v,
            notes,
            facts,
        };
    }

    // Traced run: one untimed repetition, then the replica under spans.
    let (untimed, cache) = rep(&host::work_file("fig12-untimed"));
    let mut failed = check_artifact(&untimed.text, &fig, cfg.seed, &mut notes) + untimed.failed;
    let spans = Spans::default();
    let replica = Fig12Replica::new(*Fig12Driver::new(true).config(), &spans);
    let traced = spans.time("sweep.run_sweep", ROOT, |sid| {
        run_to_artifact(&fig.spec, threads, &host::work_file("fig12-traced"), |p| {
            spans.time("core.point", sid, |pid| replica.eval(p, pid))
        })
    });
    let row_mismatches = mismatched_lines(&traced.text, &untimed.text);
    let samples = replica.samples.into_inner().expect("samples poisoned");
    let replay = replay_estimates(&samples);
    failed += row_mismatches + replay.mismatches + check_bad;
    let totals = spans.totals();
    let mut v = Values::new();
    let est = get(&totals, "stabilizer.estimate");
    v.insert("stabilizer.estimate_s", est.total_s);
    v.insert("stabilizer.estimate_calls", est.calls as f64);
    v.insert(
        "stabilizer.template_bind_s",
        get(&totals, "stabilizer.template_bind").total_s,
    );
    v.insert(
        "stabilizer.template_compile_s",
        get(&totals, "stabilizer.template_compile").total_s,
    );
    v.insert(
        "stabilizer.group_compile_s",
        get(&totals, "stabilizer.group_compile").total_s,
    );
    // The replay covers one call in REPLAY_EVERY; scale it to every call.
    let scale = est.calls as f64 / replay.calls.max(1) as f64;
    v.insert("stabilizer.tableau_run_s", replay.tableau_run * scale);
    v.insert("stabilizer.grouped_expect_s", replay.grouped_expect * scale);
    v.insert("stabilizer.frames_s", replay.frames * scale);
    v.insert("stabilizer.flip_plane_s", replay.flip_plane * scale);
    v.insert(
        "circuit.bind_clifford_s",
        get(&totals, "circuit.bind_clifford").total_s,
    );
    let (evals, hits) = *replica.ga_counts.lock().expect("ga counts poisoned");
    v.insert(
        "optim.ga_self_s",
        get(&totals, "optim.minimize_genetic").self_s,
    );
    v.insert("optim.ga_evals", evals as f64);
    v.insert(
        "optim.ga_memo_hit_ratio",
        hits as f64 / (evals + hits).max(1) as f64,
    );
    v.insert(
        "core.reeval_s",
        get(&totals, "core.reevaluate_genome").total_s,
    );
    v.insert(
        "core.genome_energy_s",
        get(&totals, "core.genome_energy").total_s,
    );
    let int = |k: &str| cache.get_int(k).unwrap_or(0) as f64;
    let hits = int("ansatz_cache_hits") + int("template_cache_hits");
    let misses = int("ansatz_cache_misses") + int("template_cache_misses");
    v.insert("sweep.cache_hit_ratio", hits / (hits + misses).max(1.0));
    v.insert("trace.replay_mismatches", replay.mismatches as f64);
    sweep_layer_values(&mut v, &totals, &untimed, &traced, row_mismatches);

    notes.extend(where_table("clifford_ga", &totals, traced.wall));
    let piece_total =
        replay.tableau_run + replay.grouped_expect + replay.frames + replay.flip_plane;
    let share = |x: f64| 100.0 * x / piece_total.max(1e-12);
    notes.push(format!(
        "estimator replay ({} of {} calls, {} bit mismatches): tableau_run {:.1}%, \
         grouped_expect {:.1}%, frames (gate walk + Bernoulli sampling) {:.1}%, flip_plane {:.1}%",
        replay.calls,
        est.calls,
        replay.mismatches,
        share(replay.tableau_run),
        share(replay.grouped_expect),
        share(replay.frames),
        share(replay.flip_plane)
    ));
    let thread_s: f64 = totals.values().map(|t| t.self_s).sum();
    let frames_of_wall = 100.0 * replay.frames * scale / thread_s.max(1e-12);
    notes.push(format!(
        "Bernoulli question: NoiseProgram::run_threaded (which contains all Bernoulli sampling) \
         is {:.1}% of the estimator and {frames_of_wall:.1}% of thread time, so sampling {} fig12",
        share(replay.frames),
        if share(replay.frames) > 50.0 {
            "can dominate"
        } else {
            "does not dominate"
        }
    ));
    notes.push(format!(
        "traced rows vs untimed rows: {row_mismatches} mismatched line(s); \
         tracing overhead {:.3} s on {:.3} s",
        traced.wall - untimed.wall,
        untimed.wall
    ));
    let attempted = (fig.spec.num_points() * 2 + check_points) as u64;
    Outcome {
        attempted,
        failed: failed as u64,
        correct: failed == 0,
        values: v,
        notes,
        facts,
    }
}

// ---------------------------------------------------------------------
// density_vqe
// ---------------------------------------------------------------------

/// `Fig13Driver::eval` (reduced scale) reproduced through the same
/// public functions, with a span around every call into a layer.
struct Fig13Replica<'a> {
    config: VqeConfig,
    spans: &'a Spans,
    nm_evals: AtomicUsize,
}

impl Fig13Replica<'_> {
    /// `run_vqe` with the Nelder–Mead optimizer: the best energy.
    fn run_vqe(
        &self,
        ansatz: &Ansatz,
        h: &PauliSum,
        regime: &ExecutionRegime,
        parent: SpanId,
    ) -> f64 {
        let sp = self.spans;
        let config = &self.config;
        let seeds = SeedSequence::new(config.seed).derive("vqe");
        let mut best: Option<f64> = None;
        for restart in 0..config.restarts {
            let mut rng = seeds.derive_index(restart as u64).rng();
            let x0: Vec<f64> = (0..ansatz.num_params())
                .map(|_| rng.gen::<f64>() * std::f64::consts::PI - std::f64::consts::FRAC_PI_2)
                .collect();
            let result = sp.time("optim.nelder_mead", parent, |nm| {
                let mut objective = |params: &[f64]| {
                    sp.time("core.objective", nm, |oid| {
                        let circuit = sp.time("circuit.bind", oid, |_| ansatz.bind(params));
                        let mut noise = regime.noise_model();
                        let meas_flip = noise.meas_flip;
                        noise.meas_flip = 0.0;
                        let (rho, _) =
                            sp.time("statesim.run_noisy", oid, |_| run_noisy(&circuit, &noise));
                        sp.time("core.measured_energy", oid, |_| {
                            measured_energy(
                                &rho,
                                h,
                                meas_flip.min(0.49),
                                config.mitigate_measurement,
                            )
                        })
                    })
                };
                NelderMead {
                    max_iters: config.max_iters,
                    ..NelderMead::default()
                }
                .minimize(&mut objective, &x0)
            });
            self.nm_evals
                .fetch_add(result.evaluations, Ordering::Relaxed);
            if best.is_none_or(|b| result.best_value < b) {
                best = Some(result.best_value);
            }
        }
        best.expect("at least one restart ran")
    }

    fn eval(&self, point: &SweepPoint, parent: SpanId) -> Row {
        let sp = self.spans;
        let j = point.num("j");
        let model = point.str("model");
        let n = FIG13_QUBITS;
        let h = model_hamiltonian(model, n, j);
        let row = Row::new("fig13").str("model", model).num("j", j);
        let label = format!("{model}-{n} J={j}");
        let ansatz = sp.time("circuit.ansatz_build", parent, |_| {
            fully_connected_hea(n, 1)
        });
        let e0 = sp.time("numerics.lanczos", parent, |_| {
            h.ground_energy_default().expect("lanczos")
        });
        let pqec = self.run_vqe(&ansatz, &h, &ExecutionRegime::pqec_default(), parent);
        let nisq = self.run_vqe(&ansatz, &h, &ExecutionRegime::nisq_default(), parent);
        let gamma = relative_improvement(e0, pqec, nisq);
        row.str("benchmark", &label)
            .int("n", n as i64)
            .num("e0", e0)
            .num("e_pqec", pqec)
            .num("e_nisq", nisq)
            .num("gamma", gamma)
    }
}

/// The `density_vqe` workload.
pub fn density_vqe(cfg: &RunCfg) -> Outcome {
    let threads = DENSITY_SWEEP_THREADS;
    let js = couplings(cfg.seed);
    let fig = Figure {
        spec: with_couplings(&Fig13Driver::spec(false), &js),
        reference: host::repo_root().join("ci/baselines/fig13.jsonl"),
        row_ok: fig13_row_ok_reduced,
    };
    let setup_s = median_secs(SETUP_REPS, SETUP_BATCH, || {
        let spec = with_couplings(&Fig13Driver::spec(false), &couplings(cfg.seed));
        (
            spec.select(None).expect("full grid"),
            Fig13Driver::new(false),
        )
    });
    let notes = vec![format!("couplings j = {js:?}")];
    let rep = |path: &Path| {
        let driver = Fig13Driver::new(false);
        run_to_artifact(&fig.spec, threads, path, |p| driver.eval(p))
    };
    let facts = HostFacts {
        nproc: host::nproc(),
        sweep_threads: threads,
        ga_threads: 0,
        generator_threads: 1,
        loopback: false,
    };
    if !cfg.trace {
        let (runs, rss) = timed_reps(cfg, &fig, rep);
        let (attempted, failed, mut v, notes) = untimed_outcome(cfg, &fig, &runs, setup_s, notes);
        v.insert("peak_rss_mb", rss);
        return Outcome {
            attempted,
            failed,
            correct: failed == 0,
            values: v,
            notes,
            facts,
        };
    }

    let mut notes = notes;
    let untimed = rep(&host::work_file("fig13-untimed"));
    let mut failed = check_artifact(&untimed.text, &fig, cfg.seed, &mut notes) + untimed.failed;
    let spans = Spans::default();
    let replica = Fig13Replica {
        config: VqeConfig {
            max_iters: 300,
            restarts: 2,
            ..VqeConfig::default()
        },
        spans: &spans,
        nm_evals: AtomicUsize::new(0),
    };
    let traced = spans.time("sweep.run_sweep", ROOT, |sid| {
        run_to_artifact(&fig.spec, threads, &host::work_file("fig13-traced"), |p| {
            spans.time("core.point", sid, |pid| replica.eval(p, pid))
        })
    });
    let row_mismatches = mismatched_lines(&traced.text, &untimed.text);
    failed += row_mismatches;
    let totals = spans.totals();
    let mut v = Values::new();
    v.insert("circuit.bind_s", get(&totals, "circuit.bind").total_s);
    let noisy = get(&totals, "statesim.run_noisy");
    v.insert("statesim.run_noisy_s", noisy.total_s);
    v.insert("statesim.run_noisy_calls", noisy.calls as f64);
    v.insert(
        "core.measured_energy_s",
        get(&totals, "core.measured_energy").total_s,
    );
    v.insert("optim.nm_self_s", get(&totals, "optim.nelder_mead").self_s);
    v.insert(
        "optim.nm_evals",
        replica.nm_evals.load(Ordering::Relaxed) as f64,
    );
    v.insert(
        "numerics.lanczos_s",
        get(&totals, "numerics.lanczos").total_s,
    );
    sweep_layer_values(&mut v, &totals, &untimed, &traced, row_mismatches);
    notes.extend(where_table("density_vqe", &totals, traced.wall));
    notes.push(format!(
        "traced rows vs untimed rows: {row_mismatches} mismatched line(s); \
         tracing overhead {:.3} s on {:.3} s",
        traced.wall - untimed.wall,
        untimed.wall
    ));
    Outcome {
        attempted: (fig.spec.num_points() * 2) as u64,
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
    fn default_seed_uses_paper_couplings_and_others_draw_new_ones() {
        assert_eq!(couplings(0), COUPLINGS.to_vec());
        let a = couplings(5);
        assert_eq!(a, couplings(5));
        assert_ne!(a, couplings(6));
        assert_eq!(a.len(), 3);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|j| (0.2..1.2).contains(j)));
    }

    #[test]
    fn coupling_swap_keeps_the_driver_grid() {
        let base = Fig12Driver::spec(true);
        assert_eq!(with_couplings(&base, &couplings(0)), base);
        let other = with_couplings(&base, &couplings(3));
        assert_eq!(other.num_points(), base.num_points());
        assert_eq!(other.config(), base.config());
    }
}
