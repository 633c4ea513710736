//! Criterion benches for the VQE inner loops (one energy evaluation per
//! regime) — the cost that dominates Figures 12-15 — and the GA fitness
//! compilation hoist (per-genome `NoiseProgram::compile` vs binding a
//! precompiled `NoiseTemplate`), recorded in the bench JSON so the
//! before/after of the hoist stays on the record, and whole 100-qubit GA
//! fitness evaluations next to the forward frame walk they replaced.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eft_vqa::vqe::noisy_energy;
use eft_vqa::ExecutionRegime;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_numerics::SeedSequence;
use eftq_stabilizer::{
    estimate_energy_program_grouped, GroupedObservable, HeisenbergRows, NoiseProgram,
    NoiseTemplate, Tableau,
};

fn bench_energy_evaluations(c: &mut Criterion) {
    let mut group = c.benchmark_group("vqe_energy");
    group.sample_size(10);
    let n = 6;
    let h = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 1);
    let params: Vec<f64> = (0..ansatz.num_params()).map(|i| 0.1 * i as f64).collect();
    for regime in [
        ExecutionRegime::nisq_default(),
        ExecutionRegime::pqec_default(),
    ] {
        group.bench_function(format!("dm_energy_6q_{}", regime.name()), |b| {
            b.iter(|| noisy_energy(&ansatz, &params, &regime, &h, false));
        });
    }
    group.finish();
}

/// The Figure-12 GA fitness loop used to recompile the noise program for
/// every genome; now the symbolic ansatz compiles once and each genome
/// only binds its quarter turns. These two benches are that
/// before/after at the Figure-12 16-qubit shape.
fn bench_fitness_compilation(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_compile");
    group.sample_size(20);
    let n = 16;
    let ansatz = fully_connected_hea(n, 1);
    let noise = ExecutionRegime::nisq_default().stabilizer_noise();
    let genome: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    group.bench_function("per_genome_compile_16q", |b| {
        b.iter(|| NoiseProgram::compile(&ansatz.bind_clifford(&genome), &noise));
    });
    let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
    group.bench_function("template_bind_16q", |b| {
        b.iter(|| template.bind_clifford(&genome));
    });
    group.finish();
}

/// The noiseless-expectation half of a Figure-12 fitness evaluation at
/// the full 100-qubit scale.
///
/// * `grouped_ising_100q` / `per_term_ising_100q`: all 199 Ising terms on
///   a prebuilt tableau, through `GroupedObservable::expectations` (one
///   `Tableau::expectation` per term) and a naive per-term sweep.
/// * `fche_e0_{ising,heisenberg}_100q`: the whole noiseless step the
///   estimators take from a bound FCHE circuit — one reverse
///   `HeisenbergRows` walk over precompiled term rows.
///   `fche_forward_e0_heisenberg_100q` is the forward path it replaced
///   (tableau run plus per-term expectations), kept as the record.
fn bench_grouped_expectations(c: &mut Criterion) {
    let mut group = c.benchmark_group("grouped_e0");
    group.sample_size(20);
    let n = 100;
    let h = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 1);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let circuit = ansatz.bind_clifford(&ks);
    let heisenberg = eft_vqa::hamiltonians::heisenberg_1d(n, 1.0);
    for (name, obs) in [("ising", &h), ("heisenberg", &heisenberg)] {
        let rows = HeisenbergRows::new(n, obs.terms().iter().map(|t| &t.string));
        let mut e0 = vec![0.0; obs.num_terms()];
        group.bench_function(format!("fche_e0_{name}_100q"), |b| {
            b.iter(|| {
                rows.expectations(&circuit, &mut e0);
                black_box(&e0);
            });
        });
    }
    group.bench_function("fche_forward_e0_heisenberg_100q", |b| {
        b.iter(|| {
            let mut t = Tableau::new(n);
            t.run(&circuit);
            let e0: Vec<f64> = heisenberg
                .terms()
                .iter()
                .map(|term| t.expectation(&term.string))
                .collect();
            black_box(e0)
        });
    });
    let mut t = Tableau::new(n);
    t.run(&circuit);
    let grouped = GroupedObservable::compile(&h);
    let mut e0 = vec![0.0; h.num_terms()];
    group.bench_function("grouped_ising_100q", |b| {
        b.iter(|| {
            grouped.expectations(&t, &mut e0);
            black_box(&e0);
        });
    });
    group.bench_function("per_term_ising_100q", |b| {
        b.iter(|| {
            let mut e = 0.0;
            for term in h.terms() {
                e += term.coefficient * t.expectation(&term.string);
            }
            black_box(e)
        });
    });
    group.finish();
}

/// One Figure-12 GA fitness evaluation at the full 100-qubit scale, as
/// `clifford_vqe_with_template` runs it: bind the genome into the
/// precompiled template, then one 16-shot `noisy_walk` estimate (no
/// bound `Circuit`).
///
/// * `fche_{ising,heisenberg}_100q_{pqec,nisq}`: both models under both
///   regimes' noise.
/// * `forward_frames_heisenberg_100q_nisq`: the noise half of the path
///   the walk replaced — the forward frame walk (`run_threaded`) plus one
///   `flip_plane_into` per term — kept as the record.
fn bench_ga_fitness(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_fitness");
    group.sample_size(20);
    let n = 100;
    let shots = 16;
    let ansatz = fully_connected_hea(n, 1);
    let genome: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let seed = SeedSequence::new(7);
    let ising = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let heisenberg = eft_vqa::hamiltonians::heisenberg_1d(n, 1.0);
    for regime in [
        ExecutionRegime::pqec_default(),
        ExecutionRegime::nisq_default(),
    ] {
        let template = NoiseTemplate::compile(ansatz.circuit(), &regime.stabilizer_noise());
        for (name, obs) in [("ising", &ising), ("heisenberg", &heisenberg)] {
            let grouped = GroupedObservable::compile(obs);
            let id = format!("fche_{name}_100q_{}", regime.name().to_lowercase());
            group.bench_function(id, |b| {
                b.iter(|| {
                    let program = template.bind_clifford(&genome);
                    estimate_energy_program_grouped(
                        ansatz.circuit(),
                        obs,
                        &grouped,
                        &program,
                        template.meas_flip(),
                        shots,
                        seed,
                        1,
                    )
                    .energy
                });
            });
        }
    }
    let nisq = NoiseTemplate::compile(
        ansatz.circuit(),
        &ExecutionRegime::nisq_default().stabilizer_noise(),
    );
    let program = nisq.bind_clifford(&genome);
    group.bench_function("forward_frames_heisenberg_100q_nisq", |b| {
        b.iter(|| {
            let frames = program.run_threaded(shots, seed.derive("pauli-frames"), 1);
            let mut plane = [0u64; 1];
            let mut flips = 0u32;
            for term in heisenberg.terms() {
                frames.flip_plane_into(&term.string, &mut plane);
                flips += plane[0].count_ones();
            }
            black_box(flips)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_energy_evaluations,
    bench_fitness_compilation,
    bench_grouped_expectations,
    bench_ga_fitness
);
criterion_main!(benches);
