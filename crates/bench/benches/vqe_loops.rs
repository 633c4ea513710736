//! Criterion benches for the VQE inner loops (one energy evaluation per
//! regime) — the cost that dominates Figures 12-15 — and the GA fitness
//! compilation hoist (per-genome `NoiseProgram::compile` vs binding a
//! precompiled `NoiseTemplate`), recorded in the bench JSON so the
//! before/after of the hoist stays on the record.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eft_vqa::vqe::noisy_energy;
use eft_vqa::ExecutionRegime;
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_stabilizer::{GroupedObservable, HeisenbergRows, NoiseProgram, NoiseTemplate, Tableau};

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
/// only re-resolves quarter-turn parities. These two benches are that
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

criterion_group!(
    benches,
    bench_energy_evaluations,
    bench_fitness_compilation,
    bench_grouped_expectations
);
criterion_main!(benches);
