//! Criterion micro-benches for the simulation substrates: state-vector and
//! density-matrix gate application, tableau operations, and noisy shots.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eftq_circuit::ansatz::fully_connected_hea;
use eftq_circuit::Circuit;
use eftq_numerics::{BernoulliWords, SeedSequence};
use eftq_pauli::PauliSum;
use eftq_stabilizer::{
    estimate_energy, estimate_energy_tableau, estimate_energy_threaded, run_noisy_frames,
    run_noisy_frames_percall, NoiseProgram, Tableau,
};
use eftq_statesim::noise::run_noisy;
use eftq_statesim::{DensityMatrix, StateVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    group.sample_size(20);
    for n in [8usize, 12, 16] {
        let ansatz = fully_connected_hea(n, 1);
        let circuit = ansatz.circuit().bind_all(0.37);
        group.bench_with_input(BenchmarkId::new("fche_p1", n), &circuit, |b, circ| {
            b.iter(|| StateVector::from_circuit(circ));
        });
    }
    group.finish();
}

fn bench_density_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let ansatz = fully_connected_hea(n, 1);
        let circuit = ansatz.circuit().bind_all(0.37);
        let noise = eft_vqa::ExecutionRegime::pqec_default().noise_model();
        group.bench_with_input(BenchmarkId::new("noisy_fche_p1", n), &circuit, |b, circ| {
            b.iter(|| run_noisy(circ, &noise));
        });
        // NISQ adds thermal relaxation on every gate and idle slot.
        let nisq = eft_vqa::ExecutionRegime::nisq_default().noise_model();
        group.bench_with_input(
            BenchmarkId::new("noisy_fche_nisq", n),
            &circuit,
            |b, circ| {
                b.iter(|| run_noisy(circ, &nisq));
            },
        );
        group.bench_with_input(BenchmarkId::new("pure_fche_p1", n), &circuit, |b, circ| {
            b.iter(|| DensityMatrix::from_circuit(circ));
        });
    }
    group.finish();
}

fn bench_tableau(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau");
    group.sample_size(20);
    for n in [25usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("ghz_chain", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = Tableau::new(n);
                t.h(0);
                for q in 0..n - 1 {
                    t.cx(q, q + 1);
                }
                t
            });
        });
    }
    // Noisy Clifford energy estimation: the Figure-12 inner loop.
    let n = 24;
    let h: PauliSum = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 1);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let circuit: Circuit = ansatz.bind_clifford(&ks);
    let noise = eft_vqa::ExecutionRegime::pqec_default().stabilizer_noise();
    group.bench_function("noisy_energy_24q_8shots", |b| {
        b.iter(|| estimate_energy(&circuit, &h, &noise, 8, SeedSequence::new(7)));
    });
    group.finish();
}

/// The word-parallel gate kernels in isolation: dense single- and
/// two-qubit layers on registers spanning one to several row words.
fn bench_tableau_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_gates");
    group.sample_size(20);
    for n in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("dense_layers", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = Tableau::new(n);
                for q in 0..n {
                    t.h(q);
                }
                for q in 0..n {
                    t.cx(q, (q + 1) % n);
                }
                for q in 0..n {
                    t.s(q);
                }
                for q in 0..n - 1 {
                    t.cz(q, q + 1);
                }
                t
            });
        });
    }
    group.finish();
}

/// Pauli-frame propagation throughput: noisy shots per circuit walk,
/// compiled batched sampler vs the per-call reference.
fn bench_frame_shots(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_shots");
    group.sample_size(20);
    let n = 16;
    let ansatz = fully_connected_hea(n, 2);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let circuit: Circuit = ansatz.bind_clifford(&ks);
    let noise = eft_vqa::ExecutionRegime::nisq_default().stabilizer_noise();
    for shots in [64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("nisq_16q_p2", shots), &shots, |b, &s| {
            b.iter(|| run_noisy_frames(&circuit, &noise, s, SeedSequence::new(7)));
        });
        group.bench_with_input(
            BenchmarkId::new("nisq_16q_p2_percall", shots),
            &shots,
            |b, &s| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    run_noisy_frames_percall(&circuit, &noise, s, &mut rng)
                });
            },
        );
    }
    group.finish();
}

/// The batched Bernoulli sampler and the compiled noise program in
/// isolation: sparse (geometric-skip) and dense (bit-slice) rates vs the
/// per-trial `gen_bool` baseline, plus paper-scale noisy frame runs at 16
/// and 100 qubits.
fn bench_noise_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_sampling");
    group.sample_size(20);
    const TRIALS: usize = 64 * 1024;
    for (label, p) in [("sparse_1e-3", 1e-3), ("dense_0.3", 0.3)] {
        group.bench_function(format!("bernoulli_words/{label}"), |b| {
            let mut mask = vec![0u64; TRIALS / 64];
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut sampler = BernoulliWords::new(p);
                sampler.fill_mask(&mut mask, TRIALS, &mut rng);
                mask[0]
            });
        });
        group.bench_function(format!("gen_bool_percall/{label}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut hits = 0usize;
                for _ in 0..TRIALS {
                    if rng.gen_bool(p) {
                        hits += 1;
                    }
                }
                black_box(hits)
            });
        });
    }
    for n in [16usize, 100] {
        let ansatz = fully_connected_hea(n, 1);
        let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
        let circuit: Circuit = ansatz.bind_clifford(&ks);
        let noise = eft_vqa::ExecutionRegime::nisq_default().stabilizer_noise();
        let program = NoiseProgram::compile(&circuit, &noise);
        group.bench_with_input(
            BenchmarkId::new("noise_program_nisq_1024shots", n),
            &program,
            |b, prog| {
                b.iter(|| prog.run(1024, SeedSequence::new(7)));
            },
        );
    }
    group.finish();
}

/// The acceptance-criterion workload: 16-qubit, 2-layer HEA with NISQ
/// noise at 256 shots — frame-batched estimator vs the per-shot tableau
/// reference path (the seed implementation).
fn bench_estimate_energy_16q(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate_energy_16q");
    let n = 16;
    let h: PauliSum = eft_vqa::hamiltonians::ising_1d(n, 1.0);
    let ansatz = fully_connected_hea(n, 2);
    let ks: Vec<u8> = (0..ansatz.num_params()).map(|i| (i % 4) as u8).collect();
    let circuit: Circuit = ansatz.bind_clifford(&ks);
    let noise = eft_vqa::ExecutionRegime::nisq_default().stabilizer_noise();
    group.sample_size(20);
    group.bench_function("frame_256shots", |b| {
        b.iter(|| estimate_energy(&circuit, &h, &noise, 256, SeedSequence::new(7)));
    });
    group.bench_function("frame_4096shots_threads4", |b| {
        b.iter(|| estimate_energy_threaded(&circuit, &h, &noise, 4096, SeedSequence::new(7), 4));
    });
    group.sample_size(10);
    group.bench_function("per_shot_tableau_256shots", |b| {
        b.iter(|| estimate_energy_tableau(&circuit, &h, &noise, 256, SeedSequence::new(7)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_density_matrix,
    bench_tableau,
    bench_tableau_gates,
    bench_frame_shots,
    bench_noise_sampling,
    bench_estimate_energy_16q
);
criterion_main!(benches);
