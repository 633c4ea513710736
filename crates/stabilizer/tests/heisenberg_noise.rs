//! Oracle test of the Heisenberg-picture noisy estimator.
//!
//! `HeisenbergRows::noisy_walk` takes every term's noiseless value and
//! every shot's sign flips from one reverse walk of a compiled
//! `NoiseProgram`. The oracle is the forward path it replaced:
//! `Tableau::run` plus `Tableau::expectation` for the noiseless values,
//! `NoiseProgram::run_threaded` for the Pauli frames and
//! `PauliFrames::flip_plane_into` per term for the flips, accumulated
//! into per-shot energies in term order. Expectations, every flip bit and
//! the estimators' energies (`to_bits`) must agree exactly.
//!
//! Coverage: random circuits over every gate variant (H, S, S†, X, Y, Z,
//! CX, CZ, SWAP, Measure and bound rotations at −5…5 quarter turns) and
//! symbolic ansätze bound from random genomes; all three site kinds
//! (depol1, depol2 on both qubit orders, twirled idle) at sparse
//! (geometric) and dense (bit-slice) rates; shot counts across lane-word
//! and batch boundaries, one and three threads, and term counts across
//! row-word boundaries.

use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
use eftq_circuit::Circuit;
use eftq_numerics::SeedSequence;
use eftq_pauli::PauliSum;
use eftq_stabilizer::noise::TwirledIdle;
use eftq_stabilizer::{
    estimate_energy_program, estimate_energy_program_grouped, GroupedObservable, HeisenbergRows,
    NoiseProgram, NoiseTemplate, StabilizerNoise, Tableau,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::FRAC_PI_2;

const SHOTS: [usize; 8] = [1, 16, 63, 64, 65, 256, 257, 1000];
const TERMS: [usize; 5] = [1, 63, 64, 65, 130];

/// Noise profiles: sparse rates sample by geometric skipping, dense ones
/// by bit-slice composition (the switch is at p = 0.05), and the last
/// two isolate one site kind each.
fn profiles() -> Vec<StabilizerNoise> {
    let idle = |px, py, pz| TwirledIdle { px, py, pz };
    vec![
        StabilizerNoise {
            depol_1q: 0.01,
            depol_2q: 0.02,
            depol_rz: 0.03,
            depol_rot_xy: 0.015,
            meas_flip: 0.02,
            idle: idle(0.004, 0.003, 0.006),
        },
        StabilizerNoise {
            depol_1q: 0.2,
            depol_2q: 0.3,
            depol_rz: 0.1,
            depol_rot_xy: 0.15,
            meas_flip: 0.05,
            idle: idle(0.06, 0.04, 0.1),
        },
        StabilizerNoise {
            depol_1q: 0.0,
            depol_2q: 0.0,
            depol_rz: 0.0,
            depol_rot_xy: 0.0,
            meas_flip: 0.0,
            idle: idle(0.02, 0.1, 0.05),
        },
        StabilizerNoise {
            depol_1q: 0.0,
            depol_2q: 0.25,
            depol_rz: 0.0,
            depol_rot_xy: 0.0,
            meas_flip: 0.01,
            idle: idle(0.0, 0.0, 0.0),
        },
    ]
}

fn pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    (a, (a + 1 + rng.gen_range(0..n - 1)) % n)
}

/// A random circuit over every gate the programs compile, with layers
/// sparse enough that idle sites appear.
fn random_circuit(rng: &mut StdRng, n: usize, gates: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        let turns = f64::from(rng.gen_range(-5i32..=5)) * FRAC_PI_2;
        match rng.gen_range(0..13) {
            0 => c.h(q),
            1 => c.s(q),
            2 => c.sdg(q),
            3 => c.x(q),
            4 => c.y(q),
            5 => c.z(q),
            6 => c.measure(q),
            7 => c.rx(q, turns),
            8 => c.ry(q, turns),
            9 => c.rz(q, turns),
            10 => {
                let (a, b) = pair(rng, n);
                c.cx(a, b)
            }
            11 => {
                let (a, b) = pair(rng, n);
                c.cz(a, b)
            }
            _ => {
                let (a, b) = pair(rng, n);
                c.swap(a, b)
            }
        };
    }
    c
}

/// `t` random signed terms on `n` qubits (identity strings included).
fn random_terms(rng: &mut StdRng, n: usize, t: usize) -> PauliSum {
    let mut h = PauliSum::new(n);
    for _ in 0..t {
        let letters: String = (0..n)
            .map(|_| ["I", "X", "Y", "Z"][rng.gen_range(0..4)])
            .collect();
        let sign = if rng.gen_bool(0.3) { "-" } else { "" };
        h.push_str(rng.gen_range(-2.0..2.0), &format!("{sign}{letters}"));
    }
    h
}

/// Forward oracle: per-term expectations, the flip bit of every
/// (term, shot) pair as `flips[t][s]`, and the estimator's energy and
/// standard error.
fn forward_oracle(
    circuit: &Circuit,
    h: &PauliSum,
    program: &NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> (Vec<f64>, Vec<Vec<bool>>, f64, f64) {
    let mut ideal = Tableau::new(circuit.num_qubits());
    ideal.run(circuit);
    let e0: Vec<f64> = h
        .terms()
        .iter()
        .map(|t| ideal.expectation(&t.string))
        .collect();
    let frames = program.run_threaded(shots, seed, threads);
    let mut plane = vec![0u64; shots.div_ceil(64)];
    let mut flips = Vec::new();
    let mut energies = vec![0.0f64; shots];
    for (term, &e) in h.terms().iter().zip(&e0) {
        frames.flip_plane_into(&term.string, &mut plane);
        let bits: Vec<bool> = (0..shots)
            .map(|s| plane[s / 64] >> (s % 64) & 1 == 1)
            .collect();
        let damp = (1.0 - 2.0 * meas_flip).powi(term.string.weight() as i32);
        let v = term.coefficient * damp * e;
        if e != 0.0 && v != 0.0 {
            for (s, energy) in energies.iter_mut().enumerate() {
                *energy += v;
                if bits[s] {
                    *energy -= 2.0 * v;
                }
            }
        }
        flips.push(bits);
    }
    (
        e0,
        flips,
        eftq_numerics::stats::mean(&energies),
        eftq_numerics::stats::standard_error(&energies),
    )
}

/// Checks the walk and both estimators against the oracle on one
/// (circuit, program) pair.
#[allow(clippy::too_many_arguments)]
fn check(
    label: &str,
    circuit: &Circuit,
    h: &PauliSum,
    program: &NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) {
    let n = circuit.num_qubits();
    let frames_seed = seed.derive("pauli-frames");
    let (e0, flips, energy, std_error) =
        forward_oracle(circuit, h, program, meas_flip, shots, frames_seed, threads);
    let rows = HeisenbergRows::new(n, h.terms().iter().map(|t| &t.string));
    let walk = rows.noisy_walk(program, shots, frames_seed, threads);
    assert_eq!(walk.num_shots(), shots, "{label}");
    assert_eq!(walk.expectations(), e0.as_slice(), "{label}: expectations");
    let t = h.num_terms();
    for s in 0..shots {
        let row = walk.flip_row(s);
        assert_eq!(row.len(), t.div_ceil(64), "{label}");
        for (k, term_flips) in flips.iter().enumerate() {
            assert_eq!(
                row[k / 64] >> (k % 64) & 1 == 1,
                term_flips[s],
                "{label}: shot {s}, term {k}"
            );
        }
        if t % 64 != 0 {
            assert_eq!(
                row[row.len() - 1] >> (t % 64),
                0,
                "{label}: shot {s} padding"
            );
        }
    }
    let run = estimate_energy_program(circuit, h, program, meas_flip, shots, seed, threads);
    assert_eq!(run.energy.to_bits(), energy.to_bits(), "{label}: energy");
    assert_eq!(run.std_error.to_bits(), std_error.to_bits(), "{label}: std");
    assert_eq!(run.shots, shots);
    let grouped = GroupedObservable::compile(h);
    let run_g =
        estimate_energy_program_grouped(circuit, h, &grouped, program, meas_flip, shots, seed, 1);
    assert_eq!(run_g, run, "{label}: grouped");
}

#[test]
fn random_circuits_match_the_forward_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4e15_e2b0);
    let profiles = profiles();
    let mut case = 0usize;
    for &shots in &SHOTS {
        for &t in &TERMS {
            for threads in [1usize, 3] {
                let n = rng.gen_range(2..=9);
                let circuit = random_circuit(&mut rng, n, 12 + 4 * n);
                let h = random_terms(&mut rng, n, t);
                let noise = profiles[case % profiles.len()];
                let program = NoiseProgram::compile(&circuit, &noise);
                let label = format!("case {case}: n {n}, shots {shots}, T {t}, threads {threads}");
                let seed = SeedSequence::new(case as u64);
                check(
                    &label,
                    &circuit,
                    &h,
                    &program,
                    noise.meas_flip,
                    shots,
                    seed,
                    threads,
                );
                case += 1;
            }
        }
    }
}

#[test]
fn templates_bound_from_random_genomes_match_the_forward_oracle() {
    let mut rng = StdRng::seed_from_u64(0x6e0_3e5);
    let profiles = profiles();
    let ansatze = [
        linear_hea(5, 2),
        fully_connected_hea(7, 1),
        blocked_all_to_all(8, 1),
    ];
    let mut case = 0usize;
    for ansatz in &ansatze {
        let n = ansatz.num_qubits();
        for noise in &profiles {
            let template = NoiseTemplate::compile(ansatz.circuit(), noise);
            for _ in 0..3 {
                let genome: Vec<u8> = (0..ansatz.num_params())
                    .map(|_| rng.gen_range(0..=255u32) as u8)
                    .collect();
                let program = template.bind_clifford(&genome);
                let circuit = ansatz.bind_clifford(&genome);
                let shots = SHOTS[case % SHOTS.len()];
                let t = TERMS[case % TERMS.len()];
                let threads = 1 + 2 * (case % 2);
                let h = random_terms(&mut rng, n, t);
                let label = format!("template case {case}: shots {shots}, T {t}");
                let seed = SeedSequence::new(1000 + case as u64);
                check(
                    &label,
                    &circuit,
                    &h,
                    &program,
                    template.meas_flip(),
                    shots,
                    seed,
                    threads,
                );
                case += 1;
            }
        }
    }
}

#[test]
fn noiseless_programs_flip_nothing() {
    let mut rng = StdRng::seed_from_u64(11);
    let circuit = random_circuit(&mut rng, 6, 40);
    let h = random_terms(&mut rng, 6, 65);
    let program = NoiseProgram::compile(&circuit, &StabilizerNoise::noiseless());
    let rows = HeisenbergRows::new(6, h.terms().iter().map(|t| &t.string));
    let walk = rows.noisy_walk(&program, 300, SeedSequence::new(2), 3);
    for s in 0..300 {
        assert!(walk.flip_row(s).iter().all(|&w| w == 0), "shot {s}");
    }
    check(
        "noiseless",
        &circuit,
        &h,
        &program,
        0.0,
        300,
        SeedSequence::new(2),
        3,
    );
}

/// The sampling pass feeds both the walk and the forward frames, so the
/// oracle above cannot see a change to it. This pins the frames
/// themselves: an FNV hash of every frame letter of one 257-shot,
/// three-thread run per noise profile (all three site kinds, both
/// sampler modes), recorded with the per-site hit injectors the
/// sampling pass replaced.
#[test]
fn sampled_frames_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x9a11_0c4e);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, noise) in profiles().iter().enumerate() {
        let circuit = random_circuit(&mut rng, 7, 60);
        let frames = NoiseProgram::compile(&circuit, noise).run_threaded(
            257,
            SeedSequence::new(i as u64),
            3,
        );
        for s in 0..frames.num_shots() {
            let f = frames.frame(s);
            for q in 0..frames.num_qubits() {
                let letter = f.pauli_at(q);
                h = (h ^ (u64::from(letter.x_bit()) | u64::from(letter.z_bit()) << 1))
                    .wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(h, GOLDEN_FRAMES, "frame hash {h:#018x}");
}

const GOLDEN_FRAMES: u64 = 0x9a3b_f022_699b_3bd7;
