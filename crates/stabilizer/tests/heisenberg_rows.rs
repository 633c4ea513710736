//! Property test of the Heisenberg-picture walk: for random Clifford
//! circuits and random signed Pauli terms, `HeisenbergRows::expectations`
//! must return exactly the bits of `Tableau::expectation` on the
//! forward-run state. The row and qubit counts straddle the 64-bit word
//! boundaries of both layouts (T rows → ⌈T/64⌉ words per column, n qubits
//! → ⌈2n/64⌉), and CI reruns this file with the `wide-words` lanes on.

use eftq_circuit::{Angle, Circuit, Gate};
use eftq_pauli::{Pauli, PauliString};
use eftq_stabilizer::{HeisenbergRows, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::FRAC_PI_2;

const ROWS: [usize; 5] = [1, 63, 64, 65, 130];
const QUBITS: [usize; 5] = [1, 31, 32, 33, 65];

/// A random bound circuit over every gate `Tableau::apply_gate` accepts,
/// plus rotations at −5…5 quarter turns and interleaved measurements.
fn random_circuit(n: usize, len: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        let pick = if n == 1 {
            rng.gen_range(0..10)
        } else {
            rng.gen_range(0..13)
        };
        let angle = Angle::Value(f64::from(rng.gen_range(-5i32..=5)) * FRAC_PI_2);
        let gate = match pick {
            0 => Gate::H(q),
            1 => Gate::S(q),
            2 => Gate::Sdg(q),
            3 => Gate::X(q),
            4 => Gate::Y(q),
            5 => Gate::Z(q),
            6 => Gate::Rz(q, angle),
            7 => Gate::Rx(q, angle),
            8 => Gate::Ry(q, angle),
            9 => Gate::Measure(q),
            _ => {
                let b = (q + 1 + rng.gen_range(0..n - 1)) % n;
                match pick {
                    10 => Gate::Cx(q, b),
                    11 => Gate::Cz(q, b),
                    _ => Gate::Swap(q, b),
                }
            }
        };
        c.push(gate);
    }
    c
}

/// A random term: a sparse or dense letter pattern (Y included) with a
/// −1 phase half of the time. Sparse terms keep a fair share of the
/// conjugated rows X-free, so ±1 values are exercised, not only 0.
fn random_term(n: usize, rng: &mut StdRng) -> PauliString {
    let dense = rng.gen_bool(0.3);
    let letters = (0..n).map(|_| {
        if dense || rng.gen_bool((2.0 / n as f64).min(1.0)) {
            Pauli::ALL[rng.gen_range(0..4)]
        } else {
            Pauli::I
        }
    });
    let mut p = PauliString::from_paulis(letters);
    if rng.gen_bool(0.5) {
        p.mul_phase(2);
    }
    p
}

fn check(n: usize, rows: usize, circuit: &Circuit, terms: &[PauliString]) -> [usize; 3] {
    let mut forward = Tableau::new(n);
    forward.run(circuit);
    let walk = HeisenbergRows::new(n, terms);
    assert_eq!(walk.num_rows(), rows);
    let mut got = vec![f64::NAN; rows];
    walk.expectations(circuit, &mut got);
    let mut seen = [0usize; 3];
    for (p, &g) in terms.iter().zip(&got) {
        let want = forward.expectation(p);
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "n {n}, T {rows}: term {p} walked to {g}, forward tableau says {want}\n{circuit}"
        );
        seen[(want + 1.0) as usize] += 1;
    }
    seen
}

#[test]
fn walk_matches_forward_expectations_across_word_boundaries() {
    let mut rng = StdRng::seed_from_u64(0x4e15);
    // Tally of −1 / 0 / +1 values, so the test cannot pass on zeros only.
    let mut seen = [0usize; 3];
    for &n in &QUBITS {
        for &rows in &ROWS {
            for trial in 0..3 {
                // Short circuits leave many terms deterministic; long ones
                // scramble every qubit.
                let len = [n, 4 * n, 12 * n + 20][trial];
                let circuit = random_circuit(n, len, &mut rng);
                let terms: Vec<PauliString> = (0..rows).map(|_| random_term(n, &mut rng)).collect();
                let s = check(n, rows, &circuit, &terms);
                for (a, b) in seen.iter_mut().zip(s) {
                    *a += b;
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&k| k > 100),
        "value tally −1/0/+1: {seen:?}"
    );
}

#[test]
fn walk_handles_identity_terms_and_empty_circuits() {
    let n = 33;
    let terms = vec![
        PauliString::identity(n),
        format!("-{}", "I".repeat(n)).parse().unwrap(),
        PauliString::single(n, 32, Pauli::Z),
        PauliString::single(n, 0, Pauli::Y),
    ];
    let mut got = vec![0.0; terms.len()];
    HeisenbergRows::new(n, &terms).expectations(&Circuit::new(n), &mut got);
    assert_eq!(got, vec![1.0, -1.0, 1.0, 0.0]);
    let mut c = Circuit::new(n);
    c.h(0).x(32).measure(5);
    assert_eq!(check(n, terms.len(), &c, &terms), [2, 1, 1]);
}

fn walk_one(gate: Gate) {
    let mut c = Circuit::new(2);
    c.h(0).push(gate);
    let terms = [PauliString::single(2, 0, Pauli::Z)];
    HeisenbergRows::new(2, &terms).expectations(&c, &mut [0.0]);
}

#[test]
#[should_panic(expected = "non-Clifford rotation")]
fn walk_rejects_non_clifford_rotations() {
    walk_one(Gate::Ry(1, Angle::Value(0.3)));
}

#[test]
#[should_panic(expected = "tableau cannot apply gate")]
fn walk_rejects_symbolic_rotations() {
    walk_one(Gate::Rz(1, Angle::Param(0)));
}

#[test]
#[should_panic(expected = "tableau cannot apply gate")]
fn walk_rejects_t_gates() {
    walk_one(Gate::T(1));
}
