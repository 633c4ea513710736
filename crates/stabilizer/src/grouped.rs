//! A Hamiltonian compiled once for many candidate states: its Heisenberg
//! term rows and its qubit-wise-commuting (QWC) measurement groups.
//!
//! [`GroupedObservable::compile`] does the state-independent work once
//! per observable, so every fitness evaluation of a genetic search shares
//! it (like the [`crate::NoiseTemplate`] compiled beside it):
//!
//! 1. **Term rows.** The terms become the rows of a [`HeisenbergRows`]
//!    plane, from which [`estimate_energy_program_grouped`] gets every
//!    noiseless expectation and every shot's sign flips in one reverse
//!    walk of the bound program (see [`HeisenbergRows::noisy_walk`] for
//!    the walk and its cost).
//! 2. **Groups.** [`eftq_pauli::group_qubit_wise_commuting`] partitions
//!    the terms; per group the compile records which qubits rotate `X→Z`
//!    (H) or `Y→Z` (S† then H), the ascending union support, and each
//!    member term's original index, sign, and support.
//!
//! The groups drive [`sample_energy_grouped`], the measurement-style
//! estimator: outcome words are sampled once per group (Stim-style
//! reference-frame randomization supplies the branch randomness for
//! indeterminate measurements) and every member term is read off the
//! shared shot words, turning `#terms × #shots` sampling work into
//! `#groups × #shots`.
//!
//! [`GroupedObservable::expectations`] evaluates the terms on a prebuilt
//! [`Tableau`] directly, one [`Tableau::expectation`] per term. The
//! groups do not help there: collapsing a group costs one `measure` per
//! union qubit, each as dear as an `expectation`, so it could only pay
//! when a group holds more terms than union qubits — which no group of a
//! 1-D Ising or Heisenberg chain does.
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::Circuit;
//! use eftq_pauli::PauliSum;
//! use eftq_stabilizer::{GroupedObservable, Tableau};
//!
//! // GHZ state; TFIM-style observable with a ZZ group and an X group.
//! let mut h = PauliSum::new(3);
//! h.push_str(-1.0, "ZZI");
//! h.push_str(-1.0, "IZZ");
//! h.push_str(0.5, "XXX");
//! let grouped = GroupedObservable::compile(&h);
//! assert_eq!(grouped.num_groups(), 2); // {ZZI, IZZ} and {XXX}
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let mut t = Tableau::new(3);
//! t.run(&c);
//!
//! let mut e0 = vec![0.0; grouped.num_terms()];
//! grouped.expectations(&t, &mut e0);
//! assert_eq!(e0, vec![1.0, 1.0, 1.0]); // ⟨ZZI⟩ = ⟨IZZ⟩ = ⟨XXX⟩ = +1
//! assert_eq!(grouped.energy(&t), t.energy(&h)); // −1 −1 +0.5
//! ```

use crate::frame::lo_mask_tail;
use crate::noise::{estimate_energy_rows, NoisyCliffordRun};
use crate::program::NoiseProgram;
use crate::tableau::{HeisenbergRows, Tableau};
use eftq_circuit::Circuit;
use eftq_numerics::{BernoulliWords, SeedSequence};
use eftq_pauli::{group_qubit_wise_commuting, Pauli, PauliSum};

/// An RNG that always returns zero, used to pick a *canonical branch*
/// when [`sample_energy_grouped`] collapses a group for its reference
/// outcomes. The frames' reference-frame randomization supplies the
/// per-shot branch, so any fixed choice will do; fixing it keeps the
/// sampler a pure function of its seed.
struct ZeroRng;

impl rand::RngCore for ZeroRng {
    fn next_u64(&mut self) -> u64 {
        0
    }
}

/// One term of a compiled group: where it lives in the original sum and
/// how to read its value off the group's outcome words.
#[derive(Clone, Debug)]
struct CompiledTerm {
    /// Index into the originating [`PauliSum::terms`].
    index: usize,
    /// ±1 from the string's phase exponent (0 → +1, 2 → −1).
    sign: f64,
    /// Ascending support qubits.
    support: Vec<usize>,
    /// The original string, for the direct per-term path.
    string: eftq_pauli::PauliString,
}

/// One compiled QWC group.
#[derive(Clone, Debug)]
struct CompiledGroup {
    /// Qubits whose basis letter is X: rotate with H.
    rot_x: Vec<usize>,
    /// Qubits whose basis letter is Y: rotate with S† then H.
    rot_y: Vec<usize>,
    /// Ascending union support with each qubit's measurement letter.
    union: Vec<(usize, Pauli)>,
    /// Member terms.
    terms: Vec<CompiledTerm>,
}

/// A Hamiltonian compiled into Heisenberg term rows and
/// qubit-wise-commuting measurement groups.
///
/// Compile once per observable (the rows, the partition and the
/// coefficient table are state-independent) and reuse across every
/// candidate state — the genetic search compiles alongside its
/// [`crate::NoiseTemplate`] so all fitness evaluations share both
/// caches. See the [module docs](self) for the algorithm and a worked
/// example.
#[derive(Clone, Debug)]
pub struct GroupedObservable {
    n: usize,
    num_terms: usize,
    groups: Vec<CompiledGroup>,
    /// The terms' strings in original order, as Heisenberg rows.
    rows: HeisenbergRows,
    /// Original-order term coefficients (for the energy accumulators).
    coefficients: Vec<f64>,
}

impl GroupedObservable {
    /// Packs `observable`'s terms as Heisenberg rows, partitions them
    /// into QWC groups and compiles each group's basis rotation.
    ///
    /// # Panics
    ///
    /// Panics if any term carries an imaginary phase (`i^1`/`i^3`) —
    /// expectation values are only defined for Hermitian terms.
    pub fn compile(observable: &PauliSum) -> GroupedObservable {
        let n = observable.num_qubits();
        let groups = group_qubit_wise_commuting(observable)
            .into_iter()
            .map(|g| {
                let mut rot_x = Vec::new();
                let mut rot_y = Vec::new();
                let mut union = Vec::new();
                for (q, &b) in g.basis.iter().enumerate() {
                    match b {
                        Pauli::I => {}
                        Pauli::X => {
                            rot_x.push(q);
                            union.push((q, b));
                        }
                        Pauli::Y => {
                            rot_y.push(q);
                            union.push((q, b));
                        }
                        Pauli::Z => union.push((q, b)),
                    }
                }
                let terms: Vec<CompiledTerm> = g
                    .term_indices
                    .iter()
                    .zip(&g.terms)
                    .map(|(&index, t)| CompiledTerm {
                        index,
                        sign: t.string.sign(),
                        support: t.string.support().collect(),
                        string: t.string.clone(),
                    })
                    .collect();
                CompiledGroup {
                    rot_x,
                    rot_y,
                    union,
                    terms,
                }
            })
            .collect();
        GroupedObservable {
            n,
            num_terms: observable.num_terms(),
            groups,
            rows: HeisenbergRows::new(n, observable.terms().iter().map(|t| &t.string)),
            coefficients: observable.terms().iter().map(|t| t.coefficient).collect(),
        }
    }

    /// Number of qubits of the compiled observable.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of terms of the originating sum.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Number of QWC measurement groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Writes `⟨P_i⟩ ∈ {−1, 0, +1}` for every term on the prebuilt
    /// state `t` into `out` (indexed by original term order): one
    /// [`Tableau::expectation`] per term.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or if `out.len() != num_terms()`.
    pub fn expectations(&self, t: &Tableau, out: &mut [f64]) {
        assert_eq!(t.num_qubits(), self.n, "tableau size mismatch");
        assert_eq!(out.len(), self.num_terms, "output slice size mismatch");
        for term in self.groups.iter().flat_map(|g| &g.terms) {
            out[term.index] = t.expectation(&term.string);
        }
    }

    /// Energy `Σ c_i ⟨P_i⟩` of the compiled observable on `t`,
    /// accumulated in original term order — bit-identical to
    /// [`Tableau::energy`].
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn energy(&self, t: &Tableau) -> f64 {
        let mut e0 = vec![0.0; self.num_terms];
        self.expectations(t, &mut e0);
        self.coefficients
            .iter()
            .zip(&e0)
            .map(|(&c, &e)| c * e)
            .sum()
    }
}

/// [`crate::estimate_energy_program`] with the term rows precompiled in
/// a [`GroupedObservable`] — the genetic-search hot path, where both the
/// noise program *and* the observable are compiled once and shared by
/// every fitness evaluation.
///
/// Bit-identical to [`crate::estimate_energy_program`]: both run one
/// [`HeisenbergRows::noisy_walk`] of `program` over the same strings and
/// share the damping / sign-flip accumulation. As there, `circuit` is
/// only size-checked; the program's tape stands in for it.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable/grouping/program
/// sizes mismatch.
#[allow(clippy::too_many_arguments)]
pub fn estimate_energy_program_grouped(
    circuit: &Circuit,
    observable: &PauliSum,
    grouped: &GroupedObservable,
    program: &NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> NoisyCliffordRun {
    assert!(shots > 0, "at least one shot required");
    assert_eq!(
        circuit.num_qubits(),
        observable.num_qubits(),
        "circuit/observable size mismatch"
    );
    assert_eq!(
        circuit.num_qubits(),
        grouped.num_qubits(),
        "circuit/grouping size mismatch"
    );
    assert_eq!(
        observable.num_terms(),
        grouped.num_terms(),
        "observable/grouping term-count mismatch"
    );
    assert_eq!(
        circuit.num_qubits(),
        program.num_qubits(),
        "circuit/program size mismatch"
    );
    estimate_energy_rows(
        observable,
        &grouped.rows,
        program,
        meas_flip,
        shots,
        seed,
        threads,
    )
}

/// Measurement-style noisy energy estimator: samples computational-basis
/// outcome words once per QWC group and reads every member term off the
/// shared shot words (`#groups × #shots` sampling work instead of
/// `#terms × #shots`).
///
/// Per group, the reference outcomes come from one canonical collapse of
/// the ideal tableau; per shot, the outcome of qubit `q` is the
/// reference bit XOR the frame-flip bit (a frame anticommuting with the
/// measured letter flips the outcome) XOR a readout-flip bit drawn at
/// probability `meas_flip`. The frames come from
/// [`NoiseProgram::run_randomized`], whose Stim-style reference-frame
/// randomization supplies the branch randomness: an indeterminate
/// measurement's outcome is uniformly random per shot, while a
/// deterministic one is only perturbed by noise. Readout error is
/// therefore applied *physically* (bit flips on outcomes, correlated
/// across terms sharing a qubit) rather than through per-term damping
/// factors — statistically equivalent in expectation to
/// [`crate::estimate_energy_program`], but not bit-identical, so the
/// recorded-baseline paths keep using the damping estimator.
///
/// Deterministic for a fixed seed and independent of `threads`.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/grouping/program sizes
/// mismatch.
pub fn sample_energy_grouped(
    circuit: &Circuit,
    grouped: &GroupedObservable,
    program: &NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> NoisyCliffordRun {
    assert!(shots > 0, "at least one shot required");
    assert_eq!(
        circuit.num_qubits(),
        grouped.num_qubits(),
        "circuit/grouping size mismatch"
    );
    assert_eq!(
        circuit.num_qubits(),
        program.num_qubits(),
        "circuit/program size mismatch"
    );
    let n = circuit.num_qubits();
    let mut ideal = Tableau::new(n);
    ideal.run(circuit);
    let frames = program.run_randomized(shots, seed.derive("pauli-frames"), threads);
    let swords = shots.div_ceil(64);
    let tail = lo_mask_tail(shots, swords);
    let mut energies = vec![0.0f64; shots];
    let mut meas_rng = seed.derive("meas-flip").rng();
    let mut meas = BernoulliWords::new(meas_flip);
    // Outcome words per qubit, rewritten per group (only union qubits
    // are read).
    let mut outcome_words = vec![0u64; n * swords];
    let mut scratch = vec![0u64; swords];
    let mut work: Option<Tableau> = None;
    for g in grouped.groups.iter() {
        let w = match &mut work {
            Some(w) => {
                w.copy_from(&ideal);
                w
            }
            None => work.insert(ideal.clone()),
        };
        for &q in &g.rot_x {
            w.h(q);
        }
        for &q in &g.rot_y {
            w.sdg(q);
            w.h(q);
        }
        for &(q, b) in &g.union {
            let reference = w.measure(q, &mut ZeroRng);
            let ref_fill = if reference { !0u64 } else { 0 };
            let (fx, fz) = (frames.fx_col(q), frames.fz_col(q));
            let off = q * swords;
            for i in 0..swords {
                let flip = match b {
                    Pauli::Z => fx[i],
                    Pauli::X => fz[i],
                    Pauli::Y => fx[i] ^ fz[i],
                    Pauli::I => unreachable!("identity qubit in union support"),
                };
                outcome_words[off + i] = ref_fill ^ flip;
            }
            meas.fill_mask(&mut scratch, shots, &mut meas_rng);
            for (o, &m) in outcome_words[off..off + swords].iter_mut().zip(&scratch) {
                *o ^= m;
            }
            outcome_words[off + swords - 1] &= tail;
        }
        for term in &g.terms {
            let v = grouped.coefficients[term.index] * term.sign;
            if v == 0.0 {
                continue;
            }
            scratch.iter_mut().for_each(|s| *s = 0);
            for &q in &term.support {
                let off = q * swords;
                for (s, &o) in scratch.iter_mut().zip(&outcome_words[off..off + swords]) {
                    *s ^= o;
                }
            }
            for e in energies.iter_mut() {
                *e += v;
            }
            for (i, &word) in scratch.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let s = i * 64 + bits.trailing_zeros() as usize;
                    energies[s] -= 2.0 * v;
                    bits &= bits - 1;
                }
            }
        }
    }
    NoisyCliffordRun {
        energy: eftq_numerics::stats::mean(&energies),
        std_error: eftq_numerics::stats::standard_error(&energies),
        shots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_circuit::Circuit;
    use rand::Rng;
    use rand::SeedableRng;

    fn random_clifford(n: usize, depth: usize, seed: u64) -> Circuit {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..depth {
            match rng.gen_range(0..5) {
                0 => {
                    c.h(rng.gen_range(0..n));
                }
                1 => {
                    c.s(rng.gen_range(0..n));
                }
                2 => {
                    c.sdg(rng.gen_range(0..n));
                }
                3 => {
                    let a = rng.gen_range(0..n);
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    c.cx(a, b);
                }
                _ => {
                    let a = rng.gen_range(0..n);
                    let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                    c.cz(a, b);
                }
            }
        }
        c
    }

    fn random_sum(n: usize, terms: usize, seed: u64) -> PauliSum {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = PauliSum::new(n);
        for _ in 0..terms {
            let s: String = (0..n)
                .map(|_| ["I", "X", "Y", "Z"][rng.gen_range(0..4)])
                .collect::<Vec<_>>()
                .join("");
            h.push_str(rng.gen_range(-2.0..2.0), &s);
        }
        h
    }

    #[test]
    fn grouped_matches_per_term_expectation() {
        for seed in 0..8 {
            let n = 2 + (seed as usize % 5);
            let c = random_clifford(n, 40, 100 + seed);
            let h = random_sum(n, 12, 200 + seed);
            let mut t = Tableau::new(n);
            t.run(&c);
            let grouped = GroupedObservable::compile(&h);
            let mut e0 = vec![0.0; h.num_terms()];
            grouped.expectations(&t, &mut e0);
            for (term, &e) in h.terms().iter().zip(&e0) {
                assert_eq!(
                    e,
                    t.expectation(&term.string),
                    "term {:?} (seed {seed})",
                    term.string
                );
            }
            assert_eq!(grouped.energy(&t), t.energy(&h));
        }
    }

    #[test]
    fn grouped_energy_bit_identical_on_ghz() {
        let mut h = PauliSum::new(3);
        h.push_str(-1.0, "ZZI");
        h.push_str(-1.0, "IZZ");
        h.push_str(0.5, "XXX");
        h.push_str(0.25, "YYX");
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let mut t = Tableau::new(3);
        t.run(&c);
        let grouped = GroupedObservable::compile(&h);
        assert_eq!(grouped.energy(&t), t.energy(&h));
    }
}
