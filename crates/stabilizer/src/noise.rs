//! Monte-Carlo Pauli noise over stabilizer simulation.
//!
//! Depolarizing and bit-flip errors are natively classically simulable;
//! thermal relaxation is mapped to its Pauli-twirled approximation (Ghosh,
//! Fowler & Geller 2012), exactly the strategy the paper describes for its
//! Clifford-state simulations (Section 5.2.2).

use crate::tableau::{HeisenbergRows, Tableau};
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::SeedSequence;
use eftq_pauli::{Pauli, PauliString, PauliSum};
use rand::Rng;

/// Pauli-twirled idle-noise probabilities `(p_x, p_y, p_z)` per idle window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TwirledIdle {
    /// X-error probability.
    pub px: f64,
    /// Y-error probability.
    pub py: f64,
    /// Z-error probability.
    pub pz: f64,
}

impl TwirledIdle {
    /// Pauli twirl of thermal relaxation over a window of duration `t`:
    /// matching the twirled channel's Pauli-expectation dampings to the
    /// relaxation channel gives `p_x = p_y = (1 − e^{−t/T1})/4` and
    /// `p_z = (1 − e^{−t/T2})/2 − p_x`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting `p_z` would be negative (requires
    /// T2 ≤ 2·T1, as physical).
    pub fn from_relaxation(t: f64, t1: f64, t2: f64) -> Self {
        let px = (1.0 - (-t / t1).exp()) / 4.0;
        let pz = (1.0 - (-t / t2).exp()) / 2.0 - px;
        assert!(
            pz >= -1e-12,
            "unphysical twirl: T2 must satisfy T2 ≤ 2·T1 (pz = {pz})"
        );
        TwirledIdle {
            px,
            py: px,
            pz: pz.max(0.0),
        }
    }

    /// Total error probability.
    pub fn total(&self) -> f64 {
        self.px + self.py + self.pz
    }

    /// Precomputes the cumulative ladder so repeated sampling does not
    /// re-add the probabilities per call. Build it once per run (the
    /// per-shot executor) or once per program compilation (the batched
    /// [`crate::program::NoiseProgram`] path).
    pub fn ladder(&self) -> IdleLadder {
        IdleLadder {
            cum_x: self.px,
            cum_xy: self.px + self.py,
            total: self.px + self.py + self.pz,
        }
    }

    /// Samples one idle-window error from the `(px, py, pz)` ladder.
    ///
    /// Convenience wrapper over [`TwirledIdle::ladder`]; hot loops should
    /// build the ladder once and call [`IdleLadder::sample`] directly.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Pauli> {
        self.ladder().sample(rng)
    }
}

/// The precomputed cumulative table of a [`TwirledIdle`] ladder.
///
/// Both the per-shot tableau executor and the batched noise program draw
/// idle errors through this single implementation, so their noise models
/// cannot drift apart. The batched path samples *whether* an idle window
/// errs with a Bernoulli(`total`) flip mask and then draws the letter
/// conditionally via [`IdleLadder::conditional_letter`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IdleLadder {
    cum_x: f64,
    cum_xy: f64,
    total: f64,
}

impl IdleLadder {
    /// Total error probability of the ladder.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Samples one idle-window error (`None` = no error).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Pauli> {
        let r: f64 = rng.gen();
        if r < self.total {
            Some(self.letter_at(r))
        } else {
            None
        }
    }

    /// Samples the error letter *given that* the window erred — the
    /// conditional distribution `(px, py, pz) / total` used after a
    /// batched Bernoulli(`total`) hit mask.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the ladder is all-zero.
    pub fn conditional_letter<R: Rng + ?Sized>(&self, rng: &mut R) -> Pauli {
        debug_assert!(self.total > 0.0, "conditional letter of an empty ladder");
        self.letter_at(rng.gen::<f64>() * self.total)
    }

    #[inline]
    fn letter_at(&self, r: f64) -> Pauli {
        if r < self.cum_x {
            Pauli::X
        } else if r < self.cum_xy {
            Pauli::Y
        } else {
            Pauli::Z
        }
    }
}

/// A uniform non-identity Pauli letter — the single-qubit depolarizing
/// draw shared by the tableau and frame paths.
pub(crate) fn depolarizing_letter<R: Rng + ?Sized>(rng: &mut R) -> Pauli {
    Pauli::NON_IDENTITY[rng.gen_range(0..3usize)]
}

/// A uniform non-identity two-qubit Pauli — the two-qubit depolarizing
/// draw shared by the tableau and frame paths.
pub(crate) fn depolarizing_letters_2q<R: Rng + ?Sized>(rng: &mut R) -> (Pauli, Pauli) {
    let idx = rng.gen_range(1..16usize);
    (Pauli::ALL[idx / 4], Pauli::ALL[idx % 4])
}

/// Per-gate-class Pauli noise strengths for the Monte-Carlo executor.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StabilizerNoise {
    /// Depolarizing probability after a single-qubit Clifford gate (H, S,
    /// Paulis).
    pub depol_1q: f64,
    /// Two-qubit depolarizing probability after CX/CZ/SWAP.
    pub depol_2q: f64,
    /// Depolarizing probability after an `Rz` rotation (injection error
    /// under pQEC; 0 under NISQ's virtual-Z convention).
    pub depol_rz: f64,
    /// Depolarizing probability after an `Rx`/`Ry` rotation (physical
    /// single-qubit gate under NISQ; H·Rz·H under pQEC — core sets this).
    pub depol_rot_xy: f64,
    /// Readout flip probability per measured qubit; applied analytically as
    /// a `(1 − 2p)` damping per qubit in a term's support.
    pub meas_flip: f64,
    /// Idle noise applied to every idle qubit per circuit layer.
    pub idle: TwirledIdle,
}

impl StabilizerNoise {
    /// The noiseless configuration.
    pub fn noiseless() -> Self {
        StabilizerNoise::default()
    }
}

/// Result of a Monte-Carlo noisy energy estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoisyCliffordRun {
    /// Mean energy across shots.
    pub energy: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Shots used.
    pub shots: usize,
}

fn sample_depolarizing<R: Rng + ?Sized>(
    rng: &mut R,
    q: usize,
    n: usize,
    p: f64,
) -> Option<PauliString> {
    if p > 0.0 && rng.gen_bool(p) {
        Some(PauliString::single(n, q, depolarizing_letter(rng)))
    } else {
        None
    }
}

fn sample_depolarizing_2q<R: Rng + ?Sized>(
    rng: &mut R,
    a: usize,
    b: usize,
    n: usize,
    p: f64,
) -> Option<PauliString> {
    if p > 0.0 && rng.gen_bool(p) {
        let (pa, pb) = depolarizing_letters_2q(rng);
        let mut s = PauliString::identity(n);
        s.set_pauli(a, pa);
        s.set_pauli(b, pb);
        Some(s)
    } else {
        None
    }
}

/// Runs one noisy shot of a bound Clifford circuit, returning the final
/// tableau.
pub fn run_noisy_shot<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &StabilizerNoise,
    rng: &mut R,
) -> Tableau {
    let n = circuit.num_qubits();
    let mut t = Tableau::new(n);
    let idle = noise.idle.ladder();
    for layer in circuit.layers() {
        let mut busy = vec![false; n];
        for g in &layer {
            if g.is_measurement() {
                continue;
            }
            let (qs, k) = g.qubits_inline();
            for &q in &qs[..k] {
                busy[q] = true;
            }
            t.apply_gate(g);
            let err = match *g {
                Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                    sample_depolarizing_2q(rng, a, b, n, noise.depol_2q)
                }
                Gate::Rz(q, _) => sample_depolarizing(rng, q, n, noise.depol_rz),
                Gate::Rx(q, _) | Gate::Ry(q, _) => {
                    sample_depolarizing(rng, q, n, noise.depol_rot_xy)
                }
                _ => sample_depolarizing(rng, qs[0], n, noise.depol_1q),
            };
            if let Some(e) = err {
                t.apply_pauli_error(&e);
            }
        }
        if idle.total() > 0.0 {
            for (q, _) in busy.iter().enumerate().filter(|&(_, &b)| !b) {
                if let Some(l) = idle.sample(rng) {
                    t.apply_pauli_error(&PauliString::single(n, q, l));
                }
            }
        }
    }
    t
}

/// Monte-Carlo estimate of `⟨H⟩` for a bound Clifford circuit under Pauli
/// noise, averaging `shots` independent trajectories. Readout error is
/// applied analytically: each term's expectation is damped by
/// `(1 − 2·meas_flip)^{weight}`.
///
/// Implemented in the Heisenberg picture: the circuit + noise model are
/// compiled to a [`crate::program::NoiseProgram`] whose sites draw whole
/// Bernoulli flip masks, and one reverse walk of its tape
/// ([`HeisenbergRows::noisy_walk`]) yields every term's noiseless value
/// and every shot's sign flips — a shot's value of a term is flipped
/// exactly when its Pauli frame (the forward-propagated errors of
/// [`crate::frame::PauliFrames`]) anticommutes with the term. The
/// statistical model is identical to running `shots` independent noisy
/// tableaus (see [`estimate_energy_tableau`]); only the RNG stream
/// differs.
///
/// Equivalent to [`estimate_energy_threaded`] with one worker — and,
/// because shot batches derive their RNG streams from their batch index,
/// *bit-identical* to it at any worker count.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable sizes mismatch.
pub fn estimate_energy(
    circuit: &Circuit,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    shots: usize,
    seed: SeedSequence,
) -> NoisyCliffordRun {
    estimate_energy_threaded(circuit, observable, noise, shots, seed, 1)
}

/// [`estimate_energy`] with the sampling of shot batches sharded across
/// `threads` crossbeam workers (the reverse walk that folds the sampled
/// errors is one pass over the program, whatever the shot count).
///
/// Each 256-shot batch derives its RNG stream from the root seed and its
/// own batch index, so the result is deterministic for a fixed seed and
/// independent of `threads` — `threads ∈ {1, 2, 8}` all return the same
/// bits. Use this for large re-evaluation shot budgets; inside a genetic
/// search the GA already parallelizes across genomes, so its fitness
/// closure keeps `threads = 1`.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable sizes mismatch.
pub fn estimate_energy_threaded(
    circuit: &Circuit,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> NoisyCliffordRun {
    let program = crate::program::NoiseProgram::compile(circuit, noise);
    estimate_energy_program(
        circuit,
        observable,
        &program,
        noise.meas_flip,
        shots,
        seed,
        threads,
    )
}

/// [`estimate_energy_threaded`] with a *precompiled* noise program —
/// the hot-loop entry point when many estimates share one compilation
/// (a genetic search binding a [`crate::NoiseTemplate`] per genome, or
/// a sweep runner's per-(circuit, noise) artifact cache). Bit-identical
/// to compiling inline: `estimate_energy_threaded` is this function fed
/// by [`crate::NoiseProgram::compile`].
///
/// `meas_flip` is the readout flip probability the damping factors use
/// (the program itself only carries gate/idle injection sites); pass the
/// compiling noise model's value, e.g. via
/// [`crate::NoiseTemplate::meas_flip`].
///
/// The program's sign-exact tape stands in for the circuit: both the
/// noiseless values and the noise come from `program`, and `circuit` is
/// only size-checked. Pass the circuit the program was compiled (or
/// bound) from.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable/program sizes
/// mismatch.
pub fn estimate_energy_program(
    circuit: &Circuit,
    observable: &PauliSum,
    program: &crate::program::NoiseProgram,
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
        program.num_qubits(),
        "circuit/program size mismatch"
    );
    let rows = HeisenbergRows::new(
        circuit.num_qubits(),
        observable.terms().iter().map(|t| &t.string),
    );
    estimate_energy_rows(observable, &rows, program, meas_flip, shots, seed, threads)
}

/// The body every damping estimator shares: one
/// [`HeisenbergRows::noisy_walk`] of `program` over `observable`'s terms
/// (`rows` holds the same strings, in term order) gives every term's
/// noiseless value `e0` and every shot's flip bits. Each term adds
/// `v = c·(1 − 2·meas_flip)^weight·e0` to every shot and then `−2v` to
/// the shots whose errors anticommute with it, in term order.
pub(crate) fn estimate_energy_rows(
    observable: &PauliSum,
    rows: &HeisenbergRows,
    program: &crate::program::NoiseProgram,
    meas_flip: f64,
    shots: usize,
    seed: SeedSequence,
    threads: usize,
) -> NoisyCliffordRun {
    let walk = rows.noisy_walk(program, shots, seed.derive("pauli-frames"), threads);
    // Per contributing term: its flip-row word and bit, `+v`, and the
    // `[0, 2v]` to subtract by flip bit. Subtracting +0.0 leaves every
    // value unchanged, so the loop needs no branch on the (often
    // unpredictable) flip bit.
    let weights: Vec<(usize, u32, f64, [f64; 2])> = observable
        .terms()
        .iter()
        .zip(walk.expectations())
        .enumerate()
        .filter_map(|(t, (term, &e0))| {
            if e0 == 0.0 {
                return None;
            }
            let damp = (1.0 - 2.0 * meas_flip).powi(term.string.weight() as i32);
            let v = term.coefficient * damp * e0;
            (v != 0.0).then_some((t / 64, (t % 64) as u32, v, [0.0, 2.0 * v]))
        })
        .collect();
    let energies: Vec<f64> = (0..shots)
        .map(|s| {
            let flips = walk.flip_row(s);
            let mut e = 0.0f64;
            for &(w, bit, v, sub) in &weights {
                e += v;
                // Shots whose errors anticommute with the term see −v.
                e -= sub[(flips[w] >> bit & 1) as usize];
            }
            e
        })
        .collect();
    NoisyCliffordRun {
        energy: eftq_numerics::stats::mean(&energies),
        std_error: eftq_numerics::stats::standard_error(&energies),
        shots,
    }
}

/// Reference implementation of [`estimate_energy`]: one full noisy tableau
/// per shot. Statistically identical to the frame-batched estimator and
/// kept for the equivalence property tests and as the benchmark baseline —
/// use [`estimate_energy`] everywhere else; this path is `O(shots)` slower.
///
/// # Panics
///
/// Panics if `shots == 0` or the circuit/observable sizes mismatch.
pub fn estimate_energy_tableau(
    circuit: &Circuit,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    shots: usize,
    seed: SeedSequence,
) -> NoisyCliffordRun {
    assert!(shots > 0, "at least one shot required");
    assert_eq!(
        circuit.num_qubits(),
        observable.num_qubits(),
        "circuit/observable size mismatch"
    );
    let damping: Vec<f64> = observable
        .terms()
        .iter()
        .map(|t| (1.0 - 2.0 * noise.meas_flip).powi(t.string.weight() as i32))
        .collect();
    let mut energies = Vec::with_capacity(shots);
    for shot in 0..shots {
        let mut rng = seed.derive_index(shot as u64).rng();
        let t = run_noisy_shot(circuit, noise, &mut rng);
        let e: f64 = observable
            .terms()
            .iter()
            .zip(damping.iter())
            .map(|(term, d)| term.coefficient * d * t.expectation(&term.string))
            .sum();
        energies.push(e);
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

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn zz_xx() -> PauliSum {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ");
        h.push_str(1.0, "XX");
        h
    }

    #[test]
    fn noiseless_estimate_is_exact() {
        let r = estimate_energy(
            &bell(),
            &zz_xx(),
            &StabilizerNoise::noiseless(),
            5,
            SeedSequence::new(1),
        );
        assert!((r.energy - 2.0).abs() < 1e-12);
        assert_eq!(r.std_error, 0.0);
    }

    #[test]
    fn depolarizing_noise_degrades_energy() {
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_2q = 0.2;
        let r = estimate_energy(&bell(), &zz_xx(), &noise, 400, SeedSequence::new(2));
        assert!(r.energy < 1.9, "{r:?}");
        assert!(r.energy > 0.5, "{r:?}");
        assert!(r.std_error > 0.0);
    }

    #[test]
    fn measurement_damping_is_analytic() {
        let mut noise = StabilizerNoise::noiseless();
        noise.meas_flip = 0.1;
        let r = estimate_energy(&bell(), &zz_xx(), &noise, 3, SeedSequence::new(3));
        // Both terms have weight 2: damping (1-0.2)² = 0.64 each.
        assert!((r.energy - 2.0 * 0.64).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn rz_noise_hits_rz_gates_only() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, std::f64::consts::FRAC_PI_2);
        let mut h = PauliSum::new(1);
        h.push_str(1.0, "Y"); // S|+⟩ has ⟨Y⟩ = 1
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_rz = 0.3;
        let r = estimate_energy(&c, &h, &noise, 600, SeedSequence::new(4));
        // Expect damping ≈ 1 − 4p/3·… : with prob 0.3 a random Pauli hits;
        // 2/3 of those anticommute with Y → flip. E ≈ 1 − 2·0.3·(2/3) = 0.6.
        assert!((r.energy - 0.6).abs() < 0.08, "{r:?}");
    }

    #[test]
    fn idle_noise_applies_to_idle_qubits() {
        // Qubit 1 idles for one layer.
        let mut c = Circuit::new(2);
        c.h(0);
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "IZ");
        let mut noise = StabilizerNoise::noiseless();
        noise.idle = TwirledIdle {
            px: 0.2,
            py: 0.0,
            pz: 0.0,
        };
        let r = estimate_energy(&c, &h, &noise, 800, SeedSequence::new(5));
        // ⟨Z₁⟩ flips with probability 0.2 → E ≈ 1 − 0.4.
        assert!((r.energy - 0.6).abs() < 0.07, "{r:?}");
    }

    #[test]
    fn twirled_idle_from_relaxation() {
        let idle = TwirledIdle::from_relaxation(100.0, 1000.0, 800.0);
        assert!(idle.px > 0.0 && idle.px == idle.py);
        assert!(idle.pz > 0.0);
        // Dampings match the target channel:
        // ⟨Z⟩: 1 − 2(px+py) = e^{-t/T1}.
        let z_damp = 1.0 - 2.0 * (idle.px + idle.py);
        assert!((z_damp - (-0.1f64).exp()).abs() < 1e-12);
        // ⟨X⟩: 1 − 2(py+pz) = e^{-t/T2}.
        let x_damp = 1.0 - 2.0 * (idle.py + idle.pz);
        assert!((x_damp - (-0.125f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_2q = 0.1;
        let a = estimate_energy(&bell(), &zz_xx(), &noise, 50, SeedSequence::new(9));
        let b = estimate_energy(&bell(), &zz_xx(), &noise, 50, SeedSequence::new(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unphysical twirl")]
    fn twirl_rejects_unphysical_t2() {
        let _ = TwirledIdle::from_relaxation(100.0, 100.0, 1000.0);
    }
}
