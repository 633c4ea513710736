//! Pauli-frame simulation: 64 noisy shots per machine word.
//!
//! For a Clifford circuit `C` under stochastic Pauli noise, the state of a
//! noisy shot is `F·C|0…0⟩` where the *frame* `F` is the product of that
//! shot's sampled error Paulis, each conjugated through the remainder of
//! the circuit. Conjugating a Pauli by a Clifford gate yields a Pauli, so
//! a frame is just two bits (x, z) per qubit per shot — and 64 shots pack
//! into one `u64` lane, letting a single circuit walk propagate 64
//! trajectories with XOR/swap word kernels.
//!
//! Frame *signs* are deliberately untracked: for expectation values only
//! commutation matters, because `⟨ψ|F†PF|ψ⟩ = ±⟨ψ|P|ψ⟩` with the sign −1
//! exactly when `F` anticommutes with `P`. The noisy estimate of a
//! Hamiltonian term is therefore the noiseless tableau expectation,
//! sign-flipped per shot by [`PauliFrames::flip_plane`] — the equivalence
//! argument behind [`crate::estimate_energy`], validated against the
//! per-shot tableau path by the `frame_equivalence` property suite. The
//! estimators themselves get the same flips without frames, from the
//! reverse walk of [`crate::HeisenbergRows::noisy_walk`]; the frames stay
//! as its oracle and for the grouped sampling estimator.

use crate::noise::StabilizerNoise;
use crate::tableau::quarter_turns;
use eftq_circuit::{Angle, Circuit, Gate};
use eftq_numerics::words;
use eftq_pauli::{Pauli, PauliString};
use rand::Rng;

const WORD_BITS: usize = 64;

/// `v[dst·words + w] ^= v[src·words + w]` for two distinct columns of a
/// column-major plane, borrow-split so the word kernel applies.
#[inline]
fn xor_col(v: &mut [u64], src: usize, dst: usize, cwords: usize) {
    debug_assert_ne!(src, dst);
    let (sb, db) = (src * cwords, dst * cwords);
    if sb < db {
        let (head, tail) = v.split_at_mut(db);
        words::xor_into(&mut tail[..cwords], &head[sb..sb + cwords]);
    } else {
        let (head, tail) = v.split_at_mut(sb);
        words::xor_into(&mut head[db..db + cwords], &tail[..cwords]);
    }
}

/// A batch of Pauli frames: one (x, z) Pauli per qubit per shot, packed
/// 64 shots to the `u64` lane.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliFrames {
    n: usize,
    shots: usize,
    /// Lane words per qubit: ⌈shots/64⌉. Bit `s` of lane word `w` belongs
    /// to shot `64w + s`; padding bits past `shots` stay zero.
    words: usize,
    /// X bit-lanes, qubit-major: qubit `q` is `fx[q*words..(q+1)*words]`.
    fx: Vec<u64>,
    /// Z bit-lanes, same layout.
    fz: Vec<u64>,
}

impl PauliFrames {
    /// `shots` identity frames over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shots == 0`.
    pub fn new(n: usize, shots: usize) -> Self {
        assert!(n > 0, "frames need at least one qubit");
        assert!(shots > 0, "frames need at least one shot");
        let words = shots.div_ceil(WORD_BITS);
        PauliFrames {
            n,
            shots,
            words,
            fx: vec![0; n * words],
            fz: vec![0; n * words],
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of shots in the batch.
    pub fn num_shots(&self) -> usize {
        self.shots
    }

    /// The X flip-plane of qubit `q`: bit `s` set ⇔ shot `s`'s frame has
    /// an X (or Y) component on `q`.
    #[inline]
    pub(crate) fn fx_col(&self, q: usize) -> &[u64] {
        &self.fx[q * self.words..(q + 1) * self.words]
    }

    /// The Z flip-plane of qubit `q` (set ⇔ Z or Y component on `q`).
    #[inline]
    pub(crate) fn fz_col(&self, q: usize) -> &[u64] {
        &self.fz[q * self.words..(q + 1) * self.words]
    }

    /// Propagates the frames through one Clifford gate (conjugation,
    /// signs dropped). Measurements are ignored; Paulis commute with the
    /// frame up to sign and are no-ops.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford or symbolic rotations.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::H(q) => self.kernel_hadamard(q),
            Gate::S(q) | Gate::Sdg(q) => self.kernel_phase(q),
            Gate::X(_) | Gate::Y(_) | Gate::Z(_) | Gate::Measure(_) => {}
            Gate::Cx(c, t) => self.kernel_cx(c, t),
            Gate::Cz(a, b) => self.kernel_cz(a, b),
            Gate::Swap(a, b) => self.kernel_swap(a, b),
            Gate::Rz(q, Angle::Value(v)) => {
                if quarter_turns(v, gate) % 2 == 1 {
                    self.kernel_phase(q);
                }
            }
            Gate::Rx(q, Angle::Value(v)) => {
                if quarter_turns(v, gate) % 2 == 1 {
                    self.kernel_sqrt_x(q);
                }
            }
            Gate::Ry(q, Angle::Value(v)) => {
                if quarter_turns(v, gate) % 2 == 1 {
                    self.kernel_hadamard(q);
                }
            }
            ref g => panic!("frames cannot apply gate {g}"),
        }
    }

    /// H-conjugation kernel: swaps the X and Z planes of `q` (also the
    /// action of an odd-quarter-turn `Ry`, sign-free).
    #[inline]
    pub(crate) fn kernel_hadamard(&mut self, q: usize) {
        let b = q * self.words;
        words::swap(
            &mut self.fx[b..b + self.words],
            &mut self.fz[b..b + self.words],
        );
    }

    /// S/S†-conjugation kernel: `fz ^= fx` on `q` (also odd `Rz`).
    #[inline]
    pub(crate) fn kernel_phase(&mut self, q: usize) {
        let b = q * self.words;
        words::xor_into(&mut self.fz[b..b + self.words], &self.fx[b..b + self.words]);
    }

    /// √X-conjugation kernel: `fx ^= fz` on `q` (odd `Rx`).
    #[inline]
    pub(crate) fn kernel_sqrt_x(&mut self, q: usize) {
        let b = q * self.words;
        words::xor_into(&mut self.fx[b..b + self.words], &self.fz[b..b + self.words]);
    }

    /// CX-conjugation kernel.
    #[inline]
    pub(crate) fn kernel_cx(&mut self, c: usize, t: usize) {
        xor_col(&mut self.fx, c, t, self.words);
        xor_col(&mut self.fz, t, c, self.words);
    }

    /// CZ-conjugation kernel.
    #[inline]
    pub(crate) fn kernel_cz(&mut self, a: usize, b: usize) {
        let (ba, bb) = (a * self.words, b * self.words);
        for w in 0..self.words {
            let xa = self.fx[ba + w];
            let xb = self.fx[bb + w];
            self.fz[bb + w] ^= xa;
            self.fz[ba + w] ^= xb;
        }
    }

    /// SWAP kernel: exchanges both planes of `a` and `b`.
    #[inline]
    pub(crate) fn kernel_swap(&mut self, a: usize, b: usize) {
        let (lo, hi) = (a.min(b) * self.words, a.max(b) * self.words);
        let (head, tail) = self.fx.split_at_mut(hi);
        words::swap(&mut head[lo..lo + self.words], &mut tail[..self.words]);
        let (head, tail) = self.fz.split_at_mut(hi);
        words::swap(&mut head[lo..lo + self.words], &mut tail[..self.words]);
    }

    /// Copies another frame batch into this one at `word_offset` lane
    /// words — the splice step that reassembles independently evaluated
    /// shot batches (see [`crate::program::NoiseProgram::run_threaded`]).
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or if the source does not fit.
    pub(crate) fn splice_words(&mut self, word_offset: usize, src: &PauliFrames) {
        assert_eq!(src.n, self.n, "qubit count mismatch");
        assert!(
            word_offset + src.words <= self.words,
            "batch splice out of range"
        );
        for q in 0..self.n {
            let dst = q * self.words + word_offset;
            let s = q * src.words;
            self.fx[dst..dst + src.words].copy_from_slice(&src.fx[s..s + src.words]);
            self.fz[dst..dst + src.words].copy_from_slice(&src.fz[s..s + src.words]);
        }
    }

    /// XORs a sampled Pauli letter into shot `s` on qubit `q`.
    #[inline]
    pub fn inject(&mut self, q: usize, s: usize, letter: Pauli) {
        let idx = q * self.words + s / WORD_BITS;
        let bit = 1u64 << (s % WORD_BITS);
        if letter.x_bit() {
            self.fx[idx] ^= bit;
        }
        if letter.z_bit() {
            self.fz[idx] ^= bit;
        }
    }

    /// XORs the letter `(x, z)` into the shots of lane word `w` on qubit
    /// `q`: bit `s` of `x` (`z`) toggles the X (Z) component of shot
    /// `64w + s`.
    #[inline]
    pub(crate) fn inject_words(&mut self, q: usize, w: usize, x: u64, z: u64) {
        let idx = q * self.words + w;
        self.fx[idx] ^= x;
        self.fz[idx] ^= z;
    }

    /// XORs single-qubit depolarizing errors into every shot whose bit is
    /// set in `mask`: each hit lane receives a uniform X/Y/Z letter,
    /// chosen word-parallel — two random words give each lane a candidate
    /// `(x, z)` pair and the (identity) `(0, 0)` lanes are redrawn until
    /// none remain, which leaves the three non-identity letters exactly
    /// uniform.
    ///
    /// This is the dense half of the batched sampler; the hit mask itself
    /// comes from [`eftq_numerics::BernoulliWords`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the lane-word count.
    pub fn inject_depolarizing_masked<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        mask: &[u64],
        rng: &mut R,
    ) {
        assert!(mask.len() >= self.words, "mask too short");
        let b = q * self.words;
        for (w, &h) in mask.iter().enumerate().take(self.words) {
            if h == 0 {
                continue;
            }
            let (x, z) = uniform_nonzero_pair(h, rng);
            self.fx[b + w] ^= x;
            self.fz[b + w] ^= z;
        }
    }

    /// Two-qubit analogue of [`PauliFrames::inject_depolarizing_masked`]:
    /// every hit lane receives a uniform non-identity two-qubit Pauli
    /// (four random words, `(0,0,0,0)` lanes redrawn).
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the lane-word count.
    pub fn inject_depolarizing_2q_masked<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        mask: &[u64],
        rng: &mut R,
    ) {
        assert!(mask.len() >= self.words, "mask too short");
        let (ba, bb) = (a * self.words, b * self.words);
        for (w, &h) in mask.iter().enumerate().take(self.words) {
            if h == 0 {
                continue;
            }
            let [xa, za, xb, zb] = uniform_nonzero_quad(h, rng);
            self.fx[ba + w] ^= xa;
            self.fz[ba + w] ^= za;
            self.fx[bb + w] ^= xb;
            self.fz[bb + w] ^= zb;
        }
    }

    /// XORs twirled-idle errors into every shot whose bit is set in
    /// `mask`, drawing each hit's letter from the ladder's conditional
    /// distribution (the mask already encodes the Bernoulli(`total`)
    /// outcome).
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the lane-word count.
    pub fn inject_idle_masked<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        mask: &[u64],
        ladder: &crate::noise::IdleLadder,
        rng: &mut R,
    ) {
        assert!(mask.len() >= self.words, "mask too short");
        for (w, &h) in mask.iter().enumerate().take(self.words) {
            let mut bits = h;
            while bits != 0 {
                let s = w * WORD_BITS + bits.trailing_zeros() as usize;
                self.inject(q, s, ladder.conditional_letter(rng));
                bits &= bits - 1;
            }
        }
    }

    /// Fills the Z planes of every qubit with uniform random bits (X
    /// planes untouched, padding lanes kept clear). On `|0…0⟩` a Z error
    /// acts trivially, so prepending this to a frame batch leaves every
    /// *expectation* untouched — but after propagation the random Z's
    /// flip exactly the measurement outcomes that are genuinely random,
    /// which is what lets one deterministic reference sample stand in for
    /// per-shot collapse in the grouped sampling path (Stim's frame
    /// randomization; see [`crate::GroupedObservable`]).
    pub fn randomize_z<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let tail = lo_mask_tail(self.shots, self.words);
        for q in 0..self.n {
            let b = q * self.words;
            for w in 0..self.words {
                self.fz[b + w] = rng.gen::<u64>();
            }
            self.fz[b + self.words - 1] &= tail;
        }
    }

    /// Samples single-qubit depolarizing noise on `q` independently per
    /// shot: with probability `p` a uniform X/Y/Z hits the shot's frame.
    /// The letter draw is shared with the per-shot tableau path. This is
    /// the per-call reference sampler; the production path draws whole
    /// flip masks (see [`crate::program::NoiseProgram`]).
    pub fn inject_depolarizing<R: Rng + ?Sized>(&mut self, q: usize, p: f64, rng: &mut R) {
        if p <= 0.0 {
            return;
        }
        for s in 0..self.shots {
            if rng.gen_bool(p) {
                let letter = crate::noise::depolarizing_letter(rng);
                self.inject(q, s, letter);
            }
        }
    }

    /// Samples two-qubit depolarizing noise on `(a, b)` independently per
    /// shot: with probability `p` a uniform non-identity two-qubit Pauli.
    /// The letter draw is shared with the per-shot tableau path.
    pub fn inject_depolarizing_2q<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        p: f64,
        rng: &mut R,
    ) {
        if p <= 0.0 {
            return;
        }
        for s in 0..self.shots {
            if rng.gen_bool(p) {
                let (pa, pb) = crate::noise::depolarizing_letters_2q(rng);
                self.inject(a, s, pa);
                self.inject(b, s, pb);
            }
        }
    }

    /// Samples Pauli-twirled idle noise `(px, py, pz)` on `q` per shot,
    /// via the ladder shared with the per-shot tableau path.
    pub fn inject_idle<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        idle: &crate::noise::TwirledIdle,
        rng: &mut R,
    ) {
        if idle.total() <= 0.0 {
            return;
        }
        for s in 0..self.shots {
            if let Some(l) = idle.sample(rng) {
                self.inject(q, s, l);
            }
        }
    }

    /// One bit per shot: set iff that shot's frame anticommutes with `p`
    /// (i.e. the shot's expectation of `p` is sign-flipped). Word-parallel
    /// over `p`'s support: `O(weight(p) · shots/64)`.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn flip_plane(&self, p: &PauliString) -> Vec<u64> {
        let mut acc = vec![0u64; self.words];
        self.flip_plane_into(p, &mut acc);
        acc
    }

    /// [`PauliFrames::flip_plane`] into a caller-owned buffer (cleared
    /// first), so per-term loops over large observables reuse one
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or a short buffer.
    pub fn flip_plane_into(&self, p: &PauliString, acc: &mut [u64]) {
        assert_eq!(p.num_qubits(), self.n, "pauli size mismatch");
        assert!(acc.len() >= self.words, "flip-plane buffer too short");
        let wl = self.words;
        acc.fill(0);
        for q in p.support() {
            let letter = p.pauli_at(q);
            if letter.z_bit() {
                for (a, &x) in acc.iter_mut().zip(&self.fx[q * wl..(q + 1) * wl]) {
                    *a ^= x;
                }
            }
            if letter.x_bit() {
                for (a, &z) in acc.iter_mut().zip(&self.fz[q * wl..(q + 1) * wl]) {
                    *a ^= z;
                }
            }
        }
    }

    /// Number of shots whose frame anticommutes with `p`.
    pub fn flip_count(&self, p: &PauliString) -> usize {
        self.flip_plane(p)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Extracts shot `s`'s frame as a (sign-free) Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shots()`.
    pub fn frame(&self, s: usize) -> PauliString {
        assert!(s < self.shots, "shot {s} out of range");
        let (w, b) = (s / WORD_BITS, s % WORD_BITS);
        PauliString::from_paulis((0..self.n).map(|q| {
            Pauli::from_bits(
                self.fx[q * self.words + w] >> b & 1 == 1,
                self.fz[q * self.words + w] >> b & 1 == 1,
            )
        }))
    }
}

/// Mask of the valid (sub-`shots`) lanes of the last of `words` lane
/// words.
#[inline]
pub(crate) fn lo_mask_tail(shots: usize, words: usize) -> u64 {
    let used = shots - (words - 1) * WORD_BITS;
    if used == WORD_BITS {
        !0
    } else {
        (1u64 << used) - 1
    }
}

/// Word-parallel uniform draw over the three non-identity `(x, z)` letter
/// pairs, restricted to the lanes of `h`: `(0, 0)` lanes are redrawn
/// until none remain (each round keeps 3 of 4 candidates, so the loop
/// terminates geometrically fast).
#[inline]
pub(crate) fn uniform_nonzero_pair<R: Rng + ?Sized>(h: u64, rng: &mut R) -> (u64, u64) {
    let mut x = rng.gen::<u64>() & h;
    let mut z = rng.gen::<u64>() & h;
    let mut bad = h & !(x | z);
    while bad != 0 {
        x |= bad & rng.gen::<u64>();
        z |= bad & rng.gen::<u64>();
        bad &= !(x | z);
    }
    (x, z)
}

/// Two-qubit analogue of [`uniform_nonzero_pair`]: a uniform draw over
/// the fifteen non-identity `(xa, za, xb, zb)` letters per lane of `h`,
/// `(0, 0, 0, 0)` lanes redrawn.
#[inline]
pub(crate) fn uniform_nonzero_quad<R: Rng + ?Sized>(h: u64, rng: &mut R) -> [u64; 4] {
    let mut xa = rng.gen::<u64>() & h;
    let mut za = rng.gen::<u64>() & h;
    let mut xb = rng.gen::<u64>() & h;
    let mut zb = rng.gen::<u64>() & h;
    let mut bad = h & !(xa | za | xb | zb);
    while bad != 0 {
        xa |= bad & rng.gen::<u64>();
        za |= bad & rng.gen::<u64>();
        xb |= bad & rng.gen::<u64>();
        zb |= bad & rng.gen::<u64>();
        bad &= !(xa | za | xb | zb);
    }
    [xa, za, xb, zb]
}

/// Propagates `shots` Pauli frames through a bound Clifford circuit under
/// the given noise model, using the compiled batched sampler: the circuit
/// and noise model are flattened into a [`crate::program::NoiseProgram`]
/// once, then injection sites draw whole Bernoulli flip-mask words
/// instead of one RNG call per (gate, shot) pair. Shot batches derive
/// their RNG streams from `seed` and their batch index, so the result is
/// deterministic and identical to the threaded runner at any worker
/// count.
///
/// Statistically equivalent to [`run_noisy_frames_percall`], the per-call
/// reference sampler the equivalence suite checks against.
pub fn run_noisy_frames(
    circuit: &Circuit,
    noise: &StabilizerNoise,
    shots: usize,
    seed: eftq_numerics::SeedSequence,
) -> PauliFrames {
    crate::program::NoiseProgram::compile(circuit, noise).run(shots, seed)
}

/// Reference implementation of [`run_noisy_frames`]: walks the circuit
/// drawing one `rng.gen_bool(p)` per (site, shot) pair, sampling errors
/// at exactly the locations the per-shot executor
/// [`crate::noise::run_noisy_shot`] samples them (after each gate, per
/// gate class; twirled idle noise on every qubit idle in a layer).
/// Measurement gates are skipped and leave their qubit idle, matching
/// the per-shot path. Kept as the ground truth for the statistical
/// equivalence suite and the sampling benchmarks — `O(sites × shots)`
/// RNG draws, so use [`run_noisy_frames`] everywhere else.
pub fn run_noisy_frames_percall<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &StabilizerNoise,
    shots: usize,
    rng: &mut R,
) -> PauliFrames {
    let n = circuit.num_qubits();
    let mut f = PauliFrames::new(n, shots);
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
            f.apply_gate(g);
            match *g {
                Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                    f.inject_depolarizing_2q(a, b, noise.depol_2q, rng);
                }
                Gate::Rz(q, _) => f.inject_depolarizing(q, noise.depol_rz, rng),
                Gate::Rx(q, _) | Gate::Ry(q, _) => {
                    f.inject_depolarizing(q, noise.depol_rot_xy, rng);
                }
                _ => f.inject_depolarizing(qs[0], noise.depol_1q, rng),
            }
        }
        if noise.idle.total() > 0.0 {
            for (q, &b) in busy.iter().enumerate() {
                if !b {
                    f.inject_idle(q, &noise.idle, rng);
                }
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::TwirledIdle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pauli(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn identity_frames_never_flip() {
        let f = PauliFrames::new(3, 100);
        assert_eq!(f.flip_count(&pauli("XYZ")), 0);
        assert_eq!(f.num_shots(), 100);
        assert_eq!(f.num_qubits(), 3);
    }

    #[test]
    fn injected_error_propagates_through_cx() {
        // X on the control before a CX becomes XX after it: anticommutes
        // with ZI and IZ, commutes with XX and ZZ.
        let mut f = PauliFrames::new(2, 64);
        for s in 0..64 {
            f.inject(0, s, Pauli::X);
        }
        f.apply_gate(&Gate::Cx(0, 1));
        assert_eq!(f.flip_count(&pauli("ZI")), 64);
        assert_eq!(f.flip_count(&pauli("IZ")), 64);
        assert_eq!(f.flip_count(&pauli("XX")), 0);
        assert_eq!(f.flip_count(&pauli("ZZ")), 0);
        assert_eq!(f.frame(17), pauli("XX"));
    }

    #[test]
    fn hadamard_exchanges_frame_letters() {
        let mut f = PauliFrames::new(1, 1);
        f.inject(0, 0, Pauli::X);
        f.apply_gate(&Gate::H(0));
        assert_eq!(f.frame(0), pauli("Z"));
        f.apply_gate(&Gate::H(0));
        assert_eq!(f.frame(0), pauli("X"));
    }

    #[test]
    fn phase_gates_turn_x_into_y() {
        let mut f = PauliFrames::new(1, 1);
        f.inject(0, 0, Pauli::X);
        f.apply_gate(&Gate::S(0));
        assert_eq!(f.frame(0), pauli("Y"));
        // S† also maps X ↔ ±Y; sign-free frames coincide.
        f.apply_gate(&Gate::Sdg(0));
        assert_eq!(f.frame(0), pauli("X"));
    }

    #[test]
    fn pauli_gates_leave_frames_unchanged() {
        let mut f = PauliFrames::new(2, 64);
        for s in 0..64 {
            f.inject(0, s, Pauli::Y);
        }
        let before = f.clone();
        f.apply_gate(&Gate::X(0));
        f.apply_gate(&Gate::Z(1));
        f.apply_gate(&Gate::Y(0));
        assert_eq!(f, before);
    }

    #[test]
    fn certain_depolarizing_hits_every_shot() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut f = PauliFrames::new(1, 130);
        f.inject_depolarizing(0, 1.0, &mut rng);
        // Every shot has a non-identity letter: it anticommutes with at
        // least one of X, Z — and X+Z flip counts total ≥ shots.
        let fx = f.flip_count(&pauli("Z"));
        let fz = f.flip_count(&pauli("X"));
        assert!(fx + fz >= 130, "{fx} + {fz}");
        for s in 0..130 {
            assert!(!f.frame(s).is_identity(), "shot {s}");
        }
    }

    #[test]
    fn padding_bits_stay_clear_for_ragged_shot_counts() {
        // 65 shots spans two lane words with 63 padding bits.
        let mut rng = StdRng::seed_from_u64(9);
        let mut f = PauliFrames::new(2, 65);
        f.inject_depolarizing(0, 1.0, &mut rng);
        f.inject_depolarizing_2q(0, 1, 0.7, &mut rng);
        f.apply_gate(&Gate::H(0));
        f.apply_gate(&Gate::Cx(0, 1));
        for p in ["ZI", "IZ", "XX", "YY", "XI"] {
            assert!(f.flip_count(&pauli(p)) <= 65, "{p}");
        }
        let plane = f.flip_plane(&pauli("ZI"));
        assert_eq!(plane[1] & !1, 0, "padding bits must stay zero");
    }

    #[test]
    fn single_shot_batch_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut f = PauliFrames::new(3, 1);
        f.inject_depolarizing(1, 1.0, &mut rng);
        assert!(!f.frame(0).is_identity());
        assert_eq!(f.frame(0).pauli_at(0), Pauli::I);
        assert_eq!(f.frame(0).pauli_at(2), Pauli::I);
    }

    #[test]
    fn idle_injection_rate_tracks_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut f = PauliFrames::new(1, 6400);
        let idle = TwirledIdle {
            px: 0.25,
            py: 0.0,
            pz: 0.0,
        };
        f.inject_idle(0, &idle, &mut rng);
        // Only X errors: flip ⟨Z⟩ on ~25% of shots.
        let flips = f.flip_count(&pauli("Z"));
        assert_eq!(f.flip_count(&pauli("X")), 0);
        let frac = flips as f64 / 6400.0;
        assert!((frac - 0.25).abs() < 0.03, "{frac}");
    }

    #[test]
    fn swap_exchanges_frame_columns() {
        let mut f = PauliFrames::new(2, 70);
        for s in 0..70 {
            f.inject(0, s, Pauli::X);
        }
        f.inject(1, 3, Pauli::Z);
        f.apply_gate(&Gate::Swap(0, 1));
        assert_eq!(f.frame(0), pauli("IX"));
        assert_eq!(f.frame(3), pauli("ZX"));
        assert_eq!(f.flip_count(&pauli("IZ")), 70);
        assert_eq!(f.flip_count(&pauli("XI")), 1);
    }

    #[test]
    fn rotation_propagation_matches_gate_decomposition() {
        use std::f64::consts::FRAC_PI_2;
        // Rz(π/2) acts on frames as S; Rx(π/2) maps Z-frames onto Y.
        let mut a = PauliFrames::new(1, 2);
        a.inject(0, 0, Pauli::X);
        a.inject(0, 1, Pauli::Z);
        let mut b = a.clone();
        a.apply_gate(&Gate::Rz(0, Angle::Value(FRAC_PI_2)));
        b.apply_gate(&Gate::S(0));
        assert_eq!(a, b);
        let mut c = PauliFrames::new(1, 1);
        c.inject(0, 0, Pauli::Z);
        c.apply_gate(&Gate::Rx(0, Angle::Value(FRAC_PI_2)));
        assert_eq!(c.frame(0), pauli("Y"));
        // Full-turn rotations are Paulis: no frame change.
        let mut d = PauliFrames::new(1, 1);
        d.inject(0, 0, Pauli::X);
        d.apply_gate(&Gate::Ry(0, Angle::Value(std::f64::consts::PI)));
        assert_eq!(d.frame(0), pauli("X"));
    }

    #[test]
    #[should_panic(expected = "non-Clifford rotation")]
    fn non_clifford_rotation_rejected() {
        let mut f = PauliFrames::new(1, 1);
        f.apply_gate(&Gate::Rz(0, Angle::Value(0.4)));
    }
}
