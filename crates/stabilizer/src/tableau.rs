//! The destabilizer/stabilizer tableau (Aaronson & Gottesman 2004), and
//! the same storage reused for Heisenberg-picture expectations.
//!
//! Storage is *column-major* (Stim-style): for every qubit, the X and Z
//! bits of all `2n` generator rows are packed into `u64` words. A gate on
//! one or two qubits therefore touches `O(2n/64)` contiguous words with
//! XOR/AND kernels instead of `2n` bit-at-a-time updates, and
//! [`Tableau::expectation`] accumulates the product phase with
//! popcount/prefix-XOR word arithmetic rather than per-qubit scans.
//!
//! The gate kernels conjugate *every* row by the gate, whatever the rows
//! are. [`HeisenbergRows`] exploits that: its rows are an observable's T
//! terms instead of generators (⌈T/64⌉ words per column), and walking
//! the circuit in reverse with each gate's inverse turns every term `P`
//! into `U†PU`, whose value on `|0…0⟩` is read off its X bits and sign.
//! That replaces a forward run plus T per-term expectation queries.
//!
//! Walked over a [`NoiseProgram`]'s sign-exact tape instead of a circuit,
//! the same walk also carries the noise: when it reaches an injection
//! site, each row holds `P` conjugated back to that site, and a sampled
//! error flips a shot's value of `P` exactly when it anticommutes with
//! that row. [`HeisenbergRows::noisy_walk`] folds every hit there, so one
//! reverse walk gives every energy estimator in this crate both its
//! noiseless values and every shot's sign flips, with no forward frame
//! walk.

use crate::program::{Hit, NoiseProgram, Op, BATCH_SHOTS};
use eftq_circuit::{Angle, Circuit, Gate};
use eftq_numerics::{words, SeedSequence};
use eftq_pauli::PauliString;
use rand::Rng;
use std::f64::consts::FRAC_PI_2;

const WORD_BITS: usize = 64;

/// Disjoint mutable views of bit-columns `a` and `b` of a qubit-major
/// plane (`a != b`), for the two-qubit word kernels.
#[inline]
fn two_cols(plane: &mut [u64], rwords: usize, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
    debug_assert_ne!(a, b);
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = plane.split_at_mut(hi * rwords);
    let first = &mut head[lo * rwords..(lo + 1) * rwords];
    let second = &mut tail[..rwords];
    if a < b {
        (first, second)
    } else {
        (second, first)
    }
}

/// A stabilizer state of `n` qubits, represented by `n` destabilizer and
/// `n` stabilizer generators with sign tracking.
///
/// Supports the Clifford gate set (H, S, S†, Paulis, CX, CZ, SWAP and
/// rotations at multiples of π/2), computational-basis measurement, and
/// Pauli-expectation queries — the operations the Clifford-restricted VQE
/// of Section 5.2.2 needs. Scales comfortably past 100 qubits
/// (`O(n²)` memory, `O(n/32)` words touched per gate, `O(n²/64)` per
/// measurement/expectation).
#[derive(Clone, Debug, PartialEq)]
pub struct Tableau {
    n: usize,
    /// Words per column: ⌈2n/64⌉. Bit `r` of a column is generator row
    /// `r`; rows `0..n` are destabilizers, rows `n..2n` stabilizers. Bits
    /// at positions ≥ 2n are kept zero as an invariant.
    rwords: usize,
    /// X bit-columns, qubit-major: column `q` is `x[q*rwords..(q+1)*rwords]`.
    x: Vec<u64>,
    /// Z bit-columns, same layout.
    z: Vec<u64>,
    /// Sign bit-plane over rows: bit set ⇔ the row carries a −1 phase.
    /// Destabilizer signs are tracked only modulo factors of `i` (their
    /// exact phase never influences any query, as in Aaronson–Gottesman).
    sgn: Vec<u64>,
}

/// Mask of the bits in word `w` whose global bit index is `< bound`.
#[inline]
pub(crate) fn lo_mask(bound: usize, w: usize) -> u64 {
    let base = w * WORD_BITS;
    if bound >= base + WORD_BITS {
        !0
    } else if bound <= base {
        0
    } else {
        !0 >> (WORD_BITS - (bound - base))
    }
}

#[inline]
fn plane_get(plane: &[u64], bit: usize) -> bool {
    plane[bit / WORD_BITS] >> (bit % WORD_BITS) & 1 == 1
}

/// Returns `src` shifted up by `k` bit positions (bit `i` → bit `i + k`).
fn shifted_up(src: &[u64], k: usize) -> Vec<u64> {
    let words = src.len();
    let (ws, bs) = (k / WORD_BITS, k % WORD_BITS);
    let mut out = vec![0u64; words];
    for w in (ws..words).rev() {
        let mut v = src[w - ws] << bs;
        if bs > 0 && w > ws {
            v |= src[w - ws - 1] >> (WORD_BITS - bs);
        }
        out[w] = v;
    }
    out
}

/// Word-parallel *exclusive* prefix XOR: bit `i` of the result is the XOR
/// of all bits `< i` of `v`, seeded by `carry` (all-ones when the parity
/// of the preceding words is odd, all-zeros otherwise). Updates `carry`
/// with `v`'s own parity so multi-word planes chain correctly.
#[inline]
fn prefix_xor_excl(v: u64, carry: &mut u64) -> u64 {
    let mut p = v;
    p ^= p << 1;
    p ^= p << 2;
    p ^= p << 4;
    p ^= p << 8;
    p ^= p << 16;
    p ^= p << 32;
    let excl = (p << 1) ^ *carry;
    *carry ^= 0u64.wrapping_sub(p >> 63);
    excl
}

impl Tableau {
    /// The all-zeros state `|0…0⟩`: destabilizer `X_i`, stabilizer `Z_i`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let rwords = (2 * n).div_ceil(WORD_BITS);
        let mut t = Tableau {
            n,
            rwords,
            x: vec![0; n * rwords],
            z: vec![0; n * rwords],
            sgn: vec![0; rwords],
        };
        for i in 0..n {
            // Destabilizer i = X_i (row bit i of column i), stabilizer
            // i = Z_i (row bit n + i).
            t.x[i * rwords + i / WORD_BITS] |= 1 << (i % WORD_BITS);
            t.z[i * rwords + (n + i) / WORD_BITS] |= 1 << ((n + i) % WORD_BITS);
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    #[inline]
    pub(crate) fn xcol(&self, q: usize) -> &[u64] {
        &self.x[q * self.rwords..(q + 1) * self.rwords]
    }

    #[inline]
    pub(crate) fn zcol(&self, q: usize) -> &[u64] {
        &self.z[q * self.rwords..(q + 1) * self.rwords]
    }

    /// Overwrites `self` with a copy of `other`, reusing the existing
    /// allocations (unlike the derived `clone`, which reallocates). The
    /// grouped sampler uses this to reset its scratch tableau once per
    /// group without churning the allocator.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub(crate) fn copy_from(&mut self, other: &Tableau) {
        assert_eq!(self.n, other.n, "tableau size mismatch");
        self.x.clone_from(&other.x);
        self.z.clone_from(&other.z);
        self.sgn.clone_from(&other.sgn);
    }

    // --- gates -------------------------------------------------------------

    /// Hadamard on `q`: X ↔ Z, Y → −Y.
    pub fn h(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let b = q * self.rwords;
        words::hadamard(
            &mut self.x[b..b + self.rwords],
            &mut self.z[b..b + self.rwords],
            &mut self.sgn,
        );
    }

    /// Phase gate S on `q`: X → Y, Y → −X.
    pub fn s(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let b = q * self.rwords;
        words::phase_s(
            &self.x[b..b + self.rwords],
            &mut self.z[b..b + self.rwords],
            &mut self.sgn,
        );
    }

    /// Inverse phase gate S†: X → −Y, Y → X.
    pub fn sdg(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let b = q * self.rwords;
        words::phase_sdg(
            &self.x[b..b + self.rwords],
            &mut self.z[b..b + self.rwords],
            &mut self.sgn,
        );
    }

    /// Pauli X on `q` (sign update only).
    pub fn x_gate(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let b = q * self.rwords;
        for w in 0..self.rwords {
            self.sgn[w] ^= self.z[b + w];
        }
    }

    /// Pauli Z on `q`.
    pub fn z_gate(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let b = q * self.rwords;
        for w in 0..self.rwords {
            self.sgn[w] ^= self.x[b + w];
        }
    }

    /// Pauli Y on `q`.
    pub fn y_gate(&mut self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        let b = q * self.rwords;
        for w in 0..self.rwords {
            self.sgn[w] ^= self.x[b + w] ^ self.z[b + w];
        }
    }

    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) {
        assert!(control < self.n && target < self.n && control != target);
        let rw = self.rwords;
        let (xc, xt) = two_cols(&mut self.x, rw, control, target);
        let (zc, zt) = two_cols(&mut self.z, rw, control, target);
        words::cx(xc, zc, xt, zt, &mut self.sgn);
    }

    /// CZ between `a` and `b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let rw = self.rwords;
        let (xa, xb) = two_cols(&mut self.x, rw, a, b);
        let (za, zb) = two_cols(&mut self.z, rw, a, b);
        words::cz(xa, xb, za, zb, &mut self.sgn);
    }

    /// SWAP of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n && a != b);
        let rw = self.rwords;
        let (xa, xb) = two_cols(&mut self.x, rw, a, b);
        words::swap(xa, xb);
        let (za, zb) = two_cols(&mut self.z, rw, a, b);
        words::swap(za, zb);
    }

    /// Applies one Clifford gate (rotations must be at multiples of π/2;
    /// measurements are rejected — use [`Tableau::measure`]).
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford or symbolic rotations, and on `Measure`.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::H(q) => self.h(q),
            Gate::S(q) => self.s(q),
            Gate::Sdg(q) => self.sdg(q),
            Gate::X(q) => self.x_gate(q),
            Gate::Y(q) => self.y_gate(q),
            Gate::Z(q) => self.z_gate(q),
            Gate::Cx(c, t) => self.cx(c, t),
            Gate::Cz(a, b) => self.cz(a, b),
            Gate::Swap(a, b) => self.swap(a, b),
            Gate::Rz(q, Angle::Value(v))
            | Gate::Rx(q, Angle::Value(v))
            | Gate::Ry(q, Angle::Value(v)) => {
                self.rotate(RotAxis::of(gate), q, quarter_turns(v, gate))
            }
            ref g => panic!("tableau cannot apply gate {g}"),
        }
    }

    /// Conjugates by the inverse of one Clifford gate: H, the Paulis, CX,
    /// CZ and SWAP are self-inverse, S and S† trade places, and a rotation
    /// at `k` quarter turns runs its forward sequence at `−k`.
    ///
    /// # Panics
    ///
    /// Panics wherever [`Tableau::apply_gate`] does.
    fn apply_inverse_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::S(q) => self.sdg(q),
            Gate::Sdg(q) => self.s(q),
            Gate::Rz(q, Angle::Value(v))
            | Gate::Rx(q, Angle::Value(v))
            | Gate::Ry(q, Angle::Value(v)) => {
                self.rotate(RotAxis::of(gate), q, (4 - quarter_turns(v, gate)) % 4)
            }
            _ => self.apply_gate(gate),
        }
    }

    /// Conjugates by the inverse of one bound program gate — the tape
    /// counterpart of [`Tableau::apply_inverse_gate`]. Site runs leave
    /// the rows alone.
    fn apply_inverse_op(&mut self, op: Op) {
        match op {
            Op::H { q } => self.h(q as usize),
            Op::S { q } => self.sdg(q as usize),
            Op::Sdg { q } => self.s(q as usize),
            Op::X { q } => self.x_gate(q as usize),
            Op::Y { q } => self.y_gate(q as usize),
            Op::Z { q } => self.z_gate(q as usize),
            Op::Rot { q, axis, k } => self.rotate(axis, q as usize, (4 - k) % 4),
            Op::Cx { c, t } => self.cx(c as usize, t as usize),
            Op::Cz { a, b } => self.cz(a as usize, b as usize),
            Op::Swap { a, b } => self.swap(a as usize, b as usize),
            Op::Depol1Run { .. } | Op::Depol2Run { .. } | Op::IdleRun { .. } => {}
        }
    }

    /// The rotation about `axis` on `q` at `k` quarter turns.
    fn rotate(&mut self, axis: RotAxis, q: usize, k: u8) {
        match axis {
            RotAxis::Z => self.apply_quarter_z(q, k),
            RotAxis::X => {
                self.h(q);
                self.apply_quarter_z(q, k);
                self.h(q);
            }
            RotAxis::Y => {
                // Ry(θ) = S · Rx(θ) · S†: conjugation order S† first.
                self.sdg(q);
                self.h(q);
                self.apply_quarter_z(q, k);
                self.h(q);
                self.s(q);
            }
        }
    }

    fn apply_quarter_z(&mut self, q: usize, k: u8) {
        match k {
            0 => {}
            1 => self.s(q),
            2 => self.z_gate(q),
            _ => self.sdg(q),
        }
    }

    /// Runs every gate of a bound Clifford circuit (measurements skipped).
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "circuit size mismatch");
        for g in circuit.gates() {
            if g.is_measurement() {
                continue;
            }
            self.apply_gate(g);
        }
    }

    /// Applies a Pauli error (conjugation signs only — a Pauli maps the
    /// stabilizer group to itself up to signs).
    pub fn apply_pauli_error(&mut self, p: &PauliString) {
        assert_eq!(p.num_qubits(), self.n, "pauli size mismatch");
        for q in p.support() {
            match p.pauli_at(q) {
                eftq_pauli::Pauli::X => self.x_gate(q),
                eftq_pauli::Pauli::Y => self.y_gate(q),
                eftq_pauli::Pauli::Z => self.z_gate(q),
                eftq_pauli::Pauli::I => {}
            }
        }
    }

    // --- queries ------------------------------------------------------------

    /// One bit per generator row: set iff the row anticommutes with `p`.
    /// Word-parallel over all `2n` rows: `O(weight(p) · 2n/64)`.
    fn anticommute_plane(&self, p: &PauliString) -> Vec<u64> {
        let mut acc = vec![0u64; self.rwords];
        for q in 0..self.n {
            let letter = p.pauli_at(q);
            if letter.z_bit() {
                let col = self.xcol(q);
                for w in 0..self.rwords {
                    acc[w] ^= col[w];
                }
            }
            if letter.x_bit() {
                let col = self.zcol(q);
                for w in 0..self.rwords {
                    acc[w] ^= col[w];
                }
            }
        }
        acc
    }

    /// Expectation value of a Hermitian Pauli string on this stabilizer
    /// state: +1 / −1 when `±P` is in the stabilizer group, 0 otherwise.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch or a non-Hermitian phase.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "pauli size mismatch");
        assert!(p.is_hermitian(), "expectation needs a Hermitian Pauli");
        let rw = self.rwords;
        let anti = self.anticommute_plane(p);
        // Anticommuting with any stabilizer (row bits n..2n) ⇒ 0.
        for (w, &a) in anti.iter().enumerate() {
            if a & !lo_mask(self.n, w) != 0 {
                return 0.0;
            }
        }
        // P commutes with the whole group ⇒ P = ±Π selected stabilizers,
        // where stabilizer i is selected iff P anticommutes with
        // destabilizer i. The destabilizer bits of `anti` shifted up by n
        // give the selection mask over stabilizer-row bit positions.
        let sel = shifted_up(&anti, self.n);
        // Phase of the ordered product Π_{i∈sel} stab_i, word-parallel:
        // Pauli multiplication is site-local, and at each site the letter
        // accumulated before row r is the prefix XOR of the selected rows
        // below r — so the per-site i-power table becomes mask algebra on
        // the (row-letter, prefix-letter) bit-planes, tallied by popcount.
        let mut sign2 = 0u64;
        for (&sg, &sl) in self.sgn.iter().zip(&sel) {
            sign2 += u64::from((sg & sl).count_ones());
        }
        let mut plus = 0u64;
        let mut minus = 0u64;
        for q in 0..self.n {
            let (xc, zc) = (self.xcol(q), self.zcol(q));
            let (mut carry_x, mut carry_z) = (0u64, 0u64);
            #[cfg(debug_assertions)]
            let (mut par_x, mut par_z) = (0u32, 0u32);
            for w in 0..rw {
                let xq = xc[w] & sel[w];
                let zq = zc[w] & sel[w];
                if xq == 0 && zq == 0 {
                    continue; // no letter here: prefixes and phase unchanged
                }
                let bx = prefix_xor_excl(xq, &mut carry_x);
                let bz = prefix_xor_excl(zq, &mut carry_z);
                let pm = (xq & !zq & bx & bz) | (xq & zq & !bx & bz) | (!xq & zq & bx & !bz);
                let mm = (xq & !zq & !bx & bz) | (xq & zq & bx & !bz) | (!xq & zq & bx & bz);
                plus += u64::from(pm.count_ones());
                minus += u64::from(mm.count_ones());
                #[cfg(debug_assertions)]
                {
                    par_x ^= xq.count_ones() & 1;
                    par_z ^= zq.count_ones() & 1;
                }
            }
            #[cfg(debug_assertions)]
            {
                let letter = p.pauli_at(q);
                debug_assert_eq!(
                    par_x == 1,
                    letter.x_bit(),
                    "pauli part mismatch in expectation"
                );
                debug_assert_eq!(
                    par_z == 1,
                    letter.z_bit(),
                    "pauli part mismatch in expectation"
                );
            }
        }
        let ar = ((2 * sign2 + plus + 3 * minus) % 4) as u8;
        if ar == p.phase_exponent() {
            1.0
        } else {
            -1.0
        }
    }

    /// Energy `Σ c_k ⟨P_k⟩` of an observable on this state.
    pub fn energy(&self, observable: &eftq_pauli::PauliSum) -> f64 {
        observable
            .terms()
            .iter()
            .map(|t| t.coefficient * self.expectation(&t.string))
            .sum()
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    /// Returns the outcome bit.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        assert!(q < self.n, "qubit {q} out of range");
        let rw = self.rwords;
        // Random outcome iff some stabilizer anticommutes with Z_q, i.e.
        // has x_q = 1: find the lowest such row.
        let mut pivot = None;
        for w in 0..rw {
            let bits = self.x[q * rw + w] & !lo_mask(self.n, w);
            if bits != 0 {
                pivot = Some(w * WORD_BITS + bits.trailing_zeros() as usize);
                break;
            }
        }
        let Some(p) = pivot else {
            // Deterministic: ⟨Z_q⟩ = ±1.
            let zq = PauliString::single(self.n, q, eftq_pauli::Pauli::Z);
            return self.expectation(&zq) < 0.0;
        };
        let outcome = rng.gen_bool(0.5);
        // All other rows with x_q = 1 absorb row p: row ← row_p · row.
        let mut m: Vec<u64> = self.xcol(q).to_vec();
        m[p / WORD_BITS] &= !(1 << (p % WORD_BITS));
        let sign_p = plane_get(&self.sgn, p);
        // Per-row 2-bit accumulator of the i-power picked up by the
        // products (stabilizer rows always end even; destabilizer rows may
        // end odd, which is dropped — their phase is never observed).
        let mut d1 = vec![0u64; rw];
        let mut d2 = vec![0u64; rw];
        for j in 0..self.n {
            let base = j * rw;
            let cxj = plane_get(&self.x[base..base + rw], p);
            let czj = plane_get(&self.z[base..base + rw], p);
            if !cxj && !czj {
                continue;
            }
            for w in 0..rw {
                let mw = m[w];
                if mw == 0 {
                    continue;
                }
                let bx = self.x[base + w] & mw;
                let bz = self.z[base + w] & mw;
                // Phase of (row_p letter)·(row letter) at this site: +i
                // rows into pm, −i rows into mm.
                let (pm, mm) = match (cxj, czj) {
                    (true, false) => (bx & bz, !bx & bz & mw),
                    (true, true) => (!bx & bz & mw, bx & !bz),
                    (false, true) => (bx & !bz, bx & bz),
                    (false, false) => unreachable!(),
                };
                let carry = d1[w] & pm;
                d1[w] ^= pm;
                d2[w] ^= carry;
                let borrow = mm & !d1[w];
                d1[w] ^= mm;
                d2[w] ^= borrow;
                if cxj {
                    self.x[base + w] ^= mw;
                }
                if czj {
                    self.z[base + w] ^= mw;
                }
            }
        }
        for w in 0..rw {
            let mut flip = d2[w] & m[w];
            if sign_p {
                flip ^= m[w];
            }
            self.sgn[w] ^= flip;
        }
        // Destabilizer p−n becomes the old row p; row p becomes ±Z_q.
        let d = p - self.n;
        let (wp, bp) = (p / WORD_BITS, p % WORD_BITS);
        let (wd, bd) = (d / WORD_BITS, d % WORD_BITS);
        for j in 0..self.n {
            let base = j * rw;
            let xb = self.x[base + wp] >> bp & 1;
            self.x[base + wd] = (self.x[base + wd] & !(1 << bd)) | (xb << bd);
            self.x[base + wp] &= !(1 << bp);
            let zb = self.z[base + wp] >> bp & 1;
            self.z[base + wd] = (self.z[base + wd] & !(1 << bd)) | (zb << bd);
            self.z[base + wp] &= !(1 << bp);
        }
        self.z[q * rw + wp] |= 1 << bp;
        self.sgn[wd] = (self.sgn[wd] & !(1 << bd)) | (u64::from(sign_p) << bd);
        self.sgn[wp] = (self.sgn[wp] & !(1 << bp)) | (u64::from(outcome) << bp);
        outcome
    }
}

/// The terms of an observable as the rows of a column-major Pauli plane,
/// for Heisenberg-picture expectations on `|0…0⟩`.
///
/// [`HeisenbergRows::expectations`] computes `⟨0|U†PU|0⟩` for every row
/// `P` without building the state `U|0⟩`: it walks the circuit once in
/// reverse, conjugating all rows by each gate's inverse with the same
/// word kernels a [`Tableau`] gate uses (the plane *is* the tableau
/// layout, with ⌈T/64⌉ words per qubit column for T rows instead of
/// ⌈2n/64⌉). A conjugated row with an X or Y letter left has expectation
/// 0 on `|0…0⟩`; a pure Z-string has `(−1)^sign`. The values are exactly
/// those of [`Tableau::expectation`] on the forward-run state, so the
/// two are interchangeable bit for bit.
///
/// Cost for G gates: `G·⌈T/64⌉ + n·⌈T/64⌉` word operations, against
/// `G·⌈2n/64⌉ + T·n·⌈2n/64⌉` for the forward run plus per-term queries.
/// The forward path would win only where G > 2n² and T ≫ n; the FCHE
/// ansatz has G ≈ n²/2.
///
/// # Examples
///
/// ```
/// use eftq_circuit::Circuit;
/// use eftq_pauli::PauliString;
/// use eftq_stabilizer::HeisenbergRows;
///
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2);
/// let terms: Vec<PauliString> = ["XXX", "-YYX", "ZZI", "ZII"]
///     .iter()
///     .map(|s| s.parse().unwrap())
///     .collect();
/// let rows = HeisenbergRows::new(3, &terms);
/// let mut e0 = vec![0.0; rows.num_rows()];
/// rows.expectations(&c, &mut e0);
/// assert_eq!(e0, vec![1.0, 1.0, 1.0, 0.0]);
/// ```
#[derive(Clone, Debug)]
pub struct HeisenbergRows {
    /// Row `r` of the plane is string `r`. Not a stabilizer state: only
    /// the gate kernels may touch it.
    plane: Tableau,
    rows: usize,
}

impl HeisenbergRows {
    /// Packs `strings` (each on `n` qubits) as rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, on a qubit-count mismatch, or on a
    /// non-Hermitian phase.
    pub fn new<'a>(n: usize, strings: impl IntoIterator<Item = &'a PauliString>) -> Self {
        assert!(n > 0, "tableau needs at least one qubit");
        let strings: Vec<&PauliString> = strings.into_iter().collect();
        let rwords = strings.len().div_ceil(WORD_BITS);
        let mut plane = Tableau {
            n,
            rwords,
            x: vec![0; n * rwords],
            z: vec![0; n * rwords],
            sgn: vec![0; rwords],
        };
        for (r, p) in strings.iter().enumerate() {
            assert_eq!(p.num_qubits(), n, "pauli size mismatch");
            assert!(p.is_hermitian(), "expectation needs a Hermitian Pauli");
            let (w, bit) = (r / WORD_BITS, 1u64 << (r % WORD_BITS));
            for q in p.support() {
                let letter = p.pauli_at(q);
                if letter.x_bit() {
                    plane.x[q * rwords + w] |= bit;
                }
                if letter.z_bit() {
                    plane.z[q * rwords + w] |= bit;
                }
            }
            if p.phase_exponent() == 2 {
                plane.sgn[w] |= bit;
            }
        }
        HeisenbergRows {
            plane,
            rows: strings.len(),
        }
    }

    /// Number of rows (strings).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Writes `⟨0|U†P_rU|0⟩ ∈ {−1, 0, +1}` for every row `r` into `out`,
    /// where `U` is the bound Clifford `circuit` with its measurements
    /// skipped (as in [`Tableau::run`]).
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch, and on any gate
    /// [`Tableau::apply_gate`] rejects other than `Measure`.
    pub fn expectations(&self, circuit: &Circuit, out: &mut [f64]) {
        assert_eq!(circuit.num_qubits(), self.plane.n, "circuit size mismatch");
        assert_eq!(out.len(), self.rows, "output slice size mismatch");
        let mut walk = self.plane.clone();
        for g in circuit.gates().iter().rev() {
            if !g.is_measurement() {
                walk.apply_inverse_gate(g);
            }
        }
        read_off(&walk, out);
    }

    /// The noiseless expectations *and* every shot's sign flips of a
    /// `shots`-shot noisy run of `program`, from one reverse walk of its
    /// tape.
    ///
    /// A Pauli error `E` injected at site τ flips a shot's value of row
    /// `P` exactly when `E` anticommutes with `P` conjugated back to τ —
    /// and that conjugated row is what the plane holds when the reverse
    /// walk reaches τ. So the walk first samples the run's errors
    /// (batch `b` under `seed.derive_index(b)`, with the draws
    /// [`NoiseProgram::run_threaded`] makes under `seed`, sharded across
    /// `threads` workers), then, at each site run, folds that run's hits:
    /// a hit with letter `(x, z)` on qubit `q` XORs `x·zcol_q ⊕ z·xcol_q`
    /// into its shot's flip row. Flip row bit `r` of shot `s` therefore
    /// equals bit `s` of [`PauliFrames::flip_plane`] for row `r` on the
    /// forward frames, and the expectations equal
    /// [`HeisenbergRows::expectations`] on the circuit the program was
    /// compiled from, bit for bit.
    ///
    /// Cost for G gates, T rows and H hit lanes: `G·⌈T/64⌉ + H·⌈T/64⌉`
    /// word operations, plus the sampling. The forward path this replaces
    /// costs the same noiseless `G·⌈T/64⌉` plus `G·⌈S/64⌉ + T·w·⌈S/64⌉`
    /// for S shots and terms of weight w, so forward frames would win
    /// only with many shots at a high error rate, where H·⌈T/64⌉ exceeds
    /// G·⌈S/64⌉ (see docs/PERFORMANCE.md entry 8).
    ///
    /// [`PauliFrames::flip_plane`]: crate::PauliFrames::flip_plane
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`, on a qubit-count mismatch, or if a
    /// sampling worker panics.
    ///
    /// # Examples
    ///
    /// ```
    /// use eftq_circuit::Circuit;
    /// use eftq_numerics::SeedSequence;
    /// use eftq_pauli::PauliString;
    /// use eftq_stabilizer::{HeisenbergRows, NoiseProgram, StabilizerNoise};
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let mut noise = StabilizerNoise::noiseless();
    /// noise.depol_2q = 0.3;
    /// let program = NoiseProgram::compile(&c, &noise);
    /// let terms: Vec<PauliString> = ["ZZ", "XX"].iter().map(|s| s.parse().unwrap()).collect();
    /// let rows = HeisenbergRows::new(2, &terms);
    /// let walk = rows.noisy_walk(&program, 100, SeedSequence::new(1), 1);
    /// assert_eq!(walk.expectations(), &[1.0, 1.0]);
    /// let frames = program.run(100, SeedSequence::new(1));
    /// let zz = frames.flip_plane(&terms[0]);
    /// for s in 0..100 {
    ///     assert_eq!(walk.flip_row(s)[0] & 1, zz[s / 64] >> (s % 64) & 1);
    /// }
    /// ```
    pub fn noisy_walk(
        &self,
        program: &NoiseProgram,
        shots: usize,
        seed: SeedSequence,
        threads: usize,
    ) -> NoisyRows {
        assert!(shots > 0, "at least one shot required");
        assert_eq!(program.num_qubits(), self.plane.n, "program size mismatch");
        let batches = program.sample_hits(shots, seed, threads);
        let mut walk = self.plane.clone();
        let tw = walk.rwords;
        let mut flips = vec![0u64; shots * tw];
        // Each batch's hits are in tape order: fold them from the back.
        let mut rests: Vec<&[Hit]> = batches.iter().map(Vec::as_slice).collect();
        for (i, op) in program.ops().enumerate().rev() {
            if !matches!(
                op,
                Op::Depol1Run { .. } | Op::Depol2Run { .. } | Op::IdleRun { .. }
            ) {
                walk.apply_inverse_op(op);
                continue;
            }
            for (b, rest) in rests.iter_mut().enumerate() {
                while let Some((h, head)) = rest.split_last() {
                    if h.pos != i as u32 {
                        break;
                    }
                    *rest = head;
                    let q = h.q as usize;
                    let (xc, zc) = (walk.xcol(q), walk.zcol(q));
                    let base = b * BATCH_SHOTS + h.word as usize * WORD_BITS;
                    let mut lanes = h.x | h.z;
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros();
                        let s = base + lane as usize;
                        let row = &mut flips[s * tw..(s + 1) * tw];
                        if h.x >> lane & 1 == 1 {
                            words::xor_into(row, zc);
                        }
                        if h.z >> lane & 1 == 1 {
                            words::xor_into(row, xc);
                        }
                        lanes &= lanes - 1;
                    }
                }
            }
        }
        let mut e0 = vec![0.0; self.rows];
        read_off(&walk, &mut e0);
        NoisyRows {
            e0,
            flips,
            words: tw,
            shots,
        }
    }
}

/// Reads `⟨0|±Q|0⟩` off every walked row `Q` into `out`: any X bit flips
/// a `|0⟩` to `|1⟩` and reads 0; a pure Z-string reads `(−1)^sign`.
fn read_off(walk: &Tableau, out: &mut [f64]) {
    let mut has_x = vec![0u64; walk.rwords];
    for q in 0..walk.n {
        for (h, &x) in has_x.iter_mut().zip(walk.xcol(q)) {
            *h |= x;
        }
    }
    for (r, e) in out.iter_mut().enumerate() {
        *e = if plane_get(&has_x, r) {
            0.0
        } else if plane_get(&walk.sgn, r) {
            -1.0
        } else {
            1.0
        };
    }
}

/// What one [`HeisenbergRows::noisy_walk`] yields: every row's noiseless
/// expectation and, per shot, one flip bit per row.
#[derive(Clone, Debug, PartialEq)]
pub struct NoisyRows {
    e0: Vec<f64>,
    /// Shot `s`'s flip row is `flips[s·words .. (s+1)·words]`.
    flips: Vec<u64>,
    words: usize,
    shots: usize,
}

impl NoisyRows {
    /// The noiseless expectation `∈ {−1, 0, +1}` of every row, in row
    /// order.
    pub fn expectations(&self) -> &[f64] {
        &self.e0
    }

    /// Number of shots.
    pub fn num_shots(&self) -> usize {
        self.shots
    }

    /// Shot `s`'s flip row: bit `r` (lane `r % 64` of word `r / 64`) is
    /// set iff the shot's errors anticommute with row `r`, i.e. the shot
    /// reads `−⟨P_r⟩`. Bits past the row count are clear.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shots()`.
    pub fn flip_row(&self, s: usize) -> &[u64] {
        assert!(s < self.shots, "shot {s} out of range");
        &self.flips[s * self.words..(s + 1) * self.words]
    }
}

/// Samples `shots` full computational-basis measurement outcomes of the
/// tableau state (each shot measures a fresh copy — measurement collapses).
/// Returns bitstrings with qubit `q` at bit `q`.
pub fn sample_counts<R: Rng + ?Sized>(t: &Tableau, shots: usize, rng: &mut R) -> Vec<u64> {
    assert!(
        t.num_qubits() <= 64,
        "bitstring sampling limited to 64 qubits"
    );
    (0..shots)
        .map(|_| {
            let mut copy = t.clone();
            let mut b = 0u64;
            for q in 0..t.num_qubits() {
                if copy.measure(q, rng) {
                    b |= 1 << q;
                }
            }
            b
        })
        .collect()
}

/// Rotation axis of an `Rx`, `Ry` or `Rz` gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RotAxis {
    X,
    Y,
    Z,
}

impl RotAxis {
    fn of(gate: &Gate) -> Self {
        match gate {
            Gate::Rx(..) => RotAxis::X,
            Gate::Ry(..) => RotAxis::Y,
            Gate::Rz(..) => RotAxis::Z,
            g => unreachable!("{g} is not a rotation"),
        }
    }
}

pub(crate) fn quarter_turns(v: f64, gate: &Gate) -> u8 {
    let k = (v / FRAC_PI_2).round();
    assert!(
        (v - k * FRAC_PI_2).abs() < 1e-9,
        "tableau cannot apply non-Clifford rotation {gate}"
    );
    (k as i64).rem_euclid(4) as u8
}
#[cfg(test)]
mod tests {
    use super::*;
    use eftq_pauli::PauliSum;
    use eftq_statesim::StateVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pauli(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn zero_state_expectations() {
        let t = Tableau::new(3);
        assert_eq!(t.expectation(&pauli("ZII")), 1.0);
        assert_eq!(t.expectation(&pauli("ZZZ")), 1.0);
        assert_eq!(t.expectation(&pauli("XII")), 0.0);
        assert_eq!(t.expectation(&pauli("-ZII")), -1.0);
    }

    #[test]
    fn plus_state_after_h() {
        let mut t = Tableau::new(1);
        t.h(0);
        assert_eq!(t.expectation(&pauli("X")), 1.0);
        assert_eq!(t.expectation(&pauli("Z")), 0.0);
    }

    #[test]
    fn s_gate_turns_x_into_y() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        assert_eq!(t.expectation(&pauli("Y")), 1.0);
        assert_eq!(t.expectation(&pauli("X")), 0.0);
        t.sdg(0);
        assert_eq!(t.expectation(&pauli("X")), 1.0);
    }

    #[test]
    fn bell_state_stabilizers() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        assert_eq!(t.expectation(&pauli("XX")), 1.0);
        assert_eq!(t.expectation(&pauli("ZZ")), 1.0);
        assert_eq!(t.expectation(&pauli("YY")), -1.0);
        assert_eq!(t.expectation(&pauli("ZI")), 0.0);
    }

    #[test]
    fn pauli_error_flips_signs() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        t.apply_pauli_error(&pauli("XI"));
        assert_eq!(t.expectation(&pauli("ZZ")), -1.0);
        assert_eq!(t.expectation(&pauli("XX")), 1.0);
    }

    #[test]
    fn clifford_rotations_match_gates() {
        let mut a = Tableau::new(1);
        a.apply_gate(&Gate::Rz(0, Angle::Value(FRAC_PI_2)));
        let mut b = Tableau::new(1);
        b.s(0);
        assert_eq!(a, b);
        let mut c = Tableau::new(1);
        c.apply_gate(&Gate::Rx(0, Angle::Value(std::f64::consts::PI)));
        let mut d = Tableau::new(1);
        d.x_gate(0);
        assert_eq!(c.expectation(&pauli("Z")), d.expectation(&pauli("Z")));
    }

    #[test]
    #[should_panic(expected = "non-Clifford rotation")]
    fn non_clifford_rotation_rejected() {
        let mut t = Tableau::new(1);
        t.apply_gate(&Gate::Rz(0, Angle::Value(0.3)));
    }

    #[test]
    fn measurement_collapses_ghz() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut t = Tableau::new(3);
            t.h(0);
            t.cx(0, 1);
            t.cx(1, 2);
            let m0 = t.measure(0, &mut rng);
            // All qubits must agree after the first measurement.
            let m1 = t.measure(1, &mut rng);
            let m2 = t.measure(2, &mut rng);
            assert_eq!(m0, m1);
            assert_eq!(m1, m2);
        }
    }

    #[test]
    fn deterministic_measurement_of_basis_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tableau::new(2);
        t.x_gate(1);
        assert!(!t.measure(0, &mut rng));
        assert!(t.measure(1, &mut rng));
    }

    #[test]
    fn measurement_statistics_of_plus_state() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ones = 0;
        for _ in 0..400 {
            let mut t = Tableau::new(1);
            t.h(0);
            if t.measure(0, &mut rng) {
                ones += 1;
            }
        }
        let frac = ones as f64 / 400.0;
        assert!((frac - 0.5).abs() < 0.08, "{frac}");
    }

    #[test]
    fn energy_of_observable() {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ");
        h.push_str(0.5, "XX");
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        assert!((t.energy(&h) - 1.5).abs() < 1e-12);
    }

    /// The decisive validation: random Clifford circuits agree with the
    /// state-vector simulator on random Pauli expectations.
    #[test]
    fn random_clifford_agrees_with_statevector() {
        let mut rng = StdRng::seed_from_u64(777);
        for trial in 0..40 {
            let n = 2 + (trial % 4);
            let mut c = Circuit::new(n);
            for _ in 0..30 {
                match rng.gen_range(0..9) {
                    0 => {
                        c.h(rng.gen_range(0..n));
                    }
                    1 => {
                        c.s(rng.gen_range(0..n));
                    }
                    2 => {
                        c.x(rng.gen_range(0..n));
                    }
                    3 => {
                        c.z(rng.gen_range(0..n));
                    }
                    4 => {
                        c.sdg(rng.gen_range(0..n));
                    }
                    5 => {
                        let k = rng.gen_range(0..4);
                        c.rx(rng.gen_range(0..n), f64::from(k) * FRAC_PI_2);
                    }
                    6 => {
                        let a = rng.gen_range(0..n);
                        let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                        c.cx(a, b);
                    }
                    7 => {
                        let a = rng.gen_range(0..n);
                        let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                        c.swap(a, b);
                    }
                    _ => {
                        let a = rng.gen_range(0..n);
                        let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                        c.cz(a, b);
                    }
                }
            }
            let mut t = Tableau::new(n);
            t.run(&c);
            let psi = StateVector::from_circuit(&c);
            for _ in 0..8 {
                let letters: Vec<eftq_pauli::Pauli> = (0..n)
                    .map(|_| eftq_pauli::Pauli::ALL[rng.gen_range(0..4)])
                    .collect();
                let p = PauliString::from_paulis(letters);
                let want = psi.expectation_pauli(&p);
                let got = t.expectation(&p);
                assert!(
                    (want - got).abs() < 1e-9,
                    "trial {trial}: pauli {p}, sv {want}, tableau {got}\n{c}"
                );
            }
        }
    }

    #[test]
    fn large_register_smoke() {
        // 100 qubits spans two words; build a long-range GHZ and check a
        // weight-100 stabilizer.
        let n = 100;
        let mut t = Tableau::new(n);
        t.h(0);
        for q in 0..n - 1 {
            t.cx(q, q + 1);
        }
        let all_x = PauliString::from_paulis(vec![eftq_pauli::Pauli::X; n]);
        let all_z = PauliString::from_paulis(vec![eftq_pauli::Pauli::Z; n]);
        assert_eq!(t.expectation(&all_x), 1.0);
        // ZZ on any adjacent pair is +1; single Z is 0; all-Z is +1 for
        // even parity GHZ.
        assert_eq!(t.expectation(&all_z), 1.0);
        let mut zz = PauliString::identity(n);
        zz.set_pauli(41, eftq_pauli::Pauli::Z);
        zz.set_pauli(42, eftq_pauli::Pauli::Z);
        assert_eq!(t.expectation(&zz), 1.0);
    }

    #[test]
    fn swap_matches_cx_composition() {
        // The direct column-swap kernel must equal SWAP = CX·CX·CX on a
        // state with distinct letters and a sign in play on both qubits.
        let mut a = Tableau::new(3);
        a.h(0);
        a.s(0);
        a.x_gate(1);
        a.cx(0, 1);
        let mut b = a.clone();
        a.swap(0, 1);
        b.cx(0, 1);
        b.cx(1, 0);
        b.cx(0, 1);
        assert_eq!(a, b);
        // And the state is physically permuted: ⟨P₀P₁⟩ ↔ ⟨P₁P₀⟩.
        let mut t = Tableau::new(2);
        t.x_gate(0);
        t.swap(0, 1);
        assert_eq!(t.expectation(&pauli("ZI")), 1.0);
        assert_eq!(t.expectation(&pauli("IZ")), -1.0);
    }

    #[test]
    fn rx_rotation_consistency() {
        // Rx(π/2)|0⟩ has ⟨Y⟩ = −1 (since Rx(π/2) = e^{−iπX/4}).
        let mut t = Tableau::new(1);
        t.apply_gate(&Gate::Rx(0, Angle::Value(FRAC_PI_2)));
        assert_eq!(t.expectation(&pauli("Y")), -1.0);
        assert_eq!(t.expectation(&pauli("Z")), 0.0);
        // Rx(3π/2) is the inverse: ⟨Y⟩ = +1.
        let mut t2 = Tableau::new(1);
        t2.apply_gate(&Gate::Rx(0, Angle::Value(3.0 * FRAC_PI_2)));
        assert_eq!(t2.expectation(&pauli("Y")), 1.0);
    }

    #[test]
    fn sample_counts_from_ghz() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut t = Tableau::new(3);
        t.h(0);
        t.cx(0, 1);
        t.cx(1, 2);
        let samples = sample_counts(&t, 200, &mut rng);
        // Only all-zeros and all-ones appear, in roughly equal measure.
        assert!(samples.iter().all(|&b| b == 0 || b == 0b111));
        let ones = samples.iter().filter(|&&b| b == 0b111).count();
        assert!(ones > 60 && ones < 140, "{ones}");
    }

    #[test]
    fn ry_rotation_consistency() {
        // Ry(π/2)|0⟩ = |+⟩.
        let mut t = Tableau::new(1);
        t.apply_gate(&Gate::Ry(0, Angle::Value(FRAC_PI_2)));
        assert_eq!(t.expectation(&pauli("X")), 1.0);
        // Ry(π)|0⟩ = |1⟩ up to phase.
        let mut t2 = Tableau::new(1);
        t2.apply_gate(&Gate::Ry(0, Angle::Value(std::f64::consts::PI)));
        assert_eq!(t2.expectation(&pauli("Z")), -1.0);
    }
}
