//! Dense density-matrix simulation with fused, structure-aware block
//! kernels.
//!
//! # Blocks and walkers
//!
//! Every operation the simulator applies acts on one or two qubits, so it
//! maps independent blocks of ρ to themselves: a single-qubit operation on
//! `q` acts on each 2×2 block `{r, r|2^q} × {c, c|2^q}` (bit `q` clear in
//! `r` and `c`), a two-qubit operation on `(a, b)` on each 4×4 block over
//! the pair. Two walkers visit those blocks: they enumerate the block bases
//! by inserting zero bits at the qubit positions and walk ρ row by row,
//! the rows of a block together (a row pair, or a group of four rows).
//! Every step of a pipeline runs over the blocks of those rows before the
//! walk moves on, so a pipeline loads each row once. Each public per-op
//! method is a one-step walk, and [`crate::noise::run_noisy`] chains a gate
//! with its gate-attached channels so a noisy gate walks ρ once. Only
//! [`DensityMatrix::apply_pauli_mixture`] builds a scratch copy of the
//! matrix (its Paulis act on every qubit at once).
//!
//! # Structure classes
//!
//! Three shapes are detected once per gate or channel from their exact-zero
//! entries, and skip the products with exact-zero factors:
//!
//! * a diagonal unitary (`Rz`, `S`, `T`, `Z`);
//! * a unitary with real diagonal and imaginary off-diagonal (`Rx`, `Y`);
//! * the thermal-relaxation superoperator (real, with `ρ₀₀′ = aρ₀₀ + γρ₁₁`
//!   and `ρ₀₁`, `ρ₁₀`, `ρ₁₁` each scaled by one factor; amplitude and
//!   phase damping share it).
//!
//! Every other gate or channel takes the general path.
//!
//! # Bit identity
//!
//! The general paths evaluate each output entry with the same f64
//! products and sums, in the same order, as the per-entry reference
//! formulas (`U·B` by rows, then `·U†` by columns; `Σ_lm S[ij][lm]·B_lm`
//! left to right; the closed-form depolarizing updates). A skipped product
//! has an exact-zero factor, so its value is ±0, and `x + ±0 = x` for every
//! `x ≠ 0`; Rust never contracts to FMA. Every intermediate of a fast path
//! therefore has the same real value as on the general path, and every
//! output that is not zero has the same bits. Only the sign of a zero
//! output can depend on the skipped terms, so a block that may hold a zero
//! before or after the fast path is computed on the general path instead
//! (an all-`+0` block maps to one precomputed image).

use crate::channels::{apply_superoperator, KrausChannel};
use crate::statevector::StateVector;
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{Complex, Mat2};
use eftq_pauli::{PauliString, PauliSum};

/// A density matrix over `n ≤ 13` qubits, stored row-major
/// (`rho[r * dim + c]`). Basis index bit `q` is qubit `q`.
///
/// Gates and channels act in place on 2×2 or 4×4 blocks (see the module
/// docs); CX/CZ/SWAP are permutations and sign flips inside the 4×4
/// blocks.
///
/// # Examples
///
/// ```
/// use eftq_circuit::Circuit;
/// use eftq_statesim::{DensityMatrix, KrausChannel};
/// use eftq_pauli::PauliSum;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let mut rho = DensityMatrix::from_circuit(&c);
/// rho.apply_channel(0, &KrausChannel::depolarizing(0.1));
/// let mut zz = PauliSum::new(2);
/// zz.push_str(1.0, "ZZ");
/// assert!(rho.expectation(&zz) < 1.0); // noise degrades the correlation
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    rho: Vec<Complex>,
}

/// A 2×2 block `[ρ_rc, ρ_rc₁, ρ_r₁c, ρ_r₁c₁]`.
type Block = [Complex; 4];

/// The real value of `x · (k + 0i)`: the product with the zero imaginary
/// part is ±0 and drops out of every sum.
#[inline(always)]
fn times_re(x: Complex, k: f64) -> Complex {
    Complex::new(x.re * k, x.im * k)
}

/// The real value of `x · (0 + ki)`.
#[inline(always)]
fn times_im(x: Complex, k: f64) -> Complex {
    Complex::new(-(x.im * k), x.re * k)
}

fn is_zero(z: Complex) -> bool {
    z.re == 0.0 && z.im == 0.0
}

/// Whether the block may hold a ±0 component. A zero component makes the
/// product of all eight components 0, or NaN when another factor
/// overflowed; an underflow to 0 only sends a block to the general path,
/// which is always exact.
#[inline(always)]
fn may_have_zero(b: &Block) -> bool {
    let pair = |z: Complex, w: Complex| Complex::new(z.re * w.re, z.im * w.im);
    let p = pair(pair(b[0], b[1]), pair(b[2], b[3]));
    let product = p.re * p.im;
    product == 0.0 || product.is_nan()
}

/// `i` with a zero bit inserted at the position of the single-bit `mask`.
#[inline(always)]
fn insert_zero_bit(i: usize, mask: usize) -> usize {
    ((i & !(mask - 1)) << 1) | (i & (mask - 1))
}

/// Runs `f` on every 2×2 block of the row pair `(row0, row1)` whose column
/// pair differs in the bit `m`.
#[inline(always)]
fn for_blocks(row0: &mut [Complex], row1: &mut [Complex], m: usize, f: impl Fn(Block) -> Block) {
    for (c0, c1) in row0
        .chunks_exact_mut(2 * m)
        .zip(row1.chunks_exact_mut(2 * m))
    {
        let (x00, x01) = c0.split_at_mut(m);
        let (x10, x11) = c1.split_at_mut(m);
        for (((e00, e01), e10), e11) in x00.iter_mut().zip(x01).zip(x10).zip(x11) {
            [*e00, *e01, *e10, *e11] = f([*e00, *e01, *e10, *e11]);
        }
    }
}

/// [`for_blocks`] with a fast path. A block that may hold a zero (common
/// in a sparse or real-valued ρ) goes to `general`, and so does a block
/// whose fast result may hold one: only a zero's sign can tell the two
/// paths apart (see the module docs). An all-`+0` block, the untouched
/// part of a sparse ρ, maps to `zero_image`, its general-path image.
#[inline(always)]
fn for_blocks_fast(
    row0: &mut [Complex],
    row1: &mut [Complex],
    m: usize,
    zero_image: Block,
    fast: impl Fn(Block) -> Block,
    general: impl Fn(Block) -> Block,
) {
    let all_positive_zero = |b: &Block| b.iter().all(|z| z.re.to_bits() | z.im.to_bits() == 0);
    for_blocks(row0, row1, m, |b| {
        if may_have_zero(&b) {
            return if all_positive_zero(&b) {
                zero_image
            } else {
                declined(&general, b)
            };
        }
        let out = fast(b);
        if may_have_zero(&out) {
            declined(&general, b)
        } else {
            out
        }
    });
}

/// The general path for a declined block, out of line so the fast loop
/// stays small.
#[cold]
#[inline(never)]
fn declined(general: &impl Fn(Block) -> Block, b: Block) -> Block {
    general(b)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnitaryShape {
    /// Both off-diagonal entries are exactly zero.
    Diagonal,
    /// Diagonal entries real, off-diagonal entries imaginary.
    RealDiagonalImaginaryOff,
    General,
}

/// A single-qubit unitary prepared for block application: `U`, `U†` and
/// its structure class.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockUnitary {
    u: Mat2,
    ud: Mat2,
    shape: UnitaryShape,
    /// The general-path image of the all-`+0` block.
    zero_image: Block,
}

impl BlockUnitary {
    pub(crate) fn new(u: &Mat2) -> Self {
        let m = &u.m;
        let shape = if is_zero(m[1]) && is_zero(m[2]) {
            UnitaryShape::Diagonal
        } else if m[0].im == 0.0 && m[3].im == 0.0 && m[1].re == 0.0 && m[2].re == 0.0 {
            UnitaryShape::RealDiagonalImaginaryOff
        } else {
            UnitaryShape::General
        };
        let mut unitary = BlockUnitary {
            u: *u,
            ud: u.adjoint(),
            shape,
            zero_image: [Complex::ZERO; 4],
        };
        unitary.zero_image = unitary.general([Complex::ZERO; 4]);
        unitary
    }

    fn apply_rows(&self, row0: &mut [Complex], row1: &mut [Complex], m: usize) {
        match self.shape {
            UnitaryShape::Diagonal => for_blocks_fast(
                row0,
                row1,
                m,
                self.zero_image,
                |b| self.diagonal(b),
                |b| self.general(b),
            ),
            UnitaryShape::RealDiagonalImaginaryOff => for_blocks_fast(
                row0,
                row1,
                m,
                self.zero_image,
                |b| self.real_diagonal(b),
                |b| self.general(b),
            ),
            UnitaryShape::General => for_blocks(row0, row1, m, |b| self.general(b)),
        }
    }

    /// `B → U B U†`: the row transform `T = U·B`, then `T·U†`.
    #[inline(always)]
    fn general(&self, b: Block) -> Block {
        let (u, ud) = (&self.u.m, &self.ud.m);
        let (t00, t10) = (u[0] * b[0] + u[1] * b[2], u[2] * b[0] + u[3] * b[2]);
        let (t01, t11) = (u[0] * b[1] + u[1] * b[3], u[2] * b[1] + u[3] * b[3]);
        [
            t00 * ud[0] + t01 * ud[2],
            t00 * ud[1] + t01 * ud[3],
            t10 * ud[0] + t11 * ud[2],
            t10 * ud[1] + t11 * ud[3],
        ]
    }

    /// The diagonal fast path: `U B U†` without the off-diagonal products.
    #[inline(always)]
    fn diagonal(&self, b: Block) -> Block {
        let (u, ud) = (&self.u.m, &self.ud.m);
        let t = [u[0] * b[0], u[0] * b[1], u[3] * b[2], u[3] * b[3]];
        [t[0] * ud[0], t[1] * ud[3], t[2] * ud[0], t[3] * ud[3]]
    }

    /// The real-diagonal/imaginary-off-diagonal fast path: `U B U†`
    /// without the products with the zero real and imaginary parts.
    #[inline(always)]
    fn real_diagonal(&self, b: Block) -> Block {
        let (u, ud) = (&self.u.m, &self.ud.m);
        let t = [
            times_re(b[0], u[0].re) + times_im(b[2], u[1].im),
            times_re(b[1], u[0].re) + times_im(b[3], u[1].im),
            times_im(b[0], u[2].im) + times_re(b[2], u[3].re),
            times_im(b[1], u[2].im) + times_re(b[3], u[3].re),
        ];
        [
            times_re(t[0], ud[0].re) + times_im(t[1], ud[2].im),
            times_im(t[0], ud[1].im) + times_re(t[1], ud[3].re),
            times_re(t[2], ud[0].re) + times_im(t[3], ud[2].im),
            times_im(t[2], ud[1].im) + times_re(t[3], ud[3].re),
        ]
    }
}

/// A single-qubit channel as its 4×4 superoperator, computed once, plus
/// whether it has the thermal-relaxation shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockChannel {
    s: [Complex; 16],
    relaxation: bool,
    /// The general-path image of the all-`+0` block.
    zero_image: Block,
}

impl BlockChannel {
    pub(crate) fn new(channel: &KrausChannel) -> Self {
        let s = channel.superoperator();
        // Nonzero only at out00←{b00, b11}, out01←b01, out10←b10,
        // out11←b11, and real everywhere.
        const RELAXATION_SUPPORT: [usize; 5] = [0, 3, 5, 10, 15];
        let relaxation = s
            .iter()
            .enumerate()
            .all(|(i, z)| z.im == 0.0 && (z.re == 0.0 || RELAXATION_SUPPORT.contains(&i)));
        let zero_image = apply_superoperator(&s, &Mat2::zero()).m;
        BlockChannel {
            s,
            relaxation,
            zero_image,
        }
    }

    fn apply_rows(&self, row0: &mut [Complex], row1: &mut [Complex], m: usize) {
        if self.relaxation {
            for_blocks_fast(
                row0,
                row1,
                m,
                self.zero_image,
                |b| self.relaxation(b),
                |b| self.general(b),
            );
        } else {
            for_blocks(row0, row1, m, |b| self.general(b));
        }
    }

    /// `out_ij = Σ_lm S[ij][lm]·B_lm`.
    #[inline(always)]
    fn general(&self, b: Block) -> Block {
        apply_superoperator(&self.s, &Mat2::new(b)).m
    }

    /// The thermal-relaxation fast path: five real scalings and one sum.
    #[inline(always)]
    fn relaxation(&self, b: Block) -> Block {
        let s = &self.s;
        [
            times_re(b[0], s[0].re) + times_re(b[3], s[3].re),
            times_re(b[1], s[5].re),
            times_re(b[2], s[10].re),
            times_re(b[3], s[15].re),
        ]
    }
}

/// One step of a single-qubit block pipeline.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockOp {
    /// `B → U B U†`.
    Unitary(BlockUnitary),
    /// Depolarizing in closed form:
    /// `B → keep·B + mix·tr(B)·I` with `keep = 1 − 4p/3`, `mix = 2p/3`.
    Depolarizing { keep: f64, mix: f64 },
    /// A Kraus channel via its superoperator.
    Channel(BlockChannel),
}

impl BlockOp {
    /// Single-qubit depolarizing of strength `p`.
    pub(crate) fn depolarizing(p: f64) -> Self {
        BlockOp::Depolarizing {
            keep: 1.0 - 4.0 * p / 3.0,
            mix: 2.0 * p / 3.0,
        }
    }

    /// Applies the step to every block of a row pair.
    fn apply_rows(&self, row0: &mut [Complex], row1: &mut [Complex], m: usize) {
        match *self {
            BlockOp::Unitary(ref u) => u.apply_rows(row0, row1, m),
            BlockOp::Depolarizing { keep, mix } => for_blocks(row0, row1, m, |b| {
                let t = (b[0] + b[3]) * mix;
                [b[0] * keep + t, b[1] * keep, b[2] * keep, b[3] * keep + t]
            }),
            BlockOp::Channel(ref ch) => ch.apply_rows(row0, row1, m),
        }
    }
}

/// A two-qubit Clifford that permutes (and, for CZ, negates) the entries
/// of each 4×4 block. For `Cx`, qubit `a` is the control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PairGate {
    Cx,
    Cz,
    Swap,
}

/// One step of a two-qubit block pipeline on the pair `(a, b)`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PairOp<'a> {
    /// A CX/CZ/SWAP on `(a, b)`.
    Gate(PairGate),
    /// Two-qubit depolarizing in closed form:
    /// `ρ → keep·ρ + mix·(I/4 ⊗ Tr_ab ρ)` with `mix = 16p/15`.
    Depolarizing { keep: f64, mix: f64 },
    /// A single-qubit channel on `a` (`false`) or `b` (`true`).
    Channel(bool, &'a BlockChannel),
}

impl PairOp<'_> {
    /// Two-qubit depolarizing of strength `p`.
    pub(crate) fn depolarizing(p: f64) -> Self {
        let mix = 16.0 * p / 15.0;
        PairOp::Depolarizing {
            keep: 1.0 - mix,
            mix,
        }
    }

    /// Applies the step to every 4×4 block of the row group `rows`
    /// (indexed by the local index `k = bit_a | bit_b << 1`); `off[l]` is
    /// the column offset of local index `l`, and `bases` the column bases.
    fn apply_rows(&self, rows: &mut [&mut [Complex]; 4], off: [usize; 4], bases: &[usize]) {
        match *self {
            PairOp::Gate(gate) => {
                // new[k][l] = old[p(k)][p(l)]: swap two rows, then the same
                // two columns of every block in each row. CZ negates the
                // entries with exactly one of (k, l) equal to 3.
                let (x, y) = match gate {
                    PairGate::Cx => (1, 3),
                    PairGate::Swap => (1, 2),
                    PairGate::Cz => {
                        for &c in bases {
                            for (k, row) in rows.iter_mut().enumerate() {
                                if k == 3 {
                                    for &o in &off[..3] {
                                        row[c + o] = -row[c + o];
                                    }
                                } else {
                                    row[c + off[3]] = -row[c + off[3]];
                                }
                            }
                        }
                        return;
                    }
                };
                let (lo, hi) = rows.split_at_mut(y);
                lo[x].swap_with_slice(hi[0]);
                for row in rows.iter_mut() {
                    for &c in bases {
                        row.swap(c + off[x], c + off[y]);
                    }
                }
            }
            PairOp::Depolarizing { keep, mix } => {
                for &c in bases {
                    // The partial-trace element: the mean of the four
                    // pair-diagonal entries, summed in local-index order.
                    let mut avg = Complex::ZERO;
                    for (row, o) in rows.iter().zip(off) {
                        avg += row[c + o];
                    }
                    avg *= 0.25;
                    for (k, row) in rows.iter_mut().enumerate() {
                        for (l, o) in off.iter().enumerate() {
                            let e = &mut row[c + o];
                            *e *= keep;
                            if k == l {
                                *e += avg * mix;
                            }
                        }
                    }
                }
            }
            PairOp::Channel(on_b, ch) => {
                // The 2×2 blocks of one qubit of the pair, row pair by row
                // pair: every column of the rows belongs to one of them.
                let [r0, r1, r2, r3] = rows;
                let m = if on_b { off[2] } else { off[1] };
                let (first, second) = if on_b {
                    ((r0, r2), (r1, r3))
                } else {
                    ((r0, r1), (r2, r3))
                };
                ch.apply_rows(first.0, first.1, m);
                ch.apply_rows(second.0, second.1, m);
            }
        }
    }
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 13` (memory: a 13-qubit density matrix is
    /// already a gigabyte).
    pub fn zero_state(n: usize) -> Self {
        assert!(
            (1..=13).contains(&n),
            "density matrix supports 1..=13 qubits, got {n}"
        );
        let dim = 1usize << n;
        let mut rho = vec![Complex::ZERO; dim * dim];
        rho[0] = Complex::ONE;
        DensityMatrix { n, dim, rho }
    }

    /// The pure-state density matrix `|ψ⟩⟨ψ|`.
    pub fn from_state_vector(psi: &StateVector) -> Self {
        let n = psi.num_qubits();
        assert!(n <= 13, "density matrix supports at most 13 qubits");
        let dim = 1usize << n;
        let amps = psi.amplitudes();
        let mut rho = vec![Complex::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                rho[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        DensityMatrix { n, dim, rho }
    }

    /// Runs a fully bound circuit noiselessly from `|0…0⟩`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut rho = DensityMatrix::zero_state(circuit.num_qubits());
        rho.run(circuit);
        rho
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The matrix entry `⟨r|ρ|c⟩`.
    pub fn entry(&self, r: usize, c: usize) -> Complex {
        self.rho[r * self.dim + c]
    }

    /// Trace (should be 1).
    pub fn trace(&self) -> Complex {
        (0..self.dim).map(|i| self.rho[i * self.dim + i]).sum()
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2ⁿ` for the maximally mixed
    /// state.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_{r,c} ρ_{rc} ρ_{cr} = Σ |ρ_{rc}|² for Hermitian ρ.
        self.rho.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Probability of measuring basis state `b`.
    pub fn probability(&self, b: usize) -> f64 {
        self.rho[b * self.dim + b].re
    }

    /// The diagonal as a probability vector.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim).map(|b| self.probability(b)).collect()
    }

    /// Applies `ops`, in order, to every 2×2 block of qubit `q`, in one
    /// walk over ρ: each row pair `(r, r | 2^q)` is loaded once and every
    /// op runs over its blocks before the walk moves on.
    pub(crate) fn apply_block_ops(&mut self, q: usize, ops: &[BlockOp]) {
        assert!(q < self.n, "qubit {q} out of range");
        if ops.is_empty() {
            return;
        }
        let (dim, m) = (self.dim, 1usize << q);
        for i in 0..dim / 2 {
            let r = insert_zero_bit(i, m);
            let (top, bottom) = self.rho.split_at_mut((r + m) * dim);
            let row0 = &mut top[r * dim..(r + 1) * dim];
            let row1 = &mut bottom[..dim];
            for op in ops {
                op.apply_rows(row0, row1, m);
            }
        }
    }

    /// Applies `ops`, in order, to every 4×4 block of the pair `(a, b)`, in
    /// one walk over ρ: each group of four rows is loaded once and every op
    /// runs over its blocks before the walk moves on.
    pub(crate) fn apply_pair_ops(&mut self, a: usize, b: usize, ops: &[PairOp]) {
        assert!(
            a < self.n && b < self.n && a != b,
            "bad qubit pair ({a}, {b})"
        );
        let dim = self.dim;
        let (ma, mb) = (1usize << a, 1usize << b);
        let (lo, hi) = (ma.min(mb), ma.max(mb));
        let base = |i: usize| insert_zero_bit(insert_zero_bit(i, lo), hi);
        let off = [0, ma, mb, ma | mb];
        let bases: Vec<usize> = (0..dim / 4).map(base).collect();
        for &r in &bases {
            // The four rows in increasing order, then in local order.
            let (head, rest) = self.rho.split_at_mut((r + lo) * dim);
            let (mid, rest) = rest.split_at_mut((hi - lo) * dim);
            let (upper, top) = rest.split_at_mut(lo * dim);
            let sorted = [
                &mut head[r * dim..][..dim],
                &mut mid[..dim],
                &mut upper[..dim],
                &mut top[..dim],
            ];
            let [s0, s1, s2, s3] = sorted;
            let mut rows = if ma == lo {
                [s0, s1, s2, s3]
            } else {
                [s0, s2, s1, s3]
            };
            for op in ops {
                op.apply_rows(&mut rows, off, &bases);
            }
        }
    }

    /// Applies a single-qubit unitary `ρ → UρU†` on qubit `q`, in place.
    pub fn apply_mat2(&mut self, q: usize, u: &Mat2) {
        self.apply_block_ops(q, &[BlockOp::Unitary(BlockUnitary::new(u))]);
    }

    /// Applies a CNOT (a basis permutation, self-inverse).
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        self.apply_pair_ops(control, target, &[PairOp::Gate(PairGate::Cx)]);
    }

    /// Applies a SWAP.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        self.apply_pair_ops(a, b, &[PairOp::Gate(PairGate::Swap)]);
    }

    /// Applies a CZ (diagonal ±1).
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        self.apply_pair_ops(a, b, &[PairOp::Gate(PairGate::Cz)]);
    }

    /// Applies a single-qubit Kraus channel on qubit `q`, in place, via 2×2
    /// block transforms over the (row-bit, column-bit) planes.
    ///
    /// The channel is folded into its 4×4 superoperator once per call, and
    /// every block pays at most 16 complex multiplies (thermal relaxation,
    /// amplitude and phase damping pay ten real ones).
    pub fn apply_channel(&mut self, q: usize, channel: &KrausChannel) {
        self.apply_block_ops(q, &[BlockOp::Channel(BlockChannel::new(channel))]);
    }

    /// Single-qubit depolarizing channel of strength `p` on `q`, in
    /// closed form: per 2×2 block,
    /// `B → (1 − 4p/3)·B + (2p/3)·tr(B)·I` (from the Pauli-twirl identity
    /// `XBX + YBY + ZBZ = 2·tr(B)·I − B`), skipping the generic Kraus
    /// loop entirely. Matches
    /// `apply_channel(q, &KrausChannel::depolarizing(p))` to rounding.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p ≤ 1` and `q` is in range.
    pub fn apply_depolarizing_1q(&mut self, q: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        assert!(q < self.n, "qubit {q} out of range");
        if p > 0.0 {
            self.apply_block_ops(q, &[BlockOp::depolarizing(p)]);
        }
    }

    /// Applies a probabilistic Pauli mixture `ρ → Σ_i p_i P_i ρ P_i†`
    /// (e.g. two-qubit depolarizing noise). Probabilities must sum to ≤ 1;
    /// the remainder is the identity component. Builds one scratch copy of
    /// the matrix.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are negative or sum above `1 + 1e-9`.
    pub fn apply_pauli_mixture(&mut self, terms: &[(f64, PauliString)]) {
        let total: f64 = terms.iter().map(|(p, _)| *p).sum();
        assert!(
            terms.iter().all(|(p, _)| *p >= 0.0) && total <= 1.0 + 1e-9,
            "invalid mixture probabilities (sum {total})"
        );
        let id_weight = (1.0 - total).max(0.0);
        let mut out: Vec<Complex> = self.rho.iter().map(|z| *z * id_weight).collect();
        for (p, pauli) in terms {
            assert_eq!(pauli.num_qubits(), self.n, "pauli size mismatch");
            // P ρ P†: ρ'_{rc} = φ(r) conj(φ(c)) ρ_{σ(r) σ(c)} where
            // P|b⟩ = φ(b)|b ⊕ x⟩ (σ = ⊕x is an involution).
            let xm = pauli.x_mask_u64() as usize;
            let zm = pauli.z_mask_u64() as usize;
            let base =
                Complex::i_pow((pauli.phase_exponent() as usize + pauli.y_count()) as u8 % 4);
            let phase = |b: usize| {
                let s = if ((b & zm).count_ones() & 1) == 1 {
                    -1.0
                } else {
                    1.0
                };
                base * s
            };
            for r in 0..self.dim {
                let fr = phase(r ^ xm);
                for c in 0..self.dim {
                    let fc = phase(c ^ xm).conj();
                    out[r * self.dim + c] +=
                        fr * fc * self.rho[(r ^ xm) * self.dim + (c ^ xm)] * *p;
                }
            }
        }
        self.rho = out;
    }

    /// Two-qubit depolarizing channel of strength `p` on `(a, b)`: each of
    /// the 15 non-identity two-qubit Paulis occurs with probability `p/15`.
    ///
    /// Implemented via the exact identity
    /// `(1/16)Σ_P PρP = I/4 ⊗ Tr_ab ρ`, which gives
    /// `ρ → (1 − 16p/15)ρ + (16p/15)(I/4 ⊗ Tr_ab ρ)` in a single pass —
    /// ~15× faster than conjugating each Pauli separately (this channel is
    /// the inner loop of every noisy CNOT).
    pub fn apply_depolarizing_2q(&mut self, a: usize, b: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        assert!(
            a < self.n && b < self.n && a != b,
            "bad qubit pair ({a}, {b})"
        );
        if p > 0.0 {
            self.apply_pair_ops(a, b, &[PairOp::depolarizing(p)]);
        }
    }

    /// Applies one bound gate (measurements are no-ops; use the diagonal
    /// for outcome statistics).
    ///
    /// # Panics
    ///
    /// Panics on symbolic parameters.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::Cx(c, t) => self.apply_cx(c, t),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Measure(_) => {}
            ref g => self.apply_mat2(g.qubits_inline().0[0], &bound_matrix(g)),
        }
    }

    /// Runs every gate of a bound circuit, noiselessly.
    pub fn run(&mut self, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), self.n, "circuit size mismatch");
        for g in circuit.gates() {
            self.apply_gate(g);
        }
    }

    /// Expectation `Tr(P ρ)` of a Pauli string (real part).
    pub fn expectation_pauli(&self, p: &PauliString) -> f64 {
        assert_eq!(p.num_qubits(), self.n, "pauli size mismatch");
        let xm = p.x_mask_u64() as usize;
        let zm = p.z_mask_u64() as usize;
        let base = Complex::i_pow((p.phase_exponent() as usize + p.y_count()) as u8 % 4);
        let mut acc = Complex::ZERO;
        // Tr(Pρ) = Σ_b φ(b ⊕ x) ρ_{b⊕x, b} with φ the diagonal phase of P.
        for b in 0..self.dim {
            let bx = b ^ xm;
            let s = if ((bx & zm).count_ones() & 1) == 1 {
                -1.0
            } else {
                1.0
            };
            acc += self.rho[bx * self.dim + b] * s;
        }
        (acc * base).re
    }

    /// Expectation `Tr(H ρ)` of an observable.
    pub fn expectation(&self, observable: &PauliSum) -> f64 {
        observable
            .terms()
            .iter()
            .map(|t| t.coefficient * self.expectation_pauli(&t.string))
            .sum()
    }

    /// Fidelity against a pure state: `⟨ψ|ρ|ψ⟩`.
    pub fn fidelity_with_pure(&self, psi: &StateVector) -> f64 {
        assert_eq!(psi.num_qubits(), self.n, "qubit count mismatch");
        let amps = psi.amplitudes();
        let mut acc = Complex::ZERO;
        for r in 0..self.dim {
            for c in 0..self.dim {
                acc += amps[r].conj() * self.rho[r * self.dim + c] * amps[c];
            }
        }
        acc.re
    }
}

/// The matrix of a bound single-qubit gate.
///
/// # Panics
///
/// Panics on symbolic parameters.
pub(crate) fn bound_matrix(g: &Gate) -> Mat2 {
    g.matrix_1q()
        .unwrap_or_else(|| panic!("cannot simulate symbolic gate {g}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_circuit::ansatz;

    #[test]
    fn zero_state_is_pure() {
        let rho = DensityMatrix::zero_state(3);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert_eq!(rho.probability(0), 1.0);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let a = ansatz::fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..a.num_params()).map(|i| 0.21 * i as f64).collect();
        let c = a.bind(&params);
        let psi = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        let mut h = PauliSum::new(4);
        h.push_str(0.7, "XXII");
        h.push_str(-0.3, "ZZZZ");
        h.push_str(0.5, "IYYI");
        assert!((rho.expectation(&h) - psi.expectation(&h)).abs() < 1e-9);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-9);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_state_vector_roundtrip() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let psi = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_state_vector(&psi);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-12);
        assert!((rho.entry(0, 3).re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_drives_to_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_channel(0, &KrausChannel::depolarizing(1.0));
        // p = 1 depolarizing leaves (1/3)(XρX + YρY + ZρZ); for |0⟩⟨0| this
        // is diag(1/3, 2/3).
        assert!((rho.probability(0) - 1.0 / 3.0).abs() < 1e-12);
        // Repeated application converges to I/2.
        for _ in 0..20 {
            rho.apply_channel(0, &KrausChannel::depolarizing(0.5));
        }
        assert!((rho.probability(0) - 0.5).abs() < 1e-6);
        assert!((rho.purity() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn channel_preserves_trace_and_hermiticity() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(2, 0.7);
        let mut rho = DensityMatrix::from_circuit(&c);
        rho.apply_channel(1, &KrausChannel::thermal_relaxation(30.0, 100.0, 80.0));
        rho.apply_depolarizing_2q(0, 2, 0.05);
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        for r in 0..8 {
            for cidx in 0..8 {
                let a = rho.entry(r, cidx);
                let b = rho.entry(cidx, r).conj();
                assert!(a.approx_eq(b, 1e-10), "hermiticity at ({r},{cidx})");
            }
        }
    }

    #[test]
    fn bell_state_zz_decays_under_noise() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rho = DensityMatrix::from_circuit(&c);
        let mut zz = PauliSum::new(2);
        zz.push_str(1.0, "ZZ");
        let before = rho.expectation(&zz);
        rho.apply_channel(0, &KrausChannel::depolarizing(0.1));
        let after = rho.expectation(&zz);
        assert!(before > after, "{before} vs {after}");
        // ZZ under single-qubit depol on one qubit: scales by 1 - 4p/3.
        assert!((after - before * (1.0 - 0.4 / 3.0)).abs() < 1e-10);
    }

    #[test]
    fn two_qubit_depolarizing_scales_correlations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rho = DensityMatrix::from_circuit(&c);
        let mut zz = PauliSum::new(2);
        zz.push_str(1.0, "ZZ");
        rho.apply_depolarizing_2q(0, 1, 0.15);
        // 2q depol: ⟨P⟩ scales by 1 − 16p/15 for weight-2 P.
        assert!((rho.expectation(&zz) - (1.0 - 16.0 * 0.15 / 15.0)).abs() < 1e-10);
    }

    #[test]
    fn pauli_mixture_phase_flip_kills_coherence() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_mat2(0, &Mat2::hadamard());
        let z = PauliString::single(1, 0, eftq_pauli::Pauli::Z);
        rho.apply_pauli_mixture(&[(0.5, z)]);
        // 50% phase flip: off-diagonals vanish.
        assert!(rho.entry(0, 1).abs() < 1e-12);
        assert!((rho.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cx_cz_swap_match_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 2).cz(1, 2).swap(0, 1).rz(2, 0.4).cx(2, 1);
        let psi = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        assert!((rho.fidelity_with_pure(&psi) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measurement_gate_is_noop() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0);
        let rho = DensityMatrix::from_circuit(&c);
        assert!((rho.probability(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn closed_form_depolarizing_matches_kraus_channel() {
        let a = ansatz::fully_connected_hea(4, 1);
        let params: Vec<f64> = (0..a.num_params()).map(|i| 0.31 * i as f64).collect();
        let c = a.bind(&params);
        for q in 0..4 {
            for p in [0.0, 0.05, 0.4, 1.0] {
                let mut fast = DensityMatrix::from_circuit(&c);
                let mut generic = fast.clone();
                fast.apply_depolarizing_1q(q, p);
                generic.apply_channel(q, &KrausChannel::depolarizing(p));
                for r in 0..16 {
                    for cc in 0..16 {
                        assert!(
                            fast.entry(r, cc).approx_eq(generic.entry(r, cc), 1e-12),
                            "q={q} p={p} at ({r},{cc})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn structure_classes_are_detected_from_exact_zeros() {
        let shape = |u: Mat2| BlockUnitary::new(&u).shape;
        for u in [
            Mat2::rz(0.3),
            Mat2::s_gate(),
            Mat2::t_gate(),
            Mat2::pauli_z(),
        ] {
            assert_eq!(shape(u), UnitaryShape::Diagonal);
        }
        for u in [Mat2::rx(0.3), Mat2::rx(-2.0), Mat2::pauli_y()] {
            assert_eq!(shape(u), UnitaryShape::RealDiagonalImaginaryOff);
        }
        for u in [Mat2::ry(0.3), Mat2::hadamard(), Mat2::pauli_x()] {
            assert_eq!(shape(u), UnitaryShape::General);
        }
        let relaxation = |ch: KrausChannel| BlockChannel::new(&ch).relaxation;
        assert!(relaxation(KrausChannel::thermal_relaxation(
            35.0, 100.0, 80.0
        )));
        assert!(relaxation(KrausChannel::amplitude_damping(0.2)));
        assert!(relaxation(KrausChannel::phase_damping(0.2)));
        assert!(!relaxation(KrausChannel::bit_flip(0.2)));
        assert!(!relaxation(KrausChannel::depolarizing(0.2)));
    }

    #[test]
    fn fast_paths_match_the_general_paths_bit_for_bit_on_hostile_blocks() {
        // Signed zeros, exact cancellations and underflowing products: the
        // inputs on which a skipped ±0 product could show.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let component = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-300 * rng.gen_range(-1.0..1.0),
            3 => 0.5,
            4 => -0.5,
            _ => rng.gen_range(-1.0..1.0),
        };
        let unitaries = [
            Mat2::rz(0.7),
            Mat2::rz(-2.9),
            Mat2::s_gate(),
            Mat2::t_gate().adjoint(),
            Mat2::rx(0.7),
            Mat2::rx(-2.9),
            Mat2::rx(std::f64::consts::PI),
            Mat2::pauli_y(),
        ];
        let channels = [
            KrausChannel::thermal_relaxation(35.0, 100.0, 80.0),
            KrausChannel::thermal_relaxation(0.0, 100.0, 80.0),
            KrausChannel::amplitude_damping(0.5),
            KrausChannel::phase_damping(1.0),
        ];
        for _ in 0..20_000 {
            let block: Block =
                std::array::from_fn(|_| Complex::new(component(&mut rng), component(&mut rng)));
            let mut rho = DensityMatrix::zero_state(1);
            rho.rho.copy_from_slice(&block);
            let bits = |b: &[Complex]| {
                b.iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            for u in &unitaries {
                let mut fast = rho.clone();
                fast.apply_mat2(0, u);
                let want = BlockUnitary::new(u).general(block);
                assert_eq!(bits(&fast.rho), bits(&want), "{u:?} on {block:?}");
            }
            for ch in &channels {
                let mut fast = rho.clone();
                fast.apply_channel(0, ch);
                let want = BlockChannel::new(ch).general(block);
                assert_eq!(bits(&fast.rho), bits(&want), "{ch:?} on {block:?}");
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(1, 1.1).cx(1, 2);
        let mut rho = DensityMatrix::from_circuit(&c);
        rho.apply_channel(2, &KrausChannel::amplitude_damping(0.3));
        let total: f64 = rho.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }
}
