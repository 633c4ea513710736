//! Compiled noise programs: the batched sampling engine behind
//! [`crate::estimate_energy`].
//!
//! A noisy run has two very different cost centres: *propagating* errors
//! through gates and *sampling* which shots an error hits (previously one
//! `rng.gen_bool(p)` per (gate, shot) pair — the dominant cost at NISQ
//! rates). [`NoiseProgram`] removes the per-shot draws by compiling a
//! [`Circuit`] + [`StabilizerNoise`] once into a flat instruction tape —
//! gates interleaved with *injection sites* `(qubits, kind, probability)`
//! — and then sampling sites with [`BernoulliWords`]:
//!
//! * sites are grouped into **probability classes**; each class owns one
//!   sampler whose geometric-skip cursor runs through the flat
//!   `(site × shot)` bit-grid, so a sparse class costs one logarithm per
//!   **hit** rather than one RNG draw per trial;
//! * a site's hits arrive as whole lane-mask words, with error letters
//!   drawn word-parallel (the draws of
//!   [`PauliFrames::inject_depolarizing_masked`]);
//! * consecutive same-class sites are fused at compile time into **site
//!   runs** sampled by [`BernoulliWords::hit_site_runs`]: within a
//!   layer, gates are emitted before injection sites (legal because a
//!   layer's gates act on disjoint qubits, so gates and other gates'
//!   sites commute; site order — and therefore the RNG stream — is
//!   unchanged), which makes a layer's two-qubit sites and its idle sites
//!   contiguous. A run the geometric cursor skips entirely costs one
//!   division instead of one cursor update per site.
//!
//! The tape is **sign-exact**: S and S† stay distinct, Paulis stay as
//! sign-only ops and rotations keep their quarter turns `k mod 4`, so the
//! tape stands in for the circuit. Each batch runs one *sampling pass*
//! that records every hit as (tape position, qubit, shot word, letter
//! words). Two consumers read the records:
//!
//! * [`crate::HeisenbergRows::noisy_walk`] (every energy estimator) folds
//!   them into per-shot flip rows during one reverse walk of the tape,
//!   which also yields the noiseless expectations;
//! * [`NoiseProgram::run_threaded`] / [`NoiseProgram::run_randomized`]
//!   XOR them into Pauli frames during one forward walk, for callers
//!   that need the frames themselves (the grouped sampling estimator,
//!   [`crate::run_noisy_frames`]).
//!
//! # Batching and seeding
//!
//! Shots are sharded into fixed 256-shot batches ([`BATCH_SHOTS`]). Batch
//! `b` seeds its RNG as `seed.derive_index(b)`, so every batch's content
//! is a pure function of the root seed and its index — results are
//! bit-identical whether batches run sequentially or on any number of
//! crossbeam workers, and independent of how the scheduler interleaves
//! them. The batch size is a compromise: small enough that modest shot
//! budgets split across workers, large enough that the per-batch
//! sampler setup amortizes.

use crate::frame::{uniform_nonzero_pair, uniform_nonzero_quad, PauliFrames};
use crate::noise::{IdleLadder, StabilizerNoise};
use crate::tableau::{quarter_turns, RotAxis};
use crossbeam::thread;
use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{BernoulliWords, SeedSequence};
use rand::Rng;
use std::sync::Arc;

/// Shots per batch: the unit of seed derivation and thread scheduling
/// (four 64-shot lane words).
pub const BATCH_SHOTS: usize = 256;

const WORD_BITS: usize = 64;
const BATCH_WORDS: usize = BATCH_SHOTS / WORD_BITS;

/// One instruction of a bound program: a sign-exact Clifford gate or a
/// run of injection sites.
///
/// The tape is *sign-exact*, so it can stand in for the circuit it was
/// compiled from: S and S† stay distinct, the Paulis stay as sign-only
/// ops, and a rotation keeps its quarter turns `k mod 4`. The forward
/// frame walk ignores signs (S and S† share a kernel, Paulis and even
/// rotations are no-ops); the reverse Heisenberg walk
/// ([`crate::HeisenbergRows::noisy_walk`]) conjugates by each gate's
/// inverse with the [`crate::Tableau`] methods. Injection sites are
/// fused into runs of `len` consecutive same-kind, same-class sites; a
/// run's per-site qubit arguments live in the side table
/// `site_args[start .. start + len]`.
///
/// Fields are `u32` (qubit counts and site counts both fit comfortably)
/// so an op is 16 bytes and the per-batch walk stays cache-resident.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Op {
    /// Hadamard.
    H { q: u32 },
    /// Phase gate S.
    S { q: u32 },
    /// Inverse phase gate S†.
    Sdg { q: u32 },
    /// Pauli X (signs only).
    X { q: u32 },
    /// Pauli Y (signs only).
    Y { q: u32 },
    /// Pauli Z (signs only).
    Z { q: u32 },
    /// Rotation about `axis` by `k` quarter turns, `k ∈ 0..4`.
    Rot { q: u32, axis: RotAxis, k: u8 },
    /// CX with control `c` and target `t`.
    Cx { c: u32, t: u32 },
    /// CZ.
    Cz { a: u32, b: u32 },
    /// SWAP.
    Swap { a: u32, b: u32 },
    /// Run of single-qubit depolarizing sites (uniform X/Y/Z letter per
    /// hit).
    Depol1Run { class: u32, start: u32, len: u32 },
    /// Run of two-qubit depolarizing sites (uniform non-identity pair
    /// per hit).
    Depol2Run { class: u32, start: u32, len: u32 },
    /// Run of twirled-idle sites (ladder-conditional letter per hit).
    IdleRun { class: u32, start: u32, len: u32 },
}

/// Site flavour, used only while fusing a layer's sites into runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SiteKind {
    Depol1,
    Depol2,
    Idle,
}

/// One template instruction: either an already-resolved [`Op`], or a
/// symbolic rotation whose quarter turns come from the genome bound
/// later.
///
/// `Param` stays in the instruction stream after binding — the bound
/// program carries the genome's quarter turns and the walks look one up
/// per rotation. That keeps [`NoiseTemplate::bind_clifford`]
/// allocation-free on the op list (an `Arc` bump instead of a resolved
/// copy), which matters in genome loops that bind thousands of programs
/// per second.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TemplateOp {
    Fixed(Op),
    Param { q: u32, param: u32, axis: RotAxis },
}

/// One sampled error on one qubit, recorded by a batch's sampling pass:
/// the shots of lane word `word` whose bits are set in `x | z` receive
/// the letter `(x, z)` on qubit `q` at the site run at tape position
/// `pos`. A two-qubit hit is two records at the same `pos`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Hit {
    pub(crate) pos: u32,
    pub(crate) q: u32,
    /// Lane word within the batch.
    pub(crate) word: u32,
    pub(crate) x: u64,
    pub(crate) z: u64,
}

/// Classifies one gate into its tape instruction (`None` for
/// measurements and zero-turn rotations, which act as the identity;
/// `Param` for symbolic rotations, resolved at
/// [`NoiseTemplate::bind_clifford`] time).
///
/// # Panics
///
/// Panics on non-Clifford rotations and on T/T† gates.
fn compile_gate(g: &Gate) -> Option<TemplateOp> {
    use eftq_circuit::Angle;
    let fixed = |op| Some(TemplateOp::Fixed(op));
    let rot = |q: usize, axis, v: f64| match quarter_turns(v, g) {
        0 => None,
        k => fixed(Op::Rot {
            q: q as u32,
            axis,
            k,
        }),
    };
    let param = |q: usize, param: usize, axis| {
        Some(TemplateOp::Param {
            q: q as u32,
            param: param as u32,
            axis,
        })
    };
    match *g {
        Gate::H(q) => fixed(Op::H { q: q as u32 }),
        Gate::S(q) => fixed(Op::S { q: q as u32 }),
        Gate::Sdg(q) => fixed(Op::Sdg { q: q as u32 }),
        Gate::X(q) => fixed(Op::X { q: q as u32 }),
        Gate::Y(q) => fixed(Op::Y { q: q as u32 }),
        Gate::Z(q) => fixed(Op::Z { q: q as u32 }),
        Gate::Measure(_) => None,
        Gate::Cx(c, t) => fixed(Op::Cx {
            c: c as u32,
            t: t as u32,
        }),
        Gate::Cz(a, b) => fixed(Op::Cz {
            a: a as u32,
            b: b as u32,
        }),
        Gate::Swap(a, b) => fixed(Op::Swap {
            a: a as u32,
            b: b as u32,
        }),
        Gate::Rz(q, Angle::Value(v)) => rot(q, RotAxis::Z, v),
        Gate::Rx(q, Angle::Value(v)) => rot(q, RotAxis::X, v),
        Gate::Ry(q, Angle::Value(v)) => rot(q, RotAxis::Y, v),
        Gate::Rz(q, Angle::Param(i)) => param(q, i, RotAxis::Z),
        Gate::Rx(q, Angle::Param(i)) => param(q, i, RotAxis::X),
        Gate::Ry(q, Angle::Param(i)) => param(q, i, RotAxis::Y),
        ref g => panic!("noise programs cannot compile gate {g}"),
    }
}

/// A circuit + noise model compiled to a flat, allocation-free execution
/// plan: ordered gate kernels and injection sites, with site
/// probabilities deduplicated into sampler classes. Compile once, run for
/// any shot count, seed, or thread count.
///
/// # Examples
///
/// ```
/// use eftq_circuit::Circuit;
/// use eftq_numerics::SeedSequence;
/// use eftq_stabilizer::{NoiseProgram, StabilizerNoise};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let mut noise = StabilizerNoise::noiseless();
/// noise.depol_2q = 0.01;
/// let program = NoiseProgram::compile(&c, &noise);
/// assert_eq!(program.num_sites(), 1); // only the CX injects
/// let frames = program.run(1000, SeedSequence::new(7));
/// assert_eq!(frames.num_shots(), 1000);
/// ```
#[derive(Clone, Debug)]
pub struct NoiseProgram {
    n: usize,
    /// Shared with the template that bound this program: binding is an
    /// `Arc` bump, not an op-list copy.
    ops: Arc<Vec<TemplateOp>>,
    /// Per-site qubit arguments for site-run ops (shared likewise).
    site_args: Arc<Vec<[u32; 2]>>,
    /// Genome entry `p` mod 4: the quarter turns of every symbolic
    /// rotation with parameter `p`.
    ks: Vec<u8>,
    /// Distinct site probabilities; site-run ops index this table.
    classes: Arc<Vec<f64>>,
    /// Precomputed cumulative idle ladder (satisfies every idle site).
    idle: IdleLadder,
    sites: usize,
}

/// A noise program compiled from a *symbolic* ansatz circuit: every
/// structural decision (layering, injection sites, probability classes)
/// is resolved once, and only the rotations — whose quarter turns come
/// from the genome — remain symbolic.
///
/// This is the compilation hoist for genome loops: a genetic search
/// evaluates thousands of genomes that all share the ansatz *structure*,
/// so [`NoiseTemplate::compile`] runs once per (structure, noise) and
/// [`NoiseTemplate::bind_clifford`] copies the genome's quarter turns per
/// genome instead of recompiling. The bound program is
/// **identical** to [`NoiseProgram::compile`] on the bound circuit (the
/// per-genome path is, in fact, how `NoiseProgram::compile` is
/// implemented), so sampling streams cannot diverge between the two
/// paths.
///
/// # Examples
///
/// ```
/// use eftq_circuit::ansatz::linear_hea;
/// use eftq_stabilizer::{NoiseProgram, NoiseTemplate, StabilizerNoise};
///
/// let ansatz = linear_hea(4, 1);
/// let mut noise = StabilizerNoise::noiseless();
/// noise.depol_2q = 0.01;
/// let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
/// let genome = vec![1u8; ansatz.num_params()];
/// let fast = template.bind_clifford(&genome);
/// let slow = NoiseProgram::compile(&ansatz.bind_clifford(&genome), &noise);
/// assert_eq!(fast.num_sites(), slow.num_sites());
/// ```
#[derive(Clone, Debug)]
pub struct NoiseTemplate {
    n: usize,
    ops: Arc<Vec<TemplateOp>>,
    /// Per-site qubit arguments for site-run ops.
    site_args: Arc<Vec<[u32; 2]>>,
    /// Distinct site probabilities; site-run ops index this table.
    classes: Arc<Vec<f64>>,
    /// Precomputed cumulative idle ladder (satisfies every idle site).
    idle: IdleLadder,
    sites: usize,
    meas_flip: f64,
    num_params: usize,
}

impl NoiseTemplate {
    /// Compiles a (possibly symbolic) Clifford circuit and noise model
    /// into the flat site program. Zero-probability sites are elided at
    /// compile time; measurement gates are skipped and leave their qubit
    /// idle, matching the per-shot executor
    /// [`crate::noise::run_noisy_shot`].
    ///
    /// Within each layer, all gate kernels are emitted before all
    /// injection sites. A layer's gates act on disjoint qubits, so this
    /// reorder leaves the propagated frames bit-identical; and because it
    /// preserves the *relative* order of sites, the sampling RNG stream
    /// is unchanged too. Its purpose is fusion: a layer's same-class
    /// sites become contiguous and compile into single site-run ops.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford bound rotations.
    pub fn compile(circuit: &Circuit, noise: &StabilizerNoise) -> Self {
        let n = circuit.num_qubits();
        let mut ops: Vec<TemplateOp> = Vec::new();
        let mut site_args: Vec<[u32; 2]> = Vec::new();
        let mut classes: Vec<f64> = Vec::new();
        let mut sites = 0usize;
        let class_of = |p: f64, classes: &mut Vec<f64>| -> Option<u32> {
            if p <= 0.0 {
                return None;
            }
            let idx = classes.iter().position(|&c| c == p).unwrap_or_else(|| {
                classes.push(p);
                classes.len() - 1
            });
            Some(idx as u32)
        };
        let idle = noise.idle.ladder();
        ops.reserve(2 * circuit.len());
        let mut busy = vec![false; n];
        let mut pending: Vec<(SiteKind, u32, u32, u32)> = Vec::new();
        for layer in circuit.layers() {
            busy.fill(false);
            pending.clear();
            for g in &layer {
                if g.is_measurement() {
                    continue;
                }
                let (qs, k) = g.qubits_inline();
                for &q in &qs[..k] {
                    busy[q] = true;
                }
                if let Some(kernel) = compile_gate(g) {
                    ops.push(kernel);
                }
                let site = match *g {
                    Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                        class_of(noise.depol_2q, &mut classes)
                            .map(|class| (SiteKind::Depol2, class, a as u32, b as u32))
                    }
                    Gate::Rz(q, _) => class_of(noise.depol_rz, &mut classes)
                        .map(|class| (SiteKind::Depol1, class, q as u32, 0)),
                    Gate::Rx(q, _) | Gate::Ry(q, _) => class_of(noise.depol_rot_xy, &mut classes)
                        .map(|class| (SiteKind::Depol1, class, q as u32, 0)),
                    _ => class_of(noise.depol_1q, &mut classes)
                        .map(|class| (SiteKind::Depol1, class, qs[0] as u32, 0)),
                };
                if let Some(site) = site {
                    pending.push(site);
                }
            }
            if idle.total() > 0.0 {
                for (q, &b) in busy.iter().enumerate() {
                    if !b {
                        let class = class_of(idle.total(), &mut classes)
                            .expect("positive idle total has a class");
                        pending.push((SiteKind::Idle, class, q as u32, 0));
                    }
                }
            }
            // Fuse the layer's sites — in their original relative order —
            // into maximal same-kind, same-class runs. Runs may even
            // absorb the previous layer's tail when no kernel intervened
            // (e.g. measurement-only layers); correctness only needs the
            // site sequence, which fusion preserves.
            for &(kind, class, a, b) in &pending {
                let idx = site_args.len() as u32;
                site_args.push([a, b]);
                sites += 1;
                let extended = match ops.last_mut() {
                    Some(TemplateOp::Fixed(Op::Depol1Run {
                        class: c,
                        start,
                        len,
                    })) if kind == SiteKind::Depol1 && *c == class && *start + *len == idx => {
                        *len += 1;
                        true
                    }
                    Some(TemplateOp::Fixed(Op::Depol2Run {
                        class: c,
                        start,
                        len,
                    })) if kind == SiteKind::Depol2 && *c == class && *start + *len == idx => {
                        *len += 1;
                        true
                    }
                    Some(TemplateOp::Fixed(Op::IdleRun {
                        class: c,
                        start,
                        len,
                    })) if kind == SiteKind::Idle && *c == class && *start + *len == idx => {
                        *len += 1;
                        true
                    }
                    _ => false,
                };
                if !extended {
                    let run = match kind {
                        SiteKind::Depol1 => Op::Depol1Run {
                            class,
                            start: idx,
                            len: 1,
                        },
                        SiteKind::Depol2 => Op::Depol2Run {
                            class,
                            start: idx,
                            len: 1,
                        },
                        SiteKind::Idle => Op::IdleRun {
                            class,
                            start: idx,
                            len: 1,
                        },
                    };
                    ops.push(TemplateOp::Fixed(run));
                }
            }
        }
        NoiseTemplate {
            n,
            ops: Arc::new(ops),
            site_args: Arc::new(site_args),
            classes: Arc::new(classes),
            idle,
            sites,
            meas_flip: noise.meas_flip,
            num_params: circuit.num_symbolic_params(),
        }
    }

    /// Resolves the symbolic rotations against a Clifford genome (entry
    /// `k` means the angle `k·π/2`), exactly as [`NoiseProgram::compile`]
    /// would on [`eftq_circuit::Ansatz::bind_clifford`]'s output.
    ///
    /// Binding is *zero-copy* on the instruction stream: the bound
    /// program shares this template's op list and site table, and only
    /// the genome's quarter turns (`k mod 4`, one byte per parameter) are
    /// copied per genome.
    ///
    /// # Panics
    ///
    /// Panics if `ks.len() < self.num_params()`.
    pub fn bind_clifford(&self, ks: &[u8]) -> NoiseProgram {
        assert!(
            ks.len() >= self.num_params,
            "need {} genome entries, got {}",
            self.num_params,
            ks.len()
        );
        NoiseProgram {
            n: self.n,
            ops: Arc::clone(&self.ops),
            site_args: Arc::clone(&self.site_args),
            ks: ks[..self.num_params].iter().map(|k| k % 4).collect(),
            classes: Arc::clone(&self.classes),
            idle: self.idle,
            sites: self.sites,
        }
    }

    /// A stable fingerprint of `(circuit, noise)` for keying compiled
    /// templates/programs in concurrent artifact caches (sweep drivers
    /// share one compilation across grid points and worker threads).
    /// Collisions would only confuse a cache into sharing a wrong
    /// artifact; 64 well-mixed bits over at most a handful of distinct
    /// keys per sweep make that astronomically unlikely.
    pub fn cache_key(circuit: &Circuit, noise: &StabilizerNoise) -> u64 {
        use eftq_circuit::Angle;
        use eftq_numerics::splitmix64;
        fn mix(h: &mut u64, v: u64) {
            *h = splitmix64(*h ^ v);
        }
        fn angle(h: &mut u64, a: Angle) {
            match a {
                Angle::Value(v) => mix(h, v.to_bits()),
                Angle::Param(i) => mix(h, 0x8000_0000_0000_0000 | i as u64),
            }
        }
        let mut h = splitmix64(0x7e3a_11ce ^ circuit.num_qubits() as u64);
        for g in circuit.gates() {
            let (tag, qs, k, a) = match *g {
                Gate::H(q) => (1u64, [q, 0], 1, None),
                Gate::S(q) => (2, [q, 0], 1, None),
                Gate::Sdg(q) => (3, [q, 0], 1, None),
                Gate::X(q) => (4, [q, 0], 1, None),
                Gate::Y(q) => (5, [q, 0], 1, None),
                Gate::Z(q) => (6, [q, 0], 1, None),
                Gate::T(q) => (7, [q, 0], 1, None),
                Gate::Tdg(q) => (8, [q, 0], 1, None),
                Gate::Measure(q) => (9, [q, 0], 1, None),
                Gate::Cx(a, b) => (10, [a, b], 2, None),
                Gate::Cz(a, b) => (11, [a, b], 2, None),
                Gate::Swap(a, b) => (12, [a, b], 2, None),
                Gate::Rz(q, a) => (13, [q, 0], 1, Some(a)),
                Gate::Rx(q, a) => (14, [q, 0], 1, Some(a)),
                Gate::Ry(q, a) => (15, [q, 0], 1, Some(a)),
            };
            mix(&mut h, tag);
            for &q in &qs[..k] {
                mix(&mut h, q as u64);
            }
            if let Some(a) = a {
                angle(&mut h, a);
            }
        }
        for p in [
            noise.depol_1q,
            noise.depol_2q,
            noise.depol_rz,
            noise.depol_rot_xy,
            noise.meas_flip,
            noise.idle.px,
            noise.idle.py,
            noise.idle.pz,
        ] {
            mix(&mut h, p.to_bits());
        }
        h
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of symbolic parameters a genome must cover.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Number of compiled injection sites (genome-independent: site
    /// probabilities depend on gate classes, not angles).
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// Number of distinct site probabilities (sampler classes).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The readout flip probability of the noise model this template was
    /// compiled against (carried so estimators need only the template).
    pub fn meas_flip(&self) -> f64 {
        self.meas_flip
    }
}

impl NoiseProgram {
    /// Compiles a bound Clifford circuit and noise model into the flat
    /// site program. Zero-probability sites are elided at compile time;
    /// measurement gates are skipped and leave their qubit idle, matching
    /// the per-shot executor [`crate::noise::run_noisy_shot`].
    ///
    /// Equivalent to `NoiseTemplate::compile(circuit, noise)
    /// .bind_clifford(&[])` — genome loops should hoist the template and
    /// bind per genome instead of recompiling.
    pub fn compile(circuit: &Circuit, noise: &StabilizerNoise) -> Self {
        NoiseTemplate::compile(circuit, noise).bind_clifford(&[])
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of compiled injection sites (zero-probability sites are
    /// elided).
    pub fn num_sites(&self) -> usize {
        self.sites
    }

    /// Number of distinct site probabilities (sampler classes).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Runs the program sequentially. Identical output to
    /// [`NoiseProgram::run_threaded`] at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0`.
    pub fn run(&self, shots: usize, seed: SeedSequence) -> PauliFrames {
        self.run_threaded(shots, seed, 1)
    }

    /// Runs the program with shot batches sharded across `threads`
    /// crossbeam workers. Batch `b` always evaluates under
    /// `seed.derive_index(b)`, so the output is bit-identical for every
    /// `threads` value (including 1).
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or a worker panics.
    pub fn run_threaded(&self, shots: usize, seed: SeedSequence, threads: usize) -> PauliFrames {
        self.run_inner(shots, seed, threads, false)
    }

    /// [`NoiseProgram::run_threaded`] with Stim-style *outcome
    /// randomization*: before the circuit walk, every batch fills its Z
    /// frame planes with uniform random bits. On `|0…0⟩` a Z error acts
    /// trivially, so expectations are untouched — but the propagated
    /// randomness flips exactly the measurement outcomes that are
    /// genuinely random, which is what the grouped sampling estimator
    /// (see [`crate::sample_energy_grouped`]) needs to turn one
    /// deterministic reference sample into correctly-distributed
    /// per-shot outcomes. A separate entry point so the plain
    /// [`NoiseProgram::run`] RNG stream (and every artifact derived from
    /// it) stays byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `shots == 0` or a worker panics.
    pub fn run_randomized(&self, shots: usize, seed: SeedSequence, threads: usize) -> PauliFrames {
        self.run_inner(shots, seed, threads, true)
    }

    fn run_inner(
        &self,
        shots: usize,
        seed: SeedSequence,
        threads: usize,
        randomize: bool,
    ) -> PauliFrames {
        assert!(shots > 0, "at least one shot required");
        let batches = map_batches(shots, threads, |b, batch_shots| {
            self.run_batch(batch_shots, seed.derive_index(b as u64), randomize)
        });
        if batches.len() == 1 {
            return batches.into_iter().next().expect("one batch");
        }
        let mut out = PauliFrames::new(self.n, shots);
        for (b, f) in batches.iter().enumerate() {
            out.splice_words(b * BATCH_WORDS, f);
        }
        out
    }

    /// Evaluates one batch: fresh RNG, one sampling pass, then one
    /// forward frame walk that XORs the recorded hits in at their sites.
    fn run_batch(&self, shots: usize, seed: SeedSequence, randomize: bool) -> PauliFrames {
        let mut rng = seed.rng();
        let mut frames = PauliFrames::new(self.n, shots);
        if randomize {
            frames.randomize_z(&mut rng);
        }
        let mut hits = Vec::new();
        self.sample_batch(shots, &mut rng, &mut hits);
        let mut next = hits.iter().peekable();
        for (i, op) in self.ops().enumerate() {
            match op {
                Op::H { q } => frames.kernel_hadamard(q as usize),
                Op::S { q } | Op::Sdg { q } => frames.kernel_phase(q as usize),
                Op::X { .. } | Op::Y { .. } | Op::Z { .. } => {}
                Op::Rot { q, axis, k } => {
                    if k % 2 == 1 {
                        match axis {
                            RotAxis::Z => frames.kernel_phase(q as usize),
                            RotAxis::X => frames.kernel_sqrt_x(q as usize),
                            RotAxis::Y => frames.kernel_hadamard(q as usize),
                        }
                    }
                }
                Op::Cx { c, t } => frames.kernel_cx(c as usize, t as usize),
                Op::Cz { a, b } => frames.kernel_cz(a as usize, b as usize),
                Op::Swap { a, b } => frames.kernel_swap(a as usize, b as usize),
                Op::Depol1Run { .. } | Op::Depol2Run { .. } | Op::IdleRun { .. } => {
                    while let Some(h) = next.next_if(|h| h.pos == i as u32) {
                        frames.inject_words(h.q as usize, h.word as usize, h.x, h.z);
                    }
                }
            }
        }
        frames
    }

    /// The bound instruction tape, in circuit order: symbolic rotations
    /// resolved against the genome's quarter turns.
    pub(crate) fn ops(&self) -> impl DoubleEndedIterator<Item = Op> + ExactSizeIterator + '_ {
        self.ops.iter().map(|op| match *op {
            TemplateOp::Fixed(op) => op,
            TemplateOp::Param { q, param, axis } => Op::Rot {
                q,
                axis,
                k: self.ks[param as usize],
            },
        })
    }

    /// Every error a `shots`-shot run under `seed` injects, one hit list
    /// per 256-shot batch (batch-local lane words, ascending `pos`).
    /// Batch `b` samples under `seed.derive_index(b)` with exactly the
    /// draws [`NoiseProgram::run_threaded`] makes, so these are the hits
    /// its frames carry; only the sampling shards across `threads`.
    pub(crate) fn sample_hits(
        &self,
        shots: usize,
        seed: SeedSequence,
        threads: usize,
    ) -> Vec<Vec<Hit>> {
        if self.sites == 0 {
            return Vec::new();
        }
        map_batches(shots, threads, |b, batch_shots| {
            let mut hits = Vec::new();
            self.sample_batch(
                batch_shots,
                &mut seed.derive_index(b as u64).rng(),
                &mut hits,
            );
            hits
        })
    }

    /// One batch's sampling pass: visits the site runs in tape order and
    /// appends every hit to `out` (batch-local lane words, ascending
    /// `pos`).
    ///
    /// Site runs go through the [`BernoulliWords::hit_site_runs`]
    /// hit-list path, with each hit's letters drawn right after its
    /// site's gap draws: the RNG stream is the one the per-site
    /// flip-mask path defines, but a run with no hits in the batch — the
    /// overwhelmingly common case at NISQ rates — costs one division
    /// instead of a mask fill and scan per site.
    fn sample_batch<R: Rng>(&self, shots: usize, rng: &mut R, out: &mut Vec<Hit>) {
        let mut samplers: Vec<BernoulliWords> = self
            .classes
            .iter()
            .map(|&p| BernoulliWords::new(p))
            .collect();
        let mut buf: Vec<(u32, u64)> = Vec::with_capacity(BATCH_WORDS);
        for (i, op) in self.ops.iter().enumerate() {
            let pos = i as u32;
            let TemplateOp::Fixed(op) = *op else {
                continue;
            };
            let (class, start, len) = match op {
                Op::Depol1Run { class, start, len }
                | Op::Depol2Run { class, start, len }
                | Op::IdleRun { class, start, len } => (class, start, len),
                _ => continue,
            };
            let args = &self.site_args[start as usize..(start + len) as usize];
            let sampler = &mut samplers[class as usize];
            let mut push = |q: u32, word: u32, x: u64, z: u64| {
                if x | z != 0 {
                    out.push(Hit { pos, q, word, x, z });
                }
            };
            match op {
                Op::Depol1Run { .. } => {
                    sampler.hit_site_runs(shots, len as usize, rng, &mut buf, |s, h, rng| {
                        for &(w, m) in h {
                            let (x, z) = uniform_nonzero_pair(m, rng);
                            push(args[s][0], w, x, z);
                        }
                    });
                }
                Op::Depol2Run { .. } => {
                    sampler.hit_site_runs(shots, len as usize, rng, &mut buf, |s, h, rng| {
                        for &(w, m) in h {
                            let [xa, za, xb, zb] = uniform_nonzero_quad(m, rng);
                            push(args[s][0], w, xa, za);
                            push(args[s][1], w, xb, zb);
                        }
                    });
                }
                _ => {
                    let ladder = &self.idle;
                    sampler.hit_site_runs(shots, len as usize, rng, &mut buf, |s, h, rng| {
                        for &(w, m) in h {
                            let (mut x, mut z) = (0u64, 0u64);
                            let mut bits = m;
                            while bits != 0 {
                                let bit = bits & bits.wrapping_neg();
                                let letter = ladder.conditional_letter(rng);
                                if letter.x_bit() {
                                    x |= bit;
                                }
                                if letter.z_bit() {
                                    z |= bit;
                                }
                                bits &= bits - 1;
                            }
                            push(args[s][0], w, x, z);
                        }
                    });
                }
            }
        }
    }
}

/// Evaluates `f(b, shots in batch b)` for every 256-shot batch of a
/// `shots`-shot run, sharded across `threads` crossbeam workers, and
/// returns the results in batch order. Each batch must depend only on
/// its index, so the output is the same for every `threads` value.
fn map_batches<T, F>(shots: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let batches = shots.div_ceil(BATCH_SHOTS);
    let batch_shots = |b: usize| (shots - b * BATCH_SHOTS).min(BATCH_SHOTS);
    if threads <= 1 || batches == 1 {
        return (0..batches).map(|b| f(b, batch_shots(b))).collect();
    }
    let workers = threads.min(batches);
    let chunk = batches.div_ceil(workers);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = (lo + chunk).min(batches);
                scope.spawn(move |_| (lo..hi).map(|b| f(b, batch_shots(b))).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("noise-program worker panicked"))
            .collect()
    })
    .expect("noise-program scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::TwirledIdle;
    use eftq_pauli::PauliString;

    fn pauli(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    fn nisq_like() -> StabilizerNoise {
        StabilizerNoise {
            depol_1q: 0.002,
            depol_2q: 0.02,
            depol_rz: 0.004,
            depol_rot_xy: 0.004,
            meas_flip: 0.01,
            idle: TwirledIdle {
                px: 0.001,
                py: 0.001,
                pz: 0.002,
            },
        }
    }

    #[test]
    fn compile_counts_sites_and_classes() {
        // Layer 1: H(0) [site], q1 idles [site]. Layer 2: CX [site].
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let p = NoiseProgram::compile(&c, &nisq_like());
        assert_eq!(p.num_sites(), 3);
        // Classes: depol_1q, idle-total, depol_2q.
        assert_eq!(p.num_classes(), 3);
        assert_eq!(p.num_qubits(), 2);
    }

    #[test]
    fn noiseless_program_has_no_sites() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let p = NoiseProgram::compile(&c, &StabilizerNoise::noiseless());
        assert_eq!(p.num_sites(), 0);
        assert_eq!(p.num_classes(), 0);
        let f = p.run(100, SeedSequence::new(1));
        assert_eq!(f.flip_count(&pauli("ZZI")), 0);
        assert_eq!(f.flip_count(&pauli("XXX")), 0);
    }

    #[test]
    fn measurement_gates_open_idle_sites() {
        // Matching run_noisy_shot: a measured qubit counts as idle.
        let mut c = Circuit::new(2);
        c.h(0).measure(1);
        let mut noise = StabilizerNoise::noiseless();
        noise.idle = TwirledIdle {
            px: 0.25,
            py: 0.0,
            pz: 0.0,
        };
        let p = NoiseProgram::compile(&c, &noise);
        assert_eq!(p.num_sites(), 1);
        let f = p.run(6400, SeedSequence::new(3));
        let frac = f.flip_count(&pauli("IZ")) as f64 / 6400.0;
        assert!((frac - 0.25).abs() < 0.03, "{frac}");
        assert_eq!(f.flip_count(&pauli("ZI")), 0);
    }

    #[test]
    fn thread_count_does_not_change_the_frames() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).s(3);
        let p = NoiseProgram::compile(&c, &nisq_like());
        let seed = SeedSequence::new(99);
        for shots in [100usize, 256, 257, 1000, 2048] {
            let solo = p.run_threaded(shots, seed, 1);
            for threads in [2usize, 3, 8] {
                let multi = p.run_threaded(shots, seed, threads);
                assert_eq!(solo, multi, "shots {shots} threads {threads}");
            }
        }
    }

    #[test]
    fn batches_are_independent_of_total_shot_count() {
        // The first batch of a 2048-shot run equals a standalone 256-shot
        // run: batch content depends only on (seed, batch index).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let p = NoiseProgram::compile(&c, &nisq_like());
        let seed = SeedSequence::new(5);
        let big = p.run(2048, seed);
        let small = p.run(BATCH_SHOTS, seed);
        for s in 0..BATCH_SHOTS {
            assert_eq!(big.frame(s), small.frame(s), "shot {s}");
        }
    }

    #[test]
    fn certain_depolarizing_hits_every_shot() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_1q = 1.0;
        let p = NoiseProgram::compile(&c, &noise);
        let f = p.run(500, SeedSequence::new(2));
        for s in 0..500 {
            assert!(!f.frame(s).is_identity(), "shot {s}");
        }
    }

    #[test]
    fn masked_letters_are_uniform_over_xyz() {
        // p = 1 exercises the word-parallel rejection draw; the three
        // letters must come out balanced.
        let mut c = Circuit::new(1);
        c.s(0);
        let mut noise = StabilizerNoise::noiseless();
        noise.depol_1q = 1.0;
        let p = NoiseProgram::compile(&c, &noise);
        let shots = 30_000;
        let f = p.run(shots, SeedSequence::new(11));
        let mut counts = [0usize; 3];
        for s in 0..shots {
            // The S gate precedes the injection site, so the frame *is*
            // the injected letter.
            match f.frame(s).pauli_at(0) {
                eftq_pauli::Pauli::X => counts[0] += 1,
                eftq_pauli::Pauli::Y => counts[1] += 1,
                eftq_pauli::Pauli::Z => counts[2] += 1,
                eftq_pauli::Pauli::I => panic!("shot {s} missed at p = 1"),
            }
        }
        let third = shots as f64 / 3.0;
        let sigma = (shots as f64 * (1.0 / 3.0) * (2.0 / 3.0)).sqrt();
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 - third).abs() < 5.0 * sigma, "letter {i}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_rejected() {
        let mut c = Circuit::new(1);
        c.h(0);
        let p = NoiseProgram::compile(&c, &StabilizerNoise::noiseless());
        let _ = p.run(0, SeedSequence::new(0));
    }

    #[test]
    fn template_bind_equals_full_compile() {
        // The hoisted path (compile the symbolic ansatz once, bind
        // quarter turns per genome) must produce the same frames
        // as recompiling the bound circuit — for every genome pattern.
        use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};
        let noise = nisq_like();
        for (i, ansatz) in [
            linear_hea(4, 1),
            fully_connected_hea(5, 2),
            blocked_all_to_all(8, 1),
        ]
        .iter()
        .enumerate()
        {
            let template = NoiseTemplate::compile(ansatz.circuit(), &noise);
            assert_eq!(template.num_params(), ansatz.num_params());
            assert_eq!(template.meas_flip(), noise.meas_flip);
            for pattern in 0..8u64 {
                let genome: Vec<u8> = (0..ansatz.num_params())
                    .map(|g| ((g as u64 * 7 + pattern * 3 + i as u64) % 4) as u8)
                    .collect();
                let fast = template.bind_clifford(&genome);
                let slow = NoiseProgram::compile(&ansatz.bind_clifford(&genome), &noise);
                assert_eq!(fast.num_sites(), slow.num_sites());
                assert_eq!(fast.num_classes(), slow.num_classes());
                let seed = SeedSequence::new(17 + pattern);
                assert_eq!(
                    fast.run(300, seed),
                    slow.run(300, seed),
                    "ansatz {i}, pattern {pattern}"
                );
            }
        }
    }

    #[test]
    fn template_site_count_is_genome_independent() {
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let template = NoiseTemplate::compile(ansatz.circuit(), &nisq_like());
        let all_even = template.bind_clifford(&vec![0u8; ansatz.num_params()]);
        let all_odd = template.bind_clifford(&vec![1u8; ansatz.num_params()]);
        // Sites survive either way; only rotation kernels differ.
        assert_eq!(all_even.num_sites(), template.num_sites());
        assert_eq!(all_odd.num_sites(), template.num_sites());
    }

    #[test]
    #[should_panic(expected = "genome entries")]
    fn template_rejects_short_genomes() {
        use eftq_circuit::ansatz::linear_hea;
        let ansatz = linear_hea(4, 1);
        let template = NoiseTemplate::compile(ansatz.circuit(), &StabilizerNoise::noiseless());
        let _ = template.bind_clifford(&[0, 1]);
    }

    #[test]
    fn cache_key_separates_circuits_and_noise() {
        use eftq_circuit::ansatz::{fully_connected_hea, linear_hea};
        let a = linear_hea(4, 1);
        let b = fully_connected_hea(4, 1);
        let n1 = nisq_like();
        let mut n2 = nisq_like();
        n2.depol_2q += 1e-4;
        let k = NoiseTemplate::cache_key;
        assert_eq!(k(a.circuit(), &n1), k(a.circuit(), &n1), "stable");
        assert_ne!(k(a.circuit(), &n1), k(b.circuit(), &n1), "circuit");
        assert_ne!(k(a.circuit(), &n1), k(a.circuit(), &n2), "noise");
        // Binding changes the key too (bound angles hash differently from
        // symbolic parameters).
        let bound = a.bind_clifford(&vec![1u8; a.num_params()]);
        assert_ne!(k(a.circuit(), &n1), k(&bound, &n1));
    }
}
