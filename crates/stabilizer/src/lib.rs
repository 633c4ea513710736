//! Aaronson–Gottesman stabilizer simulation with Monte-Carlo Pauli noise.
//!
//! The paper's large-scale methodology (Section 5.2.2) restricts VQA
//! rotation angles to multiples of π/2, turning the ansatz into a Clifford
//! circuit that a stabilizer simulator evaluates at 16–100+ qubits. This
//! crate is the reproduction's substitute for Stim:
//!
//! * [`Tableau`] — the destabilizer/stabilizer tableau with the standard
//!   gate set, measurement, and *Pauli-expectation* queries
//!   (⟨P⟩ ∈ {−1, 0, +1} for stabilizer states), which is what Hamiltonian
//!   energy evaluation needs. Stored column-major (Stim-style): each gate
//!   is `O(2n/64)` XOR/AND word operations over per-qubit bit-columns,
//!   and expectation phases accumulate via popcount/prefix-XOR word
//!   arithmetic.
//! * [`frame`] — the batched Pauli-frame simulator: noise propagates as
//!   per-shot Pauli frames, 64 shots per `u64` lane, so one circuit walk
//!   yields 64 noisy trajectories. A noisy shot's state is `F·C|0…0⟩`, and
//!   `⟨P⟩` per shot is the noiseless value sign-flipped iff the frame `F`
//!   anticommutes with `P` — the frame path is therefore statistically
//!   identical to re-running a noisy tableau per shot, at a fraction of
//!   the cost.
//! * [`program`] — the compiled noise engine: a circuit + noise model
//!   flattens once into a [`NoiseProgram`] of gates and injection sites,
//!   sites draw whole Bernoulli flip-mask words (geometric skipping /
//!   bit-slice sampling via [`eftq_numerics::BernoulliWords`]), and shot
//!   batches shard across crossbeam workers with per-batch seeds, so
//!   results are thread-count-invariant.
//! * [`HeisenbergRows`] — what every estimator needs, in the Heisenberg
//!   picture: the observable's terms are rows of a tableau-layout plane,
//!   conjugated back through the circuit (or a [`NoiseProgram`]'s
//!   sign-exact tape) in one reverse walk and read off on `|0…0⟩`
//!   (bit-identical to the forward run plus per-term
//!   [`Tableau::expectation`]). On a program,
//!   [`HeisenbergRows::noisy_walk`] also folds every sampled error into
//!   its shot's flip row at the site that injects it, which yields the
//!   same sign flips as propagating Pauli frames forward.
//! * [`noise`] — Monte-Carlo Pauli channels (depolarizing, bit-flip,
//!   Pauli-twirled thermal relaxation per Ghosh et al.) and the noisy
//!   energy estimators. [`estimate_energy`] /
//!   [`estimate_energy_threaded`] compile a [`NoiseProgram`] and call
//!   [`estimate_energy_program`]; [`estimate_energy_program_grouped`]
//!   (the genetic search's hot path) takes its term rows precompiled in
//!   a [`GroupedObservable`]. All of them get their noiseless
//!   expectations and every shot's sign flips from one
//!   [`HeisenbergRows::noisy_walk`] of the program, with no forward frame
//!   walk. [`noise::estimate_energy_tableau`] is the
//!   per-shot reference path the equivalence property tests check
//!   against, and [`sample_energy_grouped`] the measurement-style
//!   estimator over shared QWC outcome words.
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::Circuit;
//! use eftq_stabilizer::Tableau;
//!
//! // GHZ state: ⟨XXX⟩ = +1, ⟨ZZI⟩ = +1, ⟨ZII⟩ = 0.
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2);
//! let mut t = Tableau::new(3);
//! t.run(&c);
//! assert_eq!(t.expectation(&"XXX".parse().unwrap()), 1.0);
//! assert_eq!(t.expectation(&"ZZI".parse().unwrap()), 1.0);
//! assert_eq!(t.expectation(&"ZII".parse().unwrap()), 0.0);
//! ```

#![deny(missing_docs)]

pub mod frame;
pub mod grouped;
pub mod noise;
pub mod program;
pub mod tableau;

pub use frame::{run_noisy_frames, run_noisy_frames_percall, PauliFrames};
pub use grouped::{estimate_energy_program_grouped, sample_energy_grouped, GroupedObservable};
pub use noise::{
    estimate_energy, estimate_energy_program, estimate_energy_tableau, estimate_energy_threaded,
    NoisyCliffordRun, StabilizerNoise,
};
pub use program::{NoiseProgram, NoiseTemplate};
pub use tableau::{sample_counts, HeisenbergRows, NoisyRows, Tableau};
