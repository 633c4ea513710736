//! Exact state-vector and noisy density-matrix simulation.
//!
//! This crate is the reproduction's substitute for Qiskit's `AerSimulator`
//! (Section 5.2.1 of the paper): density-matrix simulation with the paper's
//! channel structure — depolarizing + thermal-relaxation gate errors,
//! bit-flip + relaxation measurement errors, relaxation idling errors for
//! the NISQ regime; depolarizing gate/memory errors and bit-flip
//! measurement errors for the pQEC regime.
//!
//! * [`StateVector`] — exact pure-state simulation (noiseless reference and
//!   expressibility studies).
//! * [`DensityMatrix`] — exact open-system simulation via in-place 2×2 /
//!   4×4 block transforms, with a gate and its noise fused into one walk.
//! * [`channels`] — Kraus families: depolarizing, thermal relaxation
//!   (amplitude + phase damping), bit-flip, and Pauli mixtures.
//! * [`noise`] — a gate-triggered [`noise::NoiseModel`] plus the layered
//!   noisy executor that inserts idle errors along the schedule.
//! * [`trajectory`] — Monte-Carlo pure-state trajectories with sampled
//!   Pauli errors, bridging the density-matrix (≤13 qubits, exact) and
//!   stabilizer (Clifford-only) substrates at 13-24 qubits.
//! * [`readout`] — measurement (readout) error and its inversion-based
//!   mitigation, the mechanism behind the VarSaw experiment (Figure 15).
//!
//! # Examples
//!
//! ```
//! use eftq_circuit::Circuit;
//! use eftq_statesim::StateVector;
//! use eftq_pauli::PauliSum;
//!
//! // Bell state: ⟨ZZ⟩ = ⟨XX⟩ = 1.
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let psi = StateVector::from_circuit(&c);
//! let mut h = PauliSum::new(2);
//! h.push_str(1.0, "ZZ");
//! h.push_str(1.0, "XX");
//! assert!((psi.expectation(&h) - 2.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]

pub mod channels;
pub mod density;
pub mod noise;
pub mod readout;
pub mod sampling;
pub mod statevector;
pub mod trajectory;

pub use channels::{apply_superoperator, KrausChannel};
pub use density::DensityMatrix;
pub use noise::{NoiseModel, NoisyRunReport};
pub use readout::ReadoutModel;
pub use sampling::{estimate_energy_sampled, SampledEnergy};
pub use statevector::StateVector;
pub use trajectory::{estimate_energy_trajectories, TrajectoryNoise, TrajectoryRun};
