//! Gate-triggered noise models and the layered noisy executor.
//!
//! The executor reproduces the methodology of Section 5.2.1: the circuit is
//! layered (ASAP), gates inside a layer experience their gate channel, and
//! qubits idle during a layer experience the idle channel. Which channels
//! are active is controlled by [`NoiseModel`]; the NISQ and pQEC parameter
//! sets are constructed by the `eft-vqa` core crate.

use crate::channels::KrausChannel;
use crate::density::{
    bound_matrix, BlockChannel, BlockOp, BlockUnitary, DensityMatrix, PairGate, PairOp,
};
use crate::readout::ReadoutModel;
use eftq_circuit::{Circuit, Gate};

/// Relaxation (T1/T2) parameters plus operation durations, all in the same
/// time unit (conventionally nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Relaxation {
    /// Energy relaxation time T1.
    pub t1: f64,
    /// Coherence time T2 (must satisfy T2 ≤ 2·T1).
    pub t2: f64,
    /// Duration of a single-qubit gate.
    pub t_1q: f64,
    /// Duration of a two-qubit gate.
    pub t_2q: f64,
    /// Duration of a measurement.
    pub t_meas: f64,
}

impl Relaxation {
    /// IBM-flavoured defaults: T1 = 100 µs, T2 = 100 µs, 35 ns single-qubit
    /// gates, 300 ns CNOTs, 700 ns measurements (order-of-magnitude values
    /// from the device data the paper cites).
    pub fn superconducting_defaults() -> Self {
        Relaxation {
            t1: 100_000.0,
            t2: 100_000.0,
            t_1q: 35.0,
            t_2q: 300.0,
            t_meas: 700.0,
        }
    }
}

/// A gate-triggered noise model.
///
/// Every probability is per gate occurrence. Rotations classified as
/// non-Clifford (`rz_like` in [`eftq_circuit::GateCounts`]) receive
/// `depol_rz` instead of `depol_1q`, matching the paper's split between
/// virtual/injected rotations and physical Clifford gates.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability after a single-qubit Clifford gate.
    pub depol_1q: f64,
    /// Two-qubit depolarizing probability after a two-qubit gate.
    pub depol_2q: f64,
    /// Depolarizing probability after a non-Clifford `Rz` rotation
    /// (injection error under pQEC; 0 under NISQ's virtual-Z convention).
    pub depol_rz: f64,
    /// Depolarizing probability after a non-Clifford `Rx`/`Ry` rotation
    /// (a physical pulse under NISQ; an injected `H·Rz·H` under pQEC).
    pub depol_rot_xy: f64,
    /// Bit-flip probability at measurement.
    pub meas_flip: f64,
    /// Depolarizing probability per idle layer per qubit (pQEC memory
    /// errors; `0` disables).
    pub idle_depol: f64,
    /// Thermal relaxation; `None` disables relaxation entirely (pQEC).
    pub relaxation: Option<Relaxation>,
}

impl NoiseModel {
    /// The noiseless model.
    pub fn noiseless() -> Self {
        NoiseModel {
            depol_1q: 0.0,
            depol_2q: 0.0,
            depol_rz: 0.0,
            depol_rot_xy: 0.0,
            meas_flip: 0.0,
            idle_depol: 0.0,
            relaxation: None,
        }
    }

    /// Whether every channel is trivial.
    pub fn is_noiseless(&self) -> bool {
        self.depol_1q == 0.0
            && self.depol_2q == 0.0
            && self.depol_rz == 0.0
            && self.depol_rot_xy == 0.0
            && self.meas_flip == 0.0
            && self.idle_depol == 0.0
            && self.relaxation.is_none()
    }

    /// The readout model implied by `meas_flip` (symmetric flips).
    pub fn readout_model(&self, n: usize) -> ReadoutModel {
        ReadoutModel::uniform(n, self.meas_flip, self.meas_flip)
    }
}

/// Statistics from a noisy run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoisyRunReport {
    /// Number of ASAP layers executed.
    pub layers: usize,
    /// Noise channel applications (gate + idle + measurement).
    pub channel_applications: usize,
    /// Idle (qubit, layer) slots that received idle noise.
    pub idle_slots: usize,
}

/// Channels that depend only on the (fixed) noise model, each folded
/// into its superoperator once per run.
struct RunChannels {
    /// Thermal relaxation over a single-qubit gate window, with the
    /// window duration (for the layer clock).
    relax_1q: Option<(BlockChannel, f64)>,
    /// Thermal relaxation over a two-qubit gate window, with duration.
    relax_2q: Option<(BlockChannel, f64)>,
    /// Thermal relaxation over a measurement window, with duration.
    relax_meas: Option<(BlockChannel, f64)>,
    /// Measurement bit-flip.
    meas_flip: Option<BlockChannel>,
    /// Idle relaxation per distinct layer duration seen so far (layer
    /// durations are maxima over the three gate windows, so this stays
    /// tiny).
    idle_relax: Vec<(f64, BlockChannel)>,
}

impl RunChannels {
    fn new(noise: &NoiseModel) -> Self {
        let relax = |r: &Relaxation, t: f64| {
            let ch = KrausChannel::thermal_relaxation(t, r.t1, r.t2);
            (BlockChannel::new(&ch), t)
        };
        RunChannels {
            relax_1q: noise.relaxation.map(|r| relax(&r, r.t_1q)),
            relax_2q: noise.relaxation.map(|r| relax(&r, r.t_2q)),
            relax_meas: noise.relaxation.map(|r| relax(&r, r.t_meas)),
            meas_flip: (noise.meas_flip > 0.0)
                .then(|| BlockChannel::new(&KrausChannel::bit_flip(noise.meas_flip))),
            idle_relax: Vec::new(),
        }
    }

    /// The relaxation channel for an idle window of `duration` (cached by
    /// exact duration).
    fn idle_relaxation(&mut self, noise: &NoiseModel, duration: f64) -> BlockChannel {
        if let Some((_, ch)) = self.idle_relax.iter().find(|(t, _)| *t == duration) {
            return *ch;
        }
        let r = noise.relaxation.expect("idle relaxation without model");
        let ch = BlockChannel::new(&KrausChannel::thermal_relaxation(duration, r.t1, r.t2));
        self.idle_relax.push((duration, ch));
        ch
    }
}

/// Runs a fully bound circuit under `noise`, returning the final state and
/// a report.
///
/// Gates are grouped into ASAP layers; after each layer's gates (and their
/// gate-attached channels), idle qubits receive the idle channel: thermal
/// relaxation over the layer's duration when `relaxation` is set, plus
/// `idle_depol` depolarizing when non-zero.
///
/// Each gate and its gate-attached channels are applied in one walk over
/// ρ, in this order: a single-qubit gate, then its depolarizing, then its
/// relaxation; a two-qubit gate, then two-qubit depolarizing, then
/// relaxation on its first and then its second qubit; a measurement's
/// relaxation, then its bit flip; an idle qubit's relaxation, then
/// `idle_depol`.
///
/// # Panics
///
/// Panics on symbolic parameters or qubit-count overflow (> 13 qubits).
pub fn run_noisy(circuit: &Circuit, noise: &NoiseModel) -> (DensityMatrix, NoisyRunReport) {
    let n = circuit.num_qubits();
    let mut rho = DensityMatrix::zero_state(n);
    let mut report = NoisyRunReport::default();
    let mut chans = RunChannels::new(noise);

    for layer in layer_circuit(circuit) {
        report.layers += 1;
        let mut busy = vec![false; n];
        let mut layer_duration: f64 = 0.0;
        for g in &layer {
            let (qs, arity) = g.qubits_inline();
            for &q in &qs[..arity] {
                busy[q] = true;
            }
            apply_gate_with_noise(&mut rho, g, noise, &chans, &mut report, &mut layer_duration);
        }
        // Idle noise for untouched qubits.
        let idle_needed = noise.relaxation.is_some() || noise.idle_depol > 0.0;
        if idle_needed {
            for (q, _) in busy.iter().enumerate().filter(|&(_, &b)| !b) {
                report.idle_slots += 1;
                let mut ops = Vec::with_capacity(2);
                if noise.relaxation.is_some() && layer_duration > 0.0 {
                    let ch = chans.idle_relaxation(noise, layer_duration);
                    ops.push(BlockOp::Channel(ch));
                }
                if noise.idle_depol > 0.0 {
                    ops.push(BlockOp::depolarizing(noise.idle_depol));
                }
                rho.apply_block_ops(q, &ops);
                report.channel_applications += ops.len();
            }
        }
    }
    (rho, report)
}

/// Applies one gate and its gate-attached channels in a single walk.
fn apply_gate_with_noise(
    rho: &mut DensityMatrix,
    gate: &Gate,
    noise: &NoiseModel,
    chans: &RunChannels,
    report: &mut NoisyRunReport,
    layer_duration: &mut f64,
) {
    let q = gate.qubits_inline().0[0];
    let mut ops = Vec::with_capacity(3);
    match *gate {
        Gate::Measure(_) => {
            if let Some((ch, t)) = &chans.relax_meas {
                ops.push(BlockOp::Channel(*ch));
                *layer_duration = layer_duration.max(*t);
            }
            if let Some(ch) = &chans.meas_flip {
                ops.push(BlockOp::Channel(*ch));
            }
            report.channel_applications += ops.len();
            rho.apply_block_ops(q, &ops);
        }
        ref g if g.is_two_qubit() => {
            let (gate, a, b) = match *g {
                Gate::Cx(c, t) => (PairGate::Cx, c, t),
                Gate::Cz(a, b) => (PairGate::Cz, a, b),
                Gate::Swap(a, b) => (PairGate::Swap, a, b),
                _ => unreachable!("two-qubit gates are CX, CZ and SWAP"),
            };
            let mut pair_ops = Vec::with_capacity(4);
            pair_ops.push(PairOp::Gate(gate));
            if noise.depol_2q > 0.0 {
                pair_ops.push(PairOp::depolarizing(noise.depol_2q));
            }
            if let Some((ch, t)) = &chans.relax_2q {
                pair_ops.push(PairOp::Channel(false, ch));
                pair_ops.push(PairOp::Channel(true, ch));
                *layer_duration = layer_duration.max(*t);
            }
            report.channel_applications += pair_ops.len() - 1;
            rho.apply_pair_ops(a, b, &pair_ops);
        }
        ref g => {
            ops.push(BlockOp::Unitary(BlockUnitary::new(&bound_matrix(g))));
            let is_rz_like = matches!(g, Gate::Rz(..)) && !g.is_clifford(1e-9);
            let is_xy_rotation = matches!(g, Gate::Rx(..) | Gate::Ry(..)) && !g.is_clifford(1e-9);
            let p = if is_rz_like {
                noise.depol_rz
            } else if is_xy_rotation {
                noise.depol_rot_xy
            } else {
                noise.depol_1q
            };
            if p > 0.0 {
                ops.push(BlockOp::depolarizing(p));
            }
            // Virtual-Z convention: an Rz in the NISQ regime is free and
            // instantaneous, so it contributes no relaxation window.
            if let Some((ch, t)) = &chans.relax_1q {
                if !matches!(g, Gate::Rz(..)) {
                    ops.push(BlockOp::Channel(*ch));
                    *layer_duration = layer_duration.max(*t);
                }
            }
            report.channel_applications += ops.len() - 1;
            rho.apply_block_ops(q, &ops);
        }
    }
}

/// Greedy ASAP layering of a circuit (same rule as [`Circuit::depth`]);
/// thin alias over [`Circuit::layers`].
pub fn layer_circuit(circuit: &Circuit) -> Vec<Vec<Gate>> {
    circuit.layers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eftq_pauli::PauliSum;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    fn zz() -> PauliSum {
        let mut h = PauliSum::new(2);
        h.push_str(1.0, "ZZ");
        h
    }

    #[test]
    fn noiseless_model_reproduces_pure_state() {
        let (rho, report) = run_noisy(&bell(), &NoiseModel::noiseless());
        assert!((rho.expectation(&zz()) - 1.0).abs() < 1e-10);
        assert_eq!(report.channel_applications, 0);
        assert!(NoiseModel::noiseless().is_noiseless());
    }

    #[test]
    fn two_qubit_noise_degrades_bell_correlation() {
        let mut noise = NoiseModel::noiseless();
        noise.depol_2q = 0.05;
        let (rho, _) = run_noisy(&bell(), &noise);
        let e = rho.expectation(&zz());
        assert!((e - (1.0 - 16.0 * 0.05 / 15.0)).abs() < 1e-10, "{e}");
    }

    #[test]
    fn rz_noise_only_hits_non_clifford_rotations() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0, std::f64::consts::PI).h(0); // Clifford Rz
        let mut noise = NoiseModel::noiseless();
        noise.depol_rz = 0.2;
        let (_, report) = run_noisy(&c, &noise);
        assert_eq!(report.channel_applications, 0);

        let mut c2 = Circuit::new(1);
        c2.h(0).rz(0, 0.4).h(0); // injection-requiring Rz
        let (_, report2) = run_noisy(&c2, &noise);
        assert_eq!(report2.channel_applications, 1);

        // Rx rotations draw from the separate rot_xy budget.
        let mut c3 = Circuit::new(1);
        c3.rx(0, 0.4);
        let (_, report3) = run_noisy(&c3, &noise);
        assert_eq!(report3.channel_applications, 0);
        let mut noise_xy = NoiseModel::noiseless();
        noise_xy.depol_rot_xy = 0.2;
        let (_, report4) = run_noisy(&c3, &noise_xy);
        assert_eq!(report4.channel_applications, 1);
    }

    #[test]
    fn idle_depol_hits_only_idle_qubits() {
        // Qubit 1 idles during the H-only layer.
        let mut c = Circuit::new(2);
        c.h(0);
        let mut noise = NoiseModel::noiseless();
        noise.idle_depol = 0.1;
        let (_, report) = run_noisy(&c, &noise);
        assert_eq!(report.idle_slots, 1);
        assert_eq!(report.channel_applications, 1);
    }

    #[test]
    fn relaxation_damps_excited_population() {
        let mut c = Circuit::new(1);
        c.x(0).measure(0);
        let mut noise = NoiseModel::noiseless();
        noise.relaxation = Some(Relaxation {
            t1: 1000.0,
            t2: 1000.0,
            t_1q: 100.0,
            t_2q: 300.0,
            t_meas: 500.0,
        });
        let (rho, _) = run_noisy(&c, &noise);
        // After X: |1⟩; relaxation during gate (100) and measurement (500).
        let p1 = rho.probability(1);
        assert!(p1 < 1.0 && p1 > 0.4, "{p1}");
    }

    #[test]
    fn measurement_flip_reduces_z() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let mut noise = NoiseModel::noiseless();
        noise.meas_flip = 0.1;
        let (rho, _) = run_noisy(&c, &noise);
        assert!((rho.probability(1) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn layering_matches_depth() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cx(0, 1).cx(1, 2).rz(0, 0.3);
        let layers = layer_circuit(&c);
        assert_eq!(layers.len(), c.depth());
        let total: usize = layers.iter().map(|l| l.len()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn virtual_z_is_free_under_relaxation() {
        // An Rz between two idles should not advance the layer clock.
        let mut c = Circuit::new(1);
        c.rz(0, std::f64::consts::PI); // Clifford *and* virtual
        let mut noise = NoiseModel::noiseless();
        noise.relaxation = Some(Relaxation::superconducting_defaults());
        let (rho, report) = run_noisy(&c, &noise);
        assert_eq!(report.channel_applications, 0);
        assert!((rho.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_model_from_noise() {
        let mut noise = NoiseModel::noiseless();
        noise.meas_flip = 0.03;
        let m = noise.readout_model(2);
        assert_eq!(m.num_qubits(), 2);
        assert!((m.flip_probabilities(0).0 - 0.03).abs() < 1e-12);
    }
}
