//! Bit-identity of the density-matrix kernels against reference loops.
//!
//! `Reference` below keeps the straightforward per-entry loops: a full
//! `dim × dim` sweep per operation that skips the entries outside the
//! operation's blocks, a fresh superoperator per channel application, and
//! one pass per channel in the noisy executor. The library's block
//! walkers, fused `run_noisy` passes and structure-class fast paths must
//! reproduce every entry of ρ bit for bit (`f64::to_bits`, so signed zeros
//! count), and the executor's `NoisyRunReport` exactly.

use eftq_circuit::{Circuit, Gate};
use eftq_numerics::{Complex, Mat2};
use eftq_statesim::noise::{layer_circuit, run_noisy, Relaxation};
use eftq_statesim::{apply_superoperator, DensityMatrix, KrausChannel, NoiseModel, NoisyRunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{FRAC_PI_2, PI};

/// The reference density matrix: row-major `rho[r * dim + c]`.
#[derive(Clone)]
struct Reference {
    n: usize,
    dim: usize,
    rho: Vec<Complex>,
}

impl Reference {
    fn zero_state(n: usize) -> Self {
        let dim = 1usize << n;
        let mut rho = vec![Complex::ZERO; dim * dim];
        rho[0] = Complex::ONE;
        Reference { n, dim, rho }
    }

    fn apply_mat2(&mut self, q: usize, u: &Mat2) {
        let mask = 1usize << q;
        let ud = u.adjoint();
        for c in 0..self.dim {
            for r in 0..self.dim {
                if r & mask != 0 {
                    continue;
                }
                let r1 = r | mask;
                let a = self.rho[r * self.dim + c];
                let b = self.rho[r1 * self.dim + c];
                let (na, nb) = u.apply(a, b);
                self.rho[r * self.dim + c] = na;
                self.rho[r1 * self.dim + c] = nb;
            }
        }
        for r in 0..self.dim {
            let row = r * self.dim;
            for c in 0..self.dim {
                if c & mask != 0 {
                    continue;
                }
                let c1 = c | mask;
                let a = self.rho[row + c];
                let b = self.rho[row + c1];
                let na = a * ud.m[0] + b * ud.m[2];
                let nb = a * ud.m[1] + b * ud.m[3];
                self.rho[row + c] = na;
                self.rho[row + c1] = nb;
            }
        }
    }

    fn apply_cx(&mut self, control: usize, target: usize) {
        let cm = 1usize << control;
        let tm = 1usize << target;
        self.apply_involution_permutation(|b| if b & cm != 0 { b ^ tm } else { b });
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let am = 1usize << a;
        let bm = 1usize << b;
        self.apply_involution_permutation(move |idx| {
            if (idx & am != 0) == (idx & bm != 0) {
                idx
            } else {
                idx ^ am ^ bm
            }
        });
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        let am = 1usize << a;
        let bm = 1usize << b;
        let sign = |idx: usize| idx & am != 0 && idx & bm != 0;
        for r in 0..self.dim {
            for c in 0..self.dim {
                if sign(r) != sign(c) {
                    let e = &mut self.rho[r * self.dim + c];
                    *e = -*e;
                }
            }
        }
    }

    fn apply_involution_permutation<F: Fn(usize) -> usize>(&mut self, perm: F) {
        for r in 0..self.dim {
            let pr = perm(r);
            for c in 0..self.dim {
                let pc = perm(c);
                if (pr, pc) > (r, c) {
                    self.rho.swap(r * self.dim + c, pr * self.dim + pc);
                }
            }
        }
    }

    fn apply_channel(&mut self, q: usize, channel: &KrausChannel) {
        let s = channel.superoperator();
        let mask = 1usize << q;
        for r in 0..self.dim {
            if r & mask != 0 {
                continue;
            }
            let r1 = r | mask;
            for c in 0..self.dim {
                if c & mask != 0 {
                    continue;
                }
                let c1 = c | mask;
                let block = Mat2::new([
                    self.rho[r * self.dim + c],
                    self.rho[r * self.dim + c1],
                    self.rho[r1 * self.dim + c],
                    self.rho[r1 * self.dim + c1],
                ]);
                let out = apply_superoperator(&s, &block);
                self.rho[r * self.dim + c] = out.m[0];
                self.rho[r * self.dim + c1] = out.m[1];
                self.rho[r1 * self.dim + c] = out.m[2];
                self.rho[r1 * self.dim + c1] = out.m[3];
            }
        }
    }

    fn apply_depolarizing_1q(&mut self, q: usize, p: f64) {
        if p == 0.0 {
            return;
        }
        let keep = 1.0 - 4.0 * p / 3.0;
        let mix = 2.0 * p / 3.0;
        let mask = 1usize << q;
        for r in 0..self.dim {
            if r & mask != 0 {
                continue;
            }
            let r1 = r | mask;
            for c in 0..self.dim {
                if c & mask != 0 {
                    continue;
                }
                let c1 = c | mask;
                let (d0, d1) = (r * self.dim + c, r1 * self.dim + c1);
                let t = (self.rho[d0] + self.rho[d1]) * mix;
                self.rho[d0] = self.rho[d0] * keep + t;
                self.rho[d1] = self.rho[d1] * keep + t;
                self.rho[r * self.dim + c1] *= keep;
                self.rho[r1 * self.dim + c] *= keep;
            }
        }
    }

    fn apply_depolarizing_2q(&mut self, a: usize, b: usize, p: f64) {
        if p == 0.0 {
            return;
        }
        let mix = 16.0 * p / 15.0;
        let keep = 1.0 - mix;
        let ma = 1usize << a;
        let mb = 1usize << b;
        let pair = [0usize, ma, mb, ma | mb];
        let dim = self.dim;
        for r_base in 0..dim {
            if r_base & (ma | mb) != 0 {
                continue;
            }
            for c_base in 0..dim {
                if c_base & (ma | mb) != 0 {
                    continue;
                }
                let mut avg = Complex::ZERO;
                for &x in &pair {
                    avg += self.rho[(r_base | x) * dim + (c_base | x)];
                }
                avg *= 0.25;
                for &ra in &pair {
                    for &ca in &pair {
                        let e = &mut self.rho[(r_base | ra) * dim + (c_base | ca)];
                        *e *= keep;
                        if ra == ca {
                            *e += avg * mix;
                        }
                    }
                }
            }
        }
    }

    fn apply_gate(&mut self, gate: &Gate) {
        match *gate {
            Gate::Cx(c, t) => self.apply_cx(c, t),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            Gate::Measure(_) => {}
            ref g => self.apply_mat2(g.qubits()[0], &g.matrix_1q().unwrap()),
        }
    }
}

/// The reference noisy executor: one pass per gate and per channel, in
/// the documented order, counting the report as it goes.
fn reference_run_noisy(circuit: &Circuit, noise: &NoiseModel) -> (Reference, NoisyRunReport) {
    let n = circuit.num_qubits();
    let mut rho = Reference::zero_state(n);
    let mut report = NoisyRunReport::default();
    let relax = |t: f64| {
        noise
            .relaxation
            .map(|r| (KrausChannel::thermal_relaxation(t, r.t1, r.t2), t))
    };
    let relax_1q = noise.relaxation.and_then(|r| relax(r.t_1q));
    let relax_2q = noise.relaxation.and_then(|r| relax(r.t_2q));
    let relax_meas = noise.relaxation.and_then(|r| relax(r.t_meas));
    let meas_flip = (noise.meas_flip > 0.0).then(|| KrausChannel::bit_flip(noise.meas_flip));
    for layer in layer_circuit(circuit) {
        report.layers += 1;
        let mut busy = vec![false; n];
        let mut duration: f64 = 0.0;
        for g in &layer {
            for q in g.qubits() {
                busy[q] = true;
            }
            match *g {
                Gate::Measure(q) => {
                    if let Some((ch, t)) = &relax_meas {
                        rho.apply_channel(q, ch);
                        report.channel_applications += 1;
                        duration = duration.max(*t);
                    }
                    if let Some(ch) = &meas_flip {
                        rho.apply_channel(q, ch);
                        report.channel_applications += 1;
                    }
                }
                ref g if g.is_two_qubit() => {
                    rho.apply_gate(g);
                    let qs = g.qubits();
                    if noise.depol_2q > 0.0 {
                        rho.apply_depolarizing_2q(qs[0], qs[1], noise.depol_2q);
                        report.channel_applications += 1;
                    }
                    if let Some((ch, t)) = &relax_2q {
                        for &q in &qs {
                            rho.apply_channel(q, ch);
                            report.channel_applications += 1;
                        }
                        duration = duration.max(*t);
                    }
                }
                ref g => {
                    rho.apply_gate(g);
                    let q = g.qubits()[0];
                    let is_rz_like = matches!(g, Gate::Rz(..)) && !g.is_clifford(1e-9);
                    let is_xy = matches!(g, Gate::Rx(..) | Gate::Ry(..)) && !g.is_clifford(1e-9);
                    let p = if is_rz_like {
                        noise.depol_rz
                    } else if is_xy {
                        noise.depol_rot_xy
                    } else {
                        noise.depol_1q
                    };
                    if p > 0.0 {
                        rho.apply_depolarizing_1q(q, p);
                        report.channel_applications += 1;
                    }
                    if let Some((ch, t)) = &relax_1q {
                        if !matches!(g, Gate::Rz(..)) {
                            rho.apply_channel(q, ch);
                            report.channel_applications += 1;
                            duration = duration.max(*t);
                        }
                    }
                }
            }
        }
        if noise.relaxation.is_some() || noise.idle_depol > 0.0 {
            for q in (0..n).filter(|&q| !busy[q]) {
                report.idle_slots += 1;
                if let (Some(r), true) = (noise.relaxation, duration > 0.0) {
                    let ch = KrausChannel::thermal_relaxation(duration, r.t1, r.t2);
                    rho.apply_channel(q, &ch);
                    report.channel_applications += 1;
                }
                if noise.idle_depol > 0.0 {
                    rho.apply_depolarizing_1q(q, noise.idle_depol);
                    report.channel_applications += 1;
                }
            }
        }
    }
    (rho, report)
}

/// Asserts every entry of `dm` equals the reference bit for bit.
fn assert_bits_eq(dm: &DensityMatrix, reference: &Reference, context: &str) {
    assert_eq!(dm.num_qubits(), reference.n);
    let dim = reference.dim;
    for r in 0..dim {
        for c in 0..dim {
            let (got, want) = (dm.entry(r, c), reference.rho[r * dim + c]);
            assert!(
                got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                "{context}: entry ({r},{c}) is {got:?}, reference {want:?}"
            );
        }
    }
}

/// A rotation angle: a Clifford multiple of π/2 (signed zeros and exact
/// cancellations) a third of the time, otherwise generic.
fn angle(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(1.0 / 3.0) {
        FRAC_PI_2 * rng.gen_range(-4i64..=4) as f64
    } else {
        rng.gen_range(-PI..PI)
    }
}

/// A random gate of any variant on an `n`-qubit register (two-qubit
/// gates in both qubit orders; measurements only when `measure`).
fn random_gate(rng: &mut StdRng, n: usize, measure: bool) -> Gate {
    let q = rng.gen_range(0..n);
    let kinds = if n >= 2 { 15 } else { 12 };
    loop {
        let g = match rng.gen_range(0..kinds) {
            0 => Gate::H(q),
            1 => Gate::S(q),
            2 => Gate::Sdg(q),
            3 => Gate::X(q),
            4 => Gate::Y(q),
            5 => Gate::Z(q),
            6 => Gate::T(q),
            7 => Gate::Tdg(q),
            8 => Gate::Rz(q, angle(rng).into()),
            9 => Gate::Rx(q, angle(rng).into()),
            10 => Gate::Ry(q, angle(rng).into()),
            11 if measure => Gate::Measure(q),
            11 => continue,
            k => {
                let other = (q + rng.gen_range(1..n)) % n;
                match k {
                    12 => Gate::Cx(q, other),
                    13 => Gate::Cz(q, other),
                    _ => Gate::Swap(q, other),
                }
            }
        };
        return g;
    }
}

fn random_circuit(rng: &mut StdRng, n: usize, len: usize, measure: bool) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..len {
        c.push(random_gate(rng, n, measure));
    }
    c
}

#[test]
fn every_gate_matches_the_reference_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..120 {
        let n = rng.gen_range(1..=7usize);
        let len = if n == 7 { 12 } else { 30 };
        let circuit = random_circuit(&mut rng, n, len, false);
        let mut dm = DensityMatrix::zero_state(n);
        let mut reference = Reference::zero_state(n);
        for (i, g) in circuit.gates().iter().enumerate() {
            dm.apply_gate(g);
            reference.apply_gate(g);
            assert_bits_eq(
                &dm,
                &reference,
                &format!("trial {trial} (n={n}) gate {i} {g}"),
            );
        }
        assert_eq!(dm, DensityMatrix::from_circuit(&circuit));
    }
}

#[test]
fn every_channel_matches_the_reference_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(12);
    for trial in 0..120 {
        let n = rng.gen_range(1..=7usize);
        let prefix = random_circuit(&mut rng, n, if n == 7 { 8 } else { 16 }, false);
        let mut dm = DensityMatrix::from_circuit(&prefix);
        let mut reference = Reference::zero_state(n);
        for g in prefix.gates() {
            reference.apply_gate(g);
        }
        for step in 0..8 {
            let q = rng.gen_range(0..n);
            let p = rng.gen_range(0.0..0.5);
            let label = match rng.gen_range(0..8) {
                0..=2 => {
                    // Gate windows, idle windows and the empty window.
                    let t = [0.0, 35.0, 300.0, 700.0, 4321.5][rng.gen_range(0..5usize)];
                    let t1 = rng.gen_range(50.0..500.0);
                    let t2 = rng.gen_range(10.0..2.0 * t1);
                    let ch = KrausChannel::thermal_relaxation(t, t1, t2);
                    dm.apply_channel(q, &ch);
                    reference.apply_channel(q, &ch);
                    format!("thermal_relaxation({t}, {t1}, {t2})")
                }
                3 => {
                    let ch = [
                        KrausChannel::bit_flip(p),
                        KrausChannel::amplitude_damping(p),
                        KrausChannel::phase_damping(p),
                        KrausChannel::depolarizing(p),
                    ];
                    let k = rng.gen_range(0..ch.len());
                    dm.apply_channel(q, &ch[k]);
                    reference.apply_channel(q, &ch[k]);
                    format!("channel {k} p={p}")
                }
                4 | 5 => {
                    dm.apply_depolarizing_1q(q, p);
                    reference.apply_depolarizing_1q(q, p);
                    format!("depolarizing_1q({q}, {p})")
                }
                _ if n >= 2 => {
                    let b = (q + rng.gen_range(1..n)) % n;
                    dm.apply_depolarizing_2q(q, b, p);
                    reference.apply_depolarizing_2q(q, b, p);
                    format!("depolarizing_2q({q}, {b}, {p})")
                }
                _ => continue,
            };
            assert_bits_eq(
                &dm,
                &reference,
                &format!("trial {trial} (n={n}) step {step} {label}"),
            );
        }
    }
}

/// Every knob of the noise model on, with relaxation and `idle_depol`
/// together.
fn all_knobs(rng: &mut StdRng) -> NoiseModel {
    let t1 = rng.gen_range(2_000.0..100_000.0);
    NoiseModel {
        depol_1q: rng.gen_range(0.0..0.05),
        depol_2q: rng.gen_range(0.0..0.1),
        depol_rz: rng.gen_range(0.0..0.05),
        depol_rot_xy: rng.gen_range(0.0..0.05),
        meas_flip: rng.gen_range(0.0..0.2),
        idle_depol: rng.gen_range(0.0..0.02),
        relaxation: Some(Relaxation {
            t1,
            t2: rng.gen_range(100.0..2.0 * t1),
            t_1q: 35.0,
            t_2q: 300.0,
            t_meas: 700.0,
        }),
    }
}

#[test]
fn run_noisy_matches_the_reference_executor_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut pqec_like = all_knobs(&mut rng);
    pqec_like.relaxation = None;
    let mut nisq_like = all_knobs(&mut rng);
    nisq_like.idle_depol = 0.0;
    nisq_like.depol_rz = 0.0;
    for trial in 0..90 {
        let n = rng.gen_range(1..=7usize);
        let len = if n == 7 { 14 } else { 36 };
        let circuit = random_circuit(&mut rng, n, len, true);
        let noise = match trial % 4 {
            0 => pqec_like.clone(),
            1 => nisq_like.clone(),
            2 => NoiseModel::noiseless(),
            _ => all_knobs(&mut rng),
        };
        let (dm, report) = run_noisy(&circuit, &noise);
        let (reference, want) = reference_run_noisy(&circuit, &noise);
        assert_bits_eq(&dm, &reference, &format!("trial {trial} (n={n}) {noise:?}"));
        assert_eq!(report, want, "trial {trial} report");
    }
}

#[test]
fn run_noisy_matches_the_reference_on_the_paper_ansatz() {
    // The figures' workload: FCHE circuits (Rx, Rz, CX cascades) under
    // NISQ-style relaxation and pQEC-style depolarizing.
    let mut rng = StdRng::seed_from_u64(14);
    let nisq = NoiseModel {
        depol_1q: 1e-4,
        depol_2q: 1e-3,
        depol_rz: 0.0,
        depol_rot_xy: 1e-4,
        meas_flip: 0.0,
        idle_depol: 0.0,
        relaxation: Some(Relaxation::superconducting_defaults()),
    };
    let pqec = NoiseModel {
        depol_1q: 2e-6,
        depol_2q: 2e-6,
        depol_rz: 3e-4,
        depol_rot_xy: 3e-4,
        meas_flip: 0.0,
        idle_depol: 2e-6,
        relaxation: None,
    };
    for n in 2..=6 {
        let ansatz = eftq_circuit::ansatz::fully_connected_hea(n, 1);
        for _ in 0..4 {
            let params: Vec<f64> = (0..ansatz.num_params()).map(|_| angle(&mut rng)).collect();
            let circuit = ansatz.bind(&params);
            for noise in [&nisq, &pqec] {
                let (dm, report) = run_noisy(&circuit, noise);
                let (reference, want) = reference_run_noisy(&circuit, noise);
                assert_bits_eq(&dm, &reference, &format!("fche n={n}"));
                assert_eq!(report, want);
            }
        }
    }
}
