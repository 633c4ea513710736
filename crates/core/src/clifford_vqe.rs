//! The Clifford-restricted VQE at scale (Figures 12 and 14).
//!
//! Section 5.2.2: rotation angles are constrained to multiples of π/2,
//! turning the ansatz into a Clifford circuit; a genetic algorithm
//! searches the discrete parameter space, and each candidate's energy is a
//! Monte-Carlo average of stabilizer expectations under the regime's Pauli
//! noise. The reference energy `E₀` for γ at 16+ qubits is the lowest
//! *noiseless* stabilizer energy found, exactly as the paper does
//! (Section 5.3.1).

use crate::regimes::ExecutionRegime;
use eftq_circuit::Ansatz;
use eftq_numerics::SeedSequence;
use eftq_optim::genetic::{minimize_genetic, GeneticConfig};
use eftq_pauli::PauliSum;
use eftq_stabilizer::{
    estimate_energy, estimate_energy_program_grouped, estimate_energy_threaded, GroupedObservable,
    NoiseTemplate, StabilizerNoise,
};

/// Configuration of a Clifford VQE run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CliffordVqeConfig {
    /// Genetic-search settings.
    pub ga: GeneticConfig,
    /// Monte-Carlo shots per energy evaluation.
    pub shots: usize,
    /// Root seed (feeds both GA and noise sampling).
    pub seed: u64,
}

impl Default for CliffordVqeConfig {
    fn default() -> Self {
        CliffordVqeConfig {
            ga: GeneticConfig {
                population: 24,
                generations: 30,
                ..GeneticConfig::default()
            },
            shots: 16,
            seed: 0xc11f_f0ed,
        }
    }
}

/// Outcome of a Clifford VQE run.
#[derive(Clone, Debug, PartialEq)]
pub struct CliffordVqeOutcome {
    /// Best (lowest) noisy energy found.
    pub best_energy: f64,
    /// The winning discrete parameter vector (`k` multipliers of π/2).
    pub best_genome: Vec<u8>,
    /// Best-so-far energy per generation.
    pub history: Vec<f64>,
}

/// Runs the genetic Clifford VQE under a stabilizer noise model.
///
/// The circuit + noise model compile *once* into a
/// [`NoiseTemplate`] before the search starts: every genome shares the
/// ansatz structure (layering, injection sites, probability classes), so
/// the per-genome fitness only binds the genome's quarter turns — see
/// [`clifford_vqe_with_template`] to share that compilation across
/// several searches (e.g. a sweep's grid points).
///
/// # Panics
///
/// Panics on ansatz/observable size mismatch.
pub fn clifford_vqe(
    ansatz: &Ansatz,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    config: &CliffordVqeConfig,
) -> CliffordVqeOutcome {
    let template = NoiseTemplate::compile(ansatz.circuit(), noise);
    clifford_vqe_with_template(ansatz, observable, &template, config)
}

/// [`clifford_vqe`] with a *precompiled* noise template — the entry
/// point when many searches share one (ansatz structure, noise)
/// compilation, e.g. across the grid points and regimes of a sweep (key
/// it by [`NoiseTemplate::cache_key`] in an
/// `eftq_sweep::ArtifactCache`). Bit-identical to [`clifford_vqe`] on
/// the noise model the template was compiled from.
///
/// # Panics
///
/// Panics on ansatz/observable/template size mismatch.
pub fn clifford_vqe_with_template(
    ansatz: &Ansatz,
    observable: &PauliSum,
    template: &NoiseTemplate,
    config: &CliffordVqeConfig,
) -> CliffordVqeOutcome {
    assert_eq!(
        ansatz.num_qubits(),
        observable.num_qubits(),
        "ansatz/observable size mismatch"
    );
    assert_eq!(
        ansatz.num_qubits(),
        template.num_qubits(),
        "ansatz/template size mismatch"
    );
    let seeds = SeedSequence::new(config.seed);
    let shot_seed = seeds.derive("shots");
    let ga = GeneticConfig {
        seed: seeds.derive("ga").seed(),
        ..config.ga
    };
    let shots = config.shots.max(1);
    // Compile the term rows once: every fitness evaluation shares them
    // (like the noise template). The bound program's sign-exact tape
    // stands in for the bound circuit, which the estimator only
    // size-checks, so no per-genome `Circuit` is built.
    let grouped = GroupedObservable::compile(observable);
    let result = minimize_genetic(ansatz.num_params(), &ga, |genome| {
        let program = template.bind_clifford(genome);
        estimate_energy_program_grouped(
            ansatz.circuit(),
            observable,
            &grouped,
            &program,
            template.meas_flip(),
            shots,
            shot_seed,
            1,
        )
        .energy
    });
    CliffordVqeOutcome {
        best_energy: result.best_fitness,
        best_genome: result.best_genome,
        history: result.history,
    }
}

/// Runs the Clifford VQE under an execution regime's noise.
pub fn clifford_vqe_in_regime(
    ansatz: &Ansatz,
    observable: &PauliSum,
    regime: &ExecutionRegime,
    config: &CliffordVqeConfig,
) -> CliffordVqeOutcome {
    clifford_vqe(ansatz, observable, &regime.stabilizer_noise(), config)
}

/// The lowest *noiseless* Clifford (stabilizer-state) energy found by the
/// genetic search — the paper's `E₀` proxy for 16+ qubit systems
/// (Section 5.3.1).
pub fn noiseless_reference_energy(
    ansatz: &Ansatz,
    observable: &PauliSum,
    config: &CliffordVqeConfig,
) -> f64 {
    clifford_vqe(ansatz, observable, &StabilizerNoise::noiseless(), config).best_energy
}

/// Unbiased noisy energy of one genome with an independent, larger shot
/// budget. Use this to re-evaluate a GA winner: the search itself sees
/// few-shot estimates and exploits their sampling noise, so the winning
/// *estimate* is optimistically biased — re-evaluation removes the bias.
///
/// Re-evaluation is a single large estimate, so — unlike the search,
/// where the GA parallelizes across genomes — the sampling of its shot
/// batches shards across `threads` workers (pass the GA's `threads`
/// knob). The
/// result is bit-identical for every `threads` value.
pub fn reevaluate_genome(
    ansatz: &Ansatz,
    observable: &PauliSum,
    noise: &StabilizerNoise,
    genome: &[u8],
    shots: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    let circuit = ansatz.bind_clifford(genome);
    estimate_energy_threaded(
        &circuit,
        observable,
        noise,
        shots,
        SeedSequence::new(seed).derive("reeval"),
        threads,
    )
    .energy
}

/// Exact noiseless energy of one genome (single deterministic shot).
pub fn genome_energy(ansatz: &Ansatz, observable: &PauliSum, genome: &[u8]) -> f64 {
    let circuit = ansatz.bind_clifford(genome);
    estimate_energy(
        &circuit,
        observable,
        &StabilizerNoise::noiseless(),
        1,
        SeedSequence::new(0),
    )
    .energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonians;
    use eftq_circuit::ansatz::{blocked_all_to_all, fully_connected_hea, linear_hea};

    fn quick() -> CliffordVqeConfig {
        // The frame-batched estimator makes shots nearly free, so the
        // quick config can afford enough of them that few-shot sampling
        // luck does not dominate the search.
        CliffordVqeConfig {
            ga: GeneticConfig {
                population: 16,
                generations: 20,
                ..GeneticConfig::default()
            },
            shots: 16,
            ..CliffordVqeConfig::default()
        }
    }

    #[test]
    fn finds_good_clifford_state_for_ising() {
        // J = 0.25 Ising: the product ground state |1…1⟩ is a stabilizer
        // state with energy close to the true ground energy.
        let h = hamiltonians::ising_1d(6, 0.25);
        let a = linear_hea(6, 1);
        let e_ref = noiseless_reference_energy(&a, &h, &quick());
        let e0 = h.ground_energy_default().unwrap();
        // Clifford states reach most of the gap for weakly coupled Ising.
        assert!(e_ref < -(0.8 * e0.abs()) + 0.0, "{e_ref} vs {e0}");
        assert!(e_ref >= e0 - 1e-9);
    }

    #[test]
    fn noisy_energy_is_above_noiseless() {
        // The *unbiased* noisy energy of the NISQ winner sits at or above
        // that genome's own noiseless energy (the raw search estimate may
        // dip below it — minimizing over few-shot estimates exploits
        // sampling noise; and a noisy search may find a genome the exact
        // noiseless search missed, so the floor is per-genome).
        let h = hamiltonians::ising_1d(6, 0.5);
        let a = linear_hea(6, 1);
        let noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let nisq = clifford_vqe(&a, &h, &noise, &quick());
        let floor = noiseless_reference_energy(&a, &h, &quick()).min(genome_energy(
            &a,
            &h,
            &nisq.best_genome,
        ));
        let honest = reevaluate_genome(&a, &h, &noise, &nisq.best_genome, 512, 23, 2);
        assert!(honest >= floor - 0.2, "{honest} vs {floor}");
    }

    #[test]
    fn pqec_beats_nisq_on_heisenberg() {
        // Figure 12's mechanism at 8 qubits: pQEC's noise floor degrades a
        // good candidate far less than NISQ's. Both regimes evaluate the
        // *same* genome — the best one any search found — so the
        // comparison isolates the regimes' noise, not search luck.
        let h = hamiltonians::heisenberg_1d(8, 1.0);
        let a = fully_connected_hea(8, 1);
        let cfg = quick();
        let pqec = clifford_vqe_in_regime(&a, &h, &ExecutionRegime::pqec_default(), &cfg);
        let nisq = clifford_vqe_in_regime(&a, &h, &ExecutionRegime::nisq_default(), &cfg);
        let best = if genome_energy(&a, &h, &pqec.best_genome)
            <= genome_energy(&a, &h, &nisq.best_genome)
        {
            pqec.best_genome
        } else {
            nisq.best_genome
        };
        let e_pqec = reevaluate_genome(
            &a,
            &h,
            &ExecutionRegime::pqec_default().stabilizer_noise(),
            &best,
            512,
            19,
            1,
        );
        let e_nisq = reevaluate_genome(
            &a,
            &h,
            &ExecutionRegime::nisq_default().stabilizer_noise(),
            &best,
            512,
            19,
            1,
        );
        assert!(e_pqec < e_nisq, "pQEC {e_pqec} vs NISQ {e_nisq}");
    }

    #[test]
    fn blocked_ansatz_runs_in_clifford_mode() {
        let h = hamiltonians::ising_1d(8, 1.0);
        let a = blocked_all_to_all(8, 1);
        let out = clifford_vqe_in_regime(&a, &h, &ExecutionRegime::pqec_default(), &quick());
        assert!(out.best_energy.is_finite());
        assert_eq!(out.best_genome.len(), a.num_params());
    }

    #[test]
    fn genome_energy_matches_outcome() {
        let h = hamiltonians::ising_1d(4, 0.5);
        let a = linear_hea(4, 1);
        let out = clifford_vqe(
            &a,
            &h,
            &eftq_stabilizer::StabilizerNoise::noiseless(),
            &quick(),
        );
        let direct = genome_energy(&a, &h, &out.best_genome);
        assert!((out.best_energy - direct).abs() < 1e-12);
    }

    #[test]
    fn reevaluation_is_unbiased_vs_search_estimate() {
        let h = hamiltonians::heisenberg_1d(6, 1.0);
        let a = linear_hea(6, 1);
        let noise = ExecutionRegime::nisq_default().stabilizer_noise();
        let out = clifford_vqe(&a, &h, &noise, &quick());
        let reeval = reevaluate_genome(&a, &h, &noise, &out.best_genome, 200, 7, 1);
        // The few-shot search estimate is optimistically biased: the
        // honest re-evaluation is typically higher (never dramatically
        // lower).
        assert!(
            reeval >= out.best_energy - 0.5,
            "{reeval} vs {}",
            out.best_energy
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let h = hamiltonians::ising_1d(4, 1.0);
        let a = linear_hea(4, 1);
        let x = clifford_vqe_in_regime(&a, &h, &ExecutionRegime::nisq_default(), &quick());
        let y = clifford_vqe_in_regime(&a, &h, &ExecutionRegime::nisq_default(), &quick());
        assert_eq!(x.best_energy, y.best_energy);
        assert_eq!(x.best_genome, y.best_genome);
    }
}
