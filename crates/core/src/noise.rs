//! Depolarizing noise as Pauli-twirled stochastic trajectories.
//!
//! A depolarizing channel of strength `p` after each gate is simulated
//! by its Pauli twirl: with probability `p`, inject a uniformly random
//! X/Y/Z on each qubit the gate touched. Averaging measurement
//! statistics over trajectories converges to the channel's output.
//!
//! The load-bearing design point is **plan-once**: every trajectory
//! shares one [`CircuitFingerprint`] and therefore one compiled plan.
//! [`noisy_template`] inserts an identity [`PauliNoise`] slot after
//! each gate on each touched qubit; [`trajectory`] re-draws only the
//! slot *selectors* via [`Circuit::map_params`], and `PauliNoise`'s
//! insularity is selector-independent by construction (see
//! `atlas_circuit::insular`), so the structural fingerprint never
//! moves. A noisy N-trajectory sweep pays PARTITION exactly once, on
//! any backend.
//!
//! Determinism: trajectory `i`'s selector draws come from
//! `CounterRng::new(seed).split(SELECTOR_STREAM).split(i)` and its
//! sampling seed from `CounterRng::new(seed).split(SAMPLE_STREAM)
//! .u64_at(i)` — pure functions of `(seed, i)`, independent of thread
//! count, shard layout and serve-pool worker count.
//!
//! [`CircuitFingerprint`]: crate::session::CircuitFingerprint
//! [`PauliNoise`]: GateKind::PauliNoise

use crate::backend::{BackendPlan, BackendRun};
use atlas_circuit::{Circuit, GateKind};
use atlas_error::AtlasError;
use atlas_sampler::CounterRng;
use std::collections::BTreeMap;

/// RNG stream tag for per-trajectory Pauli selector draws.
const SELECTOR_STREAM: u64 = 0x6e6f_6973; // "nois"
/// RNG stream tag for per-trajectory sampling seeds.
const SAMPLE_STREAM: u64 = 0x7368_6f74; // "shot"

/// Builds the noisy template of `circuit`: after every gate, one
/// identity `PauliNoise(0)` slot per touched qubit. The template is
/// what gets planned; trajectories only re-parameterize it.
pub fn noisy_template(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::named(circuit.num_qubits(), format!("{}_noisy", circuit.name()));
    for g in circuit.gates() {
        out.push(*g);
        for q in g.qubits.iter() {
            out.add(GateKind::PauliNoise(0.0), &[q]);
        }
    }
    out
}

/// Instantiates trajectory `traj` of a noisy template: each `PauliNoise`
/// slot draws, from the pure function of `(seed, traj, slot index)`,
/// either the identity (probability `1 − noise`) or a uniform X/Y/Z.
/// All other gate parameters pass through untouched.
pub fn trajectory(template: &Circuit, noise: f64, seed: u64, traj: u64) -> Circuit {
    let rng = CounterRng::new(seed).split(SELECTOR_STREAM).split(traj);
    let mut slot = 0u64;
    template.map_params(|gi, _, p| {
        if !matches!(template.gates()[gi].kind, GateKind::PauliNoise(_)) {
            return p;
        }
        let k = slot;
        slot += 1;
        if rng.f64_at(2 * k) < noise {
            // 1 = X, 2 = Y, 3 = Z, uniformly.
            1.0 + (rng.u64_at(2 * k + 1) % 3) as f64
        } else {
            0.0
        }
    })
}

/// Aggregated output of a noisy trajectory sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NoisyOutcome {
    /// Shot counts per bit-packed outcome, ascending by bitstring —
    /// summed across all trajectories.
    pub counts: Vec<(Vec<u64>, u64)>,
    /// Trajectories executed.
    pub trajectories: usize,
    /// Total shots drawn (across trajectories).
    pub shots: usize,
}

/// Runs a noisy sweep through one compiled plan: `trajectories`
/// re-parameterizations of `template` (from the plan's config), each
/// executed under `plan` and sampled for its share of
/// `shots` (trajectory `t` gets `shots/k` plus one of the remainder).
///
/// Errors with [`AtlasError::InvalidConfig`] if the plan's config has
/// `noise = 0` — build the plan from a config with `noise > 0`.
pub fn run_noisy(
    plan: &BackendPlan,
    template: &Circuit,
    shots: usize,
) -> Result<NoisyOutcome, AtlasError> {
    let cfg = plan.config().clone();
    if cfg.noise == 0.0 {
        return Err(AtlasError::invalid_config(
            "run_noisy needs a plan compiled with noise > 0",
        ));
    }
    let k = cfg.trajectories.max(1);
    let sample_seeds = CounterRng::new(cfg.seed).split(SAMPLE_STREAM);
    let mut counts: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
    for t in 0..k {
        let traj_shots = shots / k + usize::from(t < shots % k);
        if traj_shots == 0 {
            continue;
        }
        let circuit = trajectory(template, cfg.noise, cfg.seed, t as u64);
        let run: BackendRun = plan.run(&circuit)?;
        for s in run.sample_words(traj_shots, sample_seeds.u64_at(t as u64)) {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    Ok(NoisyOutcome {
        counts: counts.into_iter().collect(),
        trajectories: k,
        shots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AtlasConfig, BackendKind};
    use crate::session::{CircuitFingerprint, Planner};
    use atlas_circuit::generators;
    use atlas_machine::{CostModel, MachineSpec};

    fn noisy_planner(backend: BackendKind, noise: f64, seed: u64) -> Planner {
        let cfg = AtlasConfig {
            backend,
            noise,
            trajectories: 6,
            seed,
            ..AtlasConfig::default()
        };
        Planner::new(MachineSpec::single_gpu(5), CostModel::default(), cfg)
    }

    #[test]
    fn template_inserts_one_slot_per_touched_qubit() {
        let c = generators::ghz(5); // 1 H + 4 CX = 1 + 4·2 = 9 slots
        let t = noisy_template(&c);
        assert_eq!(t.num_gates(), c.num_gates() + 9);
        let slots = t
            .gates()
            .iter()
            .filter(|g| matches!(g.kind, GateKind::PauliNoise(_)))
            .count();
        assert_eq!(slots, 9);
    }

    #[test]
    fn trajectories_share_the_template_fingerprint() {
        let t = noisy_template(&generators::qaoa(6));
        let base = CircuitFingerprint::of(&t);
        for traj in 0..8 {
            let c = trajectory(&t, 0.3, 11, traj);
            assert_eq!(
                CircuitFingerprint::of(&c),
                base,
                "trajectory {traj} broke plan-once"
            );
        }
    }

    #[test]
    fn trajectory_draws_are_pure_functions_of_seed_and_index() {
        let t = noisy_template(&generators::clifford(4));
        let a = trajectory(&t, 0.2, 7, 3);
        let b = trajectory(&t, 0.2, 7, 3);
        assert_eq!(a.gates().len(), b.gates().len());
        for (x, y) in a.gates().iter().zip(b.gates()) {
            assert_eq!(x.kind.params(), y.kind.params());
        }
        // A different trajectory index draws differently somewhere.
        let c = trajectory(&t, 0.9, 7, 4);
        let differs = a
            .gates()
            .iter()
            .zip(c.gates())
            .any(|(x, y)| x.kind.params() != y.kind.params());
        assert!(differs);
    }

    #[test]
    fn zero_noise_trajectory_is_all_identity() {
        let t = noisy_template(&generators::ghz(4));
        let c = trajectory(&t, 0.0, 5, 0);
        for g in c.gates() {
            if let GateKind::PauliNoise(sel) = g.kind {
                assert_eq!(sel, 0.0);
            }
        }
    }

    #[test]
    fn noisy_sweep_is_deterministic_and_plan_once() {
        let template = noisy_template(&generators::ghz(6));
        let planner = noisy_planner(BackendKind::Auto, 0.1, 13);
        let plan = planner.plan_backend(&template).unwrap();
        // GHZ + Pauli noise is all-Clifford: the tableau runs it.
        assert_eq!(plan.backend_name(), "stabilizer");
        let a = run_noisy(&plan, &template, 100).unwrap();
        let b = run_noisy(&plan, &template, 100).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.shots, 100);
        assert_eq!(a.trajectories, 6);
        assert_eq!(a.counts.iter().map(|(_, c)| c).sum::<u64>(), 100);
        // Noise must actually corrupt some shots at p = 0.1 over 9
        // slots: the noiseless GHZ support is exactly {0…0, 1…1}.
        assert!(a.counts.len() > 2, "expected corrupted outcomes");
    }

    #[test]
    fn statevec_and_stabilizer_agree_on_noisy_trajectory_distributions() {
        // Shot-level draws are engine-specific (inverse-CDF vs
        // measurement cascade), so the cross-engine contract is exact
        // distribution equality per trajectory, not byte-equal shots.
        let template = noisy_template(&generators::ghz(6));
        let sv_plan = noisy_planner(BackendKind::Statevec, 0.15, 21)
            .plan_backend(&template)
            .unwrap();
        let st_plan = noisy_planner(BackendKind::Stabilizer, 0.15, 21)
            .plan_backend(&template)
            .unwrap();
        for t in 0..4u64 {
            let c = trajectory(&template, 0.15, 21, t);
            let (a, b) = (sv_plan.run(&c).unwrap(), st_plan.run(&c).unwrap());
            for idx in 0..(1u64 << 6) {
                assert!(
                    (a.probability_of_bits(&[idx]) - b.probability_of_bits(&[idx])).abs() < 1e-9,
                    "trajectory {t}: p({idx}) differs"
                );
            }
        }
    }

    #[test]
    fn run_noisy_rejects_noiseless_plans() {
        let template = noisy_template(&generators::ghz(6));
        let planner = Planner::new(
            MachineSpec::single_gpu(5),
            CostModel::default(),
            AtlasConfig::default(),
        );
        let plan = planner.plan_backend(&template).unwrap();
        assert!(matches!(
            run_noisy(&plan, &template, 8),
            Err(AtlasError::InvalidConfig { .. })
        ));
    }
}
