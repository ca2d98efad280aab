//! Backend dispatch: one planning entry point
//! ([`Planner::plan_backend`]) and one way to run its result
//! ([`BackendPlan::run`]), over three engines.
//!
//! The session flow (plan once → execute many → sample/expect) is
//! engine-agnostic: what varies is *how* a circuit runs, not how plans
//! are keyed (the [`CircuitFingerprint`]) or how results are queried
//! (shots, Pauli expectations, basis-state probabilities). The
//! [`BackendPlan`] enum carries that flow and adds two engines next to
//! the sharded statevector:
//!
//! * **Stabilizer** ([`StabilizerPlan`]): all-Clifford circuits replay
//!   on the CHP tableau in polynomial time — thousands of qubits where
//!   the statevector engine caps at 63.
//! * **Hybrid** ([`HybridPlan`]): a circuit with a Clifford *prefix*
//!   fast-forwards the prefix on the tableau, converts the stabilizer
//!   state to amplitudes, and hands off to the statevector engine for
//!   the non-Clifford suffix — PARTITION only ever sees (and pays for)
//!   the suffix.
//!
//! [`BackendKind::Auto`] picks among them structurally; `Statevec` and
//! `Stabilizer` force an engine and fail with a typed
//! [`AtlasError::InvalidConfig`] when the circuit does not fit it.

use crate::config::{AtlasConfig, BackendKind};
use crate::session::{check_fingerprint, CircuitFingerprint, CompiledPlan, Execution, Planner};
use atlas_circuit::Circuit;
use atlas_error::AtlasError;
use atlas_sampler::{CounterRng, PauliString};
use atlas_stabilizer::Tableau;

/// Minimum Clifford-prefix length (in gates) for [`BackendKind::Auto`]
/// to choose the hybrid path: shorter prefixes are not worth the
/// tableau→statevector conversion.
pub const HYBRID_MIN_PREFIX: usize = 4;

/// Widest circuit the hybrid handoff accepts: the tableau→statevector
/// conversion materializes `2^n` amplitudes.
pub const HYBRID_MAX_QUBITS: u32 = 30;

/// A compiled stabilizer-backend plan: the fingerprint plus the run
/// configuration. There is no PARTITION stage — tableau replay needs no
/// staging, kernelization or machine shape — so "planning" is
/// fingerprinting, and [`BackendPlan::run`] replays the
/// (structure-matching) circuit on a fresh tableau.
#[derive(Clone, Debug)]
pub struct StabilizerPlan {
    fingerprint: CircuitFingerprint,
    cfg: AtlasConfig,
}

impl StabilizerPlan {
    /// Compiles a plan for `circuit` (which must be all-Clifford when
    /// later executed — checked at `run`, not here, since only the
    /// structure is captured).
    pub fn new(circuit: &Circuit, cfg: AtlasConfig) -> Self {
        StabilizerPlan {
            fingerprint: CircuitFingerprint::of(circuit),
            cfg,
        }
    }

    /// The configuration the plan runs under.
    pub fn config(&self) -> &AtlasConfig {
        &self.cfg
    }

    /// Replays a structure-matching circuit on a fresh tableau.
    fn run(&self, circuit: &Circuit) -> Result<BackendRun, AtlasError> {
        check_fingerprint(&self.fingerprint, circuit)?;
        let rec = &self.cfg.recorder;
        let t = rec.start();
        let tableau = Tableau::from_circuit(circuit)?;
        rec.span(
            "stabilizer.run",
            t,
            true,
            0,
            0,
            0,
            &[
                ("qubits", circuit.num_qubits() as u64),
                ("gates", circuit.num_gates() as u64),
            ],
        );
        let samples = (self.cfg.shots > 0).then(|| {
            let t = rec.start();
            let rng = CounterRng::new(self.cfg.seed);
            let samples = (0..self.cfg.shots as u64)
                .map(|shot| tableau.sample_words(&rng, shot))
                .collect();
            rec.span(
                "sample.draw",
                t,
                true,
                0,
                0,
                0,
                &[("shots", self.cfg.shots as u64), ("seed", self.cfg.seed)],
            );
            samples
        });
        rec.flush();
        Ok(BackendRun::Stabilizer(StabilizerRun { tableau, samples }))
    }
}

/// A hybrid plan: the circuit's Clifford prefix replays on the tableau,
/// its suffix runs under a statevector [`CompiledPlan`] seeded with the
/// converted prefix state. PARTITION ran on the suffix only.
#[derive(Clone, Debug)]
pub struct HybridPlan {
    fingerprint: CircuitFingerprint,
    prefix_len: usize,
    suffix: CompiledPlan,
}

impl HybridPlan {
    /// Number of leading gates handled by the tableau.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// The statevector plan covering the non-Clifford suffix.
    pub fn suffix_plan(&self) -> &CompiledPlan {
        &self.suffix
    }

    /// Replays the Clifford prefix on the tableau, then runs the suffix
    /// plan from the converted state.
    fn run(&self, circuit: &Circuit) -> Result<BackendRun, AtlasError> {
        check_fingerprint(&self.fingerprint, circuit)?;
        let (prefix, suffix) = split_circuit(circuit, self.prefix_len);
        let tableau = Tableau::from_circuit(&prefix)?;
        let state = tableau.to_statevector()?;
        let run = self.suffix.execute_with(&suffix, Some(&state), &|| false)?;
        Ok(BackendRun::Statevec(Box::new(
            run.expect("a never-stop probe cannot interrupt EXECUTE"),
        )))
    }
}

/// The dispatcher: whichever plan [`Planner::plan_backend`] chose.
#[derive(Clone, Debug)]
pub enum BackendPlan {
    /// The sharded statevector engine end to end.
    Statevec(CompiledPlan),
    /// The CHP tableau end to end.
    Stabilizer(StabilizerPlan),
    /// Tableau prefix, statevector suffix.
    Hybrid(HybridPlan),
}

impl BackendPlan {
    /// The configuration the plan runs under.
    pub fn config(&self) -> &AtlasConfig {
        match self {
            BackendPlan::Statevec(p) => p.config(),
            BackendPlan::Stabilizer(p) => p.config(),
            BackendPlan::Hybrid(p) => p.suffix.config(),
        }
    }

    /// The structural fingerprint this plan was compiled from.
    pub fn fingerprint(&self) -> &CircuitFingerprint {
        match self {
            BackendPlan::Statevec(p) => p.fingerprint(),
            BackendPlan::Stabilizer(p) => &p.fingerprint,
            BackendPlan::Hybrid(p) => &p.fingerprint,
        }
    }

    /// The CLI name of the engine that will run the circuit.
    pub fn backend_name(&self) -> &'static str {
        match self {
            BackendPlan::Statevec(_) => "statevec",
            BackendPlan::Stabilizer(_) => "stabilizer",
            BackendPlan::Hybrid(_) => "hybrid",
        }
    }

    /// Whether `circuit` may run under this plan (same structure, any
    /// gate parameters).
    pub fn accepts(&self, circuit: &Circuit) -> bool {
        CircuitFingerprint::of(circuit) == *self.fingerprint()
    }

    /// Executes a structure-matching circuit, returning the unified
    /// query surface; a structurally different circuit is rejected with
    /// [`AtlasError::PlanMismatch`] before any state is allocated.
    pub fn run(&self, circuit: &Circuit) -> Result<BackendRun, AtlasError> {
        match self {
            BackendPlan::Statevec(p) => Ok(BackendRun::Statevec(Box::new(p.execute(circuit)?))),
            BackendPlan::Stabilizer(p) => p.run(circuit),
            BackendPlan::Hybrid(p) => p.run(circuit),
        }
    }
}

/// A finished stabilizer-backend execution: the final tableau plus any
/// pre-drawn shots.
#[derive(Clone, Debug)]
pub struct StabilizerRun {
    /// The post-circuit tableau — every exact query runs against it.
    pub tableau: Tableau,
    /// Pre-drawn bit-packed shots when the config requested them.
    pub samples: Option<Vec<Vec<u64>>>,
}

/// One finished backend execution, queryable the same way regardless of
/// which engine produced it. Bitstrings are bit-packed `u64` words —
/// bit `q % 64` of word `q / 64` is qubit `q` — so results scale past
/// 64 qubits on the stabilizer side; statevector results always occupy
/// a single word.
#[derive(Debug)]
pub enum BackendRun {
    /// A statevector [`Execution`] (report, measurements engine, state).
    /// Boxed: an `Execution` is hundreds of bytes, a `StabilizerRun` a
    /// fraction of that, and runs are handled through `&self` queries.
    Statevec(Box<Execution>),
    /// A stabilizer [`StabilizerRun`].
    Stabilizer(StabilizerRun),
}

impl BackendRun {
    /// Words per bitstring for this run's width.
    pub fn num_words(&self) -> usize {
        match self {
            BackendRun::Statevec(_) => 1,
            BackendRun::Stabilizer(r) => r.tableau.num_words(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        match self {
            BackendRun::Statevec(e) => e.measurements.num_qubits(),
            BackendRun::Stabilizer(r) => r.tableau.num_qubits() as u32,
        }
    }

    /// The underlying statevector execution, when there is one.
    pub fn as_execution(&self) -> Option<&Execution> {
        match self {
            BackendRun::Statevec(e) => Some(e),
            BackendRun::Stabilizer(_) => None,
        }
    }

    /// The pre-drawn shots from the run's config, as bit-packed words.
    pub fn samples_words(&self) -> Option<Vec<Vec<u64>>> {
        match self {
            BackendRun::Statevec(e) => e
                .samples
                .as_ref()
                .map(|s| s.iter().map(|&v| vec![v]).collect()),
            BackendRun::Stabilizer(r) => r.samples.clone(),
        }
    }

    /// Draws `shots` fresh samples with `seed` (shot `i` is a pure
    /// function of `(seed, i)` on both engines).
    pub fn sample_words(&self, shots: usize, seed: u64) -> Vec<Vec<u64>> {
        match self {
            BackendRun::Statevec(e) => e
                .measurements
                .sample(shots, seed)
                .into_iter()
                .map(|v| vec![v])
                .collect(),
            BackendRun::Stabilizer(r) => {
                let rng = CounterRng::new(seed);
                (0..shots as u64)
                    .map(|shot| r.tableau.sample_words(&rng, shot))
                    .collect()
            }
        }
    }

    /// The expectation `⟨ψ|P|ψ⟩` of a Pauli string over logical qubits.
    pub fn expectation(&self, p: &PauliString) -> f64 {
        match self {
            BackendRun::Statevec(e) => e.measurements.expectation(p),
            BackendRun::Stabilizer(r) => r.tableau.expectation(p),
        }
    }

    /// Probability of the basis state packed in `bits`.
    pub fn probability_of_bits(&self, bits: &[u64]) -> f64 {
        match self {
            BackendRun::Statevec(e) => e.measurements.probability(bits[0]),
            BackendRun::Stabilizer(r) => r.tableau.probability_of_bits(bits),
        }
    }

    /// Probability that measuring qubit `q` yields `1`.
    pub fn marginal_one(&self, q: u32) -> f64 {
        match self {
            BackendRun::Statevec(e) => e.measurements.marginal(&[q])[1],
            BackendRun::Stabilizer(r) => r.tableau.marginal_one_prob(q as usize),
        }
    }
}

/// Splits a circuit at gate index `k` into (prefix, suffix) circuits on
/// the same qubit count.
fn split_circuit(c: &Circuit, k: usize) -> (Circuit, Circuit) {
    let mut prefix = Circuit::named(c.num_qubits(), format!("{}_prefix", c.name()));
    let mut suffix = Circuit::named(c.num_qubits(), format!("{}_suffix", c.name()));
    for (i, g) in c.gates().iter().enumerate() {
        if i < k { &mut prefix } else { &mut suffix }.push(*g);
    }
    (prefix, suffix)
}

impl Planner {
    /// PARTITION with backend dispatch: compiles `circuit` for the
    /// engine selected by [`AtlasConfig::backend`].
    ///
    /// * `Auto` — all-Clifford circuits get a [`StabilizerPlan`];
    ///   circuits with a Clifford prefix of at least
    ///   [`HYBRID_MIN_PREFIX`] gates (and at most [`HYBRID_MAX_QUBITS`]
    ///   qubits) get a [`HybridPlan`] whose PARTITION covers only the
    ///   suffix; everything else gets the statevector [`CompiledPlan`].
    /// * `Statevec` — always the statevector plan; circuits wider than
    ///   63 qubits are rejected with [`AtlasError::InvalidConfig`].
    /// * `Stabilizer` — always the tableau; non-Clifford circuits are
    ///   rejected with [`AtlasError::InvalidConfig`] naming the first
    ///   offending gate.
    pub fn plan_backend(&self, circuit: &Circuit) -> Result<BackendPlan, AtlasError> {
        self.config().validate()?;
        match self.config().backend {
            BackendKind::Statevec => Ok(BackendPlan::Statevec(self.plan(circuit)?)),
            BackendKind::Stabilizer => {
                if !circuit.is_clifford() {
                    let at = circuit.clifford_prefix_len();
                    return Err(AtlasError::invalid_config(format!(
                        "backend = stabilizer requires an all-Clifford circuit, \
                         but gate {at} is '{}'; use backend = auto to dispatch \
                         mixed circuits",
                        circuit.gates()[at].kind.name()
                    )));
                }
                Ok(BackendPlan::Stabilizer(StabilizerPlan::new(
                    circuit,
                    self.config().clone(),
                )))
            }
            BackendKind::Auto => {
                if circuit.is_clifford() {
                    return Ok(BackendPlan::Stabilizer(StabilizerPlan::new(
                        circuit,
                        self.config().clone(),
                    )));
                }
                let prefix_len = circuit.clifford_prefix_len();
                if prefix_len >= HYBRID_MIN_PREFIX && circuit.num_qubits() <= HYBRID_MAX_QUBITS {
                    let (_, suffix) = split_circuit(circuit, prefix_len);
                    let suffix_plan = self.plan(&suffix)?;
                    return Ok(BackendPlan::Hybrid(HybridPlan {
                        fingerprint: CircuitFingerprint::of(circuit),
                        prefix_len,
                        suffix: suffix_plan,
                    }));
                }
                Ok(BackendPlan::Statevec(self.plan(circuit)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_circuit::generators;
    use atlas_machine::{CostModel, MachineSpec};
    use atlas_sampler::PauliOp;

    fn planner(backend: BackendKind) -> Planner {
        let cfg = AtlasConfig {
            backend,
            final_unpermute: true,
            ..AtlasConfig::default()
        };
        let spec = MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: 5,
        };
        Planner::new(spec, CostModel::default(), cfg)
    }

    #[test]
    fn auto_routes_clifford_circuits_to_the_tableau() {
        let c = generators::clifford(8);
        let plan = planner(BackendKind::Auto).plan_backend(&c).unwrap();
        assert!(matches!(plan, BackendPlan::Stabilizer(_)));
        assert_eq!(plan.backend_name(), "stabilizer");
        assert!(plan.accepts(&c));
    }

    #[test]
    fn auto_routes_nonclifford_to_statevec_or_hybrid() {
        // QAOA opens with a wall of H gates — a Clifford prefix — so it
        // dispatches to the hybrid plan.
        let qaoa = generators::qaoa(8);
        assert!(qaoa.clifford_prefix_len() >= HYBRID_MIN_PREFIX);
        let plan = planner(BackendKind::Auto).plan_backend(&qaoa).unwrap();
        assert!(
            matches!(plan, BackendPlan::Hybrid(_)),
            "{}",
            plan.backend_name()
        );
        // A circuit that opens non-Clifford goes straight to statevec.
        let mut c = Circuit::new(8);
        c.t(0);
        for q in 0..8 {
            c.h(q);
        }
        let plan = planner(BackendKind::Auto).plan_backend(&c).unwrap();
        assert!(matches!(plan, BackendPlan::Statevec(_)));
    }

    #[test]
    fn hybrid_run_matches_pure_statevec() {
        let c = generators::qaoa(8);
        let auto = planner(BackendKind::Auto).plan_backend(&c).unwrap();
        let sv = planner(BackendKind::Statevec).plan_backend(&c).unwrap();
        assert!(matches!(auto, BackendPlan::Hybrid(_)));
        let (ra, rs) = (auto.run(&c).unwrap(), sv.run(&c).unwrap());
        for q in 0..8 {
            assert!(
                (ra.marginal_one(q) - rs.marginal_one(q)).abs() < 1e-9,
                "marginal({q}) differs"
            );
        }
        for ops in [
            vec![(0u32, PauliOp::Z), (5, PauliOp::Z)],
            vec![(1, PauliOp::X), (2, PauliOp::X)],
            vec![(3, PauliOp::Y), (7, PauliOp::Z)],
        ] {
            let p = PauliString::from_ops(8, &ops);
            assert!(
                (ra.expectation(&p) - rs.expectation(&p)).abs() < 1e-9,
                "⟨{ops:?}⟩ differs"
            );
        }
        for idx in 0..(1u64 << 8) {
            assert!(
                (ra.probability_of_bits(&[idx]) - rs.probability_of_bits(&[idx])).abs() < 1e-9,
                "p({idx}) differs"
            );
        }
    }

    #[test]
    fn forced_backends_reject_unfit_circuits() {
        let qaoa = generators::qaoa(8);
        match planner(BackendKind::Stabilizer).plan_backend(&qaoa) {
            Err(AtlasError::InvalidConfig { reason }) => {
                assert!(reason.contains("all-Clifford"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let wide = generators::ghz(200);
        match planner(BackendKind::Statevec).plan_backend(&wide) {
            Err(AtlasError::InvalidConfig { reason }) => {
                assert!(reason.contains("63"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn wide_clifford_circuit_plans_and_samples_through_the_session() {
        // The acceptance bar: a 200-qubit all-Clifford circuit plans and
        // samples through Planner::plan_backend.
        let c = generators::ghz(200);
        let planner = {
            let cfg = AtlasConfig {
                shots: 32,
                seed: 9,
                ..AtlasConfig::default()
            };
            Planner::new(MachineSpec::single_gpu(5), CostModel::default(), cfg)
        };
        let plan = planner.plan_backend(&c).unwrap();
        assert_eq!(plan.backend_name(), "stabilizer");
        let run = plan.run(&c).unwrap();
        assert_eq!(run.num_qubits(), 200);
        let samples = run.samples_words().unwrap();
        assert_eq!(samples.len(), 32);
        let zeros = vec![0u64; run.num_words()];
        let ones = {
            let mut v = vec![u64::MAX; 3];
            v.push((1u64 << (200 - 192)) - 1);
            v
        };
        for s in &samples {
            assert!(*s == zeros || *s == ones, "GHZ shot must be all-0 or all-1");
        }
        let zz = PauliString::from_ops(200, &[(0, PauliOp::Z), (199, PauliOp::Z)]);
        assert_eq!(run.expectation(&zz), 1.0);
    }

    #[test]
    fn stabilizer_plan_rejects_structure_mismatch() {
        let c = generators::clifford(6);
        let plan = planner(BackendKind::Auto).plan_backend(&c).unwrap();
        let mut other = generators::clifford(6);
        other.h(0);
        assert!(!plan.accepts(&other));
        assert!(matches!(
            plan.run(&other),
            Err(AtlasError::PlanMismatch { .. })
        ));
    }

    use atlas_circuit::Circuit;
}
