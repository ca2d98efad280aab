//! Tunable parameters of the Atlas pipeline, with the paper's defaults,
//! and the validating [`AtlasConfig::builder`] that rejects incoherent
//! combinations at construction time.

use atlas_error::AtlasError;
use atlas_telemetry::Recorder;
use std::time::Duration;

/// Which algorithm picks the stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StagingAlgo {
    /// Atlas: the ILP model solved by the structure-exploiting search
    /// (default — see `staging::search`).
    IlpSearch,
    /// Atlas: the ILP model solved by the generic `atlas-ilp`
    /// branch-and-bound. Exact but only tractable for small circuits.
    GenericIlp,
    /// The SnuQS greedy heuristic (§VII-D baseline).
    Snuqs,
}

/// Which simulation engine runs the circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Dispatch on circuit structure: all-Clifford circuits run on the
    /// stabilizer tableau, circuits with a long Clifford prefix
    /// fast-forward on the tableau and hand off to the statevector
    /// engine, everything else runs on the statevector engine (default).
    #[default]
    Auto,
    /// Force the sharded statevector engine (≤ 63 qubits).
    Statevec,
    /// Force the stabilizer tableau (all-Clifford circuits only, up to
    /// thousands of qubits).
    Stabilizer,
}

impl BackendKind {
    /// The CLI spelling of the variant.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Statevec => "statevec",
            BackendKind::Stabilizer => "stabilizer",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = AtlasError;

    fn from_str(s: &str) -> Result<Self, AtlasError> {
        match s {
            "auto" => Ok(BackendKind::Auto),
            "statevec" => Ok(BackendKind::Statevec),
            "stabilizer" => Ok(BackendKind::Stabilizer),
            other => Err(AtlasError::invalid_config(format!(
                "unknown backend '{other}' (expected auto|statevec|stabilizer)"
            ))),
        }
    }
}

/// A peak-memory admission budget for functional EXECUTE requests.
///
/// A functional run of an `n`-qubit circuit allocates, at peak, the
/// sharded state (`2^n` amplitudes × 16 bytes), the ping-pong spare used
/// by state reshuffles (a full second copy), and one shard of local
/// scratch (`2^L` amplitudes × 16 bytes). The budget computes that peak
/// **before** any allocation and rejects the request with a typed
/// [`AtlasError::ResourceExhausted`] instead of letting the allocator
/// abort the process — the admission gate of the session API, the serve
/// pool and the CLI.
///
/// Dry runs never allocate amplitudes and are never gated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: u64,
}

impl MemoryBudget {
    /// The sharded engine's own functional ceiling: 30 qubits at any
    /// shard layout (state + spare + one full-width scratch shard =
    /// 3 × 2^30 × 16 bytes = 48 GiB). Budgets above this are clamped —
    /// the engine cannot index wider functional states regardless of
    /// available RAM.
    pub const ENGINE_CEILING: u64 = 3 * 16 * (1 << 30);

    /// The single-host default used by the `atlas-sim` CLI: 3 GiB of
    /// peak state, which admits exactly the circuits the historical
    /// `n > 26` auto-dry heuristic admitted (26 qubits at any `L ≤ 26`).
    pub const SINGLE_HOST: u64 = 3 * 16 * (1 << 26);

    /// A budget of `bytes` peak bytes per functional request.
    pub fn bytes(bytes: u64) -> Self {
        MemoryBudget { bytes }
    }

    /// The configured limit in bytes (before the engine-ceiling clamp).
    pub fn limit(&self) -> u64 {
        self.bytes
    }

    /// Peak bytes a functional `n`-qubit run allocates under `L` local
    /// qubits per device: state + ping-pong spare + one scratch shard.
    /// Saturates at `u64::MAX` for unrepresentable widths.
    pub fn peak_bytes(n: u32, local_qubits: u32) -> u64 {
        let amp = |q: u32| -> u128 { 16u128 << q.min(63) };
        let peak = 2 * amp(n) + amp(local_qubits.min(n));
        u64::try_from(peak).unwrap_or(u64::MAX)
    }

    /// The budget actually enforced: the configured limit clamped to
    /// [`ENGINE_CEILING`](MemoryBudget::ENGINE_CEILING).
    pub fn enforced(&self) -> u64 {
        self.bytes.min(Self::ENGINE_CEILING)
    }

    /// Whether an `n`-qubit functional run fits the budget.
    pub fn admits(&self, n: u32, local_qubits: u32) -> bool {
        Self::peak_bytes(n, local_qubits) <= self.enforced()
    }

    /// Gates an `n`-qubit functional run: `Ok(())` when it fits,
    /// [`AtlasError::ResourceExhausted`] with the exact peak and budget
    /// otherwise.
    pub fn admit(&self, n: u32, local_qubits: u32) -> Result<(), AtlasError> {
        if self.admits(n, local_qubits) {
            Ok(())
        } else {
            Err(AtlasError::ResourceExhausted {
                needed: Self::peak_bytes(n, local_qubits),
                budget: self.enforced(),
            })
        }
    }

    /// The widest circuit the budget admits under `L` local qubits per
    /// device (`0` when even one qubit is over budget) — what the CLI
    /// reports as "the functional limit".
    pub fn max_functional_qubits(&self, local_qubits: u32) -> u32 {
        (1..=63u32)
            .take_while(|&n| self.admits(n, local_qubits))
            .last()
            .unwrap_or(0)
    }
}

impl Default for MemoryBudget {
    /// Defaults to the engine ceiling — the session API behaves exactly
    /// as before (any `n ≤ 30` runs), except that wider requests now
    /// return a typed error instead of asserting.
    fn default() -> Self {
        MemoryBudget {
            bytes: Self::ENGINE_CEILING,
        }
    }
}

/// Which algorithm groups a stage's gates into kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelAlgo {
    /// Atlas: the KERNELIZE DP (Algorithms 3–4), with pruning threshold T.
    Dp,
    /// ORDERED KERNELIZE (Algorithm 5) — "Atlas-Naive".
    Ordered,
    /// Greedy fusion packing up to the given qubit count (§VII-E
    /// baseline; 5 is the most cost-efficient size).
    Greedy(u32),
    /// Greedy hybrid packing choosing fusion or shared-memory per group
    /// (HyQuas-style SHM-GROUPING / TransMM selection).
    GreedyHybrid(u32),
}

/// Configuration for staging, kernelization and execution.
#[derive(Clone, Debug)]
pub struct AtlasConfig {
    /// Inter-node communication cost factor `c` in the staging objective
    /// (Eq. 2). The paper sets 3 (§VI-C).
    pub inter_node_cost_factor: i64,
    /// Kernelization DP pruning threshold `T` (Appendix B-f). The paper
    /// sets 500.
    pub pruning_threshold: usize,
    /// Maximum number of stages Algorithm 2 will try before giving up.
    /// Deep circuits genuinely need many stages — a 20-qubit Grover's
    /// repeated multi-controlled-Z sweeps demand one or two per
    /// amplification round — so this is a runaway bound, not a typical
    /// operating point.
    pub max_stages: usize,
    /// Node budget for the generic ILP solver per `s` attempt — the
    /// **sole default budget**. Node counts are a pure function of the
    /// model, so the chosen plan is identical on every machine.
    pub ilp_node_limit: u64,
    /// Opt-in wall-clock budget for the generic ILP solver per `s`
    /// attempt. `None` (the default) disables it. Setting a time limit
    /// **breaks plan reproducibility**: the solver's incumbent at the
    /// cutoff depends on machine speed and load, so the same circuit can
    /// stage differently across hosts or runs — never rely on
    /// byte-identical plans (or plan-cache determinism) with this set.
    pub ilp_time_limit: Option<Duration>,
    /// Beam width of the staging search solver.
    pub staging_beam_width: usize,
    /// Staging algorithm.
    pub staging: StagingAlgo,
    /// Kernelization algorithm.
    pub kernelizer: KernelAlgo,
    /// Unpermute the final state back to the identity qubit layout after
    /// the last stage (needed when reading amplitudes out; benchmarks that
    /// reproduce the paper's timing leave it off, as the paper reports the
    /// simulation time with the final layout in place).
    pub final_unpermute: bool,
    /// Host threads the functional executor may use: independent shard
    /// kernels run concurrently across this many workers (one per
    /// simulated GPU), falling back to intra-shard group parallelism when
    /// shards are fewer than threads. `1` (the default) is fully serial.
    /// Amplitudes are bit-identical for every value — only wall-clock
    /// changes. Dry-run mode ignores it (the clock model is not threaded).
    pub threads: usize,
    /// Measurement shots to draw after a functional run (`0` = none).
    /// Sampling runs on the sharded state and the bitstrings land in
    /// [`Execution::samples`]; with a fixed [`seed`] they are
    /// byte-identical for every thread count and machine shape. (More
    /// shots can always be drawn later through
    /// [`Execution::measurements`].)
    ///
    /// [`seed`]: AtlasConfig::seed
    /// [`Execution::samples`]: crate::session::Execution::samples
    /// [`Execution::measurements`]: crate::session::Execution::measurements
    pub shots: usize,
    /// Seed of the counter-based measurement RNG (shot `i` draws a pure
    /// function of `(seed, i)`). With [`noise`](AtlasConfig::noise) it
    /// additionally seeds the trajectory selector draws.
    pub seed: u64,
    /// Depolarizing error probability per gate-touched qubit (`0.0` =
    /// noiseless). Each noisy run is a Pauli-twirled stochastic
    /// trajectory: with probability `noise` a uniformly random X/Y/Z is
    /// injected after the gate on each qubit it touches. Trajectory `i`
    /// is a pure function of ([`seed`](AtlasConfig::seed)`, i`), so
    /// results are byte-identical across thread and worker counts.
    pub noise: f64,
    /// Number of stochastic trajectories to average when
    /// [`noise`](AtlasConfig::noise)` > 0` (ignored when noiseless).
    pub trajectories: usize,
    /// Which simulation engine runs the circuit.
    pub backend: BackendKind,
    /// Peak-memory admission budget for functional EXECUTE requests.
    /// Checked *before* any amplitude allocation by the session API, the
    /// serve pool's submission path and the CLI; an over-budget request
    /// returns [`AtlasError::ResourceExhausted`] instead of aborting.
    /// Defaults to the engine's own functional ceiling (48 GiB ≙ 30
    /// qubits), which preserves the historical behavior for every
    /// admissible width.
    pub memory_budget: MemoryBudget,
    /// Telemetry handle threaded through planning, execution, sampling
    /// and the serve pool. Disabled by default — every recording call in
    /// the pipeline is then a single-branch no-op. Enabling it never
    /// changes model-level output (amplitudes, samples, simulated
    /// seconds): wall-clock rides the trace channel only.
    pub recorder: Recorder,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            inter_node_cost_factor: 3,
            pruning_threshold: 500,
            max_stages: 512,
            ilp_node_limit: 2_000_000,
            ilp_time_limit: None,
            staging_beam_width: 64,
            staging: StagingAlgo::IlpSearch,
            kernelizer: KernelAlgo::Dp,
            final_unpermute: false,
            threads: 1,
            shots: 0,
            seed: 0,
            noise: 0.0,
            trajectories: 1,
            backend: BackendKind::Auto,
            memory_budget: MemoryBudget::default(),
            recorder: Recorder::default(),
        }
    }
}

impl AtlasConfig {
    /// Starts a validating builder pre-loaded with the paper defaults.
    ///
    /// Unlike struct-literal construction, [`AtlasConfigBuilder::build`]
    /// rejects incoherent combinations (`threads = 0`, a sampling seed
    /// without shots, a zero solver budget for the chosen staging
    /// algorithm, …) with a typed [`AtlasError::InvalidConfig`] — so a
    /// bad configuration fails at the API boundary instead of deep
    /// inside the pipeline or via ad-hoc CLI checks.
    ///
    /// ```
    /// use atlas_core::AtlasConfig;
    /// let cfg = AtlasConfig::builder().threads(8).shots(1024).build().unwrap();
    /// assert_eq!((cfg.threads, cfg.shots), (8, 1024));
    /// assert!(AtlasConfig::builder().threads(0).build().is_err());
    /// ```
    pub fn builder() -> AtlasConfigBuilder {
        AtlasConfigBuilder {
            cfg: AtlasConfig::default(),
            seed_set: false,
        }
    }

    /// Checks an assembled configuration for incoherent combinations —
    /// the same rules [`AtlasConfigBuilder::build`] enforces. [`Planner`]
    /// re-validates through this, so hand-built struct literals cannot
    /// smuggle an invalid configuration past the builder.
    ///
    /// [`Planner`]: crate::session::Planner
    pub fn validate(&self) -> Result<(), AtlasError> {
        if self.threads == 0 {
            return Err(AtlasError::invalid_config(
                "threads = 0: the executor needs at least one host thread",
            ));
        }
        if self.seed != 0 && self.shots == 0 && self.noise == 0.0 {
            return Err(AtlasError::invalid_config(format!(
                "seed {} set without shots or noise: the seed only affects \
                 shot sampling and noise-trajectory draws",
                self.seed
            )));
        }
        if !(0.0..=1.0).contains(&self.noise) || self.noise.is_nan() {
            return Err(AtlasError::invalid_config(format!(
                "noise = {}: the per-qubit error probability must lie in [0, 1]",
                self.noise
            )));
        }
        if self.noise > 0.0 && self.trajectories == 0 {
            return Err(AtlasError::invalid_config(
                "trajectories = 0 with noise > 0: a noisy run needs at least \
                 one stochastic trajectory",
            ));
        }
        if self.max_stages == 0 {
            return Err(AtlasError::invalid_config(
                "max_stages = 0: staging needs room for at least one stage",
            ));
        }
        // `inter_node_cost_factor = 0` is a legitimate ablation
        // (communication-cost-blind staging); negative factors would make
        // the Eq. 2 objective reward extra communication.
        if self.inter_node_cost_factor < 0 {
            return Err(AtlasError::invalid_config(format!(
                "inter_node_cost_factor = {}: a negative Eq. 2 factor rewards \
                 communication",
                self.inter_node_cost_factor
            )));
        }
        if self.staging == StagingAlgo::IlpSearch && self.staging_beam_width == 0 {
            return Err(AtlasError::invalid_config(
                "staging_beam_width = 0: the staging search keeps no candidates",
            ));
        }
        if self.staging == StagingAlgo::GenericIlp
            && (self.ilp_node_limit == 0 || self.ilp_time_limit.is_some_and(|t| t.is_zero()))
        {
            return Err(AtlasError::invalid_config(
                "GenericIlp staging with a zero node/time budget can never \
                 return a plan",
            ));
        }
        if self.memory_budget.limit() == 0 {
            return Err(AtlasError::invalid_config(
                "memory_budget = 0 bytes: no functional request could ever \
                 be admitted",
            ));
        }
        match self.kernelizer {
            KernelAlgo::Dp if self.pruning_threshold == 0 => {
                return Err(AtlasError::invalid_config(
                    "pruning_threshold = 0: the kernelize DP would prune every \
                     candidate kernel",
                ));
            }
            KernelAlgo::Greedy(0) | KernelAlgo::GreedyHybrid(0) => {
                return Err(AtlasError::invalid_config(
                    "greedy kernelizer with max_qubits = 0 cannot hold any gate",
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Configuration for functional-correctness runs: exact solvers where
    /// affordable and a final unpermute so amplitudes are directly
    /// comparable to the reference simulator.
    pub fn for_validation() -> Self {
        AtlasConfig {
            final_unpermute: true,
            ..Default::default()
        }
    }

    /// HyQuas-style configuration: SnuQS-like greedy staging plus greedy
    /// hybrid (fusion / shared-memory) grouping. Used by
    /// `atlas-baselines`.
    pub fn hyquas_like() -> Self {
        AtlasConfig {
            staging: StagingAlgo::Snuqs,
            kernelizer: KernelAlgo::GreedyHybrid(6),
            ..Default::default()
        }
    }
}

/// Validating builder for [`AtlasConfig`], started by
/// [`AtlasConfig::builder`].
///
/// Setters are chainable and loose (any value is accepted);
/// [`AtlasConfigBuilder::build`] is where coherence is enforced, so one
/// `Result` covers the whole construction.
#[derive(Clone, Debug)]
pub struct AtlasConfigBuilder {
    cfg: AtlasConfig,
    /// `seed()` was called — lets `build` reject an explicit seed (even
    /// `0`) without shots, which the struct-level validate cannot see.
    seed_set: bool,
}

impl AtlasConfigBuilder {
    /// Sets the inter-node communication cost factor `c` (Eq. 2).
    pub fn inter_node_cost_factor(mut self, c: i64) -> Self {
        self.cfg.inter_node_cost_factor = c;
        self
    }

    /// Sets the kernelization DP pruning threshold `T` (Appendix B-f).
    pub fn pruning_threshold(mut self, t: usize) -> Self {
        self.cfg.pruning_threshold = t;
        self
    }

    /// Sets the maximum number of stages Algorithm 2 will try.
    pub fn max_stages(mut self, s: usize) -> Self {
        self.cfg.max_stages = s;
        self
    }

    /// Sets the generic ILP solver's node budget per stage-count attempt.
    pub fn ilp_node_limit(mut self, nodes: u64) -> Self {
        self.cfg.ilp_node_limit = nodes;
        self
    }

    /// Opts in to a wall-clock budget per stage-count attempt for the
    /// generic ILP solver.
    ///
    /// **Breaks plan reproducibility**: the incumbent at a wall-clock
    /// cutoff depends on machine speed and load, so the same circuit
    /// can stage differently across hosts or runs. The deterministic
    /// [`ilp_node_limit`](AtlasConfigBuilder::ilp_node_limit) is the
    /// default budget; reach for this only when latency control
    /// outweighs determinism (and never in front of a shared plan
    /// cache).
    pub fn ilp_time_limit(mut self, limit: Duration) -> Self {
        self.cfg.ilp_time_limit = Some(limit);
        self
    }

    /// Sets the beam width of the staging search solver.
    pub fn staging_beam_width(mut self, w: usize) -> Self {
        self.cfg.staging_beam_width = w;
        self
    }

    /// Picks the staging algorithm.
    pub fn staging(mut self, algo: StagingAlgo) -> Self {
        self.cfg.staging = algo;
        self
    }

    /// Picks the kernelization algorithm.
    pub fn kernelizer(mut self, algo: KernelAlgo) -> Self {
        self.cfg.kernelizer = algo;
        self
    }

    /// Unpermute the final state back to the identity layout after the
    /// last stage (validation-style runs).
    pub fn final_unpermute(mut self, yes: bool) -> Self {
        self.cfg.final_unpermute = yes;
        self
    }

    /// Sets the host-thread budget of the functional executor.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Sets the number of measurement shots to pre-draw after a
    /// functional run.
    pub fn shots(mut self, shots: usize) -> Self {
        self.cfg.shots = shots;
        self
    }

    /// Sets the seed of the counter-based measurement RNG. Requires
    /// [`shots`](AtlasConfigBuilder::shots) `> 0` or
    /// [`noise`](AtlasConfigBuilder::noise) `> 0` at build time — a seed
    /// with nothing to draw is an [`AtlasError::InvalidConfig`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self.seed_set = true;
        self
    }

    /// Sets the per-qubit depolarizing error probability (Pauli-twirled
    /// stochastic trajectories).
    pub fn noise(mut self, p: f64) -> Self {
        self.cfg.noise = p;
        self
    }

    /// Sets the number of stochastic trajectories averaged under noise.
    pub fn trajectories(mut self, k: usize) -> Self {
        self.cfg.trajectories = k;
        self
    }

    /// Picks the simulation backend.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Sets the peak-memory admission budget for functional EXECUTE
    /// requests (checked before any amplitude allocation).
    pub fn memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.cfg.memory_budget = budget;
        self
    }

    /// Attaches a telemetry recorder (spans, counters, metrics). The
    /// default — a disabled handle — records nothing at zero cost.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.cfg.recorder = recorder;
        self
    }

    /// Validates the assembled configuration and returns it.
    ///
    /// Rejected combinations (each a distinct
    /// [`AtlasError::InvalidConfig`] message): zero threads, a seed
    /// without shots or noise, a noise probability outside `[0, 1]`,
    /// zero trajectories under noise, zero `max_stages`, a negative
    /// Eq. 2 cost factor
    /// (zero stays legal as the communication-cost-blind ablation), a
    /// zero beam width under `IlpSearch`, a zero ILP budget
    /// under `GenericIlp`, and a degenerate kernelizer (`Dp` with
    /// `pruning_threshold = 0`, greedy packers with `max_qubits = 0`).
    pub fn build(self) -> Result<AtlasConfig, AtlasError> {
        if self.seed_set && self.cfg.shots == 0 && self.cfg.noise == 0.0 {
            return Err(AtlasError::invalid_config(format!(
                "seed {} set without shots or noise: the seed only affects \
                 shot sampling and noise-trajectory draws",
                self.cfg.seed
            )));
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_struct_defaults() {
        let built = AtlasConfig::builder().build().unwrap();
        let default = AtlasConfig::default();
        assert_eq!(built.inter_node_cost_factor, default.inter_node_cost_factor);
        // The wall-clock ILP budget is opt-in: a default-on time limit
        // would make the chosen plan depend on machine load.
        assert_eq!(built.ilp_time_limit, None);
        assert_eq!(default.ilp_time_limit, None);
        assert_eq!(built.pruning_threshold, default.pruning_threshold);
        assert_eq!(built.max_stages, default.max_stages);
        assert_eq!(built.staging, default.staging);
        assert_eq!(built.kernelizer, default.kernelizer);
        assert_eq!(built.threads, default.threads);
        assert_eq!(built.shots, default.shots);
        assert_eq!(built.seed, default.seed);
    }

    #[test]
    fn builder_sets_every_field() {
        let cfg = AtlasConfig::builder()
            .inter_node_cost_factor(5)
            .pruning_threshold(100)
            .max_stages(32)
            .ilp_node_limit(1000)
            .ilp_time_limit(Duration::from_secs(2))
            .staging_beam_width(8)
            .staging(StagingAlgo::Snuqs)
            .kernelizer(KernelAlgo::Greedy(5))
            .final_unpermute(true)
            .threads(8)
            .shots(1024)
            .seed(7)
            .memory_budget(MemoryBudget::bytes(1 << 20))
            .recorder(Recorder::enabled())
            .build()
            .unwrap();
        assert!(cfg.recorder.is_enabled());
        assert_eq!(cfg.memory_budget, MemoryBudget::bytes(1 << 20));
        assert_eq!(cfg.inter_node_cost_factor, 5);
        assert_eq!(cfg.pruning_threshold, 100);
        assert_eq!(cfg.max_stages, 32);
        assert_eq!(cfg.ilp_node_limit, 1000);
        assert_eq!(cfg.ilp_time_limit, Some(Duration::from_secs(2)));
        assert_eq!(cfg.staging_beam_width, 8);
        assert_eq!(cfg.staging, StagingAlgo::Snuqs);
        assert_eq!(cfg.kernelizer, KernelAlgo::Greedy(5));
        assert!(cfg.final_unpermute);
        assert_eq!((cfg.threads, cfg.shots, cfg.seed), (8, 1024, 7));
    }

    /// Every invalid combination must be rejected with
    /// `AtlasError::InvalidConfig` (the variant the CLI maps to a usage
    /// error), each with a message naming the offending knob.
    #[test]
    fn builder_rejects_incoherent_combinations() {
        use atlas_error::AtlasError;
        let cases: Vec<(AtlasConfigBuilder, &str)> = vec![
            (AtlasConfig::builder().threads(0), "threads"),
            (AtlasConfig::builder().seed(3), "seed"),
            // An explicit zero seed without shots is still incoherent.
            (AtlasConfig::builder().seed(0), "seed"),
            (AtlasConfig::builder().max_stages(0), "max_stages"),
            (AtlasConfig::builder().noise(-0.1), "noise"),
            (AtlasConfig::builder().noise(1.5), "noise"),
            (AtlasConfig::builder().noise(f64::NAN), "noise"),
            (
                AtlasConfig::builder().noise(0.05).trajectories(0),
                "trajectories",
            ),
            (
                AtlasConfig::builder().inter_node_cost_factor(-1),
                "inter_node_cost_factor",
            ),
            (
                AtlasConfig::builder()
                    .staging(StagingAlgo::IlpSearch)
                    .staging_beam_width(0),
                "staging_beam_width",
            ),
            (
                AtlasConfig::builder()
                    .staging(StagingAlgo::GenericIlp)
                    .ilp_node_limit(0),
                "budget",
            ),
            (
                AtlasConfig::builder()
                    .staging(StagingAlgo::GenericIlp)
                    .ilp_time_limit(Duration::ZERO),
                "budget",
            ),
            (
                AtlasConfig::builder()
                    .kernelizer(KernelAlgo::Dp)
                    .pruning_threshold(0),
                "pruning_threshold",
            ),
            (
                AtlasConfig::builder().kernelizer(KernelAlgo::Greedy(0)),
                "max_qubits",
            ),
            (
                AtlasConfig::builder().kernelizer(KernelAlgo::GreedyHybrid(0)),
                "max_qubits",
            ),
            (
                AtlasConfig::builder().memory_budget(MemoryBudget::bytes(0)),
                "memory_budget",
            ),
        ];
        for (builder, needle) in cases {
            match builder.clone().build() {
                Err(AtlasError::InvalidConfig { reason }) => assert!(
                    reason.contains(needle),
                    "expected reason mentioning '{needle}', got: {reason}"
                ),
                other => panic!("{builder:?} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn seed_is_coherent_with_noise_alone() {
        // A noisy run draws trajectory selectors from the seed even with
        // zero shots, so seed + noise (no shots) must build.
        let cfg = AtlasConfig::builder()
            .seed(11)
            .noise(0.02)
            .trajectories(4)
            .build()
            .unwrap();
        assert_eq!((cfg.seed, cfg.noise, cfg.trajectories), (11, 0.02, 4));
        // Boundary probabilities are legal.
        assert!(AtlasConfig::builder().noise(0.0).build().is_ok());
        assert!(AtlasConfig::builder().noise(1.0).shots(1).build().is_ok());
    }

    #[test]
    fn backend_kind_parses_and_round_trips() {
        use std::str::FromStr;
        for kind in [
            BackendKind::Auto,
            BackendKind::Statevec,
            BackendKind::Stabilizer,
        ] {
            assert_eq!(BackendKind::from_str(kind.name()).unwrap(), kind);
        }
        assert!(matches!(
            BackendKind::from_str("tensor"),
            Err(AtlasError::InvalidConfig { .. })
        ));
        assert_eq!(BackendKind::default(), BackendKind::Auto);
    }

    #[test]
    fn incoherence_is_judged_at_build_not_per_setter() {
        // seed-then-shots is fine: only the final combination counts.
        let cfg = AtlasConfig::builder().seed(9).shots(16).build().unwrap();
        assert_eq!((cfg.seed, cfg.shots), (9, 16));
        // Zero beam width is fine for solvers that don't use it.
        let cfg = AtlasConfig::builder()
            .staging(StagingAlgo::Snuqs)
            .staging_beam_width(0)
            .build()
            .unwrap();
        assert_eq!(cfg.staging_beam_width, 0);
        // Zero pruning threshold is fine off the DP kernelizer.
        assert!(AtlasConfig::builder()
            .kernelizer(KernelAlgo::Ordered)
            .pruning_threshold(0)
            .build()
            .is_ok());
    }

    /// The budget formula is the machine's actual allocation profile:
    /// state + ping-pong spare (two full copies) + one scratch shard.
    #[test]
    fn memory_budget_peak_formula_and_admission() {
        // n = 10, L = 5: 2·2^10·16 + 2^5·16 bytes.
        assert_eq!(MemoryBudget::peak_bytes(10, 5), 2 * 16 * 1024 + 16 * 32);
        // Scratch is one shard, never wider than the state itself.
        assert_eq!(MemoryBudget::peak_bytes(10, 30), 3 * 16 * 1024);
        // The single-host default admits exactly the historical 26-qubit
        // functional limit, at any shard layout.
        let single = MemoryBudget::bytes(MemoryBudget::SINGLE_HOST);
        assert!(single.admits(26, 26));
        assert!(single.admits(26, 5));
        assert!(!single.admits(27, 5));
        assert_eq!(single.max_functional_qubits(5), 26);
        // The default budget is the engine ceiling: 30 qubits, typed
        // rejection (not an assert) beyond it.
        let default = MemoryBudget::default();
        assert!(default.admits(30, 30));
        match default.admit(31, 5) {
            Err(AtlasError::ResourceExhausted { needed, budget }) => {
                assert_eq!(needed, MemoryBudget::peak_bytes(31, 5));
                assert_eq!(budget, MemoryBudget::ENGINE_CEILING);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Budgets above the ceiling are clamped: RAM cannot buy qubits
        // the engine cannot index.
        assert!(!MemoryBudget::bytes(u64::MAX).admits(31, 5));
        // Saturating peak for very wide requests.
        assert_eq!(MemoryBudget::peak_bytes(63, 63), u64::MAX);
    }

    #[test]
    fn struct_level_validate_catches_nonzero_seed_without_shots() {
        let cfg = AtlasConfig {
            seed: 5,
            ..AtlasConfig::default()
        };
        assert!(cfg.validate().is_err());
        assert!(AtlasConfig::default().validate().is_ok());
        assert!(AtlasConfig::for_validation().validate().is_ok());
        assert!(AtlasConfig::hyquas_like().validate().is_ok());
    }
}
