//! The three workloads' inputs, generated from the seed alone.
//!
//! Everything the simulator receives is built here: circuits with
//! seeded gate parameters, shot seeds, Pauli observables and, for the
//! serve stream, arrival times and request kinds. The same seed gives
//! the same inputs.

use atlas::circuit::generators::{self, Family};
use atlas::circuit::Circuit;
use atlas::core::AtlasConfig;
use atlas::machine::{CostModel, MachineSpec};
use atlas::sampler::{PauliOp, PauliString};
use atlas::serve::JobRequest;

/// SplitMix64: a small, fixed, platform-independent generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and one named input stream, so that
    /// adding a stream never shifts the draws of another.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One machine shape plus the configuration jobs run under.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Machine shape (nodes × GPUs, local qubits).
    pub spec: MachineSpec,
    /// Cost model plans are priced under.
    pub cost: CostModel,
    /// Simulation config (threads, shots, shot seed).
    pub cfg: AtlasConfig,
}

impl Shape {
    fn new(spec: MachineSpec, threads: usize, shots: usize, seed: u64) -> Self {
        Shape {
            spec,
            cost: CostModel::default(),
            cfg: AtlasConfig {
                threads,
                shots,
                seed,
                ..AtlasConfig::default()
            },
        }
    }
}

/// Shifts every gate parameter by its own seeded offset in `[0.05, 0.55)`:
/// the structure (and so the plan) stays, the amplitudes change.
fn shift_params(circuit: &Circuit, rng: &mut Rng) -> Circuit {
    circuit.map_params(|_, _, p| p + 0.05 + 0.5 * rng.unit())
}

/// A random `k`-local Pauli string with X/Y/Z on `k` distinct qubits.
fn random_pauli(n: u32, k: usize, rng: &mut Rng) -> PauliString {
    let mut placed: Vec<(u32, PauliOp)> = Vec::with_capacity(k);
    while placed.len() < k {
        let q = rng.below(n as usize) as u32;
        if placed.iter().all(|&(p, _)| p != q) {
            let op = [PauliOp::X, PauliOp::Y, PauliOp::Z][rng.below(3)];
            placed.push((q, op));
        }
    }
    PauliString::from_ops(n, &placed)
}

fn family_circuit(name: &str, n: u32) -> Circuit {
    match name {
        "qaoa" => generators::qaoa(n),
        _ => Family::from_name(name)
            .expect("workload families are valid names")
            .generate(n),
    }
}

// ---------------------------------------------------------------------
// batch_n22_8gpu
// ---------------------------------------------------------------------

/// Qubits of every batch circuit.
pub const BATCH_N: u32 = 22;
/// Circuit families of one batch round, run in this order.
pub const BATCH_FAMILIES: [&str; 4] = ["qft", "ising", "su2random", "qaoa"];
/// Shots drawn by each batch job.
pub const BATCH_SHOTS: usize = 1024;
/// EXECUTE threads of each batch job.
pub const BATCH_THREADS: usize = 2;

/// One batch job: plan + execute + shots for one circuit.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Family name (for the report).
    pub family: &'static str,
    /// The circuit, parameters shifted from the seed.
    pub circuit: Circuit,
    /// Machine shape and config; `cfg.seed` is this job's shot seed.
    pub shape: Shape,
}

/// 2 nodes × 4 GPUs with 19 local qubits: 8 shards at n = 22.
pub fn batch_spec() -> MachineSpec {
    MachineSpec {
        nodes: 2,
        gpus_per_node: 4,
        local_qubits: 19,
    }
}

/// The four jobs of one batch round.
pub fn batch_jobs(seed: u64) -> Vec<BatchJob> {
    let mut rng = Rng::new(seed, "batch");
    BATCH_FAMILIES
        .iter()
        .map(|&family| {
            let circuit = shift_params(&family_circuit(family, BATCH_N), &mut rng);
            let shot_seed = rng.next_u64();
            BatchJob {
                family,
                circuit,
                shape: Shape::new(batch_spec(), BATCH_THREADS, BATCH_SHOTS, shot_seed),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// sweep_energy_n20_1gpu
// ---------------------------------------------------------------------

/// Qubits of the swept QAOA circuit.
pub const SWEEP_N: u32 = 20;
/// Parameter points per sweep round.
pub const SWEEP_POINTS: usize = 8;
/// Shots drawn at each point.
pub const SWEEP_SHOTS: usize = 4096;
/// Pauli terms in the energy observable.
pub const SWEEP_TERMS: usize = 128;
/// Qubits each Pauli term acts on.
pub const SWEEP_TERM_WEIGHT: usize = 4;
/// EXECUTE threads.
pub const SWEEP_THREADS: usize = 2;

/// The sweep: one structure, many parameter points, one observable.
#[derive(Clone, Debug)]
pub struct SweepInputs {
    /// The circuit the plan is compiled from.
    pub base: Circuit,
    /// Same structure as `base`, shifted parameters.
    pub points: Vec<Circuit>,
    /// Energy observable: `Σ coeff · ⟨P⟩`.
    pub terms: Vec<(f64, PauliString)>,
    /// Single GPU, all qubits local; `cfg.seed` is the shot seed.
    pub shape: Shape,
}

/// The sweep's inputs.
pub fn sweep_inputs(seed: u64) -> SweepInputs {
    let mut rng = Rng::new(seed, "sweep");
    let base = generators::qaoa(SWEEP_N);
    let points = (0..SWEEP_POINTS)
        .map(|_| shift_params(&base, &mut rng))
        .collect();
    let terms = (0..SWEEP_TERMS)
        .map(|_| {
            let coeff = 2.0 * rng.unit() - 1.0;
            (coeff, random_pauli(SWEEP_N, SWEEP_TERM_WEIGHT, &mut rng))
        })
        .collect();
    let shot_seed = rng.next_u64();
    SweepInputs {
        base,
        points,
        terms,
        shape: Shape::new(
            MachineSpec::single_gpu(SWEEP_N),
            SWEEP_THREADS,
            SWEEP_SHOTS,
            shot_seed,
        ),
    }
}

// ---------------------------------------------------------------------
// serve_mix_n12-16
// ---------------------------------------------------------------------

/// Families of the serve mix.
pub const SERVE_FAMILIES: [&str; 8] = [
    "ae",
    "dj",
    "graphstate",
    "ising",
    "qaoa",
    "qft",
    "qsvm",
    "wstate",
];
/// Smallest and largest circuit width of the serve mix.
pub const SERVE_N: (u32, u32) = (12, 16);
/// Local qubits of the pool's machine: one pool serves every width, so
/// this is `n − 2` for the narrowest circuits (2 global qubits, no
/// regional ones) and leaves 2–4 regional qubits for the wider ones.
pub const SERVE_LOCAL_QUBITS: u32 = 10;
/// Open-loop arrival rate (jobs/s): about half the pool's closed-loop
/// capacity at the commit that introduced this benchmark.
pub const SERVE_RATE: f64 = 70.0;
/// The stream never has fewer jobs than this.
pub const SERVE_MIN_JOBS: usize = 300;
/// Zipf exponent of structure popularity.
pub const SERVE_ZIPF_S: f64 = 1.0;
/// Shots of a `Sample` request.
pub const SERVE_SHOTS: usize = 256;
/// Tenants the jobs are spread over.
pub const SERVE_TENANTS: usize = 4;
/// Pool worker threads.
pub const SERVE_WORKERS: usize = 2;
/// Plan-cache entries (the pool's default).
pub const SERVE_CACHE: usize = 32;

/// 2 nodes × 2 GPUs, `threads = 1` per job.
pub fn serve_shape() -> Shape {
    Shape::new(
        MachineSpec {
            nodes: 2,
            gpus_per_node: 2,
            local_qubits: SERVE_LOCAL_QUBITS,
        },
        1,
        0,
        0,
    )
}

/// One job of the serve stream.
#[derive(Clone, Debug)]
pub struct ServeJob {
    /// Seconds after the stream start at which the job is due.
    pub due_s: f64,
    /// Tenant name.
    pub tenant: &'static str,
    /// Index of the job's structure (family × width).
    pub structure: usize,
    /// The circuit, parameters shifted per job.
    pub circuit: Circuit,
    /// What the job asks for.
    pub request: JobRequest,
}

/// The 40 structures in popularity order, most popular first. The order
/// is a fixed shuffle, the same for every seed, so that a seed changes
/// which jobs are drawn but not which structures are popular.
pub fn serve_structures() -> Vec<(&'static str, u32)> {
    let mut all: Vec<(&'static str, u32)> = SERVE_FAMILIES
        .iter()
        .flat_map(|&f| (SERVE_N.0..=SERVE_N.1).map(move |n| (f, n)))
        .collect();
    let mut rng = Rng::new(0, "serve-popularity");
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all
}

/// Number of jobs in a stream measured for `seconds`.
pub fn serve_job_count(seconds: f64) -> usize {
    ((SERVE_RATE * seconds).round() as usize).max(SERVE_MIN_JOBS)
}

/// The serve stream: Poisson arrivals at [`SERVE_RATE`], Zipf-popular
/// structures, and `Sample{256}` : `Expect` : `Plan` in the ratio 6:3:1.
///
/// The arrivals are a Poisson process conditioned on `jobs` arrivals in
/// `jobs / SERVE_RATE` seconds, so every stream of one length spans the
/// same time and the rate is exact.
pub fn serve_stream(seed: u64, jobs: usize) -> Vec<ServeJob> {
    const TENANTS: [&str; SERVE_TENANTS] = ["t0", "t1", "t2", "t3"];
    let structures = serve_structures();
    let bases: Vec<Circuit> = structures
        .iter()
        .map(|&(f, n)| family_circuit(f, n))
        .collect();
    let weights: Vec<f64> = (0..structures.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(SERVE_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng::new(seed, "serve");
    let gaps: Vec<f64> = (0..=jobs).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let span_s = jobs as f64 / SERVE_RATE;
    let scale = span_s / gaps.iter().sum::<f64>();
    let mut due_s = 0.0;
    gaps[..jobs]
        .iter()
        .map(|gap| {
            due_s += gap * scale;
            let mut u = rng.unit() * total;
            let mut structure = structures.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    structure = i;
                    break;
                }
                u -= w;
            }
            let circuit = shift_params(&bases[structure], &mut rng);
            let n = circuit.num_qubits();
            let request = match rng.below(10) {
                0..=5 => JobRequest::Sample {
                    shots: SERVE_SHOTS,
                    seed: rng.next_u64(),
                },
                6..=8 => JobRequest::Expect {
                    pauli: random_pauli(n, 2, &mut rng),
                },
                _ => JobRequest::Plan,
            };
            ServeJob {
                due_s,
                tenant: TENANTS[rng.below(SERVE_TENANTS)],
                structure,
                circuit,
                request,
            }
        })
        .collect()
}
