//! The traced run: one job driven layer by layer through each layer's
//! public calls, in the order the session API runs them, with a span
//! around every call.
//!
//! stage → plan_from_stages → per stage { permute_state,
//! build_stage_programs, run_shard_programs, stage_barrier } →
//! Measurements. The spans stay in memory ([`Tracer`]) and are written
//! out when the benchmark ends. No span is added inside the crates.

use crate::alloc;
use crate::inputs::Shape;
use atlas::analyze::verify_plan;
use atlas::circuit::Circuit;
use atlas::core::exec::{self, FullPlan};
use atlas::core::{staging, AtlasError, KernelKind};
use atlas::machine::{Machine, ShardOp, ShardProgram};
use atlas::qmath::QubitPermutation;
use atlas::sampler::{Measurements, PauliString};
use atlas::statevec::{with_pool, FastKernel, Pool};
use std::io::Write;
use std::time::Instant;

/// Name of the span that covers one whole job; every other span of the
/// job is its child and carries the same job id.
pub const JOB_SPAN: &str = "job";

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Job the call belongs to.
    pub job: u32,
    /// `<layer>` or `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Allocations made on any thread during the call.
    pub allocs: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Work the traced calls did, counted from their inputs and outputs.
///
/// Everything here except `staging_optimal`-style ratios is a pure
/// function of the workload's inputs, so two runs with the same seed
/// produce equal values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Work {
    /// `stage_circuit` calls.
    pub staging_calls: u64,
    /// Stages those calls produced.
    pub staging_stages: u64,
    /// Calls whose staging was proved stage-count optimal.
    pub staging_optimal: u64,
    /// Kernels over all planned stages.
    pub kernels: u64,
    /// Shared-memory kernels among them.
    pub shm_kernels: u64,
    /// Σ Eq. 12 kernelization cost of the plans.
    pub model_cost: f64,
    /// Plans checked by `verify_plan`.
    pub plans_checked: u64,
    /// `ShardOp::Fusion` ops built.
    pub fusion_ops: u64,
    /// Fusion ops whose kernel has the dense form.
    pub dense_ops: u64,
    /// Parts of `ShardOp::ShmParts` ops built.
    pub shm_parts: u64,
    /// `ShardOp::Scale` ops built.
    pub scale_ops: u64,
    /// Whole-shard passes × shard amplitudes (a fusion op, a shm part
    /// and a scale op each make one pass).
    pub amp_passes: u64,
    /// `permute_state` calls.
    pub reshuffles: u64,
    /// Bytes the reshuffles moved (intra- plus inter-node).
    pub reshuffle_bytes: u64,
    /// Σ model-clock seconds of the executions (`MachineReport`).
    pub model_s: f64,
    /// Shots drawn.
    pub shots: u64,
    /// Pauli expectations computed.
    pub expect_terms: u64,
}

impl Work {
    fn count_programs(&mut self, programs: &[ShardProgram], shard_amps: u64) {
        for prog in programs {
            for op in prog {
                match op {
                    ShardOp::Fusion { kernel, .. } => {
                        self.fusion_ops += 1;
                        self.amp_passes += shard_amps;
                        if matches!(**kernel, FastKernel::Dense(_)) {
                            self.dense_ops += 1;
                        }
                    }
                    ShardOp::ShmParts { parts, .. } => {
                        self.shm_parts += parts.len() as u64;
                        self.amp_passes += parts.len() as u64 * shard_amps;
                    }
                    ShardOp::Scale(_) => {
                        self.scale_ops += 1;
                        self.amp_passes += shard_amps;
                    }
                }
            }
        }
    }
}

/// In-memory span store plus the work counters.
pub struct Tracer {
    origin: Instant,
    /// Every recorded span, in end order.
    pub spans: Vec<Span>,
    /// Counters of the traced calls.
    pub work: Work,
    /// Open job span: (job, start ns, allocs at start).
    open_job: Option<(u32, u64, u64)>,
    /// Σ duration of the calls made inside job spans.
    covered_ns: u64,
    /// Σ duration of the job spans.
    job_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            work: Work::default(),
            open_job: None,
            covered_ns: 0,
            job_ns: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times one call into a layer.
    pub fn time<R>(&mut self, job: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::total();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let allocs = alloc::total() - a0;
        if self.open_job.is_some() {
            self.covered_ns += end_ns - start_ns;
        }
        self.spans.push(Span {
            job,
            name,
            start_ns,
            end_ns,
            allocs,
        });
        out
    }

    /// Opens the span of job `job`.
    pub fn begin_job(&mut self, job: u32) {
        assert!(self.open_job.is_none(), "job spans do not nest");
        self.open_job = Some((job, self.now_ns(), alloc::total()));
    }

    /// Closes the open job span.
    pub fn end_job(&mut self) {
        let (job, start_ns, a0) = self.open_job.take().expect("a job span is open");
        let end_ns = self.now_ns();
        self.job_ns += end_ns - start_ns;
        self.spans.push(Span {
            job,
            name: JOB_SPAN,
            start_ns,
            end_ns,
            allocs: alloc::total() - a0,
        });
    }

    /// Σ seconds of the spans named `name`, or of every span of layer
    /// `name` when it has no `.`.
    pub fn busy(&self, name: &str) -> f64 {
        self.matching(name).map(Span::secs).sum()
    }

    /// Σ allocations of the spans [`Tracer::busy`] would sum.
    pub fn allocs(&self, name: &str) -> u64 {
        self.matching(name).map(|s| s.allocs).sum()
    }

    fn matching<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        let whole_layer = !name.contains('.');
        self.spans
            .iter()
            .filter(move |s| s.name == name || (whole_layer && s.layer() == name))
    }

    /// Σ seconds of the job spans: the traced wall time.
    pub fn job_secs(&self) -> f64 {
        self.job_ns as f64 * 1e-9
    }

    /// Share of the job spans' time covered by layer calls.
    pub fn coverage(&self) -> f64 {
        if self.job_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.job_ns as f64
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.name == JOB_SPAN {
                "null"
            } else {
                "\"job\""
            };
            writeln!(
                out,
                r#"{{"job":{},"span":"{}","parent":{},"start_ns":{},"end_ns":{},"allocs":{}}}"#,
                s.job, s.name, parent, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

/// PARTITION through its two public calls: staging, then kernelization.
pub fn plan(
    tr: &mut Tracer,
    job: u32,
    circuit: &Circuit,
    shape: &Shape,
) -> Result<FullPlan, AtlasError> {
    let (l, g) = (shape.spec.local_qubits, shape.spec.global_qubits());
    let staging::StagingOutcome {
        stages,
        cost,
        optimal,
        solve_status,
    } = tr.time(job, "staging", || {
        staging::stage_circuit(circuit, l, g, &shape.cfg)
    })?;
    tr.work.staging_calls += 1;
    tr.work.staging_stages += stages.len() as u64;
    tr.work.staging_optimal += optimal as u64;
    let mut plan = tr.time(job, "kernelize", || {
        exec::plan_from_stages(
            circuit,
            stages,
            cost,
            optimal,
            l,
            g,
            &shape.cost,
            &shape.cfg,
        )
    })?;
    plan.solve_status = solve_status;
    for sp in &plan.stages {
        tr.work.kernels += sp.kernels.len() as u64;
        tr.work.shm_kernels += sp
            .kernels
            .iter()
            .filter(|k| k.kind == KernelKind::SharedMemory)
            .count() as u64;
    }
    tr.work.model_cost += plan.kernel_cost;
    Ok(plan)
}

/// The static verifier on one plan.
pub fn verify(
    tr: &mut Tracer,
    job: u32,
    circuit: &Circuit,
    plan: &FullPlan,
    shape: &Shape,
) -> Result<(), AtlasError> {
    let verdict = tr.time(job, "analyze", || verify_plan(circuit, plan, &shape.cost));
    tr.work.plans_checked += 1;
    verdict.map(|_| ()).map_err(AtlasError::from)
}

/// EXECUTE on a fresh `|0…0⟩` machine, ending in the measurement engine
/// the session API would hand out.
pub fn execute(
    tr: &mut Tracer,
    job: u32,
    circuit: &Circuit,
    plan: &FullPlan,
    shape: &Shape,
) -> Measurements {
    assert!(
        !shape.cfg.final_unpermute,
        "the layer-by-layer run follows the final_unpermute = false path"
    );
    let threads = shape.cfg.threads.max(1);
    let mut machine = tr.time(job, "machine.alloc", || {
        Machine::new(shape.spec, shape.cost.clone(), plan.n, false)
    });
    // The session API's schedule: a persistent worker pool when there
    // are enough shards to keep every worker busy, otherwise inline
    // shards with intra-shard parallelism.
    if threads > 1 && machine.num_shards() >= threads {
        with_pool(threads, |pool| {
            run_stages(tr, job, &mut machine, circuit, plan, pool)
        });
    } else {
        run_stages(tr, job, &mut machine, circuit, plan, &Pool::inline(threads));
    }
    let report = machine.report();
    tr.work.model_s += report.total_secs;
    tr.work.reshuffle_bytes += report.bytes_intra + report.bytes_inter;
    Measurements::new(machine, plan.final_mapping(false), threads)
}

fn run_stages(
    tr: &mut Tracer,
    job: u32,
    machine: &mut Machine,
    circuit: &Circuit,
    plan: &FullPlan,
    pool: &Pool,
) {
    let n = plan.n as usize;
    let shards = machine.num_shards();
    let shard_amps = machine.shard_len() as u64;
    let mut carried_flips = 0u64;
    let mut prev_mapping: Option<&[u32]> = None;
    for sp in &plan.stages {
        if let Some(pm) = prev_mapping {
            let mut map = vec![0u32; n];
            for q in 0..n {
                map[pm[q] as usize] = sp.mapping[q];
            }
            let perm = QubitPermutation::from_map(map);
            let flips = permute_mask(&perm, carried_flips);
            reshuffle(tr, job, machine, &perm, flips);
            carried_flips = 0;
        }
        let programs = tr.time(job, "exec", || {
            exec::build_stage_programs(circuit, sp, plan.l, shards)
        });
        tr.work.count_programs(&programs, shard_amps);
        tr.time(job, "machine.kernel", || {
            machine.run_shard_programs(&programs, pool)
        });
        carried_flips ^= sp.flips;
        tr.time(job, "machine.barrier", || machine.stage_barrier());
        prev_mapping = Some(&sp.mapping);
    }
    // Outstanding X/Y relabels, applied so the state matches the final
    // mapping.
    if carried_flips != 0 {
        reshuffle(
            tr,
            job,
            machine,
            &QubitPermutation::identity(n),
            carried_flips,
        );
    }
}

fn reshuffle(tr: &mut Tracer, job: u32, machine: &mut Machine, perm: &QubitPermutation, flip: u64) {
    tr.time(job, "machine.reshuffle", || {
        machine.permute_state(perm, flip)
    });
    tr.work.reshuffles += 1;
}

/// Applies a bit permutation to a bitmask.
fn permute_mask(perm: &QubitPermutation, mask: u64) -> u64 {
    let mut out = 0u64;
    let mut m = mask;
    while m != 0 {
        let b = m.trailing_zeros();
        m &= m - 1;
        out |= 1u64 << perm.dst(b);
    }
    out
}

/// Seeded shots.
pub fn sample(tr: &mut Tracer, job: u32, m: &Measurements, shots: usize, seed: u64) -> Vec<u64> {
    let out = tr.time(job, "sampler.sample", || m.sample(shots, seed));
    tr.work.shots += shots as u64;
    out
}

/// Seeded shots, counted per outcome.
pub fn sample_counts(
    tr: &mut Tracer,
    job: u32,
    m: &Measurements,
    shots: usize,
    seed: u64,
) -> Vec<(u64, u64)> {
    let out = tr.time(job, "sampler.sample", || m.sample_counts(shots, seed));
    tr.work.shots += shots as u64;
    out
}

/// One Pauli expectation.
pub fn expect(tr: &mut Tracer, job: u32, m: &Measurements, p: &PauliString) -> f64 {
    let out = tr.time(job, "sampler.expect", || m.expectation(p));
    tr.work.expect_terms += 1;
    out
}
