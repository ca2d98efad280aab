//! The workloads: the untraced session-API run that gives the
//! end-to-end metrics, the traced layer-by-layer run that gives the
//! per-layer metrics, and the output checks of both.

use crate::alloc;
use crate::inputs::{self, BatchJob, ServeJob, Shape, SweepInputs};
use crate::layered::{self, Tracer, Work, JOB_SPAN};
use crate::report::{median, peak_rss_mib, quantile, ratio, Metric};
use atlas::core::exec::FullPlan;
use atlas::core::{AtlasConfig, AtlasError, CircuitFingerprint, CompiledPlan, Execution, Planner};
use atlas::ilp::SolveStatus;
use atlas::sampler::{count_samples, Measurements, PauliString};
use atlas::serve::{JobOutcome, JobOutput, JobRequest, PoolStats, ServeConfig, SessionPool};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sweep and the serve mix repeat their set-up this many times
/// before the first job; `setup_s` is the median.
pub const SETUP_REPS: usize = 11;
/// Largest accepted `|norm − 1|` of a final state.
pub const NORM_TOL: f64 = 1e-9;
/// A serve run whose generator sent its jobs later than this against
/// the schedule (95th percentile) is invalid, not slow.
pub const GEN_LATE_P95_BOUND_S: f64 = 0.010;
/// ... or whose latest send was later than this.
pub const GEN_LATE_MAX_BOUND_S: f64 = 0.250;
/// Job id of traced calls made outside any job (the sweep's plan-once
/// and the batch verifier pass).
const NO_JOB: u32 = u32::MAX;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over four n = 22 circuits on 2 × 4 GPUs.
    Batch,
    /// Open loop of small mixed jobs into one session pool. Runnable,
    /// but not listed in `BENCHMARK.json`: its latencies were too
    /// unsteady across runs to gate (see the README).
    Serve,
    /// Plan once, then a variational parameter sweep on one GPU.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Batch, Workload::Serve, Workload::Sweep];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch_n22_8gpu",
            Workload::Serve => "serve_mix_n12-16",
            Workload::Sweep => "sweep_energy_n20_1gpu",
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Bytes of one state vector (the largest, for the serve mix).
    pub fn state_bytes(self) -> u64 {
        let n = match self {
            Workload::Batch => inputs::BATCH_N,
            Workload::Serve => inputs::SERVE_N.1,
            Workload::Sweep => inputs::SWEEP_N,
        };
        16u64 << n
    }

    /// `(EXECUTE threads per job, concurrent jobs)`.
    pub fn threads_and_workers(self) -> (usize, usize) {
        match self {
            Workload::Batch => (inputs::BATCH_THREADS, 1),
            Workload::Serve => (inputs::serve_shape().cfg.threads, inputs::SERVE_WORKERS),
            Workload::Sweep => (inputs::SWEEP_THREADS, 1),
        }
    }
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Jobs attempted, over every pass of the run.
    pub attempted: u64,
    /// Jobs that failed, were refused, or whose outputs did not check.
    pub failed: u64,
    /// One line per failed check.
    pub mismatches: Vec<String>,
    /// Layer shares and the predictions they confirm or refute.
    pub notes: Vec<String>,
    /// Why the run is invalid (the load generator fell behind).
    pub invalid: Option<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Counts one attempted job and, when `problems` is non-empty, one
    /// failure with its reasons.
    fn job(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.mismatches.extend(problems);
        }
    }
}

/// The traced pass's work counters over the first `jobs` jobs of a
/// workload's inputs for `seed` (batch: of its 4 jobs; sweep: of its 8
/// points; serve: a stream of `jobs` jobs), or every failure message.
pub fn work_counters(workload: Workload, seed: u64, jobs: usize) -> Result<Work, Vec<String>> {
    let mut tr = Tracer::default();
    let failures: Vec<String> = match workload {
        Workload::Batch => {
            let all = inputs::batch_jobs(seed);
            batch_traced(&mut tr, &all[..jobs.min(all.len())])
                .into_iter()
                .filter_map(Result::err)
                .flatten()
                .collect()
        }
        Workload::Sweep => {
            let mut inputs = inputs::sweep_inputs(seed);
            inputs.points.truncate(jobs);
            match sweep_traced(&mut tr, &inputs) {
                Err(e) => vec![e],
                Ok(points) => points.into_iter().filter_map(Result::err).collect(),
            }
        }
        Workload::Serve => {
            let stream = inputs::serve_stream(seed, jobs);
            let mut checks = Checks {
                bad: vec![false; jobs],
                msgs: Vec::new(),
            };
            replay_traced(&stream, &inputs::serve_shape(), &mut tr, &mut checks);
            checks.msgs
        }
    };
    if failures.is_empty() {
        Ok(tr.work)
    } else {
        Err(failures)
    }
}

/// Runs `workload`.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match workload {
        Workload::Batch => batch(seed, seconds, trace),
        Workload::Serve => serve(seed, seconds, trace),
        Workload::Sweep => sweep(seed, seconds, trace),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn norm_problem(what: &str, m: &Measurements) -> Option<String> {
    let norm = m.total_norm();
    ((norm - 1.0).abs() > NORM_TOL).then(|| format!("{what}: norm {norm} is not 1"))
}

/// Runs `setup` once and returns its result and duration.
fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = setup();
    (out, secs(t))
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result plus
/// every duration.
fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous result before timing the next set-up.
        drop(last.take());
        let (out, t) = timed(&mut setup);
        times.push(t);
        last = Some(out);
    }
    (last.expect("at least one set-up"), times)
}

fn times_note(what: &str, times: &[f64]) -> String {
    let t: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    format!("{what} (s): [{}]", t.join(", "))
}

/// The end-to-end metrics every workload reports: `wall` is the wall
/// time with its sample count, `jobs` the jobs completed in it, and the
/// job percentiles come from `job_times`.
fn e2e_metrics(setup: &[f64], wall: (f64, usize), jobs: usize, job_times: &[f64]) -> Vec<Metric> {
    let (wall_s, walls) = wall;
    vec![
        Metric::new("setup_s", median(setup), "s", setup.len()),
        Metric::new("wall_s", wall_s, "s", walls),
        Metric::new("job_s_p50", median(job_times), "s", job_times.len()),
        Metric::new("jobs_per_s", ratio(jobs as f64, wall_s), "1/s", walls),
        Metric::one("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The closed loops' round time: Σ over the round's jobs of each job's
/// median time across rounds, so that one slow round moves it less than
/// a median of round sums over a few rounds would.
fn closed_loop_metrics(setup: &[f64], per_job: &[Vec<f64>]) -> Vec<Metric> {
    let wall_s: f64 = per_job.iter().map(|t| median(t)).sum();
    let rounds = per_job.first().map_or(0, Vec::len);
    let all: Vec<f64> = per_job.iter().flatten().copied().collect();
    e2e_metrics(setup, (wall_s, rounds), per_job.len(), &all)
}

/// Counts of one serve pool run, for the per-layer metrics.
#[derive(Default)]
struct ServeLayer {
    submit_s: f64,
    submit_allocs: u64,
    stats: PoolStats,
    late: Vec<f64>,
}

fn layer_metrics(tr: &Tracer, untraced_s: f64, serve: Option<&ServeLayer>) -> Vec<Metric> {
    let w = &tr.work;
    let kernel_s = tr.busy("machine.kernel");
    let reshuffle_s = tr.busy("machine.reshuffle");
    let count = |name, v: u64| Metric::one(name, v as f64, "count");
    let sv = |f: fn(&ServeLayer) -> f64| serve.map_or(0.0, f);
    vec![
        Metric::one("staging.busy_s", tr.busy("staging"), "s"),
        count("staging.calls", w.staging_calls),
        count("staging.stages", w.staging_stages),
        Metric::one(
            "staging.optimal_ratio",
            ratio(w.staging_optimal as f64, w.staging_calls as f64),
            "ratio",
        ),
        count("staging.allocs", tr.allocs("staging")),
        Metric::one("kernelize.busy_s", tr.busy("kernelize"), "s"),
        count("kernelize.kernels", w.kernels),
        Metric::one(
            "kernelize.shm_ratio",
            ratio(w.shm_kernels as f64, w.kernels as f64),
            "ratio",
        ),
        Metric::one("kernelize.model_cost", w.model_cost, "cost"),
        count("kernelize.allocs", tr.allocs("kernelize")),
        Metric::one("analyze.verify_s", tr.busy("analyze"), "s"),
        count("analyze.plans_checked", w.plans_checked),
        count("analyze.allocs", tr.allocs("analyze")),
        Metric::one("exec.build_s", tr.busy("exec"), "s"),
        count("exec.fusion_ops", w.fusion_ops),
        count("exec.dense_ops", w.dense_ops),
        count("exec.shm_parts", w.shm_parts),
        count("exec.scale_ops", w.scale_ops),
        count("exec.allocs", tr.allocs("exec")),
        Metric::one("machine.kernel_s", kernel_s, "s"),
        Metric::one(
            "machine.ns_per_amp_op",
            ratio(kernel_s * 1e9, w.amp_passes as f64),
            "ns",
        ),
        Metric::one("machine.reshuffle_s", reshuffle_s, "s"),
        count("machine.reshuffles", w.reshuffles),
        Metric::one("machine.reshuffle_bytes", w.reshuffle_bytes as f64, "B"),
        Metric::one("machine.barrier_s", tr.busy("machine.barrier"), "s"),
        Metric::one("machine.alloc_s", tr.busy("machine.alloc"), "s"),
        Metric::one("machine.model_s", w.model_s, "s"),
        Metric::one(
            "machine.model_ratio",
            ratio(w.model_s, kernel_s + reshuffle_s),
            "ratio",
        ),
        count("machine.allocs", tr.allocs("machine")),
        Metric::one("sampler.sample_s", tr.busy("sampler.sample"), "s"),
        count("sampler.shots", w.shots),
        Metric::one("sampler.expect_s", tr.busy("sampler.expect"), "s"),
        count("sampler.expect_terms", w.expect_terms),
        count("sampler.allocs", tr.allocs("sampler")),
        Metric::one("serve.submit_s", sv(|s| s.submit_s), "s"),
        Metric::one(
            "serve.cache_hit_ratio",
            sv(|s| s.stats.cache_hit_rate()),
            "ratio",
        ),
        Metric::one(
            "serve.cache_evictions",
            sv(|s| s.stats.cache_evictions as f64),
            "count",
        ),
        Metric::one(
            "serve.queue_hwm",
            sv(|s| s.stats.max_queued as f64),
            "count",
        ),
        Metric::one(
            "serve.rejected",
            sv(|s| s.stats.jobs_rejected as f64),
            "count",
        ),
        Metric::one("serve.allocs", sv(|s| s.submit_allocs as f64), "count"),
        Metric::one("gen.late_s_p95", sv(|s| quantile(&s.late, 0.95)), "s"),
        Metric::one("gen.late_s_max", sv(|s| quantile(&s.late, 1.0)), "s"),
        Metric::one(
            "trace.overhead_ratio",
            ratio(tr.job_secs(), untraced_s),
            "ratio",
        ),
        Metric::one("trace.coverage", tr.coverage(), "ratio"),
    ]
}

/// Each layer's share of the traced wall time, largest first.
fn layer_shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let wall = tr.job_secs();
    let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in tr
        .spans
        .iter()
        .filter(|s| s.name != JOB_SPAN && s.job != NO_JOB)
    {
        *busy.entry(s.name).or_default() += s.secs();
    }
    let mut shares: Vec<_> = busy.into_iter().map(|(k, v)| (k, ratio(v, wall))).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

fn shares_note(tr: &Tracer) -> String {
    let parts: Vec<String> = layer_shares(tr)
        .iter()
        .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v))
        .collect();
    format!(
        "layer shares of the traced wall time ({:.3} s): {}",
        tr.job_secs(),
        parts.join(", ")
    )
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "confirmed"
    } else {
        "WRONG"
    }
}

fn staging_note(tr: &Tracer) -> String {
    let calls = tr.work.staging_calls;
    let busy = tr.busy("staging");
    let share = ratio(busy, tr.job_secs());
    format!(
        "staging: {:.3} ms per call over {calls} call(s); {:.2}% of the traced wall time{}",
        1e3 * ratio(busy, calls as f64),
        100.0 * share,
        if share < 0.05 {
            ", so this workload is not staging-bound"
        } else {
            ""
        }
    )
}

// ---------------------------------------------------------------------
// batch_n22_8gpu
// ---------------------------------------------------------------------

/// plan + execute + shots through the session API.
fn batch_session(job: &BatchJob) -> Result<Execution, AtlasError> {
    let s = &job.shape;
    Planner::new(s.spec, s.cost.clone(), s.cfg.clone())
        .plan(&job.circuit)?
        .execute(&job.circuit)
}

/// The traced pass over one batch round: each job layer by layer, then
/// the verifier on each job's plan after the timed pass (the session API
/// does not run it on this path). Returns each job's samples, or why it
/// failed.
fn batch_traced(tr: &mut Tracer, jobs: &[BatchJob]) -> Vec<Result<Vec<u64>, Vec<String>>> {
    let mut plans = Vec::with_capacity(jobs.len());
    let mut out = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let id = j as u32;
        tr.begin_job(id);
        let run = layered::plan(tr, id, &job.circuit, &job.shape).map(|plan| {
            let m = layered::execute(tr, id, &job.circuit, &plan, &job.shape);
            let s = &job.shape.cfg;
            let samples = layered::sample(tr, id, &m, s.shots, s.seed);
            (plan, m, samples)
        });
        tr.end_job();
        out.push(match run {
            Err(e) => Err(vec![format!("{} traced: {e}", job.family)]),
            Ok((plan, m, samples)) => {
                plans.push((j, plan));
                match norm_problem(job.family, &m) {
                    Some(p) => Err(vec![p]),
                    None => Ok(samples),
                }
            }
        });
    }
    for (j, plan) in plans {
        let job = &jobs[j];
        if let Err(e) = layered::verify(tr, NO_JOB, &job.circuit, &plan, &job.shape) {
            let msg = format!("{}: plan fails verification: {e}", job.family);
            match &mut out[j] {
                Err(v) => v.push(msg),
                r => *r = Err(vec![msg]),
            }
        }
    }
    out
}

/// One batch round through a `SessionPool` with one worker and a
/// one-entry plan cache, so that every job still plans: the serve
/// layer's numbers for the batch, and each job's sample counts.
fn batch_pool(jobs: &[BatchJob]) -> Result<(ServeLayer, Vec<JobResult>), AtlasError> {
    let s = &jobs[0].shape;
    let cfg = AtlasConfig {
        shots: 0,
        seed: 0,
        ..s.cfg.clone()
    };
    let serve_cfg = ServeConfig {
        workers: 1,
        cache_capacity: 1,
        ..ServeConfig::default()
    };
    let pool = SessionPool::new(s.spec, s.cost.clone(), cfg, serve_cfg)?;
    let mut layer = ServeLayer::default();
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let circuit = job.circuit.clone();
        let request = JobRequest::Sample {
            shots: job.shape.cfg.shots,
            seed: job.shape.cfg.seed,
        };
        let a0 = alloc::this_thread();
        let t = Instant::now();
        let handle = pool.submit("batch", circuit, request);
        layer.submit_s += secs(t);
        layer.submit_allocs += alloc::this_thread() - a0;
        results.push(match handle {
            Ok(h) => from_pool(h.wait()),
            Err(e) => Err(format!("refused: {e}")),
        });
    }
    layer.stats = pool.shutdown();
    Ok((layer, results))
}

fn batch(seed: u64, seconds: f64, trace: bool) -> Outcome {
    // The batch's set-up takes ~0.1 ms, so back-to-back repetitions all
    // land in one few-second fast or slow spell of a shared host and read
    // up to 1.7x apart between runs. It is repeated before every job
    // instead (the result is identical and dropped), so that its samples
    // spread over the run as the job times do.
    let (jobs, t0) = timed(|| inputs::batch_jobs(seed));
    let mut setup = vec![t0];
    let mut o = Outcome::default();
    // Samples of each job's first run; every later run must repeat them.
    let mut reference: Vec<Option<Vec<u64>>> = vec![None; jobs.len()];
    let mut check =
        |j: usize, pass: &str, samples: Vec<u64>, problems: &mut Vec<String>| match &reference[j] {
            None => reference[j] = Some(samples),
            Some(want) if *want != samples => problems.push(format!(
                "{} {pass}: samples differ from the session-API run",
                jobs[j].family
            )),
            Some(_) => {}
        };

    // Untraced: whole rounds until `seconds` have passed (one round in
    // a traced run, as the overhead baseline).
    let budget = if trace { 0.0 } else { seconds };
    let mut rounds = Vec::new();
    let mut job_times: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let start = Instant::now();
    loop {
        let mut round = 0.0;
        for (j, job) in jobs.iter().enumerate() {
            setup.push(timed(|| inputs::batch_jobs(seed)).1);
            let t = Instant::now();
            let run = batch_session(job);
            let dt = secs(t);
            round += dt;
            job_times[j].push(dt);
            let mut problems = Vec::new();
            match run {
                Err(e) => problems.push(format!("{}: {e}", job.family)),
                Ok(run) => {
                    problems.extend(norm_problem(job.family, &run.measurements));
                    check(
                        j,
                        "untraced",
                        run.samples.unwrap_or_default(),
                        &mut problems,
                    );
                }
            }
            o.job(problems);
        }
        rounds.push(round);
        if secs(start) >= budget {
            break;
        }
    }

    o.notes.push(times_note("untraced rounds", &rounds));
    o.notes.push(times_note("set-ups", &setup));
    if !trace {
        o.e2e = closed_loop_metrics(&setup, &job_times);
        return o;
    }

    alloc::set_enabled(true);
    let mut tr = Tracer::default();
    let traced = batch_traced(&mut tr, &jobs);
    let pooled = batch_pool(&jobs);
    alloc::set_enabled(false);
    let (layer, pooled) = match pooled {
        Ok(p) => p,
        Err(e) => {
            o.job(vec![format!("batch session pool: {e}")]);
            return o;
        }
    };
    for (j, (run, pooled)) in traced.into_iter().zip(pooled).enumerate() {
        let mut problems = Vec::new();
        match run {
            Err(p) => problems = p,
            Ok(samples) => {
                let counts = Ok(Out::Counts(count_samples(samples.clone())));
                if pooled != counts {
                    problems.push(format!(
                        "{}: pool counts differ from the traced run ({pooled:?})",
                        jobs[j].family
                    ));
                }
                check(j, "traced", samples, &mut problems);
            }
        }
        o.job(problems);
    }

    o.layers = layer_metrics(&tr, rounds[0], Some(&layer));
    let kernel_share = ratio(tr.busy("machine.kernel"), tr.job_secs());
    let top = layer_shares(&tr).first().map_or("none", |s| s.0);
    o.notes.extend([
        shares_note(&tr),
        format!(
            "prediction `machine.kernel_s dominates batch_n22_8gpu`: kernel share {:.1}%, \
             largest span {top}: {}",
            100.0 * kernel_share,
            verdict(top == "machine.kernel" && kernel_share >= 0.5)
        ),
        staging_note(&tr),
    ]);
    o.tracer = Some(tr);
    o
}

// ---------------------------------------------------------------------
// sweep_energy_n20_1gpu
// ---------------------------------------------------------------------

fn energy(terms: &[(f64, PauliString)], mut expect: impl FnMut(&PauliString) -> f64) -> f64 {
    terms.iter().map(|(c, p)| c * expect(p)).sum()
}

/// A point's samples and the bits of its energy.
type SweepResult = (Vec<u64>, u64);

/// The traced sweep: plan once outside the job spans (as the set-up
/// does) and verify that plan, then run every point layer by layer.
/// Returns each point's result, or why it failed.
fn sweep_traced(
    tr: &mut Tracer,
    inputs: &SweepInputs,
) -> Result<Vec<Result<SweepResult, String>>, String> {
    let SweepInputs {
        base,
        points,
        terms,
        shape,
    } = inputs;
    let plan =
        layered::plan(tr, NO_JOB, base, shape).map_err(|e| format!("sweep traced plan: {e}"))?;
    layered::verify(tr, NO_JOB, base, &plan, shape)
        .map_err(|e| format!("sweep plan fails verification: {e}"))?;
    let mut out = Vec::with_capacity(points.len());
    for (k, point) in points.iter().enumerate() {
        let id = k as u32;
        tr.begin_job(id);
        let m = layered::execute(tr, id, point, &plan, shape);
        let samples = layered::sample(tr, id, &m, shape.cfg.shots, shape.cfg.seed);
        let e = energy(terms, |p| layered::expect(tr, id, &m, p));
        tr.end_job();
        out.push(match norm_problem("sweep traced", &m) {
            Some(p) => Err(p),
            None => Ok((samples, e.to_bits())),
        });
    }
    Ok(out)
}

fn sweep(seed: u64, seconds: f64, trace: bool) -> Outcome {
    // Unlike the batch's, this ~50 ms set-up is repeated up front:
    // repeated between points, its planning fragmented the heap the
    // points' states are allocated from, and peak RSS read 22 or 37 MiB.
    let ((inputs, compiled), setup) = repeat_setup(|| {
        let inputs = inputs::sweep_inputs(seed);
        let s = &inputs.shape;
        let compiled = Planner::new(s.spec, s.cost.clone(), s.cfg.clone()).plan(&inputs.base);
        (inputs, compiled)
    });
    let mut o = Outcome::default();
    let compiled = match compiled {
        Ok(c) => c,
        Err(e) => {
            o.job(vec![format!("sweep plan: {e}")]);
            return o;
        }
    };
    let (points, terms) = (&inputs.points, &inputs.terms);
    let mut reference: Vec<Option<SweepResult>> = vec![None; points.len()];
    let mut check =
        |k: usize, pass: &str, got: SweepResult, problems: &mut Vec<String>| match &reference[k] {
            None => reference[k] = Some(got),
            Some(want) if *want != got => problems.push(format!(
                "sweep point {k} {pass}: samples or energy differ from the session-API run"
            )),
            Some(_) => {}
        };

    let budget = if trace { 0.0 } else { seconds };
    let mut rounds = Vec::new();
    let mut job_times: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let start = Instant::now();
    loop {
        let mut round = 0.0;
        for (k, point) in points.iter().enumerate() {
            let t = Instant::now();
            let run = compiled.execute(point).map(|run| {
                let e = energy(terms, |p| run.measurements.expectation(p));
                (run, e)
            });
            let dt = secs(t);
            round += dt;
            job_times[k].push(dt);
            let mut problems = Vec::new();
            match run {
                Err(e) => problems.push(format!("sweep point {k}: {e}")),
                Ok((run, e)) => {
                    problems.extend(norm_problem("sweep", &run.measurements));
                    let samples = run.samples.unwrap_or_default();
                    check(k, "untraced", (samples, e.to_bits()), &mut problems);
                }
            }
            o.job(problems);
        }
        rounds.push(round);
        if secs(start) >= budget {
            break;
        }
    }

    o.notes.push(times_note("untraced rounds", &rounds));
    o.notes.push(times_note("set-ups", &setup));
    if !trace {
        o.e2e = closed_loop_metrics(&setup, &job_times);
        return o;
    }

    alloc::set_enabled(true);
    let mut tr = Tracer::default();
    let traced = sweep_traced(&mut tr, &inputs);
    alloc::set_enabled(false);
    match traced {
        Err(e) => o.job(vec![e]),
        Ok(points) => {
            for (k, run) in points.into_iter().enumerate() {
                let mut problems = Vec::new();
                match run {
                    Err(p) => problems.push(p),
                    Ok(got) => check(k, "traced", got, &mut problems),
                }
                o.job(problems);
            }
        }
    }

    o.layers = layer_metrics(&tr, rounds[0], None);
    let sampler_share = ratio(tr.busy("sampler"), tr.job_secs());
    o.notes.extend([
        shares_note(&tr),
        format!(
            "prediction `sampler.* is >= 30% of sweep_energy_n20_1gpu`: sampler share {:.1}%: {}",
            100.0 * sampler_share,
            verdict(sampler_share >= 0.3)
        ),
        format!(
            "prediction `machine.reshuffles = 0 on sweep_energy_n20_1gpu`: {} reshuffle(s): {}",
            tr.work.reshuffles,
            verdict(tr.work.reshuffles == 0)
        ),
        staging_note(&tr),
    ]);
    o.tracer = Some(tr);
    o
}

// ---------------------------------------------------------------------
// serve_mix_n12-16
// ---------------------------------------------------------------------

/// A job's deterministic result, comparable across the pool, the
/// session-API replay and the traced replay.
#[derive(Clone, Debug, PartialEq)]
enum Out {
    Planned {
        stages: usize,
        staging_cost: i64,
        optimal: bool,
        status: Option<SolveStatus>,
    },
    Counts(Vec<(u64, u64)>),
    /// Expectation value, as its bits.
    Value(u64),
}

type JobResult = Result<Out, String>;

fn planned(plan: &FullPlan) -> Out {
    Out::Planned {
        stages: plan.stages.len(),
        staging_cost: plan.staging_cost,
        optimal: plan.staging_optimal,
        status: plan.solve_status,
    }
}

fn from_pool(r: Result<JobOutcome, AtlasError>) -> JobResult {
    match r.map_err(|e| e.to_string())? {
        JobOutcome::Output(JobOutput::Planned {
            stages,
            staging_cost,
            optimal,
            solve_status,
        }) => Ok(Out::Planned {
            stages,
            staging_cost,
            optimal,
            status: solve_status,
        }),
        JobOutcome::Output(JobOutput::Sampled { counts }) => Ok(Out::Counts(counts)),
        JobOutcome::Output(JobOutput::Expectation { value }) => Ok(Out::Value(value.to_bits())),
        other => Err(format!("unexpected outcome {other:?}")),
    }
}

/// The pool's plan-cache policy: a lookup bumps the tick; a miss inserts
/// under that tick, evicting the least recently used entry when full.
struct Lru<T> {
    map: HashMap<CircuitFingerprint, (u64, T)>,
    tick: u64,
}

impl<T: Clone> Lru<T> {
    fn new() -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, fp: &CircuitFingerprint) -> Option<T> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(fp).map(|e| {
            e.0 = tick;
            e.1.clone()
        })
    }

    fn insert(&mut self, fp: CircuitFingerprint, value: T) {
        if self.map.len() >= inputs::SERVE_CACHE {
            let coldest = *self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k)
                .expect("a full cache is non-empty");
            self.map.remove(&coldest);
        }
        self.map.insert(fp, (self.tick, value));
    }
}

/// The open-loop run: every job submitted at its due time, each result
/// timed from that due time.
struct PoolRun {
    results: Vec<JobResult>,
    /// Due time → result, for jobs that produced one.
    latency: Vec<f64>,
    /// First submission → last result.
    wall_s: f64,
    layer: ServeLayer,
}

fn open_loop(pool: SessionPool, stream: &[ServeJob]) -> PoolRun {
    let mut layer = ServeLayer {
        late: Vec::with_capacity(stream.len()),
        ..ServeLayer::default()
    };
    let mut results: Vec<JobResult> = vec![Err("not run".into()); stream.len()];
    let mut done: Vec<Option<(Instant, Instant)>> = vec![None; stream.len()];
    let start = Instant::now();
    let mut first_sent = None;
    std::thread::scope(|scope| {
        let mut waiters = Vec::with_capacity(stream.len());
        for (i, job) in stream.iter().enumerate() {
            let due = start + Duration::from_secs_f64(job.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let circuit = job.circuit.clone();
            let request = job.request.clone();
            let a0 = alloc::this_thread();
            let sent = Instant::now();
            let handle = pool.submit(job.tenant, circuit, request);
            layer.submit_s += secs(sent);
            layer.submit_allocs += alloc::this_thread() - a0;
            layer
                .late
                .push(sent.saturating_duration_since(due).as_secs_f64());
            first_sent.get_or_insert(sent);
            match handle {
                // One waiter per job, so that each result is timed when
                // it arrives whatever order jobs finish in.
                Ok(h) => waiters.push(scope.spawn(move || {
                    let r = h.wait();
                    (i, due, r, Instant::now())
                })),
                Err(e) => results[i] = Err(format!("refused: {e}")),
            }
        }
        for w in waiters {
            let (i, due, r, at) = w.join().expect("a waiter thread does not panic");
            results[i] = from_pool(r);
            done[i] = Some((due, at));
        }
    });
    layer.stats = pool.shutdown();
    let first = first_sent.unwrap_or(start);
    let last = done.iter().flatten().map(|d| d.1).max().unwrap_or(first);
    PoolRun {
        latency: done
            .iter()
            .flatten()
            .map(|(due, at)| at.saturating_duration_since(*due).as_secs_f64())
            .collect(),
        results,
        wall_s: last.saturating_duration_since(first).as_secs_f64(),
        layer,
    }
}

/// Per-job verdicts of the serve stream: a job fails once, however many
/// of its checks fail.
struct Checks {
    bad: Vec<bool>,
    msgs: Vec<String>,
}

impl Checks {
    fn flag(&mut self, i: usize, msg: String) {
        self.bad[i] = true;
        self.msgs.push(msg);
    }

    /// Flags every job whose results differ.
    fn compare(&mut self, what: &str, want: &[JobResult], got: &[JobResult]) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            if w != g {
                self.flag(i, format!("serve job {i}: {what} differs ({w:?} vs {g:?})"));
            }
        }
    }
}

/// The stream replayed serially through the session API, with the
/// pool's cache policy and admission gate. Returns each job's result and
/// the Σ of the job times.
fn replay_session(
    stream: &[ServeJob],
    shape: &Shape,
    checks: &mut Checks,
) -> (Vec<JobResult>, f64) {
    let planner = Planner::new(shape.spec, shape.cost.clone(), shape.cfg.clone());
    let mut cache: Lru<Arc<CompiledPlan>> = Lru::new();
    let mut busy = 0.0;
    let mut results = Vec::with_capacity(stream.len());
    for (i, job) in stream.iter().enumerate() {
        let t = Instant::now();
        let fp = CircuitFingerprint::of(&job.circuit);
        let plan = match cache.get(&fp) {
            Some(p) => Ok(p),
            None => planner.plan(&job.circuit).and_then(|p| {
                atlas::analyze::verify_plan(&job.circuit, p.plan(), p.cost())?;
                let p = Arc::new(p);
                cache.insert(fp, Arc::clone(&p));
                Ok(p)
            }),
        };
        let run = plan.and_then(|plan| match &job.request {
            JobRequest::Plan => Ok((planned(plan.plan()), None)),
            JobRequest::Sample { shots, seed } => plan.execute(&job.circuit).map(|run| {
                let counts = run.measurements.sample_counts(*shots, *seed);
                (Out::Counts(counts), Some(run))
            }),
            JobRequest::Expect { pauli } => plan.execute(&job.circuit).map(|run| {
                let v = run.measurements.expectation(pauli);
                (Out::Value(v.to_bits()), Some(run))
            }),
            JobRequest::Execute => unreachable!("the stream has no Execute requests"),
        });
        busy += secs(t);
        results.push(match run {
            Err(e) => {
                checks.flag(i, format!("serve job {i} replay: {e}"));
                Err(e.to_string())
            }
            Ok((out, run)) => {
                if let Some(p) =
                    run.and_then(|r| norm_problem(&format!("serve job {i}"), &r.measurements))
                {
                    checks.flag(i, p);
                }
                Ok(out)
            }
        });
    }
    (results, busy)
}

/// The same replay, layer by layer and traced.
fn replay_traced(
    stream: &[ServeJob],
    shape: &Shape,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<JobResult>, Vec<bool>) {
    let mut cache: Lru<Arc<FullPlan>> = Lru::new();
    let mut results = Vec::with_capacity(stream.len());
    let mut missed = Vec::with_capacity(stream.len());
    for (i, job) in stream.iter().enumerate() {
        let id = i as u32;
        tr.begin_job(id);
        let fp = CircuitFingerprint::of(&job.circuit);
        let cached = cache.get(&fp);
        missed.push(cached.is_none());
        let plan = match cached {
            Some(p) => Ok(p),
            None => layered::plan(tr, id, &job.circuit, shape).and_then(|p| {
                layered::verify(tr, id, &job.circuit, &p, shape)?;
                let p = Arc::new(p);
                cache.insert(fp, Arc::clone(&p));
                Ok(p)
            }),
        };
        let run = plan.map(|plan| match &job.request {
            JobRequest::Plan => (planned(&plan), None),
            JobRequest::Sample { shots, seed } => {
                let m = layered::execute(tr, id, &job.circuit, &plan, shape);
                let counts = layered::sample_counts(tr, id, &m, *shots, *seed);
                (Out::Counts(counts), Some(m))
            }
            JobRequest::Expect { pauli } => {
                let m = layered::execute(tr, id, &job.circuit, &plan, shape);
                let v = layered::expect(tr, id, &m, pauli);
                (Out::Value(v.to_bits()), Some(m))
            }
            JobRequest::Execute => unreachable!("the stream has no Execute requests"),
        });
        tr.end_job();
        results.push(match run {
            Err(e) => {
                checks.flag(i, format!("serve job {i} traced: {e}"));
                Err(e.to_string())
            }
            Ok((out, m)) => {
                if let Some(p) = m.and_then(|m| norm_problem(&format!("serve job {i} traced"), &m))
                {
                    checks.flag(i, p);
                }
                Ok(out)
            }
        });
    }
    (results, missed)
}

fn serve(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let shape = inputs::serve_shape();
    let jobs = inputs::serve_job_count(seconds);
    let serve_cfg = ServeConfig {
        workers: inputs::SERVE_WORKERS,
        cache_capacity: inputs::SERVE_CACHE,
        ..ServeConfig::default()
    };
    let ((stream, pool), setup) = repeat_setup(|| {
        let stream = inputs::serve_stream(seed, jobs);
        let pool = SessionPool::new(
            shape.spec,
            shape.cost.clone(),
            shape.cfg.clone(),
            serve_cfg.clone(),
        );
        (stream, pool)
    });
    let mut o = Outcome::default();
    let pool = match pool {
        Ok(p) => p,
        Err(e) => {
            o.job(vec![format!("session pool: {e}")]);
            return o;
        }
    };

    if trace {
        alloc::set_enabled(true);
    }
    let run = open_loop(pool, &stream);
    alloc::set_enabled(false);
    let mut checks = Checks {
        bad: vec![false; stream.len()],
        msgs: Vec::new(),
    };
    for (i, r) in run.results.iter().enumerate() {
        if let Err(e) = r {
            checks.flag(i, format!("serve job {i}: {e}"));
        }
    }
    let late_p95 = quantile(&run.layer.late, 0.95);
    let late_max = quantile(&run.layer.late, 1.0);
    if late_p95 > GEN_LATE_P95_BOUND_S || late_max > GEN_LATE_MAX_BOUND_S {
        o.invalid = Some(format!(
            "the load generator ran late (p95 {late_p95:.6} s, max {late_max:.6} s; \
             bounds {GEN_LATE_P95_BOUND_S} s and {GEN_LATE_MAX_BOUND_S} s)"
        ));
    }
    o.notes.push(format!(
        "open loop: {} jobs at {} jobs/s; generator late p95 {:.6} s, max {:.6} s; \
         plan cache {} hits, {} misses, {} evictions",
        stream.len(),
        inputs::SERVE_RATE,
        late_p95,
        late_max,
        run.layer.stats.cache_hits,
        run.layer.stats.cache_misses,
        run.layer.stats.cache_evictions,
    ));

    // The pool's determinism contract: its responses equal a serial
    // session-API replay of the same stream.
    let (replayed, replay_s) = replay_session(&stream, &shape, &mut checks);
    o.notes.push(format!(
        "serial session-API replay of the stream: {replay_s:.4} s"
    ));
    checks.compare(
        "pool response vs serial session-API replay",
        &replayed,
        &run.results,
    );

    let traced = trace.then(|| {
        alloc::set_enabled(true);
        let mut tr = Tracer::default();
        let (traced, missed) = replay_traced(&stream, &shape, &mut tr, &mut checks);
        alloc::set_enabled(false);
        checks.compare("traced replay vs pool response", &run.results, &traced);
        (tr, missed)
    });
    o.attempted = stream.len() as u64;
    o.failed = checks.bad.iter().filter(|&&b| b).count() as u64;
    o.mismatches = checks.msgs;
    let Some((tr, missed)) = traced else {
        let completed = run.latency.len();
        o.e2e = e2e_metrics(&setup, (run.wall_s, 1), completed, &run.latency);
        o.e2e.push(Metric::new(
            "job_s_p95",
            quantile(&run.latency, 0.95),
            "s",
            completed,
        ));
        return o;
    };

    o.layers = layer_metrics(&tr, replay_s, Some(&run.layer));
    // Per-job kernelize share on plan-cache misses.
    let mut per_job: HashMap<u32, (f64, f64)> = HashMap::new();
    for s in &tr.spans {
        let e = per_job.entry(s.job).or_default();
        match s.name {
            JOB_SPAN => e.0 += s.secs(),
            "kernelize" => e.1 += s.secs(),
            _ => {}
        }
    }
    let miss_shares: Vec<f64> = missed
        .iter()
        .enumerate()
        .filter(|(_, &m)| m)
        .filter_map(|(i, _)| per_job.get(&(i as u32)))
        .map(|(job, k)| ratio(*k, *job))
        .collect();
    let share = median(&miss_shares);
    o.notes.push(shares_note(&tr));
    o.notes.push(format!(
        "prediction `kernelize.busy_s dominates cache-miss jobs in serve_mix_n12-16`: \
         median kernelize share {:.1}% over {} miss job(s) (p10 {:.1}%, p90 {:.1}%): {}",
        100.0 * share,
        miss_shares.len(),
        100.0 * quantile(&miss_shares, 0.1),
        100.0 * quantile(&miss_shares, 0.9),
        verdict(share >= 0.5)
    ));
    o.notes.push(staging_note(&tr));
    o.tracer = Some(tr);
    o
}
