//! The NDJSON serve protocol: one JSON object per line in, one per
//! line out.
//!
//! ## Job lines (stdin)
//!
//! ```json
//! {"id":"j1","tenant":"alice","op":"sample","family":"qaoa","n":8,"shots":64,"seed":7}
//! {"id":"j2","tenant":"bob","op":"expect","family":"ghz","n":8,"pauli":"ZIIIIIIZ"}
//! {"id":"j3","tenant":"alice","op":"execute","family":"qaoa","n":8,"shift":0.25}
//! ```
//!
//! * `id` (string, required) — echoed on the response line.
//! * `tenant` (string, required) — fairness domain for round-robin
//!   scheduling.
//! * `op` (string, required) — `"plan"`, `"execute"`, `"sample"` or
//!   `"expect"`.
//! * Circuit: either `family` (the `atlas-sim --family` names) with `n`
//!   (qubits, default 10; each family has a minimum, and the maximum is
//!   `Circuit::MAX_QUBITS`), or `qasm` (inline OpenQASM-2 source,
//!   newlines escaped as `\n`).
//! * `shift` (number, optional) — adds `shift` to every gate parameter
//!   (structure preserved, so shifted points share one cached plan).
//! * `shots`/`seed` — for `op":"sample"` (shots required, seed
//!   defaults to 0).
//! * `pauli` — for `op":"expect"` (required; I/X/Y/Z per qubit,
//!   leftmost = highest qubit).
//! * `deadline_ms` (non-negative integer, optional) — relative job
//!   deadline in milliseconds. Expiry before EXECUTE (or at a stage
//!   barrier inside it) answers `"deadline_exceeded":true`; `0` is
//!   deterministically expired at dispatch.
//!
//! ## Stats lines (stdin)
//!
//! ```json
//! {"id":"s1","op":"stats"}
//! ```
//!
//! A `stats` line is a synchronization point, not a job: the server
//! waits for every previously submitted job to finish, then answers
//! with the pool's *deterministic* counters (jobs submitted / completed
//! / failed / cancelled / rejected / deadline-exceeded / panicked,
//! plan-cache hits / misses / evictions / entries). Because stdin is processed serially, the
//! counts cover exactly the jobs on the preceding lines — the response
//! is byte-identical across runs and worker counts. Wall-clock-shaped
//! values (queue high-water marks, scratch memo totals) are
//! deliberately excluded; they live in the trace export.
//!
//! ## Response lines (stdout)
//!
//! Responses carry *model-level* results only (simulated seconds,
//! counts, expectations) — never wall-clock time or cache state — so a
//! job stream's output is byte-identical across runs, worker counts
//! and cache warmth. Floats are printed with Rust's shortest-roundtrip
//! formatting, which is deterministic.

use crate::json::{self, Json};
use crate::pool::{JobOutcome, JobOutput, JobRequest};
use atlas_circuit::generators;
use atlas_circuit::{qasm, Circuit};
use atlas_error::AtlasError;
use atlas_ilp::SolveStatus;
use atlas_sampler::PauliString;
use std::fmt::Write as _;

/// One parsed job line: routing info plus the materialized request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Client-chosen id, echoed on the response line.
    pub id: String,
    /// Fairness domain.
    pub tenant: String,
    /// The circuit to run.
    pub circuit: Circuit,
    /// What to do with it.
    pub request: JobRequest,
    /// Relative deadline in milliseconds (`None` = no deadline).
    pub deadline_ms: Option<u64>,
}

/// One parsed stdin line: a job to schedule, or a synchronous `stats`
/// barrier.
#[derive(Clone, Debug)]
pub enum JobLine {
    /// A job for the pool.
    Job(JobSpec),
    /// `{"op":"stats"}`: drain the pool, then report its deterministic
    /// counters under this response id.
    Stats {
        /// Client-chosen id, echoed on the response line.
        id: String,
    },
}

fn req_str<'j>(v: &'j Json, key: &str) -> Result<&'j str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

/// Parses one NDJSON stdin line: a [`JobSpec`] or a `stats` barrier.
pub fn parse_line(line: &str) -> Result<JobLine, String> {
    let v = json::parse(line)?;
    if v.get("op").and_then(Json::as_str) == Some("stats") {
        return Ok(JobLine::Stats {
            id: req_str(&v, "id")?.to_string(),
        });
    }
    job_from_json(&v).map(JobLine::Job)
}

/// Parses one NDJSON job line into a [`JobSpec`].
pub fn parse_job(line: &str) -> Result<JobSpec, String> {
    job_from_json(&json::parse(line)?)
}

/// Reads a [`JobSpec`] out of one parsed job line.
fn job_from_json(v: &Json) -> Result<JobSpec, String> {
    let id = req_str(v, "id")?.to_string();
    let tenant = req_str(v, "tenant")?.to_string();
    let op = req_str(v, "op")?;

    let mut circuit = match (v.get("family"), v.get("qasm")) {
        (Some(_), Some(_)) => return Err("'family' and 'qasm' are mutually exclusive".into()),
        (None, None) => return Err("need 'family' or 'qasm'".into()),
        (None, Some(q)) => {
            let src = q.as_str().ok_or("non-string 'qasm'")?;
            qasm::from_qasm(src).map_err(|e| format!("qasm: {e}"))?
        }
        (Some(f), None) => {
            let name = f.as_str().ok_or("non-string 'family'")?;
            let n = match v.get("n") {
                Some(n) => n
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("'n' must be a non-negative integer")?,
                None => 10,
            };
            generators::by_name(name, n).map_err(|e| e.to_string())?
        }
    };
    if let Some(shift) = v.get("shift") {
        let s = shift.as_f64().ok_or("non-numeric 'shift'")?;
        circuit = circuit.map_params(|_, _, p| p + s);
    }

    let request = match op {
        "plan" => JobRequest::Plan,
        "execute" => JobRequest::Execute,
        "sample" => {
            let shots = v
                .get("shots")
                .and_then(Json::as_u64)
                .and_then(|s| usize::try_from(s).ok())
                .ok_or("op 'sample' needs integer 'shots'")?;
            let seed = match v.get("seed") {
                Some(s) => s.as_u64().ok_or("non-integer 'seed'")?,
                None => 0,
            };
            JobRequest::Sample { shots, seed }
        }
        "expect" => {
            let pauli: PauliString = req_str(v, "pauli")?
                .parse()
                .map_err(|e: AtlasError| format!("pauli: {e}"))?;
            JobRequest::Expect { pauli }
        }
        other => return Err(format!("unknown op '{other}'")),
    };
    let deadline_ms = match v.get("deadline_ms") {
        Some(d) => Some(
            d.as_u64()
                .ok_or("'deadline_ms' must be a non-negative integer")?,
        ),
        None => None,
    };
    Ok(JobSpec {
        id,
        tenant,
        circuit,
        request,
        deadline_ms,
    })
}

fn status_str(s: Option<SolveStatus>) -> &'static str {
    match s {
        None => "n/a",
        Some(SolveStatus::Optimal) => "optimal",
        Some(SolveStatus::Feasible) => "feasible",
        Some(SolveStatus::Infeasible) => "infeasible",
        Some(SolveStatus::Unknown) => "unknown",
    }
}

/// Renders a terminal job state as one NDJSON response line (no
/// trailing newline).
pub fn render_response(id: &str, result: &Result<JobOutcome, AtlasError>) -> String {
    let id = json::escape(id);
    match result {
        Err(e) => format!(
            r#"{{"id":"{id}","ok":false,"kind":"{}","error":"{}"}}"#,
            e.kind(),
            json::escape(&e.to_string())
        ),
        Ok(JobOutcome::Cancelled) => {
            format!(r#"{{"id":"{id}","ok":false,"cancelled":true}}"#)
        }
        Ok(JobOutcome::DeadlineExceeded) => {
            format!(r#"{{"id":"{id}","ok":false,"deadline_exceeded":true}}"#)
        }
        Ok(JobOutcome::Output(out)) => match out {
            JobOutput::Planned {
                stages,
                staging_cost,
                optimal,
                solve_status,
            } => format!(
                r#"{{"id":"{id}","ok":true,"op":"plan","stages":{stages},"staging_cost":{staging_cost},"optimal":{optimal},"status":"{}"}}"#,
                status_str(*solve_status)
            ),
            JobOutput::Executed {
                model_secs,
                kernels,
                norm,
                top,
                state: _,
            } => {
                let mut line = format!(
                    r#"{{"id":"{id}","ok":true,"op":"execute","model_secs":{model_secs},"kernels":{kernels},"norm":{norm},"top":["#
                );
                for (i, (bits, p)) in top.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "[{bits},{p}]");
                }
                line.push_str("]}");
                line
            }
            JobOutput::Sampled { counts } => {
                let mut line = format!(r#"{{"id":"{id}","ok":true,"op":"sample","counts":["#);
                for (i, (bits, c)) in counts.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "[{bits},{c}]");
                }
                line.push_str("]}");
                line
            }
            JobOutput::Expectation { value } => {
                format!(r#"{{"id":"{id}","ok":true,"op":"expect","value":{value}}}"#)
            }
        },
    }
}

/// Renders a `stats` response line from a pool snapshot (no trailing
/// newline). Only deterministic counters appear: with stdin processed
/// serially, each value is a pure function of the preceding job lines.
pub fn render_stats(id: &str, stats: &crate::pool::PoolStats) -> String {
    format!(
        concat!(
            r#"{{"id":"{id}","ok":true,"op":"stats","#,
            r#""jobs":{{"submitted":{sub},"completed":{comp},"failed":{fail},"#,
            r#""cancelled":{canc},"rejected":{rej},"#,
            r#""deadline_exceeded":{dead},"panicked":{pan}}},"#,
            r#""plan_cache":{{"hits":{hits},"misses":{miss},"evictions":{evic},"entries":{ent}}},"#,
            r#""analyze":{{"plans_checked":{achk},"plans_rejected":{arej}}}}}"#,
        ),
        id = json::escape(id),
        sub = stats.jobs_submitted,
        comp = stats.jobs_completed,
        fail = stats.jobs_failed,
        canc = stats.jobs_cancelled,
        rej = stats.jobs_rejected,
        dead = stats.jobs_deadline_exceeded,
        pan = stats.jobs_panicked,
        hits = stats.cache_hits,
        miss = stats.cache_misses,
        evic = stats.cache_evictions,
        ent = stats.cache_entries,
        achk = stats.analyze_plans_checked,
        arej = stats.analyze_plans_rejected,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_family_jobs_with_shift() {
        let spec = parse_job(
            r#"{"id":"a","tenant":"t0","op":"execute","family":"qaoa","n":8,"shift":0.5}"#,
        )
        .unwrap();
        assert_eq!(spec.id, "a");
        assert_eq!(spec.tenant, "t0");
        assert_eq!(spec.circuit.num_qubits(), 8);
        assert!(matches!(spec.request, JobRequest::Execute));
        assert_eq!(spec.deadline_ms, None);
        // The shift changes parameters but not structure.
        let base = parse_job(r#"{"id":"b","tenant":"t0","op":"execute","family":"qaoa","n":8}"#)
            .unwrap()
            .circuit;
        use atlas_core::session::CircuitFingerprint;
        assert_eq!(
            CircuitFingerprint::of(&base),
            CircuitFingerprint::of(&spec.circuit)
        );
    }

    #[test]
    fn parses_inline_qasm() {
        let line = r#"{"id":"q","tenant":"t","op":"plan","qasm":"OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"}"#;
        let spec = parse_job(line).unwrap();
        assert_eq!(spec.circuit.num_qubits(), 3);
        assert_eq!(spec.circuit.num_gates(), 3);
    }

    #[test]
    fn parses_sample_and_expect_ops() {
        let s = parse_job(
            r#"{"id":"s","tenant":"t","op":"sample","family":"ghz","n":6,"shots":32,"seed":9}"#,
        )
        .unwrap();
        match s.request {
            JobRequest::Sample { shots: 32, seed: 9 } => {}
            other => panic!("bad request: {other:?}"),
        }
        let e = parse_job(
            r#"{"id":"e","tenant":"t","op":"expect","family":"ghz","n":6,"pauli":"ZIIIIZ"}"#,
        )
        .unwrap();
        match e.request {
            JobRequest::Expect { ref pauli } => assert_eq!(pauli.num_qubits(), 6),
            other => panic!("bad request: {other:?}"),
        }
    }

    #[test]
    fn parses_optional_deadline() {
        let spec = parse_job(
            r#"{"id":"d","tenant":"t","op":"execute","family":"ghz","n":6,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(spec.deadline_ms, Some(250));
        let zero = parse_job(
            r#"{"id":"d0","tenant":"t","op":"execute","family":"ghz","n":6,"deadline_ms":0}"#,
        )
        .unwrap();
        assert_eq!(zero.deadline_ms, Some(0));
    }

    #[test]
    fn rejects_malformed_jobs() {
        for (line, needle) in [
            ("{}", "'id'"),
            (r#"{"id":"x"}"#, "'tenant'"),
            (
                r#"{"id":"x","tenant":"t","op":"frobnicate","family":"ghz"}"#,
                "unknown op",
            ),
            (
                r#"{"id":"x","tenant":"t","op":"plan"}"#,
                "'family' or 'qasm'",
            ),
            (
                r#"{"id":"x","tenant":"t","op":"plan","family":"ghz","qasm":"x"}"#,
                "mutually exclusive",
            ),
            (
                r#"{"id":"x","tenant":"t","op":"sample","family":"ghz"}"#,
                "'shots'",
            ),
            (
                r#"{"id":"x","tenant":"t","op":"plan","family":"nope"}"#,
                "unknown family",
            ),
            (
                r#"{"id":"x","tenant":"t","op":"plan","family":"ghz","n":3.5}"#,
                "'n'",
            ),
            (
                r#"{"id":"x","tenant":"t","op":"plan","family":"ghz","deadline_ms":-5}"#,
                "'deadline_ms'",
            ),
        ] {
            let err = parse_job(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn parse_line_routes_stats_and_jobs() {
        match parse_line(r#"{"id":"s1","op":"stats"}"#).unwrap() {
            JobLine::Stats { id } => assert_eq!(id, "s1"),
            other => panic!("expected stats, got {other:?}"),
        }
        match parse_line(r#"{"id":"a","tenant":"t","op":"plan","family":"ghz","n":6}"#).unwrap() {
            JobLine::Job(spec) => assert_eq!(spec.id, "a"),
            other => panic!("expected job, got {other:?}"),
        }
        // A stats line still needs an id; jobs keep their own checks.
        assert!(parse_line(r#"{"op":"stats"}"#)
            .unwrap_err()
            .contains("'id'"));
        assert!(parse_line(r#"{"id":"x"}"#)
            .unwrap_err()
            .contains("'tenant'"));
    }

    #[test]
    fn stats_response_is_deterministic_json() {
        let stats = crate::pool::PoolStats {
            jobs_submitted: 5,
            jobs_completed: 4,
            jobs_failed: 1,
            jobs_deadline_exceeded: 2,
            jobs_panicked: 1,
            cache_hits: 3,
            cache_misses: 2,
            cache_entries: 2,
            analyze_plans_checked: 2,
            analyze_plans_rejected: 1,
            // Wall-clock-shaped fields must not leak into the line.
            max_queued: 17,
            scratch_table_hits: 999,
            workers: 8,
            ..Default::default()
        };
        let line = render_stats("s \"1\"", &stats);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(v.get("id").unwrap().as_str(), Some("s \"1\""));
        assert_eq!(
            v.get("jobs").unwrap().get("submitted").unwrap().as_u64(),
            Some(5)
        );
        let jobs = v.get("jobs").unwrap();
        assert_eq!(jobs.get("deadline_exceeded").unwrap().as_u64(), Some(2));
        assert_eq!(jobs.get("panicked").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("plan_cache").unwrap().get("hits").unwrap().as_u64(),
            Some(3)
        );
        let analyze = v.get("analyze").unwrap();
        assert_eq!(analyze.get("plans_checked").unwrap().as_u64(), Some(2));
        assert_eq!(analyze.get("plans_rejected").unwrap().as_u64(), Some(1));
        for needle in ["max_queued", "scratch", "workers", "17", "999"] {
            assert!(!line.contains(needle), "nondeterministic leak: {needle}");
        }
    }

    #[test]
    fn responses_are_single_json_lines() {
        let cases = [
            Ok(JobOutcome::Output(JobOutput::Planned {
                stages: 2,
                staging_cost: 5,
                optimal: true,
                solve_status: Some(SolveStatus::Optimal),
            })),
            Ok(JobOutcome::Output(JobOutput::Sampled {
                counts: vec![(0, 17), (255, 15)],
            })),
            Ok(JobOutcome::Output(JobOutput::Expectation { value: -0.5 })),
            Ok(JobOutcome::Cancelled),
            Ok(JobOutcome::DeadlineExceeded),
            Err(AtlasError::Overloaded {
                queued: 4,
                capacity: 4,
            }),
            Err(AtlasError::JobPanicked {
                job: 3,
                payload_summary: "index out of bounds".into(),
            }),
            Err(AtlasError::ResourceExhausted {
                needed: 1 << 40,
                budget: 1 << 30,
            }),
        ];
        for result in &cases {
            let line = render_response("job \"7\"", result);
            assert!(!line.contains('\n'));
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.get("id").unwrap().as_str(), Some("job \"7\""));
        }
        let over = render_response("x", &cases[5]);
        assert!(over.contains(r#""kind":"overloaded""#), "{over}");
        let dead = render_response("x", &cases[4]);
        assert!(dead.contains(r#""deadline_exceeded":true"#), "{dead}");
        let panicked = render_response("x", &cases[6]);
        assert!(panicked.contains(r#""kind":"job-panicked""#), "{panicked}");
        let exhausted = render_response("x", &cases[7]);
        assert!(
            exhausted.contains(r#""kind":"resource-exhausted""#),
            "{exhausted}"
        );
    }
}
