//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, the layer notes, a metric table and, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`). Exits 1 when an output check fails, 2 on bad
//! arguments and 3 when the run is invalid.

use atlas_perfbench::alloc::CountingAlloc;
use atlas_perfbench::report::{self, json_str, print_table, ratio, result_line};
use atlas_perfbench::workloads::{self, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn provenance(args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let llc = report::llc_bytes();
    let state = args.workload.state_bytes();
    let (threads, workers) = args.workload.threads_and_workers();
    format!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpus\": {cpus}, \"llc_bytes\": {}, \"state_bytes\": {state}, \
         \"state_fits_llc\": {}, \"git_head\": {}, \"threads\": {threads}, \"workers\": {workers}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace as u8,
        llc.map_or("null".to_string(), |b| b.to_string()),
        llc.map_or("null".to_string(), |b| (state <= b).to_string()),
        report::git_head().map_or("null".to_string(), |h| json_str(&h)),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    // The workload runs on a spawned thread: its page-aligned stack gives
    // every run the same stack alignment, where the main thread's
    // randomized one made the same set-up ~40% slower in some processes.
    let (workload, seed, seconds, trace) = (args.workload, args.seed, args.seconds, args.trace);
    let outcome = std::thread::Builder::new()
        .name("workload".into())
        .stack_size(64 << 20)
        .spawn(move || workloads::run(workload, seed, seconds, trace))
        .expect("the OS starts the workload thread")
        .join()
        .expect("the workload thread does not panic");
    for note in &outcome.notes {
        println!("note: {note}");
    }
    if let Some(why) = &outcome.invalid {
        println!("INVALID RUN: {why}");
        return ExitCode::from(3);
    }
    for m in outcome.mismatches.iter().take(20) {
        println!("CHECK FAILED: {m}");
    }
    if outcome.mismatches.len() > 20 {
        println!("CHECK FAILED: ... {} more", outcome.mismatches.len() - 20);
    }
    println!(
        "fail_ratio {} ({} failed of {} attempted)",
        ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    let metrics = if args.trace {
        print_table("per-layer metrics (traced run):", &outcome.layers);
        &outcome.layers
    } else {
        print_table("end-to-end metrics (untraced run):", &outcome.e2e);
        &outcome.e2e
    };
    if let Some(tr) = &outcome.tracer {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
