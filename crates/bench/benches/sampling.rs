//! Sharded-measurement-engine benchmarks + the `BENCH_sampling.json`
//! emitter.
//!
//! Measures the post-execution workload family on a 24-qubit functional
//! run distributed over 8 shards (2 nodes × 2 GPUs, L = 21) — the shape
//! whose execution the parallel bench times — at 1 thread vs 8 threads:
//!
//! * **shots** — 4096 seeded inverse-CDF samples (one logical-chunk CDF
//!   pass + per-shot chunk scans);
//! * **expectation** — a diagonal (`Z…Z`) and an off-diagonal (X/Y-mixed)
//!   Pauli-string expectation, reduced per shard;
//! * **top-8** — bounded-heap top outcomes.
//!
//! None of these paths gathers or unpermutes the `2^24` state — that is
//! the point of the engine — so the JSON also records the peak extra
//! allocation the CDF needs (`2^{24-12}` chunk masses = 32 KiB).
//!
//! On a single-core CI container the speedup sits near 1.0 by
//! construction; `host_cpus` is recorded so the numbers stay
//! interpretable across hosts.

use atlas_core::config::AtlasConfig;
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};
use atlas_sampler::{Measurements, PauliString, SAMPLE_CHUNK_BITS};
use criterion::{criterion_group, Criterion};
use std::time::Instant;

const N: u32 = 24;
const SHOTS: usize = 4096;

fn measurements_for(n: u32, l: u32, threads: usize) -> Measurements {
    let circuit = atlas_circuit::generators::qaoa(n);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: l,
    };
    let cfg = AtlasConfig {
        threads,
        final_unpermute: false,
        ..AtlasConfig::default()
    };
    Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .and_then(|compiled| compiled.execute(&circuit))
        .expect("plan + execute")
        .measurements
}

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    g.sample_size(3)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    // A small shape keeps the criterion smoke cheap; the emitter below
    // does the paper-scale n=24 run.
    let m = measurements_for(16, 13, 1);
    let zz: PauliString = "ZZZZZZZZZZZZZZZZ".parse().unwrap();
    g.bench_function("sample_1024_n16", |b| b.iter(|| m.sample(1024, 7)));
    g.bench_function("expect_diag_n16", |b| b.iter(|| m.expectation(&zz)));
    g.finish();
}

/// Best-of-`reps` wall time of `f`, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn emit_json() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut m = measurements_for(N, 21, host_cpus.min(8));

    let diag: PauliString = "ZZZZZZZZZZZZZZZZZZZZZZZZ".parse().unwrap();
    let mixed: PauliString = "XIZIYIXIZIYIXIZIYIXIZIYI".parse().unwrap();

    let mut t = |threads: usize| -> (f64, f64, f64, f64) {
        m.set_threads(threads);
        let shots = best_of(2, || {
            assert_eq!(m.sample(SHOTS, 7).len(), SHOTS);
        });
        let e_diag = best_of(2, || {
            m.expectation(&diag);
        });
        let e_mixed = best_of(2, || {
            m.expectation(&mixed);
        });
        let top = best_of(2, || {
            assert_eq!(m.top(8).len(), 8);
        });
        (shots, e_diag, e_mixed, top)
    };
    let (s1, d1, x1, t1) = t(1);
    let (s8, d8, x8, t8) = t(8);

    let json = format!(
        "{{\n  \"bench\": \"sharded_measurement_engine\",\n  \"qubits\": {N},\n  \"shards\": 8,\n  \"host_cpus\": {host_cpus},\n  \"shots\": {SHOTS},\n  \"cdf_chunk_bits\": {SAMPLE_CHUNK_BITS},\n  \"gathers_full_state\": false,\n  \"sample_{SHOTS}\": {{\n    \"t1_secs\": {s1:.6},\n    \"t8_secs\": {s8:.6},\n    \"speedup\": {:.3},\n    \"shots_per_sec_t1\": {:.0}\n  }},\n  \"expect_diagonal_z24\": {{\n    \"t1_secs\": {d1:.6},\n    \"t8_secs\": {d8:.6},\n    \"speedup\": {:.3}\n  }},\n  \"expect_offdiag_xyz\": {{\n    \"t1_secs\": {x1:.6},\n    \"t8_secs\": {x8:.6},\n    \"speedup\": {:.3}\n  }},\n  \"top8\": {{\n    \"t1_secs\": {t1:.6},\n    \"t8_secs\": {t8:.6},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        s1 / s8,
        SHOTS as f64 / s1,
        d1 / d8,
        x1 / x8,
        t1 / t8,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sampling.json");
    std::fs::write(path, &json).expect("write BENCH_sampling.json");
    println!("\nwrote {path}:\n{json}");
}

criterion_group!(benches, bench_sampling);

fn main() {
    benches();
    emit_json();
}
