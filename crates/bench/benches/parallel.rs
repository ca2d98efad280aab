//! Parallel-execution-engine benchmarks + the `BENCH_parallel.json`
//! emitter that starts the repo's performance trajectory record.
//!
//! Two layers are measured, each at 1 thread vs 8 threads:
//!
//! * **kernel** — a dense 5-qubit fused unitary applied to a 24-qubit
//!   amplitude array via `apply_matrix_with` with its groups split over
//!   a worker pool started for the call (the intra-shard path);
//! * **end-to-end** — a functional plan + execute of QAOA-24 on a 2×2-GPU
//!   shape (8 shards), exercising the shard-parallel engine, the
//!   `FastKernel` classification and the all-to-all barriers.
//!
//! The emitter records best-of-N wall times and the measured speedup in
//! `BENCH_parallel.json` at the workspace root, together with the host
//! core count — on a single-core CI container the speedup will sit near
//! 1.0 by construction, and the recorded `host_cpus` field is what makes
//! the number interpretable across hosts.

use atlas_circuit::Circuit;
use atlas_core::config::AtlasConfig;
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};
use atlas_qmath::Complex64;
use atlas_qmath::Matrix;
use atlas_statevec::{apply_gate, apply_matrix_with, fuse_gates, scratch, with_pool, StateVector};
use criterion::{criterion_group, Criterion};
use std::time::Instant;

const N: u32 = 24; // 2^24 amplitudes = 256 MiB of state

fn dense_state() -> StateVector {
    let mut c = Circuit::new(N);
    for q in 0..N {
        c.h(q);
        c.rz(0.1 * (q + 1) as f64, q);
    }
    let mut sv = StateVector::zero_state(N);
    for g in c.gates() {
        apply_gate(sv.amplitudes_mut(), g);
    }
    sv
}

fn fused_k5() -> (Vec<u32>, Matrix) {
    let qubits: Vec<u32> = (0..5).map(|i| i * 3 + 1).collect();
    let mut kc = Circuit::new(N);
    for (i, &q) in qubits.iter().enumerate() {
        kc.h(q);
        if i > 0 {
            kc.cx(qubits[i - 1], q);
        }
    }
    (qubits.clone(), fuse_gates(&qubits, kc.gates()))
}

/// One dense kernel apply with its groups split over a `threads`-worker
/// pool started for the call.
fn apply_split(sv: &mut StateVector, qubits: &[u32], m: &Matrix, threads: usize) {
    with_pool(threads, |pool| {
        scratch::with_thread(|s| apply_matrix_with(s, sv.amplitudes_mut(), qubits, m, pool))
    });
}

fn simulate_qaoa24(threads: usize) {
    let circuit = atlas_circuit::generators::qaoa(N);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 21, // 8 shards on 4 GPUs
    };
    let cfg = AtlasConfig {
        threads,
        ..AtlasConfig::default()
    };
    let run = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .and_then(|compiled| compiled.execute(&circuit))
        .unwrap();
    assert!(run.report.kernels > 0);
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    g.sample_size(3)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    let (qubits, fused) = fused_k5();
    for threads in [1usize, 8] {
        let base = dense_state();
        g.bench_function(format!("fused_k5_24q_t{threads}"), |b| {
            b.iter_batched_ref(
                || base.clone(),
                |sv| apply_split(sv, &qubits, &fused, threads),
                criterion::BatchSize::LargeInput,
            )
        });
    }
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

    // Kernel-level: dense k=5 fused apply over 2^24 amplitudes.
    let (qubits, fused) = fused_k5();
    let mut sv = dense_state();
    let kernel_t1 = best_of(3, || apply_split(&mut sv, &qubits, &fused, 1));
    let kernel_t8 = best_of(3, || apply_split(&mut sv, &qubits, &fused, 8));
    drop(sv);

    // End-to-end: functional QAOA-24 across 8 shards.
    let sim_t1 = best_of(2, || simulate_qaoa24(1));
    let sim_t8 = best_of(2, || simulate_qaoa24(8));

    let json = format!(
        "{{\n  \"bench\": \"parallel_shard_execution_engine\",\n  \"qubits\": {N},\n  \"host_cpus\": {host_cpus},\n  \"kernel_fused_k5\": {{\n    \"t1_secs\": {kernel_t1:.6},\n    \"t8_secs\": {kernel_t8:.6},\n    \"speedup\": {:.3}\n  }},\n  \"simulate_qaoa24_8shards\": {{\n    \"t1_secs\": {sim_t1:.6},\n    \"t8_secs\": {sim_t8:.6},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        kernel_t1 / kernel_t8,
        sim_t1 / sim_t8,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {path}:\n{json}");
}

criterion_group!(benches, bench_parallel);

fn main() {
    benches();
    emit_json();
    // Silence unused warnings for items only the emitter uses.
    let _ = Complex64::ONE;
}
