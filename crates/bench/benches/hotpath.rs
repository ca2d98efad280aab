//! Hot-path benchmarks + the `BENCH_hotpath.json` emitter: specialized
//! layout-aware kernels vs. the in-tree generic oracles, measured in the
//! same process so the comparison is apples-to-apples on a single core.
//!
//! Two layers:
//!
//! * **apply** — dense `k`-qubit unitaries over a `2^N`-amplitude state:
//!   the dispatched fast path (`apply_matrix`, warm scratch arena) vs.
//!   the generic gather/multiply/scatter oracle (`apply_matrix_generic`)
//!   for unrolled contiguous k=1/k=2, a strided k=1, and the blocked
//!   k ≥ 3 multiply over a strided k=3, a contiguous and a strided k=5,
//!   and a strided k=7 (the kernelizer's widest fusion kernel);
//! * **reshuffle** — `Machine` stage transitions: the block-copy
//!   ping-pong relayout (`permute_state`) vs. the per-amplitude scatter
//!   oracle (`permute_state_scatter`) for a cross-shard permutation with
//!   long runs (swap of a mid local bit with a global bit), one with
//!   short runs (low local bit ↔ global bit), and a pure shard relabel
//!   (handle shuffle, no amplitude traffic at all).
//!
//! `ATLAS_BENCH_QUICK=1` shrinks the state and repetition counts for the
//! CI perf-smoke step (the JSON schema is identical and gains
//! `"quick": true`). `host_cpus` is recorded so runs from different hosts
//! can be told apart; these speedups are *single-thread* gains by construction,
//! which is exactly the point — they do not depend on parallel hardware.

use atlas_circuit::Circuit;
use atlas_machine::{CostModel, Machine, MachineSpec};
use atlas_qmath::{Matrix, QubitPermutation};
use atlas_statevec::{
    apply_gate, apply_matrix_generic, apply_matrix_with, fuse_gates, scratch, simulate_reference,
    Pool, Scratch, StateVector,
};
use criterion::{criterion_group, Criterion};
use std::fmt::Write as _;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("ATLAS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Dense state over `n` qubits.
fn dense_state(n: u32) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
        c.rz(0.1 * (q + 1) as f64, q);
    }
    let mut sv = StateVector::zero_state(n);
    for g in c.gates() {
        apply_gate(sv.amplitudes_mut(), g);
    }
    sv
}

/// A dense unitary over `qs` (H/RZ/CX ladder fused).
fn dense_unitary(n: u32, qs: &[u32]) -> Matrix {
    let mut kc = Circuit::new(n);
    for (i, &q) in qs.iter().enumerate() {
        kc.h(q);
        kc.rz(0.37 + i as f64, q);
        if i > 0 {
            kc.cx(qs[i - 1], q);
        }
    }
    fuse_gates(qs, kc.gates())
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

struct Case {
    name: &'static str,
    generic_secs: f64,
    fast_secs: f64,
}

impl Case {
    /// Guarded against a measured 0.0 (the handle-shuffle relabel case can
    /// undercut coarse monotonic clocks): the JSON must never contain
    /// `inf`, which `json.load` in the CI smoke step would reject.
    fn speedup(&self) -> f64 {
        self.generic_secs / self.fast_secs.max(1e-9)
    }
}

fn apply_cases(n: u32, reps: usize) -> Vec<Case> {
    let mut sv = dense_state(n);
    let mut scratch = Scratch::new();
    let shapes: Vec<(&'static str, Vec<u32>)> = vec![
        ("k1_contiguous", vec![0]),
        ("k1_strided", vec![n / 2]),
        ("k2_contiguous", vec![0, 1]),
        ("k3_strided", vec![1, 4, 7]),
        ("k5_contiguous", vec![0, 1, 2, 3, 4]),
        ("k5_strided", (0..5).map(|i| i * 3 + 1).collect()),
        ("k7_strided", (0..7).map(|i| i * 2 + 1).collect()),
    ];
    shapes
        .into_iter()
        .map(|(name, qs)| {
            let m = dense_unitary(n, &qs);
            // Warm the arena so the fast path is measured steady-state.
            apply_matrix_with(&mut scratch, sv.amplitudes_mut(), &qs, &m, &Pool::SERIAL);
            let fast_secs = best_of(reps, || {
                apply_matrix_with(&mut scratch, sv.amplitudes_mut(), &qs, &m, &Pool::SERIAL)
            });
            let generic_secs = best_of(reps, || apply_matrix_generic(sv.amplitudes_mut(), &qs, &m));
            let case = Case {
                name,
                generic_secs,
                fast_secs,
            };
            println!(
                "apply/{name:<14} generic {generic_secs:.4}s  fast {fast_secs:.4}s  \
                 speedup {:.2}x",
                case.speedup()
            );
            case
        })
        .collect()
}

fn reshuffle_cases(n: u32, l: u32, reps: usize) -> Vec<Case> {
    let spec = MachineSpec {
        nodes: 1,
        gpus_per_node: 4,
        local_qubits: l,
    };
    let reference = simulate_reference(&atlas_circuit::generators::ghz(n));
    let shapes: Vec<(&'static str, u32, u32)> = vec![
        // (name, qubit a, qubit b) — a ↔ b swap.
        ("long_runs_mid_local_x_global", l / 2, n - 1),
        ("short_runs_low_local_x_global", 1, n - 1),
        ("relabel_global_only", n - 2, n - 1),
    ];
    shapes
        .into_iter()
        .map(|(name, a, b)| {
            let mut map: Vec<u32> = (0..n).collect();
            map.swap(a as usize, b as usize);
            let perm = QubitPermutation::from_map(map);
            // Self-inverse swap: applying it repeatedly round-trips the
            // layout, so repetitions measure the steady state.
            let mut machine = Machine::with_state(spec, CostModel::default(), &reference);
            machine.permute_state(&perm, 0); // warm the ping-pong spare
            let fast_secs = best_of(reps, || machine.permute_state(&perm, 0));
            let mut machine = Machine::with_state(spec, CostModel::default(), &reference);
            let generic_secs = best_of(reps, || machine.permute_state_scatter(&perm, 0));
            let case = Case {
                name,
                generic_secs,
                fast_secs,
            };
            println!(
                "reshuffle/{name:<30} scatter {generic_secs:.4}s  blocks {fast_secs:.4}s  \
                 speedup {:.2}x",
                case.speedup()
            );
            case
        })
        .collect()
}

fn bench_hotpath(c: &mut Criterion) {
    let n = if quick() { 16 } else { 20 };
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(3)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(200));
    let base = dense_state(n);
    for (name, qs) in [("k1_contiguous", vec![0u32]), ("k2_contiguous", vec![0, 1])] {
        let m = dense_unitary(n, &qs);
        g.bench_function(format!("fast_{name}_{n}q"), |b| {
            let mut sv = base.clone();
            b.iter(|| {
                scratch::with_thread(|s| {
                    apply_matrix_with(s, sv.amplitudes_mut(), &qs, &m, &Pool::SERIAL)
                })
            })
        });
        g.bench_function(format!("generic_{name}_{n}q"), |b| {
            let mut sv = base.clone();
            b.iter(|| apply_matrix_generic(sv.amplitudes_mut(), &qs, &m))
        });
    }
    g.finish();
}

fn emit_json() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (n_apply, n_shuffle, l_shuffle, reps) = if quick() {
        (16u32, 16u32, 14u32, 2usize)
    } else {
        (20, 22, 20, 5)
    };
    let apply = apply_cases(n_apply, reps);
    let shuffle = reshuffle_cases(n_shuffle, l_shuffle, reps);

    let fmt_cases = |cases: &[Case]| -> String {
        let mut s = String::new();
        for (i, c) in cases.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{}\": {{\"generic_secs\": {:.6}, \"fast_secs\": {:.6}, \"speedup\": {:.3}}}{}",
                c.name,
                c.generic_secs,
                c.fast_secs,
                c.speedup(),
                if i + 1 < cases.len() { ",\n" } else { "\n" }
            );
        }
        s
    };
    let json = format!(
        "{{\n  \"bench\": \"hotpath_specialized_vs_generic\",\n  \"quick\": {},\n  \
         \"host_cpus\": {host_cpus},\n  \"apply_qubits\": {n_apply},\n  \
         \"reshuffle_qubits\": {n_shuffle},\n  \"reshuffle_local_qubits\": {l_shuffle},\n  \
         \"apply\": {{\n{}  }},\n  \"reshuffle\": {{\n{}  }}\n}}\n",
        quick(),
        fmt_cases(&apply),
        fmt_cases(&shuffle),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}:\n{json}");
}

criterion_group!(benches, bench_hotpath);

fn main() {
    benches();
    emit_json();
}
