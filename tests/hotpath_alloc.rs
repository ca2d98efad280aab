//! Zero-allocation guarantee of the steady-state execution hot path.
//!
//! A counting global allocator wraps the system allocator; each test warms
//! the relevant scratch state with one pass, snapshots the allocation
//! counter, repeats the identical work, and asserts the second pass
//! allocated **nothing** (kernel level) or nothing amplitude-sized
//! (machine level, where per-step clock bookkeeping may grow a tiny
//! `Vec<StageTiming>`). This file is its own test binary on purpose: the
//! counter is process-global, so no unrelated test may run concurrently —
//! and the tests in it hold [`serialized`] for their whole body, so they
//! never overlap each other either.

use atlas::machine::{CostModel, Machine, MachineSpec, ShardOp, ShardProgram};
use atlas::prelude::*;
use atlas::qmath::{Complex64, QubitPermutation};
use atlas::statevec::{
    apply_batched_with, apply_kernel_with, apply_matrix_with, classify_kernel, fuse_gates,
    simulate_reference, FastKernel, Pool, Scratch, StateVector,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Threshold above which an allocation counts as "large" (amplitude-buffer
/// sized, as opposed to clock-bookkeeping noise).
const LARGE: usize = 4096;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Held by every test for its whole body: the harness runs tests on
/// parallel threads, and one test's allocations must not land in
/// another's measured window.
///
/// The harness itself also allocates right after a test finishes (it
/// reports the result and starts the next test's thread), which is
/// exactly when the next test takes the lock. So the lock holder first
/// waits until the process-wide counter has been still for a few
/// milliseconds: from then on every other thread is blocked on this
/// lock or idle in the harness.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the others still run.
    let guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    loop {
        let before = allocs();
        std::thread::sleep(std::time::Duration::from_millis(5));
        if allocs() == before {
            return guard;
        }
    }
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

fn large_allocs() -> u64 {
    LARGE_ALLOCS.load(Ordering::SeqCst)
}

fn dense_state(n: u32) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q).rz(0.1 * (q + 1) as f64, q);
    }
    simulate_reference(&c)
}

#[test]
fn warm_scratch_apply_layer_allocates_nothing() {
    let _serial = serialized();
    let n = 12u32;
    let mut sv = dense_state(n);
    let mut scratch = Scratch::new();

    // One fused kernel per structural class, plus raw dense applies over
    // every dispatch layout (unrolled 1q/2q, low window, strided generic).
    let dense_qs: Vec<Vec<u32>> = vec![
        vec![0],
        vec![7],
        vec![0, 1],
        vec![5, 2],
        vec![0, 1, 2],
        vec![2, 0, 1],
        vec![1, 5, 9],
        vec![8, 3, 6, 11],
    ];
    let mats: Vec<(Vec<u32>, atlas::qmath::Matrix)> = dense_qs
        .iter()
        .map(|qs| {
            let mut kc = Circuit::new(n);
            for (i, &q) in qs.iter().enumerate() {
                kc.h(q).rz(0.2 + i as f64, q);
                if i > 0 {
                    kc.cx(qs[i - 1], q);
                }
            }
            (qs.clone(), fuse_gates(qs, kc.gates()))
        })
        .collect();

    let mut diag_c = Circuit::new(n);
    diag_c.t(1).cp(0.7, 1, 3).rz(0.3, 3);
    let diag_kernel = classify_kernel(&fuse_gates(&[1, 3], diag_c.gates()));
    let mut perm_c = Circuit::new(n);
    perm_c.cx(2, 6).x(6).swap(2, 9);
    let perm_kernel = classify_kernel(&fuse_gates(&[2, 6, 9], perm_c.gates()));
    let ctrl_kernel = classify_kernel(&GateKind::CRY(0.8).matrix());
    let mut dense_c = Circuit::new(n);
    dense_c.h(1).cx(1, 4).h(4);
    let dense_kernel = classify_kernel(&fuse_gates(&[1, 4], dense_c.gates()));

    let scale = Complex64::cis(0.37);

    let pass = |scratch: &mut Scratch, sv: &mut StateVector| {
        for (qs, m) in &mats {
            apply_matrix_with(scratch, sv.amplitudes_mut(), qs, m, &Pool::SERIAL);
        }
        apply_kernel_with(
            scratch,
            sv.amplitudes_mut(),
            &[1, 3],
            &diag_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_kernel_with(
            scratch,
            sv.amplitudes_mut(),
            &[2, 6, 9],
            &perm_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_kernel_with(
            scratch,
            sv.amplitudes_mut(),
            &[5, 10],
            &ctrl_kernel,
            scale,
            &Pool::SERIAL,
        );
        apply_kernel_with(
            scratch,
            sv.amplitudes_mut(),
            &[1, 4],
            &dense_kernel,
            scale,
            &Pool::SERIAL,
        );
    };

    // Warm-up pass populates the arena (tables, pooled buffers).
    pass(&mut scratch, &mut sv);
    let misses = scratch.table_misses();

    let before = allocs();
    pass(&mut scratch, &mut sv);
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state apply layer performed {delta} heap allocations"
    );
    // Every qubit set was served from the memoized tables.
    assert_eq!(scratch.table_misses(), misses);
    assert!(scratch.table_hits() > 0);
}

#[test]
fn batched_allocations_are_independent_of_group_count() {
    let _serial = serialized();
    // `apply_batched_with` compiles its gate list once per call (a
    // bounded number of small allocations); the per-group sweep itself
    // must allocate nothing. Compare a warm call over 2^3 groups with one
    // over 2^9 groups: identical allocation counts ⇒ nothing allocates
    // inside the group loop.
    let mut shm = Circuit::new(6);
    shm.cx(0, 2).t(2).h(1).cp(0.4, 1, 0);
    let mut scratch = Scratch::new();
    let mut small = dense_state(6);
    let mut big = dense_state(12);
    // Warm both state sizes once (pools, tables).
    apply_batched_with(
        &mut scratch,
        small.amplitudes_mut(),
        &[0, 1, 2],
        shm.gates(),
    );
    apply_batched_with(&mut scratch, big.amplitudes_mut(), &[0, 1, 2], shm.gates());

    let before = allocs();
    apply_batched_with(
        &mut scratch,
        small.amplitudes_mut(),
        &[0, 1, 2],
        shm.gates(),
    );
    let small_delta = allocs() - before;
    let before = allocs();
    apply_batched_with(&mut scratch, big.amplitudes_mut(), &[0, 1, 2], shm.gates());
    let big_delta = allocs() - before;
    assert_eq!(
        small_delta, big_delta,
        "group sweep allocates: {small_delta} allocs over 8 groups vs {big_delta} over 512"
    );
}

#[test]
fn warm_machine_execute_and_relayout_allocate_no_buffers() {
    let _serial = serialized();
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let mut machine = Machine::with_state(spec, CostModel::default(), &reference);

    let h = Gate::new(GateKind::H, &[1]).matrix();
    let cp = Gate::new(GateKind::CP(0.6), &[0, 2]).matrix();
    let shm_parts: Arc<Vec<(Vec<u32>, atlas::qmath::Matrix)>> = Arc::new(vec![
        (vec![3u32], GateKind::T.matrix()),
        (vec![0u32, 4], GateKind::CP(0.3).matrix()),
    ]);
    let programs: Vec<ShardProgram> = (0..machine.num_shards())
        .map(|_| {
            vec![
                ShardOp::Fusion {
                    qubits: Arc::new(vec![1]),
                    kernel: Arc::new(classify_kernel(&h)),
                    scale: Complex64::cis(0.21),
                },
                ShardOp::Fusion {
                    qubits: Arc::new(vec![0, 2]),
                    kernel: Arc::new(classify_kernel(&cp)),
                    scale: Complex64::ONE,
                },
                ShardOp::ShmParts {
                    parts: shm_parts.clone(),
                    per_amp_ns: 1.0,
                    scale: Complex64::cis(0.11),
                },
                ShardOp::Scale(Complex64::cis(0.05)),
            ]
        })
        .collect();

    let mut map: Vec<u32> = (0..n).collect();
    map.swap(2, 8); // crosses the shard boundary → general ping-pong path
    let perm = QubitPermutation::from_map(map);

    // Warm-up: first program run builds the thread-local arena, first
    // permute allocates the ping-pong spare.
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0); // back to the original layout

    let before_large = large_allocs();
    let before_all = allocs();
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    let kernel_delta = allocs() - before_all;
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0);
    machine.stage_barrier();
    let large_delta = large_allocs() - before_large;
    assert_eq!(
        kernel_delta, 0,
        "steady-state shard-program execution performed {kernel_delta} heap allocations"
    );
    assert_eq!(
        large_delta, 0,
        "steady-state relayout allocated {large_delta} amplitude-sized buffers"
    );

    // And the engine still computes the right amplitudes.
    assert!(machine.gather_state().is_normalized(1e-9));
}

#[test]
fn enabled_recorder_steady_state_records_without_allocating() {
    let _serial = serialized();
    // The telemetry contract: attaching a live recorder keeps the warm
    // execution hot path at ZERO heap allocations — events go into
    // fixed-capacity thread-local buffers and drain into a pre-reserved
    // sink, and metric republication only updates counter slots the
    // warm-up pass created. Relayout keeps the same bar as the
    // recorder-off test above: no amplitude-sized buffers.
    let n = 10u32;
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let reference = dense_state(n);
    let mut machine = Machine::with_state(spec, CostModel::default(), &reference);
    let recorder = Recorder::enabled();
    machine.set_recorder(recorder.clone());

    let h = Gate::new(GateKind::H, &[1]).matrix();
    let programs: Vec<ShardProgram> = (0..machine.num_shards())
        .map(|_| {
            vec![ShardOp::Fusion {
                qubits: Arc::new(vec![1]),
                kernel: Arc::new(classify_kernel(&h)),
                scale: Complex64::ONE,
            }]
        })
        .collect();
    let mut map: Vec<u32> = (0..n).collect();
    map.swap(2, 8);
    let perm = QubitPermutation::from_map(map);

    // Warm-up: builds the scratch arena, the recorder's thread-local
    // event buffer, and the metric registry's counter slots.
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0);
    machine.stage_barrier();

    let before_large = large_allocs();
    let before = allocs();
    machine.run_shard_programs(&programs, &Pool::SERIAL);
    let kernel_delta = allocs() - before;
    machine.permute_state(&perm, 0);
    machine.permute_state(&perm, 0);
    let large_delta = large_allocs() - before_large;
    assert_eq!(
        kernel_delta, 0,
        "recording-enabled steady state performed {kernel_delta} heap allocations"
    );
    assert_eq!(
        large_delta, 0,
        "recording-enabled relayout allocated {large_delta} amplitude-sized buffers"
    );

    // The measured region really recorded: every second-pass event is in
    // the sink (nothing overflowed), alongside the warm-up pass's.
    assert_eq!(recorder.dropped(), 0);
    let events = recorder.drain();
    let kernel_spans = events.iter().filter(|e| e.name == "kernel.apply").count();
    let reshuffles = events
        .iter()
        .filter(|e| e.name == "machine.reshuffle")
        .count();
    assert_eq!(kernel_spans, 2 * machine.num_shards());
    assert_eq!(reshuffles, 4);
}

#[test]
fn intra_shard_split_allocates_per_call_not_per_op() {
    let _serial = serialized();
    // One shard and a two-thread budget: every op below splits its group
    // (or element) range over the pool. Starting the workers may allocate,
    // but only once per `run_shard_programs` call — ten rounds of the same
    // four ops must allocate no more than one round.
    let n = 16u32;
    let reference = dense_state(n);
    let mut machine =
        Machine::with_state(MachineSpec::single_gpu(n), CostModel::default(), &reference);
    assert_eq!(machine.num_shards(), 1);

    let mut dense_c = Circuit::new(n);
    dense_c.h(2).cx(2, 9).h(13).cx(9, 13);
    let dense = classify_kernel(&fuse_gates(&[2, 9, 13], dense_c.gates()));
    assert!(matches!(dense, FastKernel::Dense(_)));
    let mut diag_c = Circuit::new(n);
    diag_c.t(4).cp(0.7, 4, 15).rz(0.3, 15);
    let diag = classify_kernel(&fuse_gates(&[4, 15], diag_c.gates()));
    let round = vec![
        ShardOp::Fusion {
            qubits: Arc::new(vec![2, 9, 13]),
            kernel: Arc::new(dense),
            scale: Complex64::ONE,
        },
        ShardOp::Fusion {
            qubits: Arc::new(vec![4, 15]),
            kernel: Arc::new(diag),
            scale: Complex64::cis(0.21),
        },
        ShardOp::ShmParts {
            parts: Arc::new(vec![
                (vec![5u32], GateKind::H.matrix()),
                (vec![3u32], GateKind::T.matrix()),
            ]),
            per_amp_ns: 1.0,
            scale: Complex64::cis(0.11),
        },
        ShardOp::Scale(Complex64::cis(0.05)),
    ];
    let once: Vec<ShardProgram> = vec![round.clone()];
    let ten: Vec<ShardProgram> = vec![round
        .iter()
        .cycle()
        .take(10 * round.len())
        .cloned()
        .collect()];
    let pool = Pool::inline(2);

    // Warm-up: the calling thread's arena (tables, windows, pooled
    // buffers) and the clock bookkeeping.
    machine.run_shard_programs(&ten, &pool);
    machine.stage_barrier();

    let before = allocs();
    machine.run_shard_programs(&once, &pool);
    let once_delta = allocs() - before;
    let before = allocs();
    machine.run_shard_programs(&ten, &pool);
    let ten_delta = allocs() - before;
    assert!(
        ten_delta <= once_delta,
        "10 rounds allocated {ten_delta} times, one round {once_delta}: ops allocate"
    );
    assert!(machine.gather_state().is_normalized(1e-9));
}
