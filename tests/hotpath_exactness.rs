//! Byte-exactness of the specialized execution hot paths against their
//! in-tree generic oracles.
//!
//! The layout-aware kernels in `atlas_statevec::apply` (unrolled `k ≤ 2`,
//! contiguous low-window chunks, scratch-cached gather) and the
//! block-copy relayout in `atlas_machine` are *replacements* for generic
//! code on the innermost `2^n` sweep — they are only admissible because
//! they perform the identical floating-point operations in the identical
//! order. These properties pin that down to the bit: any rounding
//! difference at all is a failure, not a tolerance question. That is also
//! the property that keeps thread-count determinism intact: a kernel split
//! over a pool runs the same range code on each piece of its groups.

use atlas::machine::{CostModel, Machine, MachineSpec};
use atlas::prelude::*;
use atlas::qmath::{Complex64, Matrix, QubitPermutation};
use atlas::statevec::{
    apply_batched, apply_gate, apply_matrix, apply_matrix_generic, apply_matrix_with, fuse_gates,
    scratch, simulate_reference, with_pool, StateVector,
};
use proptest::prelude::*;

/// Deterministic dense state from a seed: H/RZ/T walls with seeded angles
/// plus an entangling ladder.
fn dense_state(n: u32, seed: u64) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q)
            .rz(0.077 * ((seed % 97) as f64 + q as f64 + 1.0), q)
            .t(q);
    }
    for q in 1..n {
        c.cx(q - 1, q);
    }
    simulate_reference(&c)
}

/// A dense-ish unitary over `qs` from a seeded circuit on those qubits.
fn seeded_unitary(n: u32, qs: &[u32], seed: u64) -> Matrix {
    let mut kc = Circuit::new(n);
    for (i, &q) in qs.iter().enumerate() {
        kc.h(q).rz(0.31 + (seed % 13) as f64 * 0.17 + i as f64, q);
        if i > 0 {
            kc.cx(qs[i - 1], q);
        }
    }
    fuse_gates(qs, kc.gates())
}

/// Picks `k` distinct qubits below `n` from a seed, in a seed-dependent
/// (not necessarily sorted) order.
fn qubit_subset(n: u32, k: usize, seed: u64) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..all.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        all.swap(i, (s >> 33) as usize % (i + 1));
    }
    all.truncate(k);
    all
}

fn assert_bits_eq(a: &StateVector, b: &StateVector, label: &str) {
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{label}: amplitude {i}: {x:?} vs {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dispatched `apply_matrix` (whole, and split over a 4-thread pool)
    /// is byte-identical to the generic oracle for every k = 1..=5, across
    /// contiguous (low-window) and strided qubit subsets in random order.
    #[test]
    fn apply_matrix_fast_paths_match_generic_bitwise(
        n in 6u32..11,
        k in 1usize..6,
        seed in any::<u64>(),
        contiguous in any::<bool>(),
    ) {
        let k = k.min(n as usize);
        let qs: Vec<u32> = if contiguous {
            // Low window {0..k} in seed-dependent order.
            qubit_subset(k as u32, k, seed)
        } else {
            qubit_subset(n, k, seed)
        };
        let m = seeded_unitary(n, &qs, seed);
        let base = dense_state(n, seed);

        let mut fast = base.clone();
        apply_matrix(fast.amplitudes_mut(), &qs, &m);
        let mut generic = base.clone();
        apply_matrix_generic(generic.amplitudes_mut(), &qs, &m);
        assert_bits_eq(&fast, &generic, &format!("serial qs={qs:?}"));

        let mut par = base.clone();
        with_pool(4, |pool| {
            scratch::with_thread(|s| apply_matrix_with(s, par.amplitudes_mut(), &qs, &m, pool))
        });
        assert_bits_eq(&par, &generic, &format!("parallel qs={qs:?}"));
    }

    /// Dispatched `apply_permutation` matches its generic oracle bitwise
    /// over random in-kernel permutations with random phases.
    #[test]
    fn apply_permutation_fast_paths_match_generic_bitwise(
        n in 6u32..11,
        k in 1usize..5,
        seed in any::<u64>(),
        contiguous in any::<bool>(),
    ) {
        let k = k.min(n as usize);
        let qs: Vec<u32> = if contiguous {
            qubit_subset(k as u32, k, seed)
        } else {
            qubit_subset(n, k, seed)
        };
        let dim = 1usize << k;
        // Seeded permutation of the kernel basis + seeded unit phases.
        let dst: Vec<u32> = qubit_subset(dim as u32, dim, seed ^ 0xABCD);
        let phase: Vec<Complex64> = (0..dim)
            .map(|x| Complex64::cis(0.2 * x as f64 + (seed % 31) as f64))
            .collect();
        let base = dense_state(n, seed);

        let mut fast = base.clone();
        atlas::statevec::apply::apply_permutation(fast.amplitudes_mut(), &qs, &dst, &phase);
        let mut generic = base.clone();
        atlas::statevec::apply::apply_permutation_generic(
            generic.amplitudes_mut(), &qs, &dst, &phase,
        );
        assert_bits_eq(&fast, &generic, &format!("perm qs={qs:?} dst={dst:?}"));
    }

    /// Scratch-arena `apply_controlled_matrix` matches its generic oracle
    /// bitwise.
    #[test]
    fn apply_controlled_matrix_matches_generic_bitwise(
        n in 6u32..11,
        kc in 1usize..3,
        kt in 1usize..3,
        seed in any::<u64>(),
    ) {
        let all = qubit_subset(n, kc + kt, seed);
        let (controls, targets) = all.split_at(kc);
        let m = seeded_unitary(n, targets, seed);
        let base = dense_state(n, seed);

        let mut fast = base.clone();
        atlas::statevec::apply::apply_controlled_matrix(
            fast.amplitudes_mut(), controls, targets, &m,
        );
        let mut generic = base.clone();
        atlas::statevec::apply::apply_controlled_matrix_generic(
            generic.amplitudes_mut(), controls, targets, &m,
        );
        assert_bits_eq(&fast, &generic, &format!("ctrl {controls:?}->{targets:?}"));
    }

    /// The compiled batched path is byte-identical to gathering the batch
    /// and applying each remapped gate through `apply_gate` (the shape of
    /// the pre-refactor implementation).
    #[test]
    fn apply_batched_matches_gatherwise_reference_bitwise(
        n in 4u32..9,
        seed in any::<u64>(),
    ) {
        let b = 3.min(n as usize);
        let active = qubit_subset(n, b, seed);
        let mut kernel = Circuit::new(n);
        kernel
            .h(active[0])
            .rz(0.4 + (seed % 7) as f64, active[1 % b])
            .cx(active[0], active[1 % b])
            .t(active[b - 1])
            .cp(0.9, active[b - 1], active[0]);
        let base = dense_state(n, seed);

        let mut fast = base.clone();
        apply_batched(fast.amplitudes_mut(), &active, kernel.gates());

        // Reference: explicit gather → per-gate apply_gate → scatter.
        let mut reference = base.clone();
        let mut sorted = active.clone();
        sorted.sort_unstable();
        let dim = 1usize << b;
        let offsets: Vec<u64> = (0..dim as u64)
            .map(|x| atlas::qmath::deposit_bits(x, &sorted))
            .collect();
        let remapped: Vec<Gate> = kernel
            .gates()
            .iter()
            .map(|g| {
                let local: Vec<u32> = g
                    .qubits
                    .iter()
                    .map(|q| sorted.iter().position(|&aq| aq == q).unwrap() as u32)
                    .collect();
                Gate::new(g.kind, &local)
            })
            .collect();
        let amps = reference.amplitudes_mut();
        let mut buf = vec![Complex64::ZERO; dim];
        for g in 0..(amps.len() >> b) as u64 {
            let base_idx = atlas::qmath::insert_bits(g, &sorted);
            for (x, off) in offsets.iter().enumerate() {
                buf[x] = amps[(base_idx | off) as usize];
            }
            for gate in &remapped {
                apply_gate(&mut buf, gate);
            }
            for (x, off) in offsets.iter().enumerate() {
                amps[(base_idx | off) as usize] = buf[x];
            }
        }
        assert_bits_eq(&fast, &reference, &format!("batched {active:?}"));
    }

    /// The block-copy relayout engine is byte-identical to the
    /// per-amplitude scatter oracle for arbitrary permutations and flips —
    /// covering the shard-local in-place path, the pure relabel
    /// (handle-shuffle) path, and the general ping-pong path.
    #[test]
    fn permute_state_blocks_match_scatter_bitwise(
        seed in any::<u64>(),
        flip_seed in any::<u64>(),
        steps in 1usize..4,
    ) {
        let n = 8u32;
        let spec = MachineSpec { nodes: 2, gpus_per_node: 2, local_qubits: 5 };
        let reference = dense_state(n, seed);
        let mut blocks = Machine::with_state(spec, CostModel::default(), &reference);
        let mut scatter = Machine::with_state(spec, CostModel::default(), &reference);
        // Chain several transitions so ping-pong reuse (not just the
        // first, freshly-allocated pass) is exercised.
        let mut s = seed | 1;
        for step in 0..steps {
            let mut map: Vec<u32> = (0..n).collect();
            for i in (1..map.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                map.swap(i, (s >> 33) as usize % (i + 1));
            }
            let perm = QubitPermutation::from_map(map);
            let flip = (flip_seed.rotate_left(step as u32 * 13)) & ((1u64 << n) - 1);
            blocks.permute_state(&perm, flip);
            scatter.permute_state_scatter(&perm, flip);
        }
        let a = blocks.gather_state();
        let b = scatter.gather_state();
        assert_bits_eq(&a, &b, "relayout");
        // Cost accounting must agree too (shared charge helper).
        let (ra, rb) = (blocks.report(), scatter.report());
        prop_assert_eq!(ra.bytes_intra, rb.bytes_intra);
        prop_assert_eq!(ra.bytes_inter, rb.bytes_inter);
        prop_assert!((ra.comm_secs - rb.comm_secs).abs() < 1e-15);
    }

    /// Shard-local and relabel-only transitions (the in-place and
    /// handle-shuffle fast paths) also match the scatter oracle.
    #[test]
    fn local_and_relabel_permutations_match_scatter_bitwise(
        seed in any::<u64>(),
        local_flip in any::<u64>(),
        high_flip in any::<u64>(),
    ) {
        let n = 8u32;
        let l = 5u32;
        let spec = MachineSpec { nodes: 2, gpus_per_node: 2, local_qubits: l };
        let reference = dense_state(n, seed);

        // Low-closed permutation: shuffle bits 0..l and l..n separately.
        let mut map: Vec<u32> = (0..n).collect();
        let mut s = seed | 1;
        for range in [0..l as usize, l as usize..n as usize] {
            let lo = range.start;
            for i in (lo + 1..range.end).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                map.swap(i, lo + (s >> 33) as usize % (i - lo + 1));
            }
        }
        let perm = QubitPermutation::from_map(map);
        let flip = (local_flip & ((1 << l) - 1)) | (high_flip & ((1 << n) - (1 << l)));
        let mut blocks = Machine::with_state(spec, CostModel::default(), &reference);
        let mut scatter = Machine::with_state(spec, CostModel::default(), &reference);
        blocks.permute_state(&perm, flip);
        scatter.permute_state_scatter(&perm, flip);
        assert_bits_eq(&blocks.gather_state(), &scatter.gather_state(), "low-closed");

        // Pure relabel: identity permutation, only high flip bits.
        let relabel_flip = high_flip & ((1 << n) - (1 << l));
        let mut blocks = Machine::with_state(spec, CostModel::default(), &reference);
        let mut scatter = Machine::with_state(spec, CostModel::default(), &reference);
        blocks.permute_state(&QubitPermutation::identity(n as usize), relabel_flip);
        scatter.permute_state_scatter(&QubitPermutation::identity(n as usize), relabel_flip);
        assert_bits_eq(&blocks.gather_state(), &scatter.gather_state(), "relabel");
    }
}
