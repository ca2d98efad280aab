//! Differential tests for the sharded measurement engine
//! (`atlas-sampler`): Pauli expectations against the dense reference
//! across the full `StagingAlgo` × `KernelAlgo` × machine-shape sweep,
//! byte-identical seeded sampling across thread counts and shard
//! layouts, and marginals / top outcomes without any state gather.
//!
//! Everything here runs with `final_unpermute = false`: the state stays
//! sharded and permuted in the machine's last-stage layout, and the
//! measurement engine must undo the permutation in index space.

mod common;

use atlas::prelude::*;
use atlas::sampler::PauliOp;
use common::*;

/// A measurement-oriented config: no final unpermute (the engine works
/// on the permuted shards), tight ILP budgets like the amplitude
/// harness.
fn measurement_cfg(staging: StagingAlgo, kernelizer: KernelAlgo, threads: usize) -> AtlasConfig {
    AtlasConfig {
        staging,
        kernelizer,
        threads,
        final_unpermute: false,
        ilp_node_limit: 200_000,
        ..AtlasConfig::default()
    }
}

fn run_measurements(circuit: &Circuit, spec: MachineSpec, cfg: &AtlasConfig) -> Measurements {
    let out = Planner::new(spec, CostModel::default(), cfg.clone())
        .plan(circuit)
        .and_then(|compiled| compiled.execute(circuit))
        .expect("simulation failed");
    assert!(
        out.state.is_none(),
        "measurement path must not gather the state"
    );
    out.measurements
}

/// Dense-reference Pauli expectation by direct basis-state algebra.
fn dense_expectation(sv: &StateVector, p: &PauliString) -> f64 {
    let flip = (p.x_mask() | p.y_mask()) as usize;
    let sign = p.z_mask() | p.y_mask();
    let pref = match p.y_mask().count_ones() % 4 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => -Complex64::ONE,
        _ => -Complex64::I,
    };
    let amps = sv.amplitudes();
    let mut acc = Complex64::ZERO;
    for (x, &a) in amps.iter().enumerate() {
        let s = if (x as u64 & sign).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        acc += amps[x ^ flip].conj() * a * s;
    }
    let z = pref * acc;
    assert!(z.im.abs() < 1e-10, "Pauli expectation must be real");
    z.re
}

/// A fixed suite of Pauli strings covering diagonal, purely off-diagonal
/// and mixed cases (with odd and even Y counts).
fn pauli_suite(n: u32) -> Vec<PauliString> {
    let all = |op: PauliOp| PauliString::from_ops(n, &(0..n).map(|q| (q, op)).collect::<Vec<_>>());
    vec![
        all(PauliOp::Z),
        all(PauliOp::X),
        PauliString::from_ops(n, &[(0, PauliOp::Z), (n - 1, PauliOp::Z)]),
        PauliString::from_ops(n, &[(1, PauliOp::X), (n - 2, PauliOp::Y)]),
        PauliString::from_ops(n, &[(0, PauliOp::Y), (2, PauliOp::Z), (n - 1, PauliOp::X)]),
        PauliString::from_ops(n, &[(n / 2, PauliOp::Y)]),
    ]
}

/// Acceptance criterion: Pauli expectations match the dense reference
/// within 1e-9 across every staging algorithm, kernelization algorithm
/// and machine shape — on the permuted sharded state.
#[test]
fn expectations_match_dense_across_algos_and_shapes() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let reference = simulate_reference(&circuit);
    let suite = pauli_suite(8);
    let want: Vec<f64> = suite
        .iter()
        .map(|p| dense_expectation(&reference, p))
        .collect();
    for staging in all_staging_algos() {
        for kernelizer in all_kernel_algos() {
            for spec in shapes_for(staging, 8) {
                let cfg = measurement_cfg(staging, kernelizer, 1);
                let m = run_measurements(&circuit, spec, &cfg);
                for (p, &w) in suite.iter().zip(&want) {
                    let got = m.expectation(p);
                    assert!(
                        (got - w).abs() < 1e-9,
                        "<{p}> under {staging:?} x {kernelizer:?} on {}: got {got}, want {w}",
                        shape_label(&spec),
                    );
                }
            }
        }
    }
}

/// Acceptance criterion: with a fixed seed, sampled bitstrings are
/// byte-identical across thread counts and across shard counts (machine
/// shapes with 1, 4, 8 and 16 shards).
#[test]
fn seeded_samples_identical_across_threads_and_shapes() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let mut baseline: Option<Vec<u64>> = None;
    for spec in machine_shapes(8) {
        for threads in [1usize, 2, 8] {
            let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, threads);
            let m = run_measurements(&circuit, spec, &cfg);
            let samples = m.sample(128, 42);
            assert_eq!(samples.len(), 128);
            match &baseline {
                None => baseline = Some(samples),
                Some(b) => assert_eq!(
                    &samples,
                    b,
                    "samples diverged on {} with {threads} thread(s)",
                    shape_label(&spec)
                ),
            }
        }
    }
}

/// Sampling draws from the right distribution: a GHZ state only ever
/// measures all-zeros or all-ones, in roughly equal proportion.
#[test]
fn ghz_shots_hit_only_the_two_branches() {
    let circuit = atlas::circuit::generators::ghz(10);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 7,
    };
    let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1);
    let m = run_measurements(&circuit, spec, &cfg);
    let counts = m.sample_counts(2048, 9);
    assert_eq!(counts.len(), 2, "GHZ has exactly two outcomes: {counts:?}");
    let all_ones = (1u64 << 10) - 1;
    for &(bits, c) in &counts {
        assert!(bits == 0 || bits == all_ones, "impossible outcome {bits:b}");
        // Binomial(2048, 1/2): 6σ ≈ 136.
        assert!(
            (c as i64 - 1024).abs() < 160,
            "branch {bits:b} count {c} too far from 1024"
        );
    }
}

/// Marginals and per-outcome probabilities agree with the dense
/// reference on a multi-stage, permuted layout.
#[test]
fn marginals_and_probabilities_match_reference() {
    let circuit = Family::Qft.generate(9);
    let reference = simulate_reference(&circuit);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 6,
    };
    let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1);
    let m = run_measurements(&circuit, spec, &cfg);
    for qubits in [vec![0u32], vec![8, 0], vec![3, 1, 7]] {
        let dist = m.marginal(&qubits);
        assert_eq!(dist.len(), 1 << qubits.len());
        for (v, &got) in dist.iter().enumerate() {
            let want: f64 = (0..512u64)
                .filter(|x| {
                    qubits
                        .iter()
                        .enumerate()
                        .all(|(t, &q)| (x >> q) & 1 == (v as u64 >> t) & 1)
                })
                .map(|x| reference.probability(x))
                .sum();
            assert!(
                (got - want).abs() < 1e-9,
                "marginal {qubits:?} bin {v}: got {got}, want {want}"
            );
        }
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
    for x in [0u64, 1, 255, 256, 511] {
        assert!((m.probability(x) - reference.probability(x)).abs() < 1e-9);
    }
}

/// `top` matches the dense selector exactly (indices and order) on a
/// state with many exact probability ties — without gathering.
#[test]
fn top_outcomes_match_dense_selector_with_ties() {
    let circuit = atlas::circuit::generators::grover(6);
    let reference = simulate_reference(&circuit);
    let spec = MachineSpec {
        nodes: 1,
        gpus_per_node: 4,
        local_qubits: 4,
    };
    let cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 2);
    let m = run_measurements(&circuit, spec, &cfg);
    // The unambiguous winner (Grover's marked state) matches the dense
    // reference; the remaining outcomes tie up to floating-point noise,
    // so the selector is validated against this run's own probabilities
    // with the pinned order (descending p, ascending index).
    assert_eq!(m.top(1)[0].0, reference.top_probabilities(1)[0].0);
    let mut own: Vec<(u64, f64)> = (0..64u64)
        .map(|x| (x, m.probability(x)))
        .filter(|&(_, p)| p > atlas::qmath::EPS)
        .collect();
    own.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for k in [1usize, 5, 20] {
        let got = m.top(k);
        assert_eq!(
            got.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            own[..k.min(own.len())]
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>(),
            "top-{k} selection diverged from the pinned order"
        );
        for ((_, gp), (_, wp)) in got.iter().zip(&own) {
            assert_eq!(gp.to_bits(), wp.to_bits(), "top-{k} probability drifted");
        }
    }
}

/// Expectations and samples are identical whether the run unpermuted at
/// the end or left the state in the final stage layout — the index-space
/// unpermutation is exact.
#[test]
fn permuted_and_unpermuted_runs_agree() {
    let circuit = Family::Su2Random.generate(8);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let permuted = run_measurements(
        &circuit,
        spec,
        &measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1),
    );
    let mut cfg = measurement_cfg(StagingAlgo::IlpSearch, KernelAlgo::Dp, 1);
    cfg.final_unpermute = true;
    let unpermuted = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .and_then(|compiled| compiled.execute(&circuit))
        .unwrap()
        .measurements;
    for p in pauli_suite(8) {
        assert!((permuted.expectation(&p) - unpermuted.expectation(&p)).abs() < 1e-9);
    }
    assert_eq!(permuted.sample(64, 5), unpermuted.sample(64, 5));
}
