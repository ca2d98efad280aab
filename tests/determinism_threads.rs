//! Thread-count determinism: the parallel shard execution engine must
//! produce **byte-identical** amplitude vectors no matter how many host
//! threads it runs on.
//!
//! This is a stronger property than the differential harness's 1e-9
//! tolerance — it holds because serial and parallel execution run the
//! same compiled shard programs through the same kernels: each kernel in
//! `atlas_statevec::apply` is one body over a range of independent
//! groups, and a thread count only changes how that range is split
//! across workers (no cross-group reductions anywhere in the engine; the
//! measurement reductions combine fixed chunks in chunk order).

mod common;

use atlas::core::noise::{self, NoisyOutcome};
use atlas::prelude::*;
use atlas::sampler::PauliOp;

/// Runs `circuit` on `spec` with the given thread count and returns the
/// final state.
fn run_with_threads(circuit: &Circuit, spec: MachineSpec, threads: usize) -> StateVector {
    let cfg = AtlasConfig {
        threads,
        ..AtlasConfig::for_validation()
    };
    common::run_atlas_with(circuit, spec, &cfg)
}

fn assert_byte_identical(a: &StateVector, b: &StateVector, label: &str) {
    assert_eq!(a.num_qubits(), b.num_qubits());
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{label}: amplitude {i} differs between thread counts: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn one_and_eight_threads_are_byte_identical_on_regression_circuits() {
    for circuit in common::regression_circuits() {
        for spec in common::machine_shapes(circuit.num_qubits()) {
            let serial = run_with_threads(&circuit, spec, 1);
            let parallel = run_with_threads(&circuit, spec, 8);
            assert_byte_identical(
                &serial,
                &parallel,
                &format!("{} on {}", circuit.name(), common::shape_label(&spec)),
            );
        }
    }
}

/// Plans the noisy template of `circuit` on `spec` and runs the full
/// trajectory sweep with the given thread count.
fn run_noisy_with(circuit: &Circuit, spec: MachineSpec, threads: usize) -> NoisyOutcome {
    let cfg = AtlasConfig {
        threads,
        seed: 41,
        noise: 0.05,
        trajectories: 7,
        ..AtlasConfig::for_validation()
    };
    let planner = Planner::new(spec, CostModel::default(), cfg);
    let template = noise::noisy_template(circuit);
    let plan = planner.plan_backend(&template).expect("noisy plan");
    noise::run_noisy(&plan, &template, 96).expect("noisy sweep")
}

/// Noise trajectories are drawn from the splittable counter RNG, keyed
/// only by `(seed, trajectory index)` — so the aggregated shot counts
/// must be **byte-identical** across thread counts *and* across machine
/// shapes (the shard layout must not leak into the physics).
#[test]
fn noisy_trajectories_are_identical_across_threads_and_shapes() {
    let circuit = atlas::circuit::generators::qaoa(8);
    let shapes = common::machine_shapes(circuit.num_qubits());
    let baseline = run_noisy_with(&circuit, shapes[0], 1);
    assert_eq!(baseline.trajectories, 7);
    assert_eq!(baseline.shots, 96);
    assert_eq!(
        baseline.counts.iter().map(|(_, c)| c).sum::<u64>(),
        96,
        "every shot must land in exactly one outcome bucket"
    );
    for spec in shapes {
        for threads in [1, 2, 8] {
            let got = run_noisy_with(&circuit, spec, threads);
            assert_eq!(
                baseline,
                got,
                "noisy outcome drifted at t={threads} on {}",
                common::shape_label(&spec)
            );
        }
    }
}

#[test]
fn intermediate_thread_counts_are_byte_identical() {
    // Shard-parallel (shards ≥ threads) and intra-shard fallback
    // (shards < threads) must agree with each other as well: 16 shards at
    // t = 2 exercises the first, a single shard at t = 8 the second.
    let circuit = atlas::circuit::generators::qaoa(9);
    let many_shards = MachineSpec {
        nodes: 4,
        gpus_per_node: 2,
        local_qubits: 5,
    };
    let single_shard = MachineSpec::single_gpu(9);
    for spec in [many_shards, single_shard] {
        let baseline = run_with_threads(&circuit, spec, 1);
        for t in [2, 3, 8] {
            let got = run_with_threads(&circuit, spec, t);
            assert_byte_identical(
                &baseline,
                &got,
                &format!("qaoa(9) t={t} on {}", common::shape_label(&spec)),
            );
        }
    }

    // One 2^16-amplitude shard: every kernel sits above the group cutoff
    // and each reduction spans 16 measurement chunks, so t > 1 really
    // splits kernels and reductions over the pool.
    let circuit = atlas::circuit::generators::qaoa(16);
    let spec = MachineSpec::single_gpu(16);
    let z_only = PauliString::from_ops(16, &[(0, PauliOp::Z), (9, PauliOp::Z)]);
    let with_x = PauliString::from_ops(16, &[(3, PauliOp::X), (12, PauliOp::Z)]);
    let run = |threads: usize| {
        let cfg = AtlasConfig {
            threads,
            shots: 256,
            seed: 7,
            ..AtlasConfig::for_validation()
        };
        let out = Planner::new(spec, CostModel::default(), cfg)
            .plan(&circuit)
            .and_then(|compiled| compiled.execute(&circuit))
            .expect("simulation failed");
        let m = out.measurements;
        let expectations = [m.expectation(&z_only), m.expectation(&with_x)].map(f64::to_bits);
        (
            out.state.expect("state"),
            out.samples.expect("samples"),
            expectations,
        )
    };
    let (state, samples, expectations) = run(1);
    for t in [2, 3, 8] {
        let (got_state, got_samples, got_expectations) = run(t);
        assert_byte_identical(&state, &got_state, &format!("qaoa(16) t={t} on 1 GPU"));
        assert_eq!(samples, got_samples, "qaoa(16) t={t}: samples differ");
        assert_eq!(
            expectations, got_expectations,
            "qaoa(16) t={t}: expectations differ"
        );
    }
}
