//! Quickstart: simulate a GHZ circuit on a simulated multi-GPU cluster and
//! inspect both the amplitudes and the machine's clock report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use atlas::prelude::*;

fn main() {
    // 12-qubit GHZ state on 2 nodes × 2 GPUs, 9 local qubits per GPU
    // (8 shards of 512 amplitudes).
    let n = 12;
    let circuit = atlas::circuit::generators::ghz(n);
    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: 9,
    };
    let cfg = AtlasConfig::for_validation();

    let compiled = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .expect("planning failed");
    let run = compiled.execute(&circuit).expect("simulation failed");
    let state = run
        .state
        .as_ref()
        .expect("functional run returns the state");

    println!("GHZ({n}) on {} simulated GPUs", spec.num_gpus());
    println!("  stages            : {}", compiled.num_stages());
    println!("  staging cost (Eq2): {}", compiled.plan().staging_cost);
    println!(
        "  kernels           : {}",
        compiled
            .plan()
            .stages
            .iter()
            .map(|s| s.kernels.len())
            .sum::<usize>()
    );
    println!("  model time        : {:.6} s", run.report.total_secs);
    println!(
        "  comm fraction     : {:.1} %",
        100.0 * run.report.comm_fraction()
    );

    println!("\ntop basis states:");
    for (idx, p) in state.top_probabilities(4) {
        println!("  |{idx:0width$b}⟩  p = {p:.6}", width = n as usize);
    }

    // Sanity: the GHZ state is (|0…0⟩ + |1…1⟩)/√2.
    let all_ones = (1u64 << n) - 1;
    assert!((state.probability(0) - 0.5).abs() < 1e-9);
    assert!((state.probability(all_ones) - 0.5).abs() < 1e-9);

    // Cross-check against the single-threaded reference simulator.
    let reference = simulate_reference(&circuit);
    println!(
        "\nmax |Δamplitude| vs reference: {:.2e}",
        state.max_abs_diff(&reference)
    );
}
