//! Figure 7: DRAM offloading — Atlas vs QDAO-like on qft circuits beyond
//! GPU memory (single GPU, 28 local qubits, 28–32 total).
//! Figure 8: the 32-qubit qft on 1, 2 and 4 GPUs — Atlas scales, QDAO
//! stays flat.

use atlas_baselines as baselines;
use atlas_bench::{section, write_csv};
use atlas_circuit::generators::Family;
use atlas_core::config::AtlasConfig;
use atlas_core::session::Planner;
use atlas_machine::{CostModel, MachineSpec};

fn main() {
    let cfg = AtlasConfig::default();
    let cost = CostModel::default();

    section("Figure 7: single-GPU DRAM offloading, qft 28..32 (model seconds)");
    println!("{:>3} {:>10} {:>10} {:>9}", "n", "atlas", "qdao", "speedup");
    let mut rows = Vec::new();
    for n in 28..=32u32 {
        let circuit = Family::Qft.generate(n);
        let spec = MachineSpec::single_gpu(28);
        let t_atlas = Planner::new(spec, cost.clone(), cfg.clone())
            .plan(&circuit)
            .expect("atlas")
            .dry_run()
            .total_secs;
        // QDAO with the paper's fastest setting m=28, t=19.
        let t_qdao = baselines::qdao_run(&circuit, spec, cost.clone(), 28, 19)
            .expect("qdao")
            .report
            .total_secs;
        println!(
            "{n:>3} {t_atlas:>10.3} {t_qdao:>10.3} {:>8.0}x",
            t_qdao / t_atlas
        );
        rows.push(format!("{n},{t_atlas},{t_qdao}"));
    }
    println!("(paper: 6x at 28 qubits growing to 105x at 32; shape target = widening gap)");
    if let Some(p) = write_csv("fig7_offload", "n,atlas_s,qdao_s", &rows) {
        println!("wrote {p}");
    }

    section("Figure 8: 32-qubit qft offload scaling on 1, 2, 4 GPUs");
    println!("{:>5} {:>10} {:>10}", "gpus", "atlas", "qdao");
    let circuit = Family::Qft.generate(32);
    let mut rows8 = Vec::new();
    for gpus in [1usize, 2, 4] {
        let spec = MachineSpec {
            nodes: 1,
            gpus_per_node: gpus,
            local_qubits: 28,
        };
        let t_atlas = Planner::new(spec, cost.clone(), cfg.clone())
            .plan(&circuit)
            .expect("atlas")
            .dry_run()
            .total_secs;
        let t_qdao = baselines::qdao_run(&circuit, spec, cost.clone(), 28, 19)
            .expect("qdao")
            .report
            .total_secs;
        println!("{gpus:>5} {t_atlas:>10.3} {t_qdao:>10.3}");
        rows8.push(format!("{gpus},{t_atlas},{t_qdao}"));
    }
    println!("(paper: Atlas scales with GPUs; QDAO's time stays the same)");
    if let Some(p) = write_csv("fig8_offload_scaling", "gpus,atlas_s,qdao_s", &rows8) {
        println!("wrote {p}");
    }
}
