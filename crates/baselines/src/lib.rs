//! # atlas-baselines
//!
//! Behavioural analogues of the comparison systems in the paper's
//! evaluation, all running on the same simulated machine and cost model as
//! Atlas so that the comparisons isolate the *partitioning strategy* —
//! the variable the paper studies:
//!
//! * [`hyquas`] — HyQuas (ICS'21): greedy SnuQS-style staging plus greedy
//!   hybrid fusion/shared-memory grouping, reusing the Atlas executor;
//! * [`cuquantum`] — cuQuantum / cusvaer: greedy ≤5-qubit gate fusion with
//!   index-bit-swap redistribution whenever a group touches non-local
//!   qubits, no global planning and no insular specialization;
//! * [`qiskit`] — Qiskit Aer (GPU backend): per-gate kernel launches with
//!   a per-gate host-dispatch overhead and the same swap-based
//!   redistribution;
//! * [`qdao`] — QDAO (ICCAD'23): DRAM-offloaded execution that streams the
//!   entire state through the GPU once per gate *group* (clock model only).
//!
//! The swap-based simulators ([`cuquantum`], [`qiskit`]) are functionally
//! executable and validated against the reference simulator; `hyquas`
//! inherits functional correctness from the Atlas executor.

#![forbid(unsafe_code)]

pub mod qdao;
pub mod swap_based;

use atlas_circuit::Circuit;
use atlas_core::config::{AtlasConfig, StagingAlgo};
use atlas_core::session::Planner;
use atlas_error::AtlasError;
use atlas_machine::{CostModel, MachineReport, MachineSpec};
use atlas_statevec::StateVector;

/// A baseline run's output.
#[derive(Debug)]
pub struct BaselineOutput {
    /// Clock/traffic report.
    pub report: MachineReport,
    /// Final state (functional runs only).
    pub state: Option<StateVector>,
}

/// HyQuas-like: SnuQS-style greedy staging + greedy hybrid grouping on the
/// Atlas executor (§VII-B comparison).
pub fn hyquas(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    dry: bool,
) -> Result<BaselineOutput, AtlasError> {
    run_atlas_executor(circuit, spec, cost, AtlasConfig::hyquas_like(), dry)
}

/// HyQuas-like with Atlas' ILP staging (ablation helper: isolates the
/// kernelization difference).
pub fn hyquas_with_ilp_staging(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    dry: bool,
) -> Result<BaselineOutput, AtlasError> {
    let cfg = AtlasConfig {
        staging: StagingAlgo::IlpSearch,
        ..AtlasConfig::hyquas_like()
    };
    run_atlas_executor(circuit, spec, cost, cfg, dry)
}

/// Plans `circuit` under `cfg` and runs it on the Atlas executor: the
/// clock model alone when `dry`, otherwise a functional run that
/// gathers the final state in the identity layout.
fn run_atlas_executor(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    cfg: AtlasConfig,
    dry: bool,
) -> Result<BaselineOutput, AtlasError> {
    let cfg = AtlasConfig {
        final_unpermute: !dry,
        ..cfg
    };
    let compiled = Planner::new(spec, cost, cfg).plan(circuit)?;
    if dry {
        return Ok(BaselineOutput {
            report: compiled.dry_run(),
            state: None,
        });
    }
    let run = compiled.execute(circuit)?;
    Ok(BaselineOutput {
        report: run.report,
        state: run.state,
    })
}

/// cuQuantum-like (cusvaer): greedy fusion + swap-based redistribution.
pub fn cuquantum(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    dry: bool,
) -> Result<BaselineOutput, AtlasError> {
    swap_based::run(
        circuit,
        spec,
        cost,
        dry,
        &swap_based::SwapSimConfig {
            fusion_max_qubits: 5,
            dispatch_overhead_s: 50e-6,
            name: "cuquantum",
        },
    )
}

/// Qiskit-Aer-like: per-gate kernels, heavy host dispatch, swap-based
/// redistribution.
pub fn qiskit(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    dry: bool,
) -> Result<BaselineOutput, AtlasError> {
    swap_based::run(
        circuit,
        spec,
        cost,
        dry,
        &swap_based::SwapSimConfig {
            fusion_max_qubits: 1,
            // Per-kernel Python/driver dispatch overhead; calibrated so a
            // single-GPU 28-qubit run lands at the paper's ~8-10 s (vs ~1 s
            // for Atlas), matching Fig. 5's single-GPU gap.
            dispatch_overhead_s: 10e-3,
            name: "qiskit",
        },
    )
}

/// QDAO-like DRAM-offloaded run (clock model only — Fig. 7/8 baseline).
pub fn qdao_run(
    circuit: &Circuit,
    spec: MachineSpec,
    cost: CostModel,
    m: u32,
    t: u32,
) -> Result<BaselineOutput, AtlasError> {
    let report = qdao::run(circuit, spec, cost, m, t)?;
    Ok(BaselineOutput {
        report,
        state: None,
    })
}
