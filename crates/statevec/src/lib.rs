//! # atlas-statevec
//!
//! The Schrödinger-style state-vector engine: amplitude storage, gate
//! application kernels (general `k`-qubit plus specialized single-qubit /
//! diagonal / permutation / controlled paths), gate fusion into dense
//! kernel matrices with structure-aware classification ([`FastKernel`]),
//! shared-memory-style batched execution (the CPU analogue of HyQuas
//! SHM-GROUPING that Atlas' shared-memory kernels model), the per-worker
//! [`scratch`] arena that makes steady-state kernel execution
//! allocation-free, and the persistent worker [`pool`] that runs shard
//! kernels side by side — or the pieces of one large kernel, whose group
//! range every hot kernel splits over the pool it is given.
//! See `docs/PERFORMANCE.md` for the kernel dispatch table and the
//! scratch-arena lifecycle.
//!
//! All apply functions operate on raw `&mut [Complex64]` amplitude slices so
//! that `atlas-machine` device memories and `atlas-core` shards can reuse
//! them without copies.

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod apply;
pub mod batched;
pub mod fused;
pub mod measure;
pub mod pool;
pub mod scratch;
pub mod state;

pub use apply::{
    apply_gate, apply_matrix, apply_matrix_generic, apply_matrix_with, apply_scale,
    PARALLEL_GROUP_CUTOFF,
};
pub use batched::{apply_batched, apply_batched_with};
pub use fused::{
    apply_kernel, apply_kernel_with, apply_reduced_with, classify_kernel, expand_to_kernel,
    fuse_gates, FastKernel,
};
pub use measure::{chunk_norms, norm_sqr_slice, signed_norm, signed_pair_sum, TopK, MEASURE_CHUNK};
pub use pool::{with_pool, Pool};
pub use scratch::Scratch;
pub use state::StateVector;

use atlas_circuit::Circuit;

/// Reference simulation: applies every gate of `circuit` in order to the
/// `|0…0⟩` state, single-threaded. This is the golden model the distributed
/// executor is validated against.
pub fn simulate_reference(circuit: &Circuit) -> StateVector {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    for g in circuit.gates() {
        apply_gate(sv.amplitudes_mut(), g);
    }
    sv
}
