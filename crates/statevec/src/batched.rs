//! Shared-memory-style batched execution.
//!
//! Atlas shared-memory kernels (§VI-B, approach 2) load a micro-batch of
//! amplitudes into GPU shared memory, apply the kernel's gates one by one
//! inside the fast memory, and write the batch back. The CPU analogue loads
//! the batch into a small stack-local buffer (which lives in L1/L2), giving
//! the same memory-traffic structure: one read + one write of the state
//! per *kernel* instead of per *gate*.
//!
//! The paper (and HyQuas) require the three least significant qubits of the
//! state vector to be active in every shared-memory kernel so each load
//! moves at least 8 contiguous amplitudes (128 bytes); the same constraint
//! is enforced by the kernelizer's cost model and validated here.
//!
//! The gate list is compiled **once per call** before the group sweep:
//! qubit remapping uses an O(1) position lookup (not a per-qubit linear
//! scan), and each gate's dispatch decision and unitary are resolved into
//! a private `CompiledGate` up front, so the per-group loop applies gates
//! with no allocation and no re-dispatch — previously `Gate::matrix()`
//! was rebuilt inside the group loop for every non-specialized gate.

use atlas_circuit::{Gate, GateKind};
use atlas_qmath::{insert_bits, Complex64, Matrix};

use crate::apply::{
    apply_1q, apply_1q_diag, apply_controlled_1q, apply_diag, apply_matrix_with, apply_swap,
    diagonal_of,
};
use crate::pool::Pool;
use crate::scratch::{self, Scratch};

/// A gate resolved to its batch-local kernel form: dispatch decided and
/// unitary built once, before the group sweep.
enum CompiledGate {
    /// Qubit swap.
    Swap(u32, u32),
    /// Single-qubit unitary on `q`, controlled on all bits of `mask`.
    Ctrl1 { mask: u64, t: u32, m: Matrix },
    /// Diagonal single-qubit gate.
    Diag1 {
        q: u32,
        d0: Complex64,
        d1: Complex64,
    },
    /// General diagonal gate.
    Diag { qs: Vec<u32>, diag: Vec<Complex64> },
    /// Dense single-qubit unitary.
    OneQ { q: u32, m: Matrix },
    /// Dense multi-qubit unitary.
    Dense { qs: Vec<u32>, m: Matrix },
}

impl CompiledGate {
    /// Mirrors [`crate::apply::apply_gate`]'s dispatch exactly, so batched
    /// execution computes the same floating-point operations as applying
    /// the remapped gates one by one.
    fn new(kind: GateKind, qs: &[u32]) -> Self {
        use GateKind::*;
        match kind {
            Swap => CompiledGate::Swap(qs[0], qs[1]),
            CX => CompiledGate::ctrl1(1 << qs[0], qs[1], X),
            CY => CompiledGate::ctrl1(1 << qs[0], qs[1], Y),
            CH => CompiledGate::ctrl1(1 << qs[0], qs[1], H),
            CRX(t) => CompiledGate::ctrl1(1 << qs[0], qs[1], RX(t)),
            CRY(t) => CompiledGate::ctrl1(1 << qs[0], qs[1], RY(t)),
            CCX => CompiledGate::ctrl1((1 << qs[0]) | (1 << qs[1]), qs[2], X),
            CSwap => CompiledGate::Dense {
                qs: qs.to_vec(),
                m: kind.matrix(),
            },
            _ => {
                let m = kind.matrix();
                if let Some(diag) = diagonal_of(&m) {
                    if qs.len() == 1 {
                        CompiledGate::Diag1 {
                            q: qs[0],
                            d0: diag[0],
                            d1: diag[1],
                        }
                    } else {
                        CompiledGate::Diag {
                            qs: qs.to_vec(),
                            diag,
                        }
                    }
                } else if qs.len() == 1 {
                    CompiledGate::OneQ { q: qs[0], m }
                } else {
                    CompiledGate::Dense { qs: qs.to_vec(), m }
                }
            }
        }
    }

    fn ctrl1(mask: u64, t: u32, kind: GateKind) -> Self {
        CompiledGate::Ctrl1 {
            mask,
            t,
            m: kind.matrix(),
        }
    }

    /// Applies the compiled gate to the batch buffer.
    fn apply(&self, buf: &mut [Complex64], scratch: &mut Scratch) {
        match self {
            CompiledGate::Swap(a, b) => apply_swap(buf, *a, *b),
            CompiledGate::Ctrl1 { mask, t, m } => apply_controlled_1q(buf, *mask, *t, m),
            CompiledGate::Diag1 { q, d0, d1 } => apply_1q_diag(buf, *q, *d0, *d1),
            CompiledGate::Diag { qs, diag } => apply_diag(buf, qs, diag, &Pool::SERIAL),
            CompiledGate::OneQ { q, m } => apply_1q(buf, *q, m),
            CompiledGate::Dense { qs, m } => apply_matrix_with(scratch, buf, qs, m, &Pool::SERIAL),
        }
    }
}

/// Applies `gates` to the amplitude slice by batching over `active_qubits`,
/// using the calling thread's scratch arena.
///
/// Every gate's qubits must lie inside `active_qubits`. The slice length
/// must be `2^n` with `n ≥ |active_qubits|`.
///
/// Complexity: one read + one write of the full state per **kernel**
/// (2 × 2^n amplitude moves) plus the per-gate work inside the
/// `2^b`-element buffer — versus one read + write per **gate** on the
/// unbatched path, which is the entire point of shared-memory grouping.
///
/// # Panics
/// If a gate touches a qubit outside the active set.
pub fn apply_batched(amps: &mut [Complex64], active_qubits: &[u32], gates: &[Gate]) {
    scratch::with_thread(|s| apply_batched_with(s, amps, active_qubits, gates));
}

/// [`apply_batched`] with an explicit scratch arena. The batch buffer and
/// offset table come from the arena's pools (the gate compilation itself
/// builds its unitaries fresh — that is once per *kernel*, not per group).
pub fn apply_batched_with(
    scratch: &mut Scratch,
    amps: &mut [Complex64],
    active_qubits: &[u32],
    gates: &[Gate],
) {
    let b = active_qubits.len();
    let mut sorted = scratch.take_qubits();
    sorted.extend_from_slice(active_qubits);
    sorted.sort_unstable();

    // O(1) qubit → batch position lookup (qubit ids are < 64 by the
    // `u64` index-space invariant), replacing the old O(b) scan per qubit.
    let mut pos = [u32::MAX; 64];
    for (t, &q) in sorted.iter().enumerate() {
        pos[q as usize] = t as u32;
    }
    let remap = |q: u32| -> u32 {
        let p = pos.get(q as usize).copied().unwrap_or(u32::MAX);
        if p == u32::MAX {
            panic!("gate qubit {q} outside active set");
        }
        p
    };

    // Compile every gate onto batch-local positions, resolving dispatch
    // and unitaries once — hoisted out of the per-group loop.
    let compiled: Vec<CompiledGate> = gates
        .iter()
        .map(|g| {
            // Sized to `Qubits`' maximum arity (4), not the current gate
            // alphabet's (3), so a wider future gate remaps instead of
            // indexing out of bounds.
            let mut local = [0u32; 4];
            for (t, q) in g.qubits.iter().enumerate() {
                local[t] = remap(q);
            }
            CompiledGate::new(g.kind, &local[..g.qubits.len()])
        })
        .collect();

    let dim = 1usize << b;
    let groups = amps.len() >> b;
    let mut buf = scratch.take_amps();
    buf.resize(dim, Complex64::ZERO);
    let mut offsets = scratch.take_offsets();
    {
        let (_, tables) = scratch.split();
        offsets.extend_from_slice(&tables.lookup(&sorted).offsets);
    }
    for g in 0..groups as u64 {
        let base = insert_bits(g, &sorted);
        // Load the micro-batch ("shared memory" fill).
        for (x, off) in offsets.iter().enumerate() {
            buf[x] = amps[(base | off) as usize];
        }
        // Apply every gate inside the fast buffer.
        for gate in &compiled {
            gate.apply(&mut buf, scratch);
        }
        // Write back.
        for (x, off) in offsets.iter().enumerate() {
            amps[(base | off) as usize] = buf[x];
        }
    }
    scratch.put_offsets(offsets);
    scratch.put_amps(buf);
    scratch.put_qubits(sorted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_gate;
    use crate::state::StateVector;
    use atlas_circuit::Circuit;
    use atlas_qmath::deposit_bits;

    #[test]
    fn batched_matches_sequential() {
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.h(q).rz(0.1 * (q + 1) as f64, q);
        }
        let mut kernel = Circuit::new(6);
        kernel.cx(1, 4).t(4).cp(0.9, 5, 1).h(5).cz(4, 5);

        let mut sv_a = StateVector::zero_state(6);
        for g in prep.gates() {
            apply_gate(sv_a.amplitudes_mut(), g);
        }
        let mut sv_b = sv_a.clone();

        for g in kernel.gates() {
            apply_gate(sv_a.amplitudes_mut(), g);
        }
        apply_batched(sv_b.amplitudes_mut(), &[1, 4, 5], kernel.gates());

        assert!(
            sv_a.approx_eq(&sv_b, 1e-10),
            "batched diverged: {}",
            sv_a.max_abs_diff(&sv_b)
        );
    }

    /// The hand-rolled reference: gather the batch, apply the remapped
    /// gates through `apply_gate`, scatter — what `apply_batched` did
    /// before gate compilation was hoisted. The compiled path must match
    /// it **bitwise** (same kernels, same unitaries, same order).
    fn batched_reference(amps: &mut [Complex64], active: &[u32], gates: &[Gate]) {
        let b = active.len();
        let mut sorted: Vec<u32> = active.to_vec();
        sorted.sort_unstable();
        let remapped: Vec<Gate> = gates
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
        let dim = 1usize << b;
        let mut buf = vec![Complex64::ZERO; dim];
        let offsets: Vec<u64> = (0..dim as u64).map(|x| deposit_bits(x, &sorted)).collect();
        for g in 0..(amps.len() >> b) as u64 {
            let base = insert_bits(g, &sorted);
            for (x, off) in offsets.iter().enumerate() {
                buf[x] = amps[(base | off) as usize];
            }
            for gate in &remapped {
                apply_gate(&mut buf, gate);
            }
            for (x, off) in offsets.iter().enumerate() {
                amps[(base | off) as usize] = buf[x];
            }
        }
    }

    #[test]
    fn compiled_gates_are_bitwise_equal_to_per_group_dispatch() {
        let mut prep = Circuit::new(6);
        for q in 0..6 {
            prep.h(q).rz(0.17 * (q + 1) as f64, q).t(q);
        }
        let mut kernel = Circuit::new(6);
        kernel
            .cx(1, 4)
            .t(4)
            .cp(0.9, 5, 1)
            .h(5)
            .swap(1, 5)
            .rx(0.4, 4)
            .cz(4, 5);
        let mut a = StateVector::zero_state(6);
        for g in prep.gates() {
            apply_gate(a.amplitudes_mut(), g);
        }
        let mut b = a.clone();
        apply_batched(a.amplitudes_mut(), &[1, 4, 5], kernel.gates());
        batched_reference(b.amplitudes_mut(), &[1, 4, 5], kernel.gates());
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn batched_with_full_active_set_is_plain_application() {
        let mut kernel = Circuit::new(3);
        kernel.h(0).cx(0, 1).cx(1, 2);
        let mut sv_a = StateVector::zero_state(3);
        for g in kernel.gates() {
            apply_gate(sv_a.amplitudes_mut(), g);
        }
        let mut sv_b = StateVector::zero_state(3);
        apply_batched(sv_b.amplitudes_mut(), &[0, 1, 2], kernel.gates());
        assert!(sv_a.approx_eq(&sv_b, 1e-12));
    }

    #[test]
    #[should_panic(expected = "gate qubit 3 outside active set")]
    fn gate_outside_active_set_panics_naming_the_qubit() {
        let mut kernel = Circuit::new(4);
        kernel.cx(0, 3);
        let mut sv = StateVector::zero_state(4);
        apply_batched(sv.amplitudes_mut(), &[0, 1], kernel.gates());
    }

    #[test]
    fn active_order_does_not_matter() {
        let mut kernel = Circuit::new(5);
        kernel.h(2).cx(2, 4).rz(0.5, 4);
        let mut a = StateVector::basis_state(5, 7);
        let mut b = a.clone();
        apply_batched(a.amplitudes_mut(), &[2, 4, 0], kernel.gates());
        apply_batched(b.amplitudes_mut(), &[0, 4, 2], kernel.gates());
        assert!(a.approx_eq(&b, 1e-12));
    }
}
