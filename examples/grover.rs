//! Grover search over a 16-item database (4 data qubits + 2 ancillas),
//! distributed across four simulated GPUs.
//!
//! Builds the oracle and diffusion operators from the public gate API —
//! multi-controlled Z via a Toffoli V-chain through the ancillas — and
//! runs ⌊π/4·√16⌋ = 3 Grover iterations, after which the marked item
//! holds ≈96 % of the probability mass.
//!
//! ```sh
//! cargo run --release --example grover
//! ```

use atlas::prelude::*;

const DATA: u32 = 4; // search space 2^4
const ANC: u32 = 2; // V-chain ancillas
const N: u32 = DATA + ANC;

/// Appends a Z controlled on all four data qubits, using the two ancilla
/// qubits as a Toffoli V-chain: a0 = q0∧q1, a1 = a0∧q2, then CCZ-style
/// phase between a1 and q3, and uncompute.
fn append_mcz(c: &mut Circuit) {
    let (a0, a1) = (DATA, DATA + 1);
    c.add(GateKind::CCX, &[0, 1, a0]);
    c.add(GateKind::CCX, &[2, a0, a1]);
    c.cz(a1, 3);
    c.add(GateKind::CCX, &[2, a0, a1]);
    c.add(GateKind::CCX, &[0, 1, a0]);
}

/// Phase oracle marking `target`: X-conjugation turns the all-ones control
/// into a control on the target bit pattern.
fn append_oracle(c: &mut Circuit, target: u64) {
    for q in 0..DATA {
        if target >> q & 1 == 0 {
            c.x(q);
        }
    }
    append_mcz(c);
    for q in 0..DATA {
        if target >> q & 1 == 0 {
            c.x(q);
        }
    }
}

/// Grover diffusion operator on the data qubits.
fn append_diffusion(c: &mut Circuit) {
    for q in 0..DATA {
        c.h(q);
        c.x(q);
    }
    append_mcz(c);
    for q in 0..DATA {
        c.x(q);
        c.h(q);
    }
}

fn main() {
    let target: u64 = 0b1011; // the marked item
    let mut circuit = Circuit::named(N, "grover_16");
    for q in 0..DATA {
        circuit.h(q);
    }
    let iterations = 3; // ⌊π/4 · √16⌋
    for _ in 0..iterations {
        append_oracle(&mut circuit, target);
        append_diffusion(&mut circuit);
    }

    let spec = MachineSpec {
        nodes: 2,
        gpus_per_node: 2,
        local_qubits: N - 2,
    };
    let cfg = AtlasConfig::for_validation();
    let compiled = Planner::new(spec, CostModel::default(), cfg)
        .plan(&circuit)
        .expect("planning failed");
    let run = compiled.execute(&circuit).expect("simulation failed");
    let state = run.state.expect("functional run");

    println!(
        "Grover search over 16 items, {} iterations, {} gates, {} stages",
        iterations,
        circuit.num_gates(),
        compiled.num_stages()
    );
    println!("marked item: |{target:04b}⟩\n");
    println!("result distribution over data qubits:");
    let mut found_p = 0.0;
    for item in 0..1u64 << DATA {
        // Ancillas are restored to |00⟩, so the joint index is the item.
        let p = state.probability(item);
        if p > 1e-6 {
            let marker = if item == target { "  ← marked" } else { "" };
            println!("  |{item:04b}⟩  p = {p:.4}{marker}");
        }
        if item == target {
            found_p = p;
        }
    }
    println!("\nsuccess probability: {found_p:.4}");
    assert!(found_p > 0.9, "Grover amplification failed");
}
