//! Parameterized generators for the benchmark circuit families of the
//! paper's Table I (MQT-Bench style) and Table II (NWQBench `hhl`).
//!
//! The paper consumes QASM files from MQT Bench / NWQBench; those suites are
//! not vendored here, so each family is regenerated structurally. Gate
//! counts match Table I exactly for `ghz`, `dj`, `graphstate`, `ising`,
//! `qft`, `qsvm`, `su2random`, `vqc`, `wstate`, `ae`, and within ±1 gate for
//! `qpeexact` (MQT's count depends on the binary expansion of the chosen
//! phase). `hhl` matches Table II within a few percent (see
//! [`hhl`]). Random angles are drawn from a deterministic per-(family, n)
//! seed so every run of the workspace sees identical circuits.

use crate::circuit::Circuit;
use crate::gate::GateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{PI, TAU};

/// The benchmark families of Table I plus `hhl` from Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Amplitude estimation.
    Ae,
    /// Deutsch–Jozsa.
    Dj,
    /// GHZ state preparation.
    Ghz,
    /// Graph state (ring graph).
    GraphState,
    /// Transverse-field Ising model Trotterization.
    Ising,
    /// Quantum Fourier transform.
    Qft,
    /// Exact quantum phase estimation.
    QpeExact,
    /// Quantum support vector machine (ZZ feature map).
    Qsvm,
    /// EfficientSU2 ansatz with random parameters.
    Su2Random,
    /// Variational quantum classifier.
    Vqc,
    /// W state preparation.
    WState,
    /// HHL linear-systems circuit (NWQBench style), padded to 28 qubits.
    Hhl,
}

impl Family {
    /// The 11 Table I families, in the paper's order.
    pub fn table1() -> [Family; 11] {
        use Family::*;
        [
            Ae, Dj, Ghz, GraphState, Ising, Qft, QpeExact, Qsvm, Su2Random, Vqc, WState,
        ]
    }

    /// Lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        use Family::*;
        match self {
            Ae => "ae",
            Dj => "dj",
            Ghz => "ghz",
            GraphState => "graphstate",
            Ising => "ising",
            Qft => "qft",
            QpeExact => "qpeexact",
            Qsvm => "qsvm",
            Su2Random => "su2random",
            Vqc => "vqc",
            WState => "wstate",
            Hhl => "hhl",
        }
    }

    /// Parses a family name.
    pub fn from_name(s: &str) -> Option<Family> {
        use Family::*;
        Some(match s {
            "ae" => Ae,
            "dj" => Dj,
            "ghz" => Ghz,
            "graphstate" => GraphState,
            "ising" => Ising,
            "qft" => Qft,
            "qpeexact" => QpeExact,
            "qsvm" => Qsvm,
            "su2random" => Su2Random,
            "vqc" => Vqc,
            "wstate" => WState,
            "hhl" => Hhl,
            _ => return None,
        })
    }

    /// Generates the family's circuit on `n` qubits.
    pub fn generate(self, n: u32) -> Circuit {
        use Family::*;
        match self {
            Ae => ae(n),
            Dj => dj(n),
            Ghz => ghz(n),
            GraphState => graphstate(n),
            Ising => ising(n),
            Qft => qft(n),
            QpeExact => qpeexact(n),
            Qsvm => qsvm(n),
            Su2Random => su2random(n),
            Vqc => vqc(n),
            WState => wstate(n),
            Hhl => hhl(n),
        }
    }
}

/// A circuit generator over `n` qubits.
type Generator = fn(u32) -> Circuit;

/// Every generator reachable by name — the Table I/II families plus the
/// `qaoa`, `grover` and `clifford` regression circuits — with the
/// smallest `n` each accepts.
const BY_NAME: [(&str, u32, Generator); 15] = [
    ("ae", 2, ae),
    ("dj", 2, dj),
    ("ghz", 1, ghz),
    ("graphstate", 3, graphstate),
    ("ising", 2, ising),
    ("qft", 1, qft),
    ("qpeexact", 2, qpeexact),
    ("qsvm", 2, qsvm),
    ("su2random", 2, su2random),
    ("vqc", 4, vqc),
    ("wstate", 2, wstate),
    ("hhl", 4, hhl),
    ("qaoa", 3, qaoa),
    ("grover", 2, grover),
    ("clifford", 2, clifford),
];

/// Errors from [`by_name`].
#[derive(Debug, PartialEq)]
pub enum GeneratorError {
    /// No generator has this name.
    UnknownFamily(String),
    /// `n` is below the family's minimum or above
    /// [`Circuit::MAX_QUBITS`].
    QubitsOutOfRange {
        /// The family name.
        name: String,
        /// The requested qubit count.
        n: u32,
        /// The family's smallest accepted qubit count.
        min: u32,
    },
}

impl std::fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeneratorError::UnknownFamily(name) => write!(f, "unknown family '{name}'"),
            GeneratorError::QubitsOutOfRange { name, n, min } => write!(
                f,
                "family '{name}' needs n in {min}..={}, got n = {n}",
                Circuit::MAX_QUBITS
            ),
        }
    }
}

impl std::error::Error for GeneratorError {}

/// Generates the circuit named `name` on `n` qubits: the one lookup
/// behind `atlas-sim --family` and the serve protocol's `"family"`.
/// Both inputs are untrusted, so an unknown name or an `n` outside the
/// family's range is a [`GeneratorError`], never a panic.
pub fn by_name(name: &str, n: u32) -> Result<Circuit, GeneratorError> {
    let &(_, min, generate) = BY_NAME
        .iter()
        .find(|(known, _, _)| *known == name)
        .ok_or_else(|| GeneratorError::UnknownFamily(name.to_string()))?;
    if !(min..=Circuit::MAX_QUBITS).contains(&n) {
        return Err(GeneratorError::QubitsOutOfRange {
            name: name.to_string(),
            n,
            min,
        });
    }
    Ok(generate(n))
}

fn seeded_rng(family: &str, n: u32) -> StdRng {
    // Stable, platform-independent seed from the family name and size.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in family.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ (n as u64).wrapping_mul(0x9e3779b97f4a7c15))
}

/// GHZ state: `H(0)` then a CX chain. Exactly `n` gates.
pub fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::named(n, format!("ghz_{n}"));
    c.h(0);
    for i in 1..n {
        c.cx(i - 1, i);
    }
    c
}

/// Deutsch–Jozsa with a balanced oracle on the last qubit. Exactly `3n - 2`
/// gates: `n` H, `n-1` oracle CX, `n-1` closing H.
pub fn dj(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut c = Circuit::named(n, format!("dj_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, n - 1);
    }
    for q in 0..n - 1 {
        c.h(q);
    }
    c
}

/// Ring graph state: `n` H + `n` CZ. Exactly `2n` gates.
pub fn graphstate(n: u32) -> Circuit {
    assert!(n >= 3);
    let mut c = Circuit::named(n, format!("graphstate_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.cz(q, (q + 1) % n);
    }
    c
}

/// Transverse-field Ising Trotterization: an H layer then two steps of
/// [RX layer, RZ layer, nearest-neighbour ZZ couplers as CX·RZ·CX].
/// Exactly `11n - 6` gates.
pub fn ising(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut rng = seeded_rng("ising", n);
    let mut c = Circuit::named(n, format!("ising_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for _step in 0..2 {
        for q in 0..n {
            c.rx(rng.random_range(0.0..TAU), q);
        }
        for q in 0..n {
            c.rz(rng.random_range(0.0..TAU), q);
        }
        let jt = rng.random_range(0.0..TAU);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.rz(jt, q + 1);
            c.cx(q, q + 1);
        }
    }
    c
}

/// Quantum Fourier transform (no terminal swaps, as in MQT Bench).
/// Exactly `n(n+1)/2` gates.
pub fn qft(n: u32) -> Circuit {
    let mut c = Circuit::named(n, format!("qft_{n}"));
    append_qft(&mut c, &(0..n).collect::<Vec<_>>(), false);
    c
}

/// Appends a QFT (or inverse QFT) over `qs` to an existing circuit.
pub fn append_qft(c: &mut Circuit, qs: &[u32], inverse: bool) {
    let m = qs.len();
    // Angles π/2^{i-j}; beyond 2^62 the angle underflows to 0 anyway.
    let frac = |d: usize| PI / (1u64 << d.min(62)) as f64;
    if !inverse {
        for i in (0..m).rev() {
            c.h(qs[i]);
            for j in (0..i).rev() {
                c.cp(frac(i - j), qs[j], qs[i]);
            }
        }
    } else {
        for i in 0..m {
            for j in 0..i {
                c.cp(-frac(i - j), qs[j], qs[i]);
            }
            c.h(qs[i]);
        }
    }
}

/// Exact quantum phase estimation: eigenstate qubit `q0` (prepared with X),
/// `n-1` counting qubits, controlled-phase powers, inverse QFT.
/// `(n-1)n/2 + 2n - 1` gates — within ±2 of Table I for all sizes.
pub fn qpeexact(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut c = Circuit::named(n, format!("qpeexact_{n}"));
    c.x(0);
    let counting: Vec<u32> = (1..n).collect();
    for &q in &counting {
        c.h(q);
    }
    // Exactly representable phase φ = 1/2^{n-1}: controlled-P(2π·2^k·φ).
    for (k, &q) in counting.iter().enumerate() {
        c.cp(TAU / (1u64 << (n as usize - 1 - k)) as f64, q, 0);
    }
    append_qft(&mut c, &counting, true);
    c
}

/// QSVM ZZ-feature-map with two repetitions and linear entanglement.
/// Exactly `10n - 6` gates.
pub fn qsvm(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut rng = seeded_rng("qsvm", n);
    let mut c = Circuit::named(n, format!("qsvm_{n}"));
    for _rep in 0..2 {
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n {
            c.p(rng.random_range(0.0..TAU), q);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.p(rng.random_range(0.0..TAU), q + 1);
            c.cx(q, q + 1);
        }
    }
    c
}

/// EfficientSU2 ansatz with random parameters: four single-qubit rotation
/// layers (RY/RZ alternating) and three full-entanglement CX layers.
/// Exactly `n(3n+5)/2` gates.
pub fn su2random(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut rng = seeded_rng("su2random", n);
    let mut c = Circuit::named(n, format!("su2random_{n}"));
    for layer in 0..4u32 {
        for q in 0..n {
            let a = rng.random_range(0.0..TAU);
            if layer % 2 == 0 {
                c.ry(a, q);
            } else {
                c.rz(a, q);
            }
        }
        if layer < 3 {
            for i in 0..n {
                for j in i + 1..n {
                    c.cx(i, j);
                }
            }
        }
    }
    c
}

/// Variational quantum classifier: ZZ feature map (full entanglement), a
/// full CZ entangler, five RY+RZ rotation layers and a truncated final RY
/// layer. Exactly `2n² + 11n - 3` gates.
pub fn vqc(n: u32) -> Circuit {
    assert!(n >= 4);
    let mut rng = seeded_rng("vqc", n);
    let mut c = Circuit::named(n, format!("vqc_{n}"));
    // Feature map: n H + n P + 3·C(n,2).
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        c.p(rng.random_range(0.0..TAU), q);
    }
    for i in 0..n {
        for j in i + 1..n {
            c.cx(i, j);
            c.p(rng.random_range(0.0..TAU), j);
            c.cx(i, j);
        }
    }
    // Entangler: C(n,2) CZ.
    for i in 0..n {
        for j in i + 1..n {
            c.cz(i, j);
        }
    }
    // Ansatz: 5 × (RY layer + RZ layer) + (n-3) final RY.
    for _layer in 0..5 {
        for q in 0..n {
            c.ry(rng.random_range(0.0..TAU), q);
        }
        for q in 0..n {
            c.rz(rng.random_range(0.0..TAU), q);
        }
    }
    for q in 0..n - 3 {
        c.ry(rng.random_range(0.0..TAU), q);
    }
    c
}

/// W state preparation: X seed, an RY·CZ·RY cascade, and a CX chain.
/// Exactly `4n - 3` gates.
pub fn wstate(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut c = Circuit::named(n, format!("wstate_{n}"));
    c.x(n - 1);
    for i in (0..n - 1).rev() {
        // Partial-swap block distributing amplitude toward qubit i.
        let theta = 2.0 * (1.0 / f64::from(n - i)).sqrt().asin();
        c.ry(-theta / 2.0, i);
        c.cz(i + 1, i);
        c.ry(theta / 2.0, i);
    }
    for i in 0..n - 1 {
        c.cx(i, i + 1);
    }
    c
}

/// Amplitude estimation: one state-preparation qubit (`q0`), `n-1`
/// evaluation qubits, one 4-gate controlled-Grover block per evaluation
/// qubit, inverse QFT. Exactly `(n² + 9n - 8)/2` gates.
pub fn ae(n: u32) -> Circuit {
    assert!(n >= 2);
    let mut rng = seeded_rng("ae", n);
    let mut c = Circuit::named(n, format!("ae_{n}"));
    let a = rng.random_range(0.2..PI - 0.2);
    c.ry(a, 0);
    let evals: Vec<u32> = (1..n).collect();
    for &q in &evals {
        c.h(q);
    }
    for (k, &q) in evals.iter().enumerate() {
        // Controlled Grover power Q^{2^k}, compressed to a 4-gate block.
        let phi = a * (1u64 << (k % 60)) as f64;
        c.add(GateKind::CRY(phi), &[q, 0]);
        c.cz(q, 0);
        c.add(GateKind::CRY(-phi / 2.0), &[q, 0]);
        c.cx(q, 0);
    }
    append_qft(&mut c, &evals, true);
    c
}

/// QAOA for MaxCut on an `n`-node ring graph, depth `p = 2`, with seeded
/// angles. See [`qaoa_layers`] for the layer structure.
pub fn qaoa(n: u32) -> Circuit {
    qaoa_layers(n, 2)
}

/// QAOA for MaxCut on an `n`-node ring graph with `p` alternating
/// cost/mixer layers: per layer, `RZZ(2γ)` on every ring edge then
/// `RX(2β)` on every qubit, with seeded `(γ, β)`. Exactly `n + 2pn`
/// gates.
pub fn qaoa_layers(n: u32, p: u32) -> Circuit {
    assert!(n >= 3, "ring graph needs at least 3 nodes");
    let mut rng = seeded_rng("qaoa", n);
    let mut c = Circuit::named(n, format!("qaoa_{n}"));
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..p {
        let gamma = rng.random_range(0.0..TAU);
        let beta = rng.random_range(0.0..TAU);
        for a in 0..n {
            c.add(GateKind::RZZ(2.0 * gamma), &[a, (a + 1) % n]);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c
}

/// A fixed-seed random Clifford circuit: four rounds of [one random
/// single-qubit Clifford per qubit, then `n` random two-qubit Clifford
/// gates on random distinct pairs]. Exactly `8n` gates, all drawn from
/// the stabilizer alphabet, so the whole circuit routes to the tableau
/// backend — and re-runs on the statevector engine bit-for-bit
/// identically, which is what the backend differential suite diffs.
pub fn clifford(n: u32) -> Circuit {
    assert!(n >= 2, "clifford family needs at least 2 qubits");
    let mut rng = seeded_rng("clifford", n);
    let mut c = Circuit::named(n, format!("clifford_{n}"));
    let singles = [
        GateKind::H,
        GateKind::X,
        GateKind::Y,
        GateKind::Z,
        GateKind::S,
        GateKind::Sdg,
        GateKind::SX,
    ];
    let doubles = [GateKind::CX, GateKind::CY, GateKind::CZ, GateKind::Swap];
    for _round in 0..4 {
        for q in 0..n {
            c.add(singles[rng.random_range(0..singles.len())], &[q]);
        }
        for _ in 0..n {
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            c.add(doubles[rng.random_range(0..doubles.len())], &[a, b]);
        }
    }
    c
}

/// Grover search over `n` total qubits: the largest data register `d`
/// whose multi-controlled-Z fits in `n` (a Toffoli V-chain needs `d - 2`
/// ancillas for `d ≥ 4`; `d ≤ 3` uses CZ/CCZ directly), a seeded marked
/// item, and `⌊π/4·√2^d⌋` amplification rounds. Leftover qubits idle in
/// `|0⟩`, which exercises the planner's insular-qubit handling.
pub fn grover(n: u32) -> Circuit {
    assert!(n >= 2, "grover needs at least 2 qubits");
    // Largest d with d + ancillas(d) ≤ n, where ancillas(d) = max(d-2, 0)
    // for d ≥ 4 and 0 otherwise.
    let d = if n < 6 { n.min(3) } else { (n + 2) / 2 };
    let mut rng = seeded_rng("grover", n);
    let target = rng.random_range(0..1u64 << d);
    let mut c = Circuit::named(n, format!("grover_{n}"));

    // Z controlled on all `d` data qubits, V-chained through the ancillas.
    let append_mcz = |c: &mut Circuit| match d {
        1 => {
            c.z(0);
        }
        2 => {
            c.cz(0, 1);
        }
        3 => {
            c.add(GateKind::CCZ, &[0, 1, 2]);
        }
        _ => {
            let anc = d; // ancillas live at d, d+1, ..., 2d-3
            c.add(GateKind::CCX, &[0, 1, anc]);
            for i in 2..d - 1 {
                c.add(GateKind::CCX, &[i, anc + i - 2, anc + i - 1]);
            }
            c.cz(anc + d - 3, d - 1);
            for i in (2..d - 1).rev() {
                c.add(GateKind::CCX, &[i, anc + i - 2, anc + i - 1]);
            }
            c.add(GateKind::CCX, &[0, 1, anc]);
        }
    };

    for q in 0..d {
        c.h(q);
    }
    let iterations = ((PI / 4.0) * ((1u64 << d) as f64).sqrt()).floor().max(1.0) as usize;
    for _ in 0..iterations {
        // Oracle: X-conjugation turns the all-ones control into a control
        // on the target bit pattern.
        for q in 0..d {
            if target >> q & 1 == 0 {
                c.x(q);
            }
        }
        append_mcz(&mut c);
        for q in 0..d {
            if target >> q & 1 == 0 {
                c.x(q);
            }
        }
        // Diffusion about the mean.
        for q in 0..d {
            c.h(q);
            c.x(q);
        }
        append_mcz(&mut c);
        for q in 0..d {
            c.x(q);
            c.h(q);
        }
    }
    c
}

/// HHL circuit in the NWQBench style. `nq` is the *logical* size (4, 7, 9,
/// or 10 in Table II); the returned circuit is padded to
/// `max(nq, pad_to)` = 28 qubits as in the paper's case study.
///
/// Structure: clock register of `nq - 2` qubits, QPE with controlled
/// Hamiltonian-evolution blocks unrolled per power of two, conditioned
/// ancilla rotations, inverse QPE. Gate counts land within ~8% of Table II
/// for `nq ∈ {4, 7}` and ~1% for `nq ∈ {9, 10}`.
pub fn hhl(nq: u32) -> Circuit {
    hhl_padded(nq, 28)
}

/// [`hhl`] with an explicit pad width.
pub fn hhl_padded(nq: u32, pad_to: u32) -> Circuit {
    assert!(nq >= 4);
    let n = nq.max(pad_to);
    let mut rng = seeded_rng("hhl", nq);
    let mut c = Circuit::named(n, format!("hhl_{nq}"));
    let clock = nq - 2; // q1..=clock are clock qubits
    let b = 0u32; // solution register
    let anc = nq - 1; // rotation ancilla

    // Trotter repetition multiplier per size — reproduces NWQBench's
    // exponential blow-up of unrolled controlled-evolutions (Table II).
    let m: u32 = match nq {
        4 => 2,
        5..=6 => 2,
        7 => 2,
        8 => 16,
        9 => 72,
        10 => 73,
        _ => 73,
    };
    let clocks: Vec<u32> = (1..=clock).collect();
    let qpe = |c: &mut Circuit, rng: &mut StdRng, inverse: bool| {
        for &q in &clocks {
            c.h(q);
        }
        for (k, &q) in clocks.iter().enumerate() {
            let reps = (1u64 << k.min(40)) as u32 * m;
            for _ in 0..reps {
                // Controlled single-qubit evolution block (5 gates).
                let t = rng.random_range(0.0..TAU) * if inverse { -1.0 } else { 1.0 };
                c.add(GateKind::CRZ(t), &[q, b]);
                c.cx(q, b);
                c.add(GateKind::CRZ(t / 2.0), &[q, b]);
                c.cx(q, b);
                c.add(GateKind::CRZ(-t / 3.0), &[q, b]);
            }
        }
        append_qft(c, &clocks, !inverse);
    };
    c.x(b);
    qpe(&mut c, &mut rng, false);
    for &q in &clocks {
        c.add(GateKind::CRY(PI / f64::from(q + 1)), &[q, anc]);
    }
    qpe(&mut c, &mut rng, true);
    c.x(anc);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I, transposed: per family, the gate counts for n = 28..=36.
    const TABLE1: &[(&str, [usize; 9])] = &[
        ("ae", [514, 547, 581, 616, 652, 689, 727, 766, 806]),
        ("dj", [82, 85, 88, 91, 94, 97, 100, 103, 106]),
        ("ghz", [28, 29, 30, 31, 32, 33, 34, 35, 36]),
        ("graphstate", [56, 58, 60, 62, 64, 66, 68, 70, 72]),
        ("ising", [302, 313, 324, 335, 346, 357, 368, 379, 390]),
        ("qft", [406, 435, 465, 496, 528, 561, 595, 630, 666]),
        ("qpeexact", [432, 463, 493, 524, 559, 593, 628, 664, 701]),
        ("qsvm", [274, 284, 294, 304, 314, 324, 334, 344, 354]),
        (
            "su2random",
            [1246, 1334, 1425, 1519, 1616, 1716, 1819, 1925, 2034],
        ),
        (
            "vqc",
            [1873, 1998, 2127, 2260, 2397, 2538, 2683, 2832, 2985],
        ),
        ("wstate", [109, 113, 117, 121, 125, 129, 133, 137, 141]),
    ];

    #[test]
    fn gate_counts_match_table1() {
        for &(name, counts) in TABLE1 {
            let fam = Family::from_name(name).unwrap();
            for (i, &expect) in counts.iter().enumerate() {
                let n = 28 + i as u32;
                let c = fam.generate(n);
                let got = c.num_gates();
                let diff = got.abs_diff(expect);
                // qpeexact is within ±2 of MQT's count (MQT elides
                // controlled-phases that vanish for the chosen phase's
                // binary expansion); all other families must be exact.
                let tol = if name == "qpeexact" { 2 } else { 0 };
                assert!(
                    diff <= tol,
                    "{name}_{n}: expected {expect} gates, generated {got}"
                );
                assert_eq!(c.num_qubits(), n);
            }
        }
    }

    #[test]
    fn hhl_counts_match_table2_within_tolerance() {
        // Table II: 4 qubits → 80 gates; 7 → 689; 9 → 91,968; 10 → 186,795.
        for (nq, expect, tol_pct) in [
            (4u32, 80usize, 50.0),
            (7, 689, 50.0),
            (9, 91968, 3.0),
            (10, 186795, 3.0),
        ] {
            let c = hhl(nq);
            let got = c.num_gates();
            let err = 100.0 * (got as f64 - expect as f64).abs() / expect as f64;
            assert!(
                err <= tol_pct,
                "hhl_{nq}: expected ~{expect}, generated {got} ({err:.1}% off)"
            );
            assert_eq!(c.num_qubits(), 28, "hhl must be padded to 28 qubits");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for fam in Family::table1() {
            let a = fam.generate(8);
            let b = fam.generate(8);
            assert_eq!(a.gates(), b.gates(), "{fam:?} not deterministic");
        }
    }

    #[test]
    fn generators_work_at_small_sizes() {
        // The functional-correctness integration tests run families at
        // n ∈ 6..16; every generator must produce a valid circuit there.
        for fam in Family::table1() {
            for n in [6u32, 9, 12] {
                let c = fam.generate(n);
                assert!(c.num_gates() > 0);
                assert_eq!(c.num_qubits(), n);
            }
        }
    }

    #[test]
    fn clifford_family_is_deterministic_and_all_clifford() {
        for n in [2u32, 6, 9, 200] {
            let a = clifford(n);
            let b = clifford(n);
            assert_eq!(a.gates(), b.gates(), "clifford_{n} not deterministic");
            assert_eq!(a.num_gates(), 8 * n as usize);
            assert!(a.is_clifford(), "clifford_{n} must stay in the alphabet");
        }
    }

    #[test]
    fn qft_self_inverse_structure() {
        let mut c = Circuit::new(4);
        append_qft(&mut c, &[0, 1, 2, 3], false);
        append_qft(&mut c, &[0, 1, 2, 3], true);
        assert_eq!(c.num_gates(), 2 * 10);
    }

    #[test]
    fn by_name_covers_every_family_and_rejects_bad_sizes() {
        for fam in Family::table1().into_iter().chain([Family::Hhl]) {
            assert_eq!(
                by_name(fam.name(), 6).unwrap().gates(),
                fam.generate(6).gates()
            );
        }
        for (name, min, _) in BY_NAME {
            // The stated minimum is accepted by the generator itself.
            assert!(by_name(name, min).unwrap().num_gates() > 0, "{name}");
            for bad in [min - 1, Circuit::MAX_QUBITS + 1, 4_000_000_000] {
                assert_eq!(
                    by_name(name, bad).unwrap_err(),
                    GeneratorError::QubitsOutOfRange {
                        name: name.to_string(),
                        n: bad,
                        min
                    }
                );
            }
        }
        assert_eq!(
            by_name("nope", 8).unwrap_err().to_string(),
            "unknown family 'nope'"
        );
    }

    #[test]
    fn family_names_roundtrip() {
        for fam in Family::table1() {
            assert_eq!(Family::from_name(fam.name()), Some(fam));
        }
        assert_eq!(Family::from_name("hhl"), Some(Family::Hhl));
        assert_eq!(Family::from_name("nope"), None);
    }
}
