//! OpenQASM 2.0-subset writer and reader.
//!
//! Enough of the format to round-trip every circuit this workspace
//! generates (one quantum register, the gate alphabet of
//! [`GateKind`]) — the same interchange shape the
//! paper's artifact uses for MQT-Bench circuits.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use std::fmt::Write as _;

/// Serializes a circuit to QASM text.
pub fn to_qasm(c: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", c.num_qubits());
    for g in c.gates() {
        let _ = writeln!(out, "{g}");
    }
    out
}

/// Errors from [`from_qasm`].
#[derive(Debug, PartialEq)]
pub enum QasmError {
    /// Missing or malformed `qreg` declaration.
    MissingQreg,
    /// A line that could not be parsed (1-based line number, content).
    BadLine(usize, String),
    /// Unknown gate mnemonic.
    UnknownGate(usize, String),
    /// Wrong argument count for a gate.
    BadArity(usize, String),
    /// A `qreg` size outside `1..=4096` (line number, size).
    BadQregSize(usize, u32),
    /// A gate qubit at or past the register size (line number, qubit,
    /// register size).
    QubitOutOfRange(usize, u32, u32),
    /// The same qubit twice in one gate (line number, qubit).
    DuplicateQubit(usize, u32),
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QasmError::MissingQreg => write!(f, "missing qreg declaration"),
            QasmError::BadLine(n, l) => write!(f, "line {n}: cannot parse '{l}'"),
            QasmError::UnknownGate(n, g) => write!(f, "line {n}: unknown gate '{g}'"),
            QasmError::BadArity(n, g) => write!(f, "line {n}: wrong arity for '{g}'"),
            QasmError::BadQregSize(n, size) => {
                write!(
                    f,
                    "line {n}: qreg size {size} outside 1..={}",
                    Circuit::MAX_QUBITS
                )
            }
            QasmError::QubitOutOfRange(n, q, size) => {
                write!(
                    f,
                    "line {n}: qubit {q} out of range for qreg of size {size}"
                )
            }
            QasmError::DuplicateQubit(n, q) => write!(f, "line {n}: qubit {q} repeated in gate"),
        }
    }
}

impl std::error::Error for QasmError {}

/// Parses the QASM subset produced by [`to_qasm`]. Input is untrusted:
/// every malformed or out-of-range statement is a [`QasmError`], never a
/// panic.
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find("//") {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty()
            || line.starts_with("OPENQASM")
            || line.starts_with("include")
            || line.starts_with("barrier")
            || line.starts_with("creg")
            || line.starts_with("measure")
        {
            continue;
        }
        if let Some(rest) = line.strip_prefix("qreg") {
            let n: u32 = rest
                .trim()
                .trim_start_matches(|c: char| c.is_alphabetic())
                .trim_start_matches('[')
                .trim_end_matches(';')
                .trim_end_matches(']')
                .parse()
                .map_err(|_| QasmError::MissingQreg)?;
            if !(1..=Circuit::MAX_QUBITS).contains(&n) {
                return Err(QasmError::BadQregSize(lineno, n));
            }
            circuit = Some(Circuit::new(n));
            continue;
        }
        let c = circuit.as_mut().ok_or(QasmError::MissingQreg)?;
        let stmt = line.trim_end_matches(';');
        // Forms: `name q[i],q[j]` or `name(p1,p2) q[i]`.
        let (head, args) = stmt
            .split_once(' ')
            .ok_or_else(|| QasmError::BadLine(lineno, line.to_string()))?;
        let (name, params) = match head.split_once('(') {
            Some((nm, ps)) => {
                let ps = ps.trim_end_matches(')');
                let vals: Result<Vec<f64>, _> = ps.split(',').map(|s| s.trim().parse()).collect();
                (
                    nm,
                    vals.map_err(|_| QasmError::BadLine(lineno, line.to_string()))?,
                )
            }
            None => (head, vec![]),
        };
        let qubits: Result<Vec<u32>, _> = args
            .split(',')
            .map(|a| {
                a.trim()
                    .trim_start_matches(|c: char| c.is_alphabetic())
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .parse::<u32>()
            })
            .collect();
        let qubits = qubits.map_err(|_| QasmError::BadLine(lineno, line.to_string()))?;
        let p = |i: usize| params.get(i).copied().unwrap_or(0.0);
        let kind = match (name, params.len()) {
            ("h", 0) => GateKind::H,
            ("x", 0) => GateKind::X,
            ("y", 0) => GateKind::Y,
            ("z", 0) => GateKind::Z,
            ("s", 0) => GateKind::S,
            ("sdg", 0) => GateKind::Sdg,
            ("t", 0) => GateKind::T,
            ("tdg", 0) => GateKind::Tdg,
            ("sx", 0) => GateKind::SX,
            ("rx", 1) => GateKind::RX(p(0)),
            ("ry", 1) => GateKind::RY(p(0)),
            ("rz", 1) => GateKind::RZ(p(0)),
            ("p", 1) | ("u1", 1) => GateKind::P(p(0)),
            ("u3", 3) | ("u", 3) => GateKind::U3(p(0), p(1), p(2)),
            ("cx", 0) => GateKind::CX,
            ("cy", 0) => GateKind::CY,
            ("cz", 0) => GateKind::CZ,
            ("ch", 0) => GateKind::CH,
            ("cp", 1) | ("cu1", 1) => GateKind::CP(p(0)),
            ("crx", 1) => GateKind::CRX(p(0)),
            ("cry", 1) => GateKind::CRY(p(0)),
            ("crz", 1) => GateKind::CRZ(p(0)),
            ("swap", 0) => GateKind::Swap,
            ("rzz", 1) => GateKind::RZZ(p(0)),
            ("rxx", 1) => GateKind::RXX(p(0)),
            ("ccx", 0) => GateKind::CCX,
            ("ccz", 0) => GateKind::CCZ,
            ("cswap", 0) => GateKind::CSwap,
            // Not part of qelib1 — our noise-slot extension, kept in
            // the reader so noisy templates round-trip through QASM.
            ("pnoise", 1) => GateKind::PauliNoise(p(0)),
            _ => return Err(QasmError::UnknownGate(lineno, name.to_string())),
        };
        if kind.arity() != qubits.len() {
            return Err(QasmError::BadArity(lineno, name.to_string()));
        }
        for (i, &q) in qubits.iter().enumerate() {
            if q >= c.num_qubits() {
                return Err(QasmError::QubitOutOfRange(lineno, q, c.num_qubits()));
            }
            if qubits[..i].contains(&q) {
                return Err(QasmError::DuplicateQubit(lineno, q));
            }
        }
        c.push(Gate::new(kind, &qubits));
    }
    circuit.ok_or(QasmError::MissingQreg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::Family;

    #[test]
    fn roundtrip_all_families() {
        for fam in Family::table1() {
            let c = fam.generate(7);
            let text = to_qasm(&c);
            let back = from_qasm(&text).unwrap_or_else(|e| panic!("{fam:?}: {e}"));
            assert_eq!(back.num_qubits(), c.num_qubits());
            assert_eq!(back.gates().len(), c.gates().len());
            for (a, b) in c.gates().iter().zip(back.gates()) {
                assert_eq!(a.qubits.as_slice(), b.qubits.as_slice());
                assert_eq!(a.kind.name(), b.kind.name());
            }
        }
    }

    #[test]
    fn parses_handwritten_qasm() {
        let text = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1]; // entangle
cp(1.5707963267948966) q[1],q[2];
measure q[0] -> c[0];
"#;
        let c = from_qasm(text).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.gates()[2].kind.name(), "cp");
    }

    #[test]
    fn missing_qreg_is_error() {
        assert_eq!(from_qasm("h q[0];"), Err(QasmError::MissingQreg));
    }

    #[test]
    fn unknown_gate_is_error() {
        let text = "qreg q[2];\nfoo q[0];";
        assert!(matches!(from_qasm(text), Err(QasmError::UnknownGate(2, _))));
    }

    #[test]
    fn out_of_range_qubit_is_error() {
        let text = "qreg q[3];\nh q[7];";
        assert_eq!(from_qasm(text), Err(QasmError::QubitOutOfRange(2, 7, 3)));
    }

    #[test]
    fn duplicate_qubit_is_error() {
        let text = "qreg q[3];\nh q[0];\ncx q[1],q[1];";
        assert_eq!(from_qasm(text), Err(QasmError::DuplicateQubit(3, 1)));
    }

    #[test]
    fn qreg_size_outside_bounds_is_error() {
        assert_eq!(from_qasm("qreg q[0];"), Err(QasmError::BadQregSize(1, 0)));
        let text = "OPENQASM 2.0;\nqreg q[4097];";
        assert_eq!(from_qasm(text), Err(QasmError::BadQregSize(2, 4097)));
    }
}
