//! Public-API surface snapshot for `atlas-core` and `atlas-sampler`.
//!
//! Extracts every top-level `pub` item declaration from the two crates'
//! sources and compares the result against the checked-in snapshot
//! `tests/api_surface.txt`. A session-API refactor (adding, removing or
//! renaming exported items) must update the snapshot in the same
//! commit, so the public surface can never drift silently.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_API_SURFACE=1 cargo test --test api_surface
//! ```
//!
//! The extractor is deliberately simple — column-zero `pub` items only
//! (methods inside `impl` blocks are indented, `#[cfg(test)]` modules
//! are indented or excluded by file walk order) — which is exactly the
//! granularity re-exports and module layout changes show up at.

use std::fs;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/api_surface.txt");
const CRATES: &[&str] = &[
    "crates/analyze",
    "crates/core",
    "crates/sampler",
    "crates/serve",
    "crates/stabilizer",
    "crates/telemetry",
];

/// Recursively collects `.rs` files under `dir`, sorted for stability.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

/// One normalized declaration per top-level `pub` item of a file:
/// the declaration head, truncated before bodies/signatures/values.
fn declarations(source: &str) -> Vec<String> {
    const KINDS: &[&str] = &[
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub mod ",
        "pub use ",
        "pub const ",
        "pub static ",
    ];
    let mut out = Vec::new();
    for line in source.lines() {
        // Top-level items only: `impl` methods and test-module items are
        // indented.
        if line.starts_with(char::is_whitespace) {
            continue;
        }
        let Some(kind) = KINDS.iter().find(|k| line.starts_with(**k)) else {
            continue;
        };
        let decl = match *kind {
            // Signatures and bodies are implementation detail at this
            // granularity; the item's existence and name are the API.
            "pub fn " => line.split('(').next().unwrap(),
            "pub const " | "pub static " | "pub type " => line.split(':').next().unwrap(),
            "pub struct " | "pub enum " | "pub trait " => {
                line.trim_end_matches('{').split('<').next().unwrap()
            }
            // `pub mod x;` / `pub use a::b::{C, D};` — the whole line is
            // the declaration (re-export lists are kept single-line in
            // this workspace).
            _ => line,
        };
        out.push(decl.trim_end().trim_end_matches(';').to_string());
    }
    out
}

fn current_surface() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut lines = Vec::new();
    for krate in CRATES {
        for file in rust_files(&root.join(krate).join("src")) {
            let rel = file.strip_prefix(root).unwrap().display().to_string();
            let source = fs::read_to_string(&file).unwrap();
            for decl in declarations(&source) {
                lines.push(format!("{rel}: {decl}"));
            }
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn public_api_surface_matches_snapshot() {
    let got = current_surface();
    if std::env::var_os("UPDATE_API_SURFACE").is_some() {
        fs::write(SNAPSHOT, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(SNAPSHOT).expect(
        "tests/api_surface.txt missing — run UPDATE_API_SURFACE=1 cargo test --test api_surface",
    );
    if got != want {
        let got_set: std::collections::BTreeSet<&str> = got.lines().collect();
        let want_set: std::collections::BTreeSet<&str> = want.lines().collect();
        let added: Vec<&&str> = got_set.difference(&want_set).collect();
        let removed: Vec<&&str> = want_set.difference(&got_set).collect();
        panic!(
            "public API surface of atlas-core/atlas-sampler changed.\n\
             added ({}):\n  {}\nremoved ({}):\n  {}\n\
             If intentional, regenerate the snapshot:\n  \
             UPDATE_API_SURFACE=1 cargo test --test api_surface",
            added.len(),
            added
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
            removed.len(),
            removed
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
        );
    }
}

/// The snapshot itself must mention the session API's tentpole exports —
/// a guard against someone "fixing" a surface break by deleting the
/// entries instead of keeping the API.
#[test]
fn snapshot_contains_session_api() {
    let want = fs::read_to_string(SNAPSHOT).expect("snapshot present");
    for needle in [
        "pub struct Planner",
        "pub struct CompiledPlan",
        "pub struct Execution",
        "pub struct CircuitFingerprint",
        "pub fn staging_invocations",
        "pub struct AtlasConfigBuilder",
        "pub struct Tableau",
        "pub enum BackendKind",
        // The telemetry layer's load-bearing exports: the recorder handle
        // AtlasConfig carries, the unified counter registry, the export
        // formats, and the cross-schedule determinism witness.
        "pub struct Recorder",
        "pub struct MetricsRegistry",
        "pub enum TraceFormat",
        "pub struct TraceMeta",
        "pub fn det_signature",
        "pub enum JobLine",
        "pub fn render_stats",
    ] {
        assert!(
            want.contains(needle),
            "snapshot lost the session API item '{needle}'"
        );
    }
}
