//! The Atlas benchmark: three seeded workloads run through the session
//! API for end-to-end metrics, and once more layer by layer, traced, for
//! per-layer metrics. See `README.md` for the metrics and how to run it.

pub mod alloc;
pub mod inputs;
pub mod layered;
pub mod report;
pub mod workloads;
