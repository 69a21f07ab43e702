//! `wallbench`: a wall-clock, end-to-end + per-layer benchmark of the real
//! code paths, on a deterministic schedule. See the crate README.

pub mod driver;
pub mod json;
pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
