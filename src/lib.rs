//! Umbrella crate for the PBFT practicality reproduction workspace.
//!
//! This crate exists to host the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`. The actual functionality lives in
//! the workspace crates re-exported below.

#![forbid(unsafe_code)]

pub use evoting;
pub use harness;
pub use minisql;
pub use pbft_core;
pub use pbft_crypto;
pub use pbft_sql;
pub use pbft_state;
pub use pbft_xshard;
pub use simnet;
pub use webgate;
