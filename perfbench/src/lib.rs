//! End-to-end benchmark of the obfuscating gateway chain over loopback.
//!
//! `src/main.rs` is the command; this library holds its parts so that
//! `tests/` can check the benchmark's own statistics and load generator.
//! See `README.md` for the workloads, the metrics and what each should
//! move.

pub mod chain;
pub mod host;
pub mod load;
pub mod replay;
pub mod stats;
pub mod sys;
pub mod workload;
