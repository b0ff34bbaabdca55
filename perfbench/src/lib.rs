//! The repository benchmark: one command runs a named workload from a seed,
//! checks every output, and prints the end-to-end metrics (untraced run) or
//! the per-layer metrics (traced run) as the last line of stdout.
//!
//! See `perfbench/README.md` for the workloads, the metric definitions and
//! the layer → end-to-end mapping.

#![warn(rust_2018_idioms)]

pub mod fingerprint;
pub mod kernels;
pub mod problems;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workloads;

use workloads::{RunConfig, Workload};

/// Runs one workload and returns its report.
pub fn run(cfg: &RunConfig) -> report::Report {
    match cfg.workload {
        Workload::Serve => serve::run(cfg),
        _ => workloads::run_batch(cfg),
    }
}
