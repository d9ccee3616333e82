//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each function in [`experiments`] reproduces one experiment and returns a
//! plain-text report (plus machine-readable series where useful). The
//! `reproduce` binary runs them individually or all together; the Criterion
//! benches under `benches/` wrap the latency-critical paths of the same
//! experiments.
//!
//! Absolute numbers are not expected to match the paper — the baselines are
//! calibrated queueing models and the hardware differs — but the *shape* of
//! every result (orderings, crossovers, relative factors) is asserted in the
//! workspace test suites and printed in each report's notes
//! (`reproduce --list` names the experiments).

pub mod experiments;
pub mod report;

pub use experiments::{run_experiment, ExperimentId};
pub use report::Report;
