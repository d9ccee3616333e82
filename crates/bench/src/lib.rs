//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each function in [`experiments`] reproduces one experiment and returns a
//! plain-text report (plus machine-readable series where useful). The
//! `reproduce` binary runs them individually or all together. Their numbers
//! are *modeled*: the calibrated cost model of `dandelion-isolation`, the
//! discrete-event simulator and the baselines' queueing models (`fig9` and
//! `text2sql` feed one timing of the application code — the query engine,
//! the workflow's compute functions — into theirs). None of them times this
//! repository's serving path; how fast the live code is is measured by
//! `benchmark/` (see its README) and by nothing here.
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
