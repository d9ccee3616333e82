//! An Azure-Functions-like workload model.
//!
//! The paper's memory-elasticity experiments (Figures 1 and 10, §7.8) replay
//! a 100-function sample of the Azure Functions production trace
//! (Shahrad et al., ATC'20) selected with the InVitro sampler. The real trace
//! is not redistributable, so this crate generates a synthetic trace with the
//! published statistical properties instead:
//!
//! * **heavy-tailed popularity** — a few functions receive most invocations
//!   while most functions are invoked rarely;
//! * **short executions** — "many FaaS functions execute for tens of
//!   milliseconds or less" (paper §2.3), modeled with a log-normal duration
//!   distribution per function;
//! * **small memory footprints** — a discrete distribution over the typical
//!   128–512 MB allocations;
//! * **bursty / periodic arrival patterns** with long idle periods, which is
//!   what makes keep-alive policies commit so much idle memory.
//!
//! The main entry points are [`generate_trace`], which samples the
//! functions InVitro-style and generates their arrivals, and
//! [`Trace::arrivals_per_second`].

mod model;

pub use model::{generate_trace, Trace, TraceConfig};
