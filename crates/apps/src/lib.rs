//! Application library: the compute functions and compositions used by the
//! paper's evaluation, implemented against the Dandelion public API.
//!
//! * [`matmul`] — 1×1 / 128×128 int64 matrix multiplication (the
//!   microbenchmark of Table 1 and Figures 2, 5, 6).
//! * `phases` — the fetch-and-compute composition microbenchmark of §7.4.
//! * `logproc` — the distributed log-processing application of Figure 3:
//!   `Access → HTTP → FanOut → HTTP (fan-out) → Render`.
//! * `image` — QOI decoding and PNG encoding, the compute-heavy
//!   image-compression application of Figure 8.
//! * `text2sql` — the agentic Text2SQL workflow of §7.7: prompt parsing,
//!   LLM call, SQL extraction, database call, response formatting.
//! * `query_app` — elastic SSB query processing (§7.7, Figure 9): plan →
//!   fetch partitions from the object store → per-partition execution →
//!   merge.
//! * [`setup`] — helpers that register the applications and their simulated
//!   services on a [`dandelion_core::WorkerNode`].

mod image;
mod logproc;
// `pub` because `benchmark/src/workload.rs` imports it by path.
pub mod matmul;
mod phases;
mod query_app;
// `pub` because `benchmark/src/{workload,layerwalk}.rs` import it by path.
pub mod setup;
mod text2sql;

pub use image::{png_dimensions, qoi_encode, Image};
pub use logproc::render_artifact;
pub use phases::{phase_array, PHASE_ARRAY_BYTES, PHASE_SAMPLE};
pub use text2sql::paper_step_latencies_ms;
