//! Virtual-time simulation of Dandelion and its baselines.
//!
//! The paper's evaluation compares Dandelion against Firecracker (with and
//! without snapshots), gVisor, and Spin/Wasmtime on 16-core x86 servers and a
//! 4-core Arm Morello board, sweeping open-loop load up to 10 kRPS and
//! replaying a 20-minute Azure Functions trace. Reproducing those figures by
//! direct measurement would require the original hardware and the original
//! systems; instead this crate models each platform as a queueing system with
//! calibrated service times and replays the same workloads under virtual
//! time:
//!
//! * [`request`] — request/phase descriptions and the workload presets used
//!   by the figures (1×1 and 128×128 matmul, fetch-and-compute phases, log
//!   processing, image compression).
//! * [`server`] — core pools (multi-server FCFS with next-free-time
//!   bookkeeping), warm-sandbox pools and the committed-memory tracker.
//! * [`platforms`] — the platform models: Dandelion (per-request sandboxes,
//!   compute/communication core split driven by the live node's own
//!   [`dandelion_core::control::Step`]), D-hybrid
//!   (single hybrid function, thread-per-core tuning), MicroVM platforms
//!   (Firecracker ± snapshots, gVisor) and Spin/Wasmtime.
//! * [`autoscaler`] — a Knative-style concurrency autoscaler with
//!   scale-to-zero grace periods, used for the Azure-trace memory
//!   experiments.
//! * [`load`] — open-loop Poisson and bursty load generators plus the trace
//!   replayer, and the sweep helpers the benchmark harness uses.
//!
//! Every model is deterministic given its seed, so figures regenerate
//! identically across machines.

pub mod autoscaler;
pub mod load;
pub mod platforms;
pub mod request;
pub mod server;

pub use load::{run_bursty, run_open_loop, run_trace, sweep_open_loop, RunResult, SweepPoint};
pub use platforms::{
    Completion, DHybridSim, DandelionSim, MicroVmKind, MicroVmSim, PlatformModel, WasmtimeSim,
};
pub use request::{workloads, Phase, RequestSpec};
pub use server::{CorePool, MemoryTracker, WarmPool};
