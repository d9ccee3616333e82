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
//! * [`RequestSpec`] — request/phase descriptions, and [`workloads`], the
//!   presets used by the figures (1×1 and 128×128 matmul, fetch-and-compute
//!   phases, log processing, image compression).
//! * Core pools (multi-server FCFS with next-free-time bookkeeping) and the
//!   committed-memory tracker.
//! * [`PlatformModel`] — the platform models: Dandelion (per-request
//!   sandboxes, compute/communication core split driven by the live node's
//!   own [`dandelion_core::Step`]), D-hybrid (single hybrid function,
//!   thread-per-core tuning), MicroVM platforms (Firecracker ± snapshots,
//!   gVisor) and Spin/Wasmtime.
//! * [`KnativeAutoscaler`] — a Knative-style concurrency autoscaler with
//!   scale-to-zero grace periods, used for the Azure-trace memory
//!   experiments.
//! * [`run_open_loop`], [`run_bursty`], [`run_trace`] — open-loop Poisson and
//!   bursty load generators plus the trace replayer, and
//!   [`sweep_open_loop`], the sweep the benchmark harness uses.
//!
//! Every model is deterministic given its seed, so figures regenerate
//! identically across machines.

mod autoscaler;
mod load;
mod platforms;
mod request;
mod server;

pub use autoscaler::KnativeAutoscaler;
pub use load::{run_bursty, run_open_loop, run_trace, sweep_open_loop, RunResult};
pub use platforms::{
    DHybridSim, DandelionConfig, DandelionSim, MicroVmKind, MicroVmSim, PlatformModel, WarmPolicy,
    WasmtimeSim,
};
pub use request::{workloads, Phase, RequestSpec};
