//! Request descriptions and workload presets.
//!
//! A request is a sequence of phases alternating between pure compute and
//! communication with a remote service — exactly the shape a Dandelion
//! composition exposes to the platform. Baseline platforms execute the same
//! phases inside a single sandbox.

use std::time::Duration;

use dandelion_common::MIB;

/// One phase of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Pure computation consuming CPU for the given time (on native code).
    Compute {
        /// CPU time of the phase when run natively on one core.
        work: Duration,
    },
    /// An exchange with a remote service.
    Communication {
        /// Remote service + network latency (not consuming local CPU).
        remote: Duration,
        /// Payload bytes transferred (drives copy/serialization costs).
        payload_bytes: usize,
    },
}

impl Phase {
    /// Total native CPU time of the phase.
    pub fn compute_time(&self) -> Duration {
        match self {
            Phase::Compute { work } => *work,
            Phase::Communication { .. } => Duration::ZERO,
        }
    }

    /// Total remote latency of the phase.
    pub fn remote_time(&self) -> Duration {
        match self {
            Phase::Compute { .. } => Duration::ZERO,
            Phase::Communication { remote, .. } => *remote,
        }
    }
}

/// A request template submitted to a platform model.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// Workload name (used to key per-function sandbox pools).
    pub name: String,
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
    /// Declared memory requirement in MiB (what a sandbox commits).
    pub memory_mib: u32,
    /// Total input + output bytes moved into and out of the sandbox.
    pub io_bytes: usize,
}

impl RequestSpec {
    /// Total native compute time across phases.
    pub fn total_compute(&self) -> Duration {
        self.phases.iter().map(Phase::compute_time).sum()
    }

    /// Total remote latency across phases.
    pub fn total_remote(&self) -> Duration {
        self.phases.iter().map(Phase::remote_time).sum()
    }

    /// Number of compute phases (each is a separate sandbox in Dandelion).
    pub fn compute_phases(&self) -> usize {
        self.phases
            .iter()
            .filter(|phase| matches!(phase, Phase::Compute { .. }))
            .count()
    }

    /// Number of communication phases.
    pub fn communication_phases(&self) -> usize {
        self.phases.len() - self.compute_phases()
    }

    /// Declared memory requirement in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.memory_mib as usize * MIB
    }
}

/// Workload presets calibrated to the paper's microbenchmarks and
/// applications.
pub mod workloads {
    use super::*;

    /// 1×1 int64 matrix multiplication: negligible compute, used to measure
    /// pure sandbox-creation cost (Table 1, Figure 5).
    pub fn matmul_1x1() -> RequestSpec {
        RequestSpec {
            name: "matmul-1x1".to_string(),
            phases: vec![Phase::Compute {
                work: Duration::from_micros(2),
            }],
            memory_mib: 16,
            io_bytes: 64,
        }
    }

    /// 128×128 int64 matrix multiplication (Figures 2 and 6). Roughly 2.6 ms
    /// of native compute on one Xeon E5-2630v3 core.
    pub fn matmul_128() -> RequestSpec {
        RequestSpec {
            name: "matmul-128".to_string(),
            phases: vec![Phase::Compute {
                work: Duration::from_micros(2600),
            }],
            memory_mib: 64,
            io_bytes: 3 * 128 * 128 * 8,
        }
    }

    /// One fetch-and-compute phase of the §7.4 composition microbenchmark:
    /// fetch a 64 KiB array from storage and compute sum/min/max over a
    /// sample of the elements.
    pub fn fetch_and_compute_phase() -> Vec<Phase> {
        vec![
            Phase::Communication {
                remote: Duration::from_millis(2),
                payload_bytes: 64 * 1024,
            },
            Phase::Compute {
                work: Duration::from_micros(120),
            },
        ]
    }

    /// The §7.4 / Figure 7 fetch-and-compute microbenchmark with the given
    /// number of phases.
    pub fn fetch_and_compute(phases: usize) -> RequestSpec {
        let mut all = Vec::with_capacity(phases * 2);
        for _ in 0..phases {
            all.extend(fetch_and_compute_phase());
        }
        RequestSpec {
            name: format!("fetch-and-compute-{phases}"),
            phases: all,
            memory_mib: 32,
            io_bytes: phases * 64 * 1024,
        }
    }

    /// The distributed log-processing application of Figure 3 / Figure 8:
    /// auth request, fan-out to five log services, HTML rendering.
    pub fn log_processing() -> RequestSpec {
        RequestSpec {
            name: "log-processing".to_string(),
            phases: vec![
                // Access: parse token, build auth request.
                Phase::Compute {
                    work: Duration::from_micros(150),
                },
                // Auth service round-trip.
                Phase::Communication {
                    remote: Duration::from_millis(4),
                    payload_bytes: 2 * 1024,
                },
                // FanOut: build the per-server log requests.
                Phase::Compute {
                    work: Duration::from_micros(200),
                },
                // Parallel log fetches: green threads overlap the five
                // requests, so the phase costs one (slowest) round trip.
                Phase::Communication {
                    remote: Duration::from_millis(18),
                    payload_bytes: 5 * 64 * 1024,
                },
                // Render: template the responses into HTML.
                Phase::Compute {
                    work: Duration::from_millis(4),
                },
            ],
            memory_mib: 64,
            io_bytes: 6 * 64 * 1024,
        }
    }

    /// The image-compression application of Figure 8: transform an 18 kB QOI
    /// image to PNG. Compute-intensive, roughly 15 ms of native CPU.
    pub fn image_compression() -> RequestSpec {
        RequestSpec {
            name: "image-compression".to_string(),
            phases: vec![
                Phase::Communication {
                    remote: Duration::from_millis(2),
                    payload_bytes: 18 * 1024,
                },
                Phase::Compute {
                    work: Duration::from_millis(15),
                },
                Phase::Communication {
                    remote: Duration::from_millis(2),
                    payload_bytes: 30 * 1024,
                },
            ],
            memory_mib: 128,
            io_bytes: 48 * 1024,
        }
    }

    /// A request spec matching one Azure-trace invocation: a single compute
    /// phase with the trace-provided duration and memory.
    pub fn trace_invocation(duration: Duration, memory_mib: u32) -> RequestSpec {
        RequestSpec {
            name: "trace-function".to_string(),
            phases: vec![Phase::Compute { work: duration }],
            memory_mib,
            io_bytes: 16 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting() {
        let spec = workloads::log_processing();
        assert_eq!(spec.compute_phases(), 3);
        assert_eq!(spec.communication_phases(), 2);
        assert!(spec.total_compute() > Duration::from_millis(4));
        assert!(spec.total_remote() >= Duration::from_millis(22));
        assert_eq!(spec.memory_bytes(), 64 * MIB);
    }

    #[test]
    fn matmul_presets_have_expected_shape() {
        assert!(workloads::matmul_1x1().total_compute() < Duration::from_micros(10));
        let big = workloads::matmul_128();
        assert_eq!(big.compute_phases(), 1);
        assert!(big.total_compute() >= Duration::from_millis(2));
    }

    #[test]
    fn fetch_and_compute_scales_with_phase_count() {
        let two = workloads::fetch_and_compute(2);
        let sixteen = workloads::fetch_and_compute(16);
        assert_eq!(two.compute_phases(), 2);
        assert_eq!(sixteen.compute_phases(), 16);
        assert!(sixteen.total_remote() > two.total_remote());
        assert_eq!(sixteen.phases.len(), 32);
    }

    #[test]
    fn image_compression_is_compute_dominated() {
        let spec = workloads::image_compression();
        assert!(spec.total_compute() > spec.total_remote());
    }

    #[test]
    fn trace_invocation_wraps_duration() {
        let spec = workloads::trace_invocation(Duration::from_millis(42), 256);
        assert_eq!(spec.total_compute(), Duration::from_millis(42));
        assert_eq!(spec.memory_mib, 256);
    }
}
