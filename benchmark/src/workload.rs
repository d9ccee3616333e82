//! The four named workloads: what traffic each sends, at which rates, and
//! how every response is checked.
//!
//! Names, rates and limits are constants of the benchmark, frozen from the
//! seed commit (see README.md), so parent and change always face the same
//! load. Only request *payloads* and arrival times vary with `--seed`.

use std::time::Duration;

use dandelion_apps::matmul;
use dandelion_apps::setup::{demo_worker, DEMO_TOKEN, LOG_SERVICES};
use dandelion_common::rng::SplitMix64;
use dandelion_common::{DataItem, DataSet};
use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
use dandelion_core::Frontend;
use dandelion_http::HttpRequest;
use dandelion_isolation::output_parser;

use crate::client::Framed;

/// Which processes serve the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One worker, addressed directly.
    Direct,
    /// A gateway fronting [`GATEWAY_MEMBERS`] workers.
    Gateway,
}

impl Topology {
    pub fn name(self) -> &'static str {
        match self {
            Topology::Direct => "direct",
            Topology::Gateway => "gateway",
        }
    }
}

pub const GATEWAY_MEMBERS: usize = 2;

/// Flags of the worker processes. Constants, not derived from the host, so
/// parent and change run the same configuration.
pub const WORKER_FLAGS: [&str; 6] = [
    "--addr",
    "127.0.0.1:0",
    "--cores",
    "2",
    "--event-loops",
    "1",
];
/// Flags of the gateway process.
pub const GATEWAY_FLAGS: [&str; 5] = ["--gateway", "--addr", "127.0.0.1:0", "--event-loops", "1"];
/// Cores of the in-process worker the layer walk uses (the `--cores` above).
pub const WORKER_CORES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `POST /v1/invoke/MatMulApp` with two square int64 matrices.
    Matmul { dimension: usize },
    /// `POST /v1/invoke/RenderLogs` with the demo access token.
    Logs,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    pub traffic: Traffic,
    /// Open-loop rates in reference time. `hi` keeps the server's CPU a bit
    /// under 60 % busy at the seed, `lo` is half of that (README.md says why
    /// that is not the issue's 20 % and 50 % of `peak_rps`).
    pub lo_rps: f64,
    pub hi_rps: f64,
    /// Latency limit of `slo_ok_hi`: at least 4x the seed's `lat_hi_p99_us`,
    /// and large enough that a tenth of it (the generator's lateness bound)
    /// is twice the lateness two generator threads sharing one CPU show at
    /// any rate (README.md, "Workloads").
    pub limit_us: f64,
    /// Requests the layer walk walks (fewer when `--seconds` runs out).
    pub walk_iterations: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "matmul1",
        why: "1x1 matmul, user work ~0: the whole request is platform overhead (paper Fig. 5), so per-request savings show here first",
        topology: Topology::Direct,
        traffic: Traffic::Matmul { dimension: 1 },
        lo_rps: 5_000.0,
        hi_rps: 10_000.0,
        limit_us: 6_000.0,
        walk_iterations: 2_000,
    },
    Workload {
        name: "matmul128",
        why: "128x128 matmul, 256 KiB in: per-byte cost and user compute dominate (paper Fig. 6); a platform-overhead gain predicts no change",
        topology: Topology::Direct,
        traffic: Traffic::Matmul { dimension: 128 },
        lo_rps: 100.0,
        hi_rps: 200.0,
        limit_us: 30_000.0,
        walk_iterations: 200,
    },
    Workload {
        name: "logs",
        why: "RenderLogs composition, 3 compute + 6 communication tasks with fan-out 5 (paper Fig. 3): dispatcher and engine hand-offs dominate",
        topology: Topology::Direct,
        traffic: Traffic::Logs,
        lo_rps: 500.0,
        hi_rps: 1_000.0,
        limit_us: 15_000.0,
        walk_iterations: 2_000,
    },
    Workload {
        name: "gw_matmul1",
        why: "matmul1 traffic through a gateway fronting 2 members: differs from matmul1 only by the hop, so the difference is the gateway's cost",
        topology: Topology::Gateway,
        traffic: Traffic::Matmul { dimension: 1 },
        lo_rps: 3_000.0,
        hi_rps: 6_000.0,
        limit_us: 10_000.0,
        walk_iterations: 2_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// Seeded request/expected-response pairs a matmul workload cycles through.
const MATMUL_POOL: usize = 8;

/// A read deadline: a response later than this counts as failed.
pub const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);

/// One request and the response body it must produce.
pub struct Exchange {
    /// For the layer walk, which hands it to the layers directly.
    pub request: HttpRequest,
    /// For the load generator: `request` on the wire, encoded once.
    pub wire: Vec<u8>,
    pub expected: Vec<u8>,
}

impl Exchange {
    fn new(request: HttpRequest, expected: Vec<u8>) -> Self {
        let wire = request.to_bytes();
        Self {
            request,
            wire,
            expected,
        }
    }
}

/// The `application/x-dandelion-sets` body of one matmul request.
pub fn matmul_body(dimension: usize, a: &[i64], b: &[i64]) -> Vec<u8> {
    output_parser::encode_outputs(&[DataSet::with_items(
        "Matrices",
        vec![
            DataItem::new("a", matmul::encode_matrix(dimension, a)),
            DataItem::new("b", matmul::encode_matrix(dimension, b)),
        ],
    )])
}

fn invoke_request(composition: &str, body: Vec<u8>) -> HttpRequest {
    HttpRequest::post(format!("/v1/invoke/{composition}"), body).with_header("Host", "bench")
}

/// The `RenderLogs` report, obtained once from an in-process demo worker:
/// the services are deterministic, so every server must answer exactly this.
fn logs_reference(request: &HttpRequest) -> Result<Vec<u8>, String> {
    let worker = demo_worker(WORKER_CORES, false).map_err(|error| error.to_string())?;
    let response = Frontend::new(worker.clone()).handle(request);
    worker.shutdown();
    let sections = response.body_text().matches("<section><pre>").count();
    if !response.status.is_success() || sections != LOG_SERVICES {
        return Err(format!(
            "reference RenderLogs answered {} with {sections} log sections",
            response.status
        ));
    }
    Ok(response.body.to_vec())
}

impl Workload {
    pub fn composition(&self) -> &'static str {
        match self.traffic {
            Traffic::Matmul { .. } => "MatMulApp",
            Traffic::Logs => "RenderLogs",
        }
    }

    /// Builds the request pool from `seed`; the expected bodies are computed
    /// locally, never taken from the server under test.
    pub fn build_pool(&self, seed: u64) -> Result<Vec<Exchange>, String> {
        match self.traffic {
            Traffic::Matmul { dimension } => {
                let mut rng = SplitMix64::new(seed);
                let matrix = |rng: &mut SplitMix64| -> Vec<i64> {
                    (0..dimension * dimension)
                        .map(|_| rng.next_bounded(2_001) as i64 - 1_000)
                        .collect()
                };
                Ok((0..MATMUL_POOL)
                    .map(|_| {
                        let (a, b) = (matrix(&mut rng), matrix(&mut rng));
                        let product = matmul::multiply(dimension, &a, &b);
                        let request =
                            invoke_request(self.composition(), matmul_body(dimension, &a, &b))
                                .with_header("Content-Type", SET_LIST_CONTENT_TYPE);
                        Exchange::new(request, matmul::encode_matrix(dimension, &product))
                    })
                    .collect())
            }
            Traffic::Logs => {
                let request = invoke_request(self.composition(), DEMO_TOKEN.as_bytes().to_vec());
                let expected = logs_reference(&request)?;
                Ok(vec![Exchange::new(request, expected)])
            }
        }
    }

    /// Whether a framed response is the right answer to `exchange`.
    pub fn verify(
        &self,
        via_gateway: bool,
        framed: &Framed,
        body: &[u8],
        exchange: &Exchange,
    ) -> bool {
        (200..300).contains(&framed.status)
            && body == exchange.expected
            // The gateway stamps the answering member on what it proxies.
            && (!via_gateway || framed.node.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_request_round_trips_through_the_set_list_parser() {
        let (a, b) = (vec![1, 2, 3, 4], vec![5, 6, 7, 8]);
        let sets = output_parser::parse_outputs(&matmul_body(2, &a, &b)).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].name, "Matrices");
        let names: Vec<&str> = sets[0]
            .items
            .iter()
            .map(|item| item.name.as_str())
            .collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(
            matmul::decode_matrix(&sets[0].items[0].data).unwrap(),
            (2, a)
        );
        assert_eq!(
            matmul::decode_matrix(&sets[0].items[1].data).unwrap(),
            (2, b)
        );
        // The sizes the README quotes for matmul1.
        assert_eq!(matmul_body(1, &[3], &[4]).len(), 74);
        assert_eq!(matmul::encode_matrix(1, &[12]).len(), 12);
    }

    #[test]
    fn pools_are_seeded_and_expected_bodies_are_the_local_product() {
        let workload = find("matmul1").unwrap();
        let first = workload.build_pool(11).unwrap();
        let again = workload.build_pool(11).unwrap();
        let other = workload.build_pool(12).unwrap();
        assert_eq!(first.len(), MATMUL_POOL);
        assert!(first
            .iter()
            .zip(&again)
            .all(|(x, y)| x.wire == y.wire && x.expected == y.expected));
        assert!(first.iter().zip(&other).any(|(x, y)| x.wire != y.wire));
        let sets = output_parser::parse_outputs(&first[0].request.body).unwrap();
        let (_, a) = matmul::decode_matrix(&sets[0].items[0].data).unwrap();
        let (_, b) = matmul::decode_matrix(&sets[0].items[1].data).unwrap();
        assert_eq!(first[0].expected, matmul::encode_matrix(1, &[a[0] * b[0]]));
    }

    #[test]
    fn verification_rejects_wrong_status_body_and_missing_node_header() {
        let workload = find("gw_matmul1").unwrap();
        let exchange = &workload.build_pool(1).unwrap()[0];
        let good = Framed {
            status: 200,
            node: Some(1),
            head_len: 0,
            body_len: 12,
        };
        assert!(workload.verify(true, &good, &exchange.expected, exchange));
        assert!(workload.verify(
            false,
            &Framed { node: None, ..good },
            &exchange.expected,
            exchange
        ));
        assert!(!workload.verify(
            true,
            &Framed { node: None, ..good },
            &exchange.expected,
            exchange
        ));
        assert!(!workload.verify(
            true,
            &Framed {
                status: 502,
                ..good
            },
            &exchange.expected,
            exchange
        ));
        assert!(!workload.verify(true, &good, b"wrong", exchange));
    }

    #[test]
    fn every_workload_has_a_unique_name_and_sane_rates() {
        for (index, workload) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..index]
                .iter()
                .all(|other| other.name != workload.name));
            assert!(workload.lo_rps < workload.hi_rps && workload.limit_us > 0.0);
            assert!(workload.why.len() <= 200);
        }
    }
}
