//! The log service used by the distributed log-processing application.
//!
//! Each log-service endpoint serves a synthetic, deterministic log file: the
//! FanOut function requests the logs of every endpoint in parallel, and the
//! Render function templates them into an HTML report (paper Figure 3).

use dandelion_common::rng::SplitMix64;
use dandelion_common::SharedBytes;
use dandelion_http::{HttpRequest, HttpResponse, Method, StatusCode};

use crate::latency::LatencyModel;
use crate::registry::{RemoteService, ServiceResponse};

/// Severity levels used in the synthetic logs.
const LEVELS: [&str; 4] = ["DEBUG", "INFO", "WARN", "ERROR"];
/// Component names used in the synthetic logs.
const COMPONENTS: [&str; 5] = ["frontend", "scheduler", "storage", "billing", "gateway"];

/// A log service that serves a deterministic synthetic log file.
///
/// The file is rendered once, when the service is created, and held as
/// [`SharedBytes`]: a GET answers with a view of that buffer, as
/// `ObjectStore` does for its objects. Producing the log is the remote
/// machine's work, not the worker's.
pub struct LogService {
    name: String,
    log: SharedBytes,
    latency: LatencyModel,
}

impl LogService {
    /// Creates a log service with the given name, serving the log
    /// [`LogService::render_log`] generates for that name, line count and seed.
    pub fn new(name: &str, lines: usize, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            log: Self::render_log(name, lines, seed).into_bytes().into(),
            latency: LatencyModel::MICROSERVICE,
        }
    }

    /// Overrides the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Generates the synthetic log of the service called `name`: `lines` lines
    /// drawn from `seed`. Tests use it as the oracle for the served payload.
    pub fn render_log(name: &str, lines: usize, seed: u64) -> String {
        let mut rng = SplitMix64::new(seed);
        let mut out = String::with_capacity(lines * 64);
        let mut timestamp = 1_700_000_000u64;
        for line in 0..lines {
            timestamp += rng.next_bounded(5) + 1;
            let level = LEVELS[rng.next_bounded(LEVELS.len() as u64) as usize];
            let component = COMPONENTS[rng.next_bounded(COMPONENTS.len() as u64) as usize];
            out.push_str(&format!(
                "{timestamp} {level:5} [{component}] request {line} handled in {} us on {name}\n",
                rng.next_bounded(50_000),
            ));
        }
        out
    }
}

impl RemoteService for LogService {
    fn name(&self) -> &str {
        &self.name
    }

    fn resident_bytes(&self) -> usize {
        self.log.len()
    }

    fn handle(&self, request: &HttpRequest) -> ServiceResponse {
        if request.method != Method::Get {
            return ServiceResponse {
                response: HttpResponse::error(
                    StatusCode::BAD_REQUEST,
                    "log service only supports GET",
                ),
                latency: self.latency.latency_for(0),
            };
        }
        ServiceResponse {
            response: HttpResponse::ok(self.log.clone()).with_header("Content-Type", "text/plain"),
            latency: self.latency.latency_for(self.log.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_the_stored_log_without_rendering_or_copying_it() {
        let service = LogService::new("logs-0", 100, 7);
        let request = HttpRequest::get("http://logs-0.internal/logs");
        let first = service.handle(&request);
        let second = service.handle(&request);
        assert_eq!(first.response.status, StatusCode::OK);
        assert_eq!(
            first.response.headers.get("Content-Type"),
            Some("text/plain")
        );
        // Both replies are views of the one buffer rendered in `new`.
        assert!(SharedBytes::same_buffer(
            &first.response.body,
            &second.response.body
        ));
        let expected = LogService::render_log("logs-0", 100, 7);
        assert_eq!(first.response.body.as_slice(), expected.as_bytes());
        assert_eq!(second.response.body.as_slice(), expected.as_bytes());
        assert_eq!(expected.lines().count(), 100);
        assert!(expected.lines().all(|line| line.ends_with(" us on logs-0")));
    }

    #[test]
    fn different_seeds_produce_different_logs() {
        let a = LogService::render_log("logs-0", 50, 1);
        let b = LogService::render_log("logs-0", 50, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn latency_scales_with_log_size() {
        let small = LogService::new("s", 10, 3);
        let large = LogService::new("l", 10_000, 3);
        let request = HttpRequest::get("http://s/logs");
        assert!(large.handle(&request).latency > small.handle(&request).latency);
    }

    #[test]
    fn rejects_non_get() {
        let service = LogService::new("logs-0", 10, 7);
        let request = HttpRequest::post("http://logs-0.internal/logs", b"x".to_vec());
        assert_eq!(
            service.handle(&request).response.status,
            StatusCode::BAD_REQUEST
        );
    }
}
