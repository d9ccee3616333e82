//! The service registry communication engines dispatch against.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dandelion_http::{HttpRequest, HttpResponse, StatusCode, Uri};

/// A response together with the modeled network + service latency.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The HTTP response the service produced.
    pub response: HttpResponse,
    /// The modeled end-to-end latency of the exchange.
    pub latency: Duration,
}

/// An in-process stand-in for a remote HTTP service.
pub trait RemoteService: Send + Sync {
    /// A short name for logs and reports.
    fn name(&self) -> &str;

    /// Handles one request, returning the response and its modeled latency.
    fn handle(&self, request: &HttpRequest) -> ServiceResponse;

    /// Bytes of served content this stand-in holds in the worker's memory —
    /// content that sits on another machine in a real deployment. Read for
    /// `/v1/stats` only.
    fn resident_bytes(&self) -> usize {
        0
    }
}

/// Maps host names to services.
///
/// The communication engine parses and validates the untrusted request, then
/// asks the registry to perform it. In a real deployment this is where a
/// socket would be opened; here the lookup stays in-process.
#[derive(Default, Clone)]
pub struct ServiceRegistry {
    services: HashMap<String, Arc<dyn RemoteService>>,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `service` under `host` (replacing any previous entry).
    pub fn register(&mut self, host: &str, service: Arc<dyn RemoteService>) {
        self.services.insert(host.to_string(), service);
    }

    /// Returns the registered host names in sorted order.
    pub fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self.services.keys().cloned().collect();
        hosts.sort();
        hosts
    }

    /// Returns `true` if a service is registered for `host`.
    pub fn contains(&self, host: &str) -> bool {
        self.services.contains_key(host)
    }

    /// What the registered services hold in memory, summed
    /// ([`RemoteService::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.services
            .values()
            .map(|service| service.resident_bytes())
            .sum()
    }

    /// Performs a validated request against the service its URI names.
    ///
    /// Unknown hosts produce a `502 Bad Gateway` response (with zero added
    /// latency) rather than an error: the composition's downstream functions
    /// decide how to handle failures (paper §4.4).
    pub fn dispatch(&self, uri: &Uri, request: &HttpRequest) -> ServiceResponse {
        match self.services.get(&uri.host) {
            Some(service) => service.handle(request),
            None => ServiceResponse {
                response: HttpResponse::error(
                    StatusCode(502),
                    &format!("no route to host `{}`", uri.host),
                ),
                latency: Duration::ZERO,
            },
        }
    }
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRegistry")
            .field("hosts", &self.hosts())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_http::Method;

    struct EchoService;

    impl RemoteService for EchoService {
        fn name(&self) -> &str {
            "echo"
        }

        fn handle(&self, request: &HttpRequest) -> ServiceResponse {
            ServiceResponse {
                response: HttpResponse::ok(request.body.clone()),
                latency: Duration::from_millis(1),
            }
        }
    }

    #[test]
    fn dispatches_to_registered_host() {
        let mut registry = ServiceRegistry::new();
        registry.register("echo.internal", Arc::new(EchoService));
        assert!(registry.contains("echo.internal"));
        assert_eq!(registry.hosts(), vec!["echo.internal"]);

        let request = HttpRequest::post("http://echo.internal/x", b"ping".to_vec());
        let uri = Uri::parse(&request.target).unwrap();
        let reply = registry.dispatch(&uri, &request);
        assert_eq!(reply.response.status, StatusCode::OK);
        assert_eq!(reply.response.body, b"ping");
        assert_eq!(reply.latency, Duration::from_millis(1));
    }

    #[test]
    fn unknown_hosts_get_bad_gateway() {
        let registry = ServiceRegistry::new();
        let request = HttpRequest::new(Method::Get, "http://nowhere.internal/");
        let uri = Uri::parse(&request.target).unwrap();
        let reply = registry.dispatch(&uri, &request);
        assert_eq!(reply.response.status, StatusCode(502));
        assert!(reply.response.body_text().contains("nowhere.internal"));
    }

    #[test]
    fn resident_bytes_sums_what_the_services_hold() {
        use crate::logs::LogService;
        use crate::object_store::ObjectStore;
        let mut registry = ServiceRegistry::new();
        registry.register("echo.internal", Arc::new(EchoService));
        assert_eq!(registry.resident_bytes(), 0, "the default is nothing held");
        let store = ObjectStore::new();
        store.put_object("b", "k", vec![0u8; 100]);
        registry.register("s3.internal", Arc::new(store));
        registry.register("logs.internal", Arc::new(LogService::new("logs", 10, 1)));
        let log = LogService::render_log("logs", 10, 1).len();
        assert_eq!(registry.resident_bytes(), 100 + log);
    }
}
