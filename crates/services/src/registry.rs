//! The service registry communication engines dispatch against.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dandelion_common::{utf8_lossy, SharedBytes, SharedBytesMut};
use dandelion_http::{RequestRef, StatusCode, UriRef, Version};

/// What a service answers: a status, the type of its content, and the
/// content. No service sets another header, so a reply carries no header
/// map; [`Reply::to_shared`] writes it as the response a remote service
/// would send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: StatusCode,
    /// The `Content-Type` line's value, if the reply has one.
    pub content_type: Option<&'static str>,
    /// Message body (a zero-copy view).
    pub body: SharedBytes,
    /// What `Content-Length` declares when it is not the body's length: a
    /// HEAD answer declares the length a GET would send and sends no body
    /// (RFC 9110 §9.3.2).
    pub content_length: Option<usize>,
}

impl Reply {
    /// A reply with the given status and body and no content type.
    pub fn new(status: StatusCode, body: impl Into<SharedBytes>) -> Self {
        Self {
            status,
            content_type: None,
            body: body.into(),
            content_length: None,
        }
    }

    /// A `200 OK` reply.
    pub fn ok(body: impl Into<SharedBytes>) -> Self {
        Self::new(StatusCode::OK, body)
    }

    /// An error reply whose body is the reason text.
    pub fn error(status: StatusCode, message: &str) -> Self {
        Self::new(status, message.as_bytes().to_vec())
    }

    /// Sets the content type and returns `self` for chaining.
    pub fn with_content_type(mut self, content_type: &'static str) -> Self {
        self.content_type = Some(content_type);
        self
    }

    /// The body as text (lossy).
    pub fn body_str(&self) -> Cow<'_, str> {
        utf8_lossy(&self.body)
    }

    /// The reply as an HTTP/1.1 response — status line, the `Content-Type`
    /// line if any, `Content-Length`, blank line, body — written into one
    /// pooled buffer of exactly its length. These are the bytes the
    /// communication engine hands downstream.
    pub fn to_shared(&self) -> SharedBytes {
        let declared = self.content_length.unwrap_or(self.body.len());
        let reason = self.status.reason();
        let length = "HTTP/1.1 ".len()
            + decimal_len(usize::from(self.status.0))
            + 1
            + reason.len()
            + 2
            + self
                .content_type
                .map_or(0, |value| "Content-Type: \r\n".len() + value.len())
            + "Content-Length: \r\n\r\n".len()
            + decimal_len(declared)
            + self.body.len();
        let mut out = SharedBytesMut::with_capacity(length);
        out.put_str(Version::Http11.as_str());
        out.put_u8(b' ');
        out.put_decimal(usize::from(self.status.0));
        out.put_u8(b' ');
        out.put_str(reason);
        out.put_str("\r\n");
        if let Some(value) = self.content_type {
            out.put_str("Content-Type: ");
            out.put_str(value);
            out.put_str("\r\n");
        }
        out.put_str("Content-Length: ");
        out.put_decimal(declared);
        out.put_str("\r\n\r\n");
        out.put_slice(&self.body);
        debug_assert_eq!(out.len(), length);
        out.freeze()
    }
}

/// Number of decimal digits in `value`.
fn decimal_len(value: usize) -> usize {
    value.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// A reply together with the modeled network + service latency.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// What the service answered.
    pub response: Reply,
    /// The modeled end-to-end latency of the exchange.
    pub latency: Duration,
}

/// An in-process stand-in for a remote HTTP service.
pub trait RemoteService: Send + Sync {
    /// A short name for logs and reports.
    fn name(&self) -> &str;

    /// Handles one validated request, returning the reply and its modeled
    /// latency. The request borrows the bytes the compute function wrote:
    /// a service reads its method, target and body, and copies what it
    /// keeps.
    fn handle(&self, request: &RequestRef<'_>) -> ServiceResponse;

    /// Bytes of served content this stand-in holds in the worker's memory —
    /// content that sits on another machine in a real deployment. Read for
    /// `/v1/stats` only.
    fn resident_bytes(&self) -> usize {
        0
    }
}

/// Maps host names to services.
///
/// The communication engine validates the untrusted request where it lies,
/// then asks the registry to perform it. In a real deployment this is where
/// a socket would be opened; here the lookup stays in-process.
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

    /// What the registered services hold in memory, summed over each
    /// service's own `resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        self.services
            .values()
            .map(|service| service.resident_bytes())
            .sum()
    }

    /// Performs a validated request — both arguments borrowed from the
    /// bytes it was read from — against the service its URI's host names.
    ///
    /// Unknown hosts produce a `502 Bad Gateway` reply (with zero added
    /// latency) rather than an error: the composition's downstream functions
    /// decide how to handle failures (paper §4.4).
    pub fn dispatch(&self, uri: &UriRef<'_>, request: &RequestRef<'_>) -> ServiceResponse {
        match self.services.get(uri.host) {
            Some(service) => service.handle(request),
            None => ServiceResponse {
                response: Reply::error(
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

/// Test support: a request the way the communication engine hands it to a
/// service.
#[cfg(test)]
pub(crate) mod testing {
    use dandelion_common::SharedBytes;
    use dandelion_http::validate::{validate_request_shared, ValidationPolicy};
    use dandelion_http::{HttpRequest, Method};

    use super::{RemoteService, ServiceRegistry, ServiceResponse};

    /// A policy that lets every method through (the object store answers
    /// HEAD too).
    fn policy() -> ValidationPolicy {
        ValidationPolicy {
            allowed_methods: vec![
                Method::Get,
                Method::Put,
                Method::Post,
                Method::Delete,
                Method::Head,
            ],
            ..ValidationPolicy::default()
        }
    }

    /// `request` serialized, validated in place and handed to `service`.
    pub(crate) fn serve(service: &dyn RemoteService, request: &HttpRequest) -> ServiceResponse {
        let raw = SharedBytes::from_vec(request.to_bytes());
        let validated = validate_request_shared(&raw, &policy()).expect("a valid request");
        service.handle(&validated.request)
    }

    /// `request` serialized, validated in place and dispatched.
    pub(crate) fn dispatch(registry: &ServiceRegistry, request: &HttpRequest) -> ServiceResponse {
        let raw = SharedBytes::from_vec(request.to_bytes());
        let validated = validate_request_shared(&raw, &policy()).expect("a valid request");
        registry.dispatch(&validated.uri, &validated.request)
    }
}

#[cfg(test)]
mod tests {
    use super::testing::dispatch;
    use super::*;
    use dandelion_http::{HttpRequest, HttpResponse, Method};

    struct EchoService;

    impl RemoteService for EchoService {
        fn name(&self) -> &str {
            "echo"
        }

        fn handle(&self, request: &RequestRef<'_>) -> ServiceResponse {
            ServiceResponse {
                response: Reply::ok(request.body.clone()),
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
        let reply = dispatch(&registry, &request);
        assert_eq!(reply.response.status, StatusCode::OK);
        assert_eq!(reply.response.body, b"ping");
        assert_eq!(reply.latency, Duration::from_millis(1));
    }

    #[test]
    fn unknown_hosts_get_bad_gateway() {
        let registry = ServiceRegistry::new();
        let request = HttpRequest::new(Method::Get, "http://nowhere.internal/");
        let reply = dispatch(&registry, &request);
        assert_eq!(reply.response.status, StatusCode(502));
        assert!(reply.response.body_str().contains("nowhere.internal"));
    }

    #[test]
    fn a_reply_is_written_as_the_http_response_it_stands_for() {
        let body = SharedBytes::from_vec(b"x".repeat(5000));
        let cases = [
            (
                Reply::ok(body.clone()).with_content_type("text/plain"),
                HttpResponse::ok(body.clone()).with_header("Content-Type", "text/plain"),
            ),
            (
                Reply::error(StatusCode::NOT_FOUND, "no such object"),
                HttpResponse::error(StatusCode::NOT_FOUND, "no such object"),
            ),
            (
                Reply::new(StatusCode(42), SharedBytes::new()),
                HttpResponse::new(StatusCode(42), SharedBytes::new()),
            ),
            (
                Reply {
                    content_length: Some(100),
                    ..Reply::ok(SharedBytes::new())
                },
                HttpResponse::ok(SharedBytes::new()).with_header("Content-Length", "100"),
            ),
        ];
        for (reply, response) in cases {
            let written = reply.to_shared();
            assert_eq!(written.as_slice(), response.to_bytes(), "{reply:?}");
            // One pooled buffer of the class that holds the message.
            assert_eq!(
                written.backing_len(),
                SharedBytesMut::with_capacity(written.len()).capacity()
            );
        }
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
