//! The authentication service used by the log-processing application.
//!
//! Figure 3 of the paper: the `Access` compute function turns an access
//! token into an HTTP request to the auth service; the auth service replies
//! with the list of log-service endpoints the token is authorized to read.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

use dandelion_common::SharedBytes;
use dandelion_http::{Method, RequestRef, StatusCode};

use crate::latency::LatencyModel;
use crate::registry::{RemoteService, Reply, ServiceResponse};

/// Token-to-endpoints authorization service.
///
/// A grant is stored as the reply body it produces (the endpoints joined by
/// newlines), so authorizing a token is a lookup and a reference count.
pub struct AuthService {
    /// Read-mostly, written one grant at a time, so a lock poisoned by a
    /// panicking thread is recovered.
    tokens: RwLock<BTreeMap<String, SharedBytes>>,
    latency: LatencyModel,
}

impl AuthService {
    /// Creates an auth service with no registered tokens.
    pub fn new() -> Self {
        Self {
            tokens: RwLock::new(BTreeMap::new()),
            latency: LatencyModel::MICROSERVICE,
        }
    }

    /// Creates an auth service with a custom latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            tokens: RwLock::new(BTreeMap::new()),
            latency,
        }
    }

    /// Authorizes `token` to read from the given log-service endpoints.
    pub fn grant(&self, token: &str, endpoints: &[&str]) {
        self.tokens
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(token.to_string(), endpoints.join("\n").into_bytes().into());
    }

    fn authorize(&self, token: &str) -> Option<SharedBytes> {
        let tokens = self.tokens.read().unwrap_or_else(PoisonError::into_inner);
        tokens.get(token).cloned()
    }
}

impl Default for AuthService {
    fn default() -> Self {
        Self::new()
    }
}

impl RemoteService for AuthService {
    fn name(&self) -> &str {
        "auth"
    }

    fn resident_bytes(&self) -> usize {
        let tokens = self.tokens.read().unwrap_or_else(PoisonError::into_inner);
        tokens.values().map(SharedBytes::len).sum()
    }

    fn handle(&self, request: &RequestRef<'_>) -> ServiceResponse {
        let payload = request.body.len();
        let make = |response: Reply, extra: usize| ServiceResponse {
            latency: self.latency.latency_for(payload + extra),
            response,
        };
        if request.method != Method::Post && request.method != Method::Get {
            return make(
                Reply::error(StatusCode::BAD_REQUEST, "auth accepts GET or POST only"),
                0,
            );
        }
        // The token is either the request body or a `token=` query parameter.
        let body = request.body_str();
        let token = if !request.body.is_empty() {
            body.trim()
        } else {
            request
                .target
                .split_once("token=")
                .map_or("", |(_, token)| token.trim())
        };
        if token.is_empty() {
            return make(
                Reply::error(StatusCode::BAD_REQUEST, "missing access token"),
                0,
            );
        }
        match self.authorize(token) {
            Some(body) => {
                let bytes = body.len();
                make(Reply::ok(body), bytes)
            }
            None => make(
                Reply::error(StatusCode::UNAUTHORIZED, "unknown access token"),
                0,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use dandelion_http::HttpRequest;

    use super::*;
    use crate::registry::testing::serve;

    fn service() -> AuthService {
        let auth = AuthService::new();
        auth.grant(
            "token-alpha",
            &["http://logs-0.internal/logs", "http://logs-1.internal/logs"],
        );
        auth
    }

    #[test]
    fn valid_token_returns_endpoints() {
        let auth = service();
        let request = HttpRequest::post("http://auth.internal/authorize", b"token-alpha".to_vec());
        let reply = serve(&auth, &request);
        assert_eq!(reply.response.status, StatusCode::OK);
        let body = reply.response.body_str();
        let endpoints: Vec<&str> = body.lines().map(str::trim).collect();
        assert_eq!(endpoints.len(), 2);
        assert!(endpoints[0].contains("logs-0"));
        assert!(reply.latency >= LatencyModel::MICROSERVICE.base);
    }

    #[test]
    fn a_second_grant_replaces_the_stored_list() {
        let auth = service();
        let request = HttpRequest::post("http://auth.internal/authorize", b"token-alpha".to_vec());
        let endpoints = ["http://logs-7.internal/logs", "http://logs-8.internal/logs"];
        auth.grant("token-alpha", &endpoints[..1]);
        auth.grant("token-alpha", &endpoints);
        let first = serve(&auth, &request).response;
        let second = serve(&auth, &request).response;
        assert_eq!(first.body.as_slice(), endpoints.join("\n").as_bytes());
        assert!(SharedBytes::same_buffer(&first.body, &second.body));
    }

    #[test]
    fn token_via_query_parameter() {
        let auth = service();
        let request = HttpRequest::get("http://auth.internal/authorize?token=token-alpha");
        assert_eq!(serve(&auth, &request).response.status, StatusCode::OK);
    }

    #[test]
    fn unknown_token_is_unauthorized() {
        let auth = service();
        let request = HttpRequest::post("http://auth.internal/authorize", b"wrong".to_vec());
        assert_eq!(
            serve(&auth, &request).response.status,
            StatusCode::UNAUTHORIZED
        );
    }

    #[test]
    fn missing_token_and_bad_method_are_rejected() {
        let auth = service();
        let request = HttpRequest::post("http://auth.internal/authorize", Vec::new());
        assert_eq!(
            serve(&auth, &request).response.status,
            StatusCode::BAD_REQUEST
        );
        let request = HttpRequest::new(Method::Delete, "http://auth.internal/authorize");
        assert_eq!(
            serve(&auth, &request).response.status,
            StatusCode::BAD_REQUEST
        );
    }
}
