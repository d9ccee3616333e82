//! The authentication service used by the log-processing application.
//!
//! Figure 3 of the paper: the `Access` compute function turns an access
//! token into an HTTP request to the auth service; the auth service replies
//! with the list of log-service endpoints the token is authorized to read.

use std::collections::BTreeMap;

use dandelion_common::SharedBytes;
use dandelion_http::{HttpRequest, HttpResponse, Method, StatusCode};
use parking_lot::RwLock;

use crate::latency::LatencyModel;
use crate::registry::{RemoteService, ServiceResponse};

/// Token-to-endpoints authorization service.
///
/// A grant is stored as the reply body it produces (the endpoints joined by
/// newlines), so authorizing a token is a lookup and a reference count.
pub struct AuthService {
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
            .insert(token.to_string(), endpoints.join("\n").into_bytes().into());
    }

    fn authorize(&self, token: &str) -> Option<SharedBytes> {
        self.tokens.read().get(token).cloned()
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
        self.tokens.read().values().map(SharedBytes::len).sum()
    }

    fn handle(&self, request: &HttpRequest) -> ServiceResponse {
        let payload = request.body.len();
        let make = |response: HttpResponse, extra: usize| ServiceResponse {
            latency: self.latency.latency_for(payload + extra),
            response,
        };
        if request.method != Method::Post && request.method != Method::Get {
            return make(
                HttpResponse::error(StatusCode::BAD_REQUEST, "auth accepts GET or POST only"),
                0,
            );
        }
        // The token is either the request body or a `token=` query parameter.
        let token = if !request.body.is_empty() {
            request.body_str().trim().to_string()
        } else {
            request
                .target
                .split_once("token=")
                .map(|(_, token)| token.trim().to_string())
                .unwrap_or_default()
        };
        if token.is_empty() {
            return make(
                HttpResponse::error(StatusCode::BAD_REQUEST, "missing access token"),
                0,
            );
        }
        match self.authorize(&token) {
            Some(body) => {
                let bytes = body.len();
                make(HttpResponse::ok(body), bytes)
            }
            None => make(
                HttpResponse::error(StatusCode::UNAUTHORIZED, "unknown access token"),
                0,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let reply = auth.handle(&request);
        assert_eq!(reply.response.status, StatusCode::OK);
        let body = reply.response.body_text();
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
        let first = auth.handle(&request).response;
        let second = auth.handle(&request).response;
        assert_eq!(first.body.as_slice(), endpoints.join("\n").as_bytes());
        assert!(SharedBytes::same_buffer(&first.body, &second.body));
    }

    #[test]
    fn token_via_query_parameter() {
        let auth = service();
        let request = HttpRequest::get("http://auth.internal/authorize?token=token-alpha");
        assert_eq!(auth.handle(&request).response.status, StatusCode::OK);
    }

    #[test]
    fn unknown_token_is_unauthorized() {
        let auth = service();
        let request = HttpRequest::post("http://auth.internal/authorize", b"wrong".to_vec());
        assert_eq!(
            auth.handle(&request).response.status,
            StatusCode::UNAUTHORIZED
        );
    }

    #[test]
    fn missing_token_and_bad_method_are_rejected() {
        let auth = service();
        let request = HttpRequest::post("http://auth.internal/authorize", Vec::new());
        assert_eq!(
            auth.handle(&request).response.status,
            StatusCode::BAD_REQUEST
        );
        let request = HttpRequest::new(Method::Delete, "http://auth.internal/authorize");
        assert_eq!(
            auth.handle(&request).response.status,
            StatusCode::BAD_REQUEST
        );
    }
}
