//! Request sanitization applied by communication engines.
//!
//! Communication engines are trusted platform code executing requests
//! *authored by untrusted compute functions* (paper §6.3). Before performing
//! a request, the engine validates only what the protocol requires it to rely
//! on: the request line (method + version) and the host part of the URI. The
//! rest of the request (path, query, headers, body) is treated as opaque data
//! forwarded to the remote service.

use dandelion_common::{DandelionError, DandelionResult, SharedBytes};

use crate::parse::{parse_request, parse_request_shared};
use crate::types::{HttpRequest, Method};
use crate::uri::Uri;

/// Policy describing what a communication engine accepts.
#[derive(Debug, Clone)]
pub struct ValidationPolicy {
    /// Methods the engine will execute.
    pub allowed_methods: Vec<Method>,
    /// If non-empty, only these hosts may be contacted (exact match).
    pub allowed_hosts: Vec<String>,
    /// Maximum request body size the engine will forward.
    pub max_body_bytes: usize,
    /// Whether origin-form targets (no host) are accepted.
    pub allow_origin_form: bool,
}

impl Default for ValidationPolicy {
    fn default() -> Self {
        Self {
            allowed_methods: Method::DEFAULT_WHITELIST.to_vec(),
            allowed_hosts: Vec::new(),
            max_body_bytes: 32 * 1024 * 1024,
            allow_origin_form: false,
        }
    }
}

/// A request that passed validation, together with its parsed URI.
#[derive(Debug, Clone)]
pub struct ValidatedRequest {
    /// The parsed request.
    pub request: HttpRequest,
    /// The parsed and host-validated URI.
    pub uri: Uri,
}

/// Validates raw request bytes produced by an untrusted compute function.
///
/// On success returns the parsed request and URI; on failure returns an
/// [`DandelionError::InvalidRequest`] describing the first problem found.
pub fn validate_request_bytes(
    raw: &[u8],
    policy: &ValidationPolicy,
) -> DandelionResult<ValidatedRequest> {
    let request = parse_request(raw)
        .map_err(|err| DandelionError::InvalidRequest(format!("malformed request: {err}")))?;
    validate_request(request, policy)
}

/// Validates a request held in a [`SharedBytes`] buffer (the bytes of a
/// data-plane item); on success the validated request's body is a zero-copy
/// view of that buffer. This is the communication engine's hot path.
pub fn validate_request_shared(
    raw: &SharedBytes,
    policy: &ValidationPolicy,
) -> DandelionResult<ValidatedRequest> {
    let request = parse_request_shared(raw)
        .map_err(|err| DandelionError::InvalidRequest(format!("malformed request: {err}")))?;
    validate_request(request, policy)
}

/// Validates an already parsed request against the policy.
fn validate_request(
    request: HttpRequest,
    policy: &ValidationPolicy,
) -> DandelionResult<ValidatedRequest> {
    if !policy.allowed_methods.contains(&request.method) {
        return Err(DandelionError::InvalidRequest(format!(
            "method {} is not allowed",
            request.method
        )));
    }
    if request.body.len() > policy.max_body_bytes {
        return Err(DandelionError::InvalidRequest(format!(
            "body of {} bytes exceeds the {}-byte limit",
            request.body.len(),
            policy.max_body_bytes
        )));
    }
    let uri = Uri::parse(&request.target).ok_or_else(|| {
        DandelionError::InvalidRequest(format!("target `{}` is not a valid URI", request.target))
    })?;
    if uri.is_origin_form() {
        if !policy.allow_origin_form {
            return Err(DandelionError::InvalidRequest(
                "origin-form targets are not allowed; requests must name a host".to_string(),
            ));
        }
    } else {
        if !uri.host_is_ipv4() && !uri.host_is_domain() {
            return Err(DandelionError::InvalidRequest(format!(
                "host `{}` is neither a valid IP address nor a valid domain name",
                uri.host
            )));
        }
        if !policy.allowed_hosts.is_empty()
            && !policy
                .allowed_hosts
                .iter()
                .any(|allowed| allowed == &uri.host)
        {
            return Err(DandelionError::InvalidRequest(format!(
                "host `{}` is not in the allow-list",
                uri.host
            )));
        }
    }
    Ok(ValidatedRequest { request, uri })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::HttpRequest;

    fn policy() -> ValidationPolicy {
        ValidationPolicy::default()
    }

    #[test]
    fn accepts_well_formed_get() {
        let request = HttpRequest::get("http://logs.svc.internal/api/lines");
        let validated = validate_request(request, &policy()).unwrap();
        assert_eq!(validated.uri.host, "logs.svc.internal");
    }

    #[test]
    fn accepts_ip_hosts() {
        let request = HttpRequest::get("http://10.1.2.3:8080/objects/a");
        let validated = validate_request(request, &policy()).unwrap();
        assert!(validated.uri.host_is_ipv4());
        assert_eq!(validated.uri.port_or_default(), 8080);
    }

    #[test]
    fn rejects_disallowed_method() {
        let request = HttpRequest::new(Method::Head, "http://svc/x");
        let err = validate_request(request, &policy()).unwrap_err();
        assert!(err.to_string().contains("HEAD"));
    }

    #[test]
    fn rejects_invalid_host() {
        let request = HttpRequest::get("http://999.999.999.999/x");
        assert!(validate_request(request, &policy()).is_err());
        let request = HttpRequest::get("http://bad_host!/x");
        assert!(validate_request(request, &policy()).is_err());
    }

    #[test]
    fn rejects_origin_form_by_default() {
        let request = HttpRequest::get("/local/path");
        assert!(validate_request(request, &policy()).is_err());
        let mut relaxed = policy();
        relaxed.allow_origin_form = true;
        let request = HttpRequest::get("/local/path");
        assert!(validate_request(request, &relaxed).is_ok());
    }

    #[test]
    fn enforces_host_allow_list() {
        let mut restricted = policy();
        restricted.allowed_hosts = vec!["auth.internal".to_string()];
        let ok = HttpRequest::get("http://auth.internal/token");
        assert!(validate_request(ok, &restricted).is_ok());
        let bad = HttpRequest::get("http://evil.example/exfil");
        assert!(validate_request(bad, &restricted).is_err());
    }

    #[test]
    fn enforces_body_limit() {
        let mut small = policy();
        small.max_body_bytes = 4;
        let request = HttpRequest::post("http://svc/x", b"too large".to_vec());
        assert!(validate_request(request, &small).is_err());
    }

    #[test]
    fn validates_raw_bytes() {
        let raw = HttpRequest::get("http://svc.example/x").to_bytes();
        assert!(validate_request_bytes(&raw, &policy()).is_ok());
        assert!(validate_request_bytes(b"garbage\r\n\r\n", &policy()).is_err());
        // A request smuggling attempt with an invalid method never reaches a
        // service.
        assert!(validate_request_bytes(b"EVIL http://svc/x HTTP/1.1\r\n\r\n", &policy()).is_err());
    }
}
