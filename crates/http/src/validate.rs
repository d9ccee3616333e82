//! Request sanitization applied by communication engines.
//!
//! Communication engines are trusted platform code executing requests
//! *authored by untrusted compute functions* (paper §6.3). Before performing
//! a request, the engine validates only what the protocol requires it to rely
//! on: the request line (method + version) and the host part of the URI. The
//! rest of the request (path, query, headers, body) is treated as opaque data
//! forwarded to the remote service.
//!
//! The request is validated where it lies: one head scan of the item's
//! bytes ([`parse_request_frame`]) gives the method, the target and a view
//! of the body, and the target's parts are views of it too
//! ([`UriRef`]). Nothing is copied and no header map is built; the
//! [`ValidatedRequest`] borrows the bytes until the service has answered.

use dandelion_common::{utf8_lossy, DandelionError, DandelionResult, SharedBytes};

use crate::parse::parse_request_frame;
use crate::types::{Method, RequestRef};
use crate::uri::UriRef;

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

/// A request that passed validation, borrowed from the bytes it was read
/// from, together with its target's parts.
#[derive(Debug, Clone)]
pub struct ValidatedRequest<'a> {
    /// The method, the target and a view of the body.
    pub request: RequestRef<'a>,
    /// The target's parts, its host validated.
    pub uri: UriRef<'a>,
}

fn invalid(message: String) -> DandelionError {
    DandelionError::InvalidRequest(message)
}

/// Validates the request a compute function wrote into a data item, where
/// it lies: the returned request's target and URI are views of `raw` and
/// its body a view of `raw`'s buffer. This is the communication engine's
/// hot path.
///
/// On failure returns an [`DandelionError::InvalidRequest`] describing the
/// first problem found, in this order: the message does not parse, the
/// method is not allowed, the body is over the limit, the target is not a
/// URI (a target that is not UTF-8 is not: a request-target is ASCII by its
/// grammar), the target names no host and the policy wants one, the host is
/// neither an IPv4 address nor a domain name, or it is not on the
/// allow-list.
pub fn validate_request_shared<'a>(
    raw: &'a SharedBytes,
    policy: &ValidationPolicy,
) -> DandelionResult<ValidatedRequest<'a>> {
    let frame =
        parse_request_frame(raw).map_err(|err| invalid(format!("malformed request: {err}")))?;
    let method = frame.method();
    if !policy.allowed_methods.contains(&method) {
        return Err(invalid(format!("method {method} is not allowed")));
    }
    if frame.body_len() > policy.max_body_bytes {
        return Err(invalid(format!(
            "body of {} bytes exceeds the {}-byte limit",
            frame.body_len(),
            policy.max_body_bytes
        )));
    }
    // The frame starts where `raw` does, so its target is borrowed from
    // `raw` for as long as the caller holds it.
    let target = &raw[frame.head.start.target.range()];
    let Some((target, uri)) = std::str::from_utf8(target)
        .ok()
        .and_then(|target| Some((target, UriRef::parse(target)?)))
    else {
        return Err(invalid(format!(
            "target `{}` is not a valid URI",
            utf8_lossy(target)
        )));
    };
    if uri.is_origin_form() {
        if !policy.allow_origin_form {
            return Err(invalid(
                "origin-form targets are not allowed; requests must name a host".to_string(),
            ));
        }
    } else {
        if !uri.host_is_ipv4() && !uri.host_is_domain() {
            return Err(invalid(format!(
                "host `{}` is neither a valid IP address nor a valid domain name",
                uri.host
            )));
        }
        if !policy.allowed_hosts.is_empty()
            && !policy
                .allowed_hosts
                .iter()
                .any(|allowed| allowed == uri.host)
        {
            return Err(invalid(format!(
                "host `{}` is not in the allow-list",
                uri.host
            )));
        }
    }
    Ok(ValidatedRequest {
        request: RequestRef {
            method,
            target,
            body: frame.body(),
        },
        uri,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::HttpRequest;

    fn policy() -> ValidationPolicy {
        ValidationPolicy::default()
    }

    fn wire(request: HttpRequest) -> SharedBytes {
        SharedBytes::from_vec(request.to_bytes())
    }

    fn validate(request: HttpRequest, policy: &ValidationPolicy) -> DandelionResult<()> {
        validate_request_shared(&wire(request), policy).map(drop)
    }

    #[test]
    fn accepts_well_formed_get() {
        let raw = wire(HttpRequest::get("http://logs.svc.internal/api/lines"));
        let validated = validate_request_shared(&raw, &policy()).unwrap();
        assert_eq!(validated.uri.host, "logs.svc.internal");
        assert_eq!(validated.request.method, Method::Get);
        assert_eq!(
            validated.request.target,
            "http://logs.svc.internal/api/lines"
        );
        assert!(validated.request.body.is_empty());
    }

    #[test]
    fn the_validated_request_is_read_in_place() {
        let raw = wire(
            HttpRequest::post("http://db.internal/query", b"SELECT 1".to_vec())
                .with_header("Content-Type", "application/sql"),
        );
        let validated = validate_request_shared(&raw, &policy()).unwrap();
        let target = validated.request.target.as_bytes().as_ptr_range();
        assert!(raw.as_slice().as_ptr_range().contains(&target.start));
        assert_eq!(validated.uri.path, "/query");
        assert_eq!(validated.request.body, b"SELECT 1");
        assert!(SharedBytes::same_buffer(&validated.request.body, &raw));
        assert_eq!(validated.request.body_str(), "SELECT 1");
    }

    #[test]
    fn accepts_ip_hosts() {
        let raw = wire(HttpRequest::get("http://10.1.2.3:8080/objects/a"));
        let validated = validate_request_shared(&raw, &policy()).unwrap();
        assert!(validated.uri.host_is_ipv4());
        assert_eq!(validated.uri.port_or_default(), 8080);
    }

    #[test]
    fn rejects_disallowed_method() {
        let request = HttpRequest::new(Method::Head, "http://svc/x");
        let err = validate(request, &policy()).unwrap_err();
        assert!(err.to_string().contains("HEAD"));
    }

    #[test]
    fn rejects_invalid_host() {
        assert!(validate(HttpRequest::get("http://999.999.999.999/x"), &policy()).is_err());
        assert!(validate(HttpRequest::get("http://bad_host!/x"), &policy()).is_err());
    }

    #[test]
    fn rejects_origin_form_by_default() {
        assert!(validate(HttpRequest::get("/local/path"), &policy()).is_err());
        let mut relaxed = policy();
        relaxed.allow_origin_form = true;
        assert!(validate(HttpRequest::get("/local/path"), &relaxed).is_ok());
    }

    #[test]
    fn enforces_host_allow_list() {
        let mut restricted = policy();
        restricted.allowed_hosts = vec!["auth.internal".to_string()];
        let ok = HttpRequest::get("http://auth.internal/token");
        assert!(validate(ok, &restricted).is_ok());
        let bad = HttpRequest::get("http://evil.example/exfil");
        assert!(validate(bad, &restricted).is_err());
    }

    #[test]
    fn enforces_body_limit() {
        let mut small = policy();
        small.max_body_bytes = 4;
        let request = HttpRequest::post("http://svc/x", b"too large".to_vec());
        assert!(validate(request, &small).is_err());
        let request = HttpRequest::post("http://svc/x", b"fits".to_vec());
        assert!(validate(request, &small).is_ok());
    }

    #[test]
    fn validates_raw_bytes() {
        let raw = |bytes: &[u8]| SharedBytes::from_vec(bytes.to_vec());
        assert!(validate_request_shared(&raw(b"garbage\r\n\r\n"), &policy()).is_err());
        // A request smuggling attempt with an invalid method never reaches a
        // service.
        let evil = raw(b"EVIL http://svc/x HTTP/1.1\r\n\r\n");
        assert!(validate_request_shared(&evil, &policy()).is_err());
    }

    #[test]
    fn refuses_a_target_that_is_not_utf8() {
        // Read lossily, `a\xffb` and `a\xfeb` would both be `a\u{FFFD}b`: two
        // objects would be one.
        for target in [&b"a\xffb"[..], b"a\xfeb"] {
            let mut raw = b"PUT http://s3.internal/bucket/".to_vec();
            raw.extend_from_slice(target);
            raw.extend_from_slice(b" HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirst");
            let err = validate_request_shared(&SharedBytes::from_vec(raw), &policy()).unwrap_err();
            assert!(matches!(err, DandelionError::InvalidRequest(_)), "{err}");
            assert!(
                err.to_string()
                    .contains("target `http://s3.internal/bucket/a\u{FFFD}b` is not a valid URI"),
                "{err}"
            );
        }
    }
}
