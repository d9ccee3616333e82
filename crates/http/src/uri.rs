//! URI parsing and host validation.

use std::fmt;

/// A parsed absolute or origin-form URI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uri {
    /// URI scheme (`http` or `https`); empty for origin-form targets.
    pub scheme: String,
    /// Host name or IP address; empty for origin-form targets.
    pub host: String,
    /// Explicit port, if present.
    pub port: Option<u16>,
    /// Path component, always starting with `/`.
    pub path: String,
    /// Query string without the leading `?`, if present.
    pub query: Option<String>,
}

impl Uri {
    /// Parses an absolute URI (`http://host[:port]/path[?query]`) or an
    /// origin-form target (`/path[?query]`).
    pub fn parse(input: &str) -> Option<Uri> {
        if input.is_empty() {
            return None;
        }
        if let Some(rest) = input.strip_prefix('/') {
            let (path, query) = split_query(&format!("/{rest}"));
            return Some(Uri {
                scheme: String::new(),
                host: String::new(),
                port: None,
                path,
                query,
            });
        }
        let (scheme, rest) = input.split_once("://")?;
        if scheme != "http" && scheme != "https" {
            return None;
        }
        let (authority, path_and_query) = match rest.find('/') {
            Some(index) => (&rest[..index], &rest[index..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return None;
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((host, port_text)) if !port_text.is_empty() && !host.is_empty() => {
                let port: u16 = port_text.parse().ok()?;
                (host.to_string(), Some(port))
            }
            _ => (authority.to_string(), None),
        };
        let (path, query) = split_query(path_and_query);
        Some(Uri {
            scheme: scheme.to_string(),
            host,
            port,
            path,
            query,
        })
    }

    /// Returns the port, defaulting to 80 for `http` and 443 for `https`.
    pub fn port_or_default(&self) -> u16 {
        self.port
            .unwrap_or(if self.scheme == "https" { 443 } else { 80 })
    }

    /// Returns `true` if the target is origin-form (no scheme/host).
    pub fn is_origin_form(&self) -> bool {
        self.host.is_empty()
    }

    /// Returns `true` if the host is a syntactically valid IPv4 address.
    pub fn host_is_ipv4(&self) -> bool {
        is_valid_ipv4(&self.host)
    }

    /// Returns `true` if the host is a syntactically valid domain name.
    pub fn host_is_domain(&self) -> bool {
        is_valid_domain(&self.host)
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_origin_form() {
            write!(f, "{}://{}", self.scheme, self.host)?;
            if let Some(port) = self.port {
                write!(f, ":{port}")?;
            }
        }
        f.write_str(&self.path)?;
        if let Some(query) = &self.query {
            write!(f, "?{query}")?;
        }
        Ok(())
    }
}

fn split_query(path_and_query: &str) -> (String, Option<String>) {
    match path_and_query.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (path_and_query.to_string(), None),
    }
}

/// Checks whether `host` is a dotted-quad IPv4 address.
pub(crate) fn is_valid_ipv4(host: &str) -> bool {
    let octets: Vec<&str> = host.split('.').collect();
    if octets.len() != 4 {
        return false;
    }
    octets.iter().all(|octet| {
        !octet.is_empty()
            && octet.len() <= 3
            && octet.chars().all(|c| c.is_ascii_digit())
            && octet.parse::<u16>().map(|v| v <= 255).unwrap_or(false)
    })
}

/// Checks whether `host` is a syntactically valid DNS name.
///
/// Each label must be 1-63 characters of `[A-Za-z0-9-]`, not starting or
/// ending with `-`; the full name must be at most 253 characters and contain
/// at least one label. Purely numeric names are rejected (they would be
/// confusable with malformed IP addresses).
pub(crate) fn is_valid_domain(host: &str) -> bool {
    if host.is_empty() || host.len() > 253 {
        return false;
    }
    let labels: Vec<&str> = host.split('.').collect();
    if labels.iter().any(|label| label.is_empty()) {
        return false;
    }
    let all_labels_valid = labels.iter().all(|label| {
        label.len() <= 63
            && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')
            && !label.starts_with('-')
            && !label.ends_with('-')
    });
    if !all_labels_valid {
        return false;
    }
    // Reject names where every label is numeric (e.g. "300.300.300.300").
    !labels
        .iter()
        .all(|label| label.chars().all(|c| c.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_absolute_uris() {
        let uri = Uri::parse("http://storage.internal:9000/bucket/key?versionId=3").unwrap();
        assert_eq!(uri.scheme, "http");
        assert_eq!(uri.host, "storage.internal");
        assert_eq!(uri.port, Some(9000));
        assert_eq!(uri.path, "/bucket/key");
        assert_eq!(uri.query.as_deref(), Some("versionId=3"));
        assert_eq!(uri.port_or_default(), 9000);
        assert_eq!(
            uri.to_string(),
            "http://storage.internal:9000/bucket/key?versionId=3"
        );
    }

    #[test]
    fn parses_uri_without_path() {
        let uri = Uri::parse("https://auth.example.com").unwrap();
        assert_eq!(uri.path, "/");
        assert_eq!(uri.port_or_default(), 443);
        assert!(!uri.is_origin_form());
    }

    #[test]
    fn parses_origin_form() {
        let uri = Uri::parse("/v1/query?db=ssb").unwrap();
        assert!(uri.is_origin_form());
        assert_eq!(uri.path, "/v1/query");
        assert_eq!(uri.query.as_deref(), Some("db=ssb"));
        assert_eq!(uri.to_string(), "/v1/query?db=ssb");
    }

    #[test]
    fn rejects_unsupported_schemes_and_empty() {
        assert!(Uri::parse("ftp://example.com/file").is_none());
        assert!(Uri::parse("").is_none());
        assert!(Uri::parse("http://").is_none());
        assert!(Uri::parse("not a uri").is_none());
        assert!(Uri::parse("http://host:notaport/x").is_none());
    }

    #[test]
    fn ipv4_validation() {
        assert!(is_valid_ipv4("10.0.0.1"));
        assert!(is_valid_ipv4("255.255.255.255"));
        assert!(!is_valid_ipv4("256.0.0.1"));
        assert!(!is_valid_ipv4("10.0.0"));
        assert!(!is_valid_ipv4("10.0.0.0.1"));
        assert!(!is_valid_ipv4("a.b.c.d"));
        assert!(!is_valid_ipv4("01.0.0.1234"));
    }

    #[test]
    fn domain_validation() {
        assert!(is_valid_domain("example.com"));
        assert!(is_valid_domain("storage-internal"));
        assert!(is_valid_domain("a.b.c.d.e.example"));
        assert!(!is_valid_domain(""));
        assert!(!is_valid_domain("-bad.example"));
        assert!(!is_valid_domain("bad-.example"));
        assert!(!is_valid_domain("exa mple.com"));
        assert!(!is_valid_domain("double..dot"));
        assert!(!is_valid_domain("300.300.300.300"));
        assert!(!is_valid_domain(&"a".repeat(300)));
    }

    #[test]
    fn host_classification_helpers() {
        let ip = Uri::parse("http://192.168.1.10/metrics").unwrap();
        assert!(ip.host_is_ipv4());
        assert!(!ip.host_is_domain());
        let dns = Uri::parse("http://logs.svc.cluster.local/api").unwrap();
        assert!(dns.host_is_domain());
        assert!(!dns.host_is_ipv4());
    }
}
