//! URI parsing and host validation.

/// A request target's parts as views of the target text: nothing is
/// copied. A router that only matches the path, and the communication
/// engine that checks the host, read them here and allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UriRef<'a> {
    /// URI scheme (`http` or `https`); empty for origin-form targets.
    pub scheme: &'a str,
    /// Host name or IP address; empty for origin-form targets.
    pub host: &'a str,
    /// Explicit port, if present.
    pub port: Option<u16>,
    /// Path component, always starting with `/`.
    pub path: &'a str,
    /// Query string without the leading `?`, if present.
    pub query: Option<&'a str>,
}

impl<'a> UriRef<'a> {
    /// Parses an absolute URI (`http://host[:port]/path[?query]`) or an
    /// origin-form target (`/path[?query]`).
    pub fn parse(input: &'a str) -> Option<UriRef<'a>> {
        if input.starts_with('/') {
            let (path, query) = split_query(input);
            return Some(UriRef {
                scheme: "",
                host: "",
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
                (host, Some(port_text.parse().ok()?))
            }
            _ => (authority, None),
        };
        let (path, query) = split_query(path_and_query);
        Some(UriRef {
            scheme,
            host,
            port,
            path,
            query,
        })
    }

    /// The path's non-empty segments — `//` and a trailing `/` add none —
    /// in order, as many as `slots` holds: routing matches on the returned
    /// slice and builds no list. `None` when the path has more segments.
    pub fn segments<'s>(&self, slots: &'s mut [&'a str]) -> Option<&'s [&'a str]> {
        let mut count = 0;
        for segment in self.path.split('/').filter(|segment| !segment.is_empty()) {
            *slots.get_mut(count)? = segment;
            count += 1;
        }
        Some(&slots[..count])
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
        is_valid_ipv4(self.host)
    }

    /// Returns `true` if the host is a syntactically valid domain name.
    pub fn host_is_domain(&self) -> bool {
        is_valid_domain(self.host)
    }
}

fn split_query(path_and_query: &str) -> (&str, Option<&str>) {
    match path_and_query.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (path_and_query, None),
    }
}

/// Checks whether `host` is a dotted-quad IPv4 address: four octets of one
/// to three digits, each at most 255, in one pass over the bytes.
fn is_valid_ipv4(host: &str) -> bool {
    let mut dots = 0;
    let mut digits = 0;
    let mut octet = 0u16;
    for &byte in host.as_bytes() {
        match byte {
            b'.' if digits > 0 && dots < 3 => {
                dots += 1;
                digits = 0;
                octet = 0;
            }
            b'0'..=b'9' if digits < 3 => {
                digits += 1;
                octet = octet * 10 + u16::from(byte - b'0');
                if octet > 255 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    dots == 3 && digits > 0
}

/// Checks whether `host` is a syntactically valid DNS name, in one pass
/// over the bytes.
///
/// Each label must be 1-63 characters of `[A-Za-z0-9-]`, not starting or
/// ending with `-`; the full name must be at most 253 characters and contain
/// at least one label. Purely numeric names are rejected (they would be
/// confusable with malformed IP addresses).
fn is_valid_domain(host: &str) -> bool {
    if host.len() > 253 {
        return false;
    }
    // The current label's length, the byte before this one, and whether
    // every label so far is all digits.
    let mut label = 0;
    let mut previous = b'.';
    let mut numeric = true;
    for &byte in host.as_bytes() {
        match byte {
            b'.' if label > 0 && previous != b'-' => label = 0,
            b'-' if label > 0 => {
                label += 1;
                numeric = false;
            }
            b'0'..=b'9' => label += 1,
            _ if byte.is_ascii_alphabetic() => {
                label += 1;
                numeric = false;
            }
            _ => return false,
        }
        if label > 63 {
            return false;
        }
        previous = byte;
    }
    label > 0 && previous != b'-' && !numeric
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_absolute_uris() {
        let uri = UriRef::parse("http://storage.internal:9000/bucket/key?versionId=3").unwrap();
        assert_eq!(uri.scheme, "http");
        assert_eq!(uri.host, "storage.internal");
        assert_eq!(uri.port, Some(9000));
        assert_eq!(uri.path, "/bucket/key");
        assert_eq!(uri.query, Some("versionId=3"));
        assert_eq!(uri.port_or_default(), 9000);
    }

    #[test]
    fn parses_uri_without_path() {
        let uri = UriRef::parse("https://auth.example.com").unwrap();
        assert_eq!(uri.path, "/");
        assert_eq!(uri.port_or_default(), 443);
        assert!(!uri.is_origin_form());
    }

    #[test]
    fn parses_origin_form() {
        let uri = UriRef::parse("/v1/query?db=ssb").unwrap();
        assert!(uri.is_origin_form());
        assert_eq!(uri.path, "/v1/query");
        assert_eq!(uri.query, Some("db=ssb"));
        assert_eq!(uri.port_or_default(), 80);
    }

    #[test]
    fn rejects_unsupported_schemes_and_empty() {
        assert!(UriRef::parse("ftp://example.com/file").is_none());
        assert!(UriRef::parse("").is_none());
        assert!(UriRef::parse("http://").is_none());
        assert!(UriRef::parse("not a uri").is_none());
        assert!(UriRef::parse("http://host:notaport/x").is_none());
    }

    #[test]
    fn ipv4_validation() {
        assert!(is_valid_ipv4("10.0.0.1"));
        assert!(is_valid_ipv4("255.255.255.255"));
        assert!(is_valid_ipv4("001.02.3.000"));
        assert!(!is_valid_ipv4("256.0.0.1"));
        assert!(!is_valid_ipv4("10.0.0.256"));
        assert!(!is_valid_ipv4("10.0.0"));
        assert!(!is_valid_ipv4("10.0.0.0.1"));
        assert!(!is_valid_ipv4("10.0.0."));
        assert!(!is_valid_ipv4(".10.0.0"));
        assert!(!is_valid_ipv4("10..0.0"));
        assert!(!is_valid_ipv4("a.b.c.d"));
        assert!(!is_valid_ipv4("01.0.0.1234"));
        assert!(!is_valid_ipv4("0001.0.0.1"));
        assert!(!is_valid_ipv4(""));
    }

    #[test]
    fn domain_validation() {
        assert!(is_valid_domain("example.com"));
        assert!(is_valid_domain("storage-internal"));
        assert!(is_valid_domain("a.b.c.d.e.example"));
        assert!(is_valid_domain("10.0.0.x"));
        assert!(is_valid_domain("a-1.2b"));
        assert!(!is_valid_domain(""));
        assert!(!is_valid_domain("-bad.example"));
        assert!(!is_valid_domain("bad-.example"));
        assert!(!is_valid_domain("bad.example-"));
        assert!(!is_valid_domain("exa mple.com"));
        assert!(!is_valid_domain("double..dot"));
        assert!(!is_valid_domain(".leading"));
        assert!(!is_valid_domain("trailing."));
        assert!(!is_valid_domain("300.300.300.300"));
        assert!(!is_valid_domain("gr\u{fc}ezi.ch"));
        assert!(!is_valid_domain(&"a".repeat(300)));
        // A label is at most 63 bytes, a name at most 253.
        let label = |length| "a".repeat(length);
        assert!(is_valid_domain(&format!("{}.example", label(63))));
        assert!(!is_valid_domain(&format!("{}.example", label(64))));
        assert!(!is_valid_domain(&format!("x.{}", label(64))));
        let name = [label(63), label(63), label(63), label(61)].join(".");
        assert_eq!(name.len(), 253);
        assert!(is_valid_domain(&name));
        assert!(!is_valid_domain(&format!("{name}a")));
    }

    #[test]
    fn host_classification_helpers() {
        let ip = UriRef::parse("http://192.168.1.10/metrics").unwrap();
        assert!(ip.host_is_ipv4());
        assert!(!ip.host_is_domain());
        let dns = UriRef::parse("http://logs.svc.cluster.local/api").unwrap();
        assert!(dns.host_is_domain());
        assert!(!dns.host_is_ipv4());
    }
}
