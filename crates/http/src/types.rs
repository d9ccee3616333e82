//! HTTP request, response, header and status types.
//!
//! Message bodies are [`SharedBytes`] views: parsing a received message
//! yields a body that references the receive buffer, and moving a body into
//! a data item or another message never copies the payload.

use std::borrow::Cow;
use std::fmt;

use dandelion_common::encoding::utf8_lossy;
use dandelion_common::{Rope, SharedBytes, SharedBytesMut};

/// Parses a `Content-Length` field value: `1*DIGIT` (RFC 9110 §8.6) with
/// optional surrounding whitespace, nothing else — no sign, no radix prefix,
/// no inner space — and no value that overflows `usize`.
///
/// Every reader of the header goes through here (the head scan that frames
/// streams and one-shot parses alike, [`Headers::content_length`]), so they
/// cannot disagree on where a body ends.
pub(crate) fn parse_content_length(value: &[u8]) -> Option<usize> {
    let digits = value.trim_ascii();
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |length, &byte| {
        let digit = byte.is_ascii_digit().then(|| usize::from(byte - b'0'))?;
        length.checked_mul(10)?.checked_add(digit)
    })
}

/// Number of decimal digits in `value` (at least 1).
fn decimal_len(mut value: usize) -> usize {
    let mut digits = 1;
    while value >= 10 {
        value /= 10;
        digits += 1;
    }
    digits
}

/// Exact wire length of the `Content-Length` header line.
fn content_length_line_len(body_len: usize) -> usize {
    "Content-Length: ".len() + decimal_len(body_len) + 2
}

/// Exact wire length of the header block (every `name: value\r\n` line).
fn header_lines_len(headers: &Headers) -> usize {
    headers
        .iter()
        .map(|(name, value)| name.len() + 2 + value.len() + 2)
        .sum()
}

/// Writes the header block into a head builder.
fn put_header_lines(head: &mut SharedBytesMut, headers: &Headers) {
    for (name, value) in headers.iter() {
        head.put_str(name);
        head.put_str(": ");
        head.put_str(value);
        head.put_str("\r\n");
    }
}

/// Writes a `Content-Length` line into a head builder.
fn put_content_length_line(head: &mut SharedBytesMut, body_len: usize) {
    head.put_str("Content-Length: ");
    head.put_decimal(body_len);
    head.put_str("\r\n");
}

/// The HTTP methods Dandelion's communication function supports.
///
/// The paper restricts the HTTP function to GET/PUT/POST/DELETE (§4.1);
/// `Head` is additionally accepted since some object stores use it for
/// existence checks, but it is not part of the default whitelist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve a resource.
    Get,
    /// Replace or create a resource.
    Put,
    /// Submit data to a resource.
    Post,
    /// Delete a resource.
    Delete,
    /// Retrieve headers only.
    Head,
}

impl Method {
    /// Parses a method token (case-sensitive, as required by RFC 9110).
    pub fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "PUT" => Some(Method::Put),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }

    /// The canonical token for the method.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Put => "PUT",
            Method::Post => "POST",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }

    /// Methods allowed for untrusted requests by default (paper §4.1).
    pub const DEFAULT_WHITELIST: [Method; 4] =
        [Method::Get, Method::Put, Method::Post, Method::Delete];
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Supported protocol versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// HTTP/1.0
    Http10,
    /// HTTP/1.1
    Http11,
}

impl Version {
    /// Parses a version token such as `HTTP/1.1`.
    pub fn parse(token: &str) -> Option<Version> {
        match token {
            "HTTP/1.0" => Some(Version::Http10),
            "HTTP/1.1" => Some(Version::Http11),
            _ => None,
        }
    }

    /// The canonical token for the version.
    pub fn as_str(&self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP status code with its reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 201 Created
    pub const CREATED: StatusCode = StatusCode(201);
    /// 202 Accepted
    pub const ACCEPTED: StatusCode = StatusCode(202);
    /// 204 No Content
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 400 Bad Request
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 401 Unauthorized
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 403 Forbidden
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 408 Request Timeout
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 429 Too Many Requests
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 500 Internal Server Error
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Returns `true` for 2xx codes.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Returns `true` for 4xx codes.
    pub fn is_client_error(&self) -> bool {
        (400..500).contains(&self.0)
    }

    /// Returns `true` for 5xx codes.
    pub fn is_server_error(&self) -> bool {
        (500..600).contains(&self.0)
    }

    /// The standard reason phrase for this code.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            499 => "Client Closed Request",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered, case-insensitive multimap of HTTP headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a header, preserving insertion order.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Returns the first value of a header, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
    }

    /// Removes every value of a header, case-insensitively. Returns `true`
    /// when at least one entry was removed. Proxies use this to strip
    /// hop-by-hop headers (`Connection`, `Content-Length`) before a message
    /// is re-framed for the next hop.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries
            .retain(|(key, _)| !key.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    /// Returns all values of a header, case-insensitively.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(key, _)| key.eq_ignore_ascii_case(name))
            .map(|(_, value)| value.as_str())
            .collect()
    }

    /// Whether `token` is a member of the comma-separated list a header's
    /// values form, names and members compared case-insensitively and
    /// whitespace around a member ignored (RFC 9110 §5.6.1; several lines of
    /// one header are one list, §5.3): `Connection: keep-alive, Close` has
    /// the token `close`.
    pub fn has_token(&self, name: &str, token: &str) -> bool {
        self.entries
            .iter()
            .filter(|(key, _)| key.eq_ignore_ascii_case(name))
            .flat_map(|(_, value)| value.split(','))
            .any(|member| member.trim().eq_ignore_ascii_case(token))
    }

    /// Number of header entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when there are no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .map(|(name, value)| (name.as_str(), value.as_str()))
    }

    /// Parses the `Content-Length` header if present and well-formed.
    pub fn content_length(&self) -> Option<usize> {
        parse_content_length(self.get("content-length")?.as_bytes())
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Request target, either absolute (`http://host/path`) or origin form
    /// (`/path`).
    pub target: String,
    /// Protocol version.
    pub version: Version,
    /// Header fields.
    pub headers: Headers,
    /// Message body (a zero-copy view).
    pub body: SharedBytes,
}

impl HttpRequest {
    /// Creates a GET request for an absolute URI.
    pub fn get(target: impl Into<String>) -> Self {
        Self::new(Method::Get, target)
    }

    /// Creates a POST request with a body.
    pub fn post(target: impl Into<String>, body: impl Into<SharedBytes>) -> Self {
        let mut request = Self::new(Method::Post, target);
        request.body = body.into();
        request
    }

    /// Creates a PUT request with a body.
    pub fn put(target: impl Into<String>, body: impl Into<SharedBytes>) -> Self {
        let mut request = Self::new(Method::Put, target);
        request.body = body.into();
        request
    }

    /// Creates a request with an empty body.
    pub fn new(method: Method, target: impl Into<String>) -> Self {
        Self {
            method,
            target: target.into(),
            version: Version::Http11,
            headers: Headers::new(),
            body: SharedBytes::new(),
        }
    }

    /// Adds a header and returns `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// The body as text (lossy): a borrow of the body's buffer when it is
    /// valid UTF-8, a repaired copy only when it is not.
    pub fn body_str(&self) -> Cow<'_, str> {
        utf8_lossy(&self.body)
    }

    /// Exact wire length of the request head (everything before the body).
    fn head_len(&self) -> usize {
        let mut len = self.method.as_str().len() + 1 + self.target.len() + 1;
        len += self.version.as_str().len() + 2;
        len += header_lines_len(&self.headers);
        if !self.body.is_empty() && self.headers.content_length().is_none() {
            len += content_length_line_len(self.body.len());
        }
        len + 2
    }

    /// Serializes the request as a [`Rope`]: the head is built once into a
    /// pooled, exactly sized buffer and the body attaches by reference.
    ///
    /// This is the allocation-free serialization path — delivery walks the
    /// rope segments ([`Rope::write_to`] is vectored), so the body is never
    /// flattened behind the head. `Content-Length` is added when a body is
    /// present and the header is missing.
    pub fn to_rope(&self) -> Rope {
        let mut head = SharedBytesMut::with_capacity(self.head_len());
        head.put_str(self.method.as_str());
        head.put_u8(b' ');
        head.put_str(&self.target);
        head.put_u8(b' ');
        head.put_str(self.version.as_str());
        head.put_str("\r\n");
        put_header_lines(&mut head, &self.headers);
        if !self.body.is_empty() && self.headers.content_length().is_none() {
            put_content_length_line(&mut head, self.body.len());
        }
        head.put_str("\r\n");
        debug_assert_eq!(head.len(), self.head_len());
        let mut rope = Rope::new();
        rope.push_builder(head);
        rope.push(self.body.clone());
        rope
    }

    /// Serializes the request into one contiguous zero-copy view
    /// (one copy into a pooled buffer; none when the body is empty).
    pub fn to_shared(&self) -> SharedBytes {
        self.to_rope().into_shared()
    }

    /// Serializes the request to wire format, adding `Content-Length` when a
    /// body is present and the header is missing.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_rope().to_vec()
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Protocol version.
    pub version: Version,
    /// Status code.
    pub status: StatusCode,
    /// Header fields.
    pub headers: Headers,
    /// Message body (a zero-copy view).
    pub body: SharedBytes,
}

impl HttpResponse {
    /// Creates a response with the given status and body.
    pub fn new(status: StatusCode, body: impl Into<SharedBytes>) -> Self {
        Self {
            version: Version::Http11,
            status,
            headers: Headers::new(),
            body: body.into(),
        }
    }

    /// Creates a `200 OK` response.
    pub fn ok(body: impl Into<SharedBytes>) -> Self {
        Self::new(StatusCode::OK, body)
    }

    /// Creates an error response whose body is the reason text.
    pub fn error(status: StatusCode, message: &str) -> Self {
        Self::new(status, message.as_bytes().to_vec())
    }

    /// Adds a header and returns `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// The body as text (lossy): a borrow of the body's buffer when it is
    /// valid UTF-8, a repaired copy only when it is not. Callers that only
    /// read the text use this.
    pub fn body_str(&self) -> Cow<'_, str> {
        utf8_lossy(&self.body)
    }

    /// The body as owned text (lossy); [`HttpResponse::body_str`] without
    /// the copy is enough for callers that only read it.
    pub fn body_text(&self) -> String {
        self.body_str().into_owned()
    }

    /// Exact wire length of the response head (everything before the body).
    fn head_len(&self) -> usize {
        let mut len = self.version.as_str().len() + 1 + decimal_len(self.status.0 as usize) + 1;
        len += self.status.reason().len() + 2;
        len += header_lines_len(&self.headers);
        if self.headers.content_length().is_none() {
            len += content_length_line_len(self.body.len());
        }
        len + 2
    }

    /// Serializes the response as a [`Rope`]: the head is built once into a
    /// pooled, exactly sized buffer and the body attaches by reference —
    /// sending a 4 MiB body prepends a few dozen header bytes without ever
    /// copying the payload. `Content-Length` is added unless already set.
    pub fn to_rope(&self) -> Rope {
        let mut head = SharedBytesMut::with_capacity(self.head_len());
        head.put_str(self.version.as_str());
        head.put_u8(b' ');
        head.put_decimal(self.status.0 as usize);
        head.put_u8(b' ');
        head.put_str(self.status.reason());
        head.put_str("\r\n");
        put_header_lines(&mut head, &self.headers);
        if self.headers.content_length().is_none() {
            put_content_length_line(&mut head, self.body.len());
        }
        head.put_str("\r\n");
        debug_assert_eq!(head.len(), self.head_len());
        let mut rope = Rope::new();
        rope.push_builder(head);
        rope.push(self.body.clone());
        rope
    }

    /// Serializes the response into one contiguous zero-copy view
    /// (one copy into a pooled buffer; none when the body is empty).
    pub fn to_shared(&self) -> SharedBytes {
        self.to_rope().into_shared()
    }

    /// Serializes the response to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_rope().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parse_roundtrip() {
        for method in Method::DEFAULT_WHITELIST {
            assert_eq!(Method::parse(method.as_str()), Some(method));
        }
        assert_eq!(Method::parse("get"), None);
        assert_eq!(Method::parse("PATCH"), None);
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::NOT_FOUND.is_client_error());
        assert!(StatusCode::SERVICE_UNAVAILABLE.is_server_error());
        assert_eq!(StatusCode::NOT_FOUND.to_string(), "404 Not Found");
        assert_eq!(StatusCode(599).reason(), "Unknown");
    }

    #[test]
    fn headers_are_case_insensitive_and_ordered() {
        let mut headers = Headers::new();
        headers.insert("Content-Type", "text/plain");
        headers.insert("X-Multi", "a");
        headers.insert("x-multi", "b");
        assert_eq!(headers.get("content-type"), Some("text/plain"));
        assert_eq!(headers.get_all("X-MULTI"), vec!["a", "b"]);
        assert_eq!(headers.len(), 3);
        assert_eq!(headers.get("missing"), None);
        // A header's values are one comma-separated list of tokens.
        headers.insert("Connection", "keep-alive ,\tTE");
        headers.insert("connection", "Close");
        for token in ["keep-alive", "te", "close"] {
            assert!(headers.has_token("CONNECTION", token), "{token}");
        }
        assert!(!headers.has_token("connection", "keep"));
        assert!(!headers.has_token("x-multi", "close"));
        assert!(!headers.has_token("missing", "close"));
    }

    #[test]
    fn content_length_parsing() {
        let mut headers = Headers::new();
        assert_eq!(headers.content_length(), None);
        headers.insert("Content-Length", " 42 ");
        assert_eq!(headers.content_length(), Some(42));
    }

    #[test]
    fn content_length_is_digits_only() {
        let parse = |value: &str| parse_content_length(value.as_bytes());
        assert_eq!(parse("0"), Some(0));
        assert_eq!(parse("\t007 "), Some(7));
        assert_eq!(parse(&usize::MAX.to_string()), Some(usize::MAX));
        for garbage in ["", "  ", "+5", "-0", "0x10", "1 2", "5;", "ten"] {
            assert_eq!(parse(garbage), None, "`{garbage}`");
        }
        // Past `usize::MAX`, by one more digit and by many.
        assert_eq!(parse(&format!("{}0", usize::MAX)), None);
        assert_eq!(parse(&"9".repeat(40)), None);
    }

    #[test]
    fn body_str_borrows_a_valid_body_and_repairs_an_invalid_one() {
        let response = HttpResponse::ok("gr\u{fc}ezi\n".as_bytes().to_vec());
        let text = response.body_str();
        assert!(matches!(text, Cow::Borrowed(_)));
        assert_eq!(text.as_ptr(), response.body.as_ptr());
        assert_eq!(response.body_text(), "gr\u{fc}ezi\n");
        let request = HttpRequest::post("/x", b"plain".to_vec());
        assert_eq!(request.body_str().as_ptr(), request.body.as_ptr());

        // A body that is not UTF-8: each invalid sequence becomes U+FFFD, in
        // `body_str()` and `body_text()` alike.
        let broken = b"ok \xF0\x9F\x8C rest \xFF\xC3".to_vec();
        let expected = "ok \u{FFFD} rest \u{FFFD}\u{FFFD}";
        let response = HttpResponse::ok(broken.clone());
        assert!(matches!(response.body_str(), Cow::Owned(_)));
        assert_eq!(response.body_str(), expected);
        assert_eq!(response.body_text(), expected);
        assert_eq!(HttpRequest::post("/x", broken).body_str(), expected);
    }

    #[test]
    fn request_serialization_adds_content_length() {
        let request = HttpRequest::post("http://svc.example/api", b"{\"a\":1}".to_vec())
            .with_header("Content-Type", "application/json");
        let bytes = request.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST http://svc.example/api HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
    }

    #[test]
    fn rope_serialization_matches_to_bytes_and_shares_the_body() {
        let body = SharedBytes::from_vec(vec![0x42; 8 * 1024]);
        let request = HttpRequest::put("http://svc.example/obj", body.clone())
            .with_header("X-Trace", "abc123");
        let rope = request.to_rope();
        assert_eq!(rope.to_vec(), request.to_bytes());
        // The body segment is the caller's buffer, attached by reference.
        let body_segment = rope.last_segment().unwrap();
        assert!(SharedBytes::same_buffer(body_segment, &body));

        let response = HttpResponse::ok(body.clone()).with_header("X-Test", "1");
        let rope = response.to_rope();
        assert_eq!(rope.to_vec(), response.to_bytes());
        assert!(SharedBytes::same_buffer(
            rope.last_segment().unwrap(),
            &body
        ));
        // Vectored delivery reproduces the flat serialization.
        let mut delivered = Vec::new();
        rope.write_to(&mut delivered).unwrap();
        assert_eq!(delivered, response.to_bytes());
    }

    #[test]
    fn to_shared_is_head_only_for_empty_bodies() {
        let request = HttpRequest::get("http://svc.example/x");
        assert_eq!(request.to_rope().segment_count(), 1);
        assert_eq!(request.to_shared().as_slice(), request.to_bytes());
        // An unusual status exercises the decimal head writer.
        let response = HttpResponse::new(StatusCode(599), SharedBytes::new());
        let text = String::from_utf8(response.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 599 Unknown\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
    }

    #[test]
    fn explicit_content_length_is_not_duplicated() {
        let response = HttpResponse::ok(b"abc".to_vec()).with_header("Content-Length", "3");
        let text = String::from_utf8(response.to_bytes()).unwrap();
        assert_eq!(text.matches("Content-Length").count(), 1);
        let request =
            HttpRequest::post("http://h/x", b"abc".to_vec()).with_header("Content-Length", "3");
        let text = String::from_utf8(request.to_bytes()).unwrap();
        assert_eq!(text.matches("Content-Length").count(), 1);
    }

    #[test]
    fn response_serialization() {
        let response = HttpResponse::ok(b"hello".to_vec()).with_header("X-Test", "1");
        let text = String::from_utf8(response.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Test: 1\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("hello"));
        assert_eq!(response.body_text(), "hello");
    }
}
