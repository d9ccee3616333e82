//! Wire-format parsing for HTTP requests and responses.
//!
//! The parser is deliberately strict and allocation-bounded: it is fed bytes
//! produced by untrusted compute functions (requests) and by remote services
//! (responses), so it enforces limits on line length, header count and body
//! size rather than trusting `Content-Length` blindly.

use std::fmt;
use std::ops::Range;

use dandelion_common::encoding::utf8_lossy;
use dandelion_common::SharedBytes;

use crate::types::{
    parse_content_length, Headers, HttpRequest, HttpResponse, Method, StatusCode, Version,
};

/// Maximum accepted length of the request/status line in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted number of header fields.
pub const MAX_HEADERS: usize = 128;
/// Maximum accepted body size in bytes (64 MiB).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Errors produced when parsing HTTP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpParseError {
    /// The message ended before the header section was complete.
    UnexpectedEof,
    /// The request or status line was malformed.
    MalformedStartLine(String),
    /// The method is not one Dandelion understands.
    UnknownMethod(String),
    /// The protocol version is unsupported.
    UnsupportedVersion(String),
    /// A header line was malformed.
    MalformedHeader(String),
    /// A protocol limit (line length, header count, body size) was exceeded.
    LimitExceeded(&'static str),
    /// The message uses a part of HTTP/1.1 that is not implemented here
    /// (`Transfer-Encoding`: only `Content-Length` framing is).
    NotImplemented(&'static str),
    /// The status code was not a number.
    InvalidStatus(String),
    /// The body was shorter than the declared `Content-Length`.
    BodyTooShort {
        /// Declared length.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for HttpParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpParseError::UnexpectedEof => f.write_str("unexpected end of message"),
            HttpParseError::MalformedStartLine(line) => write!(f, "malformed start line: {line}"),
            HttpParseError::UnknownMethod(method) => write!(f, "unknown method: {method}"),
            HttpParseError::UnsupportedVersion(version) => {
                write!(f, "unsupported version: {version}")
            }
            HttpParseError::MalformedHeader(line) => write!(f, "malformed header: {line}"),
            HttpParseError::LimitExceeded(which) => write!(f, "limit exceeded: {which}"),
            HttpParseError::NotImplemented(what) => write!(f, "not implemented: {what}"),
            HttpParseError::InvalidStatus(status) => write!(f, "invalid status code: {status}"),
            HttpParseError::BodyTooShort { expected, actual } => {
                write!(f, "body too short: expected {expected} bytes, got {actual}")
            }
        }
    }
}

impl std::error::Error for HttpParseError {}

struct MessageHead {
    start_line: String,
    headers: Headers,
    body_offset: usize,
    /// The body length the head declares; see [`note_framing_field`].
    content_length: Option<usize>,
}

fn parse_head(input: &[u8]) -> Result<MessageHead, HttpParseError> {
    let mut offset = 0usize;
    let start_line = read_line(input, &mut offset)?;
    let mut headers = Headers::new();
    let mut content_length = None;
    loop {
        let line = read_line(input, &mut offset)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpParseError::LimitExceeded("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpParseError::MalformedHeader(line.clone()))?;
        // Whitespace between a field name and its colon is an error, not
        // something to trim (RFC 9112 §5.1): a hop that trimmed it and one
        // that did not would disagree on which field this is.
        let name = name.trim_start();
        if name.is_empty() || name.chars().any(|c| c.is_whitespace()) {
            return Err(HttpParseError::MalformedHeader(line.clone()));
        }
        note_framing_field(&mut content_length, name.as_bytes(), value)?;
        headers.insert(name, value.trim());
    }
    Ok(MessageHead {
        start_line,
        headers,
        body_offset: offset,
        content_length,
    })
}

fn read_line(input: &[u8], offset: &mut usize) -> Result<String, HttpParseError> {
    let rest = &input[*offset..];
    let end = rest
        .windows(2)
        .position(|window| window == b"\r\n")
        .ok_or(HttpParseError::UnexpectedEof)?;
    if end > MAX_LINE_BYTES {
        return Err(HttpParseError::LimitExceeded("line length"));
    }
    let line = utf8_lossy(&rest[..end]).into_owned();
    *offset += end + 2;
    Ok(line)
}

/// The body length a `Content-Length` field value declares. A value that is
/// not a length is a malformed header for every parser alike.
fn declared_length(value: &str) -> Result<usize, HttpParseError> {
    parse_content_length(value)
        .ok_or_else(|| HttpParseError::MalformedHeader(format!("Content-Length: {}", value.trim())))
}

/// Folds one header field into what the head says about where its body
/// ends — the stream probe's head scan and the one-shot parsers' both come
/// through here, so they decide a message's framing alike.
///
/// `Content-Length` sets `length`; a second one must repeat the first, for
/// with two lengths the bytes between them are a body to one reader and the
/// start of the next message to another (RFC 9112 §6.3). `Transfer-Encoding`
/// is refused whole: chunked framing is not implemented, and ignoring the
/// field would run the request with an empty body and parse its chunks as
/// the next one.
pub(crate) fn note_framing_field(
    length: &mut Option<usize>,
    name: &[u8],
    value: &str,
) -> Result<(), HttpParseError> {
    if name.eq_ignore_ascii_case(b"transfer-encoding") {
        return Err(HttpParseError::NotImplemented("Transfer-Encoding"));
    }
    if name.eq_ignore_ascii_case(b"content-length") {
        let declared = declared_length(value)?;
        if length.is_some_and(|earlier| earlier != declared) {
            return Err(HttpParseError::MalformedHeader(format!(
                "Content-Length: {} after another length",
                value.trim()
            )));
        }
        *length = Some(declared);
    }
    Ok(())
}

/// Determines the byte range of the message body within `input`.
fn body_range(input: &[u8], head: &MessageHead) -> Result<Range<usize>, HttpParseError> {
    let available = input.len() - head.body_offset;
    let length = match head.content_length {
        Some(length) => {
            if length > MAX_BODY_BYTES {
                return Err(HttpParseError::LimitExceeded("body size"));
            }
            if available < length {
                return Err(HttpParseError::BodyTooShort {
                    expected: length,
                    actual: available,
                });
            }
            length
        }
        None => {
            if available > MAX_BODY_BYTES {
                return Err(HttpParseError::LimitExceeded("body size"));
            }
            available
        }
    };
    Ok(head.body_offset..head.body_offset + length)
}

/// Parses a serialized HTTP request, copying the body out of `input`.
///
/// [`parse_request_shared`] is the zero-copy variant over an owned receive
/// buffer.
pub fn parse_request(input: &[u8]) -> Result<HttpRequest, HttpParseError> {
    parse_request_impl(input, &mut |range| {
        SharedBytes::copy_from_slice(&input[range])
    })
}

/// Parses a serialized HTTP request held in a [`SharedBytes`] receive
/// buffer; the returned request's body is a zero-copy view of that buffer.
pub fn parse_request_shared(input: &SharedBytes) -> Result<HttpRequest, HttpParseError> {
    parse_request_impl(input.as_slice(), &mut |range| input.slice(range))
}

fn parse_request_impl(
    input: &[u8],
    make_body: &mut dyn FnMut(Range<usize>) -> SharedBytes,
) -> Result<HttpRequest, HttpParseError> {
    let head = parse_head(input)?;
    let mut parts = head.start_line.split_whitespace();
    let method_token = parts
        .next()
        .ok_or_else(|| HttpParseError::MalformedStartLine(head.start_line.clone()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpParseError::MalformedStartLine(head.start_line.clone()))?
        .to_string();
    let version_token = parts
        .next()
        .ok_or_else(|| HttpParseError::MalformedStartLine(head.start_line.clone()))?;
    if parts.next().is_some() {
        return Err(HttpParseError::MalformedStartLine(head.start_line.clone()));
    }
    let method = Method::parse(method_token)
        .ok_or_else(|| HttpParseError::UnknownMethod(method_token.to_string()))?;
    let version = Version::parse(version_token)
        .ok_or_else(|| HttpParseError::UnsupportedVersion(version_token.to_string()))?;
    let body = make_body(body_range(input, &head)?);
    Ok(HttpRequest {
        method,
        target,
        version,
        headers: head.headers,
        body,
    })
}

/// Parses a serialized HTTP response, copying the body out of `input`.
///
/// [`parse_response_shared`] is the zero-copy variant over an owned receive
/// buffer.
pub fn parse_response(input: &[u8]) -> Result<HttpResponse, HttpParseError> {
    parse_response_impl(input, &mut |range| {
        SharedBytes::copy_from_slice(&input[range])
    })
}

/// Parses a serialized HTTP response held in a [`SharedBytes`] receive
/// buffer; the returned response's body is a zero-copy view of that buffer.
pub fn parse_response_shared(input: &SharedBytes) -> Result<HttpResponse, HttpParseError> {
    parse_response_impl(input.as_slice(), &mut |range| input.slice(range))
}

fn parse_response_impl(
    input: &[u8],
    make_body: &mut dyn FnMut(Range<usize>) -> SharedBytes,
) -> Result<HttpResponse, HttpParseError> {
    let head = parse_head(input)?;
    let mut parts = head.start_line.splitn(3, ' ');
    let version_token = parts
        .next()
        .ok_or_else(|| HttpParseError::MalformedStartLine(head.start_line.clone()))?;
    let status_token = parts
        .next()
        .ok_or_else(|| HttpParseError::MalformedStartLine(head.start_line.clone()))?;
    let version = Version::parse(version_token)
        .ok_or_else(|| HttpParseError::UnsupportedVersion(version_token.to_string()))?;
    let status: u16 = status_token
        .parse()
        .map_err(|_| HttpParseError::InvalidStatus(status_token.to_string()))?;
    if !(100..600).contains(&status) {
        return Err(HttpParseError::InvalidStatus(status_token.to_string()));
    }
    let body = make_body(body_range(input, &head)?);
    Ok(HttpResponse {
        version,
        status: StatusCode(status),
        headers: head.headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let original = HttpRequest::post("http://db.internal/query", b"SELECT 1".to_vec())
            .with_header("Content-Type", "application/sql")
            .with_header("Authorization", "Bearer token123");
        let parsed = parse_request(&original.to_bytes()).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.target, "http://db.internal/query");
        assert_eq!(parsed.headers.get("authorization"), Some("Bearer token123"));
        assert_eq!(parsed.body, b"SELECT 1");
    }

    #[test]
    fn response_roundtrip() {
        let original = HttpResponse::new(StatusCode::CREATED, b"created".to_vec())
            .with_header("X-Request-Id", "77");
        let parsed = parse_response(&original.to_bytes()).unwrap();
        assert_eq!(parsed.status, StatusCode::CREATED);
        assert_eq!(parsed.headers.get("x-request-id"), Some("77"));
        assert_eq!(parsed.body, b"created");
    }

    #[test]
    fn shared_parse_views_the_receive_buffer() {
        let wire = SharedBytes::from_vec(
            HttpRequest::post("http://svc.internal/x", b"a large payload".to_vec()).to_bytes(),
        );
        let parsed = parse_request_shared(&wire).unwrap();
        assert_eq!(parsed.body, b"a large payload");
        assert!(SharedBytes::same_buffer(&parsed.body, &wire));

        let response_wire =
            SharedBytes::from_vec(HttpResponse::ok(b"response bytes".to_vec()).to_bytes());
        let response = parse_response_shared(&response_wire).unwrap();
        assert_eq!(response.body, b"response bytes");
        assert!(SharedBytes::same_buffer(&response.body, &response_wire));
    }

    #[test]
    fn get_without_body_or_content_length() {
        let bytes = b"GET /healthz HTTP/1.1\r\nHost: svc\r\n\r\n";
        let parsed = parse_request(bytes).unwrap();
        assert_eq!(parsed.method, Method::Get);
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn rejects_malformed_start_lines() {
        assert!(matches!(
            parse_request(b"GET\r\n\r\n"),
            Err(HttpParseError::MalformedStartLine(_))
        ));
        assert!(matches!(
            parse_request(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpParseError::MalformedStartLine(_))
        ));
        assert!(matches!(
            parse_request(b"PATCH /x HTTP/1.1\r\n\r\n"),
            Err(HttpParseError::UnknownMethod(_))
        ));
        assert!(matches!(
            parse_request(b"GET /x HTTP/2.0\r\n\r\n"),
            Err(HttpParseError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn rejects_truncated_messages() {
        assert!(matches!(
            parse_request(b"GET /x HTTP/1.1\r\nHost: svc"),
            Err(HttpParseError::UnexpectedEof)
        ));
        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpParseError::BodyTooShort {
                expected: 10,
                actual: 3
            })
        ));
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(matches!(
            parse_request(b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(HttpParseError::MalformedHeader(_))
        ));
        assert!(matches!(
            parse_request(b"GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n"),
            Err(HttpParseError::MalformedHeader(_))
        ));
    }

    #[test]
    fn enforces_header_count_limit() {
        let mut message = String::from("GET /x HTTP/1.1\r\n");
        for index in 0..(MAX_HEADERS + 1) {
            message.push_str(&format!("X-H{index}: v\r\n"));
        }
        message.push_str("\r\n");
        assert!(matches!(
            parse_request(message.as_bytes()),
            Err(HttpParseError::LimitExceeded("header count"))
        ));
    }

    #[test]
    fn enforces_body_size_limit() {
        let message = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse_request(message.as_bytes()),
            Err(HttpParseError::LimitExceeded("body size"))
        ));
    }

    #[test]
    fn rejects_invalid_status_codes() {
        assert!(matches!(
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(HttpParseError::InvalidStatus(_))
        ));
        assert!(matches!(
            parse_response(b"HTTP/1.1 999 Strange\r\n\r\n"),
            Err(HttpParseError::InvalidStatus(_))
        ));
    }

    #[test]
    fn response_without_content_length_takes_rest() {
        let parsed = parse_response(b"HTTP/1.1 200 OK\r\nX: 1\r\n\r\nrest of body").unwrap();
        assert_eq!(parsed.body, b"rest of body");
    }
}
