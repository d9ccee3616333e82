//! Wire-format parsing for HTTP requests and responses.
//!
//! The parser is deliberately strict and allocation-bounded: it is fed bytes
//! produced by untrusted compute functions (requests) and by remote services
//! (responses), so it enforces limits on line length, header count and body
//! size rather than trusting `Content-Length` blindly.
//!
//! A head is read by one scanner, [`scan_head`]: it finds where the head
//! ends, validates the start line and every field line, and leaves a record
//! of what the rest of the stack reads — where the body starts, what length
//! it declares, the start line, and where the `Connection` lines are. The
//! one-shot parsers here, the stream decoders' framing and the gateway's
//! splice all read that record, so no two of them can disagree on where a
//! message ends or whether it is well-formed.

use std::fmt;
use std::ops::Range;

use dandelion_common::{utf8_lossy, SharedBytes};

use crate::types::{
    parse_content_length, Headers, HttpRequest, HttpResponse, Method, StatusCode, Version,
};

/// Maximum accepted length of the request/status line in bytes.
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted number of header fields.
pub(crate) const MAX_HEADERS: usize = 128;
/// Maximum accepted body size in bytes (64 MiB).
pub(crate) const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

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

/// A byte range of a message, counted from its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Span {
    pub(crate) fn range(self) -> Range<usize> {
        self.start..self.end
    }
}

/// A request's start line as the scan read it: `method target version`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestLine {
    pub(crate) method: Method,
    pub(crate) target: Span,
    pub(crate) version: Version,
}

/// A response's start line as the scan read it: `version status reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusLine {
    pub(crate) version: Version,
    pub(crate) status: StatusCode,
}

/// Reads a start line (`line`, its CRLF cut, found at offset `at` of the
/// message): [`request_line`] or [`status_line`].
pub(crate) type StartLineParser<L> = fn(line: &[u8], at: usize) -> Result<L, HttpParseError>;

/// Where a head's `Connection` lines are, and which of the tokens this
/// server acts on they list (RFC 9110 §7.6.1: several lines are one list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ConnectionFields {
    /// The first `Connection` line, its CRLF included.
    pub(crate) first: Option<Span>,
    /// How many lines are `Connection` lines.
    pub(crate) lines: usize,
    pub(crate) close: bool,
    pub(crate) keep_alive: bool,
}

/// What one scan of a head records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head<L> {
    pub(crate) start: L,
    /// The head's length, blank line included: where the body starts.
    pub(crate) body_offset: usize,
    /// The body length the head declares; see [`note_framing_field`].
    pub(crate) content_length: Option<usize>,
    pub(crate) connection: ConnectionFields,
}

impl<L> Head<L> {
    /// The length of the message the head starts: head plus declared body.
    pub(crate) fn message_len(&self) -> usize {
        self.body_offset + self.content_length.unwrap_or(0)
    }
}

/// Scans the head at the front of `input`: finds its end and validates its
/// start line (with `start_line`) and every field line — at most
/// [`MAX_LINE_BYTES`] a line, [`MAX_HEADERS`] fields, a colon with no
/// whitespace before it, the framing rules of [`note_framing_field`] — and
/// the head's size against `max_head` (terminator included).
///
/// `Ok(None)` while the head has not arrived whole: everything that has
/// arrived is valid so far. An error depends only on the bytes before the
/// one that caused it, so a stream decoder that scans a prefix reaches the
/// verdict the one-shot parser reaches on the whole message.
pub(crate) fn scan_head<L: Copy>(
    input: &[u8],
    max_head: usize,
    start_line: StartLineParser<L>,
) -> Result<Option<Head<L>>, HttpParseError> {
    let window = &input[..input.len().min(max_head)];
    let mut start = None;
    let mut content_length = None;
    let mut connection = ConnectionFields::default();
    let mut fields = 0;
    let mut at = 0;
    while let Some(end) = line_end(window, at)? {
        let line = &window[at..end];
        let next = end + 2;
        match start {
            None => start = Some(start_line(line, at)?),
            Some(start) if line.is_empty() => {
                return Ok(Some(Head {
                    start,
                    body_offset: next,
                    content_length,
                    connection,
                }));
            }
            Some(_) => {
                fields += 1;
                if fields > MAX_HEADERS {
                    return Err(HttpParseError::LimitExceeded("header count"));
                }
                let (name, value) = field(line)?;
                note_framing_field(&mut content_length, name, value)?;
                if name.eq_ignore_ascii_case(b"connection") {
                    connection.first.get_or_insert(Span {
                        start: at,
                        end: next,
                    });
                    connection.lines += 1;
                    for token in value.split(|&byte| byte == b',') {
                        let token = token.trim_ascii();
                        connection.close |= token.eq_ignore_ascii_case(b"close");
                        connection.keep_alive |= token.eq_ignore_ascii_case(b"keep-alive");
                    }
                }
            }
        }
        at = next;
    }
    if input.len() >= max_head {
        return Err(HttpParseError::LimitExceeded("head size"));
    }
    Ok(None)
}

/// Where the line that starts at `at` ends — the offset of its CR — or
/// `None` while its end has not arrived.
///
/// A line ends at CRLF and nowhere else: a CR that no LF follows, a bare LF
/// or a NUL anywhere in a head is an error (RFC 9112 §2.2, §5.5). Were a
/// bare LF a line end to one reader and field content to another, the two
/// would disagree on which fields a head has — `Content-Length` among them.
fn line_end(window: &[u8], at: usize) -> Result<Option<usize>, HttpParseError> {
    let rest = &window[at..];
    let control = rest
        .iter()
        .position(|&byte| matches!(byte, b'\r' | b'\n' | 0));
    if control.unwrap_or(rest.len()) > MAX_LINE_BYTES {
        return Err(HttpParseError::LimitExceeded("line length"));
    }
    let Some(offset) = control else {
        return Ok(None);
    };
    match rest[offset..] {
        [b'\r', b'\n', ..] => Ok(Some(at + offset)),
        [b'\r'] => Ok(None),
        _ => Err(HttpParseError::MalformedHeader(format!(
            "{} (a CR, LF or NUL outside a CRLF line end)",
            utf8_lossy(&rest[..=offset]).escape_debug()
        ))),
    }
}

/// A field line's name — whitespace before it skipped, as the parser always
/// has — and value, untrimmed; `None` for a line with no colon.
fn split_field(line: &[u8]) -> Option<(&[u8], &[u8])> {
    let colon = line.iter().position(|&byte| byte == b':')?;
    let name = &line[..colon];
    let indent = name
        .iter()
        .take_while(|byte| byte.is_ascii_whitespace())
        .count();
    Some((&name[indent..], &line[colon + 1..]))
}

/// A field line's name and value, refused when it has no colon or a name
/// that is empty or has whitespace in it or behind it: whitespace between a
/// field name and its colon is an error, not something to trim (RFC 9112
/// §5.1) — a hop that trimmed it and one that did not would disagree on
/// which field this is.
fn field(line: &[u8]) -> Result<(&[u8], &[u8]), HttpParseError> {
    match split_field(line) {
        Some((name, value))
            if !name.is_empty() && !name.iter().any(|byte| byte.is_ascii_whitespace()) =>
        {
            Ok((name, value))
        }
        _ => Err(HttpParseError::MalformedHeader(
            utf8_lossy(line).into_owned(),
        )),
    }
}

/// The field lines of a head the scan accepted, from the one that starts at
/// `at` up to the blank line: each line's span (CRLF included), name and
/// value. The scan leaves a CR only at a line end, so the next CR is one.
pub(crate) fn field_lines(
    head: &[u8],
    mut at: usize,
) -> impl Iterator<Item = (Span, &[u8], &[u8])> {
    std::iter::from_fn(move || {
        let end = at + head[at..].iter().position(|&byte| byte == b'\r')?;
        // The blank line has no colon, and ends the fields.
        let (name, value) = split_field(&head[at..end])?;
        let span = Span {
            start: at,
            end: end + 2,
        };
        at = span.end;
        Some((span, name, value))
    })
}

/// The ranges of the whitespace-separated tokens of `line`.
fn tokens(line: &[u8]) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = at
            + line[at..]
                .iter()
                .position(|byte| !byte.is_ascii_whitespace())?;
        let end = line[start..]
            .iter()
            .position(u8::is_ascii_whitespace)
            .map_or(line.len(), |length| start + length);
        at = end;
        Some(start..end)
    })
}

fn version(token: &[u8]) -> Result<Version, HttpParseError> {
    std::str::from_utf8(token)
        .ok()
        .and_then(Version::parse)
        .ok_or_else(|| HttpParseError::UnsupportedVersion(utf8_lossy(token).into_owned()))
}

/// Reads `method SP target SP version`: exactly three tokens.
pub(crate) fn request_line(line: &[u8], at: usize) -> Result<RequestLine, HttpParseError> {
    let malformed = || HttpParseError::MalformedStartLine(utf8_lossy(line).into_owned());
    let mut parts = tokens(line);
    let method = parts.next().ok_or_else(malformed)?;
    let target = parts.next().ok_or_else(malformed)?;
    let version_token = parts.next().ok_or_else(malformed)?;
    if parts.next().is_some() {
        return Err(malformed());
    }
    let method = &line[method];
    let method = std::str::from_utf8(method)
        .ok()
        .and_then(Method::parse)
        .ok_or_else(|| HttpParseError::UnknownMethod(utf8_lossy(method).into_owned()))?;
    Ok(RequestLine {
        method,
        version: version(&line[version_token])?,
        target: Span {
            start: at + target.start,
            end: at + target.end,
        },
    })
}

/// Reads `version SP status [SP reason]`, the status in `100..600`.
pub(crate) fn status_line(line: &[u8], _at: usize) -> Result<StatusLine, HttpParseError> {
    let mut parts = line.splitn(3, |&byte| byte == b' ');
    let version_token = parts.next().unwrap_or_default();
    let status_token = parts
        .next()
        .ok_or_else(|| HttpParseError::MalformedStartLine(utf8_lossy(line).into_owned()))?;
    let version = version(version_token)?;
    let status = std::str::from_utf8(status_token)
        .ok()
        .and_then(|token| token.parse::<u16>().ok())
        .filter(|status| (100..600).contains(status))
        .ok_or_else(|| HttpParseError::InvalidStatus(utf8_lossy(status_token).into_owned()))?;
    Ok(StatusLine {
        version,
        status: StatusCode(status),
    })
}

/// The body length a `Content-Length` field value declares. A value that is
/// not a length is a malformed header for every parser alike.
fn declared_length(value: &[u8]) -> Result<usize, HttpParseError> {
    parse_content_length(value).ok_or_else(|| {
        HttpParseError::MalformedHeader(format!(
            "Content-Length: {}",
            utf8_lossy(value.trim_ascii())
        ))
    })
}

/// Folds one header field into what the head says about where its body
/// ends — every head scan comes through here.
///
/// `Content-Length` sets `length`; a second one must repeat the first, for
/// with two lengths the bytes between them are a body to one reader and the
/// start of the next message to another (RFC 9112 §6.3). `Transfer-Encoding`
/// is refused whole: chunked framing is not implemented, and ignoring the
/// field would run the request with an empty body and parse its chunks as
/// the next one.
fn note_framing_field(
    length: &mut Option<usize>,
    name: &[u8],
    value: &[u8],
) -> Result<(), HttpParseError> {
    if name.eq_ignore_ascii_case(b"transfer-encoding") {
        return Err(HttpParseError::NotImplemented("Transfer-Encoding"));
    }
    if name.eq_ignore_ascii_case(b"content-length") {
        let declared = declared_length(value)?;
        if length.is_some_and(|earlier| earlier != declared) {
            return Err(HttpParseError::MalformedHeader(format!(
                "Content-Length: {} after another length",
                utf8_lossy(value.trim_ascii())
            )));
        }
        *length = Some(declared);
    }
    Ok(())
}

/// The header map of a scanned message: every field line, names as they
/// arrived and values trimmed.
fn headers(message: &[u8]) -> Headers {
    let mut headers = Headers::new();
    let fields = message
        .iter()
        .position(|&byte| byte == b'\r')
        .map_or(message.len(), |end| end + 2);
    for (_, name, value) in field_lines(message, fields) {
        headers.insert(utf8_lossy(name), utf8_lossy(value).trim());
    }
    headers
}

/// The request a scanned message holds, with `body` as its body.
pub(crate) fn build_request(
    message: &[u8],
    head: &Head<RequestLine>,
    body: SharedBytes,
) -> HttpRequest {
    HttpRequest {
        method: head.start.method,
        target: utf8_lossy(&message[head.start.target.range()]).into_owned(),
        version: head.start.version,
        headers: headers(message),
        body,
    }
}

/// The response a scanned message holds, with `body` as its body.
pub(crate) fn build_response(
    message: &[u8],
    head: &Head<StatusLine>,
    body: SharedBytes,
) -> HttpResponse {
    HttpResponse {
        version: head.start.version,
        status: head.start.status,
        headers: headers(message),
        body,
    }
}

/// Scans the one message `input` holds and finds its body: the declared
/// length, or — with none declared — the rest of the input.
fn parse_message<L: Copy>(
    input: &[u8],
    start_line: StartLineParser<L>,
) -> Result<(Head<L>, Range<usize>), HttpParseError> {
    let head = scan_head(input, usize::MAX, start_line)?.ok_or(HttpParseError::UnexpectedEof)?;
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
    Ok((head, head.body_offset..head.body_offset + length))
}

/// Parses a serialized HTTP request, copying the body out of `input`.
///
/// [`parse_request_shared`] is the zero-copy variant over an owned receive
/// buffer.
pub fn parse_request(input: &[u8]) -> Result<HttpRequest, HttpParseError> {
    let (head, body) = parse_message(input, request_line)?;
    Ok(build_request(
        input,
        &head,
        SharedBytes::copy_from_slice(&input[body]),
    ))
}

/// Parses a serialized HTTP request held in a [`SharedBytes`] receive
/// buffer; the returned request's body is a zero-copy view of that buffer.
pub fn parse_request_shared(input: &SharedBytes) -> Result<HttpRequest, HttpParseError> {
    let (head, body) = parse_message(input, request_line)?;
    Ok(build_request(input, &head, input.slice(body)))
}

/// Parses a serialized HTTP response, copying the body out of `input`.
///
/// [`parse_response_shared`] is the zero-copy variant over an owned receive
/// buffer.
pub fn parse_response(input: &[u8]) -> Result<HttpResponse, HttpParseError> {
    let (head, body) = parse_message(input, status_line)?;
    Ok(build_response(
        input,
        &head,
        SharedBytes::copy_from_slice(&input[body]),
    ))
}

/// Parses a serialized HTTP response held in a [`SharedBytes`] receive
/// buffer; the returned response's body is a zero-copy view of that buffer.
pub fn parse_response_shared(input: &SharedBytes) -> Result<HttpResponse, HttpParseError> {
    let (head, body) = parse_message(input, status_line)?;
    Ok(build_response(input, &head, input.slice(body)))
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
