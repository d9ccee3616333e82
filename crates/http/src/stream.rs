//! Incremental parsing for messages arriving over a byte stream.
//!
//! The one-shot parsers in [`crate::parse`] assume the whole message is in
//! hand. A socket delivers bytes in arbitrary fragments, possibly several
//! pipelined messages per read, so the network server needs three extra
//! capabilities, provided here:
//!
//! * [`probe_request`] / [`probe_response`] decide — without building
//!   anything — whether a buffer holds a complete message and how many bytes
//!   it spans, enforcing configurable [`ParseLimits`] so oversized heads and
//!   bodies are rejected before they are buffered in full.
//! * [`RequestDecoder`] / [`ResponseDecoder`] own the receive buffer: bytes
//!   accumulate in a pooled [`SharedBytesMut`]; once a message is complete
//!   the buffer is frozen and the message parsed with the one-shot shared
//!   parsers, so bodies are zero-copy views of the receive buffer and
//!   pipelined messages parse from one freeze.
//! * [`rejection_status`] maps a parse failure to the HTTP status the server
//!   answers with before closing the connection (`400`, `413`, `431` or
//!   `501`).
//!
//! Decoded results are byte-identical to the one-shot path: a decoder that
//! was fed a serialized request in arbitrary fragments yields exactly what
//! [`parse_request_shared`] yields on the whole buffer (the property tests
//! split at every byte boundary to prove it).

use std::io::{self, Read};
use std::os::fd::BorrowedFd;

use dandelion_common::encoding::utf8_lossy;
use dandelion_common::pool::LARGEST_CLASS;
use dandelion_common::{SharedBytes, SharedBytesMut};

use crate::parse::{
    note_framing_field, parse_request_shared, parse_response_shared, HttpParseError,
    MAX_BODY_BYTES, MAX_LINE_BYTES,
};
use crate::types::{HttpRequest, HttpResponse, StatusCode};

/// Per-message limits enforced while a message is still arriving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum size of the head (start line + headers + blank line) in
    /// bytes. Exceeding it is a [`431`](rejection_status) rejection.
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length` in bytes. Exceeding it is a
    /// [`413`](rejection_status) rejection.
    pub max_body_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            // The head limit bounds what a slow or malicious client can make
            // the server buffer before a request is rejected.
            max_head_bytes: 2 * MAX_LINE_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
        }
    }
}

/// The outcome of probing a buffer for one complete message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// A complete message spans the first `consumed` bytes of the buffer.
    Complete {
        /// Bytes of the buffer the message occupies (head + body).
        consumed: usize,
    },
    /// The buffer holds only a prefix of a message; read more bytes.
    Partial,
}

/// Locates the end of the head section (the `\r\n\r\n` terminator),
/// enforcing the head-size limit on what has arrived so far.
fn head_end(input: &[u8], limits: &ParseLimits) -> Result<Option<usize>, HttpParseError> {
    // A conforming head fits in `max_head_bytes`, terminator included, so
    // only that window needs scanning.
    let window = input.len().min(limits.max_head_bytes);
    if let Some(position) = input[..window]
        .windows(4)
        .position(|candidate| candidate == b"\r\n\r\n")
    {
        return Ok(Some(position + 4));
    }
    if input.len() >= limits.max_head_bytes {
        return Err(HttpParseError::LimitExceeded("head size"));
    }
    Ok(None)
}

/// Extracts the declared `Content-Length` from a raw head section without
/// building a header map. Returns `None` when the header is absent, an
/// error when the head's framing is one the parsers refuse: a value that is
/// not a length, two lengths that differ, a `Transfer-Encoding`
/// ([`note_framing_field`]), or whitespace between a field name and its
/// colon — which would make it a question of trimming whether this line is
/// the length at all.
fn declared_content_length(head: &[u8]) -> Result<Option<usize>, HttpParseError> {
    let mut length = None;
    // The start line is not a field, whatever colons its target has.
    for line in head.split(|&byte| byte == b'\n').skip(1) {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&byte| byte == b':') else {
            continue;
        };
        // The strict parser skips whitespace before the name and refuses it
        // behind; mirror it so probe and parse agree on which header
        // declares the length.
        let mut name = &line[..colon];
        while let [b' ' | b'\t', rest @ ..] = name {
            name = rest;
        }
        if let [.., b' ' | b'\t'] = name {
            return Err(HttpParseError::MalformedHeader(
                utf8_lossy(line).into_owned(),
            ));
        }
        note_framing_field(&mut length, name, &utf8_lossy(&line[colon + 1..]))?;
    }
    Ok(length)
}

/// The length of the message at the front of `input` — head plus declared
/// body — once its head is complete, however much of the body has arrived;
/// `None` while the head is still arriving. Enforces `limits`.
fn frame_len(input: &[u8], limits: &ParseLimits) -> Result<Option<usize>, HttpParseError> {
    let Some(body_offset) = head_end(input, limits)? else {
        return Ok(None);
    };
    let length = declared_content_length(&input[..body_offset])?.unwrap_or(0);
    if length > limits.max_body_bytes {
        return Err(HttpParseError::LimitExceeded("body size"));
    }
    Ok(Some(body_offset + length))
}

/// Probes `input` for one complete HTTP request, enforcing `limits`.
///
/// Requests without a `Content-Length` header have no body (RFC 9112 §6):
/// unlike the one-shot parser — which is handed exactly one message and
/// treats the remainder as the body — a stream decoder must not swallow a
/// pipelined successor, so the message ends at the head terminator.
pub fn probe_request(input: &[u8], limits: &ParseLimits) -> Result<Probe, HttpParseError> {
    Ok(match frame_len(input, limits)? {
        Some(consumed) if consumed <= input.len() => Probe::Complete { consumed },
        _ => Probe::Partial,
    })
}

/// Probes `input` for one complete HTTP response, enforcing `limits`.
///
/// Responses without a `Content-Length` header are treated as having an
/// empty body: the v1 server always declares the length, and a
/// read-to-close fallback would deadlock a keep-alive client.
pub fn probe_response(input: &[u8], limits: &ParseLimits) -> Result<Probe, HttpParseError> {
    // Requests and responses share the head/Content-Length framing; only the
    // start-line shape differs, which probing does not inspect.
    probe_request(input, limits)
}

/// Maps a parse failure onto the status code of the rejection response:
/// oversized heads are `431`, oversized bodies `413`, framing that is not
/// implemented `501`, everything else `400`.
pub fn rejection_status(error: &HttpParseError) -> StatusCode {
    match error {
        HttpParseError::NotImplemented(_) => StatusCode(501),
        HttpParseError::LimitExceeded("body size") => StatusCode(413),
        HttpParseError::LimitExceeded("head size")
        | HttpParseError::LimitExceeded("line length")
        | HttpParseError::LimitExceeded("header count") => StatusCode(431),
        _ => StatusCode::BAD_REQUEST,
    }
}

/// Stable machine-readable code for a parse rejection, mirroring
/// `DandelionError::code` for the platform's own errors.
pub fn rejection_code(error: &HttpParseError) -> &'static str {
    match rejection_status(error).0 {
        413 => "body_too_large",
        431 => "headers_too_large",
        501 => "not_implemented",
        _ => "malformed_request",
    }
}

/// The stream decoder shared by [`RequestDecoder`] and [`ResponseDecoder`].
///
/// Unparsed bytes live in exactly one of two places: the pooled `builder`
/// (still mutable, accepting reads) or the `frozen` view left over from the
/// last parse (pipelined successors and partial tails). A message that
/// arrives across many reads accumulates in the builder; once its head has
/// declared its length the builder is given room for all of it, so the bytes
/// of a large body are copied at most once — what had arrived by then — and
/// the buffer they end up in is of a pool class, the one the next message of
/// that size pops. A tail left behind by an earlier parse is copied — once —
/// into the next builder when more bytes are needed.
#[derive(Debug, Default)]
struct StreamDecoder {
    builder: SharedBytesMut,
    frozen: SharedBytes,
    /// Length of the partial message at the front of the unparsed bytes, as
    /// its head declared it; zero while no complete head is waiting.
    awaited: usize,
    limits: ParseLimits,
}

impl StreamDecoder {
    fn new(limits: ParseLimits) -> Self {
        Self {
            builder: SharedBytesMut::new(),
            frozen: SharedBytes::new(),
            awaited: 0,
            limits,
        }
    }

    /// Bytes buffered but not yet parsed into a message.
    fn buffered(&self) -> usize {
        self.builder.len() + self.frozen.len()
    }

    /// The builder, holding every unparsed byte and with room for `reserve`
    /// more: a frozen leftover moves back in first so new bytes can append
    /// after it (the one copy a parse tail ever pays).
    fn appending(&mut self, reserve: usize) -> &mut SharedBytesMut {
        if !self.frozen.is_empty() {
            // The invariant that unparsed bytes live in exactly one place
            // means the builder is always empty here; the tail keeps its
            // order.
            debug_assert!(self.builder.is_empty());
            self.builder = SharedBytesMut::with_capacity(self.frozen.len() + reserve);
            self.builder.put_slice(&self.frozen);
            self.frozen = SharedBytes::new();
        }
        self.builder.reserve(reserve);
        &mut self.builder
    }

    fn feed(&mut self, bytes: &[u8]) {
        self.appending(bytes.len()).put_slice(bytes);
    }

    /// The builder ready for a read of up to `max_bytes`: with room for the
    /// rest of the message under way, when its head has said how long it is,
    /// and for a full read behind that — reserved here, once, so that no read
    /// after this one moves the body. What a head can make the decoder
    /// reserve before the bytes are there is bounded by the pool's largest
    /// class; a body beyond that grows by doubling as it arrives.
    fn receiving(&mut self, max_bytes: usize) -> &mut SharedBytesMut {
        let rest = self.awaited.saturating_sub(self.buffered());
        self.appending(rest.min(LARGEST_CLASS) + max_bytes)
    }

    fn read_from<R: Read>(&mut self, reader: &mut R, max_bytes: usize) -> io::Result<usize> {
        self.receiving(max_bytes).read_from(reader, max_bytes)
    }

    fn read_fd(&mut self, fd: BorrowedFd<'_>, max_bytes: usize) -> io::Result<usize> {
        self.receiving(max_bytes).read_fd(fd, max_bytes)
    }

    /// Parses the next complete message out of the buffer with `parse` (the
    /// one-shot shared parser for requests or for responses: framing does not
    /// inspect the start line, so it is the same for both).
    fn next<M>(
        &mut self,
        parse: fn(&SharedBytes) -> Result<M, HttpParseError>,
    ) -> Result<Option<M>, HttpParseError> {
        let unparsed: &[u8] = if self.frozen.is_empty() {
            &self.builder
        } else {
            &self.frozen
        };
        if unparsed.is_empty() {
            return Ok(None);
        }
        self.awaited = frame_len(unparsed, &self.limits)?.unwrap_or(0);
        if self.awaited == 0 || unparsed.len() < self.awaited {
            return Ok(None);
        }
        let consumed = std::mem::take(&mut self.awaited);
        if self.frozen.is_empty() {
            // Freeze moves the allocation: the parsed body will view the
            // buffer the bytes were received into.
            self.frozen = std::mem::take(&mut self.builder).freeze();
        }
        let (message, rest) = self.frozen.split_at(consumed);
        self.frozen = rest;
        parse(&message).map(Some)
    }
}

/// An incremental decoder for HTTP requests read from a stream.
///
/// ```
/// use dandelion_http::{RequestDecoder, ParseLimits};
///
/// let mut decoder = RequestDecoder::new(ParseLimits::default());
/// decoder.feed(b"GET /healthz HTTP/1.1\r\n");
/// assert!(decoder.next_request().unwrap().is_none()); // head incomplete
/// decoder.feed(b"Host: svc\r\n\r\n");
/// let request = decoder.next_request().unwrap().expect("complete");
/// assert_eq!(request.target, "/healthz");
/// ```
#[derive(Debug, Default)]
pub struct RequestDecoder {
    inner: StreamDecoder,
}

impl RequestDecoder {
    /// Creates a decoder enforcing `limits`.
    pub fn new(limits: ParseLimits) -> Self {
        Self {
            inner: StreamDecoder::new(limits),
        }
    }

    /// Appends bytes by copy (tests and in-memory callers; the socket path
    /// uses [`RequestDecoder::read_fd`]).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.inner.feed(bytes);
    }

    /// Reads up to `max_bytes` from `reader` into the receive buffer.
    /// Returns the byte count (`0` at end of stream).
    pub fn read_from<R: Read>(
        &mut self,
        reader: &mut R,
        max_bytes: usize,
    ) -> std::io::Result<usize> {
        self.inner.read_from(reader, max_bytes)
    }

    /// The socket path of [`RequestDecoder::read_from`]: one `read(2)` of up
    /// to `max_bytes` from `fd` straight into the receive buffer, which is
    /// not cleared first ([`SharedBytesMut::read_fd`]).
    pub fn read_fd(&mut self, fd: BorrowedFd<'_>, max_bytes: usize) -> io::Result<usize> {
        self.inner.read_fd(fd, max_bytes)
    }

    /// Bytes buffered but not yet parsed into a request.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Parses the next complete request out of the buffer, or `None` when
    /// more bytes are needed. Bodies are zero-copy views of the receive
    /// buffer. Errors are terminal: the connection should answer with
    /// [`rejection_status`] and close.
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, HttpParseError> {
        self.inner.next(parse_request_shared)
    }
}

/// An incremental decoder for HTTP responses read from a stream — the
/// client half of [`RequestDecoder`], used by the in-repo load generator.
#[derive(Debug, Default)]
pub struct ResponseDecoder {
    inner: StreamDecoder,
}

impl ResponseDecoder {
    /// Creates a decoder enforcing `limits`.
    pub fn new(limits: ParseLimits) -> Self {
        Self {
            inner: StreamDecoder::new(limits),
        }
    }

    /// Appends bytes by copy.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.inner.feed(bytes);
    }

    /// Reads up to `max_bytes` from `reader` into the receive buffer.
    pub fn read_from<R: Read>(
        &mut self,
        reader: &mut R,
        max_bytes: usize,
    ) -> std::io::Result<usize> {
        self.inner.read_from(reader, max_bytes)
    }

    /// The socket path of [`ResponseDecoder::read_from`]; see
    /// [`RequestDecoder::read_fd`].
    pub fn read_fd(&mut self, fd: BorrowedFd<'_>, max_bytes: usize) -> io::Result<usize> {
        self.inner.read_fd(fd, max_bytes)
    }

    /// Bytes buffered but not yet parsed into a response.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Parses the next complete response, or `None` when more bytes are
    /// needed.
    pub fn next_response(&mut self) -> Result<Option<HttpResponse>, HttpParseError> {
        self.inner.next(parse_response_shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Method;

    fn sample_request() -> HttpRequest {
        HttpRequest::post("/v1/invoke/Echo", b"hello body".to_vec())
            .with_header("Content-Type", "application/octet-stream")
    }

    #[test]
    fn probe_reports_partial_then_complete() {
        let wire = sample_request().to_bytes();
        let limits = ParseLimits::default();
        for cut in 0..wire.len() {
            assert_eq!(
                probe_request(&wire[..cut], &limits).unwrap(),
                Probe::Partial,
                "prefix of {cut} bytes must be partial"
            );
        }
        assert_eq!(
            probe_request(&wire, &limits).unwrap(),
            Probe::Complete {
                consumed: wire.len()
            }
        );
    }

    #[test]
    fn request_without_content_length_ends_at_the_head() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: svc\r\n\r\nGET /next HTTP/1.1\r\n\r\n";
        match probe_request(wire, &ParseLimits::default()).unwrap() {
            Probe::Complete { consumed } => assert_eq!(consumed, 36),
            Probe::Partial => panic!("head is complete"),
        }
    }

    #[test]
    fn probe_enforces_head_and_body_limits() {
        let limits = ParseLimits {
            max_head_bytes: 64,
            max_body_bytes: 128,
        };
        let oversized_head = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(100));
        assert_eq!(
            probe_request(oversized_head.as_bytes(), &limits),
            Err(HttpParseError::LimitExceeded("head size"))
        );
        // The limit triggers even before the terminator arrives.
        let unterminated = vec![b'a'; 80];
        assert_eq!(
            probe_request(&unterminated, &limits),
            Err(HttpParseError::LimitExceeded("head size"))
        );
        let oversized_body = b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        assert_eq!(
            probe_request(oversized_body, &limits),
            Err(HttpParseError::LimitExceeded("body size"))
        );
        let bad_length = b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n";
        assert!(matches!(
            probe_request(bad_length, &limits),
            Err(HttpParseError::MalformedHeader(_))
        ));
    }

    #[test]
    fn probe_and_one_shot_parsers_agree_on_what_a_content_length_is() {
        use crate::parse::{parse_request, parse_response};
        let limits = ParseLimits::default();
        // Not a length, and not an absent header either — that would make
        // the rest of the buffer the body.
        for garbage in ["+5", "-0", "0x10", "1 2", ""] {
            let request =
                format!("POST /x HTTP/1.1\r\nContent-Length: {garbage}\r\n\r\nhello").into_bytes();
            let response =
                format!("HTTP/1.1 200 OK\r\nContent-Length: {garbage}\r\n\r\nhello").into_bytes();
            for error in [
                probe_request(&request, &limits).unwrap_err(),
                parse_request(&request).unwrap_err(),
                probe_response(&response, &limits).unwrap_err(),
                parse_response(&response).unwrap_err(),
            ] {
                assert!(
                    matches!(error, HttpParseError::MalformedHeader(_)),
                    "`{garbage}`: {error}"
                );
                assert_eq!(rejection_status(&error), StatusCode::BAD_REQUEST);
                assert_eq!(rejection_code(&error), "malformed_request");
            }
        }
        let padded = b"POST /x HTTP/1.1\r\nContent-Length: \t5 \r\n\r\nhello";
        assert_eq!(
            probe_request(padded, &limits).unwrap(),
            Probe::Complete {
                consumed: padded.len()
            }
        );
        assert_eq!(parse_request(padded).unwrap().body, b"hello");
    }

    /// Heads whose framing fields need a verdict, with the status each gets
    /// (`200` = framed as three body bytes). `{}` is the start line.
    const FRAMING_HEADS: [(&str, u16); 9] = [
        (
            "{}\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
            200,
        ),
        (
            "{}\r\nContent-Length: 3\r\ncontent-length: 03 \r\n\r\nabc",
            200,
        ),
        (
            "{}\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc",
            400,
        ),
        (
            "{}\r\nContent-Length: 3\r\nX: y\r\nContent-Length: 2\r\n\r\nabc",
            400,
        ),
        ("{}\r\nContent-Length : 3\r\n\r\nabc", 400),
        ("{}\r\nContent-Length\t: 3\r\n\r\nabc", 400),
        ("{}\r\nX-Pad : 1\r\nContent-Length: 3\r\n\r\nabc", 400),
        (
            "{}\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
            501,
        ),
        (
            "{}\r\nContent-Length: 3\r\ntransfer-encoding: gzip\r\n\r\nabc",
            501,
        ),
    ];

    #[test]
    fn probe_and_one_shot_parsers_agree_on_a_heads_framing() {
        use crate::parse::{parse_request, parse_response};
        let limits = ParseLimits::default();
        for (head, status) in FRAMING_HEADS {
            let request = head.replace("{}", "POST /x HTTP/1.1").into_bytes();
            let response = head.replace("{}", "HTTP/1.1 200 OK").into_bytes();
            let verdicts = [
                probe_request(&request, &limits).map(|_| ()),
                parse_request(&request).map(|parsed| assert_eq!(parsed.body, b"abc")),
                probe_response(&response, &limits).map(|_| ()),
                parse_response(&response).map(|parsed| assert_eq!(parsed.body, b"abc")),
            ];
            for verdict in verdicts {
                let got = verdict
                    .as_ref()
                    .map_or_else(|e| rejection_status(e).0, |()| 200);
                assert_eq!(got, status, "{head:?}: {verdict:?}");
            }
            if status == 200 {
                assert_eq!(
                    probe_request(&request, &limits).unwrap(),
                    Probe::Complete {
                        consumed: request.len()
                    }
                );
            }
        }
        let error = HttpParseError::NotImplemented("Transfer-Encoding");
        assert_eq!(rejection_code(&error), "not_implemented");
    }

    /// The verdict does not depend on how the bytes arrived: a decoder fed
    /// each head split at every byte says what the one-shot parser says.
    #[test]
    fn decoder_and_one_shot_parser_agree_on_framing_at_every_split() {
        for (head, status) in FRAMING_HEADS {
            let wire = head.replace("{}", "POST /x HTTP/1.1").into_bytes();
            for cut in 0..=wire.len() {
                let mut decoder = RequestDecoder::new(ParseLimits::default());
                decoder.feed(&wire[..cut]);
                let verdict = match decoder.next_request() {
                    Ok(None) => {
                        decoder.feed(&wire[cut..]);
                        decoder.next_request()
                    }
                    decided => decided,
                };
                let got = match &verdict {
                    Ok(Some(request)) => {
                        assert_eq!(request.body, b"abc");
                        assert_eq!(decoder.buffered(), 0);
                        200
                    }
                    Ok(None) => panic!("{head:?} cut at {cut}: undecided"),
                    Err(error) => rejection_status(error).0,
                };
                assert_eq!(got, status, "{head:?} cut at {cut}: {verdict:?}");
            }
        }
    }

    #[test]
    fn decoder_yields_pipelined_requests_from_one_read() {
        let first = sample_request();
        let second = HttpRequest::get("/healthz").with_header("Host", "svc");
        let mut wire = first.to_bytes();
        wire.extend_from_slice(&second.to_bytes());

        let mut decoder = RequestDecoder::new(ParseLimits::default());
        decoder.feed(&wire);
        let parsed_first = decoder.next_request().unwrap().expect("first request");
        assert_eq!(parsed_first.method, Method::Post);
        assert_eq!(parsed_first.body, b"hello body");
        let parsed_second = decoder.next_request().unwrap().expect("second request");
        assert_eq!(parsed_second.method, Method::Get);
        assert_eq!(parsed_second.target, "/healthz");
        assert!(parsed_second.body.is_empty());
        assert_eq!(decoder.buffered(), 0);
        assert!(decoder.next_request().unwrap().is_none());
    }

    #[test]
    fn decoder_matches_one_shot_parse_at_every_split() {
        let request = sample_request();
        let wire = request.to_bytes();
        let reference =
            parse_request_shared(&dandelion_common::SharedBytes::from_vec(wire.clone())).unwrap();
        for cut in 0..=wire.len() {
            let mut decoder = RequestDecoder::new(ParseLimits::default());
            decoder.feed(&wire[..cut]);
            if let Some(early) = decoder.next_request().unwrap() {
                // Only the full buffer can complete the message.
                assert_eq!(cut, wire.len());
                assert_eq!(early, reference);
                continue;
            }
            decoder.feed(&wire[cut..]);
            let parsed = decoder.next_request().unwrap().expect("complete");
            assert_eq!(parsed, reference, "split at byte {cut} diverged");
        }
    }

    #[test]
    fn decoder_reads_from_a_reader_and_bodies_view_the_receive_buffer() {
        let request = sample_request();
        let wire = request.to_bytes();
        let mut source: &[u8] = &wire;
        let mut decoder = RequestDecoder::new(ParseLimits::default());
        // Trickle in 7-byte reads.
        loop {
            match decoder.next_request().unwrap() {
                Some(parsed) => {
                    assert_eq!(parsed.body, request.body);
                    break;
                }
                None => {
                    assert!(decoder.read_from(&mut source, 7).unwrap() > 0);
                }
            }
        }
    }

    #[test]
    fn response_decoder_roundtrip_and_empty_body_without_length() {
        let response = HttpResponse::ok(b"result".to_vec()).with_header("X-Test", "1");
        let mut decoder = ResponseDecoder::new(ParseLimits::default());
        decoder.feed(&response.to_bytes());
        let parsed = decoder.next_response().unwrap().expect("complete");
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.body, b"result");
        // Responses with no Content-Length decode with an empty body rather
        // than waiting for close.
        decoder.feed(b"HTTP/1.1 204 No Content\r\n\r\n");
        let empty = decoder.next_response().unwrap().expect("complete");
        assert_eq!(empty.status.0, 204);
        assert!(empty.body.is_empty());
    }

    #[test]
    fn rejection_statuses_and_codes_are_stable() {
        let body = HttpParseError::LimitExceeded("body size");
        let head = HttpParseError::LimitExceeded("head size");
        let malformed = HttpParseError::MalformedStartLine("x".into());
        assert_eq!(rejection_status(&body).0, 413);
        assert_eq!(rejection_status(&head).0, 431);
        assert_eq!(rejection_status(&malformed), StatusCode::BAD_REQUEST);
        assert_eq!(rejection_code(&body), "body_too_large");
        assert_eq!(rejection_code(&head), "headers_too_large");
        assert_eq!(rejection_code(&malformed), "malformed_request");
    }
}
