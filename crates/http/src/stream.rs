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
//!   the buffer is frozen and the message handed out as a [`Frame`] — its
//!   bytes, a view of the receive buffer, and the record of its head's one
//!   scan — from which [`Frame::to_request`] / [`Frame::to_response`] build
//!   the structured message and [`Frame::splice`] the bytes a proxy
//!   forwards, pipelined messages all from one freeze.
//! * [`rejection_status`] maps a parse failure to the HTTP status the server
//!   answers with before closing the connection (`400`, `413`, `431` or
//!   `501`).
//!
//! Framing, validation and the one-shot parsers are one head scan, so the
//! verdicts agree by construction, and decoded results are byte-identical to
//! the one-shot path: a decoder that was fed a serialized request in
//! arbitrary fragments yields exactly what [`parse_request_shared`] yields on
//! the whole buffer (the property tests split at every byte boundary to
//! prove it).
//!
//! [`parse_request_shared`]: crate::parse_request_shared

use std::io::{self, Read};
use std::os::fd::BorrowedFd;

use dandelion_common::pool::LARGEST_CLASS;
use dandelion_common::{Rope, SharedBytes, SharedBytesMut};

use crate::parse::{
    build_request, build_response, field_lines, request_line, scan_head, status_line, Head,
    HttpParseError, RequestLine, StartLineParser, StatusLine, MAX_BODY_BYTES, MAX_LINE_BYTES,
};
use crate::types::{HttpRequest, HttpResponse, Method, StatusCode, Version};

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

/// The head at the front of `input` once it has arrived whole, refused when
/// it breaks `limits` or declares a body longer than they allow.
///
/// A message without a `Content-Length` has no body (RFC 9112 §6): unlike
/// the one-shot parser — which is handed exactly one message and treats the
/// remainder as the body — a stream decoder must not swallow a pipelined
/// successor, so the message ends at the head terminator. The v1 server
/// always declares a response's length, and a read-to-close fallback would
/// deadlock a keep-alive client.
fn complete_head<L: Copy>(
    input: &[u8],
    limits: &ParseLimits,
    start_line: StartLineParser<L>,
) -> Result<Option<Head<L>>, HttpParseError> {
    let head = scan_head(input, limits.max_head_bytes, start_line)?;
    if head.is_some_and(|head| head.content_length.unwrap_or(0) > limits.max_body_bytes) {
        return Err(HttpParseError::LimitExceeded("body size"));
    }
    Ok(head)
}

fn probe<L: Copy>(
    input: &[u8],
    limits: &ParseLimits,
    start_line: StartLineParser<L>,
) -> Result<Probe, HttpParseError> {
    Ok(match complete_head(input, limits, start_line)? {
        Some(head) if head.message_len() <= input.len() => Probe::Complete {
            consumed: head.message_len(),
        },
        _ => Probe::Partial,
    })
}

/// Probes `input` for one complete HTTP request, enforcing `limits`.
pub fn probe_request(input: &[u8], limits: &ParseLimits) -> Result<Probe, HttpParseError> {
    probe(input, limits, request_line)
}

/// Probes `input` for one complete HTTP response, enforcing `limits`.
pub fn probe_response(input: &[u8], limits: &ParseLimits) -> Result<Probe, HttpParseError> {
    probe(input, limits, status_line)
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

/// One complete message as it arrived: its bytes, a view of the receive
/// buffer, and the record of its head's one scan. Nothing is decoded into
/// owned strings until a caller asks for the structured message.
#[derive(Debug, Clone)]
pub struct Frame<L> {
    bytes: SharedBytes,
    head: Head<L>,
}

/// A request as a stream decoder frames it.
pub type RequestFrame = Frame<RequestLine>;

/// A response as a stream decoder frames it.
pub type ResponseFrame = Frame<StatusLine>;

impl<L> Frame<L> {
    /// The whole message — head and body — as received.
    pub fn bytes(&self) -> &SharedBytes {
        &self.bytes
    }

    /// The body: a view of the receive buffer.
    pub fn body(&self) -> SharedBytes {
        self.bytes.slice(self.head.body_offset..)
    }

    /// The body's length.
    pub fn body_len(&self) -> usize {
        self.bytes.len() - self.head.body_offset
    }

    /// The length a `Content-Length` field declares, if one does.
    pub fn content_length(&self) -> Option<usize> {
        self.head.content_length
    }

    /// Whether a `Connection` line lists the token `close`.
    pub fn connection_close(&self) -> bool {
        self.head.connection.close
    }

    /// Whether a `Connection` line lists the token `keep-alive`.
    pub fn connection_keep_alive(&self) -> bool {
        self.head.connection.keep_alive
    }

    /// The message with its `Connection` lines cut out and `lines` — each a
    /// whole field line, CRLF included — added at the end of its head:
    /// connection negotiation is each hop's own (RFC 9110 §7.6.1). The rest
    /// is the received bytes by reference, byte for byte; a message with no
    /// `Connection` line and nothing to add is one segment, its own bytes.
    pub fn splice(&self, lines: &[&SharedBytes]) -> Rope {
        let blank_line = self.head.body_offset - 2;
        let mut rope = Rope::new();
        let mut kept = 0;
        if let Some(first) = self.head.connection.first {
            let mut left = self.head.connection.lines;
            for (line, name, _) in field_lines(&self.bytes, first.start) {
                if name.eq_ignore_ascii_case(b"connection") {
                    rope.push(self.bytes.slice(kept..line.start));
                    kept = line.end;
                    left -= 1;
                    if left == 0 {
                        break;
                    }
                }
            }
        }
        rope.push(self.bytes.slice(kept..blank_line));
        for line in lines {
            rope.push(SharedBytes::clone(line));
        }
        rope.push(self.bytes.slice(blank_line..));
        rope
    }
}

impl Frame<RequestLine> {
    /// The request method.
    pub fn method(&self) -> Method {
        self.head.start.method
    }

    /// The request target's bytes, as received.
    pub fn target(&self) -> &[u8] {
        &self.bytes[self.head.start.target.range()]
    }

    /// The protocol version.
    pub fn version(&self) -> Version {
        self.head.start.version
    }

    /// The structured request: what
    /// [`parse_request_shared`](crate::parse_request_shared) makes of the
    /// same bytes, the body a view of them.
    pub fn to_request(&self) -> HttpRequest {
        build_request(&self.bytes, &self.head, self.body())
    }
}

impl Frame<StatusLine> {
    /// The status code.
    pub fn status(&self) -> StatusCode {
        self.head.start.status
    }

    /// The structured response, the body a view of the received bytes.
    pub fn to_response(&self) -> HttpResponse {
        build_response(&self.bytes, &self.head, self.body())
    }
}

/// The stream decoder shared by [`RequestDecoder`] and [`ResponseDecoder`].
///
/// Unparsed bytes live in exactly one of two places: the pooled `builder`
/// (still mutable, accepting reads) or the `frozen` view left over from the
/// last parse (pipelined successors and partial tails). A message that
/// arrives across many reads accumulates in the builder; once its head has
/// declared its length the builder is given room for exactly the rest of it
/// and no read takes in more than that rest, so the bytes of a large body
/// are copied at most once — what had arrived by then — the buffer they end
/// up in is the pool class of the message's own size, and no successor's
/// bytes land behind it. A tail left behind by an earlier parse (what a read
/// brought in past the end of a message whose length it did not know yet)
/// is copied — once — into the next builder when more bytes are needed.
#[derive(Debug)]
struct StreamDecoder<L> {
    builder: SharedBytesMut,
    frozen: SharedBytes,
    /// The head of the partial message at the front of the unparsed bytes
    /// once it has arrived whole: scanned once, kept while the body arrives.
    head: Option<Head<L>>,
    limits: ParseLimits,
}

impl<L: Copy> StreamDecoder<L> {
    fn new(limits: ParseLimits) -> Self {
        Self {
            builder: SharedBytesMut::new(),
            frozen: SharedBytes::new(),
            head: None,
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

    /// The bytes of the message under way still to arrive, once its head has
    /// said how long it is; `0` before that.
    fn rest(&self) -> usize {
        let awaited = self.head.as_ref().map_or(0, Head::message_len);
        awaited.saturating_sub(self.buffered())
    }

    /// The most the next read takes in when the caller allows `max_bytes`:
    /// no more than the rest of a message whose length is known.
    fn offer(&self, max_bytes: usize) -> usize {
        match self.rest() {
            0 => max_bytes,
            rest => rest.min(max_bytes),
        }
    }

    /// The builder ready for a read of up to `max_bytes`, and the space that
    /// read is offered. While a declared message is under way the builder is
    /// given room for exactly its rest — reserved here, once, so that no read
    /// after this one moves the body — and the read is offered no more than
    /// that rest, so the message ends where its buffer does. What a head can
    /// make the decoder reserve before the bytes are there is bounded by the
    /// pool's largest class; a body beyond that grows by doubling as it
    /// arrives.
    fn receiving(&mut self, max_bytes: usize) -> (&mut SharedBytesMut, usize) {
        let reserve = match self.rest() {
            0 => max_bytes,
            rest => rest.min(LARGEST_CLASS),
        };
        let offered = self.offer(max_bytes);
        (self.appending(reserve), offered)
    }

    fn read_from<R: Read>(&mut self, reader: &mut R, max_bytes: usize) -> io::Result<usize> {
        let (builder, offered) = self.receiving(max_bytes);
        builder.read_from(reader, offered)
    }

    fn read_fd(&mut self, fd: BorrowedFd<'_>, max_bytes: usize) -> io::Result<usize> {
        let (builder, offered) = self.receiving(max_bytes);
        builder.read_fd(fd, offered)
    }

    /// Frames the next complete message of the buffer, its start line read
    /// with `start_line`.
    fn next(&mut self, start_line: StartLineParser<L>) -> Result<Option<Frame<L>>, HttpParseError> {
        let unparsed: &[u8] = if self.frozen.is_empty() {
            &self.builder
        } else {
            &self.frozen
        };
        if unparsed.is_empty() {
            return Ok(None);
        }
        let head = match self.head.take() {
            Some(head) => head,
            None => match complete_head(unparsed, &self.limits, start_line)? {
                Some(head) => head,
                None => return Ok(None),
            },
        };
        let length = head.message_len();
        if unparsed.len() < length {
            self.head = Some(head);
            return Ok(None);
        }
        if self.frozen.is_empty() {
            // Freeze moves the allocation: the frame is a view of the
            // buffer the bytes were received into.
            self.frozen = std::mem::take(&mut self.builder).freeze();
        }
        let (bytes, rest) = self.frozen.split_at(length);
        self.frozen = rest;
        Ok(Some(Frame { bytes, head }))
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
#[derive(Debug)]
pub struct RequestDecoder {
    inner: StreamDecoder<RequestLine>,
}

impl Default for RequestDecoder {
    fn default() -> Self {
        Self::new(ParseLimits::default())
    }
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

    /// Reads up to [`RequestDecoder::offer`]`(max_bytes)` from `reader` into
    /// the receive buffer. Returns the byte count (`0` at end of stream).
    pub fn read_from<R: Read>(
        &mut self,
        reader: &mut R,
        max_bytes: usize,
    ) -> std::io::Result<usize> {
        self.inner.read_from(reader, max_bytes)
    }

    /// The socket path of [`RequestDecoder::read_from`]: one `read(2)` of up
    /// to [`RequestDecoder::offer`]`(max_bytes)` from `fd` straight into the
    /// receive buffer, which is not cleared first
    /// ([`SharedBytesMut::read_fd`]).
    pub fn read_fd(&mut self, fd: BorrowedFd<'_>, max_bytes: usize) -> io::Result<usize> {
        self.inner.read_fd(fd, max_bytes)
    }

    /// The space the next read is offered when the caller allows
    /// `max_bytes`: all of it, or only the rest of a request whose head has
    /// arrived and declared its length, so that the body lands in a buffer
    /// of its own size and a pipelined successor stays in the socket. A read
    /// that returns fewer bytes than this ran its source dry; one that fills
    /// it did not say so.
    pub fn offer(&self, max_bytes: usize) -> usize {
        self.inner.offer(max_bytes)
    }

    /// Bytes buffered but not yet parsed into a request.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Frames the next complete request of the buffer, or `None` when more
    /// bytes are needed. Errors are terminal: the connection should answer
    /// with [`rejection_status`] and close.
    pub fn next_frame(&mut self) -> Result<Option<RequestFrame>, HttpParseError> {
        self.inner.next(request_line)
    }

    /// [`RequestDecoder::next_frame`], built into a request whose body is a
    /// zero-copy view of the receive buffer.
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, HttpParseError> {
        Ok(self.next_frame()?.map(|frame| frame.to_request()))
    }
}

/// An incremental decoder for HTTP responses read from a stream — the
/// client half of [`RequestDecoder`], used by a gateway's upstream
/// connections and the in-repo client.
#[derive(Debug)]
pub struct ResponseDecoder {
    inner: StreamDecoder<StatusLine>,
}

impl Default for ResponseDecoder {
    fn default() -> Self {
        Self::new(ParseLimits::default())
    }
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

    /// Reads up to [`ResponseDecoder::offer`]`(max_bytes)` from `reader` into
    /// the receive buffer.
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

    /// The space the next read is offered; see [`RequestDecoder::offer`].
    pub fn offer(&self, max_bytes: usize) -> usize {
        self.inner.offer(max_bytes)
    }

    /// Bytes buffered but not yet parsed into a response.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Frames the next complete response, or `None` when more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<ResponseFrame>, HttpParseError> {
        self.inner.next(status_line)
    }

    /// [`ResponseDecoder::next_frame`], built into a response.
    pub fn next_response(&mut self) -> Result<Option<HttpResponse>, HttpParseError> {
        Ok(self.next_frame()?.map(|frame| frame.to_response()))
    }
}

/// Heads whose framing a stream decoder and a one-shot parser must agree on,
/// with the status each gets (`200`: framed as three body bytes). `{}` is
/// the start line. The framing tables of this module and the gateway splice's
/// property test (`tests/properties.rs`) read them.
#[doc(hidden)]
pub const FRAMING_HEADS: [(&str, u16); 12] = [
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
    // A line ends at CRLF and nowhere else: to a reader that split at a bare
    // LF or CR the length below would be a field, to one that did not it
    // would be part of `X`'s value.
    ("{}\r\nX: a\nContent-Length: 3\r\n\r\nabc", 400),
    ("{}\r\nX: a\rContent-Length: 3\r\n\r\nabc", 400),
    ("{}\r\nX: a\0b\r\nContent-Length: 3\r\n\r\nabc", 400),
];

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
        let reference = crate::parse_request_shared(&SharedBytes::from_vec(wire.clone())).unwrap();
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

    /// A declared body lands in a buffer of its own size: once the head is
    /// in, a read is offered only the rest of the message, so a 256 KiB
    /// request takes the 320 KiB class — not the next one up, which a whole
    /// read chunk reserved behind it would need — and the request pipelined
    /// behind it stays in the socket. The read that completes the body fills
    /// exactly the space it was offered, which says nothing about the socket
    /// being dry: the successor is read next, into a buffer of its own.
    #[test]
    fn a_declared_body_lands_in_a_buffer_of_its_own_size() {
        use std::io::Write;
        use std::os::fd::AsFd;
        use std::os::unix::net::UnixStream;

        use dandelion_common::pool::SIZE_CLASSES;

        const CHUNK: usize = 64 * 1024;
        let first = HttpRequest::post("/v1/invoke/MatMul", vec![7; 256 * 1024]).to_bytes();
        let second = HttpRequest::get("/healthz").to_bytes();
        let (mut sender, receiver) = UnixStream::pair().unwrap();
        let mut wire = first.clone();
        wire.extend_from_slice(&second);
        // The socket holds less than the burst: the writer blocks until the
        // decoder has taken in enough of the body.
        let writer = std::thread::spawn(move || sender.write_all(&wire).map(|()| sender));
        let mut decoder = RequestDecoder::default();
        let (frame, read, offered) = loop {
            let offered = decoder.offer(CHUNK);
            let read = decoder.read_fd(receiver.as_fd(), CHUNK).unwrap();
            assert!(read > 0 && read <= offered, "read {read} of {offered}");
            if let Some(frame) = decoder.next_frame().unwrap() {
                break (frame, read, offered);
            }
        };
        // The sender stays open: an empty socket blocks, it does not EOF.
        let _sender = writer.join().unwrap().unwrap();
        assert_eq!(read, offered, "the completing read filled its offer");
        assert_eq!(frame.bytes().as_ref(), &first[..]);
        let class = SIZE_CLASSES.into_iter().find(|&class| class >= first.len());
        assert_eq!(class, Some(320 * 1024));
        assert_eq!(frame.body().backing_len(), 320 * 1024);
        assert_eq!(decoder.buffered(), 0, "nothing of the successor was read");

        receiver.set_nonblocking(true).unwrap();
        assert_eq!(decoder.offer(CHUNK), CHUNK);
        let read = decoder.read_fd(receiver.as_fd(), CHUNK).unwrap();
        assert_eq!(read, second.len(), "the successor waited in the socket");
        let successor = decoder.next_frame().unwrap().expect("complete");
        assert_eq!(successor.target(), b"/healthz");
        let error = decoder.read_fd(receiver.as_fd(), CHUNK).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::WouldBlock);
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
