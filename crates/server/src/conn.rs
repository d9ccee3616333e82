//! The per-connection state machine.
//!
//! A connection no longer owns a thread: it is a small state machine inside
//! an event loop's slab, advanced in the two halves of a loop turn. In the
//! *apply* half ([`Conn::pump`], [`Conn::complete`]) it reads into its
//! [`RequestDecoder`] (pooled receive buffers, zero-copy bodies), frames
//! every complete request and dispatches it (the frame itself, read in
//! place by [`Frontend::begin_frame`] or a gateway's router),
//! and has its waiting slots filled by completions — and writes nothing. In
//! the *flush* half ([`Conn::flush`], once per turn) every consecutive
//! `Ready` slot at the head of the pipeline is serialized into the connection's
//! [`RopeBatch`] and the whole batch leaves in one vectored write, resumed
//! on writability when the kernel accepts it in pieces. The ropes are
//! gathered, never joined, so a function's output buffer still travels from
//! context export to the socket by reference.
//!
//! What bounds a batch: it ends behind a response that closes the
//! connection (nothing is serialized after it, and later slots are
//! discarded with the connection); it holds at most `max_pipelined`
//! responses, since serialized and unserialized responses count against
//! that backlog alike; and one `writev` gathers at most 64 segments — a
//! longer batch simply takes another write.
//!
//! Protocol behaviour:
//!
//! * **Keep-alive and pipelining.** HTTP/1.1 connections persist by
//!   default; pipelined requests are dispatched in arrival order and their
//!   responses delivered in that same order, with synchronous invocations
//!   parking a *response slot* (not a thread) until the worker settles
//!   them. Intake — parsing and reading alike — pauses while the pipeline
//!   is full, and a pipeline is as deep in bytes as it is in requests:
//!   `max_pipelined` responses owed (queued or partly written; on a worker
//!   at most [`WORKER_PIPELINE_DEPTH`](crate::config::WORKER_PIPELINE_DEPTH)),
//!   or that many read chunks of request bodies taken in and not yet
//!   answered, whichever comes first — but never fewer than two requests,
//!   so one body lands while another computes and a single request above
//!   the byte depth is still served. On a worker the node's connections
//!   also share one budget of request bodies, a connection's byte depth
//!   per compute engine ([`Intake`](crate::server::Intake)): past a
//!   connection's first request it takes in only while the node holds less
//!   than that, so 64 connections with one large request each commit 64
//!   bodies and no more. A connection the budget holds back waits for its
//!   own responses, as at its own gates. Either way the rest of a burst
//!   waits where TCP flow control bounds it (the socket's receive buffer,
//!   then the sender) and intake resumes as responses leave.
//!   `Connection: close` (or HTTP/1.0 without `Connection: keep-alive`)
//!   closes after the response.
//! * **Malformed requests** are answered with a structured JSON error body
//!   (stable `code`: `malformed_request`, `headers_too_large` for `431`,
//!   `body_too_large` for `413`, `not_implemented` for the `501` a
//!   `Transfer-Encoding` gets — only `Content-Length` framing is
//!   implemented) and the connection is closed — never a silent drop.
//! * **Rate-limited clients** (token bucket per peer IP) get `429` with the
//!   stable `rate_limited` code; the connection stays open.
//! * **Slow clients** hit the per-request read deadline: a stall
//!   mid-request is answered with `408` and closed; an idle keep-alive
//!   connection is closed silently and counted in `idle_closed`.

use std::collections::VecDeque;
use std::net::{IpAddr, TcpStream};
use std::os::fd::AsFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dandelion_common::{
    check_failpoint, failpoints_enabled, BatchProgress, Fault, Rope, RopeBatch, SharedBytes,
};
use dandelion_core::frontend::error_body;
use dandelion_core::{sync_invoke_response, FrontendReply};
use dandelion_http::{
    rejection_code, rejection_status, HttpParseError, HttpResponse, RequestDecoder, RequestFrame,
    ResponseFrame, StatusCode, Version,
};

use crate::config::READ_CHUNK_BYTES;
use crate::event_loop::{LoopMsg, LoopShared};
use crate::gateway::relay_rope;
use crate::rate::RateLimit;
use crate::server::{AppKind, Shared};

/// The response for a request that failed parsing: `400`, `413`, `431` or
/// `501` with a stable machine-readable code.
pub(crate) fn rejection_response(error: &HttpParseError) -> HttpResponse {
    error_body(
        rejection_status(error),
        rejection_code(error),
        &error.to_string(),
        false,
    )
}

/// The `503` answer for a connection refused by admission control.
pub(crate) fn overloaded_response(max_connections: usize) -> HttpResponse {
    error_body(
        StatusCode::SERVICE_UNAVAILABLE,
        "overloaded",
        &format!("connection limit of {max_connections} reached"),
        true,
    )
}

/// The `408` answer for a client that stalled mid-request past the read
/// deadline.
pub(crate) fn timeout_response() -> HttpResponse {
    error_body(
        StatusCode::REQUEST_TIMEOUT,
        "read_timeout",
        "request was not received within the read deadline",
        true,
    )
}

/// The `429` answer for a client over its per-IP token bucket.
pub(crate) fn rate_limited_response(limit: RateLimit) -> HttpResponse {
    error_body(
        StatusCode::TOO_MANY_REQUESTS,
        "rate_limited",
        &format!(
            "client exceeded {} requests/second (burst {})",
            limit.requests_per_sec, limit.burst
        ),
        true,
    )
}

/// Finalizes a response for delivery: serializes it to a [`Rope`] with the
/// `Connection` line written straight into its head, so the body leaves by
/// reference (the zero-copy invariant the integration tests assert by `Arc`
/// identity).
pub fn response_rope(response: HttpResponse, close: bool) -> Rope {
    response.to_rope_with("Connection", if close { "close" } else { "keep-alive" })
}

/// Whether the request asks for the connection to close after the response:
/// `Connection` is a list of tokens, `close` among them closes, and HTTP/1.0
/// persists only if `keep-alive` is among them.
fn wants_close(request: &RequestFrame) -> bool {
    request.connection_close()
        || (request.version() == Version::Http10 && !request.connection_keep_alive())
}

/// A parked response slot, where a completion, a member's response or a
/// control job's answer goes: its connection's slab token and its sequence.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClientSlot {
    pub(crate) token: u64,
    pub(crate) seq: u64,
}

/// A response in hand, serialized only when its slot is popped for the wire
/// — that is when the `Connection` line it gets is known.
pub(crate) enum Reply {
    /// A response this node built.
    Built(HttpResponse),
    /// A member's response as a gateway received it, relayed with
    /// [`relay_rope`] under the member's `X-Dandelion-Node` line.
    Relayed {
        response: ResponseFrame,
        node_line: SharedBytes,
    },
}

impl Reply {
    fn into_rope(self, close: bool) -> Rope {
        match self {
            Reply::Built(response) => response_rope(response, close),
            Reply::Relayed {
                response,
                node_line,
            } => relay_rope(&response, &node_line, close),
        }
    }
}

impl From<HttpResponse> for Reply {
    fn from(response: HttpResponse) -> Reply {
        Reply::Built(response)
    }
}

/// One queued response, in pipeline order. `held` is the body length of
/// the request it answers: what the connection keeps resident on that
/// request's behalf until the slot is popped for the wire.
enum Slot {
    /// The response is in hand, waiting its turn on the wire.
    Ready {
        reply: Reply,
        close: bool,
        held: usize,
    },
    /// A synchronous invocation is running on the worker; its completion
    /// callback fills this slot via a [`LoopMsg`]; on a gateway, a member's
    /// response or a control job's answer does.
    Waiting { close: bool, held: usize },
}

/// What [`Conn::pump`] and friends tell the event loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep the connection; the edge-triggered registration needs no
    /// re-arm — the pump drained everything the kernel had.
    Keep,
    /// Close and release the connection now.
    Close,
}

/// The state of one multiplexed connection.
pub(crate) struct Conn {
    stream: TcpStream,
    peer: IpAddr,
    /// The slab token completions use to find this connection again.
    token: u64,
    decoder: RequestDecoder,
    /// Serialized responses on their way to the wire, in request order:
    /// every flush gathers all of them into one vectored write.
    outbound: RopeBatch,
    /// The last response in `outbound` closes the connection once
    /// delivered; nothing is promoted behind it.
    close_after_write: bool,
    /// Responses not yet serialized, in request order, behind `outbound`.
    slots: VecDeque<Slot>,
    /// Sequence number of `slots.front()`.
    front_seq: u64,
    /// Sequence number the next dispatched request will get.
    next_seq: u64,
    /// Sum of `held` over `slots`: the request-body bytes taken in and not
    /// yet answered. Mirrored in the loop's `held_bytes` gauge, which the
    /// node's budget sums.
    held_bytes: usize,
    /// No further requests are read or parsed (close requested, parse
    /// error, deadline fired, or server draining past this connection).
    stop_reading: bool,
    /// The socket may still hold unread bytes. Under edge-triggered epoll a
    /// readable event fires once per arrival, so readability must be
    /// remembered across pumps: backpressure (a pipeline full by count or
    /// by bytes) can suspend reading mid-drain, and the kernel will not
    /// repeat the edge when the pipeline later has room. Set by a readable
    /// event, cleared when
    /// a read proves the socket dry: it returns fewer bytes than the space
    /// it offered (epoll(7) — no confirming `EWOULDBLOCK` read is paid),
    /// `EWOULDBLOCK`, or EOF.
    sock_readable: bool,
    /// The peer finished sending (`EPOLLRDHUP`). The FIN may have arrived
    /// together with the last bytes, in which case no further edge will
    /// announce it: from here on a short read is not proof of a dry socket
    /// and reading continues until it returns the EOF itself.
    peer_closed: bool,
    /// Deadline for the partially received request to finish arriving;
    /// armed when its first byte lands, disarmed when it completes.
    request_deadline: Option<Instant>,
    /// When an idle keep-alive connection (nothing buffered, nothing
    /// queued) is closed silently.
    idle_deadline: Instant,
    /// Deadline for the in-flight response to make write progress; armed
    /// when the socket refuses bytes, pushed forward whenever the client
    /// drains some, disarmed when the response completes. A client that
    /// never reads is closed (counted in `write_timeouts`) instead of
    /// holding its buffers until drain.
    write_deadline: Option<Instant>,
    /// `RopeBatch::written` when the write deadline was last (re)armed;
    /// progress past it counts as the client still reading.
    write_progress_mark: u64,
    /// A gateway's requests parked for routing, which its loop takes after
    /// each step (the router answers some at once, forwards and jobs later).
    pub(crate) routed: Vec<(ClientSlot, RequestFrame)>,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        peer: IpAddr,
        token: u64,
        shared: &Shared,
        now: Instant,
    ) -> Conn {
        Conn {
            stream,
            peer,
            token,
            decoder: RequestDecoder::new(shared.config.limits),
            outbound: RopeBatch::new(),
            close_after_write: false,
            slots: VecDeque::new(),
            front_seq: 0,
            next_seq: 0,
            held_bytes: 0,
            stop_reading: false,
            sock_readable: false,
            peer_closed: false,
            request_deadline: None,
            idle_deadline: now + shared.config.read_timeout,
            write_deadline: None,
            write_progress_mark: 0,
            routed: Vec::new(),
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Nothing buffered, queued or in flight: safe to close silently.
    fn is_idle(&self) -> bool {
        self.backlog() == 0 && self.decoder.buffered() == 0
    }

    /// Responses owed and not yet fully written; `max_pipelined` bounds it.
    fn backlog(&self) -> usize {
        self.slots.len() + self.outbound.len()
    }

    /// Request-body bytes taken in and not yet answered; the loop's gauge
    /// gives them up with the connection.
    pub(crate) fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Whether the pipeline takes in another request: fewer responses owed
    /// than it is deep, and fewer body bytes held than that many read
    /// chunks — or fewer than two requests held, whatever they weigh — and
    /// then either nothing owed at all or the node under its intake budget.
    /// Parsing, reading and the read deadline all ask here, so a closed
    /// byte gate or a spent budget is the same server-side backpressure a
    /// closed count gate is, and each reopens as this connection's own
    /// responses leave.
    fn has_room(&self, shared: &Shared) -> bool {
        self.backlog() < shared.pipeline_depth()
            && (self.slots.len() < 2 || self.held_bytes < shared.pipeline_bytes())
            && (self.slots.is_empty() || !shared.budget_spent())
    }

    /// The socket reported `EPOLLRDHUP`: see `peer_closed`.
    pub(crate) fn note_peer_closed(&mut self) {
        self.peer_closed = true;
    }

    /// The *apply* half of a loop turn: takes in what readiness offers —
    /// parses buffered requests, reads while the socket has bytes, and
    /// dispatches through the frontend — without touching the write side.
    /// Responses that become ready wait for the turn's [`Conn::flush`].
    pub(crate) fn pump(
        &mut self,
        shared: &Shared,
        me: &Arc<LoopShared>,
        readable: bool,
        now: Instant,
    ) -> Verdict {
        if readable {
            self.sock_readable = true;
        }
        self.advance(shared, me, false, now)
    }

    /// The *flush* half of a loop turn: every response ready at the head of
    /// the pipeline leaves in one vectored write, and intake resumes if
    /// that cleared a full backlog.
    pub(crate) fn flush(&mut self, shared: &Shared, me: &Arc<LoopShared>, now: Instant) -> Verdict {
        self.advance(shared, me, true, now)
    }

    /// Advances the connection as far as readiness allows; `write` selects
    /// whether this pass may also push queued responses onto the wire. Its
    /// deadlines count from the turn's `now`.
    fn advance(
        &mut self,
        shared: &Shared,
        me: &Arc<LoopShared>,
        write: bool,
        now: Instant,
    ) -> Verdict {
        let stopping = shared.stopping.load(Ordering::Acquire);
        loop {
            let mut progressed = false;
            // Parse whatever is already buffered, while the pipeline has
            // room.
            while !self.stop_reading && self.has_room(shared) {
                match self.decoder.next_frame() {
                    Ok(Some(request)) => {
                        self.dispatch(request, shared, me);
                        progressed = true;
                    }
                    Ok(None) => break,
                    Err(error) => {
                        shared
                            .stats
                            .rejected_requests
                            .fetch_add(1, Ordering::Relaxed);
                        self.enqueue(rejection_response(&error), true, 0);
                        progressed = true;
                        break;
                    }
                }
            }
            // Pull more bytes while the kernel has them for us. The sticky
            // `sock_readable` flag — not this pass's trigger — gates the
            // read: a completion-driven pass resumes a drain that an earlier
            // one suspended for backpressure, and only a read that proves
            // the socket dry declares it so.
            if self.sock_readable && !self.stop_reading && self.has_room(shared) {
                let mut read_chunk = READ_CHUNK_BYTES;
                if failpoints_enabled() {
                    match check_failpoint("conn/read") {
                        // An injected read error behaves like the kernel's:
                        // the connection closes.
                        Some(Fault::Error) => return Verdict::Close,
                        // Partial I/O: cap this pass's read so the decoder
                        // exercises its split-buffer resume paths.
                        Some(Fault::Partial(cap)) => {
                            read_chunk = read_chunk.min(cap.max(1));
                        }
                        None => {}
                    }
                }
                // A body under way is offered only its rest, so a full read
                // can be shorter than a chunk: what decides is the offer.
                let offered = self.decoder.offer(read_chunk);
                match self.decoder.read_fd(self.stream.as_fd(), offered) {
                    // Peer finished sending (close or half-close). Requests
                    // already received are still owed their responses — a
                    // "send, shutdown(WR), read replies" client must get
                    // them — so stop reading and let flush drain the queue;
                    // the final flush closes the connection.
                    Ok(0) => {
                        self.stop_reading = true;
                        self.sock_readable = false;
                        continue;
                    }
                    Ok(read) => {
                        // Fewer bytes than offered: the socket is drained,
                        // and the next arrival raises a fresh edge.
                        if read < offered && !self.peer_closed {
                            self.sock_readable = false;
                        }
                        continue;
                    }
                    Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                        self.sock_readable = false;
                    }
                    Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Verdict::Close,
                }
            }
            if write {
                match self.write_ready(shared, me, stopping, now) {
                    Flush::Close => return Verdict::Close,
                    Flush::Progress => progressed = true,
                    Flush::Blocked => {}
                }
            }
            if !progressed {
                break;
            }
        }
        // Deadline bookkeeping: a partial request pins its deadline at the
        // first byte (a drip-feeding client cannot reset it); an empty
        // buffer restarts the idle clock. Bytes left unparsed because the
        // pipeline is full — by count, by bytes or by the node's budget —
        // are server-side backpressure, not a client stall, so they must
        // not arm (or sustain) the deadline.
        if !self.has_room(shared) {
            self.request_deadline = None;
        } else if self.decoder.buffered() > 0 {
            if self.request_deadline.is_none() {
                self.request_deadline = Some(now + shared.config.read_timeout);
            }
        } else {
            self.request_deadline = None;
            self.idle_deadline = now + shared.config.read_timeout;
        }
        if stopping && self.is_idle() {
            return Verdict::Close;
        }
        Verdict::Keep
    }

    /// Routes one framed request: rate limit first, then the frontend or
    /// the router. Synchronous invocations park a `Waiting` slot and hand
    /// their completion callback the loop's inbox. The callback is the
    /// outcome's only consumer — a sync response carries no invocation id to
    /// poll — so the worker hands it over by move and retains nothing. On
    /// a gateway every request parks a slot and waits in `routed` for the
    /// loop to route it. Whatever the route, the request's one slot holds
    /// its body length.
    fn dispatch(&mut self, request: RequestFrame, shared: &Shared, me: &Arc<LoopShared>) {
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let close = wants_close(&request);
        if close {
            // Pipelined successors after an explicit close are ignored.
            self.stop_reading = true;
        }
        let held = request.body_len();
        self.held_bytes += held;
        me.held_bytes.fetch_add(held, Ordering::Relaxed);
        if let Some(limiter) = &shared.limiter {
            if !limiter.admit(self.peer) {
                shared.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                self.enqueue(rate_limited_response(limiter.limit()), close, held);
                return;
            }
        }
        match &shared.app {
            AppKind::Local(frontend) => match frontend.begin_frame(&request) {
                FrontendReply::Ready(response) => self.enqueue(response, close, held),
                FrontendReply::Pending(handle) => {
                    let slot = self.park(close, held);
                    me.inflight.fetch_add(1, Ordering::Relaxed);
                    let me = Arc::clone(me);
                    // Runs once the worker releases the invocation's table
                    // entry, on the thread that settles it — the engine that
                    // finished it, or the worker's driver when it reaps or
                    // cancels it — or, when the invocation settled before
                    // this registration, here on the loop itself: encode
                    // there (cheap, zero-copy for single outputs) and wake
                    // the owning event loop.
                    handle.on_settle(move |outcome| {
                        me.post(LoopMsg {
                            slot,
                            response: sync_invoke_response(outcome),
                        });
                    });
                }
            },
            AppKind::Gateway(_) => {
                let slot = self.park(close, held);
                self.routed.push((slot, request));
            }
        }
    }

    /// Parks a `Waiting` slot for a response that arrives as a
    /// [`LoopMsg`], the router's, a member's or a control job's; the loop's
    /// `inflight` gauge counts it once it waits on one.
    fn park(&mut self, close: bool, held: usize) -> ClientSlot {
        let slot = ClientSlot {
            token: self.token,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.slots.push_back(Slot::Waiting { close, held });
        slot
    }

    /// Queues a response that is already in hand; `held` is the body length
    /// of the request it answers, zero when it answers none (a parse
    /// rejection, the `408`).
    fn enqueue(&mut self, response: HttpResponse, close: bool, held: usize) {
        self.next_seq += 1;
        self.slots.push_back(Slot::Ready {
            reply: Reply::Built(response),
            close,
            held,
        });
        if close {
            self.stop_reading = true;
        }
    }

    /// Fills the `Waiting` slot `seq` with its settled response. Out-of-
    /// window sequences (a slot discarded by a close that raced the
    /// completion) are dropped silently.
    pub(crate) fn complete(&mut self, seq: u64, reply: Reply) {
        let Some(offset) = seq.checked_sub(self.front_seq) else {
            return;
        };
        if let Some(slot) = self.slots.get_mut(offset as usize) {
            if let Slot::Waiting { close, held } = *slot {
                *slot = Slot::Ready { reply, close, held };
            }
        }
    }

    /// The mid-request read deadline fired: queue a `408` that closes the
    /// connection once it (and any response queued ahead of it) has been
    /// flushed.
    pub(crate) fn fire_request_timeout(&mut self, shared: &Shared) {
        shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        self.request_deadline = None;
        self.stop_reading = true;
        self.enqueue(timeout_response(), true, 0);
    }

    /// Whether a deadline has passed, and which one.
    pub(crate) fn due(&self, now: Instant) -> Option<Due> {
        if let Some(deadline) = self.write_deadline {
            if now >= deadline {
                return Some(Due::WriteStalled);
            }
        }
        if let Some(deadline) = self.request_deadline {
            if now >= deadline && !self.stop_reading {
                return Some(Due::RequestStalled);
            }
        }
        if self.is_idle() && !self.stop_reading && now >= self.idle_deadline {
            return Some(Due::Idle);
        }
        None
    }

    /// Serializes every consecutive `Ready` slot at the head of the
    /// pipeline into `outbound` — stopping behind a response that closes —
    /// and pushes the batch onto the wire until it is delivered or the
    /// socket refuses more bytes.
    fn write_ready(
        &mut self,
        shared: &Shared,
        me: &LoopShared,
        stopping: bool,
        now: Instant,
    ) -> Flush {
        let mut progressed = false;
        while !self.close_after_write && matches!(self.slots.front(), Some(Slot::Ready { .. })) {
            let Some(Slot::Ready { reply, close, held }) = self.slots.pop_front() else {
                // Invariant: the front slot was matched as `Ready` one line
                // up and nothing popped it in between. If the pipeline state
                // machine ever breaks it, close this connection instead of
                // unwinding a loop thread that owns thousands of others.
                return Flush::Close;
            };
            self.front_seq += 1;
            self.held_bytes -= held;
            me.held_bytes.fetch_sub(held, Ordering::Relaxed);
            // A draining server closes keep-alives at the response boundary
            // instead of mid-exchange.
            let close = close || stopping;
            if close {
                self.stop_reading = true;
                self.close_after_write = true;
            }
            self.outbound.push(reply.into_rope(close));
            progressed = true;
        }
        if !self.outbound.is_empty() {
            if failpoints_enabled() && check_failpoint("conn/write").is_some() {
                return Flush::Close;
            }
            let mut progress = BatchProgress::default();
            let drained = self.outbound.write_some(&mut self.stream, &mut progress);
            me.note_written(progress);
            match drained {
                Ok(true) => {
                    self.write_deadline = None;
                    progressed = true;
                    if self.close_after_write {
                        return Flush::Close;
                    }
                }
                Ok(false) => {
                    // Blocked mid-batch: (re)arm the write deadline,
                    // crediting any bytes the client drained since the last
                    // arm — only a fully stalled reader expires.
                    let written = self.outbound.written();
                    if self.write_deadline.is_none() || written > self.write_progress_mark {
                        self.write_deadline = Some(now + shared.config.write_timeout);
                        self.write_progress_mark = written;
                    }
                    return Flush::Blocked;
                }
                Err(_) => return Flush::Close,
            }
        }
        if self.slots.is_empty() && self.stop_reading {
            // Everything owed is delivered and no more requests will be
            // accepted.
            return Flush::Close;
        }
        if progressed {
            Flush::Progress
        } else {
            Flush::Blocked
        }
    }
}

/// Which per-connection deadline fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    /// A request's first byte arrived but the rest did not in time: `408`.
    RequestStalled,
    /// An idle keep-alive connection outlived the idle window: silent close.
    Idle,
    /// The in-flight response made no write progress within
    /// `write_timeout`: the client stopped reading, close silently.
    WriteStalled,
}

enum Flush {
    /// Something was written or popped; the caller should loop.
    Progress,
    /// Nothing more can happen until readiness or a completion.
    Blocked,
    /// The connection is done (close requested and delivered, or a write
    /// error).
    Close,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_http::{HttpRequest, ParseLimits};

    #[test]
    fn rejection_responses_carry_stable_codes() {
        let malformed = rejection_response(&HttpParseError::MalformedStartLine("x".into()));
        assert_eq!(malformed.status, StatusCode::BAD_REQUEST);
        assert!(malformed.body_text().contains("\"malformed_request\""));
        let oversized_head = rejection_response(&HttpParseError::LimitExceeded("head size"));
        assert_eq!(oversized_head.status.0, 431);
        assert!(oversized_head.body_text().contains("\"headers_too_large\""));
        let oversized_body = rejection_response(&HttpParseError::LimitExceeded("body size"));
        assert_eq!(oversized_body.status.0, 413);
        assert!(oversized_body.body_text().contains("\"body_too_large\""));
        let chunked = rejection_response(&HttpParseError::NotImplemented("Transfer-Encoding"));
        assert_eq!(chunked.status.0, 501);
        assert!(chunked.body_text().contains("\"not_implemented\""));
        assert_eq!(overloaded_response(7).status.0, 503);
        assert_eq!(timeout_response().status.0, 408);
        let limited = rate_limited_response(RateLimit {
            requests_per_sec: 5,
            burst: 10,
        });
        assert_eq!(limited.status.0, 429);
        assert!(limited.body_text().contains("\"rate_limited\""));
        assert!(limited.body_text().contains("\"retryable\":true"));
    }

    /// `request` as the connection's decoder frames it.
    fn frame(request: &HttpRequest) -> RequestFrame {
        let mut decoder = RequestDecoder::default();
        decoder.feed(&request.to_bytes());
        decoder.next_frame().unwrap().expect("complete")
    }

    /// Whether `request` closes the connection after its response.
    fn closes(request: &HttpRequest) -> bool {
        wants_close(&frame(request))
    }

    #[test]
    fn connection_header_negotiation() {
        let http11 = HttpRequest::get("/x");
        assert!(!closes(&http11));
        let close = HttpRequest::get("/x").with_header("Connection", "Close");
        assert!(closes(&close));
        let mut http10 = HttpRequest::get("/x");
        http10.version = Version::Http10;
        assert!(closes(&http10));
        let mut http10_keep = HttpRequest::get("/x").with_header("Connection", "keep-alive");
        http10_keep.version = Version::Http10;
        assert!(!closes(&http10_keep));
        // The header is a token list: `close` anywhere in it closes, on
        // either version, and a list without it closes nothing on HTTP/1.1.
        for (value, http11, http10) in [
            ("close, TE", true, true),
            ("keep-alive, close", true, true),
            ("TE ,\tCLOSE", true, true),
            ("Keep-Alive, TE", false, false),
            ("TE", false, true),
            ("closed", false, true),
        ] {
            let mut request = HttpRequest::get("/x").with_header("Connection", value);
            assert_eq!(closes(&request), http11, "HTTP/1.1, {value:?}");
            request.version = Version::Http10;
            assert_eq!(closes(&request), http10, "HTTP/1.0, {value:?}");
        }
        // Two `Connection` lines are one list.
        let two_lines = HttpRequest::get("/x")
            .with_header("Connection", "TE")
            .with_header("Connection", "close");
        assert!(closes(&two_lines));
    }

    #[test]
    fn response_rope_stamps_the_connection_header() {
        let rope = response_rope(HttpResponse::ok(b"x".to_vec()), true);
        let text = String::from_utf8(rope.to_vec()).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        let rope = response_rope(HttpResponse::ok(b"x".to_vec()), false);
        let text = String::from_utf8(rope.to_vec()).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn decoder_limits_flow_into_rejections() {
        // An oversized declared body maps to 413 through the decoder path.
        let mut decoder = RequestDecoder::new(ParseLimits {
            max_head_bytes: 1024,
            max_body_bytes: 16,
        });
        decoder.feed(b"POST /x HTTP/1.1\r\nContent-Length: 64\r\n\r\n");
        let error = decoder.next_request().unwrap_err();
        assert_eq!(rejection_response(&error).status.0, 413);
    }
}
