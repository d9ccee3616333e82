//! The upstream half of the proxy: pooled keep-alive connections from the
//! gateway to a member node, driven by the same epoll event loops as the
//! client connections.
//!
//! An [`UpstreamConn`] is the second connection role in an event loop's
//! slab. A forward is the client's request as the gateway received it — a
//! rope of views of the client connection's receive buffer, `Connection`
//! lines cut — queued in the connection's outbox, a [`RopeBatch`];
//! responses stream back through a [`ResponseDecoder`] that frames them
//! without decoding a header map (each a view of the receive buffer plus
//! its head's scan record), and are matched FIFO to the client slots that
//! wait for them. The gateway therefore never burns a thread per in-flight
//! request — an upstream connection is a slab entry, exactly like the
//! downstream connections it serves. The gateway's own control exchanges
//! (probes, joins, registrations, drain relays) ride connections of their
//! own, outside the pools, each closed once its one call is answered.
//!
//! Within a loop turn, forwards are only *queued* ([`UpstreamConn::enqueue`]
//! during the apply half); the turn's flush then calls
//! [`UpstreamConn::pump`] once, which sends the whole outbox — every
//! forward the turn routed here — in one vectored write (64 segments per
//! `writev`, so a longer outbox takes another write), resumed on
//! writability if the member's socket fills.
//!
//! Batching does not blur which exchanges a dying member may have seen. The
//! batch writer credits the bytes a write accepted to the queued requests
//! front to back, so each request keeps an exact cursor, and
//! [`UpstreamConn::take_unsent`] returns precisely those still at zero:
//! none of their bytes left the gateway, and replaying them on another
//! member cannot run anything twice. A request with even one byte written
//! stays behind and is failed with `502`.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::os::fd::AsFd;
use std::time::Instant;

use dandelion_common::{
    check_failpoint, failpoints_enabled, BatchProgress, Fault, NodeId, Rope, RopeBatch,
};
use dandelion_http::{ParseLimits, ResponseDecoder, ResponseFrame};

use crate::config::READ_CHUNK_BYTES;
use crate::conn::ClientSlot;
use crate::event_loop::LoopShared;
use crate::gateway::GatewayConfig;

/// Where a pending exchange's response goes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Origin {
    /// To the client slot that parked for the forwarded request.
    Client(Forwarded),
    /// To `Router::settle`, under the control exchange's call id.
    Cluster(u64),
}

/// A client slot waiting for the response of `node` to its forward.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Forwarded {
    pub node: NodeId,
    pub slot: ClientSlot,
    /// Serialized request bytes, released from the member's queued-bytes
    /// gauge when the exchange settles.
    pub bytes: usize,
    /// `POST /v1/invocations/{name}`: a `202` response carries the
    /// invocation id the router must remember for owner-routed polls.
    pub track_submit: bool,
}

/// What the event loop should do with an upstream connection after a pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UpstreamVerdict {
    Keep,
    /// Connection is unusable (EOF, error, `Connection: close`); pending
    /// exchanges still queued fail with `502`.
    Close,
}

/// One pooled keep-alive connection from the gateway to a member.
pub(crate) struct UpstreamConn {
    stream: TcpStream,
    /// The member whose pool holds this connection; `None` on a control
    /// exchange's own connection, which carries its one call and closes.
    node: Option<NodeId>,
    /// Serialized requests not yet fully written, each with its own write
    /// cursor; they align with the tail of `pending`.
    outbox: RopeBatch,
    decoder: ResponseDecoder,
    /// Exchanges queued, on the wire, or awaiting their responses, in
    /// pipeline order.
    pending: VecDeque<Origin>,
    /// The member finished sending (`EPOLLRDHUP`): a short read no longer
    /// proves the socket dry, reads continue until the EOF shows.
    peer_closed: bool,
    /// A non-blocking connect is still in progress: the socket reporting
    /// writable (or responding) completes it; until then the stall check
    /// runs on the (short) connect budget instead of the response timeout.
    connecting: bool,
    /// Last moment the connection made observable progress: response bytes
    /// arrived, the connect completed, or — so an idle keep-alive's stale
    /// clock cannot fail a fresh exchange — the pending set went from empty
    /// to non-empty. With non-empty `pending`, a stall past the upstream
    /// timeout closes the connection (and fails the pending exchanges)
    /// instead of pinning client slots forever.
    last_progress: Instant,
}

impl UpstreamConn {
    pub(crate) fn new(
        stream: TcpStream,
        node: Option<NodeId>,
        limits: ParseLimits,
        connecting: bool,
        now: Instant,
    ) -> UpstreamConn {
        UpstreamConn {
            stream,
            node,
            outbox: RopeBatch::new(),
            decoder: ResponseDecoder::new(limits),
            pending: VecDeque::new(),
            peer_closed: false,
            connecting,
            last_progress: now,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn node(&self) -> Option<NodeId> {
        self.node
    }

    /// Exchanges queued or awaiting responses on this connection.
    pub(crate) fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Drains the pending exchanges (connection teardown: the caller owes
    /// each origin an error response). Call [`UpstreamConn::take_unsent`]
    /// first — afterwards everything left here reached the wire (fully or
    /// partially) and cannot be retried elsewhere.
    pub(crate) fn take_pending(&mut self) -> VecDeque<Origin> {
        std::mem::take(&mut self.pending)
    }

    /// Splits off the exchanges that never reached the wire (teardown):
    /// the requests in the outbox whose write cursor is still at zero,
    /// which align with the tail of `pending`, so they can be replayed on
    /// another member. Exchanges written or partially written — the batch
    /// writer credits accepted bytes message by message, so the cursor is
    /// exact — stay in `pending` and must fail: the member may have
    /// executed them.
    pub(crate) fn take_unsent(&mut self) -> Vec<(Rope, Origin)> {
        let ropes = self.outbox.take_unsent();
        let origins = self.pending.split_off(self.pending.len() - ropes.len());
        ropes.into_iter().zip(origins).collect()
    }

    /// Accepts one serialized exchange for delivery to the member at `now`.
    pub(crate) fn enqueue(&mut self, rope: Rope, origin: Origin, now: Instant) {
        // A pooled keep-alive connection may have sat idle far longer than
        // the stall timeout; restart the progress clock when it goes from
        // idle to loaded so the deadline measures this exchange, not the
        // idle gap before it.
        if self.pending.is_empty() {
            self.last_progress = now;
        }
        self.outbox.push(rope);
        self.pending.push_back(origin);
    }

    /// Whether the non-blocking connect is still in progress.
    pub(crate) fn is_connecting(&self) -> bool {
        self.connecting
    }

    /// The socket reported writable. On a connecting socket, writability is
    /// how the kernel signals a successful connect (failures arrive as
    /// `EPOLLERR`/`EPOLLHUP` instead), so this completes the connect and
    /// counts as progress.
    pub(crate) fn note_writable(&mut self, now: Instant) {
        if self.connecting {
            self.connecting = false;
            self.last_progress = now;
        }
    }

    /// The socket reported `EPOLLRDHUP`: see `peer_closed`.
    pub(crate) fn note_peer_closed(&mut self) {
        self.peer_closed = true;
    }

    /// Whether a connect or exchanges pending stalled past the deadline: a
    /// control exchange's `probe_timeout`, else `connect_timeout` while the
    /// connection connects and `upstream_timeout` once it waits for answers.
    pub(crate) fn stalled(&self, now: Instant, config: &GatewayConfig) -> bool {
        let timeout = match self.node {
            None => config.probe_timeout,
            Some(_) if self.connecting => config.connect_timeout,
            Some(_) => config.upstream_timeout,
        };
        (self.connecting || !self.pending.is_empty())
            && now.duration_since(self.last_progress) >= timeout
    }

    /// Advances the connection: writes the whole outbox — every queued
    /// request in one vectored write while the socket accepts it — then
    /// reads and frames responses while `readable`. Framed responses are
    /// returned paired with their origins for the event loop to deliver to
    /// the client connections; the writes are accounted to `me`.
    pub(crate) fn pump(
        &mut self,
        readable: bool,
        me: &LoopShared,
        now: Instant,
    ) -> (UpstreamVerdict, Vec<(Origin, ResponseFrame)>) {
        let mut delivered = Vec::new();
        let mut write_failed = false;
        if !self.outbox.is_empty() {
            // Injected write fault: same disposition as a kernel write
            // error — doom the connection but still drain the read side.
            if failpoints_enabled() && check_failpoint("upstream/write").is_some() {
                write_failed = true;
            } else {
                let mut progress = BatchProgress::default();
                // A write error dooms the connection, but the member may
                // already have answered earlier exchanges: fall through to
                // the read/decode side so responses sitting in the socket
                // (or the decoder buffer) are still delivered before the
                // remaining pending exchanges are failed.
                write_failed = self
                    .outbox
                    .write_some(&mut self.stream, &mut progress)
                    .is_err();
                me.note_written(progress);
            }
        }
        // Read side: pull bytes and frame complete responses in order.
        let mut saw_eof = false;
        let mut read_chunk = READ_CHUNK_BYTES;
        if readable || write_failed {
            loop {
                if failpoints_enabled() {
                    match check_failpoint("upstream/read") {
                        // Injected truncation: the member "vanished"
                        // mid-response; pending exchanges fail `502`.
                        Some(Fault::Error) => {
                            saw_eof = true;
                            break;
                        }
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
                    Ok(0) => {
                        saw_eof = true;
                        break;
                    }
                    Ok(read) => {
                        self.last_progress = now;
                        // Fewer bytes than offered: the socket is drained,
                        // and the next arrival raises a fresh edge.
                        if read < offered && !self.peer_closed {
                            break;
                        }
                    }
                    Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        saw_eof = true;
                        break;
                    }
                }
            }
        }
        let mut close = saw_eof || write_failed;
        loop {
            match self.decoder.next_frame() {
                Ok(Some(response)) => {
                    let Some(origin) = self.pending.pop_front() else {
                        // A response with no matching exchange: protocol
                        // desync, drop the connection.
                        close = true;
                        break;
                    };
                    // The member closing after this response ends the
                    // connection's usefulness but the response itself is
                    // still good.
                    if response.connection_close() {
                        close = true;
                    }
                    delivered.push((origin, response));
                }
                Ok(None) => break,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        // A control exchange's own connection is done once it is answered.
        if close || (self.node.is_none() && self.pending.is_empty()) {
            (UpstreamVerdict::Close, delivered)
        } else {
            (UpstreamVerdict::Keep, delivered)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{Shutdown, TcpListener};
    use std::time::Duration;

    use dandelion_http::{HttpRequest, HttpResponse};

    /// A connected loopback pair: the upstream side (non-blocking, as the
    /// event loop would hold it) and the member side.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        ours.set_nonblocking(true).unwrap();
        let (member, _) = listener.accept().unwrap();
        (ours, member)
    }

    fn origin(seq: u64) -> Origin {
        Origin::Client(Forwarded {
            node: NodeId::from_raw(2),
            slot: ClientSlot { token: 7, seq },
            bytes: 16,
            track_submit: false,
        })
    }

    /// The client slot sequence `origin` answers.
    fn seq(origin: &Origin) -> u64 {
        match origin {
            Origin::Client(forwarded) => forwarded.slot.seq,
            Origin::Cluster(_) => panic!("a forward's origin"),
        }
    }

    fn request_rope() -> Rope {
        HttpRequest::post("/v1/invoke/Echo", b"payload".to_vec()).to_rope()
    }

    /// A connection whose exchange 0 has reached the member and been
    /// answered with `answer`, which is waiting in the socket; and the
    /// member's end of it.
    fn answered_exchange(answer: HttpResponse, me: &LoopShared) -> (UpstreamConn, TcpStream) {
        let (ours, mut member) = socket_pair();
        let mut conn = UpstreamConn::new(
            ours,
            Some(NodeId::from_raw(2)),
            ParseLimits::default(),
            false,
            Instant::now(),
        );
        conn.enqueue(request_rope(), origin(0), Instant::now());
        let (verdict, delivered) = conn.pump(false, me, Instant::now());
        assert_eq!(verdict, UpstreamVerdict::Keep);
        assert!(delivered.is_empty());
        let mut sink = [0u8; 4096];
        assert!(member.read(&mut sink).unwrap() > 0);
        std::io::Write::write_all(&mut member, &answer.to_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        (conn, member)
    }

    /// An answer as a member gives it: `body` under this `Connection` header.
    fn answer(connection: &'static str, body: &[u8]) -> HttpResponse {
        HttpResponse::ok(body.to_vec()).with_header("Connection", connection)
    }

    #[test]
    fn enqueue_after_idle_restarts_the_stall_clock() {
        let (ours, _member) = socket_pair();
        let opened = Instant::now();
        let mut conn = UpstreamConn::new(
            ours,
            Some(NodeId::from_raw(1)),
            ParseLimits::default(),
            false,
            opened,
        );
        let timeout = GatewayConfig {
            upstream_timeout: Duration::from_millis(50),
            ..GatewayConfig::default()
        };
        // Let the connection sit idle well past the timeout: idleness alone
        // must never stall it, and the first exchange after the gap must be
        // measured from its own enqueue, not from the stale idle clock.
        let later = opened + Duration::from_millis(70);
        assert!(!conn.stalled(later, &timeout), "idle is not a stall");
        conn.enqueue(request_rope(), origin(0), later);
        assert!(
            !conn.stalled(later, &timeout),
            "a fresh exchange on a long-idle keep-alive gets the full timeout"
        );
        assert!(
            conn.stalled(later + Duration::from_millis(70), &timeout),
            "a genuinely unanswered exchange still stalls"
        );
    }

    /// A member that announces `close` — alone or as one token of a list —
    /// is not handed the next exchange; the response that said so is good.
    #[test]
    fn a_member_that_announces_close_in_a_token_list_is_not_reused() {
        for (connection, expected) in [
            ("keep-alive, TE", UpstreamVerdict::Keep),
            ("close", UpstreamVerdict::Close),
            ("TE, Close", UpstreamVerdict::Close),
        ] {
            let me = LoopShared::new().unwrap();
            let (mut conn, _member) = answered_exchange(answer(connection, b"last one"), &me);
            let (verdict, delivered) = conn.pump(true, &me, Instant::now());
            assert_eq!(verdict, expected, "Connection: {connection}");
            assert_eq!(delivered.len(), 1, "Connection: {connection}");
            assert_eq!(delivered[0].1.body().as_ref(), b"last one");
        }
    }

    /// A member's answer that carries `Transfer-Encoding` is not framed by
    /// its `Content-Length` and handed on: the decoder refuses it, the
    /// connection is given up, and the exchange is left pending — which the
    /// loop answers `502`, as for any upstream failure.
    #[test]
    fn a_members_transfer_encoding_fails_the_exchange_instead_of_misframing_it() {
        let me = LoopShared::new().unwrap();
        let chunked = answer("keep-alive", b"5\r\nhello\r\n0\r\n\r\n")
            .with_header("Transfer-Encoding", "chunked");
        let (mut conn, _member) = answered_exchange(chunked, &me);
        let (verdict, delivered) = conn.pump(true, &me, Instant::now());
        assert_eq!(verdict, UpstreamVerdict::Close);
        assert!(delivered.is_empty(), "nothing of it is delivered");
        let failed = conn.take_pending();
        assert_eq!(failed.len(), 1);
        assert_eq!(seq(&failed[0]), 0);
    }

    #[test]
    fn write_error_still_delivers_responses_already_received() {
        let me = LoopShared::new().unwrap();
        // Exchange 0 reaches the member, which answers it.
        let (mut conn, _member) = answered_exchange(answer("keep-alive", b"already sent"), &me);
        // Force the next write to fail, with the member's answer sitting in
        // the receive buffer: the doomed pump must deliver it, not discard
        // it behind the write error.
        conn.stream.shutdown(Shutdown::Write).unwrap();
        conn.enqueue(request_rope(), origin(1), Instant::now());
        let (verdict, delivered) = conn.pump(false, &me, Instant::now());
        assert_eq!(verdict, UpstreamVerdict::Close);
        assert_eq!(
            delivered.len(),
            1,
            "the response received before the write error must be delivered"
        );
        assert_eq!(seq(&delivered[0].0), 0);
        assert_eq!(delivered[0].1.body().as_ref(), b"already sent");
        // Only the exchange that never got an answer is left to fail.
        let remaining = conn.take_pending();
        assert_eq!(remaining.len(), 1);
        assert_eq!(seq(&remaining[0]), 1);
    }
}
