//! The epoll-driven event loops that multiplex every connection.
//!
//! A small, fixed pool of loop threads replaces the PR 4 model of one
//! handler thread per connection: each loop owns an [`Epoll`] instance, an
//! [`EventFd`] waker, and a slab of connection state machines. All sockets
//! are non-blocking; a connection consumes memory only — never a thread —
//! while it is idle or while an invocation runs on the worker, which is
//! what lets two loops hold thousands of keep-alive connections open.
//!
//! The slab holds two kinds of endpoint. **Client** connections
//! ([`Conn`]) are the downstream side: requests in, responses out. In
//! gateway mode the slab also hosts **upstream** connections
//! ([`UpstreamConn`]) — pooled, pipelined keep-alive connections to
//! cluster members, owned per loop so a proxied exchange never crosses a
//! thread: the client parks a response slot, the forward rides an
//! upstream connection of the same loop, and the member's response is
//! delivered straight back into the client's slot as it was framed — the
//! received bytes and their head's scan record, no header map. It is
//! serialized when the slot is popped for the wire: the member's head and
//! body by reference, its `Connection` lines cut, this member's
//! `X-Dandelion-Node` line (built once per loop) and the client's
//! `Connection` line spliced in.
//!
//! Every loop accepts for itself: each binds its own `SO_REUSEPORT`
//! listener on the shared address, the kernel load-balances new connections
//! across them, and a connection lives and dies on the loop that accepted
//! it. Cross-thread traffic arrives through each loop's inbox — a lock-free
//! [`MpscQueue`] drained in whole batches: the dispatcher's completion
//! callbacks post finished responses ([`LoopMsg::Complete`]), and gateway
//! dispatch posts forward plans ([`LoopMsg::Forward`]). The `eventfd`
//! wakeup is conditional: a producer writes it only when it observes the
//! loop asleep (an atomic `sleeping` flag set around `epoll_wait`), so a
//! completion storm against a busy loop coalesces into zero syscalls —
//! the posted/wakeup counters in `/v1/stats` prove the coalescing.
//!
//! Connection registrations are **edge-triggered** (`EPOLLET`, full
//! interest mask registered once at adoption): the pumps read until a read
//! comes back short (or `EWOULDBLOCK`), and no per-wakeup re-arm
//! `epoll_ctl` call exists on the hot path at all.
//!
//! **A turn applies first and writes once.** [`EventLoop::run`] waits and
//! reads the clock; each [`EventLoop::turn`] it hands the readiness and that
//! `now` to is *apply → flush dirty → deadlines → flush dirty*.
//! Applying is everything that takes input: readiness events are read,
//! framed and dispatched, member responses are framed and put into the
//! client slots that wait for them, and the inbox is drained — settled
//! invocations fill their slots, forward plans join an upstream's outbox.
//! None of that writes a socket; it only marks the endpoint *dirty* (a
//! flag in its slab entry plus a reused index list, so a turn allocates
//! nothing for it). Only then does `flush_dirty` visit each dirty endpoint
//! once: a client sends every response that is ready at the head of its
//! pipeline, an upstream its whole outbox, each in a single vectored write
//! ([`dandelion_common::RopeBatch`]). So the completions, forwards and
//! proxied replies that land in the same turn cost one `writev` per
//! connection instead of one per message, and a turn that carries a single
//! message issues exactly the one write it always did. The deadline scan
//! can queue output too (a `408`, a forward whose backoff expired), hence
//! the second flush, which costs one emptiness check when it queued none.
//! The per-loop `writes` / `messages_written` counters in `/v1/stats`
//! show the ratio on a running server.
//!
//! Tokens carry a generation tag: when a connection closes its slab index
//! is recycled, and the bumped generation makes stale epoll events or
//! late completions for the old occupant fall harmlessly on the floor.

use std::collections::HashMap;
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::encoding::utf8_lossy;
use dandelion_common::mpsc::{Drain, MpscQueue};
use dandelion_common::rng::SplitMix64;
use dandelion_common::{fail_point, BatchProgress, InvocationId, JsonValue, NodeId, SharedBytes};
use dandelion_http::{HttpResponse, ResponseFrame, StatusCode};

use crate::conn::{overloaded_response, response_rope, Conn, Due, Reply, Verdict};
use crate::gateway::upstream::{Origin, UpstreamConn, UpstreamVerdict};
use crate::gateway::{node_line, upstream_failed_response, ForwardPlan, MemberLoad, Router};
use crate::server::{AppKind, Shared};
use crate::sys::{
    connect_nonblocking, Epoll, EpollEvent, EventFd, EMFILE, ENFILE, EPOLLERR, EPOLLET, EPOLLHUP,
    EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Token of the loop's listener registration.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token of the loop's own waker eventfd.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Readiness events drained per `epoll_wait`.
const EVENT_BATCH: usize = 256;
/// Idle `epoll_wait` timeout; bounds how late a deadline scan can run.
const TICK_MS: i32 = 25;
/// First backoff delay of a replanned forward, doubled per attempt; with
/// equal jitter the actual wait is uniform in `[base/2, base]`.
const RETRY_BACKOFF_BASE_MS: u64 = 10;
/// Backoff delay ceiling for replanned forwards.
const RETRY_BACKOFF_CAP_MS: u64 = 200;

/// A message for one event loop, posted by another thread (or by the loop
/// itself, for work it must finish outside a connection borrow).
pub(crate) enum LoopMsg {
    /// A settled synchronous invocation's response for slot `seq` of the
    /// connection identified by `token`.
    Complete {
        token: u64,
        seq: u64,
        response: HttpResponse,
    },
    /// A gateway forward plan for slot `seq` of the client connection
    /// `token`: execute it on one of this loop's upstream connections.
    Forward {
        token: u64,
        seq: u64,
        plan: Box<ForwardPlan>,
    },
}

/// The cross-thread half of one event loop: a lock-free inbox plus the
/// eventfd that wakes the loop to drain it. Shared with every completion
/// callback targeting this loop.
pub(crate) struct LoopShared {
    inbox: MpscQueue<LoopMsg>,
    waker: EventFd,
    /// Set by the loop just before it blocks in `epoll_wait` with an empty
    /// inbox; swapped off by the first producer that posts into the sleep,
    /// which is the only producer that signals the eventfd.
    sleeping: AtomicBool,
    /// Gauge: connections owned by this loop. Raised by `adopt`, drained by
    /// `close`.
    pub(crate) connections: AtomicUsize,
    /// Gauge: invocations in flight for connections on this loop (parked
    /// `Waiting` slots, including proxied upstream requests).
    pub(crate) inflight: AtomicUsize,
    /// Gauge: request-body bytes this loop's connections have taken in and
    /// not yet answered (what their byte gates weigh, summed).
    pub(crate) held_bytes: AtomicUsize,
    /// Messages ever posted to this inbox.
    pub(crate) posted: AtomicU64,
    /// Eventfd signals actually written; `posted - wakeups` is the number
    /// of posts that found the loop awake and cost no syscall.
    pub(crate) wakeups: AtomicU64,
    /// Vectored socket writes this loop issued (client responses and
    /// upstream forwards alike).
    pub(crate) writes: AtomicU64,
    /// Messages those writes finished; `messages_written / writes` is how
    /// many messages a write carried, 1.0 for a client that never pipelines.
    pub(crate) messages_written: AtomicU64,
}

impl LoopShared {
    pub(crate) fn new() -> std::io::Result<LoopShared> {
        Ok(LoopShared {
            inbox: MpscQueue::new(),
            waker: EventFd::new()?,
            sleeping: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            held_bytes: AtomicUsize::new(0),
            posted: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            messages_written: AtomicU64::new(0),
        })
    }

    /// Accounts one flush's socket writes (statistics only, hence relaxed).
    pub(crate) fn note_written(&self, progress: BatchProgress) {
        if progress.writes > 0 {
            self.writes.fetch_add(progress.writes, Ordering::Relaxed);
        }
        if progress.messages > 0 {
            self.messages_written
                .fetch_add(progress.messages, Ordering::Relaxed);
        }
    }

    /// Approximate number of messages waiting in the inbox (stats gauge).
    pub(crate) fn inbox_depth(&self) -> usize {
        self.inbox.len()
    }

    /// Enqueues a message, waking the loop only if it is (going) asleep.
    ///
    /// The push is a lock-free CAS; the eventfd `write(2)` happens only on
    /// the awake→asleep transition: `sleeping` is swapped off, so of any
    /// number of concurrent producers exactly one pays the syscall and a
    /// loop that is already draining pays nothing at all. The ordering
    /// argument is the same seqlock-style handshake as a futex wait: the
    /// loop sets `sleeping` *before* its final emptiness check, so a
    /// producer either sees `sleeping == true` (and signals) or its push
    /// is visible to that check (and the loop skips the blocking wait).
    pub(crate) fn post(&self, msg: LoopMsg) {
        fail_point!("loop/post");
        self.inbox.push(msg);
        self.posted.fetch_add(1, Ordering::Relaxed);
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.wakeups.fetch_add(1, Ordering::Relaxed);
            self.waker.signal();
        }
    }

    /// Wakes the loop without a message (shutdown broadcast). Always
    /// signals: shutdown is rare and must never be coalesced away.
    pub(crate) fn wake(&self) {
        fail_point!("loop/wakeup");
        self.sleeping.store(false, Ordering::SeqCst);
        self.waker.signal();
    }

    /// Announces the loop is about to block. Returns `false` — and cancels
    /// the announcement — when messages raced in, in which case the caller
    /// must poll instead of block.
    fn prepare_sleep(&self) -> bool {
        self.sleeping.store(true, Ordering::SeqCst);
        if self.inbox.is_empty() {
            true
        } else {
            self.sleeping.store(false, Ordering::SeqCst);
            false
        }
    }

    /// The loop is awake again; producers go back to skipping the signal.
    fn cancel_sleep(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Clears a delivered eventfd signal (called on its epoll event only,
    /// not once per iteration).
    fn clear_signal(&self) {
        self.waker.drain();
    }

    fn take_messages(&self) -> Drain<LoopMsg> {
        self.inbox.take_all()
    }
}

/// A slab occupant: a downstream client or (gateway mode) an upstream
/// member connection.
enum Endpoint {
    Client(Conn),
    Upstream(UpstreamConn),
}

/// One slab entry; the generation survives the occupant so stale tokens
/// can be recognized.
struct SlabEntry {
    generation: u32,
    endpoint: Option<Endpoint>,
    /// The index is on the loop's dirty list (and so listed only once).
    dirty: bool,
}

/// A replanned forward waiting out its backoff delay; the deadline scan
/// re-attempts it once `due` passes.
struct PlannedRetry {
    due: Instant,
    token: u64,
    seq: u64,
    plan: ForwardPlan,
}

/// This loop's pooled upstream connections to one member.
struct NodePool {
    /// The member's gateway-side load gauges (shared with the router).
    load: Arc<MemberLoad>,
    /// The `X-Dandelion-Node` line every response relayed from the member
    /// carries.
    node_line: SharedBytes,
    /// Tokens of the live upstream connections (kept consistent by
    /// `close_upstream`).
    conns: Vec<u64>,
}

/// One epoll-driven event loop thread.
pub(crate) struct EventLoop {
    shared: Arc<Shared>,
    me: Arc<LoopShared>,
    epoll: Epoll,
    /// This loop's own (non-blocking) `SO_REUSEPORT` listener; `None` once
    /// draining began.
    listener: Option<TcpListener>,
    slab: Vec<SlabEntry>,
    free: Vec<usize>,
    /// Slab indices whose endpoint took in something this turn that its
    /// socket has not seen yet; [`EventLoop::flush_dirty`] writes each once
    /// and empties the list, whose capacity is kept from turn to turn.
    dirty: Vec<usize>,
    /// Open **client** connections (upstreams do not count — the loop may
    /// exit a drain with idle upstreams still in the slab).
    open: usize,
    /// Gateway mode: per-member upstream connection pools.
    pools: HashMap<NodeId, NodePool>,
    /// Set when draining begins; connections still open past it are
    /// force-closed so shutdown cannot hang on a stuck client.
    drain_deadline: Option<Instant>,
    /// Replanned forwards waiting out their exponential backoff; drained
    /// by the deadline scan.
    retries: Vec<PlannedRetry>,
    /// Jitter source for the retry backoff (deterministic per loop).
    rng: SplitMix64,
    /// One file descriptor held in reserve so fd exhaustion can still be
    /// handled: on `EMFILE` the reserve is released, one flooding
    /// connection is accepted and immediately closed (clearing it from
    /// the backlog), and the reserve reopened.
    reserve_fd: Option<std::fs::File>,
}

fn token_of(index: usize, generation: u32) -> u64 {
    (u64::from(generation) << 32) | index as u64
}

impl EventLoop {
    pub(crate) fn new(
        index: usize,
        shared: Arc<Shared>,
        listener: TcpListener,
    ) -> std::io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        let me = Arc::clone(&shared.loops[index]);
        epoll.add(me.waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        listener.set_nonblocking(true)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        Ok(EventLoop {
            shared,
            me,
            epoll,
            listener: Some(listener),
            slab: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            open: 0,
            pools: HashMap::new(),
            drain_deadline: None,
            retries: Vec::new(),
            rng: SplitMix64::new(0xBAC0_0FF5 ^ index as u64),
            reserve_fd: std::fs::File::open("/dev/null").ok(),
        })
    }

    /// The router, in gateway mode. Upstream machinery is unreachable in
    /// local mode, so the expect documents an invariant, not a user error.
    fn router(&self) -> Arc<Router> {
        match &self.shared.app {
            AppKind::Gateway(router) => Arc::clone(router),
            AppKind::Local(_) => unreachable!("upstream machinery requires gateway mode"),
        }
    }

    /// Runs until the server drains: stopping flag set and every owned
    /// client connection released.
    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        loop {
            // Block only when the inbox is verifiably empty: `prepare_sleep`
            // raises the flag producers check, then re-checks the inbox, so
            // a message posted at any point either keeps the wait at a poll
            // or wakes it through the eventfd.
            let timeout_ms = if self.me.prepare_sleep() { TICK_MS } else { 0 };
            let ready = self.epoll.wait(&mut events, timeout_ms).unwrap_or_default();
            self.me.cancel_sleep();
            self.turn(Instant::now(), &events[..ready]);
            if self.shared.stopping.load(Ordering::Acquire) && self.open == 0 {
                return;
            }
        }
    }

    /// One turn at `now` over readiness `events` (see the module docs): it
    /// neither waits nor reads the clock.
    fn turn(&mut self, now: Instant, events: &[EpollEvent]) {
        if self.shared.stopping.load(Ordering::Acquire) && self.drain_deadline.is_none() {
            self.begin_drain(now);
        }
        for event in events {
            match event.data {
                WAKER_TOKEN => self.me.clear_signal(),
                LISTENER_TOKEN => self.accept_ready(),
                token => self.conn_event(token, event.events, now),
            }
        }
        self.drain_inbox(now);
        self.flush_dirty(now);
        self.scan_deadlines(now);
        self.flush_dirty(now);
    }

    /// Stops admitting (the listener closes) and sweeps idle
    /// connections; busy ones drain at their next response boundary, with a
    /// hard deadline backstop. Idle upstream connections are released
    /// immediately — ones with pending responses finish their exchanges.
    fn begin_drain(&mut self, now: Instant) {
        self.drain_deadline = Some(now + self.shared.config.drain_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        for index in 0..self.slab.len() {
            match &self.slab[index].endpoint {
                Some(Endpoint::Client(_)) => self.service(index, false),
                Some(Endpoint::Upstream(upstream)) if upstream.depth() == 0 => {
                    self.close_upstream(index);
                }
                _ => {}
            }
        }
    }

    /// Accepts until the listener would block, applying admission control.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => self.admit(stream, peer.ip()),
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                // Out of file descriptors: the pending connection stays in
                // the backlog, where it would re-fire listener readiness
                // forever. Spend the reserve fd to accept and immediately
                // close it — the client gets a clean RST now instead of a
                // connect that hangs until the flood subsides.
                Err(error) if matches!(error.raw_os_error(), Some(EMFILE) | Some(ENFILE)) => {
                    self.shed_on_fd_exhaustion();
                    return;
                }
                // Other persistent accept failures leave the backlog entry
                // in place, so the level-triggered listener readiness
                // re-fires immediately; back off briefly instead of
                // spinning this loop at 100% CPU.
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    /// The `EMFILE`/`ENFILE` path of [`EventLoop::accept_ready`]: release
    /// the reserve descriptor, use the freed slot to accept-and-close one
    /// backlogged connection, then reopen the reserve.
    fn shed_on_fd_exhaustion(&mut self) {
        self.reserve_fd.take();
        if let Some(listener) = &self.listener {
            if let Ok((stream, _)) = listener.accept() {
                self.shared
                    .stats
                    .accept_overflow
                    .fetch_add(1, Ordering::Relaxed);
                drop(stream);
            }
        }
        self.reserve_fd = std::fs::File::open("/dev/null").ok();
        if self.reserve_fd.is_none() {
            // Could not even reopen `/dev/null`: descriptors are still
            // exhausted, so pause rather than re-fire accept instantly.
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    /// Admission control. The kernel already load-balanced the connection
    /// to this loop's listener, so the loop that accepted it adopts it — no
    /// cross-loop hand-off on the admission path at all.
    fn admit(&mut self, stream: TcpStream, peer: IpAddr) {
        if self.shared.stopping.load(Ordering::Acquire) {
            return;
        }
        // `active` counts connections open across all loops; past the
        // limit the client gets a 503 instead of unbounded queueing.
        if self.shared.active.fetch_add(1, Ordering::AcqRel) >= self.shared.config.max_connections {
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
            self.reject(stream);
            return;
        }
        self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.adopt(stream, peer);
    }

    /// Answers a refused connection with `503` before closing it. The
    /// socket is still in blocking mode here and the body is far smaller
    /// than any socket buffer, so the write cannot stall the loop.
    fn reject(&self, mut stream: TcpStream) {
        self.shared
            .stats
            .rejected_connections
            .fetch_add(1, Ordering::Relaxed);
        let rope = response_rope(
            overloaded_response(self.shared.config.max_connections),
            true,
        );
        let _ = rope.write_to(&mut stream);
    }

    /// Allocates a slab slot, returning its index.
    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(index) => index,
            None => {
                self.slab.push(SlabEntry {
                    generation: 0,
                    endpoint: None,
                    dirty: false,
                });
                self.slab.len() - 1
            }
        }
    }

    /// Takes ownership of an admitted connection: non-blocking, slab slot,
    /// epoll registration.
    fn adopt(&mut self, stream: TcpStream, peer: IpAddr) {
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let index = self.alloc_slot();
        let token = token_of(index, self.slab[index].generation);
        let conn = Conn::new(stream, peer, token, &self.shared);
        // Edge-triggered with the full interest mask, registered exactly
        // once: the pumps drain the socket on every edge, so this
        // connection never pays another `epoll_ctl` until it closes.
        if self
            .epoll
            .add(
                conn.stream().as_raw_fd(),
                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                token,
            )
            .is_err()
        {
            self.free.push(index);
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        self.slab[index].endpoint = Some(Endpoint::Client(conn));
        self.open += 1;
        self.me.connections.fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        // A freshly adopted connection may already have bytes waiting:
        // pump it immediately rather than waiting for the registration's
        // initial readiness event.
        self.service(index, true);
    }

    /// Routes one readiness event to its endpoint, ignoring stale tokens.
    fn conn_event(&mut self, token: u64, events: u32, now: Instant) {
        let index = (token & u32::MAX as u64) as usize;
        let generation = (token >> 32) as u32;
        let Some(entry) = self.slab.get(index) else {
            return;
        };
        if entry.generation != generation {
            return;
        }
        let hangup = events & (EPOLLERR | EPOLLHUP) != 0;
        let peer_closed = events & EPOLLRDHUP != 0;
        let readable = events & EPOLLIN != 0 || peer_closed;
        match self.slab[index].endpoint.as_mut() {
            None => {}
            Some(Endpoint::Client(conn)) => {
                if hangup {
                    self.close_client(index);
                } else {
                    // EPOLLRDHUP without data: the read path observes the
                    // EOF itself.
                    if peer_closed {
                        conn.note_peer_closed();
                    }
                    self.service(index, readable);
                }
            }
            Some(Endpoint::Upstream(upstream)) => {
                if hangup {
                    self.fail_upstream(index, true, now);
                } else {
                    // Writability matters here beyond resuming writes: on a
                    // connecting socket it is the kernel's connect-success
                    // signal.
                    if events & EPOLLOUT != 0 {
                        upstream.note_writable();
                    }
                    if peer_closed {
                        upstream.note_peer_closed();
                    }
                    self.service_upstream(index, readable, now);
                }
            }
        }
    }

    /// Runs one step of the client connection at `index` and applies its
    /// verdict.
    ///
    /// A panic while servicing must cost only that connection, never the
    /// loop thread (which owns thousands of others): the unwind is caught
    /// and the offending connection closed.
    fn with_client(
        &mut self,
        index: usize,
        step: impl FnOnce(&mut Conn, &Shared, &Arc<LoopShared>) -> Verdict,
    ) {
        let (shared, me) = (&self.shared, &self.me);
        let Some(Endpoint::Client(conn)) = self.slab[index].endpoint.as_mut() else {
            return;
        };
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step(conn, shared, me)))
                .unwrap_or(Verdict::Close);
        if verdict == Verdict::Close {
            self.close_client(index);
        }
    }

    /// Applies readiness to one client connection — read, parse, dispatch —
    /// and leaves whatever it now owes its socket to the turn's flush.
    fn service(&mut self, index: usize, readable: bool) {
        self.with_client(index, |conn, shared, me| conn.pump(shared, me, readable));
        self.mark_dirty(index);
    }

    /// Puts `index` on the dirty list unless it is there already.
    fn mark_dirty(&mut self, index: usize) {
        let entry = &mut self.slab[index];
        if !entry.dirty {
            entry.dirty = true;
            self.dirty.push(index);
        }
    }

    /// The flush half of a turn: every dirty endpoint writes what the
    /// apply half queued for it — all of it in one vectored write while
    /// the socket accepts it. A flush can itself dirty endpoints (a failed
    /// upstream write answers or replays its exchanges), so the list is
    /// walked until it stops growing. An index whose occupant has closed
    /// since, or been replaced, costs at most one idle pass.
    fn flush_dirty(&mut self, now: Instant) {
        let mut next = 0;
        while let Some(&index) = self.dirty.get(next) {
            next += 1;
            self.slab[index].dirty = false;
            match &self.slab[index].endpoint {
                Some(Endpoint::Client(_)) => {
                    self.with_client(index, |conn, shared, me| conn.flush(shared, me));
                }
                Some(Endpoint::Upstream(_)) => self.service_upstream(index, false, now),
                None => {}
            }
        }
        self.dirty.clear();
    }

    /// Pumps one upstream connection: writes queued forwards, decodes
    /// member responses, and hands each to its waiting client slot.
    fn service_upstream(&mut self, index: usize, readable: bool, now: Instant) {
        let read_chunk = self.shared.config.read_chunk_bytes;
        let me = &self.me;
        let (verdict, delivered, node) = {
            let Some(Endpoint::Upstream(upstream)) = self.slab[index].endpoint.as_mut() else {
                return;
            };
            let node = upstream.node();
            let (verdict, delivered) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    upstream.pump(readable, read_chunk, me)
                }))
                .unwrap_or((UpstreamVerdict::Close, Vec::new()));
            (verdict, delivered, node)
        };
        for (origin, response) in delivered {
            self.deliver(node, origin, response);
        }
        if verdict == UpstreamVerdict::Close {
            self.fail_upstream(index, true, now);
        }
    }

    /// Releases a client connection: epoll deregistration, slab slot
    /// recycling (generation bump), gauge updates.
    fn close_client(&mut self, index: usize) {
        let Some(Endpoint::Client(conn)) = self.slab[index].endpoint.take() else {
            return;
        };
        let _ = self.epoll.delete(conn.stream().as_raw_fd());
        self.slab[index].generation = self.slab[index].generation.wrapping_add(1);
        self.free.push(index);
        self.open -= 1;
        self.shared
            .stats
            .open_connections
            .fetch_sub(1, Ordering::Relaxed);
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        self.me.connections.fetch_sub(1, Ordering::Relaxed);
        // Slots that die with the connection give up what they held.
        self.me
            .held_bytes
            .fetch_sub(conn.held_bytes(), Ordering::Relaxed);
    }

    /// Releases an upstream connection (no admission gauges — upstreams
    /// are not admitted connections) and removes it from its pool.
    /// Returns the connection so teardown can disposition its exchanges.
    fn close_upstream(&mut self, index: usize) -> Option<UpstreamConn> {
        let token = token_of(index, self.slab[index].generation);
        let Some(Endpoint::Upstream(upstream)) = self.slab[index].endpoint.take() else {
            return None;
        };
        let _ = self.epoll.delete(upstream.stream().as_raw_fd());
        self.slab[index].generation = self.slab[index].generation.wrapping_add(1);
        self.free.push(index);
        if let Some(pool) = self.pools.get_mut(&upstream.node()) {
            pool.conns.retain(|&existing| existing != token);
        }
        Some(upstream)
    }

    /// An upstream connection died. Exchanges already on the wire fail
    /// with `502` — the member may have executed them, so replaying is not
    /// safe. Exchanges still queued never left the gateway and are
    /// replayed on another member, so a killed node costs only its truly
    /// in-flight requests.
    ///
    /// The member is charged a failed exchange only when the connection
    /// owed it something — exchanges queued or on the wire, or a connect
    /// that never completed — and `blame_member` holds (it does not for
    /// the gateway's own drain backstop). A member closing an idle
    /// keep-alive, or closing after its last answer, is not failing.
    fn fail_upstream(&mut self, index: usize, blame_member: bool, now: Instant) {
        let Some(mut upstream) = self.close_upstream(index) else {
            return;
        };
        let node = upstream.node();
        let router = self.router();
        if blame_member && (upstream.is_connecting() || upstream.depth() > 0) {
            router.note_upstream_failure(node);
        }
        let unsent = upstream.take_unsent();
        let sent = upstream.take_pending();
        let load = self.pools.get(&node).map(|pool| Arc::clone(&pool.load));
        for origin in sent {
            if let Some(load) = &load {
                router.note_settled(load, origin.bytes);
            }
            router.note_upstream_error();
            self.complete_client(origin.token, origin.seq, upstream_failed_response(node));
        }
        for (rope, origin) in unsent {
            if let Some(load) = &load {
                router.note_settled(load, origin.bytes);
            }
            match router.plan_fallback(node, rope, origin.bytes, origin.track_submit) {
                Some(plan) => self.forward(origin.token, origin.seq, plan, now),
                None => {
                    router.note_upstream_error();
                    self.complete_client(origin.token, origin.seq, upstream_failed_response(node));
                }
            }
        }
    }

    /// Executes a forward plan: find (or open) an upstream connection to
    /// the planned member and queue the exchange on it; the turn's flush
    /// writes it, together with every other forward the turn queued there.
    /// Connect failures re-plan onto another member (within the retry
    /// budget and attempt ceiling), but the next attempt waits out an
    /// exponential backoff with equal jitter rather than hammering the
    /// cluster in a tight loop — the deadline scan re-fires it.
    fn forward(&mut self, token: u64, seq: u64, mut plan: ForwardPlan, now: Instant) {
        let router = self.router();
        if let Some(upstream_index) = self.upstream_for(&plan) {
            if let Some(Endpoint::Upstream(upstream)) = self.slab[upstream_index].endpoint.as_mut()
            {
                router.note_forward(&plan.load, plan.bytes);
                let origin = Origin {
                    token,
                    seq,
                    bytes: plan.bytes,
                    track_submit: plan.track_submit,
                };
                upstream.enqueue(plan.rope, origin);
                self.mark_dirty(upstream_index);
            } else {
                // Invariant: `upstream_for` returned a live upstream slot.
                // If the pool bookkeeping ever breaks it, fail this one
                // exchange with a clean 502 instead of panicking the loop
                // thread that owns every other connection.
                router.note_upstream_error();
                self.complete_client(token, seq, upstream_failed_response(plan.node));
            }
            return;
        }
        // Could not reach the member at all: nothing was sent, so the
        // exchange is free to try elsewhere.
        router.note_upstream_failure(plan.node);
        let failed = plan.node;
        plan.tried.push(failed);
        match router.replan(plan) {
            Some(next) => self.schedule_retry(token, seq, next, now),
            None => {
                router.note_upstream_error();
                self.complete_client(token, seq, upstream_failed_response(failed));
            }
        }
    }

    /// Parks a replanned forward until its backoff, counted from `now`,
    /// expires. The delay is exponential in the attempt count with *equal
    /// jitter* — uniform in `[base/2, base]` — so concurrent failures
    /// against a member spread their retries instead of arriving as a
    /// synchronized thundering herd. The loop's `TICK_MS` idle timeout
    /// bounds how late the deadline scan picks it back up.
    fn schedule_retry(&mut self, token: u64, seq: u64, plan: ForwardPlan, now: Instant) {
        let attempt = plan.tried.len().min(8) as u32;
        let base = RETRY_BACKOFF_BASE_MS
            .saturating_mul(1 << attempt)
            .min(RETRY_BACKOFF_CAP_MS);
        let delay = base / 2 + self.rng.next_bounded(base / 2 + 1);
        self.retries.push(PlannedRetry {
            due: now + Duration::from_millis(delay),
            token,
            seq,
            plan,
        });
    }

    /// The upstream connection a new exchange for `plan.node` should ride:
    /// the shallowest pooled connection, or a fresh one while the pool is
    /// below its per-loop budget and everything pooled is busy.
    fn upstream_for(&mut self, plan: &ForwardPlan) -> Option<usize> {
        let limit = self.router().config().upstreams_per_loop.max(1);
        let pool = self.pools.entry(plan.node).or_insert_with(|| NodePool {
            load: Arc::clone(&plan.load),
            node_line: node_line(plan.node),
            conns: Vec::new(),
        });
        let pooled = pool.conns.len();
        let mut best: Option<(usize, usize)> = None;
        for &token in &pool.conns {
            let index = (token & u32::MAX as u64) as usize;
            let Some(Endpoint::Upstream(upstream)) = self.slab[index].endpoint.as_ref() else {
                continue;
            };
            let depth = upstream.depth();
            if best.is_none_or(|(_, best_depth)| depth < best_depth) {
                best = Some((index, depth));
            }
        }
        let all_busy = best.is_none_or(|(_, depth)| depth > 0);
        if all_busy && pooled < limit {
            if let Some(index) = self.connect_upstream(plan) {
                return Some(index);
            }
        }
        best.map(|(index, _)| index)
    }

    /// Opens a new upstream connection to the planned member. The connect
    /// is non-blocking: the loop keeps serving its other connections while
    /// the handshake is in flight. Exchanges queue on the connecting
    /// connection; a failed connect surfaces as `EPOLLERR`/`EPOLLHUP` (or a
    /// write error) and [`EventLoop::fail_upstream`] replays everything
    /// still unsent on another member. A handshake that never completes is
    /// failed by the deadline scan after the router's `connect_timeout`.
    fn connect_upstream(&mut self, plan: &ForwardPlan) -> Option<usize> {
        let stream = connect_nonblocking(&plan.addr).ok()?;
        stream.set_nodelay(true).ok()?;
        let index = self.alloc_slot();
        let token = token_of(index, self.slab[index].generation);
        let upstream = UpstreamConn::new(stream, plan.node, self.shared.config.limits, true);
        // Edge-triggered like the client side; EPOLLOUT doubles as the
        // kernel's connect-success signal on the non-blocking handshake.
        if self
            .epoll
            .add(
                upstream.stream().as_raw_fd(),
                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                token,
            )
            .is_err()
        {
            self.free.push(index);
            return None;
        }
        self.slab[index].endpoint = Some(Endpoint::Upstream(upstream));
        if let Some(pool) = self.pools.get_mut(&plan.node) {
            pool.conns.push(token);
        }
        Some(index)
    }

    /// Delivers a member's response to the client slot that parked for it:
    /// load gauges released, submit responses remembered for owner-routed
    /// polls, and the frame handed over as it arrived, with the member's
    /// `X-Dandelion-Node` line for the pop that serializes it.
    fn deliver(&mut self, node: NodeId, origin: Origin, response: ResponseFrame) {
        let router = self.router();
        let node_line = match self.pools.get(&node) {
            Some(pool) => {
                router.note_settled(&pool.load, origin.bytes);
                // Any answered exchange is a data-path success: it refills
                // the member's retry budget and ends its failure streak.
                router.note_upstream_success(&pool.load);
                pool.node_line.clone()
            }
            None => node_line(node),
        };
        if origin.track_submit && response.status() == StatusCode::ACCEPTED {
            if let Ok(document) = JsonValue::parse(&utf8_lossy(&response.body())) {
                if let Some(id) = document
                    .get("invocation_id")
                    .and_then(JsonValue::as_str)
                    .and_then(InvocationId::parse)
                {
                    router.record_invocation(id, node);
                }
            }
        }
        let reply = Reply::Relayed {
            response,
            node_line,
        };
        self.complete_client(origin.token, origin.seq, reply);
    }

    /// Fills a client's waiting slot with its response and marks the
    /// connection dirty; nothing is written here. Stale tokens (the client
    /// closed first) are dropped; the in-flight gauge is released either
    /// way.
    fn complete_client(&mut self, token: u64, seq: u64, reply: impl Into<Reply>) {
        // Paired with the increment when the slot was parked; settled work
        // leaves the gauge even when the connection died before its
        // completion arrived.
        self.me.inflight.fetch_sub(1, Ordering::Relaxed);
        let index = (token & u32::MAX as u64) as usize;
        let generation = (token >> 32) as u32;
        let Some(entry) = self.slab.get_mut(index) else {
            return;
        };
        if entry.generation != generation {
            return;
        }
        if let Some(Endpoint::Client(conn)) = entry.endpoint.as_mut() {
            conn.complete(seq, reply.into());
            self.mark_dirty(index);
        }
    }

    /// Applies queued cross-thread messages: settled invocation responses
    /// and gateway forward plans.
    fn drain_inbox(&mut self, now: Instant) {
        for msg in self.me.take_messages() {
            match msg {
                LoopMsg::Complete {
                    token,
                    seq,
                    response,
                } => self.complete_client(token, seq, response),
                LoopMsg::Forward { token, seq, plan } => self.forward(token, seq, *plan, now),
            }
        }
    }

    /// Fires the per-connection deadlines, forward retries and drain
    /// backstop due at `now`.
    fn scan_deadlines(&mut self, now: Instant) {
        let force_close = self.drain_deadline.is_some_and(|deadline| now >= deadline);
        // Re-fire forwards whose backoff expired (all of them at the drain
        // backstop — they either go through or fail fast to the client).
        if !self.retries.is_empty() {
            let mut due = Vec::new();
            let mut index = 0;
            while index < self.retries.len() {
                if force_close || now >= self.retries[index].due {
                    due.push(self.retries.swap_remove(index));
                } else {
                    index += 1;
                }
            }
            for retry in due {
                self.forward(retry.token, retry.seq, retry.plan, now);
            }
        }
        for index in 0..self.slab.len() {
            enum Action {
                None,
                CloseIdle,
                CloseWriteStalled,
                FireRequestTimeout,
                FailUpstream,
                ForceCloseClient,
            }
            let action = match &self.slab[index].endpoint {
                None => Action::None,
                Some(Endpoint::Client(conn)) => {
                    if force_close {
                        Action::ForceCloseClient
                    } else {
                        match conn.due(now) {
                            Some(Due::Idle) => Action::CloseIdle,
                            Some(Due::WriteStalled) => Action::CloseWriteStalled,
                            Some(Due::RequestStalled) => Action::FireRequestTimeout,
                            None => Action::None,
                        }
                    }
                }
                Some(Endpoint::Upstream(upstream)) => {
                    let stalled = match &self.shared.app {
                        AppKind::Gateway(router) => {
                            let config = router.config();
                            // A connecting socket answers to the short
                            // connect budget; an established one to the
                            // response stall deadline.
                            let timeout = if upstream.is_connecting() {
                                config.connect_timeout
                            } else {
                                config.upstream_timeout
                            };
                            upstream.stalled(now, timeout)
                        }
                        AppKind::Local(_) => false,
                    };
                    if force_close || stalled {
                        Action::FailUpstream
                    } else {
                        Action::None
                    }
                }
            };
            match action {
                Action::None => {}
                Action::ForceCloseClient => self.close_client(index),
                Action::CloseIdle => {
                    self.shared
                        .stats
                        .idle_closed
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_client(index);
                }
                Action::CloseWriteStalled => {
                    // The client is not reading its response; there is no
                    // point writing an error it will not read either.
                    self.shared
                        .stats
                        .write_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_client(index);
                }
                Action::FailUpstream => self.fail_upstream(index, !force_close, now),
                Action::FireRequestTimeout => {
                    self.with_client(index, |conn, shared, _| {
                        conn.fire_request_timeout(shared);
                        Verdict::Keep
                    });
                    self.mark_dirty(index);
                }
            }
        }
    }
}
