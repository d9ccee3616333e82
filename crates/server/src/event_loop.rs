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
//! it. Cross-thread traffic arrives through each loop's inbox — a `Vec`
//! behind one `std::sync::Mutex`, taken in whole batches by swapping it
//! with the loop's own: the thread that settles an invocation posts its
//! response ([`LoopMsg`]). The `eventfd` wakeup is conditional: a post
//! writes it only when it finds the loop asleep (a `sleeping` flag under the
//! same lock, set around `epoll_wait`), so a completion storm against a busy
//! loop coalesces into zero syscalls — the posted/wakeup counters in
//! `/v1/stats` prove the coalescing.
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
//! framed and dispatched — on a gateway a forward joins an upstream's outbox
//! as its request is dispatched, a control job's exchanges the outboxes of
//! upstreams of their own — member responses are framed and put into the
//! client slots that wait for them, and the inbox is drained: settled
//! invocations fill their slots.
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
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dandelion_common::rng::SplitMix64;
use dandelion_common::{
    check_failpoint, fail_point, failpoints_enabled, utf8_lossy, BatchProgress, InvocationId,
    JsonValue, NodeId, SharedBytes,
};
use dandelion_http::{HttpResponse, ResponseFrame, StatusCode};

use crate::conn::{overloaded_response, response_rope, ClientSlot, Conn, Due, Reply, Verdict};
use crate::gateway::upstream::{Forwarded, Origin, UpstreamConn, UpstreamVerdict};
use crate::gateway::{
    node_line, upstream_failed_response, Effects, ForwardPlan, MemberLoad, Router,
};
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

/// A message for one event loop, posted by the thread that settled a
/// synchronous invocation: its response for the slot that waits for it.
pub(crate) struct LoopMsg {
    pub(crate) slot: ClientSlot,
    pub(crate) response: HttpResponse,
}

/// What other threads hand one loop, and whether it sleeps, under one
/// lock: each critical section is a push, a swap or a flag.
#[derive(Default)]
struct Inbox {
    /// Posted and not yet taken by the loop.
    messages: Vec<LoopMsg>,
    /// Set by the loop just before it blocks in `epoll_wait` with an empty
    /// inbox; taken by the first post into the sleep, which is the only post
    /// that signals the eventfd.
    sleeping: bool,
    /// Messages ever posted to this inbox.
    posted: u64,
    /// Eventfd signals posts wrote; `posted - wakeups` is the number of posts
    /// that found the loop awake and cost no syscall.
    wakeups: u64,
}

/// The cross-thread half of one event loop: its inbox plus the eventfd that
/// wakes the loop to take it. Shared with every completion callback
/// targeting this loop.
pub(crate) struct LoopShared {
    inbox: Mutex<Inbox>,
    waker: EventFd,
    /// Gauge: connections owned by this loop. Raised by `adopt`, drained by
    /// `close`.
    pub(crate) connections: AtomicUsize,
    /// Gauge: invocations in flight for connections on this loop (parked
    /// `Waiting` slots, including proxied upstream requests).
    pub(crate) inflight: AtomicUsize,
    /// Gauge: request-body bytes this loop's connections have taken in and
    /// not yet answered (what their byte gates weigh, summed).
    pub(crate) held_bytes: AtomicUsize,
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
            inbox: Mutex::default(),
            waker: EventFd::new()?,
            connections: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            held_bytes: AtomicUsize::new(0),
            writes: AtomicU64::new(0),
            messages_written: AtomicU64::new(0),
        })
    }

    /// The inbox, locked. No section under the lock runs foreign code or can
    /// stop half-way through a push, a swap or a flag, so a poisoned lock is
    /// recovered.
    fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// The inbox's stats, read together: messages waiting, messages ever
    /// posted, and eventfd signals those posts wrote.
    pub(crate) fn inbox_stats(&self) -> (usize, u64, u64) {
        let inbox = self.inbox();
        (inbox.messages.len(), inbox.posted, inbox.wakeups)
    }

    /// Enqueues a message, waking the loop only if it is (going) asleep.
    ///
    /// Of the posts into one sleep, the first takes the flag and is the only
    /// one to write the eventfd — after unlocking, so the syscall holds up no
    /// other producer; a loop that is awake costs a post no syscall at all.
    /// A post and the loop's [`prepare_sleep`](Self::prepare_sleep) take the
    /// same lock, so either the post lands first (and the loop does not
    /// block) or it finds the flag set (and signals).
    pub(crate) fn post(&self, msg: LoopMsg) {
        fail_point!("loop/post");
        let signal = {
            let mut inbox = self.inbox();
            inbox.messages.push(msg);
            inbox.posted += 1;
            let signal = std::mem::take(&mut inbox.sleeping);
            inbox.wakeups += u64::from(signal);
            signal
        };
        if signal {
            self.waker.signal();
        }
    }

    /// Wakes the loop without a message (shutdown broadcast). Always
    /// signals: shutdown is rare and must never be coalesced away.
    pub(crate) fn wake(&self) {
        fail_point!("loop/wakeup");
        self.inbox().sleeping = false;
        self.waker.signal();
    }

    /// Announces the loop is about to block, unless a message waits: then it
    /// returns `false` and the caller must poll instead of block.
    fn prepare_sleep(&self) -> bool {
        let mut inbox = self.inbox();
        inbox.sleeping = inbox.messages.is_empty();
        inbox.sleeping
    }

    /// The loop is awake again; producers go back to skipping the signal.
    fn cancel_sleep(&self) {
        self.inbox().sleeping = false;
    }

    /// Clears a delivered eventfd signal (called on its epoll event only,
    /// not once per iteration).
    fn clear_signal(&self) {
        self.waker.drain();
    }

    /// Swaps every waiting message into `taken`, which must be empty, and
    /// leaves its capacity to the inbox: the loop keeps the one vector from
    /// turn to turn, so a post allocates nothing once both have grown.
    fn take_messages(&self, taken: &mut Vec<LoopMsg>) {
        debug_assert!(taken.is_empty());
        std::mem::swap(&mut self.inbox().messages, taken);
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
    slot: ClientSlot,
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
    /// The messages [`EventLoop::drain_inbox`] took, swapped with the inbox's
    /// and emptied each turn, capacity kept.
    taken: Vec<LoopMsg>,
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
    /// What routing and cluster transitions left this loop to apply.
    effects: Effects,
    /// Loop 0 of a gateway: when the next probe pass is due, so a turn with
    /// none due takes no lock. `None` elsewhere and once probing stopped.
    next_probe: Option<Instant>,
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
        let next_probe =
            (index == 0 && matches!(shared.app, AppKind::Gateway(_))).then(Instant::now);
        Ok(EventLoop {
            shared,
            me,
            epoll,
            listener: Some(listener),
            slab: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            taken: Vec::new(),
            open: 0,
            pools: HashMap::new(),
            drain_deadline: None,
            retries: Vec::new(),
            rng: SplitMix64::new(0xBAC0_0FF5 ^ index as u64),
            effects: Effects::default(),
            next_probe,
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
                LISTENER_TOKEN => self.accept_ready(now),
                token => self.conn_event(token, event.events, now),
            }
        }
        self.drain_inbox();
        if self.next_probe.is_some_and(|due| now >= due) {
            self.next_probe = self.router().probe(now, &mut self.effects);
            self.apply(now);
        }
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
                Some(Endpoint::Client(_)) => self.service(index, false, now),
                Some(Endpoint::Upstream(upstream)) if upstream.depth() == 0 => {
                    self.close_upstream(index);
                }
                _ => {}
            }
        }
    }

    /// Accepts until the listener would block, applying admission control.
    fn accept_ready(&mut self, now: Instant) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => self.admit(stream, peer.ip(), now),
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
    fn admit(&mut self, stream: TcpStream, peer: IpAddr, now: Instant) {
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
        self.adopt(stream, peer, now);
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
    fn adopt(&mut self, stream: TcpStream, peer: IpAddr, now: Instant) {
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        let index = self.alloc_slot();
        let token = token_of(index, self.slab[index].generation);
        let conn = Conn::new(stream, peer, token, &self.shared, now);
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
        self.service(index, true, now);
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
                    self.service(index, readable, now);
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
                        upstream.note_writable(now);
                    }
                    if peer_closed {
                        upstream.note_peer_closed();
                    }
                    self.service_upstream(index, readable, now);
                }
            }
        }
    }

    /// Runs one step of the client connection at `index` at `now`, applies
    /// its verdict, and on a gateway routes the requests the step parked.
    ///
    /// A panic while servicing must cost only that connection, never the
    /// loop thread (which owns thousands of others): the unwind is caught
    /// and the offending connection closed.
    fn with_client(
        &mut self,
        index: usize,
        now: Instant,
        step: impl FnOnce(&mut Conn, &Shared, &Arc<LoopShared>) -> Verdict,
    ) {
        let (shared, me) = (&self.shared, &self.me);
        let Some(Endpoint::Client(conn)) = self.slab[index].endpoint.as_mut() else {
            return;
        };
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step(conn, shared, me)))
                .unwrap_or(Verdict::Close);
        let mut routed = std::mem::take(&mut conn.routed);
        if verdict == Verdict::Close {
            self.close_client(index);
        }
        if let Some(router) = (!routed.is_empty()).then(|| self.router()) {
            for (slot, request) in routed.drain(..) {
                let answer = router.dispatch(&request, slot, &mut self.effects);
                // In flight once routed: the router's own answers never count.
                self.me.inflight.fetch_add(1, Ordering::Relaxed);
                if let Some(response) = answer {
                    self.complete_client(slot, response);
                }
            }
            self.apply(now);
        }
        // The emptied list goes back for the connection's next requests.
        if let Some(Endpoint::Client(conn)) = self.slab[index].endpoint.as_mut() {
            if conn.routed.is_empty() {
                conn.routed = routed;
            }
        }
    }

    /// Applies readiness to one client connection — read, parse, dispatch —
    /// and leaves whatever it now owes its socket to the turn's flush.
    fn service(&mut self, index: usize, readable: bool, now: Instant) {
        self.with_client(index, now, |conn, shared, me| {
            conn.pump(shared, me, readable, now)
        });
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
                    self.with_client(index, now, |conn, shared, me| conn.flush(shared, me, now));
                }
                Some(Endpoint::Upstream(_)) => self.service_upstream(index, false, now),
                None => {}
            }
        }
        self.dirty.clear();
    }

    /// Pumps one upstream connection: writes queued forwards, decodes
    /// member responses, and hands each to its waiting client slot — or, on
    /// a control exchange's own connection, to the cluster.
    fn service_upstream(&mut self, index: usize, readable: bool, now: Instant) {
        let me = &self.me;
        let (verdict, delivered) = {
            let Some(Endpoint::Upstream(upstream)) = self.slab[index].endpoint.as_mut() else {
                return;
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                upstream.pump(readable, me, now)
            }))
            .unwrap_or((UpstreamVerdict::Close, Vec::new()))
        };
        for (origin, response) in delivered {
            match origin {
                Origin::Client(forwarded) => self.deliver(forwarded, response),
                Origin::Cluster(call) => {
                    self.router().settle(call, Ok(&response), &mut self.effects);
                }
            }
        }
        if verdict == UpstreamVerdict::Close {
            self.fail_upstream(index, true, now);
        }
        self.apply(now);
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
        if let Some(pool) = upstream.node().and_then(|node| self.pools.get_mut(&node)) {
            pool.conns.retain(|&existing| existing != token);
        }
        Some(upstream)
    }

    /// An upstream connection died, or a control exchange's own connection
    /// has its answer. Exchanges already on the wire fail with `502` — the
    /// member may have executed them. Exchanges still queued never left the
    /// gateway and are replayed on another member, so a killed node costs
    /// only its truly in-flight requests. A control exchange is settled as
    /// failed, never replayed.
    ///
    /// A pooled connection's member is charged a failed exchange only when
    /// the connection owed it something (exchanges, or an unfinished
    /// connect) and `blame_member` holds (not for the drain backstop):
    /// closing an idle keep-alive, or after the last answer, is not failing.
    fn fail_upstream(&mut self, index: usize, blame_member: bool, now: Instant) {
        let Some(mut upstream) = self.close_upstream(index) else {
            return;
        };
        if let Some(node) = upstream.node() {
            if blame_member && (upstream.is_connecting() || upstream.depth() > 0) {
                self.router().note_upstream_failure(node);
            }
        }
        let router = self.router();
        let unsent = upstream
            .take_unsent()
            .into_iter()
            .map(|(rope, o)| (Some(rope), o));
        let sent = upstream
            .take_pending()
            .into_iter()
            .map(|origin| (None, origin));
        for (unsent, origin) in sent.chain(unsent) {
            let forwarded = match origin {
                Origin::Client(forwarded) => forwarded,
                Origin::Cluster(call) => {
                    router.settle(call, Err("the member did not answer"), &mut self.effects);
                    continue;
                }
            };
            let node = forwarded.node;
            if let Some(pool) = self.pools.get(&node) {
                router.note_settled(&pool.load, forwarded.bytes);
            }
            let (slot, bytes) = (forwarded.slot, forwarded.bytes);
            let replay = unsent
                .and_then(|rope| router.plan_fallback(node, rope, bytes, forwarded.track_submit));
            match replay {
                Some(plan) => self.forward(slot, plan, now),
                None => {
                    router.note_upstream_error();
                    self.complete_client(slot, upstream_failed_response(node));
                }
            }
        }
        self.apply(now);
    }

    /// Executes a forward plan: find (or open) an upstream connection to
    /// the planned member and queue the exchange on it; the turn's flush
    /// writes it, together with every other forward the turn queued there.
    /// Connect failures re-plan onto another member (within the retry
    /// budget and attempt ceiling), but the next attempt waits out an
    /// exponential backoff with equal jitter rather than hammering the
    /// cluster in a tight loop — the deadline scan re-fires it.
    fn forward(&mut self, slot: ClientSlot, mut plan: ForwardPlan, now: Instant) {
        let router = self.router();
        if let Some(upstream_index) = self.upstream_for(&plan, now) {
            if let Some(Endpoint::Upstream(upstream)) = self.slab[upstream_index].endpoint.as_mut()
            {
                router.note_forward(&plan.load, plan.bytes);
                let origin = Origin::Client(Forwarded {
                    node: plan.node,
                    slot,
                    bytes: plan.bytes,
                    track_submit: plan.track_submit,
                });
                upstream.enqueue(plan.rope, origin, now);
                self.mark_dirty(upstream_index);
            } else {
                // Invariant: `upstream_for` returned a live upstream slot.
                // If the pool bookkeeping ever breaks it, fail this one
                // exchange with a clean 502 instead of panicking the loop
                // thread that owns every other connection.
                router.note_upstream_error();
                self.complete_client(slot, upstream_failed_response(plan.node));
            }
            return;
        }
        // Could not reach the member at all: nothing was sent, so the
        // exchange is free to try elsewhere.
        router.note_upstream_failure(plan.node);
        let failed = plan.node;
        plan.tried.push(failed);
        match router.replan(plan) {
            Some(next) => self.schedule_retry(slot, next, now),
            None => {
                router.note_upstream_error();
                self.complete_client(slot, upstream_failed_response(failed));
            }
        }
    }

    /// Parks a replanned forward until its backoff, counted from `now`,
    /// expires. The delay is exponential in the attempt count with *equal
    /// jitter* — uniform in `[base/2, base]` — so concurrent failures
    /// against a member spread their retries instead of arriving as a
    /// synchronized thundering herd. The loop's `TICK_MS` idle timeout
    /// bounds how late the deadline scan picks it back up.
    fn schedule_retry(&mut self, slot: ClientSlot, plan: ForwardPlan, now: Instant) {
        let attempt = plan.tried.len().min(8) as u32;
        let base = RETRY_BACKOFF_BASE_MS
            .saturating_mul(1 << attempt)
            .min(RETRY_BACKOFF_CAP_MS);
        let delay = base / 2 + self.rng.next_bounded(base / 2 + 1);
        self.retries.push(PlannedRetry {
            due: now + Duration::from_millis(delay),
            slot,
            plan,
        });
    }

    /// The upstream connection a new exchange for `plan.node` should ride:
    /// the shallowest pooled connection, or a fresh one while the pool is
    /// below its per-loop budget and everything pooled is busy.
    fn upstream_for(&mut self, plan: &ForwardPlan, now: Instant) -> Option<usize> {
        let limit = self.router().config.upstreams_per_loop.max(1);
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
            if let Some(index) = self.connect_upstream(&plan.addr, Some(plan.node), now) {
                return Some(index);
            }
        }
        best.map(|(index, _)| index)
    }

    /// Opens a new upstream connection to `addr`, into `node`'s pool (none:
    /// for one control exchange). The connect is non-blocking and exchanges
    /// queue on the connecting connection; a failed connect surfaces as
    /// `EPOLLERR`/`EPOLLHUP` (or a write error) and [`EventLoop::fail_upstream`]
    /// replays what is unsent. The deadline scan fails a handshake that never
    /// completes.
    fn connect_upstream(
        &mut self,
        addr: &SocketAddr,
        node: Option<NodeId>,
        now: Instant,
    ) -> Option<usize> {
        let stream = connect_nonblocking(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        let index = self.alloc_slot();
        let token = token_of(index, self.slab[index].generation);
        let upstream = UpstreamConn::new(stream, node, self.shared.config.limits, true, now);
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
        if let Some(pool) = node.and_then(|node| self.pools.get_mut(&node)) {
            pool.conns.push(token);
        }
        Some(index)
    }

    /// Applies what routing and cluster transitions left to do, outside the
    /// cluster's lock: answers fill their slots, forwards join upstreams,
    /// and each call goes out on an upstream of its own (a probe the
    /// `gateway/probe` failpoint fails does not). A call that cannot be sent
    /// is settled as failed at once, which may leave more to apply.
    fn apply(&mut self, now: Instant) {
        loop {
            let Effects {
                forwards,
                calls,
                answers,
            } = std::mem::take(&mut self.effects);
            if forwards.is_empty() && calls.is_empty() && answers.is_empty() {
                return;
            }
            for (slot, response) in answers {
                self.complete_client(slot, response);
            }
            for (slot, plan) in forwards {
                self.forward(slot, plan, now);
            }
            for call in calls {
                let faulted = call.probe
                    && failpoints_enabled()
                    && check_failpoint("gateway/probe").is_some();
                let sent = (!faulted)
                    .then(|| self.connect_upstream(&call.addr, None, now))
                    .flatten();
                match sent.map(|index| (index, self.slab[index].endpoint.as_mut())) {
                    Some((index, Some(Endpoint::Upstream(upstream)))) => {
                        upstream.enqueue(call.request, Origin::Cluster(call.id), now);
                        self.mark_dirty(index);
                    }
                    _ => {
                        let unsent = Err("the call was not sent");
                        self.router().settle(call.id, unsent, &mut self.effects);
                    }
                }
            }
        }
    }

    /// Delivers a member's response to the client slot that parked for it:
    /// load gauges released, submit responses remembered for owner-routed
    /// polls, and the frame handed over as it arrived, with the member's
    /// `X-Dandelion-Node` line for the pop that serializes it.
    fn deliver(&mut self, origin: Forwarded, response: ResponseFrame) {
        let router = self.router();
        let node = origin.node;
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
        self.complete_client(origin.slot, reply);
    }

    /// Fills a client's waiting slot with its response and marks the
    /// connection dirty; nothing is written here. Stale tokens (the client
    /// closed first) are dropped; the in-flight gauge is released either
    /// way.
    fn complete_client(&mut self, slot: ClientSlot, reply: impl Into<Reply>) {
        // Paired with the increment when the slot was parked; settled work
        // leaves the gauge even when the connection died before its
        // completion arrived.
        self.me.inflight.fetch_sub(1, Ordering::Relaxed);
        let index = (slot.token & u32::MAX as u64) as usize;
        let generation = (slot.token >> 32) as u32;
        let Some(entry) = self.slab.get_mut(index) else {
            return;
        };
        if entry.generation != generation {
            return;
        }
        if let Some(Endpoint::Client(conn)) = entry.endpoint.as_mut() {
            conn.complete(slot.seq, reply.into());
            self.mark_dirty(index);
        }
    }

    /// Applies queued cross-thread messages: settled invocation responses.
    fn drain_inbox(&mut self) {
        let mut taken = std::mem::take(&mut self.taken);
        self.me.take_messages(&mut taken);
        for msg in taken.drain(..) {
            self.complete_client(msg.slot, msg.response);
        }
        self.taken = taken;
    }

    /// Fires the per-connection deadlines, forward retries and drain
    /// backstop due at `now`.
    fn scan_deadlines(&mut self, now: Instant) {
        let force_close = self.drain_deadline.is_some_and(|deadline| now >= deadline);
        // Re-fire forwards whose backoff expired (all of them at the drain
        // backstop — they either go through or fail fast to the client).
        if !self.retries.is_empty() {
            let (due, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.retries)
                .into_iter()
                .partition(|retry| force_close || now >= retry.due);
            self.retries = waiting;
            for retry in due {
                self.forward(retry.slot, retry.plan, now);
            }
        }
        for index in 0..self.slab.len() {
            match &self.slab[index].endpoint {
                None => {}
                Some(Endpoint::Client(_)) if force_close => self.close_client(index),
                Some(Endpoint::Client(conn)) => match conn.due(now) {
                    None => {}
                    Some(Due::RequestStalled) => {
                        self.with_client(index, now, |conn, shared, _| {
                            conn.fire_request_timeout(shared);
                            Verdict::Keep
                        });
                        self.mark_dirty(index);
                    }
                    // An idle keep-alive, or a client that is not reading its
                    // response: there is no point writing an error it will
                    // not read either.
                    Some(due) => {
                        let stats = &self.shared.stats;
                        let counter = match due {
                            Due::Idle => &stats.idle_closed,
                            _ => &stats.write_timeouts,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        self.close_client(index);
                    }
                },
                Some(Endpoint::Upstream(upstream)) => {
                    let stalled = match &self.shared.app {
                        AppKind::Gateway(router) => upstream.stalled(now, &router.config),
                        AppKind::Local(_) => false,
                    };
                    if force_close || stalled {
                        self.fail_upstream(index, !force_close, now);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(token: u64, seq: u64) -> LoopMsg {
        LoopMsg {
            slot: ClientSlot { token, seq },
            response: HttpResponse::ok(Vec::new()),
        }
    }

    #[test]
    fn posts_into_a_sleep_signal_the_eventfd_once() {
        let me = LoopShared::new().unwrap();
        assert!(me.prepare_sleep());
        for seq in 0..3 {
            me.post(msg(0, seq));
        }
        assert_eq!(me.inbox_stats(), (3, 3, 1));
        assert_eq!(me.waker.drain(), 1);
    }

    #[test]
    fn a_post_to_an_awake_loop_signals_nothing() {
        let me = LoopShared::new().unwrap();
        me.post(msg(0, 0));
        assert!(!me.prepare_sleep());
        me.cancel_sleep();
        me.post(msg(0, 1));
        assert_eq!(me.inbox_stats(), (2, 2, 0));
        assert_eq!(me.waker.drain(), 0);
    }

    #[test]
    fn prepare_sleep_refuses_while_a_message_waits_and_accepts_once_taken() {
        let me = LoopShared::new().unwrap();
        me.post(msg(0, 0));
        assert!(!me.prepare_sleep());
        let mut taken = Vec::new();
        me.take_messages(&mut taken);
        assert_eq!(taken.len(), 1);
        assert!(me.prepare_sleep());
        me.post(msg(0, 1));
        assert_eq!(me.inbox_stats(), (1, 2, 1));
        assert_eq!(me.waker.drain(), 1);
    }

    #[test]
    fn wake_always_signals() {
        let me = LoopShared::new().unwrap();
        assert!(me.prepare_sleep());
        me.wake();
        // The loop is awake now, and a wake signals all the same.
        me.wake();
        assert_eq!(me.waker.drain(), 2);
        // The first wake took the flag: a post finds the loop awake.
        me.post(msg(0, 0));
        assert_eq!(me.inbox_stats(), (1, 1, 0));
        assert_eq!(me.waker.drain(), 0);
    }

    #[test]
    fn inbox_depth_is_exact_after_posts_and_a_take() {
        let me = LoopShared::new().unwrap();
        for seq in 0..5 {
            me.post(msg(0, seq));
            assert_eq!(me.inbox_stats().0, seq as usize + 1);
        }
        let mut taken = Vec::new();
        me.take_messages(&mut taken);
        assert_eq!(me.inbox_stats().0, 0);
        let order: Vec<u64> = taken.drain(..).map(|msg| msg.slot.seq).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        me.post(msg(0, 5));
        me.post(msg(0, 6));
        assert_eq!(me.inbox_stats(), (2, 7, 0));
    }

    /// The loop's wait protocol against eight producers: every message
    /// arrives, each producer's in the order it posted them, and no wait
    /// times out while a message posted before the timeout is untaken.
    #[test]
    fn concurrent_posts_lose_nothing_keep_order_and_miss_no_wakeup() {
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: u64 = 10_000;
        let me = Arc::new(LoopShared::new().unwrap());
        // Per producer, how many of its posts have returned.
        let returned: Arc<Vec<AtomicU64>> =
            Arc::new((0..PRODUCERS).map(|_| AtomicU64::new(0)).collect());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let me = Arc::clone(&me);
                let returned = Arc::clone(&returned);
                std::thread::spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        me.post(msg(producer as u64, seq));
                        returned[producer].store(seq + 1, Ordering::Release);
                    }
                })
            })
            .collect();

        let epoll = Epoll::new().unwrap();
        epoll.add(me.waker.raw_fd(), EPOLLIN, WAKER_TOKEN).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 1];
        let mut seen = [0u64; PRODUCERS];
        let mut taken = Vec::new();
        let mut total = 0;
        while total < PRODUCERS as u64 * PER_PRODUCER {
            let sleeping = me.prepare_sleep();
            let timeout_ms = if sleeping { 2_000 } else { 0 };
            let ready = epoll.wait(&mut events, timeout_ms).unwrap();
            let returned_by_then: Vec<u64> = returned
                .iter()
                .map(|count| count.load(Ordering::Acquire))
                .collect();
            me.cancel_sleep();
            // A post that lands after the wait timed out but before
            // `cancel_sleep` still signals, so it shows here, not as a miss.
            let signalled = me.waker.drain() > 0;
            if sleeping && ready == 0 && !signalled {
                for producer in 0..PRODUCERS {
                    assert!(
                        seen[producer] >= returned_by_then[producer],
                        "lost wake-up: message {} of producer {producer} was posted \
                         before a wait that timed out",
                        seen[producer]
                    );
                }
            }
            me.take_messages(&mut taken);
            for msg in taken.drain(..) {
                let producer = msg.slot.token as usize;
                assert_eq!(
                    msg.slot.seq, seen[producer],
                    "producer {producer}'s messages arrived out of order"
                );
                seen[producer] += 1;
                total += 1;
            }
        }
        for producer in producers {
            producer.join().unwrap();
        }
        let (depth, posted, wakeups) = me.inbox_stats();
        assert_eq!((depth, posted), (0, PRODUCERS as u64 * PER_PRODUCER));
        assert!(wakeups <= posted);
    }
}
