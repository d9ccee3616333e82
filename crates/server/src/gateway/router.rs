//! The gateway router: one front door for a cluster of worker nodes.
//!
//! The router owns the membership table and decides, per request, whether
//! the gateway answers locally (cluster control plane, stats, health) or
//! forwards to a member over the v1 HTTP protocol. It routes a request by
//! the record its head's one scan left (method, target, body), never a
//! decoded header map. Forwarding is planned here but executed by the event
//! loops: the router returns a [`ForwardPlan`] carrying the bytes to forward
//! — the request as received, its `Connection` lines cut ([`forward_rope`])
//! — and the chosen member, and the loop pipelines it onto a pooled upstream
//! connection.
//!
//! Routing is load-aware with composition affinity: invocations of a
//! composition prefer a stable member (FNV hash of the name over the
//! advertisers) so warm state — registered functions, cached contexts —
//! concentrates, but a preferred member whose gateway-side load score runs
//! far past the cluster minimum loses the request to the least-loaded
//! member. Status polls follow the member that accepted the submission
//! through a bounded invocation-owner map.
//!
//! The router's one background thread, the control thread, runs the
//! blocking member calls no event loop may make. It waits for a control
//! job (a registration broadcast, a join, a drain relay) until the next
//! probe pass is due, and checks after every job whether one is, so neither
//! starves the other; a job that arrives during a pass waits it out, at most
//! members × `probe_timeout`. A pass probes every member's
//! `GET /v1/compositions` and feeds each outcome, like every failed exchange
//! the loops report, to the member's health machine ([`Member::observe`]):
//! it refreshes the advertised compositions (changes re-advertise
//! automatically), ejects and re-admits members, and says when a draining
//! member is done; the router counts the transitions and removes the row.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use dandelion_common::rng::fnv1a;
use dandelion_common::{
    check_failpoint, failpoint_stats_json, failpoints_enabled, init_failpoints_from_env,
    utf8_lossy, InvocationId, JsonValue, NodeId, Rope, SharedBytes,
};
use dandelion_core::frontend::error_body;
use dandelion_http::{
    HttpRequest, HttpResponse, Method, RequestFrame, ResponseFrame, StatusCode, Uri,
};
use parking_lot::{Mutex, RwLock};

use crate::client::HttpClientConnection;
use crate::gateway::membership::{Member, MemberLoad, MemberState, Observation, Transition};

/// Invocation-owner entries retained for poll routing; the oldest entries
/// are evicted first once the map is full.
const INVOCATION_ROUTE_CAPACITY: usize = 64 * 1024;

/// How much worse (in load-score terms) the affinity-preferred member may
/// be before the router abandons affinity for the least-loaded member:
/// past `2 * min + SLACK` the preference loses.
const AFFINITY_LOAD_SLACK: usize = 16;

/// FNV-1a over the composition name: the stable hash behind
/// composition-affinity placement (`hash % eligible members`).
pub fn composition_affinity_hash(composition: &str) -> u64 {
    fnv1a(composition.as_bytes())
}

/// Tunables of the gateway router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Cadence of the per-member health probe (`GET /v1/compositions`), the
    /// tick of every member's health machine.
    pub probe_interval: Duration,
    /// Socket timeout of one probe or control-plane call to a member.
    pub probe_timeout: Duration,
    /// Timeout of one upstream `connect` on the data path (the loops call
    /// this inline, so it must stay short).
    pub connect_timeout: Duration,
    /// The streak rule's length: failures, probes or exchanges, with no
    /// answered exchange and no probe success between them that eject a
    /// member (and remove a draining one that stopped answering probes).
    pub fail_threshold: u32,
    /// Pipelined upstream connections each event loop keeps per member.
    pub upstreams_per_loop: usize,
    /// Deadline for an upstream with pending responses to make progress;
    /// past it the connection is failed and its exchanges answered `502`.
    pub upstream_timeout: Duration,
    /// Members tried (connect + plan) before a forward gives up with `502`.
    pub max_forward_attempts: u32,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            connect_timeout: Duration::from_millis(250),
            fail_threshold: 3,
            upstreams_per_loop: 2,
            upstream_timeout: Duration::from_secs(30),
            max_forward_attempts: 3,
        }
    }
}

/// A forward decision: which member gets the request, and the request
/// already serialized for the wire (body by reference — the gateway never
/// copies payloads between the two sockets).
pub(crate) struct ForwardPlan {
    /// The chosen member.
    pub node: NodeId,
    /// Its v1 HTTP listener.
    pub addr: SocketAddr,
    /// The member's gateway-side load gauges (shared, lock-free updates).
    pub load: Arc<MemberLoad>,
    /// The request as it goes on the wire.
    pub rope: Rope,
    /// Wire size of `rope`, counted against the member's queued bytes.
    pub bytes: usize,
    /// Whether a `202` response carries an invocation id to remember for
    /// owner-routed polls.
    pub track_submit: bool,
    /// The composition being invoked, when re-planning may use affinity.
    pub composition: Option<String>,
    /// Members already tried for this request (connect failures); replans
    /// exclude them.
    pub tried: Vec<NodeId>,
}

/// What the router decided about one request.
pub(crate) enum GatewayReply {
    /// The gateway answers this itself.
    Respond(HttpResponse),
    /// Forward to a member; the event loop executes the plan.
    Forward(ForwardPlan),
    /// A blocking control-plane operation (member probes, broadcasts, drain
    /// relays): the connection parks a response slot and the router's
    /// control thread posts the completion back — loop threads never make
    /// blocking member calls.
    Control(ControlOp),
}

/// One deferred control-plane operation, executed on the control thread.
pub(crate) enum ControlOp {
    /// `POST /v1/compositions`: broadcast the registration to every member.
    RegisterComposition {
        /// The DSL body, by reference.
        body: SharedBytes,
    },
    /// `POST /v1/cluster/members`: probe and admit a joining member.
    Join {
        /// The `{"addr": ...}` JSON body.
        body: SharedBytes,
    },
    /// `POST /v1/cluster/drain/{node}`: mark draining and relay the signal.
    Drain {
        /// The node id path segment, still unparsed.
        node: String,
    },
}

/// A control-plane operation paired with the completion that delivers its
/// response back to the owning event loop.
type ControlJob = (ControlOp, Box<dyn FnOnce(HttpResponse) + Send>);

/// Bounded invocation-id → owner map for poll routing. Evicted ids are
/// remembered (in a second bounded FIFO) so a poll for one answers a
/// structured `410 result_evicted` instead of being misrouted to an
/// arbitrary member that never heard of it.
struct InvocationOwners {
    owners: HashMap<InvocationId, NodeId>,
    order: VecDeque<InvocationId>,
    evicted: HashSet<InvocationId>,
    evicted_order: VecDeque<InvocationId>,
}

impl InvocationOwners {
    fn record(&mut self, id: InvocationId, node: NodeId) {
        // A resubmitted id is live again: forget any earlier eviction.
        if self.evicted.remove(&id) {
            self.evicted_order.retain(|old| *old != id);
        }
        if self.owners.insert(id, node).is_none() {
            self.order.push_back(id);
            while self.order.len() > INVOCATION_ROUTE_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.owners.remove(&evicted);
                    if self.evicted.insert(evicted) {
                        self.evicted_order.push_back(evicted);
                        while self.evicted_order.len() > INVOCATION_ROUTE_CAPACITY {
                            if let Some(forgotten) = self.evicted_order.pop_front() {
                                self.evicted.remove(&forgotten);
                            }
                        }
                    }
                }
            }
        }
    }

    fn was_evicted(&self, id: InvocationId) -> bool {
        self.evicted.contains(&id)
    }
}

/// Gateway-level counters surfaced in `GET /v1/stats`.
#[derive(Debug, Default)]
struct GatewayStats {
    /// Requests forwarded to members.
    proxied: AtomicU64,
    /// Forwards or upstream exchanges that failed (`502` to the client).
    upstream_errors: AtomicU64,
    /// Forwards replanned onto another member after a connect failure.
    retries: AtomicU64,
    /// Members ejected, by the streak rule or the rate rule.
    ejections: AtomicU64,
    /// Ejected members re-admitted by a succeeding probe.
    readmissions: AtomicU64,
    /// Draining members removed once their in-flight work settled.
    drained_out: AtomicU64,
    /// Polls for invocation ids that fell out of the bounded owner map
    /// (answered `410 result_evicted`).
    evicted_polls: AtomicU64,
    /// Replans denied because the failed member's retry budget was empty.
    budget_denials: AtomicU64,
}

/// The cluster gateway's routing brain (see the module docs).
pub struct Router {
    config: GatewayConfig,
    members: RwLock<Vec<Member>>,
    owners: Mutex<InvocationOwners>,
    stats: GatewayStats,
    /// The serving layer's stats document, merged into `GET /v1/stats`.
    server_stats: Mutex<Option<Arc<dyn Fn() -> JsonValue + Send + Sync>>>,
    /// Feeds the control thread; `None` once shut down (late submissions
    /// answer `503` instead of blocking). Dropping it ends the thread.
    control_tx: Mutex<Option<mpsc::Sender<ControlJob>>>,
    control_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Creates the router and starts its control thread. The thread holds a
    /// weak reference, so dropping the last `Arc<Router>` (or calling
    /// [`Router::shutdown`]) ends it.
    pub fn start(config: GatewayConfig) -> Arc<Router> {
        init_failpoints_from_env();
        let router = Arc::new(Router {
            config,
            members: RwLock::new(Vec::new()),
            owners: Mutex::new(InvocationOwners {
                owners: HashMap::new(),
                order: VecDeque::new(),
                evicted: HashSet::new(),
                evicted_order: VecDeque::new(),
            }),
            stats: GatewayStats::default(),
            server_stats: Mutex::new(None),
            control_tx: Mutex::new(None),
            control_thread: Mutex::new(None),
        });
        // The control thread serializes the blocking member calls that must
        // never run on an event loop (see the module docs); it exits when
        // the sender side is dropped (shutdown or the router going away).
        let (control_tx, control_rx) = mpsc::channel::<ControlJob>();
        let weak: Weak<Router> = Arc::downgrade(&router);
        let interval = router.config.probe_interval;
        let handle = std::thread::Builder::new()
            .name("dandelion-gateway-control".to_string())
            .spawn(move || {
                let mut next_probe = Instant::now() + interval;
                loop {
                    let job = control_rx
                        .recv_timeout(next_probe.saturating_duration_since(Instant::now()));
                    let Some(router) = weak.upgrade() else {
                        return;
                    };
                    match job {
                        Ok((op, complete)) => complete(router.execute_control(op)),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                    if Instant::now() >= next_probe {
                        router.probe_members();
                        next_probe = Instant::now() + interval;
                    }
                }
            })
            .expect("spawning the gateway control thread");
        *router.control_tx.lock() = Some(control_tx);
        *router.control_thread.lock() = Some(handle);
        router
    }

    /// The router's configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Stops the control thread. Forwarding keeps working (the server owns
    /// the data path); health state is frozen and late control-plane
    /// requests answer `503`.
    pub fn shutdown(&self) {
        // Dropping the sender ends the control thread's wait.
        self.control_tx.lock().take();
        if let Some(handle) = self.control_thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// Installs the serving layer's stats source (set by the server when it
    /// starts in gateway mode).
    pub(crate) fn set_server_stats(&self, source: Arc<dyn Fn() -> JsonValue + Send + Sync>) {
        *self.server_stats.lock() = Some(source);
    }

    /// Hands a blocking control-plane operation to the control thread;
    /// `complete` runs there with the response. A router that is already
    /// shut down answers `503` immediately (on the caller's thread — the
    /// response is in hand, nothing blocks).
    pub(crate) fn submit_control(
        &self,
        op: ControlOp,
        complete: Box<dyn FnOnce(HttpResponse) + Send>,
    ) {
        let rejected = {
            let sender = self.control_tx.lock();
            match sender.as_ref() {
                Some(tx) => tx.send((op, complete)).err().map(|failed| failed.0 .1),
                None => Some(complete),
            }
        };
        if let Some(complete) = rejected {
            complete(error_body(
                StatusCode::SERVICE_UNAVAILABLE,
                "gateway_stopping",
                "the gateway control plane is shut down",
                true,
            ));
        }
    }

    /// Executes one control-plane operation (control thread only).
    fn execute_control(&self, op: ControlOp) -> HttpResponse {
        match op {
            ControlOp::RegisterComposition { body } => self.register_composition(&body),
            ControlOp::Join { body } => self.join_request(&body),
            ControlOp::Drain { node } => self.drain_request(&node),
        }
    }

    // ------------------------------------------------------------------
    // Membership control plane
    // ------------------------------------------------------------------

    /// Joins a member: probes its `/v1/stats` (liveness) and
    /// `/v1/compositions` (advertisement), then adds it to the table.
    pub fn join(&self, addr: SocketAddr) -> Result<NodeId, String> {
        probe_stats(addr, self.config.probe_timeout)
            .map_err(|error| format!("member {addr} failed its join probe: {error}"))?;
        let compositions = fetch_compositions(addr, self.config.probe_timeout)
            .map_err(|error| format!("member {addr} did not list compositions: {error}"))?;
        let mut members = self.members.write();
        // Re-joining an address resets it instead of duplicating the row
        // (a restarted member announces itself again): back in rotation,
        // and the join probe ends its failure streak like any probe.
        if let Some(existing) = members.iter_mut().find(|member| member.addr == addr) {
            existing.state = MemberState::Healthy;
            existing.observe(Observation::ProbeAnswered(compositions), &self.config);
            return Ok(existing.id);
        }
        let member = Member::new(addr, MemberState::Healthy, compositions);
        let id = member.id;
        members.push(member);
        Ok(id)
    }

    /// Marks a member draining: no new work; a probe pass removes it
    /// once its in-flight count reaches zero. Returns the member's address
    /// so the caller can relay the drain signal to the node itself.
    pub fn drain(&self, node: NodeId) -> Option<SocketAddr> {
        let mut members = self.members.write();
        let member = members.iter_mut().find(|member| member.id == node)?;
        member.state = MemberState::Draining;
        Some(member.addr)
    }

    /// Members currently in the table, as `(id, addr, state)` rows.
    pub fn member_rows(&self) -> Vec<(NodeId, SocketAddr, &'static str)> {
        self.members
            .read()
            .iter()
            .map(|member| (member.id, member.addr, member.state.as_str()))
            .collect()
    }

    /// One health pass over every member (also exposed for tests that do
    /// not want to wait for the probe cadence).
    pub fn probe_members(&self) {
        let snapshot: Vec<(NodeId, SocketAddr)> = self
            .members
            .read()
            .iter()
            .map(|member| (member.id, member.addr))
            .collect();
        for (node, addr) in snapshot {
            let observation = if failpoints_enabled() && check_failpoint("gateway/probe").is_some()
            {
                Observation::ProbeFailed
            } else {
                fetch_compositions(addr, self.config.probe_timeout)
                    .map_or(Observation::ProbeFailed, Observation::ProbeAnswered)
            };
            self.observe(node, observation);
        }
    }

    /// Records a data-path failure against a member: a connect refused or
    /// never completed, or a connection that died owing it answers.
    pub(crate) fn note_upstream_failure(&self, node: NodeId) {
        self.observe(node, Observation::ExchangeFailed);
    }

    /// Hands one observation to `node`'s health machine and applies what it
    /// decided: counted, and a finished draining member's row removed.
    fn observe(&self, node: NodeId, observation: Observation) {
        let mut members = self.members.write();
        let Some(index) = members.iter().position(|member| member.id == node) else {
            return;
        };
        let counter = match members[index].observe(observation, &self.config) {
            None => return,
            Some(Transition::Ejected) => &self.stats.ejections,
            Some(Transition::Readmitted) => &self.stats.readmissions,
            Some(Transition::Removed) => {
                members.remove(index);
                &self.stats.drained_out
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Data-path bookkeeping (called by the event loops)
    // ------------------------------------------------------------------

    /// An exchange left for a member: count it against the load gauges.
    pub(crate) fn note_forward(&self, load: &MemberLoad, bytes: usize) {
        load.in_flight.fetch_add(1, Ordering::Relaxed);
        load.queued_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.proxied.fetch_add(1, Ordering::Relaxed);
    }

    /// An exchange settled (response delivered or failed): release it from
    /// the load gauges.
    pub(crate) fn note_settled(&self, load: &MemberLoad, bytes: usize) {
        load.in_flight.fetch_sub(1, Ordering::Relaxed);
        load.queued_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// An exchange failed after it was counted: `502` went to the client.
    pub(crate) fn note_upstream_error(&self) {
        self.stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A member answered an exchange: it banks a sliver of retry budget and
    /// ends the member's failure streak — one count the health machine
    /// reads, so the answer path never takes the table lock.
    pub(crate) fn note_upstream_success(&self, load: &MemberLoad) {
        load.retry_budget.note_success();
        load.answered.fetch_add(1, Ordering::Relaxed);
    }

    /// Remembers which member accepted a submitted invocation, so polls for
    /// its id route to the node that holds the result.
    pub(crate) fn record_invocation(&self, id: InvocationId, node: NodeId) {
        self.owners.lock().record(id, node);
    }

    // ------------------------------------------------------------------
    // Request routing
    // ------------------------------------------------------------------

    /// Routes one framed request: local control-plane answers are returned
    /// directly, proxied requests come back as a [`ForwardPlan`].
    pub(crate) fn dispatch(&self, request: &RequestFrame) -> GatewayReply {
        let target = utf8_lossy(request.target());
        let Some(uri) = Uri::parse(&target) else {
            return GatewayReply::Respond(error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                &format!("unparseable request target `{target}`"),
                false,
            ));
        };
        if uri.query.is_some() {
            return GatewayReply::Respond(error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                "query strings are not accepted",
                false,
            ));
        }
        let segments: Vec<&str> = uri.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method(), segments.as_slice()) {
            (Method::Get, ["healthz"]) => GatewayReply::Respond(HttpResponse::ok(b"ok".to_vec())),
            (Method::Get, ["v1", "stats"]) => GatewayReply::Respond(self.stats_response()),
            (Method::Get, ["v1", "compositions"]) => {
                GatewayReply::Respond(self.list_compositions())
            }
            // The mutating control plane makes blocking member calls
            // (probes, broadcasts, relays): deferred to the control thread
            // so the event loop never stalls behind them.
            (Method::Post, ["v1", "compositions"]) => {
                GatewayReply::Control(ControlOp::RegisterComposition {
                    body: request.body(),
                })
            }
            (Method::Get, ["v1", "cluster", "members"]) => {
                GatewayReply::Respond(self.members_response(StatusCode::OK))
            }
            (Method::Post, ["v1", "cluster", "members"]) => {
                GatewayReply::Control(ControlOp::Join {
                    body: request.body(),
                })
            }
            (Method::Post, ["v1", "cluster", "drain", node]) => {
                GatewayReply::Control(ControlOp::Drain {
                    node: node.to_string(),
                })
            }
            (Method::Post, ["v1", "invoke", name]) if !name.is_empty() => {
                self.plan_invocation(request, name, false)
            }
            (Method::Post, ["v1", "invocations", name]) if !name.is_empty() => {
                self.plan_invocation(request, name, true)
            }
            (Method::Get, ["v1", "invocations", id]) if !id.is_empty() => {
                self.plan_poll(request, id)
            }
            _ => GatewayReply::Respond(error_body(
                StatusCode::NOT_FOUND,
                "not_found",
                &format!("endpoint `{}` not found on the gateway", uri.path),
                false,
            )),
        }
    }

    /// Plans the forward of an invocation (`invoke` or `submit`) by
    /// composition affinity with a load-aware escape hatch.
    fn plan_invocation(
        &self,
        request: &RequestFrame,
        composition: &str,
        track_submit: bool,
    ) -> GatewayReply {
        match self.pick_member(Some(composition), &[]) {
            Some((node, addr, load)) => {
                let rope = forward_rope(request);
                let bytes = rope.len();
                GatewayReply::Forward(ForwardPlan {
                    node,
                    addr,
                    load,
                    rope,
                    bytes,
                    track_submit,
                    composition: Some(composition.to_string()),
                    tried: Vec::new(),
                })
            }
            None => GatewayReply::Respond(no_members_response()),
        }
    }

    /// Plans the forward of a status poll: the member that accepted the
    /// submission owns the result, so the owner map wins when it can.
    fn plan_poll(&self, request: &RequestFrame, id_text: &str) -> GatewayReply {
        let id = InvocationId::parse(id_text);
        let owner = id.and_then(|id| {
            let owners = self.owners.lock();
            if owners.was_evicted(id) {
                return Some(Err(()));
            }
            owners.owners.get(&id).copied().map(Ok)
        });
        let owner = match owner {
            // The id was tracked but fell out of the bounded owner map:
            // routing the poll to an arbitrary member would produce a
            // misleading `404`, so answer `410` and say why.
            Some(Err(())) => {
                self.stats.evicted_polls.fetch_add(1, Ordering::Relaxed);
                return GatewayReply::Respond(error_body(
                    StatusCode(410),
                    "result_evicted",
                    &format!(
                        "the gateway no longer remembers which member holds `{id_text}`; \
                         its routing entry was evicted from the bounded owner map"
                    ),
                    false,
                ));
            }
            Some(Ok(node)) => Some(node),
            None => None,
        };
        let target = owner
            .and_then(|node| self.member_for_poll(node))
            .or_else(|| self.pick_member(None, &[]));
        match target {
            Some((node, addr, load)) => {
                let rope = forward_rope(request);
                let bytes = rope.len();
                GatewayReply::Forward(ForwardPlan {
                    node,
                    addr,
                    load,
                    rope,
                    bytes,
                    track_submit: false,
                    composition: None,
                    tried: Vec::new(),
                })
            }
            None => GatewayReply::Respond(no_members_response()),
        }
    }

    /// Replans a forward whose member could not be reached. The failed
    /// members are excluded; `None` means the request is out of options
    /// (the caller answers `502`).
    ///
    /// Retries are budgeted, not merely counted: each one withdraws from
    /// the failed member's token bucket, which only successes refill, so
    /// a cluster-wide outage cannot amplify client load into a retry
    /// storm. `max_forward_attempts` stays as the per-request hard
    /// ceiling on top of the budget.
    pub(crate) fn replan(&self, mut plan: ForwardPlan) -> Option<ForwardPlan> {
        if plan.tried.len() >= self.config.max_forward_attempts as usize {
            return None;
        }
        if !plan.load.retry_budget.try_withdraw() {
            self.stats.budget_denials.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let (node, addr, load) = self.pick_member(plan.composition.as_deref(), &plan.tried)?;
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
        plan.node = node;
        plan.addr = addr;
        plan.load = load;
        Some(plan)
    }

    /// Re-plans an exchange that was queued behind a dead connection but
    /// never reached the wire: any routable member except the dead one may
    /// take it (affinity is not reconstructed — correctness over warmth).
    pub(crate) fn plan_fallback(
        &self,
        exclude: NodeId,
        rope: Rope,
        bytes: usize,
        track_submit: bool,
    ) -> Option<ForwardPlan> {
        let tried = vec![exclude];
        let (node, addr, load) = self.pick_member(None, &tried)?;
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
        Some(ForwardPlan {
            node,
            addr,
            load,
            rope,
            bytes,
            track_submit,
            composition: None,
            tried,
        })
    }

    /// Picks the member for a new exchange: routable members advertising
    /// the composition (all routable members when none does), the affinity
    /// pick unless its load ran away, excluding `tried`.
    fn pick_member(
        &self,
        composition: Option<&str>,
        tried: &[NodeId],
    ) -> Option<(NodeId, SocketAddr, Arc<MemberLoad>)> {
        let members = self.members.read();
        let eligible: Vec<&Member> = {
            let routable = members
                .iter()
                .filter(|member| member.routable() && !tried.contains(&member.id));
            match composition {
                Some(name) => {
                    let advertisers: Vec<&Member> =
                        routable.clone().filter(|m| m.advertises(name)).collect();
                    if advertisers.is_empty() {
                        routable.collect()
                    } else {
                        advertisers
                    }
                }
                None => routable.collect(),
            }
        };
        if eligible.is_empty() {
            return None;
        }
        let min_score = eligible
            .iter()
            .map(|member| member.load.score())
            .min()
            .unwrap_or(0);
        let preferred = composition
            .map(|name| {
                let index = (composition_affinity_hash(name) % eligible.len() as u64) as usize;
                eligible[index]
            })
            .filter(|member| member.load.score() <= 2 * min_score + AFFINITY_LOAD_SLACK);
        let chosen = match preferred {
            Some(member) => member,
            None => eligible
                .iter()
                .min_by_key(|member| member.load.score())
                .copied()?,
        };
        Some((chosen.id, chosen.addr, Arc::clone(&chosen.load)))
    }

    /// The member a poll for `node` should go to: the owner while it is
    /// still present and not ejected (a draining member still answers
    /// polls — refusing *new* invocations is the worker's business).
    fn member_for_poll(&self, node: NodeId) -> Option<(NodeId, SocketAddr, Arc<MemberLoad>)> {
        let members = self.members.read();
        members
            .iter()
            .find(|member| member.id == node && member.state != MemberState::Ejected)
            .map(|member| (member.id, member.addr, Arc::clone(&member.load)))
    }

    // ------------------------------------------------------------------
    // Local responses
    // ------------------------------------------------------------------

    fn stats_response(&self) -> HttpResponse {
        let members = self.members.read();
        let mut pairs: Vec<(String, JsonValue)> = vec![
            ("role".into(), JsonValue::string("gateway")),
            (
                "members".into(),
                JsonValue::array(members.iter().map(Member::to_json)),
            ),
            (
                "proxied".into(),
                JsonValue::from(self.stats.proxied.load(Ordering::Relaxed)),
            ),
            (
                "upstream_errors".into(),
                JsonValue::from(self.stats.upstream_errors.load(Ordering::Relaxed)),
            ),
            (
                "retries".into(),
                JsonValue::from(self.stats.retries.load(Ordering::Relaxed)),
            ),
            (
                "ejections".into(),
                JsonValue::from(self.stats.ejections.load(Ordering::Relaxed)),
            ),
            (
                "readmissions".into(),
                JsonValue::from(self.stats.readmissions.load(Ordering::Relaxed)),
            ),
            (
                "drained".into(),
                JsonValue::from(self.stats.drained_out.load(Ordering::Relaxed)),
            ),
            (
                "evicted_polls".into(),
                JsonValue::from(self.stats.evicted_polls.load(Ordering::Relaxed)),
            ),
            (
                "budget_denials".into(),
                JsonValue::from(self.stats.budget_denials.load(Ordering::Relaxed)),
            ),
        ];
        drop(members);
        if let Some(source) = self.server_stats.lock().as_ref() {
            pairs.push(("server".into(), source()));
        }
        if let Some(failpoints) = failpoint_stats_json() {
            pairs.push(("failpoints".into(), failpoints));
        }
        json_response(StatusCode::OK, &JsonValue::Object(pairs))
    }

    /// `GET /v1/compositions` on the gateway: the union of what the
    /// members advertise.
    fn list_compositions(&self) -> HttpResponse {
        let members = self.members.read();
        let mut names: Vec<&str> = members
            .iter()
            .flat_map(|member| member.compositions.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        names.dedup();
        json_response(
            StatusCode::OK,
            &JsonValue::object([(
                "compositions",
                JsonValue::array(names.into_iter().map(JsonValue::string)),
            )]),
        )
    }

    /// `POST /v1/compositions` on the gateway: broadcast the registration
    /// to every routable member (blocking — control thread only), so any
    /// of them can serve the composition afterwards.
    fn register_composition(&self, body: &[u8]) -> HttpResponse {
        let targets: Vec<(NodeId, SocketAddr)> = self
            .members
            .read()
            .iter()
            .filter(|member| member.routable())
            .map(|member| (member.id, member.addr))
            .collect();
        if targets.is_empty() {
            return no_members_response();
        }
        let mut name: Option<String> = None;
        let mut failures: Vec<String> = Vec::new();
        for (node, addr) in &targets {
            match register_on_member(*addr, body, self.config.probe_timeout) {
                Ok(registered) => name = Some(registered),
                Err(error) => failures.push(format!("{node}: {error}")),
            }
        }
        let Some(name) = name else {
            return error_body(
                StatusCode(502),
                "upstream_failed",
                &format!(
                    "no member accepted the composition: {}",
                    failures.join("; ")
                ),
                true,
            );
        };
        // Advertise immediately instead of waiting a probe interval.
        {
            let mut members = self.members.write();
            for member in members.iter_mut() {
                if targets.iter().any(|(node, _)| *node == member.id) && !member.advertises(&name) {
                    member.compositions.push(name.clone());
                }
            }
        }
        if failures.is_empty() {
            json_response(
                StatusCode::CREATED,
                &JsonValue::object([
                    ("name", JsonValue::string(name)),
                    ("nodes", JsonValue::from(targets.len())),
                ]),
            )
        } else {
            error_body(
                StatusCode(502),
                "partial_registration",
                &format!(
                    "composition `{name}` registered on {} of {} members; failed: {}",
                    targets.len() - failures.len(),
                    targets.len(),
                    failures.join("; ")
                ),
                true,
            )
        }
    }

    fn members_response(&self, status: StatusCode) -> HttpResponse {
        let members = self.members.read();
        json_response(
            status,
            &JsonValue::object([(
                "members",
                JsonValue::array(members.iter().map(Member::to_json)),
            )]),
        )
    }

    /// `POST /v1/cluster/members` with body `{"addr": "host:port"}`: a
    /// member announcing itself (what `dandelion-serve --join` sends).
    /// Blocking (join probes the candidate) — control thread only.
    fn join_request(&self, body: &[u8]) -> HttpResponse {
        let addr = JsonValue::parse(&utf8_lossy(body))
            .ok()
            .and_then(|document| {
                document
                    .get("addr")
                    .and_then(JsonValue::as_str)
                    .map(String::from)
            })
            .and_then(|text| text.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            return error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                "body must be a JSON object with an `addr` of the form `host:port`",
                false,
            );
        };
        match self.join(addr) {
            Ok(node) => json_response(
                StatusCode::CREATED,
                &JsonValue::object([
                    ("node", JsonValue::string(node.to_string())),
                    ("addr", JsonValue::string(addr.to_string())),
                ]),
            ),
            Err(problem) => error_body(StatusCode(502), "join_failed", &problem, true),
        }
    }

    /// `POST /v1/cluster/drain/{node}`: take a member out of rotation for a
    /// rolling restart. The drain signal is relayed to the node itself
    /// (best-effort) so it refuses work arriving around the gateway too.
    /// Blocking (the relay is an HTTP call) — control thread only.
    fn drain_request(&self, node_text: &str) -> HttpResponse {
        let Some(node) = NodeId::parse(node_text) else {
            return error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                &format!("malformed node id `{node_text}`"),
                false,
            );
        };
        let Some(addr) = self.drain(node) else {
            return error_body(
                StatusCode::NOT_FOUND,
                "not_found",
                &format!("no member `{node}` in the cluster"),
                false,
            );
        };
        let relayed = relay_drain(addr, self.config.probe_timeout).is_ok();
        json_response(
            StatusCode::ACCEPTED,
            &JsonValue::object([
                ("node", JsonValue::string(node.to_string())),
                ("state", JsonValue::string("draining")),
                ("relayed", JsonValue::from(relayed)),
            ]),
        )
    }
}

/// [`proxy_request`](super::proxy_request) on the wire: the request's bytes
/// as the gateway received them, its `Connection` lines cut. A request with
/// none is one segment, the received message itself.
pub fn forward_rope(request: &RequestFrame) -> Rope {
    request.splice(&[])
}

/// The `X-Dandelion-Node` line naming `node`: built once per member and
/// loop, and shared by every response relayed from it.
pub fn node_line(node: NodeId) -> SharedBytes {
    SharedBytes::from_vec(format!("X-Dandelion-Node: {node}\r\n").into_bytes())
}

/// [`proxy_response`](super::proxy_response) and
/// [`response_rope`](crate::response_rope) on the
/// wire: the member's bytes with its `Connection` lines cut, and
/// `node_line`, the gateway's own `Connection` line and — for a response
/// that declares no length, which the client must not read to a close —
/// `Content-Length: 0` added to its head. The head's other lines and the
/// body are views of the member's receive buffer.
pub fn relay_rope(response: &ResponseFrame, node_line: &SharedBytes, close: bool) -> Rope {
    static LINES: OnceLock<[SharedBytes; 3]> = OnceLock::new();
    let [keep_alive, closing, no_length] = LINES.get_or_init(|| {
        [
            "Connection: keep-alive\r\n",
            "Connection: close\r\n",
            "Content-Length: 0\r\n",
        ]
        .map(|line| SharedBytes::from_vec(line.as_bytes().to_vec()))
    });
    let connection = if close { closing } else { keep_alive };
    match response.content_length() {
        Some(_) => response.splice(&[node_line, connection]),
        None => response.splice(&[node_line, connection, no_length]),
    }
}

// ----------------------------------------------------------------------
// Blocking member calls (control plane and health probes only)
// ----------------------------------------------------------------------

/// One request to a member on a fresh connection. Any answer but the
/// `expected` status is an error naming what the member said instead.
fn member_call(
    addr: SocketAddr,
    timeout: Duration,
    request: &HttpRequest,
    expected: StatusCode,
) -> Result<HttpResponse, String> {
    let mut client =
        HttpClientConnection::connect(addr, timeout).map_err(|error| error.to_string())?;
    let response = client.request(request).map_err(|error| error.to_string())?;
    if response.status != expected {
        return Err(format!(
            "{} {} answered {}: {}",
            request.method,
            request.target,
            response.status.0,
            response.body_str()
        ));
    }
    Ok(response)
}

fn probe_stats(addr: SocketAddr, timeout: Duration) -> Result<(), String> {
    member_call(
        addr,
        timeout,
        &HttpRequest::get("/v1/stats"),
        StatusCode::OK,
    )
    .map(drop)
}

fn fetch_compositions(addr: SocketAddr, timeout: Duration) -> Result<Vec<String>, String> {
    let response = member_call(
        addr,
        timeout,
        &HttpRequest::get("/v1/compositions"),
        StatusCode::OK,
    )?;
    let document =
        JsonValue::parse(&response.body_str()).map_err(|error| format!("bad JSON: {error}"))?;
    let names = document
        .get("compositions")
        .and_then(|value| value.as_array())
        .map(|values| {
            values
                .iter()
                .filter_map(JsonValue::as_str)
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    Ok(names)
}

fn register_on_member(addr: SocketAddr, body: &[u8], timeout: Duration) -> Result<String, String> {
    let response = member_call(
        addr,
        timeout,
        &HttpRequest::post("/v1/compositions", body.to_vec()),
        StatusCode::CREATED,
    )?;
    JsonValue::parse(&response.body_str())
        .ok()
        .and_then(|document| {
            document
                .get("name")
                .and_then(JsonValue::as_str)
                .map(String::from)
        })
        .ok_or_else(|| "registration response carried no name".to_string())
}

/// Relays the drain signal: only the member's own `202` means it began
/// draining — a `404`, a `429` from its rate limit or a `500` did not.
fn relay_drain(addr: SocketAddr, timeout: Duration) -> Result<(), String> {
    member_call(
        addr,
        timeout,
        &HttpRequest::post("/v1/drain", Vec::new()),
        StatusCode::ACCEPTED,
    )
    .map(drop)
}

// ----------------------------------------------------------------------
// Response helpers
// ----------------------------------------------------------------------

fn json_response(status: StatusCode, value: &JsonValue) -> HttpResponse {
    HttpResponse::new(status, value.to_json_string().into_bytes())
        .with_header("Content-Type", "application/json")
}

/// The `502` for an exchange that died with its upstream connection.
pub(crate) fn upstream_failed_response(node: NodeId) -> HttpResponse {
    error_body(
        StatusCode(502),
        "upstream_failed",
        &format!("member {node} failed while handling the request"),
        true,
    )
}

/// The `503` when no routable member exists for a request.
pub(crate) fn no_members_response() -> HttpResponse {
    error_body(
        StatusCode::SERVICE_UNAVAILABLE,
        "no_members",
        "no healthy cluster member is available",
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router_without_health() -> Arc<Router> {
        Router::start(GatewayConfig {
            probe_interval: Duration::from_secs(3600),
            ..GatewayConfig::default()
        })
    }

    fn insert_member(router: &Router, port: u16, compositions: &[&str]) -> NodeId {
        let member = Member::new(
            format!("127.0.0.1:{port}").parse().unwrap(),
            MemberState::Healthy,
            compositions.iter().map(|s| s.to_string()).collect(),
        );
        let id = member.id;
        router.members.write().push(member);
        id
    }

    fn load_of(router: &Router, node: NodeId) -> Arc<MemberLoad> {
        let members = router.members.read();
        Arc::clone(&members.iter().find(|m| m.id == node).unwrap().load)
    }

    fn invoke_echo() -> HttpRequest {
        HttpRequest::post("/v1/invoke/Echo", b"x".to_vec())
    }

    fn poll(id: impl std::fmt::Display) -> HttpRequest {
        HttpRequest::get(format!("/v1/invocations/{id}"))
    }

    /// `request` as a client connection's decoder hands it to the router.
    fn frame(request: &HttpRequest) -> RequestFrame {
        let mut decoder = dandelion_http::RequestDecoder::default();
        decoder.feed(&request.to_bytes());
        decoder
            .next_frame()
            .expect("well-formed")
            .expect("complete")
    }

    /// The plan `request` is forwarded with.
    fn forwarded(router: &Router, request: HttpRequest) -> ForwardPlan {
        match router.dispatch(&frame(&request)) {
            GatewayReply::Forward(plan) => plan,
            _ => panic!("{} {} must forward", request.method, request.target),
        }
    }

    /// The gateway's own answer to `request`.
    fn answered(router: &Router, request: HttpRequest) -> HttpResponse {
        match router.dispatch(&frame(&request)) {
            GatewayReply::Respond(response) => response,
            _ => panic!(
                "{} {} must be answered locally",
                request.method, request.target
            ),
        }
    }

    #[test]
    fn no_members_yields_a_retryable_503() {
        let router = router_without_health();
        let response = answered(&router, invoke_echo());
        assert_eq!(response.status.0, 503);
        assert!(response.body_text().contains("\"no_members\""));
        assert!(response.body_text().contains("\"retryable\":true"));
    }

    #[test]
    fn affinity_is_stable_and_prefers_advertisers() {
        let router = router_without_health();
        insert_member(&router, 9001, &["Alpha"]);
        let beta = insert_member(&router, 9002, &["Beta"]);
        insert_member(&router, 9003, &["Alpha"]);
        // Beta has exactly one advertiser: affinity must always choose it.
        for _ in 0..8 {
            let plan = forwarded(&router, HttpRequest::post("/v1/invoke/Beta", b"x".to_vec()));
            assert_eq!(plan.node, beta);
        }
    }

    #[test]
    fn overloaded_preferred_member_loses_to_least_loaded() {
        let router = router_without_health();
        let a = insert_member(&router, 9001, &["Echo"]);
        let b = insert_member(&router, 9002, &["Echo"]);
        // Find the affinity pick, overload it, and confirm the other member
        // receives the traffic.
        let preferred = forwarded(&router, invoke_echo()).node;
        let other = if preferred == a { b } else { a };
        load_of(&router, preferred)
            .in_flight
            .store(1000, Ordering::Relaxed);
        assert_eq!(forwarded(&router, invoke_echo()).node, other);
    }

    /// "Routing collapsed onto one member" without a stopwatch: twelve
    /// compositions over three members that all advertise them.
    #[test]
    fn affinity_spreads_shards_over_three_members_and_spills_past_the_slack() {
        let router = router_without_health();
        let shards: Vec<String> = (0..12).map(|index| format!("Shard{index}")).collect();
        let names: Vec<&str> = shards.iter().map(String::as_str).collect();
        let nodes = [9001, 9002, 9003].map(|port| insert_member(&router, port, &names));
        let placement = || -> Vec<NodeId> {
            shards
                .iter()
                .map(|shard| {
                    let target = format!("/v1/invoke/{shard}");
                    forwarded(&router, HttpRequest::post(target, b"x".to_vec())).node
                })
                .collect()
        };
        let set_in_flight = |node: NodeId, in_flight: usize| {
            load_of(&router, node)
                .in_flight
                .store(in_flight, Ordering::Relaxed);
        };

        // Every member is the affinity pick of some shards, and a shard's
        // pick does not move between requests.
        let idle = placement();
        for node in nodes {
            let owned = idle.iter().filter(|pick| **pick == node).count();
            assert!(owned >= 2, "{node} owns {owned} of 12 shards");
        }
        for _ in 0..8 {
            assert_eq!(placement(), idle);
        }

        // At `2 * min + SLACK` the preference still holds; one past it the
        // member's shards go to the least loaded and nobody else's move.
        let [loaded, least, other] = nodes;
        set_in_flight(least, 1);
        set_in_flight(other, 2);
        set_in_flight(loaded, 2 + AFFINITY_LOAD_SLACK);
        assert_eq!(placement(), idle);
        set_in_flight(loaded, 2 + AFFINITY_LOAD_SLACK + 1);
        let spilled: Vec<NodeId> = idle
            .iter()
            .map(|pick| if *pick == loaded { least } else { *pick })
            .collect();
        assert_eq!(placement(), spilled);
    }

    /// A member that refuses the drain signal did not begin draining, and
    /// the operator is told so.
    #[test]
    fn a_refused_drain_relay_is_reported_as_not_relayed() {
        use std::io::{Read, Write};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let member = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            assert!(head.starts_with(b"POST /v1/drain "));
            stream
                .write_all(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        });
        let router = router_without_health();
        let node = insert_member(&router, port, &["Echo"]);
        let response = router.drain_request(&node.to_string());
        member.join().unwrap();
        assert_eq!(response.status, StatusCode::ACCEPTED);
        assert!(response.body_text().contains("\"relayed\":false"));
        // The gateway's own half still happened: no new work goes there.
        assert_eq!(router.member_rows()[0].2, "draining");
    }

    #[test]
    fn draining_and_ejected_members_receive_no_new_work() {
        let router = router_without_health();
        let a = insert_member(&router, 9001, &["Echo"]);
        let b = insert_member(&router, 9002, &["Echo"]);
        router.drain(a);
        for _ in 0..4 {
            assert_eq!(forwarded(&router, invoke_echo()).node, b);
        }
        router.members.write()[1].state = MemberState::Ejected;
        assert_eq!(answered(&router, invoke_echo()).status.0, 503);
    }

    #[test]
    fn polls_route_to_the_recorded_owner() {
        let router = router_without_health();
        let a = insert_member(&router, 9001, &["Echo"]);
        let b = insert_member(&router, 9002, &["Echo"]);
        let id = InvocationId::from_raw(777);
        router.record_invocation(id, b);
        assert_eq!(forwarded(&router, poll(id)).node, b);
        // Unknown ids fall back to any routable member.
        let fallback = forwarded(&router, poll("inv-424242"));
        assert!(fallback.node == a || fallback.node == b);
    }

    #[test]
    fn ejection_after_consecutive_failures_and_replan_excludes_tried() {
        let router = router_without_health();
        let a = insert_member(&router, 9001, &["Echo"]);
        let b = insert_member(&router, 9002, &["Echo"]);
        for _ in 0..router.config.fail_threshold {
            router.note_upstream_failure(a);
        }
        let rows = router.member_rows();
        assert_eq!((rows[0].0, rows[0].2), (a, "ejected"));
        // Replanning a forward that already tried `b` has nowhere to go.
        let mut plan = forwarded(&router, invoke_echo());
        assert_eq!(plan.node, b);
        plan.tried.push(b);
        assert!(router.replan(plan).is_none());
    }

    #[test]
    fn replan_is_denied_once_the_retry_budget_runs_dry() {
        let router = router_without_health();
        insert_member(&router, 9001, &["Echo"]);
        insert_member(&router, 9002, &["Echo"]);
        let plan = forwarded(&router, invoke_echo());
        // Drain the chosen member's bucket (the initial float allows a
        // handful of cold-start retries), then replanning must refuse even
        // though another member is available.
        while plan.load.retry_budget.try_withdraw() {}
        assert!(router.replan(plan).is_none());
        assert_eq!(router.stats.budget_denials.load(Ordering::Relaxed), 1);
        assert_eq!(router.stats.retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn successes_refill_the_retry_budget() {
        let router = router_without_health();
        insert_member(&router, 9001, &["Echo"]);
        insert_member(&router, 9002, &["Echo"]);
        let plan = forwarded(&router, invoke_echo());
        while plan.load.retry_budget.try_withdraw() {}
        // Ten successes bank exactly one retry.
        for _ in 0..10 {
            router.note_upstream_success(&plan.load);
        }
        let replanned = router.replan(plan).expect("a banked retry is granted");
        assert_eq!(router.stats.retries.load(Ordering::Relaxed), 1);
        assert!(
            router.replan(replanned).is_none(),
            "the bank held one retry, not two"
        );
    }

    #[test]
    fn a_rate_ejected_member_leaves_rotation() {
        let router = router_without_health();
        let a = insert_member(&router, 9001, &["Echo"]);
        let b = insert_member(&router, 9002, &["Echo"]);
        // Five observations, four of them failures and no three in a row:
        // the rate rule ejects where no streak would.
        let fail_at_rate = |node: NodeId| {
            router.note_upstream_failure(node);
            router.note_upstream_failure(node);
            router.note_upstream_success(&load_of(&router, node));
            router.note_upstream_failure(node);
            router.note_upstream_failure(node);
        };
        fail_at_rate(a);
        for _ in 0..8 {
            let plan = forwarded(&router, invoke_echo());
            assert_eq!(plan.node, b, "the ejection must shed member a");
        }
        // Both members out: nothing is routable.
        fail_at_rate(b);
        assert_eq!(answered(&router, invoke_echo()).status.0, 503);
        assert_eq!(router.stats.ejections.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn evicted_invocation_ids_answer_410_not_a_misrouted_404() {
        let router = router_without_health();
        let node = insert_member(&router, 9001, &["Echo"]);
        let first = InvocationId::from_raw(1);
        router.record_invocation(first, node);
        // Push the first id out of the bounded owner map.
        for raw in 2..(INVOCATION_ROUTE_CAPACITY as u64 + 3) {
            router.record_invocation(InvocationId::from_raw(raw), node);
        }
        let response = answered(&router, poll(first));
        assert_eq!(response.status.0, 410);
        assert!(response.body_text().contains("\"result_evicted\""));
        assert_eq!(router.stats.evicted_polls.load(Ordering::Relaxed), 1);
        // Ids still tracked keep forwarding to their owner.
        let live = InvocationId::from_raw(INVOCATION_ROUTE_CAPACITY as u64);
        assert_eq!(forwarded(&router, poll(live)).node, node);
        // Resubmitting an evicted id makes it live again.
        router.record_invocation(first, node);
        assert_eq!(forwarded(&router, poll(first)).node, node);
    }

    /// A loopback port with nothing listening: probes to it fail instantly.
    fn dead_port() -> u16 {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    }

    #[test]
    fn dead_draining_member_is_removed_when_probes_fail() {
        let router = router_without_health();
        let node = insert_member(&router, dead_port(), &["Echo"]);
        router.drain(node);
        // Nothing in flight: the rolling restart killed the process, the
        // probe fails, and the row must go — not linger as "draining".
        router.probe_members();
        assert!(
            router.member_rows().is_empty(),
            "a dead drained member with no in-flight work must be removed"
        );
        assert_eq!(router.stats.drained_out.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dead_draining_member_with_inflight_work_is_removed_after_threshold() {
        let router = router_without_health();
        let node = insert_member(&router, dead_port(), &["Echo"]);
        {
            let members = router.members.read();
            members[0].load.in_flight.store(1, Ordering::Relaxed);
        }
        router.drain(node);
        for round in 0..router.config.fail_threshold {
            assert_eq!(
                router.member_rows().len(),
                1,
                "still within the failure threshold after {round} probes"
            );
            router.probe_members();
        }
        assert!(
            router.member_rows().is_empty(),
            "consecutive probe failures must remove a draining member even \
             when its in-flight gauge never settled"
        );
    }

    #[test]
    fn mutating_control_plane_requests_defer_to_the_control_thread() {
        let router = router_without_health();
        let drain = frame(&HttpRequest::post(
            "/v1/cluster/drain/node-424242",
            Vec::new(),
        ));
        let GatewayReply::Control(op) = router.dispatch(&drain) else {
            panic!("mutating control-plane requests must defer off the event loop");
        };
        let (tx, rx) = mpsc::channel();
        router.submit_control(
            op,
            Box::new(move |response| {
                let _ = tx.send(response);
            }),
        );
        let response = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the control thread answers");
        assert_eq!(
            response.status.0,
            404,
            "unknown node: {}",
            response.body_text()
        );

        // After shutdown, deferred operations answer 503 instead of hanging.
        router.shutdown();
        let GatewayReply::Control(op) = router.dispatch(&drain) else {
            panic!("dispatch shape does not change at shutdown");
        };
        let (tx, rx) = mpsc::channel();
        router.submit_control(
            op,
            Box::new(move |response| {
                let _ = tx.send(response);
            }),
        );
        let response = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(response.status.0, 503);
        assert!(response.body_text().contains("gateway_stopping"));
    }

    /// One thread runs both: a control job every 10 ms does not keep the
    /// probe passes from ejecting a member that refuses connections.
    #[test]
    fn probes_stay_on_schedule_under_a_stream_of_control_jobs() {
        let router = Router::start(GatewayConfig {
            probe_interval: Duration::from_millis(100),
            ..GatewayConfig::default()
        });
        insert_member(&router, dead_port(), &["Echo"]);
        let drain = frame(&HttpRequest::post(
            "/v1/cluster/drain/node-424242",
            Vec::new(),
        ));
        let start = Instant::now();
        while router.member_rows()[0].2 != "ejected" {
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "the member was not ejected"
            );
            let GatewayReply::Control(op) = router.dispatch(&drain) else {
                panic!("a drain is a control job");
            };
            let (tx, rx) = mpsc::channel();
            router.submit_control(
                op,
                Box::new(move |response| {
                    let _ = tx.send(response);
                }),
            );
            let response = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(response.status.0, 404, "{}", response.body_text());
            std::thread::sleep(Duration::from_millis(10));
        }
        router.shutdown();
    }
}
