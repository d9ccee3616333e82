//! The gateway router: one front door for a cluster of worker nodes.
//!
//! The router decides, per request, whether the gateway answers locally
//! (cluster control plane, stats, health) or forwards to a member over the
//! v1 HTTP protocol. It routes a request by the record its head's one scan
//! left (method, target, body), never a decoded header map. Forwarding is
//! planned here but executed by the event loops: the router returns a
//! [`ForwardPlan`] carrying the bytes to forward — the request as received,
//! its `Connection` lines cut ([`forward_rope`]) — and the chosen member,
//! and the loop pipelines it onto a pooled upstream connection.
//!
//! Routing is load-aware with composition affinity: invocations of a
//! composition prefer a stable member (FNV hash of the name over the
//! advertisers) so warm state — registered functions, cached contexts —
//! concentrates, but a preferred member whose gateway-side load score runs
//! far past the cluster minimum loses the request to the least-loaded
//! member. Status polls follow the member that accepted the submission
//! through a bounded invocation-owner map.
//!
//! The membership table, the owner map and the control plane are one
//! [`Cluster`] behind one mutex, stepped by the event loops and by nothing
//! else — the router has no thread: a control request starts a job in it,
//! loop 0 runs its probe passes, and every failed exchange the loops report
//! goes to the member's health machine ([`Member::observe`]) through it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use dandelion_common::rng::fnv1a;
use dandelion_common::{
    failpoint_stats_json, init_failpoints_from_env, utf8_lossy, InvocationId, JsonValue, NodeId,
    Rope, SharedBytes,
};
use dandelion_core::frontend::error_body;
use dandelion_core::StatsSource;
use dandelion_http::{HttpResponse, Method, RequestFrame, ResponseFrame, StatusCode, UriRef};

use crate::client::join_gateway;
use crate::conn::ClientSlot;
use crate::gateway::cluster::{Answer, Cluster, Effects};
use crate::gateway::membership::{Member, MemberLoad, MemberState, Observation};

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
    /// Deadline of one probe or other control exchange with a member,
    /// connect included, on the loop's clock.
    pub probe_timeout: Duration,
    /// Deadline of one upstream `connect` on the data path.
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

/// Data-path counters surfaced in `GET /v1/stats`; the membership
/// transitions are counted by the [`Cluster`].
#[derive(Debug, Default)]
struct GatewayStats {
    /// Requests forwarded to members.
    proxied: AtomicU64,
    /// Forwards or upstream exchanges that failed (`502` to the client).
    upstream_errors: AtomicU64,
    /// Forwards replanned onto another member after a connect failure.
    retries: AtomicU64,
    /// Replans denied because the failed member's retry budget was empty.
    budget_denials: AtomicU64,
}

/// The cluster gateway's routing brain (see the module docs).
pub struct Router {
    pub(crate) config: GatewayConfig,
    cluster: Mutex<Cluster>,
    stats: GatewayStats,
    /// Where the gateway serving this router listens, and its serving
    /// layer's stats document; set by `Server::start_gateway`.
    server: OnceLock<(SocketAddr, StatsSource)>,
}

impl Router {
    /// Creates the router; its first probe pass is due one
    /// `probe_interval` after the gateway's first loop turn.
    pub fn start(config: GatewayConfig) -> Arc<Router> {
        init_failpoints_from_env();
        let mut cluster = Cluster::default();
        cluster.config = config.clone();
        Arc::new(Router {
            cluster: Mutex::new(cluster),
            config,
            stats: GatewayStats::default(),
            server: OnceLock::new(),
        })
    }

    /// Stops the control plane: probing ends and control requests answer
    /// `503`. Forwarding keeps working (the server owns the data path), on
    /// health state that stays as it was.
    pub fn shutdown(&self) {
        self.cluster().stopped = true;
    }

    /// The cluster under its lock. A panic under it can leave the table
    /// torn (a row half moved, a job half answered), so the poison
    /// propagates to every later caller instead of being read through.
    fn cluster(&self) -> MutexGuard<'_, Cluster> {
        self.cluster
            .lock()
            .expect("the cluster table was torn by a panic")
    }

    /// Records where the gateway serving this router listens and its
    /// serving layer's stats document (set by the server when it starts in
    /// gateway mode).
    pub(crate) fn serve(&self, addr: SocketAddr, stats: StatsSource) {
        let _ = self.server.set((addr, stats));
    }

    /// Joins the member at `addr` through the gateway's own
    /// `POST /v1/cluster/members` — the one join there is: the loop that
    /// takes the request probes the member and answers with its node id.
    /// `Err` before the gateway has started, or when the member failed its
    /// join probe.
    pub fn join(&self, addr: SocketAddr) -> Result<NodeId, String> {
        let (gateway, _) = self
            .server
            .get()
            .ok_or_else(|| "the gateway has not started".to_string())?;
        // The gateway answers within one `probe_timeout`; the second is its
        // turns' slack.
        join_gateway(gateway, addr, self.config.probe_timeout * 2)
    }

    /// Runs the probe pass due at `now`, if one is (loop 0 calls this when
    /// the time it was last given has passed). Returns when the next pass
    /// is due, `None` once the control plane stopped.
    pub(crate) fn probe(&self, now: Instant, effects: &mut Effects) -> Option<Instant> {
        self.cluster().probe(now, effects)
    }

    /// Settles the control exchange `call`: the member's response, or why
    /// there is none.
    pub(crate) fn settle(&self, call: u64, answer: Answer, effects: &mut Effects) {
        self.cluster().settle(call, answer, effects);
    }

    /// Records a data-path failure against a member: a connect refused or
    /// never completed, or a connection that died owing it answers.
    pub(crate) fn note_upstream_failure(&self, node: NodeId) {
        self.cluster().observe(node, Observation::ExchangeFailed);
    }

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
        self.cluster().owners.record(id, node);
    }

    /// Routes one framed request. The gateway's own answers are returned;
    /// `None` means `slot` — the slot the request gets when it parks — is
    /// answered through `effects`: by the member a forward goes to, or by
    /// the job a control request starts.
    pub(crate) fn dispatch(
        &self,
        request: &RequestFrame,
        slot: ClientSlot,
        effects: &mut Effects,
    ) -> Option<HttpResponse> {
        let target = utf8_lossy(request.target());
        let Some(uri) = UriRef::parse(&target) else {
            return Some(error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                &format!("unparseable request target `{target}`"),
                false,
            ));
        };
        if uri.query.is_some() {
            return Some(error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                "query strings are not accepted",
                false,
            ));
        }
        let mut slots = [""; 4];
        let segments = uri.segments(&mut slots).unwrap_or_default();
        match (request.method(), segments) {
            (Method::Get, ["healthz"]) => Some(HttpResponse::ok(b"ok".to_vec())),
            (Method::Get, ["v1", "stats"]) => Some(self.stats_response()),
            (Method::Get, ["v1", "compositions"]) => Some(self.list_compositions()),
            (Method::Post, ["v1", "compositions"]) => {
                self.control(|cluster| cluster.register(request.body(), slot, effects))
            }
            (Method::Get, ["v1", "cluster", "members"]) => Some(self.members_response()),
            (Method::Post, ["v1", "cluster", "members"]) => {
                self.control(|cluster| cluster.join(&request.body(), slot, effects))
            }
            (Method::Post, ["v1", "cluster", "drain", node]) => {
                self.control(|cluster| cluster.drain(node, slot, effects))
            }
            // Invocations go by composition affinity, with a load-aware
            // escape hatch.
            (Method::Post, ["v1", "invoke" | "invocations", name]) if !name.is_empty() => {
                let member = self.pick_member(Some(name), &[]);
                let track_submit = segments[1] == "invocations";
                self.forward(request, member, Some(name), track_submit, slot, effects)
            }
            (Method::Get, ["v1", "invocations", id]) if !id.is_empty() => {
                self.plan_poll(request, id, slot, effects)
            }
            _ => Some(error_body(
                StatusCode::NOT_FOUND,
                "not_found",
                &format!("endpoint `{}` not found on the gateway", uri.path),
                false,
            )),
        }
    }

    /// Steps the cluster with one control request: a job that holds the
    /// slot until its exchanges settle, or an answer in hand — `503` once
    /// the control plane stopped.
    fn control(
        &self,
        job: impl FnOnce(&mut Cluster) -> Option<HttpResponse>,
    ) -> Option<HttpResponse> {
        let mut cluster = self.cluster();
        if cluster.stopped {
            return Some(error_body(
                StatusCode::SERVICE_UNAVAILABLE,
                "gateway_stopping",
                "the gateway control plane is shut down",
                true,
            ));
        }
        job(&mut cluster)
    }

    /// Queues the forward of `request` to `member` for `slot` — or answers
    /// `503` when there is no member to take it.
    fn forward(
        &self,
        request: &RequestFrame,
        member: Option<(NodeId, SocketAddr, Arc<MemberLoad>)>,
        composition: Option<&str>,
        track_submit: bool,
        slot: ClientSlot,
        effects: &mut Effects,
    ) -> Option<HttpResponse> {
        let Some((node, addr, load)) = member else {
            return Some(no_members_response());
        };
        let rope = forward_rope(request);
        let plan = ForwardPlan {
            node,
            addr,
            load,
            bytes: rope.len(),
            rope,
            track_submit,
            composition: composition.map(String::from),
            tried: Vec::new(),
        };
        effects.forwards.push((slot, plan));
        None
    }

    /// Plans the forward of a status poll: the member that accepted the
    /// submission owns the result, so the owner map wins when it can.
    fn plan_poll(
        &self,
        request: &RequestFrame,
        id_text: &str,
        slot: ClientSlot,
        effects: &mut Effects,
    ) -> Option<HttpResponse> {
        let owner = match InvocationId::parse(id_text).map(|id| self.cluster().owners.owner(id)) {
            // The id was tracked but fell out of the bounded owner map:
            // routing the poll to an arbitrary member would produce a
            // misleading `404`, so answer `410` and say why.
            Some(Err(())) => {
                self.cluster().evicted_polls += 1;
                return Some(error_body(
                    StatusCode(410),
                    "result_evicted",
                    &format!(
                        "the gateway no longer remembers which member holds `{id_text}`; \
                         its routing entry was evicted from the bounded owner map"
                    ),
                    false,
                ));
            }
            Some(Ok(owner)) => owner,
            None => None,
        };
        let member = owner
            .and_then(|node| self.member_for_poll(node))
            .or_else(|| self.pick_member(None, &[]));
        self.forward(request, member, None, false, slot, effects)
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
        let cluster = self.cluster();
        let routable = || {
            cluster
                .members
                .iter()
                .filter(|member| member.routable() && !tried.contains(&member.id))
        };
        let advertised = composition.filter(|name| routable().any(|m| m.advertises(name)));
        let eligible =
            || routable().filter(move |m| advertised.is_none_or(|name| m.advertises(name)));
        let count = eligible().count();
        if count == 0 {
            return None;
        }
        let min_score = eligible()
            .map(|member| member.load.score())
            .min()
            .unwrap_or(0);
        let preferred = composition
            .and_then(|name| {
                let index = (composition_affinity_hash(name) % count as u64) as usize;
                eligible().nth(index)
            })
            .filter(|member| member.load.score() <= 2 * min_score + AFFINITY_LOAD_SLACK);
        let chosen = match preferred {
            Some(member) => member,
            None => eligible().min_by_key(|member| member.load.score())?,
        };
        Some((chosen.id, chosen.addr, Arc::clone(&chosen.load)))
    }

    /// The member a poll for `node` should go to: the owner while it is
    /// still present and not ejected (a draining member still answers
    /// polls — refusing *new* invocations is the worker's business).
    fn member_for_poll(&self, node: NodeId) -> Option<(NodeId, SocketAddr, Arc<MemberLoad>)> {
        self.cluster()
            .members
            .iter()
            .find(|member| member.id == node && member.state != MemberState::Ejected)
            .map(|member| (member.id, member.addr, Arc::clone(&member.load)))
    }

    fn stats_response(&self) -> HttpResponse {
        let cluster = self.cluster();
        let counter = |value: &AtomicU64| JsonValue::from(value.load(Ordering::Relaxed));
        let mut pairs: Vec<(String, JsonValue)> = vec![
            ("role".into(), JsonValue::string("gateway")),
            (
                "members".into(),
                JsonValue::array(cluster.members.iter().map(Member::to_json)),
            ),
            ("proxied".into(), counter(&self.stats.proxied)),
            (
                "upstream_errors".into(),
                counter(&self.stats.upstream_errors),
            ),
            ("retries".into(), counter(&self.stats.retries)),
            ("ejections".into(), JsonValue::from(cluster.ejections)),
            ("readmissions".into(), JsonValue::from(cluster.readmissions)),
            ("drained".into(), JsonValue::from(cluster.drained)),
            (
                "evicted_polls".into(),
                JsonValue::from(cluster.evicted_polls),
            ),
            ("budget_denials".into(), counter(&self.stats.budget_denials)),
        ];
        drop(cluster);
        if let Some((_, source)) = self.server.get() {
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
        let cluster = self.cluster();
        let mut names: Vec<&str> = cluster
            .members
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

    fn members_response(&self) -> HttpResponse {
        let cluster = self.cluster();
        json_response(
            StatusCode::OK,
            &JsonValue::object([(
                "members",
                JsonValue::array(cluster.members.iter().map(Member::to_json)),
            )]),
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

pub(super) fn json_response(status: StatusCode, value: &JsonValue) -> HttpResponse {
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
    use crate::gateway::cluster::{Call, INVOCATION_ROUTE_CAPACITY};
    use dandelion_http::HttpRequest;

    fn router_without_health() -> Arc<Router> {
        Router::start(without_health())
    }

    fn without_health() -> GatewayConfig {
        GatewayConfig {
            probe_interval: Duration::from_secs(3600),
            ..GatewayConfig::default()
        }
    }

    fn insert_member(router: &Router, port: u16, compositions: &[&str]) -> NodeId {
        let member = Member::new(
            format!("127.0.0.1:{port}").parse().unwrap(),
            MemberState::Healthy,
            compositions.iter().map(|s| s.to_string()).collect(),
        );
        let id = member.id;
        router.cluster().members.push(member);
        id
    }

    fn load_of(router: &Router, node: NodeId) -> Arc<MemberLoad> {
        let cluster = router.cluster();
        Arc::clone(&cluster.members.iter().find(|m| m.id == node).unwrap().load)
    }

    fn invoke_echo() -> HttpRequest {
        HttpRequest::post("/v1/invoke/Echo", b"x".to_vec())
    }

    fn poll(id: impl std::fmt::Display) -> HttpRequest {
        HttpRequest::get(format!("/v1/invocations/{id}"))
    }

    fn drain(node: NodeId) -> HttpRequest {
        HttpRequest::post(format!("/v1/cluster/drain/{node}"), Vec::new())
    }

    fn join(addr: &str) -> HttpRequest {
        let body = format!(r#"{{"addr":"{addr}"}}"#);
        HttpRequest::post("/v1/cluster/members", body.into_bytes())
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

    /// The slot a request of the placement tests would park in.
    const SLOT: ClientSlot = ClientSlot { token: 0, seq: 0 };

    /// The plan `request` is forwarded with.
    fn forwarded(router: &Router, request: HttpRequest) -> ForwardPlan {
        let mut effects = Effects::default();
        let answer = router.dispatch(&frame(&request), SLOT, &mut effects);
        assert!(
            answer.is_none(),
            "{} {} must forward",
            request.method,
            request.target
        );
        only(effects.forwards).1
    }

    /// The gateway's own answer to `request`.
    fn answered(router: &Router, request: HttpRequest) -> HttpResponse {
        let answer = router.dispatch(&frame(&request), SLOT, &mut Effects::default());
        answer.expect("answered by the gateway itself")
    }

    /// The one item of `items`.
    fn only<T>(items: Vec<T>) -> T {
        assert_eq!(items.len(), 1, "exactly one expected");
        items.into_iter().next().unwrap()
    }

    /// A call's request line, `GET /v1/compositions HTTP/1.1` and the like.
    fn request_line(call: &Call) -> String {
        let bytes = call.request.to_vec();
        let end = bytes.windows(2).position(|pair| pair == b"\r\n").unwrap();
        utf8_lossy(&bytes[..end]).into_owned()
    }

    /// A gateway's control plane stepped by hand as its loops step it, in
    /// one thread and with no socket: each request is dispatched with a slot
    /// of its own, the probe pass due runs at the rig's clock, and every
    /// control exchange the cluster sends waits among `calls` until the row
    /// answers or fails it, as a member and the loop's deadline would.
    struct Rig {
        router: Arc<Router>,
        now: Instant,
        effects: Effects,
        /// Slots parked so far; the next request parks under this sequence.
        parked: u64,
    }

    impl Rig {
        /// A router whose clock is the rig's: it starts one probe interval
        /// before the first pass.
        fn new(config: GatewayConfig) -> Rig {
            let interval = config.probe_interval;
            let router = Router::start(config);
            let mut effects = Effects::default();
            let first = router.probe(Instant::now(), &mut effects).unwrap();
            assert!(effects.calls.is_empty(), "no pass is due at the start");
            Rig {
                router,
                now: first - interval,
                effects,
                parked: 0,
            }
        }

        fn member(&self, port: u16, compositions: &[&str]) -> NodeId {
            insert_member(&self.router, port, compositions)
        }

        /// Sends `request` from a client: the gateway's own answer, or the
        /// sequence of the slot a control job now holds.
        fn request(&mut self, request: HttpRequest) -> Result<HttpResponse, u64> {
            let slot = ClientSlot {
                token: 1,
                seq: self.parked,
            };
            let answer = self
                .router
                .dispatch(&frame(&request), slot, &mut self.effects);
            assert!(self.effects.forwards.is_empty(), "a control request");
            answer.ok_or_else(|| {
                self.parked += 1;
                slot.seq
            })
        }

        /// Moves the clock on by `by` and runs the probe pass then due, as
        /// loop 0 does.
        fn advance(&mut self, by: Duration) {
            self.now += by;
            self.router.probe(self.now, &mut self.effects);
        }

        /// The control exchanges sent since the last look.
        fn calls(&mut self) -> Vec<Call> {
            std::mem::take(&mut self.effects.calls)
        }

        /// The member answers `call` with `status` and `body`.
        fn answer(&mut self, call: &Call, status: u16, body: &str) {
            let response = HttpResponse::new(StatusCode(status), body.as_bytes().to_vec());
            let mut decoder = dandelion_http::ResponseDecoder::default();
            decoder.feed(&response.to_bytes());
            let frame = decoder.next_frame().unwrap().expect("complete");
            self.router.settle(call.id, Ok(&frame), &mut self.effects);
        }

        /// `call` gets no answer: refused, reset, or past `probe_timeout`.
        fn fail(&mut self, call: &Call) {
            self.router
                .settle(call.id, Err("no answer"), &mut self.effects);
        }

        /// The parked slots answered since the last look, by sequence.
        fn answers(&mut self) -> Vec<(u64, HttpResponse)> {
            std::mem::take(&mut self.effects.answers)
                .into_iter()
                .map(|(slot, response)| (slot.seq, response))
                .collect()
        }

        fn states(&self) -> Vec<&'static str> {
            let cluster = self.router.cluster();
            cluster
                .members
                .iter()
                .map(|member| member.state.as_str())
                .collect()
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
        let mut rig = Rig::new(without_health());
        let node = rig.member(9001, &["Echo"]);
        let slot = rig.request(drain(node)).unwrap_err();
        let relay = only(rig.calls());
        assert_eq!(request_line(&relay), "POST /v1/drain HTTP/1.1");
        assert_eq!(relay.addr.port(), 9001);
        rig.answer(&relay, 500, "");
        let (answered, response) = only(rig.answers());
        assert_eq!(answered, slot);
        assert_eq!(response.status, StatusCode::ACCEPTED);
        assert!(response.body_text().contains("\"relayed\":false"));
        // The gateway's own half still happened: no new work goes there.
        assert_eq!(rig.states(), ["draining"]);
    }

    #[test]
    fn draining_and_ejected_members_receive_no_new_work() {
        let router = router_without_health();
        insert_member(&router, 9001, &["Echo"]);
        let b = insert_member(&router, 9002, &["Echo"]);
        router.cluster().members[0].state = MemberState::Draining;
        for _ in 0..4 {
            assert_eq!(forwarded(&router, invoke_echo()).node, b);
        }
        router.cluster().members[1].state = MemberState::Ejected;
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
        let first = router
            .cluster()
            .members
            .iter()
            .map(|m| (m.id, m.state))
            .next();
        assert_eq!(first, Some((a, MemberState::Ejected)));
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
        assert_eq!(router.cluster().ejections, 2);
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
        assert_eq!(router.cluster().evicted_polls, 1);
        // Ids still tracked keep forwarding to their owner.
        let live = InvocationId::from_raw(INVOCATION_ROUTE_CAPACITY as u64);
        assert_eq!(forwarded(&router, poll(live)).node, node);
        // Resubmitting an evicted id makes it live again.
        router.record_invocation(first, node);
        assert_eq!(forwarded(&router, poll(first)).node, node);
    }

    /// The rolling restart killed the drained member and nothing is in
    /// flight: its probe fails, and the row must go — not linger as
    /// "draining".
    #[test]
    fn dead_draining_member_is_removed_when_probes_fail() {
        let config = GatewayConfig::default();
        let interval = config.probe_interval;
        let mut rig = Rig::new(config);
        let node = rig.member(9001, &["Echo"]);
        rig.request(drain(node)).unwrap_err();
        let relay = only(rig.calls());
        rig.fail(&relay);
        rig.answers();
        rig.advance(interval);
        let probe = only(rig.calls());
        assert_eq!(request_line(&probe), "GET /v1/compositions HTTP/1.1");
        rig.fail(&probe);
        assert!(
            rig.states().is_empty(),
            "a dead drained member with no in-flight work must be removed"
        );
        assert_eq!(rig.router.cluster().drained, 1);
    }

    #[test]
    fn dead_draining_member_with_inflight_work_is_removed_after_threshold() {
        let config = GatewayConfig::default();
        let (interval, threshold) = (config.probe_interval, config.fail_threshold);
        let mut rig = Rig::new(config);
        let node = rig.member(9001, &["Echo"]);
        load_of(&rig.router, node)
            .in_flight
            .store(1, Ordering::Relaxed);
        rig.request(drain(node)).unwrap_err();
        let relay = only(rig.calls());
        rig.fail(&relay);
        for round in 0..threshold {
            assert_eq!(
                rig.states().len(),
                1,
                "still within the failure threshold after {round} probes"
            );
            rig.advance(interval);
            let probe = only(rig.calls());
            rig.fail(&probe);
        }
        assert!(
            rig.states().is_empty(),
            "consecutive probe failures must remove a draining member even \
             when its in-flight gauge never settled"
        );
    }

    /// Before shutdown a control request is stepped (a drain of an unknown
    /// node is answered `404` at once); after it, every control request
    /// answers `503` instead of starting a job, and no probe pass runs.
    #[test]
    fn control_requests_answer_503_once_the_control_plane_stops() {
        let config = GatewayConfig::default();
        let interval = config.probe_interval;
        let mut rig = Rig::new(config);
        rig.member(9001, &["Echo"]);
        let unknown = drain(NodeId::from_raw(424_242));
        let response = rig.request(unknown.clone()).expect("answered at once");
        assert_eq!(response.status.0, 404, "{}", response.body_text());

        rig.router.shutdown();
        let registration = HttpRequest::post("/v1/compositions", b"composition".to_vec());
        for request in [unknown, join("127.0.0.1:9002"), registration] {
            let response = rig.request(request).expect("answered, not parked");
            assert_eq!(response.status.0, 503);
            assert!(response.body_text().contains("gateway_stopping"));
        }
        rig.advance(interval);
        assert!(rig.calls().is_empty(), "no probe after shutdown");
        assert_eq!(rig.router.probe(rig.now, &mut rig.effects), None);
    }

    /// One loop steps both, so a control job cannot hold up a probe pass:
    /// with a join to an address that never answers started every 10 ms,
    /// the passes at 100, 200 and 300 ms each probe the member that refuses
    /// connections once, and the third failure ejects it.
    #[test]
    fn probes_stay_on_schedule_under_a_stream_of_control_jobs() {
        let mut rig = Rig::new(GatewayConfig {
            probe_interval: Duration::from_millis(100),
            ..GatewayConfig::default()
        });
        rig.member(9001, &["Echo"]);
        let mut probes = 0;
        for step in 1..=30 {
            assert!(rig.request(join("10.0.0.1:9")).is_err(), "a join is a job");
            rig.advance(Duration::from_millis(10));
            for call in rig.calls() {
                if call.probe {
                    assert_eq!(call.addr.port(), 9001);
                    probes += 1;
                    rig.fail(&call);
                }
            }
            let ejected = rig.states() == ["ejected"];
            assert_eq!(
                ejected,
                step == 30,
                "after {step} steps and {probes} probes"
            );
        }
        assert_eq!(probes, 3);
        assert!(rig.answers().is_empty(), "the joins are still waiting");
    }

    /// A join's one exchange is the probe `GET /v1/compositions`. Answered,
    /// it adds the member; unanswered until the loop's deadline fails it,
    /// the join gets `502 join_failed` and the table stays as it was.
    #[test]
    fn a_join_that_is_never_answered_gets_502_and_adds_no_row() {
        let mut rig = Rig::new(without_health());
        let slot = rig.request(join("10.0.0.1:9")).unwrap_err();
        let probe = only(rig.calls());
        assert_eq!(probe.addr, "10.0.0.1:9".parse().unwrap());
        assert_eq!(request_line(&probe), "GET /v1/compositions HTTP/1.1");
        assert!(rig.answers().is_empty(), "the slot waits for the probe");
        rig.fail(&probe);
        let (answered, response) = only(rig.answers());
        assert_eq!(answered, slot);
        assert_eq!(response.status.0, 502);
        assert!(response.body_text().contains("\"join_failed\""));
        assert!(rig.states().is_empty());

        rig.request(join("127.0.0.1:9001")).unwrap_err();
        let probe = only(rig.calls());
        rig.answer(&probe, 200, r#"{"compositions":["Echo"]}"#);
        let (_, response) = only(rig.answers());
        assert_eq!(response.status.0, 201, "{}", response.body_text());
        assert_eq!(rig.states(), ["healthy"]);
        assert!(rig.router.cluster().members[0].advertises("Echo"));
    }

    /// A drain does not wait out a probe pass: it is answered as soon as its
    /// relay replies, while the probe of a stalled member is still out — and
    /// the next pass does not stack a second probe on that one.
    #[test]
    fn a_drain_is_answered_when_its_relay_replies_while_a_probe_is_outstanding() {
        let config = GatewayConfig::default();
        let interval = config.probe_interval;
        let mut rig = Rig::new(config);
        rig.member(9001, &["Echo"]);
        let drained = rig.member(9002, &["Echo"]);
        rig.advance(interval);
        let probes = rig.calls();
        assert_eq!(probes.len(), 2);
        for probe in probes.iter().filter(|probe| probe.addr.port() == 9002) {
            rig.answer(probe, 200, r#"{"compositions":["Echo"]}"#);
        }

        let slot = rig.request(drain(drained)).unwrap_err();
        let relay = only(rig.calls());
        assert_eq!(relay.addr.port(), 9002);
        rig.answer(&relay, 202, "{}");
        let (answered, response) = only(rig.answers());
        assert_eq!(answered, slot);
        assert_eq!(response.status, StatusCode::ACCEPTED);
        assert!(response.body_text().contains("\"relayed\":true"));

        rig.advance(interval);
        let next = only(rig.calls());
        assert_eq!(
            next.addr.port(),
            9002,
            "the stalled member's probe is still out"
        );
    }

    /// One of two members refuses a registration: the client learns it
    /// (`502 partial_registration`), and only the member that registered
    /// the composition advertises it, so affinity never routes it to the
    /// member that would answer `404`.
    #[test]
    fn a_partial_registration_advertises_only_on_the_member_that_accepted() {
        let mut rig = Rig::new(without_health());
        let accepted = rig.member(9001, &["Echo"]);
        rig.member(9002, &["Echo"]);
        let dsl = b"composition Fresh(Input) => Output { Echo(In = all Input) => (Output = Out); }";
        let slot = rig
            .request(HttpRequest::post("/v1/compositions", dsl.to_vec()))
            .unwrap_err();
        let calls = rig.calls();
        assert_eq!(calls.len(), 2);
        for call in &calls {
            assert_eq!(request_line(call), "POST /v1/compositions HTTP/1.1");
            assert!(call.request.to_vec().ends_with(dsl));
        }
        let (first, second) = (&calls[0], &calls[1]);
        assert_eq!(first.addr.port(), 9001);
        rig.answer(first, 201, r#"{"name":"Fresh"}"#);
        assert!(rig.answers().is_empty(), "the broadcast waits for both");
        rig.answer(second, 400, r#"{"error":{"code":"invalid_request"}}"#);
        let (answered, response) = only(rig.answers());
        assert_eq!(answered, slot);
        assert_eq!(response.status.0, 502);
        assert!(response.body_text().contains("\"partial_registration\""));

        let advertising: Vec<bool> = rig
            .router
            .cluster()
            .members
            .iter()
            .map(|member| member.advertises("Fresh"))
            .collect();
        assert_eq!(advertising, [true, false]);
        for _ in 0..8 {
            let invoke = HttpRequest::post("/v1/invoke/Fresh", b"x".to_vec());
            assert_eq!(forwarded(&rig.router, invoke).node, accepted);
        }
    }
}
