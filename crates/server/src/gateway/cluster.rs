//! The gateway's control plane as one plain value.
//!
//! [`Cluster`] owns the membership table, the invocation-owner map, the
//! probe schedule, the control jobs in flight (joins, registration
//! broadcasts, drain relays) and whether the control plane has stopped. It
//! has no lock, no clock and no thread: a transition takes the `now` its
//! caller read where it needs one and writes what is left to do — control
//! exchanges to send, client slots to answer — into [`Effects`] the caller
//! owns and applies after the router's one lock is released. So a job's
//! exchanges leave from the loop that parsed its request, and their answers
//! come back to that loop, which answers the slot. An answer or a failure
//! is reported through [`Cluster::settle`]: a probe's to the member's health
//! machine ([`Member::observe`]), a job's to the job, never replanned.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::time::Instant;

use dandelion_common::{utf8_lossy, InvocationId, JsonValue, NodeId, Rope, SharedBytes};
use dandelion_core::frontend::error_body;
use dandelion_http::{HttpRequest, HttpResponse, ResponseFrame, StatusCode};

use crate::conn::ClientSlot;
use crate::gateway::membership::{Member, MemberState, Observation, Transition};
use crate::gateway::router::{json_response, no_members_response, ForwardPlan};
use crate::gateway::GatewayConfig;

/// Invocation-owner entries retained for poll routing; the oldest entries
/// are evicted first once the map is full.
pub(super) const INVOCATION_ROUTE_CAPACITY: usize = 64 * 1024;

/// A control exchange to send: `request` to `addr` on an upstream opened
/// for it, its answer or failure settled under `id`.
pub(crate) struct Call {
    pub(crate) id: u64,
    pub(crate) addr: SocketAddr,
    pub(crate) request: Rope,
    /// A health probe: the `gateway/probe` failpoint may fail it unsent.
    pub(crate) probe: bool,
}

/// What routing a request or a [`Cluster`] transition leaves the loop to do
/// once the lock is released.
#[derive(Default)]
pub(crate) struct Effects {
    /// Requests to forward, each for the slot that waits for its response.
    pub(crate) forwards: Vec<(ClientSlot, ForwardPlan)>,
    pub(crate) calls: Vec<Call>,
    pub(crate) answers: Vec<(ClientSlot, HttpResponse)>,
}

/// A member's response to a control exchange, or why there is none.
pub(crate) type Answer<'a> = Result<&'a ResponseFrame, &'a str>;

/// What a control exchange in flight is for.
enum Purpose {
    Probe(NodeId),
    /// A join's one probe of the candidate.
    Join(ClientSlot, SocketAddr),
    /// The drain signal relayed to the member.
    Drain(ClientSlot, NodeId),
    /// The member's share of the registration broadcast with this id.
    Register(u64, NodeId),
}

/// A registration broadcast waiting for its members' answers.
#[derive(Default)]
struct Broadcast {
    slot: ClientSlot,
    /// Members the registration went to.
    targets: usize,
    /// The name the members that answered `201` gave it, and who they are.
    name: Option<String>,
    accepted: Vec<NodeId>,
    failures: Vec<String>,
}

/// Bounded invocation-id → owner map for poll routing. Evicted ids are
/// remembered (in a second bounded FIFO) so a poll for one answers a
/// structured `410 result_evicted` instead of being misrouted to an
/// arbitrary member that never heard of it.
#[derive(Default)]
pub(super) struct InvocationOwners {
    owners: HashMap<InvocationId, NodeId>,
    order: VecDeque<InvocationId>,
    evicted: HashSet<InvocationId>,
    evicted_order: VecDeque<InvocationId>,
}

impl InvocationOwners {
    pub(super) fn record(&mut self, id: InvocationId, node: NodeId) {
        // A resubmitted id is live again: forget any earlier eviction.
        if self.evicted.remove(&id) {
            self.evicted_order.retain(|old| *old != id);
        }
        if self.owners.insert(id, node).is_some() {
            return;
        }
        // One id in, at most one out of each bounded FIFO.
        self.order.push_back(id);
        if self.order.len() > INVOCATION_ROUTE_CAPACITY {
            let evicted = self.order.pop_front().expect("the map is full");
            self.owners.remove(&evicted);
            if self.evicted.insert(evicted) {
                self.evicted_order.push_back(evicted);
            }
        }
        if self.evicted_order.len() > INVOCATION_ROUTE_CAPACITY {
            let forgotten = self.evicted_order.pop_front().expect("the set is full");
            self.evicted.remove(&forgotten);
        }
    }

    /// The member that accepted `id`: `Err` when the id fell out of the map.
    pub(super) fn owner(&self, id: InvocationId) -> Result<Option<NodeId>, ()> {
        if self.evicted.contains(&id) {
            return Err(());
        }
        Ok(self.owners.get(&id).copied())
    }
}

/// The gateway's control plane (see the module docs).
#[derive(Default)]
pub(super) struct Cluster {
    pub(super) config: GatewayConfig,
    pub(super) members: Vec<Member>,
    pub(super) owners: InvocationOwners,
    /// When the next probe pass is due; the first call schedules the first.
    next_probe: Option<Instant>,
    /// Control exchanges sent and not yet settled.
    calls: HashMap<u64, Purpose>,
    /// Registration broadcasts that are still owed answers.
    broadcasts: HashMap<u64, Broadcast>,
    /// The last id handed to a call or a broadcast.
    last_id: u64,
    /// No more probe passes, and control requests answer `503`.
    pub(super) stopped: bool,
    /// Counted for `/v1/stats`: members ejected (by either rule), ejected
    /// members a probe re-admitted, draining members removed once idle, and
    /// polls for ids the owner map evicted (answered `410`).
    pub(super) ejections: u64,
    pub(super) readmissions: u64,
    pub(super) drained: u64,
    pub(super) evicted_polls: u64,
}

impl Cluster {
    /// Runs the probe pass due at `now`, if one is: every member whose last
    /// probe has settled gets `GET /v1/compositions`. Returns when the next
    /// pass is due, `None` once the control plane stopped.
    pub(super) fn probe(&mut self, now: Instant, effects: &mut Effects) -> Option<Instant> {
        if self.stopped {
            return None;
        }
        let interval = self.config.probe_interval;
        if now >= *self.next_probe.get_or_insert(now + interval) {
            self.next_probe = Some(now + interval);
            for index in 0..self.members.len() {
                let (node, addr) = (self.members[index].id, self.members[index].addr);
                let mut calls = self.calls.values();
                if !calls
                    .any(|purpose| matches!(purpose, Purpose::Probe(probed) if *probed == node))
                {
                    let request = HttpRequest::get("/v1/compositions");
                    self.call(Purpose::Probe(node), addr, request, effects);
                }
            }
        }
        self.next_probe
    }

    /// `POST /v1/cluster/members` with body `{"addr": "host:port"}`: probes
    /// the candidate once; the slot is answered when the probe settles.
    pub(super) fn join(
        &mut self,
        body: &[u8],
        slot: ClientSlot,
        effects: &mut Effects,
    ) -> Option<HttpResponse> {
        let addr = JsonValue::parse(&utf8_lossy(body))
            .ok()
            .and_then(|document| document.get("addr")?.as_str()?.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            return Some(error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                "body must be a JSON object with an `addr` of the form `host:port`",
                false,
            ));
        };
        let request = HttpRequest::get("/v1/compositions");
        self.call(Purpose::Join(slot, addr), addr, request, effects);
        None
    }

    /// `POST /v1/compositions`: one broadcast to every routable member,
    /// answered when the last of them has answered or failed.
    pub(super) fn register(
        &mut self,
        body: SharedBytes,
        slot: ClientSlot,
        effects: &mut Effects,
    ) -> Option<HttpResponse> {
        let targets: Vec<(NodeId, SocketAddr)> = self
            .members
            .iter()
            .filter(|member| member.routable())
            .map(|member| (member.id, member.addr))
            .collect();
        if targets.is_empty() {
            return Some(no_members_response());
        }
        self.last_id += 1;
        let job = self.last_id;
        let broadcast = Broadcast {
            slot,
            targets: targets.len(),
            ..Broadcast::default()
        };
        self.broadcasts.insert(job, broadcast);
        for (node, addr) in targets {
            let request = HttpRequest::post("/v1/compositions", body.clone());
            self.call(Purpose::Register(job, node), addr, request, effects);
        }
        None
    }

    /// `POST /v1/cluster/drain/{node}`: the member takes no new work from
    /// here on, and the signal is relayed to it so it refuses work arriving
    /// around the gateway too; the slot is answered when the relay settles.
    pub(super) fn drain(
        &mut self,
        node_text: &str,
        slot: ClientSlot,
        effects: &mut Effects,
    ) -> Option<HttpResponse> {
        let Some(node) = NodeId::parse(node_text) else {
            return Some(error_body(
                StatusCode::BAD_REQUEST,
                "invalid_request",
                &format!("malformed node id `{node_text}`"),
                false,
            ));
        };
        let Some(member) = self.members.iter_mut().find(|member| member.id == node) else {
            return Some(error_body(
                StatusCode::NOT_FOUND,
                "not_found",
                &format!("no member `{node}` in the cluster"),
                false,
            ));
        };
        member.state = MemberState::Draining;
        let (addr, request) = (member.addr, HttpRequest::post("/v1/drain", Vec::new()));
        self.call(Purpose::Drain(slot, node), addr, request, effects);
        None
    }

    /// Settles the control exchange `call` with the member's `answer`, or
    /// with why there is none.
    pub(super) fn settle(&mut self, call: u64, answer: Answer, effects: &mut Effects) {
        let (slot, response) = match self.calls.remove(&call) {
            None => return,
            Some(Purpose::Probe(node)) => {
                let observation = compositions(answer)
                    .map_or(Observation::ProbeFailed, Observation::ProbeAnswered);
                return self.observe(node, observation);
            }
            Some(Purpose::Join(slot, addr)) => match compositions(answer) {
                Ok(names) => {
                    let node = self.admit(addr, names).to_string();
                    let document = JsonValue::object([
                        ("node", JsonValue::string(node)),
                        ("addr", JsonValue::string(addr.to_string())),
                    ]);
                    (slot, json_response(StatusCode::CREATED, &document))
                }
                Err(error) => {
                    let message = format!("member {addr} failed its join probe: {error}");
                    let response = error_body(StatusCode(502), "join_failed", &message, true);
                    (slot, response)
                }
            },
            Some(Purpose::Drain(slot, node)) => {
                // Only the member's own `202` means it began draining — a
                // `404`, a `429` from its rate limit or a `500` did not.
                let relayed = expect(answer, StatusCode::ACCEPTED, "POST /v1/drain").is_ok();
                let document = JsonValue::object([
                    ("node", JsonValue::string(node.to_string())),
                    ("state", JsonValue::string("draining")),
                    ("relayed", JsonValue::from(relayed)),
                ]);
                (slot, json_response(StatusCode::ACCEPTED, &document))
            }
            Some(Purpose::Register(job, node)) => {
                let Some(mut broadcast) = self.broadcasts.remove(&job) else {
                    return;
                };
                match registered_name(answer) {
                    Ok(name) => {
                        broadcast.name = Some(name);
                        broadcast.accepted.push(node);
                    }
                    Err(error) => broadcast.failures.push(format!("{node}: {error}")),
                }
                if broadcast.accepted.len() + broadcast.failures.len() < broadcast.targets {
                    self.broadcasts.insert(job, broadcast);
                    return;
                }
                (broadcast.slot, self.advertise(broadcast))
            }
        };
        effects.answers.push((slot, response));
    }

    /// Hands one observation to `node`'s health machine and applies what it
    /// decided: counted, and a finished draining member's row removed.
    pub(super) fn observe(&mut self, node: NodeId, observation: Observation) {
        let Some(index) = self.members.iter().position(|member| member.id == node) else {
            return;
        };
        match self.members[index].observe(observation, &self.config) {
            None => {}
            Some(Transition::Ejected) => self.ejections += 1,
            Some(Transition::Readmitted) => self.readmissions += 1,
            Some(Transition::Removed) => {
                self.members.remove(index);
                self.drained += 1;
            }
        }
    }

    /// Sends `request` to `addr` as a new call for `purpose`.
    fn call(
        &mut self,
        purpose: Purpose,
        addr: SocketAddr,
        request: HttpRequest,
        effects: &mut Effects,
    ) {
        self.last_id += 1;
        let probe = matches!(purpose, Purpose::Probe(_));
        let (id, request) = (self.last_id, request.to_rope());
        effects.calls.push(Call {
            id,
            addr,
            request,
            probe,
        });
        self.calls.insert(id, purpose);
    }

    /// Adds the member at `addr`, advertising `compositions`. Re-joining an
    /// address resets its row instead of duplicating it (a restarted member
    /// announces itself again): back in rotation, and the join probe ends
    /// its failure streak like any probe.
    fn admit(&mut self, addr: SocketAddr, compositions: Vec<String>) -> NodeId {
        if let Some(existing) = self.members.iter_mut().find(|member| member.addr == addr) {
            existing.state = MemberState::Healthy;
            existing.observe(Observation::ProbeAnswered(compositions), &self.config);
            return existing.id;
        }
        let member = Member::new(addr, MemberState::Healthy, compositions);
        let id = member.id;
        self.members.push(member);
        id
    }

    /// A finished broadcast's answer. The name is advertised at once on
    /// the members that registered it — and only on them, or affinity could
    /// route to a member that answers `404` — instead of at their next
    /// probe.
    fn advertise(&mut self, broadcast: Broadcast) -> HttpResponse {
        let failures = broadcast.failures.join("; ");
        let Some(name) = broadcast.name else {
            let message = format!("no member accepted the composition: {failures}");
            return error_body(StatusCode(502), "upstream_failed", &message, true);
        };
        for member in &mut self.members {
            if broadcast.accepted.contains(&member.id) && !member.advertises(&name) {
                member.compositions.push(name.clone());
            }
        }
        if broadcast.failures.is_empty() {
            let document = JsonValue::object([
                ("name", JsonValue::string(name)),
                ("nodes", JsonValue::from(broadcast.targets)),
            ]);
            return json_response(StatusCode::CREATED, &document);
        }
        let message = format!(
            "composition `{name}` registered on {} of {} members; failed: {failures}",
            broadcast.accepted.len(),
            broadcast.targets,
        );
        error_body(StatusCode(502), "partial_registration", &message, true)
    }
}

/// The body of a member's answer to `request` when it has the `expected`
/// status; otherwise an error naming what the member said instead.
fn expect(answer: Answer, expected: StatusCode, request: &str) -> Result<SharedBytes, String> {
    let response = answer.map_err(String::from)?;
    if response.status() != expected {
        return Err(format!(
            "{request} answered {}: {}",
            response.status().0,
            utf8_lossy(&response.body())
        ));
    }
    Ok(response.body())
}

/// The compositions a member listed in its answer to the probe.
fn compositions(answer: Answer) -> Result<Vec<String>, String> {
    let body = expect(answer, StatusCode::OK, "GET /v1/compositions")?;
    let document =
        JsonValue::parse(&utf8_lossy(&body)).map_err(|error| format!("bad JSON: {error}"))?;
    let names = document
        .get("compositions")
        .and_then(JsonValue::as_array)
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

/// The name a member gave a composition it registered.
fn registered_name(answer: Answer) -> Result<String, String> {
    let body = expect(answer, StatusCode::CREATED, "POST /v1/compositions")?;
    JsonValue::parse(&utf8_lossy(&body))
        .ok()
        .and_then(|document| document.get("name")?.as_str().map(String::from))
        .ok_or_else(|| "registration response carried no name".to_string())
}
