//! The gateway's membership table.
//!
//! Each member is a worker node reachable over the v1 HTTP protocol. The
//! table records what the node advertised (its compositions, refreshed on
//! every health probe so changes re-advertise automatically), its health
//! state, and the gateway-side load gauges the router places by: requests
//! in flight to the node and bytes queued toward it.
//!
//! A member's health is one state machine, [`Member::observe`]: the only
//! code that moves a member between `Healthy` and `Ejected` or touches the
//! failure streak and window it judges by. It reads no clock and takes no
//! lock — the cluster's probe pass is its tick and the table lock is the
//! caller's — so a script drives it exactly as the event loops do.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dandelion_common::{JsonValue, NodeId};

use crate::gateway::GatewayConfig;

/// Health / lifecycle state of one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum MemberState {
    /// The router sends new work here.
    Healthy,
    /// Taken out of rotation by the streak rule or the rate rule (see
    /// [`Member::observe`]): no new work until a probe succeeds again
    /// (re-admission).
    Ejected,
    /// Draining for a rolling restart: no new work; the member is removed
    /// once its in-flight count reaches zero.
    Draining,
}

impl MemberState {
    /// Stable lowercase name used in the membership JSON document.
    pub(super) fn as_str(&self) -> &'static str {
        match self {
            MemberState::Healthy => "healthy",
            MemberState::Ejected => "ejected",
            MemberState::Draining => "draining",
        }
    }
}

/// One success deposits `1` token unit and one retry withdraws
/// [`RETRY_BUDGET_SCALE`] units, capping sustained retries at ~10% of
/// recent successes.
const RETRY_BUDGET_SCALE: usize = 10;
/// Token ceiling: at most 100 banked retries, so a long quiet streak of
/// successes cannot fund an unbounded retry storm later.
const RETRY_BUDGET_MAX: usize = 100 * RETRY_BUDGET_SCALE;
/// Cold-start balance: 10 retries before any success is observed, enough
/// to ride out a member restarting during gateway boot.
const RETRY_BUDGET_INITIAL: usize = 10 * RETRY_BUDGET_SCALE;

/// A token-bucket retry budget: retries against a member are funded by
/// that member's recent successes, so a down cluster is not DDoS'd by its
/// own gateway replaying every failure (the classic retry-budget design
/// from the SRE literature, fixed-point with integer atomics). It limits
/// how much retrying amplifies load; it does not judge health.
#[derive(Debug)]
pub(crate) struct RetryBudget {
    /// Token units (`RETRY_BUDGET_SCALE` units = one retry).
    tokens: AtomicUsize,
}

impl Default for RetryBudget {
    fn default() -> RetryBudget {
        RetryBudget {
            tokens: AtomicUsize::new(RETRY_BUDGET_INITIAL),
        }
    }
}

impl RetryBudget {
    /// A delivered response funds a sliver of future retry capacity.
    pub(crate) fn note_success(&self) {
        let _ = self
            .tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |tokens| {
                (tokens < RETRY_BUDGET_MAX).then_some(tokens + 1)
            });
    }

    /// Attempts to withdraw one retry's worth of tokens; `false` means the
    /// budget is exhausted and the caller must fail fast instead.
    pub(crate) fn try_withdraw(&self) -> bool {
        self.tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |tokens| {
                tokens.checked_sub(RETRY_BUDGET_SCALE)
            })
            .is_ok()
    }

    /// Whole retries currently funded (stats/debugging).
    pub(crate) fn balance(&self) -> usize {
        self.tokens.load(Ordering::Relaxed) / RETRY_BUDGET_SCALE
    }
}

/// The rate rule's floor: failures plus answers in the window before it may
/// eject, so one early failure on a quiet member does not.
const RATE_MIN_OBSERVATIONS: usize = 5;

/// Gateway-side load gauges of one member, updated by the event loops as
/// requests are forwarded and settled. Shared via `Arc` so routing reads
/// them without holding the table lock.
#[derive(Debug, Default)]
pub(crate) struct MemberLoad {
    /// Requests forwarded and not yet answered (or failed).
    pub in_flight: AtomicUsize,
    /// Serialized request bytes accepted for this member and not yet
    /// settled — the "queued bytes" half of the load score.
    pub queued_bytes: AtomicUsize,
    /// Token-bucket budget gating forward retries against this member.
    pub retry_budget: RetryBudget,
    /// Exchanges the member ever answered: the one increment an answer
    /// costs the health machine, which reads it instead of being told.
    /// Relaxed, like the gauges above: it publishes no other data.
    pub answered: AtomicUsize,
}

impl MemberLoad {
    /// The routing score: in-flight requests weighted with queued payload
    /// (16 KiB of unsent body counts like one extra request).
    pub(crate) fn score(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
            + self.queued_bytes.load(Ordering::Relaxed) / (16 * 1024)
    }
}

/// What the health machine learns about a member.
#[derive(Debug)]
pub(super) enum Observation {
    /// A probe was answered, with the compositions the member advertises.
    ProbeAnswered(Vec<String>),
    /// A probe was not answered, or not with what it asked for.
    ProbeFailed,
    /// An exchange failed on the data path: its connect was refused or
    /// never completed, or its connection died with it queued or on the
    /// wire.
    ExchangeFailed,
}

/// A change [`Member::observe`] made that its caller counts or acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Transition {
    /// Healthy → Ejected.
    Ejected,
    /// Ejected → Healthy.
    Readmitted,
    /// A draining member is done; the caller removes its row.
    Removed,
}

/// Failures with no answered exchange and no probe success between them.
#[derive(Debug, Default, Clone, Copy)]
struct Streak {
    failures: u32,
    /// [`MemberLoad::answered`] at the last failure: a different count at
    /// the next one means an exchange was answered in between.
    answered: usize,
}

/// Failures and answers since the window began, halved by each probe pass
/// so the rate rule judges recent traffic, not all-time totals.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    failures: usize,
    /// The window holds the answers [`MemberLoad::answered`] counted past
    /// this mark. The count never falls below a mark taken from it: it only
    /// grows, and observations of one member are serialised by the table
    /// lock.
    answered_from: usize,
}

impl Window {
    fn halve(&mut self, answered: usize) {
        self.failures /= 2;
        self.answered_from = answered - (answered - self.answered_from) / 2;
    }

    /// The rate rule: failures that reach the answers, over enough
    /// observations to mean something.
    fn failing(&self, answered: usize) -> bool {
        let answers = answered - self.answered_from;
        self.failures >= answers && self.failures + answers >= RATE_MIN_OBSERVATIONS
    }
}

/// One row of the membership table.
pub(super) struct Member {
    /// Cluster-wide identity assigned at join.
    pub id: NodeId,
    /// Where the member's v1 HTTP server listens.
    pub addr: SocketAddr,
    /// Current health / lifecycle state. [`Member::observe`] moves it
    /// between `Healthy` and `Ejected`; join and drain set it.
    pub state: MemberState,
    streak: Streak,
    window: Window,
    /// Compositions the node advertised on its last successful probe.
    pub compositions: Vec<String>,
    /// Gateway-side load gauges.
    pub load: Arc<MemberLoad>,
}

impl Member {
    /// A freshly joined member.
    pub(super) fn new(addr: SocketAddr, state: MemberState, compositions: Vec<String>) -> Member {
        Member {
            id: NodeId::next(),
            addr,
            state,
            streak: Streak::default(),
            window: Window::default(),
            compositions,
            load: Arc::new(MemberLoad::default()),
        }
    }

    /// The health machine: applies one observation and returns the
    /// transition it made, if any. Two rules eject a healthy member, and a
    /// succeeding probe readmits it whichever did:
    ///
    /// * **streak** — `fail_threshold` failures, probes or exchanges, with
    ///   no answered exchange and no probe success between them: a dead
    ///   member leaves rotation at once, and a busy one that fails now and
    ///   then does not;
    /// * **rate** — failures that reach the answers in the window, over at
    ///   least five observations, even while probes pass: a member that
    ///   answers its probes and fails half its traffic.
    ///
    /// A draining member is removed on a probe that finds it idle, answered
    /// or not, or once its streak reaches the threshold: the rolling restart
    /// kills the process when its work is done, and a ghost "draining" row
    /// must not wait forever for a probe that will never succeed.
    pub(super) fn observe(
        &mut self,
        observation: Observation,
        config: &GatewayConfig,
    ) -> Option<Transition> {
        let answered = self.load.answered.load(Ordering::Relaxed);
        let idle = self.load.in_flight.load(Ordering::Relaxed) == 0;
        let probe = !matches!(observation, Observation::ExchangeFailed);
        if probe {
            self.window.halve(answered);
        }
        if let Observation::ProbeAnswered(compositions) = observation {
            self.compositions = compositions;
            self.streak.failures = 0;
            return match self.state {
                MemberState::Ejected => {
                    self.state = MemberState::Healthy;
                    Some(Transition::Readmitted)
                }
                MemberState::Draining if idle => Some(Transition::Removed),
                _ => None,
            };
        }
        if self.streak.answered != answered {
            self.streak.failures = 0;
        }
        self.streak.failures = self.streak.failures.saturating_add(1);
        self.streak.answered = answered;
        self.window.failures += 1;
        let streak_ended = self.streak.failures >= config.fail_threshold;
        match self.state {
            MemberState::Healthy if streak_ended || self.window.failing(answered) => {
                self.state = MemberState::Ejected;
                // A readmitted member starts a fresh window.
                self.window = Window {
                    failures: 0,
                    answered_from: answered,
                };
                Some(Transition::Ejected)
            }
            MemberState::Draining if probe && (idle || streak_ended) => Some(Transition::Removed),
            _ => None,
        }
    }

    /// Whether the router may send new work here.
    pub(super) fn routable(&self) -> bool {
        self.state == MemberState::Healthy
    }

    /// Whether this member advertises `composition`.
    pub(super) fn advertises(&self, composition: &str) -> bool {
        self.compositions.iter().any(|name| name == composition)
    }

    /// The member as one entry of the membership JSON document.
    pub(super) fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("node", JsonValue::string(self.id.to_string())),
            ("addr", JsonValue::string(self.addr.to_string())),
            ("state", JsonValue::string(self.state.as_str())),
            ("failures", JsonValue::from(u64::from(self.streak.failures))),
            (
                "in_flight",
                JsonValue::from(self.load.in_flight.load(Ordering::Relaxed)),
            ),
            (
                "queued_bytes",
                JsonValue::from(self.load.queued_bytes.load(Ordering::Relaxed)),
            ),
            (
                "retry_budget",
                JsonValue::from(self.load.retry_budget.balance()),
            ),
            (
                "compositions",
                JsonValue::array(
                    self.compositions
                        .iter()
                        .map(|name| JsonValue::string(name.clone())),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plays `script` on a member in `state` with `in_flight` exchanges
    /// outstanding — `a` an answered exchange, `f` a failed one, `p` a
    /// failed probe, `P` an answered one — and returns what each
    /// observation did: `.` nothing, `E` ejected, `R` readmitted, `X`
    /// removed.
    fn play(state: MemberState, in_flight: usize, config: &GatewayConfig, script: &str) -> String {
        let mut member = Member::new("127.0.0.1:9000".parse().unwrap(), state, Vec::new());
        member.load.in_flight.store(in_flight, Ordering::Relaxed);
        let mut transitions = String::new();
        for step in script.chars() {
            let observation = match step {
                'a' => {
                    member.load.answered.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                'f' => Observation::ExchangeFailed,
                'p' => Observation::ProbeFailed,
                _ => Observation::ProbeAnswered(Vec::new()),
            };
            transitions.push(match member.observe(observation, config) {
                None => '.',
                Some(Transition::Ejected) => 'E',
                Some(Transition::Readmitted) => 'R',
                Some(Transition::Removed) => 'X',
            });
        }
        transitions
    }

    fn healthy(script: &str) -> String {
        play(MemberState::Healthy, 0, &GatewayConfig::default(), script)
    }

    /// Streaks as long as the rate rule could ever need, so it alone decides.
    fn rate_only(script: &str) -> String {
        let config = GatewayConfig {
            fail_threshold: 100,
            ..GatewayConfig::default()
        };
        play(MemberState::Healthy, 0, &config, script)
    }

    #[test]
    fn load_score_weighs_queued_bytes() {
        let load = MemberLoad::default();
        assert_eq!(load.score(), 0);
        load.in_flight.store(3, Ordering::Relaxed);
        load.queued_bytes.store(64 * 1024, Ordering::Relaxed);
        assert_eq!(load.score(), 3 + 4);
    }

    #[test]
    fn retry_budget_caps_retries_to_a_fraction_of_successes() {
        let budget = RetryBudget::default();
        // Drain the cold-start allowance.
        let mut granted = 0;
        while budget.try_withdraw() {
            granted += 1;
        }
        assert_eq!(granted, RETRY_BUDGET_INITIAL / RETRY_BUDGET_SCALE);
        assert!(!budget.try_withdraw(), "an empty bucket refuses retries");
        // 10 successes fund exactly one retry.
        for _ in 0..RETRY_BUDGET_SCALE {
            budget.note_success();
        }
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
        // The bucket is capped: endless successes cannot bank endless
        // retries.
        for _ in 0..10 * RETRY_BUDGET_MAX {
            budget.note_success();
        }
        assert_eq!(budget.balance(), RETRY_BUDGET_MAX / RETRY_BUDGET_SCALE);
    }

    /// Probes and exchanges alike; failures while ejected change nothing.
    #[test]
    fn three_failures_in_a_row_eject() {
        for script in ["ffff", "pppp", "fpff"] {
            assert_eq!(healthy(script), "..E.", "{script}");
        }
    }

    /// A busy member that fails now and then keeps serving, however many
    /// failures one probe interval holds, and a probe success ends a streak
    /// too.
    #[test]
    fn an_answer_between_failures_restarts_the_streak() {
        let busy = format!("{}ff", "a".repeat(100)).repeat(10);
        let expected = format!("{}...E", ".".repeat(20));
        assert_eq!(healthy(&format!("{busy}Pfpf")), expected);
        assert_eq!(healthy("ffPff"), ".....");
    }

    /// Every streak one failure long, every probe passing: the rate rule
    /// ejects once the failures reach the answers over five observations,
    /// and the next probe readmits.
    #[test]
    fn a_rate_ejection_while_probes_pass() {
        assert_eq!(healthy("PafafafP"), "...ER");
    }

    /// Five failures against no answers eject, four do not, a probe
    /// readmits, and the window starts afresh.
    #[test]
    fn error_rate_ejects_and_a_probe_readmits() {
        assert_eq!(rate_only("ffffffPffff"), "....E.R....");
    }

    /// 30 % failures do not eject, before or after a probe halves both sides.
    #[test]
    fn a_member_survives_failures_when_answers_dominate() {
        let script = format!("{}{}PPfff", "a".repeat(100), "f".repeat(30));
        assert!(!rate_only(&script).contains('E'));
    }

    /// Idle, a draining member leaves on any probe; busy, after a streak of
    /// failures that ends on a failed probe (its in-flight gauge may never
    /// settle) — never on a failed exchange alone.
    #[test]
    fn the_two_rules_that_remove_a_draining_member() {
        let config = GatewayConfig::default();
        for (in_flight, script, expected) in [
            (0, "P", "X"),
            (0, "p", "X"),
            (1, "PPP", "..."),
            (1, "ppp", "..X"),
            (1, "ppfffp", ".....X"),
        ] {
            let played = play(MemberState::Draining, in_flight, &config, script);
            assert_eq!(played, expected, "{in_flight} in flight, {script}");
        }
    }

    #[test]
    fn member_json_carries_identity_and_state() {
        let mut member = Member::new(
            "127.0.0.1:9000".parse().unwrap(),
            MemberState::Healthy,
            Vec::new(),
        );
        member.observe(
            Observation::ProbeAnswered(vec!["EchoComp".to_string()]),
            &GatewayConfig::default(),
        );
        member.observe(Observation::ExchangeFailed, &GatewayConfig::default());
        assert!(member.routable());
        assert!(member.advertises("EchoComp"));
        assert!(!member.advertises("Other"));
        let json = member.to_json().to_json_string();
        assert!(json.contains("\"state\":\"healthy\""));
        assert!(json.contains("\"failures\":1"));
        assert!(json.contains("EchoComp"));
    }
}
