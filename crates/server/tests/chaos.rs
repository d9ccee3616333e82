//! Failpoint-driven chaos through a real gateway and real member workers.
//!
//! Each test stands up the cluster over loopback sockets, turns on a
//! failpoint (`upstream/write`, `upstream/read`, `gateway/probe`,
//! `engine/reply`), hammers it with concurrent clients, and asserts the
//! robustness contract: every request gets exactly one response (nothing
//! lost, nothing duplicated), error counters reconcile with what the
//! clients saw, and once the fault clears the cluster heals on its own —
//! succeeding probes re-admit the members that failure streaks or failure
//! rates ejected.
//!
//! The failpoint registry is process-global, so every test takes the
//! [`serial`] guard and clears the registry on entry and exit — the suite
//! is safe under the default parallel test runner.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dandelion_common::failpoint::{self, FailAction};
use dandelion_common::JsonValue;
use dandelion_http::HttpRequest;

mod common;
use common::{connect, shutdown, start_gateway, start_member, test_gateway_config};

/// Serializes the tests and guarantees a clean failpoint registry around
/// each one, even when an assertion fails mid-test.
fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::clear();
    guard
}

struct ClearOnDrop;

impl Drop for ClearOnDrop {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn gateway_stats(addr: SocketAddr) -> JsonValue {
    let mut client = connect(addr);
    let response = client.request(&HttpRequest::get("/v1/stats")).unwrap();
    assert_eq!(response.status.0, 200);
    JsonValue::parse(&response.body_text()).expect("stats JSON")
}

/// Member states from the gateway's membership document.
fn member_states(addr: SocketAddr) -> Vec<String> {
    let mut client = connect(addr);
    let response = client
        .request(&HttpRequest::get("/v1/cluster/members"))
        .unwrap();
    assert_eq!(response.status.0, 200);
    JsonValue::parse(&response.body_text())
        .expect("members JSON")
        .get("members")
        .and_then(JsonValue::as_array)
        .expect("members array")
        .iter()
        .map(|member| {
            member
                .get("state")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

/// Waits out a condition with a hard deadline; chaos recovery is
/// asynchronous (probe cadence, backoff timers) so polling is the only
/// honest way to observe it.
fn wait_for(what: &str, deadline: Duration, mut condition: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if condition() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

/// One client's view of one invocation: the payload it sent, the status
/// it got back, and the body.
struct Outcome {
    payload: String,
    status: u16,
    body: String,
}

/// Fires `threads × per_thread` invocations at the gateway, each with a
/// unique payload, each on its own connection. A request that never gets
/// a response fails the test here (the client read times out) — that IS
/// the zero-lost assertion.
fn blast(addr: SocketAddr, threads: usize, per_thread: usize) -> Vec<Outcome> {
    let handles: Vec<_> = (0..threads)
        .map(|thread| {
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let mut outcomes = Vec::with_capacity(per_thread);
                for index in 0..per_thread {
                    let payload = format!("chaos-{thread}-{index}");
                    let response = client
                        .request(&HttpRequest::post(
                            "/v1/invoke/EchoComp",
                            payload.clone().into_bytes(),
                        ))
                        .unwrap_or_else(|error| {
                            panic!("request {payload} lost its response: {error:?}")
                        });
                    outcomes.push(Outcome {
                        payload,
                        status: response.status.0,
                        body: response.body_text(),
                    });
                    // A faulted exchange may have closed this connection
                    // from the gateway side; reconnect and keep going.
                    if response.headers.get("connection") == Some("close") {
                        client = connect(addr);
                    }
                }
                outcomes
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|handle| handle.join().expect("client thread survives"))
        .collect()
}

/// Every outcome is a definitive answer: a `200` that echoes its own
/// payload (exactly-once, no cross-wiring) or one of the expected fault
/// statuses — anything else (a timeout, a half-written body, a foreign
/// payload) is a lost or duplicated result.
fn assert_exactly_once(
    outcomes: &[Outcome],
    expected: usize,
    fault_statuses: &[u16],
) -> (usize, usize) {
    assert_eq!(outcomes.len(), expected, "every request answered once");
    let mut ok = 0;
    let mut faulted = 0;
    for outcome in outcomes {
        if outcome.status == 200 {
            assert_eq!(
                outcome.body, outcome.payload,
                "a 200 must echo its own payload — anything else is a \
                 duplicated or cross-wired result"
            );
            ok += 1;
        } else {
            assert!(
                fault_statuses.contains(&outcome.status),
                "unexpected status for {}: {} ({})",
                outcome.payload,
                outcome.status,
                outcome.body
            );
            faulted += 1;
        }
    }
    (ok, faulted)
}

/// After the fault clears the cluster must heal by itself: a succeeding
/// probe re-admits an ejected member, whichever rule ejected it. Proven by
/// traffic flowing again.
fn wait_until_serving(addr: SocketAddr) {
    wait_for(
        "the cluster to serve 200s again",
        Duration::from_secs(10),
        || {
            let mut client = connect(addr);
            client
                .request(&HttpRequest::post(
                    "/v1/invoke/EchoComp",
                    b"recovery".to_vec(),
                ))
                .map(|response| response.status.0 == 200 && response.body_text() == "recovery")
                .unwrap_or(false)
        },
    );
}

#[test]
fn upstream_write_faults_never_lose_or_cross_wire_responses() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let members: Vec<_> = (0..2).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members.iter().map(|(s, _)| s.local_addr()).collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);
    let gateway_addr = gateway.local_addr();
    wait_until_serving(gateway_addr);

    failpoint::set_seed(0xC0FFEE);
    failpoint::configure("upstream/write", FailAction::Error, 0.25);
    let outcomes = blast(gateway_addr, 4, 25);
    let (ok, _faulted) = assert_exactly_once(&outcomes, 100, &[502, 503]);
    assert!(ok > 0, "some requests must get through the write chaos");
    assert!(
        failpoint::hits("upstream/write") > 0,
        "the failpoint must actually have fired"
    );

    // Counters reconcile with what the clients saw: every 502 a client
    // counted is an upstream error the gateway counted (503s are
    // `no_members` rejections, not upstream errors), every 200 was
    // proxied, and the active failpoint rides in the stats document.
    let bad_gateway = outcomes.iter().filter(|o| o.status == 502).count();
    let stats = gateway_stats(gateway_addr);
    let upstream_errors = stats
        .get("upstream_errors")
        .and_then(JsonValue::as_u64)
        .expect("upstream_errors counter");
    assert!(
        upstream_errors >= bad_gateway as u64,
        "gateway saw {upstream_errors} upstream errors, clients saw {bad_gateway} 502s"
    );
    let proxied = stats
        .get("proxied")
        .and_then(JsonValue::as_u64)
        .expect("proxied counter");
    assert!(proxied >= ok as u64, "proxied = {proxied}, 200s = {ok}");
    assert!(
        stats.get("failpoints").is_some(),
        "active failpoint hit counters surface in /v1/stats"
    );

    failpoint::clear();
    wait_until_serving(gateway_addr);
    assert!(shutdown(gateway, members), "gateway drains cleanly");
}

#[test]
fn truncated_upstream_responses_fail_clean_and_the_cluster_recovers() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let members: Vec<_> = (0..2).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members.iter().map(|(s, _)| s.local_addr()).collect();
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);
    let gateway_addr = gateway.local_addr();
    wait_until_serving(gateway_addr);

    // `upstream/read` cuts the member's response off mid-stream: the
    // gateway must treat the connection as dead and answer the affected
    // exchanges with a clean 502, never a half-written body.
    failpoint::set_seed(0xFEED);
    failpoint::configure("upstream/read", FailAction::Error, 0.2);
    let outcomes = blast(gateway_addr, 2, 20);
    let (ok, _faulted) = assert_exactly_once(&outcomes, 40, &[502, 503]);
    assert!(ok > 0, "some requests must survive truncation chaos");
    assert!(
        failpoint::hits("upstream/read") > 0,
        "the failpoint must actually have fired"
    );

    failpoint::clear();
    wait_until_serving(gateway_addr);
    assert!(shutdown(gateway, members), "gateway drains cleanly");
}

#[test]
fn probe_blackout_ejects_members_and_recovering_probes_readmit_them() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let members: Vec<_> = (0..2).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members.iter().map(|(s, _)| s.local_addr()).collect();
    let (gateway, router) = start_gateway(test_gateway_config(), &addrs);
    let gateway_addr = gateway.local_addr();
    wait_until_serving(gateway_addr);

    // Every probe fails: consecutive failures must eject both members.
    failpoint::configure("gateway/probe", FailAction::Error, 1.0);
    wait_for("both members ejected", Duration::from_secs(10), || {
        member_states(gateway_addr)
            .iter()
            .all(|state| state == "ejected")
    });

    // With no routable member the gateway answers a retryable 503, it
    // does not hang or crash.
    let mut client = connect(gateway_addr);
    let response = client
        .request(&HttpRequest::post("/v1/invoke/EchoComp", b"x".to_vec()))
        .unwrap();
    assert_eq!(response.status.0, 503, "got: {}", response.body_text());
    assert!(response.body_text().contains("no_members"));
    drop(client);

    // The blackout lifts: succeeding probes re-admit the members and
    // traffic flows again without any operator action.
    failpoint::clear();
    wait_for("both members re-admitted", Duration::from_secs(10), || {
        member_states(gateway_addr)
            .iter()
            .all(|state| state == "healthy")
    });
    wait_until_serving(gateway_addr);

    let stats = gateway_stats(gateway_addr);
    for (counter, floor) in [("ejections", 2), ("readmissions", 2)] {
        let value = stats.get(counter).and_then(JsonValue::as_u64).unwrap();
        assert!(value >= floor, "{counter} = {value}, expected >= {floor}");
    }
    drop(router);
    assert!(shutdown(gateway, members), "gateway drains cleanly");
}

#[test]
fn engine_panics_behind_the_gateway_neither_lose_nor_duplicate_results() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let members: Vec<_> = (0..1).map(|_| start_member()).collect();
    let addrs: Vec<SocketAddr> = members.iter().map(|(s, _)| s.local_addr()).collect();
    let worker = Arc::clone(&members[0].1);
    // The chaos run kills engines faster than the default budget expects;
    // raise it so the test exercises respawn, not budget exhaustion.
    worker.compute_pool().set_restart_budget(10_000);
    worker.communication_pool().set_restart_budget(10_000);
    let (gateway, _router) = start_gateway(test_gateway_config(), &addrs);
    let gateway_addr = gateway.local_addr();
    wait_until_serving(gateway_addr);

    // An engine panics after computing but before delivering its reply:
    // supervision must requeue the task once (so most requests still get
    // their 200) and a task whose retry also dies fails exactly once with
    // an engine-fault 500 — never silently, never twice.
    failpoint::set_seed(0xDEAD);
    failpoint::configure("engine/reply", FailAction::Panic, 0.3);
    let outcomes = blast(gateway_addr, 2, 20);
    let (ok, _faulted) = assert_exactly_once(&outcomes, 40, &[500]);
    assert!(ok > 0, "most requests must survive one engine death");

    failpoint::clear();

    let deaths =
        worker.compute_pool().engine_deaths() + worker.communication_pool().engine_deaths();
    let respawns =
        worker.compute_pool().engine_respawns() + worker.communication_pool().engine_respawns();
    assert!(deaths > 0, "the panic failpoint must have killed engines");
    assert_eq!(
        respawns, deaths,
        "every dead engine is replaced while the budget lasts"
    );

    // The pool healed: sustained traffic is all-200 again.
    wait_until_serving(gateway_addr);
    let calm = blast(gateway_addr, 2, 5);
    let (calm_ok, _) = assert_exactly_once(&calm, 10, &[500]);
    assert_eq!(calm_ok, 10, "no residual faults once the failpoint is off");
    assert!(shutdown(gateway, members), "gateway drains cleanly");
}
