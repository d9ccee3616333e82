//! Engine supervision under injected faults.
//!
//! These tests drive the failpoints threaded through the engine loop
//! (`engine/execute`, `engine/reply`, `engine/after-reply`) under a
//! [`WorkerNode`] and assert the supervision contract: a fault costs at most
//! one engine thread, an in-flight task is retried exactly once, each
//! invocation settles exactly once, and the pool respawns replacements
//! within its restart budget.
//!
//! The failpoint registry is process-global, so every test takes the
//! [`serial`] guard and clears the registry on entry and exit — the suite
//! is safe under the default parallel test runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dandelion_common::config::{IsolationKind, WorkerConfig};
use dandelion_common::{
    clear_failpoints, configure_failpoint, failpoint_hits, DandelionError, DandelionResult,
    DataSet, FailAction,
};
use dandelion_core::{InvocationOutcome, WorkerNode};
use dandelion_dsl::{CompositionBuilder, Distribution};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use dandelion_services::ServiceRegistry;

/// Serializes the tests and guarantees a clean failpoint registry around
/// each one, even when an assertion fails mid-test.
fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    clear_failpoints();
    guard
}

struct ClearOnDrop;

impl Drop for ClearOnDrop {
    fn drop(&mut self) {
        clear_failpoints();
    }
}

/// A worker with one compute engine and no control plane, on which
/// `Identity` runs `Copy` (sleeping `sleep_per_task` first) over `In`; the
/// counter counts the runs of `Copy`, so a re-run shows even where the
/// table drops its duplicate result.
fn worker(sleep_per_task: Duration) -> (Arc<WorkerNode>, Arc<AtomicUsize>) {
    let config = WorkerConfig {
        total_cores: 2,
        initial_communication_cores: 1,
        isolation: IsolationKind::Native,
        ..WorkerConfig::default()
    };
    let worker = WorkerNode::start_with_control(config, ServiceRegistry::new(), false).unwrap();
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    worker
        .register_function(FunctionArtifact::new(
            "Copy",
            &["Copied"],
            move |ctx: &mut FunctionCtx| {
                counter.fetch_add(1, Ordering::SeqCst);
                if !sleep_per_task.is_zero() {
                    std::thread::sleep(sleep_per_task);
                }
                let data = ctx.single_input("Data")?.data.as_slice().to_vec();
                ctx.push_output_bytes("Copied", "copy", data)
            },
        ))
        .unwrap();
    let graph = CompositionBuilder::new("Identity")
        .input("In")
        .output("Out")
        .node("Copy", |node| {
            node.bind("Data", Distribution::All, "In")
                .publish("Out", "Copied")
        })
        .build()
        .unwrap();
    worker.register_composition(graph).unwrap();
    (worker, runs)
}

type Settled = Receiver<DandelionResult<InvocationOutcome>>;

/// Submits `Identity` over `payload`; every outcome its settle callback is
/// handed arrives on the receiver, and the counter counts the calls.
fn submit(worker: &WorkerNode, payload: &[u8]) -> (Settled, Arc<AtomicUsize>) {
    let handle = worker
        .submit("Identity", vec![DataSet::single("In", payload.to_vec())])
        .unwrap();
    let settled = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&settled);
    let (sender, outcomes) = channel();
    handle.on_settle(move |outcome| {
        counter.fetch_add(1, Ordering::SeqCst);
        let _ = sender.send(outcome);
    });
    (outcomes, settled)
}

/// The engine fault an invocation settled with; its reason must contain
/// `expected`.
fn assert_engine_fault(outcome: DandelionResult<InvocationOutcome>, expected: &str) {
    match outcome {
        Err(DandelionError::EngineFault { reason }) => {
            assert!(reason.contains(expected), "reason: {reason}");
        }
        other => panic!("expected an engine fault, got {other:?}"),
    }
}

/// Spins until `predicate` holds or five seconds pass.
fn wait_until(what: &str, predicate: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn injected_execute_error_surfaces_as_engine_fault() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let (worker, _) = worker(Duration::ZERO);
    configure_failpoint("engine/execute", FailAction::Error, 1.0);
    let (outcomes, settled) = submit(&worker, b"payload");
    let outcome = outcomes.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(settled.load(Ordering::SeqCst), 1);
    assert_engine_fault(outcome, "engine/execute");
    // The fault was contained to the result: the engine thread survived.
    let pool = worker.compute_pool();
    assert_eq!(pool.engine_deaths(), 0);
    assert_eq!(pool.engine_count(), 1);
    assert!(failpoint_hits("engine/execute") >= 1);
}

#[test]
fn panic_in_the_task_body_is_contained_to_a_result() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let (worker, _) = worker(Duration::ZERO);
    configure_failpoint("engine/execute", FailAction::Panic, 1.0);
    let (outcomes, _) = submit(&worker, b"payload");
    assert_engine_fault(
        outcomes.recv_timeout(Duration::from_secs(5)).unwrap(),
        "panic",
    );
    let pool = worker.compute_pool();
    assert_eq!(
        pool.engine_deaths(),
        0,
        "a panic inside the task guard must not kill the engine thread"
    );
    assert_eq!(pool.engine_count(), 1);
}

#[test]
fn reply_panic_retries_once_then_fails_exactly_once() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let (worker, runs) = worker(Duration::ZERO);
    configure_failpoint("engine/reply", FailAction::Panic, 1.0);
    let (outcomes, settled) = submit(&worker, b"payload");
    // First engine dies before delivering; the task is requeued once onto
    // the respawned engine, which also dies — the second death settles the
    // task with a structured fault instead of retrying forever.
    assert_engine_fault(
        outcomes.recv_timeout(Duration::from_secs(5)).unwrap(),
        "died twice",
    );
    // Exactly once: no second result may ever arrive for the task.
    // The callback, and the sender with it, is dropped once it fired, so
    // the window in which a second result or a re-run would show is waited
    // out here.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        outcomes.try_recv().is_err(),
        "the task must settle exactly once"
    );
    assert_eq!(settled.load(Ordering::SeqCst), 1);
    // The run and its one retry; the task of the second death is answered
    // without running.
    assert_eq!(runs.load(Ordering::SeqCst), 2);
    let pool = worker.compute_pool();
    assert_eq!(pool.engine_deaths(), 2);
    assert_eq!(pool.engine_respawns(), 2);
    wait_until("the pool to recover one engine", || {
        pool.engine_count() == 1
    });
}

#[test]
fn post_delivery_panic_respawns_without_duplicating_the_result() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let (worker, runs) = worker(Duration::ZERO);
    configure_failpoint("engine/after-reply", FailAction::Panic, 1.0);
    let (outcomes, settled) = submit(&worker, b"payload");
    let outcome = outcomes.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(outcome.is_ok(), "the result was already delivered");
    let pool = worker.compute_pool();
    wait_until("the engine death to be recorded", || {
        pool.engine_deaths() == 1
    });
    wait_until("the respawn to restore the pool", || {
        pool.engine_count() == 1
    });
    assert_eq!(pool.engine_respawns(), 1);
    // The callback, and the sender with it, is dropped once it fired, so
    // the window in which a second result or a re-run would show is waited
    // out here.
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        outcomes.try_recv().is_err(),
        "a post-delivery death must not replay the task"
    );
    assert_eq!(settled.load(Ordering::SeqCst), 1);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "a post-delivery death must not re-run the task"
    );
}

#[test]
fn exhausted_restart_budget_stops_respawns_but_allows_manual_recovery() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let (worker, _) = worker(Duration::ZERO);
    let pool = worker.compute_pool();
    pool.set_restart_budget(0);
    configure_failpoint("engine/after-reply", FailAction::Panic, 1.0);
    let (outcomes, _) = submit(&worker, b"payload");
    assert!(outcomes
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .is_ok());
    wait_until("the budget-exhausted pool to shrink", || {
        pool.engine_count() == 0
    });
    assert_eq!(pool.engine_deaths(), 1);
    assert_eq!(pool.engine_respawns(), 0);
    assert_eq!(pool.restart_budget_left(), 0);
    // The operator's escape hatch: clear the fault and resize the pool back
    // up; queued work flows again.
    clear_failpoints();
    pool.resize(2);
    wait_until("the pool to grow back to two engines", || {
        pool.engine_count() == 2
    });
    let (outcomes, _) = submit(&worker, b"payload");
    assert!(outcomes
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .is_ok());
}

// ----------------------------------------------------------------------
// Dispatcher-level supervision: faults flow through as structured errors
// and settle exactly once.
// ----------------------------------------------------------------------

#[test]
fn engine_fault_fails_the_invocation_exactly_once() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    let (worker, runs) = worker(Duration::ZERO);
    configure_failpoint("engine/reply", FailAction::Panic, 1.0);
    let (outcomes, settled) = submit(&worker, b"x");
    assert_engine_fault(
        outcomes.recv_timeout(Duration::from_secs(10)).unwrap(),
        "died twice",
    );
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        settled.load(Ordering::SeqCst),
        1,
        "the settle callback must fire exactly once"
    );
    assert_eq!(runs.load(Ordering::SeqCst), 2, "run once, retried once");
    assert_eq!(worker.compute_pool().engine_deaths(), 2);
}

/// The cancellation race: `on_settle` firing concurrently with the
/// worker's shutdown sweep must deliver exactly one of `Ok` /
/// `Err(Cancelled)` — never both, never neither. The shutdown is launched
/// at a sweep of offsets around the task's execution time to scan the
/// race window.
#[test]
fn cancellation_racing_completion_settles_exactly_once() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    for step in 0..12u64 {
        let (worker, _) = worker(Duration::from_millis(2));
        let (outcomes, settled) = submit(&worker, b"race");
        // Offset the shutdown across the ~2ms execution window.
        std::thread::sleep(Duration::from_micros(step * 400));
        worker.shutdown();
        let outcome = outcomes
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("step {step}: the invocation never settled"));
        match &outcome {
            Ok(_) | Err(DandelionError::Cancelled) => {}
            other => panic!("step {step}: unexpected outcome {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            settled.load(Ordering::SeqCst),
            1,
            "step {step}: settle must fire exactly once"
        );
    }
}
