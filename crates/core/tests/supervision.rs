//! Engine supervision under injected faults.
//!
//! These tests drive the failpoints threaded through the engine loop
//! (`engine/execute`, `engine/reply`, `engine/after-reply`) and assert the
//! supervision contract: a fault costs at most one engine thread, an
//! in-flight task is retried exactly once, results are delivered exactly
//! once, and the pool respawns replacements within its restart budget.
//!
//! The failpoint registry is process-global, so every test takes the
//! [`serial`] guard and clears the registry on entry and exit — the suite
//! is safe under the default parallel test runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use dandelion_common::config::{EngineKind, IsolationKind, WorkerConfig};
use dandelion_common::failpoint::{self, FailAction};
use dandelion_common::{DandelionError, DataSet, InvocationId};
use dandelion_core::dispatcher::Dispatcher;
use dandelion_core::engine::{EngineExecutor, EnginePool};
use dandelion_core::task::{Task, TaskPayload, TaskQueue};
use dandelion_core::Registry;
use dandelion_dsl::{CompositionBuilder, Distribution};
use dandelion_isolation::{create_backend, FunctionArtifact, FunctionCtx, HardwarePlatform};

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

fn echo_artifact() -> Arc<FunctionArtifact> {
    Arc::new(FunctionArtifact::new(
        "echo",
        &["out"],
        |ctx: &mut FunctionCtx| {
            let data = ctx.single_input("in")?.data.as_slice().to_vec();
            ctx.push_output_bytes("out", "echoed", data)
        },
    ))
}

fn compute_pool() -> EnginePool {
    let queue = TaskQueue::new(EngineKind::Compute, 1024);
    let backend = create_backend(IsolationKind::Native, HardwarePlatform::Morello);
    EnginePool::new(EngineExecutor::Compute { backend }, queue)
}

fn task(reply: &crossbeam::channel::Sender<Vec<dandelion_core::task::TaskResult>>) -> Task {
    Task {
        invocation: InvocationId::from_raw(7),
        node: 0,
        instance: 0,
        payload: TaskPayload::Compute {
            artifact: echo_artifact(),
            inputs: vec![DataSet::single("in", b"payload".to_vec())].into(),
            cold_binary: false,
            timeout: Duration::from_secs(5),
        },
        reply: reply.clone(),
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
    failpoint::configure("engine/execute", FailAction::Error, 1.0);
    let pool = compute_pool();
    pool.resize(1);
    let (reply, results) = unbounded();
    pool.queue().push(task(&reply));
    let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(batch.len(), 1);
    match &batch[0].outcome {
        Err(DandelionError::EngineFault { reason }) => {
            assert!(reason.contains("engine/execute"), "reason: {reason}");
        }
        other => panic!("expected an engine fault, got {other:?}"),
    }
    // The fault was contained to the result: the engine thread survived.
    assert_eq!(pool.engine_deaths(), 0);
    assert_eq!(pool.engine_count(), 1);
    assert!(failpoint::hits("engine/execute") >= 1);
}

#[test]
fn panic_in_the_task_body_is_contained_to_a_result() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    failpoint::configure("engine/execute", FailAction::Panic, 1.0);
    let pool = compute_pool();
    pool.resize(1);
    let (reply, results) = unbounded();
    pool.queue().push(task(&reply));
    let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
    match &batch[0].outcome {
        Err(DandelionError::EngineFault { reason }) => {
            assert!(reason.contains("panic"), "reason: {reason}");
        }
        other => panic!("expected an engine fault, got {other:?}"),
    }
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
    failpoint::configure("engine/reply", FailAction::Panic, 1.0);
    let pool = compute_pool();
    pool.resize(1);
    let (reply, results) = unbounded();
    pool.queue().push(task(&reply));
    // First engine dies before delivering; the task is requeued once onto
    // the respawned engine, which also dies — the second death settles the
    // task with a structured fault instead of retrying forever.
    let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(batch.len(), 1);
    match &batch[0].outcome {
        Err(DandelionError::EngineFault { reason }) => {
            assert!(reason.contains("died twice"), "reason: {reason}");
        }
        other => panic!("expected an engine fault, got {other:?}"),
    }
    // Exactly once: no second result may ever arrive for the task.
    assert!(
        results.recv_timeout(Duration::from_millis(200)).is_err(),
        "the task must settle exactly once"
    );
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
    failpoint::configure("engine/after-reply", FailAction::Panic, 1.0);
    let pool = compute_pool();
    pool.resize(1);
    let (reply, results) = unbounded();
    pool.queue().push(task(&reply));
    let batch = results.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(batch[0].outcome.is_ok(), "the result was already delivered");
    wait_until("the engine death to be recorded", || {
        pool.engine_deaths() == 1
    });
    wait_until("the respawn to restore the pool", || {
        pool.engine_count() == 1
    });
    assert_eq!(pool.engine_respawns(), 1);
    assert!(
        results.recv_timeout(Duration::from_millis(200)).is_err(),
        "a post-delivery death must not replay the task"
    );
}

#[test]
fn exhausted_restart_budget_stops_respawns_but_allows_manual_recovery() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    failpoint::configure("engine/after-reply", FailAction::Panic, 1.0);
    let pool = compute_pool();
    pool.set_restart_budget(0);
    pool.resize(1);
    let (reply, results) = unbounded();
    pool.queue().push(task(&reply));
    assert!(results.recv_timeout(Duration::from_secs(5)).unwrap()[0]
        .outcome
        .is_ok());
    wait_until("the budget-exhausted pool to shrink", || {
        pool.engine_count() == 0
    });
    assert_eq!(pool.engine_deaths(), 1);
    assert_eq!(pool.engine_respawns(), 0);
    assert_eq!(pool.restart_budget_left(), 0);
    // The operator's escape hatch: clear the fault and resize the pool back
    // up; queued work flows again.
    failpoint::clear();
    pool.resize(2);
    pool.queue().push(task(&reply));
    assert!(results.recv_timeout(Duration::from_secs(5)).unwrap()[0]
        .outcome
        .is_ok());
}

// ----------------------------------------------------------------------
// Dispatcher-level supervision: faults flow through as structured errors
// and settle exactly once.
// ----------------------------------------------------------------------

struct Harness {
    dispatcher: Dispatcher,
    compute_pool: EnginePool,
    registry: Arc<Registry>,
}

fn harness(sleep_per_task: Duration) -> Harness {
    let registry = Arc::new(Registry::new());
    let compute_queue = TaskQueue::new(EngineKind::Compute, 1024);
    let communication_queue = TaskQueue::new(EngineKind::Communication, 1024);
    let backend = create_backend(IsolationKind::Native, HardwarePlatform::Morello);
    let compute_pool = EnginePool::new(EngineExecutor::Compute { backend }, compute_queue.clone());
    compute_pool.resize(1);
    registry
        .register_function(FunctionArtifact::new(
            "Copy",
            &["Copied"],
            move |ctx: &mut FunctionCtx| {
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
    registry.register_composition(graph).unwrap();
    let dispatcher = Dispatcher::new(
        Arc::clone(&registry),
        compute_queue,
        communication_queue,
        WorkerConfig {
            total_cores: 2,
            initial_communication_cores: 0,
            ..WorkerConfig::default()
        },
    );
    Harness {
        dispatcher,
        compute_pool,
        registry,
    }
}

fn identity_graph(registry: &Registry) -> Arc<dandelion_dsl::CompositionGraph> {
    registry.composition("Identity").unwrap()
}

#[test]
fn engine_fault_fails_the_invocation_exactly_once() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    failpoint::configure("engine/reply", FailAction::Panic, 1.0);
    let harness = harness(Duration::ZERO);
    let graph = identity_graph(&harness.registry);
    let handle = harness
        .dispatcher
        .submit(graph, vec![DataSet::single("In", b"x".to_vec())])
        .unwrap();
    let settled = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = unbounded();
    let counter = Arc::clone(&settled);
    handle.on_settle(move |outcome| {
        counter.fetch_add(1, Ordering::SeqCst);
        let _ = tx.send(outcome);
    });
    let outcome = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    match outcome {
        Err(DandelionError::EngineFault { reason }) => {
            assert!(reason.contains("died twice"), "reason: {reason}");
        }
        other => panic!("expected an engine fault, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        settled.load(Ordering::SeqCst),
        1,
        "the settle callback must fire exactly once"
    );
    assert_eq!(harness.compute_pool.engine_deaths(), 2);
}

/// The cancellation race: `on_settle` firing concurrently with the
/// dispatcher's shutdown sweep must deliver exactly one of `Ok` /
/// `Err(Cancelled)` — never both, never neither. The shutdown is launched
/// at a sweep of offsets around the task's execution time to scan the
/// race window.
#[test]
fn cancellation_racing_completion_settles_exactly_once() {
    let _guard = serial();
    let _clear = ClearOnDrop;
    for step in 0..12u64 {
        let harness = harness(Duration::from_millis(2));
        let graph = identity_graph(&harness.registry);
        let handle = harness
            .dispatcher
            .submit(graph, vec![DataSet::single("In", b"race".to_vec())])
            .unwrap();
        let settled = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = unbounded();
        let counter = Arc::clone(&settled);
        handle.on_settle(move |outcome| {
            counter.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(outcome);
        });
        // Offset the shutdown across the ~2ms execution window.
        std::thread::sleep(Duration::from_micros(step * 400));
        harness.dispatcher.shutdown();
        let outcome = rx
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
