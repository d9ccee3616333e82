//! End-to-end proof that the data plane is zero-copy: payloads cross
//! composition edges, `each` fan-out, the client boundary and the external
//! outputs as views of the producer's buffer (`Arc`-identity, not just
//! equal bytes).

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use dandelion_common::config::{IsolationKind, WorkerConfig};
use dandelion_common::failpoint::{self, FailAction};
use dandelion_common::{DataItem, DataSet, SharedBytes};
use dandelion_core::worker::{default_test_services, WorkerNode};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use parking_lot::Mutex;

const PAYLOAD_BYTES: usize = 1024 * 1024;

/// The failpoint registry is process-wide and one test here arms it: that
/// test holds this lock for writing, every test that runs engines for
/// reading, so the parallel test runner never shows a test someone else's
/// injected panic.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn no_faults() -> RwLockReadGuard<'static, ()> {
    FAILPOINTS
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn faults_mine() -> RwLockWriteGuard<'static, ()> {
    FAILPOINTS
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker() -> Arc<WorkerNode> {
    WorkerNode::start_with_control(
        WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        },
        default_test_services(),
        false,
    )
    .expect("worker starts")
}

/// A relay that records the `SharedBytes` views it receives and passes the
/// items through by reference.
fn capturing_relay(name: &str, seen: Arc<Mutex<Vec<SharedBytes>>>) -> FunctionArtifact {
    FunctionArtifact::new(name, &["Out"], move |ctx: &mut FunctionCtx| {
        let items = ctx.input_set("Items").ok_or("missing Items")?.clone();
        for item in &items.items {
            seen.lock().push(item.data.clone());
            ctx.push_output("Out", item.clone())?;
        }
        Ok(())
    })
    .with_memory_requirement(64 * 1024 * 1024)
}

/// A client-provided input item reaches the function — through dispatch,
/// instance expansion and input materialization — as a view of the very
/// buffer the client allocated.
#[test]
fn client_input_reaches_the_function_without_copying() {
    let _quiet = no_faults();
    let worker = worker();
    let seen = Arc::new(Mutex::new(Vec::new()));
    worker
        .register_function(capturing_relay("Relay", Arc::clone(&seen)))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition Identity(In) => Out { Relay(Items = all In) => (Out = Out); }",
        )
        .unwrap();

    let payload = SharedBytes::from_vec(vec![0xAB; PAYLOAD_BYTES]);
    let inputs = vec![DataSet::with_items(
        "In",
        vec![DataItem::new("blob", payload.clone())],
    )];
    let outcome = worker.invoke("Identity", inputs).unwrap();

    let seen = seen.lock();
    assert_eq!(seen.len(), 1);
    assert!(
        SharedBytes::same_buffer(&seen[0], &payload),
        "the function must receive the client's buffer, not a copy"
    );
    // The passthrough output is still the same allocation.
    assert!(SharedBytes::same_buffer(
        &outcome.outputs[0].items[0].data,
        &payload
    ));
    worker.shutdown();
}

/// The buffer the dispatcher submits is the buffer `ctx.inputs()` shows the
/// function — across the engine queue, the backend and the function's
/// context — and it still is when the engine dies between executing the task
/// and replying, and supervision requeues the task onto a fresh engine: the
/// retry runs on the very inputs the first attempt had, not on a copy taken
/// for safekeeping.
#[test]
fn a_requeued_task_still_sees_the_submitted_buffers() {
    let _exclusive = faults_mine();
    failpoint::clear();
    let worker = worker();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_by_fn = Arc::clone(&seen);
    worker
        .register_function(
            FunctionArtifact::new("Relay", &["Out"], move |ctx: &mut FunctionCtx| {
                let item = ctx.inputs()[0].items[0].clone();
                let mut seen = seen_by_fn.lock();
                seen.push(item.data.clone());
                if seen.len() == 2 {
                    // The retry: let this one be delivered.
                    failpoint::remove("engine/reply");
                }
                drop(seen);
                ctx.push_output("Out", item)
            })
            .with_memory_requirement(64 * 1024 * 1024),
        )
        .unwrap();
    worker
        .register_composition_dsl(
            "composition Identity(In) => Out { Relay(Items = all In) => (Out = Out); }",
        )
        .unwrap();

    let payload = SharedBytes::from_vec(vec![0xE1; PAYLOAD_BYTES]);
    let inputs = vec![DataSet::with_items(
        "In",
        vec![DataItem::new("blob", payload.clone())],
    )];
    // The first engine to finish the task dies before replying.
    failpoint::configure("engine/reply", FailAction::Panic, 1.0);
    let outcome = worker.invoke("Identity", inputs);
    failpoint::clear();
    let outcome = outcome.unwrap();

    assert_eq!(worker.compute_pool().engine_deaths(), 1);
    let seen = seen.lock();
    assert_eq!(seen.len(), 2, "one attempt that died, one retry");
    for (attempt, received) in seen.iter().enumerate() {
        assert!(
            SharedBytes::same_buffer(received, &payload),
            "attempt {attempt} must read the submitted buffer, not a copy"
        );
    }
    assert!(SharedBytes::same_buffer(
        &outcome.outputs[0].items[0].data,
        &payload
    ));
    worker.shutdown();
}

/// A producer's staged outputs cross the composition edge into every
/// fan-out instance of the consumer — and on into the external outputs —
/// without any payload copy: all observed views share the producer's
/// allocations.
#[test]
fn composition_edges_share_the_producers_buffers() {
    let _quiet = no_faults();
    let worker = worker();
    let produced = Arc::new(Mutex::new(Vec::new()));
    let produced_for_fn = Arc::clone(&produced);
    worker
        .register_function(
            FunctionArtifact::new("Produce", &["Out"], move |ctx: &mut FunctionCtx| {
                let count = ctx.single_input("Spec")?.as_str().unwrap_or("0").len();
                for index in 0..count {
                    let payload = SharedBytes::from_vec(vec![index as u8; PAYLOAD_BYTES]);
                    produced_for_fn.lock().push(payload.clone());
                    ctx.push_output("Out", DataItem::new(format!("p{index}"), payload))?;
                }
                Ok(())
            })
            .with_memory_requirement(64 * 1024 * 1024),
        )
        .unwrap();
    let relayed = Arc::new(Mutex::new(Vec::new()));
    worker
        .register_function(capturing_relay("Relay", Arc::clone(&relayed)))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition FanOut(Spec) => Out { \
             Produce(Spec = all Spec) => (Stage = Out); \
             Relay(Items = each Stage) => (Out = Out); }",
        )
        .unwrap();

    // Three producer items fan out to three Relay instances.
    let outcome = worker
        .invoke("FanOut", vec![DataSet::single("Spec", b"xxx".to_vec())])
        .unwrap();

    let produced = produced.lock();
    let relayed = relayed.lock();
    assert_eq!(produced.len(), 3);
    assert_eq!(relayed.len(), 3);
    for received in relayed.iter() {
        assert!(
            produced
                .iter()
                .any(|staged| SharedBytes::same_buffer(staged, received)),
            "each fan-out instance must see one of the producer's buffers"
        );
    }
    // The external outputs are the same allocations the producer staged.
    assert_eq!(outcome.outputs[0].items.len(), 3);
    for item in &outcome.outputs[0].items {
        assert!(
            produced
                .iter()
                .any(|staged| SharedBytes::same_buffer(staged, &item.data)),
            "external outputs must reference the producer's buffers"
        );
    }
    worker.shutdown();
}

/// A payload assembled in a `SharedBytesMut` inside a function freezes into
/// the very allocation the builder wrote, and that allocation — not a copy —
/// is what crosses the output boundary into the invocation's external
/// outputs.
#[test]
fn builder_frozen_payloads_reach_outputs_without_copying() {
    let _quiet = no_faults();
    use dandelion_common::SharedBytesMut;
    let worker = worker();
    let frozen = Arc::new(Mutex::new(Vec::new()));
    let frozen_for_fn = Arc::clone(&frozen);
    worker
        .register_function(
            FunctionArtifact::new("Assemble", &["Out"], move |ctx: &mut FunctionCtx| {
                let mut builder = SharedBytesMut::with_capacity(PAYLOAD_BYTES);
                builder.put_slice(&[0xC3; PAYLOAD_BYTES]);
                let written_ptr = builder.as_slice().as_ptr() as usize;
                let payload = builder.freeze();
                assert_eq!(
                    payload.as_slice().as_ptr() as usize,
                    written_ptr,
                    "freeze must reuse the builder's allocation"
                );
                frozen_for_fn.lock().push(payload.clone());
                ctx.push_output("Out", DataItem::new("built", payload))
            })
            .with_memory_requirement(64 * 1024 * 1024),
        )
        .unwrap();
    worker
        .register_composition_dsl(
            "composition Build(In) => Out { Assemble(Items = all In) => (Out = Out); }",
        )
        .unwrap();
    let outcome = worker
        .invoke("Build", vec![DataSet::single("In", b"go".to_vec())])
        .unwrap();
    let frozen = frozen.lock();
    assert_eq!(frozen.len(), 1);
    assert!(
        SharedBytes::same_buffer(&outcome.outputs[0].items[0].data, &frozen[0]),
        "the frozen builder allocation must reach the external outputs"
    );
    worker.shutdown();
}

/// HTTP responses serialize as ropes whose body segment IS the handler's
/// buffer: proving the serialization boundary is zero-copy for payloads.
#[test]
fn http_rope_serialization_attaches_bodies_by_reference() {
    use dandelion_http::HttpResponse;
    let body = SharedBytes::from_vec(vec![0x77; PAYLOAD_BYTES]);
    let response = HttpResponse::ok(body.clone()).with_header("X-Path", "rope");
    let rope = response.to_rope();
    assert!(
        SharedBytes::same_buffer(rope.last_segment().expect("body segment"), &body),
        "the rope must reference the body buffer, not a copy"
    );
    // The descriptor rope shares payloads the same way.
    let sets = vec![DataSet::with_items(
        "Out",
        vec![DataItem::new("blob", body.clone())],
    )];
    let descriptor = dandelion_isolation::output_parser::encode_outputs_rope(&sets);
    assert!(
        descriptor
            .shared_segments()
            .any(|segment| SharedBytes::same_buffer(segment, &body)),
        "the descriptor rope must reference the item payload"
    );
}

/// Retained results that are tiny windows of huge buffers are compacted at
/// settle time (ROADMAP follow-up e): polling keeps working, but the big
/// producer buffer is no longer pinned. Whole-buffer outputs (the tests
/// above) keep full sharing.
#[test]
fn retained_slivers_do_not_pin_their_parent_buffers() {
    let _quiet = no_faults();
    let worker = worker();
    worker
        .register_function(
            FunctionArtifact::new("Head16", &["Out"], |ctx: &mut FunctionCtx| {
                let data = ctx.single_input("Items")?.data.clone();
                ctx.push_output("Out", DataItem::new("head", data.slice(..16)))
            })
            .with_memory_requirement(64 * 1024 * 1024),
        )
        .unwrap();
    worker
        .register_composition_dsl(
            "composition Head(In) => Out { Head16(Items = all In) => (Out = Out); }",
        )
        .unwrap();
    let payload = SharedBytes::from_vec(vec![0x42; PAYLOAD_BYTES]);
    let handle = worker
        .submit(
            "Head",
            vec![DataSet::with_items(
                "In",
                vec![DataItem::new("blob", payload.clone())],
            )],
        )
        .unwrap();
    let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
    let item = &outcome.outputs[0].items[0];
    assert_eq!(item.data.as_slice(), &[0x42; 16]);
    assert!(
        !SharedBytes::same_buffer(&item.data, &payload),
        "a 16-byte window must not retain the {PAYLOAD_BYTES}-byte input"
    );
    assert!(item.data.backing_len() <= 16);
    worker.shutdown();
}

/// The non-blocking submit path preserves sharing too: a handle settled on
/// the driver thread still delivers the producer's buffer.
#[test]
fn submitted_invocations_preserve_sharing() {
    let _quiet = no_faults();
    let worker = worker();
    let seen = Arc::new(Mutex::new(Vec::new()));
    worker
        .register_function(capturing_relay("Relay", Arc::clone(&seen)))
        .unwrap();
    worker
        .register_composition_dsl(
            "composition Identity(In) => Out { Relay(Items = all In) => (Out = Out); }",
        )
        .unwrap();
    let payload = SharedBytes::from_vec(vec![0x5A; PAYLOAD_BYTES]);
    let handle = worker
        .submit(
            "Identity",
            vec![DataSet::with_items(
                "In",
                vec![DataItem::new("blob", payload.clone())],
            )],
        )
        .unwrap();
    let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
    assert!(SharedBytes::same_buffer(
        &outcome.outputs[0].items[0].data,
        &payload
    ));
    worker.shutdown();
}
