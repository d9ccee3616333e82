//! The heap a node commits by starting, and by serving its first requests.
//!
//! The paper's elasticity argument is that capacity appears when the demand
//! does, with no idle memory committed ahead of it. A counting global
//! allocator (bytes allocated and not yet freed, process-wide: the engines'
//! threads hold memory too) reads what `demo_worker` leaves live on the heap:
//! 1.15 MiB — the 16 registered functions' binaries (912 KiB), the engines
//! and queues, five rendered logs (40 KiB) — and none of the content the
//! simulated object store serves, which is materialised by the first request
//! that names it. A fixture that fills a bucket at start-up again goes over
//! by its whole size (the `phases` arrays were 64 MiB, the SSB tables
//! 1.2 MiB). Nothing here reads a clock.
//!
//! One test, so nothing else in the process allocates while it measures.

use dandelion_apps::matmul::matmul_inputs;
use dandelion_apps::setup::{demo_worker, DEMO_TOKEN};
use dandelion_common::DataSet;
use dandelion_integration_tests::{live_heap_bytes, CountingAllocator};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const MIB: usize = 1024 * 1024;

#[test]
fn a_started_node_holds_its_registrations_and_its_first_requests_little_more() {
    let before = live_heap_bytes();
    let worker = demo_worker(2, false).expect("demo worker starts");
    let started = live_heap_bytes() - before;
    assert!(started > 0, "the counting allocator is installed");
    assert!(
        started <= MIB + MIB / 2,
        "a started demo worker holds {started} bytes of heap"
    );

    let matmul = worker
        .invoke("MatMulApp", vec![matmul_inputs(1, 7)])
        .expect("MatMulApp runs");
    let logs = worker
        .invoke(
            "RenderLogs",
            vec![DataSet::single(
                "AccessToken",
                DEMO_TOKEN.as_bytes().to_vec(),
            )],
        )
        .expect("RenderLogs runs");
    // Measured with both results still held: what serving them took, not
    // what is left once they are dropped.
    let served = live_heap_bytes() - before;
    assert!(
        served < 2 * MIB,
        "after one MatMulApp and one RenderLogs the node holds {served} bytes"
    );
    drop((matmul, logs));
    worker.shutdown();
}
