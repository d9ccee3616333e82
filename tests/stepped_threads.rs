//! A stepped worker starts no thread: across its whole life — built, its
//! applications registered, an invocation submitted and stepped until it
//! settles, its timers run, shut down — the process's threads are the ones
//! it had before.
//!
//! The count is the process's (`/proc/self/task`), so this binary holds one
//! test.

use std::time::Instant;

use dandelion_apps::setup::DEMO_TOKEN;
use dandelion_common::DataSet;
use dandelion_core::WorkerNode;
use dandelion_integration_tests::{settle_stepped, stepped_demo_worker};

/// The kernel's names (15 bytes) of this process's threads, sorted.
fn threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("listing /proc/self/task")
        .map(|task| {
            let comm = task.expect("a task entry").path().join("comm");
            // A thread that exits between the listing and the read is gone.
            std::fs::read_to_string(comm)
                .map(|name| name.trim_end().to_string())
                .unwrap_or_default()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_stepped_worker_starts_no_thread_in_its_whole_life() {
    let before = threads();
    let worker = WorkerNode::stepped(Default::default(), Default::default()).unwrap();
    assert_eq!(threads(), before, "built");
    drop(worker);
    let worker = stepped_demo_worker();
    assert_eq!(threads(), before, "built, applications registered");

    let handle = worker
        .submit(
            "RenderLogs",
            vec![DataSet::single(
                "AccessToken",
                DEMO_TOKEN.as_bytes().to_vec(),
            )],
        )
        .unwrap();
    assert_eq!(threads(), before, "submitted");
    let outcome = settle_stepped(&worker, &handle).unwrap();
    assert!(outcome.outputs[0].items[0]
        .as_str()
        .unwrap()
        .contains("<html>"));
    assert_eq!(threads(), before, "settled");

    // Every timer fires — the reaper, the buffer pool's release and the core
    // controller — and starts no thread either.
    let mut now = Instant::now();
    for _ in 0..32 {
        let stepped = worker.step(now);
        assert_eq!((stepped.batches, stepped.queued), (0, 0), "settled");
        assert!(stepped.next_due > now);
        now = stepped.next_due;
    }
    assert_eq!(threads(), before, "timers run");

    worker.shutdown();
    drop(worker);
    assert_eq!(threads(), before, "shut down");
}
