//! A worker node starts and joins its own threads: one per engine and one
//! driver, and none left behind.
//!
//! The count is the process's (`/proc/self/task`), so this binary holds one
//! test.

use std::time::{Duration, Instant};

use dandelion_common::config::{IsolationKind, WorkerConfig};
use dandelion_core::WorkerNode;
use dandelion_services::ServiceRegistry;

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

/// Waits until the process's threads are `expected`: a new thread names
/// itself a moment after `spawn` returns, and a joined one leaves the task
/// list a moment after `join` returns.
fn settle_at(expected: &[String]) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != expected {
        assert!(
            Instant::now() < deadline,
            "threads {:?}, expected {expected:?}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_worker_starts_one_thread_per_engine_and_a_driver_and_joins_them_all() {
    let before = threads();
    let config = WorkerConfig {
        total_cores: 4,
        initial_communication_cores: 1,
        isolation: IsolationKind::Native,
        ..WorkerConfig::default()
    };
    let worker = WorkerNode::start(config, ServiceRegistry::new()).unwrap();
    let mut expected = before.clone();
    expected.extend(["dandelion-compu"; 3].map(String::from));
    expected.push("dandelion-commu".to_string());
    expected.push("dandelion-dispa".to_string());
    expected.sort();
    settle_at(&expected);

    worker.shutdown();
    settle_at(&before);
    // A second shutdown, and the drop, have nothing left to join or start.
    worker.shutdown();
    drop(worker);
    assert_eq!(threads(), before);
}
