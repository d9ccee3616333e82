//! Quickstart: register a compute function and a composition, invoke it.
//!
//! ```text
//! cargo run -p dandelion-examples --bin quickstart
//! ```
//!
//! Shows the minimal end-to-end flow of the platform: start a worker node,
//! register an untrusted compute function, describe the application as a
//! composition in the DSL, and drive it through the `DandelionClient`
//! facade — both the non-blocking submit/poll path and the synchronous
//! convenience path — exactly like an external client would over the v1
//! JSON HTTP API.

use std::sync::Arc;

use dandelion_common::config::WorkerConfig;
use dandelion_common::DataSet;
use dandelion_core::{DandelionClient, Frontend, WorkerNode};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};
use dandelion_services::ServiceRegistry;

const COMPOSITION: &str = r#"
composition WordCount(Document) => Counts {
    Count(Text = all Document) => (Counts = Result);
}
"#;

fn main() {
    // 1. Start a worker node. Four cores: three compute engines and one
    //    communication engine; the Native backend executes functions
    //    directly (swap in Cheri/Kvm/Process/Rwasm to model the paper's
    //    isolation mechanisms).
    let config = WorkerConfig {
        total_cores: 4,
        initial_communication_cores: 1,
        ..WorkerConfig::default()
    };
    let worker = WorkerNode::start(config, ServiceRegistry::new()).expect("worker starts");

    // 2. Register an untrusted compute function. It only sees its declared
    //    inputs and outputs — no filesystem, no network, no syscalls.
    worker
        .register_function(FunctionArtifact::new(
            "Count",
            &["Result"],
            |ctx: &mut FunctionCtx| {
                let document = ctx.single_input("Text")?.clone();
                let text = document.as_str().unwrap_or_default();
                let words = text.split_whitespace().count();
                let lines = text.lines().count();
                ctx.push_output_bytes(
                    "Result",
                    "counts.txt",
                    format!("words={words} lines={lines}").into_bytes(),
                )
            },
        ))
        .expect("function registers");

    // 3. Register the application DAG written in the composition DSL.
    let name = worker
        .register_composition_dsl(COMPOSITION)
        .expect("composition registers");
    println!("registered composition `{name}`");

    // 4. Drive it through the client facade over the HTTP frontend. The
    //    submit call returns immediately with a handle; the worker executes
    //    in the background while the client is free to submit more work.
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let client = DandelionClient::for_frontend(Arc::clone(&frontend));
    let handle = client
        .submit(
            "WordCount",
            vec![DataSet::single(
                "Document",
                b"elasticity is the degree to which a system adapts\nto workload changes".to_vec(),
            )],
        )
        .expect("submission is accepted");
    println!(
        "submitted {} (status {})",
        handle.id(),
        handle.poll().unwrap().status
    );

    // 5. Collect the result: poll non-blockingly or wait with a timeout.
    let outcome = handle
        .wait(Some(std::time::Duration::from_secs(10)))
        .expect("invocation completes");
    println!(
        "result: {}",
        outcome.outputs[0].items[0].as_str().unwrap_or_default()
    );

    // The synchronous convenience path is one call.
    let sync = client
        .invoke_sync(
            "WordCount",
            vec![DataSet::single("Document", b"one two three".to_vec())],
        )
        .expect("sync invocation completes");
    println!(
        "sync result: {}",
        sync.outputs[0].items[0].as_str().unwrap_or_default()
    );

    // 6. Worker statistics: two invocations, two sandboxes created.
    let stats = worker.stats();
    println!(
        "invocations={} sandboxes={} p50={:.2} ms",
        stats.invocations,
        stats.compute_tasks,
        stats.latency.p50_ms()
    );
    worker.shutdown();
}
