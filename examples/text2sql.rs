//! The Text2SQL agentic AI workflow (paper §7.7).
//!
//! ```text
//! cargo run -p dandelion-examples --bin text2sql
//! ```
//!
//! Natural-language questions are parsed by a compute function, sent to a
//! (simulated) LLM inference service through the HTTP communication
//! function, the generated SQL is extracted and issued to a SQL database
//! service, and the rows are formatted into an answer. With
//! `--realistic-latency` the services use the paper's measured latencies
//! (the LLM call alone takes ~1.24 s and dominates the pipeline).

use std::time::Instant;

use dandelion_apps::paper_step_latencies_ms;
use dandelion_apps::setup::demo_worker;
use dandelion_common::DataSet;
use dandelion_core::DandelionClient;

fn main() {
    let realistic = std::env::args().any(|arg| arg == "--realistic-latency");
    let worker = demo_worker(4, realistic).expect("worker starts");
    let client = DandelionClient::for_worker(std::sync::Arc::clone(&worker));

    // Submit every question at once through the client facade; with the
    // realistic latency model the three ~1.2 s LLM calls overlap instead of
    // serializing, so the batch finishes in roughly the time of one.
    let questions = [
        "Which city in Switzerland has the largest population?",
        "What is the best movie of 1994?",
        "List the movies directed in 2001",
    ];
    let started = Instant::now();
    let handles: Vec<_> = questions
        .iter()
        .map(|question| {
            client
                .submit(
                    "Text2Sql",
                    vec![DataSet::single("Prompt", question.as_bytes().to_vec())],
                )
                .expect("workflow submits")
        })
        .collect();
    for (question, handle) in questions.iter().zip(handles) {
        let outcome = handle.wait(None).expect("workflow runs");
        let answer = outcome.outputs[0].items[0].as_str().unwrap_or_default();
        println!("Q: {question}");
        for line in answer.lines() {
            println!("   A: {line}");
        }
    }
    println!(
        "({:.0} ms for all {} questions, overlapped)\n",
        started.elapsed().as_secs_f64() * 1e3,
        questions.len()
    );

    println!("paper per-step latencies (ms): ");
    for (step, latency) in paper_step_latencies_ms() {
        println!("  {step:>16}: {latency}");
    }
    if !realistic {
        println!("\nrun with --realistic-latency to apply the paper's measured service latencies");
    }
    worker.shutdown();
}
