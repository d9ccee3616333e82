//! The allocation budget of one `Render` execute.
//!
//! `Render` is where a `RenderLogs` request (paper Fig. 3) spends its compute:
//! five log responses in, one HTML report out. Every payload byte should be
//! touched once — read in place from the response buffer, written into a
//! report allocated once at its final size. The integration tests' counting
//! global allocator watches one run of the function's logic over a prepared
//! context and holds it to that: no copy of a body (an owned lossy-text
//! conversion makes one per response), no regrown report (grown from its
//! opening tag, a 40 KiB report doubles 11 times, the last doubling moving
//! all of it), and a block count that is the same for 8 KiB and 64 KiB logs.

use dandelion_apps::logproc::render_artifact;
use dandelion_common::{DataItem, DataSet};
use dandelion_http::HttpResponse;
use dandelion_integration_tests::{heap_use_of, CountingAllocator, HeapUse};
use dandelion_isolation::{FunctionCtx, SyscallPolicy};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The log services a `RenderLogs` request fans out to.
const LOG_SERVICES: usize = 5;

/// Bytes per log line, newline included.
const LINE_BYTES: usize = 64;

/// A log of `bytes` bytes in lines of [`LINE_BYTES`].
fn log_body(bytes: usize) -> Vec<u8> {
    let mut line = vec![b'l'; LINE_BYTES - 1];
    line.push(b'\n');
    line.into_iter().cycle().take(bytes).collect()
}

/// Runs `Render`'s logic over five log responses of `log_bytes` each; returns
/// what the run asked of the heap, the size of its inputs and the report.
fn render_pass(log_bytes: usize) -> (HeapUse, usize, Vec<u8>) {
    let artifact = render_artifact();
    let items: Vec<DataItem> = (0..LOG_SERVICES)
        .map(|index| {
            let response = HttpResponse::ok(log_body(log_bytes))
                .with_header("Content-Type", "text/plain")
                .to_bytes();
            DataItem::new(format!("response-{index}"), response)
        })
        .collect();
    let input_bytes = items.iter().map(|item| item.data.len()).sum();
    let mut ctx = FunctionCtx::new(
        vec![DataSet::with_items("HTTPResponses", items)],
        artifact.output_sets.clone(),
        4 * 1024 * 1024,
        SyscallPolicy::permissive(),
    )
    .expect("context");
    let (result, heap_use) = heap_use_of(|| artifact.logic.run(&mut ctx));
    result.expect("Render runs");
    let outputs = ctx.take_outputs();
    let report = outputs[0].items[0].data.to_vec();
    (heap_use, input_bytes, report)
}

/// The report's tags around the five sections (`OPEN` + `CLOSE` in
/// `logproc.rs`) and `SECTION_MARKUP` per section: what the report's one
/// allocation may exceed its inputs by.
const FIXED_MARKUP: usize = 34 + 15 + LOG_SERVICES * 64;

/// Blocks one execute may request, whatever the size of the logs. Per
/// response, parsing its head: the start line, per header its line, name and
/// value, and the header list (1 + 2 × 3 + 1 = 8 each, 40). The report (1).
/// Handing it over: the item's name, the shared handle of its buffer, the
/// output set's name and item list, and the list of staged sets (5). Exact,
/// like the other two budgets: a copy of a body is one more block per
/// response, a regrown report one more per doubling, a cloned input set seven.
const MAX_BLOCKS: usize = 46;

#[test]
fn render_reads_bodies_in_place_and_allocates_the_report_once() {
    let mut blocks = Vec::new();
    for log_bytes in [8 * 1024, 64 * 1024] {
        let (heap_use, input_bytes, report) = render_pass(log_bytes);
        // All five logs made it into the report.
        let text = String::from_utf8(report).expect("report is UTF-8");
        assert_eq!(text.matches("<section><pre>\n").count(), LOG_SERVICES);
        // (`Render` keeps the first 200 lines of each.)
        assert!(text.len() > LOG_SERVICES * log_bytes.min(200 * LINE_BYTES));
        assert!(
            heap_use.largest_block <= input_bytes + FIXED_MARKUP,
            "{log_bytes}-byte logs: a {}-byte block for {input_bytes} bytes of input",
            heap_use.largest_block
        );
        // Nothing the size of a payload is ever regrown — the report least
        // of all. (Small lists may still double: a header list, say.)
        assert!(
            heap_use.largest_regrown < 1024,
            "{log_bytes}-byte logs: a block was regrown to {} bytes",
            heap_use.largest_regrown
        );
        assert!(
            heap_use.blocks <= MAX_BLOCKS,
            "{log_bytes}-byte logs: {} blocks requested, budget {MAX_BLOCKS}",
            heap_use.blocks
        );
        blocks.push(heap_use.blocks);
    }
    assert_eq!(blocks[0], blocks[1], "blocks for 8 KiB vs 64 KiB logs");
}
