//! The allocation budget of one `RenderLogs` pass through the dataflow state.
//!
//! A counting global allocator (per-thread counters, so the parallel test
//! runner's other threads do not leak in) measures what the dispatcher's
//! bookkeeping asks of the heap for one request of the paper's flagship
//! composition (Fig. 3: 3 compute + 6 communication tasks, fan-out 5), driven
//! by hand the way `DispatcherCore::advance` drives it: `ready_instances`
//! after construction and after every completion that finished a node. The
//! engines' results are built outside the measured region — they are not the
//! state machine's work.
//!
//! The same script runs against the state machine as it was at the parent
//! commit (`oracle/invocation_parent.rs`). Counting dependencies instead of
//! cloning every waiting `GraphNode`, keeping merged outputs in lists indexed
//! by output position instead of a `HashMap<String, DataSet>` per node, and
//! moving instance outputs instead of cloning them is what keeps a pass at
//! less than half the parent's blocks; any of those coming back goes over.

use std::sync::Arc;

use dandelion_common::{DataItem, DataSet, InvocationId, SharedBytes};
use dandelion_core::invocation::{InstanceCompletion, InvocationState};
use dandelion_dsl::builder::render_logs_composition;
use dandelion_dsl::CompositionGraph;
use dandelion_integration_tests::{heap_use_of, CountingAllocator};

#[allow(dead_code)]
#[path = "oracle/invocation_parent.rs"]
mod parent_dataflow;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Blocks this thread requested while `work` ran.
fn blocks_requested_by<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let (value, heap_use) = heap_use_of(work);
    (value, heap_use.blocks)
}

/// The log services a `RenderLogs` request fans out to.
const LOG_SERVICES: usize = 5;

/// What the engines return for one `RenderLogs` request, in completion
/// order: `(node, instance, output sets)`. Only the log bodies' size varies.
fn engine_results(log_bytes: usize) -> Vec<(usize, usize, Vec<DataSet>)> {
    let item = |name: String, bytes: usize| DataItem::new(name, vec![0x6C; bytes]);
    let mut results = vec![
        (
            0,
            0,
            vec![DataSet::with_items(
                "HTTPRequest",
                vec![item("auth".into(), 96)],
            )],
        ),
        (
            1,
            0,
            vec![DataSet::with_items(
                "Response",
                vec![item("response".into(), 160)],
            )],
        ),
        (
            2,
            0,
            vec![DataSet::with_items(
                "HTTPRequests",
                (0..LOG_SERVICES)
                    .map(|index| item(format!("logs-{index}"), 64))
                    .collect(),
            )],
        ),
    ];
    for instance in 0..LOG_SERVICES {
        results.push((
            3,
            instance,
            vec![DataSet::with_items(
                "Response",
                vec![item("response".into(), log_bytes)],
            )],
        ));
    }
    results.push((
        4,
        0,
        vec![DataSet::with_items(
            "HTMLOutput",
            vec![item("report.html".into(), 5 * log_bytes)],
        )],
    ));
    results
}

/// Drives one `RenderLogs` request through `$state` (the current state
/// machine or the oracle: same method names, different return types) and
/// returns the blocks it requested. `$finished` turns what
/// `complete_instance` returns into "this completion finished its node".
macro_rules! render_logs_pass {
    ($state:ty, $finished:expr, $graph:expr, $log_bytes:expr) => {{
        let graph: Arc<CompositionGraph> = Arc::clone($graph);
        let inputs = vec![DataSet::single("AccessToken", b"demo-token".to_vec())];
        let results = engine_results($log_bytes);
        let report: SharedBytes = results.last().expect("Render's result").2[0].items[0]
            .data
            .clone();
        // The state leaves the measured region alive: dropping it releases
        // the intermediate buffers into `dandelion_common`'s buffer pool,
        // whose free lists grow as they fill — the pool's blocks, not the
        // state machine's.
        let ((handed_out, outputs, _state), blocks) = blocks_requested_by(|| {
            let mut state =
                <$state>::new(InvocationId::from_raw(1), graph, inputs).expect("valid inputs");
            let mut handed_out = state.ready_instances().expect("first sweep").len();
            for (node, instance, outputs) in results {
                let applied = state
                    .complete_instance(node, instance, Ok(outputs))
                    .expect("completion applies");
                if $finished(applied) {
                    handed_out += state.ready_instances().expect("sweep").len();
                }
            }
            let outputs = state.external_outputs().expect("complete");
            (handed_out, outputs, state)
        });
        // 3 compute + 6 communication tasks, and the report arrives as the
        // very buffer Render produced.
        assert_eq!(handed_out, 4 + LOG_SERVICES);
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].name, "HTMLOutput");
        assert!(SharedBytes::same_buffer(&outputs[0].items[0].data, &report));
        blocks
    }};
}

fn current_pass(graph: &Arc<CompositionGraph>, log_bytes: usize) -> usize {
    render_logs_pass!(
        InvocationState,
        |applied| applied == InstanceCompletion::NodeFinished,
        graph,
        log_bytes
    )
}

fn parent_pass(graph: &Arc<CompositionGraph>, log_bytes: usize) -> usize {
    render_logs_pass!(
        parent_dataflow::InvocationState,
        |finished_node: bool| finished_node,
        graph,
        log_bytes
    )
}

/// What one pass asks of the heap, block by block. The client's items by
/// input position, the node table, and the dependency list of each of the
/// four nodes that have one, to count it (6). Per node, five of them: the
/// list of source slices, the list of instances, the slot list and the list
/// of ready specs of its sweep, and the merged-outputs list when it completes
/// (5 each; merging the five `Response` sets of the fan-out into one list
/// grows that list twice: 2). Per instance, nine of them: its input list, the set's name
/// and the set's item list (3 each), and per item handed to an instance the
/// item's name (1 + 1 + 1 + 5 + 5). The external outputs: the list, the
/// set's name, its item list and the item's name (4). These are exact: one
/// more clone of an item (1 block and up) or of a graph node (5 and up) fails
/// the test; a toolchain that grows `Vec`s differently means measuring again,
/// not padding. The parent state machine asked for 419.
const MAX_BLOCKS: usize = 77;

#[test]
fn one_render_logs_pass_allocates_at_most_half_of_what_it_did() {
    let graph = Arc::new(render_logs_composition());
    let current = current_pass(&graph, 8 * 1024);
    let parent = parent_pass(&graph, 8 * 1024);
    assert!(
        current <= MAX_BLOCKS,
        "{current} blocks requested, budget {MAX_BLOCKS}"
    );
    assert!(
        2 * current <= parent,
        "{current} blocks requested, the parent state machine requested {parent}"
    );
}

#[test]
fn the_cost_of_a_pass_does_not_depend_on_the_payload_size() {
    let graph = Arc::new(render_logs_composition());
    let small = current_pass(&graph, 8 * 1024);
    let large = current_pass(&graph, 1024 * 1024);
    assert_eq!(small, large, "blocks for 8 KiB vs 1 MiB log bodies");
    assert!(
        large <= MAX_BLOCKS,
        "{large} blocks requested for 1 MiB log bodies, budget {MAX_BLOCKS}"
    );
}
