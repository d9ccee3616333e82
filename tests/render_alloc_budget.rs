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
//!
//! The second case holds the HTTP boundary around it to the same rule: a
//! request and a response are put on the wire as a head built once plus the
//! body by reference, whatever the body's size. The third holds `MatMul`, the
//! compute function of the paper's Fig. 6, to it: the matrices are read where
//! the request left them and the product is written where the response will
//! take it from. The fourth holds a gateway's hop to it: what a client sent
//! and what a member answered go on as the bytes that arrived, spliced, not
//! decoded and encoded again.

use dandelion_apps::matmul::{
    decode_matrix, encode_matrix, matmul_artifact, matmul_inputs, multiply,
};
use dandelion_apps::render_artifact;
use dandelion_common::rng::SplitMix64;
use dandelion_common::{DataItem, DataSet, SharedBytes, SIZE_CLASSES};
use dandelion_http::{HttpRequest, HttpResponse};
use dandelion_integration_tests::{heap_use_of, CountingAllocator, HeapUse};
use dandelion_isolation::{FunctionCtx, SyscallPolicy};
use std::sync::{Mutex, PoisonError};

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

/// One 128×128 `MatMul` execute asks the heap for the handful of small
/// blocks that stage an output item — not for a decoded copy of either
/// 128 KiB matrix, a third vector for the product, a clone of the input set,
/// or the multiply's working memory (the 72 KiB of packed operands and row
/// panel of the 16-bit multiply, the 4 KiB row panel of the others), which
/// comes from the pool — and its `product` item is the pooled buffer
/// `output_buffer` handed out, frozen where it was filled. Of the three
/// inputs, identity × `3 + index` and ±1 000 values as the benchmark's take
/// the 16-bit multiply where the processor has AVX-512BW; values at the ends
/// of `i32` take the 32-bit one on every processor.
#[test]
fn matmul_reads_the_matrices_in_place_and_fills_its_output_buffer() {
    const DIMENSION: usize = 128;
    let artifact = matmul_artifact();
    let identity_times_b = matmul_inputs(DIMENSION, 3);
    let identity_product = identity_times_b.items[1].data.to_vec();
    let mut rng = SplitMix64::new(128);
    let mut seeded = |value: &dyn Fn(u64) -> i64| -> Vec<i64> {
        (0..DIMENSION * DIMENSION)
            .map(|_| value(rng.next_u64()))
            .collect()
    };
    let inputs_and_product = |a: Vec<i64>, b: Vec<i64>| {
        let product = encode_matrix(DIMENSION, &multiply(DIMENSION, &a, &b));
        let inputs = DataSet::with_items(
            "Matrices",
            vec![
                DataItem::new("a", encode_matrix(DIMENSION, &a)),
                DataItem::new("b", encode_matrix(DIMENSION, &b)),
            ],
        );
        (inputs, product)
    };
    let within_1000 = |random: u64| (random % 2_001) as i64 - 1_000;
    let (short_inputs, short_product) =
        inputs_and_product(seeded(&within_1000), seeded(&within_1000));
    let at_i32_ends = |random: u64| match random % 3 {
        0 => i64::from(i32::MIN),
        1 => i64::from(i32::MAX),
        _ => i64::from((random >> 32) as i32),
    };
    let (narrow_inputs, narrow_product) =
        inputs_and_product(seeded(&at_i32_ends), seeded(&at_i32_ends));
    for (what, inputs, expected, short) in [
        ("identity × B", identity_times_b, identity_product, true),
        ("±1 000 values", short_inputs, short_product, true),
        ("the ends of i32", narrow_inputs, narrow_product, false),
    ] {
        for item in &inputs.items {
            let (_, values) = decode_matrix(&item.data).expect("a matrix");
            let fit_i16 = values.iter().all(|value| i16::try_from(*value).is_ok());
            assert_eq!(fit_i16, short, "{what}");
        }
        let execute = || {
            let mut ctx = FunctionCtx::new(
                vec![inputs.clone()],
                artifact.output_sets.clone(),
                artifact.memory_requirement,
                SyscallPolicy::permissive(),
            )
            .expect("context");
            let (result, heap_use) = heap_use_of(|| artifact.logic.run(&mut ctx));
            result.expect("MatMul runs");
            (heap_use, ctx.take_outputs())
        };
        // Once unmeasured: its output buffer and its working memory go back
        // to the pool, where the measured run finds them (a pool that has
        // none asks the heap).
        drop(execute());
        let (heap_use, outputs) = execute();
        let product = &outputs[0].items[0].data;
        assert_eq!(product.as_slice(), expected, "{what}");
        assert!(
            heap_use.bytes < 16 * 1024,
            "{what}: {} bytes in {} blocks requested outside the pool, the largest {}",
            heap_use.bytes,
            heap_use.blocks,
            heap_use.largest_block
        );
        // The whole of a pooled buffer of the class that holds a product: a
        // vector of the function's own, staged, would back exactly its
        // length.
        let class = SIZE_CLASSES.iter().find(|class| **class >= product.len());
        assert_eq!(product.offset_in_buffer(), 0, "{what}");
        assert_eq!(Some(&product.backing_len()), class, "{what}");
    }
}

/// Held by the two HTTP cases: both take the global pool's smallest class,
/// and one's buffers taken while the other measures would send the other to
/// the heap.
static SMALL_BUFFERS: Mutex<()> = Mutex::new(());

/// After a warm-up a request and a response go on the wire without asking
/// the heap for anything: the head is built in a pooled buffer that the rope
/// carries unfrozen (no `Arc`), head and body sit in the rope's two inline
/// slots, the `IoSlice` table is on the stack and the body is a reference.
/// Flattening a message shows as one block of its size, a frozen head as one
/// `Arc`, a third segment as the rope's spill list.
#[test]
fn http_messages_go_on_the_wire_as_a_built_head_and_a_referenced_body() {
    let _pool = SMALL_BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    for body_bytes in [4 * 1024, 64 * 1024] {
        let body = SharedBytes::from_vec(vec![b'p'; body_bytes]);
        let request = HttpRequest::post("/v1/invoke/Echo", body.clone())
            .with_header("Content-Type", "application/octet-stream");
        let response =
            HttpResponse::ok(body).with_header("Content-Type", "application/octet-stream");
        let put_on_the_wire = || {
            let ropes = [request.to_rope(), response.to_rope()];
            for rope in &ropes {
                rope.write_to(&mut std::io::sink()).expect("a sink accepts");
            }
            ropes.iter().map(|rope| rope.len()).sum::<usize>()
        };
        // Once unmeasured: the heads' buffers come back from the pool.
        put_on_the_wire();
        let (written, heap_use) = heap_use_of(put_on_the_wire);
        assert!(written > 2 * body_bytes, "{written} bytes written");
        assert_eq!(heap_use, HeapUse::default(), "{body_bytes}-byte bodies");
    }
}

/// Blocks one proxied exchange may request of a gateway: each decoder's
/// frozen receive buffer (2, one shared handle each) and the relayed rope's
/// list of segments past the two it holds inline (1), with room to spare.
/// Decoding both messages into header maps, `proxy_request` + `to_rope` and
/// `proxy_response` + `response_rope` ask for about thirty (the failure
/// message prints the count).
const MAX_PROXY_BLOCKS: usize = 10;

/// What a gateway does to one `gw_matmul1` exchange between its two sockets
/// — a client's request framed and forwarded, the member's response framed
/// and relayed — is one head scan each and a splice of the received bytes:
/// no header map of owned strings, no clone of the request, no head built
/// again. The structured chain it replaced is measured beside it.
#[test]
fn a_proxied_exchange_is_framed_and_spliced_not_decoded_and_encoded() {
    let _pool = SMALL_BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    use dandelion_common::NodeId;
    use dandelion_core::frontend::SET_LIST_CONTENT_TYPE;
    use dandelion_http::{RequestDecoder, ResponseDecoder};
    use dandelion_server::gateway::{
        forward_rope, node_line, proxy_request, proxy_response, relay_rope,
    };
    use dandelion_server::response_rope;

    // The benchmark's 1×1 `MatMulApp` request, and a member's answer as
    // its server puts it on the wire.
    let request = HttpRequest::post("/v1/invoke/MatMulApp", vec![7u8; 48])
        .with_header("Host", "bench")
        .with_header("Content-Type", SET_LIST_CONTENT_TYPE)
        .to_bytes();
    let answer =
        HttpResponse::ok(vec![9u8; 24]).with_header("Content-Type", "application/octet-stream");
    let response = response_rope(answer, false).to_vec();
    let node = NodeId::from_raw(2);
    let line = node_line(node);

    let spliced = || {
        let mut decoder = RequestDecoder::default();
        decoder.feed(&request);
        let frame = decoder.next_frame().unwrap().expect("complete request");
        let forward = forward_rope(&frame);
        let mut decoder = ResponseDecoder::default();
        decoder.feed(&response);
        let frame = decoder.next_frame().unwrap().expect("complete response");
        (forward, relay_rope(&frame, &line, false))
    };
    let rebuilt = || {
        let mut decoder = RequestDecoder::default();
        decoder.feed(&request);
        let parsed = decoder.next_request().unwrap().expect("complete request");
        let forward = proxy_request(&parsed).to_rope();
        let mut decoder = ResponseDecoder::default();
        decoder.feed(&response);
        let parsed = decoder.next_response().unwrap().expect("complete response");
        (forward, response_rope(proxy_response(parsed, node), false))
    };
    // Once unmeasured each: the receive buffers come back from the pool.
    spliced();
    rebuilt();
    let ((forward, relayed), heap_use) = heap_use_of(spliced);
    let (_, structured) = heap_use_of(rebuilt);
    // The forward is the request byte for byte; the relay is the member's
    // message with `X-Dandelion-Node` in it.
    assert_eq!(forward.to_vec(), request);
    assert_eq!(relayed.len(), response.len() + line.len());
    assert!(
        heap_use.blocks <= MAX_PROXY_BLOCKS,
        "{} blocks requested, budget {MAX_PROXY_BLOCKS} (the decode-and-encode chain: {})",
        heap_use.blocks,
        structured.blocks
    );
}
