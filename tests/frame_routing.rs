//! Routing a request from the frame the server's decoder cut
//! ([`Frontend::begin_frame`]) answers exactly what routing the structured
//! request built from the same frame does (`Frontend::begin(&frame.to_request())`).
//!
//! A seeded corpus of requests — every method; origin-form and
//! absolute-form targets with empty segments, more segments than any route
//! has, a `?query` and bytes that are not UTF-8; `Content-Type` values with
//! parameters, mixed case, surrounding whitespace, two lines, bytes that are
//! not UTF-8, or none; raw bodies and set-list bodies — goes through both.
//! The two responses must agree in status, headers and body. A synchronous
//! invoke is waited for, and one submitted for polling is polled until it
//! settles; the composition echoes the sets it was handed, so equal
//! outputs mean equal submitted inputs.

use std::time::{Duration, Instant};

use dandelion_common::rng::SplitMix64;
use dandelion_common::{utf8_lossy, DataItem, DataSet, JsonValue};
use dandelion_core::{sync_invoke_response, Frontend, FrontendReply};
use dandelion_http::{HttpRequest, HttpResponse, ParseLimits, RequestDecoder, StatusCode};
use dandelion_isolation::output_parser::encode_outputs;
use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// Requests in the corpus.
const CASES: usize = 600;

const SEGMENTS: [&str; 9] = [
    "healthz",
    "v1",
    "invoke",
    "invocations",
    "compositions",
    "Echo",
    "Nope",
    "inv-999999",
    "",
];

/// Paths of the routes, most of them the composition's.
const ROUTES: [&str; 8] = [
    "/v1/invoke/Echo",
    "/v1/invoke/Echo",
    "/v1/invocations/Echo",
    "/v1/invoke/Nope",
    "/healthz",
    "/v1/compositions",
    "/v1/invocations/inv-999999",
    "/v1/invocations/not-an-id",
];

const CONTENT_TYPES: [&[u8]; 7] = [
    b"application/x-dandelion-sets",
    b"Application/X-Dandelion-Sets",
    b"application/x-dandelion-sets; v=1",
    b" \tAPPLICATION/x-dandelion-sets ;charset=binary ",
    b"text/plain",
    b"application/x-dandelion-sets\xff",
    b"text/\xc3(plain",
];

fn pick<T: Copy>(rng: &mut SplitMix64, choices: &[T]) -> T {
    choices[rng.next_bounded(choices.len() as u64) as usize]
}

/// A worker whose `Echo` composition returns, as its one output, the set
/// list it was handed.
fn frontend() -> Frontend {
    let worker = dandelion_apps::setup::demo_worker(2, false).expect("demo worker starts");
    worker
        .register_function(FunctionArtifact::new(
            "EchoSets",
            &["Out"],
            |ctx: &mut FunctionCtx| {
                let echoed = encode_outputs(ctx.inputs());
                ctx.push_output_bytes("Out", "echo", echoed)
            },
        ))
        .expect("EchoSets registers");
    worker
        .register_composition_dsl(
            "composition Echo(Input) => Output { EchoSets(Sets = all Input) => (Output = Out); }",
        )
        .expect("Echo registers");
    Frontend::new(worker)
}

/// One request of the corpus, as wire bytes.
fn request(rng: &mut SplitMix64) -> Vec<u8> {
    let method = pick(
        rng,
        &[
            "GET", "POST", "PUT", "DELETE", "HEAD", "POST", "POST", "POST",
        ],
    );
    let mut target = Vec::new();
    if rng.bernoulli(0.3) {
        target.extend_from_slice(b"http://worker:8080");
    }
    if rng.bernoulli(0.6) {
        // A route's segments, with now and then an empty one or a trailing
        // slash.
        let route = pick(rng, &ROUTES);
        for segment in route.split('/').filter(|segment| !segment.is_empty()) {
            target.push(b'/');
            if rng.bernoulli(0.1) {
                target.push(b'/');
            }
            target.extend_from_slice(segment.as_bytes());
        }
        if rng.bernoulli(0.1) {
            target.push(b'/');
        }
    } else {
        let segments = rng.next_bounded(6);
        for _ in 0..segments {
            target.push(b'/');
            target.extend_from_slice(pick(rng, &SEGMENTS).as_bytes());
            if rng.bernoulli(0.04) {
                target.extend_from_slice(b"\xff\xfe");
            }
        }
        if segments == 0 || rng.bernoulli(0.1) {
            target.push(b'/');
        }
    }
    if rng.bernoulli(0.1) {
        target.extend_from_slice(b"?q=1");
    }
    let mut wire = Vec::new();
    wire.extend_from_slice(method.as_bytes());
    wire.push(b' ');
    wire.extend_from_slice(&target);
    wire.extend_from_slice(b" HTTP/1.1\r\nHost: worker\r\n");
    let lines = rng.next_bounded(3);
    for _ in 0..lines {
        let name = pick(rng, &["Content-Type", "content-type", "CONTENT-TYPE"]);
        wire.extend_from_slice(name.as_bytes());
        wire.extend_from_slice(b":");
        wire.extend_from_slice(pick(rng, &CONTENT_TYPES));
        wire.extend_from_slice(b"\r\n");
    }
    let body = if rng.bernoulli(0.5) {
        let set = if rng.bernoulli(0.8) { "Input" } else { "Other" };
        let items = (0..rng.next_bounded(3))
            .map(|index| {
                let mut item = DataItem::new(format!("item-{index}"), vec![index as u8; 3]);
                if rng.bernoulli(0.3) {
                    item.key = Some(format!("k{}", rng.next_bounded(2)));
                }
                item
            })
            .collect();
        encode_outputs(&[DataSet::with_items(set, items)])
    } else {
        (0..rng.next_bounded(24))
            .map(|_| rng.next_u64() as u8)
            .collect()
    };
    wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    wire.extend_from_slice(&body);
    wire
}

/// What a response says, whichever way it was reached: status, headers and
/// body; for an accepted submission, the settled status document's
/// `status` and `outputs` or `error` in place of the `202` body, which
/// names the invocation.
fn outcome(frontend: &Frontend, reply: FrontendReply) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let response = match reply {
        FrontendReply::Ready(response) => response,
        FrontendReply::Pending(handle) => {
            sync_invoke_response(handle.wait(Some(Duration::from_secs(10))))
        }
    };
    let headers = response
        .headers
        .iter()
        .map(|(name, value)| (name.to_string(), value.to_string()))
        .collect();
    let body = if response.status == StatusCode::ACCEPTED {
        settled(frontend, &response)
    } else {
        response.body.to_vec()
    };
    (response.status.0, headers, body)
}

/// The settled status document of the invocation a `202` names, reduced to
/// what does not depend on which invocation it is.
fn settled(frontend: &Frontend, accepted: &HttpResponse) -> Vec<u8> {
    let document = JsonValue::parse(&accepted.body_text()).expect("a 202 body is JSON");
    let href = document
        .get("href")
        .and_then(JsonValue::as_str)
        .expect("a 202 names its invocation")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let poll = frontend.handle(&HttpRequest::get(href.clone()));
        let document = JsonValue::parse(&poll.body_text()).expect("a status document");
        let status = document.get("status").and_then(JsonValue::as_str);
        if matches!(status, Some("completed" | "failed")) {
            let keep = ["status", "outputs", "error"];
            let kept = keep
                .iter()
                .map(|field| format!("{field}={:?}", document.get(field)))
                .collect::<Vec<_>>()
                .join(";");
            return kept.into_bytes();
        }
        assert!(Instant::now() < deadline, "{href} did not settle");
        std::thread::yield_now();
    }
}

#[test]
fn a_request_routed_from_its_frame_is_answered_as_its_structured_request_is() {
    let frontend = frontend();
    let mut rng = SplitMix64::new(0x00F4_A3E5);
    let (mut invokes, mut set_lists) = (0, 0);
    for case in 0..CASES {
        let wire = request(&mut rng);
        let mut decoder = RequestDecoder::new(ParseLimits::default());
        decoder.feed(&wire);
        let frame = decoder
            .next_frame()
            .expect("the corpus is well-formed HTTP")
            .expect("one whole request");
        let from_frame = outcome(&frontend, frontend.begin_frame(&frame));
        let from_request = outcome(&frontend, frontend.begin(&frame.to_request()));
        assert_eq!(
            from_frame,
            from_request,
            "case {case}: {:?}",
            utf8_lossy(&wire)
        );
        if from_frame.0 == 200 && frame.target().ends_with(b"/Echo") {
            invokes += 1;
            let echoed = from_frame.2.windows(5).any(|window| window == b"Input");
            set_lists += usize::from(echoed && frame.header("content-type").is_some());
        }
    }
    // The corpus reaches the paths that matter: invokes that ran, set-list
    // bodies among them.
    eprintln!("{invokes} invokes ran, {set_lists} with a set list");
    assert!(invokes >= 20, "{invokes} invokes ran");
    assert!(set_lists >= 5, "{set_lists} set-list invokes ran");
    frontend.worker().shutdown();
}
