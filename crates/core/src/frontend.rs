//! The HTTP frontend.
//!
//! "The frontend manages client communication, handling requests for
//! composition/function registration and invocation. It forwards these
//! requests to the dispatcher and serializes and returns the final result to
//! the client." (paper §5)
//!
//! The frontend is transport-agnostic: it maps [`HttpRequest`]s to worker
//! operations and produces [`HttpResponse`]s. Examples and tests drive it
//! directly; a deployment would put a socket listener in front of it.
//! Request targets are parsed with [`dandelion_http::Uri`] (absolute-form
//! and origin-form both work); query strings are rejected on every endpoint.
//!
//! # v1 JSON API
//!
//! | Method & path | Purpose | Success |
//! |---|---|---|
//! | `GET /healthz` | Liveness probe | `200`, plain `ok` |
//! | `GET /v1/compositions` | List registered compositions | `200`, `{"compositions": [..]}` |
//! | `POST /v1/compositions` | Register a composition (body: DSL text) | `201`, `{"name": ".."}` |
//! | `POST /v1/invocations/{name}` | Submit an invocation (non-blocking) | `202`, `{"invocation_id": "inv-N", "status": "..", "href": ".."}` |
//! | `GET /v1/invocations/{id}` | Poll status/result of an invocation | `200`, status document (see below) |
//! | `POST /v1/invoke/{name}` | Synchronous invocation (compatibility) | `200`, raw output bytes |
//! | `GET /v1/stats` | Worker statistics | `200`, JSON object |
//!
//! Invocation inputs (for both invocation endpoints): with
//! `Content-Type: application/x-dandelion-sets` the body is the binary
//! set-list descriptor (the same format functions use for their outputs);
//! otherwise the raw body becomes the single item of the composition's first
//! external input.
//!
//! The status document carries `invocation_id`, `composition` and `status`
//! (`queued` | `running` | `completed` | `failed`); once completed it adds
//! `outputs` (sets of base64-encoded items) and a `report`, and once failed
//! it adds the error object. Results are retained for polling up to the
//! worker's `completed_retention`; polling an unknown or expired id yields
//! `404` with code `not_found`.
//!
//! Every error is a structured JSON body with a stable machine-readable
//! code derived from [`DandelionError::code`]:
//! `{"error": {"code": "..", "message": "..", "retryable": bool}}`.

use std::sync::Arc;

use dandelion_common::{
    BufferPool, DandelionError, DandelionResult, DataSet, InvocationId, JsonValue,
};
use dandelion_http::{HttpRequest, HttpResponse, Method, StatusCode, Uri};
use dandelion_isolation::output_parser;
use parking_lot::RwLock;

use crate::dispatcher::{InvocationHandle, InvocationOutcome, InvocationSnapshot};
use crate::worker::WorkerNode;

/// Content type for binary-encoded set lists.
pub const SET_LIST_CONTENT_TYPE: &str = "application/x-dandelion-sets";

/// Content type for JSON documents.
pub const JSON_CONTENT_TYPE: &str = "application/json";

/// The typed routes of the frontend, as resolved by [`Route::resolve`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Route {
    Health,
    ListCompositions,
    RegisterComposition,
    Stats,
    Drain,
    InvokeSync(String),
    SubmitInvocation(String),
    PollInvocation(String),
}

impl Route {
    /// Resolves a method and an already-parsed URI path to a route.
    fn resolve(method: Method, path: &str) -> Result<Route, HttpResponse> {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let route = match (method, segments.as_slice()) {
            (Method::Get, ["healthz"]) => Route::Health,
            (Method::Get, ["v1", "compositions"]) => Route::ListCompositions,
            (Method::Post, ["v1", "compositions"]) => Route::RegisterComposition,
            (Method::Get, ["v1", "stats"]) => Route::Stats,
            (Method::Post, ["v1", "drain"]) => Route::Drain,
            (Method::Post, ["v1", "invoke", name]) if !name.is_empty() => {
                Route::InvokeSync((*name).to_string())
            }
            (Method::Post, ["v1", "invocations", name]) if !name.is_empty() => {
                Route::SubmitInvocation((*name).to_string())
            }
            (Method::Get, ["v1", "invocations", id]) if !id.is_empty() => {
                Route::PollInvocation((*id).to_string())
            }
            _ => {
                return Err(error_response(&DandelionError::NotFound {
                    kind: "endpoint",
                    name: path.to_string(),
                }))
            }
        };
        Ok(route)
    }
}

/// A named provider of extra key/value pairs merged into the `/v1/stats`
/// document (e.g. the network server contributing connection gauges).
pub type StatsSource = Arc<dyn Fn() -> JsonValue + Send + Sync>;

/// The outcome of [`Frontend::begin`]: either the response is already in
/// hand, or a synchronous invocation is executing and the caller decides how
/// to wait for it.
pub enum FrontendReply {
    /// The response is complete; deliver it.
    Ready(HttpResponse),
    /// A `POST /v1/invoke/{name}` is running on the worker. Block on the
    /// handle (what [`Frontend::handle`] does) or register an
    /// [`InvocationHandle::on_settle`] callback and encode the outcome with
    /// [`sync_invoke_response`] — the readiness-driven server's path, which
    /// parks the connection instead of a thread.
    Pending(InvocationHandle),
}

/// The HTTP frontend of a worker node.
pub struct Frontend {
    worker: Arc<WorkerNode>,
    /// Extra named objects merged into the `/v1/stats` document.
    stats_sources: RwLock<Vec<(String, StatsSource)>>,
}

impl Frontend {
    /// Creates a frontend serving the given worker.
    pub fn new(worker: Arc<WorkerNode>) -> Self {
        Self {
            worker,
            stats_sources: RwLock::new(Vec::new()),
        }
    }

    /// The worker behind this frontend.
    pub fn worker(&self) -> &Arc<WorkerNode> {
        &self.worker
    }

    /// Registers (or replaces) a named stats source whose JSON value is
    /// merged into the `/v1/stats` document under `name`. The serving layer
    /// uses this to surface connection gauges next to the worker counters.
    pub fn add_stats_source(&self, name: &str, source: StatsSource) {
        let mut sources = self.stats_sources.write();
        if let Some(slot) = sources.iter_mut().find(|(existing, _)| existing == name) {
            slot.1 = source;
        } else {
            sources.push((name.to_string(), source));
        }
    }

    /// Removes a stats source registered under `name` (a stopped server
    /// must not keep reporting frozen gauges through a frontend that may
    /// be served elsewhere).
    pub fn remove_stats_source(&self, name: &str) {
        self.stats_sources
            .write()
            .retain(|(existing, _)| existing != name);
    }

    /// Handles one client request, blocking until the response is complete
    /// (synchronous invocations wait for the worker).
    pub fn handle(&self, request: &HttpRequest) -> HttpResponse {
        match self.begin(request) {
            FrontendReply::Ready(response) => response,
            FrontendReply::Pending(handle) => sync_invoke_response(handle.wait(None)),
        }
    }

    /// Handles one client request without ever blocking on the worker.
    ///
    /// Every endpoint except the synchronous `POST /v1/invoke/{name}`
    /// completes immediately; the sync invoke is submitted and returned as
    /// [`FrontendReply::Pending`] for the caller to await however it wants.
    pub fn begin(&self, request: &HttpRequest) -> FrontendReply {
        let Some(uri) = Uri::parse(&request.target) else {
            return FrontendReply::Ready(error_response(&DandelionError::InvalidRequest(format!(
                "unparseable request target `{}`",
                request.target
            ))));
        };
        if let Some(query) = &uri.query {
            return FrontendReply::Ready(error_response(&DandelionError::InvalidRequest(format!(
                "query strings are not accepted (got `?{query}`)"
            ))));
        }
        let route = match Route::resolve(request.method, &uri.path) {
            Ok(route) => route,
            Err(response) => return FrontendReply::Ready(response),
        };
        FrontendReply::Ready(match route {
            Route::Health => HttpResponse::ok(b"ok".to_vec()),
            Route::ListCompositions => {
                let names = self.worker.registry().composition_names();
                json_response(
                    StatusCode::OK,
                    &JsonValue::object([(
                        "compositions",
                        JsonValue::array(names.into_iter().map(JsonValue::string)),
                    )]),
                )
            }
            Route::RegisterComposition => self.register_composition(request),
            Route::Stats => self.stats(),
            Route::Drain => self.drain(),
            Route::InvokeSync(name) => return self.invoke_sync(&name, request),
            Route::SubmitInvocation(name) => self.submit_invocation(&name, request),
            Route::PollInvocation(id) => self.poll_invocation(&id),
        })
    }

    fn register_composition(&self, request: &HttpRequest) -> HttpResponse {
        let source = request.body_str();
        match self.worker.register_composition_dsl(&source) {
            Ok(name) => json_response(
                StatusCode::CREATED,
                &JsonValue::object([("name", JsonValue::string(name))]),
            ),
            Err(err) => error_response(&err),
        }
    }

    /// `POST /v1/drain`: raise the node's drain signal. New invocations are
    /// refused with a retryable `503` while in-flight work completes; the
    /// cluster gateway sends this before taking a member out of rotation.
    fn drain(&self) -> HttpResponse {
        self.worker.begin_drain();
        json_response(
            StatusCode::ACCEPTED,
            &JsonValue::object([
                ("status", JsonValue::string("draining")),
                ("inflight", JsonValue::from(self.worker.inflight())),
            ]),
        )
    }

    fn stats(&self) -> HttpResponse {
        let stats = self.worker.stats();
        let mut pairs: Vec<(String, JsonValue)> = vec![
            ("inflight".into(), JsonValue::from(self.worker.inflight())),
            (
                "retained_results".into(),
                JsonValue::from(self.worker.retained_results()),
            ),
            (
                "draining".into(),
                JsonValue::from(self.worker.is_draining()),
            ),
            ("invocations".into(), JsonValue::from(stats.invocations)),
            ("failures".into(), JsonValue::from(stats.failures)),
            ("compute_tasks".into(), JsonValue::from(stats.compute_tasks)),
            (
                "communication_tasks".into(),
                JsonValue::from(stats.communication_tasks),
            ),
            ("compute_cores".into(), JsonValue::from(stats.compute_cores)),
            (
                "communication_cores".into(),
                JsonValue::from(stats.communication_cores),
            ),
            (
                "compute_queue_depth".into(),
                JsonValue::from(stats.compute_queue_depth),
            ),
            (
                "communication_queue_depth".into(),
                JsonValue::from(stats.communication_queue_depth),
            ),
            ("p50_ms".into(), JsonValue::from(stats.latency.p50_ms())),
            ("p99_ms".into(), JsonValue::from(stats.latency.p99_ms())),
            ("memory".into(), memory_stats(&self.worker)),
        ];
        // Registered sources (e.g. the network server's connection gauges)
        // ride along in the same document under their registered name.
        for (name, source) in self.stats_sources.read().iter() {
            pairs.push((name.clone(), source()));
        }
        // Only present when fault injection is configured: per-failpoint
        // hit counters so a chaos run can reconcile what actually fired.
        if let Some(failpoints) = dandelion_common::failpoint::stats_json() {
            pairs.push(("failpoints".into(), failpoints));
        }
        json_response(StatusCode::OK, &JsonValue::Object(pairs))
    }

    /// `POST /v1/invocations/{name}`: submit and return `202 Accepted` with
    /// the invocation id; the client polls `GET /v1/invocations/{id}`.
    fn submit_invocation(&self, name: &str, request: &HttpRequest) -> HttpResponse {
        let inputs = match self.decode_inputs(name, request) {
            Ok(inputs) => inputs,
            Err(response) => return response,
        };
        match self.worker.submit(name, inputs) {
            Ok(handle) => json_response(
                StatusCode::ACCEPTED,
                &JsonValue::object([
                    ("invocation_id", JsonValue::string(handle.id().to_string())),
                    ("status", JsonValue::string(handle.status().as_str())),
                    (
                        "href",
                        JsonValue::string(format!("/v1/invocations/{}", handle.id())),
                    ),
                ]),
            ),
            Err(err) => error_response(&err),
        }
    }

    /// `GET /v1/invocations/{id}`: non-consuming status/result polling.
    fn poll_invocation(&self, id_text: &str) -> HttpResponse {
        let Some(id) = InvocationId::parse(id_text) else {
            return error_response(&DandelionError::InvalidRequest(format!(
                "malformed invocation id `{id_text}`"
            )));
        };
        match self.worker.poll(id) {
            Some(snapshot) => json_response(StatusCode::OK, &snapshot_json(&snapshot)),
            None => error_response(&DandelionError::NotFound {
                kind: "invocation",
                name: id.to_string(),
            }),
        }
    }

    /// `POST /v1/invoke/{name}`: the synchronous compatibility path. The
    /// invocation is *submitted* here; how to wait is the caller's choice
    /// (see [`FrontendReply::Pending`]), so an event-loop server never parks
    /// a thread on it.
    fn invoke_sync(&self, name: &str, request: &HttpRequest) -> FrontendReply {
        let inputs = match self.decode_inputs(name, request) {
            Ok(inputs) => inputs,
            Err(response) => return FrontendReply::Ready(response),
        };
        match self.worker.submit(name, inputs) {
            Ok(handle) => FrontendReply::Pending(handle),
            Err(err) => FrontendReply::Ready(error_response(&err)),
        }
    }

    fn decode_inputs(
        &self,
        composition: &str,
        request: &HttpRequest,
    ) -> Result<Vec<DataSet>, HttpResponse> {
        let content_type = request.headers.get("content-type").unwrap_or("");
        if is_set_list(content_type) {
            // Zero-copy: input items are views of the request's receive
            // buffer, not copies of each payload.
            return output_parser::parse_outputs_shared(&request.body)
                .map_err(|err| error_response(&err));
        }
        // Raw body → single item of the composition's first external input;
        // the item shares the receive buffer.
        let graph = self
            .worker
            .registry()
            .composition(composition)
            .map_err(|err| error_response(&err))?;
        let Some(first_input) = graph.external_inputs.first() else {
            return Ok(Vec::new());
        };
        Ok(vec![DataSet::single(
            first_input.clone(),
            request.body.clone(),
        )])
    }
}

/// Whether a `Content-Type` value names [`SET_LIST_CONTENT_TYPE`]: the media
/// type is what precedes the parameters, whitespace around it is not part of
/// it, and it compares case-insensitively (RFC 9110 §8.3.1).
fn is_set_list(content_type: &str) -> bool {
    let media_type = content_type.split(';').next().unwrap_or("");
    media_type
        .trim()
        .eq_ignore_ascii_case(SET_LIST_CONTENT_TYPE)
}

/// Where the process's resident memory is held, beyond code and stacks: the
/// global [`BufferPool`]'s counters and what its shared slabs retain per size
/// class, and what the simulated remote services hold in the worker's heap.
/// Computed when `/v1/stats` is asked; nothing on the request path feeds it.
fn memory_stats(worker: &WorkerNode) -> JsonValue {
    let pool = BufferPool::global();
    let counters = pool.stats();
    let retained = pool.retained();
    JsonValue::object([
        (
            "pool",
            JsonValue::object([
                ("acquires", JsonValue::from(counters.acquires)),
                ("reuses", JsonValue::from(counters.reuses)),
                ("allocations", JsonValue::from(counters.allocations)),
                ("recycled", JsonValue::from(counters.recycled)),
                ("discarded", JsonValue::from(counters.discarded)),
                ("live", JsonValue::from(counters.live)),
                (
                    "retained_buffers",
                    JsonValue::from(retained.iter().map(|class| class.buffers).sum::<usize>()),
                ),
                (
                    "retained_bytes",
                    JsonValue::from(retained.iter().map(|class| class.bytes).sum::<usize>()),
                ),
                (
                    "classes",
                    JsonValue::array(retained.iter().map(|class| {
                        JsonValue::object([
                            ("class_bytes", JsonValue::from(class.class_bytes)),
                            ("retained_buffers", JsonValue::from(class.buffers)),
                            ("retained_bytes", JsonValue::from(class.bytes)),
                        ])
                    })),
                ),
            ]),
        ),
        (
            "services",
            JsonValue::object([(
                "resident_bytes",
                JsonValue::from(worker.services().resident_bytes()),
            )]),
        ),
    ])
}

fn json_response(status: StatusCode, value: &JsonValue) -> HttpResponse {
    // Exact-capacity serialization: the document size is computed first, so
    // even status documents carrying base64 payloads are written into one
    // right-sized buffer instead of growing a `String` incrementally.
    HttpResponse::new(status, value.to_json_string().into_bytes())
        .with_header("Content-Type", JSON_CONTENT_TYPE)
}

/// The structured error response of every layer — worker, connection
/// layer and gateway answer with this one wire shape:
/// `{"error": {"code": "..", "message": "..", "retryable": bool}}`.
pub fn error_body(status: StatusCode, code: &str, message: &str, retryable: bool) -> HttpResponse {
    json_response(
        status,
        &JsonValue::object([("error", error_json(code, message, retryable))]),
    )
}

fn error_response(err: &DandelionError) -> HttpResponse {
    error_body(
        StatusCode(err.status_code()),
        err.code(),
        &err.to_string(),
        err.is_retryable(),
    )
}

/// The wire-format error object shared by error responses and failed
/// invocations' status documents.
fn error_json(code: &str, message: &str, retryable: bool) -> JsonValue {
    JsonValue::object([
        ("code", JsonValue::string(code)),
        ("message", JsonValue::string(message)),
        ("retryable", JsonValue::from(retryable)),
    ])
}

/// Renders outputs as JSON sets with base64-encoded item payloads.
///
/// Item payloads are held as zero-copy [`JsonValue::Bytes`] views until the
/// document is serialized, at which point base64 streams straight from each
/// item's slice into the response body — no intermediate `String` or `Vec`
/// per item.
pub(crate) fn outputs_json(outputs: &[DataSet]) -> JsonValue {
    JsonValue::array(outputs.iter().map(|set| {
        JsonValue::object([
            ("set", JsonValue::string(set.name.clone())),
            (
                "items",
                JsonValue::array(set.items.iter().map(|item| {
                    let mut pairs = vec![
                        ("name".to_string(), JsonValue::string(item.name.clone())),
                        (
                            "data_base64".to_string(),
                            JsonValue::bytes(item.data.clone()),
                        ),
                    ];
                    if let Some(key) = &item.key {
                        pairs.push(("key".to_string(), JsonValue::string(key.clone())));
                    }
                    JsonValue::Object(pairs)
                })),
            ),
        ])
    }))
}

fn report_json(outcome: &InvocationOutcome) -> JsonValue {
    JsonValue::object([
        (
            "compute_tasks",
            JsonValue::from(outcome.report.compute_tasks),
        ),
        (
            "communication_tasks",
            JsonValue::from(outcome.report.communication_tasks),
        ),
        (
            "peak_context_bytes",
            JsonValue::from(outcome.report.peak_context_bytes),
        ),
        (
            "modeled_busy_us",
            JsonValue::from(outcome.report.modeled_busy_time.as_micros() as u64),
        ),
    ])
}

/// Renders an invocation snapshot as the v1 status document.
fn snapshot_json(snapshot: &InvocationSnapshot) -> JsonValue {
    let mut pairs = vec![
        (
            "invocation_id".to_string(),
            JsonValue::string(snapshot.id.to_string()),
        ),
        (
            "composition".to_string(),
            JsonValue::string(snapshot.composition.clone()),
        ),
        (
            "status".to_string(),
            JsonValue::string(snapshot.status.as_str()),
        ),
    ];
    match &snapshot.outcome {
        Some(Ok(outcome)) => {
            pairs.push(("outputs".to_string(), outputs_json(&outcome.outputs)));
            pairs.push(("report".to_string(), report_json(outcome)));
        }
        Some(Err(err)) => {
            pairs.push((
                "error".to_string(),
                error_json(err.code(), &err.to_string(), err.is_retryable()),
            ));
        }
        None => {}
    }
    JsonValue::Object(pairs)
}

/// Encodes a settled synchronous invocation as its HTTP response — the
/// shared tail of the blocking [`Frontend::handle`] path and the event-loop
/// completion callback.
pub fn sync_invoke_response(outcome: DandelionResult<InvocationOutcome>) -> HttpResponse {
    match outcome {
        Ok(outcome) => encode_outputs_response(&outcome.outputs),
        Err(err) => error_response(&err),
    }
}

/// Encodes a set list as the synchronous invoke response: a single item of a
/// single set is returned raw; anything else uses the binary set-list
/// descriptor.
fn encode_outputs_response(outputs: &[DataSet]) -> HttpResponse {
    if outputs.len() == 1 && outputs[0].len() == 1 {
        // Zero-copy: the response body is a view of the output item.
        return HttpResponse::ok(outputs[0].items[0].data.clone())
            .with_header("Content-Type", "application/octet-stream");
    }
    // One body for the set list: flattened once, into a pooled buffer.
    HttpResponse::ok(output_parser::encode_outputs_rope(outputs).into_shared())
        .with_header("Content-Type", SET_LIST_CONTENT_TYPE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{default_test_services, WorkerNode};
    use dandelion_common::config::{IsolationKind, WorkerConfig};
    use dandelion_common::encoding::base64_decode;
    use dandelion_common::DataItem;
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};
    use std::time::{Duration, Instant};

    fn frontend() -> Frontend {
        let config = WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        };
        let worker =
            WorkerNode::start_with_control(config, default_test_services(), false).unwrap();
        worker
            .register_function(FunctionArtifact::new(
                "Upper",
                &["Out"],
                |ctx: &mut FunctionCtx| {
                    let text = ctx
                        .single_input("Text")?
                        .as_str()
                        .unwrap_or("")
                        .to_uppercase();
                    ctx.push_output_bytes("Out", "upper", text.into_bytes())
                },
            ))
            .unwrap();
        Frontend::new(worker)
    }

    const UPPER_DSL: &str =
        "composition Shout(Input) => Output { Upper(Text = all Input) => (Output = Out); }";

    fn body_json(response: &HttpResponse) -> JsonValue {
        JsonValue::parse(&response.body_text()).expect("response body is JSON")
    }

    /// Polls invocation `id` until it has completed; the bytes of the first
    /// item of its first output set.
    fn first_output_once_completed(frontend: &Frontend, id: &str) -> Vec<u8> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let document = loop {
            let poll = frontend.handle(&HttpRequest::get(format!(
                "http://worker/v1/invocations/{id}"
            )));
            assert_eq!(poll.status, StatusCode::OK);
            let document = body_json(&poll);
            let status = document
                .get("status")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
            if status == "completed" {
                break document;
            }
            assert_ne!(status, "failed");
            assert!(Instant::now() < deadline, "invocation did not settle");
            std::thread::yield_now();
        };
        let data = document
            .get("outputs")
            .and_then(|o| o.as_array())
            .and_then(|sets| sets[0].get("items"))
            .and_then(|items| items.as_array())
            .and_then(|items| items[0].get("data_base64"))
            .and_then(JsonValue::as_str)
            .expect("completed document carries outputs");
        base64_decode(data).unwrap()
    }

    #[test]
    fn health_and_listing() {
        let frontend = frontend();
        let health = frontend.handle(&HttpRequest::get("http://worker/healthz"));
        assert_eq!(health.status, StatusCode::OK);
        assert_eq!(health.body_text(), "ok");
        let empty = frontend.handle(&HttpRequest::get("http://worker/v1/compositions"));
        assert_eq!(empty.status, StatusCode::OK);
        assert_eq!(
            body_json(&empty)
                .get("compositions")
                .and_then(|c| c.as_array())
                .map(<[JsonValue]>::len),
            Some(0)
        );
    }

    #[test]
    fn register_then_invoke_with_raw_body() {
        let frontend = frontend();
        let register = frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            UPPER_DSL.as_bytes().to_vec(),
        ));
        assert_eq!(register.status, StatusCode::CREATED);
        assert_eq!(
            body_json(&register).get("name").and_then(JsonValue::as_str),
            Some("Shout")
        );

        let listing = frontend.handle(&HttpRequest::get("http://worker/v1/compositions"));
        assert!(listing.body_text().contains("Shout"));

        let invoke = frontend.handle(&HttpRequest::post(
            "http://worker/v1/invoke/Shout",
            b"hello dandelion".to_vec(),
        ));
        assert_eq!(invoke.status, StatusCode::OK);
        assert_eq!(invoke.body_text(), "HELLO DANDELION");

        let stats = frontend.handle(&HttpRequest::get("http://worker/v1/stats"));
        assert_eq!(
            body_json(&stats)
                .get("invocations")
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn invoke_with_set_list_body() {
        let frontend = frontend();
        frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            UPPER_DSL.as_bytes().to_vec(),
        ));
        let sets = vec![DataSet::with_items(
            "Input",
            vec![DataItem::new("text", b"mixed Case".to_vec())],
        )];
        let body = output_parser::encode_outputs(&sets);
        let request = HttpRequest::post("http://worker/v1/invoke/Shout", body)
            .with_header("Content-Type", SET_LIST_CONTENT_TYPE);
        let response = frontend.handle(&request);
        assert_eq!(response.status, StatusCode::OK);
        assert_eq!(response.body_text(), "MIXED CASE");
    }

    /// `Application/X-Dandelion-Sets` and `application/x-dandelion-sets; v=1`
    /// are the set-list media type as much as the constant's spelling is, on
    /// `invoke` and on `invocations`; a type that merely mentions it is not,
    /// and its body goes to the composition as it is.
    #[test]
    fn a_set_list_request_is_recognised_by_its_media_type() {
        let frontend = frontend();
        frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            UPPER_DSL.as_bytes().to_vec(),
        ));
        let sets = vec![DataSet::with_items(
            "Input",
            vec![DataItem::new("text", b"mixed Case".to_vec())],
        )];
        let post = |endpoint: &str, body: Vec<u8>, content_type: &str| {
            let target = format!("http://worker/v1/{endpoint}/Shout");
            frontend
                .handle(&HttpRequest::post(target, body).with_header("Content-Type", content_type))
        };
        let submitted_output = |response: HttpResponse| {
            assert_eq!(response.status, StatusCode::ACCEPTED);
            let id = body_json(&response)
                .get("invocation_id")
                .and_then(JsonValue::as_str)
                .expect("202 body carries the invocation id")
                .to_string();
            first_output_once_completed(&frontend, &id)
        };
        for content_type in [
            "Application/X-Dandelion-Sets",
            "application/x-dandelion-sets; v=1",
            " APPLICATION/x-dandelion-sets ;charset=binary",
        ] {
            let body = || output_parser::encode_outputs(&sets);
            let response = post("invoke", body(), content_type);
            assert_eq!(response.status, StatusCode::OK, "{content_type:?}");
            assert_eq!(response.body_text(), "MIXED CASE", "{content_type:?}");
            let output = submitted_output(post("invocations", body(), content_type));
            assert_eq!(output, b"MIXED CASE", "{content_type:?}");
        }
        for content_type in [
            "text/plain; also=application/x-dandelion-sets",
            "application/x-dandelion-sets+json",
        ] {
            let response = post("invoke", b"raw body".to_vec(), content_type);
            assert_eq!(response.body_text(), "RAW BODY", "{content_type:?}");
            let output = submitted_output(post("invocations", b"raw body".to_vec(), content_type));
            assert_eq!(output, b"RAW BODY", "{content_type:?}");
        }
    }

    #[test]
    fn submit_then_poll_roundtrip() {
        let frontend = frontend();
        frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            UPPER_DSL.as_bytes().to_vec(),
        ));
        let submitted = frontend.handle(&HttpRequest::post(
            "http://worker/v1/invocations/Shout",
            b"async path".to_vec(),
        ));
        assert_eq!(submitted.status, StatusCode::ACCEPTED);
        let submitted_json = body_json(&submitted);
        let id = submitted_json
            .get("invocation_id")
            .and_then(JsonValue::as_str)
            .expect("202 body carries the invocation id")
            .to_string();
        assert!(id.starts_with("inv-"));
        assert_eq!(
            submitted_json.get("href").and_then(JsonValue::as_str),
            Some(format!("/v1/invocations/{id}").as_str())
        );

        let output = first_output_once_completed(&frontend, &id);
        assert_eq!(output, b"ASYNC PATH");
        // Polling is non-consuming.
        let again = frontend.handle(&HttpRequest::get(format!(
            "http://worker/v1/invocations/{id}"
        )));
        assert_eq!(again.status, StatusCode::OK);
    }

    #[test]
    fn polling_unknown_ids_is_a_typed_not_found() {
        let frontend = frontend();
        let response =
            frontend.handle(&HttpRequest::get("http://worker/v1/invocations/inv-999999"));
        assert_eq!(response.status, StatusCode::NOT_FOUND);
        let error = body_json(&response);
        assert_eq!(
            error
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("not_found")
        );
        // Malformed ids are a 400 with their own code.
        let bad = frontend.handle(&HttpRequest::get("http://worker/v1/invocations/not-an-id"));
        assert_eq!(bad.status, StatusCode::BAD_REQUEST);
        assert_eq!(
            body_json(&bad)
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("invalid_request")
        );
    }

    #[test]
    fn failed_invocations_surface_their_error_in_the_status_document() {
        let frontend = frontend();
        frontend
            .worker()
            .register_function(FunctionArtifact::new(
                "Boom",
                &["Out"],
                |_ctx: &mut FunctionCtx| Err("kaboom".into()),
            ))
            .unwrap();
        frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            b"composition Explode(In) => Out { Boom(X = all In) => (Out = Out); }".to_vec(),
        ));
        let submitted = frontend.handle(&HttpRequest::post(
            "http://worker/v1/invocations/Explode",
            b"x".to_vec(),
        ));
        assert_eq!(submitted.status, StatusCode::ACCEPTED);
        let id = body_json(&submitted)
            .get("invocation_id")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let poll = frontend.handle(&HttpRequest::get(format!(
                "http://worker/v1/invocations/{id}"
            )));
            let document = body_json(&poll);
            if document.get("status").and_then(JsonValue::as_str) == Some("failed") {
                assert_eq!(
                    document
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(JsonValue::as_str),
                    Some("function_fault")
                );
                break;
            }
            assert!(Instant::now() < deadline, "invocation did not fail in time");
            std::thread::yield_now();
        }
    }

    #[test]
    fn errors_map_to_http_statuses_with_stable_codes() {
        let frontend = frontend();
        // Invoking an unregistered composition is a 404.
        let missing = frontend.handle(&HttpRequest::post(
            "http://worker/v1/invoke/Nope",
            b"x".to_vec(),
        ));
        assert_eq!(missing.status, StatusCode::NOT_FOUND);
        assert_eq!(
            body_json(&missing)
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("not_found")
        );
        // Registering invalid DSL is a 400 parse error.
        let invalid = frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            b"composition Broken {".to_vec(),
        ));
        assert_eq!(invalid.status, StatusCode::BAD_REQUEST);
        assert_eq!(
            body_json(&invalid)
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("parse_error")
        );
        // Unknown endpoints are 404s.
        let unknown = frontend.handle(&HttpRequest::get("http://worker/v2/other"));
        assert_eq!(unknown.status, StatusCode::NOT_FOUND);
        // Query strings are rejected consistently.
        let query = frontend.handle(&HttpRequest::get("http://worker/v1/stats?verbose=1"));
        assert_eq!(query.status, StatusCode::BAD_REQUEST);
        // Malformed set-list bodies are rejected.
        frontend.handle(&HttpRequest::post(
            "http://worker/v1/compositions",
            UPPER_DSL.as_bytes().to_vec(),
        ));
        let bad_sets = HttpRequest::post("http://worker/v1/invoke/Shout", b"garbage".to_vec())
            .with_header("Content-Type", SET_LIST_CONTENT_TYPE);
        assert_eq!(frontend.handle(&bad_sets).status, StatusCode::BAD_REQUEST);
    }
}
