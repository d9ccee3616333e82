//! The traced run: the benchmark process walks each request through every
//! layer's public functions, outside-in, and records a span around each
//! call. No layer is instrumented; what a span times is exactly the call
//! named in README.md's layer table.
//!
//! One iteration walks one request of the workload's pool:
//!
//! * `request` — decode → `Frontend::begin` → settle → respond → encode, the
//!   server's path without its sockets (child spans, so `request`'s self
//!   time is the walk's own glue);
//! * `chain` — the composition replayed by hand: each compute function
//!   through the isolation backend and bare, each HTTP request it emits
//!   through validation and the service registry;
//! * probes of the layers a request only touches implicitly (set-list codec,
//!   memory context, buffer pool, rope write, client-side codec, gateway
//!   rewrite), on this workload's own payloads;
//! * one depth-1 round trip through an in-process `Server`, and one through
//!   an in-process gateway in front of it.
//!
//! Everything reported is a measured wall-clock duration;
//! `ExecutionReport::modeled` and the cost model never appear.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_apps::setup::demo_services;
use dandelion_common::config::IsolationKind;
use dandelion_common::{BufferPool, DataItem, DataSet, JsonValue, NodeId, SharedBytes};
use dandelion_core::{sync_invoke_response, Frontend, FrontendReply, WorkerNode};
use dandelion_http::validate::{validate_request_shared, ValidationPolicy};
use dandelion_http::{HttpRequest, HttpResponse, ParseLimits, RequestDecoder, ResponseDecoder};
use dandelion_isolation::{
    create_backend, output_parser, ExecutionTask, FunctionArtifact, FunctionCtx, HardwarePlatform,
    IsolationBackend, MemoryContext, Stage, SyscallPolicy,
};
use dandelion_server::gateway::{proxy_request, proxy_response};
use dandelion_server::{response_rope, GatewayConfig, Router, Server, ServerConfig};
use dandelion_services::ServiceRegistry;

use crate::client::{read_response, Framed};
use crate::contract::Metric;
use crate::spans::{self_times_ns, Recorder, SpanId};
use crate::stats::{median, percentile};
use crate::sys::{self, Speedometer};
use crate::workload::{Exchange, Traffic, Workload, WORKER_CORES};

/// Iterations run before recording starts (caches, pools, lazy set-up).
const WARMUP_ITERATIONS: usize = 50;
/// The walk pauses for [`SPEED_GAP`] after every `SPEED_CHUNK` of walking
/// so the speedometer gets the CPU (see `loadrun`, "Reference time").
const SPEED_CHUNK: Duration = Duration::from_millis(100);
const SPEED_GAP: Duration = Duration::from_millis(10);
/// `register_composition_dsl` calls timed for `dsl.register_us`.
const REGISTRATIONS: usize = 32;

const RENDER_LOGS_DSL: &str = "composition NAME(AccessToken) => HTMLOutput {
    Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
    HTTP(Request = each AuthRequest) => (AuthResponse = Response);
    FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
    HTTP(Request = each LogRequests) => (LogResponses = Response);
    Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
}";

pub struct WalkOutput {
    pub metrics: Vec<Metric>,
    pub iterations: usize,
}

/// A blocking keep-alive connection used at depth 1.
struct WalkConn {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl WalkConn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream =
            TcpStream::connect(addr).map_err(|error| format!("connect {addr}: {error}"))?;
        stream
            .set_nodelay(true)
            .map_err(|error| error.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|error| error.to_string())?;
        Ok(Self {
            stream,
            buffer: Vec::with_capacity(1 << 20),
        })
    }

    /// Sends `wire`, reads one response into `self.buffer` and returns its
    /// framing.
    fn round_trip(&mut self, wire: &[u8]) -> Result<Framed, String> {
        self.stream
            .write_all(wire)
            .and_then(|()| read_response(&mut self.stream, &mut self.buffer))
            .map_err(|error| format!("round trip: {error}"))
    }

    fn body(&self, framed: &Framed) -> &[u8] {
        &self.buffer[framed.head_len..framed.total_len()]
    }
}

/// Everything one walk needs, built once.
struct Walk<'a> {
    workload: &'a Workload,
    pool: &'a [Exchange],
    worker: Arc<WorkerNode>,
    frontend: Arc<Frontend>,
    backend: Arc<dyn IsolationBackend>,
    services: ServiceRegistry,
    policy: ValidationPolicy,
    /// The composition's compute functions, in execution order.
    functions: Vec<Arc<FunctionArtifact>>,
    /// The six requests `RenderLogs` emits, for the communication probe.
    comm_requests: Vec<SharedBytes>,
    /// Reused byte sink for the encode and rope-write spans.
    sink: Vec<u8>,
    server_conn: WalkConn,
    gateway_conn: WalkConn,
    healthz_wire: Vec<u8>,
    /// Per-iteration values that are not plain span durations.
    series: HashMap<&'static str, Vec<f64>>,
}

fn artifact(worker: &WorkerNode, name: &str) -> Result<Arc<FunctionArtifact>, String> {
    worker
        .registry()
        .function(name)
        .map_err(|error| error.to_string())
}

impl Walk<'_> {
    fn note(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    /// One function through the isolation backend, then bare.
    fn execute(
        &self,
        recorder: &mut Recorder,
        iteration: u32,
        parent: SpanId,
        artifact: &Arc<FunctionArtifact>,
        inputs: Vec<DataSet>,
        totals: &mut ChainTotals,
    ) -> Result<Vec<DataSet>, String> {
        let task = ExecutionTask::new(Arc::clone(artifact), inputs.clone());
        let span = recorder.open("isolation.execute", iteration, Some(parent));
        let report = self.backend.execute(&task);
        totals.busy_ns += recorder.close(span);
        let report = report.map_err(|error| format!("{}: {error}", artifact.name))?;
        for (slot, stage) in totals.stages.iter_mut().zip(Stage::ALL) {
            *slot += report.measured.get(stage).as_nanos() as u64;
        }

        let mut ctx = FunctionCtx::new(
            inputs,
            artifact.output_sets.clone(),
            artifact.memory_requirement,
            SyscallPolicy::permissive(),
        )
        .map_err(|error| error.to_string())?;
        let span = recorder.open("apps.fn", iteration, Some(parent));
        let ran = artifact.logic.run(&mut ctx);
        recorder.close(span);
        ran.map_err(|error| format!("{}: {error}", artifact.name))?;
        Ok(report.outputs)
    }

    /// What a communication engine does with each request item: validate
    /// the untrusted bytes, then perform the call. Returns the responses as
    /// the engine would name them.
    fn comm_calls(
        &self,
        recorder: &mut Recorder,
        iteration: u32,
        parent: SpanId,
        requests: &[DataItem],
        response_set: &str,
        totals: &mut ChainTotals,
    ) -> Result<DataSet, String> {
        let mut responses = DataSet::new(response_set);
        for item in requests {
            let span = recorder.open("http.validate", iteration, Some(parent));
            let validated = validate_request_shared(&item.data, &self.policy);
            recorder.close(span);
            let validated = validated.map_err(|error| error.to_string())?;
            let span = recorder.open("services.call", iteration, Some(parent));
            let reply = self.services.dispatch(&validated.uri, &validated.request);
            totals.busy_ns += recorder.close(span);
            totals.comm_calls += 1;
            let mut response = DataItem::new(
                format!("response-{}", item.name),
                reply.response.to_shared(),
            );
            response.key = item.key.clone();
            responses.push(response);
        }
        Ok(responses)
    }

    /// The composition replayed by hand; returns its final output bytes.
    fn chain(
        &self,
        recorder: &mut Recorder,
        iteration: u32,
        exchange: &Exchange,
        totals: &mut ChainTotals,
    ) -> Result<SharedBytes, String> {
        let root = recorder.open("chain", iteration, None);
        let first = |sets: Vec<DataSet>| -> Result<DataSet, String> {
            sets.into_iter()
                .next()
                .ok_or_else(|| "function produced no output set".to_string())
        };
        let output = match self.workload.traffic {
            Traffic::Matmul { .. } => {
                let inputs = output_parser::parse_outputs_shared(&exchange.request.body)
                    .map_err(|error| error.to_string())?;
                first(self.execute(
                    recorder,
                    iteration,
                    root,
                    &self.functions[0],
                    inputs,
                    totals,
                )?)?
            }
            Traffic::Logs => {
                let token = DataSet::single("AccessToken", exchange.request.body.clone());
                let [access, fan_out, render] = &self.functions[..] else {
                    return Err("RenderLogs has three compute functions".to_string());
                };
                let auth_request =
                    first(self.execute(recorder, iteration, root, access, vec![token], totals)?)?;
                let auth_response = self.comm_calls(
                    recorder,
                    iteration,
                    root,
                    &auth_request.items,
                    "HTTPResponse",
                    totals,
                )?;
                let log_requests = first(self.execute(
                    recorder,
                    iteration,
                    root,
                    fan_out,
                    vec![auth_response],
                    totals,
                )?)?;
                let log_responses = self.comm_calls(
                    recorder,
                    iteration,
                    root,
                    &log_requests.items,
                    "HTTPResponses",
                    totals,
                )?;
                first(self.execute(
                    recorder,
                    iteration,
                    root,
                    render,
                    vec![log_responses],
                    totals,
                )?)?
            }
        };
        recorder.close(root);
        output
            .items
            .first()
            .map(|item| item.data.clone())
            .ok_or_else(|| "composition produced no output item".to_string())
    }

    /// One full iteration. Every response obtained on the way is verified.
    fn iteration(&mut self, recorder: &mut Recorder, iteration: u32) -> Result<(), String> {
        let pool = self.pool;
        let exchange = &pool[iteration as usize % pool.len()];
        let wrong = |what: &str| format!("{what} returned a wrong answer on iteration {iteration}");

        // --- request: the server's path without its sockets ---------------
        let root = recorder.open("request", iteration, None);
        let span = recorder.open("http.decode_req", iteration, Some(root));
        let mut decoder = RequestDecoder::new(ParseLimits::default());
        decoder.feed(&exchange.wire);
        let request = decoder.next_request();
        let decode_ns = recorder.close(span);
        let request = request
            .map_err(|error| error.to_string())?
            .ok_or("request decoder wants more bytes")?;

        let begin_span = recorder.open("frontend.begin", iteration, Some(root));
        let reply = self.frontend.begin(&request);
        let begin_ns = recorder.close(begin_span);
        let FrontendReply::Pending(handle) = reply else {
            return Err("sync invoke did not start an invocation".to_string());
        };
        let span = recorder.open("dispatcher.settle_wait", iteration, Some(root));
        let outcome = handle.wait(None);
        let settle_ns = recorder.close(span);
        let respond_span = recorder.open("frontend.respond", iteration, Some(root));
        let response = sync_invoke_response(outcome);
        let respond_ns = recorder.close(respond_span);
        let traced_handle_ns =
            recorder.spans()[respond_span].end_ns - recorder.spans()[begin_span].start_ns;
        let answered_right = response.status.is_success() && response.body == exchange.expected;

        let span = recorder.open("http.encode_resp", iteration, Some(root));
        self.sink.clear();
        let mut writer = dandelion_common::RopeWriter::new(response_rope(response, false));
        let written = writer.write_some(&mut self.sink);
        let encode_ns = recorder.close(span);
        recorder.close(root);
        if !answered_right || !matches!(written, Ok(true)) {
            return Err(wrong("Frontend::begin"));
        }
        let in_process_ns = decode_ns + begin_ns + settle_ns + respond_ns + encode_ns;

        // The same three frontend steps with no span between them.
        let started = Instant::now();
        let untraced = self.frontend.handle(&exchange.request);
        let untraced_ns = started.elapsed().as_nanos() as f64;
        if untraced.body != exchange.expected {
            return Err(wrong("Frontend::handle"));
        }
        self.note("traced_handle_ns", traced_handle_ns as f64);
        self.note("untraced_handle_ns", untraced_ns);

        // --- chain: the composition by hand --------------------------------
        let mut totals = ChainTotals::default();
        let output = self.chain(recorder, iteration, exchange, &mut totals)?;
        if output != exchange.expected {
            return Err(wrong("the hand-replayed composition"));
        }
        // Submit to settle, minus what the engines were busy with. `begin` is
        // in the sum because on one CPU the dispatcher it wakes preempts it:
        // how the interval splits between the two spans is the scheduler's
        // choice, only their sum is the pipeline's.
        let submit_to_settle_ns = (begin_ns + settle_ns) as f64;
        self.note(
            "dispatcher.overhead_us",
            (submit_to_settle_ns - totals.busy_ns as f64) / 1e3,
        );
        for (index, name) in STAGE_METRICS.iter().enumerate() {
            self.note(name, totals.stages[index] as f64 / 1e3);
        }

        // --- probes ----------------------------------------------------------
        if totals.comm_calls == 0 {
            // A composition without communication functions still gets the
            // two communication layers probed, on `RenderLogs`' requests.
            let requests: Vec<DataItem> = self
                .comm_requests
                .iter()
                .map(|bytes| DataItem::new("probe", bytes.clone()))
                .collect();
            let probe = recorder.open("probe.comm", iteration, None);
            self.comm_calls(
                recorder,
                iteration,
                probe,
                &requests,
                "Responses",
                &mut ChainTotals::default(),
            )?;
            recorder.close(probe);
        }

        let set_list: SharedBytes = match self.workload.traffic {
            Traffic::Matmul { .. } => exchange.request.body.clone(),
            Traffic::Logs => output_parser::encode_outputs(&[DataSet::single(
                "AccessToken",
                exchange.request.body.clone(),
            )])
            .into(),
        };
        let span = recorder.open("isolation.parse_sets", iteration, None);
        let parsed = output_parser::parse_outputs_shared(&set_list);
        recorder.close(span);
        let parsed = parsed.map_err(|error| error.to_string())?;
        let span = recorder.open("isolation.encode_sets", iteration, None);
        let encoded = output_parser::encode_outputs_rope(&parsed);
        recorder.close(span);
        if encoded.len() != set_list.len() {
            return Err(wrong("the set-list codec"));
        }

        let head = &self.functions[0];
        let capacity = head.memory_requirement + head.binary.len() + 4096;
        let span = recorder.open("isolation.context_cycle", iteration, None);
        let mut context = MemoryContext::new(capacity);
        let imported = parsed
            .iter()
            .flat_map(|set| &set.items)
            .try_for_each(|item| context.import(&item.data).map(drop));
        drop(context);
        recorder.close(span);
        imported.map_err(|error| error.to_string())?;

        let span = recorder.open("common.pool_cycle", iteration, None);
        let request_buffer = BufferPool::global().acquire(exchange.wire.len());
        let response_buffer = BufferPool::global().acquire(exchange.expected.len());
        drop((request_buffer, response_buffer));
        // Two acquire/release pairs per span.
        let pool_ns = recorder.close(span) as f64 / 2.0;
        self.note("common.pool_cycle_ns", pool_ns);

        let expected = SharedBytes::from_vec(exchange.expected.clone());
        let response = HttpResponse::ok(expected);
        let rope = response_rope(response.clone(), false);
        let response_wire = rope.to_vec();
        self.sink.clear();
        let span = recorder.open("common.rope_write", iteration, None);
        let wrote = rope.write_to(&mut self.sink);
        recorder.close(span);
        wrote.map_err(|error| error.to_string())?;

        let span = recorder.open("http.encode_req", iteration, None);
        let request_rope = exchange.request.to_rope();
        recorder.close(span);
        let span = recorder.open("http.decode_resp", iteration, None);
        let mut decoder = ResponseDecoder::new(ParseLimits::default());
        decoder.feed(&response_wire);
        let decoded = decoder.next_response();
        recorder.close(span);
        if request_rope.len() != exchange.wire.len() || !matches!(decoded, Ok(Some(_))) {
            return Err(wrong("the client-side codec"));
        }

        let span = recorder.open("gateway.rewrite", iteration, None);
        let upstream = proxy_request(&exchange.request);
        let downstream = proxy_response(response, NodeId::from_raw(1));
        recorder.close(span);
        if upstream.body != exchange.request.body
            || downstream.headers.get("x-dandelion-node").is_none()
        {
            return Err(wrong("the gateway rewrite"));
        }

        // --- the asynchronous API beside the synchronous one ----------------
        let submit = HttpRequest {
            target: format!("/v1/invocations/{}", self.workload.composition()),
            ..exchange.request.clone()
        };
        let span = recorder.open("frontend.submit_poll", iteration, None);
        let accepted = self.frontend.handle(&submit);
        let href = JsonValue::parse(&accepted.body_text())
            .ok()
            .and_then(|document| {
                document
                    .get("href")
                    .and_then(JsonValue::as_str)
                    .map(String::from)
            })
            .ok_or_else(|| {
                format!(
                    "submit answered {}: {}",
                    accepted.status,
                    accepted.body_text()
                )
            })?;
        let poll = HttpRequest::get(href);
        let completed = loop {
            let status = self.frontend.handle(&poll);
            let body = status.body.as_slice();
            let has = |needle: &[u8]| body.windows(needle.len()).any(|window| window == needle);
            if has(b"\"status\":\"completed\"") {
                break true;
            }
            if has(b"\"status\":\"failed\"") || !status.status.is_success() {
                break false;
            }
            std::thread::yield_now();
        };
        recorder.close(span);
        if !completed {
            return Err(wrong("submit + poll"));
        }

        // --- over loopback: in-process server, then gateway in front --------
        let span = recorder.open("server.healthz_rtt", iteration, None);
        let health = self.server_conn.round_trip(&self.healthz_wire)?;
        recorder.close(span);
        let span = recorder.open("server.invoke_rtt", iteration, None);
        let direct = self.server_conn.round_trip(&exchange.wire)?;
        let direct_ns = recorder.close(span);
        if health.status != 200
            || direct.status != 200
            || self.server_conn.body(&direct) != exchange.expected
        {
            return Err(wrong("the in-process server"));
        }
        let span = recorder.open("gateway.invoke_rtt", iteration, None);
        let proxied = self.gateway_conn.round_trip(&exchange.wire)?;
        let proxied_ns = recorder.close(span);
        if proxied.status != 200
            || proxied.node.is_none()
            || self.gateway_conn.body(&proxied) != exchange.expected
        {
            return Err(wrong("the in-process gateway"));
        }
        self.note(
            "server.transport_us",
            (direct_ns as f64 - in_process_ns as f64) / 1e3,
        );
        self.note(
            "gateway.hop_us",
            (proxied_ns as f64 - direct_ns as f64) / 1e3,
        );
        Ok(())
    }
}

/// Sums over the functions and calls of one hand-replayed composition.
#[derive(Default)]
struct ChainTotals {
    /// Time inside `backend.execute` and `ServiceRegistry::dispatch`: what
    /// the engines were busy with, as opposed to the dispatcher.
    busy_ns: u64,
    stages: [u64; 5],
    comm_calls: usize,
}

/// The first five of `Stage::ALL`; `Other` (context teardown) is left to
/// `isolation.execute_us` minus these.
const STAGE_METRICS: [&str; 5] = [
    "isolation.stage.marshal_us",
    "isolation.stage.load_us",
    "isolation.stage.transfer_input_us",
    "isolation.stage.execute_us",
    "isolation.stage.output_us",
];

/// Span names reported as `<name>_us`: the median over iterations of the
/// time one request spent in spans of that name.
const PER_REQUEST_SPANS: [&str; 17] = [
    "http.decode_req",
    "http.encode_resp",
    "http.encode_req",
    "http.decode_resp",
    "frontend.begin",
    "frontend.respond",
    "frontend.submit_poll",
    "dispatcher.settle_wait",
    "isolation.execute",
    "isolation.parse_sets",
    "isolation.encode_sets",
    "isolation.context_cycle",
    "apps.fn",
    "common.rope_write",
    "server.healthz_rtt",
    "server.invoke_rtt",
    "gateway.invoke_rtt",
];

/// Span names reported per *call*: how many a request makes is
/// `dispatcher.comm_tasks_per_req`, and zero on compositions without
/// communication functions, where these come from the probe.
const PER_CALL_SPANS: [&str; 3] = ["http.validate", "services.call", "gateway.rewrite"];

/// Runs the layer walk for at most `budget` and writes the spans to
/// `<out_dir>/trace-<workload>.json`.
pub fn run(
    speedometer: &Speedometer,
    workload: &Workload,
    pool: &[Exchange],
    budget: Duration,
    out_dir: &Path,
) -> Result<WalkOutput, String> {
    let deadline = Instant::now() + budget;
    // Everything the walk starts — worker engines, server loops, router
    // threads — inherits this: one CPU, like the server processes of the load
    // run, so thread placement is not a variable here either.
    let _confined = sys::Confined::to_server_cpu();
    let io_error = |error: std::io::Error| error.to_string();
    let worker = dandelion_apps::setup::demo_worker(WORKER_CORES, false)
        .map_err(|error| error.to_string())?;
    let frontend = Arc::new(Frontend::new(Arc::clone(&worker)));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        event_loops: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(config.clone(), Arc::clone(&frontend)).map_err(io_error)?;
    let router = Router::start(GatewayConfig::default());
    let gateway = Server::start_gateway(config, Arc::clone(&router)).map_err(io_error)?;
    router.join(server.local_addr())?;

    let functions = match workload.traffic {
        Traffic::Matmul { .. } => vec![artifact(&worker, "MatMul")?],
        Traffic::Logs => vec![
            artifact(&worker, "Access")?,
            artifact(&worker, "FanOut")?,
            artifact(&worker, "Render")?,
        ],
    };
    let mut walk = Walk {
        workload,
        pool,
        backend: create_backend(IsolationKind::Native, HardwarePlatform::X86Linux),
        services: demo_services(false),
        policy: ValidationPolicy::default(),
        functions,
        comm_requests: Vec::new(),
        sink: Vec::with_capacity(1 << 20),
        server_conn: WalkConn::connect(server.local_addr())?,
        gateway_conn: WalkConn::connect(gateway.local_addr())?,
        healthz_wire: HttpRequest::get("/healthz")
            .with_header("Host", "bench")
            .to_bytes(),
        series: HashMap::new(),
        frontend,
        worker,
    };
    walk.comm_requests = render_logs_requests(&walk)?;

    // dsl.register_us: compile + register the paper's Listing 2 under fresh
    // names (a name registers once).
    let mut registrations = Vec::with_capacity(REGISTRATIONS);
    let registering = speedometer.mark();
    for index in 0..REGISTRATIONS {
        let source = RENDER_LOGS_DSL.replace("NAME", &format!("RenderLogsWalk{index}"));
        let started = Instant::now();
        let registered = walk.worker.register_composition_dsl(&source);
        registrations.push(started.elapsed().as_nanos() as f64 / 1e3);
        registered.map_err(|error| error.to_string())?;
    }
    std::thread::sleep(SPEED_GAP);
    let registering = speedometer.dilation(registering, speedometer.mark());
    registrations
        .iter_mut()
        .for_each(|micros| *micros *= registering);

    let mut scratch = Recorder::new();
    for iteration in 0..WARMUP_ITERATIONS.min(workload.walk_iterations) {
        walk.iteration(&mut scratch, iteration as u32)?;
    }
    drop(scratch);
    walk.series.clear();

    let before = walk.worker.stats();
    let mut recorder = Recorder::new();
    let mut iterations = 0usize;
    // `dilation[i]` turns a duration of iteration `i` into reference time.
    // The walk keeps its CPU busy, so it pauses for the speedometer between
    // chunks; a chunk's speed is read over the chunk and the pauses around it.
    let mut dilation: Vec<f64> = Vec::new();
    let mut chunk_start = speedometer.mark();
    std::thread::sleep(SPEED_GAP);
    let mut chunk_began = Instant::now();
    while iterations < workload.walk_iterations && (iterations < 20 || Instant::now() < deadline) {
        if sys::interrupted() {
            return Err("interrupted".to_string());
        }
        walk.iteration(&mut recorder, iterations as u32)?;
        iterations += 1;
        if chunk_began.elapsed() >= SPEED_CHUNK || iterations == workload.walk_iterations {
            let chunk_end = speedometer.mark();
            std::thread::sleep(SPEED_GAP);
            dilation.resize(
                iterations,
                speedometer.dilation(chunk_start, speedometer.mark()),
            );
            chunk_start = chunk_end;
            chunk_began = Instant::now();
        }
    }
    dilation.resize(
        iterations,
        speedometer.dilation(chunk_start, speedometer.mark()),
    );
    let after = walk.worker.stats();

    // --- spans → metrics ------------------------------------------------------
    let spans = recorder.spans();
    let mut per_request: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut per_call: HashMap<&str, Vec<f64>> = HashMap::new();
    for span in spans {
        let micros = span.duration_ns() as f64 / 1e3 * dilation[span.request as usize];
        if PER_CALL_SPANS.contains(&span.name) {
            per_call.entry(span.name).or_default().push(micros);
        } else {
            let sums = per_request
                .entry(span.name)
                .or_insert_with(|| vec![0.0; iterations]);
            sums[span.request as usize] += micros;
        }
    }
    let middle =
        |values: &[f64], what: &str| median(values).ok_or_else(|| format!("no samples for {what}"));
    let mut metrics = Vec::new();
    for name in PER_REQUEST_SPANS {
        let values = per_request
            .get(name)
            .ok_or_else(|| format!("no `{name}` span recorded"))?;
        metrics.push(Metric::new(
            format!("{name}_us"),
            middle(values, name)?,
            "us",
        ));
    }
    for name in PER_CALL_SPANS {
        let values = per_call
            .get(name)
            .ok_or_else(|| format!("no `{name}` span recorded"))?;
        metrics.push(Metric::new(
            format!("{name}_us"),
            middle(values, name)?,
            "us",
        ));
    }
    for (name, values) in &walk.series {
        let unit = match *name {
            "traced_handle_ns" | "untraced_handle_ns" => continue,
            "common.pool_cycle_ns" => "ns",
            _ => "us",
        };
        let scaled: Vec<f64> = values
            .iter()
            .zip(&dilation)
            .map(|(value, factor)| value * factor)
            .collect();
        metrics.push(Metric::new(*name, middle(&scaled, name)?, unit));
    }
    metrics.push(Metric::new(
        "dsl.register_us",
        middle(&registrations, "dsl.register")?,
        "us",
    ));

    let requests = &per_request["request"];
    metrics.push(Metric::new(
        "layerwalk.request_us",
        middle(requests, "request")?,
        "us",
    ));
    metrics.push(Metric::new(
        "layerwalk.request_p99_us",
        percentile(requests, 99.0).ok_or("no request spans")?,
        "us",
    ));
    let own = self_times_ns(spans);
    let glue: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.name == "request")
        .map(|(span, own_ns)| *own_ns as f64 / 1e3 * dilation[span.request as usize])
        .collect();
    metrics.push(Metric::new(
        "layerwalk.request_self_us",
        middle(&glue, "request self time")?,
        "us",
    ));
    let total = |name: &str| walk.series[name].iter().sum::<f64>();
    metrics.push(Metric::new(
        "layerwalk.overhead_ratio",
        total("traced_handle_ns") / total("untraced_handle_ns"),
        "ratio",
    ));

    // Exact counts: every invocation on this worker ran this composition.
    let invocations = (after.invocations - before.invocations) as f64;
    metrics.push(Metric::new(
        "dispatcher.compute_tasks_per_req",
        (after.compute_tasks - before.compute_tasks) as f64 / invocations,
        "count",
    ));
    metrics.push(Metric::new(
        "dispatcher.comm_tasks_per_req",
        (after.communication_tasks - before.communication_tasks) as f64 / invocations,
        "count",
    ));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let trace_path = out_dir.join(format!("trace-{}.json", workload.name));
    let mut out = BufWriter::new(File::create(&trace_path).map_err(io_error)?);
    recorder
        .write_json(workload.name, &dilation, &mut out)
        .map_err(io_error)?;
    out.flush().map_err(io_error)?;

    drop(walk.server_conn);
    drop(walk.gateway_conn);
    gateway.shutdown();
    router.shutdown();
    server.shutdown();
    walk.worker.shutdown();
    Ok(WalkOutput {
        metrics,
        iterations,
    })
}

/// The auth request and the five log requests `RenderLogs` emits for the
/// demo token, obtained by running `Access` and `FanOut` once.
fn render_logs_requests(walk: &Walk<'_>) -> Result<Vec<SharedBytes>, String> {
    let access = artifact(&walk.worker, "Access")?;
    let fan_out = artifact(&walk.worker, "FanOut")?;
    let mut recorder = Recorder::new();
    let mut totals = ChainTotals::default();
    let root = recorder.open("setup", 0, None);
    let token = DataSet::single(
        "AccessToken",
        dandelion_apps::setup::DEMO_TOKEN.as_bytes().to_vec(),
    );
    let auth_request = walk.execute(&mut recorder, 0, root, &access, vec![token], &mut totals)?;
    let auth_response = walk.comm_calls(
        &mut recorder,
        0,
        root,
        &auth_request[0].items,
        "HTTPResponse",
        &mut totals,
    )?;
    let log_requests = walk.execute(
        &mut recorder,
        0,
        root,
        &fan_out,
        vec![auth_response],
        &mut totals,
    )?;
    Ok(auth_request[0]
        .items
        .iter()
        .chain(&log_requests[0].items)
        .map(|item| item.data.clone())
        .collect())
}
