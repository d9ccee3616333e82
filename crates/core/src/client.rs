//! `DandelionClient`: one typed client for every deployment shape.
//!
//! The platform's one public surface is the v1 HTTP API, so the client is one
//! code path — encode the v1 request, hand it to a transport, decode the
//! status document — and a deployment shape is only a choice of transport:
//! [`Frontend::handle`] in process ([`DandelionClient::for_frontend`],
//! [`DandelionClient::for_worker`]) or one keep-alive socket to a worker or a
//! gateway (`dandelion_server::connect`).
//!
//! * [`DandelionClient::submit`] — non-blocking; returns a [`ClientHandle`]
//!   so any number of invocations can be kept in flight,
//! * [`DandelionClient::poll`] — non-consuming status/result lookup by id,
//! * [`DandelionClient::invoke_sync`] — submit-and-wait convenience.
//!
//! Either way the client speaks the real v1 JSON wire protocol — inputs
//! travel as binary set-lists, results come back from the status document
//! (base64 items, report, structured errors) — so tests and benchmarks
//! driving `DandelionClient` exercise the same bytes an external client
//! would see.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dandelion_common::encoding::base64_decode;
use dandelion_common::{
    DandelionError, DandelionResult, DataItem, DataSet, InvocationId, JsonValue,
};
use dandelion_http::{HttpRequest, HttpResponse, StatusCode};
use dandelion_isolation::output_parser;

use crate::dispatcher::{InvocationOutcome, InvocationReport, InvocationStatus};
use crate::frontend::{Frontend, SET_LIST_CONTENT_TYPE};

/// Initial sleep between polls while waiting. Doubles per idle poll up to
/// [`POLL_BACKOFF_MAX`], so short invocations settle with microsecond
/// reactivity while long waits cost a handful of polls per second.
const POLL_BACKOFF_INITIAL: Duration = Duration::from_micros(500);

/// Upper bound on the poll backoff.
const POLL_BACKOFF_MAX: Duration = Duration::from_millis(20);

/// How a [`DandelionClient`] reaches the v1 API: one request in, its
/// response out. An `Err` is the transport's failure (a dead socket), not
/// the server's answer.
type Transport = dyn Fn(&HttpRequest) -> io::Result<HttpResponse> + Send + Sync;

/// A non-consuming view of an invocation.
#[derive(Debug, Clone)]
pub struct ClientPoll {
    /// The invocation id.
    pub id: InvocationId,
    /// Lifecycle status at the time of the poll.
    pub status: InvocationStatus,
    /// The result, present once the status is terminal.
    pub outcome: Option<DandelionResult<InvocationOutcome>>,
}

/// A handle to an invocation submitted through a [`DandelionClient`].
pub struct ClientHandle {
    id: InvocationId,
    client: DandelionClient,
}

impl ClientHandle {
    /// The invocation's id.
    pub fn id(&self) -> InvocationId {
        self.id
    }

    /// Non-consuming status/result lookup.
    pub fn poll(&self) -> DandelionResult<ClientPoll> {
        self.client.poll(self.id)
    }

    /// Polls (with backoff) until the invocation settles and returns its
    /// outcome.
    ///
    /// Non-consuming: the result stays retained server-side (until
    /// retention expiry), so polling after a wait still finds it.
    pub fn wait(&self, timeout: Option<Duration>) -> DandelionResult<InvocationOutcome> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut backoff = POLL_BACKOFF_INITIAL;
        loop {
            let poll = self.poll()?;
            if let Some(outcome) = poll.outcome {
                return outcome;
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(DandelionError::Timeout {
                        function: self.id.to_string(),
                        limit_ms: timeout.unwrap_or_default().as_millis() as u64,
                    });
                }
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(POLL_BACKOFF_MAX);
        }
    }
}

impl std::fmt::Debug for ClientHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientHandle")
            .field("id", &self.id)
            .finish()
    }
}

/// A typed client of the v1 API over a transport.
#[derive(Clone)]
pub struct DandelionClient {
    transport: Arc<Transport>,
}

impl DandelionClient {
    /// A client whose requests travel through `transport`.
    pub fn with_transport(
        transport: impl Fn(&HttpRequest) -> io::Result<HttpResponse> + Send + Sync + 'static,
    ) -> Self {
        Self {
            transport: Arc::new(transport),
        }
    }

    /// A client speaking the v1 JSON protocol against an HTTP frontend.
    pub fn for_frontend(frontend: Arc<Frontend>) -> Self {
        Self::with_transport(move |request| Ok(frontend.handle(request)))
    }

    /// A client over a single worker node (wraps it in a frontend, so the
    /// full HTTP path is exercised).
    pub fn for_worker(worker: Arc<crate::worker::WorkerNode>) -> Self {
        Self::for_frontend(Arc::new(Frontend::new(worker)))
    }

    /// Sends one request; any status but `expected` becomes the typed error
    /// its body carries.
    fn call(&self, request: &HttpRequest, expected: StatusCode) -> DandelionResult<JsonValue> {
        let response = (self.transport)(request)
            .map_err(|error| DandelionError::Internal(format!("transport failed: {error}")))?;
        if response.status != expected {
            return Err(response_error(&response));
        }
        response_json(&response)
    }

    /// Submits an invocation without blocking and returns its handle.
    pub fn submit(&self, composition: &str, inputs: Vec<DataSet>) -> DandelionResult<ClientHandle> {
        let request = HttpRequest::post(
            format!("/v1/invocations/{composition}"),
            output_parser::encode_outputs(&inputs),
        )
        .with_header("Content-Type", SET_LIST_CONTENT_TYPE);
        let document = self.call(&request, StatusCode::ACCEPTED)?;
        let id = document
            .get("invocation_id")
            .and_then(JsonValue::as_str)
            .and_then(InvocationId::parse)
            .ok_or_else(|| {
                DandelionError::Internal("202 response carried no invocation id".to_string())
            })?;
        Ok(ClientHandle {
            id,
            client: self.clone(),
        })
    }

    /// Non-consuming status/result lookup by invocation id.
    ///
    /// Unknown and expired ids yield [`DandelionError::NotFound`].
    pub fn poll(&self, id: InvocationId) -> DandelionResult<ClientPoll> {
        let request = HttpRequest::get(format!("/v1/invocations/{id}"));
        parse_status_document(id, &self.call(&request, StatusCode::OK)?)
    }

    /// Submits and waits; the synchronous convenience path.
    pub fn invoke_sync(
        &self,
        composition: &str,
        inputs: Vec<DataSet>,
    ) -> DandelionResult<InvocationOutcome> {
        self.submit(composition, inputs)?.wait(None)
    }
}

fn response_json(response: &HttpResponse) -> DandelionResult<JsonValue> {
    JsonValue::parse(&response.body_str())
        .map_err(|err| DandelionError::Internal(format!("malformed JSON response: {err}")))
}

/// Reconstructs the typed error from a structured JSON error body.
fn response_error(response: &HttpResponse) -> DandelionError {
    if let Ok(document) = JsonValue::parse(&response.body_str()) {
        if let Some(error) = document.get("error") {
            let code = error.get("code").and_then(JsonValue::as_str).unwrap_or("");
            let message = error
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or("");
            return DandelionError::from_code(code, message);
        }
    }
    DandelionError::ServiceError {
        status: response.status.0,
        message: response.body_text(),
    }
}

/// Parses the v1 status document into a [`ClientPoll`].
fn parse_status_document(id: InvocationId, document: &JsonValue) -> DandelionResult<ClientPoll> {
    let status = document
        .get("status")
        .and_then(JsonValue::as_str)
        .and_then(InvocationStatus::parse)
        .ok_or_else(|| {
            DandelionError::Internal("status document carried no valid status".to_string())
        })?;
    let outcome = if let Some(error) = document.get("error") {
        let code = error.get("code").and_then(JsonValue::as_str).unwrap_or("");
        let message = error
            .get("message")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        Some(Err(DandelionError::from_code(code, message)))
    } else {
        document.get("outputs").map(|outputs| {
            parse_outputs_json(outputs).map(|outputs| InvocationOutcome {
                outputs,
                report: parse_report_json(document.get("report")),
            })
        })
    };
    Ok(ClientPoll {
        id,
        status,
        outcome,
    })
}

fn parse_outputs_json(outputs: &JsonValue) -> DandelionResult<Vec<DataSet>> {
    let sets = outputs
        .as_array()
        .ok_or_else(|| DandelionError::Internal("outputs must be an array".to_string()))?;
    sets.iter()
        .map(|set| {
            let name = set
                .get("set")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| DandelionError::Internal("output set without name".to_string()))?;
            let items = set
                .get("items")
                .and_then(JsonValue::as_array)
                .unwrap_or(&[])
                .iter()
                .map(|item| {
                    let item_name = item
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default();
                    let data = item
                        .get("data_base64")
                        .and_then(JsonValue::as_str)
                        .map(base64_decode)
                        .transpose()
                        .map_err(DandelionError::Internal)?
                        .unwrap_or_default();
                    let mut data_item = DataItem::new(item_name, data);
                    data_item.key = item
                        .get("key")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string);
                    Ok(data_item)
                })
                .collect::<DandelionResult<Vec<DataItem>>>()?;
            Ok(DataSet::with_items(name, items))
        })
        .collect()
}

fn parse_report_json(report: Option<&JsonValue>) -> InvocationReport {
    let Some(report) = report else {
        return InvocationReport::default();
    };
    let count = |key: &str| {
        report
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_default() as usize
    };
    InvocationReport {
        compute_tasks: count("compute_tasks"),
        communication_tasks: count("communication_tasks"),
        peak_context_bytes: count("peak_context_bytes"),
        modeled_busy_time: Duration::from_micros(
            report
                .get("modeled_busy_us")
                .and_then(JsonValue::as_u64)
                .unwrap_or_default(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{default_test_services, WorkerNode};
    use dandelion_common::config::{IsolationKind, WorkerConfig};
    use dandelion_isolation::{FunctionArtifact, FunctionCtx};

    const IDENTITY_DSL: &str =
        "composition Identity(In) => Out { Copy(Data = all In) => (Out = Copied); }";

    fn copy_artifact() -> FunctionArtifact {
        FunctionArtifact::new("Copy", &["Copied"], |ctx: &mut FunctionCtx| {
            let data = ctx.single_input("Data")?.data.as_slice().to_vec();
            ctx.push_output_bytes("Copied", "copy", data)
        })
    }

    fn worker_client() -> DandelionClient {
        let config = WorkerConfig {
            total_cores: 4,
            initial_communication_cores: 1,
            isolation: IsolationKind::Native,
            ..WorkerConfig::default()
        };
        let worker =
            WorkerNode::start_with_control(config, default_test_services(), false).unwrap();
        worker.register_function(copy_artifact()).unwrap();
        worker.register_composition_dsl(IDENTITY_DSL).unwrap();
        DandelionClient::for_worker(worker)
    }

    #[test]
    fn http_backend_submit_poll_wait_roundtrip() {
        let client = worker_client();
        let handle = client
            .submit(
                "Identity",
                vec![DataSet::single("In", b"over http".to_vec())],
            )
            .unwrap();
        let outcome = handle.wait(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(outcome.outputs[0].items[0].as_str(), Some("over http"));
        assert_eq!(outcome.outputs[0].name, "Out");
        assert_eq!(outcome.report.compute_tasks, 1);
        // Results are retained server-side: polling after wait still works.
        let poll = client.poll(handle.id()).unwrap();
        assert_eq!(poll.status, InvocationStatus::Completed);
    }

    #[test]
    fn http_backend_preserves_item_keys_and_multiple_items() {
        let client = worker_client();
        let inputs = vec![DataSet::with_items(
            "In",
            vec![DataItem::with_key("a", "k1", b"payload".to_vec())],
        )];
        let outcome = client.invoke_sync("Identity", inputs).unwrap();
        assert_eq!(outcome.outputs[0].items[0].data.as_slice(), b"payload");
    }

    #[test]
    fn http_backend_polling_unknown_id_is_typed_not_found() {
        let client = worker_client();
        let err = client.poll(InvocationId::from_raw(u64::MAX)).unwrap_err();
        assert!(matches!(err, DandelionError::NotFound { .. }));
    }

    #[test]
    fn errors_cross_the_wire_with_stable_codes() {
        let client = worker_client();
        let err = client.submit("NoSuchComposition", vec![]).unwrap_err();
        assert!(matches!(err, DandelionError::NotFound { .. }));
        assert_eq!(err.code(), "not_found");
    }
}
