//! Simulated remote services reached by Dandelion communication functions.
//!
//! The paper's applications talk to cloud services over REST: an auth
//! service and log servers (log processing, Figure 3), S3 (query processing,
//! §7.7), an LLM inference endpoint and a SQL database (Text2SQL, §7.7).
//! None of those external systems are available in this reproduction, so the
//! [`ServiceRegistry`] hosts in-process stand-ins that speak the same HTTP
//! shapes and carry configurable latency models. The communication engine
//! resolves the request's host against the registry instead of opening a
//! socket — everything else (request validation, response handling, data
//! flow) is identical to a real deployment.
//!
//! What a stand-in serves would sit on another machine, so it must not be
//! the worker's start-up work or its idle memory: content is materialised on
//! first use, then stored ([`object_store::ObjectStore::set_source`]), and
//! a GET answers with a view of the stored bytes (a log service's few KiB
//! are rendered when it is created). What the services hold at
//! any moment is [`ServiceRegistry::resident_bytes`], which `/v1/stats`
//! reports as `memory.services.resident_bytes`.
//!
//! Provided services:
//!
//! * [`auth::AuthService`] — token → list of authorized log-service endpoints.
//! * [`logs::LogService`] — serves synthetic log files.
//! * [`object_store::ObjectStore`] — S3-like GET/PUT/DELETE of objects in
//!   buckets; a bucket can have a source that makes an object when it is
//!   first read.
//! * [`llm::LlmService`] — deterministic Text2SQL "LLM" with the measured
//!   latency of the paper's Gemma-3-4b deployment.
//! * [`database::SqlDatabaseService`] — a small SQL-over-HTTP database used
//!   by the Text2SQL workflow.

pub mod auth;
pub mod database;
pub mod latency;
pub mod llm;
pub mod logs;
pub mod object_store;
pub mod registry;

pub use latency::LatencyModel;
pub use registry::{RemoteService, ServiceRegistry, ServiceResponse};
