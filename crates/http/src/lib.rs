//! Minimal HTTP/1.1 support for Dandelion communication functions.
//!
//! Dandelion's only built-in communication function speaks HTTP: compute
//! functions emit serialized HTTP requests as output items, the communication
//! engine validates them, performs the request against a remote service, and
//! hands the serialized response to downstream functions (paper §4.1, §6.3).
//!
//! Because the request bytes are produced by *untrusted* compute functions,
//! the communication engine must not trust anything beyond the narrow shape
//! it validates:
//!
//! * the request line must contain a whitelisted method and a supported
//!   protocol version, and
//! * the URI authority must be a syntactically valid IP address or domain
//!   name.
//!
//! [`validate::validate_request_shared`] implements exactly those checks,
//! where the request lies: one head scan gives the method, the target and a
//! view of the body ([`RequestRef`]), the target's parts are views of it
//! ([`UriRef`]), and everything else — the headers among it — passes through
//! as opaque bytes. The validator is tested differentially against the
//! one-shot [`parse_request`] and the owned rules it replaced.

#![warn(unnameable_types)]

mod parse;
mod stream;
mod types;
mod uri;
// `pub` because `benchmark/src/layerwalk.rs` imports it by path.
pub mod validate;

pub use parse::{
    parse_request, parse_request_frame, parse_response, parse_response_frame,
    parse_response_shared, HttpParseError, RequestLine, StatusLine,
};
pub use stream::{
    rejection_code, rejection_status, Frame, ParseLimits, RequestDecoder, RequestFrame,
    ResponseDecoder, ResponseFrame, FRAMING_HEADS,
};
pub use types::{Headers, HttpRequest, HttpResponse, Method, RequestRef, StatusCode, Version};
pub use uri::UriRef;
