//! The proxy's specification: what a gateway does to a request on its way to
//! a member and to the member's response on its way back, as functions over
//! structured messages.
//!
//! The served gateway runs neither function. It splices the bytes it
//! received ([`forward_rope`](super::forward_rope),
//! [`relay_rope`](super::relay_rope)) and never decodes a message into a
//! header map. These two are the reference the splice is held to:
//! `tests/properties.rs` compares the two on a mutated framing corpus, and
//! `tests/render_alloc_budget.rs` counts what each costs. `benchmark/` times
//! them too, so they stay public.

use dandelion_common::NodeId;
use dandelion_http::{HttpRequest, HttpResponse};

/// Prepares a client request for the upstream wire: hop-by-hop connection
/// negotiation is the gateway's business on each side, so the client's
/// `Connection` header is stripped (upstream connections are always
/// keep-alive). The body rides along by reference.
pub fn proxy_request(request: &HttpRequest) -> HttpRequest {
    let mut upstream = request.clone();
    upstream.headers.remove("connection");
    upstream
}

/// Prepares a member's response for the client: the member's `Connection`
/// header is replaced by the gateway's own negotiation, and the answering
/// node is surfaced as `X-Dandelion-Node`. The body buffer is reused as-is.
pub fn proxy_response(mut response: HttpResponse, node: NodeId) -> HttpResponse {
    response.headers.remove("connection");
    response
        .headers
        .insert("X-Dandelion-Node", node.to_string());
    response
}

#[cfg(test)]
mod tests {
    use dandelion_common::SharedBytes;
    use dandelion_http::StatusCode;

    use super::*;

    #[test]
    fn proxy_transforms_strip_hop_by_hop_and_stamp_the_node() {
        let request = HttpRequest::post("/v1/invoke/Echo", b"payload".to_vec())
            .with_header("Connection", "close")
            .with_header("Content-Type", "text/plain");
        let upstream = proxy_request(&request);
        assert!(upstream.headers.get("connection").is_none());
        assert_eq!(upstream.headers.get("content-type"), Some("text/plain"));

        let node = NodeId::from_raw(7);
        let body = SharedBytes::from_vec(b"result".to_vec());
        let mut response = HttpResponse::new(StatusCode::OK, Vec::new());
        response.body = body.clone();
        response.headers.insert("Connection", "keep-alive");
        let proxied = proxy_response(response, node);
        assert!(proxied.headers.get("connection").is_none());
        assert_eq!(proxied.headers.get("x-dandelion-node"), Some("node-7"));
        // The zero-copy invariant: the body is the same buffer, not a copy.
        assert!(SharedBytes::same_buffer(&proxied.body, &body));
    }
}
