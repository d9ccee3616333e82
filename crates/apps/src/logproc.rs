//! The distributed log-processing application (paper Figure 3, Listing 1/2).
//!
//! `Access` turns the client's access token into an HTTP request to the auth
//! service; the HTTP communication function performs it; `FanOut` parses the
//! list of authorized log endpoints and emits one GET request per endpoint;
//! a second HTTP node fetches all logs in parallel; `Render` templates the
//! responses into a single HTML report.

use std::fmt::Write;

use dandelion_dsl::builder::render_logs_composition;
use dandelion_dsl::CompositionGraph;
use dandelion_http::{HttpRequest, HttpResponse};
use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// The auth-service endpoint the Access function targets.
pub const AUTH_ENDPOINT: &str = "http://auth.internal/authorize";

/// `Access`: access token → auth-service request.
pub fn access_artifact() -> FunctionArtifact {
    FunctionArtifact::new("Access", &["HTTPRequest"], |ctx: &mut FunctionCtx| {
        let token = ctx.single_input("AccessToken")?.clone();
        let token_text = token.as_str().ok_or("access token is not UTF-8")?.trim();
        if token_text.is_empty() {
            return Err("empty access token".into());
        }
        let request = HttpRequest::post(AUTH_ENDPOINT, token_text.as_bytes().to_vec())
            .with_header("Content-Type", "text/plain");
        ctx.push_output_bytes("HTTPRequest", "auth-request", request.to_shared())
    })
}

/// `FanOut`: auth response → one GET request per authorized log endpoint.
pub fn fanout_artifact() -> FunctionArtifact {
    FunctionArtifact::new("FanOut", &["HTTPRequests"], |ctx: &mut FunctionCtx| {
        let response_item = ctx.single_input("HTTPResponse")?.clone();
        let response = dandelion_http::parse_response_shared(&response_item.data)
            .map_err(|err| format!("malformed auth response: {err}"))?;
        if !response.status.is_success() {
            // Authorization failed: produce no requests, downstream nodes
            // skip and the composition returns an empty report (§4.4).
            return Ok(());
        }
        let body = response.body_str();
        for (index, endpoint) in body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .enumerate()
        {
            let request = HttpRequest::get(endpoint).to_shared();
            ctx.push_output_bytes("HTTPRequests", &format!("log-request-{index}"), request)?;
        }
        Ok(())
    })
}

/// The most a section adds around what it takes from its response: either
/// shape's tags (33 bytes around a log, 50 around an error's status line) and
/// the newline a log's last line may lack.
const SECTION_MARKUP: usize = 64;

/// `Render`: log responses → a single HTML report.
pub fn render_artifact() -> FunctionArtifact {
    FunctionArtifact::new("Render", &["HTMLOutput"], |ctx: &mut FunctionCtx| {
        const OPEN: &str = "<html><body><h1>Service logs</h1>\n";
        const CLOSE: &str = "</body></html>\n";
        let responses = ctx
            .input_set("HTTPResponses")
            .ok_or("missing input set `HTTPResponses`")?;
        // The report is its inputs' bytes between fixed tags, so its size is
        // bounded before the first byte is written: one output buffer from
        // the platform, never outgrown.
        let payload: usize = responses.items.iter().map(|item| item.data.len()).sum();
        let mut html = ctx.output_buffer(
            OPEN.len() + payload + responses.items.len() * SECTION_MARKUP + CLOSE.len(),
        );
        html.put_str(OPEN);
        for item in &responses.items {
            let response: HttpResponse = dandelion_http::parse_response_shared(&item.data)
                .map_err(|err| format!("malformed log response: {err}"))?;
            if response.status.is_success() {
                html.put_str("<section><pre>\n");
                // Read in place: the lines are slices of the response buffer.
                for line in response.body_str().lines().take(200) {
                    html.put_str(line);
                    html.put_u8(b'\n');
                }
                html.put_str("</pre></section>\n");
            } else {
                writeln!(
                    html,
                    "<section class=\"error\">upstream error: {}</section>",
                    response.status
                )
                .expect("a builder accepts every write");
            }
        }
        html.put_str(CLOSE);
        ctx.push_output_bytes("HTMLOutput", "report.html", html)
    })
}

/// The `RenderLogs` composition (identical to the paper's Listing 2).
pub fn composition() -> CompositionGraph {
    render_logs_composition()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_common::DataSet;
    use dandelion_isolation::SyscallPolicy;

    fn run(artifact: &FunctionArtifact, inputs: Vec<DataSet>) -> Vec<DataSet> {
        let mut ctx = FunctionCtx::new(
            inputs,
            artifact.output_sets.clone(),
            4 * 1024 * 1024,
            SyscallPolicy::permissive(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        ctx.take_outputs()
    }

    #[test]
    fn access_builds_an_auth_request() {
        let outputs = run(
            &access_artifact(),
            vec![DataSet::single("AccessToken", b"demo-token".to_vec())],
        );
        let request = dandelion_http::parse_request(&outputs[0].items[0].data).unwrap();
        assert_eq!(request.target, AUTH_ENDPOINT);
        assert_eq!(request.body, b"demo-token");
    }

    #[test]
    fn fanout_emits_one_request_per_endpoint() {
        let auth_response = HttpResponse::ok(
            b"http://logs-0.internal/logs\nhttp://logs-1.internal/logs\n".to_vec(),
        )
        .to_bytes();
        let outputs = run(
            &fanout_artifact(),
            vec![DataSet::single("HTTPResponse", auth_response)],
        );
        assert_eq!(outputs[0].len(), 2);
        let request = dandelion_http::parse_request(&outputs[0].items[1].data).unwrap();
        assert_eq!(request.target, "http://logs-1.internal/logs");
    }

    #[test]
    fn fanout_produces_nothing_on_auth_failure() {
        let denied = HttpResponse::error(dandelion_http::StatusCode::UNAUTHORIZED, "no").to_bytes();
        let outputs = run(
            &fanout_artifact(),
            vec![DataSet::single("HTTPResponse", denied)],
        );
        assert!(outputs[0].is_empty());
    }

    #[test]
    fn render_includes_logs_and_errors() {
        use dandelion_common::DataItem;
        let good = HttpResponse::ok(b"line one\nline two".to_vec()).to_bytes();
        let bad =
            HttpResponse::error(dandelion_http::StatusCode::SERVICE_UNAVAILABLE, "down").to_bytes();
        let outputs = run(
            &render_artifact(),
            vec![DataSet::with_items(
                "HTTPResponses",
                vec![DataItem::new("r0", good), DataItem::new("r1", bad)],
            )],
        );
        let html = outputs[0].items[0].as_str().unwrap().to_string();
        assert!(html.contains("line one"));
        assert!(html.contains("upstream error: 503"));
        assert!(html.starts_with("<html>"));
    }

    #[test]
    fn composition_matches_paper_listing() {
        let graph = composition();
        assert_eq!(graph.name, "RenderLogs");
        assert_eq!(graph.nodes.len(), 5);
    }
}
