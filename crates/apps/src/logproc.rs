//! The distributed log-processing application (paper Figure 3, Listing 1/2).
//!
//! `Access` turns the client's access token into an HTTP request to the auth
//! service; the HTTP communication function performs it; `FanOut` parses the
//! list of authorized log endpoints and emits one GET request per endpoint;
//! a second HTTP node fetches all logs in parallel; `Render` templates the
//! responses into a single HTML report.
//!
//! A log's section of the report is its first 200 (`MAX_LINES`) lines, of
//! its body read as UTF-8 lossily, each ended by a `\n`. For a log that is
//! ASCII, has no `\r` and has at most 200 lines, that is the body itself —
//! plus a final `\n` when it lacks one — so `Render` copies such a body
//! whole after one pass over its bytes, and re-lines only the others.

use std::fmt::Write;

use dandelion_common::{utf8_lossy, DataItem, SharedBytes, SharedBytesMut};
use dandelion_dsl::{render_logs_composition, CompositionGraph};
use dandelion_http::{HttpRequest, StatusCode};
use dandelion_isolation::{FunctionArtifact, FunctionCtx, FunctionError};

/// The auth-service endpoint the Access function targets.
pub(crate) const AUTH_ENDPOINT: &str = "http://auth.internal/authorize";

/// `Access`: access token → auth-service request.
pub(crate) fn access_artifact() -> FunctionArtifact {
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
pub(crate) fn fanout_artifact() -> FunctionArtifact {
    FunctionArtifact::new("FanOut", &["HTTPRequests"], |ctx: &mut FunctionCtx| {
        let response_item = ctx.single_input("HTTPResponse")?.clone();
        let response = dandelion_http::parse_response_frame(&response_item.data)
            .map_err(|err| format!("malformed auth response: {err}"))?;
        if !response.status().is_success() {
            // Authorization failed: produce no requests, downstream nodes
            // skip and the composition returns an empty report (§4.4).
            return Ok(());
        }
        let body = response.body();
        for (index, endpoint) in utf8_lossy(&body)
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

/// The most lines of a log its section keeps.
const MAX_LINES: usize = 200;

const OPEN: &str = "<html><body><h1>Service logs</h1>\n";
const CLOSE: &str = "</body></html>\n";
const LOG_OPEN: &str = "<section><pre>\n";
const LOG_CLOSE: &str = "</pre></section>\n";
const ERROR_OPEN: &str = "<section class=\"error\">upstream error: ";
const ERROR_CLOSE: &str = "</section>\n";

/// Bytes one step of [`BodyScan::of`] takes: its `u8` counter cannot
/// overflow on them, and the compiler turns the step into vector compares.
const SCAN_BLOCK: usize = 64;

/// What one pass over a log body finds.
#[derive(Debug, Clone, Copy)]
struct BodyScan {
    /// The `\n` bytes.
    newlines: usize,
    /// Whether every byte is ASCII.
    ascii: bool,
    /// Whether the body is UTF-8: its lossy text is its bytes. Checked only
    /// for a body that is not ASCII.
    utf8: bool,
    /// Whether a `\r` is among them: `lines` would cut one before a `\n`.
    carriage_return: bool,
}

/// The `\n`s of at most [`SCAN_BLOCK`] bytes, every byte ORed together, and
/// every `\r` ORed together. Inlined into [`BodyScan::of`]'s loop over whole
/// blocks, where the length is a constant and the three folds vectorise.
#[inline(always)]
fn tally(bytes: &[u8]) -> (u8, u8, u8) {
    bytes
        .iter()
        .fold((0u8, 0u8, 0u8), |(newlines, all, returns), &byte| {
            (
                newlines + u8::from(byte == b'\n'),
                all | byte,
                returns | u8::from(byte == b'\r'),
            )
        })
}

impl BodyScan {
    /// Scans `body` once, [`SCAN_BLOCK`] bytes at a time, and a body that is
    /// not ASCII once more for UTF-8.
    fn of(body: &[u8]) -> Self {
        let (blocks, tail) = body.as_chunks::<SCAN_BLOCK>();
        let (mut newlines, mut all, mut returns) = (0, 0, 0);
        let tallies = blocks.iter().map(|block| tally(block));
        for (block_newlines, block_all, block_returns) in tallies.chain([tally(tail)]) {
            newlines += usize::from(block_newlines);
            all |= block_all;
            returns |= block_returns;
        }
        let ascii = all.is_ascii();
        Self {
            newlines,
            ascii,
            utf8: ascii || std::str::from_utf8(body).is_ok(),
            carriage_return: returns != 0,
        }
    }

    /// Whether `body`'s section is `body` itself (plus a final `\n` when it
    /// lacks one): ASCII, no `\r`, and at most [`MAX_LINES`] lines.
    fn verbatim(&self, body: &[u8]) -> bool {
        let unterminated = body.last().is_some_and(|&byte| byte != b'\n');
        self.ascii
            && !self.carriage_return
            && self.newlines + usize::from(unterminated) <= MAX_LINES
    }

    /// The most bytes the lines of a `len`-byte body take: its text plus a
    /// `\n` its last line may lack. A UTF-8 body's text is its bytes; any
    /// other's lossy text is at most three bytes (U+FFFD) per byte.
    fn text_bound(&self, len: usize) -> usize {
        if self.utf8 {
            len + 1
        } else {
            3 * len + 1
        }
    }
}

/// Appends `bytes` read as UTF-8 lossily: what [`utf8_lossy`] makes of
/// them, each sequence that is not UTF-8 written as U+FFFD.
fn put_lossy(html: &mut SharedBytesMut, bytes: &[u8]) {
    for chunk in bytes.utf8_chunks() {
        html.put_str(chunk.valid());
        if !chunk.invalid().is_empty() {
            html.put_str("\u{FFFD}");
        }
    }
}

/// One response's section of the report, as the pass over the responses
/// that precedes the first write found it.
enum Section {
    /// A successful response: its body, and what the scan of it found.
    Log(SharedBytes, BodyScan),
    /// Any other response: its status.
    Error(StatusCode),
}

impl Section {
    fn of(item: &DataItem) -> Result<Self, FunctionError> {
        let response = dandelion_http::parse_response_frame(&item.data)
            .map_err(|err| format!("malformed log response: {err}"))?;
        Ok(if response.status().is_success() {
            let body = response.body();
            let scan = BodyScan::of(&body);
            Self::Log(body, scan)
        } else {
            Self::Error(response.status())
        })
    }

    /// The most bytes [`Section::write`] writes.
    fn bound(&self) -> usize {
        match self {
            Self::Log(body, scan) => LOG_OPEN.len() + scan.text_bound(body.len()) + LOG_CLOSE.len(),
            // A parsed status has three digits; its reason follows a space.
            Self::Error(status) => {
                ERROR_OPEN.len() + "599 ".len() + status.reason().len() + ERROR_CLOSE.len()
            }
        }
    }

    fn write(&self, html: &mut SharedBytesMut) {
        match self {
            Self::Log(body, scan) => {
                html.put_str(LOG_OPEN);
                if scan.verbatim(body) {
                    html.put_slice(body);
                    if body.last().is_some_and(|&byte| byte != b'\n') {
                        html.put_u8(b'\n');
                    }
                } else {
                    // The lines of the body's lossy text are the lossy text
                    // of its lines: a `\n` or `\r` is never part of a byte
                    // sequence that is not UTF-8. So each is read in place
                    // and repaired as it is written, with no owned copy.
                    for line in body.split_inclusive(|&byte| byte == b'\n').take(MAX_LINES) {
                        // What `str::lines` cuts: the `\n`, and a `\r` before it.
                        let line = line
                            .strip_suffix(b"\n")
                            .map_or(line, |line| line.strip_suffix(b"\r").unwrap_or(line));
                        put_lossy(html, line);
                        html.put_u8(b'\n');
                    }
                }
                html.put_str(LOG_CLOSE);
            }
            Self::Error(status) => {
                write!(html, "{ERROR_OPEN}{status}{ERROR_CLOSE}")
                    .expect("a builder accepts every write");
            }
        }
    }
}

/// `Render`: log responses → a single HTML report.
///
/// A successful response's section is the first 200 lines of its body, each
/// ended by a `\n`; any other response's is its status. Each body is
/// scanned once: one that is ASCII, has no `\r` and has at most 200 lines is
/// copied whole (and given a final `\n` if it lacks one), which is what its
/// lines are; every other is re-lined.
pub fn render_artifact() -> FunctionArtifact {
    FunctionArtifact::new("Render", &["HTMLOutput"], |ctx: &mut FunctionCtx| {
        let responses = ctx
            .input_set("HTTPResponses")
            .ok_or("missing input set `HTTPResponses`")?;
        // Every response is framed and every body scanned before the first
        // byte is written, so the report's size is bounded by then: one
        // output buffer from the platform, never outgrown.
        let mut sections = Vec::with_capacity(responses.items.len());
        for item in &responses.items {
            sections.push(Section::of(item)?);
        }
        let bound = OPEN.len() + sections.iter().map(Section::bound).sum::<usize>() + CLOSE.len();
        let mut html = ctx.output_buffer(bound);
        html.put_str(OPEN);
        for section in &sections {
            section.write(&mut html);
        }
        html.put_str(CLOSE);
        debug_assert!(html.len() <= bound, "{} > {bound}", html.len());
        ctx.push_output_bytes("HTMLOutput", "report.html", html)
    })
}

/// The `RenderLogs` composition (identical to the paper's Listing 2).
pub(crate) fn composition() -> CompositionGraph {
    render_logs_composition()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_common::rng::SplitMix64;
    use dandelion_common::DataSet;
    use dandelion_http::HttpResponse;
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

    /// `Render` as it was before bodies were scanned and copied: every log
    /// re-lined, every response parsed into its header map. The reference
    /// semantics of the report.
    fn reference_report(items: &[DataItem]) -> Result<Vec<u8>, String> {
        let mut html = String::from("<html><body><h1>Service logs</h1>\n");
        for item in items {
            let response = dandelion_http::parse_response_shared(&item.data)
                .map_err(|err| format!("malformed log response: {err}"))?;
            if response.status.is_success() {
                html.push_str("<section><pre>\n");
                for line in response.body_str().lines().take(200) {
                    html.push_str(line);
                    html.push('\n');
                }
                html.push_str("</pre></section>\n");
            } else {
                writeln!(
                    html,
                    "<section class=\"error\">upstream error: {}</section>",
                    response.status
                )
                .unwrap();
            }
        }
        html.push_str("</body></html>\n");
        Ok(html.into_bytes())
    }

    /// One line of a seeded log: plain ASCII text, or unless `plain` one of
    /// the cases a line reader has to get right now and then — empty,
    /// CRLF-ended, a lone CR, non-ASCII UTF-8, bytes that are not UTF-8.
    fn seeded_line(rng: &mut SplitMix64, plain: bool) -> Vec<u8> {
        let text = format!(
            "{} GET /logs/{}",
            rng.next_u64() % 100_000,
            rng.next_u64() % 977
        );
        let mut line = text.into_bytes();
        if plain {
            return line;
        }
        match rng.next_bounded(16) {
            0 => line.clear(),
            1 => line.push(b'\r'),
            2 => line.insert(3, b'\r'),
            3 => line.extend_from_slice("caf\u{e9}".as_bytes()),
            4 => line.extend_from_slice("\u{1F33C}".as_bytes()),
            5 => line.push(0xFF),
            6 => line.extend_from_slice(&[0xF0, 0x9F, 0x8C]),
            _ => {}
        }
        line
    }

    /// A seeded log body: half of them plain lines, a line count from
    /// around [`MAX_LINES`] or below it, with or without its final `\n`, a
    /// lone `\r` at its end now and then.
    fn seeded_body(rng: &mut SplitMix64) -> Vec<u8> {
        const COUNTS: [u64; 8] = [0, 1, 2, 199, 200, 201, 250, 120];
        let lines = match rng.next_bounded(10) {
            index @ 0..=7 => COUNTS[index as usize],
            _ => rng.next_bounded(300),
        };
        let plain = rng.next_bounded(2) == 0;
        let mut body = Vec::new();
        for _ in 0..lines {
            body.extend_from_slice(&seeded_line(rng, plain));
            body.push(b'\n');
        }
        match rng.next_bounded(4) {
            0 => {
                body.pop();
            }
            1 => body.push(b'\r'),
            _ => {}
        }
        body
    }

    /// A seeded log response: mostly a `200` with a seeded body, or a
    /// `404`, a `503`, or bytes that are not a response.
    fn seeded_response(rng: &mut SplitMix64) -> Vec<u8> {
        match rng.next_bounded(12) {
            0 => HttpResponse::error(StatusCode::NOT_FOUND, "no such log").to_bytes(),
            1 => HttpResponse::error(StatusCode::SERVICE_UNAVAILABLE, "down").to_bytes(),
            2 => b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort".to_vec(),
            _ => HttpResponse::ok(seeded_body(rng))
                .with_header("Content-Type", "text/plain")
                .to_bytes(),
        }
    }

    /// `Render`'s report for `items`, or its error.
    fn render(items: Vec<DataItem>) -> Result<Vec<u8>, String> {
        let artifact = render_artifact();
        let mut ctx = FunctionCtx::new(
            vec![DataSet::with_items("HTTPResponses", items)],
            artifact.output_sets.clone(),
            4 * 1024 * 1024,
            SyscallPolicy::permissive(),
        )
        .unwrap();
        artifact
            .logic
            .run(&mut ctx)
            .map_err(|err| err.to_string())?;
        Ok(ctx.take_outputs()[0].items[0].data.to_vec())
    }

    /// The report — byte for byte, or the error — is the re-lining loop's,
    /// on the named edge cases and on 2 000 seeded sets of responses. In a
    /// debug build `Render` also asserts that the report stayed within the
    /// size it was given.
    #[test]
    fn render_matches_the_line_loop_it_replaces_on_a_seeded_corpus() {
        let ok = |body: &[u8]| HttpResponse::ok(body.to_vec()).to_bytes();
        let lines = |count: usize| -> Vec<u8> {
            (0..count)
                .flat_map(|index| format!("line {index}\n").into_bytes())
                .collect()
        };
        let mut cases: Vec<Vec<Vec<u8>>> = [
            &b""[..],
            b"\n",
            b"\n\n",
            b"no final newline",
            b"crlf\r\nlines\r\n",
            b"a lone\rcr",
            b"ends in cr\r",
            b"ends in cr and lf\r\n",
            b"empty\n\nlines\n\n",
            "caf\u{e9}\n\u{1F33C}\n".as_bytes(),
            b"invalid \xFF byte\n",
            b"truncated \xF0\x9F\x8C\n",
            &[0xFF; 4096],
        ]
        .iter()
        .map(|body| vec![ok(body)])
        .collect();
        for count in [199, 200, 201, 250] {
            let mut body = lines(count);
            cases.push(vec![ok(&body)]);
            body.pop();
            cases.push(vec![ok(&body)]);
        }
        cases.push(vec![
            ok(b"fine\n"),
            HttpResponse::error(StatusCode::NOT_FOUND, "gone").to_bytes(),
            HttpResponse::error(StatusCode(499), "closed").to_bytes(),
            HttpResponse::error(StatusCode::SERVICE_UNAVAILABLE, "down").to_bytes(),
        ]);
        cases.push(vec![ok(b"fine\n"), b"HTTP/1.1 abc\r\n\r\n".to_vec()]);
        let mut rng = SplitMix64::new(32);
        for _ in 0..2_000 {
            let responses = 1 + rng.next_bounded(6);
            cases.push((0..responses).map(|_| seeded_response(&mut rng)).collect());
        }
        let (mut reports, mut errors, mut copied, mut relined) = (0, 0, 0, 0);
        for (index, responses) in cases.into_iter().enumerate() {
            let items: Vec<DataItem> = responses
                .into_iter()
                .enumerate()
                .map(|(at, response)| DataItem::new(format!("r{at}"), response))
                .collect();
            for item in &items {
                match Section::of(item) {
                    Ok(Section::Log(body, scan)) if scan.verbatim(&body) => copied += 1,
                    Ok(Section::Log(..)) => relined += 1,
                    _ => {}
                }
            }
            let expected = reference_report(&items);
            let got = render(items);
            assert_eq!(
                got.as_ref().map(|report| utf8_lossy(report)),
                expected.as_ref().map(|report| utf8_lossy(report)),
                "case {index}"
            );
            assert_eq!(got, expected, "case {index}");
            match got {
                Ok(_) => reports += 1,
                Err(_) => errors += 1,
            }
        }
        // Both outcomes, and both ways to write a log, are exercised.
        assert!(
            reports > 1_000 && errors > 100 && copied > 1_000 && relined > 1_000,
            "{reports} reports, {errors} errors; {copied} logs copied, {relined} re-lined"
        );
    }

    /// Which bodies take the copy and which the loop.
    #[test]
    fn a_body_is_copied_only_when_its_lines_are_its_bytes() {
        let verbatim = |body: &[u8]| BodyScan::of(body).verbatim(body);
        let lines = |count: usize| "x\n".repeat(count).into_bytes();
        assert!(verbatim(b""));
        assert!(verbatim(b"a\n\nb"));
        assert!(verbatim(&lines(MAX_LINES)));
        assert!(!verbatim(&lines(MAX_LINES + 1)));
        let mut unterminated = lines(MAX_LINES);
        unterminated.push(b'x');
        assert!(!verbatim(&unterminated));
        unterminated.truncate(2 * MAX_LINES - 1);
        assert!(verbatim(&unterminated));
        assert!(!verbatim(b"crlf\r\n"));
        assert!(!verbatim("caf\u{e9}".as_bytes()));
        // Past a whole block, in its tail and across its edge.
        let mut long = vec![b'y'; 3 * SCAN_BLOCK + 7];
        assert!(verbatim(&long));
        for at in [0, SCAN_BLOCK - 1, SCAN_BLOCK, 3 * SCAN_BLOCK + 6] {
            long[at] = b'\r';
            assert!(!verbatim(&long), "a CR at {at}");
            long[at] = 0x80;
            assert!(!verbatim(&long), "a high bit at {at}");
            long[at] = b'\n';
            assert_eq!(BodyScan::of(&long).newlines, 1, "a LF at {at}");
            long[at] = b'y';
        }
    }
}
