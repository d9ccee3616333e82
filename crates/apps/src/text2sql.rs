//! The Text2SQL agentic workflow (paper §7.7).
//!
//! Five steps: 1) parse the natural-language prompt into an LLM request,
//! 2) call the LLM over HTTP, 3) extract the SQL query from the LLM
//! response, 4) issue the SQL to the database over HTTP, 5) format the
//! database response for the user. Steps 1, 3 and 5 are compute functions;
//! steps 2 and 4 are the platform's HTTP communication function.

use dandelion_dsl::{CompositionBuilder, CompositionGraph, Distribution};
use dandelion_http::HttpRequest;
use dandelion_isolation::{FunctionArtifact, FunctionCtx};

/// The LLM inference endpoint.
pub(crate) const LLM_ENDPOINT: &str = "http://llm.internal/v1/generate";
/// The SQL database endpoint.
pub(crate) const DB_ENDPOINT: &str = "http://db.internal/query";

/// Step 1 — `ParsePrompt`: cleans the prompt and builds the LLM request.
pub(crate) fn parse_prompt_artifact() -> FunctionArtifact {
    FunctionArtifact::new("ParsePrompt", &["LlmRequest"], |ctx: &mut FunctionCtx| {
        let prompt_item = ctx.single_input("Prompt")?.clone();
        let prompt = prompt_item
            .as_str()
            .ok_or("prompt is not UTF-8")?
            .trim()
            .to_string();
        if prompt.is_empty() {
            return Err("empty prompt".into());
        }
        // Light prompt engineering: strip control characters and add the
        // schema hint the LLM expects.
        let cleaned: String = prompt.chars().filter(|c| !c.is_control()).collect();
        let full_prompt = format!(
            "Translate the question into SQL over tables movies(title, director, year, rating) \
             and cities(name, country, population).\nQuestion: {cleaned}"
        );
        let request = HttpRequest::post(LLM_ENDPOINT, full_prompt.into_bytes())
            .with_header("Content-Type", "text/plain");
        ctx.push_output_bytes("LlmRequest", "llm-request", request.to_shared())
    })
}

/// Extracts the SQL statement from an LLM completion: the body of a fenced
/// `sql` code block, or else the first line starting with `SELECT`.
pub(crate) fn extract_sql(completion: &str) -> Option<String> {
    if let Some(start) = completion.find("```sql") {
        let rest = &completion[start + 6..];
        if let Some(end) = rest.find("```") {
            let sql = rest[..end].trim();
            if !sql.is_empty() {
                return Some(sql.to_string());
            }
        }
    }
    completion
        .lines()
        .map(str::trim)
        .find(|line| line.to_uppercase().starts_with("SELECT"))
        .map(str::to_string)
}

/// Step 3 — `ExtractSql`: LLM response → database request.
pub(crate) fn extract_sql_artifact() -> FunctionArtifact {
    FunctionArtifact::new("ExtractSql", &["DbRequest"], |ctx: &mut FunctionCtx| {
        let response_item = ctx.single_input("LlmResponse")?.clone();
        let response = dandelion_http::parse_response_shared(&response_item.data)
            .map_err(|err| format!("bad LLM response: {err}"))?;
        if !response.status.is_success() {
            return Err(format!("LLM call failed: {}", response.status).into());
        }
        let sql = extract_sql(&response.body_str())
            .ok_or("no SQL statement found in the LLM response")?;
        let request = HttpRequest::post(DB_ENDPOINT, sql.into_bytes())
            .with_header("Content-Type", "application/sql");
        ctx.push_output_bytes("DbRequest", "db-request", request.to_shared())
    })
}

/// Step 5 — `FormatResponse`: database CSV → human-readable answer.
pub(crate) fn format_response_artifact() -> FunctionArtifact {
    FunctionArtifact::new("FormatResponse", &["Answer"], |ctx: &mut FunctionCtx| {
        let response_item = ctx.single_input("DbResponse")?.clone();
        let response = dandelion_http::parse_response_shared(&response_item.data)
            .map_err(|err| format!("bad database response: {err}"))?;
        if !response.status.is_success() {
            return Err(format!("database query failed: {}", response.status).into());
        }
        let csv = response.body_str();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap_or("").split(',').collect();
        // Each cell once, behind its column's name: at most the header per
        // row on top of the table itself.
        let mut answer = ctx.output_buffer(csv.len() * 2);
        let mut rows = 0usize;
        for line in lines {
            for (index, (name, value)) in header.iter().zip(line.split(',')).enumerate() {
                if index > 0 {
                    answer.put_str(", ");
                }
                answer.put_str(name);
                answer.put_str(": ");
                answer.put_str(value);
            }
            answer.put_u8(b'\n');
            rows += 1;
        }
        if rows == 0 {
            answer.put_str("No rows matched the query.\n");
        }
        ctx.push_output_bytes("Answer", "answer.txt", answer)
    })
}

/// The five-step Text2SQL composition.
pub(crate) fn composition() -> CompositionGraph {
    CompositionBuilder::new("Text2Sql")
        .input("Prompt")
        .output("Answer")
        .node("ParsePrompt", |node| {
            node.bind("Prompt", Distribution::All, "Prompt")
                .publish("LlmRequests", "LlmRequest")
        })
        .node("HTTP", |node| {
            node.bind("Request", Distribution::Each, "LlmRequests")
                .publish("LlmResponses", "Response")
        })
        .node("ExtractSql", |node| {
            node.bind("LlmResponse", Distribution::All, "LlmResponses")
                .publish("DbRequests", "DbRequest")
        })
        .node("HTTP", |node| {
            node.bind("Request", Distribution::Each, "DbRequests")
                .publish("DbResponses", "Response")
        })
        .node("FormatResponse", |node| {
            node.bind("DbResponse", Distribution::All, "DbResponses")
                .publish("Answer", "Answer")
        })
        .build()
        .expect("static Text2SQL composition")
}

/// The paper's per-step latency breakdown (measured on their deployment),
/// used by the benchmark harness to report paper-vs-reproduction numbers.
pub fn paper_step_latencies_ms() -> [(&'static str, u64); 5] {
    [
        ("parse prompt", 221),
        ("LLM request", 1238),
        ("extract SQL", 207),
        ("database query", 136),
        ("format response", 213),
    ]
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
            SyscallPolicy::strict(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        ctx.take_outputs()
    }

    #[test]
    fn parse_prompt_builds_llm_request() {
        let outputs = run(
            &parse_prompt_artifact(),
            vec![DataSet::single(
                "Prompt",
                b"Which city in Switzerland has the largest population?".to_vec(),
            )],
        );
        let request = dandelion_http::parse_request(&outputs[0].items[0].data).unwrap();
        assert_eq!(request.target, LLM_ENDPOINT);
        assert!(request.body_str().contains("Switzerland"));
    }

    #[test]
    fn extract_sql_handles_fences_and_fallback() {
        assert_eq!(
            extract_sql("Sure!\n```sql\nSELECT 1\n```\nDone."),
            Some("SELECT 1".to_string())
        );
        assert_eq!(
            extract_sql("select name from cities"),
            Some("select name from cities".to_string())
        );
        assert_eq!(extract_sql("no sql here"), None);
        assert_eq!(extract_sql("```sql\n\n```"), None);
    }

    #[test]
    fn extract_sql_artifact_builds_db_request() {
        let llm_response = dandelion_http::HttpResponse::ok(
            b"```sql\nSELECT name FROM cities LIMIT 1\n```".to_vec(),
        )
        .to_bytes();
        let outputs = run(
            &extract_sql_artifact(),
            vec![DataSet::single("LlmResponse", llm_response)],
        );
        let request = dandelion_http::parse_request(&outputs[0].items[0].data).unwrap();
        assert_eq!(request.target, DB_ENDPOINT);
        assert_eq!(request.body, b"SELECT name FROM cities LIMIT 1");
    }

    #[test]
    fn format_response_renders_rows_and_empty_results() {
        let csv =
            dandelion_http::HttpResponse::ok(b"name,population\nZurich,434335".to_vec()).to_bytes();
        let outputs = run(
            &format_response_artifact(),
            vec![DataSet::single("DbResponse", csv)],
        );
        let answer = outputs[0].items[0].as_str().unwrap();
        assert!(answer.contains("name: Zurich"));
        assert!(answer.contains("population: 434335"));

        let empty = dandelion_http::HttpResponse::ok(b"name".to_vec()).to_bytes();
        let outputs = run(
            &format_response_artifact(),
            vec![DataSet::single("DbResponse", empty)],
        );
        assert!(outputs[0].items[0].as_str().unwrap().contains("No rows"));
    }

    #[test]
    fn composition_has_five_steps() {
        let graph = composition();
        assert_eq!(graph.nodes.len(), 5);
        assert_eq!(graph.nodes[1].vertex, "HTTP");
        assert_eq!(graph.nodes[3].vertex, "HTTP");
        assert_eq!(paper_step_latencies_ms().len(), 5);
    }
}
