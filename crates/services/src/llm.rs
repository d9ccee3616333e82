//! A deterministic mock of the LLM inference service.
//!
//! The Text2SQL agentic workflow (§7.7) sends a natural-language prompt to a
//! Gemma-3-4b model served on an H100 and receives a SQL query back. The
//! model itself is irrelevant to the platform evaluation — what matters is
//! the HTTP exchange and its latency (1238 ms, 61% of the end-to-end
//! pipeline). This service maps prompts to SQL deterministically using
//! keyword rules over a small schema so that the workflow is runnable and
//! testable end-to-end.

use dandelion_http::{HttpRequest, HttpResponse, Method, StatusCode};

use crate::latency::LatencyModel;
use crate::registry::{RemoteService, ServiceResponse};

/// Deterministic Text2SQL "LLM" endpoint.
pub struct LlmService {
    latency: LatencyModel,
}

impl LlmService {
    /// Creates the service with the paper's measured inference latency.
    pub fn new() -> Self {
        Self {
            latency: LatencyModel::LLM,
        }
    }

    /// Creates the service with a custom latency (tests use zero).
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self { latency }
    }

    /// Translates a natural-language question into SQL over the demo schema
    /// (`movies(title, director, year, rating)` and
    /// `cities(name, country, population)`).
    ///
    /// The rules are intentionally simple and deterministic; the goal is a
    /// plausible, runnable Text2SQL pipeline, not model quality.
    pub fn text_to_sql(prompt: &str) -> String {
        let full = prompt.to_lowercase();
        // Prompt templates prepend schema hints; only the question itself
        // should drive table selection.
        let lower = full
            .rsplit_once("question:")
            .map(|(_, question)| question.trim().to_string())
            .unwrap_or(full);
        let table =
            if lower.contains("movie") || lower.contains("film") || lower.contains("director") {
                "movies"
            } else {
                "cities"
            };
        let mut filters: Vec<String> = Vec::new();
        if let Some(year) = lower
            .split(|c: char| !c.is_ascii_digit())
            .find(|token| token.len() == 4)
        {
            if table == "movies" {
                filters.push(format!("year = {year}"));
            }
        }
        if lower.contains("best") || lower.contains("highest rated") || lower.contains("top") {
            return format!(
                "SELECT title FROM movies ORDER BY rating DESC LIMIT {}",
                if lower.contains("ten") || lower.contains("10") {
                    10
                } else {
                    1
                }
            );
        }
        if table == "cities" {
            if let Some(country) = ["switzerland", "germany", "france", "italy", "japan"]
                .iter()
                .find(|country| lower.contains(*country))
            {
                let name = format!("{}{}", country[..1].to_uppercase(), &country[1..]);
                filters.push(format!("country = '{name}'"));
            }
            if lower.contains("population")
                || lower.contains("largest")
                || lower.contains("biggest")
            {
                let where_clause = if filters.is_empty() {
                    String::new()
                } else {
                    format!(" WHERE {}", filters.join(" AND "))
                };
                return format!(
                    "SELECT name FROM cities{where_clause} ORDER BY population DESC LIMIT 1"
                );
            }
        }
        let columns = if table == "movies" {
            "title, director"
        } else {
            "name, country"
        };
        if filters.is_empty() {
            format!("SELECT {columns} FROM {table}")
        } else {
            format!(
                "SELECT {columns} FROM {table} WHERE {}",
                filters.join(" AND ")
            )
        }
    }
}

impl Default for LlmService {
    fn default() -> Self {
        Self::new()
    }
}

impl RemoteService for LlmService {
    fn name(&self) -> &str {
        "llm"
    }

    fn handle(&self, request: &HttpRequest) -> ServiceResponse {
        if request.method != Method::Post {
            return ServiceResponse {
                response: HttpResponse::error(
                    StatusCode::BAD_REQUEST,
                    "LLM endpoint expects POST with the prompt as body",
                ),
                latency: self.latency.latency_for(0),
            };
        }
        let prompt = request.body_str();
        if prompt.trim().is_empty() {
            return ServiceResponse {
                response: HttpResponse::error(StatusCode::BAD_REQUEST, "empty prompt"),
                latency: self.latency.latency_for(0),
            };
        }
        let sql = Self::text_to_sql(&prompt);
        // Mimic a chat-completions-style response: the SQL is wrapped in a
        // fenced code block inside explanatory prose, and the Text2SQL
        // extraction step has to pull it out.
        let body = format!(
            "Here is the SQL query answering your question:\n```sql\n{sql}\n```\nLet me know if you need anything else."
        );
        ServiceResponse {
            latency: self.latency.latency_for(request.body.len() + body.len()),
            response: HttpResponse::ok(body.into_bytes()).with_header("Content-Type", "text/plain"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_produces_fenced_sql() {
        let llm = LlmService::with_latency(LatencyModel::zero());
        let request = HttpRequest::post(
            "http://llm.internal/v1/generate",
            b"Which city in Switzerland has the largest population?".to_vec(),
        );
        let reply = llm.handle(&request);
        assert_eq!(reply.response.status, StatusCode::OK);
        let body = reply.response.body_text();
        assert!(body.contains("```sql\n"));
        assert!(body.contains("FROM cities"));
        assert!(body.contains("country = 'Switzerland'"));
    }

    #[test]
    fn movie_prompts_target_movies_table() {
        let sql = LlmService::text_to_sql("List the best movie of 1994");
        assert!(sql.contains("FROM movies"));
        assert!(sql.contains("ORDER BY rating"));
        let sql = LlmService::text_to_sql("Which films were directed in 2001?");
        assert!(sql.contains("year = 2001"));
    }

    #[test]
    fn translation_is_deterministic() {
        let a = LlmService::text_to_sql("top ten movies");
        let b = LlmService::text_to_sql("top ten movies");
        assert_eq!(a, b);
        assert!(a.contains("LIMIT 10"));
    }

    #[test]
    fn default_latency_matches_paper_measurement() {
        let llm = LlmService::new();
        let request = HttpRequest::post("http://llm.internal/v1/generate", b"hello".to_vec());
        let reply = llm.handle(&request);
        assert_eq!(reply.latency, LatencyModel::LLM.base);
    }

    #[test]
    fn rejects_empty_or_non_post() {
        let llm = LlmService::with_latency(LatencyModel::zero());
        let empty = HttpRequest::post("http://llm.internal/v1/generate", Vec::new());
        assert_eq!(llm.handle(&empty).response.status, StatusCode::BAD_REQUEST);
        let get = HttpRequest::get("http://llm.internal/v1/generate");
        assert_eq!(llm.handle(&get).response.status, StatusCode::BAD_REQUEST);
    }
}
