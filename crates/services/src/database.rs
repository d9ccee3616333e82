//! A small SQL-over-HTTP database service.
//!
//! The Text2SQL workflow issues the generated SQL to a SQLite database over
//! HTTP (§7.7, step 4, measured at 136 ms). This service provides a tiny
//! in-memory relational store with just enough SQL to run the workflow:
//! `SELECT <cols|*> FROM <table> [WHERE col = <value> [AND ...]]
//! [ORDER BY col [DESC]] [LIMIT n]`. Results are returned as CSV.

use std::collections::BTreeMap;

use dandelion_http::{HttpRequest, HttpResponse, Method, StatusCode};
use parking_lot::RwLock;

use crate::latency::LatencyModel;
use crate::registry::{RemoteService, ServiceResponse};

/// A cell value: text or number.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Text value.
    Text(String),
    /// Numeric value (stored as f64, printed without trailing zeros).
    Number(f64),
}

impl Value {
    fn render(&self) -> String {
        match self {
            Value::Text(text) => text.clone(),
            Value::Number(number) => {
                if number.fract() == 0.0 {
                    format!("{}", *number as i64)
                } else {
                    format!("{number}")
                }
            }
        }
    }

    fn matches_literal(&self, literal: &str) -> bool {
        match self {
            Value::Text(text) => text.eq_ignore_ascii_case(literal.trim_matches('\'')),
            Value::Number(number) => literal
                .trim_matches('\'')
                .parse::<f64>()
                .map(|parsed| (parsed - number).abs() < f64::EPSILON)
                .unwrap_or(false),
        }
    }

    fn sort_key(&self) -> f64 {
        match self {
            Value::Number(number) => *number,
            Value::Text(_) => 0.0,
        }
    }
}

/// A table: column names plus rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column names in declaration order.
    pub columns: Vec<String>,
    /// Row values, each the same length as `columns`.
    pub rows: Vec<Vec<Value>>,
}

/// The in-memory SQL database service.
pub struct SqlDatabaseService {
    tables: RwLock<BTreeMap<String, Table>>,
    latency: LatencyModel,
}

impl SqlDatabaseService {
    /// Creates an empty database with the paper's measured query latency.
    pub fn new() -> Self {
        Self {
            tables: RwLock::new(BTreeMap::new()),
            latency: LatencyModel::SQL_DATABASE,
        }
    }

    /// Creates a database with a custom latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            tables: RwLock::new(BTreeMap::new()),
            latency,
        }
    }

    /// Creates the demo database used by the Text2SQL example (movies and
    /// cities tables).
    pub fn with_demo_data(self) -> Self {
        let movies = Table {
            columns: vec![
                "title".into(),
                "director".into(),
                "year".into(),
                "rating".into(),
            ],
            rows: vec![
                vec![
                    Value::Text("The Shawshank Redemption".into()),
                    Value::Text("Frank Darabont".into()),
                    Value::Number(1994.0),
                    Value::Number(9.3),
                ],
                vec![
                    Value::Text("Pulp Fiction".into()),
                    Value::Text("Quentin Tarantino".into()),
                    Value::Number(1994.0),
                    Value::Number(8.9),
                ],
                vec![
                    Value::Text("Spirited Away".into()),
                    Value::Text("Hayao Miyazaki".into()),
                    Value::Number(2001.0),
                    Value::Number(8.6),
                ],
                vec![
                    Value::Text("The Dark Knight".into()),
                    Value::Text("Christopher Nolan".into()),
                    Value::Number(2008.0),
                    Value::Number(9.0),
                ],
            ],
        };
        let cities = Table {
            columns: vec!["name".into(), "country".into(), "population".into()],
            rows: vec![
                vec![
                    Value::Text("Zurich".into()),
                    Value::Text("Switzerland".into()),
                    Value::Number(434_335.0),
                ],
                vec![
                    Value::Text("Geneva".into()),
                    Value::Text("Switzerland".into()),
                    Value::Number(203_856.0),
                ],
                vec![
                    Value::Text("Berlin".into()),
                    Value::Text("Germany".into()),
                    Value::Number(3_769_495.0),
                ],
                vec![
                    Value::Text("Tokyo".into()),
                    Value::Text("Japan".into()),
                    Value::Number(13_960_000.0),
                ],
            ],
        };
        self.register_table("movies", movies);
        self.register_table("cities", cities);
        self
    }

    /// Registers (or replaces) a table.
    pub fn register_table(&self, name: &str, table: Table) {
        self.tables.write().insert(name.to_string(), table);
    }

    /// Executes a limited SELECT statement, returning CSV (header + rows).
    pub fn query(&self, sql: &str) -> Result<String, String> {
        let normalized = sql.trim().trim_end_matches(';').to_string();
        let lower = normalized.to_lowercase();
        if !lower.starts_with("select ") {
            return Err("only SELECT statements are supported".to_string());
        }
        let from_index = lower.find(" from ").ok_or("missing FROM clause")?;
        let column_spec = normalized["select ".len()..from_index].trim().to_string();
        let after_from = &normalized[from_index + " from ".len()..];
        let after_from_lower = after_from.to_lowercase();

        // Split off LIMIT, ORDER BY and WHERE (in reverse clause order).
        let (rest, limit) = match after_from_lower.rfind(" limit ") {
            Some(index) => {
                let limit: usize = after_from[index + 7..]
                    .trim()
                    .parse()
                    .map_err(|_| "invalid LIMIT".to_string())?;
                (&after_from[..index], Some(limit))
            }
            None => (after_from, None),
        };
        let rest_lower = rest.to_lowercase();
        let (rest, order_by) = match rest_lower.rfind(" order by ") {
            Some(index) => {
                let clause = rest[index + 10..].trim();
                let descending = clause.to_lowercase().ends_with(" desc");
                let column = clause
                    .to_lowercase()
                    .trim_end_matches(" desc")
                    .trim_end_matches(" asc")
                    .trim()
                    .to_string();
                (&rest[..index], Some((column, descending)))
            }
            None => (rest, None),
        };
        let rest_lower = rest.to_lowercase();
        let (table_part, where_clause) = match rest_lower.find(" where ") {
            Some(index) => (&rest[..index], Some(rest[index + 7..].to_string())),
            None => (rest, None),
        };
        let table_name = table_part.trim().to_lowercase();

        let tables = self.tables.read();
        let table = tables
            .get(&table_name)
            .ok_or_else(|| format!("unknown table `{table_name}`"))?;

        // Resolve projection columns.
        let selected: Vec<usize> = if column_spec.trim() == "*" {
            (0..table.columns.len()).collect()
        } else {
            column_spec
                .split(',')
                .map(|column| {
                    let name = column.trim().to_lowercase();
                    table
                        .columns
                        .iter()
                        .position(|c| c.to_lowercase() == name)
                        .ok_or_else(|| format!("unknown column `{name}`"))
                })
                .collect::<Result<Vec<_>, _>>()?
        };

        // Parse WHERE into (column index, literal) conjunctions.
        let mut predicates = Vec::new();
        if let Some(clause) = where_clause {
            for conjunct in clause.to_lowercase().split(" and ") {
                let (column, literal) = conjunct
                    .split_once('=')
                    .ok_or("only equality predicates are supported")?;
                let index = table
                    .columns
                    .iter()
                    .position(|c| c.to_lowercase() == column.trim())
                    .ok_or_else(|| format!("unknown column `{}`", column.trim()))?;
                predicates.push((index, literal.trim().to_string()));
            }
        }

        let mut rows: Vec<&Vec<Value>> = table
            .rows
            .iter()
            .filter(|row| {
                predicates
                    .iter()
                    .all(|(index, literal)| row[*index].matches_literal(literal))
            })
            .collect();

        if let Some((column, descending)) = order_by {
            let index = table
                .columns
                .iter()
                .position(|c| c.to_lowercase() == column)
                .ok_or_else(|| format!("unknown column `{column}`"))?;
            rows.sort_by(|a, b| {
                a[index]
                    .sort_key()
                    .partial_cmp(&b[index].sort_key())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if descending {
                rows.reverse();
            }
        }
        if let Some(limit) = limit {
            rows.truncate(limit);
        }

        let header = selected
            .iter()
            .map(|index| table.columns[*index].clone())
            .collect::<Vec<_>>()
            .join(",");
        let mut out = header;
        for row in rows {
            out.push('\n');
            out.push_str(
                &selected
                    .iter()
                    .map(|index| row[*index].render())
                    .collect::<Vec<_>>()
                    .join(","),
            );
        }
        Ok(out)
    }
}

impl Default for SqlDatabaseService {
    fn default() -> Self {
        Self::new()
    }
}

impl RemoteService for SqlDatabaseService {
    fn name(&self) -> &str {
        "sql-database"
    }

    fn handle(&self, request: &HttpRequest) -> ServiceResponse {
        if request.method != Method::Post {
            return ServiceResponse {
                response: HttpResponse::error(
                    StatusCode::BAD_REQUEST,
                    "database expects POST with the SQL statement as body",
                ),
                latency: self.latency.latency_for(0),
            };
        }
        let sql = request.body_str();
        match self.query(&sql) {
            Ok(csv) => ServiceResponse {
                latency: self.latency.latency_for(request.body.len() + csv.len()),
                response: HttpResponse::ok(csv.into_bytes())
                    .with_header("Content-Type", "text/csv"),
            },
            Err(message) => ServiceResponse {
                latency: self.latency.latency_for(request.body.len()),
                response: HttpResponse::error(StatusCode::BAD_REQUEST, &message),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> SqlDatabaseService {
        SqlDatabaseService::with_latency(LatencyModel::zero()).with_demo_data()
    }

    #[test]
    fn select_star_returns_all_rows() {
        let csv = db().query("SELECT * FROM movies").unwrap();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("title,director,year,rating"));
    }

    #[test]
    fn where_order_by_and_limit() {
        let csv = db()
            .query("SELECT name FROM cities WHERE country = 'Switzerland' ORDER BY population DESC LIMIT 1")
            .unwrap();
        assert_eq!(csv, "name\nZurich");
    }

    #[test]
    fn numeric_equality_predicates() {
        let csv = db()
            .query("SELECT title FROM movies WHERE year = 1994 ORDER BY rating DESC")
            .unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines,
            vec!["title", "The Shawshank Redemption", "Pulp Fiction"]
        );
    }

    #[test]
    fn errors_for_unknown_tables_and_columns() {
        assert!(db().query("SELECT * FROM unknown").is_err());
        assert!(db().query("SELECT nope FROM movies").is_err());
        assert!(db().query("DROP TABLE movies").is_err());
        assert!(db().query("SELECT * FROM movies WHERE rating > 9").is_err());
    }

    #[test]
    fn http_interface_returns_csv() {
        let service = db();
        let request = HttpRequest::post(
            "http://db.internal/query",
            b"SELECT title FROM movies ORDER BY rating DESC LIMIT 1".to_vec(),
        );
        let reply = service.handle(&request);
        assert_eq!(reply.response.status, StatusCode::OK);
        assert_eq!(
            reply.response.body_text(),
            "title\nThe Shawshank Redemption"
        );
        let bad = HttpRequest::post("http://db.internal/query", b"DELETE FROM movies".to_vec());
        assert_eq!(
            service.handle(&bad).response.status,
            StatusCode::BAD_REQUEST
        );
        let get = HttpRequest::get("http://db.internal/query");
        assert_eq!(
            service.handle(&get).response.status,
            StatusCode::BAD_REQUEST
        );
    }
}
