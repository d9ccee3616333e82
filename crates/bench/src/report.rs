//! Report formatting for the experiment harness.

use std::fmt;

/// A plain-text experiment report with optional machine-readable series.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment title (e.g. `"Figure 5: sandbox creation"`).
    pub title: String,
    /// Free-form description of workload and parameters.
    pub setup: String,
    /// Table rows: the first row is treated as the header.
    pub rows: Vec<Vec<String>>,
    /// Comparison notes against the paper's reported numbers.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report with a title and setup description.
    pub fn new(title: &str, setup: &str) -> Self {
        Self {
            title: title.to_string(),
            setup: setup.to_string(),
            ..Self::default()
        }
    }

    /// Adds the header row.
    pub fn header(&mut self, columns: &[&str]) -> &mut Self {
        self.rows
            .insert(0, columns.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Adds a data row.
    pub fn row(&mut self, columns: Vec<String>) -> &mut Self {
        self.rows.push(columns);
        self
    }

    /// Adds a paper-comparison note.
    pub fn note(&mut self, note: &str) -> &mut Self {
        self.notes.push(note.to_string());
        self
    }

    /// Serializes the rows as a JSON array of arrays (used by `reproduce
    /// --json`).
    pub fn rows_json(&self) -> dandelion_common::JsonValue {
        dandelion_common::JsonValue::array(self.rows.iter().map(|row| {
            dandelion_common::JsonValue::array(
                row.iter()
                    .map(|cell| dandelion_common::JsonValue::string(cell.clone())),
            )
        }))
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        writeln!(f, "{}", self.setup)?;
        if !self.rows.is_empty() {
            // Compute column widths for alignment.
            let columns = self.rows.iter().map(Vec::len).max().unwrap_or(0);
            let mut widths = vec![0usize; columns];
            for row in &self.rows {
                for (index, cell) in row.iter().enumerate() {
                    widths[index] = widths[index].max(cell.len());
                }
            }
            for (row_index, row) in self.rows.iter().enumerate() {
                let line: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(index, cell)| format!("{cell:>width$}", width = widths[index]))
                    .collect();
                writeln!(f, "  {}", line.join("  "))?;
                if row_index == 0 {
                    let divider: Vec<String> =
                        widths.iter().map(|width| "-".repeat(*width)).collect();
                    writeln!(f, "  {}", divider.join("  "))?;
                }
            }
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned_table() {
        let mut report = Report::new("Table X", "demo");
        report.header(&["backend", "latency"]);
        report.row(vec!["cheri".into(), "89".into()]);
        report.row(vec!["kvm".into(), "889".into()]);
        report.note("matches Table 1");
        let text = report.to_string();
        assert!(text.contains("=== Table X ==="));
        assert!(text.contains("backend"));
        assert!(text.contains("note: matches Table 1"));
        assert_eq!(report.rows_json().as_array().unwrap().len(), 3);
    }
}
