//! In-memory spans for the traced layer walk.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, the span that caused it and the request both belong to.
//! Spans stay in memory during the walk and are written out once at the end.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Iteration of the walk; every span of one walked request shares it.
    pub request: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, request: u32, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Ends the span now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON document: a name table plus one
    /// `[id, parent, request, name, start_ns, end_ns]` row per span
    /// (`parent` is -1 for a root). Times are as measured; `dilation[request]`
    /// is the factor that turns a duration of that request into reference
    /// time.
    pub fn write_json<W: Write>(
        &self,
        workload: &str,
        dilation: &[f64],
        out: &mut W,
    ) -> io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        write!(out, "{{\"workload\":\"{workload}\",\"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[")?;
        for (id, span) in self.spans.iter().enumerate() {
            let name = match names.iter().position(|known| *known == span.name) {
                Some(index) => index,
                None => {
                    names.push(span.name);
                    names.len() - 1
                }
            };
            let parent = span.parent.map_or(-1, |parent| parent as i64);
            let comma = if id == 0 { "" } else { "," };
            write!(
                out,
                "{comma}\n[{id},{parent},{},{name},{},{}]",
                span.request, span.start_ns, span.end_ns
            )?;
        }
        let quoted: Vec<String> = names.iter().map(|name| format!("\"{name}\"")).collect();
        let factors: Vec<String> = dilation.iter().map(f64::to_string).collect();
        writeln!(
            out,
            "\n],\"names\":[{}],\"dilation\":[{}]}}",
            quoted.join(","),
            factors.join(",")
        )
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let (low, high) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(low, high), span.end_ns.clamp(low, high));
            children[parent].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let spans = vec![
            span("request", None, 0, 100),
            span("decode", Some(0), 10, 30),
            span("settle", Some(0), 25, 60), // overlaps decode by 5
            span("execute", Some(2), 30, 50),
            span("late", Some(0), 90, 120), // runs past its parent: clipped
        ];
        let own = self_times_ns(&spans);
        // request: 100 - (10..60 = 50) - (90..100 = 10) = 40
        assert_eq!(own, vec![40, 20, 15, 20, 30]);
    }

    #[test]
    fn recorder_orders_times_and_serializes() {
        let mut recorder = Recorder::new();
        let root = recorder.open("request", 3, None);
        let child = recorder.open("decode", 3, Some(root));
        recorder.close(child);
        recorder.close(root);
        let spans = recorder.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        recorder.write_json("matmul1", &[0.9], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let document = dandelion_common::JsonValue::parse(&text).unwrap();
        assert_eq!(document.get("spans").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(document.get("names").unwrap().as_array().unwrap().len(), 2);
    }
}
