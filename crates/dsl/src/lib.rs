//! The Dandelion composition DSL.
//!
//! A Dandelion application ("composition") is a DAG whose vertices are pure
//! compute functions, platform communication functions, or other
//! compositions, and whose edges describe which output set of one vertex
//! feeds which input set of another (paper §4.1). Users describe the DAG with
//! a small domain-specific language; Listing 2 of the paper shows the log
//! processing application:
//!
//! ```text
//! composition RenderLogs(AccessToken) => HTMLOutput {
//!     Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
//!     HTTP(Request = each AuthRequest)      => (AuthResponse = Response);
//!     FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
//!     HTTP(Request = each LogRequests)      => (LogResponses = Response);
//!     Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
//! }
//! ```
//!
//! * Left of `=` inside the parentheses is the *function's* input-set name,
//!   right of the distribution keyword is the *composition-level* data name
//!   it is fed from.
//! * The distribution keyword is one of `all` (all items to one instance),
//!   `each` (one instance per item) or `key` (one instance per key group).
//!   An input set may additionally be marked `optional`, in which case the
//!   function runs even if that set is empty (used for failure handling,
//!   paper §4.4).
//! * Right of `=>` each `(published = OutputSet)` pair publishes a function
//!   output set under a composition-level name.
//!
//! This crate provides:
//!
//! * [`compile`] — DSL text to a validated [`CompositionGraph`], the
//!   executable DAG the dispatcher consumes (lexer, parser, AST and semantic
//!   validation are private to the crate),
//! * [`CompositionBuilder`] — a programmatic builder for constructing graphs
//!   without DSL text.

#![warn(unnameable_types)]

mod ast;
mod builder;
mod graph;
mod lexer;
mod parser;

pub use ast::{CompositionAst, Distribution};
pub use builder::{render_logs_composition, CompositionBuilder, StatementBuilder};
pub use graph::{CompositionGraph, ExternalOutput, GraphNode, InputSource, NodeInput, NodeOutput};

use dandelion_common::DandelionResult;
use parser::parse_composition;

/// Parses and validates a single composition from DSL text.
///
/// This is the convenience entry point used by the platform frontend when a
/// user registers a composition.
pub fn compile(source: &str) -> DandelionResult<CompositionGraph> {
    let ast = parse_composition(source)?;
    CompositionGraph::from_ast(&ast).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example from the paper (Listing 2).
    pub(crate) const RENDER_LOGS: &str = r#"
        composition RenderLogs(AccessToken) => HTMLOutput {
            Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
            HTTP(Request = each AuthRequest) => (AuthResponse = Response);
            FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
            HTTP(Request = each LogRequests) => (LogResponses = Response);
            Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
        }
    "#;

    #[test]
    fn compiles_the_paper_example() {
        let graph = compile(RENDER_LOGS).unwrap();
        assert_eq!(graph.name, "RenderLogs");
        assert_eq!(graph.nodes.len(), 5);
        assert_eq!(graph.external_inputs, vec!["AccessToken"]);
        assert_eq!(graph.external_outputs, vec!["HTMLOutput"]);
        // The second and fourth nodes are the HTTP communication function.
        assert_eq!(graph.nodes[1].vertex, "HTTP");
        assert_eq!(graph.nodes[3].vertex, "HTTP");
        // Topological order is simply 0..n for this linear pipeline.
        assert_eq!(graph.topological_order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn compile_reports_parse_errors_with_location() {
        let err = compile("composition Broken(X => Y { }").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("parse error"), "got: {text}");
    }
}
