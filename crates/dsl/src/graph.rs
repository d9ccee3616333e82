//! Semantic validation and lowering of the AST to an executable DAG.
//!
//! The [`CompositionGraph`] is the structure the dispatcher actually
//! executes: statement order is replaced by explicit data dependencies, every
//! input binding is resolved to either an external input or the output set of
//! another node, and a topological order is precomputed.

use std::collections::{HashMap, HashSet};
use std::fmt;

use dandelion_common::DandelionError;

use crate::ast::{CompositionAst, Distribution};

/// Where a node's input set gets its data from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputSource {
    /// Data provided by the client when invoking the composition.
    External {
        /// The external input name.
        name: String,
    },
    /// An output set of another node in the same composition.
    Node {
        /// Index of the producing node in [`CompositionGraph::nodes`].
        node: usize,
        /// The producing node's output-set name.
        set: String,
    },
}

/// A resolved input binding of a graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInput {
    /// The input-set name as declared by the vertex.
    pub set: String,
    /// Where the data comes from.
    pub source: InputSource,
    /// How items are distributed over instances.
    pub distribution: Distribution,
    /// Whether the vertex runs even when the set is empty.
    pub optional: bool,
}

/// An output binding of a graph node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOutput {
    /// The output-set name as declared by the vertex.
    pub set: String,
    /// The composition-level name the set is published under.
    pub published: String,
}

/// One vertex of the executable DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The node's position in [`CompositionGraph::nodes`].
    pub index: usize,
    /// The vertex name: a registered compute function, communication
    /// function, or nested composition. Resolution happens at registration.
    pub vertex: String,
    /// Resolved input bindings.
    pub inputs: Vec<NodeInput>,
    /// Output bindings.
    pub outputs: Vec<NodeOutput>,
}

impl GraphNode {
    /// Indices of nodes this node consumes data from.
    pub fn dependencies(&self) -> Vec<usize> {
        let mut deps: Vec<usize> = self
            .inputs
            .iter()
            .filter_map(|input| match &input.source {
                InputSource::Node { node, .. } => Some(*node),
                InputSource::External { .. } => None,
            })
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// How many distinct nodes this node consumes data from: the length of
    /// [`GraphNode::dependencies`], counted without building the list.
    pub fn dependency_count(&self) -> usize {
        let producers = || {
            self.inputs.iter().filter_map(|input| match &input.source {
                InputSource::Node { node, .. } => Some(*node),
                InputSource::External { .. } => None,
            })
        };
        producers()
            .enumerate()
            .filter(|&(position, node)| !producers().take(position).any(|earlier| earlier == node))
            .count()
    }

    /// Returns `true` if every input comes from external composition inputs.
    pub fn is_source(&self) -> bool {
        self.inputs
            .iter()
            .all(|input| matches!(input.source, InputSource::External { .. }))
    }
}

/// Binding of an external composition output to the node/set that produces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalOutput {
    /// The composition output name returned to the client.
    pub name: String,
    /// The producing node index.
    pub node: usize,
    /// The producing node's output-set name.
    pub set: String,
}

/// The validated, executable composition DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionGraph {
    /// The composition name.
    pub name: String,
    /// External input names in declaration order.
    pub external_inputs: Vec<String>,
    /// External output names in declaration order.
    pub external_outputs: Vec<String>,
    /// Resolution of external outputs to producing nodes.
    pub output_bindings: Vec<ExternalOutput>,
    /// The DAG nodes in statement order.
    pub nodes: Vec<GraphNode>,
    /// A topological order of node indices (dependencies before dependents).
    pub topological_order: Vec<usize>,
}

/// Errors found while validating a composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ValidationError {
    /// Two external inputs or outputs share a name.
    DuplicateExternalName(String),
    /// Two statements publish the same name, or a published name shadows an
    /// external input.
    DuplicatePublishedName(String),
    /// Two input bindings of a statement use the same set name.
    DuplicateInputSet {
        /// The vertex with the conflict.
        vertex: String,
        /// The duplicated set name.
        set: String,
    },
    /// An input source does not match any external input or published name.
    UnresolvedSource {
        /// The vertex consuming the data.
        vertex: String,
        /// The unresolved source name.
        source: String,
    },
    /// A declared composition output is never published by any statement.
    UnboundOutput(String),
    /// The data dependencies contain a cycle.
    Cycle(Vec<String>),
    /// The composition has no statements.
    Empty,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DuplicateExternalName(name) => {
                write!(f, "duplicate external input/output name `{name}`")
            }
            ValidationError::DuplicatePublishedName(name) => {
                write!(f, "data name `{name}` is produced more than once")
            }
            ValidationError::DuplicateInputSet { vertex, set } => {
                write!(f, "vertex `{vertex}` binds input set `{set}` twice")
            }
            ValidationError::UnresolvedSource { vertex, source } => write!(
                f,
                "vertex `{vertex}` reads `{source}`, which is neither a composition input nor produced by any statement"
            ),
            ValidationError::UnboundOutput(name) => {
                write!(f, "composition output `{name}` is never produced")
            }
            ValidationError::Cycle(names) => {
                write!(f, "data dependencies form a cycle involving: {}", names.join(" -> "))
            }
            ValidationError::Empty => f.write_str("composition has no statements"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl From<ValidationError> for DandelionError {
    fn from(err: ValidationError) -> Self {
        DandelionError::Validation(err.to_string())
    }
}

impl CompositionGraph {
    /// Validates an AST and lowers it into an executable graph.
    pub(crate) fn from_ast(ast: &CompositionAst) -> Result<Self, ValidationError> {
        if ast.statements.is_empty() {
            return Err(ValidationError::Empty);
        }
        // External names must be unique.
        let mut seen = HashSet::new();
        for name in ast.inputs.iter().chain(ast.outputs.iter()) {
            if !seen.insert(name.clone()) {
                return Err(ValidationError::DuplicateExternalName(name.clone()));
            }
        }

        // Map every published name to (node index, output-set name).
        let mut published: HashMap<String, (usize, String)> = HashMap::new();
        for (index, statement) in ast.statements.iter().enumerate() {
            for output in &statement.outputs {
                if ast.inputs.contains(&output.published)
                    || published
                        .insert(output.published.clone(), (index, output.set.clone()))
                        .is_some()
                {
                    return Err(ValidationError::DuplicatePublishedName(
                        output.published.clone(),
                    ));
                }
            }
        }

        // Resolve statement inputs.
        let mut nodes = Vec::with_capacity(ast.statements.len());
        for (index, statement) in ast.statements.iter().enumerate() {
            let mut set_names = HashSet::new();
            let mut inputs = Vec::with_capacity(statement.inputs.len());
            for binding in &statement.inputs {
                if !set_names.insert(binding.set.clone()) {
                    return Err(ValidationError::DuplicateInputSet {
                        vertex: statement.vertex.clone(),
                        set: binding.set.clone(),
                    });
                }
                let source = if ast.inputs.contains(&binding.source) {
                    InputSource::External {
                        name: binding.source.clone(),
                    }
                } else if let Some((node, set)) = published.get(&binding.source) {
                    InputSource::Node {
                        node: *node,
                        set: set.clone(),
                    }
                } else {
                    return Err(ValidationError::UnresolvedSource {
                        vertex: statement.vertex.clone(),
                        source: binding.source.clone(),
                    });
                };
                inputs.push(NodeInput {
                    set: binding.set.clone(),
                    source,
                    distribution: binding.distribution,
                    optional: binding.optional,
                });
            }
            let outputs = statement
                .outputs
                .iter()
                .map(|output| NodeOutput {
                    set: output.set.clone(),
                    published: output.published.clone(),
                })
                .collect();
            nodes.push(GraphNode {
                index,
                vertex: statement.vertex.clone(),
                inputs,
                outputs,
            });
        }

        // Resolve external outputs.
        let mut output_bindings = Vec::with_capacity(ast.outputs.len());
        for name in &ast.outputs {
            match published.get(name) {
                Some((node, set)) => output_bindings.push(ExternalOutput {
                    name: name.clone(),
                    node: *node,
                    set: set.clone(),
                }),
                None => return Err(ValidationError::UnboundOutput(name.clone())),
            }
        }

        let topological_order = topological_sort(&nodes, &ast.statements_names())?;

        Ok(CompositionGraph {
            name: ast.name.clone(),
            external_inputs: ast.inputs.clone(),
            external_outputs: ast.outputs.clone(),
            output_bindings,
            nodes,
            topological_order,
        })
    }

    /// Returns the nodes that consume the given node's output set, together
    /// with the consuming input binding.
    pub fn consumers_of(&self, node: usize, set: &str) -> Vec<(usize, &NodeInput)> {
        let mut consumers = Vec::new();
        for candidate in &self.nodes {
            for input in &candidate.inputs {
                if let InputSource::Node {
                    node: source_node,
                    set: source_set,
                } = &input.source
                {
                    if *source_node == node && source_set == set {
                        consumers.push((candidate.index, input));
                    }
                }
            }
        }
        consumers
    }

    /// Returns the distinct vertex names referenced by this composition.
    pub fn referenced_vertices(&self) -> Vec<String> {
        let mut names: Vec<String> = self.nodes.iter().map(|node| node.vertex.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The number of nodes in the DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the composition has no nodes (never true for
    /// validated graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl CompositionAst {
    fn statements_names(&self) -> Vec<String> {
        self.statements
            .iter()
            .map(|statement| statement.vertex.clone())
            .collect()
    }
}

fn topological_sort(nodes: &[GraphNode], names: &[String]) -> Result<Vec<usize>, ValidationError> {
    let mut in_degree = vec![0usize; nodes.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for node in nodes {
        for dep in node.dependencies() {
            in_degree[node.index] += 1;
            dependents[dep].push(node.index);
        }
    }
    // Kahn's algorithm with a deterministic (index-ordered) ready queue.
    let mut ready: Vec<usize> = (0..nodes.len()).filter(|i| in_degree[*i] == 0).collect();
    ready.sort_unstable();
    let mut order = Vec::with_capacity(nodes.len());
    while let Some(next) = ready.first().copied() {
        ready.remove(0);
        order.push(next);
        for &dependent in &dependents[next] {
            in_degree[dependent] -= 1;
            if in_degree[dependent] == 0 {
                let position = ready.binary_search(&dependent).unwrap_or_else(|e| e);
                ready.insert(position, dependent);
            }
        }
    }
    if order.len() != nodes.len() {
        let cycle: Vec<String> = (0..nodes.len())
            .filter(|i| !order.contains(i))
            .map(|i| names[i].clone())
            .collect();
        return Err(ValidationError::Cycle(cycle));
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_composition;

    fn graph(source: &str) -> Result<CompositionGraph, ValidationError> {
        CompositionGraph::from_ast(&parse_composition(source).unwrap())
    }

    const LOGS: &str = r#"
        composition RenderLogs(AccessToken) => HTMLOutput {
            Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
            HTTP(Request = each AuthRequest) => (AuthResponse = Response);
            FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
            HTTP(Request = each LogRequests) => (LogResponses = Response);
            Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
        }
    "#;

    #[test]
    fn lowers_the_paper_example() {
        let graph = graph(LOGS).unwrap();
        assert_eq!(graph.len(), 5);
        assert!(!graph.is_empty());
        // Node 1 (first HTTP) depends on node 0 (Access).
        assert_eq!(graph.nodes[1].dependencies(), vec![0]);
        assert!(graph.nodes[0].is_source());
        assert!(!graph.nodes[1].is_source());
        // External output binds to the Render node's HTMLOutput set.
        assert_eq!(graph.output_bindings[0].node, 4);
        assert_eq!(graph.output_bindings[0].set, "HTMLOutput");
        // Consumers: Access's HTTPRequest output feeds node 1.
        let consumers = graph.consumers_of(0, "HTTPRequest");
        assert_eq!(consumers.len(), 1);
        assert_eq!(consumers[0].0, 1);
        assert_eq!(consumers[0].1.distribution, Distribution::Each);
        assert_eq!(
            graph.referenced_vertices(),
            vec!["Access", "FanOut", "HTTP", "Render"]
        );
    }

    #[test]
    fn statement_order_does_not_matter() {
        let shuffled = r#"
            composition RenderLogs(AccessToken) => HTMLOutput {
                Render(HTTPResponses = all LogResponses) => (HTMLOutput = HTMLOutput);
                HTTP(Request = each LogRequests) => (LogResponses = Response);
                FanOut(HTTPResponse = all AuthResponse) => (LogRequests = HTTPRequests);
                HTTP(Request = each AuthRequest) => (AuthResponse = Response);
                Access(AccessToken = all AccessToken) => (AuthRequest = HTTPRequest);
            }
        "#;
        let graph = graph(shuffled).unwrap();
        // Topological order must start with the Access statement (index 4).
        assert_eq!(graph.topological_order.first(), Some(&4));
        assert_eq!(graph.topological_order.last(), Some(&0));
    }

    #[test]
    fn detects_unresolved_sources() {
        let err = graph("composition X(A) => B { F(a = all Missing) => (B = Out); }").unwrap_err();
        assert!(matches!(err, ValidationError::UnresolvedSource { .. }));
        assert!(err.to_string().contains("Missing"));
    }

    #[test]
    fn detects_unbound_outputs() {
        let err = graph("composition X(A) => B, C { F(a = all A) => (B = Out); }").unwrap_err();
        assert_eq!(err, ValidationError::UnboundOutput("C".to_string()));
    }

    #[test]
    fn detects_duplicate_published_names() {
        let err = graph(
            "composition X(A) => B { F(a = all A) => (B = Out); G(a = all A) => (B = Out); }",
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::DuplicatePublishedName(_)));
        // Publishing a name that shadows an external input is also rejected.
        let err =
            graph("composition X(A) => B { F(a = all A) => (A = Out, B = Out2); }").unwrap_err();
        assert!(matches!(err, ValidationError::DuplicatePublishedName(_)));
    }

    #[test]
    fn detects_duplicate_external_names_and_input_sets() {
        let err = graph("composition X(A, A) => B { F(a = all A) => (B = Out); }").unwrap_err();
        assert!(matches!(err, ValidationError::DuplicateExternalName(_)));
        let err =
            graph("composition X(A) => B { F(a = all A, a = each A) => (B = Out); }").unwrap_err();
        assert!(matches!(err, ValidationError::DuplicateInputSet { .. }));
    }

    #[test]
    fn detects_cycles() {
        let err = graph(
            r#"composition X(A) => Out {
                F(a = all A, loopback = all H_out) => (F_out = O);
                G(b = all F_out) => (G_out = O);
                H(c = all G_out) => (H_out = O);
                Sink(d = all G_out) => (Out = O);
            }"#,
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::Cycle(_)));
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn rejects_empty_composition() {
        let err = graph("composition X(A) => B { }").unwrap_err();
        assert_eq!(err, ValidationError::Empty);
    }

    #[test]
    fn diamond_dependencies_have_valid_topological_order() {
        let graph = graph(
            r#"composition Diamond(In) => Out {
                Split(data = all In) => (Left = L, Right = R);
                ProcessL(data = each Left) => (LeftDone = O);
                ProcessR(data = each Right) => (RightDone = O);
                Join(l = all LeftDone, r = all RightDone) => (Out = O);
            }"#,
        )
        .unwrap();
        let position = |index: usize| {
            graph
                .topological_order
                .iter()
                .position(|node| *node == index)
                .unwrap()
        };
        assert!(position(0) < position(1));
        assert!(position(0) < position(2));
        assert!(position(1) < position(3));
        assert!(position(2) < position(3));
    }
}
