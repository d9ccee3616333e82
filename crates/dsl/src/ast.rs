//! Abstract syntax tree for the composition DSL.

use std::fmt;

/// How items of a source data set are distributed over instances of the
/// consuming vertex (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// All items are given to a single instance.
    All,
    /// Each item is given to its own instance.
    Each,
    /// Items are grouped by their key; one instance per group.
    Key,
}

impl fmt::Display for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Distribution::All => f.write_str("all"),
            Distribution::Each => f.write_str("each"),
            Distribution::Key => f.write_str("key"),
        }
    }
}

/// One input binding of a statement: `SetName = [optional] <dist> SourceName`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InputBinding {
    /// The input-set name declared by the function.
    pub(crate) set: String,
    /// The composition-level data name the set is fed from.
    pub(crate) source: String,
    /// How the source items are distributed over instances.
    pub(crate) distribution: Distribution,
    /// Whether the function may run even if this set is empty (paper §4.4).
    pub(crate) optional: bool,
}

/// One output binding of a statement: `(PublishedName = OutputSetName)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OutputBinding {
    /// The composition-level name the output set is published under.
    pub(crate) published: String,
    /// The output-set name declared by the function.
    pub(crate) set: String,
}

/// A single statement: one vertex invocation in the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Statement {
    /// The vertex name: a compute function, a communication function
    /// (e.g. `HTTP`), or another composition.
    pub(crate) vertex: String,
    /// Input bindings in declaration order.
    pub(crate) inputs: Vec<InputBinding>,
    /// Output bindings in declaration order.
    pub(crate) outputs: Vec<OutputBinding>,
    /// Source line of the statement, for error messages.
    pub(crate) line: usize,
}

/// A parsed composition before semantic validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionAst {
    /// The composition name.
    pub name: String,
    /// External input data names (provided by the client at invocation).
    pub inputs: Vec<String>,
    /// External output data names (returned to the client).
    pub outputs: Vec<String>,
    /// The statements, in source order.
    pub(crate) statements: Vec<Statement>,
}

impl CompositionAst {
    /// Pretty-prints the composition back into DSL syntax.
    ///
    /// The output is valid DSL that parses back to an equivalent AST, which
    /// the round-trip tests rely on.
    pub fn to_dsl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "composition {}({}) => {} {{\n",
            self.name,
            self.inputs.join(", "),
            self.outputs.join(", ")
        ));
        for statement in &self.statements {
            let inputs = statement
                .inputs
                .iter()
                .map(|binding| {
                    let optional = if binding.optional { "optional " } else { "" };
                    format!(
                        "{} = {}{} {}",
                        binding.set, optional, binding.distribution, binding.source
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let outputs = statement
                .outputs
                .iter()
                .map(|binding| format!("{} = {}", binding.published, binding.set))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {}({}) => ({});\n",
                statement.vertex, inputs, outputs
            ));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_display() {
        assert_eq!(Distribution::All.to_string(), "all");
        assert_eq!(Distribution::Each.to_string(), "each");
        assert_eq!(Distribution::Key.to_string(), "key");
    }

    #[test]
    fn to_dsl_renders_statements() {
        let ast = CompositionAst {
            name: "Demo".into(),
            inputs: vec!["In".into()],
            outputs: vec!["Out".into()],
            statements: vec![Statement {
                vertex: "F".into(),
                inputs: vec![InputBinding {
                    set: "Data".into(),
                    source: "In".into(),
                    distribution: Distribution::Each,
                    optional: true,
                }],
                outputs: vec![OutputBinding {
                    published: "Out".into(),
                    set: "Result".into(),
                }],
                line: 2,
            }],
        };
        let text = ast.to_dsl();
        assert!(text.contains("composition Demo(In) => Out {"));
        assert!(text.contains("F(Data = optional each In) => (Out = Result);"));
    }
}
