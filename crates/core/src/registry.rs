//! Registration of functions and compositions.
//!
//! The dispatcher keeps "a registry of all registered composition DAGs,
//! function binaries, and associated metadata" (paper §5). Vertices in a
//! composition resolve to one of three kinds: a user compute function, a
//! platform communication function (currently `HTTP`), or another
//! composition (nesting, paper §4.1).

use std::collections::HashMap;
use std::sync::Arc;

use dandelion_common::{DandelionError, DandelionResult};
use dandelion_dsl::CompositionGraph;
use dandelion_isolation::FunctionArtifact;
use parking_lot::RwLock;

/// The built-in communication functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommunicationKind {
    /// The HTTP communication function (GET/PUT/POST/DELETE over REST).
    Http,
}

impl CommunicationKind {
    /// The vertex name used in compositions.
    pub fn vertex_name(&self) -> &'static str {
        match self {
            CommunicationKind::Http => "HTTP",
        }
    }
}

/// What a composition vertex resolves to.
#[derive(Clone)]
pub enum Vertex {
    /// An untrusted compute function executed in a sandbox.
    Compute(Arc<FunctionArtifact>),
    /// A trusted communication function executed by a communication engine.
    Communication(CommunicationKind),
    /// A nested composition executed as a sub-invocation.
    Composition(Arc<CompositionGraph>),
}

impl std::fmt::Debug for Vertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vertex::Compute(artifact) => write!(f, "Compute({})", artifact.name),
            Vertex::Communication(kind) => write!(f, "Communication({})", kind.vertex_name()),
            Vertex::Composition(graph) => write!(f, "Composition({})", graph.name),
        }
    }
}

/// Thread-safe registry of functions and compositions.
#[derive(Default)]
pub struct Registry {
    functions: RwLock<HashMap<String, Arc<FunctionArtifact>>>,
    compositions: RwLock<HashMap<String, Arc<CompositionGraph>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a compute function.
    ///
    /// Fails if the name collides with an existing function, a composition,
    /// or a built-in communication function.
    pub fn register_function(&self, artifact: FunctionArtifact) -> DandelionResult<()> {
        let name = artifact.name.clone();
        if name == CommunicationKind::Http.vertex_name() {
            return Err(DandelionError::AlreadyRegistered {
                kind: "communication function",
                name,
            });
        }
        if self.compositions.read().contains_key(&name) {
            return Err(DandelionError::AlreadyRegistered {
                kind: "composition",
                name,
            });
        }
        let mut functions = self.functions.write();
        if functions.contains_key(&name) {
            return Err(DandelionError::AlreadyRegistered {
                kind: "function",
                name,
            });
        }
        functions.insert(name, Arc::new(artifact));
        Ok(())
    }

    /// Registers a composition DAG.
    ///
    /// Every vertex referenced by the composition must already resolve
    /// (compute function, communication function, or previously registered
    /// composition); this is where dangling names are caught, mirroring the
    /// paper's registration flow where binaries are uploaded before the DAG.
    pub fn register_composition(&self, graph: CompositionGraph) -> DandelionResult<()> {
        let name = graph.name.clone();
        if self.functions.read().contains_key(&name)
            || name == CommunicationKind::Http.vertex_name()
        {
            return Err(DandelionError::AlreadyRegistered {
                kind: "function",
                name,
            });
        }
        for vertex in graph.referenced_vertices() {
            if vertex == name {
                return Err(DandelionError::Validation(format!(
                    "composition `{name}` cannot invoke itself"
                )));
            }
            if self.resolve(&vertex).is_none() {
                return Err(DandelionError::NotFound {
                    kind: "vertex",
                    name: vertex,
                });
            }
        }
        let mut compositions = self.compositions.write();
        if compositions.contains_key(&name) {
            return Err(DandelionError::AlreadyRegistered {
                kind: "composition",
                name,
            });
        }
        compositions.insert(name, Arc::new(graph));
        Ok(())
    }

    /// Resolves a vertex name to its kind.
    pub fn resolve(&self, name: &str) -> Option<Vertex> {
        if name == CommunicationKind::Http.vertex_name() {
            return Some(Vertex::Communication(CommunicationKind::Http));
        }
        if let Some(artifact) = self.functions.read().get(name) {
            return Some(Vertex::Compute(Arc::clone(artifact)));
        }
        if let Some(graph) = self.compositions.read().get(name) {
            return Some(Vertex::Composition(Arc::clone(graph)));
        }
        None
    }

    /// Looks up a registered composition.
    pub fn composition(&self, name: &str) -> DandelionResult<Arc<CompositionGraph>> {
        self.compositions
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DandelionError::NotFound {
                kind: "composition",
                name: name.to_string(),
            })
    }

    /// Looks up a registered compute function.
    pub fn function(&self, name: &str) -> DandelionResult<Arc<FunctionArtifact>> {
        self.functions
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DandelionError::NotFound {
                kind: "function",
                name: name.to_string(),
            })
    }

    /// Names of all registered compositions, sorted.
    pub fn composition_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.compositions.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of all registered compute functions, sorted.
    pub fn function_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.functions.read().keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("functions", &self.function_names())
            .field("compositions", &self.composition_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_dsl::render_logs_composition;
    use dandelion_isolation::FunctionCtx;

    fn noop(name: &str) -> FunctionArtifact {
        FunctionArtifact::new(name, &["out"], |_ctx: &mut FunctionCtx| Ok(()))
    }

    fn registry_with_log_functions() -> Registry {
        let registry = Registry::new();
        for name in ["Access", "FanOut", "Render"] {
            registry.register_function(noop(name)).unwrap();
        }
        registry
    }

    #[test]
    fn registers_and_resolves_functions() {
        let registry = registry_with_log_functions();
        assert!(matches!(
            registry.resolve("Access"),
            Some(Vertex::Compute(_))
        ));
        assert!(matches!(
            registry.resolve("HTTP"),
            Some(Vertex::Communication(CommunicationKind::Http))
        ));
        assert!(registry.resolve("Unknown").is_none());
        assert_eq!(
            registry.function_names(),
            vec!["Access", "FanOut", "Render"]
        );
    }

    #[test]
    fn duplicate_registrations_are_rejected() {
        let registry = registry_with_log_functions();
        assert!(registry.register_function(noop("Access")).is_err());
        assert!(registry.register_function(noop("HTTP")).is_err());
    }

    #[test]
    fn composition_requires_resolvable_vertices() {
        let registry = Registry::new();
        let err = registry
            .register_composition(render_logs_composition())
            .unwrap_err();
        assert!(matches!(err, DandelionError::NotFound { .. }));

        let registry = registry_with_log_functions();
        registry
            .register_composition(render_logs_composition())
            .unwrap();
        assert!(matches!(
            registry.resolve("RenderLogs"),
            Some(Vertex::Composition(_))
        ));
        assert_eq!(registry.composition_names(), vec!["RenderLogs"]);
        assert!(registry.composition("RenderLogs").is_ok());
        assert!(registry.composition("Nope").is_err());
    }

    #[test]
    fn composition_name_collisions_are_rejected() {
        let registry = registry_with_log_functions();
        registry
            .register_composition(render_logs_composition())
            .unwrap();
        assert!(registry
            .register_composition(render_logs_composition())
            .is_err());
        // A function may not shadow an existing composition either.
        assert!(registry.register_function(noop("RenderLogs")).is_err());
    }

    #[test]
    fn nested_compositions_resolve() {
        use dandelion_dsl::{CompositionBuilder, Distribution};
        let registry = registry_with_log_functions();
        registry
            .register_composition(render_logs_composition())
            .unwrap();
        let outer = CompositionBuilder::new("Outer")
            .input("Token")
            .output("Page")
            .node("RenderLogs", |node| {
                node.bind("AccessToken", Distribution::All, "Token")
                    .publish("Page", "HTMLOutput")
            })
            .build()
            .unwrap();
        registry.register_composition(outer).unwrap();
        assert!(matches!(
            registry.resolve("Outer"),
            Some(Vertex::Composition(_))
        ));
    }
}
