// The dataflow state machine as it was before per-node dependency counters
// and index-addressed outputs replaced it (`crates/core/src/invocation.rs` at
// 52d2c4f, verbatim below this header, without its unit tests). It is the
// reference the differential property test and the allocation budget compare
// the current `InvocationState` against, and is compiled only into those two
// test binaries.

//! Per-invocation dataflow state.
//!
//! The dispatcher "schedules functions by tracking input/output dependencies
//! and determines when a function is ready to run (i.e., when all its inputs
//! are available)" (paper §5). [`InvocationState`] is that bookkeeping as a
//! pure state machine: the threaded dispatcher and the discrete-event
//! simulator both drive it, so the scheduling semantics — `all`/`each`/`key`
//! distribution, optional sets, skip-on-empty failure handling (§4.4) — are
//! implemented exactly once.

use std::collections::HashMap;
use std::sync::Arc;

use dandelion_common::{DandelionError, DandelionResult, DataSet, InvocationId};
use dandelion_dsl::{CompositionGraph, Distribution, GraphNode, InputSource};

/// One executable instance of a node, with materialized inputs.
#[derive(Debug, Clone)]
pub(crate) struct InstanceSpec {
    /// The node index in the composition graph.
    pub node: usize,
    /// The instance index within the node (0-based).
    pub instance: usize,
    /// The vertex name (compute function, communication function, or nested
    /// composition).
    pub vertex: String,
    /// Materialized input sets, named after the node's declared input sets.
    pub inputs: Vec<DataSet>,
    /// The node's declared output set names, in declaration order.
    pub output_sets: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum NodeStatus {
    /// Waiting for upstream nodes to finish.
    Waiting,
    /// Instances have been handed out; `completed` of `total` finished.
    Running { total: usize, completed: usize },
    /// The node was skipped because a required input set was empty.
    Skipped,
    /// All instances finished and outputs are merged.
    Completed,
}

/// The dataflow state of one composition invocation.
#[derive(Debug)]
pub(crate) struct InvocationState {
    id: InvocationId,
    graph: Arc<CompositionGraph>,
    external_inputs: Vec<DataSet>,
    status: Vec<NodeStatus>,
    /// Merged outputs per node, keyed by output-set name.
    outputs: Vec<HashMap<String, DataSet>>,
    /// Per-node, per-instance partial results while a node is running.
    partial: Vec<Vec<Option<Vec<DataSet>>>>,
    error: Option<DandelionError>,
}

impl InvocationState {
    /// Creates the state for invoking `graph` with the client's inputs.
    ///
    /// Inputs are matched to the composition's external input names by set
    /// name; declared inputs that the client did not provide are treated as
    /// empty sets (which will skip any node that requires them).
    pub(crate) fn new(
        id: InvocationId,
        graph: Arc<CompositionGraph>,
        inputs: Vec<DataSet>,
    ) -> DandelionResult<Self> {
        for provided in &inputs {
            if !graph.external_inputs.contains(&provided.name) {
                return Err(DandelionError::DataLayout(format!(
                    "`{}` is not an input of composition `{}`",
                    provided.name, graph.name
                )));
            }
        }
        let external_inputs = graph
            .external_inputs
            .iter()
            .map(|name| {
                inputs
                    .iter()
                    .find(|set| &set.name == name)
                    .cloned()
                    .unwrap_or_else(|| DataSet::new(name.clone()))
            })
            .collect();
        let node_count = graph.nodes.len();
        Ok(Self {
            id,
            graph,
            external_inputs,
            status: vec![NodeStatus::Waiting; node_count],
            outputs: vec![HashMap::new(); node_count],
            partial: vec![Vec::new(); node_count],
            error: None,
        })
    }

    /// The invocation identifier.
    pub(crate) fn id(&self) -> InvocationId {
        self.id
    }

    /// The composition being executed.
    pub(crate) fn graph(&self) -> &CompositionGraph {
        &self.graph
    }

    /// Returns `true` once every node has completed or been skipped, or an
    /// error occurred.
    pub(crate) fn is_complete(&self) -> bool {
        self.error.is_some()
            || self
                .status
                .iter()
                .all(|status| matches!(status, NodeStatus::Completed | NodeStatus::Skipped))
    }

    /// The error that aborted the invocation, if any.
    pub(crate) fn error(&self) -> Option<&DandelionError> {
        self.error.as_ref()
    }

    /// Records an invocation-fatal error.
    pub(crate) fn fail(&mut self, error: DandelionError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    fn source_data(&self, node: &GraphNode, binding_index: usize) -> Option<DataSet> {
        let binding = &node.inputs[binding_index];
        match &binding.source {
            InputSource::External { name } => self
                .external_inputs
                .iter()
                .find(|set| &set.name == name)
                .cloned(),
            InputSource::Node {
                node: producer,
                set,
            } => match &self.status[*producer] {
                NodeStatus::Completed => Some(
                    self.outputs[*producer]
                        .get(set)
                        .cloned()
                        .unwrap_or_else(|| DataSet::new(set.clone())),
                ),
                NodeStatus::Skipped => Some(DataSet::new(set.clone())),
                _ => None,
            },
        }
    }

    fn dependencies_satisfied(&self, node: &GraphNode) -> bool {
        node.dependencies().iter().all(|dep| {
            matches!(
                self.status[*dep],
                NodeStatus::Completed | NodeStatus::Skipped
            )
        })
    }

    /// Returns the instances that became ready, transitioning their nodes to
    /// the running (or skipped) state.
    ///
    /// Call this after construction and after every completed instance; it
    /// cascades skip decisions through the DAG, so one call may settle
    /// several nodes.
    pub(crate) fn ready_instances(&mut self) -> DandelionResult<Vec<InstanceSpec>> {
        if self.error.is_some() {
            return Ok(Vec::new());
        }
        let mut ready = Vec::new();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for index in 0..self.graph.nodes.len() {
                if self.status[index] != NodeStatus::Waiting {
                    continue;
                }
                let node = self.graph.nodes[index].clone();
                if !self.dependencies_satisfied(&node) {
                    continue;
                }
                // Materialize every input binding.
                let mut sources = Vec::with_capacity(node.inputs.len());
                for binding_index in 0..node.inputs.len() {
                    let Some(data) = self.source_data(&node, binding_index) else {
                        return Err(DandelionError::Dispatch(format!(
                            "node {index} considered ready but an input was unavailable"
                        )));
                    };
                    sources.push(data);
                }
                // Skip the node if any required set is empty (paper §4.4).
                let must_skip = node
                    .inputs
                    .iter()
                    .zip(&sources)
                    .any(|(binding, data)| !binding.optional && data.is_empty());
                if must_skip {
                    self.status[index] = NodeStatus::Skipped;
                    progressed = true;
                    continue;
                }
                let instances = expand_instances(&node, &sources)?;
                if instances.is_empty() {
                    // e.g. an `each` over an empty optional set: nothing to
                    // run, the node completes with empty outputs.
                    self.status[index] = NodeStatus::Completed;
                    self.outputs[index] = node
                        .outputs
                        .iter()
                        .map(|output| (output.set.clone(), DataSet::new(output.set.clone())))
                        .collect();
                    progressed = true;
                    continue;
                }
                let total = instances.len();
                self.partial[index] = vec![None; total];
                self.status[index] = NodeStatus::Running {
                    total,
                    completed: 0,
                };
                let output_sets: Vec<String> = node
                    .outputs
                    .iter()
                    .map(|output| output.set.clone())
                    .collect();
                for (instance_index, inputs) in instances.into_iter().enumerate() {
                    ready.push(InstanceSpec {
                        node: index,
                        instance: instance_index,
                        vertex: node.vertex.clone(),
                        inputs,
                        output_sets: output_sets.clone(),
                    });
                }
                progressed = true;
            }
        }
        Ok(ready)
    }

    /// Records the completion of one instance.
    ///
    /// Returns `true` if this completion finished the node (so the caller
    /// should ask for newly ready instances).
    pub(crate) fn complete_instance(
        &mut self,
        node: usize,
        instance: usize,
        outcome: DandelionResult<Vec<DataSet>>,
    ) -> DandelionResult<bool> {
        if self.error.is_some() {
            return Ok(false);
        }
        let outputs = match outcome {
            Ok(outputs) => outputs,
            Err(error) => {
                self.fail(error.clone());
                return Err(error);
            }
        };
        let NodeStatus::Running { total, completed } = self.status[node].clone() else {
            return Err(DandelionError::Dispatch(format!(
                "completion for node {node} which is not running"
            )));
        };
        let slot = self.partial[node]
            .get_mut(instance)
            .ok_or_else(|| DandelionError::Dispatch(format!("instance {instance} out of range")))?;
        if slot.is_some() {
            return Err(DandelionError::Dispatch(format!(
                "instance {instance} of node {node} completed twice"
            )));
        }
        *slot = Some(outputs);
        let completed = completed + 1;
        if completed < total {
            self.status[node] = NodeStatus::Running { total, completed };
            return Ok(false);
        }
        // Merge instance outputs per declared output set, instance order.
        let graph_node = &self.graph.nodes[node];
        let mut merged: HashMap<String, DataSet> = graph_node
            .outputs
            .iter()
            .map(|output| (output.set.clone(), DataSet::new(output.set.clone())))
            .collect();
        for instance_outputs in self.partial[node].iter().flatten() {
            for set in instance_outputs {
                if let Some(target) = merged.get_mut(&set.name) {
                    target.items.extend(set.items.iter().cloned());
                }
            }
        }
        self.outputs[node] = merged;
        self.partial[node].clear();
        self.status[node] = NodeStatus::Completed;
        Ok(true)
    }

    /// Assembles the composition's external outputs once complete.
    pub(crate) fn external_outputs(&self) -> DandelionResult<Vec<DataSet>> {
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        if !self.is_complete() {
            return Err(DandelionError::Dispatch(
                "invocation is not complete yet".to_string(),
            ));
        }
        let mut outputs = Vec::with_capacity(self.graph.output_bindings.len());
        for binding in &self.graph.output_bindings {
            let mut set = self.outputs[binding.node]
                .get(&binding.set)
                .cloned()
                .unwrap_or_else(|| DataSet::new(binding.set.clone()));
            set.name = binding.name.clone();
            outputs.push(set);
        }
        Ok(outputs)
    }
}

/// Expands a node's materialized source sets into per-instance input sets
/// according to the distribution keywords.
fn expand_instances(node: &GraphNode, sources: &[DataSet]) -> DandelionResult<Vec<Vec<DataSet>>> {
    let fanout_bindings: Vec<usize> = node
        .inputs
        .iter()
        .enumerate()
        .filter(|(_, binding)| binding.distribution != Distribution::All)
        .map(|(index, _)| index)
        .collect();
    if fanout_bindings.len() > 1 {
        return Err(DandelionError::Validation(format!(
            "vertex `{}` uses more than one `each`/`key` input, which is not supported",
            node.vertex
        )));
    }

    // Rename each source set to the function-facing input set name.
    let renamed: Vec<DataSet> = node
        .inputs
        .iter()
        .zip(sources)
        .map(|(binding, data)| DataSet {
            name: binding.set.clone(),
            items: data.items.clone(),
        })
        .collect();

    let Some(&fanout_index) = fanout_bindings.first() else {
        // All bindings are `all`: one instance receives everything.
        return Ok(vec![renamed]);
    };

    let binding = &node.inputs[fanout_index];
    let fanout_set = &renamed[fanout_index];
    let mut instances = Vec::new();
    match binding.distribution {
        Distribution::Each => {
            for item in &fanout_set.items {
                let mut inputs = renamed.clone();
                inputs[fanout_index] = DataSet {
                    name: binding.set.clone(),
                    items: vec![item.clone()],
                };
                instances.push(inputs);
            }
        }
        Distribution::Key => {
            for (_, items) in fanout_set.group_by_key() {
                let mut inputs = renamed.clone();
                inputs[fanout_index] = DataSet {
                    name: binding.set.clone(),
                    items,
                };
                instances.push(inputs);
            }
        }
        Distribution::All => unreachable!("all-bindings are handled above"),
    }
    Ok(instances)
}
