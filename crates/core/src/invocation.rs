//! Per-invocation dataflow state.
//!
//! The dispatcher "schedules functions by tracking input/output dependencies
//! and determines when a function is ready to run (i.e., when all its inputs
//! are available)" (paper §5). [`InvocationState`] is that bookkeeping as a
//! pure state machine with one user, [`crate::dispatcher`]: the scheduling
//! semantics — `all`/`each`/`key` distribution, optional sets, skip-on-empty
//! failure handling (§4.4) — live here and nowhere else.
//!
//! The state addresses data by position: a node counts the producers it
//! still waits for, its merged outputs sit in a list indexed like the
//! node's declared outputs, and names are read from the shared
//! [`CompositionGraph`], never copied per invocation.

use std::collections::BTreeMap;
use std::sync::Arc;

use dandelion_common::{DandelionError, DandelionResult, DataItem, DataSet, InvocationId};
use dandelion_dsl::{
    CompositionGraph, Distribution, GraphNode, InputSource, NodeInput, NodeOutput,
};

/// One executable instance of a node, with materialized inputs. The vertex
/// name and the output sets are lent from the invocation's graph.
#[derive(Debug)]
pub struct InstanceSpec<'g> {
    /// The node index in the composition graph.
    pub node: usize,
    /// The instance index within the node (0-based).
    pub instance: usize,
    /// The vertex name (compute function, communication function, or nested
    /// composition).
    pub vertex: &'g str,
    /// Materialized input sets, named after the node's declared input sets.
    pub inputs: Vec<DataSet>,
    /// The node's declared outputs, in declaration order.
    pub output_sets: &'g [NodeOutput],
}

/// What [`InvocationState::complete_instance`] did with a completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceCompletion {
    /// This instance had already completed; nothing was applied. A supervised
    /// engine retry can deliver a result for an instance that settled just
    /// before the original engine died — the caller drops it.
    Duplicate,
    /// Applied; other instances of the node are still running.
    Pending,
    /// Applied, and it finished the node: ask for newly ready instances.
    NodeFinished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeStatus {
    /// Waiting for upstream nodes to finish.
    Waiting,
    /// Instances have been handed out and not all of them finished.
    Running,
    /// The node was skipped because a required input set was empty.
    Skipped,
    /// All instances finished and outputs are merged.
    Completed,
}

#[derive(Debug)]
struct NodeState {
    status: NodeStatus,
    /// Distinct producer nodes that have neither completed nor been skipped.
    pending: usize,
    /// Instances handed out when the node started running.
    instances: usize,
    /// Instances that completed so far.
    finished: usize,
    /// Merged output items, indexed like the node's declared outputs; empty
    /// until the node completes.
    outputs: Vec<Vec<DataItem>>,
    /// Per-instance results while the node is running.
    partial: Vec<Option<Vec<DataSet>>>,
}

/// The dataflow state of one composition invocation.
#[derive(Debug)]
pub struct InvocationState {
    id: InvocationId,
    graph: Arc<CompositionGraph>,
    /// The client's items, indexed like the graph's external inputs.
    external_inputs: Vec<Vec<DataItem>>,
    nodes: Vec<NodeState>,
    /// Nodes that have neither completed nor been skipped.
    unsettled: usize,
    error: Option<DandelionError>,
}

impl InvocationState {
    /// Creates the state for invoking `graph` with the client's inputs.
    ///
    /// Inputs are matched to the composition's external input names by set
    /// name; declared inputs that the client did not provide are treated as
    /// empty sets (which will skip any node that requires them).
    pub fn new(
        id: InvocationId,
        graph: Arc<CompositionGraph>,
        mut inputs: Vec<DataSet>,
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
                    .iter_mut()
                    .find(|set| &set.name == name)
                    .map(|set| std::mem::take(&mut set.items))
                    .unwrap_or_default()
            })
            .collect();
        let nodes: Vec<NodeState> = graph
            .nodes
            .iter()
            .map(|node| NodeState {
                status: NodeStatus::Waiting,
                pending: node.dependencies().len(),
                instances: 0,
                finished: 0,
                outputs: Vec::new(),
                partial: Vec::new(),
            })
            .collect();
        Ok(Self {
            id,
            unsettled: nodes.len(),
            graph,
            external_inputs,
            nodes,
            error: None,
        })
    }

    /// The invocation identifier.
    pub fn id(&self) -> InvocationId {
        self.id
    }

    /// The composition being executed.
    pub fn graph(&self) -> &CompositionGraph {
        &self.graph
    }

    /// Returns `true` once every node has completed or been skipped, or an
    /// error occurred.
    pub fn is_complete(&self) -> bool {
        self.error.is_some() || self.unsettled == 0
    }

    /// The error that aborted the invocation, if any.
    pub fn error(&self) -> Option<&DandelionError> {
        self.error.as_ref()
    }

    /// Records an invocation-fatal error.
    pub fn fail(&mut self, error: DandelionError) {
        if self.error.is_none() {
            self.error = Some(error);
        }
    }

    /// Returns the instances that became ready, transitioning their nodes to
    /// the running (or skipped) state.
    ///
    /// Call this after construction and after every completed instance; it
    /// cascades skip decisions through the DAG, so one call may settle
    /// several nodes.
    pub fn ready_instances(&mut self) -> DandelionResult<Vec<InstanceSpec<'_>>> {
        let mut ready = Vec::new();
        if self.error.is_some() {
            return Ok(ready);
        }
        let graph: &CompositionGraph = &self.graph;
        // Settling a node can release nodes before it in index order, so
        // sweep until a pass releases nothing. A sweep reads two integers per
        // node; only a node whose last producer settled is looked at.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (index, node) in graph.nodes.iter().enumerate() {
                let state = &self.nodes[index];
                if state.status != NodeStatus::Waiting || state.pending > 0 {
                    continue;
                }
                progressed = true;
                let instances = node_instances(graph, &self.external_inputs, &self.nodes, index)?;
                let state = &mut self.nodes[index];
                match instances {
                    Some(instances) if !instances.is_empty() => {
                        state.status = NodeStatus::Running;
                        state.instances = instances.len();
                        state.partial = vec![None; instances.len()];
                        ready.extend(instances.into_iter().enumerate().map(
                            |(instance, inputs)| InstanceSpec {
                                node: index,
                                instance,
                                vertex: &node.vertex,
                                inputs,
                                output_sets: &node.outputs,
                            },
                        ));
                    }
                    // Nothing to run: the node is skipped, or — e.g. an `each`
                    // over an empty optional set — completes with empty
                    // outputs. Either way its consumers stop waiting for it.
                    settled => {
                        state.status = match settled {
                            Some(_) => NodeStatus::Completed,
                            None => NodeStatus::Skipped,
                        };
                        self.unsettled -= 1;
                        release_consumers(graph, &mut self.nodes, index);
                    }
                }
            }
        }
        Ok(ready)
    }

    /// Records the completion of one instance and says what it amounted to:
    /// a duplicate (dropped), one more instance of a running node, or the
    /// completion that finished the node.
    pub fn complete_instance(
        &mut self,
        node: usize,
        instance: usize,
        outcome: DandelionResult<Vec<DataSet>>,
    ) -> DandelionResult<InstanceCompletion> {
        let already_applied = self
            .nodes
            .get(node)
            .is_some_and(|state| match state.status {
                NodeStatus::Running => matches!(state.partial.get(instance), Some(Some(_))),
                NodeStatus::Completed => instance < state.instances,
                NodeStatus::Waiting | NodeStatus::Skipped => false,
            });
        if already_applied {
            return Ok(InstanceCompletion::Duplicate);
        }
        if self.error.is_some() {
            return Ok(InstanceCompletion::Pending);
        }
        let outputs = match outcome {
            Ok(outputs) => outputs,
            Err(error) => {
                self.fail(error.clone());
                return Err(error);
            }
        };
        let state = self
            .nodes
            .get_mut(node)
            .filter(|state| state.status == NodeStatus::Running)
            .ok_or_else(|| {
                DandelionError::Dispatch(format!("completion for node {node} which is not running"))
            })?;
        let slot = state
            .partial
            .get_mut(instance)
            .ok_or_else(|| DandelionError::Dispatch(format!("instance {instance} out of range")))?;
        *slot = Some(outputs);
        state.finished += 1;
        if state.finished < state.instances {
            return Ok(InstanceCompletion::Pending);
        }
        // Merge instance outputs per declared output set, instance order.
        // The items move; a set no instance appended to before is taken whole.
        let declared = &self.graph.nodes[node].outputs;
        let mut merged = vec![Vec::new(); declared.len()];
        for set in std::mem::take(&mut state.partial)
            .into_iter()
            .flatten()
            .flatten()
        {
            if let Some(position) = declared.iter().position(|output| output.set == set.name) {
                let target: &mut Vec<DataItem> = &mut merged[position];
                if target.is_empty() {
                    *target = set.items;
                } else {
                    target.extend(set.items);
                }
            }
        }
        state.outputs = merged;
        state.status = NodeStatus::Completed;
        self.unsettled -= 1;
        release_consumers(&self.graph, &mut self.nodes, node);
        Ok(InstanceCompletion::NodeFinished)
    }

    /// Assembles the composition's external outputs once complete.
    pub fn external_outputs(&self) -> DandelionResult<Vec<DataSet>> {
        if let Some(error) = &self.error {
            return Err(error.clone());
        }
        if !self.is_complete() {
            return Err(DandelionError::Dispatch(
                "invocation is not complete yet".to_string(),
            ));
        }
        Ok(self
            .graph
            .output_bindings
            .iter()
            .map(|binding| DataSet {
                name: binding.name.clone(),
                items: produced_items(&self.graph, &self.nodes, binding.node, &binding.set)
                    .to_vec(),
            })
            .collect())
    }
}

/// Tells every waiting consumer of `settled` that it has one producer less
/// to wait for.
fn release_consumers(graph: &CompositionGraph, nodes: &mut [NodeState], settled: usize) {
    for (node, state) in graph.nodes.iter().zip(nodes) {
        let consumes = node.inputs.iter().any(
            |binding| matches!(&binding.source, InputSource::Node { node, .. } if *node == settled),
        );
        if consumes && state.status == NodeStatus::Waiting {
            state.pending -= 1;
        }
    }
}

/// The merged items `producer` published as `set` (none if it was skipped or
/// declares no such set).
fn produced_items<'a>(
    graph: &CompositionGraph,
    nodes: &'a [NodeState],
    producer: usize,
    set: &str,
) -> &'a [DataItem] {
    graph.nodes[producer]
        .outputs
        .iter()
        .position(|output| output.set == set)
        .and_then(|position| nodes[producer].outputs.get(position))
        .map_or(&[], Vec::as_slice)
}

/// The items a binding of a ready node reads; `None` if the binding names an
/// external input the graph does not declare.
fn source_items<'a>(
    graph: &CompositionGraph,
    external_inputs: &'a [Vec<DataItem>],
    nodes: &'a [NodeState],
    binding: &NodeInput,
) -> Option<&'a [DataItem]> {
    match &binding.source {
        InputSource::External { name } => graph
            .external_inputs
            .iter()
            .position(|declared| declared == name)
            .map(|position| external_inputs[position].as_slice()),
        InputSource::Node { node, set } => Some(produced_items(graph, nodes, *node, set)),
    }
}

/// The per-instance input sets of a node whose producers have all settled,
/// or `None` if the node must be skipped because a required set is empty
/// (paper §4.4).
fn node_instances(
    graph: &CompositionGraph,
    external_inputs: &[Vec<DataItem>],
    nodes: &[NodeState],
    index: usize,
) -> DandelionResult<Option<Vec<Vec<DataSet>>>> {
    let node = &graph.nodes[index];
    let mut sources = Vec::with_capacity(node.inputs.len());
    for binding in &node.inputs {
        let Some(items) = source_items(graph, external_inputs, nodes, binding) else {
            return Err(DandelionError::Dispatch(format!(
                "node {index} considered ready but an input was unavailable"
            )));
        };
        sources.push(items);
    }
    let must_skip = node
        .inputs
        .iter()
        .zip(&sources)
        .any(|(binding, items)| !binding.optional && items.is_empty());
    if must_skip {
        return Ok(None);
    }
    expand_instances(node, &sources).map(Some)
}

/// Expands a node's source items into per-instance input sets according to
/// the distribution keywords, each set renamed to the function-facing input
/// set name.
fn expand_instances(
    node: &GraphNode,
    sources: &[&[DataItem]],
) -> DandelionResult<Vec<Vec<DataSet>>> {
    let mut fanout_bindings = node
        .inputs
        .iter()
        .enumerate()
        .filter(|(_, binding)| binding.distribution != Distribution::All);
    let fanout = fanout_bindings.next();
    if fanout_bindings.next().is_some() {
        return Err(DandelionError::Validation(format!(
            "vertex `{}` uses more than one `each`/`key` input, which is not supported",
            node.vertex
        )));
    }
    // One instance's inputs: every binding gets all of its source's items,
    // except the fan-out binding, which gets `share`.
    let inputs_with = |mut share: Option<(usize, Vec<DataItem>)>| -> Vec<DataSet> {
        node.inputs
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(position, (binding, items))| DataSet {
                name: binding.set.clone(),
                items: match &mut share {
                    Some((fanout, share)) if *fanout == position => std::mem::take(share),
                    _ => items.to_vec(),
                },
            })
            .collect()
    };
    let Some((position, binding)) = fanout else {
        // All bindings are `all`: one instance receives everything.
        return Ok(vec![inputs_with(None)]);
    };
    Ok(match binding.distribution {
        Distribution::Each => sources[position]
            .iter()
            .map(|item| inputs_with(Some((position, vec![item.clone()]))))
            .collect(),
        Distribution::Key => {
            // Items without a key are grouped under the empty string; groups
            // are ordered by key so that scheduling is deterministic.
            let mut groups: BTreeMap<&str, Vec<DataItem>> = BTreeMap::new();
            for item in sources[position] {
                groups
                    .entry(item.key.as_deref().unwrap_or_default())
                    .or_default()
                    .push(item.clone());
            }
            groups
                .into_values()
                .map(|items| inputs_with(Some((position, items))))
                .collect()
        }
        Distribution::All => unreachable!("all-bindings are handled above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dandelion_common::DataItem;
    use dandelion_dsl::render_logs_composition;
    use dandelion_dsl::{CompositionBuilder, Distribution};

    fn invocation(graph: CompositionGraph, inputs: Vec<DataSet>) -> InvocationState {
        InvocationState::new(InvocationId::next(), Arc::new(graph), inputs).unwrap()
    }

    #[test]
    fn linear_pipeline_runs_node_by_node() {
        let mut state = invocation(
            render_logs_composition(),
            vec![DataSet::single("AccessToken", b"token".to_vec())],
        );
        // First only the Access node is ready.
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].vertex, "Access");
        assert_eq!(ready[0].inputs[0].name, "AccessToken");
        assert!(!state.is_complete());

        // Completing Access readies the first HTTP node with `each` fan-out.
        let finished = state
            .complete_instance(
                0,
                0,
                Ok(vec![DataSet::with_items(
                    "HTTPRequest",
                    vec![DataItem::new(
                        "req",
                        b"GET http://auth/ HTTP/1.1\r\n\r\n".to_vec(),
                    )],
                )]),
            )
            .unwrap();
        assert_eq!(finished, InstanceCompletion::NodeFinished);
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].vertex, "HTTP");
        let output_sets: Vec<&str> = ready[0]
            .output_sets
            .iter()
            .map(|output| output.set.as_str())
            .collect();
        assert_eq!(output_sets, vec!["Response"]);
    }

    #[test]
    fn each_distribution_creates_one_instance_per_item() {
        let graph = CompositionBuilder::new("Fan")
            .input("Items")
            .output("Out")
            .node("Work", |node| {
                node.bind("item", Distribution::Each, "Items")
                    .publish("Out", "result")
            })
            .build()
            .unwrap();
        let mut state = invocation(
            graph,
            vec![DataSet::with_items(
                "Items",
                vec![
                    DataItem::new("a", vec![1]),
                    DataItem::new("b", vec![2]),
                    DataItem::new("c", vec![3]),
                ],
            )],
        );
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 3);
        assert!(ready.iter().all(|spec| spec.inputs[0].len() == 1));
        // Completing out of order still merges in instance order.
        let handed_out: Vec<(usize, usize)> = ready
            .iter()
            .map(|spec| (spec.node, spec.instance))
            .collect();
        for (node, instance) in handed_out.into_iter().rev() {
            state
                .complete_instance(
                    node,
                    instance,
                    Ok(vec![DataSet::with_items(
                        "result",
                        vec![DataItem::new(format!("r{instance}"), vec![instance as u8])],
                    )]),
                )
                .unwrap();
        }
        assert!(state.is_complete());
        let outputs = state.external_outputs().unwrap();
        assert_eq!(outputs[0].name, "Out");
        let order: Vec<u8> = outputs[0].items.iter().map(|item| item.data[0]).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn key_distribution_groups_items() {
        let graph = CompositionBuilder::new("Grouped")
            .input("Parts")
            .output("Out")
            .node("Reduce", |node| {
                node.bind("group", Distribution::Key, "Parts")
                    .publish("Out", "result")
            })
            .build()
            .unwrap();
        let mut state = invocation(
            graph,
            vec![DataSet::with_items(
                "Parts",
                vec![
                    DataItem::with_key("a", "k1", vec![1]),
                    DataItem::with_key("b", "k2", vec![2]),
                    DataItem::with_key("c", "k1", vec![3]),
                ],
            )],
        );
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 2);
        let sizes: Vec<usize> = ready.iter().map(|spec| spec.inputs[0].len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn empty_required_input_skips_node_and_cascades() {
        let mut state = invocation(render_logs_composition(), vec![DataSet::new("AccessToken")]);
        // The Access node requires a token item; with none, everything skips.
        let ready = state.ready_instances().unwrap();
        assert!(ready.is_empty());
        assert!(state.is_complete());
        let outputs = state.external_outputs().unwrap();
        assert_eq!(outputs.len(), 1);
        assert!(outputs[0].is_empty());
    }

    #[test]
    fn optional_inputs_do_not_block_execution() {
        let graph = CompositionBuilder::new("WithErrors")
            .input("Data")
            .input("Errors")
            .output("Out")
            .node("Handle", |node| {
                node.bind("data", Distribution::All, "Data")
                    .bind_optional("errors", Distribution::All, "Errors")
                    .publish("Out", "report")
            })
            .build()
            .unwrap();
        let mut state = invocation(graph, vec![DataSet::single("Data", vec![1])]);
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].inputs.len(), 2);
        assert!(ready[0].inputs[1].is_empty());
    }

    #[test]
    fn errors_abort_the_invocation() {
        let mut state = invocation(
            render_logs_composition(),
            vec![DataSet::single("AccessToken", b"t".to_vec())],
        );
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 1);
        let err = state
            .complete_instance(
                0,
                0,
                Err(DandelionError::FunctionFault {
                    function: "Access".into(),
                    reason: "bad token".into(),
                }),
            )
            .unwrap_err();
        assert!(matches!(err, DandelionError::FunctionFault { .. }));
        assert!(state.is_complete());
        assert!(state.external_outputs().is_err());
    }

    #[test]
    fn duplicate_completions_are_reported_and_unknown_ones_rejected() {
        let graph = CompositionBuilder::new("One")
            .input("In")
            .output("Out")
            .node("F", |node| {
                node.bind("x", Distribution::All, "In").publish("Out", "o")
            })
            .build()
            .unwrap();
        let mut state = invocation(graph, vec![DataSet::single("In", vec![1])]);
        let _ = state.ready_instances().unwrap();
        // An instance the node never handed out.
        assert!(state
            .complete_instance(0, 1, Ok(vec![DataSet::single("o", vec![2])]))
            .is_err());
        assert_eq!(
            state.complete_instance(0, 0, Ok(vec![DataSet::single("o", vec![2])])),
            Ok(InstanceCompletion::NodeFinished)
        );
        // The same instance again changes nothing, whatever it carries.
        assert_eq!(
            state.complete_instance(0, 0, Err(DandelionError::Cancelled)),
            Ok(InstanceCompletion::Duplicate)
        );
        assert!(state.is_complete());
        let outputs = state.external_outputs().unwrap();
        assert_eq!(outputs[0].items[0].data.as_slice(), &[2]);
    }

    #[test]
    fn unknown_client_inputs_are_rejected() {
        let result = InvocationState::new(
            InvocationId::next(),
            Arc::new(render_logs_composition()),
            vec![DataSet::single("NotAnInput", vec![1])],
        );
        assert!(result.is_err());
    }

    #[test]
    fn multiple_fanout_bindings_are_rejected() {
        let graph = CompositionBuilder::new("TwoEach")
            .input("A")
            .input("B")
            .output("Out")
            .node("Zip", |node| {
                node.bind("a", Distribution::Each, "A")
                    .bind("b", Distribution::Each, "B")
                    .publish("Out", "o")
            })
            .build()
            .unwrap();
        let mut state = invocation(
            graph,
            vec![DataSet::single("A", vec![1]), DataSet::single("B", vec![2])],
        );
        assert!(state.ready_instances().is_err());
    }

    #[test]
    fn diamond_joins_wait_for_both_branches() {
        let graph = CompositionBuilder::new("Diamond")
            .input("In")
            .output("Out")
            .node("Split", |node| {
                node.bind("data", Distribution::All, "In")
                    .publish("Left", "l")
                    .publish("Right", "r")
            })
            .node("A", |node| {
                node.bind("x", Distribution::All, "Left")
                    .publish("ADone", "o")
            })
            .node("B", |node| {
                node.bind("x", Distribution::All, "Right")
                    .publish("BDone", "o")
            })
            .node("Join", |node| {
                node.bind("a", Distribution::All, "ADone")
                    .bind("b", Distribution::All, "BDone")
                    .publish("Out", "merged")
            })
            .build()
            .unwrap();
        let mut state = invocation(graph, vec![DataSet::single("In", vec![7])]);
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 1);
        state
            .complete_instance(
                0,
                0,
                Ok(vec![
                    DataSet::single("l", vec![1]),
                    DataSet::single("r", vec![2]),
                ]),
            )
            .unwrap();
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 2);
        // Join is not ready until both branches are done.
        state
            .complete_instance(1, 0, Ok(vec![DataSet::single("o", vec![1])]))
            .unwrap();
        assert!(state.ready_instances().unwrap().is_empty());
        state
            .complete_instance(2, 0, Ok(vec![DataSet::single("o", vec![2])]))
            .unwrap();
        let ready = state.ready_instances().unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].vertex, "Join");
    }
}
