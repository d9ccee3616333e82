//! The compute-function ABI: artifacts, logic and the execution context.
//!
//! In the paper, users register native binaries (or Wasm modules) compiled
//! against dlibc. In this reproduction a registered function is a
//! [`FunctionArtifact`]: a name, a synthetic "binary" (bytes whose size
//! models the real binary, used for load-cost accounting and cache
//! behaviour), a declared memory requirement, and the executable
//! [`ComputeLogic`].
//!
//! At execution time the backend constructs a [`FunctionCtx`] — the only
//! capability the user code receives. It exposes the declared input sets,
//! a capacity-bounded virtual filesystem, an output staging API and a
//! syscall shim that enforces the [`SyscallPolicy`]. There is no other
//! ambient authority: no real filesystem, no network, no clock.
//!
//! Building a context copies nothing: the inputs, the output-set names and
//! the policy are shared with the task, the artifact and the backend, and
//! the filesystem view of the inputs is built by the first
//! [`FunctionCtx::fs`] / [`FunctionCtx::fs_mut`] call — a function that only
//! uses [`FunctionCtx::inputs`] and [`FunctionCtx::push_output`] never pays
//! for a directory tree.
//!
//! # Who owns output memory
//!
//! The platform does, as the paper's memory context does: a context is made
//! with output memory in it — a builder over a buffer of the global
//! [`BufferPool`](dandelion_common::BufferPool), sized like the inputs, there
//! before the function runs — and the function asks for it
//! ([`FunctionCtx::output_buffer`]), fills it and stages the filled builder
//! ([`FunctionCtx::push_output_bytes`] freezes it in place). The buffer goes
//! back to the pool class that issued it when the last consumer of the
//! output lets go — the next invocation's output is written into the same
//! memory. An output that *is* an input passes on by reference as before. A
//! `Vec` or `String` user code allocated is still accepted; it is the
//! allocator's, freed when the output dies and never parked in the pool.

use std::cell::{Cell, OnceCell};
use std::fmt;
use std::sync::{Arc, OnceLock};

use dandelion_common::{DataItem, DataSet, SharedBytes, SharedBytesMut, SIZE_CLASSES};
use dandelion_vfs::VirtualFs;

use crate::policy::{SyscallDisposition, SyscallPolicy};

/// Error type returned by compute-function bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionError(pub String);

impl fmt::Display for FunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FunctionError {}

impl From<String> for FunctionError {
    fn from(message: String) -> Self {
        FunctionError(message)
    }
}

impl From<&str> for FunctionError {
    fn from(message: &str) -> Self {
        FunctionError(message.to_string())
    }
}

/// The executable body of a pure compute function.
///
/// Implementations must be pure in the Dandelion sense: they interact with
/// the world only through the provided [`FunctionCtx`].
pub trait ComputeLogic: Send + Sync {
    /// Runs the function against its context.
    fn run(&self, ctx: &mut FunctionCtx) -> Result<(), FunctionError>;
}

impl<F> ComputeLogic for F
where
    F: Fn(&mut FunctionCtx) -> Result<(), FunctionError> + Send + Sync,
{
    fn run(&self, ctx: &mut FunctionCtx) -> Result<(), FunctionError> {
        self(ctx)
    }
}

/// A registered compute function.
#[derive(Clone)]
pub struct FunctionArtifact {
    /// The function name used in compositions.
    pub name: String,
    /// Synthetic binary bytes, built once; the length models the real binary
    /// size and every sandbox of the function maps this one buffer into its
    /// memory context by reference.
    pub binary: SharedBytes,
    /// Declared memory requirement (context capacity), in bytes.
    pub memory_requirement: usize,
    /// Declared output set names, harvested after execution; shared with
    /// every [`FunctionCtx`] of the function.
    pub output_sets: Arc<[String]>,
    /// The executable logic.
    pub logic: Arc<dyn ComputeLogic>,
}

impl fmt::Debug for FunctionArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionArtifact")
            .field("name", &self.name)
            .field("binary_bytes", &self.binary.len())
            .field("memory_requirement", &self.memory_requirement)
            .field("output_sets", &self.output_sets)
            .finish()
    }
}

/// A synthetic binary of `bytes` bytes.
fn synthetic_binary(bytes: usize) -> SharedBytes {
    SharedBytes::from_vec(vec![0xD4; bytes])
}

impl FunctionArtifact {
    /// Creates an artifact with a default 64 KiB synthetic binary and a
    /// 16 MiB memory requirement.
    ///
    /// The default binary is one buffer, built by the first artifact and
    /// shared by every one that keeps the default size (only its length
    /// means anything), so an artifact that goes on to
    /// [`with_binary_size`](FunctionArtifact::with_binary_size) builds its
    /// binary once, at its final size.
    pub fn new(
        name: impl Into<String>,
        output_sets: &[&str],
        logic: impl ComputeLogic + 'static,
    ) -> Self {
        static DEFAULT_BINARY: OnceLock<SharedBytes> = OnceLock::new();
        Self {
            name: name.into(),
            binary: DEFAULT_BINARY
                .get_or_init(|| synthetic_binary(64 * 1024))
                .clone(),
            memory_requirement: 16 * 1024 * 1024,
            output_sets: output_sets.iter().map(|s| s.to_string()).collect(),
            logic: Arc::new(logic),
        }
    }

    /// Overrides the synthetic binary size.
    pub fn with_binary_size(mut self, bytes: usize) -> Self {
        self.binary = synthetic_binary(bytes);
        self
    }

    /// Overrides the declared memory requirement.
    pub fn with_memory_requirement(mut self, bytes: usize) -> Self {
        self.memory_requirement = bytes;
        self
    }
}

/// Record of a syscall attempted by the function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallAttempt {
    /// The syscall name the function asked for.
    pub name: String,
    /// What the policy decided.
    pub disposition: SyscallDisposition,
}

/// The execution context handed to user code.
pub struct FunctionCtx {
    inputs: Arc<[DataSet]>,
    /// The `/<set>/<item>` view of the inputs, built on first use.
    fs: OnceCell<VirtualFs>,
    /// Bounds the filesystem, mirroring the memory context capacity.
    capacity: usize,
    output_sets: Arc<[String]>,
    /// Output memory made ready with the context, until the function asks
    /// for it ([`FunctionCtx::output_buffer`]).
    output: Cell<SharedBytesMut>,
    staged_outputs: Vec<DataSet>,
    policy: Arc<SyscallPolicy>,
    syscall_attempts: Vec<SyscallAttempt>,
    /// Set by a denied syscall or by inputs that have no filesystem view; a
    /// cell because the latter is found out behind `&self`.
    faulted: OnceCell<String>,
}

impl FunctionCtx {
    /// Builds a context from materialized inputs.
    ///
    /// Every argument is taken either owned (`Vec<DataSet>`, `Vec<String>`,
    /// `SyscallPolicy`) or already shared (`Arc<[DataSet]>`, `Arc<[String]>`,
    /// `Arc<SyscallPolicy>`); the backend passes the shared forms, so a
    /// sandbox's context costs reference counts only. `capacity` bounds the
    /// virtual filesystem, mirroring the memory context capacity.
    ///
    /// Always `Ok`: inputs that cannot be laid out as `/<set>/<item>` files
    /// fault the function when it first asks for the filesystem (see
    /// [`FunctionCtx::fs`]), not here. The `Result` is what callers compile
    /// against.
    pub fn new(
        inputs: impl Into<Arc<[DataSet]>>,
        output_sets: impl Into<Arc<[String]>>,
        capacity: usize,
        policy: impl Into<Arc<SyscallPolicy>>,
    ) -> Result<Self, FunctionError> {
        let inputs: Arc<[DataSet]> = inputs.into();
        // An output is about the size of what it is made from.
        let input_bytes: usize = inputs
            .iter()
            .flat_map(|set| &set.items)
            .map(|item| item.data.len())
            .sum();
        Ok(Self {
            inputs,
            fs: OnceCell::new(),
            capacity,
            output_sets: output_sets.into(),
            output: Cell::new(SharedBytesMut::with_capacity(input_bytes)),
            staged_outputs: Vec::new(),
            policy: policy.into(),
            syscall_attempts: Vec::new(),
            faulted: OnceCell::new(),
        })
    }

    /// Builds the filesystem view of the inputs if this is the first use.
    /// Inputs without one (a set or item name that is not a usable path
    /// component, inputs beyond the capacity) leave the view empty and fault
    /// the function, which the backend reports after the body returns.
    fn materialize_fs(&self) -> &VirtualFs {
        self.fs.get_or_init(|| {
            VirtualFs::from_input_sets(&self.inputs, self.capacity).unwrap_or_else(|err| {
                // An earlier fault stands.
                let _ = self
                    .faulted
                    .set(format!("failed to materialize inputs: {err}"));
                VirtualFs::new(self.capacity)
            })
        })
    }

    /// The declared input sets.
    pub fn inputs(&self) -> &[DataSet] {
        &self.inputs
    }

    /// Looks up an input set by name.
    pub fn input_set(&self, name: &str) -> Option<&DataSet> {
        self.inputs.iter().find(|set| set.name == name)
    }

    /// Returns the single item of an input set, failing with a descriptive
    /// error when the set is missing or does not have exactly one item.
    pub fn single_input(&self, name: &str) -> Result<&DataItem, FunctionError> {
        let set = self
            .input_set(name)
            .ok_or_else(|| FunctionError(format!("missing input set `{name}`")))?;
        if set.len() != 1 {
            return Err(FunctionError(format!(
                "input set `{name}` has {} items, expected exactly 1",
                set.len()
            )));
        }
        Ok(&set.items[0])
    }

    /// Read-only access to the virtual filesystem: every input item is a
    /// file at `/<set>/<item>` carrying the item's key and sharing its
    /// buffer.
    pub fn fs(&self) -> &VirtualFs {
        self.materialize_fs()
    }

    /// Mutable access to the virtual filesystem.
    pub fn fs_mut(&mut self) -> &mut VirtualFs {
        self.materialize_fs();
        self.fs.get_mut().expect("materialized above")
    }

    /// Whether the filesystem view has been built.
    #[cfg(test)]
    pub(crate) fn fs_materialized(&self) -> bool {
        self.fs.get().is_some()
    }

    /// The declared output set names.
    pub fn output_sets(&self) -> &[String] {
        &self.output_sets
    }

    /// Output memory from the platform: an empty builder over a pooled
    /// buffer with room for `capacity` bytes (it moves to a larger one if the
    /// function writes more). Fill it — in bulk where the output is large —
    /// and stage it with [`FunctionCtx::push_output_bytes`].
    ///
    /// The first call gets the buffer the context was made with when that
    /// fits; one that is too small, or more than twice what is asked for,
    /// goes back to the pool at once for a buffer of the right class.
    pub fn output_buffer(&self, capacity: usize) -> SharedBytesMut {
        let ready = self.output.take();
        if (capacity..=2 * capacity.max(SIZE_CLASSES[0])).contains(&ready.capacity()) {
            ready
        } else {
            drop(ready);
            SharedBytesMut::with_capacity(capacity)
        }
    }

    /// Stages an output item for the named set.
    pub fn push_output(&mut self, set: &str, item: DataItem) -> Result<(), FunctionError> {
        if !self.output_sets.iter().any(|name| name == set) {
            return Err(FunctionError(format!(
                "`{set}` is not a declared output set"
            )));
        }
        match self.staged_outputs.iter_mut().find(|s| s.name == set) {
            Some(existing) => existing.push(item),
            None => {
                let mut new_set = DataSet::new(set);
                new_set.push(item);
                self.staged_outputs.push(new_set);
            }
        }
        Ok(())
    }

    /// Convenience wrapper staging a single unnamed item.
    ///
    /// Accepts anything convertible to a [`dandelion_common::SharedBytes`]
    /// view: a filled [`FunctionCtx::output_buffer`] is frozen in place, and
    /// passing an input item's `data.clone()` stages the output without
    /// copying the payload.
    pub fn push_output_bytes(
        &mut self,
        set: &str,
        name: &str,
        data: impl Into<dandelion_common::SharedBytes>,
    ) -> Result<(), FunctionError> {
        self.push_output(set, DataItem::new(name, data))
    }

    /// Models a syscall attempt by the user code.
    ///
    /// Stubbed calls return the errno the dlibc stub would produce; denied
    /// calls mark the context as faulted and return an error, after which the
    /// backend terminates the function.
    pub fn syscall(&mut self, name: &str) -> Result<i32, FunctionError> {
        let disposition = self.policy.disposition(name);
        self.syscall_attempts.push(SyscallAttempt {
            name: name.to_string(),
            disposition,
        });
        match disposition {
            SyscallDisposition::Stub { errno } => Ok(-errno),
            SyscallDisposition::Terminate => {
                let message = format!("attempted forbidden syscall `{name}`");
                self.faulted = OnceCell::from(message.clone());
                Err(FunctionError(message))
            }
        }
    }

    /// Returns the syscalls the function attempted.
    pub fn syscall_attempts(&self) -> &[SyscallAttempt] {
        &self.syscall_attempts
    }

    /// Returns the fault recorded by a denied syscall or by inputs that
    /// could not be laid out as files, if any.
    pub fn fault(&self) -> Option<&str> {
        self.faulted.get().map(String::as_str)
    }

    /// Collects the function's outputs: explicitly staged items first (moved
    /// out, not cloned), then any files under declared output-set
    /// directories in the filesystem — which is consulted only if the
    /// function ever asked for it, since only then can it hold anything it
    /// wrote. (The view holds the inputs too: an input set named like a
    /// declared output set is harvested with it.) Every declared set is
    /// present in the result (possibly empty), in declaration order.
    pub fn take_outputs(&mut self) -> Vec<DataSet> {
        // The function is done: output memory it did not ask for goes back
        // (and is what this thread builds the outputs' frame in).
        drop(self.output.take());
        let mut staged = std::mem::take(&mut self.staged_outputs);
        let mut from_fs = self
            .fs
            .get()
            .map(|fs| fs.harvest_output_sets(&self.output_sets));
        self.output_sets
            .iter()
            .enumerate()
            .map(|(index, set_name)| {
                let mut set = match staged.iter().position(|s| &s.name == set_name) {
                    Some(position) => staged.swap_remove(position),
                    None => DataSet::new(set_name.clone()),
                };
                if let Some(from_fs) = &mut from_fs {
                    set.items.append(&mut from_fs[index].items);
                }
                set
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use dandelion_vfs::VfsPath;

    use super::*;

    fn sample_ctx() -> FunctionCtx {
        FunctionCtx::new(
            vec![DataSet::single("request", b"GET /logs".to_vec())],
            vec!["response".to_string(), "errors".to_string()],
            1024 * 1024,
            SyscallPolicy::strict(),
        )
        .unwrap()
    }

    #[test]
    fn inputs_are_visible_via_sets_and_fs() {
        let ctx = sample_ctx();
        assert_eq!(ctx.inputs().len(), 1);
        assert_eq!(
            ctx.single_input("request").unwrap().as_str(),
            Some("GET /logs")
        );
        assert!(ctx.input_set("missing").is_none());
        assert!(ctx.single_input("missing").is_err());
        let listing = ctx.fs().list_dir(&VfsPath::new("/request")).unwrap();
        assert_eq!(listing, vec!["request.0"]);
    }

    #[test]
    fn a_function_that_never_asks_for_the_fs_builds_none() {
        let mut ctx = sample_ctx();
        let request = ctx.single_input("request").unwrap().data.clone();
        ctx.push_output_bytes("response", "r0", request).unwrap();
        let outputs = ctx.take_outputs();
        assert_eq!(outputs[0].items[0].data.as_slice(), b"GET /logs");
        assert!(
            !ctx.fs_materialized(),
            "inputs(), push_output() and take_outputs() must not build the VFS"
        );
        // The first fs() call builds it, once.
        assert!(ctx.fs().exists(&VfsPath::new("/request/request.0")));
        assert!(ctx.fs_materialized());
    }

    #[test]
    fn the_fs_view_holds_every_input_with_its_key_and_buffer() {
        let inputs = vec![
            DataSet::with_items(
                "logs",
                vec![
                    DataItem::with_key("a.log", "west", b"alpha".to_vec()),
                    DataItem::new("b.log", b"beta".to_vec()),
                ],
            ),
            DataSet::single("token", b"secret".to_vec()),
        ];
        let ctx = FunctionCtx::new(
            inputs.clone(),
            vec!["out".to_string()],
            1024,
            SyscallPolicy::strict(),
        )
        .unwrap();
        for set in &inputs {
            for item in &set.items {
                let path = VfsPath::set_item(&set.name, &item.name);
                let file = ctx.fs().read_file_shared(&path).unwrap();
                assert!(SharedBytes::same_buffer(&file, &item.data), "{path}");
                assert_eq!(ctx.fs().metadata(&path).unwrap().key, item.key, "{path}");
            }
        }
        assert_eq!(ctx.fs().used_bytes(), 15);
        assert!(ctx.fault().is_none());
    }

    #[test]
    fn inputs_without_a_filesystem_view_fault_on_first_use_only() {
        // 9 input bytes cannot be laid out in a 4-byte filesystem.
        let ctx = FunctionCtx::new(
            vec![DataSet::single("request", b"GET /logs".to_vec())],
            vec!["response".to_string()],
            4,
            SyscallPolicy::strict(),
        )
        .unwrap();
        assert_eq!(ctx.inputs().len(), 1);
        assert!(ctx.fault().is_none());
        assert!(!ctx.fs().exists(&VfsPath::new("/request")));
        let fault = ctx.fault().expect("the failed materialization is a fault");
        assert!(fault.starts_with("failed to materialize inputs"), "{fault}");
    }

    #[test]
    fn outputs_merge_staged_and_fs_items() {
        let mut ctx = sample_ctx();
        ctx.push_output_bytes("response", "r0", b"staged".to_vec())
            .unwrap();
        ctx.fs_mut()
            .write_output_item("response", "r1", Some("key"), b"from fs")
            .unwrap();
        let outputs = ctx.take_outputs();
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].name, "response");
        assert_eq!(outputs[0].len(), 2);
        assert_eq!(outputs[0].items[0].name, "r0");
        assert_eq!(outputs[0].items[1].key.as_deref(), Some("key"));
        assert!(outputs[1].is_empty());
        // take_outputs drains the staged items.
        assert_eq!(ctx.take_outputs()[0].len(), 1);
    }

    #[test]
    fn undeclared_output_sets_are_rejected() {
        let mut ctx = sample_ctx();
        assert!(ctx.push_output_bytes("bogus", "x", vec![1]).is_err());
    }

    #[test]
    fn syscalls_follow_policy() {
        let mut ctx = sample_ctx();
        // Stubbed call: returns negative errno, no fault.
        assert_eq!(ctx.syscall("mmap").unwrap(), -38);
        assert!(ctx.fault().is_none());
        // Forbidden call: error + fault recorded.
        assert!(ctx.syscall("execve").is_err());
        assert_eq!(ctx.fault(), Some("attempted forbidden syscall `execve`"));
        assert_eq!(ctx.syscall_attempts().len(), 2);
    }

    #[test]
    fn closures_implement_compute_logic() {
        let artifact = FunctionArtifact::new("double", &["out"], |ctx: &mut FunctionCtx| {
            let input = ctx.single_input("numbers")?.data.clone();
            let doubled: Vec<u8> = input.iter().map(|b| b.wrapping_mul(2)).collect();
            ctx.push_output_bytes("out", "doubled", doubled)
        })
        .with_binary_size(128)
        .with_memory_requirement(1024);
        assert_eq!(artifact.binary.len(), 128);
        assert_eq!(artifact.memory_requirement, 1024);

        let mut ctx = FunctionCtx::new(
            vec![DataSet::single("numbers", vec![1, 2, 3])],
            vec!["out".to_string()],
            4096,
            SyscallPolicy::permissive(),
        )
        .unwrap();
        artifact.logic.run(&mut ctx).unwrap();
        let outputs = ctx.take_outputs();
        assert_eq!(outputs[0].items[0].data.as_slice(), &[2, 4, 6]);
    }
}
