//! The isolation mechanisms, as configurations of one executor.
//!
//! The paper implements four mechanisms (§6.2) and argues the platform is not
//! tied to any of them. Here they share the whole sandbox lifecycle
//! ([`StagedExecutor`]) and differ in one value: the syscall policy a
//! function runs under. What each mechanism's stages cost on the paper's
//! hardware (Table 1) is [`SandboxCostModel`](crate::SandboxCostModel)'s, which
//! the simulator and the experiment harness read by kind; no executor
//! carries it.
//!
//! * CHERI — functions run as threads of the engine process; hybrid
//!   capabilities bound every load/store. Syscalls never reach the kernel
//!   because dlibc stubs them (permissive policy).
//! * KVM — each function runs in a lightweight VM without a guest kernel;
//!   any syscall-shaped escape is a VM exit that kills the function (strict
//!   policy).
//! * process — each function runs in a fresh process whose syscalls are
//!   intercepted with ptrace (strict policy).
//! * rWasm — functions are registered as Wasm, transpiled to safe Rust and
//!   compiled to a shared library; isolation comes from the Rust compiler
//!   (strict policy).
//! * native — repo-only reference (permissive policy), the one a worker
//!   node runs.

use std::sync::Arc;

use dandelion_common::config::IsolationKind;

use crate::backend::{IsolationBackend, StagedExecutor};
use crate::cost::HardwarePlatform;
use crate::policy::SyscallPolicy;

/// Creates the executor of the requested kind: the staged lifecycle under
/// that mechanism's syscall policy.
///
/// `platform` is unused: no executor charges a cost, so the hardware it
/// would be calibrated for changes nothing. The parameter is kept because
/// `benchmark/src/layerwalk.rs` calls this signature.
pub fn create_backend(
    kind: IsolationKind,
    _platform: HardwarePlatform,
) -> Arc<dyn IsolationBackend> {
    let policy = match kind {
        IsolationKind::Cheri | IsolationKind::Native => SyscallPolicy::permissive(),
        IsolationKind::Kvm | IsolationKind::Process | IsolationKind::Rwasm => {
            SyscallPolicy::strict()
        }
    };
    Arc::new(StagedExecutor::new(policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi::{FunctionArtifact, FunctionCtx};
    use crate::backend::ExecutionTask;
    use dandelion_common::{DataItem, DataSet};

    fn echo_task() -> ExecutionTask {
        let artifact = Arc::new(FunctionArtifact::new(
            "echo",
            &["out"],
            |ctx: &mut FunctionCtx| {
                let data = ctx.single_input("in")?.data.as_slice().to_vec();
                ctx.push_output("out", DataItem::new("copy", data))
            },
        ));
        ExecutionTask::new(artifact, vec![DataSet::single("in", b"payload".to_vec())])
    }

    #[test]
    fn all_backends_execute_functionally_identically() {
        let kinds = [
            IsolationKind::Cheri,
            IsolationKind::Kvm,
            IsolationKind::Process,
            IsolationKind::Rwasm,
            IsolationKind::Native,
        ];
        let mut outputs = Vec::new();
        for kind in kinds {
            let backend = create_backend(kind, HardwarePlatform::Morello);
            let report = backend.execute(&echo_task()).unwrap();
            outputs.push(report.outputs);
        }
        for other in &outputs[1..] {
            assert_eq!(&outputs[0], other);
        }
    }

    #[test]
    fn strict_backends_kill_syscalling_functions_permissive_do_not() {
        let nosy = Arc::new(FunctionArtifact::new(
            "nosy",
            &["out"],
            |ctx: &mut FunctionCtx| {
                ctx.syscall("execve")?;
                Ok(())
            },
        ));
        let task = ExecutionTask::new(nosy, vec![]);
        let process = create_backend(IsolationKind::Process, HardwarePlatform::Morello);
        assert!(process.execute(&task).is_err());
        let cheri = create_backend(IsolationKind::Cheri, HardwarePlatform::Morello);
        assert!(cheri.execute(&task).is_ok());
    }
}
