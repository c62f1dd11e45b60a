//! Execution-layer error type.

use std::fmt;

/// Errors surfaced while executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The storage layer rejected an operation.
    Storage(carac_storage::StorageError),
    /// The bytecode machine failed.
    Vm(String),
    /// The compilation manager failed (worker thread gone, poisoned state).
    Compilation(String),
    /// A compilation backend returned an artifact of a shape it is not
    /// specified to produce (e.g. the bytecode backend handing back
    /// descriptors).  Surfaced as an error so a misbehaving backend degrades the
    /// query instead of aborting the process.
    UnexpectedArtifact {
        /// The backend that produced the artifact.
        backend: String,
        /// Debug rendering of the artifact that was produced.
        artifact: String,
    },
    /// A compiled artifact failed static verification: its bytecode or plan
    /// would trap or misbehave at runtime (bad jump, unbound register,
    /// arity mismatch, unproven termination).  Surfaced before first
    /// execution so a bad compile is rejected instead of installed.
    Verify {
        /// The backend that produced the artifact.
        backend: String,
        /// The verifier's conviction.
        reason: String,
    },
    /// An update batch was rejected by the incremental maintenance
    /// subsystem (unknown relation, non-EDB target, arity mismatch).
    Update(String),
    /// A worker thread of the data-parallel pool panicked.  The panic
    /// payload message is captured so the caller can report it and fall
    /// back to serial execution — the context stays usable instead of the
    /// process aborting on an opaque join failure.
    WorkerPanicked(String),
    /// An internal invariant was violated (a bug in plan generation or the
    /// JIT controller).
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(err) => write!(f, "storage error: {err}"),
            ExecError::Vm(msg) => write!(f, "vm error: {msg}"),
            ExecError::Compilation(msg) => write!(f, "compilation error: {msg}"),
            ExecError::UnexpectedArtifact { backend, artifact } => {
                write!(
                    f,
                    "backend {backend} produced unexpected artifact {artifact}"
                )
            }
            ExecError::Verify { backend, reason } => {
                write!(
                    f,
                    "backend {backend} produced unverifiable artifact: {reason}"
                )
            }
            ExecError::Update(msg) => write!(f, "update error: {msg}"),
            ExecError::WorkerPanicked(msg) => write!(f, "worker thread panicked: {msg}"),
            ExecError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(err) => Some(err),
            _ => None,
        }
    }
}

impl From<carac_storage::StorageError> for ExecError {
    fn from(err: carac_storage::StorageError) -> Self {
        ExecError::Storage(err)
    }
}

impl From<carac_vm::VmError> for ExecError {
    fn from(err: carac_vm::VmError) -> Self {
        ExecError::Vm(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_storage::{RelId, StorageError};

    #[test]
    fn conversions_preserve_messages() {
        let err: ExecError = StorageError::UnknownRelation(RelId(5)).into();
        assert!(err.to_string().contains("R5"));
        let err: ExecError = carac_vm::VmError::PcOutOfBounds(3).into();
        assert!(err.to_string().contains('3'));
    }
}
