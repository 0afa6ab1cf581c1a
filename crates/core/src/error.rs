//! Typed error surfaces: compile-time errors and the kernel service's
//! request-level failure modes.

use std::error::Error;
use std::fmt;

use finch_ir::RuntimeError;

use crate::queue::ServiceState;

/// Errors reported while compiling a concrete-index-notation program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The program references a tensor that was never bound.
    UnknownTensor {
        /// The missing tensor's name.
        name: String,
    },
    /// An access uses a different number of indices than the tensor's rank.
    RankMismatch {
        /// The tensor's name.
        name: String,
        /// Its rank.
        rank: usize,
        /// The number of indices in the access.
        indices: usize,
    },
    /// An access could not be fully resolved by the enclosing loops; this
    /// usually means the iteration order does not match the tensor's level
    /// order (non-concordant iteration).  Transpose the tensor or reorder
    /// the loops.
    NonConcordantAccess {
        /// The tensor's name.
        name: String,
    },
    /// Writes are only supported into dense output tensors bound with
    /// [`Kernel::bind_output`](crate::Kernel::bind_output).
    UnsupportedWrite {
        /// The tensor written to.
        name: String,
    },
    /// The extent of a `forall` could not be inferred from its accesses;
    /// provide it explicitly with `forall_in`.
    CannotInferExtent {
        /// The index variable whose extent is missing.
        index: String,
    },
    /// An index variable was used as a value before any enclosing loop bound
    /// it.
    UnboundIndex {
        /// The index variable's name.
        index: String,
    },
    /// The compiler reached a looplet arrangement it cannot lower.
    UnsupportedLooplet {
        /// Description of the situation.
        detail: String,
    },
    /// A feature of the surface language that this reproduction does not
    /// implement (e.g. writes through index modifiers).
    Unsupported {
        /// Description of the unsupported feature.
        detail: String,
    },
    /// An optimisation pass failed post-pass verification or translation
    /// validation (a miscompile caught by the pass manager; see
    /// `finch_ir::opt::ValidationLevel`).
    ValidationFailed {
        /// The offending pass's name.
        pass: String,
        /// What the verifier or witness comparison found.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownTensor { name } => write!(f, "tensor `{name}` is not bound"),
            CompileError::RankMismatch { name, rank, indices } => write!(
                f,
                "tensor `{name}` has rank {rank} but was accessed with {indices} indices"
            ),
            CompileError::NonConcordantAccess { name } => write!(
                f,
                "access to `{name}` is not concordant with the loop order; transpose the tensor or reorder the loops"
            ),
            CompileError::UnsupportedWrite { name } => {
                write!(f, "writes into `{name}` are not supported; bind it as a dense output")
            }
            CompileError::CannotInferExtent { index } => {
                write!(f, "cannot infer the extent of index `{index}`; use an explicit extent")
            }
            CompileError::UnboundIndex { index } => {
                write!(f, "index `{index}` used before any enclosing loop bound it")
            }
            CompileError::UnsupportedLooplet { detail } => {
                write!(f, "cannot lower looplet arrangement: {detail}")
            }
            CompileError::Unsupported { detail } => write!(f, "unsupported program: {detail}"),
            CompileError::ValidationFailed { pass, detail } => {
                write!(f, "pass `{pass}` failed validation: {detail}")
            }
        }
    }
}

impl Error for CompileError {}

/// A typed service failure.  Every failure mode the service can hit — shed
/// load, queue timeouts, shutdown rejections, invalid inputs, compile
/// errors, resource exhaustion, and kernels that fault on both tiers —
/// surfaces as one of these; the service never aborts.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control rejected the request: the in-flight limit and the
    /// wait queue are both full (or the limit is zero).
    Overloaded {
        /// Requests in flight when this one arrived.
        in_flight: usize,
        /// The configured admission limit.
        limit: usize,
        /// Requests already waiting in the admission queue.
        queued: usize,
    },
    /// The request queued for admission but its deadline expired before an
    /// execution slot freed.  Distinct from [`RuntimeError::Deadline`],
    /// which attributes the expiry to *execution*.
    QueueTimeout {
        /// How long the request waited in the queue, milliseconds.
        waited_ms: u64,
        /// Waiters still queued when this one gave up.
        depth: usize,
    },
    /// The service is draining or stopped; no new work is accepted until
    /// [`KernelService::resume`](crate::KernelService::resume).
    ShuttingDown {
        /// The lifecycle state that rejected the request.
        state: ServiceState,
    },
    /// An input tensor failed boundary validation (non-monotonic `pos`,
    /// unsorted or out-of-range `idx`, wrong value count).
    InvalidInput {
        /// The offending tensor's name.
        name: String,
        /// What the validator found.
        detail: String,
    },
    /// The program failed to compile.
    Compile(CompileError),
    /// The run failed with a typed runtime error (deadline, step budget,
    /// allocation budget, rebind mismatch, ...).  Resource errors are final:
    /// they do not trigger the oracle fallback.
    Runtime(RuntimeError),
    /// The kernel could not be served: every attempt faulted, the oracle's
    /// included, or a poisoned entry's quarantine recompile failed.
    Faulted {
        /// Number of execution attempts made (including the fast-tier retry).
        attempts: u32,
        /// Description of the last fault.
        detail: String,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight, limit, queued } => write!(
                f,
                "service overloaded: {in_flight} requests in flight (limit {limit}), {queued} queued"
            ),
            ServiceError::QueueTimeout { waited_ms, depth } => write!(
                f,
                "deadline expired after {waited_ms}ms in the admission queue ({depth} still waiting)"
            ),
            ServiceError::ShuttingDown { state } => {
                write!(f, "service is {state}: not accepting new requests")
            }
            ServiceError::InvalidInput { name, detail } => {
                write!(f, "input tensor `{name}` failed validation: {detail}")
            }
            ServiceError::Compile(e) => write!(f, "compilation failed: {e}"),
            ServiceError::Runtime(e) => write!(f, "{e}"),
            ServiceError::Faulted { attempts, detail } => {
                write!(f, "kernel faulted at every tier after {attempts} attempts: {detail}")
            }
        }
    }
}

impl Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_useful_messages() {
        let errs = vec![
            CompileError::UnknownTensor { name: "A".into() },
            CompileError::RankMismatch { name: "A".into(), rank: 2, indices: 3 },
            CompileError::NonConcordantAccess { name: "A".into() },
            CompileError::UnsupportedWrite { name: "A".into() },
            CompileError::CannotInferExtent { index: "i".into() },
            CompileError::UnboundIndex { index: "i".into() },
            CompileError::UnsupportedLooplet { detail: "x".into() },
            CompileError::Unsupported { detail: "x".into() },
            CompileError::ValidationFailed { pass: "fold".into(), detail: "x".into() },
        ];
        for e in errs {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<CompileError>();
        assert_err::<ServiceError>();
    }

    #[test]
    fn service_errors_display_useful_messages() {
        let errs = vec![
            ServiceError::Overloaded { in_flight: 4, limit: 4, queued: 16 },
            ServiceError::QueueTimeout { waited_ms: 25, depth: 3 },
            ServiceError::ShuttingDown { state: ServiceState::Draining },
            ServiceError::InvalidInput { name: "A".into(), detail: "bad pos".into() },
            ServiceError::Compile(CompileError::UnknownTensor { name: "Z".into() }),
            ServiceError::Runtime(RuntimeError::Deadline { ms: 40 }),
            ServiceError::Faulted { attempts: 5, detail: "panic".into() },
        ];
        for e in errs {
            assert!(!format!("{e}").is_empty());
        }
    }
}
