//! Serving errors. The key distinction: a [`RejectReason`] is the engine
//! *working as designed* (admission control shedding load it cannot serve
//! within contract), while the other [`ServeError`] variants are failures.

use crate::cluster::Refusal;
use nfv_xai::XaiError;
use std::fmt;

/// Why admission control refused a request.
///
/// Every variant carries the numbers the operator needs to size the
/// deployment: rejects are a control signal, not an exception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue was full; the caller should back off.
    QueueFull {
        /// Configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline budget cannot be met given the current
    /// backlog and the observed service time.
    DeadlineUnmeetable {
        /// Predicted wait+service time, microseconds.
        estimated_us: u64,
        /// The request's budget, microseconds.
        budget_us: u64,
    },
    /// The request's budget expired while it sat in the queue; it was
    /// dropped by the worker instead of being explained late.
    DeadlineExpired {
        /// Time spent queued, microseconds.
        waited_us: u64,
        /// The request's budget, microseconds.
        budget_us: u64,
    },
    /// No model registered under the requested id.
    UnknownModel {
        /// The id that failed to resolve.
        model_id: String,
    },
    /// The request itself is malformed (wrong feature count, non-finite
    /// features, method unsupported by the model).
    InvalidRequest {
        /// Human-readable cause.
        reason: String,
    },
    /// No explainer registered under the requested method name/id. Unlike
    /// [`RejectReason::InvalidRequest`] (a model/method mismatch), this is
    /// a dispatch miss: nothing in the process's `MethodRegistry` answers
    /// to the name, so the wire tier can answer typed instead of treating
    /// an unknown name as a protocol error.
    UnknownMethod {
        /// The method name (or `#hex` id escape) that failed to resolve.
        method: String,
    },
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// The caller pipelined more concurrent requests over one connection
    /// than the server's per-connection depth limit allows. Raised by
    /// the wire tier, not by in-process admission: the fix is on the
    /// client (cap its pipeline), so the reject names both numbers.
    PipelineTooDeep {
        /// Requests already in flight on the connection.
        depth: u64,
        /// The server's configured per-connection limit.
        limit: u64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::DeadlineUnmeetable {
                estimated_us,
                budget_us,
            } => write!(
                f,
                "deadline unmeetable: estimated {estimated_us}us > budget {budget_us}us"
            ),
            RejectReason::DeadlineExpired {
                waited_us,
                budget_us,
            } => write!(
                f,
                "deadline expired in queue: waited {waited_us}us of {budget_us}us budget"
            ),
            RejectReason::UnknownModel { model_id } => {
                write!(f, "unknown model `{model_id}`")
            }
            RejectReason::InvalidRequest { reason } => {
                write!(f, "invalid request: {reason}")
            }
            RejectReason::UnknownMethod { method } => {
                write!(f, "no explainer registered for method `{method}`")
            }
            RejectReason::ShuttingDown => write!(f, "engine shutting down"),
            RejectReason::PipelineTooDeep { depth, limit } => write!(
                f,
                "pipeline too deep: {depth} requests in flight on this connection, limit {limit}"
            ),
        }
    }
}

/// Anything `ServeEngine::explain` can return besides a result.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control refused the request (by design, under load).
    Rejected(RejectReason),
    /// The underlying explainer failed.
    Explain(XaiError),
    /// Engine-internal failure (plug-in code panicked, a request's reply
    /// was dropped unanswered).
    Internal(String),
    /// The cluster router refused the operation itself (membership or a
    /// diverged registration history) — no shard was asked.
    Refused(Refusal),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected: {r}"),
            ServeError::Explain(e) => write!(f, "explainer error: {e}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
            ServeError::Refused(r) => write!(f, "router refused: {r:?}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<XaiError> for ServeError {
    fn from(e: XaiError) -> Self {
        ServeError::Explain(e)
    }
}

impl ServeError {
    /// True when this is a load-shedding reject rather than a failure.
    pub fn is_reject(&self) -> bool {
        matches!(self, ServeError::Rejected(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_numbers() {
        let r = RejectReason::DeadlineUnmeetable {
            estimated_us: 900,
            budget_us: 100,
        };
        let s = ServeError::Rejected(r).to_string();
        assert!(s.contains("900") && s.contains("100"), "{s}");
        assert!(ServeError::Rejected(RejectReason::ShuttingDown).is_reject());
        assert!(!ServeError::Internal("x".into()).is_reject());
    }
}
