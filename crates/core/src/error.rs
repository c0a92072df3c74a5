//! Error type of the elicitation pipelines.

use crate::action::Action;
use std::error::Error;
use std::fmt;

/// Errors produced by functional security analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsaError {
    /// The functional flow contains a circular dependency. The paper:
    /// "an infinite loop among actions in the system would indicate that
    /// the system described will not terminate".
    CircularDependency {
        /// Two actions that transitively depend on each other.
        first: Action,
        /// See `first`.
        second: Action,
    },
    /// An action referenced by a flow or query is not in the instance.
    UnknownAction(String),
    /// A component model referenced an action index out of range.
    InvalidComponentModel {
        /// Explanation.
        reason: String,
    },
    /// An enumeration exceeded its candidate budget (see
    /// [`crate::explore::ExploreOptions::max_candidates`]).
    BudgetExceeded {
        /// The configured budget that was exceeded.
        limit: usize,
    },
    /// A checkpoint file could not be loaded: missing, truncated,
    /// bit-flipped (checksum mismatch), version-skewed, or written by a
    /// run with a different configuration. Never a panic, never a
    /// silent partial load.
    CorruptCheckpoint {
        /// Explanation.
        reason: String,
    },
    /// A checkpoint file could not be written (no such directory, disk
    /// full, a failed rename). The previous checkpoint, if any, is left
    /// as it was, and no temporary file is left behind.
    CheckpointWrite {
        /// Explanation.
        reason: String,
    },
    /// A shard range restriction was malformed or used with an engine
    /// that cannot honour it (see
    /// [`crate::explore::ExploreOptions::shard`]).
    InvalidShard {
        /// Explanation.
        reason: String,
    },
    /// A bounded store was constructed with capacity 0. Capacity-0
    /// stores used to be silently clamped to 1; they are rejected with
    /// this typed error instead, so a misconfigured cache surfaces at
    /// construction, not as surprising evict-on-insert behaviour.
    InvalidCapacity {
        /// Which store rejected the construction (e.g. `MemoStore`).
        what: &'static str,
    },
    /// The report recomposed from independent fragments would count
    /// more states or edges than `usize` holds (see
    /// [`crate::assisted::elicit_apa`]). The fragments themselves were
    /// explored; only their product is too large to count.
    RecompositionOverflow {
        /// What overflowed (`state count`, `edge count`).
        what: &'static str,
    },
    /// The underlying APA analysis failed.
    Apa(apa::ApaError),
}

impl fmt::Display for FsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsaError::CircularDependency { first, second } => write!(
                f,
                "circular functional dependency between `{first}` and `{second}`"
            ),
            FsaError::UnknownAction(name) => write!(f, "unknown action `{name}`"),
            FsaError::InvalidComponentModel { reason } => {
                write!(f, "invalid component model: {reason}")
            }
            FsaError::BudgetExceeded { limit } => {
                write!(f, "enumeration exceeded the budget of {limit} candidates")
            }
            FsaError::CorruptCheckpoint { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            FsaError::CheckpointWrite { reason } => {
                write!(f, "cannot write checkpoint: {reason}")
            }
            FsaError::InvalidShard { reason } => {
                write!(f, "invalid shard range: {reason}")
            }
            FsaError::InvalidCapacity { what } => {
                write!(
                    f,
                    "invalid capacity: {what} requires a capacity of at least 1"
                )
            }
            FsaError::RecompositionOverflow { what } => {
                write!(f, "the recomposed {what} overflows usize")
            }
            FsaError::Apa(e) => write!(f, "APA analysis failed: {e}"),
        }
    }
}

impl Error for FsaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FsaError::Apa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<apa::ApaError> for FsaError {
    fn from(e: apa::ApaError) -> Self {
        FsaError::Apa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FsaError::CircularDependency {
            first: Action::parse("a"),
            second: Action::parse("b"),
        };
        assert!(e.to_string().contains("circular"));
        let e = FsaError::Apa(apa::ApaError::StateLimitExceeded { limit: 5 });
        assert!(e.to_string().contains("APA"));
        assert!(e.source().is_some());
        let e = FsaError::UnknownAction("x".into());
        assert!(e.to_string().contains('x'));
        let e = FsaError::BudgetExceeded { limit: 42 };
        assert!(e.to_string().contains("42"));
        let e = FsaError::CorruptCheckpoint {
            reason: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("corrupt checkpoint"));
        assert!(e.to_string().contains("checksum"));
        let e = FsaError::CheckpointWrite {
            reason: "disk full".into(),
        };
        assert!(e.to_string().contains("cannot write checkpoint: disk full"));
        let e = FsaError::InvalidShard {
            reason: "start beyond end".into(),
        };
        assert!(e.to_string().contains("invalid shard range"));
        let e = FsaError::InvalidCapacity { what: "MemoStore" };
        assert!(e.to_string().contains("MemoStore") && e.to_string().contains("at least 1"));
        let e = FsaError::RecompositionOverflow {
            what: "state count",
        };
        assert_eq!(e.to_string(), "the recomposed state count overflows usize");
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FsaError>();
    }
}
