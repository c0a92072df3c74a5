//! Error type of the distributed exploration subsystem.

use fsa_core::FsaError;
use fsa_serve::wire::WireError;
use std::fmt;

/// Failures of the coordinator, the workers, or the local driver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DistError {
    /// Transport-level failure (bind, connect, spawn).
    Io(String),
    /// Framing-layer failure on the `fsa-wire/v1` transport.
    Wire(WireError),
    /// A syntactically valid frame that violates the `fsa-dist/v3`
    /// protocol (wrong type, missing field, protocol skew).
    Proto(String),
    /// The coordinator's store-and-forward state file is unusable:
    /// corrupt, version-skewed, or written under a different
    /// configuration.
    State(String),
    /// An analysis-layer failure (model validation, budget, merge).
    Fsa(FsaError),
    /// Worker-side failure surfaced to the driver (all workers dead,
    /// coordinator rejected a result).
    Worker(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "i/o error: {e}"),
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::Proto(e) => write!(f, "protocol error: {e}"),
            DistError::State(e) => write!(f, "coordinator state error: {e}"),
            DistError::Fsa(e) => write!(f, "{e}"),
            DistError::Worker(e) => write!(f, "worker error: {e}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Wire(e) => Some(e),
            DistError::Fsa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

impl From<FsaError> for DistError {
    fn from(e: FsaError) -> Self {
        DistError::Fsa(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source() {
        let e = DistError::Proto("unexpected frame `bye`".to_owned());
        assert!(e.to_string().contains("protocol error"));
        let e = DistError::Wire(WireError::Truncated);
        assert!(e.source().is_some());
        let e = DistError::Fsa(FsaError::BudgetExceeded { limit: 9 });
        assert!(e.to_string().contains('9'));
        let e = DistError::State("fingerprint mismatch".to_owned());
        assert!(e.to_string().contains("state"));
        let e = DistError::Worker("all workers exited".to_owned());
        assert!(e.to_string().contains("worker"));
        let e: DistError = std::io::Error::other("boom").into();
        assert!(matches!(e, DistError::Io(_)));
    }
}
