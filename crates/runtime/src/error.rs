//! Errors of the runtime conformance subsystem.

use std::fmt;

/// Errors raised while compiling a monitor bank or driving a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A requirement references an action that is not an event of the
    /// stream alphabet — the monitor could never observe it, so the
    /// compiled bank would be vacuous for that requirement.
    UnknownAction {
        /// The rendered action term.
        action: String,
        /// The requirement it appears in.
        requirement: String,
    },
    /// The requirement set is empty — there is nothing to monitor.
    EmptyRequirementSet,
    /// A fleet was configured with zero streams.
    NoStreams,
    /// A fleet was configured with more streams than it may run
    /// ([`crate::MAX_STREAMS`]).
    TooManyStreams {
        /// The requested stream count.
        streams: usize,
        /// The most streams a fleet may run.
        limit: usize,
    },
    /// A fleet was configured with more events per stream than a stream
    /// may hold ([`crate::MAX_EVENTS_PER_STREAM`]).
    StreamTooLong {
        /// The requested events per stream.
        events: usize,
        /// The most a stream may hold.
        limit: usize,
    },
    /// Simulation of a stream failed.
    Simulation(String),
    /// A monitor latched `VIOLATED` but recorded no violation position —
    /// an internal invariant breach of the bank's sweep loop. Surfaced
    /// as an error (rather than a panic) so a corrupted run degrades to
    /// a reportable failure instead of tearing down the whole fleet.
    MissingViolationPosition {
        /// Index of the monitor within its bank.
        monitor: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownAction {
                action,
                requirement,
            } => write!(
                f,
                "requirement `{requirement}` references action `{action}` which is not in the \
                 stream alphabet"
            ),
            RuntimeError::EmptyRequirementSet => {
                write!(
                    f,
                    "cannot compile a monitor bank from an empty requirement set"
                )
            }
            RuntimeError::NoStreams => write!(f, "fleet configured with zero streams"),
            RuntimeError::TooManyStreams { streams, limit } => {
                write!(f, "{streams} streams exceed the limit of {limit} streams")
            }
            RuntimeError::StreamTooLong { events, limit } => write!(
                f,
                "{events} events per stream exceed the limit of {limit} events per stream"
            ),
            RuntimeError::Simulation(e) => write!(f, "stream simulation failed: {e}"),
            RuntimeError::MissingViolationPosition { monitor } => write!(
                f,
                "monitor {monitor} is VIOLATED but has no recorded violation position"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_breach_variant_renders() {
        let miss = RuntimeError::MissingViolationPosition { monitor: 3 };
        assert_eq!(
            miss.to_string(),
            "monitor 3 is VIOLATED but has no recorded violation position"
        );
    }
}
