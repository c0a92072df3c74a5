//! Error types for APA construction and analysis.

use std::error::Error;
use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApaError {
    /// An elementary automaton has an empty neighbourhood. The paper:
    /// "To avoid pathological cases it is generally assumed that
    /// `N(t) ≠ ∅` for all `t ∈ T`."
    EmptyNeighbourhood {
        /// Name of the offending automaton.
        automaton: String,
    },
    /// Two components were declared with the same name.
    DuplicateComponent {
        /// The clashing name.
        name: String,
    },
    /// Two elementary automata were declared with the same name.
    DuplicateAutomaton {
        /// The clashing name.
        name: String,
    },
    /// The reachability exploration exceeded its state budget.
    StateLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A transition rule produced a successor of the wrong width.
    MalformedSuccessor {
        /// Name of the offending automaton.
        automaton: String,
        /// Neighbourhood width expected.
        expected: usize,
        /// Width produced by the rule.
        got: usize,
    },
    /// A `u32` id space of the arena kernel would run out: a
    /// [`ReachOptions::max_states`](crate::ReachOptions) above
    /// `u32::MAX`, or more states, cells, local states, firings or edges
    /// than `u32` ids can name.
    IdSpaceExceeded {
        /// The id space: `"states"`, `"cells"`, `"local states"`,
        /// `"firings"` or `"edges"`.
        space: &'static str,
        /// The id, count or limit that does not fit in a `u32`.
        requested: u64,
    },
    /// A part given to [`Simulator::product`](crate::Simulator::product)
    /// does not fit the APA: it names an automaton or a component the
    /// APA lacks, repeats an automaton of an earlier part, or declares or
    /// wires an automaton otherwise than the APA.
    PartMismatch {
        /// Index of the part.
        part: usize,
        /// The automaton or component at fault.
        name: String,
    },
}

impl fmt::Display for ApaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApaError::EmptyNeighbourhood { automaton } => {
                write!(
                    f,
                    "elementary automaton `{automaton}` has an empty neighbourhood"
                )
            }
            ApaError::DuplicateComponent { name } => {
                write!(f, "duplicate state component `{name}`")
            }
            ApaError::DuplicateAutomaton { name } => {
                write!(f, "duplicate elementary automaton `{name}`")
            }
            ApaError::StateLimitExceeded { limit } => {
                write!(f, "reachability exploration exceeded {limit} states")
            }
            ApaError::MalformedSuccessor {
                automaton,
                expected,
                got,
            } => write!(
                f,
                "rule of `{automaton}` produced a successor of width {got}, expected {expected}"
            ),
            ApaError::IdSpaceExceeded { space, requested } => write!(
                f,
                "{requested} {space} exceed the kernel's u32 id space (at most {})",
                u32::MAX
            ),
            ApaError::PartMismatch { part, name } => write!(
                f,
                "part {part} does not fit the APA at `{name}` (missing, in an earlier part, \
                 out of order or wired otherwise)"
            ),
        }
    }
}

impl Error for ApaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ApaError::EmptyNeighbourhood {
            automaton: "V1_sense".into(),
        };
        assert!(e.to_string().contains("V1_sense"));
        let e = ApaError::StateLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10"));
        let e = ApaError::MalformedSuccessor {
            automaton: "t".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("width 3"));
        let e = ApaError::IdSpaceExceeded {
            space: "states",
            requested: 1 << 32,
        };
        assert_eq!(
            e.to_string(),
            "4294967296 states exceed the kernel's u32 id space (at most 4294967295)"
        );
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ApaError>();
    }
}
