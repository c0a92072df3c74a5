//! Positions, distances and communication/warning ranges.
//!
//! The paper abstracts positions to named constants (`pos1 … pos4`) and
//! guards the `rec` action with `distance(msg, gps) < range`. This
//! module gives those constants one-dimensional road coordinates so the
//! guard is computable: `pos1`/`pos2` lie within range of each other,
//! `pos3`/`pos4` likewise, but the two pairs are out of range — exactly
//! the configuration of the four-vehicle instance of Fig. 8.

use std::fmt;

/// A position on the (one-dimensional) road.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position(pub i64);

impl Position {
    /// Distance to another position.
    pub fn distance(self, other: Position) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A communication / warning range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Range(pub u64);

impl Range {
    /// The default range used by the scenario models.
    pub const DEFAULT: Range = Range(100);

    /// Returns `true` if `a` and `b` are within this range.
    pub fn within(self, a: Position, b: Position) -> bool {
        a.distance(b) < self.0
    }
}

/// The named positions of the paper's APA models (`Z_gps = P({pos1,
/// pos2, pos3, pos4})`), with coordinates realising the Fig. 8
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NamedPosition {
    /// Position of vehicle 1 (warns).
    Pos1,
    /// Position of vehicle 2 (within range of `Pos1`).
    Pos2,
    /// Position of vehicle 3 (warns; far from the first pair).
    Pos3,
    /// Position of vehicle 4 (within range of `Pos3`).
    Pos4,
}

impl NamedPosition {
    /// All named positions, in order.
    pub const ALL: [NamedPosition; 4] = [
        NamedPosition::Pos1,
        NamedPosition::Pos2,
        NamedPosition::Pos3,
        NamedPosition::Pos4,
    ];

    /// The atom name used in APA values (`pos1` …).
    pub fn atom(self) -> &'static str {
        match self {
            NamedPosition::Pos1 => "pos1",
            NamedPosition::Pos2 => "pos2",
            NamedPosition::Pos3 => "pos3",
            NamedPosition::Pos4 => "pos4",
        }
    }

    /// The coordinate of this named position.
    pub fn coordinate(self) -> Position {
        match self {
            NamedPosition::Pos1 => Position(0),
            NamedPosition::Pos2 => Position(50),
            NamedPosition::Pos3 => Position(10_000),
            NamedPosition::Pos4 => Position(10_050),
        }
    }

    /// Looks a named position up by its atom name.
    pub fn from_atom(atom: &str) -> Option<NamedPosition> {
        NamedPosition::ALL.into_iter().find(|p| p.atom() == atom)
    }
}

/// Distance between two positions given by atom name; `None` if either
/// name is unknown.
pub fn atom_distance(a: &str, b: &str) -> Option<u64> {
    Some(
        NamedPosition::from_atom(a)?
            .coordinate()
            .distance(NamedPosition::from_atom(b)?.coordinate()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(Position(3).distance(Position(-4)), 7);
        assert_eq!(Position(0).distance(Position(0)), 0);
    }

    #[test]
    fn range_within() {
        let r = Range(100);
        assert!(r.within(Position(0), Position(99)));
        assert!(!r.within(Position(0), Position(100)));
        assert!(r.within(Position(5), Position(5)));
    }

    #[test]
    fn fig8_configuration() {
        let r = Range::DEFAULT;
        let [p1, p2, p3, p4] = NamedPosition::ALL.map(NamedPosition::coordinate);
        assert!(r.within(p1, p2), "pair 1 in range");
        assert!(r.within(p3, p4), "pair 2 in range");
        assert!(!r.within(p1, p3), "pairs out of range");
        assert!(!r.within(p2, p4));
        assert!(!r.within(p1, p4));
        assert!(!r.within(p2, p3));
    }

    #[test]
    fn atom_round_trip() {
        for p in NamedPosition::ALL {
            assert_eq!(NamedPosition::from_atom(p.atom()), Some(p));
        }
        assert_eq!(NamedPosition::from_atom("nowhere"), None);
    }

    #[test]
    fn atom_distance_lookup() {
        assert_eq!(atom_distance("pos1", "pos2"), Some(50));
        assert_eq!(atom_distance("pos1", "bogus"), None);
    }

    #[test]
    fn display() {
        assert_eq!(Position(-3).to_string(), "-3");
    }
}
