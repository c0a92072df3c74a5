//! Authenticity requirements.
//!
//! Definition 1 of the paper: `auth(a, b, P)` — "Whenever an action `b`
//! happens, it must be authentic for an agent `P` that in any course of
//! events that seem possible to him, a certain action `a` has happened."

use crate::action::{Action, Agent};
use std::collections::BTreeSet;
use std::fmt;

/// How a requirement relates to the system's function (§4.4's
/// evaluation of the elicited requirements).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Relevance {
    /// Breaking the requirement can cause unsafe behaviour (e.g. warning
    /// a driver who should not be warned).
    Safety,
    /// Breaking the requirement affects availability / resource
    /// consumption only (e.g. a larger or smaller broadcast area).
    Availability,
}

impl fmt::Display for Relevance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relevance::Safety => write!(f, "safety"),
            Relevance::Availability => write!(f, "availability"),
        }
    }
}

/// One authenticity requirement `auth(antecedent, consequent, stakeholder)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuthRequirement {
    /// The action whose prior occurrence must be authentic (`a`).
    pub antecedent: Action,
    /// The action that triggers the obligation (`b`).
    pub consequent: Action,
    /// The agent to be assured (`P`), typically `stakeholder(b)`.
    pub stakeholder: Agent,
}

impl AuthRequirement {
    /// Creates a requirement.
    pub fn new(antecedent: Action, consequent: Action, stakeholder: Agent) -> Self {
        AuthRequirement {
            antecedent,
            consequent,
            stakeholder,
        }
    }
}

impl fmt::Debug for AuthRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for AuthRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "auth({}, {}, {})",
            self.antecedent, self.consequent, self.stakeholder
        )
    }
}

/// An ordered, duplicate-free set of requirements.
///
/// §4.4: "the union of all these requirements for the different
/// instances poses the set of requirements for the whole system. This
/// set can be reduced by eliminating duplicate requirements …".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequirementSet {
    items: BTreeSet<AuthRequirement>,
}

impl RequirementSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RequirementSet::default()
    }

    /// Inserts a requirement; duplicates are eliminated. Returns `true`
    /// if the requirement was new.
    pub fn insert(&mut self, req: AuthRequirement) -> bool {
        self.items.insert(req)
    }

    /// Returns `true` if the set contains `req`.
    pub fn contains(&self, req: &AuthRequirement) -> bool {
        self.items.contains(req)
    }

    /// Number of requirements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates in canonical (term) order.
    pub fn iter(&self) -> impl Iterator<Item = &AuthRequirement> {
        self.items.iter()
    }

    /// The union of two sets (requirements of the whole system across
    /// instances).
    pub fn union(&self, other: &RequirementSet) -> RequirementSet {
        RequirementSet {
            items: self.items.union(&other.items).cloned().collect(),
        }
    }

    /// The requirements not present in `other` — e.g.
    /// `χ₂ \ χ₁ = {(pos(GPS_2,pos), show(HMI_w,warn))}` in §4.4.
    pub fn difference(&self, other: &RequirementSet) -> RequirementSet {
        RequirementSet {
            items: self.items.difference(&other.items).cloned().collect(),
        }
    }

    /// Returns `true` if every requirement of `self` is in `other`.
    pub fn is_subset(&self, other: &RequirementSet) -> bool {
        self.items.is_subset(&other.items)
    }
}

impl FromIterator<AuthRequirement> for RequirementSet {
    fn from_iter<I: IntoIterator<Item = AuthRequirement>>(iter: I) -> Self {
        RequirementSet {
            items: iter.into_iter().collect(),
        }
    }
}

impl Extend<AuthRequirement> for RequirementSet {
    fn extend<I: IntoIterator<Item = AuthRequirement>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl<'a> IntoIterator for &'a RequirementSet {
    type Item = &'a AuthRequirement;
    type IntoIter = std::collections::btree_set::Iter<'a, AuthRequirement>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl fmt::Display for RequirementSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.items {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(a: &str, b: &str, p: &str) -> AuthRequirement {
        AuthRequirement::new(Action::parse(a), Action::parse(b), Agent::new(p))
    }

    #[test]
    fn display_matches_paper_notation() {
        let r = req("pos(GPS_w,pos)", "show(HMI_w,warn)", "D_w");
        assert_eq!(r.to_string(), "auth(pos(GPS_w,pos), show(HMI_w,warn), D_w)");
    }

    #[test]
    fn set_dedups() {
        let mut s = RequirementSet::new();
        assert!(s.insert(req("a", "b", "P")));
        assert!(!s.insert(req("a", "b", "P")));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&req("a", "b", "P")));
        assert!(!s.contains(&req("a", "b", "Q")));
    }

    #[test]
    fn union_and_difference_model_chi_growth() {
        // χ₁ and χ₂ = χ₁ ∪ {extra} from §4.4.
        let chi1: RequirementSet = [
            req("pos(GPS_w,pos)", "show(HMI_w,warn)", "D_w"),
            req("pos(GPS_1,pos)", "show(HMI_w,warn)", "D_w"),
            req("sense(ESP_1,sW)", "show(HMI_w,warn)", "D_w"),
        ]
        .into_iter()
        .collect();
        let extra = req("pos(GPS_2,pos)", "show(HMI_w,warn)", "D_w");
        let chi2 = chi1.union(&[extra.clone()].into_iter().collect());
        assert_eq!(chi2.len(), 4);
        assert!(chi1.is_subset(&chi2));
        let diff = chi2.difference(&chi1);
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&extra));
    }

    #[test]
    fn iteration_order_is_canonical() {
        let s: RequirementSet = [req("b", "z", "P"), req("a", "z", "P")]
            .into_iter()
            .collect();
        let firsts: Vec<String> = s.iter().map(|r| r.antecedent.to_string()).collect();
        assert_eq!(firsts, vec!["a", "b"]);
    }

    #[test]
    fn display_set() {
        let s: RequirementSet = [req("a", "b", "P")].into_iter().collect();
        assert_eq!(s.to_string(), "auth(a, b, P)\n");
        assert!(!s.is_empty());
        assert!(RequirementSet::new().is_empty());
    }

    #[test]
    fn relevance_display() {
        assert_eq!(Relevance::Safety.to_string(), "safety");
        assert_eq!(Relevance::Availability.to_string(), "availability");
    }
}
