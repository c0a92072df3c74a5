//! Confidentiality requirements by functional flow analysis.
//!
//! §6 of the paper: "Future work may include the derivation of
//! confidentiality requirements in a similar way as was presented here.
//! Though this will require for different security goals …". This
//! module implements that extension. Where authenticity asks for every
//! *used* input to have actually happened, confidentiality asks that
//! classified information does **not** reach outputs whose observers
//! lack clearance. The same functional flow graph answers both: the
//! reflexive transitive closure decides which incoming boundary actions
//! can influence which outgoing boundary actions.
//!
//! Given a [`ConfidentialityPolicy`] assigning sensitivity
//! [`Level`]s to inputs and clearance levels to outputs, the derived
//! requirement for each (input, output) pair where sensitivity exceeds
//! clearance is `noflow(x, y)` — with status *satisfied* if the model
//! contains no functional path, or *violated* (an architectural
//! problem) if it does.

use crate::action::Action;
use crate::instance::SosInstance;
use fsa_graph::closure::reflexive_transitive_closure;
use std::collections::BTreeMap;
use std::fmt;

/// A linear sensitivity/clearance level (higher = more sensitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level(pub u8);

impl Level {
    /// Public information / uncleared observers.
    pub const PUBLIC: Level = Level(0);
    /// Restricted information / vetted observers.
    pub const RESTRICTED: Level = Level(1);
    /// Secret information / fully cleared observers.
    pub const SECRET: Level = Level(2);
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "public"),
            1 => write!(f, "restricted"),
            2 => write!(f, "secret"),
            n => write!(f, "level{n}"),
        }
    }
}

/// Sensitivity of inputs and clearance of outputs.
///
/// Unlisted inputs default to [`Level::PUBLIC`] (no constraint);
/// unlisted outputs default to [`Level::SECRET`] (may see everything).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfidentialityPolicy {
    sensitivity: BTreeMap<Action, Level>,
    clearance: BTreeMap<Action, Level>,
}

impl ConfidentialityPolicy {
    /// Creates an empty (permit-everything) policy.
    pub fn new() -> Self {
        ConfidentialityPolicy::default()
    }

    /// Declares the sensitivity of an input action.
    pub fn classify(mut self, input: Action, level: Level) -> Self {
        self.sensitivity.insert(input, level);
        self
    }

    /// Declares the clearance of an output action's observer.
    pub fn clear(mut self, output: Action, level: Level) -> Self {
        self.clearance.insert(output, level);
        self
    }

    /// The sensitivity of `input`.
    pub fn sensitivity_of(&self, input: &Action) -> Level {
        self.sensitivity
            .get(input)
            .copied()
            .unwrap_or(Level::PUBLIC)
    }

    /// The clearance of `output`.
    pub fn clearance_of(&self, output: &Action) -> Level {
        self.clearance.get(output).copied().unwrap_or(Level::SECRET)
    }
}

/// A derived confidentiality requirement `noflow(source, observer)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfRequirement {
    /// The classified input action.
    pub source: Action,
    /// The insufficiently cleared output action.
    pub observer: Action,
    /// Sensitivity of the source.
    pub sensitivity: Level,
    /// Clearance of the observer.
    pub clearance: Level,
    /// `true` if the model contains a functional path source → observer
    /// (the requirement is violated by the architecture as modelled).
    pub violated: bool,
}

impl fmt::Display for ConfRequirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "noflow({}, {}) [{} vs {}]: {}",
            self.source,
            self.observer,
            self.sensitivity,
            self.clearance,
            if self.violated {
                "VIOLATED"
            } else {
                "satisfied"
            }
        )
    }
}

/// Derives the confidentiality requirements of `instance` under
/// `policy`: one per (incoming boundary action, outgoing boundary
/// action) pair whose sensitivity exceeds the observer's clearance.
pub fn elicit_confidentiality(
    instance: &SosInstance,
    policy: &ConfidentialityPolicy,
) -> Vec<ConfRequirement> {
    let g = instance.graph();
    let closure = reflexive_transitive_closure(g);
    let sources = g.sources();
    let sinks = g.sinks();
    let mut out = Vec::new();
    for &x in &sources {
        let sensitivity = policy.sensitivity_of(instance.action(x));
        for &y in &sinks {
            if x == y {
                continue;
            }
            let clearance = policy.clearance_of(instance.action(y));
            if sensitivity > clearance {
                out.push(ConfRequirement {
                    source: instance.action(x).clone(),
                    observer: instance.action(y).clone(),
                    sensitivity,
                    clearance,
                    violated: closure.contains(x, y),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SosInstanceBuilder;

    /// GPS position (restricted) flows to the broadcast message; the
    /// driver's display is cleared, the broadcast is public.
    fn instance() -> SosInstance {
        let mut b = SosInstanceBuilder::new("privacy");
        let pos = b.action(Action::parse("pos(GPS_1,pos)"), "D_1");
        let sense = b.action(Action::parse("sense(ESP_1,sW)"), "D_1");
        let send = b.action(Action::parse("send(CU_1,cam(pos))"), "D_1");
        let show = b.action(Action::parse("show(HMI_1,warn)"), "D_1");
        b.flow(pos, send);
        b.flow(sense, send);
        b.flow(sense, show);
        b.build()
    }

    fn policy() -> ConfidentialityPolicy {
        ConfidentialityPolicy::new()
            .classify(Action::parse("pos(GPS_1,pos)"), Level::RESTRICTED)
            .clear(Action::parse("send(CU_1,cam(pos))"), Level::PUBLIC)
            .clear(Action::parse("show(HMI_1,warn)"), Level::SECRET)
    }

    #[test]
    fn detects_position_leak_to_broadcast() {
        let reqs = elicit_confidentiality(&instance(), &policy());
        assert_eq!(reqs.len(), 1, "only the restricted-vs-public pair");
        let r = &reqs[0];
        assert_eq!(r.source, Action::parse("pos(GPS_1,pos)"));
        assert_eq!(r.observer, Action::parse("send(CU_1,cam(pos))"));
        assert!(r.violated, "pos flows into the cam broadcast");
        assert!(r.to_string().contains("VIOLATED"));
    }

    #[test]
    fn cleared_observer_generates_no_requirement() {
        // show is SECRET-cleared: no requirement against it.
        let reqs = elicit_confidentiality(&instance(), &policy());
        assert!(reqs
            .iter()
            .all(|r| r.observer != Action::parse("show(HMI_1,warn)")));
    }

    #[test]
    fn satisfied_when_no_path() {
        // Make pos feed only the display (cleared); broadcast gets
        // nothing sensitive.
        let mut b = SosInstanceBuilder::new("fixed");
        let pos = b.action(Action::parse("pos(GPS_1,pos)"), "D_1");
        let send = b.action(Action::parse("send(CU_1,cam(pos))"), "D_1");
        let show = b.action(Action::parse("show(HMI_1,warn)"), "D_1");
        let sense = b.action(Action::parse("sense(ESP_1,sW)"), "D_1");
        b.flow(pos, show);
        b.flow(sense, send);
        let inst = b.build();
        let reqs = elicit_confidentiality(&inst, &policy());
        assert_eq!(reqs.len(), 1);
        assert!(!reqs[0].violated, "no functional path pos → send");
        assert!(reqs[0].to_string().contains("satisfied"));
    }

    #[test]
    fn default_levels() {
        let p = ConfidentialityPolicy::new();
        assert_eq!(p.sensitivity_of(&Action::parse("x")), Level::PUBLIC);
        assert_eq!(p.clearance_of(&Action::parse("y")), Level::SECRET);
        assert!(elicit_confidentiality(&instance(), &p).is_empty());
    }

    #[test]
    fn level_display() {
        assert_eq!(Level::PUBLIC.to_string(), "public");
        assert_eq!(Level::SECRET.to_string(), "secret");
        assert_eq!(Level(7).to_string(), "level7");
    }
}
