//! Configurable consumption semantics for the APA vehicle model.
//!
//! The Δ-relations printed in §5.1 have `rec` consume both the received
//! message (removed from `net`) and the GPS datum (removed from the
//! bus). With exactly those semantics the two-vehicle instance has 12
//! reachable states, while the paper's tool output reports 13 (and
//! 13² = 169 for Fig. 9 vs. our 12² = 144) — an accounting detail of the
//! SH tool that the paper does not specify. This module makes both
//! choices explicit so the ablation bench can chart all four variants;
//! every qualitative result (minima, maxima, dependence matrix,
//! requirement sets) is identical across them.

/// Whether an input datum is consumed by the action that uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumption {
    /// The datum is removed (the paper's printed Δ-relations).
    Consume,
    /// The datum is retained (e.g. a broadcast medium keeps messages).
    Retain,
}

/// Consumption semantics of the vehicle APA model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApaSemantics {
    /// Does `rec` remove the message from the shared `net` component?
    pub message: Consumption,
    /// Does `rec` remove the GPS datum from the vehicle bus?
    pub gps: Consumption,
}

impl ApaSemantics {
    /// The semantics of the Δ-relations as printed in §5.1.
    pub const PAPER: ApaSemantics = ApaSemantics {
        message: Consumption::Consume,
        gps: Consumption::Consume,
    };

    /// All four variants, for the ablation bench.
    pub const ALL: [ApaSemantics; 4] = [
        ApaSemantics {
            message: Consumption::Consume,
            gps: Consumption::Consume,
        },
        ApaSemantics {
            message: Consumption::Consume,
            gps: Consumption::Retain,
        },
        ApaSemantics {
            message: Consumption::Retain,
            gps: Consumption::Consume,
        },
        ApaSemantics {
            message: Consumption::Retain,
            gps: Consumption::Retain,
        },
    ];

    /// A short human-readable tag, e.g. `msg=consume/gps=retain`.
    pub fn tag(&self) -> String {
        let t = |c: Consumption| match c {
            Consumption::Consume => "consume",
            Consumption::Retain => "retain",
        };
        format!("msg={}/gps={}", t(self.message), t(self.gps))
    }
}

impl Default for ApaSemantics {
    fn default() -> Self {
        ApaSemantics::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper() {
        assert_eq!(ApaSemantics::default(), ApaSemantics::PAPER);
        assert_eq!(ApaSemantics::PAPER.message, Consumption::Consume);
    }

    #[test]
    fn four_distinct_variants() {
        let mut tags: Vec<String> = ApaSemantics::ALL.iter().map(ApaSemantics::tag).collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), 4);
    }

    #[test]
    fn tag_format() {
        assert_eq!(ApaSemantics::PAPER.tag(), "msg=consume/gps=consume");
    }
}
