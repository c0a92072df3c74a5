//! Seeded retry backoff for the worker's network loops.
//!
//! Two places in the worker sleep before trying again: the `retry`
//! frame (every unfinished shard is leased out — ask again later) and
//! a lost coordinator connection (reconnect and re-acquire the
//! lease). A fixed sleep synchronises the whole fleet: sixteen
//! workers told "retry in 500ms" all wake in the same millisecond and
//! stampede the listener, and the one free shard is observed ~500ms
//! late on average. *Decorrelated jitter* (AWS architecture blog
//! flavour) fixes both: each delay is drawn uniformly from
//! `[base, prev × 3]`, clamped to a cap, from a per-worker seeded
//! generator — workers desynchronise immediately and idle probes stay
//! cheap while sustained contention still backs off exponentially.

use std::time::Duration;

/// A seeded decorrelated-jitter backoff schedule: each delay is
/// uniform in `[base, prev × 3]`, clamped to the cap, independent per
/// seed. One instance per worker per concern (lease contention and
/// reconnects track separate streaks), reset whenever the contended
/// resource is acquired.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
    state: u64,
}

impl Backoff {
    /// A backoff starting at `base_ms`, never exceeding `cap_ms`,
    /// with its jitter stream derived from `seed`.
    #[must_use]
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            prev_ms: base_ms,
            state: seed,
        }
    }

    /// The next delay of the streak. A peer's suggested delay (the
    /// coordinator's `retry_ms`) is not consulted: a jittered probe
    /// may come back well before it, while a streak still grows
    /// toward the cap.
    pub fn next_delay(&mut self) -> Duration {
        let hi = self.prev_ms.saturating_mul(3).min(self.cap_ms);
        let lo = self.base_ms.min(hi);
        let span = hi - lo + 1;
        let ms = lo + self.next_u64() % span;
        self.prev_ms = ms;
        Duration::from_millis(ms)
    }

    /// Ends the streak: the contended resource was acquired, so the
    /// next delay starts from the base again.
    pub fn reset(&mut self) {
        self.prev_ms = self.base_ms;
    }

    /// splitmix64 step — the repo's standard cheap generator (same
    /// finaliser as `fsa_exec`'s fault plans).
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decorrelated_stays_within_base_and_cap() {
        let mut b = Backoff::new(10, 400, 42);
        let mut prev = 10u64;
        for _ in 0..200 {
            let d = b.next_delay().as_millis() as u64;
            assert!((10..=400).contains(&d), "delay {d} out of [10, 400]");
            assert!(
                d <= prev.saturating_mul(3).min(400),
                "delay {d} beyond prev×3"
            );
            prev = d;
        }
    }

    #[test]
    fn decorrelated_is_deterministic_per_seed_and_desynchronised_across_seeds() {
        let draws = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(10, 2000, seed);
            (0..16).map(|_| b.next_delay().as_millis() as u64).collect()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn reset_returns_the_streak_to_base_scale() {
        let mut b = Backoff::new(10, 2000, 3);
        for _ in 0..10 {
            b.next_delay();
        }
        b.reset();
        let d = b.next_delay().as_millis() as u64;
        assert!(d <= 30, "post-reset delay {d} should be within base×3");
    }
}
