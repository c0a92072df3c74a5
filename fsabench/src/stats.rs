//! Order statistics, regression bounds and the pairwise verdict rule.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values`, linearly
/// interpolated between closest ranks; `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] of an already ascending slice, without copying it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
    Some(lo + (hi - lo) * rank.fract())
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads match what the
/// benchmark's acceptance check computes. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |cut: usize| -> f64 {
        // Python's integer arithmetic: rank i clamped to 1..n-1, and the
        // interpolation weight taken *after* the clamp, so small samples
        // extrapolate exactly as `statistics.quantiles` does.
        let scaled = cut * (n + 1);
        let i = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - (4 * i) as f64;
        (sorted[i - 1] * (4.0 - delta) + sorted[i] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (`None` below two
/// values or for a zero median).
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Whether lower or higher values of a metric are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// By how much `change` is worse than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worse_by(self, base: f64, change: f64) -> f64 {
        let d = match self {
            Better::Lower => change - base,
            Better::Higher => base - change,
        };
        d / base.abs().max(f64::MIN_POSITIVE)
    }

    pub fn is_better(self, base: f64, change: f64) -> bool {
        self.worse_by(base, change) < 0.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest alternating pairs on which a gain may be claimed.
pub const MIN_CLAIM_PAIRS: usize = 10;

/// Judges one (metric, workload) from paired runs `base[i]`/`change[i]`.
///
/// * improved: at least [`MIN_CLAIM_PAIRS`] pairs run in alternating
///   order, the change wins at least nine tenths of them (ties count for
///   neither), and the medians differ by more than the base's own
///   interquartile range;
/// * otherwise, when either side's run-to-run spread exceeds `bound`,
///   unresolved, unless every change run beats every base run;
/// * otherwise regressed when the change's median is worse than the
///   base's by more than `bound`, else unchanged.
pub fn verdict(
    base: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    alternating: bool,
) -> Verdict {
    let pairs = base.len().min(change.len());
    let (Some(mb), Some(mc)) = (median(base), median(change)) else {
        return Verdict::Unresolved;
    };
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better.is_better(b, c))
        .count();
    let base_iqr = quartiles(base).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    if alternating
        && pairs >= MIN_CLAIM_PAIRS
        && wins * 10 >= pairs * 9
        && better.is_better(mb, mc)
        && (mc - mb).abs() > base_iqr
    {
        return Verdict::Improved;
    }
    let spread = relative_iqr(base)
        .unwrap_or(f64::INFINITY)
        .max(relative_iqr(change).unwrap_or(f64::INFINITY));
    let all_better = change
        .iter()
        .all(|&c| base.iter().all(|&b| better.is_better(b, c)));
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    if better.worse_by(mb, mc) > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(91.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let r = relative_iqr(&v).unwrap();
        assert!((r - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_shares_of_the_base_in_the_metric_direction() {
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Lower.worse_by(100.0, 95.0) < 0.0);
        assert!(Better::Higher.is_better(100.0, 101.0));
        assert!(!Better::Lower.is_better(100.0, 100.0));
    }

    fn runs(median: f64, jitter: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| median + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn verdict_rule() {
        let base = runs(100.0, 0.5, 10);
        // A clear, consistent gain on ten alternating pairs.
        let faster = runs(80.0, 0.5, 10);
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1, true),
            Verdict::Improved
        );
        // The same numbers without alternation, or on too few pairs,
        // claim nothing but are no regression either.
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base[..9], &faster[..9], Better::Lower, 0.1, true),
            Verdict::Unchanged
        );
        // Within the bound: unchanged; beyond it: regressed.
        assert_eq!(
            verdict(&base, &runs(105.0, 0.5, 10), Better::Lower, 0.1, true),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &runs(115.0, 0.5, 10), Better::Lower, 0.1, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &runs(85.0, 0.5, 10), Better::Higher, 0.1, true),
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved…
        let noisy = runs(100.0, 10.0, 10);
        assert_eq!(
            verdict(&noisy, &runs(101.0, 10.0, 10), Better::Lower, 0.1, true),
            Verdict::Unresolved
        );
        // …unless every change run beats every base run.
        let disjoint: Vec<f64> = noisy.iter().map(|v| v - 50.0).collect();
        assert_ne!(
            verdict(&noisy, &disjoint, Better::Lower, 0.1, false),
            Verdict::Unresolved
        );
        // Nine wins out of ten are enough, eight are not.
        let mut nine = faster.clone();
        nine[0] = 200.0;
        assert_eq!(
            verdict(&base, &nine, Better::Lower, 0.1, true),
            Verdict::Improved
        );
        let mut eight = nine.clone();
        eight[1] = 200.0;
        assert_ne!(
            verdict(&base, &eight, Better::Lower, 0.1, true),
            Verdict::Improved
        );
    }
}
