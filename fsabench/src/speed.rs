//! Machine speed. On a shared machine the core the benchmark runs on
//! slows down and speeds up by tens of percent within seconds as other
//! tenants' load comes and goes, which would bury a change in a commit's
//! own speed. End-to-end timings are therefore reported at a fixed
//! reference speed: between operations the benchmark times a fixed piece
//! of work of its own, and scales each operation's time by how much
//! slower or faster that work ran just before and just after it than on
//! the reference machine with a quiet host. The work never calls the
//! repository's code, so a change to the repository cannot move it.
//!
//! Load does not slow all code alike: allocating code slows more than
//! integer arithmetic on data in the core's own cache. So each workload
//! is calibrated with the kind of work its operations do ([`Work`]).

use crate::gen::Rng;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The fixed work a workload's timings are scaled by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Integer mixing and lookups in an ordered map, then the
    /// [`Work::Allocating`] work.
    Mixed,
    /// Short strings formatted, indexed in a hash map and sorted.
    Allocating,
}

impl Work {
    /// Milliseconds one calibration takes on the 2-core machine the
    /// benchmark was built on while its host is quiet (the fastest run
    /// median seen there).
    fn reference_ms(self) -> f64 {
        match self {
            Work::Mixed => 2.40,
            Work::Allocating => 0.83,
        }
    }

    fn run(self) -> u64 {
        match self {
            Work::Mixed => arithmetic() ^ allocating(),
            Work::Allocating => allocating(),
        }
    }
}

/// Calibrations between operations are at least this far apart, so
/// short operations share one and long ones get one each.
const EVERY: Duration = Duration::from_millis(20);

/// Keys of the calibration table (its nodes take about 100 KiB).
const TABLE_KEYS: u64 = 4_096;

/// Integer mixing and lookups in an ordered map; allocates nothing.
fn arithmetic() -> u64 {
    static TABLE: OnceLock<BTreeMap<u64, u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..TABLE_KEYS).map(|k| (k * 7919, k)).collect());
    let mut rng = Rng::new(0x00ca_11b4_a7e5);
    let mut mixed = 0u64;
    for _ in 0..100_000 {
        mixed = mixed.wrapping_add(rng.next_u64());
    }
    for _ in 0..20_000 {
        let key = rng.next_u64() % TABLE_KEYS * 7919;
        mixed = mixed.wrapping_add(table.get(&key).copied().unwrap_or(0));
    }
    std::hint::black_box(mixed)
}

/// 3000 short strings formatted, indexed in a hash map with a fixed
/// hasher, and sorted; everything is freed at the end.
fn allocating() -> u64 {
    let mut rng = Rng::new(0x00a1_10c8);
    let mut names = Vec::new();
    let mut index = HashMap::with_hasher(BuildHasherDefault::<DefaultHasher>::default());
    for i in 0..3_000u64 {
        let name = format!("k{}-{i}", rng.next_u64() % 1_000);
        index.insert(name.clone(), i);
        names.push(name);
    }
    names.sort();
    std::hint::black_box(index.len() as u64 + names.len() as u64)
}

/// Times `work` in milliseconds. It runs twice with only the second run
/// timed, so what the operation before it left in the heap and the
/// caches does not slow it.
fn calibrate(work: Work) -> f64 {
    work.run();
    let t = Instant::now();
    std::hint::black_box(work.run());
    t.elapsed().as_secs_f64() * 1e3
}

/// The timed intervals of one run with the calibrations around them.
pub struct Log {
    work: Work,
    calibrations: Vec<f64>,
    last: Instant,
    /// Each interval in milliseconds, with the index of the calibration
    /// before it.
    intervals: Vec<(f64, usize)>,
}

/// A run's intervals, as measured and at the reference speed.
pub struct Scaled {
    pub raw_ms: Vec<f64>,
    pub scaled_ms: Vec<f64>,
    /// Reference time over the median calibration: above 1 when the
    /// machine ran faster than the reference.
    pub speed: f64,
}

impl Log {
    /// A log that has calibrated once.
    pub fn new(work: Work) -> Log {
        Log {
            work,
            calibrations: vec![calibrate(work)],
            last: Instant::now(),
            intervals: Vec::new(),
        }
    }

    pub fn record(&mut self, interval: Duration) {
        let before = self.calibrations.len() - 1;
        self.intervals.push((interval.as_secs_f64() * 1e3, before));
    }

    pub fn calibrate(&mut self) {
        self.calibrations.push(calibrate(self.work));
        self.last = Instant::now();
    }

    /// Calibrates when the last calibration is [`EVERY`] old.
    pub fn calibrate_if_due(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.calibrate();
        }
    }

    /// Calibrates a last time and scales every interval to the
    /// reference speed.
    pub fn finish(mut self) -> Scaled {
        self.calibrate();
        let reference = self.work.reference_ms();
        let speed = crate::stats::median(&self.calibrations).map_or(1.0, |m| reference / m);
        Scaled {
            raw_ms: self.intervals.iter().map(|&(ms, _)| ms).collect(),
            scaled_ms: scale(&self.intervals, &self.calibrations, reference),
            speed,
        }
    }
}

/// Each interval at the reference speed, by the mean of the calibrations
/// just before and just after it.
fn scale(intervals: &[(f64, usize)], calibrations: &[f64], reference: f64) -> Vec<f64> {
    intervals
        .iter()
        .map(|&(ms, i)| ms * reference * 2.0 / (calibrations[i] + calibrations[i + 1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_the_calibrations_around_them() {
        let r = 1.5;
        let calibrations = [2.0 * r, 2.0 * r, r];
        let scaled = scale(&[(10.0, 0), (10.0, 1), (20.0, 1)], &calibrations, r);
        // Twice as slow around the first interval: it counts half.
        assert!((scaled[0] - 5.0).abs() < 1e-9);
        // 1.5 times as slow around the others.
        assert!((scaled[1] - 10.0 / 1.5).abs() < 1e-9);
        assert!((scaled[2] - 20.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn a_log_keeps_every_interval_in_order() {
        for work in [Work::Mixed, Work::Allocating] {
            let mut log = Log::new(work);
            log.record(Duration::from_millis(3));
            log.calibrate();
            log.record(Duration::from_millis(4));
            let out = log.finish();
            assert_eq!(out.raw_ms, vec![3.0, 4.0]);
            assert_eq!(out.scaled_ms.len(), 2);
            assert!(out.speed > 0.0);
        }
    }
}
