//! Measurement primitives for experiments.
//!
//! Three collector types cover everything the PiCloud harnesses report:
//!
//! * [`Counter`] — monotonically increasing totals (requests served, bytes
//!   sent).
//! * [`TimeWeightedGauge`] — a value that changes over simulated time and is
//!   summarised by its *time-weighted* mean/max (CPU utilisation, queue
//!   depth, power draw). Time-weighting matters: a gauge at 100% for 1 s and
//!   0% for 9 s must average 10%, regardless of how many samples were taken.
//! * [`Histogram`] — distribution of observations (request latency, flow
//!   completion time) with quantile queries.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A monotonically increasing counter.
///
/// # Example
///
/// ```
/// use picloud_simcore::Counter;
///
/// let mut served = Counter::new();
/// served.add(3);
/// served.increment();
/// assert_eq!(served.value(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter.
    #[expect(
        clippy::expect_used,
        reason = "checked arithmetic: panic is the documented overflow diagnostic; operator impls cannot return Result"
    )]
    pub fn add(&mut self, n: u64) {
        self.value = self.value.checked_add(n).expect("counter overflowed u64");
    }

    /// Adds one.
    pub fn increment(&mut self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// A gauge whose summary statistics are weighted by how long each value was
/// held on the virtual clock.
///
/// # Example
///
/// ```
/// use picloud_simcore::{SimTime, TimeWeightedGauge};
///
/// let mut cpu = TimeWeightedGauge::new(SimTime::ZERO, 0.0);
/// cpu.set(SimTime::from_secs(0), 1.0);
/// cpu.set(SimTime::from_secs(1), 0.0);
/// // 1.0 held for 1s, 0.0 held for 9s => mean 0.1
/// assert!((cpu.mean(SimTime::from_secs(10)) - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeWeightedGauge {
    current: f64,
    last_change: SimTime,
    weighted_sum: f64,
    observed_from: SimTime,
    max: f64,
    min: f64,
}

impl TimeWeightedGauge {
    /// Creates a gauge holding `initial` from instant `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeightedGauge {
            current: initial,
            last_change: start,
            weighted_sum: 0.0,
            observed_from: start,
            max: initial,
            min: initial,
        }
    }

    /// Sets the gauge to `value` at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update — gauges, like the
    /// simulation itself, move forward only.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_change,
            "gauge updated backwards in time ({now} < {})",
            self.last_change
        );
        let held = now.duration_since(self.last_change).as_secs_f64();
        self.weighted_sum += self.current * held;
        self.current = value;
        self.last_change = now;
        if value > self.max {
            self.max = value;
        }
        if value < self.min {
            self.min = value;
        }
    }

    /// Adds `delta` to the current value at instant `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let next = self.current + delta;
        self.set(now, next);
    }

    /// The instantaneous value.
    pub fn value(&self) -> f64 {
        self.current
    }

    /// The largest value ever held.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The smallest value ever held.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Time-weighted mean over `[start, now]`, where `start` is the instant
    /// the gauge was created.
    ///
    /// Returns the instantaneous value if no time has passed.
    pub fn mean(&self, now: SimTime) -> f64 {
        let total = now
            .saturating_duration_since(self.observed_from)
            .as_secs_f64();
        if total <= 0.0 {
            return self.current;
        }
        let tail = now
            .saturating_duration_since(self.last_change)
            .as_secs_f64();
        (self.weighted_sum + self.current * tail) / total
    }

    /// Integral of the gauge over time (value × seconds); e.g. watts
    /// integrated to joules.
    pub fn integral(&self, now: SimTime) -> f64 {
        let tail = now
            .saturating_duration_since(self.last_change)
            .as_secs_f64();
        self.weighted_sum + self.current * tail
    }
}

/// A histogram of `f64` observations supporting mean and quantile queries.
///
/// Observations are stored exactly (this is a simulation harness, not a
/// production telemetry pipeline); quantiles use the nearest-rank method on
/// a lazily sorted copy.
///
/// # Example
///
/// ```
/// use picloud_simcore::Histogram;
///
/// let mut latency = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     latency.observe(v);
/// }
/// assert_eq!(latency.len(), 5);
/// assert_eq!(latency.quantile(0.5), Some(3.0));
/// assert_eq!(latency.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sum: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values; those always indicate a model bug.
    pub fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "histogram observed non-finite value");
        self.samples.push(value);
        self.sum += value;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum / self.samples.len() as f64)
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().reduce(f64::max)
    }

    /// Nearest-rank quantile `q` in `[0, 1]`, or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// Population standard deviation, or `None` if empty.
    ///
    /// A single observation has zero spread, so one sample returns
    /// `Some(0.0)` — never `NaN`. (Were this the *sample* standard
    /// deviation, `n − 1 = 0` would divide to `NaN`; the population form
    /// is chosen exactly so every non-empty histogram summarises to
    /// finite numbers.)
    pub fn stddev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .samples
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.samples.len() as f64;
        // Squared terms cannot sum negative, but guard the sqrt anyway so
        // a pathological float state can never leak NaN into a report.
        Some(var.max(0.0).sqrt())
    }

    /// Every summary statistic at once, or `None` if the histogram is
    /// empty.
    ///
    /// This is the *only* summary API exporters should use: it guarantees
    /// no `NaN` ever reaches a report. Edge cases are defined, not
    /// accidental:
    ///
    /// * **empty** — `None` (exporters print an explicit `count 0` row);
    /// * **single observation** — every quantile, `min`, `max` and `mean`
    ///   equal that observation and `stddev` is `0.0`.
    ///
    /// # Example
    ///
    /// ```
    /// use picloud_simcore::Histogram;
    ///
    /// assert!(Histogram::new().summary().is_none());
    ///
    /// let one: Histogram = [42.0].into_iter().collect();
    /// let s = one.summary().unwrap();
    /// assert_eq!((s.count, s.p50, s.p99, s.stddev), (1, 42.0, 42.0, 0.0));
    /// ```
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.samples.is_empty() {
            return None;
        }
        Some(HistogramSummary {
            count: self.len(),
            sum: self.sum(),
            mean: self.mean()?,
            min: self.min()?,
            max: self.max()?,
            p50: self.quantile(0.5)?,
            p90: self.quantile(0.9)?,
            p99: self.quantile(0.99)?,
            stddev: self.stddev()?,
        })
    }

    /// Iterates over the raw observations in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.samples.iter()
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.observe(v);
        }
    }
}

impl FromIterator<f64> for Histogram {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

/// The summary statistics of one non-empty [`Histogram`], as produced by
/// [`Histogram::summary`]. All fields are finite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations (always ≥ 1).
    pub count: usize,
    /// Sum of all observations.
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Population standard deviation (`0.0` for a single observation).
    pub stddev: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.increment();
        c.add(41);
        assert_eq!(c.value(), 42);
        assert_eq!(c.to_string(), "42");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn counter_overflow_panics() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.increment();
    }

    #[test]
    fn gauge_time_weighting() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 0.0);
        g.set(SimTime::from_secs(2), 10.0); // 0.0 held 2s
        g.set(SimTime::from_secs(4), 0.0); // 10.0 held 2s
        let mean = g.mean(SimTime::from_secs(10)); // 0.0 held 6 more
        assert!((mean - 2.0).abs() < 1e-12, "mean was {mean}");
        assert_eq!(g.max(), 10.0);
        assert_eq!(g.min(), 0.0);
    }

    #[test]
    fn gauge_integral_is_energy_like() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 100.0); // 100 W
        g.set(SimTime::from_secs(10), 50.0);
        let joules = g.integral(SimTime::from_secs(20));
        assert!((joules - (100.0 * 10.0 + 50.0 * 10.0)).abs() < 1e-9);
    }

    #[test]
    fn gauge_mean_with_no_elapsed_time_is_current() {
        let g = TimeWeightedGauge::new(SimTime::from_secs(5), 7.0);
        assert_eq!(g.mean(SimTime::from_secs(5)), 7.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn gauge_rejects_time_travel() {
        let mut g = TimeWeightedGauge::new(SimTime::from_secs(5), 0.0);
        g.set(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let h: Histogram = (1..=100).map(f64::from).collect();
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.mean(), Some(50.5));
    }

    #[test]
    fn histogram_empty_returns_none() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.stddev(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_stddev() {
        let h: Histogram = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((h.stddev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn histogram_rejects_nan() {
        Histogram::new().observe(f64::NAN);
    }

    #[test]
    fn empty_histogram_summary_is_none_not_nan() {
        assert_eq!(Histogram::new().summary(), None);
    }

    #[test]
    fn single_observation_summary_is_finite_everywhere() {
        let h: Histogram = [3.25].into_iter().collect();
        let s = h.summary().expect("non-empty");
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 3.25);
        assert_eq!(s.mean, 3.25);
        assert_eq!(s.min, 3.25);
        assert_eq!(s.max, 3.25);
        // All quantiles of one observation are that observation.
        assert_eq!((s.p50, s.p90, s.p99), (3.25, 3.25, 3.25));
        assert_eq!(h.quantile(0.0), Some(3.25));
        assert_eq!(h.quantile(1.0), Some(3.25));
        // Zero spread, not NaN (a sample stddev would divide by n-1 = 0).
        assert_eq!(s.stddev, 0.0);
        assert!([s.sum, s.mean, s.min, s.max, s.p50, s.p90, s.p99, s.stddev]
            .iter()
            .all(|v| v.is_finite()));
    }

    #[test]
    fn summary_matches_individual_queries() {
        let h: Histogram = (1..=100).map(f64::from).collect();
        let s = h.summary().unwrap();
        assert_eq!(s.p50, h.quantile(0.5).unwrap());
        assert_eq!(s.p90, h.quantile(0.9).unwrap());
        assert_eq!(s.p99, h.quantile(0.99).unwrap());
        assert_eq!(s.mean, h.mean().unwrap());
        assert_eq!(s.stddev, h.stddev().unwrap());
    }
}
