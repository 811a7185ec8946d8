//! Empirical distributions for estimation-mode percentile composition.
//!
//! An [`EDist`] is an immutable, sorted bag of `f64` samples with
//! interpolated quantiles and a deterministic inverse-CDF lookup. The
//! estimation pipeline (`DESIGN.md` §4d) attaches one `EDist` of observed
//! flow slowdowns to every link cluster; predicted flow-completion times
//! are read off these distributions instead of being solved exactly.
//!
//! Everything here is a pure function of the input samples: construction
//! sorts with [`f64::total_cmp`] (never `partial_cmp`, per lint rule F1)
//! and every query is branch-free of ambient state, so estimation-mode
//! reports stay byte-deterministic across runs and worker counts.

/// An empirical distribution over `f64` samples, stored sorted ascending.
///
/// # Example
///
/// ```
/// use picloud_simcore::EDist;
///
/// let d = EDist::from_samples(vec![4.0, 1.0, 2.0, 3.0]);
/// assert_eq!(d.len(), 4);
/// assert_eq!(d.quantile(0.0), 1.0);
/// assert_eq!(d.quantile(1.0), 4.0);
/// assert_eq!(d.quantile(0.5), 2.5); // interpolated between 2.0 and 3.0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EDist {
    samples: Vec<f64>,
}

impl EDist {
    /// Builds a distribution from unordered samples.
    ///
    /// Samples are sorted ascending with a total order on floats; NaNs
    /// (which the simulator never produces) would sort last rather than
    /// poisoning comparisons.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the distribution holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sorted samples, ascending.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Arithmetic mean, or `0.0` when empty.
    ///
    /// Summation runs in ascending sample order, so the float
    /// accumulation order — and therefore the bits — is fixed.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.samples.iter().sum();
        sum / self.samples.len() as f64
    }

    /// Interpolated quantile `q` in `[0, 1]`.
    ///
    /// Uses the linear-interpolation estimator over order statistics
    /// (the same convention as numpy's default): rank `q * (n - 1)`,
    /// interpolating between the two straddling samples. Out-of-range
    /// `q` clamps to the extremes. Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        if n == 1 || q <= 0.0 {
            // n == samples.len() is checked non-zero above
            return self.samples[0];
        }
        if q >= 1.0 {
            return self.samples[n - 1];
        }
        let rank = q * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = lo + 1;
        let frac = rank - lo as f64;
        self.samples[lo] + (self.samples[hi] - self.samples[lo]) * frac
    }

    /// Deterministic inverse-CDF draw: maps `u` in `[0, 1)` to the
    /// sample at that cumulative position (no interpolation — a draw
    /// returns an observed value, matching how the representative
    /// simulation actually behaved). Returns `0.0` when empty.
    pub fn sample_at(&self, u: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let idx = ((u.clamp(0.0, 1.0)) * n as f64) as usize;
        self.samples[idx.min(n - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let d = EDist::from_samples(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(0.25), 20.0);
        assert_eq!(d.quantile(0.5), 30.0);
        assert_eq!(d.quantile(1.0), 50.0);
        assert!((d.quantile(0.99) - 49.6).abs() < 1e-9);
    }

    #[test]
    fn empty_and_singleton() {
        let e = EDist::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.quantile(0.5), 0.0);
        assert_eq!(e.sample_at(0.7), 0.0);
        let s = EDist::from_samples(vec![3.5]);
        assert_eq!(s.quantile(0.99), 3.5);
        assert_eq!(s.sample_at(0.0), 3.5);
        assert_eq!(s.mean(), 3.5);
    }

    #[test]
    fn sample_at_returns_observed_values() {
        let d = EDist::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.sample_at(0.0), 1.0);
        assert_eq!(d.sample_at(0.26), 2.0);
        assert_eq!(d.sample_at(0.99), 4.0);
        assert_eq!(d.sample_at(1.0), 4.0);
    }
}
