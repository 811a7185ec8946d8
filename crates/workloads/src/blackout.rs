//! Request loss during container downtime.
//!
//! When a Pi crashes, every container it hosted stops serving until the
//! self-healing controller restarts it elsewhere. This module is the
//! workload-side account of that blackout: an [`OutageLedger`] records
//! per-container outage windows as they open and close, and converts the
//! accumulated downtime into the service-level numbers the recovery
//! experiment reports — lost requests (at the container's steady request
//! rate), total and mean downtime, and fleet availability.

use picloud_simcore::telemetry::MetricsRegistry;
use picloud_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One closed outage window for one container.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// The container that went dark.
    pub container: String,
    /// When its node crashed.
    pub down_at: SimTime,
    /// When service resumed (or the horizon, if it never did).
    pub restored_at: SimTime,
    /// Whether service actually resumed — `false` for windows truncated
    /// at the end of the observation horizon.
    pub recovered: bool,
}

impl Outage {
    /// The window's length.
    pub fn downtime(&self) -> SimDuration {
        self.restored_at.saturating_duration_since(self.down_at)
    }
}

/// Accumulates outage windows and prices them in lost requests.
///
/// # Example
///
/// ```
/// use picloud_workloads::blackout::OutageLedger;
/// use picloud_simcore::{SimDuration, SimTime};
///
/// let mut ledger = OutageLedger::new(25.0);
/// ledger.open("web-3-0", SimTime::from_secs(10));
/// ledger.close("web-3-0", SimTime::from_secs(14));
/// assert_eq!(ledger.lost_requests(), 100); // 4 s dark at 25 req/s
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageLedger {
    /// Steady per-container request rate, req/s.
    rate_hz: f64,
    /// Containers currently dark: name → when they went down.
    open: BTreeMap<String, SimTime>,
    /// Closed windows, in close order.
    windows: Vec<Outage>,
}

impl OutageLedger {
    /// A ledger pricing downtime at `rate_hz` requests per second per
    /// container.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is negative or non-finite.
    pub fn new(rate_hz: f64) -> Self {
        assert!(
            rate_hz.is_finite() && rate_hz >= 0.0,
            "request rate must be finite and non-negative"
        );
        OutageLedger {
            rate_hz,
            open: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// The per-container request rate.
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }

    /// Opens an outage window for `container`. Idempotent: re-opening an
    /// already-dark container keeps the earlier start.
    pub fn open(&mut self, container: &str, now: SimTime) {
        self.open.entry(container.to_owned()).or_insert(now);
    }

    /// Whether `container` is currently dark.
    pub fn is_dark(&self, container: &str) -> bool {
        self.open.contains_key(container)
    }

    /// Number of containers currently dark.
    pub fn dark_count(&self) -> usize {
        self.open.len()
    }

    /// Closes `container`'s window at `now` (service restored). Returns
    /// the downtime, or `None` if no window was open.
    pub fn close(&mut self, container: &str, now: SimTime) -> Option<SimDuration> {
        let down_at = self.open.remove(container)?;
        let outage = Outage {
            container: container.to_owned(),
            down_at,
            restored_at: now.max(down_at),
            recovered: true,
        };
        let d = outage.downtime();
        self.windows.push(outage);
        Some(d)
    }

    /// Truncates every still-open window at the horizon. Those windows
    /// count toward downtime and lost requests but not toward recovery
    /// statistics (`recovered` stays `false`).
    pub fn close_all_unrecovered(&mut self, horizon: SimTime) {
        let open = std::mem::take(&mut self.open);
        for (container, down_at) in open {
            self.windows.push(Outage {
                container,
                down_at,
                restored_at: horizon.max(down_at),
                recovered: false,
            });
        }
    }

    /// All closed windows, in close order.
    pub fn outages(&self) -> &[Outage] {
        &self.windows
    }

    /// Total downtime across all closed windows.
    pub fn total_downtime(&self) -> SimDuration {
        self.windows
            .iter()
            .fold(SimDuration::ZERO, |acc, o| acc.saturating_add(o.downtime()))
    }

    /// Mean downtime of *recovered* windows — the measured MTTR.
    pub fn mean_time_to_restore(&self) -> Option<SimDuration> {
        let recovered: Vec<_> = self.windows.iter().filter(|o| o.recovered).collect();
        if recovered.is_empty() {
            return None;
        }
        let total = recovered
            .iter()
            .fold(SimDuration::ZERO, |acc, o| acc.saturating_add(o.downtime()));
        Some(total / recovered.len() as u64)
    }

    /// The longest single window, closed or still dark at `now`.
    pub fn worst_downtime(&self, now: SimTime) -> SimDuration {
        let closed = self.windows.iter().map(Outage::downtime);
        let dark = self
            .open
            .values()
            .map(|&down| now.saturating_duration_since(down));
        closed.chain(dark).max().unwrap_or(SimDuration::ZERO)
    }

    /// Requests lost to closed windows: `rate × Σ downtime`, floored.
    pub fn lost_requests(&self) -> u64 {
        (self.total_downtime().as_secs_f64() * self.rate_hz) as u64
    }

    /// Fleet availability over `horizon` for `containers` containers:
    /// `1 − Σ downtime / (containers × horizon)`.
    ///
    /// Call [`OutageLedger::close_all_unrecovered`] first so still-dark
    /// containers are charged up to the horizon.
    pub fn availability(&self, horizon: SimDuration, containers: usize) -> f64 {
        let denom = horizon.as_secs_f64() * containers as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        (1.0 - self.total_downtime().as_secs_f64() / denom).max(0.0)
    }

    /// Records the ledger into `reg` at `now`: blackout-second and
    /// lost-request totals, the number of containers currently dark, and
    /// a `faults_outage_seconds` histogram with one observation per
    /// closed window (so MTTR quantiles fall out of the snapshot).
    ///
    /// The histogram is rebuilt from the closed windows, so record into a
    /// fresh registry (or once at end of run) rather than repeatedly.
    pub fn record_telemetry(&self, reg: &mut MetricsRegistry, now: SimTime) {
        reg.gauge("faults_blackout_seconds_total", &[])
            .set(now, self.total_downtime().as_secs_f64());
        reg.gauge("faults_dark_containers", &[])
            .set(now, self.dark_count() as f64);
        let lost = reg.counter("faults_lost_requests_total", &[]);
        lost.add(self.lost_requests() - lost.value());
        let outages = reg.counter("faults_outages_total", &[]);
        outages.add(self.windows.len() as u64 - outages.value());
        let hist = reg.histogram("faults_outage_seconds", &[]);
        if hist.is_empty() {
            hist.extend(self.windows.iter().map(|w| w.downtime().as_secs_f64()));
        }
    }
}

impl fmt::Display for OutageLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} outages closed, {} dark, {} requests lost",
            self.windows.len(),
            self.open.len(),
            self.lost_requests()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_accumulate() {
        let mut l = OutageLedger::new(10.0);
        l.open("a", SimTime::from_secs(1));
        l.open("b", SimTime::from_secs(2));
        assert_eq!(l.dark_count(), 2);
        assert_eq!(
            l.close("a", SimTime::from_secs(4)),
            Some(SimDuration::from_secs(3))
        );
        assert_eq!(
            l.close("b", SimTime::from_secs(5)),
            Some(SimDuration::from_secs(3))
        );
        assert_eq!(l.total_downtime(), SimDuration::from_secs(6));
        assert_eq!(l.lost_requests(), 60);
        assert_eq!(l.mean_time_to_restore(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn reopen_keeps_earliest_start() {
        let mut l = OutageLedger::new(1.0);
        l.open("a", SimTime::from_secs(1));
        l.open("a", SimTime::from_secs(9));
        assert_eq!(
            l.close("a", SimTime::from_secs(11)),
            Some(SimDuration::from_secs(10))
        );
    }

    #[test]
    fn close_without_open_is_none() {
        let mut l = OutageLedger::new(1.0);
        assert_eq!(l.close("ghost", SimTime::from_secs(1)), None);
    }

    #[test]
    fn horizon_truncation_counts_downtime_but_not_recovery() {
        let mut l = OutageLedger::new(2.0);
        l.open("a", SimTime::from_secs(10));
        l.close_all_unrecovered(SimTime::from_secs(20));
        assert_eq!(l.dark_count(), 0);
        assert_eq!(l.total_downtime(), SimDuration::from_secs(10));
        assert_eq!(l.lost_requests(), 20);
        assert_eq!(l.mean_time_to_restore(), None);
        assert!(!l.outages()[0].recovered);
    }

    #[test]
    fn availability_is_a_fraction_of_fleet_time() {
        let mut l = OutageLedger::new(0.0);
        l.open("a", SimTime::ZERO);
        l.close("a", SimTime::from_secs(10));
        // 10 s dark out of 4 containers × 100 s.
        let a = l.availability(SimDuration::from_secs(100), 4);
        assert!((a - (1.0 - 10.0 / 400.0)).abs() < 1e-12);
        assert_eq!(l.availability(SimDuration::ZERO, 0), 1.0);
    }

    #[test]
    fn worst_downtime_sees_open_windows() {
        let mut l = OutageLedger::new(1.0);
        l.open("a", SimTime::from_secs(5));
        l.close("a", SimTime::from_secs(7));
        l.open("b", SimTime::from_secs(10));
        assert_eq!(
            l.worst_downtime(SimTime::from_secs(30)),
            SimDuration::from_secs(20)
        );
    }

    #[test]
    fn serialises() {
        let mut l = OutageLedger::new(5.0);
        l.open("a", SimTime::from_secs(1));
        l.close("a", SimTime::from_secs(2));
        let json = serde_json::to_string(&l).unwrap();
        let back: OutageLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
