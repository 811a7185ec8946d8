//! Service-level objectives: whole-run verdicts and Google-SRE-style
//! multi-window, multi-burn-rate alerting.
//!
//! Two evaluation planes live here:
//!
//! 1. **Whole-run** — an [`SloRule`] reads one statistic out of the final
//!    [`MetricsSnapshot`] and maps its burn to a [`Verdict`]. Cheap and
//!    always available, but blind to transients: a five-minute brownout
//!    that burns half the error budget vanishes into a 90-minute average.
//! 2. **Windowed** — a [`BurnRateAlert`] evaluates an SLI ratio over a
//!    *pair* of trailing windows of the scrape timeline in a
//!    [`TimeSeriesDb`] (the Google SRE
//!    multi-window, multi-burn-rate pattern: the long window gives
//!    significance, the short window makes the alert reset quickly). The
//!    alert walks a `pending → firing → resolved` state machine at every
//!    scrape instant and [`AlertPolicy::evaluate`] exports the resulting
//!    [`AlertTimeline`] byte-deterministically. `tests/tsdb.rs` pins a
//!    gray-fault scenario where the fast window PAGEs while the whole-run
//!    report stays PASS — the whole reason this plane exists.
//!
//! The rule's **burn rate** is how fast the run is consuming its error
//! budget:
//!
//! * [`Objective::UpperBound`] — `burn = observed / target`. At the
//!   target the burn is exactly 1; twice the target burns at 2×.
//! * [`Objective::LowerBound`] — `burn = target / observed`. Falling to
//!   half the target burns at 2×.
//!
//! Burn maps to a [`Verdict`] through the rule's thresholds:
//! `PASS` while `burn < warn_burn`, `WARN` from `warn_burn`, `PAGE` from
//! `page_burn`. A rule whose series (or statistic) is absent from the
//! snapshot reports [`Verdict::NoData`] — missing telemetry is something
//! an operator should see, not silently pass.
//!
//! [`SloPolicy::picloud_default`] carries the testbed-wide objectives
//! (MTTR, SDN convergence, panel staleness); every experiment run through
//! `picloud::telemetry::ExperimentTelemetry` gets its verdict section from
//! it. Evaluation is pure and deterministic: same snapshot, same report,
//! byte for byte.

use super::tsdb::{QueryFn, TimeSeriesDb};
use super::{MetricValue, MetricsSnapshot};
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Which summarised statistic of a series a rule reads.
///
/// Statistics are kind-specific; reading a statistic the series kind does
/// not expose (e.g. `P99` of a counter) yields no data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Counter total.
    Total,
    /// Gauge instantaneous value.
    Value,
    /// Gauge time-weighted mean, or histogram mean.
    Mean,
    /// Gauge or histogram maximum.
    Max,
    /// Histogram 99th percentile.
    P99,
}

impl Stat {
    /// Reads this statistic out of a summarised series value, if the
    /// kind exposes it (empty histograms expose nothing).
    pub fn read(self, value: &MetricValue) -> Option<f64> {
        match (self, value) {
            (Stat::Total, MetricValue::Counter { total }) => Some(*total as f64),
            (Stat::Value, MetricValue::Gauge { value, .. }) => Some(*value),
            (Stat::Mean, MetricValue::Gauge { mean, .. }) => Some(*mean),
            (Stat::Max, MetricValue::Gauge { max, .. }) => Some(*max),
            (Stat::Mean, MetricValue::Histogram { summary: Some(s) }) => Some(s.mean),
            (Stat::Max, MetricValue::Histogram { summary: Some(s) }) => Some(s.max),
            (Stat::P99, MetricValue::Histogram { summary: Some(s) }) => Some(s.p99),
            _ => None,
        }
    }

    /// Stable lower-case name used in reports (`p99`, `max`, …).
    pub fn name(self) -> &'static str {
        match self {
            Stat::Total => "total",
            Stat::Value => "value",
            Stat::Mean => "mean",
            Stat::Max => "max",
            Stat::P99 => "p99",
        }
    }
}

/// Which side of the target the observed value must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Observed should stay at or below the target (latencies, staleness).
    UpperBound,
    /// Observed should stay at or above the target (availability ratios).
    LowerBound,
}

/// One service-level objective over one metric statistic.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Short stable rule name, e.g. `mttr_p99`.
    pub name: &'static str,
    /// Metric series name the rule reads.
    pub metric: &'static str,
    /// Labels the series must carry (subset match; empty matches any).
    pub labels: Vec<(&'static str, &'static str)>,
    /// Which statistic of the series to read.
    pub stat: Stat,
    /// Bound direction.
    pub objective: Objective,
    /// The target value, in the metric's own unit.
    pub target: f64,
    /// Burn rate from which the verdict is [`Verdict::Warn`].
    pub warn_burn: f64,
    /// Burn rate from which the verdict is [`Verdict::Page`].
    pub page_burn: f64,
}

impl SloRule {
    /// Burn rate for one observation (see the module docs for the
    /// formula). Degenerate denominators saturate: over an upper bound of
    /// zero, any positive observation burns infinitely fast; under a
    /// lower bound, an observation of zero does the same.
    pub fn burn(&self, observed: f64) -> f64 {
        match self.objective {
            Objective::UpperBound => {
                if self.target > 0.0 {
                    (observed / self.target).max(0.0)
                } else if observed <= 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
            Objective::LowerBound => {
                if observed > 0.0 {
                    (self.target / observed).max(0.0)
                } else if self.target <= 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            }
        }
    }

    fn verdict_for(&self, burn: f64) -> Verdict {
        if burn >= self.page_burn {
            Verdict::Page
        } else if burn >= self.warn_burn {
            Verdict::Warn
        } else {
            Verdict::Pass
        }
    }
}

/// The outcome of one rule evaluation.
///
/// Ordered by severity: `NoData < Pass < Warn < Page`, so the worst
/// verdict of a report is the `max` over its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The series or statistic was absent from the snapshot.
    NoData,
    /// Burn below the warn threshold.
    Pass,
    /// Burn at or above `warn_burn` but below `page_burn`.
    Warn,
    /// Burn at or above `page_burn`.
    Page,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::NoData => "NO-DATA",
            Verdict::Pass => "PASS",
            Verdict::Warn => "WARN",
            Verdict::Page => "PAGE",
        })
    }
}

/// One row of an [`SloReport`]: a rule plus what it observed.
#[derive(Debug, Clone)]
pub struct SloResult {
    /// The rule that was evaluated.
    pub rule: SloRule,
    /// The worst observed value over matching series, if any matched.
    pub observed: Option<f64>,
    /// Burn rate of the worst observation.
    pub burn: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// A named collection of rules evaluated together.
#[derive(Debug, Clone, Default)]
pub struct SloPolicy {
    /// The rules, evaluated in order.
    pub rules: Vec<SloRule>,
}

impl SloPolicy {
    /// The testbed-wide default policy:
    ///
    /// | rule | metric (stat) | bound |
    /// |---|---|---|
    /// | `mttr_p99` | `recovery_restore_seconds` (p99) | ≤ 60 s |
    /// | `detection_p99` | `recovery_detect_seconds` (p99) | ≤ 30 s |
    /// | `sdn_convergence` | `sdn_migration_convergence_seconds` (value) | ≤ 1 s |
    /// | `panel_staleness` | `mgmt_panel_staleness_seconds` (max) | ≤ 30 s |
    ///
    /// All rules warn at 1× burn (the target itself) and page at 1.5×.
    /// Rules whose series an experiment never records report `NO-DATA`
    /// and are dropped from that experiment's section by
    /// [`SloPolicy::evaluate`] callers that filter on relevance — the
    /// report itself keeps them.
    pub fn picloud_default() -> Self {
        let rule = |name, metric, stat, target| SloRule {
            name,
            metric,
            labels: Vec::new(),
            stat,
            objective: Objective::UpperBound,
            target,
            warn_burn: 1.0,
            page_burn: 1.5,
        };
        SloPolicy {
            rules: vec![
                rule("mttr_p99", "recovery_restore_seconds", Stat::P99, 60.0),
                rule("detection_p99", "recovery_detect_seconds", Stat::P99, 30.0),
                rule(
                    "sdn_convergence",
                    "sdn_migration_convergence_seconds",
                    Stat::Value,
                    1.0,
                ),
                rule(
                    "panel_staleness",
                    "mgmt_panel_staleness_seconds",
                    Stat::Max,
                    30.0,
                ),
            ],
        }
    }

    /// Evaluates every rule against `snapshot`.
    ///
    /// A rule matches all series with its metric name whose labels are a
    /// superset of the rule's; the *worst* (highest-burn) observation
    /// across matches decides the verdict, so one bad node pages even
    /// when the fleet average is fine.
    pub fn evaluate(&self, snapshot: &MetricsSnapshot) -> SloReport {
        let results = self
            .rules
            .iter()
            .map(|rule| {
                let mut worst: Option<(f64, f64)> = None; // (burn, observed)
                for row in &snapshot.rows {
                    if row.key.name != rule.metric {
                        continue;
                    }
                    if !rule
                        .labels
                        .iter()
                        .all(|(k, v)| row.key.labels.get(k) == Some(*v))
                    {
                        continue;
                    }
                    let Some(observed) = rule.stat.read(&row.value) else {
                        continue;
                    };
                    let burn = rule.burn(observed);
                    if worst.is_none_or(|(b, _)| burn > b) {
                        worst = Some((burn, observed));
                    }
                }
                match worst {
                    Some((burn, observed)) => SloResult {
                        rule: rule.clone(),
                        observed: Some(observed),
                        burn: Some(burn),
                        verdict: rule.verdict_for(burn),
                    },
                    None => SloResult {
                        rule: rule.clone(),
                        observed: None,
                        burn: None,
                        verdict: Verdict::NoData,
                    },
                }
            })
            .collect();
        SloReport { results }
    }
}

/// The evaluated policy: one [`SloResult`] per rule, in policy order.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Per-rule outcomes.
    pub results: Vec<SloResult>,
}

impl SloReport {
    /// The most severe verdict across all rules ([`Verdict::NoData`] for
    /// an empty policy).
    pub fn worst(&self) -> Verdict {
        self.results
            .iter()
            .map(|r| r.verdict)
            .max()
            .unwrap_or(Verdict::NoData)
    }

    /// Rows whose series were present in the snapshot.
    pub fn with_data(&self) -> impl Iterator<Item = &SloResult> {
        self.results.iter().filter(|r| r.verdict != Verdict::NoData)
    }

    /// One JSON object per rule per line:
    /// `{"rule","metric","stat","target","observed","burn","verdict"}`
    /// (`observed`/`burn` are `null` for `NO-DATA` rows).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let fmt_opt = |v: Option<f64>| match v {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_owned(),
            };
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"metric\":\"{}\",\"stat\":\"{}\",\"target\":{},\"observed\":{},\"burn\":{},\"verdict\":\"{}\"}}\n",
                r.rule.name,
                r.rule.metric,
                r.rule.stat.name(),
                r.rule.target,
                fmt_opt(r.observed),
                fmt_opt(r.burn),
                r.verdict,
            ));
        }
        out
    }
}

impl fmt::Display for SloReport {
    /// Deterministic fixed-width table, one rule per line, followed by
    /// the overall (worst) verdict.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:<36} {:>10} {:>10} {:>6}  VERDICT",
            "RULE", "METRIC (STAT)", "TARGET", "OBSERVED", "BURN"
        )?;
        for r in &self.results {
            let metric = format!("{} ({})", r.rule.metric, r.rule.stat.name());
            let obs = r.observed.map_or("-".to_owned(), |v| format!("{v:.3}"));
            let burn = r.burn.map_or("-".to_owned(), |v| {
                if v.is_finite() {
                    format!("{v:.2}")
                } else {
                    "inf".to_owned()
                }
            });
            writeln!(
                f,
                "{:<16} {:<36} {:>10.3} {:>10} {:>6}  {}",
                r.rule.name, metric, r.rule.target, obs, burn, r.verdict
            )?;
        }
        write!(f, "overall: {}", self.worst())
    }
}

/// Selects the series an alert's SLI reads: a metric name plus a label
/// subset. Multiple matching series are summed (PromQL `sum()` style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSelector {
    /// Metric name to match exactly.
    pub metric: String,
    /// Labels a series must carry (subset match; empty matches any).
    pub labels: Vec<(String, String)>,
}

impl SeriesSelector {
    /// Selects every series named `metric`.
    pub fn metric(metric: &str) -> Self {
        SeriesSelector {
            metric: metric.to_owned(),
            labels: Vec::new(),
        }
    }

    /// At every scrape instant of `db`, the sum of `avg_over_time` over
    /// all matching series in `[at − window, at]`, added in series order;
    /// `None` where nothing matched or no window had samples.
    fn avgs(&self, db: &TimeSeriesDb, window: SimDuration) -> Vec<Option<f64>> {
        let mut sums: Vec<Option<f64>> = vec![None; db.scrape_times().len()];
        for key in db.series_matching(&self.metric, &self.labels) {
            let points = db.eval_range(&key, QueryFn::AvgOverTime, window, None);
            for (sum, point) in sums.iter_mut().zip(points) {
                if let Some(v) = point.value {
                    *sum = Some(sum.unwrap_or(0.0) + v);
                }
            }
        }
        sums
    }
}

/// Alert severity, ordered so [`AlertTimeline::worst_fired`] is a `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Ticket-level: budget is burning but a human can look tomorrow.
    Warn,
    /// Page-level: budget is burning fast enough to exhaust soon.
    Page,
}

impl fmt::Display for AlertSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertSeverity::Warn => "WARN",
            AlertSeverity::Page => "PAGE",
        })
    }
}

/// One multi-window burn-rate alert (the Google SRE pattern, scaled to sim
/// time).
///
/// The SLI is a bad-fraction ratio: `avg_over_time(numerator)` divided by
/// `avg_over_time(denominator)` (or the raw numerator average when no
/// denominator is configured). Its **burn rate** is the SLI divided by
/// `budget`, the fraction of error budget the objective allows (e.g.
/// `0.005` for a 99.5% availability target). The alert's condition holds
/// at an instant when *both* the long- and short-window burns reach
/// `burn_threshold`; it must hold for `for_duration` before the alert
/// fires.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRateAlert {
    /// Short stable alert name, e.g. `fleet_availability_page`.
    pub name: String,
    /// The bad-event series (e.g. dark containers).
    pub numerator: SeriesSelector,
    /// The total series (e.g. fleet size); `None` uses the numerator
    /// average as the SLI directly.
    pub denominator: Option<SeriesSelector>,
    /// Error-budget fraction the SLI is allowed to average (`1 − target`).
    pub budget: f64,
    /// The long (significance) window.
    pub long_window: SimDuration,
    /// The short (reset) window.
    pub short_window: SimDuration,
    /// Burn rate both windows must reach for the condition to hold.
    pub burn_threshold: f64,
    /// How long the condition must hold before `pending` becomes
    /// `firing`; zero fires at the first evaluation that holds.
    pub for_duration: SimDuration,
    /// What firing means.
    pub severity: AlertSeverity,
}

impl BurnRateAlert {
    /// Burn rate over the trailing `window` at every scrape instant of
    /// `db`, oldest first; `None` where there is no data.
    pub fn burns(&self, db: &TimeSeriesDb, window: SimDuration) -> Vec<Option<f64>> {
        if self.budget <= 0.0 {
            return vec![None; db.scrape_times().len()];
        }
        let nums = self.numerator.avgs(db, window);
        let dens = self.denominator.as_ref().map(|den| den.avgs(db, window));
        nums.into_iter()
            .enumerate()
            .map(|(i, num)| {
                let mut sli = num?;
                if let Some(dens) = &dens {
                    let d = dens.get(i).copied().flatten()?;
                    if d <= 0.0 {
                        return None;
                    }
                    sli /= d;
                }
                Some(sli / self.budget)
            })
            .collect()
    }
}

/// The lifecycle states an alert reports on its timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition holds; waiting out `for_duration`.
    Pending,
    /// Condition held long enough — the alert is active.
    Firing,
    /// Condition stopped holding while firing.
    Resolved,
    /// Condition stopped holding while still pending (never fired).
    Cancelled,
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
            AlertState::Cancelled => "cancelled",
        })
    }
}

/// One state-machine transition on an [`AlertTimeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// The scrape instant the transition happened.
    pub at: SimTime,
    /// Which alert transitioned.
    pub alert: String,
    /// The alert's severity.
    pub severity: AlertSeverity,
    /// The state entered.
    pub state: AlertState,
    /// Long-window burn at the transition instant (`None` without data).
    pub burn_long: Option<f64>,
    /// Short-window burn at the transition instant.
    pub burn_short: Option<f64>,
}

/// A named collection of burn-rate alerts evaluated together over a
/// scrape timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AlertPolicy {
    /// The alerts, evaluated in order.
    pub alerts: Vec<BurnRateAlert>,
}

impl AlertPolicy {
    /// The testbed-wide default: fleet availability against a 99.5%
    /// objective (`budget = 0.005`), SLI = dark containers over fleet
    /// size (`container_fleet_dark / container_fleet_size`), two window
    /// pairs scaled to sim time from the SRE workbook's 1h/5m and
    /// 6h/30m pairs:
    ///
    /// | alert | long | short | burn ≥ | for | severity |
    /// |---|---|---|---|---|---|
    /// | `fleet_availability_page` | 120 s | 30 s | 3 | 0 s | PAGE |
    /// | `fleet_availability_warn` | 600 s | 120 s | 1 | 30 s | WARN |
    pub fn picloud_default() -> Self {
        let sli =
            |name: &str, long: u64, short: u64, burn: f64, hold: u64, severity: AlertSeverity| {
                BurnRateAlert {
                    name: name.to_owned(),
                    numerator: SeriesSelector::metric("container_fleet_dark"),
                    denominator: Some(SeriesSelector::metric("container_fleet_size")),
                    budget: 0.005,
                    long_window: SimDuration::from_secs(long),
                    short_window: SimDuration::from_secs(short),
                    burn_threshold: burn,
                    for_duration: SimDuration::from_secs(hold),
                    severity,
                }
            };
        AlertPolicy {
            alerts: vec![
                sli(
                    "fleet_availability_page",
                    120,
                    30,
                    3.0,
                    0,
                    AlertSeverity::Page,
                ),
                sli(
                    "fleet_availability_warn",
                    600,
                    120,
                    1.0,
                    30,
                    AlertSeverity::Warn,
                ),
            ],
        }
    }

    /// Walks every alert's state machine over `db`'s scrape timeline and
    /// returns the transitions, ordered by `(time, policy order)`. Each
    /// alert's long- and short-window burns are computed for the whole
    /// timeline up front, one range query per matched series. Pure and
    /// deterministic: same store, same timeline, byte for byte.
    pub fn evaluate(&self, db: &TimeSeriesDb) -> AlertTimeline {
        let mut transitions = Vec::new();
        let times: Vec<SimTime> = db.scrape_times().to_vec();
        let burns: Vec<_> = self
            .alerts
            .iter()
            .map(|alert| {
                (
                    alert.burns(db, alert.long_window),
                    alert.burns(db, alert.short_window),
                )
            })
            .collect();
        let mut states: Vec<Option<(AlertState, SimTime)>> = vec![None; self.alerts.len()];
        for (k, &now) in times.iter().enumerate() {
            for ((alert, state), (long, short)) in
                self.alerts.iter().zip(states.iter_mut()).zip(&burns)
            {
                let burn_long = long.get(k).copied().flatten();
                let burn_short = short.get(k).copied().flatten();
                let holds = matches!((burn_long, burn_short), (Some(l), Some(s))
                    if l >= alert.burn_threshold && s >= alert.burn_threshold);
                let mut push = |state: AlertState| {
                    transitions.push(AlertTransition {
                        at: now,
                        alert: alert.name.clone(),
                        severity: alert.severity,
                        state,
                        burn_long,
                        burn_short,
                    });
                };
                *state = match (*state, holds) {
                    (None | Some((AlertState::Resolved | AlertState::Cancelled, _)), true) => {
                        push(AlertState::Pending);
                        if alert.for_duration.is_zero() {
                            push(AlertState::Firing);
                            Some((AlertState::Firing, now))
                        } else {
                            Some((AlertState::Pending, now))
                        }
                    }
                    (Some((AlertState::Pending, since)), true) => {
                        if now.duration_since(since) >= alert.for_duration {
                            push(AlertState::Firing);
                            Some((AlertState::Firing, since))
                        } else {
                            Some((AlertState::Pending, since))
                        }
                    }
                    (Some((AlertState::Pending, _)), false) => {
                        push(AlertState::Cancelled);
                        Some((AlertState::Cancelled, now))
                    }
                    (Some((AlertState::Firing, _)), false) => {
                        push(AlertState::Resolved);
                        Some((AlertState::Resolved, now))
                    }
                    (s, _) => s,
                };
            }
        }
        AlertTimeline {
            evaluated_at: times,
            transitions,
        }
    }
}

/// The byte-deterministic product of [`AlertPolicy::evaluate`]: every
/// state transition of every alert over the scrape timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTimeline {
    /// The scrape instants the policy was evaluated at.
    pub evaluated_at: Vec<SimTime>,
    /// State transitions, ordered by `(time, policy order)`.
    pub transitions: Vec<AlertTransition>,
}

impl AlertTimeline {
    /// Transitions that entered [`AlertState::Firing`].
    pub fn firings(&self) -> impl Iterator<Item = &AlertTransition> {
        self.transitions
            .iter()
            .filter(|t| t.state == AlertState::Firing)
    }

    /// The most severe severity that ever fired, if any alert fired.
    pub fn worst_fired(&self) -> Option<AlertSeverity> {
        self.firings().map(|t| t.severity).max()
    }

    /// Whether any alert of `severity` fired.
    pub fn fired(&self, severity: AlertSeverity) -> bool {
        self.firings().any(|t| t.severity == severity)
    }

    /// One JSON object per transition per line:
    /// `{"t_ns","alert","severity","state","burn_long","burn_short"}`
    /// (burns are `null` without data).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => "null".to_owned(),
        };
        for t in &self.transitions {
            out.push_str(&format!(
                "{{\"t_ns\":{},\"alert\":\"{}\",\"severity\":\"{}\",\"state\":\"{}\",\"burn_long\":{},\"burn_short\":{}}}\n",
                t.at.as_nanos(),
                t.alert,
                t.severity,
                t.state,
                fmt_opt(t.burn_long),
                fmt_opt(t.burn_short),
            ));
        }
        out
    }
}

impl fmt::Display for AlertTimeline {
    /// Deterministic fixed-width table, one transition per line, followed
    /// by a one-line summary.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<28} {:<9} {:<10} {:>10} {:>10}",
            "T", "ALERT", "SEVERITY", "STATE", "BURN-LONG", "BURN-SHORT"
        )?;
        let fmt_opt = |v: Option<f64>| {
            v.filter(|v| v.is_finite())
                .map_or("-".to_owned(), |v| format!("{v:.2}"))
        };
        for t in &self.transitions {
            writeln!(
                f,
                "{:<12} {:<28} {:<9} {:<10} {:>10} {:>10}",
                format!("{:.1}s", t.at.as_secs_f64()),
                t.alert,
                t.severity.to_string(),
                t.state.to_string(),
                fmt_opt(t.burn_long),
                fmt_opt(t.burn_short),
            )?;
        }
        let fired = self
            .worst_fired()
            .map_or("none fired".to_owned(), |s| format!("worst fired: {s}"));
        write!(
            f,
            "{} transitions over {} evaluations; {fired}",
            self.transitions.len(),
            self.evaluated_at.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::tsdb::ScrapeConfig;
    use crate::telemetry::MetricsRegistry;
    use crate::time::SimTime;

    fn rule(stat: Stat, objective: Objective, target: f64) -> SloRule {
        SloRule {
            name: "r",
            metric: "m",
            labels: Vec::new(),
            stat,
            objective,
            target,
            warn_burn: 1.0,
            page_burn: 1.5,
        }
    }

    #[test]
    fn burn_rates_scale_with_distance_from_target() {
        let upper = rule(Stat::Value, Objective::UpperBound, 10.0);
        assert_eq!(upper.burn(5.0), 0.5);
        assert_eq!(upper.burn(10.0), 1.0);
        assert_eq!(upper.burn(20.0), 2.0);
        let lower = rule(Stat::Value, Objective::LowerBound, 0.9);
        assert!((lower.burn(0.9) - 1.0).abs() < 1e-12);
        assert!(lower.burn(0.45) > 1.9);
        assert_eq!(lower.burn(0.0), f64::INFINITY);
    }

    #[test]
    fn verdict_thresholds_partition_burn() {
        let r = rule(Stat::Value, Objective::UpperBound, 10.0);
        assert_eq!(r.verdict_for(0.99), Verdict::Pass);
        assert_eq!(r.verdict_for(1.0), Verdict::Warn);
        assert_eq!(r.verdict_for(1.49), Verdict::Warn);
        assert_eq!(r.verdict_for(1.5), Verdict::Page);
    }

    #[test]
    fn evaluation_picks_the_worst_matching_series() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("m", &[("node", "0")]).set(SimTime::ZERO, 5.0);
        reg.gauge("m", &[("node", "1")]).set(SimTime::ZERO, 20.0);
        let policy = SloPolicy {
            rules: vec![rule(Stat::Value, Objective::UpperBound, 10.0)],
        };
        let report = policy.evaluate(&reg.snapshot(SimTime::ZERO));
        assert_eq!(report.results[0].observed, Some(20.0));
        assert_eq!(report.results[0].verdict, Verdict::Page);
        assert_eq!(report.worst(), Verdict::Page);
    }

    #[test]
    fn label_subset_filters_series() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("m", &[("node", "0")]).set(SimTime::ZERO, 5.0);
        reg.gauge("m", &[("node", "1")]).set(SimTime::ZERO, 20.0);
        let mut r = rule(Stat::Value, Objective::UpperBound, 10.0);
        r.labels = vec![("node", "0")];
        let report = SloPolicy { rules: vec![r] }.evaluate(&reg.snapshot(SimTime::ZERO));
        assert_eq!(report.results[0].observed, Some(5.0));
        assert_eq!(report.results[0].verdict, Verdict::Pass);
    }

    #[test]
    fn missing_series_reports_no_data() {
        let reg = MetricsRegistry::new(SimTime::ZERO);
        let policy = SloPolicy {
            rules: vec![rule(Stat::P99, Objective::UpperBound, 10.0)],
        };
        let report = policy.evaluate(&reg.snapshot(SimTime::ZERO));
        assert_eq!(report.results[0].verdict, Verdict::NoData);
        assert_eq!(report.worst(), Verdict::NoData);
        assert!(report.with_data().next().is_none());
        assert!(report.to_jsonl().contains("\"observed\":null"));
    }

    #[test]
    fn stat_kind_mismatch_is_no_data() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.counter("m", &[]).add(3);
        let policy = SloPolicy {
            rules: vec![rule(Stat::P99, Objective::UpperBound, 10.0)],
        };
        let report = policy.evaluate(&reg.snapshot(SimTime::ZERO));
        assert_eq!(report.results[0].verdict, Verdict::NoData);
    }

    #[test]
    fn display_and_jsonl_are_deterministic() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.histogram("recovery_restore_seconds", &[])
            .extend([12.0, 18.0, 25.0]);
        let policy = SloPolicy::picloud_default();
        let snap = reg.snapshot(SimTime::ZERO);
        let a = policy.evaluate(&snap);
        let b = policy.evaluate(&snap);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_string(), b.to_string());
        assert!(a.to_string().contains("mttr_p99"));
        assert!(a.to_string().ends_with("overall: PASS"));
        // The three never-recorded rules are NO-DATA, not failures.
        assert_eq!(a.with_data().count(), 1);
    }

    #[test]
    fn default_policy_names_real_series() {
        for r in SloPolicy::picloud_default().rules {
            assert!(r.target > 0.0);
            assert!(r.warn_burn <= r.page_burn);
        }
    }

    /// Scrapes a synthetic 10-container fleet on a 10-second grid over
    /// `secs` seconds; `dark_at(s)` is the dark-container gauge value set
    /// at each scrape instant.
    fn fleet_db(secs: u64, dark_at: impl Fn(u64) -> f64) -> TimeSeriesDb {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        let mut db = TimeSeriesDb::new(
            SimTime::ZERO,
            ScrapeConfig::every(SimDuration::from_secs(10)),
        );
        let mut s = 0u64;
        while s <= secs {
            let now = SimTime::from_secs(s);
            reg.gauge("container_fleet_size", &[]).set(now, 10.0);
            reg.gauge("container_fleet_dark", &[]).set(now, dark_at(s));
            db.record(&reg, now);
            s += 10;
        }
        db
    }

    fn fleet_alert(hold_secs: u64, severity: AlertSeverity) -> BurnRateAlert {
        BurnRateAlert {
            name: "fleet_alert".to_owned(),
            numerator: SeriesSelector::metric("container_fleet_dark"),
            denominator: Some(SeriesSelector::metric("container_fleet_size")),
            budget: 0.005,
            long_window: SimDuration::from_secs(60),
            short_window: SimDuration::from_secs(30),
            burn_threshold: 5.0,
            for_duration: SimDuration::from_secs(hold_secs),
            severity,
        }
    }

    /// One dark container from t=100s to t=200s against a 60s/30s window
    /// pair and burn ≥ 5: the long window crosses threshold at 120s and
    /// the short window un-crosses first at 230s.
    fn blackout(s: u64) -> f64 {
        if (100..200).contains(&s) {
            1.0
        } else {
            0.0
        }
    }

    #[test]
    fn zero_hold_alert_fires_at_threshold_and_resolves() {
        let db = fleet_db(300, blackout);
        let policy = AlertPolicy {
            alerts: vec![fleet_alert(0, AlertSeverity::Page)],
        };
        let timeline = policy.evaluate(&db);
        let states: Vec<(u64, AlertState)> = timeline
            .transitions
            .iter()
            .map(|t| (t.at.as_nanos() / 1_000_000_000, t.state))
            .collect();
        assert_eq!(
            states,
            vec![
                (120, AlertState::Pending),
                (120, AlertState::Firing),
                (230, AlertState::Resolved),
            ]
        );
        assert!(timeline.fired(AlertSeverity::Page));
        assert_eq!(timeline.worst_fired(), Some(AlertSeverity::Page));
        // Transition burns are recorded at the firing instant.
        let firing = timeline.firings().next().unwrap();
        let long = firing.burn_long.unwrap();
        assert!((long - 20.0 / 3.0).abs() < 1e-9, "long burn was {long}");
        for line in timeline.to_jsonl().lines() {
            assert!(line.starts_with("{\"t_ns\":"));
            assert!(line.contains("\"alert\":\"fleet_alert\""));
        }
    }

    #[test]
    fn for_duration_delays_firing_past_the_hold() {
        let db = fleet_db(300, blackout);
        let policy = AlertPolicy {
            alerts: vec![fleet_alert(25, AlertSeverity::Warn)],
        };
        let timeline = policy.evaluate(&db);
        let states: Vec<(u64, AlertState)> = timeline
            .transitions
            .iter()
            .map(|t| (t.at.as_nanos() / 1_000_000_000, t.state))
            .collect();
        // Pending at 120s; the 25s hold is first satisfied at 150s.
        assert_eq!(
            states,
            vec![
                (120, AlertState::Pending),
                (150, AlertState::Firing),
                (230, AlertState::Resolved),
            ]
        );
    }

    #[test]
    fn a_short_burst_cancels_a_pending_alert() {
        // Dark for only 30s: the condition holds from 120s to 150s, which
        // never satisfies a 45s hold — the alert cancels without firing.
        let db = fleet_db(300, |s| if (100..130).contains(&s) { 1.0 } else { 0.0 });
        let policy = AlertPolicy {
            alerts: vec![fleet_alert(45, AlertSeverity::Page)],
        };
        let timeline = policy.evaluate(&db);
        let states: Vec<(u64, AlertState)> = timeline
            .transitions
            .iter()
            .map(|t| (t.at.as_nanos() / 1_000_000_000, t.state))
            .collect();
        assert_eq!(
            states,
            vec![(120, AlertState::Pending), (160, AlertState::Cancelled)]
        );
        assert!(!timeline.fired(AlertSeverity::Page));
        assert_eq!(timeline.worst_fired(), None);
    }

    #[test]
    fn alert_severities_order_and_default_policy_is_sane() {
        assert!(AlertSeverity::Page > AlertSeverity::Warn);
        let p = AlertPolicy::picloud_default();
        assert_eq!(p.alerts.len(), 2);
        assert!(p
            .alerts
            .iter()
            .all(|a| a.budget > 0.0 && a.short_window < a.long_window));
    }
}
