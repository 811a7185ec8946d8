//! Windowed time-series pipeline guarantees.
//!
//! Three contracts anchor `simcore::telemetry::tsdb`:
//!
//! 1. **Exactness** — a full-horizon windowed query reproduces the
//!    whole-run snapshot statistic *bitwise*: `avg_over_time` over the
//!    whole run equals the gauge's time-weighted `mean`, `increase`
//!    equals the counter's `total`. Scraping gauges as (value, running
//!    integral) pairs is what makes this an identity instead of an
//!    approximation.
//! 2. **Non-perturbation** — scrapes ride existing periodic work, so an
//!    observed run and an unobserved run of the same seed produce
//!    byte-identical reports; and every export is byte-deterministic.
//! 3. **Resolution** — the multi-window burn-rate alerts see what the
//!    whole-run SLO integrates away: a gray-fault burst that pages on
//!    the fast windows while the full-horizon burn still passes.

use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud::recovery::{run_recovery_with_telemetry, RecoveryConfig};
use picloud::telemetry::ExperimentTelemetry;
use picloud_faults::{FaultKind, FaultTimeline};
use picloud_hardware::node::NodeId;
use picloud_simcore::telemetry::slo::{AlertPolicy, AlertSeverity, SloPolicy, Verdict};
use picloud_simcore::telemetry::tsdb::{QueryFn, ScrapeConfig, TimeSeriesDb};
use picloud_simcore::telemetry::{
    CounterId, GaugeId, MetricValue, MetricsRegistry, SeriesKey, TelemetrySink,
};
use picloud_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A churn horizon long enough to exercise every recovery path but short
/// enough for the integration suite.
const HORIZON: SimDuration = SimDuration::from_secs(20 * 60);

/// Runs the seeded E17 churn with a scraping sink.
fn observed_run(seed: u64) -> TelemetrySink {
    let (_, sink) = RecoveryExperiment::run_with_telemetry(
        seed,
        HORIZON,
        TelemetrySink::recording_with_tsdb(SimTime::ZERO, ScrapeConfig::default()),
    );
    sink
}

/// Full-horizon window: large enough that `[at − window, at]` covers the
/// whole run from the epoch.
fn full_window(db: &TimeSeriesDb, at: SimTime) -> SimDuration {
    at.saturating_duration_since(db.epoch())
}

#[test]
fn full_horizon_queries_reproduce_the_snapshot_exactly() {
    let sink = observed_run(2013);
    let db = sink.tsdb().expect("sink was built with a tsdb");
    let at = *db.scrape_times().last().expect("the run scraped");
    let window = full_window(db, at);
    // Plain registry snapshot at the exact instant of the last scrape:
    // every row has a scraped counterpart (the final forced scrape runs
    // after all recording).
    let snap = sink.registry.snapshot(at);
    let mut gauges = 0usize;
    let mut counters = 0usize;
    for row in &snap.rows {
        match &row.value {
            MetricValue::Counter { total } => {
                let inc = db
                    .eval_at(&row.key, QueryFn::Increase, window, at)
                    .unwrap_or_else(|| panic!("{} has no scraped increase", row.key));
                assert_eq!(
                    inc, *total as f64,
                    "{}: full-run increase must equal the counter total",
                    row.key
                );
                counters += 1;
            }
            MetricValue::Gauge { mean, .. } => {
                let avg = db
                    .eval_at(&row.key, QueryFn::AvgOverTime, window, at)
                    .unwrap_or_else(|| panic!("{} has no scraped average", row.key));
                assert_eq!(
                    avg.to_bits(),
                    mean.to_bits(),
                    "{}: full-run avg_over_time must be bitwise the gauge mean \
                     ({avg} vs {mean})",
                    row.key
                );
                gauges += 1;
            }
            MetricValue::Histogram { .. } => {}
        }
    }
    assert!(gauges > 50, "E17 records a real gauge population: {gauges}");
    assert!(counters > 10, "and a real counter population: {counters}");
}

/// Metric names and `node` label values the random walk draws its series
/// from. Keys appear in random order, so new series land before, between
/// and after stored ones, and a name picked as both a gauge and a counter
/// is stored as both kinds.
const WALK_NAMES: [&str; 3] = ["b_walk", "d_walk", "f_walk"];
const WALK_NODES: [&str; 3] = ["1", "4", "7"];

/// One scrape as the brute-force oracle keeps it: each series' payloads
/// at the scrape instant.
struct LoggedScrape {
    t: u64,
    counters: BTreeMap<SeriesKey, u64>,
    /// Gauge `(value, running integral)`.
    gauges: BTreeMap<SeriesKey, (f64, f64)>,
    /// Histogram observation counts.
    histograms: BTreeMap<SeriesKey, u64>,
}

impl LoggedScrape {
    fn of(reg: &MetricsRegistry, now: SimTime) -> Self {
        LoggedScrape {
            t: now.as_nanos(),
            counters: reg
                .counters()
                .map(|(k, c)| (k.clone(), c.value()))
                .collect(),
            gauges: reg
                .gauges()
                .map(|(k, g)| (k.clone(), (g.value(), g.integral(now))))
                .collect(),
            histograms: reg
                .histograms()
                .map(|(k, h)| (k.clone(), h.len() as u64))
                .collect(),
        }
    }
}

/// Scrapes `reg` into `db` and the shadow `log`; a same-instant re-scrape
/// replaces the logged one, as the store amends its final samples.
fn scrape_both(
    reg: &MetricsRegistry,
    db: &mut TimeSeriesDb,
    log: &mut Vec<LoggedScrape>,
    now: SimTime,
) {
    db.record(reg, now);
    if log.last().is_some_and(|l| l.t == now.as_nanos()) {
        log.pop();
    }
    log.push(LoggedScrape::of(reg, now));
}

/// The oracle's `(t, value)` history of `key`'s natural stream: the gauge
/// value, else the counter total, else the histogram count.
fn logged_values(log: &[LoggedScrape], key: &SeriesKey) -> Vec<(u64, f64)> {
    let is_gauge = log.iter().any(|l| l.gauges.contains_key(key));
    let is_counter = log.iter().any(|l| l.counters.contains_key(key));
    log.iter()
        .filter_map(|l| {
            let v = if is_gauge {
                l.gauges.get(key).map(|g| g.0)
            } else if is_counter {
                l.counters.get(key).map(|&c| c as f64)
            } else {
                l.histograms.get(key).map(|&c| c as f64)
            }?;
            Some((l.t, v))
        })
        .collect()
}

/// Brute-force `increase` over `(start, at]`: the last total at or before
/// `at` minus the last one strictly before `start` (zero if none).
fn logged_increase(log: &[LoggedScrape], key: &SeriesKey, start: u64, at: u64) -> Option<f64> {
    let totals: Vec<(u64, u64)> = log
        .iter()
        .filter_map(|l| {
            let v = l.counters.get(key).or_else(|| l.histograms.get(key))?;
            Some((l.t, *v))
        })
        .collect();
    let end = totals.iter().rev().find(|(t, _)| *t <= at)?.1;
    let base = totals
        .iter()
        .rev()
        .find(|(t, _)| *t < start)
        .map_or(0, |(_, v)| *v);
    Some(end.saturating_sub(base) as f64)
}

/// Brute-force gauge `avg_over_time`: the integral difference between the
/// last samples at or before `at` and `start` (the epoch if none) over
/// the time between them.
fn logged_gauge_avg(log: &[LoggedScrape], key: &SeriesKey, start: u64, at: u64) -> Option<f64> {
    let integrals: Vec<(u64, f64)> = log
        .iter()
        .filter_map(|l| Some((l.t, l.gauges.get(key)?.1)))
        .collect();
    let (e_t, e_v) = *integrals.iter().rev().find(|(t, _)| *t <= at)?;
    let (s_t, s_v) = integrals
        .iter()
        .rev()
        .find(|(t, _)| *t <= start)
        .copied()
        .unwrap_or((0, 0.0));
    if e_t <= s_t {
        return None;
    }
    Some((e_v - s_v) / SimDuration::from_nanos(e_t - s_t).as_secs_f64())
}

/// Brute-force nearest-rank quantile of `values`.
fn logged_quantile(mut values: Vec<f64>, q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    Some(values[rank - 1])
}

proptest! {
    /// The identity holds for arbitrary update/scrape interleavings, not
    /// just the E17 series: random gauge walks, counter bumps and
    /// histogram observations over a pool of keys, scraped on a random
    /// grid, still reproduce mean/total exactly. Windowed queries at
    /// random (window, instant) pairs agree bit for bit with a
    /// brute-force evaluation of a shadow log of every scrape.
    ///
    /// The same ops also go to a second registry through handles, each
    /// resolved at its series' first op, scraped into a second store:
    /// both must export the same snapshot bytes and answer every query
    /// the same.
    #[test]
    fn random_walks_reproduce_snapshot_statistics(
        steps in prop::collection::vec(
            (
                1u64..30_000_000_000u64,
                0u8..4u8,
                0usize..9usize,
                0u32..1000u32,
                0u64..50u64,
                prop::bool::ANY,
            ),
            1..40,
        ),
        queries in prop::collection::vec(
            (0usize..1000usize, 0usize..1000usize, 0u8..4u8, 0usize..4usize),
            1..24,
        ),
    ) {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        let mut log: Vec<LoggedScrape> = Vec::new();
        scrape_both(&reg, &mut db, &mut log, SimTime::ZERO);
        // The handle twin: same ops, written through handles.
        let mut hreg = MetricsRegistry::new(SimTime::ZERO);
        let mut hdb = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        hdb.record(&hreg, SimTime::ZERO);
        let mut gauge_ids: BTreeMap<(&str, &str), GaugeId> = BTreeMap::new();
        let mut counter_ids: BTreeMap<(&str, &str), CounterId> = BTreeMap::new();
        let mut latency_id = None;
        let mut now = SimTime::ZERO;
        for (dt, op, pick, permille, bump, scrape) in steps {
            now = now.saturating_add(SimDuration::from_nanos(dt));
            let name = WALK_NAMES[pick % 3];
            let node = [("node", WALK_NODES[pick / 3])];
            let value = f64::from(permille) / 1000.0;
            match op {
                0 => {
                    reg.gauge(name, &node).set(now, value);
                    let id = *gauge_ids
                        .entry((name, node[0].1))
                        .or_insert_with(|| hreg.gauge_id(name, &node));
                    hreg.gauge_at(id).set(now, value);
                }
                1 => {
                    reg.counter(name, &node).add(bump);
                    let id = *counter_ids
                        .entry((name, node[0].1))
                        .or_insert_with(|| hreg.counter_id(name, &node));
                    hreg.counter_at(id).add(bump);
                }
                // One key that is always both a gauge and a counter.
                2 => {
                    reg.gauge("e_dual", &[]).set(now, value);
                    reg.counter("e_dual", &[]).add(bump);
                    let g = *gauge_ids
                        .entry(("e_dual", ""))
                        .or_insert_with(|| hreg.gauge_id("e_dual", &[]));
                    hreg.gauge_at(g).set(now, value);
                    let c = *counter_ids
                        .entry(("e_dual", ""))
                        .or_insert_with(|| hreg.counter_id("e_dual", &[]));
                    hreg.counter_at(c).add(bump);
                }
                _ => {
                    reg.histogram("c_latency_seconds", &[]).observe(value);
                    let id = *latency_id
                        .get_or_insert_with(|| hreg.histogram_id("c_latency_seconds", &[]));
                    hreg.histogram_at(id).observe(value);
                }
            }
            if scrape {
                scrape_both(&reg, &mut db, &mut log, now);
                hdb.record(&hreg, now);
            }
        }
        scrape_both(&reg, &mut db, &mut log, now); // the forced end-of-run scrape
        hdb.record(&hreg, now);
        let at = *db.scrape_times().last().unwrap();
        let window = at.saturating_duration_since(SimTime::ZERO);
        let snap = reg.snapshot(at);
        prop_assert_eq!(snap.to_jsonl(), hreg.snapshot(at).to_jsonl());
        prop_assert_eq!(db.scrape_times(), hdb.scrape_times());
        prop_assert_eq!((db.samples(), db.bytes()), (hdb.samples(), hdb.bytes()));
        for row in &snap.rows {
            match &row.value {
                MetricValue::Counter { total } => {
                    let inc = db.eval_at(&row.key, QueryFn::Increase, window, at).unwrap();
                    prop_assert_eq!(inc, *total as f64);
                }
                MetricValue::Gauge { mean, .. } => {
                    let avg = db.eval_at(&row.key, QueryFn::AvgOverTime, window, at).unwrap();
                    prop_assert_eq!(avg.to_bits(), mean.to_bits());
                }
                MetricValue::Histogram { .. } => {}
            }
        }

        // The merge walk keeps one entry per key, in key order.
        let mut keys: Vec<SeriesKey> = log
            .iter()
            .flat_map(|l| l.counters.keys().chain(l.gauges.keys()).chain(l.histograms.keys()))
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(db.all_series(), keys.clone());
        prop_assert_eq!(hdb.all_series(), keys.clone());
        for name in WALK_NAMES {
            let named: Vec<SeriesKey> = keys.iter().filter(|k| k.name == name).cloned().collect();
            prop_assert_eq!(db.series_matching(name, &[]), named.clone());
            prop_assert_eq!(hdb.series_matching(name, &[]), named);
        }
        let times: Vec<u64> = log.iter().map(|l| l.t).collect();
        prop_assert_eq!(
            db.scrape_times().iter().map(|t| t.as_nanos()).collect::<Vec<_>>(),
            times.clone()
        );

        // Random windows and instants, some snapped to scrape instants so
        // window edges land exactly on samples.
        let last = at.as_nanos();
        for (a, b, snap_mask, qi) in queries {
            let at_ns = if snap_mask & 1 != 0 {
                times[a % times.len()]
            } else {
                (last + 10_000_000_000) / 999 * a as u64
            };
            let window_ns = if snap_mask & 2 != 0 {
                at_ns.saturating_sub(times[b % times.len()])
            } else {
                (at_ns + 1_000_000_000) / 999 * b as u64
            };
            let start_ns = at_ns.saturating_sub(window_ns);
            let q_at = SimTime::from_nanos(at_ns);
            let q_window = SimDuration::from_nanos(window_ns);
            let q = [0.0, 0.5, 0.9, 1.0][qi];
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            for key in &keys {
                let in_window: Vec<f64> = logged_values(&log, key)
                    .into_iter()
                    .filter(|(t, _)| *t >= start_ns && *t <= at_ns)
                    .map(|(_, v)| v)
                    .collect();
                let cases = [
                    (QueryFn::Increase, logged_increase(&log, key, start_ns, at_ns)),
                    (QueryFn::MaxOverTime, in_window.iter().copied().reduce(f64::max)),
                    (QueryFn::MinOverTime, in_window.iter().copied().reduce(f64::min)),
                    (QueryFn::QuantileOverTime(q), logged_quantile(in_window.clone(), q)),
                ];
                for (f, want) in cases {
                    let got = db.eval_at(key, f, q_window, q_at);
                    prop_assert_eq!(bits(got), bits(want), "{:?} of {} at {} over {}", f, key, at_ns, window_ns);
                    let by_handle = hdb.eval_at(key, f, q_window, q_at);
                    prop_assert_eq!(bits(by_handle), bits(got), "handle {:?} of {}", f, key);
                }
                let got = db.eval_at(key, QueryFn::AvgOverTime, q_window, q_at);
                let by_handle = hdb.eval_at(key, QueryFn::AvgOverTime, q_window, q_at);
                prop_assert_eq!(bits(by_handle), bits(got), "handle avg_over_time of {}", key);
                if log.iter().any(|l| l.gauges.contains_key(key)) {
                    let want = logged_gauge_avg(&log, key, start_ns, at_ns);
                    prop_assert_eq!(bits(got), bits(want), "avg_over_time of {} at {} over {}", key, at_ns, window_ns);
                }
            }
        }
    }
}

#[test]
fn observed_and_unobserved_reports_are_identical() {
    let (observed, _) = RecoveryExperiment::run_with_telemetry(
        7,
        HORIZON,
        TelemetrySink::recording_with_tsdb(SimTime::ZERO, ScrapeConfig::default()),
    );
    let (unobserved, _) =
        RecoveryExperiment::run_with_telemetry(7, HORIZON, TelemetrySink::disabled());
    // The scrape loop rides the heartbeat sweep: adding a tsdb must not
    // add events, shift timing, or change a single report field.
    assert_eq!(observed.report, unobserved.report);
    assert_eq!(observed.timeline, unobserved.timeline);
}

#[test]
fn alert_timeline_and_queries_are_byte_deterministic() {
    let collect = || {
        let t = ExperimentTelemetry::collect("recovery", 2013).unwrap();
        let alerts_jsonl = t.alerts_jsonl().unwrap();
        let alerts_text = t.alerts_text().unwrap();
        let query = t
            .query_jsonl(
                "container_fleet_dark",
                &[],
                QueryFn::AvgOverTime,
                SimDuration::from_secs(120),
                Some(SimDuration::from_secs(60)),
            )
            .unwrap();
        (alerts_jsonl, alerts_text, query)
    };
    let a = collect();
    let b = collect();
    assert_eq!(a, b, "same seed must export identical alert/query bytes");
    assert!(!a.0.is_empty(), "seeded churn must produce transitions");
    assert!(a.0.lines().all(|l| l.starts_with("{\"t_ns\":")));
}

#[test]
fn slow_node_burst_pages_fast_windows_but_passes_the_whole_run() {
    // Gray-fault scenario: every node's CPU is clamped to 10 % before a
    // 4-node crash burst, stretching the replacement restarts ~10×. The
    // outage is sharp (~30 s of dark containers) but brief against a
    // 30-minute horizon — exactly the shape a whole-run average washes
    // out and a fast burn-rate window must catch.
    let horizon = SimDuration::from_secs(1800);
    let mut timeline = FaultTimeline::new();
    for n in 0..56 {
        timeline.push(
            SimTime::from_secs(100),
            FaultKind::SlowNode {
                node: NodeId(n),
                permille: 100,
            },
        );
    }
    for n in 0..4 {
        timeline.push(
            SimTime::from_secs(300),
            FaultKind::NodeCrash { node: NodeId(n) },
        );
    }
    for n in 0..56 {
        timeline.push(
            SimTime::from_secs(400),
            FaultKind::SlowNodeHealed { node: NodeId(n) },
        );
    }
    let (result, sink) = run_recovery_with_telemetry(
        &RecoveryConfig::lan_default(),
        &timeline,
        horizon,
        11,
        TelemetrySink::recording_with_tsdb(SimTime::ZERO, ScrapeConfig::default()),
    );
    assert_eq!(result.crashes, 4);
    let db = sink.tsdb().expect("scraping sink");
    let at = *db.scrape_times().last().unwrap();

    // Whole-run plane: the blackout is tiny against the horizon, so the
    // availability burn over the full window stays under budget...
    let policy = AlertPolicy::picloud_default();
    let page = &policy.alerts[0];
    assert_eq!(page.severity, AlertSeverity::Page);
    let whole_run_burn = page
        .burns(db, full_window(db, at))
        .last()
        .copied()
        .flatten()
        .expect("fleet series were scraped");
    assert!(
        whole_run_burn < 1.0,
        "whole-run burn must PASS (got {whole_run_burn:.3})"
    );
    // ...and the default whole-run SLO report agrees nothing pages.
    let slo = SloPolicy::picloud_default().evaluate(&sink.snapshot(SimTime::ZERO + horizon));
    assert_ne!(slo.worst(), Verdict::Page, "whole-run SLO must not page");

    // Windowed plane: the fast windows resolve the burst and page.
    let alerts = policy.evaluate(db);
    assert!(
        alerts.fired(AlertSeverity::Page),
        "the page alert must fire on the burst:\n{alerts}"
    );
    // The firing lands while the outage is open, not at the end.
    let first_page = alerts
        .firings()
        .find(|t| t.severity == AlertSeverity::Page)
        .unwrap();
    assert!(
        first_page.at >= SimTime::from_secs(300) && first_page.at <= SimTime::from_secs(450),
        "page must fire during the burst, fired at {}s",
        first_page.at.as_secs_f64()
    );
}

#[test]
fn snapshot_exposes_the_sinks_self_series() {
    let t = ExperimentTelemetry::collect("fig2", 1).unwrap();
    let jsonl = t.metrics_jsonl();
    assert!(
        jsonl.contains("\"name\":\"telemetry_series_count\""),
        "cardinality self-gauge missing"
    );
    assert!(
        jsonl.contains("\"name\":\"telemetry_trace_dropped_total\""),
        "trace drop counter missing"
    );
    assert!(
        jsonl.contains("\"name\":\"telemetry_tsdb_samples_total\""),
        "tsdb sample counter missing"
    );
    assert!(
        jsonl.contains("\"name\":\"telemetry_tsdb_bytes_total\""),
        "tsdb byte counter missing"
    );
}

#[test]
fn storage_stays_cheap_per_sample() {
    let sink = observed_run(2013);
    let db = sink.tsdb().unwrap();
    assert!(
        db.samples() > 10_000,
        "a real run stores a real sample count"
    );
    let bps = db.bytes_per_sample();
    // Delta-encoded streams: an unchanged sample costs ~2 bytes, a noisy
    // float one up to ~11; the E17 mix lands near 9, well under the 16 a
    // raw (t_ns, bits) pair would cost.
    assert!(
        bps < 12.0,
        "delta encoding regressed: {bps:.2} bytes/sample"
    );
}
