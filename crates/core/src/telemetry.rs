//! Exportable telemetry for every experiment in the suite.
//!
//! The simulation crates expose `record_telemetry` hooks that fold their
//! state into a [`MetricsRegistry`]; the recovery loop additionally
//! streams a sim-time trace. This module is the umbrella over both: each
//! entry of the experiment [`REGISTRY`](crate::experiments::REGISTRY)
//! has one `run` that renders its report and, given an enabled sink,
//! records into it, so one CLI call
//! (`picloud telemetry --experiment e17 --format jsonl`) yields a
//! machine-readable snapshot of any paper artifact, and a report and its
//! telemetry always come from the same run:
//!
//! * experiments that advance a simulated clock record *as it passes*:
//!   `recovery`/E17 its power, link utilisation, container lifecycle and
//!   recovery series plus every fault, detection and failover event;
//!   `traffic`/E7 its fully remote replay's link series on the scrape
//!   grid; `sla`/E16 a webserver run near the knee;
//! * the others set their result gauges at t = 0 from the finished run;
//!   fig4, sdn and fidelity add a traced walk-through (spans).
//!
//! Recording never perturbs: a run with a disabled sink does no telemetry
//! work and renders the same report bytes.
//!
//! All output is byte-deterministic for a fixed `(experiment, seed)`:
//! series iterate in sorted order and floats render through one
//! formatter. See `OBSERVABILITY.md` for the label schema and the
//! per-experiment series catalogue in `EXPERIMENTS.md`.
//!
//! [`MetricsRegistry`]: picloud_simcore::telemetry::MetricsRegistry

use crate::experiments;
use picloud_simcore::telemetry::slo::{AlertPolicy, AlertTimeline, SloPolicy, SloReport};
use picloud_simcore::telemetry::tsdb::{QueryFn, ScrapeConfig, TimeSeriesDb};
use picloud_simcore::telemetry::{json_escape, MetricsSnapshot, TelemetrySink};
use picloud_simcore::{SimDuration, SimTime, SpanForest};
use std::cell::OnceCell;

/// The telemetry one experiment run produced: a labeled metrics registry
/// plus a sim-time trace, ready for export in any supported format.
#[derive(Debug)]
pub struct ExperimentTelemetry {
    /// Canonical experiment id (`recovery`, not `e17`).
    pub id: &'static str,
    /// Seed the run used.
    pub seed: u64,
    /// Sim-time instant the snapshot describes: the run's last scrape (a
    /// clocked run's horizon or a traced walk-through's end; t = 0 when
    /// the run scraped nothing).
    pub taken_at: SimTime,
    /// The recorded series and trace.
    pub sink: TelemetrySink,
    /// The span forest, built on first use and shared by every span
    /// export.
    forest: OnceCell<ForestCache>,
}

/// A span forest and the tracer length it was built at, followed by the
/// forest built after the trace moved on. Each forest stays put once
/// built, so the references [`ExperimentTelemetry::span_forest`] hands
/// out remain valid while a later call builds a newer one.
#[derive(Debug)]
struct ForestCache {
    emitted: u64,
    forest: SpanForest,
    newer: OnceCell<Box<ForestCache>>,
}

impl ExperimentTelemetry {
    /// Runs `name` (canonical id or `eN` alias) at `seed` and collects
    /// its telemetry. Returns `None` for unknown experiment names.
    /// Deterministic: same `(name, seed)` ⇒ byte-identical exports.
    pub fn collect(name: &str, seed: u64) -> Option<ExperimentTelemetry> {
        let exp = experiments::find(name)?;
        let scrape = ScrapeConfig::every(exp.scrape_every);
        let mut sink = TelemetrySink::recording_with_tsdb(SimTime::ZERO, scrape);
        (exp.run)(seed, &mut sink);
        // The snapshot describes the run's last scrape. One more scrape
        // there samples what the run recorded after it (result gauges);
        // it appends nothing when nothing changed.
        let taken_at = sink
            .tsdb()
            .and_then(|db| db.scrape_times().last().copied())
            .unwrap_or(SimTime::ZERO);
        sink.scrape_now(taken_at);
        Some(ExperimentTelemetry {
            id: exp.id,
            seed,
            taken_at,
            sink,
            forest: OnceCell::new(),
        })
    }

    /// The metrics snapshot at the run's horizon, including the sink's
    /// self-observation series (`telemetry_series_count`,
    /// `telemetry_trace_dropped_total`, `telemetry_tsdb_*`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.sink.snapshot(self.taken_at)
    }

    /// Metrics as JSON Lines (one object per series).
    pub fn metrics_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }

    /// Metrics as long-format CSV.
    pub fn metrics_csv(&self) -> String {
        self.snapshot().to_csv()
    }

    /// Metrics in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// The trace as JSON Lines (one object per event).
    pub fn trace_jsonl(&self) -> String {
        self.sink.tracer.to_jsonl()
    }

    /// The causal span forest reconstructed from the run's trace, built
    /// once and shared by the span exports. `sink` is public, so a
    /// caller may record more events after an export: the forest is
    /// rebuilt when the tracer's emitted count has moved since the last
    /// build (the older forest is kept until `self` is dropped).
    pub fn span_forest(&self) -> &SpanForest {
        let emitted = self.sink.tracer.emitted();
        let build = || ForestCache {
            emitted,
            forest: SpanForest::from_tracer(&self.sink.tracer),
            newer: OnceCell::new(),
        };
        let mut cache = self.forest.get_or_init(build);
        while let Some(newer) = cache.newer.get() {
            cache = newer;
        }
        if cache.emitted != emitted {
            cache = cache.newer.get_or_init(|| Box::new(build()));
        }
        &cache.forest
    }

    /// Spans as JSON Lines (one object per span, id order).
    pub fn spans_jsonl(&self) -> String {
        self.span_forest().to_jsonl()
    }

    /// Deterministic span trees, one per root, id order.
    pub fn spans_text(&self) -> String {
        let forest = self.span_forest();
        let mut out = format!(
            "spans \u{2014} experiment {} (seed {}): {} spans, {} roots\n",
            self.id,
            self.seed,
            forest.len(),
            forest.roots().len()
        );
        for &root in forest.roots() {
            out.push('\n');
            out.push_str(&forest.render_tree(root));
        }
        out
    }

    /// The suite's default SLO policy evaluated against this run's
    /// metrics snapshot.
    pub fn slo_report(&self) -> SloReport {
        SloPolicy::picloud_default().evaluate(&self.snapshot())
    }

    /// The windowed time-series store the run scraped.
    pub fn tsdb(&self) -> Option<&TimeSeriesDb> {
        self.sink.tsdb()
    }

    /// The default multi-window burn-rate alert policy replayed over the
    /// run's scrape timeline. `None` when collection had no tsdb.
    pub fn alert_timeline(&self) -> Option<AlertTimeline> {
        self.sink
            .tsdb()
            .map(|db| AlertPolicy::picloud_default().evaluate(db))
    }

    /// The alert timeline as fixed-width text.
    pub fn alerts_text(&self) -> Option<String> {
        let timeline = self.alert_timeline()?;
        Some(format!(
            "alerts \u{2014} experiment {} (seed {})\n{timeline}\n",
            self.id, self.seed
        ))
    }

    /// The alert timeline as JSON Lines (one object per transition).
    pub fn alerts_jsonl(&self) -> Option<String> {
        self.alert_timeline().map(|t| t.to_jsonl())
    }

    /// Evaluates `f` over trailing `window`s for every stored series
    /// matching `metric` + `labels`, rendered as JSON Lines (one object
    /// per instant per series, series then time order). `None` when
    /// collection had no tsdb; an empty string when nothing matches.
    pub fn query_jsonl(
        &self,
        metric: &str,
        labels: &[(String, String)],
        f: QueryFn,
        window: SimDuration,
        step: Option<SimDuration>,
    ) -> Option<String> {
        let db = self.sink.tsdb()?;
        let mut out = String::new();
        for series in db.series_matching(metric, labels) {
            for p in db.eval_range(&series, f, window, step) {
                out.push_str("{\"metric\":\"");
                json_escape(&series.name, &mut out);
                out.push_str("\",\"labels\":{");
                for (i, (k, v)) in series.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json_escape(k, &mut out);
                    out.push_str("\":\"");
                    json_escape(v, &mut out);
                    out.push('"');
                }
                out.push_str(&format!(
                    "}},\"fn\":\"{}\",\"window_secs\":{},\"t_ns\":{}",
                    f.label(),
                    window.as_secs_f64(),
                    p.at.as_nanos()
                ));
                match p.value {
                    Some(v) if v.is_finite() => out.push_str(&format!(",\"value\":{v}}}\n")),
                    _ => out.push_str(",\"value\":null}\n"),
                }
            }
        }
        Some(out)
    }

    /// The same query rendered as deterministic text: one block per
    /// matching series, one line per instant.
    pub fn query_text(
        &self,
        metric: &str,
        labels: &[(String, String)],
        f: QueryFn,
        window: SimDuration,
        step: Option<SimDuration>,
    ) -> Option<String> {
        let db = self.sink.tsdb()?;
        let mut out = format!(
            "query \u{2014} experiment {} (seed {}): {}({}[{}s])\n",
            self.id,
            self.seed,
            f.label(),
            metric,
            window.as_secs_f64()
        );
        let matching = db.series_matching(metric, labels);
        if matching.is_empty() {
            out.push_str("no matching series\n");
            return Some(out);
        }
        for series in matching {
            out.push_str(&format!("\n{series}\n"));
            for p in db.eval_range(&series, f, window, step) {
                match p.value {
                    Some(v) => out.push_str(&format!("  t={}s {v}\n", p.at.as_secs_f64())),
                    None => out.push_str(&format!("  t={}s -\n", p.at.as_secs_f64())),
                }
            }
        }
        Some(out)
    }

    /// Critical-path analysis of every root span, with per-segment blame.
    ///
    /// For `recovery` (E17) roots that closed a real outage window
    /// (carrying `downtime_ns`), the footer reports their count and mean
    /// critical-path total — by construction equal to the experiment's
    /// measured MTTR, since each such root spans exactly
    /// `[crash, respawn]`.
    pub fn critical_path_report(&self) -> String {
        let forest = self.span_forest();
        let mut out = format!(
            "critical paths \u{2014} experiment {} (seed {})\n",
            self.id, self.seed
        );
        if forest.roots().is_empty() {
            out.push_str("no spans recorded\n");
            return out;
        }
        let mut restored_total = SimDuration::ZERO;
        let mut restored_count: u64 = 0;
        for &root in forest.roots() {
            let (Some(rec), Some(path)) = (forest.get(root), forest.critical_path(root)) else {
                continue;
            };
            out.push_str(&format!("\n{} {}", rec.name, rec.id));
            for (k, v) in rec.fields.iter().chain(rec.end_fields.iter()) {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            out.push_str(&path.render());
            if rec.name == "recovery" && rec.field("downtime_ns").is_some() {
                restored_total = restored_total.saturating_add(path.total());
                restored_count += 1;
            }
        }
        if restored_count > 0 {
            out.push_str(&format!(
                "\nrecovered outages: {restored_count}, mean critical-path total (= MTTR): {}\n",
                restored_total / restored_count
            ));
        }
        out
    }

    /// Mean critical-path total over `recovery` roots that closed an
    /// outage window — the span-level MTTR. `None` when the run restored
    /// nothing.
    pub fn span_mttr(&self) -> Option<SimDuration> {
        let forest = self.span_forest();
        let mut total = SimDuration::ZERO;
        let mut count: u64 = 0;
        for rec in forest.roots_named("recovery") {
            if rec.field("downtime_ns").is_some() {
                let path = forest.critical_path(rec.id)?;
                total = total.saturating_add(path.total());
                count += 1;
            }
        }
        (count > 0).then(|| total / count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_collects_something() {
        // The cheap summary experiments; the heavyweight sweeps
        // (placement, traffic, sla, fidelity, p2p, recovery) are covered
        // by the integration suite.
        for id in ["table1", "fig1", "fig2", "fig3", "fig4", "power", "dvfs"] {
            let t = ExperimentTelemetry::collect(id, 1).expect(id);
            assert!(!t.sink.registry.is_empty(), "{id} produced no series");
            assert!(!t.metrics_jsonl().is_empty());
            assert!(!t.metrics_csv().is_empty());
            assert!(!t.metrics_prometheus().is_empty());
        }
    }

    #[test]
    fn summary_collection_is_deterministic() {
        let a = ExperimentTelemetry::collect("imagedist", 9).unwrap();
        let b = ExperimentTelemetry::collect("imagedist", 9).unwrap();
        assert_eq!(a.metrics_jsonl(), b.metrics_jsonl());
        assert_eq!(a.metrics_csv(), b.metrics_csv());
        assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }

    #[test]
    fn sdn_spans_show_the_control_round_trip() {
        let t = ExperimentTelemetry::collect("e8", 1).unwrap();
        let forest = t.span_forest();
        let routes: Vec<_> = forest.roots_named("sdn_route").collect();
        assert_eq!(routes.len(), 2, "one miss, one hit");
        let kids = |r: &picloud_simcore::SpanRecord| {
            forest
                .children(r.id)
                .iter()
                .map(|&c| forest.get(c).unwrap().name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(kids(routes[0]), ["packet_in", "flow_mod"]);
        assert!(kids(routes[1]).is_empty(), "cache hit has no round trip");
        assert!(t.spans_jsonl().contains("\"name\":\"packet_in\""));
        assert!(t.spans_text().contains("sdn_route"));
    }

    #[test]
    fn the_span_forest_is_built_once_and_follows_later_events() {
        let mut t = ExperimentTelemetry::collect("e8", 1).unwrap();
        let spans = t.spans_jsonl();
        assert!(
            std::ptr::eq(t.span_forest(), t.span_forest()),
            "the exports share one forest"
        );
        // `sink` is public: events recorded after an export must show.
        let tracer = &mut t.sink.tracer;
        let late = tracer.span_start(t.taken_at, "late", picloud_simcore::SpanId::NONE, |_| {});
        tracer.span_end(t.taken_at, late, |_| {});
        assert_eq!(t.span_forest(), &SpanForest::from_tracer(&t.sink.tracer));
        assert_eq!(t.spans_jsonl().lines().count(), spans.lines().count() + 1);
        assert!(t.critical_path_report().contains("late"));
    }

    #[test]
    fn fig4_panel_spans_feed_the_staleness_slo() {
        let t = ExperimentTelemetry::collect("fig4", 1).unwrap();
        let forest = t.span_forest();
        assert_eq!(forest.roots_named("panel_refresh").count(), 2);
        let report = t.slo_report();
        let staleness = report
            .results
            .iter()
            .find(|r| r.rule.name == "panel_staleness")
            .expect("default policy covers panel staleness");
        assert_eq!(staleness.observed, Some(20.0));
        assert_eq!(
            staleness.verdict,
            picloud_simcore::telemetry::slo::Verdict::Pass
        );
    }

    #[test]
    fn query_jsonl_escapes_label_values_like_metrics_jsonl() {
        let label = "x\"y\\z\nw";
        let mut sink = TelemetrySink::recording_with_tsdb(
            SimTime::ZERO,
            ScrapeConfig::every(SimDuration::from_secs(1)),
        );
        for s in 0..3u64 {
            let now = SimTime::from_secs(s);
            sink.registry
                .gauge("odd_label", &[("tag", label)])
                .set(now, s as f64);
            sink.scrape_now(now);
        }
        let t = ExperimentTelemetry {
            id: "escape",
            seed: 0,
            taken_at: SimTime::from_secs(2),
            sink,
            forest: OnceCell::new(),
        };
        let jsonl = t
            .query_jsonl(
                "odd_label",
                &[],
                QueryFn::MaxOverTime,
                SimDuration::from_secs(1),
                None,
            )
            .unwrap();
        assert_eq!(jsonl.lines().count(), 3, "one line per instant:\n{jsonl}");
        for line in jsonl.lines() {
            let row: serde::Content = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}"));
            let tag = row.get("labels").and_then(|l| l.get("tag"));
            assert_eq!(tag.and_then(|v| v.as_str()), Some(label));
        }
        // The snapshot export of the same series round-trips the label too.
        let metrics = t.metrics_jsonl();
        let row = metrics
            .lines()
            .find(|l| l.contains("\"name\":\"odd_label\""))
            .unwrap();
        let row: serde::Content = serde_json::from_str(row).unwrap();
        let tag = row.get("labels").and_then(|l| l.get("tag"));
        assert_eq!(tag.and_then(|v| v.as_str()), Some(label));
    }

    #[test]
    fn fidelity_spans_reconstruct_the_mapreduce_job() {
        let t = ExperimentTelemetry::collect("e10", 1).unwrap();
        let forest = t.span_forest();
        let jobs: Vec<_> = forest.roots_named("mapreduce_job").collect();
        assert_eq!(jobs.len(), 1);
        let path = forest.critical_path(jobs[0].id).unwrap();
        assert_eq!(path.total(), jobs[0].duration());
        let sum: u64 = path.steps.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(sum, path.total().as_nanos(), "blame partitions the job");
        assert!(t.critical_path_report().contains("mapreduce_job"));
    }
}
