//! Observability overhead — benches the telemetry registry and tracer,
//! causal spans, the tsdb and burn-rate alerts, and writes
//! `BENCH_telemetry.json` at the repository root.
//!
//! Four kinds of cost matter:
//!
//! * the hot-path cost of a *disabled* tracer, which guards every
//!   instrumented subsystem and must be near zero. The disabled span
//!   path (start + end) must stay within ~2× one disabled emit: spans
//!   are threaded unconditionally, so this branch runs on every RPC,
//!   route and recovery step even when observability is off;
//! * recording: an enabled emit or span into a ring, a gauge created
//!   and set in the labeled registry, and a set of a series that already
//!   exists in the live E17 registry, by name and by handle. A set and a
//!   counter add by handle must make no allocation call (asserted);
//! * reading a live run back: snapshot and trace export, span-forest
//!   reconstruction, critical paths and the forest's JSONL;
//! * the time-series pipeline: scraping a full registry into the
//!   delta-encoded store, windowed queries over a long scrape history,
//!   and the burn-rate alert state machine over a real E17 timeline,
//!   with bytes per sample tracked as a trend.
//!
//! The live fixture is one 10-minute seed-1 E17 churn run recorded with
//! spans and scraped on the default grid
//! (`TelemetrySink::recording_with_tsdb(SimTime::ZERO,
//! ScrapeConfig::default())`); the query costs run on a synthetic
//! registry of 600 series (a thousand streams) scraped once a second.

use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud_bench::allocs;
use picloud_bench::report::{per_call_ns, Report};
use picloud_network::flowsim::partition::default_workers;
use picloud_simcore::telemetry::slo::AlertPolicy;
use picloud_simcore::telemetry::tsdb::{QueryFn, ScrapeConfig, TimeSeriesDb};
use picloud_simcore::telemetry::{MetricsRegistry, TelemetrySink, Tracer};
use picloud_simcore::{SimDuration, SimTime, SpanForest, SpanId};
use std::hint::black_box;

/// Seed of the E17 fixture.
const SEED: u64 = 1;
const TELEMETRY: &str = "simcore.telemetry";
const SPANS: &str = "simcore.spans";
const TSDB: &str = "simcore.tsdb";
const SLO: &str = "simcore.slo";

#[global_allocator]
static ALLOCATOR: allocs::Counting = allocs::Counting;

/// One short E17 churn run with live telemetry: metrics, spans and
/// tsdb scrapes.
fn live_run() -> TelemetrySink {
    let sink = TelemetrySink::recording_with_tsdb(SimTime::ZERO, ScrapeConfig::default());
    RecoveryExperiment::run_with_telemetry(SEED, SimDuration::from_secs(10 * 60), sink).1
}

/// A registry holding six hundred mixed series (a thousand streams) — the
/// scale of a full E17 run (56 nodes × a handful of per-node series plus
/// the fabric).
fn synthetic_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new(SimTime::ZERO);
    for n in 0..200u32 {
        let node = n.to_string();
        reg.gauge("bench_node_cpu", &[("node", &node)])
            .set(SimTime::ZERO, f64::from(n));
        reg.counter("bench_node_ops_total", &[("node", &node)])
            .add(u64::from(n));
    }
    for n in 0..200u32 {
        let node = n.to_string();
        reg.histogram("bench_latency_seconds", &[("node", &node)])
            .observe(f64::from(n) * 0.001);
    }
    reg
}

/// Advances the registry one second and scrapes it, the per-tick unit of
/// work an observed run pays.
fn tick(reg: &mut MetricsRegistry, db: &mut TimeSeriesDb, s: u64) {
    let now = SimTime::from_secs(s);
    // A minority of series move each tick, as in a real run: delta
    // encoding earns its keep on the unchanged majority.
    for n in 0..20u32 {
        let node = (n * 10).to_string();
        reg.gauge("bench_node_cpu", &[("node", &node)])
            .set(now, f64::from(n) + s as f64);
        reg.counter("bench_node_ops_total", &[("node", &node)])
            .add(1);
    }
    db.record(reg, now);
}

/// A scrape history of `scrapes` one-second ticks over the synthetic
/// registry.
fn synthetic_db(scrapes: u64) -> (MetricsRegistry, TimeSeriesDb) {
    let mut reg = synthetic_registry();
    let mut db = TimeSeriesDb::new(
        SimTime::ZERO,
        ScrapeConfig::every(SimDuration::from_secs(1)),
    );
    for s in 0..scrapes {
        tick(&mut reg, &mut db, s);
    }
    (reg, db)
}

fn main() {
    // Registry and tracer hot paths. Each call builds its tracer and
    // passes `black_box` a reference: moving the tracer through it would
    // time a copy that instrumented code never pays.
    let emit_disabled = per_call_ns(9, 100_000, || {
        let mut t = Tracer::disabled();
        t.emit(SimTime::ZERO, "noop", |e| {
            e.u64("x", 1);
        });
        black_box(&t);
    });
    let emit_ring = per_call_ns(9, 100_000, || {
        let mut t = Tracer::ring(64);
        t.emit(SimTime::ZERO, "noop", |e| {
            e.u64("x", 1);
        });
        black_box(&t);
    });
    let gauge_create_set = per_call_ns(9, 10_000, || {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("bench_gauge", &[("node", "7")])
            .set(SimTime::from_secs(1), 1.0);
        black_box(&reg);
    });
    let span_disabled = per_call_ns(9, 100_000, || {
        let mut t = Tracer::disabled();
        let id = t.span_start(SimTime::ZERO, "noop", SpanId::NONE, |e| {
            e.u64("x", 1);
        });
        t.span_end(SimTime::ZERO, id, |_| {});
        black_box(&t);
    });
    let span_ring = per_call_ns(9, 100_000, || {
        let mut t = Tracer::ring(64);
        let id = t.span_start(SimTime::ZERO, "noop", SpanId::NONE, |e| {
            e.u64("x", 1);
        });
        t.span_end(SimTime::ZERO, id, |_| {});
        black_box(&t);
    });

    // The live E17 fixture and its read path.
    let live_run_ms = per_call_ns(3, 1, live_run) / 1e6;
    let sink = live_run();
    let snap = sink.registry.snapshot(SimTime::from_secs(600));
    let snapshot_jsonl = per_call_ns(5, 10, || snap.to_jsonl());
    let snapshot_prometheus = per_call_ns(5, 10, || snap.to_prometheus());
    let trace_jsonl = per_call_ns(5, 10, || sink.tracer.to_jsonl());
    let forest = SpanForest::from_tracer(&sink.tracer);
    let roots: Vec<SpanId> = forest.roots().to_vec();
    let rebuild_forest = per_call_ns(5, 10, || SpanForest::from_tracer(&sink.tracer));
    let critical_paths = per_call_ns(5, 10, || {
        for &r in &roots {
            black_box(forest.critical_path(r));
        }
    });
    let forest_jsonl = per_call_ns(5, 10, || forest.to_jsonl());
    let e17 = sink.tsdb().expect("recording sink has a tsdb");
    let policy = AlertPolicy::picloud_default();
    let alerts = per_call_ns(5, 20, || policy.evaluate(e17));

    // Writes to series the live run already holds: a link gauge by name
    // (key search) and by handle (index), and the handle writes'
    // allocation calls.
    let mut reg = sink.registry.clone();
    let end = SimTime::from_secs(600);
    let link = [("link", "17")];
    assert!(reg.get_gauge("network_link_utilisation", &link).is_some());
    let gauge_set_by_name = per_call_ns(9, 100_000, || {
        reg.gauge("network_link_utilisation", &link).set(end, 0.5);
    });
    let gauge = reg.gauge_id("network_link_utilisation", &link);
    let gauge_set_by_handle = per_call_ns(9, 100_000, || {
        reg.gauge_at(gauge).set(end, 0.5);
    });
    assert!(reg.get_counter("recovery_detections_total", &[]).is_some());
    let counter = reg.counter_id("recovery_detections_total", &[]);
    let handle_write_allocs = allocs::per_unit(|| {
        for _ in 0..1000 {
            reg.gauge_at(gauge).set(end, 0.25);
            reg.counter_at(counter).add(1);
        }
        1000
    });

    // The time-series pipeline on the synthetic registry: scrape cost
    // per scrape of the ~1000-stream registry, then windowed queries
    // over a 240-scrape history.
    let scrape = per_call_ns(9, 3, || synthetic_db(60)) / 60.0;
    let (reg, db) = synthetic_db(240);
    let key = db
        .series_matching("bench_node_cpu", &[("node".to_owned(), "70".to_owned())])
        .pop()
        .unwrap_or_else(|| db.all_series().remove(0));
    let (full, at) = (SimDuration::from_secs(240), SimTime::from_secs(239));
    let query_avg = per_call_ns(9, 1000, || db.eval_at(&key, QueryFn::AvgOverTime, full, at));
    let query_quantile = per_call_ns(9, 1000, || {
        db.eval_at(&key, QueryFn::QuantileOverTime(0.99), full, at)
    });

    Report::new("telemetry", SEED, default_workers())
        .row(TELEMETRY, "series.e17", "count", snap.rows.len() as f64)
        .row(
            TELEMETRY,
            "trace_events.e17",
            "count",
            sink.tracer.len() as f64,
        )
        .row(TELEMETRY, "emit_disabled_ns", "ns", emit_disabled)
        .row(TELEMETRY, "emit_ring_ns", "ns", emit_ring)
        .row(TELEMETRY, "gauge_create_set_ns", "ns", gauge_create_set)
        .row(
            TELEMETRY,
            "gauge_set_by_name_ns.e17",
            "ns",
            gauge_set_by_name,
        )
        .row(
            TELEMETRY,
            "gauge_set_by_handle_ns.e17",
            "ns",
            gauge_set_by_handle,
        )
        .row(
            TELEMETRY,
            "allocs.handle_write",
            "count",
            handle_write_allocs,
        )
        .row(TELEMETRY, "snapshot_jsonl_ns.e17", "ns", snapshot_jsonl)
        .row(
            TELEMETRY,
            "snapshot_prometheus_ns.e17",
            "ns",
            snapshot_prometheus,
        )
        .row(TELEMETRY, "trace_jsonl_ns.e17", "ns", trace_jsonl)
        .row(TELEMETRY, "live_run_ms.e17", "ms", live_run_ms)
        .row(SPANS, "spans.e17", "count", forest.len() as f64)
        .row(SPANS, "roots.e17", "count", roots.len() as f64)
        .row(SPANS, "span_disabled_ns", "ns", span_disabled)
        .row(SPANS, "span_ring_ns", "ns", span_ring)
        .row(SPANS, "forest_ns.e17", "ns", rebuild_forest)
        .row(SPANS, "critical_paths_ns.e17", "ns", critical_paths)
        .row(SPANS, "forest_jsonl_ns.e17", "ns", forest_jsonl)
        .row(TSDB, "series.synthetic", "count", reg.len() as f64)
        .row(
            TSDB,
            "scrapes.synthetic",
            "count",
            db.scrape_times().len() as f64,
        )
        .row(TSDB, "samples.synthetic", "count", db.samples() as f64)
        .row(
            TSDB,
            "bytes_per_sample.synthetic",
            "B",
            db.bytes_per_sample(),
        )
        .row(TSDB, "samples.e17", "count", e17.samples() as f64)
        .row(TSDB, "bytes_per_sample.e17", "B", e17.bytes_per_sample())
        .row(TSDB, "scrape_ns.synthetic", "ns", scrape)
        .row(TSDB, "query_avg_ns.synthetic", "ns", query_avg)
        .row(TSDB, "query_quantile_ns.synthetic", "ns", query_quantile)
        .row(SLO, "alerts_ns.e17", "ns", alerts)
        .write();

    assert!(
        handle_write_allocs == 0.0,
        "a gauge set plus a counter add by handle made {handle_write_allocs} \
         allocation calls; handle writes must not allocate"
    );
    // The zero-alloc contract: the disabled span path (start + end, two
    // guarded no-ops) stays within ~2x one disabled emit. The +50 ns
    // floor keeps few-nanosecond figures from tripping on timer noise.
    assert!(
        span_disabled <= emit_disabled * 2.0 + 50.0,
        "disabled span start+end ({span_disabled} ns) must stay within ~2x \
         a disabled emit ({emit_disabled} ns)"
    );
}
