//! Observability-layer guarantees: byte-identical exports for identical
//! seeds, and a disabled sink that changes nothing.
//!
//! The telemetry layer rides inside the deterministic event loop, so the
//! same `(experiment, seed)` must yield the same JSONL/CSV/Prometheus
//! bytes every run — any `HashMap` iteration, wall-clock leak or float
//! formatting drift in the exporters would break these.

use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud::experiments::{self, REGISTRY};
use picloud::telemetry::ExperimentTelemetry;
use picloud_simcore::telemetry::tsdb::ScrapeConfig;
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::{SimDuration, SimTime};

/// A churn horizon long enough to exercise every recovery path but short
/// enough for the integration suite.
const HORIZON: SimDuration = SimDuration::from_secs(20 * 60);

#[test]
fn same_seed_gives_byte_identical_trace_and_snapshot() {
    let run = || {
        let (exp, sink) = RecoveryExperiment::run_with_telemetry(
            2013,
            HORIZON,
            TelemetrySink::recording(SimTime::ZERO),
        );
        let snap = sink.registry.snapshot(SimTime::ZERO + HORIZON);
        (
            exp.report,
            snap.to_jsonl(),
            snap.to_csv(),
            snap.to_prometheus(),
            sink.tracer.to_jsonl(),
        )
    };
    let (report_a, jsonl_a, csv_a, prom_a, trace_a) = run();
    let (report_b, jsonl_b, csv_b, prom_b, trace_b) = run();
    assert_eq!(report_a, report_b);
    assert_eq!(jsonl_a, jsonl_b, "metrics JSONL must be byte-identical");
    assert_eq!(csv_a, csv_b, "metrics CSV must be byte-identical");
    assert_eq!(prom_a, prom_b, "Prometheus text must be byte-identical");
    assert_eq!(trace_a, trace_b, "trace JSONL must be byte-identical");
    assert!(!trace_a.is_empty(), "churn must produce trace events");
}

#[test]
fn disabled_sink_records_nothing_and_changes_nothing() {
    let (with_telemetry, sink) =
        RecoveryExperiment::run_with_telemetry(7, HORIZON, TelemetrySink::recording(SimTime::ZERO));
    let (without, disabled) =
        RecoveryExperiment::run_with_telemetry(7, HORIZON, TelemetrySink::disabled());
    // Observability must never perturb the simulation it observes.
    assert_eq!(with_telemetry.report, without.report);
    assert_eq!(with_telemetry.timeline, without.timeline);
    // And a disabled sink must not accumulate anything.
    assert!(disabled.registry.is_empty(), "no series when disabled");
    assert_eq!(disabled.tracer.len(), 0, "no events when disabled");
    assert_eq!(disabled.tracer.emitted(), 0);
    // While the enabled one covers the headline subsystems.
    let snap = sink.registry.snapshot(SimTime::ZERO + HORIZON);
    let jsonl = snap.to_jsonl();
    for series in [
        "hardware_power_watts",
        "hardware_soc_temp_celsius",
        "network_link_utilisation",
        "container_state_count",
        "recovery_detect_seconds",
        "recovery_restore_seconds",
        "faults_blackout_seconds_total",
        "mgmt_api_calls_total",
    ] {
        assert!(jsonl.contains(series), "snapshot missing {series}");
    }
}

#[test]
fn plain_run_matches_disabled_telemetry_run() {
    // `run_recovery` delegates with a disabled sink; the experiment
    // wrapper must agree with it exactly.
    let plain = RecoveryExperiment::run_for(11, HORIZON);
    let (wrapped, _) =
        RecoveryExperiment::run_with_telemetry(11, HORIZON, TelemetrySink::disabled());
    assert_eq!(plain, wrapped);
}

#[test]
fn registry_names_resolve_uniquely_and_case_insensitively() {
    let id_of = |name: &str| experiments::find(name).map(|e| e.id);
    for (i, e) in REGISTRY.iter().enumerate() {
        for other in &REGISTRY[i + 1..] {
            assert_ne!(e.id, other.id, "duplicate id");
            if e.alias.is_some() {
                assert_ne!(e.alias, other.alias, "duplicate alias");
            }
        }
        for other in REGISTRY {
            assert_ne!(other.alias, Some(e.id), "{} aliases id {}", other.id, e.id);
        }
        assert_eq!(id_of(e.id), Some(e.id));
        assert_eq!(id_of(&e.id.to_ascii_uppercase()), Some(e.id));
        if let Some(alias) = e.alias {
            assert_eq!(id_of(alias), Some(e.id), "{alias} → {}", e.id);
            assert_eq!(id_of(&alias.to_ascii_uppercase()), Some(e.id));
        }
    }
    assert_eq!(id_of(""), None);
    assert_eq!(id_of("nonsense"), None);
    assert!(ExperimentTelemetry::collect("nonsense", 1).is_none());
}

#[test]
fn observation_does_not_perturb_any_report() {
    // `all` prints each entry as a header line, the report and a blank
    // line; each run, observed or not, must render its section.
    let golden = include_str!("golden/all-seed2013.txt");
    for e in REGISTRY {
        let header = format!("########## {} ##########\n", e.id);
        let start = golden.find(&header).expect(e.id) + header.len();
        let end = golden[start..]
            .find("########## ")
            .map_or(golden.len(), |n| start + n);
        let section = &golden[start..end];
        let mut disabled = TelemetrySink::disabled();
        let plain = (e.run)(2013, &mut disabled);
        assert_eq!(format!("{plain}\n\n"), section, "{} unobserved", e.id);
        assert!(
            disabled.registry.is_empty() && disabled.tracer.is_empty() && disabled.tsdb().is_none(),
            "{}: a disabled sink records nothing",
            e.id
        );
        let mut recording =
            TelemetrySink::recording_with_tsdb(SimTime::ZERO, ScrapeConfig::every(e.scrape_every));
        let observed = (e.run)(2013, &mut recording);
        assert_eq!(format!("{observed}\n\n"), section, "{} observed", e.id);
        assert!(
            !recording.registry.is_empty(),
            "{} recorded no series",
            e.id
        );
    }
}

#[test]
fn summary_experiments_export_deterministically() {
    for id in ["failures", "sdn", "oversub", "sla"] {
        let a = ExperimentTelemetry::collect(id, 3).expect(id);
        let b = ExperimentTelemetry::collect(id, 3).expect(id);
        assert_eq!(a.metrics_jsonl(), b.metrics_jsonl(), "{id}");
        assert_eq!(a.trace_jsonl(), b.trace_jsonl(), "{id}");
        assert!(!a.sink.registry.is_empty(), "{id} produced no series");
    }
}

#[test]
fn e17_alias_collects_live_recovery_telemetry() {
    // The CLI path: `picloud telemetry --experiment e17`.
    let t = ExperimentTelemetry::collect("e17", 2013).expect("e17 resolves");
    assert_eq!(t.id, "recovery");
    let trace = t.trace_jsonl();
    for kind in ["node_crash", "node_declared_dead", "container_rescheduled"] {
        assert!(trace.contains(kind), "trace missing {kind} events");
    }
}
