//! The benchmark's own checks: it prints what `BENCHMARK.json`
//! declares, its digests repeat, and its copies of experiment set-up
//! reproduce the experiments they stand in for.

use picloud::experiments::estimate_exp::{sweep, FidelityMode};
use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud::{run_recovery, RecoveryConfig};
use picloud_e2e_bench::trace::Tracer;
use picloud_e2e_bench::workloads::{e17_timeline, Fnv, Inputs, Workload, PIN_SEED, WORKERS};
use picloud_e2e_bench::{run_pass, END_TO_END, PER_LAYER};
use picloud_simcore::SimDuration;
use serde::Content;
use std::process::Command;

const SPEC: &str = include_str!("../../BENCHMARK.json");

fn declared(section: &str) -> Vec<(String, String)> {
    let spec: Content = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Content::as_seq)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Content::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect()
}

/// Runs the binary on `w` at 3 runs; returns stdout.
fn bench(w: Workload, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_picloud-e2e-bench"))
        .args(["--workload", w.name(), "--runs", "3", "--seconds", "0.01"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("bench binary runs");
    assert!(
        out.status.success(),
        "{} exited with {}",
        w.name(),
        out.status
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn the_binary_declares_what_benchmark_json_declares() {
    assert_eq!(as_owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(as_owned(&PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    let spec: Content = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
    let listed: Vec<String> = spec
        .get("workloads")
        .and_then(Content::as_seq)
        .expect("workload list")
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_owned()))
        .collect();
    assert_eq!(workloads, listed);
}

#[test]
fn every_metric_is_printed_with_its_unit_and_the_digest_repeats() {
    for w in Workload::ALL {
        let mut digests = Vec::new();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let stdout = bench(w, trace);
            let last = stdout.lines().last().expect("a result line");
            let result: Content = serde_json::from_str(last).expect("result is JSON");
            assert_eq!(result.get("correct").and_then(Content::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Content::as_u64), Some(0));
            let metrics = result
                .get("metrics")
                .and_then(Content::as_map)
                .expect("metrics");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected = declared(section);
            assert_eq!(
                names,
                expected.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
            );
            for (name, unit) in &expected {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .expect("metric");
                assert_eq!(m.get("unit").and_then(Content::as_str), Some(unit.as_str()));
                let v = m
                    .get("value")
                    .and_then(Content::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{} {name} = {v}", w.name());
                if !trace {
                    assert!(v > 0.0, "{} {name} must never be 0", w.name());
                }
                let line = format!("metric {name} ");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&line) && l.ends_with(&format!(" {unit}"))),
                    "{} prints no line for {name}",
                    w.name()
                );
            }
            let digest = stdout
                .lines()
                .find_map(|l| l.strip_prefix("sim_digest "))
                .and_then(|l| l.split_whitespace().next())
                .expect("a digest line")
                .to_owned();
            digests.push(digest);
        }
        assert_eq!(
            digests[0],
            digests[1],
            "{} digest differs between processes",
            w.name()
        );
    }
}

#[test]
fn digests_do_not_depend_on_the_worker_count() {
    for w in [
        Workload::FabricLocal,
        Workload::FabricRemote,
        Workload::FabricEstimate,
    ] {
        let inputs = Inputs::build(w);
        let mut tr = Tracer::new(false);
        let serial = run_pass(&inputs, PIN_SEED, 3, 1, &mut tr);
        let pooled = run_pass(&inputs, PIN_SEED, 3, WORKERS, &mut tr);
        assert_eq!(serial.failed + pooled.failed, 0);
        assert_eq!(serial.digest, pooled.digest, "{}", w.name());
    }
}

#[test]
fn pinned_digests_hold_at_the_committed_run_counts() {
    for w in Workload::ALL {
        let pass = run_pass(
            &Inputs::build(w),
            PIN_SEED,
            w.runs(),
            WORKERS,
            &mut Tracer::new(false),
        );
        assert_eq!(pass.failed, 0, "{}", w.name());
        assert_eq!(
            pass.digest,
            w.pinned_digest(),
            "{}: digest {:#018x}",
            w.name(),
            pass.digest
        );
    }
}

#[test]
fn the_bench_e17_timeline_reproduces_the_experiment() {
    let horizon = SimDuration::from_secs(90 * 60);
    let exp = RecoveryExperiment::run_for(PIN_SEED, horizon);
    let timeline = e17_timeline(PIN_SEED, horizon);
    assert_eq!(timeline, exp.timeline);
    let report = run_recovery(&RecoveryConfig::lan_default(), &timeline, horizon, PIN_SEED);
    assert_eq!(report, exp.report);
}

#[test]
fn one_estimation_workload_serves_every_tier_of_the_s2_sweep() {
    let lines = sweep(
        FidelityMode::Estimate,
        PIN_SEED,
        SimDuration::from_secs(120),
    );
    let mut expected = Fnv::default();
    for l in lines.iter().filter(|l| l.locality == 0.5) {
        expected.u64(l.p50_secs.to_bits());
        expected.u64(l.p99_secs.to_bits());
    }
    let inputs = Inputs::build(Workload::FabricEstimate);
    let mut counts = Default::default();
    let digest = inputs
        .run(PIN_SEED, WORKERS, &mut Tracer::new(false), &mut counts)
        .expect("estimation run passes its checks");
    assert_eq!(digest, expected.finish());
}
