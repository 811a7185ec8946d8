//! End-to-end host-time benchmark of the PiCloud emulator.
//!
//! The emulator's users rehearse cloud experiments on it, so the number
//! they feel is host time per experiment. Each workload in
//! [`workloads`] is a closed loop of fixed runs over the repository's
//! public crates; [`run_pass`] times one pass of them, and [`trace`]
//! splits a traced pass's time across the layers the runs call into.
//! See `README.md` for the metrics and why each workload exists.

pub mod heap;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;
use workloads::{Counts, Fnv, Inputs};

/// The end-to-end metrics, `(name, unit)`, every untraced run reports.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_heap_mb", "MiB")];

/// The per-layer metrics, `(name, unit)`, every traced run reports.
/// Times are self time per run; counts are per run.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.traffic.generate_s", "s"),
    ("workloads.traffic.flows", "count"),
    ("network.flowsim.build_s", "s"),
    ("network.flowsim.inject_s", "s"),
    ("network.flowsim.inject_calls", "count"),
    ("network.flowsim.advance_s", "s"),
    ("network.flowsim.advance_calls", "count"),
    ("network.flowsim.readout_s", "s"),
    ("network.flowsim.local_solves", "count"),
    ("network.flowsim.spine_solves", "count"),
    ("network.flowsim.active_peak", "count"),
    ("network.estimate.build_s", "s"),
    ("network.estimate.estimate_s", "s"),
    ("network.estimate.readout_s", "s"),
    ("network.estimate.clusters", "count"),
    ("network.estimate.rep_flows", "count"),
    ("network.estimate.loaded_links", "count"),
    ("network.estimate.compression", "ratio"),
    ("faults.timeline_s", "s"),
    ("faults.timeline_events", "count"),
    ("core.recovery.run_s", "s"),
    ("simcore.engine.events", "count"),
    ("simcore.engine.events_per_s", "1/s"),
    ("core.recovery.detections", "count"),
    ("core.recovery.false_suspicions", "count"),
    ("core.recovery.rescheduled", "count"),
    ("core.recovery.stranded", "count"),
    ("faults.rpc.replies", "count"),
    ("faults.rpc.timeouts", "count"),
    ("faults.rpc.timeout_ratio", "ratio"),
    ("core.telemetry.collect_s", "s"),
    ("simcore.tsdb.series", "count"),
    ("simcore.tsdb.samples", "count"),
    ("simcore.tsdb.bytes_per_sample", "B"),
    ("simcore.telemetry.trace_events", "count"),
    ("simcore.spans.spans", "count"),
    ("core.telemetry.bytes_exported", "B"),
    ("simcore.telemetry.metrics_jsonl_s", "s"),
    ("simcore.spans.forest_jsonl_s", "s"),
    ("simcore.spans.critical_path_s", "s"),
    ("simcore.slo.alerts_s", "s"),
    ("simcore.tsdb.query_s", "s"),
    ("bench.run_self_s", "s"),
    ("run_p50_ms", "ms"),
    ("run_tail_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// The span every run executes inside; its self time is the harness's
/// own share (input cloning, output checks, digest folding).
pub const RUN_SPAN: &str = "bench.run";

/// One timed pass: every run of the workload's fixed run set.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host time for the whole pass.
    pub wall_s: f64,
    /// Host time of each run, in run order.
    pub run_s: Vec<f64>,
    /// How far each run grew the live heap at its peak, bytes, in run
    /// order; 0 unless heap counting was on.
    pub peak_heap: Vec<usize>,
    /// FNV-64 over every run's output digest, in run order.
    pub digest: u64,
    /// Runs that panicked or failed an output check.
    pub failed: u64,
    /// Per-layer work counts summed over the pass.
    pub counts: Counts,
}

/// Runs `runs` runs at seeds `seed, seed + 1, …` on `inputs`. A run that
/// panics or fails a check is counted and reported on stderr; the pass
/// goes on with the next run.
pub fn run_pass(inputs: &Inputs, seed: u64, runs: u64, workers: usize, tr: &mut Tracer) -> Pass {
    let mut counts = Counts::default();
    let mut digest = Fnv::default();
    let mut run_s = Vec::with_capacity(usize::try_from(runs).unwrap_or(0));
    let mut peak_heap = Vec::with_capacity(run_s.capacity());
    let mut failed = 0;
    let start = Instant::now();
    for i in 0..runs {
        tr.set_run(i);
        heap::open_window();
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            tr.span(RUN_SPAN, |tr| {
                inputs.run(seed + i, workers, tr, &mut counts)
            })
        }));
        run_s.push(t.elapsed().as_secs_f64());
        peak_heap.push(heap::window_peak());
        match out {
            Ok(Ok(d)) => digest.u64(d),
            Ok(Err(why)) => {
                eprintln!("run {i} (seed {}) failed a check: {why}", seed + i);
                failed += 1;
                digest.u64(u64::MAX);
            }
            Err(_) => {
                eprintln!("run {i} (seed {}) panicked", seed + i);
                tr.unwind();
                failed += 1;
                digest.u64(u64::MAX);
            }
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        run_s,
        peak_heap,
        digest: digest.finish(),
        failed,
        counts,
    }
}

/// Each run's fastest host time over `passes`, which all ran the same
/// run set. Host contention only ever adds time, and on a shared host
/// it comes in bursts that can outlast a pass; the fastest of several
/// timings of the same run is the steadiest estimate of its cost.
pub fn run_best(passes: &[Pass]) -> Vec<f64> {
    let runs = passes.first().map_or(0, |p| p.run_s.len());
    (0..runs)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.run_s.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default exclusive method); `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest of p50/p75/p90/p95/p99 that has at least ten samples
/// beyond it, as `(percentile, value)`; the median below 20 samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest rank, with the percentile in per mille to keep it exact.
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    let permille = [990, 950, 900, 750]
        .into_iter()
        .find(|&p| n >= rank(p) + 10)
        .unwrap_or(500);
    let value = v.get(rank(permille) - 1).copied().unwrap_or(0.0);
    (permille as f64 / 10.0, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..19]).0, 50.0);
    }
}
