//! The one timer, schema and writer every bench target shares.
//!
//! A [`Report`] is `{bench, seed, workers, rows}`; each [`Row`] is one
//! measured or counted fact, `{layer, metric, unit, value}`. Layers are
//! the names the repository benchmark's per-layer metrics use
//! (`network.flowsim`, `network.estimate`, `simcore.telemetry`,
//! `simcore.spans`, `simcore.tsdb`, `simcore.slo`) plus `core.chaos` and
//! `core.experiments`. A measured point's parameter goes in the metric
//! name (`inject_ns.active_800`), so names are unique within a report.
//! Timings carry their unit (`ns`, `ms`); other facts use `count`, `B`
//! or `ratio`.

use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Times `rounds` rounds and returns the fastest one's nanoseconds per
/// unit of work. Each round first calls `setup` untimed, then times
/// `run` on its output; `run` returns how many units it did (calls,
/// steps, completed flows; at least one is counted). The set-up value
/// is dropped after the clock stops.
///
/// The fastest round, not the median, because host contention only ever
/// adds time: the minimum is the steadiest estimate of the work's own
/// cost, and the scaling asserts compare two such figures.
///
/// # Panics
///
/// If `rounds` is zero.
#[expect(
    clippy::disallowed_methods,
    reason = "the bench harness's one clock read: benches time the host, simulations never do"
)]
pub fn fastest_ns<S>(
    rounds: u32,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> u64,
) -> f64 {
    assert!(rounds > 0, "a timing needs at least one round");
    (0..rounds)
        .map(|_| {
            let mut input = setup();
            let start = Instant::now();
            let units = run(black_box(&mut input));
            let ns = start.elapsed().as_nanos() as f64;
            drop(input);
            ns / units.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// [`fastest_ns`] over rounds of `iters` calls of `f`: nanoseconds per
/// call. Each call's result passes through [`black_box`], so the work
/// that builds it cannot be optimised away.
pub fn per_call_ns<T>(rounds: u32, iters: u64, mut f: impl FnMut() -> T) -> f64 {
    fastest_ns(
        rounds,
        || (),
        |_| {
            for _ in 0..iters {
                black_box(f());
            }
            iters
        },
    )
}

/// One bench target's results, written as `BENCH_<bench>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    bench: String,
    seed: u64,
    workers: usize,
    rows: Vec<Row>,
}

/// One measured or counted fact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    layer: String,
    metric: String,
    unit: String,
    value: f64,
}

impl Report {
    /// An empty report for `bench`, run at `seed` with a solver pool of
    /// `workers`.
    pub fn new(bench: &str, seed: u64, workers: usize) -> Self {
        Report {
            bench: bench.to_owned(),
            seed,
            workers,
            rows: Vec::new(),
        }
    }

    /// Appends a row; rows keep their insertion order.
    ///
    /// # Panics
    ///
    /// If the report already has a row named `metric`.
    pub fn row(&mut self, layer: &str, metric: &str, unit: &str, value: f64) -> &mut Self {
        assert!(
            self.rows.iter().all(|r| r.metric != metric),
            "duplicate metric {metric} in BENCH_{}.json",
            self.bench
        );
        self.rows.push(Row {
            layer: layer.to_owned(),
            metric: metric.to_owned(),
            unit: unit.to_owned(),
            value,
        });
        self
    }

    /// Prints each row as `metric <layer>.<metric> <value> <unit>` and
    /// writes the report to `BENCH_<bench>.json` at the repository root.
    ///
    /// # Panics
    ///
    /// If the file cannot be written.
    pub fn write(&self) {
        for r in &self.rows {
            println!("metric {}.{} {} {}", r.layer, r.metric, r.value, r.unit);
        }
        let path = format!(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_{}.json"),
            self.bench
        );
        std::fs::write(&path, self.json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    fn json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).expect("a report always serialises");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn a_report_file_parses_back_with_its_fields_and_row_order() {
        let mut report = Report::new("demo", 2013, 8);
        report
            .row("simcore.tsdb", "samples.e17", "count", 21_656.0)
            .row("network.flowsim", "inject_ns.active_80", "ns", 31_405.5)
            .row("simcore.tsdb", "bytes_per_sample.e17", "B", 9.099);
        let parsed: Report = serde_json::from_str(&report.json()).expect("the file parses");
        assert_eq!(parsed, report);
        let metrics: Vec<&str> = parsed.rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(
            metrics,
            ["samples.e17", "inject_ns.active_80", "bytes_per_sample.e17"]
        );
        assert_eq!(
            (parsed.bench.as_str(), parsed.seed, parsed.workers),
            ("demo", 2013, 8)
        );
    }

    #[test]
    fn the_timer_reports_the_fastest_round_per_unit_without_the_setup() {
        // Rounds of 5 units sleep 40, 5 and 20 ms after a 20 ms set-up:
        // the fastest round is 1 ms per unit. Counting the set-up would
        // give at least 5 ms per unit, and the median round 4 ms.
        let mut naps = [40u64, 5, 20].into_iter();
        let ns = fastest_ns(
            3,
            || sleep(Duration::from_millis(20)),
            |_| {
                sleep(Duration::from_millis(naps.next().expect("three rounds")));
                5
            },
        );
        assert!((1e6..4e6).contains(&ns), "{ns} ns per unit");
        // A 20 ms set-up next to a trivial run reads far below 20 ms.
        let trivial = fastest_ns(3, || sleep(Duration::from_millis(20)), |_| 1);
        assert!(trivial < 1e6, "{trivial} ns");
    }
}
