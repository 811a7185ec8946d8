//! Times every experiment registry entry's run at the paper seed with
//! telemetry off — the work `picloud-cli <id>` does — plus their sum, and
//! writes `BENCH_experiments.json` at the repository root.

use picloud::experiments::REGISTRY;
use picloud_bench::report::{per_call_ns, Report};
use picloud_network::flowsim::partition::default_workers;
use picloud_simcore::telemetry::TelemetrySink;

const LAYER: &str = "core.experiments";
const SEED: u64 = 2013;

fn main() {
    let mut report = Report::new("experiments", SEED, default_workers());
    let mut total_ms = 0.0;
    for e in REGISTRY {
        let ms = per_call_ns(5, 1, || (e.run)(SEED, &mut TelemetrySink::disabled())) / 1e6;
        total_ms += ms;
        report.row(LAYER, &format!("report_ms.{}", e.id), "ms", ms);
    }
    report.row(LAYER, "report_ms.total", "ms", total_ms).write();
}
