//! Shared helpers for the PiCloud benchmark harness.
//!
//! The `experiments` target times every entry of the experiment registry
//! (`picloud::experiments::REGISTRY`) at the paper seed; `picloud-cli
//! <id>` prints the same reports. The other targets time hot paths of the
//! emulator itself — flow solver, estimator, telemetry, spans, tsdb and
//! chaos harness — and most write a `BENCH_*.json` artifact at the
//! repository root.

use std::sync::Once;

/// Prints a banner and body exactly once per process, so criterion's
/// repeated calls do not spam the log.
pub fn print_once(banner: &str, body: &str, once: &'static Once) {
    once.call_once(|| {
        println!("\n================================================================");
        println!("{banner}");
        println!("================================================================");
        println!("{body}");
    });
}

/// Criterion configuration shared by all targets: small sample counts —
/// the workloads are deterministic, variance comes only from the host.
pub fn quick_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}
