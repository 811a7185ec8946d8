//! Chaos harness cost: what one seeded adversarial schedule costs to
//! generate, run with the invariant registry armed, and shrink — the
//! unit of work the `chaos-smoke` CI job and `picloud-cli chaos` repeat.
//! The schedule is the standard profile's at seed 7 on the E17 domain
//! tree; writes `BENCH_chaos.json` at the repository root.

use picloud::chaos::{
    chaos_config_e17, domain_tree, run_chaos_schedule, shrink_schedule, Sabotage,
};
use picloud_bench::report::{per_call_ns, Report};
use picloud_faults::{ChaosProfile, ChaosSchedule};
use picloud_network::flowsim::partition::default_workers;

const LAYER: &str = "core.chaos";
const SEED: u64 = 7;

fn main() {
    let tree = domain_tree();
    let config = chaos_config_e17();
    let profile = ChaosProfile::standard();
    let schedule = ChaosSchedule::generate(SEED, &tree, &profile);
    let generate_ns = per_call_ns(9, 100, || ChaosSchedule::generate(SEED, &tree, &profile));
    // A full 600 s adversarial run with every safety invariant checked
    // after every event, sweep and landing.
    let run_ms = per_call_ns(5, 1, || {
        run_chaos_schedule(&config, &schedule, Sabotage::None)
    }) / 1e6;
    let json_roundtrip_ns = per_call_ns(9, 10, || {
        ChaosSchedule::from_json(&schedule.to_json()).expect("round-trips")
    });
    // Shrinking a violating schedule: hunt a dense schedule that corners
    // the blind-placement sabotage, then ddmin it to 1-minimal.
    let aggressive = ChaosProfile {
        pairs: 48,
        ..ChaosProfile::standard()
    };
    let violating = (0..64)
        .map(|seed| ChaosSchedule::generate(seed, &tree, &aggressive))
        .find(|s| {
            run_chaos_schedule(&config, s, Sabotage::BlindPlacement)
                .violation
                .is_some()
        })
        .expect("blind placement violates within 64 seeds");
    let shrink_ms = per_call_ns(3, 1, || {
        shrink_schedule(&config, &violating, Sabotage::BlindPlacement)
    }) / 1e6;

    let events = schedule.timeline.len() as f64;
    Report::new("chaos", SEED, default_workers())
        .row(LAYER, "schedule_events", "count", events)
        .row(LAYER, "generate_ns", "ns", generate_ns)
        .row(LAYER, "run_ms", "ms", run_ms)
        .row(LAYER, "json_roundtrip_ns", "ns", json_roundtrip_ns)
        .row(LAYER, "shrink_ms", "ms", shrink_ms)
        .write();
}
