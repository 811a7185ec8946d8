//! Chaos harness cost: what one seeded adversarial schedule costs to
//! generate, run with the invariant registry armed, and shrink — the
//! unit of work the `chaos-smoke` CI job and `picloud-cli chaos` repeat.
//! The schedule is the standard profile's at seed 7 on the E17 domain
//! tree.
//!
//! It also prices the recovery loop's quiet heartbeat poll, the work
//! every E17 run repeats once per node per simulated second: the time
//! per node poll of a fault-free 90-minute `run_recovery`, and the
//! allocation calls per heartbeat sweep, which the bench gates. Writes
//! `BENCH_chaos.json` at the repository root.

use picloud::chaos::{
    chaos_config_e17, domain_tree, run_chaos_schedule, shrink_schedule, Sabotage,
};
use picloud::{run_recovery, RecoveryConfig, RecoveryReport};
use picloud_bench::allocs;
use picloud_bench::report::{fastest_ns, per_call_ns, Report};
use picloud_faults::{ChaosProfile, ChaosSchedule, FaultTimeline};
use picloud_network::flowsim::partition::default_workers;
use picloud_simcore::SimDuration;

const LAYER: &str = "core.chaos";
const RECOVERY_LAYER: &str = "core.recovery";
const SEED: u64 = 7;

#[global_allocator]
static ALLOCATOR: allocs::Counting = allocs::Counting;

/// In-bench ceiling on allocation calls per heartbeat sweep of a quiet
/// run. The poll walks dense per-node tables and the engine reuses its
/// scheduling buffer, so a sweep allocates nothing (0 measured); one
/// allocation per sweep would read 1.
const SWEEP_ALLOCS_CEILING: f64 = 0.5;

/// `run_recovery` with no faults over `minutes` of simulated time: one
/// heartbeat sweep, one RPC poll per node, per simulated second.
fn quiet_run(minutes: u64) -> RecoveryReport {
    let horizon = SimDuration::from_secs(minutes * 60);
    run_recovery(
        &RecoveryConfig::lan_default(),
        &FaultTimeline::new(),
        horizon,
        SEED,
    )
}

/// Allocation calls per heartbeat sweep: the difference between a 45-
/// and a 90-minute quiet run, so the set-up both share cancels out. A
/// quiet run fires one engine event per sweep.
fn sweep_allocs() -> f64 {
    let count = |minutes| {
        let mut sweeps = 0;
        let calls = allocs::per_unit(|| {
            sweeps = quiet_run(minutes).events_fired;
            1
        });
        (calls, sweeps as f64)
    };
    let (short, short_sweeps) = count(45);
    let (long, long_sweeps) = count(90);
    (long - short) / (long_sweeps - short_sweeps)
}

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

    // Every RPC call of a quiet run is one node's heartbeat poll.
    let poll_ns = fastest_ns(5, || (), |_| quiet_run(90).rpc.calls);
    let sweep_allocs = sweep_allocs();

    let events = schedule.timeline.len() as f64;
    Report::new("chaos", SEED, default_workers())
        .row(LAYER, "schedule_events", "count", events)
        .row(LAYER, "generate_ns", "ns", generate_ns)
        .row(LAYER, "run_ms", "ms", run_ms)
        .row(LAYER, "json_roundtrip_ns", "ns", json_roundtrip_ns)
        .row(LAYER, "shrink_ms", "ms", shrink_ms)
        .row(RECOVERY_LAYER, "poll_ns", "ns", poll_ns)
        .row(
            RECOVERY_LAYER,
            "allocs.recovery.sweep",
            "count",
            sweep_allocs,
        )
        .write();

    assert!(
        sweep_allocs <= SWEEP_ALLOCS_CEILING,
        "{sweep_allocs} allocation calls per heartbeat sweep of a quiet run \
         (ceiling {SWEEP_ALLOCS_CEILING})"
    );
}
