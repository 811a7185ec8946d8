//! **E7 — realistic traffic & congestion** (§I's realism argument).
//!
//! Generates the measurement-calibrated traffic mix at several rack-
//! locality settings and replays it on the paper fabric. Expected shape:
//! as locality falls, bytes funnel through the ToR–aggregation uplinks,
//! their utilisation rises, and flow completion times stretch. The
//! rate-allocator ablation (max–min vs equal-share) runs on the hardest
//! setting.
//!
//! The fabric builder (`paper_fabric`), the traffic mix (`pattern`) and
//! the locality axis ([`LOCALITIES`]) are shared with S2
//! (`estimate_exp`), which replays the same mix across fabric tiers.

use crate::report::TextTable;
use picloud_network::flowsim::partition::default_workers;
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{DeviceKind, LinkRates, Topology};
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::units::Bandwidth;
use picloud_simcore::{SeedFactory, SimDuration, SimTime};
use picloud_workloads::traffic::TrafficPattern;
use std::fmt;

/// The locality axis: intra-rack traffic fractions, most local first.
pub const LOCALITIES: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];

/// E7's ToR–aggregation link rate, Mbit/s. 2013 commodity switching
/// gives ~200 Mbit of uplink budget per ToR–aggregation link: the 3.5:1
/// rack oversubscription that makes locality matter (VL2 reports 5:1 to
/// 20:1 in practice).
const FABRIC_MBPS: u64 = 200;

/// The paper fabric, `multi_root_tree(4, 14, 2)`: 100 Mbit host access
/// and `fabric_mbps` on every ToR–aggregation link.
pub(crate) fn paper_fabric(fabric_mbps: u64) -> Topology {
    let rates = LinkRates {
        access: Bandwidth::mbps(100),
        fabric: Bandwidth::mbps(fabric_mbps),
    };
    Topology::multi_root_tree_with(4, 14, 2, rates)
}

/// The E7 traffic mix: the measured-DC pattern at 10 flow arrivals per
/// host-second while ON, with `locality` of the flows kept in their rack.
pub(crate) fn pattern(locality: f64) -> TrafficPattern {
    TrafficPattern::measured_dc()
        .with_arrival_rate(10.0)
        .with_intra_rack_fraction(locality)
}

/// One locality setting's result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPoint {
    /// Intra-rack fraction requested.
    pub locality: f64,
    /// Flows generated.
    pub flows: usize,
    /// Mean flow completion time, seconds.
    pub mean_fct_secs: f64,
    /// 99th percentile FCT, seconds.
    pub p99_fct_secs: f64,
    /// Mean utilisation across ToR-aggregation uplinks.
    pub mean_uplink_utilisation: f64,
    /// Peak mean utilisation on any single uplink.
    pub peak_uplink_utilisation: f64,
}

/// The locality sweep plus allocator ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficExperiment {
    /// One point per locality setting (descending locality).
    pub points: Vec<TrafficPoint>,
    /// Mean FCT at locality 0 under max–min fairness.
    pub maxmin_mean_fct: f64,
    /// Mean FCT at locality 0 under equal-share (the ablation).
    pub equal_share_mean_fct: f64,
}

impl TrafficExperiment {
    /// Replays `pattern` for `duration` on a fresh paper fabric with
    /// 200 Mbit ToR–aggregation links and summarises.
    ///
    /// When `sink` has a tsdb, the fabric is read on its scrape grid: at
    /// every grid instant the completions due by then are retired at
    /// their own instants, [`FlowSimulator::record_telemetry`] refreshes
    /// the link and flow series in `sink`'s registry as of the instant,
    /// and the tsdb scrapes them — so windowed queries over
    /// `network_link_utilisation` and friends see the congestion unfold.
    /// Rates are constant between events, so the solver is never stepped
    /// to a grid instant and the summary is bit-identical with or without
    /// a grid. The run ends at the last completion either way.
    pub fn replay(
        pattern: &TrafficPattern,
        duration: SimDuration,
        seeds: &SeedFactory,
        allocator: RateAllocator,
        sink: &mut TelemetrySink,
    ) -> TrafficPoint {
        let topo = paper_fabric(FABRIC_MBPS);
        let workload = pattern.generate(&topo, duration, seeds);
        // Batched replay + the partitioned solver: same bits at any
        // worker count, so the pool size can come from the environment.
        let mut sim = FlowSimulator::new(topo, RoutingPolicy::default(), allocator)
            .with_workers(default_workers());
        let (mut next_scrape, interval) = match sink.tsdb() {
            Some(db) => (SimTime::ZERO, db.interval()),
            None => (SimTime::MAX, SimDuration::MAX),
        };
        // Steps only to completion instants, exactly as the unobserved
        // replay does, then reads the state as of `tick`.
        let observe = |sim: &mut FlowSimulator, sink: &mut TelemetrySink, tick: SimTime| {
            while let Some(done) = sim.next_completion_time().filter(|&done| done <= tick) {
                sim.advance_to(done);
            }
            if sink.is_enabled() {
                sim.record_telemetry(&mut sink.registry, tick);
                sink.scrape_now(tick);
            }
        };
        // Injection phase: read every grid instant at or before the next
        // burst, then hand the burst to the solver exactly as
        // `TrafficWorkload::replay_on` would.
        let mut burst = workload.events();
        while let Some((at, _)) = burst.first() {
            while next_scrape <= *at {
                observe(&mut sim, sink, next_scrape);
                next_scrape = next_scrape.saturating_add(interval);
            }
            let n = burst.iter().take_while(|(t, _)| t == at).count();
            let specs: Vec<_> = burst.iter().take(n).map(|(_, s)| s.clone()).collect();
            #[expect(
                clippy::expect_used,
                reason = "the generator draws endpoints from this connected builder topology; no route can be missing"
            )]
            sim.inject_batch(specs, *at).expect("fabric is connected");
            burst = &burst[n..];
        }
        // Drain phase: keep reading grid instants until the last flow
        // finishes, then stop at its exact completion instant (as
        // `run_to_completion` would).
        loop {
            match sim.next_completion_time() {
                None => break,
                Some(done) if done > next_scrape => {
                    observe(&mut sim, sink, next_scrape);
                    next_scrape = next_scrape.saturating_add(interval);
                }
                Some(done) => sim.advance_to(done),
            }
        }
        let end = sim.now();
        observe(&mut sim, sink, end);
        TrafficExperiment::summarise(&sim, pattern.intra_rack_fraction)
    }

    /// Condenses a finished replay into its [`TrafficPoint`].
    fn summarise(sim: &FlowSimulator, locality: f64) -> TrafficPoint {
        let topo = sim.topology();
        let uplinks: Vec<_> = topo
            .links()
            .iter()
            .filter(|l| {
                matches!(
                    (&topo.device(l.a).kind, &topo.device(l.b).kind),
                    (DeviceKind::TopOfRack { .. }, DeviceKind::Aggregation)
                        | (DeviceKind::Aggregation, DeviceKind::TopOfRack { .. })
                )
            })
            .map(|l| l.id)
            .collect();
        let utils: Vec<f64> = uplinks
            .iter()
            .map(|&l| sim.mean_link_utilisation(l))
            .collect();
        let mean_uplink = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        let peak_uplink = utils.iter().copied().fold(0.0, f64::max);
        let mut fcts: Vec<f64> = sim
            .completed()
            .iter()
            .map(|c| c.fct().as_secs_f64())
            .collect();
        fcts.sort_by(f64::total_cmp);
        let mean_fct = fcts.iter().sum::<f64>() / fcts.len().max(1) as f64;
        let p99 = fcts
            .get(((fcts.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
            .copied()
            .unwrap_or(0.0);
        TrafficPoint {
            locality,
            flows: fcts.len(),
            mean_fct_secs: mean_fct,
            p99_fct_secs: p99,
            mean_uplink_utilisation: mean_uplink,
            peak_uplink_utilisation: peak_uplink,
        }
    }

    /// Runs the locality sweep over [`LOCALITIES`] plus the allocator
    /// ablation at locality 0. The fully remote max–min replay — the
    /// congested case whose uplink hot-spots windowed utilisation
    /// queries resolve — records into `sink`; the others are unobserved.
    pub fn run(seed: u64, duration: SimDuration, sink: &mut TelemetrySink) -> TrafficExperiment {
        let seeds = SeedFactory::new(seed);
        let mut unobserved = TelemetrySink::disabled();
        let replay = |locality, allocator, sink: &mut TelemetrySink| {
            TrafficExperiment::replay(&pattern(locality), duration, &seeds, allocator, sink)
        };
        let [local @ .., remote] = LOCALITIES;
        let mut points: Vec<TrafficPoint> = local
            .iter()
            .map(|&loc| replay(loc, RateAllocator::MaxMin, &mut unobserved))
            .collect();
        // The ablation's max–min side is the sweep's locality-0 point.
        let maxmin = replay(remote, RateAllocator::MaxMin, sink);
        let maxmin_mean_fct = maxmin.mean_fct_secs;
        points.push(maxmin);
        let equal = replay(remote, RateAllocator::EqualShare, &mut unobserved);
        TrafficExperiment {
            points,
            maxmin_mean_fct,
            equal_share_mean_fct: equal.mean_fct_secs,
        }
    }
}

impl fmt::Display for TrafficExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E7: DC traffic replay — locality sweep")?;
        let mut t = TextTable::new(vec![
            "intra-rack".into(),
            "flows".into(),
            "mean FCT".into(),
            "p99 FCT".into(),
            "mean uplink util".into(),
            "peak uplink util".into(),
        ]);
        for p in &self.points {
            t.row(vec![
                format!("{:.0}%", p.locality * 100.0),
                p.flows.to_string(),
                format!("{:.3}s", p.mean_fct_secs),
                format!("{:.3}s", p.p99_fct_secs),
                format!("{:.1}%", p.mean_uplink_utilisation * 100.0),
                format!("{:.1}%", p.peak_uplink_utilisation * 100.0),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "Allocator ablation at 0% locality: max-min mean FCT {:.3}s vs equal-share {:.3}s",
            self.maxmin_mean_fct, self.equal_share_mean_fct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> TrafficExperiment {
        TrafficExperiment::run(
            7,
            SimDuration::from_secs(10),
            &mut TelemetrySink::disabled(),
        )
    }

    #[test]
    fn uplink_utilisation_rises_as_locality_falls() {
        let e = exp();
        let first = e.points.first().unwrap(); // 100% local
        let last = e.points.last().unwrap(); // 0% local
        assert!(
            last.mean_uplink_utilisation > first.mean_uplink_utilisation,
            "uplinks carry more as traffic leaves the rack: {:.4} vs {:.4}",
            last.mean_uplink_utilisation,
            first.mean_uplink_utilisation
        );
        // Fully local traffic leaves the aggregation layer idle.
        assert!(first.mean_uplink_utilisation < 0.01);
    }

    #[test]
    fn all_points_completed_their_flows() {
        let e = exp();
        for p in &e.points {
            assert!(
                p.flows > 100,
                "enough traffic to mean something: {}",
                p.flows
            );
            assert!(p.mean_fct_secs > 0.0);
            assert!(p.p99_fct_secs >= p.mean_fct_secs);
        }
    }

    #[test]
    fn max_min_beats_equal_share() {
        let e = exp();
        assert!(
            e.maxmin_mean_fct <= e.equal_share_mean_fct + 1e-9,
            "work conservation helps: {:.4} vs {:.4}",
            e.maxmin_mean_fct,
            e.equal_share_mean_fct
        );
        // The max–min side is the locality-0 point of the sweep itself.
        assert_eq!(
            e.maxmin_mean_fct.to_bits(),
            e.points.last().unwrap().mean_fct_secs.to_bits()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            TrafficExperiment::run(
                3,
                SimDuration::from_secs(10),
                &mut TelemetrySink::disabled(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
    }

    #[test]
    fn live_replay_matches_the_unobserved_one() {
        // Seed 7's fully remote 30 s replay is a sensitive case:
        // stepping the solver to each grid instant shifts its mean FCT in
        // the 11th digit.
        let p = pattern(0.0);
        let seeds = SeedFactory::new(7);
        let dur = SimDuration::from_secs(30);
        let mut unobserved = TelemetrySink::disabled();
        let plain =
            TrafficExperiment::replay(&p, dur, &seeds, RateAllocator::MaxMin, &mut unobserved);
        let mut sink = TelemetrySink::recording_with_tsdb(
            SimTime::ZERO,
            picloud_simcore::telemetry::tsdb::ScrapeConfig::every(SimDuration::from_secs(1)),
        );
        let live = TrafficExperiment::replay(&p, dur, &seeds, RateAllocator::MaxMin, &mut sink);
        let bits = |p: &TrafficPoint| {
            let floats = [
                p.locality,
                p.mean_fct_secs,
                p.p99_fct_secs,
                p.mean_uplink_utilisation,
                p.peak_uplink_utilisation,
            ];
            (p.flows, floats.map(f64::to_bits))
        };
        assert_eq!(
            bits(&live),
            bits(&plain),
            "grid reads must not perturb the solver: {live:?} vs {plain:?}"
        );
        // And the tsdb saw the congestion: utilisation series exist with
        // one sample per grid instant.
        let db = sink.tsdb().unwrap();
        assert!(db.scrape_times().len() > 5);
        assert!(db
            .all_series()
            .iter()
            .any(|s| s.name == "network_link_utilisation"));
    }

    #[test]
    fn live_replay_is_deterministic() {
        let p = TrafficPattern::measured_dc().with_arrival_rate(10.0);
        let run = || {
            let mut sink = TelemetrySink::recording_with_tsdb(
                SimTime::ZERO,
                picloud_simcore::telemetry::tsdb::ScrapeConfig::every(SimDuration::from_secs(1)),
            );
            let pt = TrafficExperiment::replay(
                &p,
                SimDuration::from_secs(10),
                &SeedFactory::new(5),
                RateAllocator::MaxMin,
                &mut sink,
            );
            let db = sink.tsdb().unwrap();
            (pt, db.samples(), db.bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn display_has_the_sweep_and_ablation() {
        let s = exp().to_string();
        assert!(s.contains("locality sweep"));
        assert!(s.contains("Allocator ablation"));
        assert!(s.contains("100%"));
    }
}
