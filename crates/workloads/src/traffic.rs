//! Realistic data-centre traffic generation.
//!
//! The paper's core criticism of simulators is traffic realism: "Traffic
//! patterns in operational Cloud DC networks constantly change over time
//! and are generally unpredictable", citing the SIGCOMM measurement studies
//! (Benson et al.; Greenberg et al., VL2). Those studies report three
//! robust properties this generator reproduces:
//!
//! 1. **Heavy-tailed flow sizes** — most flows are mice, most bytes live in
//!    elephants: a bounded Pareto size distribution.
//! 2. **ON/OFF behaviour** — hosts alternate bursts and silences: a square
//!    ON/OFF gate with per-host deterministic phase.
//! 3. **Rack locality mix** — a tunable fraction of flows stay inside the
//!    rack; the remainder cross the aggregation layer (where the paper's
//!    congestion studies look for hot-spots).
//!
//! Generation is a pure function of `(pattern, topology, seed)`.

use picloud_network::flow::{FlowId, FlowSpec};
use picloud_network::flowsim::{FlowSimulator, InjectError};
use picloud_network::topology::{DeviceId, Topology};
use picloud_simcore::units::Bytes;
use picloud_simcore::{SeedFactory, SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of a synthetic DC traffic mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficPattern {
    /// Mean flow arrivals per second per host *while ON*.
    pub flows_per_host_per_sec: f64,
    /// Pareto tail index (smaller = heavier tail). Measurement studies put
    /// DC flow sizes near 1.1–1.5.
    pub pareto_shape: f64,
    /// Smallest flow ("mouse").
    pub min_flow: Bytes,
    /// Size cap ("elephant").
    pub max_flow: Bytes,
    /// Fraction of flows whose destination is in the source's rack.
    pub intra_rack_fraction: f64,
    /// Fraction of time each host spends ON.
    pub on_fraction: f64,
    /// Length of one ON+OFF cycle.
    pub cycle: SimDuration,
}

impl TrafficPattern {
    /// A mix calibrated to the measurement literature: heavy tail (α=1.2),
    /// 64 KiB mice to 16 MiB elephants (the byte-weighted range — sub-64 KiB
    /// control chatter carries negligible bytes and is elided at flow
    /// level), 50 % rack locality, bursty hosts.
    pub fn measured_dc() -> Self {
        TrafficPattern {
            flows_per_host_per_sec: 2.0,
            pareto_shape: 1.2,
            min_flow: Bytes::kib(64),
            max_flow: Bytes::mib(16),
            intra_rack_fraction: 0.5,
            on_fraction: 0.4,
            cycle: SimDuration::from_secs(5),
        }
    }

    /// Sets the rack-locality fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is within `[0, 1]`.
    pub fn with_intra_rack_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "locality fraction must be in [0, 1]"
        );
        self.intra_rack_fraction = fraction;
        self
    }

    /// Sets the per-host arrival rate (while ON).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        self.flows_per_host_per_sec = rate;
        self
    }

    /// Draws one bounded-Pareto flow size.
    fn draw_size(&self, rng: &mut impl Rng) -> Bytes {
        let l = self.min_flow.as_u64() as f64;
        let h = self.max_flow.as_u64() as f64;
        let a = self.pareto_shape;
        let u: f64 = rng.gen_range(0.0..1.0);
        // Inverse CDF of the bounded Pareto on [l, h] with tail index a.
        let x = l * (1.0 - u * (1.0 - (l / h).powf(a))).powf(-1.0 / a);
        Bytes::new(x.clamp(l, h) as u64)
    }

    /// Generates all flow arrivals over `[0, duration)` on `topo`,
    /// deterministically from `seeds`. Events are returned sorted by time.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two hosts.
    pub fn generate(
        &self,
        topo: &Topology,
        duration: SimDuration,
        seeds: &SeedFactory,
    ) -> TrafficWorkload {
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        assert!(hosts.len() >= 2, "traffic needs at least two hosts");
        let by_rack = topo.hosts_by_rack();
        #[expect(
            clippy::expect_used,
            reason = "traffic matrices draw endpoints from topo.hosts(), which always have racks"
        )]
        let rack_of = |d: DeviceId| topo.device(d).kind.rack().expect("hosts have racks");

        let mut events: Vec<(SimTime, FlowSpec)> = Vec::new();
        // The destinations each locality branch draws from, rebuilt once
        // per source host: its rack peers and the hosts in other racks.
        let mut peers: Vec<DeviceId> = Vec::new();
        let mut others: Vec<DeviceId> = Vec::new();
        for (hi, &src) in hosts.iter().enumerate() {
            let mut rng = seeds.indexed_stream("traffic/host", hi as u64);
            // Deterministic per-host phase offset for the ON/OFF gate.
            let phase = rng.gen_range(0.0..self.cycle.as_secs_f64().max(1e-9));
            let src_rack = rack_of(src);
            peers.clear();
            peers.extend(by_rack[&src_rack].iter().copied().filter(|&d| d != src));
            others.clear();
            others.extend(hosts.iter().copied().filter(|&d| rack_of(d) != src_rack));
            let mut t = 0.0f64;
            let end = duration.as_secs_f64();
            loop {
                // Exponential inter-arrival at the ON-period rate.
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t += -u.ln() / self.flows_per_host_per_sec;
                if t >= end {
                    break;
                }
                // ON/OFF gate: drop arrivals that land in an OFF window.
                let cyc = self.cycle.as_secs_f64();
                let pos = (t + phase) % cyc;
                if pos > cyc * self.on_fraction {
                    continue;
                }
                // Pick a destination per the locality mix; an arrival
                // whose side of the mix has no host is dropped.
                let candidates = if rng.gen_bool(self.intra_rack_fraction) {
                    &peers
                } else {
                    &others
                };
                if candidates.is_empty() {
                    continue;
                }
                let dst = candidates[rng.gen_range(0..candidates.len())];
                let size = self.draw_size(&mut rng);
                events.push((
                    SimTime::ZERO + SimDuration::from_secs_f64(t),
                    FlowSpec::new(src, dst, size).with_tag("traffic"),
                ));
            }
        }
        events.sort_by_key(|(t, _)| *t);
        TrafficWorkload { events }
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} flows/s/host, Pareto a={:.2} [{}..{}], {:.0}% intra-rack",
            self.flows_per_host_per_sec,
            self.pareto_shape,
            self.min_flow,
            self.max_flow,
            self.intra_rack_fraction * 100.0
        )
    }
}

/// A generated schedule of flow arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficWorkload {
    events: Vec<(SimTime, FlowSpec)>,
}

impl TrafficWorkload {
    /// The arrivals, sorted by time.
    pub fn events(&self) -> &[(SimTime, FlowSpec)] {
        &self.events
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no flows were generated.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total bytes across all flows.
    pub fn total_bytes(&self) -> Bytes {
        self.events.iter().map(|(_, f)| f.size).sum()
    }

    /// Replays the whole schedule onto `sim`, coalescing same-instant
    /// arrivals into one batched injection per burst
    /// ([`FlowSimulator::inject_batch`]) — one rate recomputation per
    /// burst instead of one per flow. A burst whose flows span several
    /// topology partitions (racks / pods) dirties one region per
    /// partition, and the simulator solves those regions concurrently on
    /// its worker pool — batching is what lets the partitioned solver
    /// fan out. Returns the injected flow ids in schedule order.
    ///
    /// # Errors
    ///
    /// [`InjectError`] from the first unroutable burst; earlier bursts
    /// stay injected (time cannot be rewound).
    pub fn replay_on(&self, sim: &mut FlowSimulator) -> Result<Vec<FlowId>, InjectError> {
        let mut ids = Vec::with_capacity(self.events.len());
        let mut burst = &self.events[..];
        while let Some((at, _)) = burst.first() {
            let n = burst.iter().take_while(|(t, _)| t == at).count();
            let specs: Vec<FlowSpec> = burst.iter().take(n).map(|(_, s)| s.clone()).collect();
            ids.extend(sim.inject_batch(specs, *at)?);
            burst = &burst[n..];
        }
        Ok(ids)
    }

    /// Fraction of flows that stay within one rack on `topo`.
    pub fn measured_locality(&self, topo: &Topology) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let rack = |d: DeviceId| topo.device(d).kind.rack();
        let intra = self
            .events
            .iter()
            .filter(|(_, f)| rack(f.src) == rack(f.dst))
            .count();
        intra as f64 / self.events.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picloud_network::topology::Topology;

    fn topo() -> Topology {
        Topology::multi_root_tree(4, 14, 2)
    }

    fn gen(pattern: &TrafficPattern, seed: u64) -> TrafficWorkload {
        pattern.generate(&topo(), SimDuration::from_secs(30), &SeedFactory::new(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let p = TrafficPattern::measured_dc();
        assert_eq!(gen(&p, 7), gen(&p, 7));
        assert_ne!(gen(&p, 7), gen(&p, 8));
    }

    #[test]
    fn events_sorted_and_bounded() {
        let p = TrafficPattern::measured_dc();
        let w = gen(&p, 1);
        assert!(!w.is_empty());
        assert!(w.events().windows(2).all(|e| e[0].0 <= e[1].0));
        let end = SimTime::from_secs(30);
        assert!(w.events().iter().all(|(t, _)| *t < end));
    }

    #[test]
    fn sizes_respect_bounds_and_heavy_tail() {
        let p = TrafficPattern::measured_dc();
        let w = gen(&p, 2);
        let sizes: Vec<u64> = w.events().iter().map(|(_, f)| f.size.as_u64()).collect();
        assert!(sizes
            .iter()
            .all(|&s| s >= p.min_flow.as_u64() && s <= p.max_flow.as_u64()));
        // Heavy tail: the mean is far above the median.
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2] as f64;
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        assert!(mean > 2.0 * median, "mean {mean} vs median {median}");
    }

    #[test]
    fn locality_mix_tracks_parameter() {
        let t = topo();
        for target in [0.0, 0.5, 1.0] {
            let p = TrafficPattern::measured_dc().with_intra_rack_fraction(target);
            let w = p.generate(&t, SimDuration::from_secs(60), &SeedFactory::new(3));
            let measured = w.measured_locality(&t);
            assert!(
                (measured - target).abs() < 0.07,
                "target {target}, measured {measured}"
            );
        }
    }

    #[test]
    fn arrival_rate_scales_flow_count() {
        let slow = TrafficPattern::measured_dc().with_arrival_rate(1.0);
        let fast = TrafficPattern::measured_dc().with_arrival_rate(4.0);
        let n_slow = gen(&slow, 4).len();
        let n_fast = gen(&fast, 4).len();
        let ratio = n_fast as f64 / n_slow.max(1) as f64;
        assert!((ratio - 4.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn on_off_gate_thins_traffic() {
        let always_on = TrafficPattern {
            on_fraction: 1.0,
            ..TrafficPattern::measured_dc()
        };
        let bursty = TrafficPattern {
            on_fraction: 0.25,
            ..TrafficPattern::measured_dc()
        };
        let n_on = gen(&always_on, 5).len();
        let n_burst = gen(&bursty, 5).len();
        let ratio = n_burst as f64 / n_on.max(1) as f64;
        assert!((ratio - 0.25).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn total_bytes_counts_everything() {
        let w = gen(&TrafficPattern::measured_dc(), 6);
        let manual: u64 = w.events().iter().map(|(_, f)| f.size.as_u64()).sum();
        assert_eq!(w.total_bytes().as_u64(), manual);
    }

    #[test]
    fn replay_on_matches_per_flow_injection() {
        use picloud_network::flowsim::{FlowSimulator, RateAllocator};
        use picloud_network::routing::RoutingPolicy;
        let p = TrafficPattern::measured_dc();
        let small = Topology::multi_root_tree(2, 4, 2);
        let w = p.generate(&small, SimDuration::from_secs(5), &SeedFactory::new(11));
        assert!(!w.is_empty());
        let mk = || {
            FlowSimulator::new(
                Topology::multi_root_tree(2, 4, 2),
                RoutingPolicy::SingleShortest,
                RateAllocator::MaxMin,
            )
        };
        let mut batched = mk();
        let ids = w.replay_on(&mut batched).unwrap();
        assert_eq!(ids.len(), w.len());
        let mut sequential = mk();
        for (at, spec) in w.events() {
            sequential.inject(spec.clone(), *at).unwrap();
        }
        batched.run_to_completion();
        sequential.run_to_completion();
        assert_eq!(batched.completed(), sequential.completed());
    }

    /// 30 s of the measured mix at `locality` on `topo`, seed 9.
    fn gen_on(topo: &Topology, locality: f64) -> TrafficWorkload {
        TrafficPattern::measured_dc()
            .with_intra_rack_fraction(locality)
            .generate(topo, SimDuration::from_secs(30), &SeedFactory::new(9))
    }

    #[test]
    fn one_host_racks_drop_every_rack_local_draw() {
        // With one host per rack no arrival has a rack peer.
        assert!(gen_on(&Topology::multi_root_tree(4, 1, 2), 1.0).is_empty());
    }

    #[test]
    fn one_host_racks_keep_only_the_cross_rack_draws() {
        // Half the draws ask for a rack peer and are dropped; the rest
        // cross racks.
        let lone = Topology::multi_root_tree(4, 1, 2);
        let half = gen_on(&lone, 0.5);
        assert!(!half.is_empty());
        assert_eq!(half.measured_locality(&lone), 0.0);
        let remote = gen_on(&lone, 0.0);
        assert!(
            half.len() < remote.len(),
            "{} vs {}",
            half.len(),
            remote.len()
        );
    }

    #[test]
    fn one_rack_drops_every_cross_rack_draw() {
        // With a single rack no arrival has a host in another rack.
        assert!(gen_on(&Topology::multi_root_tree(1, 8, 1), 0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two hosts")]
    fn single_host_rejected() {
        let t = Topology::multi_root_tree(1, 1, 1);
        TrafficPattern::measured_dc().generate(&t, SimDuration::from_secs(1), &SeedFactory::new(0));
    }

    #[test]
    #[should_panic(expected = "locality fraction")]
    fn bad_locality_rejected() {
        let _ = TrafficPattern::measured_dc().with_intra_rack_fraction(2.0);
    }
}
