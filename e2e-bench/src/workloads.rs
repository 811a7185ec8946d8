//! The four benchmark workloads: what one run does, what it checks, and
//! the canonical outputs it folds into the simulation digest.
//!
//! Every workload runs on the paper fabric (`multi_root_tree(4, 14, 2)`)
//! with the E7 `measured_dc` Pareto mix at 10 flows/s/host. Flow
//! arrivals are open-loop Poisson in *simulated* time — that is the
//! model's input. The host-side load is a closed loop: one caller runs
//! a fixed number of runs back to back, run `i` at seed `S + i`.

use crate::trace::Tracer;
use picloud::experiments::estimate_exp::FABRIC_TIERS_MBPS;
use picloud::{run_recovery, ExperimentTelemetry, RecoveryConfig};
use picloud_faults::{ChurnConfig, DomainChurnConfig, DomainTree, FaultTimeline};
use picloud_network::flowsim::estimate::{EstimateConfig, FlowEstimator};
use picloud_network::flowsim::{FlowSimulator, RateAllocator};
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::{LinkRates, Topology};
use picloud_simcore::telemetry::tsdb::QueryFn;
use picloud_simcore::units::Bandwidth;
use picloud_simcore::{SeedFactory, SimDuration};
use picloud_workloads::traffic::TrafficPattern;
use std::collections::BTreeMap;

/// Worker threads for the flow solver and the estimator. Pinned to the
/// benchmark host's core count as a constant, so the solver's thread
/// count never depends on the environment (`PICLOUD_FLOW_WORKERS`).
pub const WORKERS: usize = 2;

/// The seed the digests are pinned at (the paper's year).
pub const PIN_SEED: u64 = 2013;

/// Simulated seconds of traffic per exact-fabric run.
const FABRIC_SECS: u64 = 30;
/// Simulated seconds of traffic per estimation run.
const ESTIMATE_SECS: u64 = 120;
/// Rack locality of the estimation workload: the sweep's middle point,
/// where both the rack-local and the cross-rack clusters are loaded.
const ESTIMATE_LOCALITY: f64 = 0.5;
/// Flow arrivals per host per second while ON (the E7 rate).
const ARRIVALS_PER_HOST: f64 = 10.0;
/// The E17 observation horizon.
const RECOVERY_HORIZON: SimDuration = SimDuration::from_secs(90 * 60);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact max–min replay of all-rack-local traffic: only the
    /// partitioned per-rack solves run, the shared spine stays idle.
    FabricLocal,
    /// The same replay with all traffic crossing racks: most solves land
    /// in the serial shared-spine bucket.
    FabricRemote,
    /// Estimation mode over every S2 fabric tier; the exact solver only
    /// runs inside the clusters' representatives.
    FabricEstimate,
    /// E17 churn and self-healing with telemetry off, then the same run
    /// observed live, exported and queried.
    Recovery,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::FabricLocal,
        Workload::FabricRemote,
        Workload::FabricEstimate,
        Workload::Recovery,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricLocal => "fabric_local",
            Workload::FabricRemote => "fabric_remote",
            Workload::FabricEstimate => "fabric_estimate",
            Workload::Recovery => "recovery",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs in one pass: the fixed work `wall_s` times. Sized so a pass
    /// takes two to three seconds on a 2-core x86-64 host, which leaves
    /// room for about ten timings of each run in a 30 s window; fewer
    /// timings let a burst of host contention through the fastest.
    pub fn runs(self) -> u64 {
        match self {
            Workload::FabricLocal => 50,
            Workload::FabricRemote => 20,
            Workload::FabricEstimate => 24,
            Workload::Recovery => 10,
        }
    }

    /// Consecutive blocks of [`Workload::runs`] seeds whose live heap
    /// the heap-counted first pass measures. `recovery`'s heap swings
    /// several-fold from seed to seed (7 to 44 MiB), and the median
    /// needs about 20 seeds to settle: over 10 it spread 11% between
    /// disjoint seed sets, over 20 about 6%.
    pub fn heap_blocks(self) -> u64 {
        match self {
            Workload::Recovery => 2,
            _ => 1,
        }
    }

    /// The pass digest at [`PIN_SEED`] and [`Workload::runs`] runs.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::FabricLocal => 0xd068_939a_a0e7_372c,
            Workload::FabricRemote => 0xb55a_ddf8_cc6a_01d1,
            Workload::FabricEstimate => 0x26c4_7746_6610_b595,
            Workload::Recovery => 0xbd7a_9670_971f_f8e8,
        }
    }
}

/// FNV-1a, 64-bit: the digest canonical outputs are folded into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Per-layer work counts accumulated over the runs of a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// Raises counter `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v);
    }

    /// The value of `name`, 0 when never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload builds once, before its runs.
pub enum Inputs {
    /// Exact-fabric replay: the fabric and the traffic mix.
    Fabric {
        /// Paper fabric at 100 Mbit access, 200 Mbit ToR–aggregation.
        topo: Topology,
        /// E7 mix at the workload's locality.
        pattern: TrafficPattern,
    },
    /// Estimation over the S2 fabric tiers.
    Estimate {
        /// One fabric per tier of `FABRIC_TIERS_MBPS`.
        tiers: Vec<Topology>,
        /// E7 mix at [`ESTIMATE_LOCALITY`].
        pattern: TrafficPattern,
    },
    /// E17 with telemetry off, then observed live
    /// (`ExperimentTelemetry::collect` builds its own control loop).
    Recovery {
        /// The stock control loop, `RecoveryConfig::lan_default()`.
        config: RecoveryConfig,
    },
}

fn paper_fabric(fabric_mbps: u64) -> Topology {
    let rates = LinkRates {
        access: Bandwidth::mbps(100),
        fabric: Bandwidth::mbps(fabric_mbps),
    };
    Topology::multi_root_tree_with(4, 14, 2, rates)
}

fn e7_mix(locality: f64) -> TrafficPattern {
    TrafficPattern::measured_dc()
        .with_arrival_rate(ARRIVALS_PER_HOST)
        .with_intra_rack_fraction(locality)
}

/// The E17 fault schedule for `seed`, built exactly as
/// `RecoveryExperiment::run_for` builds it.
pub fn e17_timeline(seed: u64, horizon: SimDuration) -> FaultTimeline {
    let seeds = SeedFactory::new(seed).child("recovery-exp");
    let topo = Topology::multi_root_tree(4, 14, 2);
    let tree = DomainTree::from_topology(&topo);
    let links: Vec<_> = topo.links().iter().map(|l| l.id).collect();
    FaultTimeline::domain_churn(
        &ChurnConfig::accelerated(),
        &DomainChurnConfig::accelerated(),
        &tree,
        &links,
        horizon,
        &seeds,
    )
}

impl Inputs {
    /// Builds the inputs `workload`'s runs share.
    pub fn build(workload: Workload) -> Inputs {
        match workload {
            Workload::FabricLocal | Workload::FabricRemote => Inputs::Fabric {
                topo: paper_fabric(200),
                pattern: e7_mix(if workload == Workload::FabricLocal {
                    1.0
                } else {
                    0.0
                }),
            },
            Workload::FabricEstimate => Inputs::Estimate {
                tiers: FABRIC_TIERS_MBPS.iter().map(|&m| paper_fabric(m)).collect(),
                pattern: e7_mix(ESTIMATE_LOCALITY),
            },
            Workload::Recovery => Inputs::Recovery {
                config: RecoveryConfig::lan_default(),
            },
        }
    }

    /// Runs once at `seed`, checks the outputs and returns their digest.
    ///
    /// # Errors
    ///
    /// A description of the first output check that failed.
    pub fn run(
        &self,
        seed: u64,
        workers: usize,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<u64, String> {
        match self {
            Inputs::Fabric { topo, pattern } => {
                fabric_run(topo, pattern, seed, workers, tr, counts)
            }
            Inputs::Estimate { tiers, pattern } => {
                estimate_run(tiers, pattern, seed, workers, tr, counts)
            }
            Inputs::Recovery { config } => {
                let mut d = Fnv::default();
                d.u64(churn_run(config, seed, tr, counts)?);
                d.u64(observed_run(seed, tr, counts)?);
                Ok(d.finish())
            }
        }
    }
}

/// Exact replay: generate, then per burst `advance_to` + `inject_batch`,
/// then drain — the loop `TrafficWorkload::replay_on` runs, unrolled so
/// advancing and injecting are timed apart.
fn fabric_run(
    topo: &Topology,
    pattern: &TrafficPattern,
    seed: u64,
    workers: usize,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<u64, String> {
    let seeds = SeedFactory::new(seed);
    let secs = SimDuration::from_secs(FABRIC_SECS);
    let workload = tr.span("workloads.traffic.generate", |_| {
        pattern.generate(topo, secs, &seeds)
    });
    let mut sim = tr.span("network.flowsim.build", |_| {
        FlowSimulator::new(
            topo.clone(),
            RoutingPolicy::default(),
            RateAllocator::MaxMin,
        )
        .with_workers(workers)
    });
    let mut rest = workload.events();
    let mut bursts = 0u64;
    let mut active_peak = 0usize;
    while let Some(&(at, _)) = rest.first() {
        let n = rest.iter().take_while(|(t, _)| *t == at).count();
        let (burst, tail) = rest.split_at(n);
        let specs = burst.iter().map(|(_, s)| s.clone()).collect();
        tr.span("network.flowsim.advance", |_| sim.advance_to(at));
        tr.span("network.flowsim.inject", |_| sim.inject_batch(specs, at))
            .map_err(|e| format!("inject failed at {at}: {e:?}"))?;
        active_peak = active_peak.max(sim.active_count());
        bursts += 1;
        rest = tail;
    }
    tr.span("network.flowsim.advance", |_| sim.run_to_completion());
    let (digest, bytes, completed, solves) = tr.span("network.flowsim.readout", move |_| {
        let mut d = Fnv::default();
        let mut bytes = 0u64;
        for c in sim.completed() {
            d.u64(c.id.0);
            d.u64(c.finished.as_nanos());
            bytes += c.spec.size.as_u64();
        }
        (
            d.finish(),
            bytes,
            sim.completed_total(),
            sim.partition_solves().to_vec(),
        )
    });
    let flows = workload.len() as u64;
    if completed != flows {
        return Err(format!("{completed} of {flows} flows completed"));
    }
    let offered = workload.total_bytes().as_u64();
    if bytes != offered {
        return Err(format!("completed {bytes} B of {offered} B offered"));
    }
    // The last bucket is the shared spine; the others are per partition.
    let (spine, local) = solves.split_last().map_or((0, &[][..]), |(s, l)| (*s, l));
    counts.add("workloads.traffic.flows", flows as f64);
    counts.add("network.flowsim.inject_calls", bursts as f64);
    counts.add("network.flowsim.advance_calls", (bursts + 1) as f64);
    counts.add(
        "network.flowsim.local_solves",
        local.iter().sum::<u64>() as f64,
    );
    counts.add("network.flowsim.spine_solves", spine as f64);
    counts.max("network.flowsim.active_peak", active_peak as f64);
    Ok(digest)
}

/// Estimation: one 120 s workload (generation ignores link rates, so it
/// is the workload every tier of `estimate_exp::sweep` would draw), then
/// `FlowEstimator::estimate` on every fabric tier.
fn estimate_run(
    tiers: &[Topology],
    pattern: &TrafficPattern,
    seed: u64,
    workers: usize,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<u64, String> {
    let seeds = SeedFactory::new(seed);
    let secs = SimDuration::from_secs(ESTIMATE_SECS);
    let first = tiers.first().ok_or("no fabric tiers")?;
    let workload = tr.span("workloads.traffic.generate", |_| {
        pattern.generate(first, secs, &seeds)
    });
    let flows = workload.len();
    counts.add("workloads.traffic.flows", flows as f64);
    let mut d = Fnv::default();
    for topo in tiers {
        let est = tr.span("network.estimate.build", |_| {
            FlowEstimator::new(
                topo.clone(),
                RoutingPolicy::default(),
                RateAllocator::MaxMin,
            )
            .with_workers(workers)
            .with_config(EstimateConfig::seeded(seed))
        });
        let out = tr.span("network.estimate.estimate", |_| {
            est.estimate(workload.events())
        });
        let quantiles = tr.span("network.estimate.readout", |_| {
            let dist = out.fct_dist();
            [0.5, 0.99].map(|q| dist.quantile(q))
        });
        if out.predictions.len() != flows {
            return Err(format!(
                "{} predictions for {flows} flows",
                out.predictions.len()
            ));
        }
        if let Some(q) = quantiles.iter().find(|q| !q.is_finite() || **q <= 0.0) {
            return Err(format!("non-positive FCT quantile {q}"));
        }
        for q in quantiles {
            d.u64(q.to_bits());
        }
        counts.add("network.estimate.predictions", out.predictions.len() as f64);
        counts.add("network.estimate.clusters", out.cluster_count() as f64);
        counts.add("network.estimate.rep_flows", out.rep_flows_solved as f64);
        counts.add("network.estimate.loaded_links", out.loaded_resources as f64);
    }
    Ok(d.finish())
}

/// E17 with telemetry off: the timeline, then the control loop.
fn churn_run(
    config: &RecoveryConfig,
    seed: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<u64, String> {
    let timeline = tr.span("faults.timeline", |_| e17_timeline(seed, RECOVERY_HORIZON));
    let report = tr.span("core.recovery.run", |_| {
        run_recovery(config, &timeline, RECOVERY_HORIZON, seed)
    });
    if !(report.availability > 0.9 && report.availability <= 1.0) {
        return Err(format!(
            "availability {} outside (0.9, 1]",
            report.availability
        ));
    }
    if report.events_fired == 0 {
        return Err("the engine fired no events".into());
    }
    let rpc = &report.rpc;
    counts.add("faults.timeline_events", timeline.len() as f64);
    counts.add("simcore.engine.events", report.events_fired as f64);
    counts.add("core.recovery.detections", report.detections as f64);
    counts.add(
        "core.recovery.false_suspicions",
        report.false_suspicions as f64,
    );
    counts.add("core.recovery.rescheduled", report.rescheduled as f64);
    counts.add("core.recovery.stranded", report.stranded as f64);
    counts.add("faults.rpc.replies", rpc.replies as f64);
    counts.add("faults.rpc.timeouts", rpc.timeouts as f64);
    counts.add("faults.rpc.attempts", (rpc.calls + rpc.retries) as f64);
    let mut d = Fnv::default();
    d.bytes(format!("{report:?}").as_bytes());
    Ok(d.finish())
}

/// E17 observed live through `ExperimentTelemetry::collect`, then every
/// export an operator reads: metrics, spans, critical paths, alerts and
/// one windowed query.
fn observed_run(seed: u64, tr: &mut Tracer, counts: &mut Counts) -> Result<u64, String> {
    let telem = tr
        .span("core.telemetry.collect", |_| {
            ExperimentTelemetry::collect("recovery", seed)
        })
        .ok_or("the recovery experiment is not registered")?;
    let metrics = tr.span("simcore.telemetry.metrics_jsonl", |_| telem.metrics_jsonl());
    let spans = tr.span("simcore.spans.forest_jsonl", |_| telem.spans_jsonl());
    let paths = tr.span("simcore.spans.critical_path", |_| {
        telem.critical_path_report()
    });
    let alerts = tr
        .span("simcore.slo.alerts", |_| telem.alerts_jsonl())
        .ok_or("collection kept no tsdb for alerts")?;
    let query = tr
        .span("simcore.tsdb.query", |_| {
            telem.query_jsonl(
                "container_fleet_dark",
                &[],
                QueryFn::AvgOverTime,
                SimDuration::from_secs(120),
                Some(SimDuration::from_secs(60)),
            )
        })
        .ok_or("collection kept no tsdb for queries")?;
    let exports = [
        ("metrics", &metrics),
        ("spans", &spans),
        ("critical paths", &paths),
        ("alerts", &alerts),
        ("query", &query),
    ];
    if let Some((name, _)) = exports.iter().find(|(_, s)| s.is_empty()) {
        return Err(format!("empty {name} export"));
    }
    let reg = &telem.sink.registry;
    let detections = reg
        .get_counter("recovery_detections_total", &[])
        .map_or(0, |c| c.value());
    if detections == 0 {
        return Err("the live registry saw no detections".into());
    }
    // `container_fleet_dark` mirrors the ledger's dark count, so its
    // integral over the horizon is the fleet's dark container-seconds.
    let dark = reg
        .get_gauge("container_fleet_dark", &[])
        .map(|g| g.integral(telem.taken_at))
        .ok_or("no container_fleet_dark gauge")?;
    let fleet = reg
        .get_gauge("container_fleet_size", &[])
        .map(|g| g.value())
        .ok_or("no container_fleet_size gauge")?;
    let availability = 1.0 - dark / (fleet * RECOVERY_HORIZON.as_secs_f64());
    if !(availability > 0.9 && availability <= 1.0) {
        return Err(format!("availability {availability} outside (0.9, 1]"));
    }
    let db = telem.tsdb().ok_or("collection kept no tsdb")?;
    counts.add("simcore.tsdb.series", db.series_count() as f64);
    counts.add("simcore.tsdb.samples", db.samples() as f64);
    counts.add("simcore.tsdb.bytes", db.bytes() as f64);
    counts.add(
        "simcore.telemetry.trace_events",
        telem.sink.tracer.len() as f64,
    );
    counts.add("simcore.spans.spans", spans.lines().count() as f64);
    let mut d = Fnv::default();
    for (_, s) in exports {
        counts.add("core.telemetry.bytes_exported", s.len() as f64);
        d.bytes(s.as_bytes());
    }
    Ok(d.finish())
}
