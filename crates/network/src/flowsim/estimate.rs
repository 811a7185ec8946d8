//! Estimation mode: Parsimon-style link clustering for fast sweeps.
//!
//! The exact fabric ([`FlowSimulator`](crate::flowsim::FlowSimulator))
//! re-solves max–min rates on every
//! inject/completion — bit-perfect, but a full scenario sweep pays that
//! cost for every configuration. This module trades a *stated, validated*
//! error bound for order-of-magnitude sweep throughput, the same
//! fidelity-for-speed trade the Glasgow testbed makes in hardware:
//!
//! 1. **Features** — every loaded link direction ("resource") gets a
//!    traffic feature vector read off one routing pass: offered load,
//!    flow count, flow-size mix, fan-in/fan-out degree and capacity
//!    tier (see [`LinkFeatures`]). The pass routes each endpoint pair
//!    once and reads each path it picks once; a flow carries only its
//!    path's index.
//! 2. **Clustering** — a deterministic, seeded greedy pass groups
//!    resources whose min–max-normalised features sit within
//!    [`EPSILON`] of a cluster representative under the
//!    dimension-normalised Euclidean distance.
//! 3. **Representatives** — one *exact* single-link solve runs per
//!    cluster: on an isolated link max–min fairness is processor
//!    sharing, so the representative's crossing flows are
//!    solved with the `O(n log n)` virtual-time construction instead of
//!    the event loop, fanned out on the quarantined
//!    [`partition::SolverPool`].
//! 4. **EDist composition** — each representative's observed per-flow
//!    slowdowns (FCT ÷ ideal FCT) form an [`EDist`] broadcast to every
//!    cluster member; a flow's predicted slowdown blends the worst
//!    cluster on its path (the fluid-model bottleneck rule) with the
//!    summed per-cluster excess (additive multi-hop accumulation),
//!    sampled comonotonically (one inverse-CDF coordinate per flow),
//!    and cloud-wide percentiles are read off the composed predictions.
//!
//! The whole pipeline is a pure function of `(topology, workload, seed)`
//! — byte-identical across runs and worker counts (`tests/estimate.rs`)
//! — and its accuracy against the exact oracle is measured and bounded
//! in `EXPERIMENTS.md` §S2 / `BENCH_estimate.json`.

use crate::flow::{FlowId, FlowSpec};
use crate::flowsim::{partition, RateAllocator};
use crate::lists::FlatLists;
use crate::routing::{Router, RoutingPolicy};
use crate::topology::Topology;
use picloud_simcore::units::Bytes;
use picloud_simcore::{EDist, SeedFactory, SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How faithfully a scenario is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FidelityMode {
    /// Full exact max–min simulation of every flow on every link.
    #[default]
    Exact,
    /// Parsimon-style estimation: cluster links by traffic features,
    /// simulate one representative per cluster, compose percentiles
    /// from empirical delay distributions.
    Estimate,
}

impl FidelityMode {
    /// Parses a CLI token (`"exact"` / `"estimate"`).
    pub fn parse(s: &str) -> Option<FidelityMode> {
        match s {
            "exact" => Some(FidelityMode::Exact),
            "estimate" => Some(FidelityMode::Estimate),
            _ => None,
        }
    }

    /// The canonical lower-case label (`"exact"` / `"estimate"`).
    pub fn label(self) -> &'static str {
        match self {
            FidelityMode::Exact => "exact",
            FidelityMode::Estimate => "estimate",
        }
    }
}

/// Number of dimensions in a [`LinkFeatures`] vector.
pub const FEATURE_DIMS: usize = 6;

/// Traffic features of one loaded link direction, extracted from a
/// single routing pass over the workload (no simulation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFeatures {
    /// The directed-resource index (`link-index * 2 + direction`).
    pub resource: usize,
    /// Routed bits ÷ capacity ÷ workload horizon — the fraction of the
    /// link's capacity the workload asks for.
    pub offered_load: f64,
    /// `log2(1 + n)` of the flows crossing this direction.
    pub flow_count: f64,
    /// Mean `log2` of the crossing flows' sizes in bits — the
    /// mice-vs-elephants mix.
    pub mean_log2_bits: f64,
    /// Links attached to the sending endpoint (traffic can converge
    /// from this many directions).
    pub fan_in: f64,
    /// Links attached to the receiving endpoint.
    pub fan_out: f64,
    /// `log2` of the link capacity in Mbit/s — the oversubscription
    /// tier (access vs fabric vs core).
    pub capacity_tier: f64,
}

impl LinkFeatures {
    /// The raw feature vector, in a fixed dimension order.
    pub fn vector(&self) -> [f64; FEATURE_DIMS] {
        [
            self.offered_load,
            self.flow_count,
            self.mean_log2_bits,
            self.fan_in,
            self.fan_out,
            self.capacity_tier,
        ]
    }
}

/// Clustering radius: a resource joins the first cluster whose
/// representative is within `EPSILON` of it under the
/// dimension-normalised Euclidean distance `sqrt(mean((a_i - b_i)^2))`,
/// which keeps the radius scale-free in the number of features.
pub const EPSILON: f64 = 0.05;

/// Path-composition blend between bottleneck-only (`0.0`: the flow's
/// slowdown is the worst cluster on its path, exact for a single
/// congested hop under max–min fairness) and fully additive (`1.0`:
/// per-cluster excess delays sum, which over-counts when one bottleneck
/// dominates). Fitted against the exact oracle on the S2 sweep
/// (`EXPERIMENTS.md` §S2).
pub const BLEND: f64 = 0.3;

/// The estimation pipeline's one setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EstimateConfig {
    /// Seed for the clustering visit order and the per-flow
    /// inverse-CDF draw coordinates.
    pub seed: u64,
}

impl EstimateConfig {
    /// The configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        EstimateConfig { seed }
    }
}

/// Distance between two normalised feature vectors (see [`EPSILON`]).
fn feature_distance(a: &[f64; FEATURE_DIMS], b: &[f64; FEATURE_DIMS]) -> f64 {
    let sum: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / FEATURE_DIMS as f64).sqrt()
}

/// One cluster of similar link directions: a representative resource
/// (simulated exactly) and the members its delay distribution is
/// broadcast to. Members are ascending; the representative is a member.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkCluster {
    /// The resource whose crossing flows are replayed exactly.
    pub representative: usize,
    /// Every resource in the cluster, ascending (includes the
    /// representative).
    pub members: Vec<usize>,
}

/// The predicted fate of one workload flow under estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowPrediction {
    /// Injection instant.
    pub start: SimTime,
    /// Transfer size in bits.
    pub size_bits: f64,
    /// Contention-free completion time (bottleneck-rate transfer plus
    /// path propagation), seconds.
    pub ideal_secs: f64,
    /// Composed slowdown over the distinct clusters on the flow's path:
    /// `1 + max + BLEND * (sum - max)` of their sampled excess delays
    /// (see [`BLEND`]).
    pub slowdown: f64,
    /// Predicted flow-completion time, seconds
    /// (`ideal_secs * slowdown`).
    pub fct_secs: f64,
}

/// Everything the estimation pipeline produced for one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateOutcome {
    /// The derived clusters, in creation order.
    pub clusters: Vec<LinkCluster>,
    /// Link directions carrying at least one flow (the clustered set).
    pub loaded_resources: usize,
    /// Flows replayed inside representative simulations — the exact
    /// solver ran on this many flows instead of the whole workload.
    pub rep_flows_solved: usize,
    /// Per-flow predictions, in workload order (unroutable flows are
    /// skipped).
    pub predictions: Vec<FlowPrediction>,
}

impl EstimateOutcome {
    /// Number of clusters (= representative simulations run).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The predicted-FCT distribution across all flows.
    pub fn fct_dist(&self) -> EDist {
        EDist::from_samples(self.predictions.iter().map(|p| p.fct_secs).collect())
    }
}

/// A routable workload flow: what estimation adds to its spec.
struct RoutedFlow {
    /// Index of the flow's `(arrival, spec)` in the workload.
    event: u32,
    /// The flow's path: a list index in [`RoutedWorkload::paths`].
    path: u32,
    /// Contention-free completion time, seconds.
    ideal_secs: f64,
}

/// The workload after one routing pass: its routable flows in workload
/// order and every distinct path they take.
struct RoutedWorkload<'a> {
    events: &'a [(SimTime, FlowSpec)],
    flows: Vec<RoutedFlow>,
    /// Each path's directed resources, in order from its source.
    paths: FlatLists<usize>,
}

impl RoutedWorkload<'_> {
    /// The arrival and spec of `f`.
    fn event(&self, f: &RoutedFlow) -> &(SimTime, FlowSpec) {
        &self.events[f.event as usize]
    }

    /// The directed resources `f` crosses.
    fn resources(&self, f: &RoutedFlow) -> &[usize] {
        self.paths.get(f.path as usize)
    }
}

/// A spec's transfer size in bits.
fn size_bits(spec: &FlowSpec) -> f64 {
    spec.size.as_u64() as f64 * 8.0
}

/// An owned representative job: one cluster's exact single-link replay.
struct RepJob {
    capacity_bps: u64,
    latency: SimDuration,
    /// `(start, size)` of each crossing flow, workload order.
    flows: Vec<(SimTime, Bytes)>,
}

/// The estimation-mode counterpart of
/// [`FlowSimulator`](crate::flowsim::FlowSimulator): same
/// constructor shape (topology, routing policy, allocator), but `run`
/// predicts FCT percentiles from clustered representatives instead of
/// simulating every flow.
#[derive(Debug, Clone)]
pub struct FlowEstimator {
    topo: Topology,
    policy: RoutingPolicy,
    workers: usize,
    config: EstimateConfig,
}

impl FlowEstimator {
    /// Creates an estimator over `topo` with the given routing policy.
    /// The allocator is the exact oracle's; every representative is one
    /// isolated link, on which max–min and equal share coincide, so the
    /// estimate does not depend on it.
    pub fn new(topo: Topology, policy: RoutingPolicy, _allocator: RateAllocator) -> Self {
        FlowEstimator {
            topo,
            policy,
            workers: 1,
            config: EstimateConfig::default(),
        }
    }

    /// Builder-style worker count for the representative fan-out.
    /// Purely a speed knob: predictions are byte-identical at every
    /// worker count (each representative simulation owns its data and
    /// results merge in cluster order).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style estimation config (the seed).
    #[must_use]
    pub fn with_config(mut self, config: EstimateConfig) -> Self {
        self.config = config;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimateConfig {
        &self.config
    }

    /// Runs the full pipeline over `events` (time-ordered
    /// `(arrival, spec)` pairs, e.g. `TrafficWorkload::events`):
    /// features → clustering → representative replays → EDist
    /// composition. Unroutable specs are skipped, mirroring what the
    /// exact simulator would reject.
    pub fn estimate(&self, events: &[(SimTime, FlowSpec)]) -> EstimateOutcome {
        let n_res = self.topo.links().len() * 2;
        let routed = self.route_workload(events);
        // --- 1. Per-resource aggregates from one routing pass. -------
        let mut bits_on = vec![0.0f64; n_res];
        let mut count_on = vec![0u32; n_res];
        let mut log2_sum = vec![0.0f64; n_res];
        for f in &routed.flows {
            let size_bits = size_bits(&routed.event(f).1);
            let log2_bits = size_bits.max(1.0).log2();
            for &r in routed.resources(f) {
                bits_on[r] += size_bits;
                count_on[r] += 1;
                log2_sum[r] += log2_bits;
            }
        }
        let loaded: Vec<usize> = (0..n_res).filter(|&r| count_on[r] > 0).collect();
        let features = self.extract_features(&loaded, &bits_on, &count_on, &log2_sum, &routed);
        // --- 2. Seeded greedy clustering over normalised features. ---
        let seeds = SeedFactory::new(self.config.seed);
        let clusters = cluster_links(&features, &seeds);
        // Each path's distinct clusters, in first-crossing order, and
        // the clusters whose representative it crosses, listed once per
        // path rather than once per flow.
        let mut cluster_of: Vec<Option<u32>> = vec![None; n_res];
        let mut rep_of: Vec<Option<u32>> = vec![None; n_res];
        for (ci, c) in clusters.iter().enumerate() {
            for &m in &c.members {
                cluster_of[m] = Some(ci as u32);
            }
            rep_of[c.representative] = Some(ci as u32);
        }
        let mut on_path = FlatLists::default();
        let mut reps_on_path = FlatLists::default();
        for p in 0..routed.paths.len() {
            for &r in routed.paths.get(p) {
                if let Some(ci) = cluster_of[r] {
                    if !on_path.open().contains(&ci) {
                        on_path.push(ci);
                    }
                }
                if let Some(ci) = rep_of[r] {
                    reps_on_path.push(ci);
                }
            }
            on_path.close();
            reps_on_path.close();
        }
        // --- 3. One exact replay per representative, fanned out. -----
        let mut jobs: Vec<RepJob> = clusters
            .iter()
            .map(|c| {
                let r = c.representative;
                let link = self.topo.link(crate::topology::LinkId((r / 2) as u32));
                RepJob {
                    capacity_bps: link.capacity.as_bps(),
                    latency: link.latency,
                    flows: Vec::with_capacity(count_on[r] as usize),
                }
            })
            .collect();
        for f in &routed.flows {
            let (at, spec) = routed.event(f);
            for &ci in reps_on_path.get(f.path as usize) {
                jobs[ci as usize].flows.push((*at, spec.size));
            }
        }
        let rep_flows_solved: usize = jobs.iter().map(|j| j.flows.len()).sum();
        let dists: Vec<EDist> = partition::SolverPool::new(self.workers)
            .run_ordered(jobs, |_, job| run_representative(&job));
        // --- 4. Compose predictions: the blended slowdown over the
        //        clusters on the flow's path, sampled comonotonically
        //        (one draw coordinate per flow).
        let mut draw = seeds.stream("estimate/draw");
        let predictions: Vec<FlowPrediction> = routed
            .flows
            .iter()
            .map(|f| {
                let u: f64 = draw.gen_range(0.0..1.0);
                let mut max_excess = 0.0f64;
                let mut sum_excess = 0.0f64;
                for &ci in on_path.get(f.path as usize) {
                    let d = &dists[ci as usize];
                    if !d.is_empty() {
                        let e = (d.sample_at(u) - 1.0).max(0.0);
                        sum_excess += e;
                        max_excess = max_excess.max(e);
                    }
                }
                // Blend between the fluid-model bottleneck rule (max)
                // and additive per-hop delay accumulation (sum).
                let slowdown = 1.0 + max_excess + BLEND * (sum_excess - max_excess);
                let (at, spec) = routed.event(f);
                FlowPrediction {
                    start: *at,
                    size_bits: size_bits(spec),
                    ideal_secs: f.ideal_secs,
                    slowdown,
                    fct_secs: f.ideal_secs * slowdown,
                }
            })
            .collect();
        EstimateOutcome {
            clusters,
            loaded_resources: loaded.len(),
            rep_flows_solved,
            predictions,
        }
    }

    /// Routes every spec once, recording each flow's path and its
    /// contention-free ideal FCT (bottleneck-rate transfer + summed
    /// propagation). Each endpoint pair is routed by one walk, and each
    /// path's resources, latency and bottleneck are read the first time
    /// a flow takes it; later flows on the path allocate nothing.
    fn route_workload<'a>(&self, events: &'a [(SimTime, FlowSpec)]) -> RoutedWorkload<'a> {
        let mut router = Router::new(self.policy);
        // Router path index -> list index in `out.paths`, `u32::MAX`
        // until a flow takes the path.
        let mut local: Vec<u32> = Vec::new();
        // Each path's summed latency and bottleneck capacity in bits/s
        // (infinite for an empty path), by list index.
        let mut facts: Vec<(SimDuration, f64)> = Vec::new();
        let mut out = RoutedWorkload {
            events,
            flows: Vec::with_capacity(events.len()),
            paths: FlatLists::default(),
        };
        for (k, (_, spec)) in events.iter().enumerate() {
            let Some(chosen) = router.route(&self.topo, spec.src, spec.dst, FlowId(k as u64))
            else {
                continue;
            };
            if local.len() <= chosen {
                local.resize(chosen + 1, u32::MAX);
            }
            if local[chosen] == u32::MAX {
                local[chosen] = out.paths.len() as u32;
                facts.push(self.read_path(spec.src, router.path(chosen), &mut out.paths));
            }
            let path = local[chosen];
            let (latency, bottleneck_bps) = facts[path as usize];
            let transfer = if bottleneck_bps.is_finite() && bottleneck_bps > 0.0 {
                size_bits(spec) / bottleneck_bps
            } else {
                0.0
            };
            out.flows.push(RoutedFlow {
                event: k as u32,
                path,
                ideal_secs: transfer + latency.as_secs_f64(),
            });
        }
        out
    }

    /// Reads `path` from `src` once: adds its directed resources to
    /// `paths` as one list and returns its summed latency and
    /// bottleneck capacity.
    fn read_path(
        &self,
        src: crate::topology::DeviceId,
        path: &[crate::topology::LinkId],
        paths: &mut FlatLists<usize>,
    ) -> (SimDuration, f64) {
        let mut cur = src;
        let mut latency = SimDuration::ZERO;
        let mut bottleneck_bps = f64::INFINITY;
        for &lid in path {
            let link = self.topo.link(lid);
            let forward = cur == link.a;
            paths.push(lid.index() * 2 + usize::from(!forward));
            latency = latency.saturating_add(link.latency);
            bottleneck_bps = bottleneck_bps.min(link.capacity.as_bps() as f64);
            cur = link.other_end(cur);
        }
        paths.close();
        (latency, bottleneck_bps)
    }

    /// Builds the per-resource feature vectors for the loaded set.
    fn extract_features(
        &self,
        loaded: &[usize],
        bits_on: &[f64],
        count_on: &[u32],
        log2_sum: &[f64],
        routed: &RoutedWorkload<'_>,
    ) -> Vec<LinkFeatures> {
        // Horizon: the workload's arrival span plus the drain time of
        // the busiest link — a pure function of the inputs, so offered
        // load is deterministic. (Uniform scaling cancels in the
        // min–max normalisation anyway.)
        let starts = || routed.flows.iter().map(|f| routed.event(f).0);
        let t0 = starts().min().unwrap_or(SimTime::ZERO);
        let t1 = starts().max().unwrap_or(SimTime::ZERO);
        let span = t1.saturating_duration_since(t0).as_secs_f64();
        let worst_drain = loaded
            .iter()
            .map(|&r| {
                let cap = self.capacity_of(r);
                if cap > 0.0 {
                    bits_on[r] / cap
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max);
        let horizon = (span + worst_drain).max(1e-3);
        loaded
            .iter()
            .map(|&r| {
                let link = self.topo.link(crate::topology::LinkId((r / 2) as u32));
                let cap = link.capacity.as_bps() as f64;
                // Even resource = a→b, odd = b→a.
                let (tail, head) = if r % 2 == 0 {
                    (link.a, link.b)
                } else {
                    (link.b, link.a)
                };
                let n = count_on[r] as f64;
                LinkFeatures {
                    resource: r,
                    offered_load: if cap > 0.0 {
                        bits_on[r] / cap / horizon
                    } else {
                        0.0
                    },
                    flow_count: (1.0 + n).log2(),
                    mean_log2_bits: log2_sum[r] / n,
                    fan_in: self.topo.neighbours(tail).len() as f64,
                    fan_out: self.topo.neighbours(head).len() as f64,
                    capacity_tier: (cap / 1e6).max(1.0).log2(),
                }
            })
            .collect()
    }

    fn capacity_of(&self, r: usize) -> f64 {
        self.topo
            .link(crate::topology::LinkId((r / 2) as u32))
            .capacity
            .as_bps() as f64
    }
}

/// Min–max normalises the feature matrix (constant dimensions collapse
/// to 0), then greedily clusters in a seeded visit order: each resource
/// joins the first cluster whose representative is within `EPSILON`, else
/// founds a new cluster. The visit order is a Fisher–Yates shuffle from
/// the `estimate/cluster` stream — deterministic in the seed — and the
/// output is canonicalised (members ascending, clusters by ascending
/// representative) so reports are stable.
fn cluster_links(features: &[LinkFeatures], seeds: &SeedFactory) -> Vec<LinkCluster> {
    let n = features.len();
    if n == 0 {
        return Vec::new();
    }
    let raw: Vec<[f64; FEATURE_DIMS]> = features.iter().map(LinkFeatures::vector).collect();
    let mut lo = [f64::INFINITY; FEATURE_DIMS];
    let mut hi = [f64::NEG_INFINITY; FEATURE_DIMS];
    for v in &raw {
        for d in 0..FEATURE_DIMS {
            lo[d] = lo[d].min(v[d]);
            hi[d] = hi[d].max(v[d]);
        }
    }
    let norm: Vec<[f64; FEATURE_DIMS]> = raw
        .iter()
        .map(|v| {
            let mut out = [0.0f64; FEATURE_DIMS];
            for d in 0..FEATURE_DIMS {
                let range = hi[d] - lo[d];
                out[d] = if range > 0.0 {
                    (v[d] - lo[d]) / range
                } else {
                    0.0
                };
            }
            out
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = seeds.stream("estimate/cluster");
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    // Greedy pass: clusters keyed by their founding (representative)
    // feature vector.
    let mut reps: Vec<usize> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for &i in &order {
        let found = reps
            .iter()
            .position(|&ri| feature_distance(&norm[ri], &norm[i]) <= EPSILON);
        match found {
            Some(ci) => members[ci].push(i),
            None => {
                reps.push(i);
                members.push(vec![i]);
            }
        }
    }
    let mut clusters: Vec<LinkCluster> = reps
        .into_iter()
        .zip(members)
        .map(|(ri, mut ms)| {
            ms.sort_unstable();
            LinkCluster {
                representative: features[ri].resource,
                members: ms.into_iter().map(|i| features[i].resource).collect(),
            }
        })
        .collect();
    clusters.sort_by_key(|c| c.representative);
    clusters
}

/// Solves one cluster representative exactly: its crossing flows on an
/// isolated link at the representative's capacity. On a single link,
/// max–min fair allocation *is* processor sharing (and so is equal
/// share), so instead of replaying a two-host topology through the full
/// event loop the representative is solved with the classic virtual-time
/// construction: virtual time `V` (bits served to each active flow)
/// advances at `capacity / active`, a flow arriving at `V₀` completes
/// when `V` reaches `V₀ + bits`, and real time maps back through the
/// same rate. `O(n log n)` per representative (one heap pop per flow)
/// versus the event loop's per-event region re-solve — this is where the
/// estimation mode's speed lives. Returns the empirical distribution of
/// per-flow slowdowns (FCT ÷ contention-free FCT).
fn run_representative(job: &RepJob) -> EDist {
    let cap = job.capacity_bps as f64;
    let latency = job.latency.as_secs_f64();
    if cap <= 0.0 {
        return EDist::from_samples(vec![1.0; job.flows.len()]);
    }
    // Completion heap keyed on finish virtual time. Non-negative f64s
    // order identically to their IEEE bit patterns, so the key is the
    // bit pattern plus the arrival index as a deterministic tie-break.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(job.flows.len());
    let mut slowdowns = vec![1.0f64; job.flows.len()];
    let mut v = 0.0f64; // virtual time, bits per active flow
    let mut t = 0.0f64; // real time, seconds
    let mut active = 0usize;
    let mut arrival_of = vec![0.0f64; job.flows.len()];
    let complete = |idx: usize,
                    finish_v: f64,
                    v: &mut f64,
                    t: &mut f64,
                    active: &mut usize,
                    arrival_of: &[f64],
                    slowdowns: &mut [f64]| {
        *t += (finish_v - *v) * *active as f64 / cap;
        *v = finish_v;
        *active -= 1;
        let bits = job.flows[idx].1.as_u64() as f64 * 8.0;
        let ideal = bits / cap + latency;
        let fct = (*t - arrival_of[idx]) + latency;
        slowdowns[idx] = if ideal > 0.0 {
            (fct / ideal).max(1.0)
        } else {
            1.0
        };
    };
    for (i, &(at, size)) in job.flows.iter().enumerate() {
        let arrive = at.saturating_duration_since(SimTime::ZERO).as_secs_f64();
        // Drain completions that land before this arrival.
        while let Some(&Reverse((vbits, idx))) = heap.peek() {
            let finish_v = f64::from_bits(vbits);
            let t_done = t + (finish_v - v) * active as f64 / cap;
            if t_done > arrive {
                break;
            }
            heap.pop();
            complete(
                idx,
                finish_v,
                &mut v,
                &mut t,
                &mut active,
                &arrival_of,
                &mut slowdowns,
            );
        }
        // Advance virtual time to the arrival instant and admit.
        if active > 0 {
            v += (arrive - t) * cap / active as f64;
        }
        t = arrive;
        let bits = size.as_u64() as f64 * 8.0;
        arrival_of[i] = arrive;
        active += 1;
        heap.push(Reverse(((v + bits).to_bits(), i)));
    }
    while let Some(Reverse((vbits, idx))) = heap.pop() {
        complete(
            idx,
            f64::from_bits(vbits),
            &mut v,
            &mut t,
            &mut active,
            &arrival_of,
            &mut slowdowns,
        );
    }
    EDist::from_samples(slowdowns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_mode_round_trips() {
        assert_eq!(FidelityMode::parse("exact"), Some(FidelityMode::Exact));
        assert_eq!(
            FidelityMode::parse("estimate"),
            Some(FidelityMode::Estimate)
        );
        assert_eq!(FidelityMode::parse("fast"), None);
        assert_eq!(FidelityMode::Estimate.label(), "estimate");
    }

    #[test]
    fn metric_distances() {
        let a = [0.0; FEATURE_DIMS];
        let mut b = [0.0; FEATURE_DIMS];
        b[0] = 0.6;
        // L2 spreads the single-dimension gap across sqrt(d).
        let l2 = feature_distance(&a, &b);
        assert!((l2 - 0.6 / (FEATURE_DIMS as f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn estimator_runs_and_is_deterministic() {
        let topo = Topology::multi_root_tree(2, 4, 1);
        let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
        let mut events = Vec::new();
        for i in 0..40u64 {
            let src = hosts[(i % 8) as usize];
            let dst = hosts[((i + 3) % 8) as usize];
            events.push((
                SimTime::ZERO + SimDuration::from_micros(i * 50),
                FlowSpec::new(src, dst, Bytes::kib(64 + (i % 5) * 32)),
            ));
        }
        let est = FlowEstimator::new(
            topo.clone(),
            RoutingPolicy::SingleShortest,
            RateAllocator::MaxMin,
        )
        .with_config(EstimateConfig::seeded(7));
        let one = est.estimate(&events);
        assert!(one.cluster_count() >= 1);
        assert!(one.cluster_count() <= one.loaded_resources);
        assert_eq!(one.predictions.len(), 40);
        assert!(one.predictions.iter().all(|p| p.slowdown >= 1.0));
        // Byte-determinism across a fresh estimator and 8 workers.
        let est8 = FlowEstimator::new(topo, RoutingPolicy::SingleShortest, RateAllocator::MaxMin)
            .with_config(EstimateConfig::seeded(7))
            .with_workers(8);
        let two = est8.estimate(&events);
        assert_eq!(one, two);
    }

    #[test]
    fn clusters_tile_the_loaded_set() {
        let topo = Topology::multi_root_tree(2, 4, 1);
        let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
        let events: Vec<(SimTime, FlowSpec)> = (0..16u64)
            .map(|i| {
                (
                    SimTime::ZERO,
                    FlowSpec::new(
                        hosts[(i % 8) as usize],
                        hosts[((i + 1) % 8) as usize],
                        Bytes::mib(1),
                    ),
                )
            })
            .collect();
        let est = FlowEstimator::new(topo, RoutingPolicy::SingleShortest, RateAllocator::MaxMin);
        let out = est.estimate(&events);
        let mut seen = std::collections::BTreeSet::new();
        for c in &out.clusters {
            assert!(c.members.binary_search(&c.representative).is_ok());
            for &m in &c.members {
                assert!(seen.insert(m), "resource {m} in two clusters");
            }
        }
        assert_eq!(seen.len(), out.loaded_resources);
    }
}
