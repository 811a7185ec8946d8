//! Deterministic flow-level network simulation.
//!
//! [`FlowSimulator`] carries flows across a [`Topology`], allocating each
//! flow a rate from the capacities of the links it traverses. Links are
//! full-duplex: each direction of each link is an independent resource, as
//! on the real Ethernet fabric.
//!
//! Two allocators are provided (the ablation called out in DESIGN.md §4):
//!
//! * [`RateAllocator::MaxMin`] — progressive-filling water-fill, the
//!   standard fluid model of long-lived TCP sharing.
//! * [`RateAllocator::EqualShare`] — each resource is split evenly among
//!   its flows and a flow runs at the minimum share along its path. Not
//!   work-conserving; shows how much max–min's surplus redistribution
//!   matters.
//!
//! Time only advances through [`FlowSimulator::advance_to`] /
//! [`FlowSimulator::run_to_completion`]; between recomputation points every
//! rate is constant, so completions are computed exactly, not stepped.
//!
//! # Scaling machinery (DESIGN.md §4, "fabric scaling")
//!
//! Four structures keep the hot path sub-quadratic in active flows:
//!
//! * one **flow table**, an append-only slot arena whose slot order is
//!   ascending flow-id order, so every ordered walk (clock advance,
//!   region gather, rate apply) is a plain walk in slot order and every
//!   float accumulates in ascending id order;
//! * one **inverted resource→flows index** (`flows_on`, one ascending
//!   row of `(flow-table slot, router path index)` entries per link
//!   direction): adding or removing a flow touches only its path's rows,
//!   and utilisation queries and rate recomputation touch only the flows
//!   on affected resources;
//! * an **incremental solver** ([`RecomputeMode::Incremental`], the
//!   default) that re-solves only the *dirty region* — the resources on
//!   the changed flow's path plus the transitive closure of flows sharing
//!   them, found by walking the inverted index and expanding each
//!   distinct path once; a seed resource no flow crosses any more is
//!   settled inside the walk, without a solve job. The from-scratch
//!   solver is retained as the oracle ([`RecomputeMode::Full`]) and the
//!   two are bit-for-bit equivalent (`tests/flowsim_equiv.rs` proves it
//!   on seeded random workloads);
//! * a **completion-time min-heap** with lazy invalidation (per-flow rate
//!   epochs, like the engine's cancelled set) replacing the O(active)
//!   scan in [`FlowSimulator::next_completion_time`]: an entry carries
//!   its flow's table slot, renumbered when the table compacts, and is
//!   live while that slot holds its flow at the entry's epoch.
//!
//! A recomputation allocates nothing in steady state: each region's
//! solve job carries its columns, solver scratch and rates, jobs are
//! recycled through a free list, paths are stored as region-local
//! positions so the solver's arrays are sized to the region, and the
//! per-resource working memory lives on the simulator, left clear
//! between calls (DESIGN.md §4b).
//!
//! # Partitioned parallel solve (DESIGN.md §4c)
//!
//! The [`partition`] module derives a [`partition::PartitionMap`] from
//! the topology (pods on the fat-tree, racks on the multi-root tree;
//! core/gateway links form the *shared spine*). Each recomputation
//! splits the dirty set into its connected sharing components, solves
//! the components concurrently on [`partition::SolverPool`] — a
//! deterministic, persistent, clock-free worker pool — and applies the
//! results component by component, flows in ascending id order. Because
//! disjoint components share no resource, per-component arithmetic is
//! identical to the joint solve, so the result is **bit-for-bit
//! independent of the worker count** ([`FlowSimulator::set_workers`]);
//! `tests/flowsim_equiv.rs` pins this against the serial oracle at
//! worker counts 1, 2 and 8. Cross-partition flows collapse their
//! regions into a single shared-spine solve, which runs exactly like
//! any other region — just attributed to the `shared` bucket in the
//! `network_partition_solves_total` telemetry.
//!
//! Same-instant arrival bursts (traffic generator, MapReduce shuffle)
//! should use [`FlowSimulator::inject_batch`], which triggers one
//! recomputation for the whole burst instead of one per flow.

pub mod estimate;
pub mod partition;

use crate::flow::{CompletedFlow, Flow, FlowId, FlowSpec};
use crate::flowsim::partition::{PartitionMap, SolverPool};
use crate::routing::{Router, RoutingPolicy};
use crate::topology::{LinkId, Topology};
use picloud_simcore::telemetry::MetricsRegistry;
use picloud_simcore::{SimDuration, SimTime, TimeWeightedGauge};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Bits below which a flow is considered finished (guards float error).
const EPSILON_BITS: f64 = 1e-6;

/// Minimum total region-flow count before a multi-region recompute is
/// worth fanning out to the worker pool: below this, handing the jobs to
/// the persistent workers (a boxed task and a channel message per job,
/// plus waking the parked threads) costs more than solving them inline.
/// Results are bit-identical either way.
const PARALLEL_FLOWS_MIN: usize = 64;

/// How link capacity is divided among contending flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RateAllocator {
    /// Weighted water-filling max–min fairness (work-conserving).
    #[default]
    MaxMin,
    /// Naive equal split per resource, minimum along the path (not
    /// work-conserving) — the ablation baseline.
    EqualShare,
}

/// Scope of the rate recomputation triggered by each inject / completion /
/// cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RecomputeMode {
    /// Re-solve only the dirty region: the resources on the changed
    /// flow's path plus the transitive closure of flows sharing them.
    /// Bit-for-bit equivalent to [`RecomputeMode::Full`].
    #[default]
    Incremental,
    /// Re-solve every active flow from scratch — the oracle the
    /// incremental solver is checked against.
    Full,
}

/// Error returned when a flow cannot be injected.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectError {
    /// No path exists between the endpoints.
    NoRoute {
        /// The failed spec, returned to the caller.
        spec: FlowSpec,
    },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::NoRoute { spec } => {
                write!(f, "no route from {} to {}", spec.src, spec.dst)
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// One direction of one link — the simulator's unit of contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct ResourceId(usize);

/// A pending completion prediction: flow `id`, in flow-table slot
/// `slot`, finishes at `at` if its rate is still the one it had at epoch
/// `epoch`. Stale entries (flow gone, or re-rated since) are discarded
/// lazily when they surface at the top of the heap, exactly like the
/// event engine's cancelled set. `(id, epoch)` is unique per entry, so
/// the slot, which follows the table's compactions, never decides order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CompletionEntry {
    at: SimTime,
    id: FlowId,
    epoch: u64,
    slot: u32,
}

/// A deterministic flow-level simulator over a topology.
///
/// # Example
///
/// ```
/// use picloud_network::flowsim::FlowSimulator;
/// use picloud_network::flow::FlowSpec;
/// use picloud_network::topology::Topology;
/// use picloud_simcore::units::Bytes;
/// use picloud_simcore::SimTime;
///
/// let topo = Topology::multi_root_tree(2, 2, 2);
/// let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
/// let mut sim = FlowSimulator::new(topo, Default::default(), Default::default());
/// sim.inject(FlowSpec::new(hosts[0], hosts[2], Bytes::mib(10)), SimTime::ZERO)?;
/// let end = sim.run_to_completion();
/// assert_eq!(sim.completed().len(), 1);
/// assert!(end > SimTime::ZERO);
/// # Ok::<(), picloud_network::flowsim::InjectError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowSimulator {
    topo: Topology,
    router: Router,
    allocator: RateAllocator,
    mode: RecomputeMode,
    now: SimTime,
    table: FlowTable,
    next_id: u64,
    completed: Vec<CompletedFlow>,
    /// Monotonic count of every completion ever recorded — survives
    /// [`FlowSimulator::drain_completed`], unlike `completed.len()`.
    completed_total: u64,
    /// Capacity per resource (2 per link: even = a→b, odd = b→a), bits/s.
    resource_capacity: Vec<f64>,
    /// Inverted index: `(slot, path)` for each active flow crossing each
    /// resource, ascending by flow-table slot (and so in flow-id order);
    /// `path` is the flow's index in `router`'s path arena. The router
    /// is never invalidated here, so a path index names the same
    /// resources for the simulator's whole life.
    flows_on: Vec<Vec<(u32, u32)>>,
    /// Current allocated rate sum per resource, bits/s (kept in lock-step
    /// with `flows_on` at every recomputation point).
    resource_used: Vec<f64>,
    /// Utilisation gauge per resource.
    resource_util: Vec<TimeWeightedGauge>,
    /// Total bits carried per resource.
    resource_bits: Vec<f64>,
    /// Pod/rack ownership of every device and link direction, derived
    /// once from the topology.
    partitions: PartitionMap,
    /// Worker threads for the partitioned solve (1 = fully serial).
    workers: usize,
    /// Persistent solver workers (present iff `workers > 1`); shared on
    /// clone — `run_ordered` calls are independent, so two simulators
    /// can safely queue onto the same workers.
    pool: Option<Arc<SolverPool>>,
    /// Min-heap of predicted completion instants (lazy invalidation).
    completions: BinaryHeap<Reverse<CompletionEntry>>,
    /// Regions solved per partition bucket since construction (the
    /// `network_partition_solves_total` telemetry counter).
    partition_solves: Vec<u64>,
    /// The recompute path's reusable working memory.
    scratch: Scratch,
}

/// The recompute path's reusable working memory, so that a steady-state
/// inject, completion or cancel allocates nothing here. Between calls
/// every list is empty, every per-resource, per-path and per-slot entry
/// is zero or `false`, and the jobs sit on the free list; `local_of` is
/// written before it is read. A clone of the simulator therefore carries
/// no state in it that could change a result.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The resources a change touched: the seeds of its recompute.
    seeds: Vec<ResourceId>,
    /// The slots that drained dry in one clock step, ascending.
    finished: Vec<usize>,
    /// Region membership per resource, for the dirty-region walk.
    res_in: Vec<bool>,
    /// The dirty-region walk's stack.
    frontier: Vec<usize>,
    /// One bit per router path index: the paths whose resources the walk
    /// has expanded. Sized by [`FlowSimulator::index_add`] to cover every
    /// indexed path.
    paths_seen: Vec<u64>,
    /// The paths set in `paths_seen`, so the walk can clear them.
    paths: Vec<u32>,
    /// Each resource's position in the `res_list` of the job being
    /// gathered.
    local_of: Vec<u32>,
    /// One bit per flow-table slot: the region's flows, set by the walk
    /// and read (and cleared) by the gather.
    marks: Vec<u64>,
    /// Per-resource rate sums, accumulated by the apply.
    used_new: Vec<f64>,
    /// The current recompute's jobs, in region order.
    jobs: Vec<SolveJob>,
    /// Jobs kept for the next recompute to refill.
    free: Vec<SolveJob>,
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    flow: Flow,
    resources: Vec<ResourceId>,
    prop_latency: SimDuration,
    /// Bumped on every rate change; completion-heap entries carrying an
    /// older epoch are stale.
    epoch: u64,
}

/// The active flows: an append-only slot arena whose slot order is
/// ascending flow-id order. Ids are issued in increasing order, so a
/// push keeps that order; a retired flow leaves a hole that keeps its id
/// (lookups binary-search `ids`) until [`FlowTable::compact`] closes the
/// holes, which shifts slots down without reordering them.
#[derive(Debug, Clone, Default)]
struct FlowTable {
    /// Flow id per slot, strictly ascending.
    ids: Vec<FlowId>,
    /// The flow in each slot; `None` is a hole.
    flows: Vec<Option<ActiveFlow>>,
    /// Occupied slots.
    live: usize,
}

impl FlowTable {
    /// Appends `af`, whose id exceeds every id in the table, returning
    /// its slot — the highest in the table.
    fn push(&mut self, af: ActiveFlow) -> u32 {
        debug_assert!(self.ids.last().is_none_or(|&last| last < af.flow.id));
        let slot = self.flows.len() as u32;
        self.ids.push(af.flow.id);
        self.flows.push(Some(af));
        self.live += 1;
        slot
    }

    /// The slot holding `id`, occupied or a hole.
    fn slot_of(&self, id: FlowId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The flow a completion-heap entry predicts, if the entry is live:
    /// its slot still holds its flow at the entry's epoch. One index, no
    /// search; a slot renumbered away as a hole is out of range.
    fn predicted(&self, e: &CompletionEntry) -> Option<&ActiveFlow> {
        self.flows
            .get(e.slot as usize)?
            .as_ref()
            .filter(|af| af.flow.id == e.id && af.epoch == e.epoch)
    }

    /// The flow in an occupied `slot` (one read from `flows_on`).
    #[expect(
        clippy::expect_used,
        reason = "flows_on rows and the jobs gathered from them hold occupied slots only"
    )]
    fn at(&self, slot: u32) -> &ActiveFlow {
        self.flows[slot as usize]
            .as_ref()
            .expect("indexed slots are occupied")
    }

    /// Mutable [`FlowTable::at`].
    #[expect(
        clippy::expect_used,
        reason = "flows_on rows and the jobs gathered from them hold occupied slots only"
    )]
    fn at_mut(&mut self, slot: u32) -> &mut ActiveFlow {
        self.flows[slot as usize]
            .as_mut()
            .expect("indexed slots are occupied")
    }

    /// Empties `slot`, returning its flow (`None` for a hole).
    fn retire(&mut self, slot: usize) -> Option<ActiveFlow> {
        let af = self.flows[slot].take();
        self.live -= usize::from(af.is_some());
        af
    }

    /// Closes the holes once they exceed `2 × live + 64` — the completion
    /// heap's compaction rule — and returns every old slot's new slot
    /// (`u32::MAX` for a hole), so slot-valued indexes can be renumbered.
    /// `None` when no compaction is due.
    fn compact(&mut self) -> Option<Vec<u32>> {
        if self.flows.len() - self.live <= 2 * self.live + 64 {
            return None;
        }
        let mut new_slot = vec![u32::MAX; self.flows.len()];
        let mut kept = 0;
        for (old, slot) in new_slot.iter_mut().enumerate() {
            if self.flows[old].is_some() {
                *slot = kept as u32;
                self.flows.swap(kept, old);
                self.ids.swap(kept, old);
                kept += 1;
            }
        }
        self.flows.truncate(kept);
        self.ids.truncate(kept);
        Some(new_slot)
    }
}

/// One disjoint dirty region prepared for solving, with the solver's
/// working memory and its output. A job is fully **owned** — its
/// resources (with capacities and inverted-index counts snapshotted from
/// the simulator) and its flows (flow-table slots ascending, with their
/// CSR-flattened paths) — so it can ship to the persistent
/// [`SolverPool`], whose workers outlive any single borrow of the
/// simulator, and come back. Paths are stored as positions in
/// `res_list`, so every per-resource array is sized to the region, not
/// to the fabric. Jobs are recycled through the simulator's free list
/// and refilled in place, so a steady-state solve allocates nothing.
#[derive(Debug, Clone, Default)]
struct SolveJob {
    /// The region's resources, ascending.
    res_list: Vec<usize>,
    /// The region's flow-table slots, ascending (so in flow-id order).
    slots: Vec<u32>,
    /// CSR offsets: flow `i`'s path occupies
    /// `path_res[path_start[i] as usize..path_start[i + 1] as usize]`.
    path_start: Vec<u32>,
    /// Path resources as positions in `res_list`, in traversal order.
    path_res: Vec<u32>,
    /// `resource_capacity[r]` for each `r` in `res_list`, index-aligned.
    capacity: Vec<f64>,
    /// `flows_on[r].len()` for each `r` in `res_list` — the equal-share
    /// denominators, and the max–min fill's starting unfrozen counts
    /// (the region is bi-closed, so every flow on `r` is in the job).
    flow_count: Vec<u32>,
    /// Capacity not yet handed out, per region resource (the equal-share
    /// fill keeps its per-resource shares here).
    cap_left: Vec<f64>,
    /// Unfrozen flows on each region resource.
    unfrozen_on: Vec<u32>,
    /// CSR of region-flow indices per region resource:
    /// `idx_on[start[k] as usize..start[k + 1] as usize]`, filled through
    /// `cursor`.
    start: Vec<u32>,
    idx_on: Vec<u32>,
    cursor: Vec<u32>,
    /// Whether each region flow has its rate yet.
    frozen: Vec<bool>,
    /// The solved rates, index-aligned with `slots`.
    rates: Vec<f64>,
}

impl SolveJob {
    /// Solves this region under `allocator` into `rates`.
    fn solve(&mut self, allocator: RateAllocator) {
        match allocator {
            RateAllocator::MaxMin => self.solve_max_min(),
            RateAllocator::EqualShare => self.solve_equal_share(),
        }
    }

    /// Progressive-filling water-fill restricted to the region.
    ///
    /// The pick order (lowest-index resource among minima), freeze order
    /// (ascending flow id) and arithmetic order are identical whether the
    /// region is the whole graph or one closed component, which is what
    /// makes incremental and full recomputes bit-for-bit equivalent.
    /// Region positions ascend with resource index, so scanning them in
    /// order is scanning the resources in order.
    fn solve_max_min(&mut self) {
        let SolveJob {
            slots,
            path_start,
            path_res,
            capacity,
            flow_count,
            cap_left,
            unfrozen_on,
            start,
            idx_on,
            cursor,
            frozen,
            rates,
            ..
        } = self;
        let path = |i: usize| &path_res[path_start[i] as usize..path_start[i + 1] as usize];
        let n_res = capacity.len();
        let n_flows = slots.len();
        cap_left.clear();
        cap_left.extend_from_slice(capacity);
        rates.clear();
        rates.resize(n_flows, 0.0);
        frozen.clear();
        frozen.resize(n_flows, false);
        let mut n_unfrozen = n_flows;
        // Each resource's fair share splits what is left of it among the
        // unfrozen flows crossing it.
        unfrozen_on.clear();
        unfrozen_on.extend_from_slice(flow_count);
        // CSR of region-flow indices per resource, ascending by flow id —
        // the same order `flows_on` iterates, without any tree walks or
        // searches in the fill loop below.
        start.clear();
        start.resize(n_res + 1, 0);
        for &k in path_res.iter() {
            start[k as usize + 1] += 1;
        }
        for k in 0..n_res {
            start[k + 1] += start[k];
        }
        idx_on.clear();
        idx_on.resize(start[n_res] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(start);
        for i in 0..n_flows {
            for &k in path(i) {
                idx_on[cursor[k as usize] as usize] = i as u32;
                cursor[k as usize] += 1;
            }
        }
        while n_unfrozen > 0 {
            // Find the tightest resource: min cap_left / unfrozen_on.
            let mut bottleneck: Option<(usize, f64)> = None;
            for k in 0..n_res {
                if unfrozen_on[k] == 0 {
                    continue;
                }
                let fair = cap_left[k] / f64::from(unfrozen_on[k]);
                match bottleneck {
                    Some((_, best)) if best <= fair => {}
                    _ => bottleneck = Some((k, fair)),
                }
            }
            let Some((bott, fair)) = bottleneck else {
                // Every active flow has a non-empty path, so an unfrozen
                // flow always leaves its resources a count; the loop ends
                // through `n_unfrozen`.
                break;
            };
            // Freeze every unfrozen flow crossing the bottleneck at the
            // bottleneck's fair rate — at least one, since its count is
            // non-zero. The inverted index yields exactly those flows in
            // ascending id order, so the fill never rescans flows the
            // bottleneck doesn't touch.
            for &fi in &idx_on[start[bott] as usize..start[bott + 1] as usize] {
                let i = fi as usize;
                if frozen[i] {
                    continue;
                }
                rates[i] = fair;
                frozen[i] = true;
                n_unfrozen -= 1;
                for &k in path(i) {
                    let k = k as usize;
                    cap_left[k] = (cap_left[k] - fair).max(0.0);
                    unfrozen_on[k] -= 1;
                }
            }
        }
    }

    /// Equal split per resource, minimum along the path, restricted to
    /// the region (counts were snapshotted from the inverted index).
    fn solve_equal_share(&mut self) {
        let SolveJob {
            slots,
            path_start,
            path_res,
            capacity,
            flow_count,
            cap_left: shares,
            rates,
            ..
        } = self;
        shares.clear();
        shares.extend(capacity.iter().zip(flow_count.iter()).map(|(&c, &n)| {
            if n > 0 {
                c / n as f64
            } else {
                f64::INFINITY
            }
        }));
        rates.clear();
        rates.extend((0..slots.len()).map(|i| {
            let rate = path_res[path_start[i] as usize..path_start[i + 1] as usize]
                .iter()
                .map(|&k| shares[k as usize])
                .fold(f64::INFINITY, f64::min);
            if rate.is_finite() {
                rate
            } else {
                0.0
            }
        }));
    }
}

/// The instant at which `remaining_bits` drains at `rate_bps`, rounded
/// *up* to the next nanosecond: rounding down could produce a zero-length
/// step on a sub-nanosecond residual and stall the clock.
fn completion_at(now: SimTime, remaining_bits: f64, rate_bps: f64) -> SimTime {
    let secs = remaining_bits / rate_bps;
    let nanos = (secs * 1e9).ceil().max(1.0);
    now + SimDuration::from_nanos(nanos as u64)
}

impl FlowSimulator {
    /// Creates a simulator over `topo` with the given routing policy and
    /// rate allocator.
    pub fn new(topo: Topology, policy: RoutingPolicy, allocator: RateAllocator) -> Self {
        let n_res = topo.links().len() * 2;
        let resource_capacity = topo
            .links()
            .iter()
            .flat_map(|l| {
                let c = l.capacity.as_bps() as f64;
                [c, c]
            })
            .collect();
        let partitions = PartitionMap::derive(&topo);
        let buckets = partitions.shard_count();
        FlowSimulator {
            router: Router::new(policy),
            allocator,
            mode: RecomputeMode::default(),
            now: SimTime::ZERO,
            table: FlowTable::default(),
            next_id: 0,
            completed: Vec::new(),
            completed_total: 0,
            resource_capacity,
            flows_on: vec![Vec::new(); n_res],
            resource_used: vec![0.0; n_res],
            resource_util: (0..n_res)
                .map(|_| TimeWeightedGauge::new(SimTime::ZERO, 0.0))
                .collect(),
            resource_bits: vec![0.0; n_res],
            partitions,
            workers: 1,
            pool: None,
            completions: BinaryHeap::new(),
            partition_solves: vec![0; buckets],
            scratch: Scratch {
                res_in: vec![false; n_res],
                local_of: vec![0; n_res],
                used_new: vec![0.0; n_res],
                ..Scratch::default()
            },
            topo,
        }
    }

    /// Builder-style variant of [`FlowSimulator::set_workers`].
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// The pod/rack partition map derived from the topology.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.partitions
    }

    /// Worker threads used by the partitioned solve (1 = serial).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the worker-thread count for the partitioned solve (clamped
    /// to at least 1). Purely a speed knob: results are bit-for-bit
    /// identical at every worker count, because disjoint sharing
    /// components solve with unchanged arithmetic and merge in a fixed
    /// order (see the module docs and DESIGN.md §4c).
    ///
    /// With more than one worker the simulator owns a persistent
    /// [`SolverPool`]: the workers are spawned once here and reused by
    /// every subsequent solve, so repeated recomputes pay no per-call
    /// thread start-up.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        self.workers = workers;
        self.pool = if workers > 1 {
            Some(Arc::new(SolverPool::new(workers)))
        } else {
            None
        };
    }

    /// Dirty regions solved per partition bucket since construction —
    /// index `i` is local partition `i`, the last entry is the shared
    /// spine. The live view behind `network_partition_solves_total`.
    pub fn partition_solves(&self) -> &[u64] {
        &self.partition_solves
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of in-flight flows.
    pub fn active_count(&self) -> usize {
        self.table.live
    }

    /// Completed flows, in completion order.
    pub fn completed(&self) -> &[CompletedFlow] {
        &self.completed
    }

    /// Monotonic count of every completion ever recorded, unaffected by
    /// [`FlowSimulator::drain_completed`].
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Removes and returns the completed-flow records accumulated so far.
    pub fn drain_completed(&mut self) -> Vec<CompletedFlow> {
        std::mem::take(&mut self.completed)
    }

    /// Switches between the incremental solver and the from-scratch
    /// oracle. The two are bit-for-bit equivalent, so this only affects
    /// speed; it may be flipped at any recomputation boundary.
    pub fn set_recompute_mode(&mut self, mode: RecomputeMode) {
        self.mode = mode;
    }

    /// Snapshot of `(id, allocated rate in bits/s)` for every active
    /// flow, ascending by id.
    pub fn active_rates(&self) -> Vec<(FlowId, f64)> {
        self.table
            .flows
            .iter()
            .flatten()
            .map(|af| (af.flow.id, af.flow.rate_bps))
            .collect()
    }

    /// Injects a flow at time `at` (must not precede the current time).
    ///
    /// Zero-sized flows, and flows whose source is their destination
    /// (they cross no fabric resource), complete immediately (after path
    /// latency, which is zero for a same-host flow).
    ///
    /// # Errors
    ///
    /// [`InjectError::NoRoute`] if the endpoints are disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, spec: FlowSpec, at: SimTime) -> Result<FlowId, InjectError> {
        let mut ids = self.inject_batch(vec![spec], at)?;
        debug_assert_eq!(ids.len(), 1);
        Ok(ids.remove(0))
    }

    /// Injects a burst of flows arriving at the same instant, triggering
    /// **one** rate recomputation for the whole burst instead of one per
    /// flow. Returns the assigned ids in spec order.
    ///
    /// Equivalent to injecting the specs one by one at `at` (same ids,
    /// same rates, same telemetry), except all-or-nothing on routing:
    /// if any spec has no route, nothing is injected.
    ///
    /// # Errors
    ///
    /// [`InjectError::NoRoute`] with the first unroutable spec; the
    /// simulator is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject_batch(
        &mut self,
        specs: Vec<FlowSpec>,
        at: SimTime,
    ) -> Result<Vec<FlowId>, InjectError> {
        assert!(
            at >= self.now,
            "flow injected in the past ({at} < {})",
            self.now
        );
        self.advance_to(at);
        // Route every spec before committing anything, so a routing
        // failure leaves the simulator untouched.
        let mut routed = Vec::with_capacity(specs.len());
        for (k, spec) in specs.into_iter().enumerate() {
            let id = FlowId(self.next_id + k as u64);
            let route = match self.router.route(&self.topo, spec.src, spec.dst, id) {
                Some(r) => r,
                None => return Err(InjectError::NoRoute { spec }),
            };
            routed.push((id, spec, route));
        }
        let mut ids = Vec::with_capacity(routed.len());
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        for (id, spec, route) in routed {
            self.next_id += 1;
            ids.push(id);
            let path = self.router.path(route);
            let resources = self.path_resources(spec.src, path);
            let prop_latency = path
                .iter()
                .map(|l| self.topo.link(*l).latency)
                .fold(SimDuration::ZERO, SimDuration::saturating_add);
            let size_bits = spec.size.as_u64() as f64 * 8.0;
            if size_bits <= EPSILON_BITS || resources.is_empty() {
                self.completed.push(CompletedFlow {
                    id,
                    spec,
                    started: at,
                    finished: at.saturating_add(prop_latency),
                });
                self.completed_total += 1;
                continue;
            }
            let flow = Flow {
                id,
                spec,
                path: path.to_vec(),
                started: at,
                remaining_bits: size_bits,
                rate_bps: 0.0,
            };
            let first = seeds.len();
            seeds.extend(resources.iter().copied());
            let slot = self.table.push(ActiveFlow {
                flow,
                resources,
                prop_latency,
                epoch: 0,
            });
            self.index_add(slot, route as u32, &seeds[first..]);
        }
        if !seeds.is_empty() {
            self.recompute_rates(&seeds);
        }
        seeds.clear();
        self.scratch.seeds = seeds;
        Ok(ids)
    }

    /// Cancels an in-flight flow (a failed request, an aborted migration).
    /// Returns the partially-transferred flow if it was active.
    pub fn cancel(&mut self, id: FlowId) -> Option<Flow> {
        let slot = self.table.slot_of(id)?;
        let af = self.table.retire(slot)?;
        self.index_remove(slot as u32, &af.resources);
        self.recompute_rates(&af.resources);
        Some(af.flow)
    }

    /// Earliest instant at which an active flow completes its transfer, or
    /// `None` if nothing is active (or everything is rate-starved).
    ///
    /// Served from the completion min-heap: stale entries (flow gone, or
    /// re-rated since the prediction) are popped lazily here, then the
    /// earliest live prediction wins. Completion delays are rounded *up*
    /// to the next nanosecond, so the clock always makes progress.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(top)) = self.completions.peek() {
            let Some(af) = self.table.predicted(&top) else {
                self.completions.pop();
                continue;
            };
            if top.at <= self.now && af.flow.remaining_bits > EPSILON_BITS {
                // A sub-nanosecond residual survived the predicted
                // instant; re-predict from the current remaining
                // volume (≥ 1 ns ahead, so this cannot loop).
                let at = completion_at(self.now, af.flow.remaining_bits, af.flow.rate_bps);
                self.completions.pop();
                self.completions
                    .push(Reverse(CompletionEntry { at, ..top }));
                continue;
            }
            return Some(top.at);
        }
        None
    }

    /// Advances the clock to `deadline`, completing flows as they finish.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` precedes the current time.
    pub fn advance_to(&mut self, deadline: SimTime) {
        assert!(deadline >= self.now, "cannot advance backwards");
        while let Some(next) = self.next_completion_time() {
            if next > deadline {
                break;
            }
            self.step_to(next);
        }
        // A float dip can drain a flow a hair before its predicted
        // (ns-rounded-up) completion instant; this last step retires it
        // now rather than leaving a zero-remaining flow active.
        self.step_to(deadline);
    }

    /// Runs until every active flow has completed, returning the finish
    /// time. Flows that are rate-starved (zero-capacity path) are reported
    /// via panic — they indicate a topology configuration error.
    ///
    /// # Panics
    ///
    /// Panics if active flows exist but none can make progress.
    pub fn run_to_completion(&mut self) -> SimTime {
        while self.table.live > 0 {
            #[expect(
                clippy::expect_used,
                reason = "documented panic — rate-starved flows indicate a topology configuration error (see # Panics)"
            )]
            let next = self
                .next_completion_time()
                .expect("active flows exist but none has positive rate");
            self.step_to(next);
        }
        self.now
    }

    /// Instantaneous utilisation of `link` in `[0, 1]` — the busier of its
    /// two directions.
    pub fn link_utilisation(&self, link: LinkId) -> f64 {
        let a = self.direction_utilisation(link, true);
        let b = self.direction_utilisation(link, false);
        a.max(b)
    }

    /// Instantaneous utilisation of one direction of `link`. O(1) — read
    /// from the maintained per-resource rate sums.
    pub fn direction_utilisation(&self, link: LinkId, forward: bool) -> f64 {
        let r = link.index() * 2 + usize::from(!forward);
        let cap = self.resource_capacity[r];
        if cap <= 0.0 {
            return 0.0;
        }
        (self.resource_used[r] / cap).clamp(0.0, 1.0)
    }

    /// Time-weighted mean utilisation of `link` since simulation start
    /// (mean of the two directions).
    pub fn mean_link_utilisation(&self, link: LinkId) -> f64 {
        let a = self.resource_util[link.index() * 2].mean(self.now);
        let b = self.resource_util[link.index() * 2 + 1].mean(self.now);
        (a + b) / 2.0
    }

    /// Total bytes carried over `link` (both directions).
    pub fn link_bytes_carried(&self, link: LinkId) -> f64 {
        (self.resource_bits[link.index() * 2] + self.resource_bits[link.index() * 2 + 1]) / 8.0
    }

    /// Active flows currently routed over `link` (either direction) — the
    /// fluid model's stand-in for queue depth. Answered from the inverted
    /// index in O(flows on the link), not O(all active flows).
    pub fn link_active_flows(&self, link: LinkId) -> usize {
        let fwd = &self.flows_on[link.index() * 2];
        let rev = &self.flows_on[link.index() * 2 + 1];
        fwd.len() + rev.iter().filter(|s| fwd.binary_search(s).is_err()).count()
    }

    /// Records the fabric's telemetry into `reg` as of instant `at`, at or
    /// after the simulator's clock: per-link gauges
    /// `network_link_utilisation{link}` (instantaneous, busier
    /// direction), `network_link_mean_utilisation{link}` (time-weighted
    /// since start), `network_link_bytes_carried{link}` and
    /// `network_link_active_flows{link}` (queue-depth proxy), plus the
    /// cluster-wide `network_active_flows` gauge and
    /// `network_completed_flows_total` counter. The partitioned solver
    /// adds the `network_partitions` gauge (local partition count) and
    /// the `network_partition_solves_total{partition}` counter — one
    /// series per pod/rack bucket plus `partition="shared"` for
    /// spine-crossing regions.
    ///
    /// Rates are constant until the next completion, so a caller that
    /// has retired every completion due by `at` reads the state as of
    /// `at` — bytes carried and mean utilisation are extrapolated from
    /// the current rates — without stepping the solver there.
    pub fn record_telemetry(&self, reg: &mut MetricsRegistry, at: SimTime) {
        let dt = at.saturating_duration_since(self.now).as_secs_f64();
        let bits = |r: usize| self.resource_bits[r] + self.resource_used[r] * dt;
        let mean = |r: usize| self.resource_util[r].mean(at);
        for l in self.topo.links() {
            let id = l.id.0.to_string();
            let labels = [("link", id.as_str())];
            let (fwd, rev) = (l.id.index() * 2, l.id.index() * 2 + 1);
            reg.gauge("network_link_utilisation", &labels)
                .set(at, self.link_utilisation(l.id));
            reg.gauge("network_link_mean_utilisation", &labels)
                .set(at, (mean(fwd) + mean(rev)) / 2.0);
            reg.gauge("network_link_bytes_carried", &labels)
                .set(at, (bits(fwd) + bits(rev)) / 8.0);
            reg.gauge("network_link_active_flows", &labels)
                .set(at, self.link_active_flows(l.id) as f64);
        }
        reg.gauge("network_active_flows", &[])
            .set(at, self.active_count() as f64);
        // The counter tracks the monotonic completion total, not the
        // drainable `completed` buffer: `completed().len()` shrinks on
        // `drain_completed()`, and subtracting it from the counter would
        // underflow.
        let done = reg.counter("network_completed_flows_total", &[]);
        done.add(self.completed_total.saturating_sub(done.value()));
        reg.gauge("network_partitions", &[])
            .set(at, self.partitions.partition_count() as f64);
        for (b, &solves) in self.partition_solves.iter().enumerate() {
            let label = self.partitions.bucket_label(b as u32);
            let labels = [("partition", label.as_str())];
            let c = reg.counter("network_partition_solves_total", &labels);
            c.add(solves.saturating_sub(c.value()));
        }
    }

    // ------------------------------------------------------------------

    fn path_resources(&self, src: crate::topology::DeviceId, path: &[LinkId]) -> Vec<ResourceId> {
        let mut cur = src;
        let mut out = Vec::with_capacity(path.len());
        for &lid in path {
            let link = self.topo.link(lid);
            let forward = cur == link.a;
            out.push(ResourceId(lid.index() * 2 + usize::from(!forward)));
            cur = link.other_end(cur);
        }
        out
    }

    /// Hooks the flow in `slot`, routed on `path`, into the inverted
    /// index: one push per path resource. `resources` is a simple path,
    /// so every entry is unique, and `slot` is the table's highest, so a
    /// push keeps every row ascending.
    fn index_add(&mut self, slot: u32, path: u32, resources: &[ResourceId]) {
        for r in resources {
            self.flows_on[r.0].push((slot, path));
        }
        let words = path as usize / 64 + 1;
        if self.scratch.paths_seen.len() < words {
            self.scratch.paths_seen.resize(words, 0);
        }
    }

    /// Unhooks the flow in `slot` from the inverted index: one binary
    /// search and shift per path resource.
    fn index_remove(&mut self, slot: u32, resources: &[ResourceId]) {
        for r in resources {
            let row = &mut self.flows_on[r.0];
            if let Ok(k) = row.binary_search_by_key(&slot, |&(s, _)| s) {
                row.remove(k);
            }
        }
    }

    /// Moves the clock to `to`, retires the flows that drained dry on the
    /// way and re-solves the regions they leave behind.
    fn step_to(&mut self, to: SimTime) {
        let mut finished = std::mem::take(&mut self.scratch.finished);
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        self.advance_clock(to, &mut finished);
        self.harvest_completions(&finished, &mut seeds);
        if !seeds.is_empty() {
            self.recompute_rates(&seeds);
        }
        finished.clear();
        seeds.clear();
        self.scratch.finished = finished;
        self.scratch.seeds = seeds;
    }

    /// Moves the clock forward, draining `remaining_bits` at current
    /// rates and integrating utilisation gauges. Pushes the slots of the
    /// flows that drained dry during this step onto `finished`, ascending
    /// — the same set and order a post-hoc scan would find, without a
    /// second walk. The walk is in slot (so flow-id) order, which fixes
    /// the order in which each resource accumulates its carried bits.
    fn advance_clock(&mut self, to: SimTime, finished: &mut Vec<usize>) {
        if to == self.now {
            return;
        }
        let dt = to.duration_since(self.now).as_secs_f64();
        for (slot, entry) in self.table.flows.iter_mut().enumerate() {
            let Some(af) = entry else { continue };
            let moved = af.flow.rate_bps * dt;
            af.flow.remaining_bits = (af.flow.remaining_bits - moved).max(0.0);
            if af.flow.remaining_bits <= EPSILON_BITS {
                finished.push(slot);
            }
            for r in &af.resources {
                self.resource_bits[r.0] += moved;
            }
        }
        self.now = to;
    }

    /// Retires the drained flows, unhooks them from the inverted index
    /// and pushes their resources onto `seeds`, the dirty seed for the
    /// next recompute. Active flows always carry `remaining_bits` above
    /// the epsilon outside [`FlowSimulator::advance_clock`], so the drain
    /// walk's harvest list is exhaustive.
    fn harvest_completions(&mut self, finished: &[usize], seeds: &mut Vec<ResourceId>) {
        for &slot in finished {
            let Some(af) = self.table.retire(slot) else {
                continue; // slot was occupied moments ago
            };
            self.index_remove(slot as u32, &af.resources);
            seeds.extend(af.resources.iter().copied());
            self.completed.push(CompletedFlow {
                id: af.flow.id,
                spec: af.flow.spec,
                started: af.flow.started,
                finished: self.now.saturating_add(af.prop_latency),
            });
            self.completed_total += 1;
        }
    }

    /// Fills `s.jobs` with the gathered regions a change seeded at
    /// `seeds` can influence, one job per connected component of the
    /// sharing graph, each taken from the free list: in
    /// [`RecomputeMode::Full`], a single region spanning everything; in
    /// [`RecomputeMode::Incremental`], the transitive closure of flows
    /// and resources reachable from each seed resource through the
    /// inverted index. Every region is bi-closed (every flow of a region
    /// resource is in the region and vice versa) and regions are
    /// mutually disjoint, which is exactly what makes the restricted
    /// solves bit-identical to the full one *and* safe to run
    /// concurrently. Regions are ordered by first seed, resources
    /// ascending within each. A seed no flow crosses any more is
    /// settled ([`FlowSimulator::settle`]) instead of taking a job.
    fn dirty_regions(&mut self, seeds: &[ResourceId], s: &mut Scratch) {
        match self.mode {
            RecomputeMode::Full => {
                let mut job = s.free.pop().unwrap_or_default();
                job.res_list.clear();
                job.res_list.extend(0..self.resource_capacity.len());
                for (slot, entry) in self.table.flows.iter().enumerate() {
                    if entry.is_some() {
                        s.marks[slot / 64] |= 1 << (slot % 64);
                    }
                }
                self.push_region(job, s);
            }
            RecomputeMode::Incremental => {
                // A resource joins a region iff some flow crosses both it
                // and a resource already inside. The walk marks every
                // flow it passes for the gather, and expands only the
                // first flow of each path: flows on one path cross the
                // same resources. Seeds landing in an already-built
                // region are skipped, so a burst spanning several
                // components yields one region per component.
                for seed in seeds {
                    if s.res_in[seed.0] {
                        continue;
                    }
                    s.res_in[seed.0] = true;
                    if self.flows_on[seed.0].is_empty() {
                        self.settle(seed.0);
                        continue;
                    }
                    s.frontier.push(seed.0);
                    let mut job = s.free.pop().unwrap_or_default();
                    job.res_list.clear();
                    while let Some(r) = s.frontier.pop() {
                        job.res_list.push(r);
                        for &(slot, path) in &self.flows_on[r] {
                            s.marks[slot as usize / 64] |= 1 << (slot % 64);
                            let (w, bit) = (path as usize / 64, 1 << (path % 64));
                            if s.paths_seen[w] & bit != 0 {
                                continue;
                            }
                            s.paths_seen[w] |= bit;
                            s.paths.push(path);
                            for r2 in &self.table.at(slot).resources {
                                if !s.res_in[r2.0] {
                                    s.res_in[r2.0] = true;
                                    s.frontier.push(r2.0);
                                }
                            }
                        }
                    }
                    job.res_list.sort_unstable();
                    self.push_region(job, s);
                }
                for seed in seeds {
                    s.res_in[seed.0] = false;
                }
                for job in &s.jobs {
                    for &r in &job.res_list {
                        s.res_in[r] = false;
                    }
                }
                for path in s.paths.drain(..) {
                    s.paths_seen[path as usize / 64] = 0;
                }
            }
        }
    }

    /// Settles seed `r`, which no flow crosses any more, exactly as a
    /// solve of its one-resource region would: one solve in its bucket,
    /// and a rate sum and utilisation of zero from now on.
    fn settle(&mut self, r: usize) {
        self.partition_solves[self.partitions.resource_bucket(r) as usize] += 1;
        if self.resource_used[r].to_bits() != 0 {
            self.resource_used[r] = 0.0;
            self.resource_util[r].set(self.now, 0.0);
        }
    }

    /// Counts the solve of the region in `job.res_list`, whose flows are
    /// marked in `s.marks`, gathers it and queues it on `s.jobs`.
    fn push_region(&mut self, mut job: SolveJob, s: &mut Scratch) {
        self.partition_solves[self.partitions.region_bucket(&job.res_list) as usize] += 1;
        self.gather(&mut job, &mut s.marks, &mut s.local_of);
        s.jobs.push(job);
    }

    /// Gathers the region in `job.res_list`, whose flows' bits are set in
    /// `marks` (a bitmap over the flow table, clear on return), into the
    /// job's columns: it reads the bits in slot order straight into the
    /// columns, writing each path as positions in `res_list` through
    /// `local_of`. The region is bi-closed, so the marked slots are
    /// exactly its flows, ascending by id, and every path resource has a
    /// position.
    fn gather(&self, job: &mut SolveJob, marks: &mut [u64], local_of: &mut [u32]) {
        job.capacity.clear();
        job.flow_count.clear();
        for (k, &r) in job.res_list.iter().enumerate() {
            local_of[r] = k as u32;
            job.capacity.push(self.resource_capacity[r]);
            job.flow_count.push(self.flows_on[r].len() as u32);
        }
        job.slots.clear();
        job.path_start.clear();
        job.path_start.push(0);
        job.path_res.clear();
        for (w, word) in marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let slot = (w * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                let af = self.table.at(slot);
                job.slots.push(slot);
                job.path_res
                    .extend(af.resources.iter().map(|r| local_of[r.0]));
                job.path_start.push(job.path_res.len() as u32);
            }
        }
    }

    /// Recomputes rates for the regions dirtied by a change at `seeds`
    /// and updates the per-resource rate sums and utilisation gauges —
    /// applying only the *differences*, so both recompute modes leave
    /// identical state behind.
    ///
    /// Disjoint regions are solved independently — concurrently on the
    /// worker pool when there is more than one and enough flows to pay
    /// for the hand-off, inline otherwise; both paths run the same jobs
    /// — then applied in dirty-region order, flows in ascending id order
    /// within each. Each region's arithmetic is identical whether it is
    /// solved jointly with the others, alone, or on another thread, so
    /// the result is bit-for-bit independent of both the region split
    /// and the worker count. The jobs go back on the free list
    /// afterwards.
    fn recompute_rates(&mut self, seeds: &[ResourceId]) {
        let mut s = std::mem::take(&mut self.scratch);
        s.marks.resize(self.table.flows.len().div_ceil(64), 0);
        self.dirty_regions(seeds, &mut s);
        let total_flows: usize = s.jobs.iter().map(|job| job.slots.len()).sum();
        let parallel = s.jobs.len() > 1 && total_flows >= PARALLEL_FLOWS_MIN;
        let allocator = self.allocator;
        match &self.pool {
            Some(pool) if parallel => {
                let jobs = std::mem::take(&mut s.jobs);
                s.jobs = pool.run_ordered(jobs, move |_, mut job: SolveJob| {
                    job.solve(allocator);
                    job
                });
            }
            _ => s.jobs.iter_mut().for_each(|job| job.solve(allocator)),
        }
        // Apply the solution region by region, flows ascending within
        // each, accumulating the per-resource rate sums in the same
        // pass. Regions are resource-disjoint, so every resource
        // receives its sharers' contributions in ascending id order and
        // the sums stay bit-identical whether the regions were solved
        // jointly (the full oracle), one by one, or concurrently.
        let now = self.now;
        for job in &s.jobs {
            for (&slot, &rate) in job.slots.iter().zip(&job.rates) {
                let af = self.table.at_mut(slot);
                if af.flow.rate_bps.to_bits() != rate.to_bits() {
                    af.flow.rate_bps = rate;
                    af.epoch += 1;
                    if rate > 0.0 {
                        let at = completion_at(now, af.flow.remaining_bits, rate);
                        self.completions.push(Reverse(CompletionEntry {
                            at,
                            id: af.flow.id,
                            epoch: af.epoch,
                            slot,
                        }));
                    }
                }
                for r in &af.resources {
                    s.used_new[r.0] += rate;
                }
            }
            for &r in &job.res_list {
                // Reading a sum also clears it for the next recompute.
                let used = std::mem::take(&mut s.used_new[r]);
                if used.to_bits() != self.resource_used[r].to_bits() {
                    self.resource_used[r] = used;
                    let cap = self.resource_capacity[r];
                    let u = if cap > 0.0 {
                        (used / cap).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    self.resource_util[r].set(now, u);
                }
            }
        }
        s.free.append(&mut s.jobs);
        self.scratch = s;
        self.compact();
    }

    /// Closes the flow table's holes, renumbering the slots in
    /// `flows_on` and in the completion heap, and drops stale heap
    /// entries; each is due once it outnumbers the live flows by the
    /// event engine's cancelled-set rule (`2 × live + 64`).
    fn compact(&mut self) {
        let renumber = self.table.compact();
        if renumber.is_none() && self.completions.len() <= 2 * self.table.live + 64 {
            return;
        }
        let mut entries = std::mem::take(&mut self.completions).into_vec();
        if let Some(new_slot) = renumber {
            for row in &mut self.flows_on {
                for (slot, _) in row.iter_mut() {
                    *slot = new_slot[*slot as usize];
                }
            }
            for Reverse(e) in &mut entries {
                e.slot = new_slot[e.slot as usize];
            }
        }
        entries.retain(|Reverse(e)| self.table.predicted(e).is_some());
        self.completions = entries.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DeviceId;
    use picloud_simcore::units::{Bandwidth, Bytes};

    fn two_hosts() -> (Topology, DeviceId, DeviceId) {
        let topo = Topology::multi_root_tree(2, 1, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        (topo, hosts[0], hosts[1])
    }

    fn sim(topo: Topology) -> FlowSimulator {
        FlowSimulator::new(topo, RoutingPolicy::SingleShortest, RateAllocator::MaxMin)
    }

    #[test]
    fn single_flow_gets_access_rate() {
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        s.inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
            .unwrap();
        let end = s.run_to_completion();
        // Bottleneck is the 100 Mbit access link: 8 Mbit / 100 Mbit/s ≈ 84 ms.
        let expect = 8.0 * 1024.0 * 1024.0 / 100e6;
        assert!(
            (end.as_secs_f64() - expect).abs() < 0.001,
            "end {end} vs {expect}"
        );
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn two_flows_share_common_bottleneck() {
        // Both flows leave the same host: they share its 100 Mbit uplink.
        let topo = Topology::multi_root_tree(2, 2, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut s = sim(topo);
        s.inject(
            FlowSpec::new(hosts[0], hosts[2], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        s.inject(
            FlowSpec::new(hosts[0], hosts[3], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        let end = s.run_to_completion();
        let expect = 2.0 * 8.0 * 1024.0 * 1024.0 / 100e6; // serialised by sharing
        assert!(
            (end.as_secs_f64() - expect).abs() < 0.002,
            "end {end} vs {expect}"
        );
    }

    #[test]
    fn disjoint_flows_do_not_contend() {
        let topo = Topology::multi_root_tree(2, 2, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut s = sim(topo);
        // hosts[0] -> hosts[1] within rack 0; hosts[2] -> hosts[3] within rack 1.
        s.inject(
            FlowSpec::new(hosts[0], hosts[1], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        s.inject(
            FlowSpec::new(hosts[2], hosts[3], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        let end = s.run_to_completion();
        let expect = 8.0 * 1024.0 * 1024.0 / 100e6;
        assert!((end.as_secs_f64() - expect).abs() < 0.001);
    }

    #[test]
    fn opposite_directions_are_independent() {
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        s.inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
            .unwrap();
        s.inject(FlowSpec::new(b, a, Bytes::mib(1)), SimTime::ZERO)
            .unwrap();
        let end = s.run_to_completion();
        // Full duplex: both finish as if alone.
        let expect = 8.0 * 1024.0 * 1024.0 / 100e6;
        assert!((end.as_secs_f64() - expect).abs() < 0.001, "end {end}");
    }

    #[test]
    fn max_min_redistributes_surplus_but_equal_share_does_not() {
        // Rack with 2 hosts; gig uplink shared by a cross-rack flow and an
        // in-rack flow. Equal-share under-uses; compare FCTs.
        let topo = Topology::multi_root_tree(2, 2, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let run = |alloc: RateAllocator| {
            let mut s = FlowSimulator::new(
                Topology::multi_root_tree(2, 2, 1),
                RoutingPolicy::SingleShortest,
                alloc,
            );
            // Three flows from the same source share its access link;
            // max-min and equal-share agree on symmetric demand, so build an
            // asymmetric case: two flows share a link that one of them
            // leaves early.
            s.inject(
                FlowSpec::new(hosts[0], hosts[2], Bytes::mib(8)),
                SimTime::ZERO,
            )
            .unwrap();
            s.inject(
                FlowSpec::new(hosts[1], hosts[2], Bytes::mib(8)),
                SimTime::ZERO,
            )
            .unwrap();
            s.run_to_completion().as_secs_f64()
        };
        let _ = topo;
        let mm = run(RateAllocator::MaxMin);
        let eq = run(RateAllocator::EqualShare);
        // Receiver access link (100 Mbit) is the shared bottleneck: 50 Mbit
        // each under both schemes here, but max-min must never be slower.
        assert!(mm <= eq + 1e-9, "max-min {mm} vs equal {eq}");
    }

    #[test]
    fn zero_size_flow_completes_immediately() {
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        s.inject(FlowSpec::new(a, b, Bytes::ZERO), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(s.completed().len(), 1);
        assert_eq!(s.active_count(), 0);
        assert!(s.completed()[0].finished >= SimTime::from_secs(1));
    }

    #[test]
    fn cancel_removes_flow_and_recomputes() {
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        let f1 = s
            .inject(FlowSpec::new(a, b, Bytes::mib(100)), SimTime::ZERO)
            .unwrap();
        let _f2 = s
            .inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
            .unwrap();
        let cancelled = s.cancel(f1).expect("flow was active");
        assert!(cancelled.remaining_bits > 0.0);
        let end = s.run_to_completion();
        // f2 now runs alone at full access rate.
        let expect = 8.0 * 1024.0 * 1024.0 / 100e6;
        assert!((end.as_secs_f64() - expect).abs() < 0.001);
        assert_eq!(s.completed().len(), 1);
        assert!(s.cancel(f1).is_none(), "double cancel is None");
    }

    #[test]
    fn no_route_is_reported() {
        let mut topo = Topology::new("disc");
        let a = topo.add_device(crate::topology::DeviceKind::Host { rack: 0 }, "a");
        let b = topo.add_device(crate::topology::DeviceKind::Host { rack: 1 }, "b");
        let mut s = sim(topo);
        let err = s
            .inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, InjectError::NoRoute { .. }));
        assert!(err.to_string().contains("no route"));
    }

    #[test]
    fn utilisation_accounting() {
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        s.inject(FlowSpec::new(a, b, Bytes::mib(10)), SimTime::ZERO)
            .unwrap();
        // Mid-transfer, the access link is saturated.
        let access_link = s
            .topology()
            .links()
            .iter()
            .find(|l| l.capacity.as_bps() == 100_000_000)
            .unwrap()
            .id;
        assert!(s.link_utilisation(access_link) > 0.99);
        s.run_to_completion();
        let carried = s.link_bytes_carried(access_link);
        assert!(
            (carried - 10.0 * 1024.0 * 1024.0).abs() < 1024.0,
            "carried {carried}"
        );
    }

    #[test]
    fn staggered_arrivals_are_exact() {
        // Flow A alone for 0.5 s, then shares with B.
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        // 100 Mbit/s => 12.5 MB/s. A = 12.5 MB: alone it would take 1 s.
        let mb = Bytes::new(12_500_000 / 2); // 6.25 MB = 0.5s alone
        s.inject(FlowSpec::new(a, b, Bytes::new(12_500_000)), SimTime::ZERO)
            .unwrap();
        s.inject(FlowSpec::new(a, b, mb), secs(0.5)).unwrap();
        let end = s.run_to_completion();
        // A: 0.5s alone (6.25MB done), then shares 50/50. A has 6.25MB left
        // at 6.25MB/s => 1s more. B: 6.25MB at 6.25MB/s => also 1s. Both end
        // at t=1.5.
        assert!((end.as_secs_f64() - 1.5).abs() < 0.01, "end {end}");
        assert_eq!(s.completed().len(), 2);
    }

    #[test]
    fn batch_injection_equals_sequential() {
        // A same-instant burst through inject_batch must leave the exact
        // same state as one-by-one injection: ids, rates, utilisation and
        // final completions, bit for bit.
        let topo = Topology::multi_root_tree(2, 4, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let specs: Vec<FlowSpec> = (0..6)
            .map(|i| {
                FlowSpec::new(
                    hosts[i],
                    hosts[(i + 3) % hosts.len()],
                    Bytes::mib(1 + i as u64),
                )
            })
            .collect();
        let mut one = sim(Topology::multi_root_tree(2, 4, 2));
        for spec in specs.clone() {
            one.inject(spec, secs(0.25)).unwrap();
        }
        let mut batched = sim(Topology::multi_root_tree(2, 4, 2));
        let ids = batched.inject_batch(specs, secs(0.25)).unwrap();
        assert_eq!(ids.len(), 6);
        assert_eq!(one.active_rates(), batched.active_rates());
        for l in topo.links() {
            assert_eq!(
                one.direction_utilisation(l.id, true).to_bits(),
                batched.direction_utilisation(l.id, true).to_bits()
            );
        }
        one.run_to_completion();
        batched.run_to_completion();
        assert_eq!(one.completed(), batched.completed());
    }

    #[test]
    fn batch_is_atomic_on_routing_failure() {
        let mut topo = Topology::multi_root_tree(2, 1, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let island = topo.add_device(crate::topology::DeviceKind::Host { rack: 9 }, "island");
        let mut s = sim(topo);
        let specs = vec![
            FlowSpec::new(hosts[0], hosts[1], Bytes::mib(1)),
            FlowSpec::new(hosts[0], island, Bytes::mib(1)),
        ];
        let err = s.inject_batch(specs, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, InjectError::NoRoute { .. }));
        assert_eq!(s.active_count(), 0, "failed batch must inject nothing");
        // The next successful inject still gets id 0: no ids were burned.
        let id = s
            .inject(
                FlowSpec::new(hosts[0], hosts[1], Bytes::mib(1)),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(id, FlowId(0));
    }

    #[test]
    fn cancel_between_partial_advances_is_exact() {
        // Cancel midway through a shared transfer: the survivor speeds up
        // from the cancellation instant exactly.
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        // 100 Mbit/s = 12.5 MB/s. Each flow 12.5 MB: shared => 6.25 MB/s.
        let f1 = s
            .inject(FlowSpec::new(a, b, Bytes::new(12_500_000)), SimTime::ZERO)
            .unwrap();
        let _f2 = s
            .inject(FlowSpec::new(a, b, Bytes::new(12_500_000)), SimTime::ZERO)
            .unwrap();
        s.advance_to(secs(1.0));
        let gone = s.cancel(f1).expect("still active");
        // One second at half rate: 6.25 MB of 12.5 MB remain.
        assert!((gone.remaining_bits - 6.25e6 * 8.0).abs() < 1.0);
        let end = s.run_to_completion();
        // Survivor has 6.25 MB left and now runs alone at 12.5 MB/s: +0.5 s.
        assert!((end.as_secs_f64() - 1.5).abs() < 0.001, "end {end}");
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn reinjection_after_total_drain() {
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        s.inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
            .unwrap();
        s.run_to_completion();
        let drained = s.drain_completed();
        assert_eq!(drained.len(), 1);
        assert_eq!(s.completed().len(), 0);
        assert_eq!(s.completed_total(), 1);
        // The fabric is idle and drained; a second generation of flows
        // must behave exactly like the first (index fully unhooked).
        let start = s.now();
        let id = s.inject(FlowSpec::new(a, b, Bytes::mib(1)), start).unwrap();
        assert_eq!(id, FlowId(1));
        let end = s.run_to_completion();
        let expect = 8.0 * 1024.0 * 1024.0 / 100e6;
        assert!(
            (end.duration_since(start).as_secs_f64() - expect).abs() < 0.001,
            "second generation FCT"
        );
        assert_eq!(s.completed().len(), 1);
        assert_eq!(s.completed_total(), 2);
    }

    #[test]
    fn weighted_flows_on_zero_capacity_link_are_starved() {
        let mut topo = Topology::new("dead-link");
        let a = topo.add_device(crate::topology::DeviceKind::Host { rack: 0 }, "a");
        let b = topo.add_device(crate::topology::DeviceKind::Host { rack: 0 }, "b");
        topo.add_link(a, b, Bandwidth::ZERO, SimDuration::from_nanos(100));
        let mut s = sim(topo);
        for _ in 0..2 {
            s.inject(FlowSpec::new(a, b, Bytes::mib(1)), SimTime::ZERO)
                .unwrap();
        }
        // Both flows are routed but starved: no completion instant exists,
        // time passes without progress, and cancel still unwinds cleanly.
        assert_eq!(s.next_completion_time(), None);
        s.advance_to(secs(5.0));
        assert_eq!(s.active_count(), 2);
        for (_, rate) in s.active_rates() {
            assert_eq!(rate, 0.0);
        }
        let gone = s.cancel(FlowId(0)).expect("still active");
        assert_eq!(gone.remaining_bits, 1024.0 * 1024.0 * 8.0);
        assert_eq!(s.active_count(), 1);
    }

    #[test]
    fn cross_allocator_runs_are_byte_identical() {
        // The same schedule replayed twice under each allocator must
        // produce identical state — rates, completions and utilisation —
        // down to the last bit (the determinism doctrine).
        let run = |alloc: RateAllocator| {
            let topo = Topology::multi_root_tree(2, 4, 2);
            let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
            let mut s = FlowSimulator::new(topo, RoutingPolicy::Ecmp { max_paths: 4 }, alloc);
            for i in 0..8u64 {
                let src = hosts[(i as usize) % hosts.len()];
                let dst = hosts[(i as usize * 5 + 2) % hosts.len()];
                if src != dst {
                    s.inject(
                        FlowSpec::new(src, dst, Bytes::kib(64 + 17 * i)),
                        secs(0.01 * i as f64),
                    )
                    .unwrap();
                }
            }
            s.cancel(FlowId(2));
            s.run_to_completion();
            format!("{:?} {:?}", s.completed(), s.active_rates())
        };
        assert_eq!(run(RateAllocator::MaxMin), run(RateAllocator::MaxMin));
        assert_eq!(
            run(RateAllocator::EqualShare),
            run(RateAllocator::EqualShare)
        );
    }

    #[test]
    fn incremental_matches_full_oracle_on_disjoint_components() {
        // Two rack-local flows never share a resource with a cross-rack
        // pair; the incremental solver must still agree with the oracle
        // at every step.
        let build = |mode: RecomputeMode| {
            let topo = Topology::multi_root_tree(2, 4, 2);
            let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
            let mut s = sim(topo);
            s.set_recompute_mode(mode);
            s.inject(
                FlowSpec::new(hosts[0], hosts[1], Bytes::mib(3)),
                SimTime::ZERO,
            )
            .unwrap();
            s.inject(
                FlowSpec::new(hosts[4], hosts[5], Bytes::mib(2)),
                SimTime::ZERO,
            )
            .unwrap();
            s.inject(FlowSpec::new(hosts[1], hosts[6], Bytes::mib(5)), secs(0.05))
                .unwrap();
            s.advance_to(secs(0.1));
            let mid = s.active_rates();
            s.run_to_completion();
            (mid, format!("{:?}", s.completed()))
        };
        let (inc_mid, inc_done) = build(RecomputeMode::Incremental);
        let (full_mid, full_done) = build(RecomputeMode::Full);
        assert_eq!(inc_mid, full_mid);
        assert_eq!(inc_done, full_done);
    }

    #[test]
    fn telemetry_counter_survives_drain() {
        // Regression: the completed-flows counter used to subtract the
        // drainable buffer length and underflowed after drain_completed().
        use picloud_simcore::telemetry::MetricsRegistry;
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        s.inject(FlowSpec::new(a, b, Bytes::ZERO), SimTime::ZERO)
            .unwrap();
        s.record_telemetry(&mut reg, s.now());
        s.drain_completed();
        s.inject(FlowSpec::new(a, b, Bytes::ZERO), SimTime::ZERO)
            .unwrap();
        s.record_telemetry(&mut reg, s.now());
        assert_eq!(reg.counter("network_completed_flows_total", &[]).value(), 2);
    }

    #[test]
    fn telemetry_read_ahead_matches_a_stepped_clock() {
        // Between events rates are constant: reading at 1 s without
        // stepping equals stepping to 1 s and reading there.
        use picloud_simcore::telemetry::MetricsRegistry;
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        s.inject(FlowSpec::new(a, b, Bytes::mib(100)), SimTime::ZERO)
            .unwrap();
        let at = SimTime::from_secs(1);
        let mut stepped = s.clone();
        stepped.advance_to(at);
        let read = |sim: &FlowSimulator| {
            let mut reg = MetricsRegistry::new(SimTime::ZERO);
            sim.record_telemetry(&mut reg, at);
            reg.snapshot(at).to_jsonl()
        };
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(read(&s), read(&stepped));
        assert!(read(&s).contains("network_link_bytes_carried"));
    }

    #[test]
    fn completion_heap_compacts_stale_entries() {
        // Repeated cancels re-rate the survivor over and over and leave a
        // hole in the flow table each time: the heap and the table must
        // not grow without bound, and the survivor must come through the
        // table's many compactions intact.
        let (topo, a, b) = two_hosts();
        let mut s = sim(topo);
        let survivor = s
            .inject(FlowSpec::new(a, b, Bytes::mib(100)), SimTime::ZERO)
            .unwrap();
        for _ in 0..400 {
            let id = s
                .inject(FlowSpec::new(a, b, Bytes::mib(1)), s.now())
                .unwrap();
            s.cancel(id);
        }
        let live = s.table.live;
        assert!(
            s.completions.len() <= 2 * live + 64,
            "heap grew to {} entries",
            s.completions.len()
        );
        assert!(
            s.table.flows.len() - live <= 2 * live + 64,
            "table kept {} slots for {live} flows",
            s.table.flows.len()
        );
        // Alone on its path, the survivor runs at the 100 Mbit access rate.
        assert_eq!(s.active_rates(), vec![(survivor, 100e6)]);
        let slot = s.table.slot_of(survivor).expect("active") as u32;
        let path = s.table.at(slot).flow.path.clone();
        for l in s.topology().links() {
            assert_eq!(
                s.link_active_flows(l.id),
                usize::from(path.contains(&l.id)),
                "{:?}",
                l.id
            );
        }
        let next = s.next_completion_time().expect("the survivor has a rate");
        assert_eq!(s.run_to_completion(), next);
        assert_eq!(s.completed().len(), 1);
    }

    #[test]
    fn a_lone_flows_completion_settles_every_emptied_resource() {
        // A completing lone flow leaves each resource it crossed with no
        // flow: each is settled where the walk finds it, as its own
        // one-resource solve, and reads exactly what the from-scratch
        // oracle leaves behind.
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let loaded = |mode: RecomputeMode| {
            let mut s = sim(topo.clone());
            s.set_recompute_mode(mode);
            // Rack 0 to rack 2: both racks' buckets and the shared spine.
            s.inject(
                FlowSpec::new(hosts[0], hosts[30], Bytes::mib(1)),
                SimTime::ZERO,
            )
            .unwrap();
            s
        };
        let mut inc = loaded(RecomputeMode::Incremental);
        let mut full = loaded(RecomputeMode::Full);
        let crossed: Vec<(LinkId, bool)> = inc
            .table
            .at(0)
            .resources
            .iter()
            .map(|r| (LinkId((r.0 / 2) as u32), r.0 % 2 == 0))
            .collect();
        let mut want = inc.partition_solves().to_vec();
        for r in &inc.table.at(0).resources {
            want[inc.partitions.resource_bucket(r.0) as usize] += 1;
        }
        for &(link, forward) in &crossed {
            assert!(inc.direction_utilisation(link, forward) > 0.0);
        }
        assert_eq!(inc.run_to_completion(), full.run_to_completion());
        assert_eq!(inc.partition_solves(), want.as_slice());
        let shared = inc.partition_map().shared_id() as usize;
        assert!(want[0] > 0 && want[2] > 0 && want[shared] > 0, "{want:?}");
        for &(link, forward) in &crossed {
            assert_eq!(inc.direction_utilisation(link, forward), 0.0);
        }
        for l in topo.links() {
            assert_eq!(
                inc.mean_link_utilisation(l.id).to_bits(),
                full.mean_link_utilisation(l.id).to_bits()
            );
            assert_eq!(
                inc.link_bytes_carried(l.id).to_bits(),
                full.link_bytes_carried(l.id).to_bits()
            );
        }
    }

    #[test]
    fn same_host_flow_completes_at_injection() {
        // A flow from a host to itself crosses no fabric resource, so it
        // completes where it is injected, like a zero-size flow, alone or
        // inside a burst, instead of waiting forever for a rate.
        let topo = Topology::multi_root_tree(2, 2, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut s = sim(topo);
        let at = SimTime::from_secs(1);
        let id = s
            .inject(FlowSpec::new(hosts[0], hosts[0], Bytes::mib(1)), at)
            .unwrap();
        assert_eq!(s.active_count(), 0);
        assert_eq!((s.completed()[0].id, s.completed()[0].finished), (id, at));
        let ids = s
            .inject_batch(
                vec![
                    FlowSpec::new(hosts[1], hosts[2], Bytes::mib(1)),
                    FlowSpec::new(hosts[3], hosts[3], Bytes::mib(1)),
                ],
                at,
            )
            .unwrap();
        assert_eq!(s.active_count(), 1);
        assert_eq!(
            (s.completed()[1].id, s.completed()[1].finished),
            (ids[1], at)
        );
        assert!(s.run_to_completion() > at);
        assert_eq!(s.completed_total(), 3);
    }

    #[test]
    fn boundary_completions_are_harvested_exactly_once() {
        // Two equal-sized rack-local flows live in *different* partitions
        // and complete at exactly the same instant — the partition
        // boundary epoch. Advancing precisely to that instant (and then
        // again to the same instant) must record each completion exactly
        // once: the harvest removes a flow from the active set before its
        // record is pushed, and advance_clock is a no-op on a zero-width
        // step, so a double count cannot happen.
        let topo = Topology::multi_root_tree(2, 2, 1);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut s = sim(topo);
        assert_eq!(s.partition_map().partition_count(), 2);
        s.inject(
            FlowSpec::new(hosts[0], hosts[1], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        s.inject(
            FlowSpec::new(hosts[2], hosts[3], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        let boundary = s.next_completion_time().expect("two live flows");
        s.advance_to(boundary);
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.completed().len(), 2);
        assert_eq!(s.completed_total(), 2);
        // Re-advancing to the very same boundary must change nothing.
        s.advance_to(boundary);
        assert_eq!(s.completed().len(), 2);
        assert_eq!(s.completed_total(), 2);
        let mut ids: Vec<FlowId> = s.completed().iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2, "each flow completed exactly once");
    }

    #[test]
    fn stepping_exactly_on_every_completion_boundary_counts_each_flow_once() {
        // Walk the clock completion-by-completion, always stopping dead
        // on the predicted boundary instant (the worst case for a
        // harvest double count), across partitions and shared resources.
        let topo = Topology::multi_root_tree(2, 4, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut s = sim(topo);
        let n = 6u64;
        for i in 0..n {
            s.inject(
                FlowSpec::new(
                    hosts[(i as usize) % hosts.len()],
                    hosts[(i as usize * 3 + 1) % hosts.len()],
                    Bytes::kib(256 + 64 * i),
                ),
                SimTime::ZERO,
            )
            .unwrap();
        }
        while let Some(at) = s.next_completion_time() {
            let before = s.completed_total();
            s.advance_to(at);
            assert!(s.completed_total() > before, "boundary step made progress");
            s.advance_to(at); // zero-width re-advance at the boundary
        }
        assert_eq!(s.active_count(), 0);
        assert_eq!(s.completed_total(), n);
        let mut ids: Vec<FlowId> = s.completed().iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n as usize, "no flow was harvested twice");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The same workload at 1, 2 and 8 workers must be bit-identical
        // (the pool only reorders scheduling, never arithmetic).
        let run = |workers: usize| {
            let topo = Topology::fat_tree(4);
            let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
            let mut s = FlowSimulator::new(
                topo,
                RoutingPolicy::Ecmp { max_paths: 4 },
                RateAllocator::MaxMin,
            )
            .with_workers(workers);
            // A burst big enough to clear PARALLEL_FLOWS_MIN, spread over
            // several pods so multiple regions solve concurrently.
            let specs: Vec<FlowSpec> = (0..96u64)
                .map(|i| {
                    let pod = (i % 4) as usize;
                    let base = pod * 4; // k=4: 4 hosts per pod
                    let src = hosts[base + (i as usize / 4) % 4];
                    let dst = hosts[base + (i as usize / 4 + 1 + (i as usize % 3)) % 4];
                    FlowSpec::new(src, dst, Bytes::kib(128 + 32 * (i % 7)))
                })
                .filter(|spec| spec.src != spec.dst)
                .collect();
            s.inject_batch(specs, SimTime::ZERO).unwrap();
            s.run_to_completion();
            format!("{:?} {:?}", s.completed(), s.partition_solves())
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn partition_solves_attribute_local_and_shared_regions() {
        let topo = Topology::fat_tree(4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let mut s = sim(topo);
        // Pod-local flow: solved in its pod's bucket.
        s.inject(
            FlowSpec::new(hosts[0], hosts[1], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        let shared = s.partition_map().shared_id() as usize;
        assert!(s.partition_solves()[0] > 0, "pod-0 region solved");
        assert_eq!(s.partition_solves()[shared], 0);
        // Cross-pod flow: its region crosses the spine → shared bucket.
        s.inject(
            FlowSpec::new(hosts[0], hosts[15], Bytes::mib(1)),
            SimTime::ZERO,
        )
        .unwrap();
        assert!(s.partition_solves()[shared] > 0, "spine region solved");
    }

    #[test]
    fn clones_and_mode_switches_mid_run_end_bit_identical() {
        // The recompute path keeps its jobs and scratch between calls;
        // none of it may carry state into a result. A simulator cloned
        // mid-run (the clone and the original both carry on), and one
        // switched Incremental -> Full -> Incremental mid-run, must end
        // bit-identical to an untouched run: the same rates before the
        // drain, the same completion records after it.
        let topo = Topology::fat_tree(4);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        let spec = |i: usize| {
            // (7i + 3) - i = 6i + 3 is odd, so never 0 mod 16: src != dst.
            FlowSpec::new(
                hosts[i % 16],
                hosts[(7 * i + 3) % 16],
                Bytes::kib(64 + 48 * (i as u64 % 11)),
            )
        };
        let drive = |s: &mut FlowSimulator, rounds: std::ops::Range<usize>| {
            for i in rounds {
                s.inject_batch(vec![spec(2 * i), spec(2 * i + 1)], secs(0.004 * i as f64))
                    .unwrap();
                if i % 5 == 4 {
                    s.cancel(FlowId(i as u64));
                }
            }
        };
        let finish = |mut s: FlowSimulator| {
            let rates: Vec<(FlowId, u64)> = s
                .active_rates()
                .into_iter()
                .map(|(id, rate)| (id, rate.to_bits()))
                .collect();
            s.run_to_completion();
            (rates, s.drain_completed())
        };
        let fresh = || {
            FlowSimulator::new(
                Topology::fat_tree(4),
                RoutingPolicy::Ecmp { max_paths: 4 },
                RateAllocator::MaxMin,
            )
        };

        let mut untouched = fresh();
        drive(&mut untouched, 0..40);
        let expected = finish(untouched);
        assert!(!expected.0.is_empty(), "flows are still active mid-run");

        let mut original = fresh();
        drive(&mut original, 0..20);
        let mut copy = original.clone();
        drive(&mut original, 20..40);
        drive(&mut copy, 20..40);
        assert_eq!(finish(original), expected, "the original after a clone");
        assert_eq!(finish(copy), expected, "the clone");

        let mut switched = fresh();
        drive(&mut switched, 0..13);
        switched.set_recompute_mode(RecomputeMode::Full);
        drive(&mut switched, 13..26);
        switched.set_recompute_mode(RecomputeMode::Incremental);
        drive(&mut switched, 26..40);
        assert_eq!(
            finish(switched),
            expected,
            "Incremental -> Full -> Incremental"
        );
    }

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }
}
