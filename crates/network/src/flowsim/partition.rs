//! Topology partitioning and the deterministic solver worker pool.
//!
//! The fabric's sharing graph decomposes along the physical topology: a
//! pod-local flow can only ever contend with flows inside the same pod
//! (fat-tree) or rack (multi-root tree / leaf–spine), because every path
//! out of the pod crosses the *spine* — the core/gateway layer. The
//! [`PartitionMap`] derives that decomposition structurally, with no
//! second source of truth:
//!
//! 1. the **spine** is every [`DeviceKind::Core`] and
//!    [`DeviceKind::Gateway`] device, plus every
//!    [`DeviceKind::Aggregation`] switch directly attached to a core or
//!    gateway *when removing it disconnects the edge layer* — concretely,
//!    aggregation switches adjacent to a gateway (the multi-root tree,
//!    where aggregation roots *are* the shared layer). Fat-tree
//!    aggregation switches attach only to cores and therefore stay inside
//!    their pod partition;
//! 2. the **local partitions** are the connected components of the device
//!    graph with the spine removed, numbered ascending by their smallest
//!    member [`DeviceId`] — racks on the multi-root tree and leaf–spine,
//!    pods on the fat-tree;
//! 3. each **resource** (one direction of one link) is owned by the
//!    partition containing both endpoints, or by the *shared spine*
//!    bucket when either endpoint is a spine device.
//!
//! The flow simulator consults the map to attribute each dirty region
//! to a partition (the `network_partition_solves_total` telemetry);
//! disjoint regions are solved concurrently on [`SolverPool`], the
//! deterministic ordered worker pool. See DESIGN.md §4c for the
//! bit-for-bit argument.

use crate::topology::{DeviceId, DeviceKind, Topology};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

/// Sentinel partition index for the shared spine (core/gateway layer).
/// Stored as `u32::MAX` internally; exposed through
/// [`PartitionMap::shared_id`] as one past the last local partition.
const SPINE: u32 = u32::MAX;

/// Which partition (pod / rack) owns each device and link direction.
///
/// Derived once from the [`Topology`] by [`PartitionMap::derive`]; the
/// derivation is a pure function of the topology, so two simulators over
/// the same fabric always agree on partition boundaries.
///
/// # Example
///
/// ```
/// use picloud_network::flowsim::partition::PartitionMap;
/// use picloud_network::topology::Topology;
///
/// // k = 4 fat-tree: 4 pods of 4 hosts; cores form the shared spine.
/// let topo = Topology::fat_tree(4);
/// let map = PartitionMap::derive(&topo);
/// assert_eq!(map.partition_count(), 4);
/// let parts: Vec<_> = topo.hosts().map(|h| map.device_partition(h.id)).collect();
/// assert!(parts.iter().all(|p| p.is_some()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    /// Number of local (non-spine) partitions.
    n_local: u32,
    /// Partition per device; `SPINE` for spine devices.
    device_part: Vec<u32>,
    /// Partition per resource (2 per link); `SPINE` for spine-crossing
    /// directions.
    resource_part: Vec<u32>,
}

impl PartitionMap {
    /// Derives the partition map from `topo` (see the module docs for the
    /// spine rule). Deterministic: partitions are numbered ascending by
    /// their smallest member device id.
    pub fn derive(topo: &Topology) -> PartitionMap {
        let n_dev = topo.devices().len();
        let is_spine: Vec<bool> = topo
            .devices()
            .iter()
            .map(|d| match d.kind {
                DeviceKind::Core | DeviceKind::Gateway => true,
                DeviceKind::Aggregation => topo
                    .neighbours(d.id)
                    .iter()
                    .any(|(n, _)| matches!(topo.device(*n).kind, DeviceKind::Gateway)),
                DeviceKind::Host { .. } | DeviceKind::TopOfRack { .. } => false,
            })
            .collect();
        // Label connected components of the graph minus the spine, in
        // ascending order of each component's first-seen device id.
        let mut device_part = vec![SPINE; n_dev];
        let mut n_local = 0u32;
        let mut stack: Vec<DeviceId> = Vec::new();
        for d in topo.devices() {
            let di = d.id.0 as usize;
            if is_spine[di] || device_part[di] != SPINE {
                continue;
            }
            device_part[di] = n_local;
            stack.push(d.id);
            while let Some(v) = stack.pop() {
                for &(n, _) in topo.neighbours(v) {
                    let ni = n.0 as usize;
                    if !is_spine[ni] && device_part[ni] == SPINE {
                        device_part[ni] = n_local;
                        stack.push(n);
                    }
                }
            }
            n_local += 1;
        }
        let mut resource_part = Vec::with_capacity(topo.links().len() * 2);
        for l in topo.links() {
            let (pa, pb) = (device_part[l.a.0 as usize], device_part[l.b.0 as usize]);
            let owner = if pa == pb { pa } else { SPINE };
            // Both directions of a link share an owner.
            resource_part.push(owner);
            resource_part.push(owner);
        }
        PartitionMap {
            n_local,
            device_part,
            resource_part,
        }
    }

    /// Number of local partitions (pods / racks), excluding the spine.
    pub fn partition_count(&self) -> usize {
        self.n_local as usize
    }

    /// Number of partition buckets: every local partition plus the
    /// shared-spine bucket, one `network_partition_solves_total` series
    /// each.
    pub fn shard_count(&self) -> usize {
        self.n_local as usize + 1
    }

    /// The index of the shared-spine bucket — one past the last local
    /// partition, so `0..=shared_id()` enumerates every bucket.
    pub fn shared_id(&self) -> u32 {
        self.n_local
    }

    /// The local partition owning `device`, or `None` for spine devices.
    pub fn device_partition(&self, device: DeviceId) -> Option<u32> {
        match self.device_part[device.0 as usize] {
            SPINE => None,
            p => Some(p),
        }
    }

    /// The bucket owning resource `res` (a link-direction index as used
    /// by the flow simulator): a local partition id, or
    /// [`PartitionMap::shared_id`] for spine-crossing resources.
    pub fn resource_bucket(&self, res: usize) -> u32 {
        match self.resource_part[res] {
            SPINE => self.n_local,
            p => p,
        }
    }

    /// The bucket owning a whole region (a set of resource indices): the
    /// common local partition if every resource agrees, otherwise the
    /// shared-spine bucket. An empty region maps to the spine.
    pub fn region_bucket(&self, res_list: &[usize]) -> u32 {
        let mut owner = None;
        for &r in res_list {
            let b = self.resource_bucket(r);
            match owner {
                None => owner = Some(b),
                Some(o) if o == b => {}
                Some(_) => return self.n_local,
            }
        }
        owner.unwrap_or(self.n_local)
    }

    /// Human-readable bucket label: `"p3"` for local partitions,
    /// `"shared"` for the spine bucket — the `partition` telemetry label.
    pub fn bucket_label(&self, bucket: u32) -> String {
        if bucket >= self.n_local {
            "shared".to_string()
        } else {
            format!("p{bucket}")
        }
    }
}

/// A boxed unit of work shipped to the persistent solver pool.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// Queue state shared between the pool handle and its worker threads.
struct PoolState {
    tasks: VecDeque<PoolTask>,
    shutdown: bool,
}

/// The synchronisation core of the pool: one mutex-guarded task queue
/// and a condvar the workers park on while it is empty.
struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
}

/// Locks the pool queue. Tasks run *outside* the lock, so the mutex can
/// only be poisoned by a panic inside the queue plumbing itself — which
/// already poisoned the solve.
#[expect(
    clippy::expect_used,
    reason = "tasks execute outside the lock; poison implies a panicked solve and propagating is the only sound recovery"
)]
fn lock_pool(m: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    m.lock().expect("solver pool mutex poisoned")
}

/// The loop each persistent worker runs: pop a task, execute it with the
/// queue unlocked, park on the condvar when the queue is empty, exit on
/// shutdown. Workers carry no RNG and never read the wall clock; all
/// ordering is restored by the caller (results land in index slots), so
/// scheduling order cannot leak into simulation bits.
fn pool_worker(shared: &PoolShared) {
    loop {
        #[expect(
            clippy::expect_used,
            reason = "same poison argument as lock_pool — a poisoned queue means a solve already panicked"
        )]
        let task = {
            let mut state = lock_pool(&shared.state);
            loop {
                if let Some(t) = state.tasks.pop_front() {
                    break Some(t);
                }
                if state.shutdown {
                    break None;
                }
                let waited = shared.ready.wait(state);
                state = waited.expect("solver pool mutex poisoned");
            }
        };
        match task {
            Some(t) => t(),
            None => break,
        }
    }
}

/// The persistent, quarantined worker pool for ordered solves — the only
/// sanctioned concurrency primitive in the simulation crates (lint rule
/// D4).
///
/// The flow simulator owns one for its hot path: `recompute_rates` fires
/// on every inject/completion/cancel, and paying thread start-up each
/// time would swamp small regional solves. The estimator builds one per
/// representative fan-out. Tasks are queued under a mutex, workers park
/// on a condvar between solves, and results are returned **in item
/// order** through per-call channels, so the merge order, and therefore
/// every downstream bit, is independent of thread interleaving.
///
/// Workers hold no RNG, never read the clock, and share no mutable state
/// beyond the task queue. Dropping the pool shuts the workers down and
/// joins them.
///
/// # Example
///
/// ```
/// use picloud_network::flowsim::partition::SolverPool;
///
/// let pool = SolverPool::new(4);
/// let squares = pool.run_ordered(vec![1u64, 2, 3, 4, 5], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub struct SolverPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl std::fmt::Debug for SolverPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverPool")
            .field("size", &self.size)
            .finish()
    }
}

impl SolverPool {
    /// Builds a pool of `workers` persistent threads (clamped to at
    /// least 1). A pool of size 1 spawns no threads at all: every
    /// [`SolverPool::run_ordered`] call runs inline on the caller — the
    /// serial reference path.
    pub fn new(workers: usize) -> SolverPool {
        let size = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let mut threads = Vec::new();
        if size > 1 {
            for _ in 0..size {
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "persistent worker of the quarantined pool; order restored by index slots in run_ordered"
                )]
                threads.push(std::thread::spawn(move || pool_worker(&shared)));
            }
        }
        SolverPool {
            shared,
            threads,
            size,
        }
    }

    /// The worker count this pool was built with.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Applies `f` to every item on the persistent workers and returns
    /// the outputs **in item order**, regardless of scheduling. Items are
    /// owned (`'static`) because the workers outlive any one call; with
    /// one worker or fewer than two items, `f` runs inline on the caller
    /// — the serial reference path.
    #[expect(
        clippy::expect_used,
        reason = "each of the n queued tasks sends exactly one indexed result"
    )]
    pub fn run_ordered<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        let n = items.len();
        if self.threads.is_empty() || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, it)| f(i, it))
                .collect();
        }
        let f = Arc::new(f);
        let (tx, rx) = mpsc::channel::<(usize, O)>();
        {
            let mut state = lock_pool(&self.shared.state);
            for (i, item) in items.into_iter().enumerate() {
                let f = Arc::clone(&f);
                let tx = tx.clone();
                state.tasks.push_back(Box::new(move || {
                    let _ = tx.send((i, f(i, item)));
                }));
            }
        }
        self.shared.ready.notify_all();
        drop(tx);
        let mut out: Vec<Option<O>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for _ in 0..n {
            #[expect(
                clippy::expect_used,
                reason = "recv fails only when a worker panicked mid-solve; propagating the panic is the only sound recovery"
            )]
            let (i, o) = rx.recv().expect("solver pool worker panicked");
            out[i] = Some(o);
        }
        out.into_iter()
            .map(|o| o.expect("solver pool left a slot unfilled"))
            .collect()
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        lock_pool(&self.shared.state).shutdown = true;
        self.shared.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The worker-pool size experiment drivers and benches should use: the
/// `PICLOUD_FLOW_WORKERS` environment variable when set to a positive
/// integer, `1` (the serial reference path) otherwise.
///
/// Reading the environment does *not* weaken the determinism contract:
/// worker count never changes results — `tests/flowsim_equiv.rs` pins
/// bit-for-bit state equality across 1, 2 and 8 workers — so this knob
/// only moves wall-clock time, never a single simulated bit.
pub fn default_workers() -> usize {
    std::env::var("PICLOUD_FLOW_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_root_tree_partitions_by_rack() {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let map = PartitionMap::derive(&topo);
        // Aggregation roots hang off the gateway: they are spine, so each
        // rack (ToR + 14 hosts) is its own partition.
        assert_eq!(map.partition_count(), 4);
        for h in topo.hosts() {
            let rack = h.kind.rack().unwrap();
            let tor = topo
                .devices()
                .iter()
                .find(|d| matches!(d.kind, DeviceKind::TopOfRack { rack: r } if r == rack))
                .unwrap();
            assert_eq!(map.device_partition(h.id), map.device_partition(tor.id));
        }
        for d in topo.devices() {
            match d.kind {
                DeviceKind::Aggregation | DeviceKind::Core | DeviceKind::Gateway => {
                    assert_eq!(map.device_partition(d.id), None, "{} must be spine", d.name);
                }
                _ => assert!(map.device_partition(d.id).is_some()),
            }
        }
    }

    #[test]
    fn fat_tree_partitions_by_pod() {
        let topo = Topology::fat_tree(4);
        let map = PartitionMap::derive(&topo);
        assert_eq!(map.partition_count(), 4, "k=4 fat-tree has 4 pods");
        // Fat-tree aggregation switches touch only cores and edge
        // switches: they stay inside their pod.
        let agg_parts: Vec<_> = topo
            .devices()
            .iter()
            .filter(|d| matches!(d.kind, DeviceKind::Aggregation))
            .map(|d| map.device_partition(d.id))
            .collect();
        assert!(agg_parts.iter().all(|p| p.is_some()));
        for d in topo.devices() {
            if matches!(d.kind, DeviceKind::Core) {
                assert_eq!(map.device_partition(d.id), None);
            }
        }
        // Every resource bucket is either a pod or the shared spine.
        let buckets: Vec<u32> = (0..topo.links().len() * 2)
            .map(|r| map.resource_bucket(r))
            .collect();
        assert!(buckets.iter().all(|&b| b <= map.shared_id()));
        assert!(buckets.contains(&map.shared_id()), "core links are shared");
    }

    #[test]
    fn leaf_spine_partitions_by_leaf() {
        let topo = Topology::leaf_spine(4, 6, 2);
        let map = PartitionMap::derive(&topo);
        assert_eq!(map.partition_count(), 4);
    }

    #[test]
    fn region_bucket_collapses_mixed_regions_to_shared() {
        let topo = Topology::fat_tree(4);
        let map = PartitionMap::derive(&topo);
        let p0: Vec<usize> = (0..topo.links().len() * 2)
            .filter(|&r| map.resource_bucket(r) == 0)
            .collect();
        let p1: Vec<usize> = (0..topo.links().len() * 2)
            .filter(|&r| map.resource_bucket(r) == 1)
            .collect();
        assert_eq!(map.region_bucket(&p0), 0);
        assert_eq!(map.region_bucket(&p1), 1);
        let mixed: Vec<usize> = p0.iter().chain(p1.iter()).copied().collect();
        assert_eq!(map.region_bucket(&mixed), map.shared_id());
        assert_eq!(map.region_bucket(&[]), map.shared_id());
        assert_eq!(map.bucket_label(0), "p0");
        assert_eq!(map.bucket_label(map.shared_id()), "shared");
    }

    #[test]
    fn isolated_hosts_form_their_own_partition() {
        let mut topo = Topology::new("pair");
        let a = topo.add_device(DeviceKind::Host { rack: 0 }, "a");
        let b = topo.add_device(DeviceKind::Host { rack: 0 }, "b");
        topo.add_link(
            a,
            b,
            picloud_simcore::units::Bandwidth::mbps(100),
            picloud_simcore::SimDuration::from_nanos(100),
        );
        let map = PartitionMap::derive(&topo);
        assert_eq!(map.partition_count(), 1);
        assert_eq!(map.device_partition(a), Some(0));
        assert_eq!((map.resource_bucket(0), map.resource_bucket(1)), (0, 0));
    }

    #[test]
    fn solver_pool_matches_serial_map_at_any_size() {
        let items: Vec<u64> = (0..197).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for workers in [1usize, 2, 8] {
            let pool = SolverPool::new(workers);
            let got = pool.run_ordered(items.clone(), |i, x| x * 3 + i as u64);
            assert_eq!(serial, got, "workers={workers}");
        }
    }

    #[test]
    fn solver_pool_is_reusable_across_many_solves() {
        let pool = SolverPool::new(4);
        assert_eq!(pool.size(), 4);
        for round in 0..64u64 {
            let items: Vec<u64> = (0..round + 2).collect();
            let want: Vec<u64> = items.iter().map(|x| x + round).collect();
            let got = pool.run_ordered(items, move |_, x| x + round);
            assert_eq!(got, want, "round={round}");
        }
    }

    #[test]
    fn solver_pool_handles_empty_and_single() {
        let pool = SolverPool::new(8);
        let none: Vec<u32> = pool.run_ordered(Vec::<u32>::new(), |_, x| x);
        assert!(none.is_empty());
        assert_eq!(pool.run_ordered(vec![7u32], |_, x| x + 1), vec![8]);
    }
}
