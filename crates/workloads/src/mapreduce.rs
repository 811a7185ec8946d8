//! Hadoop-like MapReduce jobs.
//!
//! Fig. 3's third container is Hadoop, and the paper's cross-layer argument
//! — that VM placement choices ripple into network congestion — is easiest
//! to see in MapReduce's shuffle, the all-to-all transfer between map and
//! reduce workers. The model plans a job onto worker hosts, charges map and
//! reduce work to CPU and SD-card I/O, and realises the shuffle as real
//! flows on the fabric, with a barrier between phases as in classic
//! Hadoop.

use picloud_hardware::storage::{AccessPattern, IoDirection, StorageSpec};
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::FlowSimulator;
use picloud_network::topology::DeviceId;
use picloud_simcore::telemetry::Tracer;
use picloud_simcore::units::{Bytes, Frequency};
use picloud_simcore::{SimDuration, SpanContext};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A MapReduce job description.
///
/// # Example
///
/// ```
/// use picloud_workloads::mapreduce::MapReduceJob;
/// use picloud_simcore::units::Bytes;
///
/// let job = MapReduceJob::wordcount(Bytes::mib(256));
/// assert_eq!(job.map_tasks, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapReduceJob {
    /// Job name.
    pub name: String,
    /// Total input bytes (split evenly among map tasks).
    pub input_size: Bytes,
    /// Number of map tasks.
    pub map_tasks: u32,
    /// Number of reduce tasks.
    pub reduce_tasks: u32,
    /// CPU cycles per input byte in the map function.
    pub map_cycles_per_byte: f64,
    /// CPU cycles per shuffled byte in the reduce function.
    pub reduce_cycles_per_byte: f64,
    /// Intermediate (shuffle) bytes as a fraction of input bytes.
    pub shuffle_ratio: f64,
    /// Output bytes as a fraction of shuffle bytes.
    pub output_ratio: f64,
}

impl MapReduceJob {
    /// A word-count-style job: light CPU, shuffle ~40 % of input.
    pub fn wordcount(input_size: Bytes) -> Self {
        MapReduceJob {
            name: "wordcount".to_owned(),
            input_size,
            map_tasks: 16,
            reduce_tasks: 4,
            map_cycles_per_byte: 25.0,
            reduce_cycles_per_byte: 15.0,
            shuffle_ratio: 0.4,
            output_ratio: 0.1,
        }
    }

    /// A sort job: shuffle equals input (the classic network-bound case).
    pub fn terasort_like(input_size: Bytes) -> Self {
        MapReduceJob {
            name: "terasort-like".to_owned(),
            input_size,
            map_tasks: 16,
            reduce_tasks: 8,
            map_cycles_per_byte: 10.0,
            reduce_cycles_per_byte: 10.0,
            shuffle_ratio: 1.0,
            output_ratio: 1.0,
        }
    }

    /// Bytes each map task reads.
    pub fn split_size(&self) -> Bytes {
        Bytes::new(self.input_size.as_u64() / u64::from(self.map_tasks.max(1)))
    }

    /// Total shuffle bytes.
    pub fn shuffle_bytes(&self) -> Bytes {
        self.input_size.mul_f64(self.shuffle_ratio)
    }

    /// Plans this job onto `workers` round-robin (map tasks first, then
    /// reduce tasks), mirroring a slot-per-node Hadoop scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is empty or the job has zero tasks.
    pub fn plan(&self, workers: &[DeviceId]) -> MapReducePlan {
        assert!(
            !workers.is_empty(),
            "a MapReduce job needs at least one worker"
        );
        assert!(
            self.map_tasks > 0 && self.reduce_tasks > 0,
            "job must have map and reduce tasks"
        );
        let map_assignment: Vec<DeviceId> = (0..self.map_tasks)
            .map(|i| workers[i as usize % workers.len()])
            .collect();
        let reduce_assignment: Vec<DeviceId> = (0..self.reduce_tasks)
            .map(|i| workers[i as usize % workers.len()])
            .collect();
        MapReducePlan {
            job: self.clone(),
            map_assignment,
            reduce_assignment,
        }
    }
}

impl fmt::Display for MapReduceJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} input, {}M/{}R, shuffle x{:.2}",
            self.name, self.input_size, self.map_tasks, self.reduce_tasks, self.shuffle_ratio
        )
    }
}

/// A job with tasks assigned to workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapReducePlan {
    /// The job being planned.
    pub job: MapReduceJob,
    /// Worker of each map task.
    pub map_assignment: Vec<DeviceId>,
    /// Worker of each reduce task.
    pub reduce_assignment: Vec<DeviceId>,
}

/// Timing results of an executed plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapReduceOutcome {
    /// Map-phase duration (barrier: slowest node).
    pub map_time: SimDuration,
    /// Shuffle duration on the fabric.
    pub shuffle_time: SimDuration,
    /// Reduce-phase duration (barrier: slowest node).
    pub reduce_time: SimDuration,
    /// Fraction of shuffle bytes that stayed within a rack.
    pub shuffle_rack_locality: f64,
}

impl MapReduceOutcome {
    /// End-to-end job time.
    pub fn makespan(&self) -> SimDuration {
        self.map_time + self.shuffle_time + self.reduce_time
    }
}

impl MapReducePlan {
    /// Per-node sequential compute+I/O time of the map phase.
    fn map_time(&self, clock: Frequency, storage: &StorageSpec) -> SimDuration {
        let split = self.job.split_size();
        let read = storage.service_time(split, AccessPattern::Sequential, IoDirection::Read);
        let cpu = SimDuration::from_secs_f64(
            split.as_u64() as f64 * self.job.map_cycles_per_byte / clock.as_hz() as f64,
        );
        let per_task = read + cpu;
        self.phase_makespan(&self.map_assignment, per_task)
    }

    fn reduce_time(&self, clock: Frequency, storage: &StorageSpec) -> SimDuration {
        let per_reduce =
            Bytes::new(self.job.shuffle_bytes().as_u64() / u64::from(self.job.reduce_tasks));
        let cpu = SimDuration::from_secs_f64(
            per_reduce.as_u64() as f64 * self.job.reduce_cycles_per_byte / clock.as_hz() as f64,
        );
        let out = per_reduce.mul_f64(self.job.output_ratio);
        let write = storage.service_time(out, AccessPattern::Sequential, IoDirection::Write);
        self.phase_makespan(&self.reduce_assignment, cpu + write)
    }

    /// Makespan of a phase where every task costs `per_task` and tasks on
    /// the same node run sequentially.
    fn phase_makespan(&self, assignment: &[DeviceId], per_task: SimDuration) -> SimDuration {
        let mut per_node: BTreeMap<DeviceId, u32> = BTreeMap::new();
        for w in assignment {
            *per_node.entry(*w).or_insert(0) += 1;
        }
        per_node
            .values()
            .map(|&n| per_task * u64::from(n))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The shuffle's M×R flows. Co-located map/reduce pairs shuffle through
    /// the local filesystem and produce no network flow.
    pub fn shuffle_flows(&self) -> Vec<FlowSpec> {
        let m = self.map_assignment.len() as u64;
        let r = self.reduce_assignment.len() as u64;
        let per_flow = Bytes::new(self.job.shuffle_bytes().as_u64() / (m * r).max(1));
        let mut flows = Vec::new();
        for &src in &self.map_assignment {
            for &dst in &self.reduce_assignment {
                if src != dst {
                    flows.push(FlowSpec::new(src, dst, per_flow).with_tag("shuffle"));
                }
            }
        }
        flows
    }

    /// Executes the plan: map barrier, shuffle on `sim`'s fabric, reduce
    /// barrier. The simulator is advanced past the shuffle; its utilisation
    /// gauges afterwards describe the congestion the job caused.
    ///
    /// # Panics
    ///
    /// Panics if a shuffle flow cannot be routed (disconnected fabric).
    pub fn execute(
        &self,
        sim: &mut FlowSimulator,
        clock: Frequency,
        storage: &StorageSpec,
    ) -> MapReduceOutcome {
        self.execute_inner(sim, clock, storage, None)
    }

    /// [`execute`](MapReducePlan::execute) with causal spans: a
    /// `mapreduce_job` root over `map_wave`, `shuffle` (one `shuffle_flow`
    /// child per network transfer, timed from flowsim completions) and
    /// `reduce_wave`. The outcome is identical to the untraced call; on a
    /// disabled tracer nothing is recorded.
    ///
    /// # Panics
    ///
    /// Panics if a shuffle flow cannot be routed (disconnected fabric).
    pub fn execute_traced(
        &self,
        sim: &mut FlowSimulator,
        clock: Frequency,
        storage: &StorageSpec,
        tracer: &mut Tracer,
        parent: SpanContext,
    ) -> MapReduceOutcome {
        self.execute_inner(sim, clock, storage, Some((tracer, parent)))
    }

    fn execute_inner(
        &self,
        sim: &mut FlowSimulator,
        clock: Frequency,
        storage: &StorageSpec,
        trace: Option<(&mut Tracer, SpanContext)>,
    ) -> MapReduceOutcome {
        let start = sim.now();
        let map_time = self.map_time(clock, storage);
        let shuffle_start = start.saturating_add(map_time);
        let flows = self.shuffle_flows();
        let total = self.map_assignment.len() * self.reduce_assignment.len();
        let local = total - flows.len();
        let rack_of = |d: DeviceId| sim.topology().device(d).kind.rack();
        let intra_rack = flows
            .iter()
            .filter(|f| rack_of(f.src) == rack_of(f.dst))
            .count()
            + local;
        let locality = intra_rack as f64 / total.max(1) as f64;
        let network_flows = flows.len();
        let completed_before = sim.completed().len();
        // The whole shuffle wave lands at one instant: batch it so the
        // fabric recomputes rates once, not once per transfer.
        #[expect(
            clippy::expect_used,
            reason = "shuffle endpoints are hosts of one connected topology built above"
        )]
        sim.inject_batch(flows, shuffle_start)
            .expect("shuffle flow must be routable");
        let shuffle_end = sim.run_to_completion();
        let shuffle_time = shuffle_end.saturating_duration_since(shuffle_start);
        let reduce_time = self.reduce_time(clock, storage);
        if let Some((tracer, parent)) = trace {
            let end = shuffle_end.saturating_add(reduce_time);
            let root = tracer.span_start(start, "mapreduce_job", parent.span(), |e| {
                e.str("job", &self.job.name)
                    .u64("maps", u64::from(self.job.map_tasks))
                    .u64("reduces", u64::from(self.job.reduce_tasks));
            });
            let map = tracer.span_start(start, "map_wave", root, |e| {
                e.u64("tasks", self.map_assignment.len() as u64);
            });
            tracer.span_end(shuffle_start, map, |_| {});
            let shuffle = tracer.span_start(shuffle_start, "shuffle", root, |e| {
                e.u64("flows", network_flows as u64)
                    .u64("local_pairs", local as u64);
            });
            for cf in &sim.completed()[completed_before..] {
                let f = tracer.span_start(cf.started, "shuffle_flow", shuffle, |e| {
                    e.u64("src", u64::from(cf.spec.src.0))
                        .u64("dst", u64::from(cf.spec.dst.0))
                        .u64("bytes", cf.spec.size.as_u64());
                });
                tracer.span_end(cf.finished, f, |_| {});
            }
            tracer.span_end(shuffle_end, shuffle, |_| {});
            let reduce = tracer.span_start(shuffle_end, "reduce_wave", root, |e| {
                e.u64("tasks", self.reduce_assignment.len() as u64);
            });
            tracer.span_end(end, reduce, |_| {});
            tracer.span_end(end, root, |e| {
                e.f64("rack_locality", locality);
            });
        }
        MapReduceOutcome {
            map_time,
            shuffle_time,
            reduce_time,
            shuffle_rack_locality: locality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picloud_network::flowsim::RateAllocator;
    use picloud_network::routing::RoutingPolicy;
    use picloud_network::topology::Topology;

    fn pi_cluster() -> (FlowSimulator, Vec<DeviceId>) {
        let topo = Topology::multi_root_tree(4, 4, 2);
        let hosts: Vec<DeviceId> = topo.hosts().map(|h| h.id).collect();
        (
            FlowSimulator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin),
            hosts,
        )
    }

    #[test]
    fn plan_round_robins_tasks() {
        let job = MapReduceJob::wordcount(Bytes::mib(64));
        let workers = vec![DeviceId(1), DeviceId(2), DeviceId(3)];
        let plan = job.plan(&workers);
        assert_eq!(plan.map_assignment.len(), 16);
        assert_eq!(plan.map_assignment[0], DeviceId(1));
        assert_eq!(plan.map_assignment[3], DeviceId(1));
        assert_eq!(plan.reduce_assignment.len(), 4);
    }

    #[test]
    fn colocated_shuffle_pairs_skip_network() {
        let job = MapReduceJob::wordcount(Bytes::mib(64));
        let plan = job.plan(&[DeviceId(7)]);
        assert!(
            plan.shuffle_flows().is_empty(),
            "single node: all-local shuffle"
        );
    }

    #[test]
    fn execute_on_cluster_produces_sane_phases() {
        let (mut sim, hosts) = pi_cluster();
        let job = MapReduceJob::wordcount(Bytes::mib(64));
        let plan = job.plan(&hosts);
        let out = plan.execute(&mut sim, Frequency::mhz(700), &StorageSpec::sd_card_16gb());
        assert!(out.map_time > SimDuration::ZERO);
        assert!(out.shuffle_time > SimDuration::ZERO);
        assert!(out.reduce_time > SimDuration::ZERO);
        assert_eq!(
            out.makespan(),
            out.map_time + out.shuffle_time + out.reduce_time
        );
        assert!((0.0..=1.0).contains(&out.shuffle_rack_locality));
    }

    #[test]
    fn terasort_shuffle_dominates_wordcount_shuffle() {
        let run = |job: MapReduceJob| {
            let (mut sim, hosts) = pi_cluster();
            let plan = job.plan(&hosts);
            plan.execute(&mut sim, Frequency::mhz(700), &StorageSpec::sd_card_16gb())
                .shuffle_time
        };
        let wc = run(MapReduceJob::wordcount(Bytes::mib(64)));
        let ts = run(MapReduceJob::terasort_like(Bytes::mib(64)));
        assert!(
            ts > wc,
            "shuffle x1.0 must outlast shuffle x0.4: {ts} vs {wc}"
        );
    }

    #[test]
    fn fewer_workers_lengthen_map_phase() {
        let job = MapReduceJob::wordcount(Bytes::mib(64));
        let (mut sim_a, hosts) = pi_cluster();
        let (mut sim_b, _) = pi_cluster();
        let wide = job.plan(&hosts);
        let narrow = job.plan(&hosts[..2]);
        let clock = Frequency::mhz(700);
        let sd = StorageSpec::sd_card_16gb();
        let out_wide = wide.execute(&mut sim_a, clock, &sd);
        let out_narrow = narrow.execute(&mut sim_b, clock, &sd);
        assert!(out_narrow.map_time > out_wide.map_time);
    }

    #[test]
    fn pi_job_is_slower_than_x86_job() {
        // Scale-model sanity: the same job on x86 hardware runs faster.
        let job = MapReduceJob::wordcount(Bytes::mib(64));
        let (mut sim_a, hosts) = pi_cluster();
        let (mut sim_b, _) = pi_cluster();
        let plan = job.plan(&hosts);
        let pi = plan.execute(
            &mut sim_a,
            Frequency::mhz(700),
            &StorageSpec::sd_card_16gb(),
        );
        let x86 = plan.execute(
            &mut sim_b,
            Frequency::ghz(3),
            &StorageSpec::server_sata_disk(),
        );
        assert!(pi.map_time > x86.map_time);
        assert!(pi.reduce_time > x86.reduce_time);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_worker_list_rejected() {
        let _ = MapReduceJob::wordcount(Bytes::mib(1)).plan(&[]);
    }

    #[test]
    fn traced_execution_matches_untraced_and_spans_cover_the_job() {
        use picloud_simcore::SpanForest;

        let job = MapReduceJob::wordcount(Bytes::mib(64));
        let clock = Frequency::mhz(700);
        let sd = StorageSpec::sd_card_16gb();

        let (mut sim_plain, hosts) = pi_cluster();
        let plan = job.plan(&hosts);
        let plain = plan.execute(&mut sim_plain, clock, &sd);

        let (mut sim_traced, _) = pi_cluster();
        let mut tracer = Tracer::unbounded();
        let traced =
            plan.execute_traced(&mut sim_traced, clock, &sd, &mut tracer, SpanContext::NONE);
        assert_eq!(plain, traced, "spans must only observe");

        let forest = SpanForest::from_tracer(&tracer);
        let roots: Vec<_> = forest.roots_named("mapreduce_job").collect();
        assert_eq!(roots.len(), 1);
        let root = roots[0];
        assert_eq!(root.duration(), traced.makespan());
        let kids: Vec<&str> = forest
            .children(root.id)
            .iter()
            .map(|&c| forest.get(c).unwrap().name.as_str())
            .collect();
        assert_eq!(kids, ["map_wave", "shuffle", "reduce_wave"]);
        let shuffle = forest.get(forest.children(root.id)[1]).unwrap();
        assert_eq!(
            forest.children(shuffle.id).len(),
            plan.shuffle_flows().len(),
            "one shuffle_flow span per network transfer"
        );

        // A disabled tracer records nothing and perturbs nothing.
        let (mut sim_off, _) = pi_cluster();
        let mut off = Tracer::disabled();
        let quiet = plan.execute_traced(&mut sim_off, clock, &sd, &mut off, SpanContext::NONE);
        assert_eq!(quiet, plain);
        assert_eq!(off.len(), 0);
    }
}
