//! Self-healing container recovery under injected faults.
//!
//! The paper motivates the testbed with exactly this class of question:
//! "how failures of network components affect the data centre operation"
//! (§I, citing Gill et al.) and pitches the PiCloud as the safe place to
//! rehearse them. This module closes the loop the hardware layers only
//! gesture at: a [`FaultTimeline`] injects node crashes, link flaps and
//! daemon hangs into a running cluster; a heartbeat [`FailureDetector`]
//! on the management plane notices; and a recovery controller reschedules
//! every victim container onto survivors via the placement scheduler,
//! restarts it from the image store through the ordinary management API
//! (which re-leases DHCP and re-registers DNS for free), and books the
//! blackout in an [`OutageLedger`].
//!
//! Faults come in three shapes, matching the physical testbed:
//!
//! * **Independent**: one board crashes, one cable flaps, one daemon
//!   wedges.
//! * **Correlated**: a rack PSU brownout takes all fourteen boards at
//!   once; a ToR switch failure or a partial partition severs a rack's
//!   reachability while the boards keep running. Domain membership comes
//!   from the [`DomainTree`] read off the fabric, and overlapping causes
//!   compose: a node is down until *every* reason clears, a link is down
//!   until every fault holding it clears.
//! * **Gray**: a worn SD card multiplies image-pull time, a lossy access
//!   link eats management RPCs probabilistically, a thermally throttled
//!   CPU stretches everything. Nothing is binary; the detector and the
//!   recovery path observe the degradation end-to-end.
//!
//! The controller is deliberately *not* omniscient: it talks to nodes
//! over the fallible [`RpcPlane`], so detection takes real (simulated)
//! time, hung daemons can be failed over spuriously, and a replacement
//! target that crashed during the image pull is discovered the hard way —
//! by the landing probe timing out and the placement loop starting over.
//! A victim no survivor can hold is *parked* and retried every sweep, so
//! recovery converges once faults heal instead of stranding work forever.

use crate::cluster::PiCloud;
use picloud_faults::{
    DetectorConfig, DomainTree, FailureDetector, FaultEvent, FaultKind, FaultTimeline,
    InvariantViolation, NodeHealth, RpcConfig, RpcPlane, RpcStats,
};
use picloud_hardware::node::NodeId;
use picloud_mgmt::api::{ApiRequest, ApiResponse};
use picloud_network::failure::{ConnectivityReport, FailureMask};
use picloud_network::graph::shortest_path_avoiding;
use picloud_network::topology::{DeviceId, LinkId, Topology};
use picloud_placement::{
    ClusterView, PlacementPolicy, PlacementRequest, PlacementTicket, PolicyKind,
};
use picloud_simcore::telemetry::{GaugeId, HistogramId, MetricsRegistry, TelemetrySink};
use picloud_simcore::units::Bytes;
use picloud_simcore::{Engine, EventContext, SimDuration, SimTime, SpanContext, SpanId};
use picloud_workloads::blackout::OutageLedger;
use std::collections::{BTreeMap, BTreeSet};

/// A node is down because its own board crashed.
const REASON_CRASH: u8 = 1;
/// A node is down because its rack lost power.
const REASON_RACK: u8 = 1 << 1;

/// Tuning for the detection/recovery control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Heartbeat failure-detector thresholds.
    pub detector: DetectorConfig,
    /// Management-RPC timing (timeouts, backoff).
    pub rpc: RpcConfig,
    /// Placement policy for replacement containers.
    pub policy: PolicyKind,
    /// Containers deployed per node before the faults start.
    pub containers_per_node: usize,
    /// Image-fetch + cold-start delay between committing a restart target
    /// and the container serving again, at nominal storage/CPU speed.
    /// A degraded SD card or throttled CPU on the target stretches it.
    pub restart_latency: SimDuration,
    /// Steady per-container request rate, for pricing blackouts.
    pub request_rate_hz: f64,
    /// CPU overcommit factor applied to the placement view (`1.0` =
    /// none). Raising it lets the chaos harness pack the cluster tight
    /// enough that correlated failures actually contend for capacity.
    pub cpu_overcommit: f64,
}

impl RecoveryConfig {
    /// The stock control loop: LAN-tuned detector and RPC, worst-fit
    /// replacement (spreading replacements limits correlated loss when
    /// the next node dies), two lighttpd containers per Pi, a 2 s
    /// restart, no overcommit.
    pub fn lan_default() -> Self {
        RecoveryConfig {
            detector: DetectorConfig::lan_default(),
            rpc: RpcConfig::lan_default(),
            policy: PolicyKind::WorstFit,
            containers_per_node: 2,
            restart_latency: SimDuration::from_secs(2),
            request_rate_hz: 25.0,
            cpu_overcommit: 1.0,
        }
    }
}

/// A deliberate controller defect, for proving the chaos harness can
/// catch (and shrink) real bugs. [`Sabotage::None`] in production paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// The controller as shipped.
    #[default]
    None,
    /// Skip both placement probes: commit to the policy's pick without
    /// checking it answers, and land the container without the final
    /// probe. A target that died since the last sweep gets a container
    /// "placed" on it — exactly the bug the placed-on-unreachable-host
    /// and ledger-balance invariants exist to catch.
    BlindPlacement,
}

/// How a chaos run drives the recovery world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChaosMode {
    /// Deliberate defect to inject (see [`Sabotage`]).
    pub sabotage: Sabotage,
    /// Whether the schedule guarantees every fault heals before the
    /// horizon — enables the eventual-recovery invariant at end of run.
    pub heals_all: bool,
}

/// Everything the failure-recovery run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Observation horizon.
    pub horizon: SimDuration,
    /// Containers deployed before the churn.
    pub containers: usize,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node repairs injected.
    pub repairs: u64,
    /// Daemon hangs injected.
    pub daemon_hangs: u64,
    /// Link-down events injected.
    pub link_downs: u64,
    /// Link-up events injected.
    pub link_ups: u64,
    /// Rack PSU losses injected (each fans out to every member board).
    pub rack_power_losses: u64,
    /// ToR switch outages injected.
    pub tor_outages: u64,
    /// Partial partitions injected.
    pub partitions: u64,
    /// Gray-fault onsets injected (SD degradation, lossy link, slow node).
    pub gray_faults: u64,
    /// Nodes the detector declared dead.
    pub detections: u64,
    /// Suspicions that cleared before a death verdict (hangs, slow RPC).
    pub false_suspicions: u64,
    /// Dead nodes that later rejoined (Dead → Recovered).
    pub rejoins: u64,
    /// Victim containers restarted on a survivor.
    pub rescheduled: u64,
    /// Park events: a victim found no survivor with room and was queued
    /// for retry at the next sweep.
    pub stranded: u64,
    /// Containers that came back with their own node before the detector
    /// ever declared it dead (repair beat detection).
    pub local_restarts: u64,
    /// Containers whose blackout ended because connectivity healed (ToR
    /// back up, partition merged) rather than by failover.
    pub reconnects: u64,
    /// Containers still parked or mid-respawn when the horizon hit.
    pub unplaced_at_end: u64,
    /// Mean crash → declared-dead delay (MTTD), if any crash was detected.
    pub mean_time_to_detect: Option<SimDuration>,
    /// Mean crash → serving-again delay (MTTR), if any container recovered.
    pub mean_time_to_restore: Option<SimDuration>,
    /// Longest single container blackout.
    pub worst_downtime: SimDuration,
    /// Total container-downtime across the fleet.
    pub total_downtime: SimDuration,
    /// Requests lost to blackouts at the configured rate.
    pub lost_requests: u64,
    /// `1 − downtime / (containers × horizon)`.
    pub availability: f64,
    /// Worst host-pair reachability seen during link churn.
    pub min_reachability: f64,
    /// Management-RPC traffic totals.
    pub rpc: RpcStats,
    /// Simulation events fired.
    pub events_fired: u64,
}

/// One deployed container, as the controller tracks it.
#[derive(Debug, Clone)]
struct Deployment {
    name: String,
    image: String,
    container: picloud_container::container::ContainerId,
    ticket: PlacementTicket,
    req: PlacementRequest,
}

/// The failure mask's consequences for link telemetry, derived once per
/// change of the mask's failed links instead of once per event.
struct MaskView {
    /// Links down under the mask.
    dead: BTreeSet<LinkId>,
    /// Each node's heartbeat path to the first aggregation root, in node
    /// order (`None` where the mask cuts the node off). Only the link
    /// gauges read it, so it is `None` when telemetry is off, and also
    /// when the fabric has no aggregation layer.
    heartbeat_paths: Option<Vec<Option<Vec<LinkId>>>>,
    /// Host-pair reachability of the degraded fabric.
    reachability: f64,
}

impl MaskView {
    /// Derives the view of `mask` over `cloud`'s fabric, with heartbeat
    /// paths only when `with_paths`.
    fn derive(cloud: &PiCloud, mask: &FailureMask, with_paths: bool) -> MaskView {
        let topo = cloud.topology();
        let dead: BTreeSet<LinkId> = topo
            .links()
            .iter()
            .filter(|l| !mask.link_up(topo, l.id))
            .map(|l| l.id)
            .collect();
        let root = picloud_network::failure::aggregation_devices(topo)
            .first()
            .copied();
        let heartbeat_paths = root.filter(|_| with_paths).map(|root| {
            let hosts = cloud.node_ids().map(|node| cloud.device_of(node));
            heartbeat_paths(topo, hosts, root, &dead)
        });
        let reachability = ConnectivityReport::measure(&mask.apply(topo).topology).reachability();
        MaskView {
            dead,
            heartbeat_paths,
            reachability,
        }
    }
}

/// Each of `sources`' shortest path to `root` avoiding `dead`, exactly as
/// [`shortest_path_avoiding`] finds it, with one BFS per uplink neighbour
/// rather than one per source.
///
/// A device other than `root` with exactly one live link reaches the rest
/// of the fabric only through that link's far end, and a BFS from it
/// visits every other device in the order a BFS from the far end does:
/// the only difference is the device itself. So its path is that link
/// followed by the far end's path, computed once per far end (the four
/// ToRs of the paper fabric). Every other device gets its own BFS.
fn heartbeat_paths(
    topo: &Topology,
    sources: impl Iterator<Item = DeviceId>,
    root: DeviceId,
    dead: &BTreeSet<LinkId>,
) -> Vec<Option<Vec<LinkId>>> {
    let mut via: BTreeMap<DeviceId, Option<Vec<LinkId>>> = BTreeMap::new();
    sources
        .map(|src| {
            let mut live = topo
                .neighbours(src)
                .iter()
                .filter(|(_, l)| !dead.contains(l));
            match (live.next(), live.next()) {
                (Some(&(next, link)), None) if src != root => via
                    .entry(next)
                    .or_insert_with(|| shortest_path_avoiding(topo, next, root, dead))
                    .as_ref()
                    .map(|tail| std::iter::once(link).chain(tail.iter().copied()).collect()),
                _ => shortest_path_avoiding(topo, src, root, dead),
            }
        })
        .collect()
}

/// The live series the E17 loop writes per event, each resolved once to
/// a registry handle so a write is an index, not a key search. Present
/// only when telemetry is on.
///
/// Creating a series decides which tsdb scrapes include it, so each
/// handle is resolved where its series is first written: the node and
/// fleet gauges at the t = 0 baseline, the link gauges at the first link
/// recording, each histogram at its first observation.
struct LiveSeries {
    /// `hardware_power_watts` and `hardware_soc_temp_celsius` per node,
    /// in node order.
    power: Vec<(GaugeId, GaugeId)>,
    /// `container_fleet_running`, `container_fleet_size` and
    /// `container_fleet_dark`.
    fleet: [GaugeId; 3],
    links: Option<LinkSeries>,
    /// `recovery_detect_seconds`.
    detect: Option<HistogramId>,
    /// `recovery_restore_seconds`.
    restore: Option<HistogramId>,
}

impl LiveSeries {
    /// Resolves the series the t = 0 baseline writes first.
    fn resolve(reg: &mut MetricsRegistry, cloud: &PiCloud, domains: &DomainTree) -> Self {
        let power = cloud
            .node_ids()
            .map(|node| {
                let n = node.0.to_string();
                let r = domains.rack_of(node).unwrap_or(0).to_string();
                let labels = [("node", n.as_str()), ("rack", r.as_str())];
                (
                    reg.gauge_id("hardware_power_watts", &labels),
                    reg.gauge_id("hardware_soc_temp_celsius", &labels),
                )
            })
            .collect();
        let fleet = [
            "container_fleet_running",
            "container_fleet_size",
            "container_fleet_dark",
        ]
        .map(|name| reg.gauge_id(name, &[]));
        LiveSeries {
            power,
            fleet,
            links: None,
            detect: None,
            restore: None,
        }
    }
}

/// The link series [`RecoveryWorld::record_link_utilisation`] writes.
struct LinkSeries {
    /// `network_link_utilisation` and `network_link_up` per link, in
    /// link-id order.
    gauges: Vec<(GaugeId, GaugeId)>,
    /// `network_reachability`.
    reachability: GaugeId,
}

impl LinkSeries {
    fn resolve(reg: &mut MetricsRegistry, topo: &Topology) -> Self {
        let gauges = topo
            .links()
            .iter()
            .map(|l| {
                let id = l.id.0.to_string();
                let labels = [("link", id.as_str())];
                (
                    reg.gauge_id("network_link_utilisation", &labels),
                    reg.gauge_id("network_link_up", &labels),
                )
            })
            .collect();
        LinkSeries {
            gauges,
            reachability: reg.gauge_id("network_reachability", &[]),
        }
    }
}

/// The engine world: the cloud plus the fault and control planes.
pub(crate) struct RecoveryWorld {
    cloud: PiCloud,
    detector: FailureDetector,
    rpc: RpcPlane,
    view: ClusterView,
    policy: Box<dyn PlacementPolicy>,
    mask: FailureMask,
    /// What `mask` means for link telemetry; `None` after the mask's
    /// failed links change, until the next reader re-derives it.
    mask_view: Option<MaskView>,
    ledger: OutageLedger,
    domains: DomainTree,
    deployments: BTreeMap<NodeId, Vec<Deployment>>,
    /// Ground-truth crash instants for crashes not yet declared dead.
    crashed_at: BTreeMap<NodeId, SimTime>,
    /// Why each node is down, as a bitmask of `REASON_*`. Absent = up.
    /// Overlapping causes (own crash during a rack brownout) compose:
    /// the node revives only when every reason clears.
    down_reasons: BTreeMap<NodeId, u8>,
    /// Racks whose ToR switch is down (count: scripted overlaps stack).
    tor_down: BTreeMap<u16, u32>,
    /// Active partial-partition rack masks (multiset; heal removes one).
    partition_masks: Vec<u16>,
    /// Per-link fault cause counts: the link is failed in the mask while
    /// any cause (link churn, ToR outage, partition) holds it.
    link_faults: BTreeMap<LinkId, u32>,
    /// Gray state: storage throughput permille per degraded node.
    storage_slow: BTreeMap<NodeId, u16>,
    /// Gray state: CPU clock permille per throttled node.
    cpu_slow: BTreeMap<NodeId, u16>,
    /// Victims between failover decision and landing (name set).
    in_flight: BTreeSet<String>,
    /// Victims with no current home, retried every sweep.
    parked: Vec<(String, String, PlacementRequest)>,
    /// Tickets committed for in-flight respawns (target reserved while
    /// the image pulls), for view accounting.
    reserved: BTreeSet<PlacementTicket>,
    /// Every container name the initial fleet deployed.
    fleet_names: BTreeSet<String>,
    config: RecoveryConfig,
    horizon_end: SimTime,
    // Counters for the report.
    crashes: u64,
    repairs: u64,
    daemon_hangs: u64,
    link_downs: u64,
    link_ups: u64,
    rack_power_losses: u64,
    tor_outages: u64,
    partitions: u64,
    gray_faults: u64,
    detections: u64,
    rejoins: u64,
    rescheduled: u64,
    stranded: u64,
    local_restarts: u64,
    reconnects: u64,
    detect_delay_sum: SimDuration,
    detect_delay_count: u64,
    min_reachability: f64,
    /// Chaos harness: deliberate defect, invariant switch, first failure.
    sabotage: Sabotage,
    check_invariants: bool,
    violation: Option<InvariantViolation>,
    /// Open causal span chains per container: `(recovery root, current
    /// open child)`. Empty when telemetry is disabled — every insert is
    /// gated on the sink, so a non-observed run allocates nothing here.
    recovery_spans: BTreeMap<String, (SpanId, SpanId)>,
    /// Observability: labeled series + trace, no-op when disabled.
    telem: TelemetrySink,
    /// Handles of the series written per event; `None` when telemetry is
    /// off, which is what the recording hooks check.
    live: Option<LiveSeries>,
}

impl RecoveryWorld {
    /// The rack a node sits in, read off the fabric.
    fn rack_of(&self, node: NodeId) -> u16 {
        self.domains.rack_of(node).unwrap_or(0)
    }

    /// Whether `node` is down for any reason (crash or rack power).
    fn node_down(&self, node: NodeId) -> bool {
        self.down_reasons.contains_key(&node)
    }

    /// Whether a rack's reachability is severed (ToR down or caught in an
    /// active partition).
    fn rack_blocked(&self, rack: u16) -> bool {
        self.tor_down.contains_key(&rack)
            || (rack < 16 && self.partition_masks.iter().any(|&m| m & (1 << rack) != 0))
    }

    /// Ground truth: would this node's containers serve clients right
    /// now? Powered on *and* its rack reachable. (A hung daemon still
    /// serves; hangs only blind the management plane.)
    fn node_reachable_ground_truth(&self, node: NodeId) -> bool {
        !self.node_down(node) && !self.rack_blocked(self.rack_of(node))
    }

    /// Adds one fault cause to a link, failing it in the mask on the
    /// first cause.
    fn fail_link_cause(&mut self, link: LinkId) {
        let count = self.link_faults.entry(link).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.mask.fail_link(link);
            self.mask_view = None;
        }
    }

    /// Removes one fault cause from a link, repairing it in the mask when
    /// the last cause clears. Unmatched repairs (shrunk schedules drop
    /// events arbitrarily) are ignored.
    fn repair_link_cause(&mut self, link: LinkId) {
        if let Some(count) = self.link_faults.get_mut(&link) {
            *count -= 1;
            if *count == 0 {
                self.link_faults.remove(&link);
                self.mask.repair_link(link);
                self.mask_view = None;
            }
        }
    }

    /// Re-records one node's power/thermal gauges. A crashed board draws
    /// nothing; an alive one draws per its curve at a utilisation proxy of
    /// `running containers / containers_per_node` (the recovery fleet is
    /// one lighttpd per slot, so slot occupancy is the load). A fault
    /// may name an id outside the cluster, which has no board to record.
    fn record_node_power(&mut self, node: NodeId, now: SimTime) {
        let Some(&(watts, temp)) = self.live.as_ref().and_then(|l| l.power.get(node.index()))
        else {
            return;
        };
        if self.node_down(node) {
            self.telem.registry.gauge_at(watts).set(now, 0.0);
            return;
        }
        let hosted = self.deployments.get(&node).map_or(0, Vec::len);
        let util = hosted as f64 / self.config.containers_per_node.max(1) as f64;
        let power = &self.cloud.node_spec().power;
        let reg = &mut self.telem.registry;
        reg.gauge_at(watts).set(now, power.draw_at(util).as_watts());
        reg.gauge_at(temp).set(now, power.soc_temperature_at(util));
    }

    /// Re-derives the mask view if the mask changed since it was built.
    fn refresh_mask_view(&mut self) {
        if self.mask_view.is_none() {
            self.mask_view = Some(MaskView::derive(
                &self.cloud,
                &self.mask,
                self.telem.is_enabled(),
            ));
        }
    }

    /// Re-derives per-link management-plane utilisation under the current
    /// failure mask: every alive host answers one heartbeat per detector
    /// interval over its surviving shortest path to the aggregation layer,
    /// and each link's `network_link_utilisation` gauge is that traffic
    /// over its capacity. Recomputed only when the fabric or fleet state
    /// changes, so the cost is per-event, not per-sweep; the paths and the
    /// reachability come from the mask view, so they are only recomputed
    /// when a link fails or is repaired.
    fn record_link_utilisation(&mut self, now: SimTime) {
        if self.live.is_none() {
            return;
        }
        /// Request + reply bytes one heartbeat costs a link it crosses.
        const HEARTBEAT_BYTES: f64 = 512.0;
        self.refresh_mask_view();
        let (Some(live), Some(view)) = (&mut self.live, &self.mask_view) else {
            return;
        };
        let Some(paths) = &view.heartbeat_paths else {
            return;
        };
        let topo = self.cloud.topology();
        let reg = &mut self.telem.registry;
        let links = live
            .links
            .get_or_insert_with(|| LinkSeries::resolve(reg, topo));
        let mut bytes_per_link = vec![0.0; topo.links().len()];
        for (node, path) in self.cloud.node_ids().zip(paths) {
            if self.down_reasons.contains_key(&node) {
                continue;
            }
            for &link in path.iter().flatten() {
                bytes_per_link[link.index()] += HEARTBEAT_BYTES;
            }
        }
        let interval = self.config.detector.heartbeat_interval.as_secs_f64();
        let per_link = topo.links().iter().zip(&links.gauges).zip(bytes_per_link);
        for ((l, &(util, up)), bytes) in per_link {
            let bps = bytes * 8.0 / interval;
            reg.gauge_at(util)
                .set(now, bps / l.capacity.as_bps() as f64);
            reg.gauge_at(up)
                .set(now, f64::from(u8::from(!view.dead.contains(&l.id))));
        }
        reg.gauge_at(links.reachability).set(now, view.reachability);
    }

    /// Re-records the fleet gauges after containers move or outage
    /// windows open/close. `container_fleet_dark` mirrors the ledger's
    /// dark count at every transition, so its time integral is exactly
    /// the ledger's dark container-seconds — the availability SLI the
    /// windowed burn-rate alerts read.
    fn record_fleet(&mut self, now: SimTime) {
        let Some(live) = &self.live else {
            return;
        };
        let running: usize = self
            .deployments
            .iter()
            .filter(|(n, _)| !self.down_reasons.contains_key(n))
            .map(|(_, ds)| ds.len())
            .sum();
        let values = [
            running as f64,
            self.fleet_names.len() as f64,
            self.ledger.dark_count() as f64,
        ];
        for (id, value) in live.fleet.into_iter().zip(values) {
            self.telem.registry.gauge_at(id).set(now, value);
        }
    }

    /// Ground truth: every container hosted on `node` goes dark now.
    /// Opens a ledger window (idempotent — an earlier cause keeps its
    /// earlier start) and roots a `recovery` span chain per victim so the
    /// span-level MTTR stays identical to the ledger's.
    fn open_windows_on(&mut self, node: NodeId, now: SimTime) {
        if let Some(ds) = self.deployments.get(&node) {
            for d in ds {
                self.ledger.open(&d.name, now);
                if self.telem.is_enabled() && !self.recovery_spans.contains_key(&d.name) {
                    let root = self
                        .telem
                        .tracer
                        .span_start(now, "recovery", SpanId::NONE, |e| {
                            e.str("container", &d.name).u64("node", u64::from(node.0));
                        });
                    let detect = self.telem.tracer.span_start(now, "detect", root, |_| {});
                    self.recovery_spans.insert(d.name.clone(), (root, detect));
                }
            }
        }
        self.record_fleet(now);
    }

    /// Closes the blackout window of every container hosted on `node`
    /// (service is back without a failover: local restart or
    /// connectivity heal). Returns how many windows actually closed.
    fn close_windows_on(&mut self, node: NodeId, now: SimTime, outcome: &'static str) -> u64 {
        let mut closed = 0u64;
        if let Some(ds) = self.deployments.get(&node) {
            for d in ds {
                if let Some(downtime) = self.ledger.close(&d.name, now) {
                    closed += 1;
                    if let Some((root, child)) = self.recovery_spans.remove(&d.name) {
                        self.telem.tracer.span_end(now, child, |_| {});
                        self.telem.tracer.span_end(now, root, |e| {
                            e.str("outcome", outcome)
                                .u64("downtime_ns", downtime.as_nanos());
                        });
                    }
                }
            }
        }
        if closed > 0 {
            self.record_fleet(now);
        }
        closed
    }

    /// Takes a node down for `reason`. Idempotent per reason; the crash
    /// side effects (RPC unreachable, outage windows, power gauge) fire
    /// only on the up → down edge, so a board crash during a rack
    /// brownout changes nothing until *both* clear.
    fn take_node_down(&mut self, node: NodeId, reason: u8, now: SimTime) {
        let reasons = self.down_reasons.entry(node).or_insert(0);
        let was_down = *reasons != 0;
        *reasons |= reason;
        if was_down {
            return;
        }
        self.rpc.node_down(node);
        self.crashed_at.insert(node, now);
        self.open_windows_on(node, now);
        self.record_node_power(node, now);
    }

    /// Clears one down-reason. The node revives only when no reasons
    /// remain; then, if repair beat the detector's death verdict, its
    /// containers restart locally — but their blackout only ends if the
    /// rack is reachable too. Unmatched repairs are ignored.
    fn bring_node_up(&mut self, node: NodeId, reason: u8, now: SimTime) -> u64 {
        let Some(reasons) = self.down_reasons.get_mut(&node) else {
            return 0;
        };
        *reasons &= !reason;
        if *reasons != 0 {
            return 0;
        }
        self.down_reasons.remove(&node);
        self.rpc.node_up(node);
        let mut local = 0u64;
        if self.detector.health(node) != NodeHealth::Dead {
            // Repair beat the detector: the node reboots with its
            // containers, so no failover ever happens.
            self.crashed_at.remove(&node);
            if !self.rack_blocked(self.rack_of(node)) {
                local = self.close_windows_on(node, now, "local_restart");
                self.local_restarts += local;
            }
        }
        self.record_node_power(node, now);
        local
    }

    /// Dispatches one injected fault into the planes it touches.
    fn apply_fault(&mut self, event: FaultEvent, now: SimTime) {
        match event.kind {
            FaultKind::NodeCrash { node } => {
                self.crashes += 1;
                self.take_node_down(node, REASON_CRASH, now);
                let hosted = self.deployments.get(&node).map_or(0, Vec::len);
                self.telem.tracer.emit(now, "node_crash", |e| {
                    e.u64("node", u64::from(node.0))
                        .u64("victims", hosted as u64);
                });
                self.record_link_utilisation(now);
                self.record_fleet(now);
            }
            FaultKind::NodeRepair { node } => {
                self.repairs += 1;
                let local = self.bring_node_up(node, REASON_CRASH, now);
                self.telem.tracer.emit(now, "node_repair", |e| {
                    e.u64("node", u64::from(node.0))
                        .u64("local_restarts", local);
                });
                self.record_link_utilisation(now);
                self.record_fleet(now);
            }
            FaultKind::RackPowerLoss { rack } => {
                self.rack_power_losses += 1;
                let members = self.domains.members(rack).to_vec();
                for &m in &members {
                    self.take_node_down(m, REASON_RACK, now);
                }
                self.telem.tracer.emit(now, "rack_power_loss", |e| {
                    e.u64("rack", u64::from(rack))
                        .u64("members", members.len() as u64);
                });
                self.record_link_utilisation(now);
                self.record_fleet(now);
            }
            FaultKind::RackPowerRestore { rack } => {
                let members = self.domains.members(rack).to_vec();
                let mut local = 0u64;
                for &m in &members {
                    local += self.bring_node_up(m, REASON_RACK, now);
                }
                self.telem.tracer.emit(now, "rack_power_restore", |e| {
                    e.u64("rack", u64::from(rack)).u64("local_restarts", local);
                });
                self.record_link_utilisation(now);
                self.record_fleet(now);
            }
            FaultKind::TorSwitchDown { rack } => {
                self.tor_outages += 1;
                *self.tor_down.entry(rack).or_insert(0) += 1;
                let (links, members) = match self.domains.rack(rack) {
                    Some(d) => (d.tor_links.clone(), d.members.clone()),
                    None => (Vec::new(), Vec::new()),
                };
                for link in links {
                    self.fail_link_cause(link);
                }
                for &m in &members {
                    self.rpc.block(m);
                    self.open_windows_on(m, now);
                }
                self.note_reachability();
                self.telem.tracer.emit(now, "tor_switch_down", |e| {
                    e.u64("rack", u64::from(rack));
                });
                self.record_link_utilisation(now);
            }
            FaultKind::TorSwitchUp { rack } => {
                if let Some(count) = self.tor_down.get_mut(&rack) {
                    *count -= 1;
                    if *count == 0 {
                        self.tor_down.remove(&rack);
                    }
                    let (links, members) = match self.domains.rack(rack) {
                        Some(d) => (d.tor_links.clone(), d.members.clone()),
                        None => (Vec::new(), Vec::new()),
                    };
                    for link in links {
                        self.repair_link_cause(link);
                    }
                    let mut back = 0u64;
                    for &m in &members {
                        self.rpc.unblock(m);
                    }
                    for &m in &members {
                        if self.node_reachable_ground_truth(m) {
                            back += self.close_windows_on(m, now, "reconnected");
                        }
                    }
                    self.reconnects += back;
                    self.telem.tracer.emit(now, "tor_switch_up", |e| {
                        e.u64("rack", u64::from(rack)).u64("reconnected", back);
                    });
                }
                self.note_reachability();
                self.record_link_utilisation(now);
            }
            FaultKind::PartialPartition { rack_mask } => {
                self.partitions += 1;
                self.partition_masks.push(rack_mask);
                for rack in self.domains.masked_racks(rack_mask) {
                    let (uplinks, members) = match self.domains.rack(rack) {
                        Some(d) => (d.uplinks.clone(), d.members.clone()),
                        None => (Vec::new(), Vec::new()),
                    };
                    // Only the uplinks sever: intra-rack traffic keeps
                    // flowing, which is what makes this a *partial*
                    // partition rather than a ToR death.
                    for link in uplinks {
                        self.fail_link_cause(link);
                    }
                    for &m in &members {
                        self.rpc.block(m);
                        self.open_windows_on(m, now);
                    }
                }
                self.note_reachability();
                self.telem.tracer.emit(now, "partial_partition", |e| {
                    e.u64("rack_mask", u64::from(rack_mask));
                });
                self.record_link_utilisation(now);
            }
            FaultKind::PartitionHeal { rack_mask } => {
                if let Some(pos) = self.partition_masks.iter().position(|&m| m == rack_mask) {
                    self.partition_masks.remove(pos);
                    let mut back = 0u64;
                    for rack in self.domains.masked_racks(rack_mask) {
                        let (uplinks, members) = match self.domains.rack(rack) {
                            Some(d) => (d.uplinks.clone(), d.members.clone()),
                            None => (Vec::new(), Vec::new()),
                        };
                        for link in uplinks {
                            self.repair_link_cause(link);
                        }
                        for &m in &members {
                            self.rpc.unblock(m);
                        }
                        for &m in &members {
                            if self.node_reachable_ground_truth(m) {
                                back += self.close_windows_on(m, now, "reconnected");
                            }
                        }
                    }
                    self.reconnects += back;
                    self.telem.tracer.emit(now, "partition_heal", |e| {
                        e.u64("rack_mask", u64::from(rack_mask))
                            .u64("reconnected", back);
                    });
                }
                self.note_reachability();
                self.record_link_utilisation(now);
            }
            FaultKind::SdCardDegraded { node, permille } => {
                self.gray_faults += 1;
                self.storage_slow.insert(node, permille.clamp(1, 1000));
                self.telem.tracer.emit(now, "sd_degraded", |e| {
                    e.u64("node", u64::from(node.0))
                        .u64("permille", u64::from(permille));
                });
            }
            FaultKind::SdCardHealed { node } => {
                self.storage_slow.remove(&node);
                self.telem.tracer.emit(now, "sd_healed", |e| {
                    e.u64("node", u64::from(node.0));
                });
            }
            FaultKind::LossyLink {
                link,
                loss_permille,
            } => {
                self.gray_faults += 1;
                // Only host access links carry management RPCs one-to-one;
                // a lossy fabric link is beyond this plane's resolution.
                if let Some(node) = self.domains.node_of_access(link) {
                    self.rpc.set_loss(node, loss_permille);
                }
                self.telem.tracer.emit(now, "lossy_link", |e| {
                    e.u64("link", u64::from(link.0))
                        .u64("loss_permille", u64::from(loss_permille));
                });
            }
            FaultKind::LossyLinkHealed { link } => {
                if let Some(node) = self.domains.node_of_access(link) {
                    self.rpc.clear_loss(node);
                }
                self.telem.tracer.emit(now, "lossy_link_healed", |e| {
                    e.u64("link", u64::from(link.0));
                });
            }
            FaultKind::SlowNode { node, permille } => {
                self.gray_faults += 1;
                self.cpu_slow.insert(node, permille.clamp(1, 1000));
                self.rpc.set_slow(node, permille);
                self.telem.tracer.emit(now, "slow_node", |e| {
                    e.u64("node", u64::from(node.0))
                        .u64("permille", u64::from(permille));
                });
            }
            FaultKind::SlowNodeHealed { node } => {
                self.cpu_slow.remove(&node);
                self.rpc.clear_slow(node);
                self.telem.tracer.emit(now, "slow_node_healed", |e| {
                    e.u64("node", u64::from(node.0));
                });
            }
            FaultKind::LinkDown { link } => {
                self.link_downs += 1;
                self.fail_link_cause(link);
                self.note_reachability();
                self.telem.tracer.emit(now, "link_down", |e| {
                    e.u64("link", u64::from(link.0));
                });
                self.record_link_utilisation(now);
            }
            FaultKind::LinkUp { link } => {
                self.link_ups += 1;
                self.repair_link_cause(link);
                self.note_reachability();
                self.telem.tracer.emit(now, "link_up", |e| {
                    e.u64("link", u64::from(link.0));
                });
                self.record_link_utilisation(now);
            }
            FaultKind::DaemonHang { node, lasting } => {
                self.daemon_hangs += 1;
                self.rpc.hang_daemon(node, now + lasting);
                self.telem
                    .tracer
                    .emit_span(now, now + lasting, "daemon_hang", |e| {
                        e.u64("node", u64::from(node.0));
                    });
            }
        }
        self.verify_invariants(now);
    }

    /// Re-measures fabric reachability under the current mask and keeps
    /// the worst value seen.
    fn note_reachability(&mut self) {
        self.refresh_mask_view();
        let Some(view) = &self.mask_view else {
            return;
        };
        if view.reachability < self.min_reachability {
            self.min_reachability = view.reachability;
        }
    }

    /// One heartbeat round: poll every daemon over RPC, feed the
    /// detector, recover anything newly declared dead, retry parked
    /// victims, and reschedule the next round.
    fn sweep(&mut self, ctx: &mut EventContext<RecoveryWorld>) {
        let now = ctx.now();
        for index in 0..self.cloud.node_count() as u32 {
            let node = NodeId(index);
            if self.rpc.call(node, now).is_ok()
                && self.detector.heartbeat(node, now) == NodeHealth::Dead
            {
                // Dead → Recovered: the node rejoins the placement pool,
                // empty (its containers moved on).
                self.view.uncordon(node);
                self.rejoins += 1;
                self.telem.tracer.emit(now, "node_rejoined", |e| {
                    e.u64("node", u64::from(node.0));
                });
            }
        }
        for dead in self.detector.sweep(now) {
            self.detections += 1;
            let mut detect_delay = None;
            if let Some(crashed) = self.crashed_at.remove(&dead) {
                let delay = now.saturating_duration_since(crashed);
                self.detect_delay_sum = self.detect_delay_sum.saturating_add(delay);
                self.detect_delay_count += 1;
                detect_delay = Some(delay);
            }
            if let (Some(live), Some(delay)) = (&mut self.live, detect_delay) {
                let reg = &mut self.telem.registry;
                let id = *live
                    .detect
                    .get_or_insert_with(|| reg.histogram_id("recovery_detect_seconds", &[]));
                reg.histogram_at(id).observe(delay.as_secs_f64());
            }
            self.telem.tracer.emit(now, "node_declared_dead", |e| {
                e.u64("node", u64::from(dead.0))
                    .bool("real_crash", detect_delay.is_some());
                if let Some(delay) = detect_delay {
                    e.f64("detect_delay_s", delay.as_secs_f64());
                }
            });
            self.recover(dead, now, ctx);
        }
        // Parked victims get another chance each round: capacity may have
        // come back with a rejoined node or a healed rack.
        let retry = std::mem::take(&mut self.parked);
        for (name, image, req) in retry {
            self.in_flight.insert(name.clone());
            self.start_respawn(name, image, req, ctx);
        }
        self.verify_invariants(now);
        // The tsdb scrape rides the heartbeat sweep the controller already
        // runs: sampling only reads the registry and schedules nothing, so
        // an observed run fires exactly the events of an unobserved one.
        self.telem.scrape_due(now);
        if now < self.horizon_end {
            ctx.schedule_in(self.config.detector.heartbeat_interval, |w, ctx| {
                w.sweep(ctx)
            });
        }
    }

    /// Failover for one declared-dead node: garbage-collect its container
    /// records (DNS included), free its placements, and start every
    /// victim's respawn.
    fn recover(&mut self, dead: NodeId, now: SimTime, ctx: &mut EventContext<RecoveryWorld>) {
        self.view.cordon(dead);
        let victims = self.deployments.remove(&dead).unwrap_or_default();
        for d in victims {
            self.view.release(d.ticket);
            // Management-plane GC: unregister the victim's DNS record and
            // drop the dead node's bookkeeping for it. (If the "death"
            // was a false positive — a long hang — this destroys a live
            // container: the price of acting on a detector.)
            let _ = self.cloud.api(
                ApiRequest::DestroyContainer {
                    node: dead,
                    container: d.container,
                },
                now,
            );
            // Close `detect`; the chain continues in `start_respawn`.
            if self.telem.is_enabled() {
                let root = match self.recovery_spans.remove(&d.name) {
                    Some((root, detect)) => {
                        self.telem.tracer.span_end(now, detect, |_| {});
                        root
                    }
                    // Spurious failover (a hang, not a crash): no outage
                    // window exists, so the chain starts at the verdict.
                    None => self
                        .telem
                        .tracer
                        .span_start(now, "recovery", SpanId::NONE, |e| {
                            e.str("container", &d.name)
                                .u64("node", u64::from(dead.0))
                                .bool("spurious", true);
                        }),
                };
                self.recovery_spans
                    .insert(d.name.clone(), (root, SpanId::NONE));
            }
            self.in_flight.insert(d.name.clone());
            self.start_respawn(d.name, d.image, d.req, ctx);
        }
    }

    /// Picks a survivor for one victim and commits the restart: probe
    /// candidates over RPC (an unresponsive pick costs a failed call and
    /// the loop moves on), reserve the slot, and schedule the landing
    /// after the image pull — stretched by the target's gray state (a
    /// degraded SD card or throttled CPU multiplies the pull). With no
    /// survivor in reach the victim parks for retry at the next sweep.
    fn start_respawn(
        &mut self,
        name: String,
        image: String,
        req: PlacementRequest,
        ctx: &mut EventContext<RecoveryWorld>,
    ) {
        let now = ctx.now();
        let (root, prev) = self
            .recovery_spans
            .remove(&name)
            .unwrap_or((SpanId::NONE, SpanId::NONE));
        self.telem.tracer.span_end(now, prev, |_| {});
        let sched = self
            .telem
            .tracer
            .span_start(now, "reschedule", root, |_| {});
        let blind = self.sabotage == Sabotage::BlindPlacement;
        let mut tried_off: Vec<NodeId> = Vec::new();
        let target = loop {
            match self.policy.place(&self.view, &req) {
                None => break None,
                Some(t) if blind => break Some(t),
                Some(t)
                    if self
                        .rpc
                        .call_traced(t, now, &mut self.telem.tracer, SpanContext::of(sched))
                        .is_ok() =>
                {
                    break Some(t)
                }
                Some(t) => {
                    // Spawn-probe timed out: exclude the node for this
                    // search only (the detector owns its lasting state).
                    self.view.cordon(t);
                    tried_off.push(t);
                }
            }
        };
        for n in tried_off {
            if self.detector.health(n) != NodeHealth::Dead {
                self.view.uncordon(n);
            }
        }
        self.telem.tracer.span_end(now, sched, |_| {});
        let Some(target) = target else {
            // Nowhere to go *right now* — park and retry every sweep
            // until capacity comes back.
            self.stranded += 1;
            self.in_flight.remove(&name);
            self.telem.tracer.emit(now, "container_parked", |e| {
                e.str("container", &name);
            });
            if self.telem.is_enabled() {
                let wait = self.telem.tracer.span_start(now, "parked", root, |_| {});
                self.recovery_spans.insert(name.clone(), (root, wait));
            }
            self.parked.push((name, image, req));
            return;
        };
        let ticket = self.view.commit(target, req);
        self.reserved.insert(ticket);
        // Image pull + cold start, stretched by the target's gray state.
        let storage = self.storage_slow.get(&target).copied().unwrap_or(1000);
        let cpu = self.cpu_slow.get(&target).copied().unwrap_or(1000);
        let pull = self
            .config
            .restart_latency
            .mul_f64(1000.0 / f64::from(storage.max(1)))
            .mul_f64(1000.0 / f64::from(cpu.max(1)));
        if self.telem.is_enabled() {
            let span = self.telem.tracer.span_start(now, "image_pull", root, |e| {
                e.str("image", &image).u64("node", u64::from(target.0));
            });
            self.recovery_spans.insert(name.clone(), (root, span));
        }
        ctx.schedule_in(pull, move |w: &mut RecoveryWorld, ctx| {
            w.finish_respawn(name, image, req, target, ticket, ctx);
        });
    }

    /// The image pull finished: probe the target one last time (it may
    /// have died mid-pull) and either land the container — closing its
    /// blackout window — or release the slot and start over.
    #[allow(
        clippy::too_many_arguments,
        reason = "the pending respawn's fields, carried through the scheduled pull event"
    )]
    fn finish_respawn(
        &mut self,
        name: String,
        image: String,
        req: PlacementRequest,
        target: NodeId,
        ticket: PlacementTicket,
        ctx: &mut EventContext<RecoveryWorld>,
    ) {
        let now = ctx.now();
        let (root, pull) = self
            .recovery_spans
            .remove(&name)
            .unwrap_or((SpanId::NONE, SpanId::NONE));
        self.telem.tracer.span_end(now, pull, |_| {});
        let start_span = self
            .telem
            .tracer
            .span_start(now, "container_start", root, |_| {});
        let blind = self.sabotage == Sabotage::BlindPlacement;
        let alive = blind
            || self
                .rpc
                .call_traced(
                    target,
                    now,
                    &mut self.telem.tracer,
                    SpanContext::of(start_span),
                )
                .is_ok();
        if !alive {
            // The target died (or lost reachability) during the pull:
            // give the slot back and run the placement again.
            self.view.release(ticket);
            self.reserved.remove(&ticket);
            self.telem.tracer.span_end(now, start_span, |e| {
                e.bool("ok", false);
            });
            if self.telem.is_enabled() {
                self.recovery_spans
                    .insert(name.clone(), (root, SpanId::NONE));
            }
            self.telem.tracer.emit(now, "respawn_retry", |e| {
                e.str("container", &name).u64("node", u64::from(target.0));
            });
            self.start_respawn(name, image, req, ctx);
            return;
        }
        self.reserved.remove(&ticket);
        match self.cloud.api(
            ApiRequest::SpawnContainer {
                node: target,
                name: name.clone(),
                image: image.clone(),
            },
            now,
        ) {
            Ok(ApiResponse::Spawned { container, .. }) => {
                // The API re-leased DHCP and re-registered DNS on the way.
                if self.check_invariants && !self.node_reachable_ground_truth(target) {
                    self.fail_invariant(
                        "placed-on-unreachable-host",
                        now,
                        format!("container {name} landed on unreachable {target}"),
                    );
                }
                let downtime = self.ledger.close(&name, now);
                self.rescheduled += 1;
                if let (Some(live), Some(d)) = (&mut self.live, downtime) {
                    let reg = &mut self.telem.registry;
                    let id = *live
                        .restore
                        .get_or_insert_with(|| reg.histogram_id("recovery_restore_seconds", &[]));
                    reg.histogram_at(id).observe(d.as_secs_f64());
                }
                self.telem.tracer.span_end(now, start_span, |e| {
                    e.u64("node", u64::from(target.0));
                });
                // `downtime_ns` marks roots that closed a real outage
                // window — exactly the windows the ledger's MTTR averages
                // — so the span export and the report agree by
                // construction. Spurious failovers end without it.
                self.telem.tracer.span_end(now, root, |e| {
                    e.str("outcome", "rescheduled")
                        .u64("node", u64::from(target.0));
                    if let Some(d) = downtime {
                        e.u64("downtime_ns", d.as_nanos());
                    }
                });
                self.telem.tracer.emit(now, "container_rescheduled", |e| {
                    e.str("container", &name).u64("node", u64::from(target.0));
                    if let Some(d) = downtime {
                        e.f64("downtime_s", d.as_secs_f64());
                    }
                });
                self.in_flight.remove(&name);
                self.deployments
                    .entry(target)
                    .or_default()
                    .push(Deployment {
                        name,
                        image,
                        container,
                        ticket,
                        req,
                    });
                self.record_node_power(target, now);
                self.record_fleet(now);
            }
            _ => {
                // The management API refused the spawn: give the slot
                // back and park for retry.
                self.view.release(ticket);
                self.stranded += 1;
                self.in_flight.remove(&name);
                self.telem.tracer.span_end(now, start_span, |e| {
                    e.bool("ok", false);
                });
                if self.telem.is_enabled() {
                    let wait = self.telem.tracer.span_start(now, "parked", root, |_| {});
                    self.recovery_spans.insert(name.clone(), (root, wait));
                }
                self.telem.tracer.emit(now, "container_parked", |e| {
                    e.str("container", &name);
                });
                self.parked.push((name, image, req));
            }
        }
        self.verify_invariants(now);
    }

    /// Records the first invariant violation; later ones are ignored
    /// (the run keeps going so the report stays complete).
    fn fail_invariant(&mut self, invariant: &str, at: SimTime, detail: String) {
        if self.violation.is_none() {
            self.violation = Some(InvariantViolation {
                invariant: invariant.to_owned(),
                at,
                detail,
            });
        }
    }

    /// The chaos harness's safety-invariant registry, checked after every
    /// fault event, every sweep, and every respawn landing:
    ///
    /// 1. `deployment-on-dead-host` — no container record persists on a
    ///    node the detector declared dead or the view cordoned.
    /// 2. `exactly-once-placement` — every fleet container exists exactly
    ///    once, across deployments, in-flight respawns and the park queue.
    /// 3. `outage-ledger-balance` — a container is booked dark iff its
    ///    host is unreachable (ground truth), both directions.
    /// 4. `view-accounting` — the placement view's tickets are exactly
    ///    the deployed tickets plus reserved in-flight ones.
    fn verify_invariants(&mut self, now: SimTime) {
        if !self.check_invariants || self.violation.is_some() {
            return;
        }
        let mut found: Option<(&'static str, String)> = None;

        // 1: no deployment on a dead/cordoned host.
        'outer: for (&node, ds) in &self.deployments {
            if ds.is_empty() {
                continue;
            }
            if self.detector.health(node) == NodeHealth::Dead {
                found = Some((
                    "deployment-on-dead-host",
                    format!(
                        "{} containers still booked on declared-dead {node}",
                        ds.len()
                    ),
                ));
                break 'outer;
            }
            if !self.view.node(node).powered_on {
                found = Some((
                    "deployment-on-dead-host",
                    format!("{} containers booked on cordoned {node}", ds.len()),
                ));
                break 'outer;
            }
        }

        // 2: exactly-once placement.
        if found.is_none() {
            let mut count: BTreeMap<&str, u32> = BTreeMap::new();
            for ds in self.deployments.values() {
                for d in ds {
                    *count.entry(d.name.as_str()).or_insert(0) += 1;
                }
            }
            for n in &self.in_flight {
                *count.entry(n.as_str()).or_insert(0) += 1;
            }
            for (n, _, _) in &self.parked {
                *count.entry(n.as_str()).or_insert(0) += 1;
            }
            for name in &self.fleet_names {
                let c = count.get(name.as_str()).copied().unwrap_or(0);
                if c != 1 {
                    found = Some((
                        "exactly-once-placement",
                        format!("container {name} tracked {c} times (expected exactly 1)"),
                    ));
                    break;
                }
            }
        }

        // 3: outage-ledger balance, both directions.
        if found.is_none() {
            'balance: for (&node, ds) in &self.deployments {
                let reachable = self.node_reachable_ground_truth(node);
                for d in ds {
                    let dark = self.ledger.is_dark(&d.name);
                    if reachable && dark {
                        found = Some((
                            "outage-ledger-balance",
                            format!("{} booked dark but its host {node} is reachable", d.name),
                        ));
                        break 'balance;
                    }
                    if !reachable && !dark {
                        found = Some((
                            "outage-ledger-balance",
                            format!(
                                "{} booked serving but its host {node} is unreachable",
                                d.name
                            ),
                        ));
                        break 'balance;
                    }
                }
            }
        }

        // 4: view accounting.
        if found.is_none() {
            let mut expected: BTreeSet<PlacementTicket> = self.reserved.clone();
            for ds in self.deployments.values() {
                for d in ds {
                    expected.insert(d.ticket);
                }
            }
            let actual: BTreeSet<PlacementTicket> =
                self.view.placements().map(|(t, _, _)| t).collect();
            if expected != actual {
                found = Some((
                    "view-accounting",
                    format!(
                        "view holds {} tickets, controller books {}",
                        actual.len(),
                        expected.len()
                    ),
                ));
            }
        }

        if let Some((invariant, detail)) = found {
            self.fail_invariant(invariant, now, detail);
        }
    }

    /// End-of-run check for schedules that guarantee every fault heals:
    /// with the slack the chaos profile reserves, every workload must be
    /// serving again — nothing parked, nothing mid-flight, nothing dark.
    fn verify_eventual_recovery(&mut self, now: SimTime) {
        if !self.check_invariants || self.violation.is_some() {
            return;
        }
        if !self.parked.is_empty() || !self.in_flight.is_empty() {
            let detail = format!(
                "{} parked, {} in flight after all faults healed",
                self.parked.len(),
                self.in_flight.len()
            );
            self.fail_invariant("eventual-recovery", now, detail);
            return;
        }
        let dark = self.ledger.dark_count();
        if dark > 0 {
            self.fail_invariant(
                "eventual-recovery",
                now,
                format!("{dark} containers still dark after all faults healed"),
            );
        }
    }

    /// End-of-run telemetry: folds every subsystem's final state into the
    /// sink's registry so one snapshot covers power, network, SDN-free
    /// management plane, containers, RPC and outage accounting.
    fn finish_telemetry(&mut self, now: SimTime) {
        if !self.telem.is_enabled() {
            return;
        }
        // Truncate recovery chains still open at the horizon (crashed but
        // undetected, or awaiting a respawn that never fired). Iteration
        // is by container name, so the close order is deterministic.
        let open_spans = std::mem::take(&mut self.recovery_spans);
        for (_, (span_root, child)) in open_spans {
            self.telem.tracer.span_end(now, child, |e| {
                e.bool("truncated", true);
            });
            self.telem.tracer.span_end(now, span_root, |e| {
                e.bool("truncated", true);
            });
        }
        for node in self.cloud.node_ids().collect::<Vec<_>>() {
            self.record_node_power(node, now);
        }
        self.record_link_utilisation(now);
        self.record_fleet(now);
        let reg = &mut self.telem.registry;
        self.rpc.record_telemetry(reg, now);
        self.detector.record_telemetry(reg, now);
        self.ledger.record_telemetry(reg, now);
        self.cloud.pimaster_mut().record_telemetry(reg, now);
        let reg = &mut self.telem.registry;
        for d in self.cloud.pimaster().daemons() {
            let node = d.node().0.to_string();
            d.host().record_telemetry(reg, &node, now);
        }
        let totals: [(&str, u64); 13] = [
            ("recovery_crashes_total", self.crashes),
            ("recovery_repairs_total", self.repairs),
            ("recovery_detections_total", self.detections),
            ("recovery_rejoins_total", self.rejoins),
            ("recovery_rescheduled_total", self.rescheduled),
            ("recovery_stranded_total", self.stranded),
            ("recovery_local_restarts_total", self.local_restarts),
            ("recovery_daemon_hangs_total", self.daemon_hangs),
            ("recovery_rack_power_losses_total", self.rack_power_losses),
            ("recovery_tor_outages_total", self.tor_outages),
            ("recovery_partitions_total", self.partitions),
            ("recovery_gray_faults_total", self.gray_faults),
            ("recovery_reconnects_total", self.reconnects),
        ];
        for (name, total) in totals {
            let c = self.telem.registry.counter(name, &[]);
            c.add(total - c.value());
        }
        self.telem
            .registry
            .gauge("network_min_reachability", &[])
            .set(now, self.min_reachability);
        // Boundary scrape: the horizon sample makes full-run windows
        // reproduce every snapshot mean/total exactly, and gives the
        // end-of-run fold-in counters their one sample.
        self.telem.scrape_now(now);
    }
}

/// Runs `timeline` against a freshly built paper cluster (4 racks × 14
/// Pis) for `horizon` of simulated time and reports what the control
/// loop achieved. Two runs with the same arguments are identical.
///
/// # Panics
///
/// Panics if the initial deployment does not fit the cluster (only
/// possible with an oversized `containers_per_node`).
pub fn run_recovery(
    config: &RecoveryConfig,
    timeline: &FaultTimeline,
    horizon: SimDuration,
    seed: u64,
) -> RecoveryReport {
    run_recovery_inner(
        config,
        timeline,
        horizon,
        seed,
        TelemetrySink::disabled(),
        None,
    )
    .0
}

/// Like [`run_recovery`], but records into the supplied [`TelemetrySink`]
/// as it goes: labeled power/thermal, per-link utilisation, container
/// fleet, detector and RPC series in the registry, plus a sim-time trace
/// of every fault, detection, failover and restart. With a disabled sink
/// this does exactly the work of [`run_recovery`] (the hooks early-out
/// before touching the sink), so reports are identical either way.
///
/// Returns the report together with the sink, now holding the run's
/// metrics and trace.
///
/// # Panics
///
/// Panics if the initial deployment does not fit the cluster (only
/// possible with an oversized `containers_per_node`).
pub fn run_recovery_with_telemetry(
    config: &RecoveryConfig,
    timeline: &FaultTimeline,
    horizon: SimDuration,
    seed: u64,
    sink: TelemetrySink,
) -> (RecoveryReport, TelemetrySink) {
    let (report, sink, _) = run_recovery_inner(config, timeline, horizon, seed, sink, None);
    (report, sink)
}

/// Chaos-harness entry: like [`run_recovery`], but with the safety
/// invariants armed (checked after every fault, sweep and landing) and an
/// optional deliberate [`Sabotage`]. Returns the first violation, if any.
pub(crate) fn run_recovery_chaos(
    config: &RecoveryConfig,
    timeline: &FaultTimeline,
    horizon: SimDuration,
    seed: u64,
    chaos: ChaosMode,
) -> (RecoveryReport, Option<InvariantViolation>) {
    let (report, _, violation) = run_recovery_inner(
        config,
        timeline,
        horizon,
        seed,
        TelemetrySink::disabled(),
        Some(chaos),
    );
    (report, violation)
}

/// Shared body of the `run_recovery*` entry points.
fn run_recovery_inner(
    config: &RecoveryConfig,
    timeline: &FaultTimeline,
    horizon: SimDuration,
    seed: u64,
    sink: TelemetrySink,
    chaos: Option<ChaosMode>,
) -> (RecoveryReport, TelemetrySink, Option<InvariantViolation>) {
    let mut cloud = PiCloud::builder().seed(seed).build();
    let node_count = cloud.node_count();
    let racks = cloud.racks().len().max(1);
    let mut view = ClusterView::homogeneous(
        node_count as u32,
        (node_count / racks) as u32,
        cloud.node_spec(),
    );
    if config.cpu_overcommit > 1.0 {
        view = view.with_cpu_overcommit(config.cpu_overcommit);
    }
    let domains = DomainTree::from_topology(cloud.topology());
    // Both per-node tables are sized from the cluster, never from an id
    // a fault names.
    let mut detector = FailureDetector::new(config.detector, node_count);
    let rpc = RpcPlane::new(config.rpc, &cloud.seeds().child("recovery"), node_count);
    let mut deployments: BTreeMap<NodeId, Vec<Deployment>> = BTreeMap::new();
    let mut fleet_names = BTreeSet::new();

    // The steady-state fleet: lighttpd everywhere, as §II-B deploys.
    let req = PlacementRequest::new(Bytes::mib(30), 100e6);
    let nodes: Vec<NodeId> = cloud.node_ids().collect();
    for &node in &nodes {
        detector.register(node, SimTime::ZERO);
        for c in 0..config.containers_per_node {
            let name = format!("web-{}-{c}", node.0);
            #[expect(
                clippy::expect_used,
                reason = "fleet sizing is a config invariant — 192 MiB guest RAM admits 6 containers/node and every built-in config stays within it"
            )]
            let resp = cloud
                .api(
                    ApiRequest::SpawnContainer {
                        node,
                        name: name.clone(),
                        image: "lighttpd".to_owned(),
                    },
                    SimTime::ZERO,
                )
                .expect("initial fleet fits the cluster");
            let ApiResponse::Spawned { container, .. } = resp else {
                unreachable!("spawn returns Spawned");
            };
            let ticket = view.commit(node, req);
            fleet_names.insert(name.clone());
            deployments.entry(node).or_default().push(Deployment {
                name,
                image: "lighttpd".to_owned(),
                container,
                ticket,
                req,
            });
        }
    }

    let containers = node_count * config.containers_per_node;
    let horizon_end = SimTime::ZERO + horizon;
    let policy_seed = seed;
    let mut world = RecoveryWorld {
        detector,
        rpc,
        view,
        policy: config.policy.build(policy_seed),
        mask: FailureMask::none(),
        mask_view: None,
        ledger: OutageLedger::new(config.request_rate_hz),
        domains,
        deployments,
        crashed_at: BTreeMap::new(),
        down_reasons: BTreeMap::new(),
        tor_down: BTreeMap::new(),
        partition_masks: Vec::new(),
        link_faults: BTreeMap::new(),
        storage_slow: BTreeMap::new(),
        cpu_slow: BTreeMap::new(),
        in_flight: BTreeSet::new(),
        parked: Vec::new(),
        reserved: BTreeSet::new(),
        fleet_names,
        config: *config,
        horizon_end,
        crashes: 0,
        repairs: 0,
        daemon_hangs: 0,
        link_downs: 0,
        link_ups: 0,
        rack_power_losses: 0,
        tor_outages: 0,
        partitions: 0,
        gray_faults: 0,
        detections: 0,
        rejoins: 0,
        rescheduled: 0,
        stranded: 0,
        local_restarts: 0,
        reconnects: 0,
        detect_delay_sum: SimDuration::ZERO,
        detect_delay_count: 0,
        min_reachability: ConnectivityReport::measure(cloud.topology()).reachability(),
        sabotage: chaos.map_or(Sabotage::None, |c| c.sabotage),
        check_invariants: chaos.is_some(),
        violation: None,
        recovery_spans: BTreeMap::new(),
        live: None,
        telem: sink,
        cloud,
    };
    // Baseline snapshot at t=0: every board's power curve at its steady
    // fleet load and every link's heartbeat utilisation, so the series
    // exist before the first fault perturbs them.
    if world.telem.is_enabled() {
        world.live = Some(LiveSeries::resolve(
            &mut world.telem.registry,
            &world.cloud,
            &world.domains,
        ));
    }
    for node in world.cloud.node_ids().collect::<Vec<_>>() {
        world.record_node_power(node, SimTime::ZERO);
    }
    world.record_link_utilisation(SimTime::ZERO);
    world.record_fleet(SimTime::ZERO);
    // Boundary scrape: every baseline series gets a t=0 sample, anchoring
    // the full-window query identities (see simcore::telemetry::tsdb).
    world.telem.scrape_now(SimTime::ZERO);

    let mut engine = Engine::new(world);
    timeline.install(&mut engine, |w: &mut RecoveryWorld, ctx, event| {
        w.apply_fault(event, ctx.now());
    });
    let interval = config.detector.heartbeat_interval;
    engine.schedule_at(SimTime::ZERO + interval, |w: &mut RecoveryWorld, ctx| {
        w.sweep(ctx)
    });
    engine.run_until(horizon_end);
    let events_fired = engine.events_fired();

    let mut w = engine.into_world();
    if chaos.is_some_and(|c| c.heals_all) {
        w.verify_eventual_recovery(horizon_end);
    }
    let unplaced_at_end = (w.parked.len() + w.in_flight.len()) as u64;
    w.ledger.close_all_unrecovered(horizon_end);
    w.finish_telemetry(horizon_end);
    let report = RecoveryReport {
        horizon,
        containers,
        crashes: w.crashes,
        repairs: w.repairs,
        daemon_hangs: w.daemon_hangs,
        link_downs: w.link_downs,
        link_ups: w.link_ups,
        rack_power_losses: w.rack_power_losses,
        tor_outages: w.tor_outages,
        partitions: w.partitions,
        gray_faults: w.gray_faults,
        detections: w.detections,
        false_suspicions: w.detector.false_suspicions(),
        rejoins: w.rejoins,
        rescheduled: w.rescheduled,
        stranded: w.stranded,
        local_restarts: w.local_restarts,
        reconnects: w.reconnects,
        unplaced_at_end,
        mean_time_to_detect: if w.detect_delay_count == 0 {
            None
        } else {
            Some(w.detect_delay_sum / w.detect_delay_count)
        },
        mean_time_to_restore: w.ledger.mean_time_to_restore(),
        worst_downtime: w.ledger.worst_downtime(horizon_end),
        total_downtime: w.ledger.total_downtime(),
        lost_requests: w.ledger.lost_requests(),
        availability: w.ledger.availability(horizon, containers),
        min_reachability: w.min_reachability,
        rpc: w.rpc.stats(),
        events_fired,
    };
    (report, w.telem, w.violation)
}

/// One scripted crash → detect → reschedule → restart cycle on the full
/// 56-node fabric — the unit the `failure/detect_and_recover` bench
/// times, and a convenient smoke test.
pub fn single_crash_cycle(seed: u64) -> RecoveryReport {
    let mut timeline = FaultTimeline::new();
    timeline.push(
        SimTime::from_secs(10),
        FaultKind::NodeCrash { node: NodeId(3) },
    );
    timeline.push(
        SimTime::from_secs(40),
        FaultKind::NodeRepair { node: NodeId(3) },
    );
    run_recovery(
        &RecoveryConfig::lan_default(),
        &timeline,
        SimDuration::from_secs(60),
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_crash_recovers_every_victim() {
        let r = single_crash_cycle(7);
        assert_eq!(r.crashes, 1);
        assert_eq!(r.detections, 1);
        assert_eq!(r.rescheduled, 2, "both containers fail over");
        assert_eq!(r.stranded, 0);
        assert_eq!(r.rejoins, 1, "the repaired node rejoins");
        let mttd = r.mean_time_to_detect.expect("crash was detected");
        // k-missed detection: between suspect (3 s) and a couple of
        // sweeps past dead_missed (8 s).
        assert!(
            mttd >= SimDuration::from_secs(3) && mttd <= SimDuration::from_secs(12),
            "{mttd}"
        );
        let mttr = r.mean_time_to_restore.expect("containers restored");
        assert!(mttr >= mttd, "restoration includes detection");
        assert!(r.availability > 0.99 && r.availability < 1.0);
        assert!(r.lost_requests > 0);
    }

    #[test]
    fn repair_before_detection_restarts_locally() {
        // Down for 2 s — well under the 8 s death verdict.
        let mut tl = FaultTimeline::new();
        tl.push(
            SimTime::from_secs(10),
            FaultKind::NodeCrash { node: NodeId(5) },
        );
        tl.push(
            SimTime::from_secs(12),
            FaultKind::NodeRepair { node: NodeId(5) },
        );
        let r = run_recovery(
            &RecoveryConfig::lan_default(),
            &tl,
            SimDuration::from_secs(30),
            1,
        );
        assert_eq!(r.detections, 0);
        assert_eq!(r.rescheduled, 0);
        assert_eq!(r.local_restarts, 2);
        assert!(r.availability < 1.0, "the 2 s blackout still counts");
    }

    #[test]
    fn long_hang_causes_spurious_failover() {
        // A 20 s hang exceeds the 8 s death verdict: the controller
        // fails the node's containers over even though it never crashed.
        let mut tl = FaultTimeline::new();
        tl.push(
            SimTime::from_secs(10),
            FaultKind::DaemonHang {
                node: NodeId(9),
                lasting: SimDuration::from_secs(20),
            },
        );
        let r = run_recovery(
            &RecoveryConfig::lan_default(),
            &tl,
            SimDuration::from_secs(60),
            1,
        );
        assert_eq!(r.crashes, 0);
        assert_eq!(r.detections, 1);
        assert_eq!(r.rescheduled, 2);
        assert!(r.mean_time_to_detect.is_none(), "no real crash to time");
        assert_eq!(r.rejoins, 1, "the hung node comes back");
    }

    #[test]
    fn rack_power_loss_fans_out_to_every_member() {
        let mut tl = FaultTimeline::new();
        tl.push(SimTime::from_secs(10), FaultKind::RackPowerLoss { rack: 1 });
        tl.push(
            SimTime::from_secs(100),
            FaultKind::RackPowerRestore { rack: 1 },
        );
        let r = run_recovery(
            &RecoveryConfig::lan_default(),
            &tl,
            SimDuration::from_secs(150),
            3,
        );
        assert_eq!(r.rack_power_losses, 1);
        assert_eq!(r.crashes, 0, "no independent crashes were injected");
        assert_eq!(r.detections, 14, "every member of the rack goes dark");
        assert_eq!(r.rescheduled, 28, "all 28 victims fail over");
        assert_eq!(r.stranded, 0, "three racks of headroom remain");
        assert_eq!(r.rejoins, 14, "the whole rack rejoins after restore");
        assert_eq!(r.unplaced_at_end, 0);
        assert!(r.availability < 1.0);
    }

    #[test]
    fn overlapping_crash_and_rack_loss_need_both_heals() {
        // Node 14 (rack 1) crashes on its own, then the rack browns out.
        // Restoring rack power alone must NOT revive the node; its own
        // repair later does — and windows close exactly once.
        let mut tl = FaultTimeline::new();
        tl.push(
            SimTime::from_secs(5),
            FaultKind::NodeCrash { node: NodeId(14) },
        );
        tl.push(SimTime::from_secs(6), FaultKind::RackPowerLoss { rack: 1 });
        tl.push(
            SimTime::from_secs(7),
            FaultKind::RackPowerRestore { rack: 1 },
        );
        // Restore beats detection for the 13 healthy members; node 14 is
        // still down (own crash) until its repair at 8 s.
        tl.push(
            SimTime::from_secs(8),
            FaultKind::NodeRepair { node: NodeId(14) },
        );
        let r = run_recovery(
            &RecoveryConfig::lan_default(),
            &tl,
            SimDuration::from_secs(30),
            3,
        );
        assert_eq!(r.detections, 0, "all heals beat the death verdict");
        assert_eq!(
            r.local_restarts, 28,
            "13 members restart at rack restore, node 14 at its repair"
        );
        assert_eq!(r.rescheduled, 0);
    }

    #[test]
    fn short_tor_outage_reconnects_without_failover() {
        // ToR down for 5 s — under the 8 s death verdict, so the rack's
        // containers go dark and come back with the switch, no failover.
        let mut tl = FaultTimeline::new();
        tl.push(SimTime::from_secs(10), FaultKind::TorSwitchDown { rack: 0 });
        tl.push(SimTime::from_secs(15), FaultKind::TorSwitchUp { rack: 0 });
        let r = run_recovery(
            &RecoveryConfig::lan_default(),
            &tl,
            SimDuration::from_secs(40),
            5,
        );
        assert_eq!(r.tor_outages, 1);
        assert_eq!(r.reconnects, 28, "every rack-0 container reconnects");
        assert_eq!(r.rescheduled, 0);
        assert_eq!(r.detections, 0);
        assert!(r.min_reachability < 1.0, "the outage dents the fabric");
        assert!(r.availability < 1.0, "5 s of darkness is booked");
    }

    #[test]
    fn partial_partition_blocks_the_masked_racks() {
        let mut tl = FaultTimeline::new();
        tl.push(
            SimTime::from_secs(10),
            FaultKind::PartialPartition { rack_mask: 0b0011 },
        );
        tl.push(
            SimTime::from_secs(14),
            FaultKind::PartitionHeal { rack_mask: 0b0011 },
        );
        let r = run_recovery(
            &RecoveryConfig::lan_default(),
            &tl,
            SimDuration::from_secs(40),
            5,
        );
        assert_eq!(r.partitions, 1);
        assert_eq!(r.reconnects, 56, "two racks' containers reconnect");
        assert_eq!(r.detections, 0, "the heal beats the death verdict");
        assert!(r.min_reachability < 1.0);
    }

    #[test]
    fn degraded_sd_card_stretches_the_image_pull() {
        // Crash node 3 twice — once with every survivor's SD card at
        // 200 ‰, once clean. Same detection path; only the pull differs,
        // so MTTR must stretch by roughly the throughput ratio.
        let crash = |degrade: bool| {
            let mut tl = FaultTimeline::new();
            if degrade {
                for n in 0..56 {
                    tl.push(
                        SimTime::from_secs(1),
                        FaultKind::SdCardDegraded {
                            node: NodeId(n),
                            permille: 200,
                        },
                    );
                }
            }
            tl.push(
                SimTime::from_secs(10),
                FaultKind::NodeCrash { node: NodeId(3) },
            );
            run_recovery(
                &RecoveryConfig::lan_default(),
                &tl,
                SimDuration::from_secs(60),
                9,
            )
        };
        let slow = crash(true);
        let fast = crash(false);
        assert_eq!(slow.rescheduled, 2);
        assert_eq!(fast.rescheduled, 2);
        let mttr_slow = slow.mean_time_to_restore.expect("restored");
        let mttr_fast = fast.mean_time_to_restore.expect("restored");
        // 2 s pull at 200 ‰ becomes 10 s: MTTR grows by the 8 s delta.
        let delta = mttr_slow.saturating_sub(mttr_fast);
        assert!(
            delta >= SimDuration::from_secs(7) && delta <= SimDuration::from_secs(9),
            "pull stretch should be ~8 s, got {delta}"
        );
        assert_eq!(slow.gray_faults, 56);
    }

    #[test]
    fn full_cluster_crash_parks_until_capacity_returns() {
        // Crash a node while every other node is already full: the 2
        // victims park. When the node repairs and rejoins, the parked
        // retry lands them — recovery converges instead of stranding.
        let config = RecoveryConfig {
            containers_per_node: 6, // 6 × 30 MiB fills the 192 MiB guest RAM
            ..RecoveryConfig::lan_default()
        };
        let mut tl = FaultTimeline::new();
        tl.push(
            SimTime::from_secs(10),
            FaultKind::NodeCrash { node: NodeId(0) },
        );
        tl.push(
            SimTime::from_secs(40),
            FaultKind::NodeRepair { node: NodeId(0) },
        );
        let r = run_recovery(&config, &tl, SimDuration::from_secs(120), 11);
        assert!(
            r.stranded > 0,
            "victims must park while the cluster is full"
        );
        assert_eq!(r.rescheduled, 6, "all 6 land once the node rejoins");
        assert_eq!(r.unplaced_at_end, 0, "nothing left parked at the end");
    }

    #[test]
    fn deterministic() {
        assert_eq!(single_crash_cycle(42), single_crash_cycle(42));
    }

    #[test]
    fn memoised_heartbeat_paths_match_a_bfs_per_host() {
        use picloud_network::topology::DeviceKind;
        use rand::{Rng, SeedableRng};
        let topo = Topology::multi_root_tree(4, 14, 2);
        let root = picloud_network::failure::aggregation_devices(&topo)[0];
        let hosts: Vec<DeviceId> = topo.hosts().map(|d| d.id).collect();
        let kind = |d: DeviceId| topo.device(d).kind;
        let host_links: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| kind(l.a).is_host() || kind(l.b).is_host())
            .map(|l| l.id)
            .collect();
        let uplinks: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| {
                let ends = [kind(l.a), kind(l.b)];
                ends.iter()
                    .any(|k| matches!(k, DeviceKind::TopOfRack { .. }))
                    && ends.contains(&DeviceKind::Aggregation)
            })
            .map(|l| l.id)
            .collect();
        assert_eq!((host_links.len(), uplinks.len()), (56, 8));
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(17);
        for _ in 0..200 {
            let mut dead: BTreeSet<LinkId> = topo
                .links()
                .iter()
                .filter(|_| rng.gen_bool(0.05))
                .map(|l| l.id)
                .collect();
            dead.insert(host_links[rng.gen_range(0..host_links.len())]);
            dead.insert(uplinks[rng.gen_range(0..uplinks.len())]);
            let bfs: Vec<Option<Vec<LinkId>>> = hosts
                .iter()
                .map(|&h| shortest_path_avoiding(&topo, h, root, &dead))
                .collect();
            assert_eq!(
                heartbeat_paths(&topo, hosts.iter().copied(), root, &dead),
                bfs,
                "dead links {dead:?}"
            );
        }
        // The root reaches itself by the empty path, even when it has one
        // live link left.
        let dead: BTreeSet<LinkId> = topo
            .neighbours(root)
            .iter()
            .skip(1)
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(dead.len(), 4, "four ToR uplinks and the gateway link");
        assert_eq!(
            heartbeat_paths(&topo, std::iter::once(root), root, &dead),
            [Some(Vec::new())]
        );
    }
}
