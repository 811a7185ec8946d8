//! The fault planes' per-node tables against a map-keyed model.
//!
//! `FailureDetector` and `RpcPlane` keep one record per node id in a
//! table sized for the cluster. The models below keep the same state in
//! `BTreeMap`s keyed by id, as both planes once did, and replay the same
//! random operations over sparse ids: some ids are never registered or
//! never written, some lie outside the table. Verdicts, phi bits, sweep
//! results, call latencies, counters, display strings and telemetry must
//! all agree. The tables add one rule, that a write aimed outside the
//! RPC plane is ignored, so the harness drops such writes before they
//! reach the model.
//!
//! The last test runs E17, unobserved and observed, with an extra crash
//! and repair of `NodeId(u32::MAX)`, an id a chaos schedule read from
//! JSON may name.

use picloud::experiments::recovery_exp::RecoveryExperiment;
use picloud::{run_recovery, run_recovery_with_telemetry, RecoveryConfig, RecoveryReport};
use picloud_faults::{
    DetectorConfig, FailureDetector, FaultEvent, FaultKind, FaultTimeline, NodeHealth, RpcConfig,
    RpcError, RpcPlane, RpcStats,
};
use picloud_hardware::node::NodeId;
use picloud_simcore::telemetry::{MetricsRegistry, TelemetrySink};
use picloud_simcore::{SeedFactory, SimDuration, SimTime};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Table size and the id range the operations draw from: a third of the
/// ids lie outside the table.
const TABLE: u32 = 16;
const IDS: u32 = 24;

#[derive(Debug, Clone, Copy)]
struct ModelRecord {
    last_heartbeat: SimTime,
    mean_interval: f64,
    health: NodeHealth,
    declared_dead_at: Option<SimTime>,
}

/// The detector with its records in a map.
struct ModelDetector {
    config: DetectorConfig,
    nodes: BTreeMap<NodeId, ModelRecord>,
    false_suspicions: u64,
}

impl ModelDetector {
    fn register(&mut self, node: NodeId, now: SimTime) {
        let record = ModelRecord {
            last_heartbeat: now,
            mean_interval: self.config.heartbeat_interval.as_secs_f64(),
            health: NodeHealth::Up,
            declared_dead_at: None,
        };
        self.nodes.insert(node, record);
    }

    fn heartbeat(&mut self, node: NodeId, now: SimTime) -> NodeHealth {
        let before = self.health(node);
        let Some(rec) = self.nodes.get_mut(&node) else {
            return before;
        };
        let gap = now
            .saturating_duration_since(rec.last_heartbeat)
            .as_secs_f64();
        if gap > 0.0 {
            rec.mean_interval = 0.8 * rec.mean_interval + 0.2 * gap;
        }
        rec.last_heartbeat = now;
        rec.health = match rec.health {
            NodeHealth::Up => NodeHealth::Up,
            NodeHealth::Suspected => {
                self.false_suspicions += 1;
                NodeHealth::Up
            }
            NodeHealth::Dead => NodeHealth::Recovered,
            NodeHealth::Recovered => NodeHealth::Up,
        };
        before
    }

    fn phi(&self, node: NodeId, now: SimTime) -> f64 {
        let Some(rec) = self.nodes.get(&node) else {
            return 0.0;
        };
        let elapsed = now
            .saturating_duration_since(rec.last_heartbeat)
            .as_secs_f64();
        let mean = rec
            .mean_interval
            .max(self.config.heartbeat_interval.as_secs_f64() * 1e-3);
        std::f64::consts::LOG10_E * elapsed / mean
    }

    fn poll(&mut self, node: NodeId, now: SimTime) -> NodeHealth {
        let phi = self.phi(node, now);
        let config = self.config;
        let Some(rec) = self.nodes.get_mut(&node) else {
            return NodeHealth::Dead;
        };
        let silent = now.saturating_duration_since(rec.last_heartbeat);
        let missed = (silent.as_nanos() / config.heartbeat_interval.as_nanos().max(1)) as u32;
        if matches!(rec.health, NodeHealth::Up | NodeHealth::Recovered)
            && (missed >= config.suspect_missed || phi >= config.phi_threshold)
        {
            rec.health = NodeHealth::Suspected;
        }
        if rec.health == NodeHealth::Suspected && missed >= config.dead_missed {
            rec.health = NodeHealth::Dead;
            rec.declared_dead_at = Some(now);
        }
        rec.health
    }

    fn sweep(&mut self, now: SimTime) -> Vec<NodeId> {
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        let mut newly_dead = Vec::new();
        for node in ids {
            let before = self.health(node);
            if self.poll(node, now) == NodeHealth::Dead && before != NodeHealth::Dead {
                newly_dead.push(node);
            }
        }
        newly_dead
    }

    fn health(&self, node: NodeId) -> NodeHealth {
        self.nodes.get(&node).map_or(NodeHealth::Dead, |r| r.health)
    }

    fn count(&self, state: NodeHealth) -> usize {
        self.nodes.values().filter(|r| r.health == state).count()
    }

    fn dead_nodes(&self) -> Vec<NodeId> {
        let dead = self
            .nodes
            .iter()
            .filter(|(_, r)| r.health == NodeHealth::Dead);
        dead.map(|(n, _)| *n).collect()
    }

    fn display(&self) -> String {
        format!(
            "detector: {} nodes ({} up, {} suspected, {} dead, {} recovered)",
            self.nodes.len(),
            self.count(NodeHealth::Up),
            self.count(NodeHealth::Suspected),
            self.count(NodeHealth::Dead),
            self.count(NodeHealth::Recovered),
        )
    }

    fn record_telemetry(&self, reg: &mut MetricsRegistry, now: SimTime) {
        for state in [
            NodeHealth::Up,
            NodeHealth::Suspected,
            NodeHealth::Dead,
            NodeHealth::Recovered,
        ] {
            let state_label = state.to_string();
            reg.gauge("faults_detector_health_count", &[("state", &state_label)])
                .set(now, self.count(state) as f64);
        }
        let c = reg.counter("faults_false_suspicions_total", &[]);
        c.add(self.false_suspicions - c.value());
    }
}

#[derive(Debug, Clone, Copy)]
enum DetectorOp {
    Register(u32),
    Heartbeat(u32),
    Poll(u32),
    Sweep,
    Advance(u64),
}

fn detector_op() -> impl Strategy<Value = DetectorOp> {
    (0u8..9, 0..IDS, 1u64..6_000).prop_map(|(kind, id, ms)| match kind {
        0 => DetectorOp::Register(id),
        1 | 2 => DetectorOp::Heartbeat(id),
        3 => DetectorOp::Poll(id),
        4 => DetectorOp::Sweep,
        _ => DetectorOp::Advance(ms),
    })
}

/// The plane with its destinations in maps.
struct ModelPlane {
    config: RpcConfig,
    jitter: ChaCha12Rng,
    down: BTreeSet<NodeId>,
    hung_until: BTreeMap<NodeId, SimTime>,
    loss: BTreeMap<NodeId, u16>,
    slow: BTreeMap<NodeId, u16>,
    blocked: BTreeMap<NodeId, u32>,
    exhausted: BTreeMap<NodeId, u64>,
    stats: RpcStats,
}

impl ModelPlane {
    fn new(config: RpcConfig, seeds: &SeedFactory) -> Self {
        ModelPlane {
            config,
            jitter: seeds.stream("rpc/jitter"),
            down: BTreeSet::new(),
            hung_until: BTreeMap::new(),
            loss: BTreeMap::new(),
            slow: BTreeMap::new(),
            blocked: BTreeMap::new(),
            exhausted: BTreeMap::new(),
            stats: RpcStats::default(),
        }
    }

    fn apply(&mut self, op: RpcOp, now: SimTime) {
        match op {
            RpcOp::Down(n) => {
                self.down.insert(NodeId(n));
            }
            RpcOp::Up(n) => {
                self.down.remove(&NodeId(n));
                self.hung_until.remove(&NodeId(n));
            }
            RpcOp::Hang(n, ms) => {
                let until = now + SimDuration::from_millis(ms);
                let entry = self.hung_until.entry(NodeId(n)).or_insert(until);
                if *entry < until {
                    *entry = until;
                }
            }
            RpcOp::Loss(n, 0) | RpcOp::ClearLoss(n) => {
                self.loss.remove(&NodeId(n));
            }
            RpcOp::Loss(n, permille) => {
                self.loss.insert(NodeId(n), permille.min(1000));
            }
            RpcOp::Slow(n, permille) if permille == 0 || permille >= 1000 => {
                self.slow.remove(&NodeId(n));
            }
            RpcOp::Slow(n, permille) => {
                self.slow.insert(NodeId(n), permille);
            }
            RpcOp::ClearSlow(n) => {
                self.slow.remove(&NodeId(n));
            }
            RpcOp::Block(n) => *self.blocked.entry(NodeId(n)).or_insert(0) += 1,
            RpcOp::Unblock(n) => {
                if let Some(count) = self.blocked.get_mut(&NodeId(n)) {
                    *count -= 1;
                    if *count == 0 {
                        self.blocked.remove(&NodeId(n));
                    }
                }
            }
            RpcOp::Call(_) | RpcOp::Advance(_) => {}
        }
    }

    fn is_responsive(&self, node: NodeId, now: SimTime) -> bool {
        !self.down.contains(&node)
            && !self.blocked.contains_key(&node)
            && self.hung_until.get(&node).is_none_or(|&t| t <= now)
    }

    fn call(&mut self, node: NodeId, now: SimTime) -> Result<SimDuration, RpcError> {
        self.stats.calls += 1;
        let mut waited = SimDuration::ZERO;
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                let nominal = self
                    .config
                    .backoff_base
                    .mul_f64(f64::from(1u32 << attempt.min(16).saturating_sub(1)))
                    .min(self.config.backoff_cap);
                let backoff = nominal.mul_f64(self.jitter.gen_range(0.5..1.0));
                self.stats.backoff_wait = self.stats.backoff_wait.saturating_add(backoff);
                waited = waited.saturating_add(backoff);
            }
            let dropped = match self.loss.get(&node) {
                Some(&permille) => self.jitter.gen_range(0..1000u16) < permille,
                None => false,
            };
            if !dropped && self.is_responsive(node, now + waited) {
                let jitter = self.jitter.gen_range(0.0..0.25);
                self.stats.replies += 1;
                let rtt = match self.slow.get(&node) {
                    Some(&permille) => self.config.rtt.mul_f64(1000.0 / f64::from(permille.max(1))),
                    None => self.config.rtt,
                };
                return Ok(waited.saturating_add(rtt.mul_f64(1.0 + jitter)));
            }
            self.stats.timeouts += 1;
            if dropped {
                self.stats.drops += 1;
            }
            self.stats.timeout_wait = self.stats.timeout_wait.saturating_add(self.config.timeout);
            waited = waited.saturating_add(self.config.timeout);
        }
        self.stats.failures += 1;
        *self.exhausted.entry(node).or_insert(0) += 1;
        Err(RpcError::Timeout {
            attempts: self.config.max_attempts,
            waited,
        })
    }

    fn display(&self) -> String {
        let s = &self.stats;
        format!(
            "rpc: {} calls, {} replies, {} failures ({} timeouts, {} retries)",
            s.calls, s.replies, s.failures, s.timeouts, s.retries
        )
    }

    fn record_telemetry(&self, reg: &mut MetricsRegistry, now: SimTime) {
        self.stats.record_telemetry(reg, now);
        for (node, &total) in &self.exhausted {
            let label = node.0.to_string();
            let c = reg.counter("rpc_retry_budget_exhausted_total", &[("node", &label)]);
            c.add(total - c.value());
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RpcOp {
    Down(u32),
    Up(u32),
    Hang(u32, u64),
    Loss(u32, u16),
    ClearLoss(u32),
    Slow(u32, u16),
    ClearSlow(u32),
    Block(u32),
    Unblock(u32),
    Call(u32),
    Advance(u64),
}

impl RpcOp {
    /// The id a fault write names; `None` for calls and clock steps.
    fn written(self) -> Option<u32> {
        match self {
            RpcOp::Down(n)
            | RpcOp::Up(n)
            | RpcOp::Hang(n, _)
            | RpcOp::Loss(n, _)
            | RpcOp::ClearLoss(n)
            | RpcOp::Slow(n, _)
            | RpcOp::ClearSlow(n)
            | RpcOp::Block(n)
            | RpcOp::Unblock(n) => Some(n),
            RpcOp::Call(_) | RpcOp::Advance(_) => None,
        }
    }
}

fn rpc_op() -> impl Strategy<Value = RpcOp> {
    let permille = prop::sample::select(vec![0u16, 1, 300, 500, 999, 1000, 1500]);
    (0u8..16, 0..IDS, 0u64..2_000, permille).prop_map(|(kind, id, ms, permille)| match kind {
        0 => RpcOp::Down(id),
        1 => RpcOp::Up(id),
        2 => RpcOp::Hang(id, ms),
        3 => RpcOp::Loss(id, permille),
        4 => RpcOp::ClearLoss(id),
        5 => RpcOp::Slow(id, permille),
        6 => RpcOp::ClearSlow(id),
        7 => RpcOp::Block(id),
        8 => RpcOp::Unblock(id),
        9..=13 => RpcOp::Call(id),
        _ => RpcOp::Advance(ms),
    })
}

fn apply_to_plane(plane: &mut RpcPlane, op: RpcOp, now: SimTime) {
    match op {
        RpcOp::Down(n) => plane.node_down(NodeId(n)),
        RpcOp::Up(n) => plane.node_up(NodeId(n)),
        RpcOp::Hang(n, ms) => plane.hang_daemon(NodeId(n), now + SimDuration::from_millis(ms)),
        RpcOp::Loss(n, permille) => plane.set_loss(NodeId(n), permille),
        RpcOp::ClearLoss(n) => plane.clear_loss(NodeId(n)),
        RpcOp::Slow(n, permille) => plane.set_slow(NodeId(n), permille),
        RpcOp::ClearSlow(n) => plane.clear_slow(NodeId(n)),
        RpcOp::Block(n) => plane.block(NodeId(n)),
        RpcOp::Unblock(n) => plane.unblock(NodeId(n)),
        RpcOp::Call(_) | RpcOp::Advance(_) => {}
    }
}

fn snapshot_jsonl(record: impl FnOnce(&mut MetricsRegistry), now: SimTime) -> String {
    let mut reg = MetricsRegistry::new(SimTime::ZERO);
    record(&mut reg);
    reg.snapshot(now).to_jsonl()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_detector_table_answers_as_the_map_did(
        ops in prop::collection::vec(detector_op(), 1..200),
    ) {
        let config = DetectorConfig::lan_default();
        let mut table = FailureDetector::new(config, TABLE as usize);
        let mut model = ModelDetector { config, nodes: BTreeMap::new(), false_suspicions: 0 };
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                // Registration names the cluster's own nodes only.
                DetectorOp::Register(n) if n < TABLE => {
                    table.register(NodeId(n), now);
                    model.register(NodeId(n), now);
                }
                DetectorOp::Register(_) => {}
                DetectorOp::Heartbeat(n) => {
                    prop_assert_eq!(table.heartbeat(NodeId(n), now), model.heartbeat(NodeId(n), now));
                }
                DetectorOp::Poll(n) => {
                    prop_assert_eq!(table.poll(NodeId(n), now), model.poll(NodeId(n), now));
                }
                DetectorOp::Sweep => prop_assert_eq!(table.sweep(now), model.sweep(now)),
                DetectorOp::Advance(ms) => now += SimDuration::from_millis(ms),
            }
            for n in (0..IDS).map(NodeId) {
                prop_assert_eq!(table.health(n), model.health(n));
                prop_assert_eq!(table.phi(n, now).to_bits(), model.phi(n, now).to_bits());
                let dead_at = model.nodes.get(&n).and_then(|r| r.declared_dead_at);
                prop_assert_eq!(table.declared_dead_at(n), dead_at);
            }
        }
        prop_assert_eq!(table.dead_nodes(), model.dead_nodes());
        prop_assert_eq!(table.len(), model.nodes.len());
        prop_assert_eq!(table.is_empty(), model.nodes.is_empty());
        prop_assert_eq!(table.false_suspicions(), model.false_suspicions);
        prop_assert_eq!(table.to_string(), model.display());
        prop_assert_eq!(
            snapshot_jsonl(|reg| table.record_telemetry(reg, now), now),
            snapshot_jsonl(|reg| model.record_telemetry(reg, now), now)
        );
    }

    #[test]
    fn the_rpc_table_answers_as_the_maps_did(
        ops in prop::collection::vec(rpc_op(), 1..200),
        seed in 0u64..1_000,
    ) {
        let config = RpcConfig::lan_default();
        let seeds = SeedFactory::new(seed);
        let mut table = RpcPlane::new(config, &seeds, TABLE as usize);
        let mut model = ModelPlane::new(config, &seeds);
        let mut now = SimTime::ZERO;
        for op in ops {
            apply_to_plane(&mut table, op, now);
            // The one rule the table adds: writes outside it are ignored.
            if op.written().is_some_and(|n| n < TABLE) {
                model.apply(op, now);
            }
            match op {
                RpcOp::Call(n) => {
                    prop_assert_eq!(table.call(NodeId(n), now), model.call(NodeId(n), now));
                }
                RpcOp::Advance(ms) => now += SimDuration::from_millis(ms),
                _ => {}
            }
            for n in (0..IDS).map(NodeId) {
                prop_assert_eq!(table.is_responsive(n, now), model.is_responsive(n, now));
                prop_assert_eq!(table.is_blocked(n), model.blocked.contains_key(&n));
            }
        }
        prop_assert_eq!(table.stats(), model.stats);
        let exhausted: Vec<(NodeId, u64)> = model.exhausted.iter().map(|(&n, &c)| (n, c)).collect();
        prop_assert_eq!(table.exhausted_by_node().collect::<Vec<_>>(), exhausted);
        prop_assert_eq!(table.to_string(), model.display());
        prop_assert_eq!(
            snapshot_jsonl(|reg| table.record_telemetry(reg, now), now),
            snapshot_jsonl(|reg| model.record_telemetry(reg, now), now)
        );
    }
}

#[test]
fn a_crash_and_repair_outside_the_cluster_change_only_their_counters() {
    let horizon = SimDuration::from_secs(90 * 60);
    let base = RecoveryExperiment::run_for(2013, horizon);
    let outside = NodeId(u32::MAX);
    let mut events = base.timeline.events().to_vec();
    events.push(FaultEvent {
        at: SimTime::from_secs(600),
        kind: FaultKind::NodeCrash { node: outside },
    });
    events.push(FaultEvent {
        at: SimTime::from_secs(1_200),
        kind: FaultKind::NodeRepair { node: outside },
    });
    let timeline = FaultTimeline::scripted(events);
    let config = RecoveryConfig::lan_default();
    // The two extra events also fire as two more engine events.
    let expected = RecoveryReport {
        crashes: base.report.crashes + 1,
        repairs: base.report.repairs + 1,
        events_fired: base.report.events_fired + 2,
        ..base.report
    };
    assert_eq!(run_recovery(&config, &timeline, horizon, 2013), expected);
    // Observed, the run records nothing for the id either.
    let sink = TelemetrySink::recording(SimTime::ZERO);
    let (observed, _) = run_recovery_with_telemetry(&config, &timeline, horizon, 2013, sink);
    assert_eq!(observed, expected);
}
