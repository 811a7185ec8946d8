//! Heartbeat failure detection: the pimaster's view of who is alive.
//!
//! Each registered node is expected to heartbeat every
//! [`DetectorConfig::heartbeat_interval`]. The detector combines two
//! signals into one verdict:
//!
//! * **k-missed heartbeats** — the crisp rule operators configure:
//!   `suspect_missed` silent intervals ⇒ `Suspected`, `dead_missed` ⇒
//!   `Dead`.
//! * **phi accrual** (Hayashibara et al.) — a continuous suspicion score
//!   `phi = log10(e) · elapsed / mean_interval` over the *observed*
//!   inter-arrival mean, so a node whose daemon is merely slow accrues
//!   suspicion gradually instead of flipping on one late packet. Crossing
//!   [`DetectorConfig::phi_threshold`] also suspects the node.
//!
//! Nodes move through `Up → Suspected → Dead → Recovered`; a heartbeat
//! clears suspicion, resurrects the dead into `Recovered`, and one more
//! beat settles `Recovered` back to `Up`.
//!
//! The detector watches a fixed set of node ids, `0..nodes`, sized when
//! it is built: its records are one table indexed by [`NodeId::index`],
//! so the 1 s poll of every node walks an array rather than a map.

use picloud_hardware::node::NodeId;
use picloud_simcore::telemetry::MetricsRegistry;
use picloud_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// log10(e), the phi-accrual scale factor for exponential inter-arrivals.
const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Where a node stands in the failure-detection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeHealth {
    /// Heartbeating normally.
    Up,
    /// Missed enough heartbeats (or accrued enough phi) to be suspect;
    /// not yet acted upon.
    Suspected,
    /// Declared dead; the recovery controller may act.
    Dead,
    /// Heartbeating again after having been declared dead.
    Recovered,
}

impl fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeHealth::Up => "up",
            NodeHealth::Suspected => "suspected",
            NodeHealth::Dead => "dead",
            NodeHealth::Recovered => "recovered",
        };
        write!(f, "{s}")
    }
}

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Expected heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// Missed intervals before `Up → Suspected`.
    pub suspect_missed: u32,
    /// Missed intervals before `Suspected → Dead`.
    pub dead_missed: u32,
    /// Phi score that also triggers suspicion.
    pub phi_threshold: f64,
}

impl DetectorConfig {
    /// Sensible switched-LAN defaults for the 1 s poll loop the panel
    /// already uses: suspect after 3 silent seconds, declare death after 8.
    pub fn lan_default() -> Self {
        DetectorConfig {
            heartbeat_interval: SimDuration::from_secs(1),
            suspect_missed: 3,
            dead_missed: 8,
            phi_threshold: 8.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct NodeRecord {
    last_heartbeat: SimTime,
    /// EWMA of observed inter-arrival, seconds.
    mean_interval: f64,
    health: NodeHealth,
    declared_dead_at: Option<SimTime>,
}

impl NodeRecord {
    /// The phi-accrual suspicion score at `now`.
    fn phi(&self, config: &DetectorConfig, now: SimTime) -> f64 {
        let elapsed = now
            .saturating_duration_since(self.last_heartbeat)
            .as_secs_f64();
        let mean = self
            .mean_interval
            .max(config.heartbeat_interval.as_secs_f64() * 1e-3);
        LOG10_E * elapsed / mean
    }

    /// Applies the lifecycle transitions due at `now` and returns the
    /// verdict.
    fn poll(&mut self, config: &DetectorConfig, now: SimTime) -> NodeHealth {
        let silent = now.saturating_duration_since(self.last_heartbeat);
        let missed = (silent.as_nanos() / config.heartbeat_interval.as_nanos().max(1)) as u32;
        // Two sequential checks, so a node silent far past the death
        // threshold walks Up → Suspected → Dead within one evaluation.
        if matches!(self.health, NodeHealth::Up | NodeHealth::Recovered)
            && (missed >= config.suspect_missed || self.phi(config, now) >= config.phi_threshold)
        {
            self.health = NodeHealth::Suspected;
        }
        if self.health == NodeHealth::Suspected && missed >= config.dead_missed {
            self.health = NodeHealth::Dead;
            self.declared_dead_at = Some(now);
        }
        self.health
    }
}

/// The heartbeat failure detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureDetector {
    config: DetectorConfig,
    /// One slot per watched id, indexed by [`NodeId::index`]; `None`
    /// until the node registers.
    nodes: Vec<Option<NodeRecord>>,
    /// `Suspected → Up` transitions: suspicions that proved false.
    false_suspicions: u64,
}

impl FailureDetector {
    /// Creates a detector with `config` that can watch node ids
    /// `0..nodes`, none of them registered yet.
    pub fn new(config: DetectorConfig, nodes: usize) -> Self {
        assert!(
            config.suspect_missed > 0 && config.dead_missed > config.suspect_missed,
            "death must require more missed beats than suspicion"
        );
        FailureDetector {
            config,
            nodes: vec![None; nodes],
            false_suspicions: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Registers a node as `Up` with a synthetic heartbeat at `now`.
    ///
    /// # Panics
    ///
    /// If `node` is outside the ids the detector was built for.
    pub fn register(&mut self, node: NodeId, now: SimTime) {
        assert!(
            node.index() < self.nodes.len(),
            "{node} is outside the detector's {} nodes",
            self.nodes.len()
        );
        self.nodes[node.index()] = Some(NodeRecord {
            last_heartbeat: now,
            mean_interval: self.config.heartbeat_interval.as_secs_f64(),
            health: NodeHealth::Up,
            declared_dead_at: None,
        });
    }

    /// `node`'s record, if it is registered.
    fn record(&self, node: NodeId) -> Option<&NodeRecord> {
        self.nodes.get(node.index()).and_then(Option::as_ref)
    }

    /// Every registered node's record, in id order.
    fn records(&self) -> impl Iterator<Item = &NodeRecord> {
        self.nodes.iter().flatten()
    }

    /// Records a heartbeat from `node` at `now` and returns the verdict
    /// it replaced (`Dead` for an unregistered node, whose heartbeat is
    /// ignored).
    ///
    /// Clears suspicion; resurrects a `Dead` node into `Recovered`, and a
    /// further beat settles `Recovered` back into `Up`.
    pub fn heartbeat(&mut self, node: NodeId, now: SimTime) -> NodeHealth {
        let Some(rec) = self.nodes.get_mut(node.index()).and_then(Option::as_mut) else {
            return NodeHealth::Dead;
        };
        let gap = now
            .saturating_duration_since(rec.last_heartbeat)
            .as_secs_f64();
        if gap > 0.0 {
            rec.mean_interval = 0.8 * rec.mean_interval + 0.2 * gap;
        }
        rec.last_heartbeat = now;
        let before = rec.health;
        rec.health = match before {
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

    /// The phi-accrual suspicion score for `node` at `now`; `0.0` for an
    /// unknown node, rising without bound the longer the silence.
    pub fn phi(&self, node: NodeId, now: SimTime) -> f64 {
        self.record(node)
            .map_or(0.0, |rec| rec.phi(&self.config, now))
    }

    /// Re-evaluates `node` at `now`, applying lifecycle transitions, and
    /// returns its health. Unknown nodes report `Dead`.
    pub fn poll(&mut self, node: NodeId, now: SimTime) -> NodeHealth {
        match self.nodes.get_mut(node.index()).and_then(Option::as_mut) {
            Some(rec) => rec.poll(&self.config, now),
            None => NodeHealth::Dead,
        }
    }

    /// Polls every node in id order and returns those that transitioned
    /// to `Dead` during this sweep — the recovery controller's work
    /// queue. Allocates only when a node dies.
    pub fn sweep(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut newly_dead = Vec::new();
        for (index, slot) in self.nodes.iter_mut().enumerate() {
            let Some(rec) = slot else {
                continue;
            };
            let before = rec.health;
            if rec.poll(&self.config, now) == NodeHealth::Dead && before != NodeHealth::Dead {
                newly_dead.push(NodeId(index as u32));
            }
        }
        newly_dead
    }

    /// A node's current verdict without re-evaluating timers.
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.record(node).map_or(NodeHealth::Dead, |r| r.health)
    }

    /// When the node was last declared dead, if ever.
    pub fn declared_dead_at(&self, node: NodeId) -> Option<SimTime> {
        self.record(node).and_then(|r| r.declared_dead_at)
    }

    /// All nodes currently verdicted `Dead`, in id order.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some_and(|r| r.health == NodeHealth::Dead))
            .map(|(index, _)| NodeId(index as u32))
            .collect()
    }

    /// Suspicions later cleared by a heartbeat (`Suspected → Up`).
    pub fn false_suspicions(&self) -> u64 {
        self.false_suspicions
    }

    /// Records the detector's view into `reg` at `now`: one
    /// `faults_detector_health_count{state}` gauge per [`NodeHealth`]
    /// verdict plus the `faults_false_suspicions_total` counter.
    pub fn record_telemetry(&self, reg: &mut MetricsRegistry, now: SimTime) {
        for state in [
            NodeHealth::Up,
            NodeHealth::Suspected,
            NodeHealth::Dead,
            NodeHealth::Recovered,
        ] {
            let count = self.records().filter(|r| r.health == state).count();
            reg.gauge(
                "faults_detector_health_count",
                &[("state", state.to_string().as_str())],
            )
            .set(now, count as f64);
        }
        let c = reg.counter("faults_false_suspicions_total", &[]);
        c.add(self.false_suspicions - c.value());
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.records().count()
    }

    /// Whether any nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.records().next().is_none()
    }
}

impl fmt::Display for FailureDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = |h: NodeHealth| self.records().filter(|r| r.health == h).count();
        write!(
            f,
            "detector: {} nodes ({} up, {} suspected, {} dead, {} recovered)",
            self.len(),
            count(NodeHealth::Up),
            count(NodeHealth::Suspected),
            count(NodeHealth::Dead),
            count(NodeHealth::Recovered),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> FailureDetector {
        let mut d = FailureDetector::new(DetectorConfig::lan_default(), 2);
        d.register(NodeId(0), SimTime::ZERO);
        d
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn healthy_node_stays_up() {
        let mut d = detector();
        for s in 1..30 {
            d.heartbeat(NodeId(0), secs(s));
            assert_eq!(d.poll(NodeId(0), secs(s)), NodeHealth::Up);
        }
        assert_eq!(d.false_suspicions(), 0);
    }

    #[test]
    fn silence_walks_the_lifecycle() {
        let mut d = detector();
        d.heartbeat(NodeId(0), secs(1));
        assert_eq!(d.poll(NodeId(0), secs(2)), NodeHealth::Up);
        assert_eq!(d.poll(NodeId(0), secs(4)), NodeHealth::Suspected);
        assert_eq!(d.poll(NodeId(0), secs(7)), NodeHealth::Suspected);
        assert_eq!(d.poll(NodeId(0), secs(9)), NodeHealth::Dead);
        assert_eq!(d.declared_dead_at(NodeId(0)), Some(secs(9)));
        assert_eq!(d.dead_nodes(), vec![NodeId(0)]);
        // Resurrection: Dead → Recovered → Up.
        d.heartbeat(NodeId(0), secs(20));
        assert_eq!(d.health(NodeId(0)), NodeHealth::Recovered);
        d.heartbeat(NodeId(0), secs(21));
        assert_eq!(d.health(NodeId(0)), NodeHealth::Up);
    }

    #[test]
    fn short_hang_is_a_false_suspicion_not_a_death() {
        let mut d = detector();
        d.heartbeat(NodeId(0), secs(1));
        assert_eq!(d.poll(NodeId(0), secs(5)), NodeHealth::Suspected);
        d.heartbeat(NodeId(0), secs(6)); // daemon un-wedges
        assert_eq!(d.health(NodeId(0)), NodeHealth::Up);
        assert_eq!(d.false_suspicions(), 1);
    }

    #[test]
    fn phi_grows_with_silence_and_triggers_suspicion() {
        let mut d = detector();
        d.heartbeat(NodeId(0), secs(1));
        assert!(d.phi(NodeId(0), secs(1)) < 1.0);
        let early = d.phi(NodeId(0), secs(3));
        let late = d.phi(NodeId(0), secs(30));
        assert!(early < late, "{early} < {late}");
        // With the observed mean near 1 s, phi crosses 8 near 18.4 s of
        // silence even if the k-missed rule were lax.
        let mut lax = FailureDetector::new(
            DetectorConfig {
                suspect_missed: 1000,
                dead_missed: 2000,
                ..DetectorConfig::lan_default()
            },
            1,
        );
        lax.register(NodeId(0), SimTime::ZERO);
        lax.heartbeat(NodeId(0), secs(1));
        assert_eq!(lax.poll(NodeId(0), secs(10)), NodeHealth::Up);
        assert_eq!(lax.poll(NodeId(0), secs(30)), NodeHealth::Suspected);
    }

    #[test]
    fn sweep_reports_each_death_once() {
        let mut d = FailureDetector::new(DetectorConfig::lan_default(), 2);
        d.register(NodeId(0), SimTime::ZERO);
        d.register(NodeId(1), SimTime::ZERO);
        d.heartbeat(NodeId(1), secs(8)); // node 1 alive, node 0 silent
        let dead = d.sweep(secs(9));
        assert_eq!(dead, vec![NodeId(0)]);
        assert!(d.sweep(secs(10)).is_empty(), "no duplicate verdicts");
    }

    #[test]
    fn unknown_nodes_are_dead() {
        let mut d = detector();
        assert_eq!(d.health(NodeId(9)), NodeHealth::Dead);
        assert_eq!(d.poll(NodeId(9), secs(1)), NodeHealth::Dead);
        assert_eq!(d.phi(NodeId(9), secs(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "more missed beats")]
    fn degenerate_config_rejected() {
        let _ = FailureDetector::new(
            DetectorConfig {
                suspect_missed: 5,
                dead_missed: 5,
                ..DetectorConfig::lan_default()
            },
            1,
        );
    }

    #[test]
    fn display_counts_states() {
        let mut d = detector();
        d.register(NodeId(1), SimTime::ZERO);
        d.poll(NodeId(0), secs(20));
        let _ = d.poll(NodeId(0), secs(20));
        assert!(d.to_string().contains("2 nodes"));
    }
}
