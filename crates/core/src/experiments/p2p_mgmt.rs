//! **E12 — centralised vs peer-to-peer management** (§III's "radical
//! departures to the norm, such as a peer-to-peer Cloud management
//! system").
//!
//! The pimaster polls every daemon each refresh: one round, `n` messages,
//! perfect freshness, one fatal head node. Gossip pays `n × fanout`
//! messages per round and a few rounds of staleness, but has no special
//! node at all. The experiment measures both, then kills the head node /
//! a third of the peers and measures again.

use crate::report::TextTable;
use picloud_hardware::node::NodeId;
use picloud_mgmt::gossip::GossipNetwork;
use picloud_simcore::SeedFactory;
use std::fmt;

/// One management-plane configuration's scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct MgmtOutcome {
    /// Configuration label.
    pub name: String,
    /// Messages needed for one full view dissemination.
    pub messages: u64,
    /// Rounds needed.
    pub rounds: u32,
    /// Whether a full cluster view survives the failure scenario.
    pub survives_head_loss: bool,
    /// Fraction of nodes still covered by the surviving view after the
    /// failure scenario, in `[0, 1]`.
    pub coverage_after_failure: f64,
}

/// The comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct P2pMgmtExperiment {
    /// Cluster size.
    pub nodes: usize,
    /// One row per configuration.
    pub outcomes: Vec<MgmtOutcome>,
}

impl P2pMgmtExperiment {
    /// Runs the comparison at `nodes` scale.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 4` (the failure scenario kills a quarter).
    pub fn run(seed: u64, nodes: usize) -> P2pMgmtExperiment {
        assert!(nodes >= 4, "need enough nodes to kill some");
        let seeds = SeedFactory::new(seed);
        let mut outcomes = Vec::new();

        // Centralised pimaster: one poll = n messages, one round; losing
        // the head loses the entire view.
        outcomes.push(MgmtOutcome {
            name: "centralised pimaster".to_owned(),
            messages: nodes as u64,
            rounds: 1,
            survives_head_loss: false,
            coverage_after_failure: 0.0,
        });

        // Gossip at fanouts 1, 2, 4: measure convergence, then kill a
        // quarter of the peers and check the survivors still converge.
        for fanout in [1usize, 2, 4] {
            let mut net = GossipNetwork::new(nodes, fanout, &seeds.child(&format!("f{fanout}")));
            // A fanout that cannot converge on a healthy cluster has no
            // row to report.
            let Some(stats) = net.run_to_convergence(256) else {
                continue;
            };
            // Failure scenario: a quarter of the nodes die; the survivors
            // keep gossiping fresh heartbeats.
            let mut survivors =
                GossipNetwork::new(nodes, fanout, &seeds.child(&format!("f{fanout}/fail")));
            for i in 0..(nodes / 4) as u32 {
                survivors.fail_node(NodeId(i));
            }
            let survived = survivors.run_to_convergence(256).is_some();
            let alive = nodes - nodes / 4;
            outcomes.push(MgmtOutcome {
                name: format!("gossip fanout {fanout}"),
                messages: stats.messages,
                rounds: stats.rounds,
                survives_head_loss: survived,
                coverage_after_failure: if survived {
                    alive as f64 / nodes as f64
                } else {
                    0.0
                },
            });
        }
        P2pMgmtExperiment { nodes, outcomes }
    }

    /// The 56-node paper configuration.
    pub fn paper_scale() -> P2pMgmtExperiment {
        P2pMgmtExperiment::run(2013, 56)
    }
}

impl fmt::Display for P2pMgmtExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12: centralised vs P2P management ({} nodes)",
            self.nodes
        )?;
        let mut t = TextTable::new(vec![
            "configuration".into(),
            "messages".into(),
            "rounds".into(),
            "survives head loss".into(),
            "coverage after 25% node loss".into(),
        ]);
        for o in &self.outcomes {
            t.row(vec![
                o.name.clone(),
                o.messages.to_string(),
                o.rounds.to_string(),
                if o.survives_head_loss { "yes" } else { "NO" }.into(),
                format!("{:.0}%", o.coverage_after_failure * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp() -> P2pMgmtExperiment {
        P2pMgmtExperiment::paper_scale()
    }

    #[test]
    fn centralised_is_cheapest_but_fragile() {
        let e = exp();
        let central = &e.outcomes[0];
        assert_eq!(central.messages, 56);
        assert_eq!(central.rounds, 1);
        assert!(!central.survives_head_loss);
        for gossip in &e.outcomes[1..] {
            assert!(gossip.messages > central.messages, "{}", gossip.name);
            assert!(gossip.survives_head_loss, "{}", gossip.name);
        }
    }

    #[test]
    fn gossip_coverage_is_all_survivors() {
        let e = exp();
        for gossip in &e.outcomes[1..] {
            assert!((gossip.coverage_after_failure - 42.0 / 56.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fanout_trades_rounds_for_messages() {
        let e = exp();
        let f1 = &e.outcomes[1];
        let f4 = &e.outcomes[3];
        assert!(f4.rounds <= f1.rounds);
    }

    #[test]
    fn deterministic() {
        assert_eq!(P2pMgmtExperiment::run(3, 20), P2pMgmtExperiment::run(3, 20));
    }

    #[test]
    fn display_has_all_rows() {
        let s = exp().to_string();
        assert!(s.contains("centralised pimaster"));
        assert!(s.contains("gossip fanout 4"));
    }
}
