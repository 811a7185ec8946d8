//! The web control panel of Fig. 4, as a data model.
//!
//! The paper's pimaster runs "an outward-facing webserver \[that\] provides a
//! web-based control panel to users and administrators". The scale model
//! reproduces the panel's *content*: a [`PanelView`] carries exactly what
//! the screenshot shows (per-node CPU load, memory, container inventory),
//! serialises to the JSON a single-page panel would fetch, and renders an
//! ASCII version for terminal reproduction of the figure.

use crate::monitor::ClusterSnapshot;
use crate::pimaster::Pimaster;
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::{SimTime, SpanId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One row of the panel's node table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelRow {
    /// Node DNS name.
    pub node: String,
    /// Rack index.
    pub rack: u16,
    /// CPU load in percent.
    pub cpu_percent: f64,
    /// Memory used, MiB.
    pub mem_used_mib: f64,
    /// Memory total, MiB.
    pub mem_total_mib: f64,
    /// `name [state]` per container.
    pub containers: Vec<String>,
}

/// The full panel payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelView {
    /// Snapshot time, seconds.
    pub refreshed_at_secs: f64,
    /// Cluster-wide mean CPU percent.
    pub mean_cpu_percent: f64,
    /// Total running containers.
    pub running_containers: usize,
    /// Per-node rows, node order.
    pub rows: Vec<PanelRow>,
}

impl PanelView {
    /// Builds the view from a snapshot.
    pub fn from_snapshot(snap: &ClusterSnapshot) -> Self {
        PanelView {
            refreshed_at_secs: snap.taken_at.as_secs_f64(),
            mean_cpu_percent: snap.mean_cpu() * 100.0,
            running_containers: snap.total_running(),
            rows: snap
                .samples
                .iter()
                .map(|s| PanelRow {
                    node: s.name.clone(),
                    rack: s.rack,
                    cpu_percent: s.cpu_utilisation * 100.0,
                    mem_used_mib: s.memory_used.as_mib_f64(),
                    mem_total_mib: s.memory_total.as_mib_f64(),
                    containers: s
                        .containers
                        .iter()
                        .map(|c| format!("{} [{}]", c.name, c.state))
                        .collect(),
                })
                .collect(),
        }
    }

    /// The JSON the panel's frontend would fetch.
    ///
    /// # Panics
    ///
    /// Never in practice; the view contains no non-serialisable values.
    #[expect(
        clippy::expect_used,
        reason = "derived Serialize over plain data cannot fail; documented in # Panics"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("panel view serialises")
    }

    /// ASCII rendering — the terminal stand-in for the Fig. 4 screenshot.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== PiCloud control panel (t={:.1}s) — mean CPU {:.0}%, {} containers running ==\n",
            self.refreshed_at_secs, self.mean_cpu_percent, self.running_containers
        ));
        out.push_str(&format!(
            "{:<18} {:>4} {:>6} {:>14}  {}\n",
            "node", "rack", "cpu%", "mem (MiB)", "containers"
        ));
        for r in &self.rows {
            let bar_len = (r.cpu_percent / 10.0).round() as usize;
            let bar: String = "#".repeat(bar_len.min(10));
            out.push_str(&format!(
                "{:<18} {:>4} {:>5.0} {:>7.0}/{:<6.0} |{bar:<10}| {}\n",
                r.node,
                r.rack,
                r.cpu_percent,
                r.mem_used_mib,
                r.mem_total_mib,
                r.containers.join(", ")
            ));
        }
        out
    }
}

impl fmt::Display for PanelView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_ascii())
    }
}

/// Convenience driver: poll the pimaster and build the view.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlPanel {
    /// When the panel last polled, for the staleness gauge.
    last_refresh: Option<SimTime>,
}

impl ControlPanel {
    /// Creates the panel; no refresh has happened yet.
    pub fn new() -> Self {
        ControlPanel::default()
    }

    /// When the panel last refreshed (via either refresh method).
    pub fn last_refresh(&self) -> Option<SimTime> {
        self.last_refresh
    }

    /// Refreshes: polls all daemons through the pimaster and builds a view.
    pub fn refresh(&mut self, master: &mut Pimaster, now: SimTime) -> PanelView {
        self.last_refresh = Some(now);
        PanelView::from_snapshot(&master.snapshot(now))
    }

    /// [`refresh`](ControlPanel::refresh) wired into telemetry: emits a
    /// `panel_refresh` span and sets the `mgmt_panel_staleness_seconds`
    /// gauge to the gap since the previous refresh (0 on the first). On a
    /// disabled sink this is exactly `refresh` — nothing is recorded.
    pub fn refresh_traced(
        &mut self,
        master: &mut Pimaster,
        now: SimTime,
        sink: &mut TelemetrySink,
    ) -> PanelView {
        let staleness = self
            .last_refresh
            .map_or(0.0, |t| now.saturating_duration_since(t).as_secs_f64());
        let view = self.refresh(master, now);
        if sink.is_enabled() {
            let span = sink
                .tracer
                .span_start(now, "panel_refresh", SpanId::NONE, |e| {
                    e.u64("nodes", view.rows.len() as u64)
                        .u64("running", view.running_containers as u64);
                });
            sink.tracer.span_end(now, span, |e| {
                e.f64("staleness_s", staleness);
            });
            sink.registry
                .gauge("mgmt_panel_staleness_seconds", &[])
                .set(now, staleness);
        }
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiRequest;
    use picloud_hardware::node::{NodeId, NodeSpec};

    fn loaded_master() -> Pimaster {
        let mut m = Pimaster::new();
        for i in 0..4 {
            m.register_node(NodeSpec::pi_model_b_rev1(), i / 2, SimTime::ZERO)
                .expect("rack subnet has room");
        }
        m.handle(
            ApiRequest::SpawnContainer {
                node: NodeId(1),
                name: "web-0".into(),
                image: "lighttpd".into(),
            },
            SimTime::ZERO,
        )
        .unwrap();
        m
    }

    #[test]
    fn view_reflects_cluster() {
        let mut m = loaded_master();
        let view = ControlPanel::new().refresh(&mut m, SimTime::from_secs(5));
        assert_eq!(view.rows.len(), 4);
        assert_eq!(view.running_containers, 1);
        assert_eq!(view.rows[1].containers, vec!["web-0 [running]"]);
        assert_eq!(view.refreshed_at_secs, 5.0);
    }

    #[test]
    fn json_is_fetchable() {
        let mut m = loaded_master();
        let view = ControlPanel::new().refresh(&mut m, SimTime::ZERO);
        let json = view.to_json();
        let back: PanelView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
        assert!(json.contains("web-0"));
    }

    #[test]
    fn ascii_renders_all_nodes() {
        let mut m = loaded_master();
        let view = ControlPanel::new().refresh(&mut m, SimTime::ZERO);
        let art = view.render_ascii();
        for rack in 0..2 {
            for slot in 0..2 {
                assert!(art.contains(&format!("pi-{rack}-{slot}.picloud")), "{art}");
            }
        }
        assert!(art.contains("control panel"));
        assert_eq!(art, view.to_string());
    }

    #[test]
    fn traced_refresh_records_span_and_staleness() {
        use picloud_simcore::SpanForest;

        let mut m = loaded_master();
        let mut panel = ControlPanel::new();
        let mut sink = TelemetrySink::recording(SimTime::ZERO);
        let v1 = panel.refresh_traced(&mut m, SimTime::from_secs(5), &mut sink);
        let v2 = panel.refresh_traced(&mut m, SimTime::from_secs(45), &mut sink);
        assert_eq!(v1.rows.len(), v2.rows.len());
        assert_eq!(panel.last_refresh(), Some(SimTime::from_secs(45)));

        let forest = SpanForest::from_tracer(&sink.tracer);
        let refreshes: Vec<_> = forest.roots_named("panel_refresh").collect();
        assert_eq!(refreshes.len(), 2);
        let g = sink
            .registry
            .get_gauge("mgmt_panel_staleness_seconds", &[])
            .expect("staleness gauge exists");
        assert_eq!(g.value(), 40.0, "second refresh came 40 s after the first");
        assert_eq!(g.max(), 40.0);

        // Disabled sink: identical view, nothing recorded.
        let mut off = TelemetrySink::disabled();
        let mut quiet_panel = ControlPanel::new();
        let qv = quiet_panel.refresh_traced(&mut m, SimTime::from_secs(50), &mut off);
        assert_eq!(qv.rows.len(), v1.rows.len());
        assert_eq!(off.tracer.len(), 0);
        assert!(off.registry.is_empty());
    }

    #[test]
    fn cpu_bar_scales() {
        let mut m = loaded_master();
        // Saturate node 1's CPU.
        let id = m.daemon(NodeId(1)).unwrap().container_states()[0].0;
        m.daemon_mut(NodeId(1)).unwrap().set_demand(id, 700e6);
        let view = ControlPanel::new().refresh(&mut m, SimTime::from_secs(1));
        assert!((view.rows[1].cpu_percent - 100.0).abs() < 1e-9);
        assert!(view.render_ascii().contains("##########"));
    }
}
