//! The logically centralised SDN controller.
//!
//! §II-A: "SDN is a fairly recent concept of logically centralising the
//! network's control plane so that network-wide management can be
//! programmed in software and subsequently enforced through the
//! centrally-controlled installation of rules on the switches along the
//! path." [`SdnController`] owns a global view of the topology and one
//! [`OpenFlowSwitch`] per fabric device, and supports both installation
//! disciplines (the DESIGN.md §4 ablation):
//!
//! * **Reactive** — first packet of a pair misses, punts to the controller,
//!   which installs exact-match rules with an idle timeout along the path.
//!   First flows pay a control-plane round trip.
//! * **Proactive** — destination-based rules are preinstalled on every
//!   switch; no flow ever pays setup latency, at the cost of
//!   `switches × hosts` table entries.

use crate::flowtable::{Action, FlowKey, FlowRule, MatchFields};
use crate::switch::OpenFlowSwitch;
use picloud_network::graph;
use picloud_network::topology::{DeviceId, LinkId, Topology};
use picloud_simcore::telemetry::Tracer;
use picloud_simcore::{SimDuration, SimTime, SpanContext};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Rule-installation discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstallMode {
    /// Install exact-match rules on table miss.
    Reactive,
    /// Preinstall destination rules for every host at construction.
    Proactive,
}

impl fmt::Display for InstallMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallMode::Reactive => write!(f, "reactive"),
            InstallMode::Proactive => write!(f, "proactive"),
        }
    }
}

/// Result of routing one flow through the SDN fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteOutcome {
    /// The links the flow follows.
    pub path: Vec<LinkId>,
    /// Control-plane latency charged to the first packet.
    pub setup_latency: SimDuration,
    /// Rules newly installed for this flow.
    pub rules_installed: usize,
    /// Whether every switch already had a matching rule.
    pub cache_hit: bool,
}

/// The centralised controller plus its switches.
#[derive(Debug, Clone)]
pub struct SdnController {
    topo: Topology,
    switches: BTreeMap<DeviceId, OpenFlowSwitch>,
    mode: InstallMode,
    now: SimTime,
    /// One switch→controller→switch round trip.
    control_rtt: SimDuration,
    /// Time to program one rule into a switch.
    rule_install_time: SimDuration,
    /// Idle timeout applied to reactive rules.
    reactive_idle_timeout: SimDuration,
    total_rule_installs: u64,
    /// Links the controller knows to be down.
    dead_links: std::collections::BTreeSet<LinkId>,
}

impl SdnController {
    /// Creates a controller over `topo`. In proactive mode, destination
    /// rules are installed immediately for every host.
    pub fn new(topo: Topology, mode: InstallMode) -> Self {
        let switches: BTreeMap<DeviceId, OpenFlowSwitch> = topo
            .devices()
            .iter()
            .filter(|d| !d.kind.is_host())
            .map(|d| (d.id, OpenFlowSwitch::new(d.id)))
            .collect();
        let mut ctrl = SdnController {
            topo,
            switches,
            mode,
            now: SimTime::ZERO,
            control_rtt: SimDuration::from_millis(2),
            rule_install_time: SimDuration::from_micros(500),
            reactive_idle_timeout: SimDuration::from_secs(30),
            total_rule_installs: 0,
            dead_links: std::collections::BTreeSet::new(),
        };
        if mode == InstallMode::Proactive {
            ctrl.preinstall_all();
        }
        ctrl
    }

    /// The topology under control.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The installation discipline.
    pub fn mode(&self) -> InstallMode {
        self.mode
    }

    /// Current control-plane clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the control-plane clock (expiring idle rules on lookup).
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "controller clock cannot rewind");
        self.now = to;
    }

    /// Rules currently installed across all switches.
    pub fn total_rules(&self) -> usize {
        self.switches.values().map(|s| s.table().len()).sum()
    }

    /// Rules installed over the controller's lifetime (including expired
    /// and replaced ones).
    pub fn lifetime_rule_installs(&self) -> u64 {
        self.total_rule_installs
    }

    /// The switch at `device`, if that device is a switch.
    pub fn switch(&self, device: DeviceId) -> Option<&OpenFlowSwitch> {
        self.switches.get(&device)
    }

    /// Marks a link failed: rules forwarding over it are flushed fabric-
    /// wide and subsequent routes avoid it. Returns the rules flushed —
    /// the recovery churn.
    pub fn handle_link_failure(&mut self, link: LinkId) -> usize {
        self.dead_links.insert(link);
        self.switches
            .values_mut()
            .map(|sw| {
                sw.remove_where(
                    |r| matches!(r.action, crate::flowtable::Action::Forward(l) if l == link),
                )
            })
            .sum()
    }

    /// Repairs a previously failed link; existing rules are untouched (the
    /// controller re-optimises lazily as flows arrive).
    pub fn handle_link_repair(&mut self, link: LinkId) {
        self.dead_links.remove(&link);
    }

    /// Links currently considered failed.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.len()
    }

    /// Routes one flow from `src` to `dst`, installing rules as the mode
    /// dictates. Failed links are avoided.
    ///
    /// # Panics
    ///
    /// Panics if no surviving path exists — partitioned fabrics must be
    /// checked with [`SdnController::try_route`].
    #[expect(
        clippy::expect_used,
        reason = "the controller builds its fabric connected; a partitioned fabric is a construction bug"
    )]
    pub fn route(&mut self, src: DeviceId, dst: DeviceId) -> RouteOutcome {
        self.try_route(src, dst)
            .expect("SDN fabric must be connected")
    }

    /// Routes a same-instant burst of flows, returning one outcome per
    /// pair in input order. Repeated `(src, dst)` pairs within the burst
    /// reuse the path computed for their first occurrence instead of
    /// re-running the graph search — the flow-table walk still happens,
    /// so switch hit/miss counters and rule state match a sequence of
    /// [`SdnController::route`] calls exactly (path selection is
    /// deterministic, so the reused path is the one the search would
    /// have found). Drivers that feed the flow fabric should route a
    /// whole burst here and then inject it in one
    /// `FlowSimulator::inject_batch` call: the batch dirties one region
    /// per topology partition and the partitioned solver handles those
    /// regions concurrently.
    ///
    /// # Panics
    ///
    /// Panics if any pair has no surviving path — partitioned fabrics
    /// must be probed pair-by-pair with [`SdnController::try_route`].
    pub fn route_batch(&mut self, pairs: &[(DeviceId, DeviceId)]) -> Vec<RouteOutcome> {
        let mut seen_paths: BTreeMap<(DeviceId, DeviceId), Vec<LinkId>> = BTreeMap::new();
        pairs
            .iter()
            .map(|&(src, dst)| {
                if let Some(path) = seen_paths.get(&(src, dst)) {
                    return self.route_on_path(src, dst, path.clone());
                }
                let out = self.route(src, dst);
                seen_paths.insert((src, dst), out.path.clone());
                out
            })
            .collect()
    }

    /// [`SdnController::try_route`], additionally recording the route as
    /// an `sdn_route` span under `parent`. A table miss gets the
    /// control-plane round trip as children: `packet_in` (punt to the
    /// controller, one RTT) followed by `flow_mod` (programming the
    /// missed switches), so the span's extent is exactly the
    /// `setup_latency` charged to the first packet. A cache hit closes
    /// immediately with no children. With a disabled `tracer` this is
    /// [`SdnController::try_route`] — nothing records, nothing allocates.
    pub fn route_traced(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        tracer: &mut Tracer,
        parent: SpanContext,
    ) -> Option<RouteOutcome> {
        let now = self.now;
        let span = tracer.span_start(now, "sdn_route", parent.span(), |e| {
            e.u64("src", u64::from(src.0)).u64("dst", u64::from(dst.0));
        });
        let out = self.try_route(src, dst);
        match &out {
            None => tracer.span_end(now, span, |e| {
                e.bool("ok", false);
            }),
            Some(o) => {
                if !o.cache_hit {
                    let punt = tracer.span_start(now, "packet_in", span, |_| {});
                    tracer.span_end(now + self.control_rtt, punt, |_| {});
                    let program =
                        tracer.span_start(now + self.control_rtt, "flow_mod", span, |e| {
                            e.u64("rules", o.rules_installed as u64);
                        });
                    tracer.span_end(
                        now + self.control_rtt + self.rule_install_time,
                        program,
                        |_| {},
                    );
                }
                tracer.span_end(now + o.setup_latency, span, |e| {
                    e.bool("cache_hit", o.cache_hit)
                        .u64("hops", o.path.len() as u64);
                });
            }
        }
        out
    }

    /// Routes one flow, returning `None` if the surviving fabric has no
    /// path.
    pub fn try_route(&mut self, src: DeviceId, dst: DeviceId) -> Option<RouteOutcome> {
        let path = if self.dead_links.is_empty() {
            graph::shortest_path(&self.topo, src, dst)?
        } else {
            graph::shortest_path_avoiding(&self.topo, src, dst, &self.dead_links)?
        };
        Some(self.route_on_path(src, dst, path))
    }

    fn route_on_path(&mut self, src: DeviceId, dst: DeviceId, path: Vec<LinkId>) -> RouteOutcome {
        let key = FlowKey::pair(src, dst);
        let mut missed_switches: Vec<(DeviceId, LinkId)> = Vec::new();
        let mut cur = src;
        for &lid in &path {
            let link = self.topo.link(lid);
            let next = link.other_end(cur);
            // The *current* device forwards over `lid`; hosts do not
            // classify, switches do.
            if let Some(sw) = self.switches.get_mut(&cur) {
                match sw.classify(key, self.now) {
                    Some(Action::Forward(l)) if l == lid => {}
                    Some(Action::Forward(_)) | Some(Action::Drop) | None => {
                        // Miss (or stale rule pointing elsewhere): the
                        // controller will (re)program this switch.
                        missed_switches.push((cur, lid));
                    }
                    Some(Action::SendToController) => missed_switches.push((cur, lid)),
                }
            }
            cur = next;
        }
        if missed_switches.is_empty() {
            return RouteOutcome {
                path,
                setup_latency: SimDuration::ZERO,
                rules_installed: 0,
                cache_hit: true,
            };
        }
        // One punt reaches the controller; it programs all missing switches
        // (in parallel), so latency is one RTT plus one install time.
        let installed = missed_switches.len();
        for (sw_id, out_link) in missed_switches {
            let rule = match self.mode {
                InstallMode::Reactive => {
                    FlowRule::new(MatchFields::exact_pair(src, dst), Action::Forward(out_link))
                        .with_idle_timeout(self.reactive_idle_timeout)
                }
                InstallMode::Proactive => {
                    FlowRule::new(MatchFields::to_dst(dst), Action::Forward(out_link))
                }
            };
            // The id came off this map a moment ago, but a fault handler
            // running between classify and install must degrade to a
            // skipped programming step, not a control-plane panic.
            if let Some(sw) = self.switches.get_mut(&sw_id) {
                sw.install(rule, self.now);
                self.total_rule_installs += 1;
            }
        }
        RouteOutcome {
            path,
            setup_latency: self.control_rtt + self.rule_install_time,
            rules_installed: installed,
            cache_hit: false,
        }
    }

    /// Preinstalls a destination rule for every host on every switch (the
    /// proactive discipline).
    fn preinstall_all(&mut self) {
        let hosts: Vec<DeviceId> = self.topo.hosts().map(|h| h.id).collect();
        let switch_ids: Vec<DeviceId> = self.switches.keys().copied().collect();
        for &sw in &switch_ids {
            for &dst in &hosts {
                let Some(path) = graph::shortest_path(&self.topo, sw, dst) else {
                    continue;
                };
                let Some(&first) = path.first() else {
                    continue;
                };
                if let Some(sw) = self.switches.get_mut(&sw) {
                    sw.install(
                        FlowRule::new(MatchFields::to_dst(dst), Action::Forward(first)),
                        self.now,
                    );
                    self.total_rule_installs += 1;
                }
            }
        }
    }

    /// Flushes every rule that names `host` (source or destination) — what
    /// an IP-addressed fabric must do when that endpoint moves. Returns the
    /// number of rules removed.
    pub fn flush_rules_for_host(&mut self, host: DeviceId) -> usize {
        self.switches
            .values_mut()
            .map(|sw| sw.remove_where(|r| r.fields.src == Some(host) || r.fields.dst == Some(host)))
            .sum()
    }
}

impl fmt::Display for SdnController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SDN controller ({} mode, {} switches, {} rules)",
            self.mode,
            self.switches.len(),
            self.total_rules()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fabric() -> (Topology, Vec<DeviceId>) {
        let topo = Topology::multi_root_tree(4, 14, 2);
        let hosts = topo.hosts().map(|h| h.id).collect();
        (topo, hosts)
    }

    #[test]
    fn reactive_first_flow_pays_setup_second_is_free() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        let first = ctrl.route(hosts[0], hosts[55]);
        assert!(!first.cache_hit);
        assert!(first.setup_latency > SimDuration::ZERO);
        // Host-ToR-Agg-ToR-Host: 3 switches program rules.
        assert_eq!(first.rules_installed, 3);
        let second = ctrl.route(hosts[0], hosts[55]);
        assert!(second.cache_hit);
        assert_eq!(second.setup_latency, SimDuration::ZERO);
        assert_eq!(second.rules_installed, 0);
        assert_eq!(first.path, second.path);
    }

    #[test]
    fn route_batch_matches_sequential_routes() {
        let (topo, hosts) = paper_fabric();
        let pairs = [
            (hosts[0], hosts[55]),
            (hosts[0], hosts[55]), // duplicate in-burst: packet-in suppressed
            (hosts[3], hosts[20]),
            (hosts[55], hosts[0]), // reverse direction is a distinct flow
        ];
        let mut batched =
            SdnController::new(Topology::multi_root_tree(4, 14, 2), InstallMode::Reactive);
        let outs = batched.route_batch(&pairs);
        let mut sequential = SdnController::new(topo, InstallMode::Reactive);
        let expected: Vec<RouteOutcome> =
            pairs.iter().map(|&(s, d)| sequential.route(s, d)).collect();
        assert_eq!(outs, expected);
        assert!(outs[1].cache_hit, "in-burst repeat must be a table hit");
        assert_eq!(outs[1].rules_installed, 0);
        assert_eq!(batched.total_rules(), sequential.total_rules());
    }

    #[test]
    fn proactive_has_no_setup_but_many_rules() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Proactive);
        // 7 switches (4 ToR + 2 agg + 1 gateway... gateway is a switch-kind
        // device too) each hold one rule per host.
        let switches = ctrl
            .topology()
            .devices()
            .iter()
            .filter(|d| !d.kind.is_host())
            .count();
        assert_eq!(ctrl.total_rules(), switches * 56);
        let out = ctrl.route(hosts[3], hosts[40]);
        assert!(out.cache_hit);
        assert_eq!(out.setup_latency, SimDuration::ZERO);
    }

    #[test]
    fn reactive_rules_expire_when_idle() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        ctrl.route(hosts[0], hosts[1]);
        assert!(ctrl.total_rules() > 0);
        ctrl.advance_to(SimTime::from_secs(60));
        // A later flow of the same pair misses again (rules idled out).
        let again = ctrl.route(hosts[0], hosts[1]);
        assert!(!again.cache_hit);
    }

    #[test]
    fn reverse_direction_needs_its_own_rules() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        ctrl.route(hosts[0], hosts[55]);
        let back = ctrl.route(hosts[55], hosts[0]);
        assert!(!back.cache_hit, "exact-match rules are unidirectional");
    }

    #[test]
    fn flush_rules_for_host_empties_pair_state() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        ctrl.route(hosts[0], hosts[55]);
        ctrl.route(hosts[1], hosts[55]);
        let before = ctrl.total_rules();
        let removed = ctrl.flush_rules_for_host(hosts[55]);
        assert_eq!(removed, before, "all rules named hosts[55]");
        assert_eq!(ctrl.total_rules(), 0);
    }

    #[test]
    fn lifetime_counter_is_monotonic() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        ctrl.route(hosts[0], hosts[2]);
        let after_one = ctrl.lifetime_rule_installs();
        ctrl.route(hosts[0], hosts[3]);
        assert!(ctrl.lifetime_rule_installs() > after_one);
    }

    #[test]
    fn intra_rack_flow_programs_only_the_tor() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        // hosts[0] and hosts[1] share rack 0.
        let out = ctrl.route(hosts[0], hosts[1]);
        assert_eq!(out.rules_installed, 1, "only the ToR is on the path");
        assert_eq!(out.path.len(), 2);
    }

    #[test]
    fn link_failure_flushes_and_reroutes() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        let first = ctrl.route(hosts[0], hosts[55]);
        // Fail the aggregation-side link the flow used (the 2nd hop).
        let failed_link = first.path[1];
        let flushed = ctrl.handle_link_failure(failed_link);
        assert!(flushed >= 1, "rules over the dead link are flushed");
        assert_eq!(ctrl.dead_link_count(), 1);
        // The reroute avoids the dead link and reaches the destination.
        let second = ctrl.route(hosts[0], hosts[55]);
        assert!(!second.path.contains(&failed_link));
        assert!(!second.cache_hit, "flushed rules must be reinstalled");
        // Repair and the original path becomes available again.
        ctrl.handle_link_repair(failed_link);
        assert_eq!(ctrl.dead_link_count(), 0);
    }

    #[test]
    fn partition_is_reported_not_panicked() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        // Cut the destination host's only access link.
        let access = ctrl.topology().neighbours(hosts[55])[0].1;
        ctrl.handle_link_failure(access);
        assert!(ctrl.try_route(hosts[0], hosts[55]).is_none());
        // Other destinations still route.
        assert!(ctrl.try_route(hosts[0], hosts[54]).is_some());
    }

    #[test]
    fn proactive_survives_single_uplink_loss() {
        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Proactive);
        let first = ctrl.route(hosts[0], hosts[55]);
        let flushed = ctrl.handle_link_failure(first.path[1]);
        assert!(flushed > 0, "preinstalled rules over the link are flushed");
        let second = ctrl.route(hosts[0], hosts[55]);
        assert!(!second.path.contains(&first.path[1]));
    }

    #[test]
    fn traced_route_records_the_control_round_trip() {
        use picloud_simcore::SpanForest;

        let (topo, hosts) = paper_fabric();
        let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
        let mut tracer = Tracer::unbounded();
        let first = ctrl
            .route_traced(hosts[0], hosts[55], &mut tracer, SpanContext::NONE)
            .unwrap();
        let second = ctrl
            .route_traced(hosts[0], hosts[55], &mut tracer, SpanContext::NONE)
            .unwrap();
        assert!(!first.cache_hit && second.cache_hit);

        let forest = SpanForest::from_tracer(&tracer);
        let roots: Vec<_> = forest.roots_named("sdn_route").collect();
        assert_eq!(roots.len(), 2);
        // The miss's span covers exactly the setup latency, with the
        // packet-in → flow-mod round trip inside it.
        assert_eq!(roots[0].duration(), first.setup_latency);
        let kids: Vec<&str> = forest
            .children(roots[0].id)
            .iter()
            .map(|&c| forest.get(c).unwrap().name.as_str())
            .collect();
        assert_eq!(kids, ["packet_in", "flow_mod"]);
        // The hit is free and childless.
        assert_eq!(roots[1].duration(), SimDuration::ZERO);
        assert!(forest.children(roots[1].id).is_empty());

        // Disabled tracer: identical outcome, nothing recorded.
        let (topo2, _) = paper_fabric();
        let mut ctrl2 = SdnController::new(topo2, InstallMode::Reactive);
        let mut off = Tracer::disabled();
        let replay = ctrl2
            .route_traced(hosts[0], hosts[55], &mut off, SpanContext::NONE)
            .unwrap();
        assert_eq!(replay, first);
        assert_eq!(off.emitted(), 0);
    }

    #[test]
    fn display_mentions_mode() {
        let (topo, _) = paper_fabric();
        let ctrl = SdnController::new(topo, InstallMode::Reactive);
        assert!(ctrl.to_string().contains("reactive"));
    }
}
