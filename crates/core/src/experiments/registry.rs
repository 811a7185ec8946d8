//! The experiment registry: one entry per reproduced table, figure and
//! claim, holding everything the rest of the workspace needs to know about
//! it — its names, its scrape grid and the one `run` that renders the
//! report `picloud-cli <id>` prints and records the series, spans and tsdb
//! scrapes [`ExperimentTelemetry::collect`] exports.
//!
//! [`ExperimentTelemetry::collect`]: crate::telemetry::ExperimentTelemetry::collect

use super::estimate_exp;
use super::{
    dvfs_exp::DvfsExperiment, estimate_exp::EstimateExperiment, failure_exp::FailureExperiment,
    fidelity::FidelityExperiment, fig2::Fig2, fig3::Fig3, fig4::Fig4,
    image_dist::ImageDistributionExperiment, migration_exp::MigrationExperiment,
    oversub_exp::OversubscriptionExperiment, p2p_mgmt::P2pMgmtExperiment,
    placement_exp::PlacementExperiment, power::PowerExperiment, recovery_exp::RecoveryExperiment,
    sdn_exp::SdnExperiment, sla_exp::SlaExperiment, table1::Table1, traffic_exp::TrafficExperiment,
};
use crate::PiCloud;
use picloud_mgmt::panel::ControlPanel;
use picloud_network::topology::Topology;
use picloud_sdn::controller::{InstallMode, SdnController};
use picloud_simcore::telemetry::tsdb::ScrapeConfig;
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::{SeedFactory, SimDuration, SimTime, SpanContext};
use picloud_workloads::mapreduce::MapReduceJob;
use picloud_workloads::websim::{self, WebSimConfig};

/// One experiment of the suite. Entries are plain data: the behaviour is
/// a `fn` pointer, so the registry is a `static` with no state.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Canonical id (`recovery`).
    pub id: &'static str,
    /// Paper-style alias (`e17`); `None` for the render-only `fig1`.
    pub alias: Option<&'static str>,
    /// One-line description `picloud-cli list` prints.
    pub title: &'static str,
    /// Runs the experiment once at a seed and renders the report
    /// `picloud-cli <id>` prints. When the sink is enabled the same run
    /// also records into it: result gauges, plus series, spans and
    /// scrapes for experiments that advance a clock. Observation never
    /// perturbs: the report is the same with the sink on or off.
    pub run: fn(u64, &mut TelemetrySink) -> String,
    /// Sim-time distance between the telemetry tsdb's scrapes: a fine
    /// 1 s grid for the stepped simulations (traffic replay, the SLA
    /// webserver), the Prometheus-style 15 s default otherwise.
    pub scrape_every: SimDuration,
}

/// Every experiment, in the order `picloud-cli list` and `all` walk them.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        alias: Some("e1"),
        title: "Table I: cost breakdown of a 56-server testbed",
        run: |_, sink| recorded(Table1::paper(), sink, record_table1).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "fig1",
        alias: None,
        title: "Fig. 1: the four Lego racks",
        run: |_, sink| {
            let cloud = recorded(PiCloud::glasgow(), sink, record_fig1);
            format!("{cloud}\n{}", cloud.render_racks())
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "fig2",
        alias: Some("e2"),
        title: "Fig. 2: fabric comparison (tree / fat-tree / Clos)",
        run: |_, sink| recorded(Fig2::run(), sink, record_fig2).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "fig3",
        alias: Some("e3"),
        title: "Fig. 3: software stack & container density",
        run: |_, sink| recorded(Fig3::run(), sink, record_fig3).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "fig4",
        alias: Some("e4"),
        title: "Fig. 4: management control panel workflow",
        run: |_, sink| recorded(Fig4::run(), sink, record_fig4).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "power",
        alias: Some("e9"),
        title: "C2/E9: whole-cloud power & the single-socket claim",
        run: |_, sink| {
            let testbeds = (
                PowerExperiment::paper_picloud(),
                PowerExperiment::paper_testbed(),
            );
            let (pi, x86) = recorded(testbeds, sink, record_power);
            format!("{pi}\n{x86}")
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "placement",
        alias: Some("e5"),
        title: "E5: placement policies & consolidation ledger",
        run: |seed, sink| {
            let e = PlacementExperiment::run(seed, 150, 20);
            recorded(e, sink, record_placement).to_string()
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "migration",
        alias: Some("e6"),
        title: "E6: cold vs pre-copy migration sweep",
        run: |_, sink| {
            let fabrics = (
                MigrationExperiment::paper_scale(),
                MigrationExperiment::gigabit_recable(),
            );
            let (fast_ethernet, gigabit) = recorded(fabrics, sink, record_migration);
            format!("{fast_ethernet}\n{gigabit}")
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "traffic",
        alias: Some("e7"),
        title: "E7: DC traffic locality/congestion sweep",
        run: |seed, sink| {
            let e = TrafficExperiment::run(seed, SimDuration::from_secs(30), sink);
            recorded(e, sink, record_traffic).to_string()
        },
        scrape_every: SimDuration::from_secs(1),
    },
    Experiment {
        id: "sdn",
        alias: Some("e8"),
        title: "E8: SDN disciplines & IP-less routing",
        run: |_, sink| recorded(SdnExperiment::paper_scale(), sink, record_sdn).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "fidelity",
        alias: Some("e10"),
        title: "E10: scale-model fidelity (Pi vs x86)",
        run: |seed, sink| {
            recorded(FidelityExperiment::run(seed, 56), sink, record_fidelity).to_string()
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "failures",
        alias: Some("e11"),
        title: "E11: failure injection",
        run: |seed, sink| recorded(FailureExperiment::run(seed), sink, record_failures).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "p2p",
        alias: Some("e12"),
        title: "E12: centralised vs gossip management",
        run: |seed, sink| recorded(P2pMgmtExperiment::run(seed, 56), sink, record_p2p).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "imagedist",
        alias: Some("e13"),
        title: "E13: image distribution strategies",
        run: |_, sink| {
            let e = ImageDistributionExperiment::paper_scale();
            recorded(e, sink, record_imagedist).to_string()
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "oversub",
        alias: Some("e14"),
        title: "E14: CPU oversubscription",
        run: |_, sink| {
            let e = OversubscriptionExperiment::paper_scale();
            recorded(e, sink, record_oversub).to_string()
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "sla",
        alias: Some("e16"),
        title: "E16: placement density vs web latency (SLA)",
        run: |seed, sink| {
            let e = SlaExperiment::run(seed, 168, 0.05);
            recorded(e, sink, |e, sink| record_sla(seed, e, sink)).to_string()
        },
        scrape_every: SimDuration::from_secs(1),
    },
    Experiment {
        id: "dvfs",
        alias: Some("e15"),
        title: "E15: cpufreq governors",
        run: |_, sink| recorded(DvfsExperiment::paper_scale(), sink, record_dvfs).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "recovery",
        alias: Some("e17"),
        title: "E17: failure recovery / self-healing under churn",
        run: |seed, sink| {
            // Live: series and trace accumulate as the control loop runs.
            let horizon = SimDuration::from_secs(90 * 60);
            let (e, live) =
                RecoveryExperiment::run_with_telemetry(seed, horizon, std::mem::take(sink));
            *sink = live;
            e.to_string()
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
    Experiment {
        id: "estimate",
        alias: Some("s2"),
        title: "S2: estimation mode (link clustering) vs the exact oracle",
        run: |seed, sink| {
            let e = EstimateExperiment::run(seed, estimate_exp::HORIZON);
            recorded(e, sink, record_estimate).to_string()
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
    },
];

/// Looks up an experiment by canonical id or alias, ignoring ASCII case.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| {
        e.id.eq_ignore_ascii_case(name) || e.alias.is_some_and(|a| a.eq_ignore_ascii_case(name))
    })
}

/// Hands back a finished run's `result` after `record` has copied it into
/// `sink` — only when the sink is enabled, so an unobserved run does no
/// telemetry work. Result gauges are set at [`T0`], the run's start;
/// records whose experiment has steps that exist only to be observed run
/// them here and end with a boundary scrape at their own end instant.
fn recorded<T>(
    result: T,
    sink: &mut TelemetrySink,
    record: impl FnOnce(&T, &mut TelemetrySink),
) -> T {
    if sink.is_enabled() {
        record(&result, sink);
    }
    result
}

/// The instant result gauges describe.
const T0: SimTime = SimTime::ZERO;

fn record_table1(t: &Table1, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for row in &t.rows {
        let l = [("testbed", row.label.as_str())];
        reg.gauge("table1_machines", &l)
            .set(T0, f64::from(row.machines));
        reg.gauge("table1_total_cost_dollars", &l)
            .set(T0, row.total_cost.as_dollars_f64());
        reg.gauge("table1_total_power_watts", &l)
            .set(T0, row.total_power.as_watts());
        reg.gauge("table1_power_with_cooling_watts", &l)
            .set(T0, row.total_power_with_cooling.as_watts());
    }
    reg.gauge("table1_cost_factor", &[]).set(T0, t.cost_factor);
    reg.gauge("table1_power_factor", &[])
        .set(T0, t.power_factor);
}

fn record_fig1(cloud: &PiCloud, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    reg.gauge("cluster_nodes", &[])
        .set(T0, cloud.node_count() as f64);
    reg.gauge("cluster_racks", &[])
        .set(T0, cloud.racks().len() as f64);
    reg.gauge("cluster_links", &[])
        .set(T0, cloud.topology().links().len() as f64);
    reg.gauge("cluster_devices", &[])
        .set(T0, cloud.topology().devices().len() as f64);
}

fn record_fig2(f: &Fig2, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for fm in &f.fabrics {
        let l = [("fabric", fm.name.as_str())];
        reg.gauge("fabric_hosts", &l).set(T0, fm.hosts as f64);
        reg.gauge("fabric_switches", &l).set(T0, fm.switches as f64);
        reg.gauge("fabric_links", &l).set(T0, fm.links as f64);
        reg.gauge("fabric_bisection_mbps", &l)
            .set(T0, fm.bisection.as_mbps_f64());
        reg.gauge("fabric_diameter_hops", &l)
            .set(T0, f64::from(fm.diameter_hops));
        reg.gauge("fabric_host_path_diversity", &l)
            .set(T0, fm.host_path_diversity as f64);
    }
}

fn record_fig3(f: &Fig3, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for d in &f.density {
        let l = [("board", d.board.as_str())];
        reg.gauge("container_density", &l)
            .set(T0, f64::from(d.containers_started));
        reg.gauge("container_headroom_mib", &l)
            .set(T0, d.headroom.as_mib_f64());
    }
    for v in &f.virt_ablation {
        let l = [("board", v.node_model.as_str())];
        reg.gauge("container_lxc_instances", &l)
            .set(T0, f64::from(v.lxc_instances));
        reg.gauge("container_full_virt_instances", &l)
            .set(T0, f64::from(v.full_virt_instances));
    }
}

fn record_fig4(f: &Fig4, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    reg.counter("mgmt_panel_spawns_total", &[])
        .add(f.spawned as u64);
    reg.counter("mgmt_panel_limit_updates_total", &[])
        .add(f.limits_set as u64);
    // Two panel refreshes 20 s apart: the second records real
    // staleness into `mgmt_panel_staleness_seconds`.
    let mut cloud = PiCloud::glasgow();
    let mut panel = ControlPanel::new();
    let end = SimTime::from_secs(21);
    panel.refresh_traced(cloud.pimaster_mut(), SimTime::from_secs(1), sink);
    panel.refresh_traced(cloud.pimaster_mut(), end, sink);
    sink.scrape_now(end);
}

fn record_power((pi, x86): &(PowerExperiment, PowerExperiment), sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for (exp, testbed) in [(pi, "picloud"), (x86, "x86")] {
        let l = [("testbed", testbed)];
        for p in &exp.points {
            let u = format!("{:.2}", p.utilisation);
            let lp = [("testbed", testbed), ("utilisation", u.as_str())];
            reg.gauge("hardware_cloud_power_watts", &lp)
                .set(T0, p.draw.as_watts());
            reg.gauge("hardware_single_socket_ok", &lp)
                .set(T0, f64::from(u8::from(p.single_socket_ok)));
        }
        reg.gauge("hardware_daily_energy_kwh", &l)
            .set(T0, exp.daily_energy.as_kwh());
    }
}

fn record_placement(e: &PlacementExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for p in &e.placement {
        let pol = p.policy.to_string();
        let l = [("policy", pol.as_str())];
        reg.gauge("placement_placed", &l).set(T0, p.placed as f64);
        reg.gauge("placement_nodes_used", &l)
            .set(T0, p.nodes_used as f64);
        reg.gauge("placement_racks_used", &l)
            .set(T0, p.racks_used as f64);
        reg.gauge("placement_group_rack_spread", &l)
            .set(T0, p.mean_group_rack_spread);
    }
    for c in &e.consolidation {
        let pol = c.policy.to_string();
        let l = [("policy", pol.as_str())];
        reg.gauge("placement_nodes_freed", &l)
            .set(T0, c.nodes_freed as f64);
        reg.gauge("placement_moves", &l).set(T0, c.moves as f64);
        reg.gauge("placement_power_saved_watts", &l)
            .set(T0, c.power_saved_watts);
        reg.gauge("placement_migration_makespan_seconds", &l)
            .set(T0, c.migration_makespan_secs);
        reg.gauge("network_peak_uplink_utilisation", &l)
            .set(T0, c.peak_uplink_utilisation);
    }
}

fn record_migration(
    (fast_ethernet, gigabit): &(MigrationExperiment, MigrationExperiment),
    sink: &mut TelemetrySink,
) {
    let reg = &mut sink.registry;
    for (exp, fabric) in [(fast_ethernet, "100mbit"), (gigabit, "1gbit")] {
        for p in &exp.points {
            let ram = format!("{:.0}", p.ram.as_mib_f64());
            let rate = format!("{:.0}", p.dirty_rate_bps);
            let l = [
                ("fabric", fabric),
                ("ram_mib", ram.as_str()),
                ("dirty_bps", rate.as_str()),
            ];
            reg.gauge("migration_cold_downtime_seconds", &l)
                .set(T0, p.cold.downtime.as_secs_f64());
            reg.gauge("migration_live_downtime_seconds", &l)
                .set(T0, p.live.downtime.as_secs_f64());
            reg.gauge("migration_live_total_seconds", &l)
                .set(T0, p.live.total_time.as_secs_f64());
            reg.gauge("migration_live_rounds", &l)
                .set(T0, f64::from(p.live.rounds));
        }
    }
}

/// The sweep's summary; its fully remote max–min replay already
/// recorded the fabric's series live on the scrape grid.
fn record_traffic(e: &TrafficExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for p in &e.points {
        let loc = format!("{:.2}", p.locality);
        let l = [("locality", loc.as_str())];
        reg.gauge("network_flows", &l).set(T0, p.flows as f64);
        reg.gauge("network_mean_fct_seconds", &l)
            .set(T0, p.mean_fct_secs);
        reg.gauge("network_p99_fct_seconds", &l)
            .set(T0, p.p99_fct_secs);
        reg.gauge("network_link_mean_utilisation", &l)
            .set(T0, p.mean_uplink_utilisation);
        reg.gauge("network_link_peak_utilisation", &l)
            .set(T0, p.peak_uplink_utilisation);
    }
    reg.gauge("network_maxmin_mean_fct_seconds", &[])
        .set(T0, e.maxmin_mean_fct);
    reg.gauge("network_equal_share_mean_fct_seconds", &[])
        .set(T0, e.equal_share_mean_fct);
}

fn record_sdn(e: &SdnExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for m in &e.install_modes {
        let mode = m.mode.to_string();
        let l = [("mode", mode.as_str())];
        reg.gauge("sdn_flows_with_setup", &l)
            .set(T0, m.flows_with_setup as f64);
        reg.gauge("sdn_setup_seconds_total", &l)
            .set(T0, m.total_setup.as_secs_f64());
        reg.gauge("sdn_flowtable_rules", &l)
            .set(T0, m.resident_rules as f64);
        reg.gauge("sdn_lifetime_rules", &l)
            .set(T0, m.lifetime_rules as f64);
    }
    for a in &e.addressing {
        let mode = a.mode.to_string();
        let l = [("mode", mode.as_str())];
        reg.gauge("sdn_migration_rules_touched", &l)
            .set(T0, a.impact.rules_touched as f64);
        reg.gauge("sdn_migration_flows_disrupted", &l)
            .set(T0, a.impact.flows_disrupted as f64);
        reg.gauge("sdn_migration_convergence_seconds", &l)
            .set(T0, a.impact.convergence_latency.as_secs_f64());
    }
    // One reactive cache miss (packet-in → flow-mod round trip)
    // followed by a hit on the installed rules, on the paper fabric.
    let topo = Topology::multi_root_tree(4, 14, 2);
    let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
    let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
    // First and last host span the full fabric diameter.
    let (Some(&src), Some(&dst)) = (hosts.first(), hosts.last()) else {
        return;
    };
    ctrl.route_traced(src, dst, &mut sink.tracer, SpanContext::NONE);
    ctrl.route_traced(src, dst, &mut sink.tracer, SpanContext::NONE);
    sink.scrape_now(ctrl.now());
}

fn record_fidelity(e: &FidelityExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    reg.gauge("fidelity_shape_correlation", &[])
        .set(T0, e.shape_correlation);
    reg.gauge("fidelity_capacity_ratio", &[])
        .set(T0, e.capacity_ratio);
    reg.gauge("fidelity_pi_saturated", &[])
        .set(T0, e.pi_saturated as f64);
    reg.gauge("fidelity_x86_saturated", &[])
        .set(T0, e.x86_saturated as f64);
    reg.gauge("fidelity_pi_makespan_seconds", &[])
        .set(T0, e.pi_makespan_secs);
    reg.gauge("fidelity_x86_makespan_seconds", &[])
        .set(T0, e.x86_makespan_secs);
    // One traced wordcount on the paper fabric: job → map wave →
    // shuffle (per-flow spans from flowsim completions) → reduce.
    use picloud_hardware::storage::StorageSpec;
    use picloud_network::flowsim::{FlowSimulator, RateAllocator};
    use picloud_network::routing::RoutingPolicy;
    use picloud_simcore::units::{Bytes, Frequency};
    let topo = Topology::multi_root_tree(4, 14, 2);
    let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
    let mut sim = FlowSimulator::new(topo, RoutingPolicy::default(), RateAllocator::MaxMin);
    let job = MapReduceJob::wordcount(Bytes::mib(64));
    let plan = job.plan(&hosts[..16]);
    let out = plan.execute_traced(
        &mut sim,
        Frequency::mhz(700),
        &StorageSpec::sd_card_16gb(),
        &mut sink.tracer,
        SpanContext::NONE,
    );
    sink.scrape_now(T0 + out.makespan());
}

fn record_failures(e: &FailureExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for s in &e.scenarios {
        let l = [("scenario", s.name.as_str()), ("fabric", s.fabric.as_str())];
        reg.gauge("network_reachability", &l)
            .set(T0, s.reachability);
        reg.gauge("network_links_failed", &l)
            .set(T0, s.links_failed as f64);
        reg.gauge("network_devices_failed", &l)
            .set(T0, s.devices_failed as f64);
        reg.gauge("network_flows_rerouted", &l)
            .set(T0, s.flows_rerouted as f64);
        reg.gauge("network_flows_stranded", &l)
            .set(T0, s.flows_stranded as f64);
    }
}

fn record_p2p(e: &P2pMgmtExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for o in &e.outcomes {
        let l = [("scheme", o.name.as_str())];
        reg.counter("mgmt_messages_total", &l).add(o.messages);
        reg.gauge("mgmt_rounds", &l).set(T0, f64::from(o.rounds));
        reg.gauge("mgmt_coverage_after_failure", &l)
            .set(T0, o.coverage_after_failure);
    }
}

fn record_imagedist(e: &ImageDistributionExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for o in &e.outcomes {
        let l = [("strategy", o.strategy.as_str())];
        reg.gauge("imagedist_makespan_seconds", &l)
            .set(T0, o.makespan.as_secs_f64());
        reg.gauge("imagedist_uplink_crossings", &l)
            .set(T0, o.uplink_image_crossings);
        reg.gauge("imagedist_rounds", &l)
            .set(T0, f64::from(o.rounds));
    }
    reg.gauge("imagedist_image_mib", &[])
        .set(T0, e.image_size.as_mib_f64());
    reg.gauge("imagedist_receivers", &[])
        .set(T0, e.receivers as f64);
}

fn record_oversub(e: &OversubscriptionExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for p in &e.points {
        let f = format!("{:.2}", p.factor);
        let l = [("factor", f.as_str())];
        reg.gauge("oversub_admitted", &l).set(T0, p.admitted as f64);
        reg.gauge("oversub_overload_probability", &l)
            .set(T0, p.overload_probability);
        reg.gauge("oversub_expected_utilisation", &l)
            .set(T0, p.expected_utilisation);
    }
}

fn record_sla(seed: u64, e: &SlaExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for o in &e.outcomes {
        let pol = o.policy.to_string();
        let l = [("policy", pol.as_str())];
        reg.gauge("sla_nodes_used", &l).set(T0, o.nodes_used as f64);
        reg.gauge("sla_meeting", &l).set(T0, o.meeting_sla as f64);
        reg.gauge("sla_saturated", &l).set(T0, o.saturated as f64);
        reg.gauge("sla_p95_latency_seconds", &l)
            .set(T0, o.p95_latency_secs);
    }
    reg.gauge("sla_target_seconds", &[]).set(T0, e.sla_secs);
    // One webserver run near the knee (ρ ≈ 0.8): queue depth and
    // latency series breathe without the backlog saturating. The run
    // ends with a boundary scrape at its last request.
    let unit = WebSimConfig::pi_static(1.0);
    let rho = unit.rho();
    let cfg = if rho > 0.0 && rho.is_finite() {
        WebSimConfig::pi_static(0.8 / rho)
    } else {
        unit
    };
    let seeds = SeedFactory::new(seed);
    let (_, live) = websim::simulate_with_telemetry(&cfg, 20_000, &seeds, std::mem::take(sink));
    *sink = live;
}

fn record_dvfs(e: &DvfsExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for o in &e.outcomes {
        let gov = o.governor.to_string();
        let l = [("governor", gov.as_str())];
        reg.gauge("hardware_daily_energy_kwh", &l)
            .set(T0, o.daily_energy.as_kwh());
        reg.gauge("hardware_served_fraction", &l)
            .set(T0, o.served_fraction);
    }
}

fn record_estimate(e: &EstimateExperiment, sink: &mut TelemetrySink) {
    let reg = &mut sink.registry;
    for p in &e.points {
        let fabric = format!("{}M", p.fabric_mbps);
        let loc = format!("{:.2}", p.locality);
        let l = [("fabric", fabric.as_str()), ("locality", loc.as_str())];
        reg.gauge("estimate_clusters", &l)
            .set(T0, p.clusters as f64);
        reg.gauge("estimate_loaded_links", &l)
            .set(T0, p.loaded_links as f64);
        reg.gauge("estimate_rep_flows", &l)
            .set(T0, p.rep_flows as f64);
        reg.gauge("estimate_p99_rel_err", &l).set(T0, p.p99_rel_err);
    }
    // Membership breakdown for the hardest scenario (all-remote
    // traffic on the tightest fabric).
    for (i, &members) in e.hardest_cluster_sizes.iter().enumerate() {
        let c = format!("c{i}");
        let l = [("cluster", c.as_str())];
        reg.gauge("estimate_cluster_members", &l)
            .set(T0, members as f64);
    }
    reg.gauge("estimate_max_p99_rel_err", &[])
        .set(T0, e.max_p99_rel_err);
    reg.gauge("estimate_error_bound", &[])
        .set(T0, EstimateExperiment::P99_ERROR_BOUND);
    reg.gauge("estimate_mean_compression", &[])
        .set(T0, e.mean_compression);
}
