//! The experiment registry: one entry per reproduced table, figure and
//! claim, holding everything the rest of the workspace needs to know about
//! it — its names, the report `picloud-cli <id>` prints, and the series,
//! spans and tsdb scrapes [`ExperimentTelemetry::collect`] records.
//!
//! [`ExperimentTelemetry::collect`]: crate::telemetry::ExperimentTelemetry::collect

use super::{
    dvfs_exp::DvfsExperiment, estimate_exp::EstimateExperiment, failure_exp::FailureExperiment,
    fidelity::FidelityExperiment, fig2::Fig2, fig3::Fig3, fig4::Fig4,
    image_dist::ImageDistributionExperiment, migration_exp::MigrationExperiment,
    oversub_exp::OversubscriptionExperiment, p2p_mgmt::P2pMgmtExperiment,
    placement_exp::PlacementExperiment, power::PowerExperiment, recovery_exp::RecoveryExperiment,
    sdn_exp::SdnExperiment, sla_exp::SlaExperiment, table1::Table1, traffic_exp::TrafficExperiment,
};
use super::{estimate_exp, traffic_exp};
use crate::PiCloud;
use picloud_mgmt::panel::ControlPanel;
use picloud_network::flowsim::RateAllocator;
use picloud_network::topology::Topology;
use picloud_sdn::controller::{InstallMode, SdnController};
use picloud_simcore::telemetry::tsdb::ScrapeConfig;
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::{SeedFactory, SimDuration, SimTime, SpanContext};
use picloud_workloads::mapreduce::MapReduceJob;
use picloud_workloads::websim::{self, WebSimConfig};

/// One experiment of the suite. Entries are plain data: every behaviour
/// is a `fn` pointer, so the registry is a `static` with no state.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Canonical id (`recovery`).
    pub id: &'static str,
    /// Paper-style alias (`e17`); `None` for the render-only `fig1`.
    pub alias: Option<&'static str>,
    /// One-line description `picloud-cli list` prints.
    pub title: &'static str,
    /// Runs the experiment at a seed and renders the report
    /// `picloud-cli <id>` prints.
    pub report: fn(u64) -> String,
    /// Sim-time distance between the telemetry tsdb's scrapes: a fine
    /// 1 s grid for the stepped simulations (traffic replay, the SLA
    /// webserver), the Prometheus-style 15 s default otherwise.
    pub scrape_every: SimDuration,
    /// How the experiment's telemetry is recorded.
    pub collect: Collect,
}

/// How [`ExperimentTelemetry::collect`] observes an experiment. Both
/// variants record into the sink they are given and return the sim-time
/// instant the snapshot describes.
///
/// [`ExperimentTelemetry::collect`]: crate::telemetry::ExperimentTelemetry::collect
#[derive(Clone, Copy, Debug)]
pub enum Collect {
    /// The run records its series, spans and trace *as simulated time
    /// passes*; the returned instant is its horizon.
    Live(fn(u64, &mut TelemetrySink) -> SimTime),
    /// The run completes and its report is folded into gauges/counters;
    /// some folds then add a traced walk-through (spans) or a stepped
    /// replay (tsdb curves). The collector brackets the fold with
    /// `experiment_start` / `experiment_end` trace events and forces a
    /// final scrape at the returned instant.
    Summary(fn(u64, &mut TelemetrySink) -> SimTime),
}

/// Every experiment, in the order `picloud-cli list` and `all` walk them.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        alias: Some("e1"),
        title: "Table I: cost breakdown of a 56-server testbed",
        report: |_| Table1::paper().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_table1),
    },
    Experiment {
        id: "fig1",
        alias: None,
        title: "Fig. 1: the four Lego racks",
        report: |_| {
            let cloud = PiCloud::glasgow();
            format!("{cloud}\n{}", cloud.render_racks())
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_fig1),
    },
    Experiment {
        id: "fig2",
        alias: Some("e2"),
        title: "Fig. 2: fabric comparison (tree / fat-tree / Clos)",
        report: |_| Fig2::run().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_fig2),
    },
    Experiment {
        id: "fig3",
        alias: Some("e3"),
        title: "Fig. 3: software stack & container density",
        report: |_| Fig3::run().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_fig3),
    },
    Experiment {
        id: "fig4",
        alias: Some("e4"),
        title: "Fig. 4: management control panel workflow",
        report: |_| Fig4::run().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_fig4),
    },
    Experiment {
        id: "power",
        alias: Some("e9"),
        title: "C2/E9: whole-cloud power & the single-socket claim",
        report: |_| {
            format!(
                "{}\n{}",
                PowerExperiment::paper_picloud(),
                PowerExperiment::paper_testbed()
            )
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_power),
    },
    Experiment {
        id: "placement",
        alias: Some("e5"),
        title: "E5: placement policies & consolidation ledger",
        report: |seed| PlacementExperiment::run(seed, 150, 20).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_placement),
    },
    Experiment {
        id: "migration",
        alias: Some("e6"),
        title: "E6: cold vs pre-copy migration sweep",
        report: |_| {
            format!(
                "{}\n{}",
                MigrationExperiment::paper_scale(),
                MigrationExperiment::gigabit_recable()
            )
        },
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_migration),
    },
    Experiment {
        id: "traffic",
        alias: Some("e7"),
        title: "E7: DC traffic locality/congestion sweep",
        report: |seed| TrafficExperiment::run(seed, SimDuration::from_secs(30)).to_string(),
        scrape_every: SimDuration::from_secs(1),
        collect: Collect::Summary(record_traffic),
    },
    Experiment {
        id: "sdn",
        alias: Some("e8"),
        title: "E8: SDN disciplines & IP-less routing",
        report: |_| SdnExperiment::paper_scale().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_sdn),
    },
    Experiment {
        id: "fidelity",
        alias: Some("e10"),
        title: "E10: scale-model fidelity (Pi vs x86)",
        report: |seed| FidelityExperiment::run(seed, 56).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_fidelity),
    },
    Experiment {
        id: "failures",
        alias: Some("e11"),
        title: "E11: failure injection",
        report: |seed| FailureExperiment::run(seed).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_failures),
    },
    Experiment {
        id: "p2p",
        alias: Some("e12"),
        title: "E12: centralised vs gossip management",
        report: |seed| P2pMgmtExperiment::run(seed, 56).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_p2p),
    },
    Experiment {
        id: "imagedist",
        alias: Some("e13"),
        title: "E13: image distribution strategies",
        report: |_| ImageDistributionExperiment::paper_scale().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_imagedist),
    },
    Experiment {
        id: "oversub",
        alias: Some("e14"),
        title: "E14: CPU oversubscription",
        report: |_| OversubscriptionExperiment::paper_scale().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_oversub),
    },
    Experiment {
        id: "sla",
        alias: Some("e16"),
        title: "E16: placement density vs web latency (SLA)",
        report: |seed| SlaExperiment::run(seed, 168, 0.05).to_string(),
        scrape_every: SimDuration::from_secs(1),
        collect: Collect::Summary(record_sla),
    },
    Experiment {
        id: "dvfs",
        alias: Some("e15"),
        title: "E15: cpufreq governors",
        report: |_| DvfsExperiment::paper_scale().to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_dvfs),
    },
    Experiment {
        id: "recovery",
        alias: Some("e17"),
        title: "E17: failure recovery / self-healing under churn",
        report: |seed| RecoveryExperiment::run(seed).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Live(record_recovery),
    },
    Experiment {
        id: "estimate",
        alias: Some("s2"),
        title: "S2: estimation mode (link clustering) vs the exact oracle",
        report: |seed| EstimateExperiment::run(seed, estimate_exp::HORIZON).to_string(),
        scrape_every: ScrapeConfig::DEFAULT_INTERVAL,
        collect: Collect::Summary(record_estimate),
    },
];

/// Looks up an experiment by canonical id or alias, ignoring ASCII case.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| {
        e.id.eq_ignore_ascii_case(name) || e.alias.is_some_and(|a| a.eq_ignore_ascii_case(name))
    })
}

fn record_table1(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let t = Table1::paper();
    for row in &t.rows {
        let l = [("testbed", row.label.as_str())];
        reg.gauge("table1_machines", &l)
            .set(t0, f64::from(row.machines));
        reg.gauge("table1_total_cost_dollars", &l)
            .set(t0, row.total_cost.as_dollars_f64());
        reg.gauge("table1_total_power_watts", &l)
            .set(t0, row.total_power.as_watts());
        reg.gauge("table1_power_with_cooling_watts", &l)
            .set(t0, row.total_power_with_cooling.as_watts());
    }
    reg.gauge("table1_cost_factor", &[]).set(t0, t.cost_factor);
    reg.gauge("table1_power_factor", &[])
        .set(t0, t.power_factor);
    t0
}

fn record_fig1(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let cloud = PiCloud::glasgow();
    reg.gauge("cluster_nodes", &[])
        .set(t0, cloud.node_count() as f64);
    reg.gauge("cluster_racks", &[])
        .set(t0, cloud.racks().len() as f64);
    reg.gauge("cluster_links", &[])
        .set(t0, cloud.topology().links().len() as f64);
    reg.gauge("cluster_devices", &[])
        .set(t0, cloud.topology().devices().len() as f64);
    t0
}

fn record_fig2(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for fm in &Fig2::run().fabrics {
        let l = [("fabric", fm.name.as_str())];
        reg.gauge("fabric_hosts", &l).set(t0, fm.hosts as f64);
        reg.gauge("fabric_switches", &l).set(t0, fm.switches as f64);
        reg.gauge("fabric_links", &l).set(t0, fm.links as f64);
        reg.gauge("fabric_bisection_mbps", &l)
            .set(t0, fm.bisection.as_mbps_f64());
        reg.gauge("fabric_diameter_hops", &l)
            .set(t0, f64::from(fm.diameter_hops));
        reg.gauge("fabric_host_path_diversity", &l)
            .set(t0, fm.host_path_diversity as f64);
    }
    t0
}

fn record_fig3(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let f = Fig3::run();
    for d in &f.density {
        let l = [("board", d.board.as_str())];
        reg.gauge("container_density", &l)
            .set(t0, f64::from(d.containers_started));
        reg.gauge("container_headroom_mib", &l)
            .set(t0, d.headroom.as_mib_f64());
    }
    for v in &f.virt_ablation {
        let l = [("board", v.node_model.as_str())];
        reg.gauge("container_lxc_instances", &l)
            .set(t0, f64::from(v.lxc_instances));
        reg.gauge("container_full_virt_instances", &l)
            .set(t0, f64::from(v.full_virt_instances));
    }
    t0
}

fn record_fig4(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let reg = &mut sink.registry;
    let f = Fig4::run();
    let c = reg.counter("mgmt_panel_spawns_total", &[]);
    c.add(f.spawned as u64);
    let c = reg.counter("mgmt_panel_limit_updates_total", &[]);
    c.add(f.limits_set as u64);
    // Two panel refreshes 20 s apart: the second records real
    // staleness into `mgmt_panel_staleness_seconds`.
    let mut cloud = PiCloud::glasgow();
    let mut panel = ControlPanel::new();
    panel.refresh_traced(cloud.pimaster_mut(), SimTime::from_secs(1), sink);
    panel.refresh_traced(cloud.pimaster_mut(), SimTime::from_secs(21), sink);
    SimTime::from_secs(21)
}

fn record_power(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for (exp, testbed) in [
        (PowerExperiment::paper_picloud(), "picloud"),
        (PowerExperiment::paper_testbed(), "x86"),
    ] {
        let l = [("testbed", testbed)];
        for p in &exp.points {
            let u = format!("{:.2}", p.utilisation);
            let lp = [("testbed", testbed), ("utilisation", u.as_str())];
            reg.gauge("hardware_cloud_power_watts", &lp)
                .set(t0, p.draw.as_watts());
            reg.gauge("hardware_single_socket_ok", &lp)
                .set(t0, f64::from(u8::from(p.single_socket_ok)));
        }
        reg.gauge("hardware_daily_energy_kwh", &l)
            .set(t0, exp.daily_energy.as_kwh());
    }
    t0
}

fn record_placement(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let e = PlacementExperiment::run(seed, 150, 20);
    for p in &e.placement {
        let pol = p.policy.to_string();
        let l = [("policy", pol.as_str())];
        reg.gauge("placement_placed", &l).set(t0, p.placed as f64);
        reg.gauge("placement_nodes_used", &l)
            .set(t0, p.nodes_used as f64);
        reg.gauge("placement_racks_used", &l)
            .set(t0, p.racks_used as f64);
        reg.gauge("placement_group_rack_spread", &l)
            .set(t0, p.mean_group_rack_spread);
    }
    for c in &e.consolidation {
        let pol = c.policy.to_string();
        let l = [("policy", pol.as_str())];
        reg.gauge("placement_nodes_freed", &l)
            .set(t0, c.nodes_freed as f64);
        reg.gauge("placement_moves", &l).set(t0, c.moves as f64);
        reg.gauge("placement_power_saved_watts", &l)
            .set(t0, c.power_saved_watts);
        reg.gauge("placement_migration_makespan_seconds", &l)
            .set(t0, c.migration_makespan_secs);
        reg.gauge("network_peak_uplink_utilisation", &l)
            .set(t0, c.peak_uplink_utilisation);
    }
    t0
}

fn record_migration(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for (exp, fabric) in [
        (MigrationExperiment::paper_scale(), "100mbit"),
        (MigrationExperiment::gigabit_recable(), "1gbit"),
    ] {
        for p in &exp.points {
            let ram = format!("{:.0}", p.ram.as_mib_f64());
            let rate = format!("{:.0}", p.dirty_rate_bps);
            let l = [
                ("fabric", fabric),
                ("ram_mib", ram.as_str()),
                ("dirty_bps", rate.as_str()),
            ];
            reg.gauge("migration_cold_downtime_seconds", &l)
                .set(t0, p.cold.downtime.as_secs_f64());
            reg.gauge("migration_live_downtime_seconds", &l)
                .set(t0, p.live.downtime.as_secs_f64());
            reg.gauge("migration_live_total_seconds", &l)
                .set(t0, p.live.total_time.as_secs_f64());
            reg.gauge("migration_live_rounds", &l)
                .set(t0, f64::from(p.live.rounds));
        }
    }
    t0
}

fn record_traffic(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let e = TrafficExperiment::run(seed, SimDuration::from_secs(30));
    for p in &e.points {
        let loc = format!("{:.2}", p.locality);
        let l = [("locality", loc.as_str())];
        reg.gauge("network_flows", &l).set(t0, p.flows as f64);
        reg.gauge("network_mean_fct_seconds", &l)
            .set(t0, p.mean_fct_secs);
        reg.gauge("network_p99_fct_seconds", &l)
            .set(t0, p.p99_fct_secs);
        reg.gauge("network_link_mean_utilisation", &l)
            .set(t0, p.mean_uplink_utilisation);
        reg.gauge("network_link_peak_utilisation", &l)
            .set(t0, p.peak_uplink_utilisation);
    }
    reg.gauge("network_maxmin_mean_fct_seconds", &[])
        .set(t0, e.maxmin_mean_fct);
    reg.gauge("network_equal_share_mean_fct_seconds", &[])
        .set(t0, e.equal_share_mean_fct);
    // One fully remote (0 % locality) replay observed live: the
    // congested case whose uplink hot-spots the windowed
    // utilisation queries should resolve.
    TrafficExperiment::replay(
        &traffic_exp::pattern(0.0),
        SimDuration::from_secs(30),
        &SeedFactory::new(seed),
        RateAllocator::MaxMin,
        sink,
    );
    sink.tsdb()
        .and_then(|db| db.scrape_times().last().copied())
        .unwrap_or(SimTime::ZERO)
}

fn record_sdn(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let e = SdnExperiment::paper_scale();
    for m in &e.install_modes {
        let mode = m.mode.to_string();
        let l = [("mode", mode.as_str())];
        reg.gauge("sdn_flows_with_setup", &l)
            .set(t0, m.flows_with_setup as f64);
        reg.gauge("sdn_setup_seconds_total", &l)
            .set(t0, m.total_setup.as_secs_f64());
        reg.gauge("sdn_flowtable_rules", &l)
            .set(t0, m.resident_rules as f64);
        reg.gauge("sdn_lifetime_rules", &l)
            .set(t0, m.lifetime_rules as f64);
    }
    for a in &e.addressing {
        let mode = a.mode.to_string();
        let l = [("mode", mode.as_str())];
        reg.gauge("sdn_migration_rules_touched", &l)
            .set(t0, a.impact.rules_touched as f64);
        reg.gauge("sdn_migration_flows_disrupted", &l)
            .set(t0, a.impact.flows_disrupted as f64);
        reg.gauge("sdn_migration_convergence_seconds", &l)
            .set(t0, a.impact.convergence_latency.as_secs_f64());
    }
    // One reactive cache miss (packet-in → flow-mod round trip)
    // followed by a hit on the installed rules, on the paper fabric.
    let topo = Topology::multi_root_tree(4, 14, 2);
    let hosts: Vec<_> = topo.hosts().map(|h| h.id).collect();
    let mut ctrl = SdnController::new(topo, InstallMode::Reactive);
    // First and last host span the full fabric diameter.
    let (Some(&src), Some(&dst)) = (hosts.first(), hosts.last()) else {
        return SimTime::ZERO;
    };
    ctrl.route_traced(src, dst, &mut sink.tracer, SpanContext::NONE);
    ctrl.route_traced(src, dst, &mut sink.tracer, SpanContext::NONE);
    ctrl.now()
}

fn record_fidelity(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let e = FidelityExperiment::run(seed, 56);
    reg.gauge("fidelity_shape_correlation", &[])
        .set(t0, e.shape_correlation);
    reg.gauge("fidelity_capacity_ratio", &[])
        .set(t0, e.capacity_ratio);
    reg.gauge("fidelity_pi_saturated", &[])
        .set(t0, e.pi_saturated as f64);
    reg.gauge("fidelity_x86_saturated", &[])
        .set(t0, e.x86_saturated as f64);
    reg.gauge("fidelity_pi_makespan_seconds", &[])
        .set(t0, e.pi_makespan_secs);
    reg.gauge("fidelity_x86_makespan_seconds", &[])
        .set(t0, e.x86_makespan_secs);
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
    SimTime::ZERO + out.makespan()
}

fn record_failures(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for s in &FailureExperiment::run(seed).scenarios {
        let l = [("scenario", s.name.as_str()), ("fabric", s.fabric.as_str())];
        reg.gauge("network_reachability", &l)
            .set(t0, s.reachability);
        reg.gauge("network_links_failed", &l)
            .set(t0, s.links_failed as f64);
        reg.gauge("network_devices_failed", &l)
            .set(t0, s.devices_failed as f64);
        reg.gauge("network_flows_rerouted", &l)
            .set(t0, s.flows_rerouted as f64);
        reg.gauge("network_flows_stranded", &l)
            .set(t0, s.flows_stranded as f64);
    }
    t0
}

fn record_p2p(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for o in &P2pMgmtExperiment::run(seed, 56).outcomes {
        let l = [("scheme", o.name.as_str())];
        let c = reg.counter("mgmt_messages_total", &l);
        c.add(o.messages);
        reg.gauge("mgmt_rounds", &l).set(t0, f64::from(o.rounds));
        reg.gauge("mgmt_coverage_after_failure", &l)
            .set(t0, o.coverage_after_failure);
    }
    t0
}

fn record_imagedist(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let e = ImageDistributionExperiment::paper_scale();
    for o in &e.outcomes {
        let l = [("strategy", o.strategy.as_str())];
        reg.gauge("imagedist_makespan_seconds", &l)
            .set(t0, o.makespan.as_secs_f64());
        reg.gauge("imagedist_uplink_crossings", &l)
            .set(t0, o.uplink_image_crossings);
        reg.gauge("imagedist_rounds", &l)
            .set(t0, f64::from(o.rounds));
    }
    reg.gauge("imagedist_image_mib", &[])
        .set(t0, e.image_size.as_mib_f64());
    reg.gauge("imagedist_receivers", &[])
        .set(t0, e.receivers as f64);
    t0
}

fn record_oversub(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for p in &OversubscriptionExperiment::paper_scale().points {
        let f = format!("{:.2}", p.factor);
        let l = [("factor", f.as_str())];
        reg.gauge("oversub_admitted", &l).set(t0, p.admitted as f64);
        reg.gauge("oversub_overload_probability", &l)
            .set(t0, p.overload_probability);
        reg.gauge("oversub_expected_utilisation", &l)
            .set(t0, p.expected_utilisation);
    }
    t0
}

fn record_sla(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    let e = SlaExperiment::run(seed, 168, 0.05);
    for o in &e.outcomes {
        let pol = o.policy.to_string();
        let l = [("policy", pol.as_str())];
        reg.gauge("sla_nodes_used", &l).set(t0, o.nodes_used as f64);
        reg.gauge("sla_meeting", &l).set(t0, o.meeting_sla as f64);
        reg.gauge("sla_saturated", &l).set(t0, o.saturated as f64);
        reg.gauge("sla_p95_latency_seconds", &l)
            .set(t0, o.p95_latency_secs);
    }
    reg.gauge("sla_target_seconds", &[]).set(t0, e.sla_secs);
    // One webserver run near the knee (ρ ≈ 0.8): queue depth and
    // latency series breathe without the backlog saturating.
    let unit = WebSimConfig::pi_static(1.0);
    let rho = unit.rho();
    let cfg = if rho > 0.0 && rho.is_finite() {
        WebSimConfig::pi_static(0.8 / rho)
    } else {
        unit
    };
    let seeds = SeedFactory::new(seed);
    let sink_in = std::mem::replace(sink, TelemetrySink::disabled());
    let (_, live) = websim::simulate_with_telemetry(&cfg, 20_000, &seeds, sink_in);
    *sink = live;
    sink.tsdb()
        .and_then(|db| db.scrape_times().last().copied())
        .unwrap_or(SimTime::ZERO)
}

fn record_dvfs(_seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    for o in &DvfsExperiment::paper_scale().outcomes {
        let gov = o.governor.to_string();
        let l = [("governor", gov.as_str())];
        reg.gauge("hardware_daily_energy_kwh", &l)
            .set(t0, o.daily_energy.as_kwh());
        reg.gauge("hardware_served_fraction", &l)
            .set(t0, o.served_fraction);
    }
    t0
}

fn record_recovery(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    // Live collection: series and trace accumulate as the
    // control loop runs.
    let horizon = SimDuration::from_secs(90 * 60);
    let (_, live) = RecoveryExperiment::run_with_telemetry(seed, horizon, std::mem::take(sink));
    *sink = live;
    SimTime::ZERO + horizon
}

fn record_estimate(seed: u64, sink: &mut TelemetrySink) -> SimTime {
    let (t0, reg) = (SimTime::ZERO, &mut sink.registry);
    // A shortened S2 sweep (5 simulated seconds per scenario):
    // telemetry wants the cluster/error shape, not the full
    // bench-grade horizon.
    let e = EstimateExperiment::run(seed, SimDuration::from_secs(5));
    for p in &e.points {
        let fabric = format!("{}M", p.fabric_mbps);
        let loc = format!("{:.2}", p.locality);
        let l = [("fabric", fabric.as_str()), ("locality", loc.as_str())];
        reg.gauge("estimate_clusters", &l)
            .set(t0, p.clusters as f64);
        reg.gauge("estimate_loaded_links", &l)
            .set(t0, p.loaded_links as f64);
        reg.gauge("estimate_rep_flows", &l)
            .set(t0, p.rep_flows as f64);
        reg.gauge("estimate_p99_rel_err", &l).set(t0, p.p99_rel_err);
    }
    // Membership breakdown for the hardest scenario (all-remote
    // traffic on the tightest fabric).
    for (i, &members) in e.hardest_cluster_sizes.iter().enumerate() {
        let c = format!("c{i}");
        let l = [("cluster", c.as_str())];
        reg.gauge("estimate_cluster_members", &l)
            .set(t0, members as f64);
    }
    reg.gauge("estimate_max_p99_rel_err", &[])
        .set(t0, e.max_p99_rel_err);
    reg.gauge("estimate_error_bound", &[])
        .set(t0, EstimateExperiment::P99_ERROR_BOUND);
    reg.gauge("estimate_mean_compression", &[])
        .set(t0, e.mean_compression);
    t0
}
