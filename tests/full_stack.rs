//! End-to-end integration: every layer of the scale model working at once.
//!
//! Builds the 56-node PiCloud, deploys the Fig. 3 stack cluster-wide
//! through the REST API, drives web load, replays DC traffic on the
//! fabric, and checks cross-layer invariants that no single crate's unit
//! tests can see.

use picloud::PiCloud;
use picloud_hardware::node::NodeId;
use picloud_mgmt::api::{ApiRequest, ApiResponse};
use picloud_mgmt::panel::ControlPanel;
use picloud_network::flowsim::RateAllocator;
use picloud_network::routing::RoutingPolicy;
use picloud_simcore::{SimDuration, SimTime};
use picloud_workloads::traffic::TrafficPattern;

#[test]
fn standard_stack_fits_on_every_node_of_the_cloud() {
    let mut cloud = PiCloud::glasgow();
    for node in 0..56u32 {
        let stack = cloud
            .deploy_standard_stack(NodeId(node), SimTime::ZERO)
            .unwrap_or_else(|e| panic!("node {node}: {e}"));
        assert_eq!(stack.len(), 3);
    }
    // 3 containers x 56 nodes, all running, all in DNS.
    let snap = cloud.pimaster_mut().snapshot(SimTime::from_secs(1));
    assert_eq!(snap.total_running(), 168);
    // 56 node records + 168 container records.
    assert_eq!(cloud.pimaster().dns().len(), 56 + 168);
}

#[test]
fn api_driven_lifecycle_is_visible_in_the_panel() {
    let mut cloud = PiCloud::glasgow();
    let resp = cloud
        .api(
            ApiRequest::SpawnContainer {
                node: NodeId(10),
                name: "svc".into(),
                image: "database".into(),
            },
            SimTime::ZERO,
        )
        .expect("spawn");
    let ApiResponse::Spawned { container, .. } = resp else {
        panic!("expected spawn response");
    };
    let mut panel = ControlPanel::new();
    let view = panel.refresh(cloud.pimaster_mut(), SimTime::from_secs(1));
    assert!(view.rows[10]
        .containers
        .contains(&"svc [running]".to_owned()));

    cloud
        .api(
            ApiRequest::StopContainer {
                node: NodeId(10),
                container,
            },
            SimTime::from_secs(2),
        )
        .expect("stop");
    let view = panel.refresh(cloud.pimaster_mut(), SimTime::from_secs(3));
    assert!(view.rows[10]
        .containers
        .contains(&"svc [stopped]".to_owned()));
}

#[test]
fn dc_traffic_replays_on_the_cluster_fabric() {
    let cloud = PiCloud::glasgow();
    let pattern = TrafficPattern::measured_dc();
    let workload = pattern.generate(cloud.topology(), SimDuration::from_secs(15), &cloud.seeds());
    assert!(!workload.is_empty());
    let mut sim = cloud.flow_simulator(RoutingPolicy::default(), RateAllocator::MaxMin);
    for (at, spec) in workload.events() {
        sim.inject(spec.clone(), *at)
            .expect("cluster fabric is connected");
    }
    sim.run_to_completion();
    assert_eq!(sim.completed().len(), workload.len());
    assert_eq!(sim.active_count(), 0);
    // Conservation: every flow's bytes arrived.
    let sent: u64 = workload.events().iter().map(|(_, f)| f.size.as_u64()).sum();
    let arrived: u64 = sim.completed().iter().map(|c| c.spec.size.as_u64()).sum();
    assert_eq!(sent, arrived);
}

#[test]
fn overload_shows_up_as_saturation_not_failure() {
    // Offer every container far more demand than a Pi core has; the model
    // must saturate gracefully at 100 % and keep serving samples.
    let mut cloud = PiCloud::glasgow();
    let mut ids = Vec::new();
    for node in 0..8u32 {
        let ApiResponse::Spawned { container, .. } = cloud
            .api(
                ApiRequest::SpawnContainer {
                    node: NodeId(node),
                    name: "hot".into(),
                    image: "lighttpd".into(),
                },
                SimTime::ZERO,
            )
            .expect("spawn")
        else {
            panic!()
        };
        ids.push((NodeId(node), container));
    }
    for (node, ct) in &ids {
        cloud
            .pimaster_mut()
            .daemon_mut(*node)
            .expect("node")
            .set_demand(*ct, 10e9); // 14x a Pi core
    }
    let snap = cloud.pimaster_mut().snapshot(SimTime::from_secs(1));
    for s in snap.samples.iter().take(8) {
        assert!(
            (s.cpu_utilisation - 1.0).abs() < 1e-9,
            "{}",
            s.cpu_utilisation
        );
    }
    assert_eq!(snap.overloaded(0.9).len(), 8);
}

#[test]
fn image_patch_rolls_out_to_exactly_the_stale_nodes() {
    let mut cloud = PiCloud::glasgow();
    // Spawn the database image on 10 nodes.
    for node in 0..10u32 {
        cloud
            .api(
                ApiRequest::SpawnContainer {
                    node: NodeId(node),
                    name: "db".into(),
                    image: "database".into(),
                },
                SimTime::ZERO,
            )
            .expect("spawn");
    }
    cloud
        .api(
            ApiRequest::PatchImage {
                name: "database".into(),
            },
            SimTime::from_secs(1),
        )
        .expect("patch");
    let plan = cloud
        .pimaster()
        .images()
        .upgrade_plan("database")
        .expect("plan");
    assert_eq!(plan.stale_nodes.len(), 10);
    assert_eq!(plan.target_version, 2);
    cloud.pimaster_mut().images_mut().apply_upgrade(&plan);
    let after = cloud
        .pimaster()
        .images()
        .upgrade_plan("database")
        .expect("plan");
    assert!(after.stale_nodes.is_empty());
}

#[test]
fn dhcp_survives_mass_spawn_across_racks() {
    let mut cloud = PiCloud::glasgow();
    let mut addresses = std::collections::BTreeSet::new();
    for node in 0..56u32 {
        let ApiResponse::Spawned { address, .. } = cloud
            .api(
                ApiRequest::SpawnContainer {
                    node: NodeId(node),
                    name: format!("c{node}"),
                    image: "raspbian-minimal".into(),
                },
                SimTime::ZERO,
            )
            .expect("spawn")
        else {
            panic!()
        };
        assert!(
            addresses.insert(address.clone()),
            "duplicate address {address}"
        );
        // Container's address shares the node's rack subnet.
        let rack = node / 14;
        assert!(address.starts_with(&format!("10.0.{rack}.")), "{address}");
    }
}
