//! A web farm on the PiCloud: spawn lighttpd containers across the
//! cluster through the management API, drive a diurnal load, and watch the
//! Fig. 4 control panel — the §II-C use case end to end.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example webfarm
//! ```

use picloud::PiCloud;
use picloud_hardware::node::NodeId;
use picloud_mgmt::api::{ApiRequest, ApiResponse};
use picloud_mgmt::panel::ControlPanel;
use picloud_simcore::units::Bytes;
use picloud_simcore::SimTime;
use picloud_workloads::httpd::{HttpRequest, HttpServerSpec};
use rand::Rng;

fn main() {
    let mut cloud = PiCloud::glasgow();
    let server = HttpServerSpec::lighttpd();
    let page = HttpRequest::static_page();
    let mut rng = cloud.seeds().stream("webfarm/load");

    // Spawn one web container per node across the whole cluster.
    let mut farm: Vec<(NodeId, picloud_container::container::ContainerId)> = Vec::new();
    for node in 0..cloud.node_count() as u32 {
        let resp = cloud
            .api(
                ApiRequest::SpawnContainer {
                    node: NodeId(node),
                    name: format!("web-{node}"),
                    image: "lighttpd".to_owned(),
                },
                SimTime::ZERO,
            )
            .expect("fresh node hosts one container");
        let ApiResponse::Spawned { container, .. } = resp else {
            unreachable!()
        };
        farm.push((NodeId(node), container));
    }
    println!("Spawned {} web containers (one per Pi).\n", farm.len());

    // Soft limits on half the farm, §II-C style.
    for (node, ct) in farm.iter().take(28) {
        cloud
            .api(
                ApiRequest::SetVmLimits {
                    node: *node,
                    container: *ct,
                    cpu_shares: Some(512),
                    memory_limit: Some(Bytes::mib(48)),
                },
                SimTime::ZERO,
            )
            .expect("limits apply");
    }

    // Drive three load epochs: night, morning, peak.
    let mut panel = ControlPanel::new();
    for (epoch, (label, base_rps)) in [("night", 20.0), ("morning", 120.0), ("peak", 320.0)]
        .iter()
        .enumerate()
    {
        let now = SimTime::from_secs(epoch as u64 * 3600);
        for (node, ct) in &farm {
            let rps: f64 = base_rps * rng.gen_range(0.5..1.5);
            let demand = server.cpu_demand_hz(&page, rps);
            cloud
                .pimaster_mut()
                .daemon_mut(*node)
                .expect("node exists")
                .set_demand(*ct, demand);
        }
        let view = panel.refresh(cloud.pimaster_mut(), now);
        println!("=== {label} (t={now}) ===");
        println!(
            "mean CPU {:.0}%, hottest node: {}",
            view.mean_cpu_percent,
            view.rows
                .iter()
                .max_by(|a, b| a.cpu_percent.total_cmp(&b.cpu_percent))
                .map(|r| format!("{} at {:.0}%", r.node, r.cpu_percent))
                .unwrap_or_default()
        );
        // Print the first rack's rows as a sample of the Fig. 4 panel.
        for row in view.rows.iter().take(4) {
            println!(
                "  {:<18} cpu {:>3.0}%  mem {:>3.0}/{:<3.0} MiB  {}",
                row.node,
                row.cpu_percent,
                row.mem_used_mib,
                row.mem_total_mib,
                row.containers.join(", ")
            );
        }
        // Latency check at this epoch on one representative node.
        match server.mm1_latency(700e6, &page, *base_rps) {
            Some(latency) => println!("  per-node M/M/1 latency ≈ {latency}\n"),
            None => println!("  per-node load exceeds a single Pi core — saturated!\n"),
        }
    }

    // Final JSON payload, truncated — what the panel frontend fetches.
    let view = panel.refresh(cloud.pimaster_mut(), SimTime::from_secs(4 * 3600));
    let json = view.to_json();
    println!(
        "panel JSON payload: {} bytes (first 200: {})",
        json.len(),
        &json[..200.min(json.len())]
    );
}
