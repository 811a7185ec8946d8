//! Hadoop on the PiCloud: run MapReduce jobs on the cluster fabric and
//! watch the shuffle exercise the aggregation layer — the cross-layer
//! interaction (§III/§IV) the testbed exists to expose.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example mapreduce
//! ```

use picloud::{PiCloud, TopologyKind};
use picloud_network::flowsim::RateAllocator;
use picloud_network::routing::RoutingPolicy;
use picloud_network::topology::DeviceKind;
use picloud_simcore::units::Bytes;
use picloud_workloads::mapreduce::MapReduceJob;

fn run_job(cloud: &PiCloud, job: &MapReduceJob, workers: usize) {
    let hosts: Vec<_> = cloud
        .node_ids()
        .take(workers)
        .map(|n| cloud.device_of(n))
        .collect();
    let mut sim = cloud.flow_simulator(RoutingPolicy::default(), RateAllocator::MaxMin);
    let plan = job.plan(&hosts);
    let spec = cloud.node_spec();
    let outcome = plan.execute(&mut sim, spec.clock, &spec.storage);
    println!("{job} on {workers} Pis:");
    println!(
        "  map {} | shuffle {} | reduce {} | makespan {}",
        outcome.map_time,
        outcome.shuffle_time,
        outcome.reduce_time,
        outcome.makespan()
    );
    println!(
        "  shuffle rack-locality {:.0}%, network flows {}",
        outcome.shuffle_rack_locality * 100.0,
        plan.shuffle_flows().len()
    );
    // Where did the shuffle hurt? Top uplinks by mean utilisation.
    let topo = sim.topology();
    let mut uplinks: Vec<(String, f64)> = topo
        .links()
        .iter()
        .filter(|l| {
            matches!(
                (&topo.device(l.a).kind, &topo.device(l.b).kind),
                (DeviceKind::TopOfRack { .. }, DeviceKind::Aggregation)
                    | (DeviceKind::Aggregation, DeviceKind::TopOfRack { .. })
            )
        })
        .map(|l| {
            (
                format!("{}-{}", topo.device(l.a).name, topo.device(l.b).name),
                sim.mean_link_utilisation(l.id),
            )
        })
        .collect();
    uplinks.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("  busiest uplinks during the job:");
    for (name, util) in uplinks.iter().take(3) {
        println!("    {name:<16} mean {:.1}%", util * 100.0);
    }
    println!();
}

fn main() {
    let cloud = PiCloud::glasgow();
    println!("{cloud}\n");

    // Wordcount: CPU-ish, light shuffle.
    run_job(&cloud, &MapReduceJob::wordcount(Bytes::mib(128)), 16);

    // Terasort: shuffle == input — the network-bound case.
    run_job(&cloud, &MapReduceJob::terasort_like(Bytes::mib(128)), 16);

    // Scale-out: the same sort on the whole 56-node cloud.
    run_job(&cloud, &MapReduceJob::terasort_like(Bytes::mib(128)), 56);

    // The fat-tree re-cable: same job, richer fabric.
    let fat = PiCloud::builder()
        .topology(TopologyKind::FatTree { k: 6 })
        .build();
    println!("--- after re-cabling to {} ---\n", fat.topology_kind());
    run_job(&fat, &MapReduceJob::terasort_like(Bytes::mib(128)), 54);
}
