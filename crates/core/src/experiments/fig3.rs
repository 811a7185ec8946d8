//! **F3 — Fig. 3 + the §II-B density claim**: the per-Pi software stack.
//!
//! Two measurable claims sit behind the stack figure:
//!
//! 1. "we can run three containers on a single Pi, each consuming 30MB RAM
//!    when idle" — a density sweep: keep starting 30 MB containers until
//!    the runtime refuses.
//! 2. Full virtualisation "technologies such as Xen are memory-intensive
//!    when compared to the 256MB RAM capacity" — the LXC-vs-hypervisor
//!    ablation over board generations.

use crate::report::TextTable;
use picloud_container::container::ContainerConfig;
use picloud_container::host::ContainerHost;
use picloud_container::image::ContainerImage;
use picloud_container::virt::DensityComparison;
use picloud_hardware::node::NodeSpec;
use picloud_simcore::units::Bytes;
use std::fmt;

/// Density sweep on one board.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityResult {
    /// Board model.
    pub board: String,
    /// Idle container footprint used.
    pub container_idle: Bytes,
    /// Containers started before the runtime refused.
    pub containers_started: u32,
    /// Guest memory left after the last successful start.
    pub headroom: Bytes,
}

/// The Fig. 3 experiment: density sweeps plus the virtualisation ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// Density per board generation.
    pub density: Vec<DensityResult>,
    /// LXC vs full virtualisation per board generation.
    pub virt_ablation: Vec<DensityComparison>,
}

impl Fig3 {
    /// Starts `idle`-sized containers on a fresh `spec` host until it
    /// refuses one — out of disk for the image or out of memory to run it.
    pub fn density_sweep(spec: &NodeSpec, idle: Bytes) -> DensityResult {
        let mut host = ContainerHost::new(spec.clone());
        let image = ContainerImage::new("sweep", Bytes::mib(64), idle);
        let mut started = 0u32;
        loop {
            let cfg = ContainerConfig::new(image.clone());
            let Ok(id) = host.create(format!("c{started}"), cfg) else {
                break;
            };
            if host.start(id).is_err() {
                break;
            }
            started += 1;
        }
        DensityResult {
            board: spec.model.clone(),
            container_idle: idle,
            containers_started: started,
            headroom: host.memory_free(),
        }
    }

    /// Runs the full experiment across the Pi generations the paper
    /// discusses (Model B 256 MB and 512 MB) at the paper's 30 MB idle
    /// figure.
    pub fn run() -> Fig3 {
        let boards = [NodeSpec::pi_model_b_rev1(), NodeSpec::pi_model_b_rev2()];
        let idle = Bytes::mib(30);
        Fig3 {
            density: boards
                .iter()
                .map(|b| Fig3::density_sweep(b, idle))
                .collect(),
            virt_ablation: boards
                .iter()
                .map(|b| DensityComparison::run(b, idle))
                .collect(),
        }
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FIG 3: per-Pi software stack — container density")?;
        let mut t = TextTable::new(vec![
            "board".into(),
            "idle/container".into(),
            "containers".into(),
            "headroom".into(),
        ]);
        for d in &self.density {
            t.row(vec![
                d.board.clone(),
                d.container_idle.to_string(),
                d.containers_started.to_string(),
                d.headroom.to_string(),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "Ablation: LXC vs full virtualisation (instances that fit)"
        )?;
        let mut t = TextTable::new(vec!["board".into(), "LXC".into(), "full virt".into()]);
        for c in &self.virt_ablation {
            t.row(vec![
                c.node_model.clone(),
                c.lxc_instances.to_string(),
                c.full_virt_instances.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claim_three_comfortable_containers() {
        let fig = Fig3::run();
        let rev1 = &fig.density[0];
        assert!(
            rev1.containers_started >= 3,
            "the paper's three containers must fit, got {}",
            rev1.containers_started
        );
        // "Comfortably": at least one more container's worth of headroom
        // remains after the third (we fit 6 total).
        assert_eq!(rev1.containers_started, 6);
    }

    #[test]
    fn ram_doubling_doubles_density() {
        let fig = Fig3::run();
        let rev1 = fig.density[0].containers_started;
        let rev2 = fig.density[1].containers_started;
        // (512-64)/30 = 14 vs (256-64)/30 = 6.
        assert!(rev2 > 2 * rev1, "rev2 {rev2} vs rev1 {rev1}");
    }

    #[test]
    fn full_virt_cannot_host_the_paper_stack() {
        let fig = Fig3::run();
        let rev1 = &fig.virt_ablation[0];
        assert!(rev1.full_virt_instances < 3);
        assert!(rev1.lxc_instances >= 3);
    }

    #[test]
    fn headroom_is_consistent() {
        let fig = Fig3::run();
        for d in &fig.density {
            assert!(d.headroom < d.container_idle, "sweep stopped too early");
        }
    }

    #[test]
    fn display_includes_both_tables() {
        let s = Fig3::run().to_string();
        assert!(s.contains("container density"));
        assert!(s.contains("full virt"));
        assert!(s.contains("Raspberry Pi Model B rev2"));
    }
}
