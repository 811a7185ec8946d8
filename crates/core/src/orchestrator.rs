//! End-to-end live migration orchestration.
//!
//! The conclusion promises "sophisticated live migration within the
//! PiCloud". This module wires all four layers together for one container
//! move:
//!
//! 1. **compute the transfer** with the pre-copy model
//!    ([`LiveMigrationModel`]);
//! 2. **realise it on the fabric** as a real flow contending with tenant
//!    traffic ([`FlowSimulator`]);
//! 3. **drive the LXC lifecycle**: freeze on the source for the final
//!    stop-and-copy window, recreate + start on the target, destroy the
//!    source copy;
//! 4. **retarget the network identity**: under flat-label addressing only
//!    the label's next-hops move; under IP addressing the sessions break
//!    (§III's IP-less routing argument, now end-to-end).

use crate::cluster::PiCloud;
use picloud_container::container::ContainerId;
use picloud_hardware::node::NodeId;
use picloud_mgmt::api::ApiError;
use picloud_network::flow::FlowSpec;
use picloud_network::flowsim::FlowSimulator;
use picloud_placement::migration::{LiveMigrationModel, MigrationOutcome};
use picloud_sdn::ipless::{IplessFabric, Label, MigrationImpact};
use picloud_simcore::{SimDuration, SimTime};
use std::fmt;

/// Everything one orchestrated migration did.
#[derive(Debug, Clone, PartialEq)]
pub struct OrchestratedMigration {
    /// The container's identity on the *target* host after the move.
    pub new_container: ContainerId,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// The timing model's prediction (downtime, rounds, bytes).
    pub model: MigrationOutcome,
    /// Wall-clock time the transfer actually took on the (possibly
    /// contended) fabric.
    pub network_time: SimDuration,
    /// How long the source container sat frozen (the realised blackout).
    pub freeze_window: SimDuration,
    /// Control-plane impact of retargeting the container's address.
    pub network_identity: MigrationImpact,
}

impl fmt::Display for OrchestratedMigration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "migrated to {} ({} -> {}): transfer {} (model {}), frozen {}, {} rules touched, {} sessions broken",
            self.new_container,
            self.from,
            self.to,
            self.network_time,
            self.model.total_time,
            self.freeze_window,
            self.network_identity.rules_touched,
            self.network_identity.flows_disrupted
        )
    }
}

/// The orchestrator: a migration model plus policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationOrchestrator {
    /// Transfer timing model.
    pub model: LiveMigrationModel,
    /// The workload's memory dirty rate during migration, bytes/s.
    pub dirty_rate_bps: f64,
}

impl Default for MigrationOrchestrator {
    fn default() -> Self {
        MigrationOrchestrator {
            model: LiveMigrationModel::default(),
            dirty_rate_bps: 1e6,
        }
    }
}

impl MigrationOrchestrator {
    /// Migrates `container` from `from` to `to`, realising the transfer on
    /// `sim` and retargeting the container's label on `fabric`.
    ///
    /// `fabric` must address the same topology as `sim`; the container's
    /// flat label is its id on the source host.
    ///
    /// # Errors
    ///
    /// [`ApiError::NotFound`] for unknown nodes/containers;
    /// [`ApiError::InsufficientStorage`] if the target cannot host the
    /// container; [`ApiError::Conflict`] if the container is not
    /// running, or if the fabric is disconnected between the two nodes.
    #[allow(
        clippy::too_many_arguments,
        reason = "the seven collaborators are the point"
    )]
    pub fn migrate(
        &self,
        cloud: &mut PiCloud,
        sim: &mut FlowSimulator,
        fabric: &mut IplessFabric,
        from: NodeId,
        container: ContainerId,
        to: NodeId,
        now: SimTime,
    ) -> Result<OrchestratedMigration, ApiError> {
        // --- inspect the source container -----------------------------
        let (name, config, ram) = {
            let daemon = cloud
                .pimaster()
                .daemon(from)
                .ok_or_else(|| ApiError::NotFound(format!("no such node {from}")))?;
            let c = daemon
                .host()
                .container(container)
                .ok_or_else(|| ApiError::NotFound(format!("no such container {container}")))?;
            if !c.is_running() {
                return Err(ApiError::Conflict(format!(
                    "{container} is not running; cold-migrate stopped containers by image copy"
                )));
            }
            (
                c.name().to_owned(),
                c.config().clone(),
                c.config().effective_idle_memory(),
            )
        };
        // --- admission check on the target ----------------------------
        {
            let target = cloud
                .pimaster()
                .daemon(to)
                .ok_or_else(|| ApiError::NotFound(format!("no such node {to}")))?;
            if target.host().memory_free() < ram
                || target.host().disk_free() < config.image.disk_size
            {
                return Err(ApiError::InsufficientStorage(format!(
                    "{to} cannot fit {ram} + image"
                )));
            }
        }
        // --- model the transfer, realise it on the fabric -------------
        let model = self.model.pre_copy(ram, self.dirty_rate_bps);
        let src_dev = cloud.device_of(from);
        let dst_dev = cloud.device_of(to);
        let start = now.max(sim.now());
        let flow_id = sim
            .inject(
                FlowSpec::new(src_dev, dst_dev, model.bytes_transferred).with_tag("migration"),
                start,
            )
            .map_err(|e| ApiError::Conflict(format!("no migration path {from} -> {to}: {e}")))?;
        let end = sim.run_to_completion();
        // The migration's own completion, not the last concurrent flow's.
        #[expect(
            clippy::expect_used,
            reason = "the flow injected above must appear in completed() once run_to_completion returns"
        )]
        let migration_done = sim
            .completed()
            .iter()
            .find(|c| c.id == flow_id)
            .expect("migration flow completed")
            .finished;
        let network_time = migration_done.saturating_duration_since(start);
        let _ = end;
        // The freeze window scales with the contention the fabric actually
        // showed: the model's downtime share of total time, applied to the
        // realised transfer time.
        let share = if model.total_time.is_zero() {
            0.0
        } else {
            model.downtime.as_secs_f64() / model.total_time.as_secs_f64()
        };
        let freeze_window = network_time.mul_f64(share);

        // --- LXC lifecycle: freeze, recreate, cut over, destroy --------
        let gone = |node: NodeId| ApiError::NotFound(format!("no such node {node}"));
        {
            let src = cloud
                .pimaster_mut()
                .daemon_mut(from)
                .ok_or_else(|| gone(from))?;
            src.host_mut().freeze(container).map_err(ApiError::from)?;
        }
        let new_container = {
            let dst = cloud
                .pimaster_mut()
                .daemon_mut(to)
                .ok_or_else(|| gone(to))?;
            match dst.spawn(name, config) {
                Ok(id) => id,
                Err(e) => {
                    // Roll back: thaw the source and fail.
                    let src = cloud
                        .pimaster_mut()
                        .daemon_mut(from)
                        .ok_or_else(|| gone(from))?;
                    src.host_mut().unfreeze(container).map_err(ApiError::from)?;
                    return Err(e.into());
                }
            }
        };
        {
            let src = cloud
                .pimaster_mut()
                .daemon_mut(from)
                .ok_or_else(|| gone(from))?;
            src.destroy(container).map_err(ApiError::from)?;
        }
        // --- retarget the network identity -----------------------------
        let label = Label(container.0);
        if fabric.locate(label).is_none() {
            fabric.bind(label, src_dev);
        }
        let network_identity = fabric
            .migrate(label, dst_dev, end)
            .ok_or_else(|| ApiError::NotFound(format!("label {} not bound on fabric", label.0)))?;

        Ok(OrchestratedMigration {
            new_container,
            from,
            to,
            model,
            network_time,
            freeze_window,
            network_identity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picloud_mgmt::api::{ApiRequest, ApiResponse};
    use picloud_network::flowsim::RateAllocator;
    use picloud_network::routing::RoutingPolicy;
    use picloud_sdn::ipless::AddressingMode;
    use picloud_simcore::units::Bytes;

    fn setup() -> (PiCloud, FlowSimulator, IplessFabric, ContainerId) {
        let mut cloud = PiCloud::glasgow();
        let sim = cloud.flow_simulator(RoutingPolicy::SingleShortest, RateAllocator::MaxMin);
        let fabric = IplessFabric::new(cloud.topology().clone(), AddressingMode::FlatLabel);
        let ApiResponse::Spawned { container, .. } = cloud
            .api(
                ApiRequest::SpawnContainer {
                    node: NodeId(0),
                    name: "svc".into(),
                    image: "database".into(),
                },
                SimTime::ZERO,
            )
            .expect("spawn")
        else {
            panic!()
        };
        (cloud, sim, fabric, container)
    }

    #[test]
    fn full_migration_moves_the_container() {
        let (mut cloud, mut sim, mut fabric, ct) = setup();
        let orch = MigrationOrchestrator::default();
        let result = orch
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(0),
                ct,
                NodeId(20),
                SimTime::ZERO,
            )
            .expect("migrates");
        // Source is empty; target runs the service.
        assert_eq!(
            cloud
                .pimaster()
                .daemon(NodeId(0))
                .unwrap()
                .host()
                .containers()
                .count(),
            0
        );
        let target = cloud.pimaster().daemon(NodeId(20)).unwrap();
        let moved = target
            .host()
            .container(result.new_container)
            .expect("exists");
        assert!(moved.is_running());
        assert_eq!(moved.name(), "svc");
        // Memory followed the container.
        assert_eq!(target.host().memory_in_use(), Bytes::mib(48));
        // The fabric transfer happened and took real time.
        assert!(result.network_time > SimDuration::ZERO);
        assert!(result.freeze_window < result.network_time);
        // Label now points at the target host.
        assert_eq!(
            fabric.locate(Label(ct.0)),
            Some(cloud.device_of(NodeId(20)))
        );
    }

    #[test]
    fn contended_fabric_stretches_the_transfer() {
        let (mut cloud, mut sim, mut fabric, ct) = setup();
        // A tenant elephant flow shares the source access link.
        let src = cloud.device_of(NodeId(0));
        let other = cloud.device_of(NodeId(5));
        sim.inject(
            FlowSpec::new(src, other, Bytes::mib(256)).with_tag("tenant"),
            SimTime::ZERO,
        )
        .expect("routeable");
        let orch = MigrationOrchestrator::default();
        let contended = orch
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(0),
                ct,
                NodeId(20),
                SimTime::ZERO,
            )
            .expect("migrates");
        // Compare to an uncontended run.
        let (mut cloud2, mut sim2, mut fabric2, ct2) = setup();
        let clean = orch
            .migrate(
                &mut cloud2,
                &mut sim2,
                &mut fabric2,
                NodeId(0),
                ct2,
                NodeId(20),
                SimTime::ZERO,
            )
            .expect("migrates");
        assert!(
            contended.network_time > clean.network_time.mul_f64(1.3),
            "contended {} vs clean {}",
            contended.network_time,
            clean.network_time
        );
    }

    #[test]
    fn target_without_room_is_rejected_and_source_unharmed() {
        let (mut cloud, mut sim, mut fabric, ct) = setup();
        // Fill node 20 completely.
        for i in 0..2 {
            cloud
                .api(
                    ApiRequest::SpawnContainer {
                        node: NodeId(20),
                        name: format!("hog-{i}"),
                        image: "hadoop-worker".into(),
                    },
                    SimTime::ZERO,
                )
                .expect("spawn hog");
        }
        let orch = MigrationOrchestrator::default();
        let err = orch
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(0),
                ct,
                NodeId(20),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.status_code(), 507);
        // Source container still running.
        let c = cloud
            .pimaster()
            .daemon(NodeId(0))
            .unwrap()
            .host()
            .container(ct)
            .expect("still there");
        assert!(c.is_running());
    }

    #[test]
    fn stopped_containers_cannot_live_migrate() {
        let (mut cloud, mut sim, mut fabric, ct) = setup();
        cloud
            .api(
                ApiRequest::StopContainer {
                    node: NodeId(0),
                    container: ct,
                },
                SimTime::ZERO,
            )
            .expect("stop");
        let err = MigrationOrchestrator::default()
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(0),
                ct,
                NodeId(20),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.status_code(), 409);
    }

    #[test]
    fn unknown_endpoints_404() {
        let (mut cloud, mut sim, mut fabric, ct) = setup();
        let orch = MigrationOrchestrator::default();
        let err = orch
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(99),
                ct,
                NodeId(1),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.status_code(), 404);
        let err = orch
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(0),
                ContainerId(999),
                NodeId(1),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.status_code(), 404);
    }

    #[test]
    fn label_sessions_survive_orchestrated_move() {
        let (mut cloud, mut sim, mut fabric, ct) = setup();
        // Clients attach to the service label before the move.
        let label = Label(ct.0);
        fabric.bind(label, cloud.device_of(NodeId(0)));
        for i in 1..6u32 {
            fabric.open_session(cloud.device_of(NodeId(i)), label);
        }
        let result = MigrationOrchestrator::default()
            .migrate(
                &mut cloud,
                &mut sim,
                &mut fabric,
                NodeId(0),
                ct,
                NodeId(30),
                SimTime::ZERO,
            )
            .expect("migrates");
        assert_eq!(result.network_identity.flows_disrupted, 0);
        assert!(result.network_identity.rules_touched >= 1);
    }
}
