//! One module per reproduced table, figure and claim.
//!
//! The index lives in `DESIGN.md` §3; in code:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table I (cost/power/cooling) + §IV cooling claim | [`table1`] |
//! | Fig. 2 (architecture, fat-tree re-cable) | [`fig2`] |
//! | Fig. 3 (software stack) + §II-B density claim | [`fig3`] |
//! | Fig. 4 (management panel) | [`fig4`] |
//! | §III/§IV whole-cloud power, single socket | [`power`] |
//! | §III placement & consolidation | [`placement_exp`] |
//! | §VI live migration | [`migration_exp`] |
//! | §I traffic realism / congestion | [`traffic_exp`] |
//! | §III SDN + IP-less routing | [`sdn_exp`] |
//! | §IV scale-model fidelity | [`fidelity`] |
//! | failure study (paper ref.\ 2) | [`failure_exp`] |
//! | §III P2P management | [`p2p_mgmt`] |
//! | §II-A image distribution | [`image_dist`] |
//! | §III oversubscription | [`oversub_exp`] |
//! | §III power / cpufreq governors | [`dvfs_exp`] |
//! | §IV SLA vs density | [`sla_exp`] |
//! | §I failure recovery / self-healing | [`recovery_exp`] |
//! | model-only: estimation mode vs exact oracle | [`estimate_exp`] |
//!
//! Every experiment is deterministic given its seed, returns a typed
//! result, and `Display`s as an aligned text table. [`REGISTRY`] lists
//! them all: the CLI, the telemetry collector and the benches read their
//! names, reports and telemetry from it.

pub mod dvfs_exp;
pub mod estimate_exp;
pub mod failure_exp;
pub mod fidelity;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod image_dist;
pub mod migration_exp;
pub mod oversub_exp;
pub mod p2p_mgmt;
pub mod placement_exp;
pub mod power;
pub mod recovery_exp;
mod registry;
pub mod sdn_exp;
pub mod sla_exp;
pub mod table1;
pub mod traffic_exp;

pub use registry::{find, Experiment, REGISTRY};
