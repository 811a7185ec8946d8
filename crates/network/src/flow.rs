//! Flow identity and specification.
//!
//! A *flow* is one logical transfer between two hosts (an HTTP response, an
//! HDFS block, a migration pre-copy round). The flow-level simulator in
//! [`crate::flowsim`] computes each flow's throughput from link contention
//! rather than simulating individual packets — the fidelity/speed trade the
//! whole scale model is built on.

use crate::topology::{DeviceId, LinkId};
use picloud_simcore::units::Bytes;
use picloud_simcore::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a flow within one [`crate::flowsim::FlowSimulator`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow-{}", self.0)
    }
}

/// What a caller asks the simulator to transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Sending host.
    pub src: DeviceId,
    /// Receiving host.
    pub dst: DeviceId,
    /// Bytes to transfer.
    pub size: Bytes,
    /// Application tag carried through to the completion record (e.g.
    /// `"http"`, `"shuffle"`, `"migration"`).
    pub tag: &'static str,
}

impl FlowSpec {
    /// Creates a spec with an empty tag.
    pub fn new(src: DeviceId, dst: DeviceId, size: Bytes) -> Self {
        FlowSpec {
            src,
            dst,
            size,
            tag: "",
        }
    }

    /// Sets the application tag.
    pub fn with_tag(mut self, tag: &'static str) -> Self {
        self.tag = tag;
        self
    }
}

/// A live flow inside the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// This flow's id.
    pub id: FlowId,
    /// The original request.
    pub spec: FlowSpec,
    /// Links the flow traverses.
    pub path: Vec<LinkId>,
    /// When the flow entered the network.
    pub started: SimTime,
    /// Bits still to transfer.
    pub remaining_bits: f64,
    /// Rate currently allocated, bits/s.
    pub rate_bps: f64,
}

/// A finished flow, with its completion statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedFlow {
    /// This flow's id.
    pub id: FlowId,
    /// The original request.
    pub spec: FlowSpec,
    /// When the flow entered the network.
    pub started: SimTime,
    /// When the last bit arrived.
    pub finished: SimTime,
}

impl CompletedFlow {
    /// Flow completion time.
    pub fn fct(&self) -> picloud_simcore::SimDuration {
        self.finished.duration_since(self.started)
    }

    /// Achieved mean throughput in bits/s (0 for zero-duration flows).
    pub fn mean_throughput_bps(&self) -> f64 {
        let secs = self.fct().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.spec.size.as_u64() as f64 * 8.0 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picloud_simcore::SimDuration;

    #[test]
    fn spec_builder() {
        let s = FlowSpec::new(DeviceId(1), DeviceId(2), Bytes::mib(1)).with_tag("http");
        assert_eq!(s.tag, "http");
        assert_eq!(s.size, Bytes::mib(1));
    }

    #[test]
    fn completed_flow_stats() {
        let c = CompletedFlow {
            id: FlowId(0),
            spec: FlowSpec::new(DeviceId(0), DeviceId(1), Bytes::mib(1)),
            started: SimTime::from_secs(1),
            finished: SimTime::from_secs(2),
        };
        assert_eq!(c.fct(), SimDuration::from_secs(1));
        let tput = c.mean_throughput_bps();
        assert!((tput - 8.0 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn flow_id_display() {
        assert_eq!(FlowId(9).to_string(), "flow-9");
    }
}
