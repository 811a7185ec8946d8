//! The fallible pimaster↔daemon management plane.
//!
//! §II-A's RESTful daemons answer over a real switched network; this
//! module gives those calls failure semantics in sim-time. A call to a
//! healthy daemon returns a small jittered round-trip latency; a call to a
//! crashed or hung daemon burns the full timeout, then retries under
//! exponential backoff with deterministic jitter (drawn from a labelled
//! [`SeedFactory`] stream, so runs are bit-reproducible) until the attempt
//! budget is exhausted.
//!
//! The plane serves a fixed set of destinations, node ids `0..nodes`,
//! sized when it is built: each destination's fault state is one record
//! in a table indexed by [`NodeId::index`], which a call reads once. A
//! fault aimed at an id outside that range (a schedule read from JSON
//! may name any id) is ignored, and a call to such an id is answered as
//! a healthy node answers.

use picloud_hardware::node::NodeId;
use picloud_simcore::telemetry::{MetricsRegistry, Tracer};
use picloud_simcore::{SeedFactory, SimDuration, SimTime, SpanContext, SpanId};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a management call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpcError {
    /// Every attempt timed out.
    Timeout {
        /// Attempts made (initial call + retries).
        attempts: u32,
        /// Total sim-time burned waiting (timeouts + backoff).
        waited: SimDuration,
    },
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout { attempts, waited } => {
                write!(f, "rpc timed out after {attempts} attempts ({waited})")
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// RPC plane tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RpcConfig {
    /// Healthy-path round trip (one switch hop each way on the 100 Mb
    /// fabric).
    pub rtt: SimDuration,
    /// Per-attempt timeout.
    pub timeout: SimDuration,
    /// Attempt budget (first call + retries).
    pub max_attempts: u32,
    /// First backoff; doubles per retry.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
}

impl RpcConfig {
    /// Defaults matched to the 1 s heartbeat poll: a dead daemon costs
    /// `2 × 150 ms` timeouts plus one ~50 ms backoff, well under the poll
    /// period, so detection latency is governed by the detector, not the
    /// transport.
    pub fn lan_default() -> Self {
        RpcConfig {
            rtt: SimDuration::from_micros(800),
            timeout: SimDuration::from_millis(150),
            max_attempts: 2,
            backoff_base: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_secs(1),
        }
    }
}

/// Counters for the run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RpcStats {
    /// Calls issued.
    pub calls: u64,
    /// Calls that got a reply (possibly after retries).
    pub replies: u64,
    /// Calls that exhausted their attempt budget.
    pub failures: u64,
    /// Individual attempt timeouts (a failed call counts several).
    pub timeouts: u64,
    /// Attempts lost to a lossy link (a subset of `timeouts`: the caller
    /// cannot tell a drop from a dead daemon, only the fault plane can).
    pub drops: u64,
    /// Retries performed.
    pub retries: u64,
    /// Sim-time burned waiting on attempt timeouts.
    pub timeout_wait: SimDuration,
    /// Sim-time burned waiting in retry backoff.
    pub backoff_wait: SimDuration,
}

impl RpcStats {
    /// Records these transport totals into `reg` at `now` as
    /// `faults_rpc_*_total` counters plus the wait-time breakdown
    /// (timeout vs backoff) as gauges (topped up to the running totals,
    /// so repeated recording into the same registry never double-counts).
    pub fn record_telemetry(&self, reg: &mut MetricsRegistry, now: SimTime) {
        for (name, total) in [
            ("faults_rpc_calls_total", self.calls),
            ("faults_rpc_replies_total", self.replies),
            ("faults_rpc_failures_total", self.failures),
            ("faults_rpc_timeouts_total", self.timeouts),
            ("faults_rpc_drops_total", self.drops),
            ("faults_rpc_retries_total", self.retries),
        ] {
            let c = reg.counter(name, &[]);
            c.add(total - c.value());
        }
        reg.gauge("faults_rpc_timeout_wait_seconds", &[])
            .set(now, self.timeout_wait.as_secs_f64());
        reg.gauge("faults_rpc_backoff_wait_seconds", &[])
            .set(now, self.backoff_wait.as_secs_f64());
    }
}

/// One destination's fault state and retry-budget tally. The default is
/// a healthy daemon.
#[derive(Debug, Clone, Copy, Default)]
struct Destination {
    /// The daemon's management API is silent until this instant; a
    /// daemon that never hung holds [`SimTime::ZERO`].
    hung_until: SimTime,
    /// Calls that exhausted their retry budget.
    exhausted: u64,
    /// Hard partition: reachability block count (ToR outage and partial
    /// partition can overlap, so this is a count, not a flag).
    blocked: u32,
    /// Gray fault: attempt-loss probability in permille, 1–1000 (a
    /// degraded access link drops management calls probabilistically);
    /// 0 when no loss is installed.
    loss: u16,
    /// Gray fault: clock permille, 1–999 — a DVFS-clamped node answers
    /// at `rtt × 1000 / permille`; 0 at full clock.
    slow: u16,
    /// The board is down (crashed or unpowered).
    down: bool,
}

impl Destination {
    /// Whether an attempt reaching the daemon at `now` gets a reply
    /// (unless the link drops it).
    fn responsive(&self, now: SimTime) -> bool {
        !self.down && self.blocked == 0 && self.hung_until <= now
    }
}

/// The simulated management transport.
#[derive(Debug, Clone)]
pub struct RpcPlane {
    config: RpcConfig,
    jitter: ChaCha12Rng,
    /// One record per destination, indexed by [`NodeId::index`].
    destinations: Vec<Destination>,
    stats: RpcStats,
}

impl RpcPlane {
    /// Creates a plane with `config` to the daemons of node ids
    /// `0..nodes`, drawing jitter from the factory's `rpc/jitter` stream.
    /// Every fault setter ignores an id outside that range, and a call
    /// to one is answered as a healthy node answers.
    pub fn new(config: RpcConfig, seeds: &SeedFactory, nodes: usize) -> Self {
        assert!(config.max_attempts > 0, "rpc needs at least one attempt");
        RpcPlane {
            config,
            jitter: seeds.stream("rpc/jitter"),
            destinations: vec![Destination::default(); nodes],
            stats: RpcStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RpcConfig {
        &self.config
    }

    /// `node`'s record; a healthy one for an id outside the plane.
    fn destination(&self, node: NodeId) -> Destination {
        self.destinations
            .get(node.index())
            .copied()
            .unwrap_or_default()
    }

    /// Applies `change` to `node`'s record; ignored for an id outside the
    /// plane.
    fn update(&mut self, node: NodeId, change: impl FnOnce(&mut Destination)) {
        if let Some(d) = self.destinations.get_mut(node.index()) {
            change(d);
        }
    }

    /// Marks a node crashed: calls to it will time out. Ignored for an id
    /// outside the plane.
    pub fn node_down(&mut self, node: NodeId) {
        self.update(node, |d| d.down = true);
    }

    /// Marks a crashed node reachable again, ending any daemon hang.
    /// Ignored for an id outside the plane.
    pub fn node_up(&mut self, node: NodeId) {
        self.update(node, |d| {
            d.down = false;
            d.hung_until = SimTime::ZERO;
        });
    }

    /// Wedges a node's daemon until `until` (the later deadline wins when
    /// hangs overlap): the board answers pings but the management API is
    /// silent. Ignored for an id outside the plane.
    pub fn hang_daemon(&mut self, node: NodeId, until: SimTime) {
        self.update(node, |d| d.hung_until = d.hung_until.max(until));
    }

    /// Makes the link to `node` lossy: each attempt is independently
    /// dropped with probability `permille / 1000` (drawn from the jitter
    /// stream, so runs stay bit-reproducible). `0` clears the fault.
    /// Ignored for an id outside the plane.
    pub fn set_loss(&mut self, node: NodeId, permille: u16) {
        self.update(node, |d| d.loss = permille.min(1000));
    }

    /// Heals a lossy link to `node`. Ignored for an id outside the plane.
    pub fn clear_loss(&mut self, node: NodeId) {
        self.update(node, |d| d.loss = 0);
    }

    /// Clamps `node`'s daemon clock to `permille` of nominal: replies
    /// stretch to `rtt × 1000 / permille`. `1000` (or `0`) clears it.
    /// Ignored for an id outside the plane.
    pub fn set_slow(&mut self, node: NodeId, permille: u16) {
        self.update(node, |d| {
            d.slow = if permille >= 1000 { 0 } else { permille }
        });
    }

    /// Restores `node`'s daemon to full clock. Ignored for an id outside
    /// the plane.
    pub fn clear_slow(&mut self, node: NodeId) {
        self.update(node, |d| d.slow = 0);
    }

    /// Severs reachability to `node` (ToR outage, partial partition).
    /// Blocks stack: two overlapping causes need two [`RpcPlane::unblock`]s.
    /// Ignored for an id outside the plane.
    pub fn block(&mut self, node: NodeId) {
        self.update(node, |d| d.blocked += 1);
    }

    /// Releases one reachability block on `node`; a no-op when none is
    /// active or the id is outside the plane.
    pub fn unblock(&mut self, node: NodeId) {
        self.update(node, |d| d.blocked = d.blocked.saturating_sub(1));
    }

    /// Whether any reachability block is active on `node` (never, for an
    /// id outside the plane).
    pub fn is_blocked(&self, node: NodeId) -> bool {
        self.destination(node).blocked > 0
    }

    /// Per-destination counts of calls that exhausted their retry budget:
    /// every destination with a non-zero count, in id order.
    pub fn exhausted_by_node(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.destinations
            .iter()
            .enumerate()
            .filter(|(_, d)| d.exhausted > 0)
            .map(|(index, d)| (NodeId(index as u32), d.exhausted))
    }

    /// Whether a call issued at `now` would get a reply (loss is
    /// probabilistic, so a lossy-but-alive node still counts as
    /// responsive here; so does an id outside the plane).
    pub fn is_responsive(&self, node: NodeId, now: SimTime) -> bool {
        self.destination(node).responsive(now)
    }

    /// Issues one management call to `node` at `now`.
    ///
    /// Returns the sim-time the caller spent on the call: a jittered RTT
    /// on success, or the total of timeouts and backoff waits on failure.
    /// Responsiveness is re-checked before each retry, so a daemon whose
    /// hang expires mid-backoff serves the retry. An id outside the
    /// plane answers as a healthy node does.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] once `max_attempts` attempts have timed out.
    pub fn call(&mut self, node: NodeId, now: SimTime) -> Result<SimDuration, RpcError> {
        self.call_inner(node, now, None)
    }

    /// [`RpcPlane::call`], additionally recording the call as an `rpc`
    /// span under `parent` with one child span per attempt outcome
    /// (`rpc_backoff` / `rpc_timeout` / `rpc_reply`).
    ///
    /// The traced and untraced paths draw jitter identically, so
    /// enabling tracing never perturbs call latencies; with a disabled
    /// `tracer` this *is* the untraced path (no ids, no allocation).
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] once `max_attempts` attempts have timed out.
    pub fn call_traced(
        &mut self,
        node: NodeId,
        now: SimTime,
        tracer: &mut Tracer,
        parent: SpanContext,
    ) -> Result<SimDuration, RpcError> {
        self.call_inner(node, now, Some((tracer, parent)))
    }

    /// Shared body of [`RpcPlane::call`] / [`RpcPlane::call_traced`].
    /// All RNG draws happen identically whether or not `trace` is
    /// present — spans only *observe* the timings.
    fn call_inner(
        &mut self,
        node: NodeId,
        now: SimTime,
        mut trace: Option<(&mut Tracer, SpanContext)>,
    ) -> Result<SimDuration, RpcError> {
        self.stats.calls += 1;
        let span = match &mut trace {
            Some((tracer, parent)) => tracer.span_start(now, "rpc", parent.span(), |e| {
                e.u64("node", u64::from(node.0));
            }),
            None => SpanId::NONE,
        };
        // Nothing changes a destination's faults during a call.
        let dest = self.destination(node);
        let mut waited = SimDuration::ZERO;
        for attempt in 0..self.config.max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                let backoff = self.backoff(attempt);
                if let Some((tracer, _)) = &mut trace {
                    let s = tracer.span_start(now + waited, "rpc_backoff", span, |e| {
                        e.u64("attempt", u64::from(attempt));
                    });
                    tracer.span_end(now + waited + backoff, s, |_| {});
                }
                self.stats.backoff_wait = self.stats.backoff_wait.saturating_add(backoff);
                waited = waited.saturating_add(backoff);
            }
            // Lossy link: the attempt may be eaten in flight. The draw
            // only happens when the fault is installed, so healthy-path
            // jitter sequences are untouched by this feature.
            let dropped = dest.loss > 0 && self.jitter.gen_range(0..1000u16) < dest.loss;
            if !dropped && dest.responsive(now + waited) {
                // Reply: RTT with up to 25% deterministic jitter, stretched
                // if the destination's clock is DVFS-clamped.
                let jitter = self.jitter.gen_range(0.0..0.25);
                self.stats.replies += 1;
                let rtt = match dest.slow {
                    0 => self.config.rtt,
                    permille => self.config.rtt.mul_f64(1000.0 / f64::from(permille)),
                };
                let total = waited.saturating_add(rtt.mul_f64(1.0 + jitter));
                if let Some((tracer, _)) = &mut trace {
                    let s = tracer.span_start(now + waited, "rpc_reply", span, |e| {
                        e.u64("attempt", u64::from(attempt + 1));
                    });
                    tracer.span_end(now + total, s, |_| {});
                    tracer.span_end(now + total, span, |e| {
                        e.bool("ok", true);
                    });
                }
                return Ok(total);
            }
            self.stats.timeouts += 1;
            if dropped {
                self.stats.drops += 1;
            }
            if let Some((tracer, _)) = &mut trace {
                let s = tracer.span_start(now + waited, "rpc_timeout", span, |e| {
                    e.u64("attempt", u64::from(attempt + 1));
                });
                tracer.span_end(now + waited + self.config.timeout, s, |_| {});
            }
            self.stats.timeout_wait = self.stats.timeout_wait.saturating_add(self.config.timeout);
            waited = waited.saturating_add(self.config.timeout);
        }
        self.stats.failures += 1;
        self.update(node, |d| d.exhausted += 1);
        if let Some((tracer, _)) = &mut trace {
            tracer.span_end(now + waited, span, |e| {
                e.bool("ok", false);
            });
        }
        Err(RpcError::Timeout {
            attempts: self.config.max_attempts,
            waited,
        })
    }

    /// Exponential backoff before retry `attempt` (1-based), with
    /// deterministic jitter in `[0.5, 1.0)` of the nominal value.
    fn backoff(&mut self, attempt: u32) -> SimDuration {
        let nominal = self
            .config
            .backoff_base
            .mul_f64(f64::from(1u32 << attempt.min(16).saturating_sub(1)))
            .min(self.config.backoff_cap);
        let scale = self.jitter.gen_range(0.5..1.0);
        nominal.mul_f64(scale)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> RpcStats {
        self.stats
    }

    /// Records the plane's totals into `reg` at `now`: the aggregate
    /// [`RpcStats`] series plus one
    /// `rpc_retry_budget_exhausted_total{node=…}` counter per destination
    /// that has ever exhausted its budget. Topped up to running totals,
    /// so repeated recording never double-counts.
    pub fn record_telemetry(&self, reg: &mut MetricsRegistry, now: SimTime) {
        self.stats.record_telemetry(reg, now);
        for (node, total) in self.exhausted_by_node() {
            let label = node.0.to_string();
            let c = reg.counter("rpc_retry_budget_exhausted_total", &[("node", &label)]);
            c.add(total - c.value());
        }
    }
}

impl fmt::Display for RpcPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rpc: {} calls, {} replies, {} failures ({} timeouts, {} retries)",
            self.stats.calls,
            self.stats.replies,
            self.stats.failures,
            self.stats.timeouts,
            self.stats.retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(seed: u64) -> RpcPlane {
        RpcPlane::new(RpcConfig::lan_default(), &SeedFactory::new(seed), 8)
    }

    #[test]
    fn healthy_call_costs_about_one_rtt() {
        let mut p = plane(1);
        let latency = p.call(NodeId(0), SimTime::ZERO).unwrap();
        let rtt = RpcConfig::lan_default().rtt;
        assert!(latency >= rtt && latency <= rtt.mul_f64(1.25), "{latency}");
        assert_eq!(p.stats().replies, 1);
        assert_eq!(p.stats().timeouts, 0);
    }

    #[test]
    fn dead_node_times_out_with_backoff() {
        let mut p = plane(2);
        p.node_down(NodeId(3));
        let err = p.call(NodeId(3), SimTime::ZERO).unwrap_err();
        let RpcError::Timeout { attempts, waited } = err;
        assert_eq!(attempts, 2);
        // 2 timeouts plus one jittered backoff in [25, 50] ms.
        let cfg = RpcConfig::lan_default();
        let floor = cfg.timeout * 2 + cfg.backoff_base.mul_f64(0.5);
        let ceil = cfg.timeout * 2 + cfg.backoff_base;
        assert!(waited >= floor && waited <= ceil, "{waited}");
        assert_eq!(p.stats().failures, 1);
        assert_eq!(p.stats().timeouts, 2);
        assert_eq!(p.stats().retries, 1);
    }

    #[test]
    fn repaired_node_answers_again() {
        let mut p = plane(3);
        p.node_down(NodeId(0));
        assert!(p.call(NodeId(0), SimTime::ZERO).is_err());
        p.node_up(NodeId(0));
        assert!(p.call(NodeId(0), SimTime::from_secs(1)).is_ok());
    }

    #[test]
    fn hang_expires_mid_backoff_and_the_retry_lands() {
        // Hang that ends 10 ms after the call starts: the first attempt
        // times out (150 ms), and by the retry the daemon is back.
        let mut p = plane(4);
        p.hang_daemon(NodeId(1), SimTime::from_nanos(10_000_000));
        let latency = p.call(NodeId(1), SimTime::ZERO).unwrap();
        assert!(latency > RpcConfig::lan_default().timeout, "{latency}");
        assert_eq!(p.stats().timeouts, 1);
        assert_eq!(p.stats().replies, 1);
    }

    #[test]
    fn overlapping_hangs_keep_the_later_deadline() {
        let mut p = plane(5);
        p.hang_daemon(NodeId(0), SimTime::from_secs(10));
        p.hang_daemon(NodeId(0), SimTime::from_secs(4));
        assert!(!p.is_responsive(NodeId(0), SimTime::from_secs(9)));
        assert!(p.is_responsive(NodeId(0), SimTime::from_secs(10)));
    }

    #[test]
    fn traced_call_matches_untraced_and_records_attempt_spans() {
        use picloud_simcore::SpanForest;

        // Same seed, same call sequence: latencies must be bit-identical
        // whether or not spans are recorded.
        let mut plain = plane(6);
        let mut traced = plane(6);
        plain.node_down(NodeId(3));
        traced.node_down(NodeId(3));
        let mut tracer = Tracer::unbounded();

        let a = plain.call(NodeId(0), SimTime::ZERO).unwrap();
        let b = traced
            .call_traced(NodeId(0), SimTime::ZERO, &mut tracer, SpanContext::NONE)
            .unwrap();
        assert_eq!(a, b);
        let ea = plain.call(NodeId(3), SimTime::from_secs(1)).unwrap_err();
        let eb = traced
            .call_traced(
                NodeId(3),
                SimTime::from_secs(1),
                &mut tracer,
                SpanContext::NONE,
            )
            .unwrap_err();
        assert_eq!(ea, eb);

        let forest = SpanForest::from_tracer(&tracer);
        let roots: Vec<_> = forest.roots_named("rpc").collect();
        assert_eq!(roots.len(), 2);
        let child_names = |id| {
            forest
                .children(id)
                .iter()
                .map(|&c| forest.get(c).unwrap().name.as_str())
                .collect::<Vec<_>>()
        };
        // Healthy call: one rpc_reply child, duration == the latency.
        assert_eq!(roots[0].duration(), a);
        assert_eq!(child_names(roots[0].id), ["rpc_reply"]);
        // Dead call: timeout, backoff, timeout — and the waited total.
        let RpcError::Timeout { waited, .. } = ea;
        assert_eq!(roots[1].duration(), waited);
        assert_eq!(
            child_names(roots[1].id),
            ["rpc_timeout", "rpc_backoff", "rpc_timeout"]
        );
    }

    #[test]
    fn disabled_tracer_traced_call_is_untraced() {
        let mut plain = plane(7);
        let mut traced = plane(7);
        let mut off = Tracer::disabled();
        for i in 0..8 {
            let a = plain.call(NodeId(0), SimTime::from_secs(i)).unwrap();
            let b = traced
                .call_traced(
                    NodeId(0),
                    SimTime::from_secs(i),
                    &mut off,
                    SpanContext::NONE,
                )
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(off.emitted(), 0);
    }

    #[test]
    fn fully_lossy_link_exhausts_the_budget_and_counts_drops() {
        let mut p = plane(11);
        p.set_loss(NodeId(2), 1000);
        assert!(
            p.is_responsive(NodeId(2), SimTime::ZERO),
            "alive, just lossy"
        );
        assert!(p.call(NodeId(2), SimTime::ZERO).is_err());
        assert_eq!(p.stats().drops, 2);
        assert_eq!(p.stats().timeouts, 2);
        assert_eq!(p.exhausted_by_node().collect::<Vec<_>>(), [(NodeId(2), 1)]);
        p.clear_loss(NodeId(2));
        assert!(p.call(NodeId(2), SimTime::from_secs(1)).is_ok());
    }

    #[test]
    fn partially_lossy_link_eventually_gets_through() {
        let mut p = plane(12);
        p.set_loss(NodeId(0), 300);
        let mut replies = 0;
        for i in 0..64 {
            if p.call(NodeId(0), SimTime::from_secs(i)).is_ok() {
                replies += 1;
            }
        }
        let s = p.stats();
        assert!(replies > 32, "most calls land: {replies}");
        assert!(s.drops > 0, "some attempts dropped");
        assert_eq!(s.drops, s.timeouts, "all timeouts here are drops");
    }

    #[test]
    fn slow_node_stretches_the_reply() {
        let mut fast = plane(13);
        let mut slow = plane(13);
        slow.set_slow(NodeId(0), 500);
        let a = fast.call(NodeId(0), SimTime::ZERO).unwrap();
        let b = slow.call(NodeId(0), SimTime::ZERO).unwrap();
        // Same jitter draw, rtt doubled at 500‰.
        assert!(b > a.mul_f64(1.9) && b < a.mul_f64(2.1), "{a} vs {b}");
        slow.clear_slow(NodeId(0));
        let c = slow.call(NodeId(0), SimTime::from_secs(1)).unwrap();
        let d = fast.call(NodeId(0), SimTime::from_secs(1)).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn reachability_blocks_stack() {
        let mut p = plane(14);
        p.block(NodeId(5)); // ToR down
        p.block(NodeId(5)); // and a partition over the same rack
        assert!(!p.is_responsive(NodeId(5), SimTime::ZERO));
        p.unblock(NodeId(5));
        assert!(!p.is_responsive(NodeId(5), SimTime::ZERO), "one cause left");
        assert!(p.is_blocked(NodeId(5)));
        p.unblock(NodeId(5));
        assert!(p.is_responsive(NodeId(5), SimTime::ZERO));
        assert!(!p.is_blocked(NodeId(5)));
    }

    #[test]
    fn wait_breakdown_splits_timeout_from_backoff() {
        let mut p = plane(15);
        p.node_down(NodeId(1));
        let RpcError::Timeout { waited, .. } = p.call(NodeId(1), SimTime::ZERO).unwrap_err();
        let s = p.stats();
        let cfg = RpcConfig::lan_default();
        assert_eq!(s.timeout_wait, cfg.timeout * 2);
        assert!(s.backoff_wait >= cfg.backoff_base.mul_f64(0.5));
        assert!(s.backoff_wait <= cfg.backoff_base);
        assert_eq!(s.timeout_wait + s.backoff_wait, waited);
    }

    #[test]
    fn exhaustion_telemetry_is_per_destination_and_idempotent() {
        let mut p = plane(16);
        p.node_down(NodeId(3));
        p.node_down(NodeId(7));
        let _ = p.call(NodeId(3), SimTime::ZERO);
        let _ = p.call(NodeId(3), SimTime::from_secs(1));
        let _ = p.call(NodeId(7), SimTime::from_secs(2));
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        let now = SimTime::from_secs(3);
        p.record_telemetry(&mut reg, now);
        p.record_telemetry(&mut reg, now); // top-up: no double count
        assert_eq!(
            reg.counter("rpc_retry_budget_exhausted_total", &[("node", "3")])
                .value(),
            2
        );
        assert_eq!(
            reg.counter("rpc_retry_budget_exhausted_total", &[("node", "7")])
                .value(),
            1
        );
        assert_eq!(reg.counter("faults_rpc_failures_total", &[]).value(), 3);
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut p = plane(seed);
            (0..32)
                .map(|i| p.call(NodeId(0), SimTime::from_secs(i)).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
