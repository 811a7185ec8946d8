//! Discrete-event web-server simulation.
//!
//! [`crate::httpd`] gives closed-form capacity and M/M/1 latency estimates
//! — good for placement scoring, blind to queue dynamics. This module runs
//! the real thing on the event engine: Poisson arrivals, a FIFO run queue
//! with a bounded backlog (beyond it the server sheds load, as lighttpd's
//! listen backlog does), deterministic per-request service on one ARM
//! core. The result is an M/D/1 queue whose simulated latencies validate —
//! and refine — the analytic estimates the schedulers use.

use crate::httpd::{HttpRequest, HttpServerSpec};
use picloud_simcore::engine::{Engine, EventContext};
use picloud_simcore::telemetry::TelemetrySink;
use picloud_simcore::units::Frequency;
use picloud_simcore::{Histogram, SeedFactory, SimDuration, SimTime, TimeWeightedGauge};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::collections::VecDeque;
use std::fmt;

/// Configuration of one simulated server.
#[derive(Debug, Clone, PartialEq)]
pub struct WebSimConfig {
    /// Server software model.
    pub server: HttpServerSpec,
    /// Request class served.
    pub request: HttpRequest,
    /// CPU clock of the serving core.
    pub clock: Frequency,
    /// Mean request arrival rate (Poisson), req/s.
    pub arrival_rps: f64,
    /// Maximum queued requests before load shedding.
    pub backlog: usize,
}

impl WebSimConfig {
    /// A lighttpd static-page server on a Pi core.
    pub fn pi_static(arrival_rps: f64) -> Self {
        WebSimConfig {
            server: HttpServerSpec::lighttpd(),
            request: HttpRequest::static_page(),
            clock: Frequency::mhz(700),
            arrival_rps,
            backlog: 128,
        }
    }

    /// Offered load as a fraction of capacity (ρ).
    pub fn rho(&self) -> f64 {
        let mu = self
            .server
            .max_throughput_rps(self.clock.as_hz() as f64, &self.request);
        if mu <= 0.0 {
            f64::INFINITY
        } else {
            self.arrival_rps / mu
        }
    }
}

/// What the simulation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WebSimReport {
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed (backlog full).
    pub shed: u64,
    /// Response latency (queue + service), seconds.
    pub latency: Histogram,
    /// Time-weighted mean CPU utilisation.
    pub mean_utilisation: f64,
    /// Simulated duration.
    pub duration: SimDuration,
}

impl WebSimReport {
    /// Achieved goodput, req/s.
    pub fn goodput_rps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.served as f64 / secs
        }
    }

    /// Fraction of arrivals shed.
    pub fn shed_ratio(&self) -> f64 {
        let total = self.served + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

impl fmt::Display for WebSimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} served ({:.1} req/s), {:.1}% shed, mean latency {:.2} ms, p99 {:.2} ms, cpu {:.0}%",
            self.served,
            self.goodput_rps(),
            self.shed_ratio() * 100.0,
            self.latency.mean().unwrap_or(0.0) * 1e3,
            self.latency.quantile(0.99).unwrap_or(0.0) * 1e3,
            self.mean_utilisation * 100.0
        )
    }
}

struct World {
    queue: VecDeque<SimTime>,
    busy: bool,
    service: SimDuration,
    backlog: usize,
    served: u64,
    shed: u64,
    latency: Histogram,
    util: TimeWeightedGauge,
    arrivals_left: u64,
    rng: ChaCha12Rng,
    mean_interarrival: f64,
    /// Observation plane; [`TelemetrySink::disabled`] for plain runs. The
    /// report is identical either way — recording only reads world state.
    telem: TelemetrySink,
}

impl World {
    /// Mirrors queue depth and CPU state into the registry so the scrape
    /// loop has live series to sample.
    fn record_state(&mut self, now: SimTime) {
        if !self.telem.is_enabled() {
            return;
        }
        self.telem
            .registry
            .gauge("websim_queue_depth", &[])
            .set(now, self.queue.len() as f64);
        self.telem
            .registry
            .gauge("websim_utilisation", &[])
            .set(now, f64::from(u8::from(self.busy)));
    }
}

/// The periodic scrape tick: samples the registry and re-arms while the
/// simulation still has work. Pure observation — it never touches queue
/// state, so the report is byte-identical with or without it.
fn scrape_tick(w: &mut World, ctx: &mut EventContext<World>) {
    let now = ctx.now();
    w.telem.scrape_now(now);
    if w.arrivals_left > 0 || !w.queue.is_empty() || w.busy {
        if let Some(db) = w.telem.tsdb() {
            ctx.schedule_in(db.interval(), scrape_tick);
        }
    }
}

fn arrive(w: &mut World, ctx: &mut EventContext<World>) {
    let now = ctx.now();
    loop {
        // Admit or shed.
        if w.queue.len() >= w.backlog {
            w.shed += 1;
            if w.telem.is_enabled() {
                w.telem
                    .registry
                    .counter("websim_shed_total", &[])
                    .increment();
            }
        } else {
            w.queue.push_back(now);
            if w.telem.is_enabled() {
                w.telem
                    .registry
                    .counter("websim_requests_total", &[])
                    .increment();
                w.record_state(now);
            }
            if !w.busy {
                start_service(w, ctx);
            }
        }
        // Schedule the next arrival. High offered loads draw exponential
        // gaps that round below one nanosecond; those arrivals land at
        // this same instant, so handle them inline instead of paying one
        // engine event each (event coalescing). Nothing else can fire in
        // between — service completions are strictly in the future — so
        // the observable order is identical.
        if w.arrivals_left == 0 {
            break;
        }
        w.arrivals_left -= 1;
        let u: f64 = w.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let gap = SimDuration::from_secs_f64(-u.ln() * w.mean_interarrival);
        if gap > SimDuration::ZERO {
            ctx.schedule_in(gap, arrive);
            break;
        }
    }
}

fn start_service(w: &mut World, ctx: &mut EventContext<World>) {
    debug_assert!(!w.busy);
    if w.queue.front().is_some() {
        w.busy = true;
        w.util.set(ctx.now(), 1.0);
        w.record_state(ctx.now());
        ctx.schedule_in(w.service, finish_service);
    }
}

fn finish_service(w: &mut World, ctx: &mut EventContext<World>) {
    #[expect(
        clippy::expect_used,
        reason = "finish_service only fires for a request previously queued by start_service"
    )]
    let started = w.queue.pop_front().expect("a request was in service");
    w.served += 1;
    let wait = ctx.now().duration_since(started).as_secs_f64();
    w.latency.observe(wait);
    if w.telem.is_enabled() {
        w.telem
            .registry
            .counter("websim_served_total", &[])
            .increment();
        w.telem
            .registry
            .histogram("websim_latency_seconds", &[])
            .observe(wait);
    }
    w.busy = false;
    w.util.set(ctx.now(), 0.0);
    w.record_state(ctx.now());
    start_service(w, ctx);
}

/// Runs the simulation for `n_requests` arrivals.
///
/// # Panics
///
/// Panics if the config's arrival rate is not positive.
pub fn simulate(config: &WebSimConfig, n_requests: u64, seeds: &SeedFactory) -> WebSimReport {
    simulate_with_telemetry(config, n_requests, seeds, TelemetrySink::disabled()).0
}

/// Like [`simulate`], but records into `sink` as it goes: live
/// `websim_queue_depth` / `websim_utilisation` gauges,
/// `websim_requests_total` / `websim_served_total` / `websim_shed_total`
/// counters and a `websim_latency_seconds` histogram. When the sink
/// carries a tsdb, a periodic scrape tick samples them on its grid,
/// giving the httpd workload a live time axis. The report is identical to
/// the unobserved run's — observation only reads the world.
///
/// # Panics
///
/// Panics if the config's arrival rate is not positive.
pub fn simulate_with_telemetry(
    config: &WebSimConfig,
    n_requests: u64,
    seeds: &SeedFactory,
    sink: TelemetrySink,
) -> (WebSimReport, TelemetrySink) {
    assert!(
        config.arrival_rps.is_finite() && config.arrival_rps > 0.0,
        "arrival rate must be positive"
    );
    let cycles = config.server.cycles_per_request(&config.request);
    let service = config.clock.time_for(cycles);
    let scraping = sink.tsdb().is_some();
    let mut world = World {
        queue: VecDeque::new(),
        busy: false,
        service,
        backlog: config.backlog,
        served: 0,
        shed: 0,
        latency: Histogram::new(),
        util: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
        arrivals_left: n_requests.saturating_sub(1),
        rng: seeds.stream("websim/arrivals"),
        mean_interarrival: 1.0 / config.arrival_rps,
        telem: sink,
    };
    world.record_state(SimTime::ZERO);
    let mut engine = Engine::new(world);
    engine.schedule_at(SimTime::ZERO, arrive);
    if scraping {
        engine.schedule_at(SimTime::ZERO, scrape_tick);
    }
    engine.run();
    let end = engine.now();
    let mut world = engine.into_world();
    // Boundary scrape: the end-of-run sample anchors full-window queries.
    world.telem.scrape_now(end);
    let report = WebSimReport {
        served: world.served,
        shed: world.shed,
        latency: world.latency,
        mean_utilisation: world.util.mean(end),
        duration: end.duration_since(SimTime::ZERO),
    };
    (report, world.telem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rps: f64, n: u64) -> WebSimReport {
        simulate(&WebSimConfig::pi_static(rps), n, &SeedFactory::new(42))
    }

    #[test]
    fn light_load_has_near_service_latency() {
        // ρ ≈ 0.14: almost no queueing; latency ≈ service time (2.86 ms).
        let r = run(50.0, 5_000);
        let service = 2e6 / 700e6;
        let mean = r.latency.mean().unwrap();
        assert!(mean < service * 1.3, "mean {mean} vs service {service}");
        assert_eq!(r.shed, 0);
        assert!(
            (r.mean_utilisation - 0.143).abs() < 0.02,
            "{}",
            r.mean_utilisation
        );
    }

    #[test]
    fn matches_md1_waiting_time_at_moderate_load() {
        // M/D/1: W = s + ρs / (2(1-ρ)). At ρ=0.7, W = s(1 + 1.1667).
        let capacity = 350.0;
        let rho = 0.7;
        let r = run(capacity * rho, 60_000);
        let s = 2e6 / 700e6;
        let analytic = s * (1.0 + rho / (2.0 * (1.0 - rho)));
        let measured = r.latency.mean().unwrap();
        assert!(
            (measured - analytic).abs() / analytic < 0.1,
            "measured {measured:.5} vs M/D/1 {analytic:.5}"
        );
    }

    #[test]
    fn overload_sheds_and_saturates() {
        // ρ = 1.4: the server must shed ~28% and run at 100%.
        let r = run(490.0, 30_000);
        assert!(r.shed_ratio() > 0.2, "shed {}", r.shed_ratio());
        assert!(r.mean_utilisation > 0.97, "{}", r.mean_utilisation);
        // Goodput caps at capacity.
        assert!(r.goodput_rps() < 360.0, "{}", r.goodput_rps());
        // Latency is bounded by the backlog, not unbounded.
        let max = r.latency.max().unwrap();
        let bound = 129.0 * (2e6 / 700e6);
        assert!(max <= bound * 1.05, "max {max} vs bound {bound}");
    }

    #[test]
    fn latency_grows_with_load() {
        let lo = run(100.0, 20_000).latency.mean().unwrap();
        let mid = run(250.0, 20_000).latency.mean().unwrap();
        let hi = run(330.0, 20_000).latency.mean().unwrap();
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(200.0, 5_000);
        let b = run(200.0, 5_000);
        assert_eq!(a, b);
        let c = simulate(
            &WebSimConfig::pi_static(200.0),
            5_000,
            &SeedFactory::new(43),
        );
        assert_ne!(a.latency, c.latency);
    }

    #[test]
    fn x86_clock_slashes_latency() {
        let pi = run(300.0, 10_000);
        let mut cfg = WebSimConfig::pi_static(300.0);
        cfg.clock = Frequency::ghz(3);
        let x86 = simulate(&cfg, 10_000, &SeedFactory::new(42));
        assert!(
            x86.latency.mean().unwrap() < pi.latency.mean().unwrap() / 3.0,
            "scale-model magnitude gap"
        );
    }

    #[test]
    fn report_display() {
        let r = run(100.0, 2_000);
        let s = r.to_string();
        assert!(s.contains("served"));
        assert!(s.contains("p99"));
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn zero_rate_rejected() {
        let _ = run(0.0, 10);
    }
}
