//! Deterministic discrete-event simulation core for the PiCloud scale model.
//!
//! This crate provides the substrate every other PiCloud crate is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock.
//! * [`Engine`] — a discrete-event engine generic over a user-supplied world
//!   state, with a strict deterministic ordering guarantee: events fire in
//!   `(time, sequence)` order, so two runs with the same seed are
//!   bit-identical.
//! * [`SeedFactory`] — labelled, reproducible [`rand_chacha::ChaCha12Rng`]
//!   streams so that adding a new consumer of randomness never perturbs
//!   existing streams.
//! * [`metrics`] — time-weighted gauges, counters and histograms used by all
//!   experiment harnesses.
//! * [`telemetry`] — the cluster-wide observability layer: a labeled
//!   [`MetricsRegistry`], a ring-buffered sim-time [`Tracer`], and
//!   byte-deterministic JSONL/CSV/Prometheus exporters (see
//!   `OBSERVABILITY.md` at the repository root).
//! * [`spans`] — causal span tracing layered on the [`Tracer`]: parented
//!   `span_start` / `span_end` events, [`SpanForest`] reconstruction, and
//!   critical-path extraction with per-span blame attribution.
//! * [`units`] — newtypes for bytes, bandwidth, power, cost and frequency
//!   shared across the hardware and network models.
//! * [`EDist`] — sorted empirical distributions (interpolated quantiles,
//!   deterministic inverse-CDF draws) backing the network fabric's
//!   estimation mode.
//!
//! # Example
//!
//! ```
//! use picloud_simcore::{Engine, SimDuration, SimTime};
//!
//! struct World { ticks: u32 }
//!
//! let mut engine = Engine::new(World { ticks: 0 });
//! engine.schedule_in(SimDuration::from_millis(5), |world: &mut World, ctx| {
//!     world.ticks += 1;
//!     // Events may schedule follow-up events through the context.
//!     ctx.schedule_in(SimDuration::from_millis(5), |world: &mut World, _| {
//!         world.ticks += 1;
//!     });
//! });
//! engine.run();
//! assert_eq!(engine.world().ticks, 2);
//! assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_millis(10));
//! ```

#![warn(missing_docs)]

pub mod edist;
pub mod engine;
pub mod metrics;
pub mod rng;
pub mod spans;
pub mod telemetry;
pub mod time;
pub mod units;

pub use edist::EDist;
pub use engine::{Engine, EventContext, EventId};
pub use metrics::{Counter, Histogram, HistogramSummary, TimeWeightedGauge};
pub use rng::SeedFactory;
pub use spans::{CriticalPath, PathStep, SpanContext, SpanForest, SpanId, SpanRecord};
pub use telemetry::{MetricsRegistry, MetricsSnapshot, TelemetrySink, TraceEvent, Tracer};
pub use time::{SimDuration, SimTime};
