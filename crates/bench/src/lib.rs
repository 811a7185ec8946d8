//! The PiCloud benchmark harness.
//!
//! Every bench target is a plain `fn main()` over [`report`]: it times
//! with [`report::fastest_ns`] (or its per-call form), collects rows in a
//! [`report::Report`] and writes them with [`report::Report::write`]. The
//! `experiments` target times every entry of the experiment registry
//! (`picloud::experiments::REGISTRY`) at the paper seed; the others time
//! hot paths of the emulator itself — flow solver, estimator, telemetry
//! and chaos harness. Each writes `BENCH_<bench>.json` at the repository
//! root. Targets that gate allocation counts install [`allocs::Counting`]
//! as their global allocator.

pub mod allocs;
pub mod report;
