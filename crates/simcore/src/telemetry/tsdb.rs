//! An in-memory, delta-encoded time-series database fed by a sim-clock
//! scrape loop.
//!
//! The whole-run [`MetricsSnapshot`](super::MetricsSnapshot) collapses a
//! 90-minute churn run to one number per series, so a transient brownout
//! that burns half the error budget in five minutes is invisible if the
//! run-average recovers. This module is the windowed signal plane that the
//! paper's live `pimaster` panel (Fig. 4) implies and the multi-window
//! burn-rate alerts of [`super::slo`] require:
//!
//! * [`TimeSeriesDb`] — periodic samples of every series in a
//!   [`MetricsRegistry`], stored as delta-encoded byte streams (LEB128
//!   varint time deltas; zigzag varint deltas for integers; XOR-with-
//!   previous bit patterns for floats). Unchanged samples cost ~2 bytes.
//! * [`QueryFn`] — a deterministic query layer: `rate()`, `increase()`,
//!   `avg_over_time`, `max_over_time`, `min_over_time` and windowed
//!   quantiles, evaluated at sample-aligned instants.
//!
//! # Exactness
//!
//! Scraping stores each gauge's running *integral* (value × seconds)
//! alongside its instantaneous value. `avg_over_time` divides an integral
//! difference by the elapsed time between the window's boundary samples,
//! which makes it **bitwise identical** to the snapshot's time-weighted
//! `mean` when the window spans the whole run — the float expressions are
//! the same. Likewise `increase` over a full-run window reproduces a
//! counter's snapshot `total` exactly. `tests/tsdb.rs` pins both
//! identities with property tests.
//!
//! # Determinism
//!
//! Everything here is a pure function of the scrape sequence: queries and
//! listings walk the stored series in key order, the order the registry
//! iterates in, and there is no wall clock and no ambient randomness. Two
//! same-seed runs produce byte-identical query and alert output.
//!
//! # Example
//!
//! ```
//! use picloud_simcore::telemetry::tsdb::{QueryFn, ScrapeConfig, TimeSeriesDb};
//! use picloud_simcore::telemetry::MetricsRegistry;
//! use picloud_simcore::{SimDuration, SimTime};
//!
//! let mut reg = MetricsRegistry::new(SimTime::ZERO);
//! let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
//! for s in 0..=60u64 {
//!     reg.counter("req_total", &[]).add(2);
//!     db.record(&reg, SimTime::from_secs(s));
//! }
//! let keys = db.series_matching("req_total", &[]);
//! let v = db
//!     .eval_at(
//!         &keys[0],
//!         QueryFn::Increase,
//!         SimDuration::from_secs(30),
//!         SimTime::from_secs(60),
//!     )
//!     .unwrap();
//! // The window base is the last sample *strictly before* t=30 (t=29,
//! // value 60), so the increase covers the 31 scrapes at t=30..=60.
//! assert_eq!(v, 62.0);
//! ```

use super::{MetricsRegistry, SeriesKey, Store};
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::fmt;

/// How often the scrape loop samples the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrapeConfig {
    /// Sim-time distance between scheduled scrapes.
    pub interval: SimDuration,
}

impl ScrapeConfig {
    /// The default scrape cadence: every 15 simulated seconds — Prometheus'
    /// default, which the sim can afford exactly because scraping costs no
    /// simulated time.
    pub const DEFAULT_INTERVAL: SimDuration = SimDuration::from_secs(15);

    /// A config scraping every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn every(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "scrape interval must be positive");
        ScrapeConfig { interval }
    }
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            interval: ScrapeConfig::DEFAULT_INTERVAL,
        }
    }
}

/// Which sampled facet of a series a stream stores.
///
/// One registry series fans out into one or two streams: counters store
/// their running `Total`; gauges store the instantaneous `Value` *and* the
/// running time `Integral` (the latter is what makes `avg_over_time`
/// exact); histograms store their observation `Count` and `Sum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SampleField {
    /// Counter running total (integer stream).
    Total,
    /// Gauge instantaneous value (float stream).
    Value,
    /// Gauge running integral, value × seconds (float stream).
    Integral,
    /// Histogram observation count (integer stream).
    Count,
    /// Histogram observation sum (float stream).
    Sum,
}

impl SampleField {
    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SampleField::Total => "total",
            SampleField::Value => "value",
            SampleField::Integral => "integral",
            SampleField::Count => "count",
            SampleField::Sum => "sum",
        }
    }

    /// The series kind that stores this field, and the field's index
    /// among that kind's streams ([`SeriesKind::fields`]).
    fn slot(self) -> (SeriesKind, usize) {
        match self {
            SampleField::Total => (SeriesKind::Counter, 0),
            SampleField::Value => (SeriesKind::Gauge, 0),
            SampleField::Integral => (SeriesKind::Gauge, 1),
            SampleField::Count => (SeriesKind::Histogram, 0),
            SampleField::Sum => (SeriesKind::Histogram, 1),
        }
    }

    /// How the field's payloads are encoded.
    fn sample_kind(self) -> SampleKind {
        match self {
            SampleField::Total | SampleField::Count => SampleKind::U64,
            SampleField::Value | SampleField::Integral | SampleField::Sum => SampleKind::F64,
        }
    }
}

/// Which registry store a stored series was scraped from. Declared in the
/// order of each kind's first field (`Total` < `Value` < `Count`), so the
/// store's `(key, kind)` order is the `(key, field)` order of its streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SeriesKind {
    /// Stores `Total`.
    Counter,
    /// Stores `Value` and `Integral`.
    Gauge,
    /// Stores `Count` and `Sum`.
    Histogram,
}

impl SeriesKind {
    /// The fields a series of this kind stores, in stream order.
    fn fields(self) -> &'static [SampleField] {
        match self {
            SeriesKind::Counter => &[SampleField::Total],
            SeriesKind::Gauge => &[SampleField::Value, SampleField::Integral],
            SeriesKind::Histogram => &[SampleField::Count, SampleField::Sum],
        }
    }
}

/// How a stream's 64-bit payloads are interpreted and delta-encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SampleKind {
    /// Payload is a `u64`; deltas are zigzag-varint encoded.
    U64,
    /// Payload is `f64` bits; deltas are XOR-with-previous, varint encoded.
    F64,
}

impl SampleKind {
    /// A payload as the float the query functions compute with.
    fn as_f64(self, bits: u64) -> f64 {
        match self {
            SampleKind::U64 => bits as f64,
            SampleKind::F64 => f64::from_bits(bits),
        }
    }
}

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit =
/// continuation).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `data` starting at `*pos`, advancing it.
/// Returns `None` on truncated input (indicates stream corruption).
fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign
/// varint-encode into few bytes.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One series facet's sample history, delta-encoded.
///
/// Layout per sample: `varint(t_ns - prev_t_ns)` followed by the payload
/// delta — `varint(zigzag(v - prev))` for integer streams,
/// `varint(bits ^ prev_bits)` for float streams. Both `prev` registers
/// start at zero.
#[derive(Debug, Clone, PartialEq)]
struct Stream {
    kind: SampleKind,
    len: u32,
    prev_t: u64,
    prev_bits: u64,
    data: Vec<u8>,
    /// Undo register for the most recent push: byte offset where its
    /// encoding starts plus the `prev` registers it replaced. One level is
    /// enough — amendment only ever rewrites the final sample.
    undo_start: usize,
    undo_prev_t: u64,
    undo_prev_bits: u64,
}

impl Stream {
    fn new(kind: SampleKind) -> Self {
        Stream {
            kind,
            len: 0,
            prev_t: 0,
            prev_bits: 0,
            data: Vec::new(),
            undo_start: 0,
            undo_prev_t: 0,
            undo_prev_bits: 0,
        }
    }

    /// Appends a sample; `bits` is the raw 64-bit payload.
    fn push(&mut self, t_ns: u64, bits: u64) {
        self.undo_start = self.data.len();
        self.undo_prev_t = self.prev_t;
        self.undo_prev_bits = self.prev_bits;
        put_varint(&mut self.data, t_ns.wrapping_sub(self.prev_t));
        match self.kind {
            SampleKind::U64 => put_varint(
                &mut self.data,
                zigzag(bits.wrapping_sub(self.prev_bits) as i64),
            ),
            SampleKind::F64 => put_varint(&mut self.data, bits ^ self.prev_bits),
        }
        self.prev_t = t_ns;
        self.prev_bits = bits;
        self.len += 1;
    }

    /// Records a sample at `t_ns`, amending the final sample in place when
    /// the stream already ends at that instant. A boundary scrape (run
    /// end) can land on the same tick as a periodic grid scrape after more
    /// recording happened in between; the later observation must win or
    /// the exactness identity breaks. Returns whether a new sample was
    /// appended (amendment keeps the count unchanged).
    fn record_at(&mut self, t_ns: u64, bits: u64) -> bool {
        if self.len > 0 && self.prev_t == t_ns {
            if self.prev_bits != bits {
                self.data.truncate(self.undo_start);
                self.prev_t = self.undo_prev_t;
                self.prev_bits = self.undo_prev_bits;
                self.len -= 1;
                self.push(t_ns, bits);
            }
            return false;
        }
        self.push(t_ns, bits);
        true
    }

    /// Decodes every sample as `(t_ns, payload bits)`, oldest first.
    fn decode(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len as usize);
        let mut pos = 0usize;
        let mut t: u64 = 0;
        let mut bits: u64 = 0;
        for _ in 0..self.len {
            let Some(dt) = get_varint(&self.data, &mut pos) else {
                debug_assert!(false, "truncated stream");
                return out;
            };
            let Some(dv) = get_varint(&self.data, &mut pos) else {
                debug_assert!(false, "truncated stream");
                return out;
            };
            t = t.wrapping_add(dt);
            bits = match self.kind {
                SampleKind::U64 => bits.wrapping_add(unzigzag(dv) as u64),
                SampleKind::F64 => bits ^ dv,
            };
            out.push((t, bits));
        }
        out
    }
}

/// A windowed query over one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryFn {
    /// Counter increase over the window (`v(end) − v(before start)`).
    Increase,
    /// [`QueryFn::Increase`] divided by the window length in seconds.
    Rate,
    /// Time-weighted average over the window. For gauges this is exact:
    /// an integral difference divided by the elapsed time between the
    /// window's boundary samples. For other kinds it is the arithmetic
    /// mean of the samples in the window.
    AvgOverTime,
    /// Largest sample in the window.
    MaxOverTime,
    /// Smallest sample in the window.
    MinOverTime,
    /// Nearest-rank quantile of the samples in the window; the argument
    /// must be in `[0, 1]`.
    QuantileOverTime(f64),
}

impl QueryFn {
    /// Parses the CLI spelling: `rate`, `increase`, `avg_over_time`,
    /// `max_over_time`, `min_over_time` or `quantile:<q>` (e.g.
    /// `quantile:0.99`).
    pub fn parse(s: &str) -> Option<QueryFn> {
        match s {
            "rate" => Some(QueryFn::Rate),
            "increase" => Some(QueryFn::Increase),
            "avg_over_time" => Some(QueryFn::AvgOverTime),
            "max_over_time" => Some(QueryFn::MaxOverTime),
            "min_over_time" => Some(QueryFn::MinOverTime),
            _ => {
                let q = s.strip_prefix("quantile:")?.parse::<f64>().ok()?;
                if (0.0..=1.0).contains(&q) {
                    Some(QueryFn::QuantileOverTime(q))
                } else {
                    None
                }
            }
        }
    }

    /// Stable name used in exports (`quantile:<q>` keeps its argument).
    pub fn label(&self) -> String {
        match self {
            QueryFn::Increase => "increase".to_owned(),
            QueryFn::Rate => "rate".to_owned(),
            QueryFn::AvgOverTime => "avg_over_time".to_owned(),
            QueryFn::MaxOverTime => "max_over_time".to_owned(),
            QueryFn::MinOverTime => "min_over_time".to_owned(),
            QueryFn::QuantileOverTime(q) => format!("quantile:{q}"),
        }
    }
}

/// One evaluated query instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPoint {
    /// The window's right edge.
    pub at: SimTime,
    /// The query value, `None` when the window holds no samples.
    pub value: Option<f64>,
}

/// One scraped registry series: its key and its kind's streams in
/// [`SeriesKind::fields`] order.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    key: SeriesKey,
    streams: Vec<Stream>,
}

/// A stored series' place: its kind and the registry handle index it
/// was scraped from.
type Slot = (SeriesKind, usize);

/// The in-memory time-series store: every scraped series, each holding
/// its kind's delta-encoded streams, plus the shared scrape timeline.
///
/// Series are stored per kind at the index of the registry handle they
/// were scraped from, so a scrape reaches every series it already stores
/// by index; only series new at a scrape are placed by key, into the
/// `(key, kind)` order that queries and listings walk.
///
/// Populate it by calling [`TimeSeriesDb::record`] (or letting a
/// [`TelemetrySink`](super::TelemetrySink) drive it via its scrape hooks),
/// then query with [`TimeSeriesDb::eval_at`] / [`TimeSeriesDb::eval_range`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesDb {
    /// The instant the observation window opened (gauge integrals measure
    /// from here).
    epoch: SimTime,
    interval: SimDuration,
    /// Next scheduled scrape instant for [`TimeSeriesDb::due`].
    next_due: SimTime,
    /// Every instant a scrape happened, ascending, deduplicated.
    times: Vec<SimTime>,
    /// Every series with at least one sample, per [`SeriesKind`], indexed
    /// by registry handle.
    series: [Vec<Series>; 3],
    /// Every stored series' slot, ascending by `(key, kind)`.
    order: Vec<Slot>,
    samples: u64,
}

impl TimeSeriesDb {
    /// An empty store whose scrape grid starts at `epoch`.
    pub fn new(epoch: SimTime, config: ScrapeConfig) -> Self {
        assert!(
            !config.interval.is_zero(),
            "scrape interval must be positive"
        );
        TimeSeriesDb {
            epoch,
            interval: config.interval,
            next_due: epoch,
            times: Vec::new(),
            series: [Vec::new(), Vec::new(), Vec::new()],
            order: Vec::new(),
            samples: 0,
        }
    }

    /// The configured scrape interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The instant the observation window opened.
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// Whether the scrape grid has a scheduled instant at or before `now`.
    /// Drivers poll this from their existing periodic work (heartbeat
    /// sweeps) so scraping adds no simulation events of its own.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Samples every series of `registry` at `now` and advances the scrape
    /// grid past `now`. Calling twice at the same instant records the
    /// instant once but *amends*: series created or updated between the
    /// two calls overwrite their final sample, so a forced boundary scrape
    /// (run start / end) composes with a periodic grid scrape that landed
    /// on the same tick — the last observation wins.
    ///
    /// Every call must pass the same registry (or its continuation): a
    /// stored series is matched to the registry series with the same
    /// handle index, which debug builds check by key.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the previous scrape: queries
    /// binary-search each stream's timestamps, so they must ascend. Also
    /// panics if `registry` holds fewer series of a kind than the store.
    pub fn record(&mut self, registry: &MetricsRegistry, now: SimTime) {
        assert!(
            self.times.last().is_none_or(|&t| t <= now),
            "scrape time moved backwards"
        );
        let t_ns = now.as_nanos();
        let mut fresh = Vec::new();
        self.scrape(
            SeriesKind::Counter,
            &registry.counters,
            t_ns,
            &mut fresh,
            |c| [c.value()],
        );
        self.scrape(SeriesKind::Gauge, &registry.gauges, t_ns, &mut fresh, |g| {
            [g.value().to_bits(), g.integral(now).to_bits()]
        });
        self.scrape(
            SeriesKind::Histogram,
            &registry.histograms,
            t_ns,
            &mut fresh,
            |h| [h.len() as u64, h.sum().to_bits()],
        );
        self.place(fresh);
        if self.times.last() != Some(&now) {
            self.times.push(now);
        }
        while self.next_due <= now {
            self.next_due = self.next_due.saturating_add(self.interval);
        }
    }

    /// Records one registry store's payloads (`bits`, one per field of
    /// `kind`) at `t_ns`. A series already stored is reached by its
    /// handle index; one not stored yet is appended at its index and its
    /// slot pushed to `fresh`.
    fn scrape<T, const N: usize>(
        &mut self,
        kind: SeriesKind,
        store: &Store<T>,
        t_ns: u64,
        fresh: &mut Vec<Slot>,
        bits: impl Fn(&T) -> [u64; N],
    ) {
        let stored = &mut self.series[kind as usize];
        assert!(
            stored.len() <= store.len(),
            "the registry holds fewer {kind:?} series than the tsdb stored"
        );
        for (index, value) in store.values.iter().enumerate() {
            let bits = bits(value);
            let key = &store.keys[index];
            if let Some(series) = stored.get_mut(index) {
                debug_assert!(
                    series.key == *key,
                    "{kind:?} handle {index} is {key} in the registry but {} in the tsdb",
                    series.key
                );
                for (stream, bits) in series.streams.iter_mut().zip(bits) {
                    self.samples += u64::from(stream.record_at(t_ns, bits));
                }
            } else {
                let streams = kind
                    .fields()
                    .iter()
                    .zip(bits)
                    .map(|(field, bits)| {
                        let mut stream = Stream::new(field.sample_kind());
                        stream.push(t_ns, bits);
                        stream
                    })
                    .collect();
                self.samples += N as u64;
                stored.push(Series {
                    key: key.clone(),
                    streams,
                });
                fresh.push((kind, index));
            }
        }
    }

    /// The series in `slot`.
    fn at(&self, (kind, index): Slot) -> &Series {
        &self.series[kind as usize][index]
    }

    /// Where the series in `slot` sorts against `(key, kind)`: the order
    /// of [`TimeSeriesDb::order`].
    fn cmp_to(&self, slot: Slot, key: &SeriesKey, kind: SeriesKind) -> Ordering {
        self.at(slot).key.cmp(key).then(slot.0.cmp(&kind))
    }

    /// Places one scrape's newly stored series into the key order. The
    /// stored order is already sorted, so the sort merges one run of
    /// new slots into it.
    fn place(&mut self, fresh: Vec<Slot>) {
        if fresh.is_empty() {
            return;
        }
        let mut order = std::mem::take(&mut self.order);
        order.extend(fresh);
        order.sort_by(|&a, &b| self.cmp_to(a, &self.at(b).key, b.0));
        self.order = order;
    }

    /// Every scrape instant, ascending.
    pub fn scrape_times(&self) -> &[SimTime] {
        &self.times
    }

    /// Every stored series, per kind.
    fn all(&self) -> impl Iterator<Item = &Series> {
        self.series.iter().flatten()
    }

    /// Number of distinct `(series, facet)` streams.
    pub fn stream_count(&self) -> usize {
        self.all().map(|s| s.streams.len()).sum()
    }

    /// Distinct keys of the stored series, in order. A key scraped as
    /// more than one kind is stored once per kind, next to itself.
    fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        let mut last: Option<&SeriesKey> = None;
        self.order.iter().filter_map(move |&slot| {
            let key = &self.at(slot).key;
            let fresh_key = last != Some(key);
            last = Some(key);
            fresh_key.then_some(key)
        })
    }

    /// Number of distinct registry series with at least one sample.
    pub fn series_count(&self) -> usize {
        self.keys().count()
    }

    /// Total samples stored across all streams.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total encoded payload bytes across all streams.
    pub fn bytes(&self) -> usize {
        self.all()
            .flat_map(|s| &s.streams)
            .map(|stream| stream.data.len())
            .sum()
    }

    /// Mean encoded bytes per stored sample (`0.0` when empty).
    pub fn bytes_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.bytes() as f64 / self.samples as f64
        }
    }

    /// Series whose metric name is `metric` and whose labels are a
    /// superset of `labels`, in `(name, labels)` order.
    pub fn series_matching(&self, metric: &str, labels: &[(String, String)]) -> Vec<SeriesKey> {
        let from = self
            .order
            .partition_point(|&slot| self.at(slot).key.name.as_str() < metric);
        let mut out: Vec<SeriesKey> = Vec::new();
        for s in self.order[from..]
            .iter()
            .map(|&slot| self.at(slot))
            .take_while(|s| s.key.name == metric)
        {
            if out.last() != Some(&s.key)
                && labels
                    .iter()
                    .all(|(k, v)| s.key.labels.get(k) == Some(v.as_str()))
            {
                out.push(s.key.clone());
            }
        }
        out
    }

    /// Every distinct series with at least one sample, in order.
    pub fn all_series(&self) -> Vec<SeriesKey> {
        self.keys().cloned().collect()
    }

    fn stream(&self, series: &SeriesKey, field: SampleField) -> Option<&Stream> {
        let (kind, index) = field.slot();
        let at = self
            .order
            .binary_search_by(|&slot| self.cmp_to(slot, series, kind))
            .ok()?;
        self.at(self.order[at]).streams.get(index)
    }

    /// Decodes the stream `f` reads from `series`: the counter `Total`
    /// (else histogram `Count`) for `increase`/`rate`, the gauge
    /// `Integral` for `avg_over_time` when there is one, and otherwise
    /// the "natural" instantaneous stream — gauge `Value`, counter
    /// `Total` or histogram `Count`, whichever exists.
    fn decode(&self, series: &SeriesKey, f: QueryFn) -> Option<Decoded> {
        let floats = |stream: &Stream| {
            stream
                .decode()
                .into_iter()
                .map(|(t, bits)| (t, stream.kind.as_f64(bits)))
                .collect()
        };
        if matches!(f, QueryFn::Increase | QueryFn::Rate) {
            let stream = self
                .stream(series, SampleField::Total)
                .or_else(|| self.stream(series, SampleField::Count))?;
            return Some(Decoded::Totals(stream.decode()));
        }
        if f == QueryFn::AvgOverTime {
            if let Some(stream) = self.stream(series, SampleField::Integral) {
                return Some(Decoded::Integrals(floats(stream)));
            }
        }
        [SampleField::Value, SampleField::Total, SampleField::Count]
            .into_iter()
            .find_map(|field| self.stream(series, field))
            .map(|stream| Decoded::Values(floats(stream)))
    }

    /// Evaluates `f` over the window `[at − window, at]`.
    ///
    /// Windows are *sample-aligned*: boundary lookups resolve to the
    /// nearest stored sample at or before the boundary, so results are a
    /// pure function of the scrape sequence. Returns `None` when the
    /// series is absent or the window holds no usable samples.
    pub fn eval_at(
        &self,
        series: &SeriesKey,
        f: QueryFn,
        window: SimDuration,
        at: SimTime,
    ) -> Option<f64> {
        self.decode(series, f)?.eval(f, window, at, self.epoch)
    }

    /// Evaluates `f` at every instant of the scrape timeline (or a coarser
    /// `step` grid anchored at the epoch), oldest first. The series is
    /// decoded once; each instant is then two binary searches plus the
    /// function over its window.
    pub fn eval_range(
        &self,
        series: &SeriesKey,
        f: QueryFn,
        window: SimDuration,
        step: Option<SimDuration>,
    ) -> Vec<QueryPoint> {
        let instants: Vec<SimTime> = match step {
            None => self.times.clone(),
            Some(step) if !step.is_zero() => {
                let mut out = Vec::new();
                let Some(&last) = self.times.last() else {
                    return Vec::new();
                };
                let mut t = self.epoch;
                while t <= last {
                    out.push(t);
                    t = t.saturating_add(step);
                }
                out
            }
            Some(_) => return Vec::new(),
        };
        let decoded = self.decode(series, f);
        instants
            .into_iter()
            .map(|at| QueryPoint {
                at,
                value: decoded
                    .as_ref()
                    .and_then(|d| d.eval(f, window, at, self.epoch)),
            })
            .collect()
    }
}

/// One series' samples as a query function reads them, oldest first and
/// strictly ascending in time ([`TimeSeriesDb::record`] enforces that),
/// so window boundaries are found by binary search.
enum Decoded {
    /// Counter `Total` or histogram `Count` payloads.
    Totals(Vec<(u64, u64)>),
    /// Gauge running integrals.
    Integrals(Vec<(u64, f64)>),
    /// The natural stream's payloads as floats.
    Values(Vec<(u64, f64)>),
}

impl Decoded {
    /// `f` over `[at − window, at]`. `decode` picks the stream for `f`, so
    /// a function paired with another function's stream has no value.
    fn eval(&self, f: QueryFn, window: SimDuration, at: SimTime, epoch: SimTime) -> Option<f64> {
        let at = at.as_nanos();
        let start = at.saturating_sub(window.as_nanos());
        match (f, self) {
            // Counter increase over `(start, at]`: the last sample at or
            // before `at`, minus the last sample *strictly before* `start`
            // (zero when the stream begins inside the window — a counter
            // is born at zero). The strict lower bound is what makes a
            // full-run `increase` reproduce the snapshot `total` even when
            // increments land at the epoch itself.
            (QueryFn::Increase | QueryFn::Rate, Decoded::Totals(s)) => {
                let (_, end) = *at_or_before(s, at).last()?;
                let base = before(s, start).last().map_or(0, |&(_, v)| v);
                let increase = end.saturating_sub(base) as f64;
                if f == QueryFn::Increase {
                    return Some(increase);
                }
                let secs = window.as_secs_f64();
                (secs > 0.0).then(|| increase / secs)
            }
            // Gauge time-weighted average: an integral difference over the
            // elapsed time between the window's boundary samples. The start
            // boundary resolves to the last sample at or before it; if none
            // exists the gauge's whole history is inside the window and the
            // epoch (integral zero) is the boundary.
            (QueryFn::AvgOverTime, Decoded::Integrals(s)) => {
                let (e_t, e_v) = *at_or_before(s, at).last()?;
                let (s_t, s_v) = at_or_before(s, start)
                    .last()
                    .copied()
                    .unwrap_or((epoch.as_nanos(), 0.0));
                if e_t <= s_t {
                    return None;
                }
                let secs = SimDuration::from_nanos(e_t - s_t).as_secs_f64();
                Some((e_v - s_v) / secs)
            }
            (_, Decoded::Values(s)) => {
                let from_start = &s[before(s, start).len()..];
                let values = at_or_before(from_start, at).iter().map(|&(_, v)| v);
                match f {
                    // The arithmetic sample mean, for kinds with no integral.
                    QueryFn::AvgOverTime => {
                        let n = values.len();
                        (n > 0).then(|| values.sum::<f64>() / n as f64)
                    }
                    QueryFn::MaxOverTime => values.reduce(f64::max),
                    QueryFn::MinOverTime => values.reduce(f64::min),
                    QueryFn::QuantileOverTime(q) => {
                        let mut vs: Vec<f64> = values.collect();
                        if vs.is_empty() {
                            return None;
                        }
                        vs.sort_by(f64::total_cmp);
                        let rank = ((q * vs.len() as f64).ceil() as usize).clamp(1, vs.len());
                        vs.get(rank - 1).copied()
                    }
                    QueryFn::Increase | QueryFn::Rate => None,
                }
            }
            _ => None,
        }
    }
}

/// The leading samples with `t ≤ at`.
fn at_or_before<T>(samples: &[(u64, T)], at: u64) -> &[(u64, T)] {
    &samples[..samples.partition_point(|&(t, _)| t <= at)]
}

/// The leading samples with `t < at`.
fn before<T>(samples: &[(u64, T)], at: u64) -> &[(u64, T)] {
    &samples[..samples.partition_point(|&(t, _)| t < at)]
}

impl fmt::Display for TimeSeriesDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tsdb: {} series, {} streams, {} scrapes, {} samples, {} bytes ({:.2} B/sample)",
            self.series_count(),
            self.stream_count(),
            self.times.len(),
            self.samples,
            self.bytes(),
            self.bytes_per_sample(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MetricsRegistry, SeriesKey};

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0usize;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len(), "decoder consumed exactly the encoding");
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut pos = 0usize;
        assert_eq!(get_varint(&[0x80], &mut pos), None, "truncated input");
    }

    #[test]
    fn streams_decode_what_they_encoded() {
        let mut f = Stream::new(SampleKind::F64);
        let floats = [
            (0u64, 1.5f64),
            (1_000_000_000, 1.5),
            (2_500_000_000, -3.25),
            (4_000_000_000, 0.0),
        ];
        for (t, v) in floats {
            f.push(t, v.to_bits());
        }
        let want: Vec<(u64, u64)> = floats.iter().map(|(t, v)| (*t, v.to_bits())).collect();
        assert_eq!(f.decode(), want);

        let mut u = Stream::new(SampleKind::U64);
        let counts = [(0u64, 0u64), (5, 3), (9, 3), (12, 40)];
        for (t, v) in counts {
            u.push(t, v);
        }
        assert_eq!(u.decode(), counts.to_vec());
    }

    #[test]
    fn same_instant_rerecord_amends_instead_of_dropping() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        let t = SimTime::from_secs(5);
        reg.gauge("g", &[]).set(t, 1.0);
        reg.counter("c", &[]).add(2);
        db.record(&reg, t);
        // The end-of-run pattern: a grid scrape already landed at `t`, then
        // more recording happens at the same instant — a new series appears
        // and the counter moves — before the forced boundary scrape.
        reg.counter("c", &[]).add(3);
        reg.gauge("late", &[]).set(t, 7.0);
        db.record(&reg, t);
        assert_eq!(db.scrape_times(), &[t], "the instant is stored once");
        let key = |name| SeriesKey::new(name, &[]);
        let w = SimDuration::from_secs(5);
        assert_eq!(db.eval_at(&key("c"), QueryFn::Increase, w, t), Some(5.0));
        assert_eq!(
            db.eval_at(&key("late"), QueryFn::MaxOverTime, w, t),
            Some(7.0)
        );
        let before = db.samples();
        db.record(&reg, t);
        assert_eq!(db.samples(), before, "an identical re-record adds nothing");
    }

    #[test]
    #[should_panic(expected = "scrape time moved backwards")]
    fn a_backward_scrape_panics() {
        let reg = MetricsRegistry::new(SimTime::ZERO);
        let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        db.record(&reg, SimTime::from_secs(5));
        db.record(&reg, SimTime::from_secs(4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "handle 0 is b in the registry but a in the tsdb")]
    fn a_registry_with_other_handles_panics_instead_of_misfiling() {
        // Same series, created in the other order: handle 0 names `a` in
        // the registry the store scraped and `b` in this one.
        let mut first = MetricsRegistry::new(SimTime::ZERO);
        first.gauge("a", &[]).set(SimTime::ZERO, 1.0);
        first.gauge("b", &[]).set(SimTime::ZERO, 2.0);
        let mut other = MetricsRegistry::new(SimTime::ZERO);
        other.gauge("b", &[]).set(SimTime::ZERO, 2.0);
        other.gauge("a", &[]).set(SimTime::ZERO, 1.0);
        let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        db.record(&first, SimTime::ZERO);
        db.record(&other, SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "the registry holds fewer Gauge series than the tsdb stored")]
    fn a_registry_with_fewer_series_panics() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("a", &[]).set(SimTime::ZERO, 1.0);
        let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        db.record(&reg, SimTime::ZERO);
        db.record(&MetricsRegistry::new(SimTime::ZERO), SimTime::from_secs(15));
    }

    #[test]
    fn the_scrape_grid_advances_past_each_record() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("g", &[]).set(SimTime::ZERO, 1.0);
        let mut db = TimeSeriesDb::new(
            SimTime::ZERO,
            ScrapeConfig::every(SimDuration::from_secs(15)),
        );
        assert!(db.due(SimTime::ZERO));
        db.record(&reg, SimTime::ZERO);
        assert!(!db.due(SimTime::from_secs(14)));
        assert!(db.due(SimTime::from_secs(15)));
        // An off-grid forced scrape advances the grid past itself.
        db.record(&reg, SimTime::from_secs(47));
        assert!(!db.due(SimTime::from_secs(59)));
        assert!(db.due(SimTime::from_secs(60)));
    }

    #[test]
    fn windowed_queries_agree_on_a_simple_staircase() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        let mut db = TimeSeriesDb::new(SimTime::ZERO, ScrapeConfig::default());
        for s in 0..=10u64 {
            let now = SimTime::from_secs(s);
            reg.gauge("g", &[]).set(now, s as f64);
            db.record(&reg, now);
            reg.counter("c", &[]).add(2);
        }
        let at = SimTime::from_secs(10);
        let w = SimDuration::from_secs(10);
        let key = |name| SeriesKey::new(name, &[]);
        assert_eq!(db.eval_at(&key("c"), QueryFn::Increase, w, at), Some(20.0));
        assert_eq!(db.eval_at(&key("c"), QueryFn::Rate, w, at), Some(2.0));
        assert_eq!(
            db.eval_at(&key("g"), QueryFn::MinOverTime, w, at),
            Some(0.0)
        );
        assert_eq!(
            db.eval_at(&key("g"), QueryFn::MaxOverTime, w, at),
            Some(10.0)
        );
        assert_eq!(
            db.eval_at(&key("g"), QueryFn::QuantileOverTime(0.5), w, at),
            Some(5.0)
        );
        // A window that trails the data entirely evaluates to nothing.
        assert_eq!(
            db.eval_at(&key("g"), QueryFn::MaxOverTime, w, SimTime::from_secs(30)),
            None
        );
        // eval_range visits every scrape instant when no step is given.
        let pts = db.eval_range(&key("g"), QueryFn::MaxOverTime, w, None);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts.last().and_then(|p| p.value), Some(10.0));
    }

    #[test]
    fn query_fn_parses_the_cli_spellings() {
        assert_eq!(QueryFn::parse("rate"), Some(QueryFn::Rate));
        assert_eq!(QueryFn::parse("increase"), Some(QueryFn::Increase));
        assert_eq!(QueryFn::parse("avg_over_time"), Some(QueryFn::AvgOverTime));
        assert_eq!(QueryFn::parse("max_over_time"), Some(QueryFn::MaxOverTime));
        assert_eq!(QueryFn::parse("min_over_time"), Some(QueryFn::MinOverTime));
        assert_eq!(
            QueryFn::parse("quantile:0.99"),
            Some(QueryFn::QuantileOverTime(0.99))
        );
        assert_eq!(QueryFn::parse("quantile:1.5"), None);
        assert_eq!(QueryFn::parse("stddev"), None);
    }
}
