//! Cluster-wide observability: labeled metric series and sim-time tracing.
//!
//! The paper's `pimaster` turns the PiCloud from a pile of boards into a
//! research instrument by exposing monitoring over the whole testbed
//! (§II-C). This module is that instrument for the scale model:
//!
//! * [`MetricsRegistry`] — a central bag of *labeled* series wrapping the
//!   [`Counter`] / [`TimeWeightedGauge`] / [`Histogram`] primitives of
//!   [`crate::metrics`]. A series is `(name, labels)` — e.g.
//!   `hardware_power_watts{node="3", rack="0"}` — so one registry holds the
//!   whole cluster's state, per node, rack, container, link or flow. A
//!   series can be resolved once to a [`SeriesId`] handle and then written
//!   by index, with no key built or searched per write.
//! * [`Tracer`] — a ring-buffered, deterministic sim-time event tracer.
//!   When disabled it is zero-cost on the hot path: the closure that would
//!   build the event's fields is never called and nothing allocates.
//! * [`MetricsSnapshot`] — a point-in-time flattening of the registry with
//!   three exporters: JSONL ([`MetricsSnapshot::to_jsonl`]), CSV
//!   ([`MetricsSnapshot::to_csv`]) and Prometheus text
//!   ([`MetricsSnapshot::to_prometheus`]). All three are byte-deterministic
//!   for a given registry state: series are emitted in `(name, labels)`
//!   order, fields in insertion order.
//!
//! Label keys and metric names must match `[a-zA-Z_][a-zA-Z0-9_]*` so that
//! every exporter (Prometheus included) can carry them unchanged; label
//! *values* are free-form strings (escaped on export).
//!
//! # Example
//!
//! ```
//! use picloud_simcore::telemetry::MetricsRegistry;
//! use picloud_simcore::SimTime;
//!
//! let mut reg = MetricsRegistry::new(SimTime::ZERO);
//! reg.counter("requests_total", &[("node", "7")]).add(3);
//! reg.gauge("power_watts", &[("node", "7")])
//!     .set(SimTime::from_secs(1), 3.5);
//! // A hot loop resolves its series once and writes through the handle.
//! let power = reg.gauge_id("power_watts", &[("node", "7")]);
//! reg.gauge_at(power).set(SimTime::from_secs(2), 4.0);
//! let snap = reg.snapshot(SimTime::from_secs(2));
//! assert!(snap.to_prometheus().contains("requests_total{node=\"7\"} 3"));
//! assert!(snap.to_prometheus().contains("power_watts{node=\"7\"} 4"));
//! ```

pub mod slo;
pub mod tsdb;

use crate::metrics::{Counter, Histogram, TimeWeightedGauge};
use crate::spans::SpanId;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

/// Returns whether `name` is a valid metric name / label key:
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes `s` into `out` as the body of a JSON string literal. Every
/// JSONL exporter renders names and label values through this one
/// escaper.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Escapes a Prometheus label value: backslash, double quote and newline
/// per the text exposition format.
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an `f64` as a JSON value (non-finite values become `null`,
/// which keeps the output parseable; finite values round-trip).
fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// A sorted, deduplicated set of `key=value` labels identifying one series.
///
/// Construction sorts by key, so `&[("b","2"),("a","1")]` and
/// `&[("a","1"),("b","2")]` name the same series.
///
/// # Panics
///
/// Construction panics on duplicate keys or a key that is not a valid
/// identifier (`[a-zA-Z_][a-zA-Z0-9_]*`) — both always indicate an
/// instrumentation bug.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// No labels: the series is identified by its name alone.
    pub fn empty() -> Self {
        Labels(Vec::new())
    }

    /// Builds a label set from `key=value` pairs (any order).
    pub fn new(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| {
                assert!(valid_name(k), "invalid label key {k:?}");
                ((*k).to_owned(), (*val).to_owned())
            })
            .collect();
        v.sort();
        for w in v.windows(2) {
            // windows(2) slices always hold exactly two elements
            assert!(w[0].0 != w[1].0, "duplicate label key {:?}", w[0].0);
        }
        Labels(v)
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Whether there are no labels.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value of label `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for Labels {
    /// Prometheus-style rendering: `{a="1",b="2"}`, empty string if no
    /// labels.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            // Prometheus exposition format: backslash, quote and newline
            // must be escaped inside label values.
            write!(f, "{k}=\"{}\"", prom_escape(v))?;
        }
        write!(f, "}}")
    }
}

/// The identity of one series: metric name plus label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// Metric name, e.g. `hardware_power_watts`.
    pub name: String,
    /// Identifying labels, e.g. `node="3", rack="0"`.
    pub labels: Labels,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        assert!(valid_name(name), "invalid metric name {name:?}");
        SeriesKey {
            name: name.to_owned(),
            labels: Labels::new(labels),
        }
    }
}

impl fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.labels)
    }
}

/// A handle to one series of a [`MetricsRegistry`], resolved once by
/// [`MetricsRegistry::gauge_id`], [`MetricsRegistry::counter_id`] or
/// [`MetricsRegistry::histogram_id`] and then written by index through
/// the matching `*_at` method. The instrument type `T` is part of the
/// handle's type, so a gauge handle cannot index the counter store.
///
/// A handle indexes the registry that resolved it (or a clone of that
/// registry). Handles never appear in any export: every output is in
/// `(name, labels)` order, whatever order the series were created in.
pub struct SeriesId<T> {
    index: usize,
    kind: PhantomData<fn() -> T>,
}

/// A handle to a gauge series.
pub type GaugeId = SeriesId<TimeWeightedGauge>;
/// A handle to a counter series.
pub type CounterId = SeriesId<Counter>;
/// A handle to a histogram series.
pub type HistogramId = SeriesId<Histogram>;

impl<T> SeriesId<T> {
    fn new(index: usize) -> Self {
        SeriesId {
            index,
            kind: PhantomData,
        }
    }
}

// Manual impls: deriving would demand the same traits of `T`.
impl<T> Clone for SeriesId<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SeriesId<T> {}

impl<T> fmt::Debug for SeriesId<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SeriesId({})", self.index)
    }
}

/// One kind's series: keys and instruments indexed by handle (creation
/// order), plus the handles in key order for lookups and iteration.
/// Each key is stored once.
#[derive(Debug, Clone)]
struct Store<T> {
    keys: Vec<SeriesKey>,
    values: Vec<T>,
    /// Handle indices ascending by key.
    order: Vec<usize>,
}

impl<T> Default for Store<T> {
    fn default() -> Self {
        Store {
            keys: Vec::new(),
            values: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl<T> Store<T> {
    /// The position in `order` of `key`, or the position it belongs at.
    fn search(&self, key: &SeriesKey) -> Result<usize, usize> {
        self.order.binary_search_by(|&i| self.keys[i].cmp(key))
    }

    /// The handle of series `(name, labels)`, creating it as `make()` if
    /// it does not exist yet.
    fn resolve(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> T,
    ) -> SeriesId<T> {
        let key = SeriesKey::new(name, labels);
        let index = match self.search(&key) {
            Ok(at) => self.order[at],
            Err(at) => {
                let index = self.keys.len();
                self.keys.push(key);
                self.values.push(make());
                self.order.insert(at, index);
                index
            }
        };
        SeriesId::new(index)
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&T> {
        let at = self.search(&SeriesKey::new(name, labels)).ok()?;
        self.values.get(self.order[at])
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Series in `(name, labels)` order.
    fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &T)> {
        self.order.iter().map(|&i| (&self.keys[i], &self.values[i]))
    }
}

/// A central registry of labeled counter / gauge / histogram series.
///
/// A series is created the first time it is named — by a by-name write
/// ([`MetricsRegistry::gauge`] …) or by resolving its handle
/// ([`MetricsRegistry::gauge_id`] …), which is the same operation: each
/// by-name write resolves the handle and then writes through it.
/// Creation time matters to a scraping [`tsdb::TimeSeriesDb`] (a series
/// is sampled from the first scrape after it exists), so resolve a
/// handle at the write that would create the series, never earlier.
///
/// Iteration, and therefore every exported snapshot, is in
/// `(name, labels)` order, independent of creation order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    start: SimTime,
    counters: Store<Counter>,
    gauges: Store<TimeWeightedGauge>,
    histograms: Store<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry whose gauges start observing at `start`.
    pub fn new(start: SimTime) -> Self {
        MetricsRegistry {
            start,
            ..MetricsRegistry::default()
        }
    }

    /// The instant the registry's gauges started observing.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// The handle of counter series `(name, labels)`, creating it at zero
    /// if it does not exist yet.
    pub fn counter_id(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        self.counters.resolve(name, labels, Counter::default)
    }

    /// The handle of gauge series `(name, labels)`, creating it holding
    /// `0.0` since the registry's start if it does not exist yet.
    pub fn gauge_id(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        let start = self.start;
        self.gauges
            .resolve(name, labels, || TimeWeightedGauge::new(start, 0.0))
    }

    /// The handle of histogram series `(name, labels)`, creating it empty
    /// if it does not exist yet.
    pub fn histogram_id(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        self.histograms.resolve(name, labels, Histogram::default)
    }

    /// The counter behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a registry with more counters.
    pub fn counter_at(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters.values[id.index]
    }

    /// The gauge behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a registry with more gauges.
    pub fn gauge_at(&mut self, id: GaugeId) -> &mut TimeWeightedGauge {
        &mut self.gauges.values[id.index]
    }

    /// The histogram behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a registry with more histograms.
    pub fn histogram_at(&mut self, id: HistogramId) -> &mut Histogram {
        &mut self.histograms.values[id.index]
    }

    /// The counter series `(name, labels)`, created at zero on first use.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Counter {
        let id = self.counter_id(name, labels);
        self.counter_at(id)
    }

    /// The gauge series `(name, labels)`, created holding `0.0` on first
    /// use.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut TimeWeightedGauge {
        let id = self.gauge_id(name, labels);
        self.gauge_at(id)
    }

    /// The histogram series `(name, labels)`, created empty on first use.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut Histogram {
        let id = self.histogram_id(name, labels);
        self.histogram_at(id)
    }

    /// Read-only lookup of a counter series.
    pub fn get_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Counter> {
        self.counters.get(name, labels)
    }

    /// Read-only lookup of a gauge series.
    pub fn get_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<&TimeWeightedGauge> {
        self.gauges.get(name, labels)
    }

    /// Number of series of all three kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether no series have been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates counter series in `(name, labels)` order.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, &Counter)> {
        self.counters.iter()
    }

    /// Iterates gauge series in `(name, labels)` order.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, &TimeWeightedGauge)> {
        self.gauges.iter()
    }

    /// Iterates histogram series in `(name, labels)` order.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &Histogram)> {
        self.histograms.iter()
    }

    /// Flattens every series into a point-in-time [`MetricsSnapshot`].
    ///
    /// Gauges summarise over `[start, now]` (time-weighted mean and
    /// integral), histograms report the [`Histogram::summary`] statistics.
    pub fn snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut rows = Vec::with_capacity(self.len());
        for (key, c) in self.counters() {
            rows.push(MetricRow {
                key: key.clone(),
                value: MetricValue::Counter { total: c.value() },
            });
        }
        for (key, g) in self.gauges() {
            rows.push(MetricRow {
                key: key.clone(),
                value: MetricValue::Gauge {
                    value: g.value(),
                    mean: g.mean(now),
                    min: g.min(),
                    max: g.max(),
                    integral: g.integral(now),
                },
            });
        }
        for (key, h) in self.histograms() {
            rows.push(MetricRow {
                key: key.clone(),
                value: MetricValue::Histogram {
                    summary: h.summary(),
                },
            });
        }
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        MetricsSnapshot {
            taken_at: now,
            rows,
        }
    }
}

/// The summarised value of one series in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic total.
    Counter {
        /// The counter's value at snapshot time.
        total: u64,
    },
    /// A time-weighted gauge, summarised over the observation window.
    Gauge {
        /// Instantaneous value at snapshot time.
        value: f64,
        /// Time-weighted mean over the window.
        mean: f64,
        /// Smallest value ever held.
        min: f64,
        /// Largest value ever held.
        max: f64,
        /// Integral over time (value × seconds) — watts become joules.
        integral: f64,
    },
    /// A distribution; `None` when the histogram recorded nothing.
    Histogram {
        /// Summary statistics, absent for an empty histogram.
        summary: Option<crate::metrics::HistogramSummary>,
    },
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter { .. } => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// One series in a snapshot: identity plus summarised value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Which series this row describes.
    pub key: SeriesKey,
    /// Its summarised value.
    pub value: MetricValue,
}

/// A point-in-time flattening of a [`MetricsRegistry`], ready for export.
///
/// Rows are sorted by `(name, labels)`; every exporter below is
/// byte-deterministic given the same registry state.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The sim-time instant the snapshot was taken.
    pub taken_at: SimTime,
    /// One row per series, in `(name, labels)` order.
    pub rows: Vec<MetricRow>,
}

impl MetricsSnapshot {
    /// One JSON object per line, one line per series.
    ///
    /// Schema per line: `{"t_ns", "name", "labels": {..}, "kind", ...}`
    /// with kind-specific value fields (`total` for counters;
    /// `value`/`mean`/`min`/`max`/`integral` for gauges; the
    /// [`Histogram::summary`] fields for histograms, or `"count": 0` when
    /// empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&format!(
                "{{\"t_ns\":{},\"name\":\"",
                self.taken_at.as_nanos()
            ));
            json_escape(&row.key.name, &mut out);
            out.push_str("\",\"labels\":{");
            for (i, (k, v)) in row.key.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape(k, &mut out);
                out.push_str("\":\"");
                json_escape(v, &mut out);
                out.push('"');
            }
            out.push_str(&format!("}},\"kind\":\"{}\"", row.value.kind()));
            match &row.value {
                MetricValue::Counter { total } => {
                    out.push_str(&format!(",\"total\":{total}"));
                }
                MetricValue::Gauge {
                    value,
                    mean,
                    min,
                    max,
                    integral,
                } => {
                    for (k, v) in [
                        ("value", value),
                        ("mean", mean),
                        ("min", min),
                        ("max", max),
                        ("integral", integral),
                    ] {
                        out.push_str(&format!(",\"{k}\":"));
                        json_f64(*v, &mut out);
                    }
                }
                MetricValue::Histogram { summary: None } => {
                    out.push_str(",\"count\":0");
                }
                MetricValue::Histogram { summary: Some(s) } => {
                    out.push_str(&format!(",\"count\":{}", s.count));
                    for (k, v) in [
                        ("sum", s.sum),
                        ("mean", s.mean),
                        ("min", s.min),
                        ("max", s.max),
                        ("p50", s.p50),
                        ("p90", s.p90),
                        ("p99", s.p99),
                        ("stddev", s.stddev),
                    ] {
                        out.push_str(&format!(",\"{k}\":"));
                        json_f64(v, &mut out);
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Long-format CSV: `name,labels,kind,stat,value`, one row per
    /// statistic. Labels render as `k=v;k=v` inside a double-quoted field.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,labels,kind,stat,value\n");
        for row in &self.rows {
            let labels: Vec<String> = row
                .key
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let labels = labels.join(";").replace('"', "\"\"");
            let mut stat = |name: &str, value: String| {
                out.push_str(&format!(
                    "{},\"{labels}\",{},{name},{value}\n",
                    row.key.name,
                    row.value.kind()
                ));
            };
            match &row.value {
                MetricValue::Counter { total } => stat("total", total.to_string()),
                MetricValue::Gauge {
                    value,
                    mean,
                    min,
                    max,
                    integral,
                } => {
                    stat("value", value.to_string());
                    stat("mean", mean.to_string());
                    stat("min", min.to_string());
                    stat("max", max.to_string());
                    stat("integral", integral.to_string());
                }
                MetricValue::Histogram { summary: None } => stat("count", "0".to_owned()),
                MetricValue::Histogram { summary: Some(s) } => {
                    stat("count", s.count.to_string());
                    stat("sum", s.sum.to_string());
                    stat("mean", s.mean.to_string());
                    stat("min", s.min.to_string());
                    stat("max", s.max.to_string());
                    stat("p50", s.p50.to_string());
                    stat("p90", s.p90.to_string());
                    stat("p99", s.p99.to_string());
                    stat("stddev", s.stddev.to_string());
                }
            }
        }
        out
    }

    /// Prometheus text exposition format.
    ///
    /// Counters and gauges export their instantaneous value; histograms
    /// export as summaries (`{quantile="…"}` series plus `_sum` and
    /// `_count`). Empty histograms export only `_count 0`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<&str> = None;
        for row in &self.rows {
            let name = row.key.name.as_str();
            if last_typed != Some(name) {
                out.push_str(&format!(
                    "# TYPE {name} {}\n",
                    match row.value {
                        MetricValue::Counter { .. } => "counter",
                        MetricValue::Gauge { .. } => "gauge",
                        MetricValue::Histogram { .. } => "summary",
                    }
                ));
                last_typed = Some(name);
            }
            let labels = row.key.labels.to_string();
            match &row.value {
                MetricValue::Counter { total } => {
                    out.push_str(&format!("{name}{labels} {total}\n"));
                }
                MetricValue::Gauge { value, .. } => {
                    out.push_str(&format!("{name}{labels} {value}\n"));
                }
                MetricValue::Histogram { summary } => {
                    let quantile = |q: &str, v: f64, out: &mut String| {
                        let mut all: Vec<String> = row
                            .key
                            .labels
                            .iter()
                            .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
                            .collect();
                        all.push(format!("quantile=\"{q}\""));
                        out.push_str(&format!("{name}{{{}}} {v}\n", all.join(",")));
                    };
                    match summary {
                        None => out.push_str(&format!("{name}_count{labels} 0\n")),
                        Some(s) => {
                            quantile("0.5", s.p50, &mut out);
                            quantile("0.9", s.p90, &mut out);
                            quantile("0.99", s.p99, &mut out);
                            out.push_str(&format!("{name}_sum{labels} {}\n", s.sum));
                            out.push_str(&format!("{name}_count{labels} {}\n", s.count));
                        }
                    }
                }
            }
        }
        out
    }
}

/// A typed field value on a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite values export as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Free-form string (escaped on export).
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One structured trace event at a sim-time instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global emission sequence number (survives ring-buffer eviction, so
    /// gaps reveal dropped events).
    pub seq: u64,
    /// When the event happened on the virtual clock.
    pub time: SimTime,
    /// Event kind, e.g. `node_crash` or `container_rescheduled` — the
    /// catalogue lives in `OBSERVABILITY.md`.
    pub kind: &'static str,
    /// Event-specific fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Builder handed to the [`Tracer::emit`] closure; collects the event's
/// fields.
#[derive(Debug, Default)]
pub struct EventFields(Vec<(&'static str, FieldValue)>);

impl EventFields {
    /// Attaches an unsigned-integer field.
    pub fn u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.0.push((key, FieldValue::U64(value)));
        self
    }

    /// Attaches a signed-integer field.
    pub fn i64(&mut self, key: &'static str, value: i64) -> &mut Self {
        self.0.push((key, FieldValue::I64(value)));
        self
    }

    /// Attaches a floating-point field.
    pub fn f64(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.0.push((key, FieldValue::F64(value)));
        self
    }

    /// Attaches a boolean field.
    pub fn bool(&mut self, key: &'static str, value: bool) -> &mut Self {
        self.0.push((key, FieldValue::Bool(value)));
        self
    }

    /// Attaches a string field.
    pub fn str(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.0.push((key, FieldValue::Str(value.to_owned())));
        self
    }
}

/// A deterministic, ring-buffered sim-time event tracer.
///
/// * **Disabled** ([`Tracer::disabled`]) — [`Tracer::emit`] returns
///   immediately without calling the field-builder closure: zero
///   allocations, zero events. This is the hot-path default.
/// * **Ring** ([`Tracer::ring`]) — keeps the most recent `capacity`
///   events; older events are dropped (counted in [`Tracer::dropped`]).
/// * **Unbounded** ([`Tracer::unbounded`]) — keeps everything; use for
///   experiment-scale traces where the full history is the artifact.
///
/// # Example
///
/// ```
/// use picloud_simcore::telemetry::Tracer;
/// use picloud_simcore::SimTime;
///
/// let mut tracer = Tracer::ring(2);
/// for i in 0..3u64 {
///     tracer.emit(SimTime::from_secs(i), "tick", |e| {
///         e.u64("i", i);
///     });
/// }
/// assert_eq!(tracer.len(), 2); // oldest evicted
/// assert_eq!(tracer.dropped(), 1);
///
/// let mut off = Tracer::disabled();
/// off.emit(SimTime::ZERO, "never", |_| unreachable!("not built"));
/// assert!(off.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tracer {
    enabled: bool,
    capacity: Option<usize>,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    seq: u64,
    /// Last allocated span id; ids start at 1 so zero can mean
    /// [`SpanId::NONE`].
    next_span: u64,
}

impl Tracer {
    /// A tracer that records nothing and never calls the field builder.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Tracer::disabled`] for that).
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Tracer {
            enabled: true,
            capacity: Some(capacity),
            ..Tracer::default()
        }
    }

    /// A tracer that keeps every event.
    pub fn unbounded() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event at `time`. The `build` closure attaches fields;
    /// it is only called when the tracer is enabled, so a disabled tracer
    /// costs one branch and no allocation.
    pub fn emit(
        &mut self,
        time: SimTime,
        kind: &'static str,
        build: impl FnOnce(&mut EventFields),
    ) {
        if !self.enabled {
            return;
        }
        let mut fields = EventFields::default();
        build(&mut fields);
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(TraceEvent {
            seq: self.seq,
            time,
            kind,
            fields: fields.0,
        });
        self.seq += 1;
    }

    /// Records a span — an event covering `[start, end]` — as an event at
    /// `start` with a `duration_ns` field.
    pub fn emit_span(
        &mut self,
        start: SimTime,
        end: SimTime,
        kind: &'static str,
        build: impl FnOnce(&mut EventFields),
    ) {
        self.emit(start, kind, |e| {
            e.u64(
                "duration_ns",
                end.saturating_duration_since(start).as_nanos(),
            );
            build(e);
        });
    }

    /// Opens a causal span at `time`: allocates a fresh [`SpanId`] and
    /// records a `span_start` event carrying the id, the span `name` and
    /// (when not [`SpanId::NONE`]) the `parent` link, plus whatever
    /// fields `build` attaches. Close it with [`Tracer::span_end`];
    /// reconstruct with [`crate::spans::SpanForest`].
    ///
    /// Disabled tracers return [`SpanId::NONE`] immediately — no id is
    /// consumed, `build` never runs, nothing allocates — so instrumented
    /// code can thread span ids unconditionally.
    pub fn span_start(
        &mut self,
        time: SimTime,
        name: &'static str,
        parent: SpanId,
        build: impl FnOnce(&mut EventFields),
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.next_span += 1;
        let id = SpanId(self.next_span);
        self.emit(time, "span_start", |e| {
            e.u64("span", id.0);
            if parent.is_some() {
                e.u64("parent", parent.0);
            }
            e.str("name", name);
            build(e);
        });
        id
    }

    /// Closes `span` at `time` with a `span_end` event. A no-op when the
    /// tracer is disabled or `span` is [`SpanId::NONE`] (the id a
    /// disabled tracer handed out), so enabled and disabled runs take the
    /// same instrumented code path.
    pub fn span_end(&mut self, time: SimTime, span: SpanId, build: impl FnOnce(&mut EventFields)) {
        if !self.enabled || span.is_none() {
            return;
        }
        self.emit(time, "span_end", |e| {
            e.u64("span", span.0);
            build(e);
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// One JSON object per line, one line per retained event, oldest
    /// first: `{"seq", "t_ns", "kind", ...fields}`. Field keys must not
    /// collide with the three envelope keys; the trace catalogue in
    /// `OBSERVABILITY.md` reserves them.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\"",
                ev.seq,
                ev.time.as_nanos(),
                ev.kind
            ));
            for (k, v) in &ev.fields {
                debug_assert!(
                    !matches!(*k, "seq" | "t_ns" | "kind"),
                    "trace field {k:?} collides with an envelope key"
                );
                out.push_str(&format!(",\"{k}\":"));
                match v {
                    FieldValue::U64(v) => out.push_str(&format!("{v}")),
                    FieldValue::I64(v) => out.push_str(&format!("{v}")),
                    FieldValue::F64(v) => json_f64(*v, &mut out),
                    FieldValue::Bool(v) => out.push_str(&format!("{v}")),
                    FieldValue::Str(s) => {
                        out.push('"');
                        json_escape(s, &mut out);
                        out.push('"');
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// A registry and tracer travelling together — the handle an instrumented
/// run (e.g. `picloud::recovery::run_recovery_with_telemetry`) threads
/// through its world — plus an optional windowed time-series store fed by
/// the run's scrape hooks.
///
/// When built [`TelemetrySink::disabled`], instrumented code must skip its
/// recording blocks (check [`TelemetrySink::is_enabled`]) so a
/// non-observed run does exactly the work of an unobserved one. The same
/// contract extends to the tsdb: a sink without one must leave the run
/// byte-identical to an observed run with one — scraping only *reads* the
/// registry and never touches the simulation.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    enabled: bool,
    /// Labeled metric series recorded by the run.
    pub registry: MetricsRegistry,
    /// Structured sim-time events recorded by the run.
    pub tracer: Tracer,
    /// Windowed sample store, present when the run was asked to scrape.
    pub tsdb: Option<tsdb::TimeSeriesDb>,
}

impl TelemetrySink {
    /// A sink that records nothing; the tracer is disabled and
    /// [`TelemetrySink::is_enabled`] is `false`.
    pub fn disabled() -> Self {
        TelemetrySink::default()
    }

    /// A sink recording metrics from `start` and keeping every trace
    /// event.
    pub fn recording(start: SimTime) -> Self {
        TelemetrySink {
            enabled: true,
            registry: MetricsRegistry::new(start),
            tracer: Tracer::unbounded(),
            tsdb: None,
        }
    }

    /// A recording sink that additionally samples every series into a
    /// [`tsdb::TimeSeriesDb`] on the `scrape` grid.
    pub fn recording_with_tsdb(start: SimTime, scrape: tsdb::ScrapeConfig) -> Self {
        TelemetrySink {
            tsdb: Some(tsdb::TimeSeriesDb::new(start, scrape)),
            ..TelemetrySink::recording(start)
        }
    }

    /// Whether instrumented code should record at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The windowed sample store, if this sink scrapes.
    pub fn tsdb(&self) -> Option<&tsdb::TimeSeriesDb> {
        self.tsdb.as_ref()
    }

    /// Samples the registry at `now` if a scrape-grid instant has come
    /// due. Drivers call this from periodic work they already do (e.g. a
    /// heartbeat sweep) so observation adds no simulation events. Returns
    /// whether a scrape happened.
    pub fn scrape_due(&mut self, now: SimTime) -> bool {
        match &mut self.tsdb {
            Some(db) if db.due(now) => {
                db.record(&self.registry, now);
                true
            }
            _ => false,
        }
    }

    /// Unconditionally samples the registry at `now` (deduplicated per
    /// instant). Drivers call this at run start and run end so every
    /// series has boundary samples — the anchor of the full-window
    /// exactness guarantees in [`tsdb`].
    pub fn scrape_now(&mut self, now: SimTime) {
        if let Some(db) = &mut self.tsdb {
            db.record(&self.registry, now);
        }
    }

    /// Flattens the registry into a [`MetricsSnapshot`] and appends the
    /// sink's own health series, so every export shows whether the
    /// observation layer itself lost data:
    ///
    /// * `telemetry_series_count` — registry cardinality at snapshot time;
    /// * `telemetry_trace_dropped_total` — events evicted by a ring
    ///   tracer ([`Tracer::dropped`]);
    /// * `telemetry_tsdb_samples_total` / `telemetry_tsdb_bytes_total` —
    ///   scrape volume, present only when the sink scrapes.
    ///
    /// A disabled sink returns the plain (empty) registry snapshot.
    pub fn snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut snap = self.registry.snapshot(now);
        if !self.enabled {
            return snap;
        }
        let count = self.registry.len() as f64;
        snap.rows.push(MetricRow {
            key: SeriesKey::new("telemetry_series_count", &[]),
            value: MetricValue::Gauge {
                value: count,
                mean: count,
                min: count,
                max: count,
                integral: 0.0,
            },
        });
        snap.rows.push(MetricRow {
            key: SeriesKey::new("telemetry_trace_dropped_total", &[]),
            value: MetricValue::Counter {
                total: self.tracer.dropped(),
            },
        });
        if let Some(db) = &self.tsdb {
            snap.rows.push(MetricRow {
                key: SeriesKey::new("telemetry_tsdb_samples_total", &[]),
                value: MetricValue::Counter {
                    total: db.samples(),
                },
            });
            snap.rows.push(MetricRow {
                key: SeriesKey::new("telemetry_tsdb_bytes_total", &[]),
                value: MetricValue::Counter {
                    total: db.bytes() as u64,
                },
            });
        }
        snap.rows.sort_by(|a, b| a.key.cmp(&b.key));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sort_and_compare() {
        let a = Labels::new(&[("b", "2"), ("a", "1")]);
        let b = Labels::new(&[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.get("a"), Some("1"));
        assert_eq!(a.to_string(), "{a=\"1\",b=\"2\"}");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_label_keys_panic() {
        Labels::new(&[("a", "1"), ("a", "2")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_metric_name_panics() {
        MetricsRegistry::new(SimTime::ZERO).counter("has space", &[]);
    }

    #[test]
    fn registry_series_are_independent_per_label() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.counter("req", &[("node", "0")]).add(1);
        reg.counter("req", &[("node", "1")]).add(2);
        assert_eq!(reg.get_counter("req", &[("node", "0")]).unwrap().value(), 1);
        assert_eq!(reg.get_counter("req", &[("node", "1")]).unwrap().value(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn snapshot_rows_are_sorted_and_deterministic() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.counter("z_total", &[]).add(1);
        reg.gauge("a_watts", &[("node", "1")])
            .set(SimTime::from_secs(1), 2.0);
        reg.histogram("m_ms", &[]).observe(4.0);
        let snap = reg.snapshot(SimTime::from_secs(2));
        let names: Vec<&str> = snap.rows.iter().map(|r| r.key.name.as_str()).collect();
        assert_eq!(names, ["a_watts", "m_ms", "z_total"]);
        assert_eq!(
            snap.to_jsonl(),
            reg.snapshot(SimTime::from_secs(2)).to_jsonl()
        );
    }

    #[test]
    fn exporters_cover_all_kinds() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.counter("requests_total", &[("node", "3")]).add(7);
        reg.gauge("power_watts", &[("node", "3")])
            .set(SimTime::from_secs(5), 3.5);
        reg.histogram("latency_ms", &[]).extend([1.0, 2.0, 3.0]);
        reg.histogram("empty_ms", &[]);
        let snap = reg.snapshot(SimTime::from_secs(10));

        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"name\":\"requests_total\""));
        assert!(jsonl.contains("\"total\":7"));
        assert!(jsonl.contains("\"p99\":3"));
        assert!(jsonl.contains("\"count\":0"));

        let csv = snap.to_csv();
        assert!(csv.starts_with("name,labels,kind,stat,value\n"));
        assert!(csv.contains("requests_total,\"node=3\",counter,total,7"));
        assert!(csv.contains("power_watts,\"node=3\",gauge,value,3.5"));

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE requests_total counter"));
        assert!(prom.contains("requests_total{node=\"3\"} 7"));
        assert!(prom.contains("# TYPE latency_ms summary"));
        assert!(prom.contains("latency_ms{quantile=\"0.5\"} 2"));
        assert!(prom.contains("latency_ms_count 3"));
        assert!(prom.contains("empty_ms_count 0"));
    }

    #[test]
    fn gauge_snapshot_reports_time_weighted_mean() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.gauge("u", &[]).set(SimTime::ZERO, 1.0);
        reg.gauge("u", &[]).set(SimTime::from_secs(1), 0.0);
        let snap = reg.snapshot(SimTime::from_secs(10));
        let MetricValue::Gauge { mean, .. } = snap.rows[0].value else {
            panic!("gauge row expected");
        };
        assert!((mean - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_in_order_with_fields() {
        let mut t = Tracer::unbounded();
        t.emit(SimTime::from_secs(1), "node_crash", |e| {
            e.u64("node", 3).str("why", "churn");
        });
        t.emit_span(
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            "outage",
            |e| {
                e.str("container", "web-3-0");
            },
        );
        assert_eq!(t.len(), 2);
        let ev: Vec<&TraceEvent> = t.events().collect();
        assert_eq!(ev[0].kind, "node_crash");
        assert_eq!(ev[0].field("node"), Some(&FieldValue::U64(3)));
        assert_eq!(
            ev[1].field("duration_ns"),
            Some(&FieldValue::U64(2_000_000_000))
        );
        let jsonl = t.to_jsonl();
        assert_eq!(
            jsonl.lines().next().unwrap(),
            "{\"seq\":0,\"t_ns\":1000000000,\"kind\":\"node_crash\",\"node\":3,\"why\":\"churn\"}"
        );
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        t.emit(SimTime::ZERO, "never", |_| {
            panic!("field builder must not run when disabled")
        });
        assert!(t.is_empty());
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = Tracer::ring(3);
        for i in 0..10u64 {
            t.emit(SimTime::from_secs(i), "tick", |e| {
                e.u64("i", i);
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.emitted(), 10);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
    }

    #[test]
    fn trace_jsonl_escapes_strings() {
        let mut t = Tracer::unbounded();
        t.emit(SimTime::ZERO, "note", |e| {
            e.str("msg", "a \"quoted\"\nline");
        });
        assert!(t.to_jsonl().contains("\"msg\":\"a \\\"quoted\\\"\\nline\""));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        // The exposition format requires \\, \" and \n escapes in label
        // values — including on the quantile series of summaries.
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        let awkward = "a\\b \"c\"\nd";
        reg.counter("c_total", &[("v", awkward)]).add(1);
        reg.histogram("h_ms", &[("v", awkward)]).observe(1.0);
        let prom = reg.snapshot(SimTime::ZERO).to_prometheus();
        let escaped = "a\\\\b \\\"c\\\"\\nd";
        assert!(
            prom.contains(&format!("c_total{{v=\"{escaped}\"}} 1")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("h_ms{{v=\"{escaped}\",quantile=\"0.5\"}}")),
            "{prom}"
        );
        // With the newline escaped, every record stays on one line.
        assert_eq!(prom.lines().count(), 8, "one record per line: {prom}");
    }

    #[test]
    fn csv_quotes_label_field() {
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.counter("c_total", &[("v", "say \"hi\", twice")]).add(2);
        let csv = reg.snapshot(SimTime::ZERO).to_csv();
        // The labels field is double-quoted with embedded quotes doubled,
        // so the comma inside the value does not split the row.
        assert!(
            csv.contains("c_total,\"v=say \"\"hi\"\", twice\",counter,total,2"),
            "{csv}"
        );
    }

    #[test]
    fn jsonl_round_trips_field_value_variants() {
        use serde::Content;
        let mut t = Tracer::unbounded();
        t.emit(SimTime::from_secs(1), "kinds", |e| {
            e.u64("u", u64::MAX)
                .i64("i", -42)
                .f64("f", 1.5)
                .f64("nan", f64::NAN)
                .bool("b", true)
                .str("s", "tab\there");
        });
        let jsonl = t.to_jsonl();
        let v: Content = serde_json::from_str(jsonl.trim()).expect("line parses");
        assert_eq!(v.get("u"), Some(&Content::U64(u64::MAX)));
        assert_eq!(v.get("i"), Some(&Content::I64(-42)));
        assert_eq!(v.get("f"), Some(&Content::F64(1.5)));
        assert_eq!(v.get("nan"), Some(&Content::Null), "non-finite → null");
        assert_eq!(v.get("b"), Some(&Content::Bool(true)));
        assert_eq!(v.get("s"), Some(&Content::Str("tab\there".to_owned())));
        assert_eq!(v.get("t_ns"), Some(&Content::U64(1_000_000_000)));
    }

    #[test]
    fn metrics_jsonl_lines_parse_as_json() {
        use serde::Content;
        let mut reg = MetricsRegistry::new(SimTime::ZERO);
        reg.counter("c_total", &[("v", "x\"y\\z\nw")]).add(1);
        reg.gauge("g", &[]).set(SimTime::ZERO, f64::INFINITY);
        for line in reg.snapshot(SimTime::from_secs(1)).to_jsonl().lines() {
            let v: Content = serde_json::from_str(line).expect("line parses");
            assert!(v.get("name").is_some());
            // The non-finite gauge value must export as null, not `inf`.
            if v.get("name") == Some(&Content::Str("g".to_owned())) {
                assert_eq!(v.get("value"), Some(&Content::Null));
            } else {
                assert_eq!(
                    v.get("labels").and_then(|l| l.get("v")),
                    Some(&Content::Str("x\"y\\z\nw".to_owned())),
                    "label value must round-trip through the escaping"
                );
            }
        }
    }
}
