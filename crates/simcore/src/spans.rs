//! Causal span tracing over the [`crate::telemetry::Tracer`].
//!
//! The flat tracer answers *what happened when*; spans answer *why it took
//! that long*. A span is a named interval of sim-time with an optional
//! parent, recorded as a `span_start` / `span_end` event pair carrying a
//! [`SpanId`] link (Dapper-style). Instrumented layers thread a
//! [`SpanContext`] through their cross-node work — a heartbeat RPC becomes
//! a child of the sweep that issued it, an image pull a child of the
//! recovery that needed it — and the recorded events reconstruct into a
//! [`SpanForest`].
//!
//! On top of the forest, [`SpanForest::critical_path`] extracts the chain
//! of sub-spans that actually gated a root span's completion, attributing
//! every nanosecond of the root's duration either to a descendant on the
//! path or to the span's own self-time, so blame percentages always sum
//! to 100 %. Children are clamped to their parent's window first, which
//! keeps the arithmetic exact even when an async child (a spawn RPC, say)
//! outlives the interval being explained.
//!
//! Like the tracer it rides on, the whole layer is zero-alloc when
//! tracing is disabled ([`crate::telemetry::Tracer::span_start`] returns
//! [`SpanId::NONE`] without calling the field builder) and
//! byte-deterministic for a fixed seed: ids are allocated in emission
//! order and every container below iterates sorted.
//!
//! # Example
//!
//! ```
//! use picloud_simcore::spans::{SpanForest, SpanId};
//! use picloud_simcore::telemetry::Tracer;
//! use picloud_simcore::SimTime;
//!
//! let mut t = Tracer::unbounded();
//! let job = t.span_start(SimTime::ZERO, "job", SpanId::NONE, |_| {});
//! let map = t.span_start(SimTime::ZERO, "map", job, |_| {});
//! t.span_end(SimTime::from_secs(3), map, |_| {});
//! t.span_end(SimTime::from_secs(4), job, |_| {});
//!
//! let forest = SpanForest::from_tracer(&t);
//! let path = forest.critical_path(job).unwrap();
//! assert_eq!(path.total(), picloud_simcore::SimDuration::from_secs(4));
//! // 3 s blamed on `map`, 1 s on `job` itself.
//! assert_eq!(path.steps.len(), 2);
//! ```

use crate::telemetry::{json_escape, FieldValue, TraceEvent, Tracer};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Identity of one recorded span. `SpanId::NONE` (zero) means "no span":
/// it is what a disabled tracer hands out, and what roots carry as their
/// parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: no recording happened, or no parent exists.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real recorded span (non-zero).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }

    /// Whether this is the null span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// The thin propagation handle instrumented APIs accept: "make your spans
/// children of this". Passing [`SpanContext::NONE`] roots them instead.
///
/// Layers that cross crate boundaries (the RPC plane, the SDN controller,
/// MapReduce execution) take a `SpanContext` rather than a bare [`SpanId`]
/// so call sites read as context propagation, not bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext(SpanId);

impl SpanContext {
    /// No enclosing span: children become roots.
    pub const NONE: SpanContext = SpanContext(SpanId::NONE);

    /// A context whose children attach under `span`.
    pub fn of(span: SpanId) -> Self {
        SpanContext(span)
    }

    /// The span new work should attach under.
    pub fn span(self) -> SpanId {
        self.0
    }
}

/// One reconstructed span: interval, parentage and the custom fields its
/// start/end events carried.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's id.
    pub id: SpanId,
    /// Span name, e.g. `recovery` or `rpc` (catalogue in
    /// `OBSERVABILITY.md`).
    pub name: String,
    /// Parent span, [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed; `None` if no `span_end` was recorded.
    pub end: Option<SimTime>,
    /// Custom fields from the `span_start` event (envelope keys stripped).
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Custom fields from the `span_end` event (envelope keys stripped).
    pub end_fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// The span's duration; zero if it never closed.
    pub fn duration(&self) -> SimDuration {
        self.end
            .unwrap_or(self.start)
            .saturating_duration_since(self.start)
    }

    /// Looks a custom field up by key, end fields first (outcomes live
    /// there), then start fields.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.end_fields
            .iter()
            .chain(self.fields.iter())
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// All spans reconstructed from a trace, indexed by id with parent/child
/// links resolved. Spans whose parent was never recorded (ring-buffer
/// eviction) are treated as roots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanForest {
    spans: BTreeMap<u64, SpanRecord>,
    children: BTreeMap<u64, Vec<SpanId>>,
    roots: Vec<SpanId>,
}

impl SpanForest {
    /// Reconstructs the forest from a tracer's retained events.
    pub fn from_tracer(tracer: &Tracer) -> Self {
        Self::from_events(tracer.events())
    }

    /// Reconstructs the forest from raw trace events (oldest first).
    /// Non-span events are ignored; a `span_end` without a matching start
    /// is dropped.
    pub fn from_events<'a>(events: impl Iterator<Item = &'a TraceEvent>) -> Self {
        let mut spans: BTreeMap<u64, SpanRecord> = BTreeMap::new();
        for ev in events {
            match ev.kind {
                "span_start" => {
                    let Some(&FieldValue::U64(id)) = ev.field("span") else {
                        continue;
                    };
                    let parent = match ev.field("parent") {
                        Some(&FieldValue::U64(p)) => SpanId(p),
                        _ => SpanId::NONE,
                    };
                    let name = match ev.field("name") {
                        Some(FieldValue::Str(n)) => n.clone(),
                        _ => String::new(),
                    };
                    let fields = ev
                        .fields
                        .iter()
                        .filter(|(k, _)| !matches!(*k, "span" | "parent" | "name"))
                        .cloned()
                        .collect();
                    spans.insert(
                        id,
                        SpanRecord {
                            id: SpanId(id),
                            name,
                            parent,
                            start: ev.time,
                            end: None,
                            fields,
                            end_fields: Vec::new(),
                        },
                    );
                }
                "span_end" => {
                    let Some(&FieldValue::U64(id)) = ev.field("span") else {
                        continue;
                    };
                    if let Some(rec) = spans.get_mut(&id) {
                        rec.end = Some(ev.time);
                        rec.end_fields = ev
                            .fields
                            .iter()
                            .filter(|(k, _)| *k != "span")
                            .cloned()
                            .collect();
                    }
                }
                _ => {}
            }
        }
        let mut children: BTreeMap<u64, Vec<SpanId>> = BTreeMap::new();
        let mut roots = Vec::new();
        for rec in spans.values() {
            if rec.parent.is_some() && spans.contains_key(&rec.parent.0) {
                children.entry(rec.parent.0).or_default().push(rec.id);
            } else {
                roots.push(rec.id);
            }
        }
        SpanForest {
            spans,
            children,
            roots,
        }
    }

    /// The record for `id`, if recorded.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        self.spans.get(&id.0)
    }

    /// Root spans (no recorded parent), in id order.
    pub fn roots(&self) -> &[SpanId] {
        &self.roots
    }

    /// Direct children of `id`, in id (= creation) order.
    pub fn children(&self, id: SpanId) -> &[SpanId] {
        self.children.get(&id.0).map_or(&[], Vec::as_slice)
    }

    /// All spans, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.values()
    }

    /// Number of reconstructed spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace held no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Root spans named `name`, in id order.
    pub fn roots_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.roots
            .iter()
            .filter_map(move |&r| self.get(r))
            .filter(move |r| r.name == name)
    }

    /// One JSON object per span, in id order:
    /// `{"span","name","parent","start_ns","end_ns","duration_ns",...}`
    /// followed by the span's custom start then end fields.
    /// Byte-deterministic for a fixed trace.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.spans.values() {
            out.push_str(&format!("{{\"span\":{},\"name\":\"", rec.id.0));
            json_escape(&rec.name, &mut out);
            out.push_str(&format!(
                "\",\"parent\":{},\"start_ns\":{}",
                rec.parent.0,
                rec.start.as_nanos()
            ));
            match rec.end {
                Some(end) => out.push_str(&format!(
                    ",\"end_ns\":{},\"duration_ns\":{}",
                    end.as_nanos(),
                    rec.duration().as_nanos()
                )),
                None => out.push_str(",\"end_ns\":null,\"duration_ns\":null"),
            }
            for (k, v) in rec.fields.iter().chain(rec.end_fields.iter()) {
                out.push_str(&format!(",\"{k}\":"));
                match v {
                    FieldValue::U64(v) => out.push_str(&format!("{v}")),
                    FieldValue::I64(v) => out.push_str(&format!("{v}")),
                    FieldValue::F64(v) => {
                        if v.is_finite() {
                            out.push_str(&format!("{v}"));
                        } else {
                            out.push_str("null");
                        }
                    }
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

    /// Deterministic text tree of the subtree under `root` — name,
    /// interval and duration per span, children indented in id order.
    pub fn render_tree(&self, root: SpanId) -> String {
        let mut out = String::new();
        self.render_into(root, 0, &mut out);
        out
    }

    fn render_into(&self, id: SpanId, depth: usize, out: &mut String) {
        let Some(rec) = self.get(id) else {
            return;
        };
        let indent = "  ".repeat(depth);
        let end = match rec.end {
            Some(e) => format!("{:.3}s", e.as_secs_f64()),
            None => "open".to_owned(),
        };
        out.push_str(&format!(
            "{indent}{} [{:.3}s \u{2192} {end}] {:.3}s",
            rec.name,
            rec.start.as_secs_f64(),
            rec.duration().as_secs_f64(),
        ));
        for (k, v) in &rec.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for &c in self.children(id) {
            self.render_into(c, depth + 1, out);
        }
    }

    /// Extracts the critical path through the subtree rooted at `root`:
    /// the backward walk from the root's end that always descends into the
    /// child gating completion (latest clamped end; ties break toward the
    /// later-created span). Gaps no child covers are the parent's
    /// self-time. Returns `None` if `root` was never recorded.
    ///
    /// The returned steps partition `[root.start, root.end]` exactly, so
    /// [`CriticalPath::blame`] always sums to the root's duration.
    pub fn critical_path(&self, root: SpanId) -> Option<CriticalPath> {
        let rec = self.get(root)?;
        let end = rec.end.unwrap_or(rec.start);
        let mut steps = Vec::new();
        self.walk_path(root, rec.start, end, 0, &mut steps);
        steps.reverse();
        Some(CriticalPath {
            root,
            start: rec.start,
            end,
            steps,
        })
    }

    /// Backward walk attributing `[lo, hi]` of `span`'s time; emits steps
    /// in reverse-chronological order (the caller reverses once).
    fn walk_path(
        &self,
        span: SpanId,
        lo: SimTime,
        hi: SimTime,
        depth: usize,
        out: &mut Vec<PathStep>,
    ) {
        let name = self.get(span).map_or("", |r| r.name.as_str()).to_owned();
        // Children clamped to the window; zero-width children cannot gate
        // anything and are skipped.
        let mut kids: Vec<(SimTime, SimTime, SpanId)> = self
            .children(span)
            .iter()
            .filter_map(|&c| {
                let r = self.get(c)?;
                let s = r.start.max(lo).min(hi);
                let e = r.end.unwrap_or(r.start).min(hi).max(lo);
                (s < e).then_some((s, e, c))
            })
            .collect();
        let mut t = hi;
        while t > lo {
            // The child gating completion at `t`: latest clamped end, ties
            // to the later-created (larger-id) span.
            let best = kids
                .iter()
                .filter_map(|&(s, e, c)| {
                    let e = e.min(t);
                    (s < e).then_some((e, c, s))
                })
                .max_by_key(|&(e, c, _)| (e, c));
            let Some((e, c, s)) = best else { break };
            if e < t {
                out.push(PathStep {
                    span,
                    name: name.clone(),
                    start: e,
                    end: t,
                    depth,
                });
            }
            self.walk_path(c, s, e, depth + 1, out);
            t = s;
            kids.retain(|&(_, _, k)| k != c);
        }
        if t > lo {
            out.push(PathStep {
                span,
                name,
                start: lo,
                end: t,
                depth,
            });
        }
    }
}

/// One segment of a critical path: `[start, end]` of the root's duration
/// blamed on `span`'s self-time.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The span this segment's time is blamed on.
    pub span: SpanId,
    /// That span's name.
    pub name: String,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// Nesting depth below the root (root = 0).
    pub depth: usize,
}

impl PathStep {
    /// The segment's width.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The critical path through one root span: chronological self-time
/// segments that partition the root's `[start, end]` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The root span explained.
    pub root: SpanId,
    /// Root start.
    pub start: SimTime,
    /// Root end.
    pub end: SimTime,
    /// Chronological blame segments; durations sum to [`Self::total`].
    pub steps: Vec<PathStep>,
}

impl CriticalPath {
    /// The root span's duration — what the path explains.
    pub fn total(&self) -> SimDuration {
        self.end.saturating_duration_since(self.start)
    }

    /// Self-time per span name, in name order. Sums to [`Self::total`].
    pub fn blame(&self) -> Vec<(String, SimDuration)> {
        let mut by_name: BTreeMap<&str, SimDuration> = BTreeMap::new();
        for s in &self.steps {
            let d = by_name.entry(s.name.as_str()).or_insert(SimDuration::ZERO);
            *d = d.saturating_add(s.duration());
        }
        by_name
            .into_iter()
            .map(|(n, d)| (n.to_owned(), d))
            .collect()
    }

    /// Deterministic text rendering: one line per segment with interval,
    /// self-time and percentage of the total (percentages sum to 100 %).
    pub fn render(&self) -> String {
        let total = self.total().as_secs_f64();
        let mut out = format!(
            "critical path [{:.3}s \u{2192} {:.3}s] total {:.3}s\n",
            self.start.as_secs_f64(),
            self.end.as_secs_f64(),
            total
        );
        for s in &self.steps {
            let d = s.duration().as_secs_f64();
            let pct = if total > 0.0 { d / total * 100.0 } else { 0.0 };
            out.push_str(&format!(
                "  [{:>10.3}s \u{2192} {:>10.3}s] {:>9.3}s {:>5.1}%  {}{}\n",
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                d,
                pct,
                "  ".repeat(s.depth),
                s.name
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// crash(10) → detect ends 17 → image_pull ends 19 → start ends 19
    /// (zero-width after clamping to the root, which closed at 19).
    fn recovery_like() -> (Tracer, SpanId) {
        let mut t = Tracer::unbounded();
        let root = t.span_start(secs(10), "recovery", SpanId::NONE, |e| {
            e.str("container", "web-3-0");
        });
        let detect = t.span_start(secs(10), "detect", root, |_| {});
        t.span_end(secs(17), detect, |_| {});
        let pull = t.span_start(secs(17), "image_pull", root, |_| {});
        t.span_end(secs(19), pull, |_| {});
        let start = t.span_start(secs(19), "container_start", root, |_| {});
        t.span_end(secs(19), start, |_| {});
        t.span_end(secs(19), root, |e| {
            e.bool("recovered", true);
        });
        (t, root)
    }

    #[test]
    fn forest_reconstructs_hierarchy() {
        let (t, root) = recovery_like();
        let f = SpanForest::from_tracer(&t);
        assert_eq!(f.len(), 4);
        assert_eq!(f.roots(), [root]);
        assert_eq!(f.children(root).len(), 3);
        let rec = f.get(root).unwrap();
        assert_eq!(rec.name, "recovery");
        assert_eq!(rec.duration(), SimDuration::from_secs(9));
        assert_eq!(rec.field("recovered"), Some(&FieldValue::Bool(true)));
        assert_eq!(
            rec.field("container"),
            Some(&FieldValue::Str("web-3-0".into()))
        );
    }

    #[test]
    fn critical_path_partitions_the_root_exactly() {
        let (t, root) = recovery_like();
        let f = SpanForest::from_tracer(&t);
        let p = f.critical_path(root).unwrap();
        assert_eq!(p.total(), SimDuration::from_secs(9));
        let sum: u64 = p.steps.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(sum, p.total().as_nanos(), "blame must sum to 100%");
        let names: Vec<&str> = p.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["detect", "image_pull"]);
        let blame = p.blame();
        assert_eq!(
            blame,
            [
                ("detect".to_owned(), SimDuration::from_secs(7)),
                ("image_pull".to_owned(), SimDuration::from_secs(2)),
            ]
        );
    }

    #[test]
    fn parent_self_time_fills_gaps() {
        let mut t = Tracer::unbounded();
        let root = t.span_start(secs(0), "job", SpanId::NONE, |_| {});
        let child = t.span_start(secs(2), "work", root, |_| {});
        t.span_end(secs(5), child, |_| {});
        t.span_end(secs(8), root, |_| {});
        let f = SpanForest::from_tracer(&t);
        let p = f.critical_path(root).unwrap();
        // job[0..2], work[2..5], job[5..8]
        let names: Vec<&str> = p.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["job", "work", "job"]);
        let blame = p.blame();
        assert_eq!(blame[0], ("job".to_owned(), SimDuration::from_secs(5)));
        assert_eq!(blame[1], ("work".to_owned(), SimDuration::from_secs(3)));
    }

    #[test]
    fn overlapping_children_pick_the_gating_one() {
        let mut t = Tracer::unbounded();
        let root = t.span_start(secs(0), "shuffle", SpanId::NONE, |_| {});
        let a = t.span_start(secs(0), "flow_a", root, |_| {});
        let b = t.span_start(secs(1), "flow_b", root, |_| {});
        t.span_end(secs(4), a, |_| {});
        t.span_end(secs(6), b, |_| {});
        t.span_end(secs(6), root, |_| {});
        let f = SpanForest::from_tracer(&t);
        let p = f.critical_path(root).unwrap();
        // flow_b gates [1..6]; flow_a covers the remaining [0..1].
        let names: Vec<&str> = p.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["flow_a", "flow_b"]);
        assert_eq!(p.steps[0].duration(), SimDuration::from_secs(1));
        assert_eq!(p.steps[1].duration(), SimDuration::from_secs(5));
    }

    #[test]
    fn child_outliving_parent_is_clamped() {
        let mut t = Tracer::unbounded();
        let root = t.span_start(secs(0), "root", SpanId::NONE, |_| {});
        let late = t.span_start(secs(1), "late", root, |_| {});
        t.span_end(secs(2), root, |_| {});
        t.span_end(secs(9), late, |_| {});
        let f = SpanForest::from_tracer(&t);
        let p = f.critical_path(root).unwrap();
        assert_eq!(p.total(), SimDuration::from_secs(2));
        let sum: u64 = p.steps.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(sum, 2_000_000_000, "clamping keeps the partition exact");
    }

    #[test]
    fn disabled_tracer_allocates_no_spans() {
        let mut t = Tracer::disabled();
        let id = t.span_start(SimTime::ZERO, "never", SpanId::NONE, |_| {
            panic!("builder must not run when disabled")
        });
        assert!(id.is_none());
        t.span_end(SimTime::ZERO, id, |_| {
            panic!("builder must not run when disabled")
        });
        assert_eq!(t.emitted(), 0);
        assert!(SpanForest::from_tracer(&t).is_empty());
    }

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let (mut t, _) = recovery_like();
        t.span_start(secs(20), "a\tnote", SpanId::NONE, |e| {
            e.str("msg", "q\"b\\n\nr\rt\tu\u{1}");
        });
        let f = SpanForest::from_tracer(&t);
        let a = f.to_jsonl();
        assert_eq!(a, SpanForest::from_tracer(&t).to_jsonl());
        assert_eq!(a.lines().count(), 5);
        assert!(a.contains("\"name\":\"recovery\""));
        assert!(a.contains("\"container\":\"web-3-0\""));
        assert!(a.contains("\"duration_ns\":9000000000"));
        // Names and string fields escape every control character, so each
        // span stays one line of valid JSON.
        assert!(a.contains(r#""name":"a\tnote""#), "{a}");
        assert!(a.contains(r#""msg":"q\"b\\n\nr\rt\tu\u0001""#), "{a}");
        let line = a.lines().last().unwrap();
        let v: serde::Content = serde_json::from_str(line).expect("line parses");
        assert_eq!(
            v.get("msg"),
            Some(&serde::Content::Str("q\"b\\n\nr\rt\tu\u{1}".to_owned()))
        );
    }

    #[test]
    fn unclosed_span_exports_null_end() {
        let mut t = Tracer::unbounded();
        t.span_start(secs(1), "forever", SpanId::NONE, |_| {});
        let f = SpanForest::from_tracer(&t);
        assert!(f.to_jsonl().contains("\"end_ns\":null"));
        let rec = f.iter().next().unwrap();
        assert_eq!(rec.duration(), SimDuration::ZERO);
    }

    #[test]
    fn render_tree_indents_children() {
        let (t, root) = recovery_like();
        let f = SpanForest::from_tracer(&t);
        let tree = f.render_tree(root);
        assert!(tree.starts_with("recovery "));
        assert!(tree.contains("\n  detect "));
        assert!(tree.contains("\n  image_pull "));
    }
}
