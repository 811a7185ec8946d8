//! Host-time spans recorded around the benchmark's own calls into each
//! layer. Nothing here reaches into the simulation crates: a span
//! brackets one public call (generate, inject, advance, estimate,
//! collect, export) made by the workload code in this package.
//!
//! A span's *self time* is its duration minus the part covered by its
//! child spans, so the self times of every span in a run add up to the
//! run span's duration. Self time and call counts are aggregated per
//! span name as spans close; full span records are kept in memory only
//! when asked for, and written out once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Self time and call count accumulated for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Nanoseconds inside spans of this name, minus their children.
    pub self_ns: u64,
    /// Spans of this name closed.
    pub calls: u64,
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Sequential id within the process.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `network.flowsim.inject`.
    pub name: &'static str,
    /// The run the span belongs to (its index in the pass).
    pub run: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// The span recorder. While switched off it runs the wrapped closures
/// and nothing else, so untraced runs pay no timing calls.
pub struct Tracer {
    enabled: bool,
    keep: bool,
    origin: Instant,
    run: u64,
    next_id: u64,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, LayerTime>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer that starts switched off. `keep` retains every span
    /// record for [`Tracer::to_jsonl`] on top of the per-name aggregates.
    pub fn new(keep: bool) -> Tracer {
        Tracer {
            enabled: false,
            keep,
            origin: Instant::now(),
            run: 0,
            next_id: 0,
            stack: Vec::new(),
            layers: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// Switches timing on or off between runs.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with run index `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        self.close(end_ns);
        out
    }

    fn close(&mut self, end_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        let layer = self.layers.entry(open.name).or_default();
        layer.self_ns += dur.saturating_sub(open.child_ns);
        layer.calls += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.keep {
            self.spans.push(SpanRecord {
                id: open.id,
                parent,
                name: open.name,
                run: self.run,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Closes every span still open — after a run panicked inside one.
    pub fn unwind(&mut self) {
        let end_ns = self.now_ns();
        while !self.stack.is_empty() {
            self.close(end_ns);
        }
    }

    /// Self time and calls per span name, accumulated so far.
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTime> {
        &self.layers
    }

    /// Every retained span as JSON Lines, in closing order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_times_partition_the_parent() {
        let mut tr = Tracer::new(true);
        tr.set_enabled(true);
        tr.span("run", |tr| {
            tr.span("a", |_| spin(200_000));
            tr.span("b", |tr| tr.span("a", |_| spin(100_000)));
        });
        let l = tr.layers();
        assert_eq!(l["a"].calls, 2);
        assert_eq!(l["b"].calls, 1);
        let total: u64 = l.values().map(|x| x.self_ns).sum();
        let run = tr.spans.iter().find(|s| s.name == "run").expect("run span");
        assert_eq!(total, run.end_ns - run.start_ns);
        assert!(l["a"].self_ns >= 300_000);
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl
            .lines()
            .last()
            .expect("run line")
            .contains("\"parent\":null"));
    }

    #[test]
    fn switched_off_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let v = tr.span("run", |tr| tr.span("a", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.layers().is_empty());
        assert!(tr.to_jsonl().is_empty());
    }
}
