//! In-memory spans recorded from the benchmark's side of each public call
//! into a layer, written out as JSON when the run ends.
//!
//! A span is `(name, start, end, parent, op)`; the spans of one operation
//! share its `op` id.  A layer's *self time* is its span's duration minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The id of "no parent".
pub const ROOT: u32 = u32::MAX;

/// How many raw spans the trace file keeps (the per-name summary always
/// covers every recorded span).
const RAW_SPANS_WRITTEN: usize = 20_000;

/// Spans beyond this many per recorder are counted, not stored.
const SPAN_CAPACITY: usize = 4_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// One thread's span recorder.  Recorders made by [`Tracer::fork`] share the
/// parent's epoch, so their timestamps are comparable after [`Tracer::merge`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), dropped: 0 }
    }
}

impl Tracer {
    /// A recorder for another thread on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer { epoch: self.epoch, spans: Vec::new(), dropped: 0 }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::end`] and for children.
    pub fn begin(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        if self.spans.len() >= SPAN_CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened by [`Tracer::begin`]; returns its duration.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now();
        match self.spans.get_mut(id as usize) {
            Some(span) => {
                span.end_ns = now;
                now - span.start_ns
            }
            None => 0,
        }
    }

    /// Record a span around `f`; returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent, op);
        let out = f();
        (out, self.end(id))
    }

    /// Append another recorder's spans (parent ids are re-based).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(children);
        }
        by_name
    }

    /// Render the trace file: the per-name summary over every span, the
    /// exact counters taken at the same boundaries, and the first raw spans.
    pub fn to_json(&self, workload: &str, seed: u64, counters: &BTreeMap<String, f64>) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_dropped\":{},\n\"summary\":{{",
            self.spans.len(),
            self.dropped
        );
        for (k, (name, (count, total, own))) in self.summary().into_iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  \"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("\n},\n\"counters\":{");
        for (k, (name, value)) in counters.iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n  \"{name}\":{value}");
        }
        out.push_str("\n},\n\"spans\":[");
        for (id, s) in self.spans.iter().take(RAW_SPANS_WRITTEN).enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "{sep}\n  {{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::default();
        t.spans.push(Span { name: "op", start_ns: 0, end_ns: 100, parent: ROOT, op: 7 });
        t.spans.push(Span { name: "child", start_ns: 10, end_ns: 40, parent: 0, op: 7 });
        t.spans.push(Span { name: "child", start_ns: 50, end_ns: 90, parent: 0, op: 7 });
        let s = t.summary();
        assert_eq!(s["op"], (1, 100, 30));
        assert_eq!(s["child"], (2, 70, 70));
    }

    #[test]
    fn merging_rebases_parent_ids() {
        let mut a = Tracer::default();
        let root = a.begin("op", ROOT, 0);
        a.end(root);
        let mut b = a.fork();
        let op = b.begin("op", ROOT, 1);
        let child = b.begin("child", op, 1);
        b.end(child);
        b.end(op);
        a.merge(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[1].parent, ROOT);
        assert!(a.to_json("w", 1, &BTreeMap::new()).contains("\"parent\":1"));
    }
}
