//! In-memory span recorder for the traced `gpt_train` walk.
//!
//! Spans are timed from the benchmark's own code around each public layer
//! call; nothing inside the program crates is instrumented. They stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::time::Instant;

use symi_telemetry::json::{Obj, Value};

use crate::stats::self_time;

/// One timed call. `parent` indexes the enclosing span of the same step.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Transformer block the call belongs to, if any.
    pub layer: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One root span's time, split over its direct children by name.
pub struct StepBreakdown {
    pub total_ns: u64,
    pub children: BTreeMap<&'static str, u64>,
    /// The root's self time: `total_ns` minus the children.
    pub residual_ns: i64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span { name, layer: None, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: Option<usize>,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, Some(parent));
        self.spans[id].layer = layer;
        let r = f();
        self.end(id);
        r
    }

    /// Per root span: its children's summed durations by name and its
    /// self time.
    pub fn breakdown(&self) -> Vec<StepBreakdown> {
        let mut roots: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                None => {
                    roots.entry(i).or_default();
                }
                Some(p) => *roots.entry(p).or_default().entry(s.name).or_default() += s.dur_ns(),
            }
        }
        roots
            .into_iter()
            .map(|(root, children)| {
                let total_ns = self.spans[root].dur_ns();
                let kids: Vec<u64> = children.values().copied().collect();
                StepBreakdown { total_ns, residual_ns: self_time(total_ns, &kids), children }
            })
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = Obj::new();
                o.set("id", Value::u64(id as u64));
                o.set("name", Value::str(s.name));
                if let Some(l) = s.layer {
                    o.set("layer", Value::u64(l as u64));
                }
                o.set("parent", s.parent.map_or(Value::Null, |p| Value::u64(p as u64)));
                o.set("start_ns", Value::u64(s.start_ns));
                o.set("end_ns", Value::u64(s.end_ns));
                Value::Obj(o).to_string()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, layer: None, parent, start_ns, end_ns }
    }

    #[test]
    fn breakdown_sums_children_and_leaves_the_residual() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("step", None, 0, 100),
            span("attn", Some(0), 5, 25),
            span("attn", Some(0), 30, 40),
            span("adam", Some(0), 50, 90),
            span("step", None, 100, 150),
            span("adam", Some(4), 100, 150),
        ];
        let b = t.breakdown();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].total_ns, 100);
        assert_eq!(b[0].children["attn"], 30);
        assert_eq!(b[0].children["adam"], 40);
        assert_eq!(b[0].residual_ns, 30);
        assert_eq!(b[1].residual_ns, 0);
    }

    #[test]
    fn timed_spans_nest_under_their_parent() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("step", None);
        let v = t.time("work", Some(1), root, || 7);
        t.end(root);
        assert_eq!(v, 7);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].layer, Some(1));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.to_json_lines().len(), 2);
    }
}
