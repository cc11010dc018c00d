//! Host-clock spans recorded by the benchmark around its own calls into
//! each layer. The program under test is not instrumented: every span
//! wraps one public function call made from here.
//!
//! A span has a name, a start, an end and a parent, and every span of
//! one op carries that op's id. A parent is the *logical* caller: a
//! replayed layer call (see `replay.rs`) names the span of the public
//! function that makes the same call internally, even though the replay
//! runs after that span has closed. A span's self time is its duration
//! minus the durations of its children.

use std::collections::BTreeMap;
use std::time::Instant;

use gpu_sim::trace::Trace;
use gpu_sim::Json;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span store; written out once, at exit.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Start a span of op `op` under `parent`.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: f64::NAN,
        });
        self.spans.len() - 1
    }

    /// End span `id`.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    fn dur_us(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end_us - s.start_us
    }

    /// Median, over the ops whose root span is named `root`, of the
    /// per-op total of `f(span)` for spans named `name`; such an op
    /// without a `name` span contributes 0.
    fn per_op_median(&self, root: &str, name: &str, f: impl Fn(SpanId) -> f64) -> f64 {
        let mut per_op: BTreeMap<u64, f64> = self
            .spans
            .iter()
            .filter(|s| s.name == root && s.parent.is_none())
            .map(|s| (s.op, 0.0))
            .collect();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == name {
                if let Some(total) = per_op.get_mut(&s.op) {
                    *total += f(id);
                }
            }
        }
        crate::stats::median(&per_op.into_values().collect::<Vec<_>>())
    }

    /// Median per-op duration (µs) of the spans named `name` in ops
    /// rooted at `root`.
    pub fn dur_median_us(&self, root: &str, name: &str) -> f64 {
        self.per_op_median(root, name, |id| self.dur_us(id))
    }

    /// Median per-op self time (µs) of the spans named `name` in ops
    /// rooted at `root`.
    pub fn self_median_us(&self, root: &str, name: &str) -> f64 {
        let mut children = vec![0.0f64; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p] += self.dur_us(id);
            }
        }
        self.per_op_median(root, name, |id| self.dur_us(id) - children[id])
    }

    /// The spans as a Chrome trace host track.
    pub fn to_trace(&self, process: String) -> Trace {
        let mut tr = Trace::new(process);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::num(p as f64));
            tr.span(
                s.name,
                "host",
                0,
                s.start_us,
                self.dur_us(id),
                vec![
                    ("op".into(), Json::num(s.op as f64)),
                    ("id".into(), Json::num(id as f64)),
                    ("parent".into(), parent),
                ],
            );
        }
        tr
    }
}
