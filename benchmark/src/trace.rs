//! Spans recorded by the harness around its calls into each layer: kept in
//! memory while the workload runs, written out once at exit.

use crate::record::json;
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// The instant span times are counted from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span { id, name, start_ns, end_ns, parent });
        id
    }

    /// Opens a span whose end is not known yet; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as a child of `parent`; returns its result and seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        let span = &self.spans[id as usize];
        (out, (span.end_ns - span.start_ns) as f64 / 1e9)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span as one JSON document. `sample_every`: how many spans of
    /// each sampled kind one recorded span stands for (1 = all recorded);
    /// totals in the result are exact either way.
    pub fn to_json(&self, workload: &str, sample_every: u32) -> String {
        Value::Object(vec![
            ("workload".into(), Value::String(workload.into())),
            ("sample_every".into(), json(&sample_every)),
            ("spans".into(), json(&self.spans)),
        ])
        .to_string()
    }
}
