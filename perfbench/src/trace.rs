//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer (`Graph::*_from_edges`, `Runtime::new`, `try_bind`,
//! `execute` and each `observe` interval, `serve`, `recover`), or
//! synthesized after the fact from what the layer returns (per-request
//! service spans from `ServeOutcome`). Nothing is written until
//! [`Tracer::write_tsv`] at the end of the run. A disabled tracer
//! records nothing and costs one branch per call.

use crate::stats::{self, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (meaningless when tracing is off).
pub type SpanId = usize;

/// The id `add` and `begin` return when tracing is off.
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Spans of one query or request share this identifier.
    pub query: Option<u64>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        query: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent: parent.filter(|&p| p != NO_SPAN),
            query,
        });
        self.spans.len() - 1
    }

    /// Opens a span at `start`; close it with [`Self::end`] once its
    /// children are recorded.
    pub fn begin(&mut self, name: &'static str, start: Instant, parent: Option<SpanId>) -> SpanId {
        self.add(name, start, start, parent, None)
    }

    pub fn end(&mut self, id: SpanId, end: Instant) {
        if id != NO_SPAN {
            let end = self.ns(end);
            let span = &mut self.spans[id];
            span.end = end.max(span.start);
        }
    }

    fn intervals(&self) -> Vec<Interval> {
        self.spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent,
            })
            .collect()
    }

    /// Total duration and total self time per span name, in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(stats::self_times(&self.intervals())) {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += s.end - s.start;
            e.1 += own;
        }
        out
    }

    /// Self time of one span: its duration minus what its children
    /// cover (0 when tracing is off).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let Some(s) = self.spans.get(id) else {
            return 0;
        };
        let mut local = vec![Interval {
            start: s.start,
            end: s.end,
            parent: None,
        }];
        local.extend(
            self.spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| Interval {
                    start: c.start,
                    end: c.end,
                    parent: Some(0),
                }),
        );
        stats::self_times(&local)[0]
    }

    /// Writes one tab-separated line per span: id, parent, query, name,
    /// start and end (ns from the run's origin) and self time (ns).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tquery\tname\tstart_ns\tend_ns\tself_ns")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, (s, own)) in self
            .spans
            .iter()
            .zip(stats::self_times(&self.intervals()))
            .enumerate()
        {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{own}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.query),
                s.name,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
