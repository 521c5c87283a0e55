//! Spans recorded by the benchmark around every call into a layer.
//!
//! Spans are kept in memory and written out as JSON lines when the
//! workload ends. They are recorded from the benchmark's own files;
//! the program under test carries no instrumentation. A disabled
//! tracer records nothing, so the untraced run that produces the
//! end-to-end metrics keeps no spans in memory.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One timed interval: a layer call, or a group of them.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `shard.batch_insert`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Tick, round or request number; spans of one unit of work share it.
    pub id: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stop or resume recording. A traced run switches recording off
    /// for every few units of work, which then serve as the untraced
    /// reference the tracing overhead is measured against: interleaved,
    /// so that drift over the run cancels out.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the epoch, for spans timed elsewhere (the load
    /// generator's threads) and added with [`Tracer::push`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Open a span; `None` when disabled.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, id: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        Some(SpanId((self.spans.len() - 1) as u32))
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&mut self, span: Option<SpanId>) {
        if let Some(SpanId(i)) = span {
            self.spans[i as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f`, time it, and record the interval as a span when
    /// enabled. Returns `f`'s result and the elapsed milliseconds.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
                parent,
                id,
            });
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Add a span timed by the caller.
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Self time per span name in milliseconds: each span's duration
    /// minus the part of it its direct children cover.
    pub fn self_time_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |SpanId(p)| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a.b", None, 0);
        assert!(id.is_none());
        assert_eq!(t.timed("a.c", id, 1, || 7).0, 7);
        assert!(t.self_time_ms().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let parent = SpanId(0);
        t.push(Span {
            name: "tick",
            start_ns: 0,
            end_ns: 10_000_000,
            parent: None,
            id: 0,
        });
        t.push(Span {
            name: "layer.call",
            start_ns: 1_000_000,
            end_ns: 4_000_000,
            parent: Some(parent),
            id: 0,
        });
        t.push(Span {
            name: "layer.call",
            start_ns: 5_000_000,
            end_ns: 9_000_000,
            parent: Some(parent),
            id: 0,
        });
        let own = t.self_time_ms();
        assert_eq!(own["tick"], 3.0);
        assert_eq!(own["layer.call"], 7.0);
    }
}
