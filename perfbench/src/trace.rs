//! Spans around the benchmark's calls into each layer.
//!
//! Every thread that drives the system owns one [`Tracer`]. A span
//! records the layer call's name, start, end, the span that caused it
//! (its parent) and the request it belongs to. Spans stay in memory and
//! are written out once, at exit. With tracing off, [`Tracer::span`]
//! only calls the closure, so untraced runs pay one branch per call.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_REQ: AtomicU64 = AtomicU64::new(1);

/// A fresh request id shared by all spans of one operation.
pub fn request_id() -> u64 {
    NEXT_REQ.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 at top level.
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so span times line up.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Run `f` inside a span named `name` (a `layer.call` pair).
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().unwrap_or(0);
        let start = self.epoch.elapsed();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        });
        out
    }

    /// Durations in µs of every recorded span called `name`.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Move another thread's spans into this tracer.
    pub fn absorb(&mut self, other: &mut Tracer) {
        self.spans.append(&mut other.spans);
    }

    /// Write all spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.req,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_request() {
        let mut t = Tracer::new(true, Instant::now());
        let req = request_id();
        let v = t.span("net.execute", req, |t| t.span("sql.parse", req, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        let (inner, outer) = (&t.spans[0], &t.spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.req, outer.req);
        assert!(inner.start >= outer.start && inner.end <= outer.end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("net.execute", 1, |_| 3), 3);
        assert!(t.spans.is_empty());
    }
}
