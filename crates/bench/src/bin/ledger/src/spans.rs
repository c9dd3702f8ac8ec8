//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer: name, start, end, the span that caused it, and
//! the op (training step / request) it belongs to. Written once, at exit,
//! to `ledger_trace.<workload>.json`; spans inside the program are a
//! later change.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    op: u64,
}

/// Span buffer of one traced run. Owned by the driving thread; other
/// threads hand back instants and the owner records them afterwards.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its id for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    /// Opens a parent span whose end is patched by [`Tracer::close`], so
    /// children can name it while it is still running.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, None, op)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.us(Instant::now());
    }

    /// Summed duration in milliseconds of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .sum::<f64>()
            / 1e3
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + 96 * self.spans.len());
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"us\", \"spans\": ["
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {id}, \"name\": \"{}\", \"start\": {:.1}, \"end\": {:.1}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_us, s.end_us, s.op
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
    fn children_name_their_parent_and_means_group_by_name() {
        let mut t = Tracer::new();
        let op = t.open("op", 7);
        t.scope("forward", Some(op), 7, || std::hint::black_box(1 + 1));
        t.scope("forward", Some(op), 7, || ());
        t.close(op);
        assert_eq!(t.len(), 3);
        assert!(t.total_ms("forward") >= 0.0);
        assert_eq!(t.total_ms("absent"), 0.0);
        let json = t.to_json("w", 1);
        assert!(json.contains("\"parent\": 0, \"op\": 7"));
        assert!(json.contains("\"parent\": null"));
    }
}
