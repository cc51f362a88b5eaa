//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around each call it makes
//! into a layer's public API; nothing inside the program is instrumented.
//! Each thread owns a [`Tracer`] (no locks on the measured path); the
//! threads' spans are merged and written out as JSON lines when the run
//! ends.

use std::io::Write;
use std::time::Instant;

/// One finished span. `req` groups the spans of one request; `parent`
/// names the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder. A disabled tracer runs the timed closures and records
/// nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`, shared by every
    /// thread of one run so merged spans line up.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a span timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                req,
                parent,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Duration in µs of the most recently recorded span (0 when none).
    pub fn last_us(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::micros)
    }

    /// Move another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations in µs of every span named `name`, in record order.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Summed duration in µs of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.micros(name).iter().fold(0.0, |acc, us| acc + us)
    }

    /// Write every span as one JSON object per line, ordered by start.
    pub fn write_jsonl(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.req,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
