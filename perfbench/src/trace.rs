//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into each
//! library layer: name, start, end, the enclosing span, and the request the
//! span served. Nothing is written while a phase runs; [`Tracer::write_tsv`]
//! dumps the buffer when the benchmark ends. A disabled tracer records
//! nothing and costs one branch per call, so the untraced run and the traced
//! run execute the same loop.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marker for "no span": the parent of a root span, and the id a disabled
/// tracer hands out.
pub const NONE: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `serving.flush`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// The request (ticket, edit or run index) the span served.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans before it grows.
    pub fn on(capacity: usize) -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    #[inline]
    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Closes span `id` under a name only known once the call returned
    /// (e.g. a poll that turned out to flush).
    #[inline]
    pub fn end_as(&mut self, id: u32, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans[id as usize].name = name;
        self.end(id);
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share of the root spans named `root` that their descendants' self
    /// times cover — the part of the wall time attributed to a layer rather
    /// than left in the root's own bookkeeping.
    pub fn coverage(&self, root: &str) -> f64 {
        let self_t = self.self_times();
        let (mut wall, mut root_self) = (0u64, 0u64);
        for (s, st) in self.spans.iter().zip(&self_t) {
            if s.name == root && s.parent == NONE {
                wall += s.dur_ns();
                root_self += st;
            }
        }
        if wall == 0 {
            return f64::NAN;
        }
        (wall - root_self) as f64 / wall as f64
    }

    /// Writes the spans as tab-separated `id name start_ns end_ns parent req`
    /// lines, with `header` lines first as `#` comments.
    pub fn write_tsv(&self, path: &Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for h in header {
            writeln!(out, "# {h}")?;
        }
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::on(8);
        let root = t.begin("root", 0);
        let a = t.begin("a", 0);
        let b = t.begin("b", 0);
        t.end(b);
        t.end(a);
        t.end(root);
        let spans = t.spans();
        let st = t.self_times();
        assert_eq!(st[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert_eq!(st[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(spans[2].parent, a);
        let cov = t.coverage("root");
        assert!((0.0..=1.0).contains(&cov));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("x", 1);
        t.end_as(id, "y");
        assert!(t.spans().is_empty());
        assert_eq!(id, NONE);
    }
}
