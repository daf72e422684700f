//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions: name, start, end, parent span and the
//! request id the span belongs to. Nothing is written until the run
//! ends ([`write_tsv`]); per-layer self time is the span's duration
//! minus the part its child spans cover ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request (statement) the span belongs to.
    pub req: u64,
}

/// A per-thread span recorder. When off, [`Tracer::span`] only calls
/// the closure, so the untraced run and the traced run share one code
/// path.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` that belongs to request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Total self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += (s.end - s.start).saturating_sub(child);
        e.1 += 1;
    }
    out
}

/// Write every span of every recorder as tab-separated lines:
/// `thread name start_ns end_ns parent req`.
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (t, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{t}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            )?;
        }
    }
    w.flush()
}
