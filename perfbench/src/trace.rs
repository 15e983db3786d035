//! Spans recorded by the benchmark's own code around its calls into each
//! layer's public functions.  Spans stay in memory while the run measures and
//! are written out once it ends; a disabled tracer never reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer plus one; 0 means "no span" (a root's parent,
/// or any span of a disabled tracer).
#[derive(Clone, Copy, Default)]
pub struct SpanId(u32);

pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub request: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans.
pub struct Tracer {
    on: bool,
    t0: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant, thread: u32) -> Self {
        Tracer {
            on,
            t0,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            name,
            request,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() as u32)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 > 0 {
            let now = self.now();
            self.spans[id.0 as usize - 1].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        request: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, name, request, parent);
        let out = f();
        self.end(id);
        out
    }
}

/// The spans of every thread of one traced run.
#[derive(Default)]
pub struct Trace {
    threads: Vec<Tracer>,
}

impl Trace {
    pub fn add(&mut self, tracer: Tracer) {
        self.threads.push(tracer);
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// Durations in seconds of every span with this layer and name.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// durations of its direct children (children nest inside their parent on
    /// the same thread, so they never overlap each other).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for tracer in &self.threads {
            let mut child_ns = vec![0u64; tracer.spans.len()];
            for span in &tracer.spans {
                if span.parent > 0 {
                    child_ns[span.parent as usize - 1] += span.end_ns - span.start_ns;
                }
            }
            for (span, children) in tracer.spans.iter().zip(child_ns) {
                let own = (span.end_ns - span.start_ns).saturating_sub(children);
                *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `thread id parent request layer name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "thread\tid\tparent\trequest\tlayer\tname\tstart_ns\tend_ns"
        )?;
        for tracer in &self.threads {
            for (i, s) in tracer.spans.iter().enumerate() {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    tracer.thread,
                    i + 1,
                    s.parent,
                    s.request,
                    s.layer,
                    s.name,
                    s.start_ns,
                    s.end_ns
                )?;
            }
        }
        out.flush()
    }
}
