//! The benchmark's own tracing: host-clock spans recorded around calls
//! into each layer's public functions, kept in memory and written out
//! when the run ends.

use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call: which layer, which request (trace lane, operator call
/// index or step), when, and the span that caused it.
#[derive(Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// In-memory span recorder with a stack of open spans, so a span opened
/// inside another records it as its parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, req: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            req,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded since the recorder held `from` of them.
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Durations (ns) of every span of `layer`.
    pub fn durations_ns(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total duration (s) of the spans of `layer`.
    pub fn total_s(&self, layer: &str) -> f64 {
        self.durations_ns(layer).iter().sum::<f64>() / 1e9
    }

    /// Median host cost (s) of recording one empty span, measured on a
    /// scratch recorder so the calibration spans stay out of this one.
    pub fn empty_span_cost_s() -> f64 {
        let mut t = Tracer::new();
        let rounds = 20_000;
        let mut per_round = Vec::with_capacity(5);
        for _ in 0..5 {
            let start = Instant::now();
            for i in 0..rounds {
                let id = t.begin("calibrate", i);
                t.end(id);
            }
            per_round.push(start.elapsed().as_secs_f64() / rounds as f64);
            t.spans.clear();
        }
        crate::metrics::median(&per_round)
    }

    /// Writes every span as tab-separated lines to
    /// `.bench_out/spans-<workload>-seed<seed>.tsv` under the working
    /// directory.
    pub fn write_out(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        std::fs::create_dir_all(".bench_out")?;
        let path = format!(".bench_out/spans-{workload}-seed{seed}.tsv");
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "id\tparent\tlayer\treq\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.layer, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(path)
    }
}
