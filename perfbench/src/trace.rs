//! Span recording for the traced run. Spans are taken from the
//! benchmark's side of each call into a layer (the program itself is not
//! instrumented), kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Spans of one job, committed to the tracer only once the job's
/// reconstruction checks out (see [`Tracer::commit`]).
#[derive(Debug, Default)]
pub struct JobSpans {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as span `name` of `job` under `parent` (an index into
    /// `buf`), returning its value and the span's index in `buf`.
    pub fn time<T>(
        &self,
        buf: &mut JobSpans,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let value = std::hint::black_box(f());
        let end_ns = self.now_ns();
        buf.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
        });
        (value, buf.spans.len() - 1)
    }

    /// Opens a span whose end is set by [`Tracer::close`] (for spans
    /// with children).
    pub fn open(&self, buf: &mut JobSpans, name: &'static str, job: u64) -> usize {
        let now = self.now_ns();
        buf.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            job,
        });
        buf.spans.len() - 1
    }

    pub fn close(&self, buf: &mut JobSpans, idx: usize) {
        buf.spans[idx].end_ns = self.now_ns();
    }

    /// Moves a job's spans into the trace, re-basing parent indices.
    pub fn commit(&mut self, buf: JobSpans) {
        let base = self.spans.len();
        self.spans.extend(buf.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Records an already measured interval (e.g. a wire round trip
    /// timed by a client thread).
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            job,
        };
        self.spans.push(span);
    }

    /// Mean duration (µs) of the spans named `name`, with their count.
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.us(), n + 1));
        if n == 0 {
            (0.0, 0)
        } else {
            (sum / n as f64, n)
        }
    }

    /// Per-name count, total and self time (µs): a span's self time is
    /// its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.us();
            e.2 += s.us() - child_us[i];
        }
        out
    }

    /// Prints the self-time table and writes the spans to `path`. A
    /// failed write is reported but does not fail the run: the span dump
    /// is a by-product, the metrics are already measured.
    pub fn finish(&self, path: &Path) {
        println!(
            "  {:<28} {:>9} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in self.self_times() {
            println!(
                "  {name:<28} {n:>9} {:>14.3} {:>14.3}",
                total / 1e3,
                own / 1e3
            );
        }
        match self.write(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(err) => eprintln!("could not write spans to {}: {err}", path.display()),
        }
    }

    /// Writes every span as one JSON line: name, start, end (ns from the
    /// run's origin), parent index and job id.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            )?;
        }
        out.flush()
    }
}
