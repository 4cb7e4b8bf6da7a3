//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and their export as a Chrome/Perfetto trace.

use std::time::Instant;

use sb_obs::json::JsonValue;
use sb_obs::perfetto::PerfettoTrace;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `setup.mem_caches`.
    pub name: String,
    /// Track the span belongs to (one per workload).
    pub track: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while the span is open).
    pub dur_ns: u64,
}

/// Records nested spans; all are kept in memory until exported.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    track: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            track: 0,
        }
    }
}

impl Tracer {
    /// Sets the track new spans are recorded on.
    pub fn set_track(&mut self, track: usize) {
        self.track = track;
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            track: self.track,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end() without a matching begin()");
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[idx].dur_ns = now - self.spans[idx].start_ns;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let v = f();
        self.end();
        v
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the durations of its
    /// direct children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .skip(idx + 1)
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.dur_ns)
            .sum();
        self.spans[idx].dur_ns.saturating_sub(children)
    }

    /// Summed self time of every span called `name` inside span `root`
    /// (at any depth).
    pub fn self_ns_within(&self, root: usize, name: &str) -> u64 {
        (root + 1..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.descends_from(i, root))
            .map(|i| self.self_ns(i))
            .sum()
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// The spans as a Chrome/Perfetto JSON document (microsecond
    /// timestamps), one track per workload under one process.
    pub fn to_perfetto(&self, track_names: &[&str]) -> JsonValue {
        let mut t = PerfettoTrace::new();
        t.process_name(0, "benchmark");
        for (tid, name) in track_names.iter().enumerate() {
            t.thread_name(0, tid as u64, name);
        }
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or("");
            t.complete(
                0,
                s.track as u64,
                &s.name,
                cat,
                s.start_ns / 1_000,
                s.dur_ns / 1_000,
                vec![("self_ns".to_string(), JsonValue::from(self.self_ns(i)))],
            );
        }
        t.to_json()
    }
}
