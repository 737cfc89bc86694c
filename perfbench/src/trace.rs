//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer's public function, never from inside the program: name, start,
//! end, parent span, and one correlation id per round or diagnosis. They
//! stay in memory and are written out once, at exit, as a Chrome trace.
//! A disabled tracer records nothing, so untraced runs pay one branch per
//! call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Totals for one span name over the whole run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between sessions (the traced run
    /// alternates traced and untraced sessions to measure its overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let r = f();
        self.end(open);
        r
    }

    /// Count, total and self time per span name. Spans are recorded from
    /// one thread and nest strictly, so a parent's child time is the plain
    /// sum of its children's durations.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Median duration in ns of the spans called `name` (0 if none).
    pub fn median_ns(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::median(&mut v)
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
