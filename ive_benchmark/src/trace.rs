//! The benchmark's own in-memory span recorder. Spans are recorded from
//! the benchmark's files only, around each call into a public function of
//! a layer; nothing inside the program under test is instrumented.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: which layer call, when, caused by which span, for
/// which request (0 for work that belongs to no request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// The innermost open span on this thread: the parent of the next.
    static CURRENT: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Keeps every span in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: AtomicBool::new(enabled),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off; a disabled recorder costs one load per
    /// [`Recorder::span`].
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a thread panicked while recording a span")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` on this
    /// thread become its children.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let parent = CURRENT.get();
        let id = {
            let mut spans = self.lock();
            spans.push(Span { name, request, parent, start_ns: self.now_ns(), end_ns: 0 });
            spans.len() - 1
        };
        CURRENT.set(Some(id as u32));
        let out = f();
        let end_ns = self.now_ns();
        CURRENT.set(parent);
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations, in milliseconds, of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of that interval its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            // Children on other threads may overlap: count their union.
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(name, count, total ms, self ms)`, by name.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut by_name = std::collections::BTreeMap::<&'static str, (usize, u64, u64)>::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    by_name.into_iter().map(|(n, (c, t, s))| (n, c, t as f64 / 1e6, s as f64 / 1e6)).collect()
}

/// Writes one JSON object per span, one per line, in recording order
/// (the line number is the span's id, which `parent` refers to).
pub fn dump(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{id},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", request: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 60),
            // Overlaps the previous child and outlives the parent.
            span(Some(0), 50, 120),
            span(Some(1), 15, 20),
        ];
        // Root: 100 − (20 + union(40..60, 50..100) = 60) = 20.
        assert_eq!(self_times_ns(&spans), vec![20, 15, 20, 70, 5]);
    }

    #[test]
    fn nested_calls_record_their_parent_and_disabled_records_nothing() {
        let rec = Recorder::new(true);
        let out = rec.span("outer", 7, || rec.span("inner", 7, || 42));
        assert_eq!(out, 42);
        rec.span("sibling", 8, || ());
        rec.set_enabled(false);
        rec.span("off", 9, || ());
        let spans = rec.spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.request, s.parent)).collect();
        assert_eq!(shape, [("outer", 7, None), ("inner", 7, Some(0)), ("sibling", 8, None)]);
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut text = Vec::new();
        dump(&spans, &mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 3);
    }
}
