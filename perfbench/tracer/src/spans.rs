//! An in-memory span recorder.
//!
//! A span is a named, timed interval with the identifier of the request
//! or cell it served and the span that caused it. Spans are kept in
//! memory and summarized when the run ends. Clock reads go through
//! `mocc_bench::timing`, the workspace's one monotonic-clock site.
//!
//! Nesting follows a per-thread stack of open spans; work handed to
//! another thread attaches to its caller's span through
//! [`Tracer::under`]. A disabled recorder runs the closures and records
//! nothing, which gives the untraced wall time tracing overhead is
//! measured against.

use mocc_bench::timing::monotonic_secs;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One recorded interval, in seconds on the process-wide monotonic
/// clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.current();
        let idx = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                id,
                parent,
                start: monotonic_secs(),
                end: f64::NAN,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let out = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = monotonic_secs();
        self.spans.lock().expect("span recorder poisoned")[idx].end = end;
        out
    }

    /// Runs `f` (which opens no spans) and records it under the name
    /// `name` picks from its result, e.g. a store hit or miss.
    pub fn timed<R>(
        &self,
        id: u64,
        f: impl FnOnce() -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        if !self.on {
            return f();
        }
        let parent = self.current();
        let start = monotonic_secs();
        let out = f();
        let end = monotonic_secs();
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(Span {
                name: name(&out),
                id,
                parent,
                start,
                end,
            });
        out
    }

    /// Runs `f` on this thread as if `parent` were open here, so spans
    /// of work handed to a worker thread attach to the span that
    /// handed it over.
    pub fn under<R>(&self, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        match parent {
            Some(p) if self.on => {
                OPEN.with(|o| o.borrow_mut().push(p));
                let out = f();
                OPEN.with(|o| o.borrow_mut().pop());
                out
            }
            _ => f(),
        }
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on {
            *self
                .counts
                .lock()
                .expect("counter poisoned")
                .entry(name)
                .or_insert(0) += n;
        }
    }

    pub fn into_parts(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            self.spans.into_inner().expect("span recorder poisoned"),
            self.counts.into_inner().expect("counter poisoned"),
        )
    }
}

/// Per-span self time: its duration minus the part its children
/// cover (children running on other threads can overlap; the result
/// is floored at zero).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}
