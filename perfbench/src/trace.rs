//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! The program itself is not instrumented: a span covers one call the
//! benchmark makes into a layer's public function. Only the per-name totals
//! of duration and work items are kept. With tracing off, [`Tracer::span`]
//! runs the closure and records nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Per-name span totals for one thread.
pub struct Tracer {
    on: bool,
    /// Total duration (ns) and work items by span name.
    totals: RefCell<HashMap<&'static str, (u64, u64)>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            totals: RefCell::new(HashMap::new()),
        }
    }

    /// Run `f` inside a span named `name` covering `items` work items (keys,
    /// rows, or 1).
    pub fn span<R>(&self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let mut totals = self.totals.borrow_mut();
        let t = totals.entry(name).or_default();
        t.0 += ns;
        t.1 += items;
        out
    }

    /// Total duration (ns) and items of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.totals.borrow().get(name).copied().unwrap_or_default()
    }
}
