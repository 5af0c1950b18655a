//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer's public functions (the program itself is not
//! instrumented). A span's layer is its name up to the first `.`; its
//! self time is its duration minus the durations of its children, which
//! never overlap because one thread records them in order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-finished interval as a child of the innermost
    /// open span (used where timing every call as its own span would
    /// distort the loop it sits in).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Total duration, in ms, of every span named `name` below `root`.
    pub fn total_ms(&self, root: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.descends(*i, root))
            .map(|(_, s)| s.ms())
            .sum()
    }

    fn descends(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Self time per layer (ms) over `root` and its descendants. The
    /// root's own self time — the benchmark's glue between calls — is
    /// reported under `(glue)`.
    pub fn self_ms_by_layer(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !self.descends(i, root) {
                continue;
            }
            let layer = if i == root {
                "(glue)"
            } else {
                s.name.split('.').next().unwrap_or(s.name)
            };
            *out.entry(layer).or_insert(0.0) += s.ms() - child_ms[i];
        }
        out
    }

    /// Tab-separated `id parent name start_us end_us`, one span a line,
    /// times relative to the tracer's creation.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{:.3}\t{:.3}",
                s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string()),
                s.name,
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}
