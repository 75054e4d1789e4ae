//! In-memory spans around the benchmark's calls into the pipeline.
//!
//! Each span has a name (the layer call it wraps), an id (the program or
//! campaign it belongs to), the study iteration it ran in (0 for the
//! check phase), its parent span, and start/end offsets. Spans are kept
//! in memory and written out once, when the benchmark ends. With tracing
//! off a span is a plain call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub study: u64,
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder. Single-threaded: the benchmark is one caller
/// thread; the engine's and daemon's own threads are inside the calls.
pub struct Tracer {
    on: Cell<bool>,
    study: Cell<u64>,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: Cell::new(false),
            study: Cell::new(0),
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off and names the study iteration that
    /// following spans belong to.
    pub fn set(&self, on: bool, study: u64) {
        self.on.set(on);
        self.study.set(study);
    }

    /// Runs `f` inside a span named `name` for program/campaign `id`.
    pub fn span<T>(&self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                id,
                study: self.study.get(),
                parent: self.stack.borrow().last().copied(),
                start: self.t0.elapsed().as_secs_f64(),
                end: 0.0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Self time in seconds per span name within study `study`: each
    /// span's duration minus the part its child spans cover.
    pub fn self_secs(&self, study: u64) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.study == study) {
            *out.entry(s.name).or_insert(0.0) += s.secs() - child[i];
        }
        out
    }

    /// Durations in seconds of every span named `name`, in any study.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"study\":{},\"parent\":{parent},\
                 \"start_s\":{},\"end_s\":{}}}",
                s.name, s.id, s.study, s.start, s.end
            );
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::new();
        tr.set(true, 1);
        tr.span("outer", 0, || {
            tr.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        tr.set(false, 2);
        tr.span("untraced", 0, || ());
        let selfs = tr.self_secs(1);
        assert!(selfs["inner"] >= 0.02);
        assert!(selfs["outer"] >= 0.01 && selfs["outer"] < 0.02);
        assert!(tr.durations("untraced").is_empty());
        assert_eq!(tr.durations("outer").len(), 1);
    }
}
