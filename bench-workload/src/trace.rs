//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span's name is `<layer>.<call>`; the layer is the crate the call
//! enters (`core`, `analyze`, `simnet`, `tme`, `faults`, `spec`,
//! `experiments`) or `bench` for the runner's own work. Spans are kept in
//! memory and written as JSON when the run ends. With tracing off,
//! [`Tracer::span`] calls its closure and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The sample the span belongs to; `None` outside samples' ops.
    op_id: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for one single-threaded run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op_id: Cell<Option<u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op_id: Cell::new(None),
        }
    }

    /// Tags the spans that follow with sample `op_id`.
    pub fn set_op(&self, op_id: Option<u64>) {
        self.op_id.set(op_id);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op_id: self.op_id.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// Self time per layer (a span's duration minus the time its child
    /// spans cover), summed over the spans of the samples `keep` selects,
    /// and the summed duration of those samples' root spans.
    pub fn self_times(&self, keep: impl Fn(u64) -> bool) -> (BTreeMap<&'static str, u64>, u64) {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut layers = BTreeMap::new();
        let mut root_ns = 0;
        for (span, children) in spans.iter().zip(&child_ns) {
            if !span.op_id.is_some_and(&keep) {
                continue;
            }
            *layers.entry(span.layer()).or_insert(0) += span.duration_ns() - children;
            if span.parent.is_none() {
                root_ns += span.duration_ns();
            }
        }
        (layers, root_ns)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            let _ = write!(
                out,
                "{}  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p.to_string())),
                opt(s.op_id.map(|o| o.to_string())),
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let tracer = Tracer::new(true);
        tracer.set_op(Some(1));
        tracer.span("bench.op", || {
            tracer.span("core.work", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let (layers, root) = tracer.self_times(|op| op == 1);
        assert!(layers["core"] >= 5_000_000);
        assert_eq!(layers["bench"] + layers["core"], root);

        let off = Tracer::new(false);
        off.set_op(Some(1));
        assert_eq!(off.span("core.work", || 7), 7);
        assert_eq!(off.self_times(|_| true), (BTreeMap::new(), 0));
    }
}
