//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into the program in a
//! span: name, start, end, parent span, and a step or request id. Spans
//! stay in memory and are written out once, when the run ends, as a
//! Chrome trace-event file. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `grouped.forward`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Step or request the call belongs to.
    pub id: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; `on = false` makes
    /// every call a no-op.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close in reverse
    /// order of opening.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times in milliseconds of the spans called `name`: each span's
    /// duration minus the time its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.ns().saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Measured cost of one begin/end pair on this machine, in
    /// nanoseconds (median of a few thousand-span batches).
    pub fn span_cost_ns() -> f64 {
        let mut per_batch = Vec::new();
        for _ in 0..5 {
            let mut t = Tracer::new(true, Instant::now());
            let start = Instant::now();
            for i in 0..2_000 {
                let o = t.begin("calibrate", i);
                t.end(o);
            }
            per_batch.push(start.elapsed().as_nanos() as f64 / 2_000.0);
        }
        crate::stats::median(&per_batch)
    }
}

/// Chrome trace-event JSON (viewable in Perfetto) for the spans of each
/// `(thread id, tracer)` pair.
pub fn chrome_json(threads: &[(u32, &Tracer)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, t) in threads {
        for s in t.spans() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.id
            );
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("step", 1);
        let a = t.begin("fwd", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("bwd", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(outer);
        let ms = |i: usize| t.spans()[i].ns() as f64 / 1e6;
        let own = t.self_ms("step")[0];
        assert!((ms(0) - own - ms(1) - ms(2)).abs() < 1e-6);
        assert!(own >= 0.0 && own < ms(0));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let x = t.scope("fwd", 3, || 42);
        assert_eq!(x, 42);
        assert!(t.spans().is_empty());
    }
}
