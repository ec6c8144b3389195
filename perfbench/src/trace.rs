//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval around one call into a layer,
//! with a link to the span that encloses it and the id of the op it
//! belongs to. Spans are buffered in a `Vec` and only written out when
//! the run ends, so recording one costs two clock reads and a push.
//! A disabled tracer records nothing: `enter` and `exit` are one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id given to spans recorded outside any op (set-up, extras).
pub const NO_OP: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cpu.run`.
    pub name: &'static str,
    /// Index of the enclosing span in the buffer, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to, or [`NO_OP`].
    pub op: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

/// The span buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only while `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: NO_OP,
            stack: Vec::with_capacity(8),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Turns recording on or off (the traced run alternates per op).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the op id for spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(idx) {
            span.end_ns = now;
        }
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total ns per span name over spans whose op satisfies `keep`.
    pub fn totals_by_name(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| keep(s.op)) {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Self time of every span named `name` whose op satisfies `keep`,
    /// summed: its duration minus the part its direct children cover.
    pub fn self_ns(&self, name: &str, keep: impl Fn(u64) -> bool) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && keep(s.op))
            .map(|(i, s)| s.duration_ns().saturating_sub(child_ns[i]))
            .sum()
    }

    /// The buffer as JSON: `{"spans":[{"id","parent","op","name","start_ns","end_ns"}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"op\":{op},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("a");
        t.exit(o);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_link_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let outer = t.enter("op");
        let inner = t.enter("cpu.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(t.self_ns("op", |_| true) < spans[0].duration_ns());
        assert_eq!(t.self_ns("cpu.run", |op| op == 3), spans[1].duration_ns());
        assert_eq!(t.self_ns("cpu.run", |op| op != 3), 0);
        assert!(unxpec::telemetry::json::validate(&t.to_json()).is_ok());
    }
}
