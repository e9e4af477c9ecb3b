//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the harness around its own calls into each
//! crate's public functions — nothing inside the simulator is
//! instrumented. Spans stay in memory and are written out once, when the
//! per-workload process ends.

use std::time::Instant;

use coyote_telemetry::JsonValue;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; the prefix before the first `.` is the layer (crate).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one rep share it).
    pub rep: u32,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The recorder: a flat span list plus the stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Sets the repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span, and
    /// returns its duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// All spans in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time, in span order: its duration minus the part
    /// its children cover.
    #[must_use]
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.seconds();
            }
        }
        own
    }

    /// The span list as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let spans: Vec<JsonValue> = self
            .spans
            .iter()
            .zip(self.self_seconds())
            .enumerate()
            .map(|(id, (s, self_s))| {
                JsonValue::object()
                    .with("id", id)
                    .with("name", s.name)
                    .with("rep", s.rep)
                    .with("parent", s.parent.map_or(JsonValue::Null, JsonValue::from))
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_s", self_s)
            })
            .collect();
        JsonValue::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_root() {
        let mut rec = Recorder::default();
        rec.set_rep(3);
        let root = rec.enter("rep");
        let a = rec.enter("asm.program");
        rec.exit(a);
        let b = rec.enter("core.run");
        let inner = rec.enter("core.run.inner");
        rec.exit(inner);
        rec.exit(b);
        let wall = rec.exit(root);
        assert_eq!(rec.spans()[inner].parent, Some(b));
        assert_eq!(rec.spans()[a].rep, 3);
        let total: f64 = rec.self_seconds().iter().sum();
        assert!((total - wall).abs() < 1e-9);
    }
}
