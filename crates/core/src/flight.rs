//! Always-on flight recorder: a bounded ring of recent notable
//! orchestrator events.
//!
//! Post-mortem observability (metrics, attribution, the host profile)
//! evaporates on abnormal exits — a deadlock, an oracle divergence or
//! an interrupted run discards everything in flight. The flight
//! recorder keeps the last [`FLIGHT_CAPACITY`] notable events in a
//! preallocated ring at O(1) cost per event (every [`FlightKind`] is
//! `Copy`, so recording never allocates), and the orchestrator dumps
//! the tail into `crash.json`, the deadlock report, and the oracle
//! divergence context.
//!
//! Determinism: the recorder is pure observation. Events are derived
//! from simulated state only (no host time, no hash order), recording
//! mutates nothing the simulation reads, and the ring's content is a
//! pure function of the simulated schedule — so two legal schedules of
//! the same run produce identical tails, and the recorder being
//! always-on cannot perturb digests or metrics (`equivalence.rs`
//! crosses seed, profiling, fusion and oracle over the same digests).

use std::fmt;

use coyote_iss::core::CoreState;
use coyote_iss::{FuseStop, MissKind};
use coyote_telemetry::JsonValue;

use crate::trace::state_names;

/// Events retained in the ring; older events roll off.
pub const FLIGHT_CAPACITY: usize = 256;

/// What happened. Every variant is `Copy` so recording is a pair of
/// stores into the preallocated ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A hierarchy completion was delivered to a core.
    Completion {
        /// Receiving core.
        core: usize,
        /// Miss kind the completion serviced.
        kind: MissKind,
        /// Line address filled.
        line: u64,
    },
    /// A completion transitioned a stalled core back to active.
    Wake {
        /// The woken core.
        core: usize,
    },
    /// A core left `Active` for a stall state.
    Stall {
        /// The stalled core.
        core: usize,
        /// The state it entered.
        state: CoreState,
        /// PC of the blocked instruction.
        pc: u64,
    },
    /// A core halted.
    Halt {
        /// The halted core.
        core: usize,
        /// Its exit code.
        code: i64,
    },
    /// A multi-core fused window that was under way stopped because
    /// a core failed to re-arm its run.
    WindowAbort {
        /// The core that failed validation.
        core: usize,
        /// Its stop reason.
        stop: FuseStop,
    },
    /// A fused window stopped on a cross-core access conflict.
    WindowConflict,
    /// A text-segment store invalidated predecoded entries.
    TextInvalidate {
        /// First patched byte address.
        addr: u64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated cycle the event happened at.
    pub cycle: u64,
    /// What happened.
    pub kind: FlightKind,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: ", self.cycle)?;
        match self.kind {
            FlightKind::Completion { core, kind, line } => {
                write!(
                    f,
                    "completion to core {core} ({}, line {line:#x})",
                    kind.name()
                )
            }
            FlightKind::Wake { core } => write!(f, "core {core} woken"),
            FlightKind::Stall { core, state, pc } => {
                write!(f, "core {core} {} at pc {pc:#x}", state_names(state).name)
            }
            FlightKind::Halt { core, code } => write!(f, "core {core} halted (exit {code})"),
            FlightKind::WindowAbort { core, stop } => {
                write!(
                    f,
                    "fused window abort: core {core} rearm failed ({})",
                    stop.name()
                )
            }
            FlightKind::WindowConflict => write!(f, "fused window cross-core conflict"),
            FlightKind::TextInvalidate { addr } => {
                write!(f, "text store invalidated predecode at {addr:#x}")
            }
        }
    }
}

impl FlightEvent {
    /// The event as a structured JSON object (`cycle`, `kind`,
    /// variant-specific fields, and the rendered `text`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let base = JsonValue::object().with("cycle", self.cycle);
        let with_kind = |j: JsonValue, kind: &str| j.with("kind", kind);
        let obj = match self.kind {
            FlightKind::Completion { core, kind, line } => with_kind(base, "completion")
                .with("core", core)
                .with("miss_kind", kind.name())
                .with("line", line),
            FlightKind::Wake { core } => with_kind(base, "wake").with("core", core),
            FlightKind::Stall { core, state, pc } => with_kind(base, "stall")
                .with("core", core)
                .with("state", state_names(state).name)
                .with("pc", pc),
            FlightKind::Halt { core, code } => with_kind(base, "halt")
                .with("core", core)
                .with("exit_code", code),
            FlightKind::WindowAbort { core, stop } => with_kind(base, "window_abort")
                .with("core", core)
                .with("stop", stop.name()),
            FlightKind::WindowConflict => with_kind(base, "window_conflict"),
            FlightKind::TextInvalidate { addr } => {
                with_kind(base, "text_invalidate").with("addr", addr)
            }
        };
        obj.with("text", self.to_string())
    }
}

/// The bounded ring itself.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Ring storage; grows to `FLIGHT_CAPACITY` then stays put.
    events: Vec<FlightEvent>,
    /// Next write position once the ring is full.
    head: usize,
    /// Events ever recorded (including rolled-off ones).
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An empty recorder with capacity reserved up front, so recording
    /// never allocates.
    #[must_use]
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            events: Vec::with_capacity(FLIGHT_CAPACITY),
            head: 0,
            total: 0,
        }
    }

    /// Records one event: O(1), no allocation.
    pub fn record(&mut self, cycle: u64, kind: FlightKind) {
        let event = FlightEvent { cycle, kind };
        if self.events.len() < FLIGHT_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % FLIGHT_CAPACITY;
        }
        self.total += 1;
    }

    /// Events ever recorded, including ones that rolled off the ring.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn tail(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// The last `n` retained events, oldest first, rendered as display
    /// strings — the shape the oracle divergence trail carries.
    #[must_use]
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        let tail = self.tail();
        let skip = tail.len().saturating_sub(n);
        tail[skip..].iter().map(FlightEvent::to_string).collect()
    }

    /// The whole retained tail as a JSON array (oldest first), plus
    /// the drop count, for `crash.json`.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let tail = self.tail();
        let dropped = self.total - tail.len() as u64;
        JsonValue::object()
            .with("total", self.total)
            .with("dropped", dropped)
            .with(
                "events",
                JsonValue::Array(tail.iter().map(FlightEvent::to_json).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_rolls_oldest_events_off() {
        let mut rec = FlightRecorder::new();
        for i in 0..(FLIGHT_CAPACITY as u64 + 5) {
            rec.record(i, FlightKind::Wake { core: 0 });
        }
        let tail = rec.tail();
        assert_eq!(tail.len(), FLIGHT_CAPACITY);
        assert_eq!(tail[0].cycle, 5);
        assert_eq!(tail[FLIGHT_CAPACITY - 1].cycle, FLIGHT_CAPACITY as u64 + 4);
        assert_eq!(rec.total(), FLIGHT_CAPACITY as u64 + 5);
        let json = rec.to_json();
        assert_eq!(json.get("dropped").and_then(JsonValue::as_u64), Some(5));
    }

    #[test]
    fn tail_lines_takes_the_newest_events() {
        let mut rec = FlightRecorder::new();
        rec.record(1, FlightKind::WindowConflict);
        rec.record(2, FlightKind::Halt { core: 3, code: 0 });
        rec.record(3, FlightKind::TextInvalidate { addr: 0x40 });
        let lines = rec.tail_lines(2);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("core 3 halted"));
        assert!(lines[1].contains("invalidated predecode"));
    }

    #[test]
    fn events_render_their_payload() {
        let ev = FlightEvent {
            cycle: 42,
            kind: FlightKind::WindowAbort {
                core: 1,
                stop: FuseStop::PendingFill,
            },
        };
        let text = ev.to_string();
        assert!(text.contains("cycle 42"));
        assert!(text.contains("pending_fill"));
        let json = ev.to_json();
        assert_eq!(
            json.get("kind").and_then(JsonValue::as_str),
            Some("window_abort")
        );
        assert_eq!(
            json.get("stop").and_then(JsonValue::as_str),
            Some("pending_fill")
        );
    }
}
