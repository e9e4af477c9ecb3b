//! Paraver-compatible L1-miss trace output.
//!
//! The paper: "Simulation outputs [...] a trace of L1 misses. This trace
//! can be analyzed using the Paraver Visualization Tools". This module
//! collects per-cycle miss events during simulation and serializes them
//! as a Paraver `.prv` event trace (one application, one task per core)
//! plus the matching `.pcf` configuration naming the event types.

use std::io::{self, Write};

use coyote_iss::core::CoreState;
use coyote_iss::MissKind;
use coyote_telemetry::{Record, RECORD_BYTES};

use crate::chunks::Chunks;
use crate::config::MAX_CORES;

/// Paraver event type for L1 miss kind (value = [`kind_code`]).
pub const EVENT_MISS_KIND: u64 = 42_000_001;
/// Paraver event type carrying the missing line address.
pub const EVENT_LINE_ADDR: u64 = 42_000_002;
/// Paraver event type carrying the PC of the missing instruction (the
/// causal anchor used by stall attribution; 0 for synthetic traffic).
pub const EVENT_PC: u64 = 42_000_003;

/// The event types as a record spells them, between a value and the
/// next; a test ties each to its constant.
const MISS_KIND_FIELD: &[u8] = b":42000001:";
const LINE_ADDR_FIELD: &[u8] = b":42000002:";
const PC_FIELD: &[u8] = b":42000003:";

/// Paraver state value: the core is executing.
pub const STATE_RUNNING: u8 = 1;
/// Paraver state value: stalled on a register dependency.
pub const STATE_DEP_STALL: u8 = 2;
/// Paraver state value: stalled on an instruction fetch.
pub const STATE_FETCH_STALL: u8 = 3;
/// Paraver state value: halted.
pub const STATE_HALTED: u8 = 0;

/// One core state as every artifact spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StateNames {
    /// Paraver state value (`.prv` state records, [`StateInterval::state`]).
    pub code: u8,
    /// `crash.json` and flight-recorder name.
    pub name: &'static str,
    /// Chrome-trace slice label.
    pub chrome: &'static str,
    /// `.pcf` label.
    pub pcf: &'static str,
}

/// The four core states, indexed by Paraver state value: the one place
/// a state is spelled.
#[rustfmt::skip]
pub(crate) const STATES: [StateNames; 4] = [
    StateNames { code: STATE_HALTED,      name: "halted",        chrome: "halted",      pcf: "halted" },
    StateNames { code: STATE_RUNNING,     name: "active",        chrome: "running",     pcf: "running" },
    StateNames { code: STATE_DEP_STALL,   name: "stalled_dep",   chrome: "dep stall",   pcf: "dependency stall" },
    StateNames { code: STATE_FETCH_STALL, name: "stalled_fetch", chrome: "fetch stall", pcf: "fetch stall" },
];

/// The spellings of a core's state.
#[must_use]
pub(crate) fn state_names(state: CoreState) -> &'static StateNames {
    &STATES[match state {
        CoreState::Halted(_) => STATE_HALTED,
        CoreState::Active => STATE_RUNNING,
        CoreState::StalledDep => STATE_DEP_STALL,
        CoreState::StalledFetch => STATE_FETCH_STALL,
    } as usize]
}

/// Encodes a miss kind as a Paraver event value.
#[must_use]
pub fn kind_code(kind: MissKind) -> u64 {
    match kind {
        MissKind::Ifetch => 1,
        MissKind::Load => 2,
        MissKind::Store => 3,
        MissKind::Writeback => 4,
    }
}

/// One recorded miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle of the miss.
    pub cycle: u64,
    /// Issuing core.
    pub core: usize,
    /// Miss kind.
    pub kind: MissKind,
    /// Line-aligned address.
    pub line_addr: u64,
    /// PC of the missing instruction (0 for synthetic traffic such as
    /// L2-victim writebacks).
    pub pc: u64,
}

/// One recorded core-state interval (Paraver record type 1), 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateInterval {
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
    /// Core the interval belongs to.
    pub core: u32,
    /// State value (`STATE_RUNNING`, `STATE_DEP_STALL`, …).
    pub state: u8,
}

const _: () = assert!(std::mem::size_of::<StateInterval>() <= 24);

/// A record for a core the trace has no task for, which
/// [`Trace::record`] and [`Trace::record_state`] refuse: the `.prv`
/// header declares one task per core, so [`Trace::parse_prv`] could not
/// read the record back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreOutOfRange {
    /// The record's core.
    pub core: usize,
    /// The trace's core count.
    pub cores: usize,
}

impl std::fmt::Display for CoreOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let CoreOutOfRange { core, cores } = self;
        write!(f, "core {core} outside a trace of {cores} cores")
    }
}

impl std::error::Error for CoreOutOfRange {}

/// State intervals per chunk of a trace's store (384 KiB).
const STATE_CHUNK: usize = 1 << 14;

/// In-memory collector of miss events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    states: Chunks<StateInterval, STATE_CHUNK>,
    cores: usize,
    final_cycle: u64,
}

impl Trace {
    /// Creates an empty trace for a system of `cores` cores.
    #[must_use]
    pub fn new(cores: usize) -> Trace {
        Trace {
            events: Vec::new(),
            states: Chunks::default(),
            cores,
            final_cycle: 0,
        }
    }

    /// Whether the trace has a task for `core`.
    fn check(&self, core: usize) -> Result<(), CoreOutOfRange> {
        let cores = self.cores;
        let refused = CoreOutOfRange { core, cores };
        (core < cores).then_some(()).ok_or(refused)
    }

    /// Records one miss.
    ///
    /// # Errors
    ///
    /// Refuses a miss on a core at or above [`Trace::cores`].
    pub fn record(&mut self, event: TraceEvent) -> Result<(), CoreOutOfRange> {
        self.check(event.core)?;
        self.final_cycle = self.final_cycle.max(event.cycle);
        self.events.push(event);
        Ok(())
    }

    /// Records a core-state interval (emitted as a Paraver state
    /// record). Zero-length intervals are dropped.
    ///
    /// # Errors
    ///
    /// Refuses an interval of a core at or above [`Trace::cores`].
    pub fn record_state(&mut self, interval: StateInterval) -> Result<(), CoreOutOfRange> {
        self.check(interval.core as usize)?;
        if interval.end > interval.start {
            self.final_cycle = self.final_cycle.max(interval.end);
            self.states.push(interval);
        }
        Ok(())
    }

    /// Number of cores in the traced system (from the constructor, or
    /// the `.prv` header when parsed). Cores that never missed or
    /// stalled still count.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Recorded state intervals, in recording order.
    pub fn states(&self) -> impl Iterator<Item = &StateInterval> {
        self.states.iter()
    }

    /// Recorded events in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Writes the Paraver `.prv` trace.
    ///
    /// Layout: one node, one application with `cores` tasks of one
    /// thread each; every miss becomes a pair of punctual events
    /// ([`EVENT_MISS_KIND`], [`EVENT_LINE_ADDR`]) on the issuing core's
    /// task.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`. The records reach it in 64 KiB
    /// `write_all`s, so a `File` needs no `BufWriter`.
    pub fn write_prv<W: Write>(&self, mut out: W) -> io::Result<()> {
        /// Text buffered between writes to `out`.
        const CHUNK: usize = 64 << 10;
        let cores = self.cores.max(1);
        // Header: #Paraver (date):duration:nodes(cpus):apps:app1(tasks).
        // The duration saturates: a parsed interval may end at u64::MAX.
        let mut header = format!(
            "#Paraver (01/01/2021 at 00:00):{}:1({cores}):1:{cores}(",
            self.final_cycle.saturating_add(1)
        );
        header.push_str(&vec!["1:1"; cores].join(","));
        header.push_str(")\n");
        out.write_all(header.as_bytes())?;
        // Every record starts `type:cpu:appl:task:thread:` — one
        // application, and a task of one thread per core, 1-based — so
        // each core's `:cpu:appl:task:thread:` is formatted once (no
        // record names a core beyond them: `record` refuses it).
        let tasks: Vec<String> = (1..=cores).map(|t| format!(":{t}:1:{t}:1:")).collect();
        // Records are written into `chunk` at `len`, which goes out
        // whenever it holds CHUNK bytes. A record is its type, its task
        // and each field followed by its separator.
        let mut chunk = vec![0; CHUNK + RECORD_BYTES];
        let mut len = 0;
        let mut write = |kind: &[u8], core: usize, fields: &[(u64, &[u8])]| {
            let mut record = Record::new(&mut chunk[len..]);
            record.bytes(kind);
            record.bytes(tasks[core].as_bytes());
            for &(value, separator) in fields {
                record.uint(value);
                record.bytes(separator);
            }
            len += record.end();
            if len >= CHUNK {
                out.write_all(&chunk[..len])?;
                len = 0;
            }
            io::Result::Ok(())
        };
        for st in self.states() {
            // Record type 1 (state): …:begin:end:state
            let state = u64::from(st.state);
            let fields = [(st.start, &b":"[..]), (st.end, b":"), (state, b"\n")];
            write(b"1", st.core as usize, &fields)?;
        }
        for ev in &self.events {
            // Record type 2 (event): …:time:type:value[:type:value]
            let fields = [
                (ev.cycle, MISS_KIND_FIELD),
                (kind_code(ev.kind), LINE_ADDR_FIELD),
                (ev.line_addr, PC_FIELD),
                (ev.pc, b"\n"),
            ];
            write(b"2", ev.core, &fields)?;
        }
        out.write_all(&chunk[..len])
    }

    /// Writes the Paraver `.pcf` configuration naming the event types.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_pcf<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "STATES")?;
        for state in &STATES {
            writeln!(out, "{}\t{}", state.code, state.pcf)?;
        }
        writeln!(out)?;
        writeln!(out, "EVENT_TYPE")?;
        writeln!(out, "0\t{EVENT_MISS_KIND}\tL1 miss kind")?;
        writeln!(out, "VALUES")?;
        writeln!(out, "1\tinstruction fetch")?;
        writeln!(out, "2\tdata load")?;
        writeln!(out, "3\tdata store")?;
        writeln!(out, "4\twriteback")?;
        writeln!(out)?;
        writeln!(out, "EVENT_TYPE")?;
        writeln!(out, "0\t{EVENT_LINE_ADDR}\tL1 miss line address")?;
        writeln!(out)?;
        writeln!(out, "EVENT_TYPE")?;
        writeln!(out, "0\t{EVENT_PC}\tL1 miss instruction PC")?;
        Ok(())
    }
}

/// Error from parsing a `.prv` trace back in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line of the malformed record.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// Parses a `.prv` trace previously produced by
    /// [`Trace::write_prv`] (state records and the miss-event pairs
    /// this simulator emits; other Paraver record types are rejected).
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] for malformed records.
    pub fn parse_prv(text: &str) -> Result<Trace, ParseTraceError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| ParseTraceError {
            line: 1,
            message: "empty trace".to_owned(),
        })?;
        if !header.starts_with("#Paraver") {
            return Err(ParseTraceError {
                line: 1,
                message: "missing #Paraver header".to_owned(),
            });
        }
        // Task count from "...:1:N(1:1,...)": the last `N(` field (the
        // date and task list also contain colons, so positional
        // splitting is unreliable). The count sizes every reader's
        // per-core tables, so it is bounded like `SimConfig::cores`.
        let cores = header
            .split(':')
            .rev()
            .find_map(|field| Some(field.split_once('(')?.0))
            .and_then(|digits| digits.parse::<usize>().ok())
            .filter(|&tasks| tasks <= MAX_CORES)
            .ok_or_else(|| ParseTraceError {
                line: 1,
                message: format!("cannot read a task count of at most {MAX_CORES} from header"),
            })?;
        let mut trace = Trace::new(cores);
        for (idx, line) in lines {
            let err = |message: String| ParseTraceError {
                line: idx + 1,
                message,
            };
            let parse = |s: &str| s.parse::<u64>().map_err(|e| err(format!("{e}: `{s}`")));
            // Tasks are 1-based and the header declares how many exist.
            let core_of = |s: &str| match parse(s)? {
                task if (1..=cores as u64).contains(&task) => Ok(task as usize - 1),
                task => Err(err(format!("task {task} outside 1..={cores}"))),
            };
            let fields: Vec<&str> = line.split(':').collect();
            match fields.first() {
                Some(&"1") => {
                    if fields.len() != 8 {
                        return Err(err("state record needs 8 fields".to_owned()));
                    }
                    let (start, end) = (parse(fields[5])?, parse(fields[6])?);
                    if start > end {
                        return Err(err(format!("state interval ends at {end}, before {start}")));
                    }
                    let state = parse(fields[7])?;
                    let state =
                        u8::try_from(state).map_err(|_| err(format!("state {state} above 255")))?;
                    let interval = StateInterval {
                        core: core_of(fields[3])? as u32,
                        start,
                        end,
                        state,
                    };
                    trace
                        .record_state(interval)
                        .expect("core_of checked the task");
                }
                Some(&"2") => {
                    // 10 fields: the pre-PC format (kind + line address);
                    // 12 fields: with the trailing EVENT_PC pair.
                    if fields.len() != 10 && fields.len() != 12 {
                        return Err(err("event record needs 10 or 12 fields".to_owned()));
                    }
                    let kind = match parse(fields[6])? {
                        k if k == EVENT_MISS_KIND => match parse(fields[7])? {
                            1 => MissKind::Ifetch,
                            2 => MissKind::Load,
                            3 => MissKind::Store,
                            4 => MissKind::Writeback,
                            other => return Err(err(format!("unknown miss kind {other}"))),
                        },
                        other => return Err(err(format!("unknown event type {other}"))),
                    };
                    let pc = if fields.len() == 12 {
                        if parse(fields[10])? != EVENT_PC {
                            return Err(err(format!("unknown event type {}", fields[10])));
                        }
                        parse(fields[11])?
                    } else {
                        0
                    };
                    let event = TraceEvent {
                        cycle: parse(fields[5])?,
                        core: core_of(fields[3])?,
                        kind,
                        line_addr: parse(fields[9])?,
                        pc,
                    };
                    trace.record(event).expect("core_of checked the task");
                }
                Some(other) => {
                    return Err(err(format!("unsupported record type `{other}`")));
                }
                None => {}
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new(2);
        t.record(TraceEvent {
            cycle: 10,
            core: 0,
            kind: MissKind::Load,
            line_addr: 0x1000,
            pc: 0x8000_0010,
        })
        .unwrap();
        t.record(TraceEvent {
            cycle: 12,
            core: 1,
            kind: MissKind::Ifetch,
            line_addr: 0x2000,
            pc: 0x8000_0024,
        })
        .unwrap();
        t
    }

    #[test]
    fn collects_events_in_order() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.events()[0].cycle, 10);
        assert_eq!(t.events()[1].core, 1);
    }

    #[test]
    fn prv_format_lines() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_prv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("#Paraver"));
        assert!(header.contains(":13:1(2):1:2(1:1,1:1)"), "header: {header}");
        assert_eq!(
            lines.next().unwrap(),
            "2:1:1:1:1:10:42000001:2:42000002:4096:42000003:2147483664"
        );
        assert_eq!(
            lines.next().unwrap(),
            "2:2:1:2:1:12:42000001:1:42000002:8192:42000003:2147483684"
        );
    }

    #[test]
    fn pcf_names_event_values() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_pcf(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("L1 miss kind"));
        assert!(text.contains("data load"));
    }

    #[test]
    fn state_records_serialize_before_events() {
        let mut t = sample();
        t.record_state(StateInterval {
            core: 0,
            start: 0,
            end: 10,
            state: STATE_RUNNING,
        })
        .unwrap();
        t.record_state(StateInterval {
            core: 0,
            start: 10,
            end: 20,
            state: STATE_DEP_STALL,
        })
        .unwrap();
        // Zero-length intervals are dropped.
        t.record_state(StateInterval {
            core: 1,
            start: 5,
            end: 5,
            state: STATE_RUNNING,
        })
        .unwrap();
        assert_eq!(t.states().count(), 2);
        let mut buf = Vec::new();
        t.write_prv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "1:1:1:1:1:0:10:1");
        assert_eq!(lines[2], "1:1:1:1:1:10:20:2");
        assert!(lines[3].starts_with("2:"));
    }

    /// The one table spells each state the way the `.pcf`, the Chrome
    /// trace and `crash.json` have always shipped it.
    #[test]
    fn states_keep_their_shipped_spellings() {
        let mut buf = Vec::new();
        sample().write_pcf(&mut buf).unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .starts_with("STATES\n0\thalted\n1\trunning\n2\tdependency stall\n3\tfetch stall\n\n"));
        for (state, code, crash, chrome) in [
            (CoreState::Halted(3), STATE_HALTED, "halted", "halted"),
            (CoreState::Active, STATE_RUNNING, "active", "running"),
            (
                CoreState::StalledDep,
                STATE_DEP_STALL,
                "stalled_dep",
                "dep stall",
            ),
            (
                CoreState::StalledFetch,
                STATE_FETCH_STALL,
                "stalled_fetch",
                "fetch stall",
            ),
        ] {
            let names = state_names(state);
            assert_eq!(
                (names.code, names.name, names.chrome),
                (code, crash, chrome)
            );
            assert_eq!(STATES[code as usize], *names, "indexed by Paraver value");
        }
    }

    #[test]
    fn kind_codes_are_distinct() {
        let codes = [
            kind_code(MissKind::Ifetch),
            kind_code(MissKind::Load),
            kind_code(MissKind::Store),
            kind_code(MissKind::Writeback),
        ];
        let set: std::collections::BTreeSet<u64> = codes.into_iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn prv_round_trips_through_parse() {
        let mut t = sample();
        t.record_state(StateInterval {
            core: 1,
            start: 0,
            end: 12,
            state: STATE_RUNNING,
        })
        .unwrap();
        let mut buf = Vec::new();
        t.write_prv(&mut buf).unwrap();
        let parsed = Trace::parse_prv(&String::from_utf8(buf).unwrap()).unwrap();
        assert_eq!(parsed.events(), t.events());
        assert_eq!(parsed, t);
    }

    #[test]
    fn parse_accepts_pre_pc_ten_field_records() {
        let old = "#Paraver (x):20:1(1):1:1(1:1)
2:1:1:1:1:10:42000001:2:42000002:4096
";
        let parsed = Trace::parse_prv(old).unwrap();
        assert_eq!(parsed.events().len(), 1);
        assert_eq!(parsed.events()[0].line_addr, 4096);
        assert_eq!(parsed.events()[0].pc, 0, "missing PC defaults to 0");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Trace::parse_prv("").is_err());
        assert!(Trace::parse_prv(
            "not a header
"
        )
        .is_err());
        let bad_record = "#Paraver (x):10:1(1):1:1(1:1)
9:1:1:1:1:0:1:1
";
        assert!(Trace::parse_prv(bad_record).is_err());
    }

    /// A state interval its parser accepts may end at `u64::MAX`; the
    /// header's duration (one past the last cycle) saturates there
    /// instead of overflowing.
    #[test]
    fn an_interval_ending_at_u64_max_round_trips() {
        let text = "#Paraver (01/01/2021 at 00:00):18446744073709551615:1(1):1:1(1:1)
1:1:1:1:1:0:18446744073709551615:1
";
        let parsed = Trace::parse_prv(text).unwrap();
        let mut buf = Vec::new();
        parsed.write_prv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), text);
    }

    /// The event-type fields a record spells as literal bytes are the
    /// published constants.
    #[test]
    fn event_type_fields_spell_the_constants() {
        for (field, event) in [
            (MISS_KIND_FIELD, EVENT_MISS_KIND),
            (LINE_ADDR_FIELD, EVENT_LINE_ADDR),
            (PC_FIELD, EVENT_PC),
        ] {
            assert_eq!(field, format!(":{event}:").as_bytes());
        }
    }

    /// Records are handed to the sink in chunks; the text is the same
    /// whichever of the header's cores a record names.
    #[test]
    fn many_records_across_chunks_keep_their_text() {
        let mut t = Trace::new(3);
        for i in 0..5_000u64 {
            t.record(TraceEvent {
                cycle: i,
                core: (i % 3) as usize,
                kind: MissKind::Store,
                line_addr: i << 6,
                pc: u64::MAX - i,
            })
            .unwrap();
        }
        let mut buf = Vec::new();
        t.write_prv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5_001);
        for (i, line) in lines[1..].iter().enumerate() {
            let (i, task) = (i as u64, i as u64 % 3 + 1);
            let expected = format!(
                "2:{task}:1:{task}:1:{i}:{EVENT_MISS_KIND}:3:{EVENT_LINE_ADDR}:{}:{EVENT_PC}:{}",
                i << 6,
                u64::MAX - i
            );
            assert_eq!(*line, expected);
        }
    }

    /// A record for a core without a task is refused and leaves the
    /// trace as it was, up to `usize::MAX`.
    #[test]
    fn records_for_cores_without_a_task_are_refused() {
        let mut t = Trace::new(2);
        for core in [2, 3, usize::MAX] {
            let event = TraceEvent {
                cycle: 1,
                core,
                kind: MissKind::Load,
                line_addr: 0x40,
                pc: 0,
            };
            assert_eq!(t.record(event), Err(CoreOutOfRange { core, cores: 2 }));
        }
        let interval = StateInterval {
            core: 2,
            start: 0,
            end: 10,
            state: STATE_RUNNING,
        };
        let refused = Err(CoreOutOfRange { core: 2, cores: 2 });
        assert_eq!(t.record_state(interval), refused);
        assert_eq!(t, Trace::new(2));
    }

    /// The state store grows a chunk at a time and reads back in
    /// recording order across chunk boundaries.
    #[test]
    fn states_across_store_chunks_keep_their_order() {
        let mut t = Trace::new(2);
        let n = 2 * STATE_CHUNK as u64 + 1;
        for i in 0..n {
            let interval = StateInterval {
                core: (i % 2) as u32,
                start: i,
                end: i + 1,
                state: (i % 4) as u8,
            };
            t.record_state(interval).unwrap();
        }
        assert_eq!(t.states.chunks(), 3);
        assert!(t.states().map(|s| s.start).eq(0..n));
        let mut buf = Vec::new();
        t.write_prv(&mut buf).unwrap();
        assert_eq!(Trace::parse_prv(&String::from_utf8(buf).unwrap()), Ok(t));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every trace the writer accepts reads back equal. (A trace of
        /// zero cores is written with one empty task, so it reads back
        /// as a trace of one.)
        #[test]
        fn prv_round_trips_every_accepted_trace(
            cores in 1usize..6,
            events in proptest::collection::vec(
                (0usize..8, proptest::prelude::any::<u64>(), 0usize..4,
                 proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                0..40,
            ),
            states in proptest::collection::vec(
                (0u32..8, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(),
                 proptest::prelude::any::<u8>()),
                0..40,
            ),
        ) {
            let mut t = Trace::new(cores);
            let kinds = [MissKind::Ifetch, MissKind::Load, MissKind::Store, MissKind::Writeback];
            for (core, cycle, kind, line_addr, pc) in events {
                let event = TraceEvent { cycle, core, kind: kinds[kind], line_addr, pc };
                proptest::prop_assert_eq!(t.record(event).is_ok(), core < cores);
            }
            for (core, start, end, state) in states {
                let interval = StateInterval { core, start, end, state };
                proptest::prop_assert_eq!(t.record_state(interval).is_ok(), (core as usize) < cores);
            }
            let mut buf = Vec::new();
            t.write_prv(&mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            proptest::prop_assert_eq!(Trace::parse_prv(&text), Ok(t));
        }
    }

    #[test]
    fn empty_trace_writes_valid_header() {
        let t = Trace::new(1);
        let mut buf = Vec::new();
        t.write_prv(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().starts_with("#Paraver"));
    }
}
