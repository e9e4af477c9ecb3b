//! Live run introspection: streaming status snapshots.
//!
//! The metrics document, the stall-attribution tables and the host
//! profile are all post-mortem — nothing is visible until the run
//! exits. This module is the out-of-band live plane: the orchestrator
//! hands a [`StatusEmitter`] a [`StatusSnapshot`] of *simulated* state
//! on a host-time cadence, and the emitter appends one JSON line per
//! snapshot to a bounded history file, replaced atomically
//! (tmp + rename) so a concurrent reader (`coyote-top`, a sweep
//! service) never observes a torn write.
//!
//! # The wall-clock exception
//!
//! Alongside [`crate::hostprof`], this is one of the two files the
//! `wall-clock` lint allows to call [`Instant::now`] (path-pinned in
//! `coyote_lint::lint::WALL_CLOCK_FILES`). The determinism argument is
//! the same and stays local to this file: host time decides *when* a
//! snapshot is cut and feeds the host-rate fields (`host_mips`,
//! `eta_seconds`) of the emitted line, but no value derived from the
//! clock is ever returned to the simulator — [`StatusEmitter::due`]
//! returns only a bool consumed by an observation-only branch, and
//! [`StatusEmitter::emit`] borrows the snapshot immutably. Status
//! emission on/off therefore cannot perturb the simulated schedule;
//! the `equivalence` proptests in `crates/core` pin digest and
//! metrics bytes across the knob.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::JsonValue;

/// Version of the status-line and `crash.json` schema, pinned by the
/// `status_schema` golden test in `crates/core`. Moves independently
/// of the metrics [`crate::SCHEMA_VERSION`]: v6 dropped
/// `conflict_fallbacks` and `certificate_active` with the features
/// they reported on.
pub const STATUS_SCHEMA_VERSION: u64 = 6;

/// Maximum snapshot lines retained in the status file; older lines
/// roll off so the file stays bounded for arbitrarily long runs.
pub const STATUS_HISTORY: usize = 256;

/// How many [`StatusEmitter::due`] calls elapse between actual clock
/// reads. The orchestrator polls once per simulated cycle, which can
/// run in the tens of nanoseconds; amortizing the `Instant::now` call
/// keeps the always-off cost of the live plane at a counter increment.
const DUE_CHECK_STRIDE: u32 = 64;

/// Per-core slice of a [`StatusSnapshot`]: purely simulated state.
#[derive(Debug, Clone, Default)]
pub struct CoreStatus {
    /// Core index.
    pub core: usize,
    /// Execution state name (`active`, `stalled_dep`, `stalled_fetch`,
    /// `halted`).
    pub state: &'static str,
    /// Current program counter (next instruction, or the stalled one).
    pub pc: u64,
    /// Instructions retired so far (cumulative).
    pub retired: u64,
    /// Cumulative CPI-stack cycles `[active, dep_stall, fetch_stall,
    /// drained]` from the stall-attribution layer; the emitter
    /// differences consecutive snapshots into the per-interval deltas
    /// the JSON line carries.
    pub cpi: [u64; 4],
}

/// One cut of simulated run state, as assembled by the orchestrator.
/// Every field is a pure function of the simulation; the emitter adds
/// the host-side rate fields when serializing.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Current simulated cycle.
    pub cycle: u64,
    /// Configured cycle budget.
    pub max_cycles: u64,
    /// Instructions retired across cores (cumulative).
    pub retired: u64,
    /// Fraction of retirements through the superblock fused path.
    pub block_hit_rate: f64,
    /// Events popped from the hierarchy event queue so far.
    pub event_pops: u64,
    /// Cores halted so far.
    pub halted: u64,
    /// Per-core state.
    pub cores: Vec<CoreStatus>,
}

/// Names of the CPI-stack columns in [`CoreStatus::cpi`] order, used
/// as the JSON keys of the per-core `cpi` object.
pub const CPI_COLS: [&str; 4] = ["active", "dep_stall", "fetch_stall", "drained"];

/// Streams status snapshots to a file as bounded JSON lines.
///
/// Create one with [`StatusEmitter::create`], poll [`StatusEmitter::due`]
/// from the run loop, and hand over a [`StatusSnapshot`] when it says
/// so. The final snapshot of a run should be emitted unconditionally
/// so short runs still produce a file.
#[derive(Debug)]
pub struct StatusEmitter {
    path: PathBuf,
    tmp: PathBuf,
    /// Emission cadence in host milliseconds.
    interval_ms: u64,
    started: Instant,
    /// Host nanoseconds (since `started`) at which the next snapshot
    /// is due.
    next_due_ns: u64,
    /// Rolling call counter for the amortized clock read in `due`.
    calls: u32,
    /// Monotone snapshot sequence number.
    seq: u64,
    /// Bounded history of serialized lines.
    history: VecDeque<String>,
    /// Host seconds at the previous emit (rate denominators).
    last_elapsed: f64,
    /// Cycle / retired totals at the previous emit (rate numerators).
    last_cycle: u64,
    last_retired: u64,
    /// Per-core cumulative CPI columns at the previous emit.
    last_cpi: Vec<[u64; 4]>,
}

impl StatusEmitter {
    /// Builds an emitter writing to `path` every `interval_ms` host
    /// milliseconds, and writes an initial empty status file so a
    /// bad path fails the run up front instead of silently dropping
    /// every snapshot.
    ///
    /// # Errors
    ///
    /// Rejects an empty path and a zero interval; propagates the
    /// initial write failure.
    pub fn create(path: impl Into<PathBuf>, interval_ms: u64) -> Result<StatusEmitter, String> {
        let path = path.into();
        if path.as_os_str().is_empty() || path.to_string_lossy().trim().is_empty() {
            return Err("status path must be non-empty".to_owned());
        }
        if interval_ms == 0 {
            return Err("status interval must be at least 1 ms".to_owned());
        }
        let tmp = sibling_tmp(&path);
        fs::write(&path, b"").map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(StatusEmitter {
            path,
            tmp,
            interval_ms,
            started: Instant::now(),
            next_due_ns: interval_ms.saturating_mul(1_000_000),
            calls: 0,
            seq: 0,
            history: VecDeque::new(),
            last_elapsed: 0.0,
            last_cycle: 0,
            last_retired: 0,
            last_cpi: Vec::new(),
        })
    }

    /// The status file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The emission cadence in host milliseconds.
    #[must_use]
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Whether a snapshot is due. Cheap enough to poll every simulated
    /// cycle: the host clock is only read every `DUE_CHECK_STRIDE`
    /// calls. The returned bool gates an observation-only branch — it
    /// never reaches simulated state.
    pub fn due(&mut self) -> bool {
        self.calls += 1;
        if self.calls < DUE_CHECK_STRIDE {
            return false;
        }
        self.calls = 0;
        let elapsed_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        elapsed_ns >= self.next_due_ns
    }

    /// Serializes `snap` as one JSON line, appends it to the bounded
    /// history, and atomically replaces the status file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing or renaming the file; the run
    /// itself should treat these as fatal only at setup time (see
    /// [`StatusEmitter::create`]) — mid-run the caller may drop them.
    pub fn emit(&mut self, snap: &StatusSnapshot) -> io::Result<()> {
        let elapsed = self.started.elapsed().as_secs_f64();
        let line = self.render_line(snap, elapsed);
        if self.history.len() == STATUS_HISTORY {
            self.history.pop_front();
        }
        self.history.push_back(line);
        self.seq += 1;
        self.last_elapsed = elapsed;
        self.last_cycle = snap.cycle;
        self.last_retired = snap.retired;
        self.last_cpi = snap.cores.iter().map(|c| c.cpi).collect();
        let elapsed_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let interval_ns = self.interval_ms.saturating_mul(1_000_000);
        self.next_due_ns = elapsed_ns.saturating_add(interval_ns);

        let mut out = String::new();
        for line in &self.history {
            out.push_str(line);
            out.push('\n');
        }
        fs::write(&self.tmp, out.as_bytes())?;
        fs::rename(&self.tmp, &self.path)
    }

    /// Builds the JSON line for `snap` at host time `elapsed` seconds.
    fn render_line(&self, snap: &StatusSnapshot, elapsed: f64) -> String {
        let dt = elapsed - self.last_elapsed;
        let dcycles = snap.cycle.saturating_sub(self.last_cycle);
        let dretired = snap.retired.saturating_sub(self.last_retired);
        let (host_mips, cycles_per_sec) = if dt > 0.0 {
            (dretired as f64 / dt / 1.0e6, dcycles as f64 / dt)
        } else {
            (0.0, 0.0)
        };
        // ETA to the cycle budget at the current cycle rate — an upper
        // bound: runs that halt before `max_cycles` finish sooner.
        // Negative and divide-by-zero cases clamp to 0.
        let remaining = snap.max_cycles.saturating_sub(snap.cycle);
        let eta_seconds = if cycles_per_sec > 0.0 {
            remaining as f64 / cycles_per_sec
        } else {
            0.0
        };
        let cores: Vec<JsonValue> = snap
            .cores
            .iter()
            .enumerate()
            .map(|(i, core)| {
                let prev = self.last_cpi.get(i).copied().unwrap_or([0; 4]);
                let mut cpi = JsonValue::object();
                for (col, name) in CPI_COLS.iter().enumerate() {
                    cpi = cpi.with(name, core.cpi[col].saturating_sub(prev[col]));
                }
                JsonValue::object()
                    .with("core", core.core)
                    .with("state", core.state)
                    .with("pc", core.pc)
                    .with("retired", core.retired)
                    .with("cpi", cpi)
            })
            .collect();
        JsonValue::object()
            .with("schema_version", STATUS_SCHEMA_VERSION)
            .with("seq", self.seq)
            .with("cycle", snap.cycle)
            .with("max_cycles", snap.max_cycles)
            .with("retired", snap.retired)
            .with("elapsed_seconds", elapsed)
            .with("host_mips", host_mips)
            .with("cycles_per_sec", cycles_per_sec)
            .with("eta_seconds", eta_seconds)
            .with("block_hit_rate", snap.block_hit_rate)
            .with("event_pops", snap.event_pops)
            .with("halted", snap.halted)
            .with("cores", JsonValue::Array(cores))
            .to_string_compact()
    }
}

/// The sibling temp path the atomic replace writes through: same
/// directory (so the rename cannot cross filesystems), `.tmp` suffix.
fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| "status".to_owned(), |n| n.to_string_lossy().into_owned());
    name.push_str(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycle: u64, retired: u64) -> StatusSnapshot {
        StatusSnapshot {
            cycle,
            max_cycles: 1_000_000,
            retired,
            block_hit_rate: 0.5,
            event_pops: 7,
            halted: 0,
            cores: vec![CoreStatus {
                core: 0,
                state: "active",
                pc: 0x8000_0000,
                retired,
                cpi: [cycle, 2, 1, 0],
            }],
        }
    }

    #[test]
    fn create_rejects_bad_arguments() {
        assert!(StatusEmitter::create("", 100).is_err());
        assert!(StatusEmitter::create("   ", 100).is_err());
        let dir = std::env::temp_dir().join("coyote-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(StatusEmitter::create(dir.join("zero.jsonl"), 0).is_err());
    }

    #[test]
    fn emit_appends_lines_and_replaces_atomically() {
        let dir = std::env::temp_dir().join("coyote-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emit.jsonl");
        let mut emitter = StatusEmitter::create(&path, 100).unwrap();
        emitter.emit(&snap(100, 50)).unwrap();
        emitter.emit(&snap(200, 120)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(first.get("seq").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(second.get("seq").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(second.get("cycle").and_then(JsonValue::as_u64), Some(200));
        // CPI columns are deltas between consecutive snapshots.
        let cpi = second.get("cores").and_then(JsonValue::as_array).unwrap()[0]
            .get("cpi")
            .unwrap()
            .clone();
        assert_eq!(cpi.get("active").and_then(JsonValue::as_u64), Some(100));
        assert_eq!(cpi.get("dep_stall").and_then(JsonValue::as_u64), Some(0));
        // No stray tmp file survives the rename.
        assert!(!sibling_tmp(&path).exists());
    }

    #[test]
    fn history_is_bounded() {
        let dir = std::env::temp_dir().join("coyote-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bounded.jsonl");
        let mut emitter = StatusEmitter::create(&path, 100).unwrap();
        for i in 0..(STATUS_HISTORY as u64 + 10) {
            emitter.emit(&snap(i, i)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), STATUS_HISTORY);
        let first = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("seq").and_then(JsonValue::as_u64), Some(10));
    }

    #[test]
    fn due_is_amortized_and_respects_the_interval() {
        let dir = std::env::temp_dir().join("coyote-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("due.jsonl");
        // An hour-long interval can never be due inside a unit test.
        let mut emitter = StatusEmitter::create(&path, 3_600_000).unwrap();
        for _ in 0..10_000 {
            assert!(!emitter.due());
        }
    }
}
