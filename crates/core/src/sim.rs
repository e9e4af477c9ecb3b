//! The Orchestrator: couples the functional cores (Spike substitute)
//! with the event-driven hierarchy (Sparta substitute).
//!
//! Per the paper, every cycle the Orchestrator "first tries to simulate
//! an instruction on each of the active cores"; detected RAW
//! dependencies deactivate cores, L1 misses are "enqueued into Sparta",
//! and then the event model is advanced "to keep it in sync with the
//! rest of the simulation", waking stalled cores whose misses were
//! serviced.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use coyote_asm::Program;
use coyote_isa::{cross_owner_conflict, StoreMap, XReg};
use coyote_iss::core::{Core, CoreSnapshot, CoreState, DecodedText, StepEvent};
use coyote_iss::{FuseStop, MissKind, SimError, SparseMemory};
use coyote_mem::hierarchy::{Completion, Hierarchy, Request};
use coyote_mem::telemetry::MemTelemetry;
use coyote_oracle::{Divergence, LockstepChecker, TRAIL_EVENTS};
use coyote_telemetry::hostprof::{HostProf, ProfClock, SpanToken, WallClock};
use coyote_telemetry::{EpochSnapshot, JsonValue, TelemetrySink};

use crate::attr::StallAttribution;
use crate::config::{ConfigError, ProfMode, SimConfig};
use crate::flight::{state_name, FlightKind, FlightRecorder};
use crate::report::{CoreReport, Report};
use crate::trace::{StateInterval, Trace, TraceEvent};

/// Error terminating a simulation run.
#[derive(Debug)]
pub enum RunError {
    /// The configuration was invalid.
    Config(ConfigError),
    /// A core faulted (illegal instruction, unsupported vector config).
    Core {
        /// Which core faulted.
        core: usize,
        /// The underlying fault.
        source: SimError,
    },
    /// No core can ever make progress again (all stalled or halted with
    /// an idle hierarchy) — indicates a kernel or simulator bug.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Snapshot of every core at detection time: state, stalled PC
        /// and outstanding-miss counts.
        cores: Vec<CoreSnapshot>,
        /// Per stalled core: the line it waits on and where that line
        /// sits in the hierarchy, so the error display and the crash
        /// dump agree on what blocked whom.
        stalls: Vec<StallInfo>,
    },
    /// The co-simulation oracle caught the timed machine producing a
    /// different architectural result than the functional reference
    /// ([`SimConfig::oracle`]).
    OracleDivergence(Box<Divergence>),
    /// The configured cycle budget was exhausted.
    CycleLimit {
        /// The budget that was exceeded.
        cycles: u64,
    },
    /// A graceful stop was requested (see
    /// [`Simulation::set_stop_handle`]): the current cycle finished,
    /// the simulation state is intact, and a partial report is
    /// available via [`Simulation::partial_report`].
    Stopped {
        /// Cycle the run stopped after.
        cycle: u64,
    },
}

/// Why one core in a [`RunError::Deadlock`] report cannot make
/// progress: the cache line it waits on, and — when the hierarchy
/// still tracks an in-flight request for it — the bank MSHR holding
/// that fill plus the PC that issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallInfo {
    /// The stalled core.
    pub core: usize,
    /// PC of the blocked instruction.
    pub pc: u64,
    /// Line the core waits on (first outstanding data line, or the
    /// blocked fetch line). `None` if the core records no pending line
    /// — a scoreboard-level simulator bug.
    pub line: Option<u64>,
    /// Global bank index whose MSHR holds the in-flight fill.
    pub bank: Option<usize>,
    /// Issuing PC the hierarchy recorded for that in-flight request.
    pub issue_pc: Option<u64>,
}

impl fmt::Display for StallInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core {} blocked at pc {:#x}", self.core, self.pc)?;
        match self.line {
            Some(line) => write!(f, " on line {line:#x}")?,
            None => write!(f, " with no pending line")?,
        }
        if let Some(bank) = self.bank {
            write!(f, " (bank {bank} MSHR")?;
            if let Some(pc) = self.issue_pc {
                write!(f, ", issued at pc {pc:#x}")?;
            }
            write!(f, ")")?;
        } else if self.line.is_some() {
            write!(f, " (not in flight in the hierarchy)")?;
        }
        Ok(())
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "{e}"),
            RunError::Core { core, source } => write!(f, "core {core}: {source}"),
            RunError::Deadlock {
                cycle,
                cores,
                stalls,
            } => {
                write!(f, "deadlock at cycle {cycle}")?;
                for snap in cores {
                    write!(f, "\n  {snap}")?;
                }
                if !stalls.is_empty() {
                    write!(f, "\nblocked on:")?;
                    for stall in stalls {
                        write!(f, "\n  {stall}")?;
                    }
                }
                Ok(())
            }
            RunError::OracleDivergence(divergence) => write!(f, "{divergence}"),
            RunError::CycleLimit { cycles } => write!(f, "cycle limit {cycles} exceeded"),
            RunError::Stopped { cycle } => {
                write!(f, "run stopped by request after cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Core { source, .. } => Some(source),
            RunError::OracleDivergence(divergence) => Some(divergence.as_ref()),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

/// Maps a core state to its Paraver state value.
fn state_code(state: CoreState) -> u64 {
    match state {
        CoreState::Active => crate::trace::STATE_RUNNING,
        CoreState::StalledDep => crate::trace::STATE_DEP_STALL,
        CoreState::StalledFetch => crate::trace::STATE_FETCH_STALL,
        CoreState::Halted(_) => crate::trace::STATE_HALTED,
    }
}

/// Encodes (core, miss kind) into a hierarchy request tag.
fn encode_tag(core: usize, kind: MissKind) -> u64 {
    let code = match kind {
        MissKind::Ifetch => 0u64,
        MissKind::Load => 1,
        MissKind::Store => 2,
        MissKind::Writeback => 3,
    };
    ((core as u64) << 2) | code
}

/// Decodes a hierarchy completion tag back to (core, kind).
pub(crate) fn decode_tag(tag: u64) -> (usize, MissKind) {
    let kind = match tag & 0b11 {
        0 => MissKind::Ifetch,
        1 => MissKind::Load,
        2 => MissKind::Store,
        _ => MissKind::Writeback,
    };
    ((tag >> 2) as usize, kind)
}

/// Version of the `crash.json` document [`Simulation::crash_json`]
/// builds. Bump on any breaking change to its key names or value
/// semantics; moves independently of the metrics
/// [`crate::SCHEMA_VERSION`].
pub const CRASH_SCHEMA_VERSION: u64 = 6;

/// A configured multicore simulation ready to run.
///
/// # Examples
///
/// ```
/// use coyote::{SimConfig, Simulation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = coyote_asm::assemble(
///     "_start:
///         csrr a0, mhartid
///         li a7, 93
///         ecall",
/// )?;
/// let config = SimConfig::builder().cores(4).build()?;
/// let mut sim = Simulation::new(config, &program)?;
/// let report = sim.run()?;
/// assert_eq!(report.exit_codes(), Some(vec![0, 1, 2, 3]));
/// # Ok(())
/// # }
/// ```
pub struct Simulation {
    config: SimConfig,
    cores: Vec<Core>,
    /// Functional memory shared by every core.
    mem: SparseMemory,
    /// Predecoded text segment.
    text: DecodedText,
    hierarchy: Hierarchy,
    cycle: u64,
    /// Miss events (with `trace`) and the one store of core-state
    /// intervals both trace exporters read; present when `trace` or
    /// `chrome_trace` is on.
    trace: Option<Trace>,
    /// Per-core (state, since-cycle) for trace state intervals.
    state_track: Vec<(CoreState, u64)>,
    miss_buf: Vec<coyote_iss::MissRequest>,
    completion_buf: Vec<Completion>,
    /// Lockstep functional reference, present when the oracle is on.
    oracle: Option<LockstepChecker>,
    /// Epoch sampler, present when telemetry is on.
    telemetry: Option<TelemetrySink>,
    /// Per-core CPI stacks and the critical-PC table; always on.
    attr: StallAttribution,
    /// Indices of cores currently in [`CoreState::Active`], ascending —
    /// the execute phase's work list. Maintained incrementally (compacted
    /// after each step phase, re-inserted on wake) so per-cycle cost
    /// scales with *running* cores, not configured cores.
    active_list: Vec<usize>,
    /// Cores halted so far. Monotone — a halted core never runs again —
    /// so the end-of-run check is a counter compare, not a scan.
    halted: usize,
    /// Reused buffer: cores the execute phase deactivated this cycle
    /// (the exact list the attribution scan needs).
    deactivated_buf: Vec<usize>,
    /// Reused buffer: cores this cycle's completion drain woke.
    woken_buf: Vec<usize>,
    /// Reused scratch: the store index of the fused-window chunks'
    /// cross-core conflict test.
    store_map: StoreMap,
    /// Host-side self-profiler, present when [`SimConfig::profiling`]
    /// is not [`ProfMode::Off`]. Strictly observational: it reads the
    /// orchestrator, never the other way around — profiled and
    /// unprofiled runs are bit-identical (property-tested).
    prof: Option<HostProf>,
    /// Always-on flight recorder: bounded ring of recent notable
    /// events, dumped into crash reports. Pure observation of the
    /// simulated schedule.
    flight: FlightRecorder,
    /// Graceful-stop token, polled once per cycle when set (see
    /// [`Simulation::set_stop_handle`]).
    stop: Option<Arc<AtomicBool>>,
    /// Test hook: swallow the next data-load completion before
    /// delivery, stranding its waiter forever — the only way to produce
    /// a genuine [`RunError::Deadlock`] in a correct hierarchy.
    debug_drop_next_load_fill: bool,
}

/// The profile counters charged when a lockstep fused window stops
/// because a core failed to re-arm, indexed by that core's stop reason
/// (`FuseStop as usize`, [`FuseStop::ALL`] order): `FuseStop::name()`
/// under a `window/rearm_fail/` prefix (unit-tested below).
const REARM_FAIL_COUNTERS: [&str; FuseStop::COUNT] = [
    "window/rearm_fail/run_end",
    "window/rearm_fail/too_short",
    "window/rearm_fail/scoreboard_busy",
    "window/rearm_fail/pending_fill",
    "window/rearm_fail/line_not_resident",
    "window/rearm_fail/base_written",
    "window/rearm_fail/text_store",
];

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation of `program` under `config`.
    ///
    /// All cores start at the program's entry point; kernels partition
    /// work by reading `mhartid`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Config`] for invalid configurations.
    pub fn new(config: SimConfig, program: &Program) -> Result<Simulation, RunError> {
        config.validate()?;
        let mut prof = match config.profiling {
            ProfMode::Off => None,
            ProfMode::Wall => Some(HostProf::new(ProfClock::Wall, config.cores)),
            ProfMode::Counter => Some(HostProf::new(ProfClock::Counter, config.cores)),
        };
        let mut mem = SparseMemory::new();
        mem.load_program(program);
        let predecode_span = prof.as_mut().map(|p| p.enter("predecode"));
        let text = DecodedText::from_program(program);
        if let Some(p) = &mut prof {
            if let Some(span) = predecode_span {
                p.exit(span);
            }
            let stats = text.predecode_stats();
            p.bump("predecode/words", stats.words);
            p.bump("predecode/decoded", stats.decoded);
            p.bump("predecode/holes", stats.holes);
        }
        // `SimConfig::fusion` is authoritative for the per-core fused
        // dispatch; mirror it into the core configuration.
        let mut core_config = config.core;
        core_config.fusion = config.fusion;
        let cores = (0..config.cores)
            .map(|i| Core::new(i, program.entry(), &core_config))
            .collect();
        let mut hierarchy = Hierarchy::new(config.hierarchy())
            .map_err(|m| RunError::Config(ConfigError::new(m)))?;
        if config.telemetry {
            hierarchy.enable_telemetry(config.chrome_trace);
        }
        Ok(Simulation {
            cores,
            mem,
            text,
            hierarchy,
            cycle: 0,
            trace: (config.trace || config.chrome_trace).then(|| Trace::new(config.cores)),
            state_track: vec![(CoreState::Active, 0); config.cores],
            miss_buf: Vec::new(),
            completion_buf: Vec::new(),
            oracle: config
                .oracle
                .then(|| LockstepChecker::new(program, config.cores, config.core.vlen_bits)),
            telemetry: config
                .telemetry
                .then(|| TelemetrySink::new(config.metrics_interval)),
            attr: StallAttribution::new(
                config.cores,
                config.attribution_top_k,
                config.chrome_trace,
            ),
            active_list: (0..config.cores).collect(),
            halted: 0,
            deactivated_buf: Vec::new(),
            woken_buf: Vec::new(),
            store_map: StoreMap::new(),
            prof,
            flight: FlightRecorder::new(),
            stop: None,
            debug_drop_next_load_fill: false,
            config,
        })
    }

    /// Attaches a property-test replay seed to oracle divergence
    /// reports. No-op when the oracle is disabled.
    pub fn set_oracle_replay_seed(&mut self, seed: u64) {
        if let Some(oracle) = &mut self.oracle {
            oracle.set_replay_seed(seed);
        }
    }

    /// Arms a deliberate timing-model fault on `core`: its next data
    /// fill delivers into the wrong register. Mutation-testing hook
    /// used to demonstrate the oracle catches timing-model corruption.
    pub fn inject_fill_corruption(&mut self, core: usize, reg: XReg) {
        self.cores[core].inject_fill_corruption(reg);
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The functional memory (for verifying kernel results).
    #[must_use]
    pub fn memory(&self) -> &SparseMemory {
        &self.mem
    }

    /// Mutable access to the functional memory, for populating workload
    /// data before the run starts. Mutating memory mid-run bypasses the
    /// cache model's view of traffic; call this only before
    /// [`Simulation::run`].
    #[must_use]
    pub fn memory_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// The simulated cores.
    #[must_use]
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The host-side self-profiler, when [`SimConfig::profiling`] was
    /// enabled for this run.
    #[must_use]
    pub fn host_prof(&self) -> Option<&HostProf> {
        self.prof.as_ref()
    }

    /// Total events popped from the hierarchy event queue so far — the
    /// event-queue drain volume the host profile exports.
    #[must_use]
    pub fn event_pops(&self) -> u64 {
        self.hierarchy.event_pops()
    }

    /// Arms a graceful-stop token: once `handle` reads `true`,
    /// [`Simulation::run`] finishes the cycle in progress and returns
    /// [`RunError::Stopped`] with all state intact — a partial report
    /// marked `truncated` stays available via
    /// [`Simulation::partial_report`]. The token is how a CLI maps
    /// SIGINT/SIGTERM onto the run without any signal-handler
    /// machinery inside the model (`#![forbid(unsafe_code)]` rules out
    /// raw `sigaction`); `coyote-sim --stop-file` watches a file from
    /// a plain thread and flips this flag.
    pub fn set_stop_handle(&mut self, handle: Arc<AtomicBool>) {
        self.stop = Some(handle);
    }

    /// The flight recorder: the bounded ring of recent notable events.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Opens a profiling span, if profiling is on. The token must be
    /// handed back to [`Simulation::prof_exit`] on every path that
    /// continues the run (error paths may drop it: the run is over).
    fn prof_enter(&mut self, name: &'static str) -> Option<SpanToken> {
        self.prof.as_mut().map(|p| p.enter(name))
    }

    /// Closes a span opened by [`Simulation::prof_enter`].
    fn prof_exit(&mut self, span: Option<SpanToken>) {
        if let Some(prof) = &mut self.prof {
            if let Some(span) = span {
                prof.exit(span);
            }
        }
    }

    /// Adds `n` to a named profile counter, if profiling is on.
    fn prof_bump(&mut self, name: &'static str, n: u64) {
        if let Some(prof) = &mut self.prof {
            prof.bump(name, n);
        }
    }

    /// The collected trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref().filter(|_| self.config.trace)
    }

    /// The epoch-sampling telemetry sink, if telemetry was enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.telemetry.as_ref()
    }

    /// The hierarchy's request-lifecycle telemetry, if enabled.
    #[must_use]
    pub fn mem_telemetry(&self) -> Option<&MemTelemetry> {
        self.hierarchy.telemetry()
    }

    /// Per-core CPI stacks and the critical-PC table (always
    /// collected; blame splits degrade to `other` when
    /// [`SimConfig::telemetry`] is off).
    #[must_use]
    pub fn attribution(&self) -> &StallAttribution {
        &self.attr
    }

    /// Core-state intervals collected for Chrome-trace export (empty
    /// unless [`SimConfig::chrome_trace`] was set).
    #[must_use]
    pub fn chrome_states(&self) -> &[StateInterval] {
        match &self.trace {
            Some(trace) if self.config.chrome_trace => trace.states(),
            _ => &[],
        }
    }

    /// Enables hierarchy event logging (one record per handled event)
    /// for `coyote-audit --race` divergence localization.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.hierarchy.set_event_log(enabled);
    }

    /// Takes the accumulated hierarchy event log, leaving it empty.
    #[must_use]
    pub fn take_event_log(&mut self) -> Vec<coyote_mem::hierarchy::EventRecord> {
        self.hierarchy.take_event_log()
    }

    /// Arms the deliberate `HashMap`-ordered event drain in the
    /// hierarchy. Test hook proving `coyote-audit --race` fires on a
    /// genuine schedule race; never use outside the detector's
    /// self-test.
    #[doc(hidden)]
    pub fn debug_inject_unordered_drain(&mut self) {
        self.hierarchy.debug_inject_unordered_drain();
    }

    /// Arms a deliberate lost-fill fault: the next data-load completion
    /// is swallowed before delivery, so its waiter stalls forever and
    /// the run ends in [`RunError::Deadlock`]. Test hook for the
    /// deadlock report and the crash-dump path; never use outside
    /// tests.
    #[doc(hidden)]
    pub fn debug_inject_lost_fill(&mut self) {
        self.debug_drop_next_load_fill = true;
    }

    /// Order-insensitive digest of the architecturally visible outcome:
    /// final cycle count, every core's exit code, statistics, cache
    /// counters and console bytes, the hierarchy statistics, and the
    /// full functional-memory image.
    ///
    /// Two runs of the same program and config must produce equal
    /// digests even when their same-cycle cross-domain event pop order
    /// differs ([`SimConfig::perturb_seed`]); a mismatch is a
    /// schedule race.
    #[must_use]
    pub fn determinism_digest(&self) -> u64 {
        fn fnv(acc: u64, bytes: &[u8]) -> u64 {
            let mut h = acc;
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv(h, &self.cycle.to_le_bytes());
        for core in &self.cores {
            let exit = match core.state() {
                CoreState::Halted(code) => format!("halt:{code}"),
                other => format!("{other:?}"),
            };
            let line = format!(
                "core {} {exit} {:?} {:?} {:?}",
                core.index(),
                core.stats(),
                core.icache_stats(),
                core.dcache_stats(),
            );
            h = fnv(h, line.as_bytes());
            h = fnv(h, core.console());
        }
        h = fnv(h, format!("{:?}", self.hierarchy.stats()).as_bytes());
        h = fnv(h, &self.mem.digest().to_le_bytes());
        h
    }

    /// Runs until every core exits, producing the report.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on core faults, deadlock, or when
    /// `max_cycles` is exceeded.
    pub fn run(&mut self) -> Result<Report, RunError> {
        // Wall time feeds only the report's host-MIPS diagnostics,
        // never the model; exports that must be byte-stable zero it
        // (see `coyote_lint::race::run_once`). The clock itself lives
        // behind `coyote_telemetry::hostprof` — the workspace's one
        // path-pinned wall-clock exception.
        let started = WallClock::start();
        loop {
            if self.step_cycle()? {
                return Ok(self.build_report(started.elapsed()));
            }
            if let Some(stop) = &self.stop {
                // The cycle in progress finished above; stopping here
                // leaves the machine at a clean cycle boundary.
                if stop.load(Ordering::Relaxed) {
                    return Err(RunError::Stopped { cycle: self.cycle });
                }
            }
            if self.cycle >= self.config.max_cycles {
                return Err(RunError::CycleLimit {
                    cycles: self.config.max_cycles,
                });
            }
        }
    }

    /// Why each currently stalled core cannot make progress: its
    /// waiting line resolved against the hierarchy's in-flight state.
    fn stall_infos(&self) -> Vec<StallInfo> {
        self.cores
            .iter()
            .filter(|core| {
                matches!(
                    core.state(),
                    CoreState::StalledDep | CoreState::StalledFetch
                )
            })
            .map(|core| {
                let snap = core.snapshot();
                let line = core
                    .waiting_lines()
                    .first()
                    .copied()
                    .or_else(|| core.pending_fetch_line());
                let (bank, issue_pc) = line
                    .and_then(|l| self.hierarchy.in_flight_line_info(l))
                    .map_or((None, None), |(b, p)| (Some(b), Some(p)));
                StallInfo {
                    core: snap.core,
                    pc: snap.pc,
                    line,
                    bank,
                    issue_pc,
                }
            })
            .collect()
    }

    /// The machine's last known state as a structured crash dump:
    /// per-core snapshots with waiting lines, MSHR occupancy, the open
    /// hostprof phase stack, introspection counters, and the flight
    /// recorder tail. `reason` names the abnormal exit
    /// (`deadlock`, `oracle_divergence`, `panic`, `stopped`, …).
    #[must_use]
    pub fn crash_json(&self, reason: &str) -> JsonValue {
        let cores: Vec<JsonValue> = self
            .cores
            .iter()
            .map(|core| {
                let snap = core.snapshot();
                let waiting: Vec<JsonValue> = core
                    .waiting_lines()
                    .into_iter()
                    .map(JsonValue::from)
                    .collect();
                JsonValue::object()
                    .with("core", snap.core)
                    .with("state", state_name(snap.state))
                    .with("pc", snap.pc)
                    .with("retired", snap.retired)
                    .with("in_flight_lines", snap.in_flight_lines)
                    .with("waiting_lines", JsonValue::Array(waiting))
                    .with(
                        "pending_fetch",
                        snap.pending_fetch.map_or(JsonValue::Null, JsonValue::from),
                    )
            })
            .collect();
        let mshr: Vec<JsonValue> = self
            .hierarchy
            .mshr_occupancy()
            .into_iter()
            .map(JsonValue::from)
            .collect();
        let phases: Vec<JsonValue> = self
            .prof
            .as_ref()
            .map(|p| p.open_phases().into_iter().map(JsonValue::from).collect())
            .unwrap_or_default();
        let stalls: Vec<JsonValue> = self
            .stall_infos()
            .into_iter()
            .map(|s| {
                JsonValue::object()
                    .with("core", s.core)
                    .with("pc", s.pc)
                    .with("line", s.line.map_or(JsonValue::Null, JsonValue::from))
                    .with("bank", s.bank.map_or(JsonValue::Null, JsonValue::from))
                    .with(
                        "issue_pc",
                        s.issue_pc.map_or(JsonValue::Null, JsonValue::from),
                    )
            })
            .collect();
        JsonValue::object()
            .with("schema_version", CRASH_SCHEMA_VERSION)
            .with("reason", reason)
            .with("cycle", self.cycle)
            .with("cores", JsonValue::Array(cores))
            .with("stalls", JsonValue::Array(stalls))
            .with("mshr_occupancy", JsonValue::Array(mshr))
            .with("hostprof_phases", JsonValue::Array(phases))
            .with("event_pops", self.hierarchy.event_pops())
            .with("flight_recorder", self.flight.to_json())
    }

    /// A report over the cycles that actually ran, marked `truncated`.
    /// Valid after [`RunError::Stopped`] (the machine stopped at a
    /// clean cycle boundary); `wall_time` is zero because a partial
    /// run's host throughput is not comparable to a finished one.
    #[must_use]
    pub fn partial_report(&self) -> Report {
        let mut report = self.build_report(std::time::Duration::ZERO);
        report.truncated = true;
        report
    }

    /// Advances the system by one orchestrator cycle — the paper's five
    /// steps (§III-A), each a named call — or, when the execute step
    /// retired a fused window, by the window's width: the steps after
    /// it then run once at the window's last cycle, which per-cycle
    /// stepping would reach in exactly the same state.
    ///
    /// Returns `true` once every core has halted.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on core faults or deadlock.
    pub fn step_cycle(&mut self) -> Result<bool, RunError> {
        self.cycle += 1;
        // 1–2. Attempt instructions on each active core; RAW
        //      dependencies and fetch misses deactivate cores.
        let width = self.execute(self.cycle)?;
        self.cycle += u64::from(width) - 1;
        let cycle = self.cycle;
        // 3. Enqueue this cycle's L1 misses into the event model.
        self.submit_misses(cycle);
        // 4–5. Advance the event model to the current cycle; serviced
        //      misses wake the cores stalled on them.
        self.advance_and_wake(cycle);
        self.observe(cycle);
        self.progress(cycle)
    }

    /// Steps 1–2, the one execute engine. Retires a window of `width`
    /// cycles in which every active core retires exactly one
    /// instruction per cycle, and returns `width`.
    ///
    /// The window is bounded so every observable event (hierarchy
    /// completion, telemetry sample, cycle limit) still lands on exactly
    /// the cycle it would have per-cycle. Inside the bound the fused
    /// path retires validated superblock runs for as long as every
    /// active core holds one ([`Simulation::fused_window`]); when it
    /// retires nothing — the bound is one cycle, or some core cannot
    /// arm — the width-1 window is the paper's plain cycle: one
    /// [`Core::step`] attempt per active core, after which stalled and
    /// halted cores leave the active list.
    fn execute(&mut self, cycle: u64) -> Result<u32, RunError> {
        let span = self.prof_enter("execute");
        let bound = self.window_bound(cycle);
        let width = if bound > 1 {
            self.fused_window(cycle, bound)?
        } else {
            0
        };
        if width > 0 {
            // No stalls, misses, state transitions or text stores
            // happen inside a fused window: nothing to compact.
            self.prof_exit(span);
            return Ok(width);
        }
        self.step_cores(cycle)?;
        self.refresh_active_list();
        self.prof_exit(span);

        // Close `active` intervals for cores the step just deactivated
        // (stall attribution runs unconditionally, but a cycle in which
        // every stepped core retired cleanly cannot have opened an
        // interval, so the scan is skipped).
        if !self.deactivated_buf.is_empty() {
            self.attr
                .scan_after_step(&self.cores, &self.deactivated_buf, cycle);
        }
        // Self-modifying code: stores into the text segment recorded
        // during the step invalidate the patched predecoded entries
        // now, at one fixed point in the cycle.
        self.drain_text_writes();
        Ok(1)
    }

    /// How many cycles starting at `cycle` the execute step may retire
    /// as one window: up to and including the next hierarchy event, the
    /// next telemetry boundary and the cycle limit, so the
    /// once-per-window steps at the window's last cycle observe exactly
    /// the state per-cycle stepping would have produced there. The
    /// Paraver and Chrome planes record misses and core-state
    /// transitions only, and a window contains neither, so tracing does
    /// not shorten it. The oracle checks the canonical per-cycle
    /// retirement interleaving and `interleave > 1` retires several
    /// instructions per core per cycle: both pin the bound to one cycle,
    /// as does an empty active list (nothing to retire).
    fn window_bound(&self, cycle: u64) -> u32 {
        if self.oracle.is_some() || self.config.interleave != 1 || self.active_list.is_empty() {
            return 1;
        }
        let mut bound = self
            .config
            .max_cycles
            .saturating_sub(cycle)
            .saturating_add(1);
        if let Some(t) = self.hierarchy.next_event_time() {
            // Events pending at the start of this cycle are due at
            // `cycle` or later (earlier ones were popped last cycle),
            // so the bound is always at least 1.
            bound = bound.min(t.saturating_sub(cycle) + 1);
        }
        if let Some(sink) = &self.telemetry {
            bound = bound.min(sink.next_due().saturating_sub(cycle) + 1);
        }
        u32::try_from(bound).unwrap_or(u32::MAX)
    }

    /// The fused path of [`Simulation::execute`]: retires up to `bound`
    /// cycles through [`Core::step_block`] and returns how many (0 =
    /// nothing could be fused this cycle).
    ///
    /// Chunk-wise lockstep: every active core must hold a validated
    /// run; the chunk is the longest span every core can retire from
    /// its current run. At chunk boundaries exhausted cores re-arm
    /// (validation reads only the core's own registers, private
    /// caches, private fill table and the frozen text — none of
    /// which another core's fused retirement can touch — so mid-
    /// window revalidation sees exactly what per-cycle stepping
    /// would), and the window extends while every core stays armed,
    /// the chunks stay conflict-free and the bound holds. Every fused
    /// step is a validated guaranteed-hit retirement — no misses, no
    /// stalls, no state transitions, no console output, no new
    /// hierarchy events. With one active core there is nothing to
    /// conflict with, so its runs chain across branch targets until it
    /// fails to re-arm.
    fn fused_window(&mut self, cycle: u64, bound: u32) -> Result<u32, RunError> {
        let span = self.prof_enter("fused_window");
        let mut consumed = 0u32;
        while consumed < bound {
            let mut chunk = bound - consumed;
            let mut unarmed = None;
            for &idx in &self.active_list {
                let left = self.cores[idx].ensure_fused_run(&self.text);
                if left == 0 {
                    unarmed = Some(idx);
                    break;
                }
                chunk = chunk.min(left);
            }
            if let Some(idx) = unarmed {
                // The window ends the moment one core cannot re-arm.
                // When that breaks a lockstep under way, name the core
                // the others were cut short by and its validation stop
                // reason (a lone core's window just ends with its run).
                if consumed > 0 && self.active_list.len() > 1 {
                    let stop = self.cores[idx].fuse_diag().last_stop;
                    self.flight.record(
                        cycle + u64::from(consumed),
                        FlightKind::WindowAbort { core: idx, stop },
                    );
                    self.prof_bump(REARM_FAIL_COUNTERS[stop as usize], 1);
                }
                break;
            }
            if self.active_list.len() > 1 && self.window_conflicts(chunk) {
                self.flight
                    .record(cycle + u64::from(consumed), FlightKind::WindowConflict);
                self.prof_bump("window/cross_core_conflict", 1);
                break;
            }
            for &idx in &self.active_list {
                // Core-index order — though any order would do: the
                // chunk's accesses are pairwise disjoint across cores,
                // so the per-cycle interleaving and this per-core order
                // commute.
                self.cores[idx]
                    .step_block(
                        &mut self.mem,
                        &self.text,
                        cycle + u64::from(consumed),
                        chunk,
                    )
                    .map_err(|source| RunError::Core { core: idx, source })?;
            }
            consumed += chunk;
            if let Some(prof) = &mut self.prof {
                for &idx in &self.active_list {
                    prof.record_core("chunk_len", idx, u64::from(chunk));
                }
            }
        }
        self.prof_exit(span);
        Ok(consumed)
    }

    /// The plain cycle of [`Simulation::execute`]: one [`Core::step`]
    /// attempt per active core in index order, directly against shared
    /// memory (the interleave factor reproduces Spike's back-to-back
    /// batching; Coyote proper uses 1). The oracle replays each
    /// retirement in this same global order, so its reference memory
    /// reproduces the timed machine's exact interleaving.
    fn step_cores(&mut self, cycle: u64) -> Result<(), RunError> {
        let span = self.prof_enter("sequential");
        let mut diverged = None;
        let mut fault = None;
        {
            let Simulation {
                cores,
                mem,
                text,
                miss_buf,
                oracle,
                config,
                active_list,
                ..
            } = self;
            // Workload data is populated through `memory_mut` between
            // construction and the first cycle; give the oracle's
            // reference machine the same initial memory image.
            if cycle == 1 {
                if let Some(oracle) = oracle {
                    oracle.sync_memory(mem);
                }
            }
            'cores: for &idx in active_list.iter() {
                let core = &mut cores[idx];
                for _ in 0..config.interleave {
                    if core.state() != CoreState::Active {
                        break;
                    }
                    let event = match core.step(mem, text, cycle, miss_buf) {
                        Ok(event) => event,
                        Err(source) => {
                            fault = Some((idx, source));
                            break 'cores;
                        }
                    };
                    if let Some(oracle) = oracle {
                        if matches!(event, StepEvent::Retired | StepEvent::Halted(_)) {
                            if let Err(divergence) =
                                oracle.check_retirement(idx, cycle, core.hart(), mem)
                            {
                                diverged = Some(divergence);
                                break 'cores;
                            }
                        }
                    }
                }
            }
        }
        self.prof_exit(span);
        if let Some((core, source)) = fault {
            return Err(RunError::Core { core, source });
        }
        if let Some(mut divergence) = diverged {
            divergence.context = self.cores.iter().map(Core::snapshot).collect();
            divergence.trail = self.flight.tail_lines(TRAIL_EVENTS);
            return Err(RunError::OracleDivergence(divergence));
        }
        Ok(())
    }

    /// Compacts the active list after a plain cycle: cores that left
    /// `Active` move to `deactivated_buf` (the exact list the
    /// attribution scan needs) and halting cores bump the monotone
    /// halted count. O(cores stepped this cycle).
    fn refresh_active_list(&mut self) {
        self.deactivated_buf.clear();
        let mut write = 0;
        for read in 0..self.active_list.len() {
            let idx = self.active_list[read];
            let state = self.cores[idx].state();
            match state {
                CoreState::Active => {
                    self.active_list[write] = idx;
                    write += 1;
                }
                CoreState::Halted(code) => {
                    self.halted += 1;
                    self.deactivated_buf.push(idx);
                    self.flight
                        .record(self.cycle, FlightKind::Halt { core: idx, code });
                }
                CoreState::StalledDep | CoreState::StalledFetch => {
                    self.deactivated_buf.push(idx);
                    self.flight.record(
                        self.cycle,
                        FlightKind::Stall {
                            core: idx,
                            state,
                            pc: self.cores[idx].snapshot().pc,
                        },
                    );
                }
            }
        }
        self.active_list.truncate(write);
    }

    /// Step 3: hands the misses the execute step collected to the event
    /// model (and to the Paraver trace).
    fn submit_misses(&mut self, cycle: u64) {
        if self.miss_buf.is_empty() {
            return;
        }
        let span = self.prof_enter("miss_submit");
        let mut trace = self.trace.as_mut().filter(|_| self.config.trace);
        for miss in self.miss_buf.drain(..) {
            if let Some(trace) = &mut trace {
                trace.record(TraceEvent {
                    cycle,
                    core: miss.core,
                    kind: miss.kind,
                    line_addr: miss.line_addr,
                    pc: miss.pc,
                });
            }
            self.hierarchy.submit(
                cycle,
                Request {
                    line_addr: miss.line_addr,
                    tile: self.config.tile_of_core(miss.core),
                    needs_response: miss.kind != MissKind::Writeback,
                    tag: encode_tag(miss.core, miss.kind),
                    pc: miss.pc,
                },
            );
        }
        self.prof_exit(span);
    }

    /// Steps 4–5: advances the event model to `cycle` and delivers the
    /// completed misses, waking the cores stalled on them. Every fill
    /// that reaches a still-stalled core is a wake-cause candidate.
    fn advance_and_wake(&mut self, cycle: u64) {
        let span = self.prof_enter("hier_advance");
        self.hierarchy.advance(cycle, &mut self.completion_buf);
        let drained_any = !self.completion_buf.is_empty();
        self.woken_buf.clear();
        for completion in self.completion_buf.drain(..) {
            let (core, kind) = decode_tag(completion.tag);
            if self.debug_drop_next_load_fill && kind == MissKind::Load {
                // Armed test fault: strand the waiter (see
                // `debug_inject_lost_fill`).
                self.debug_drop_next_load_fill = false;
                continue;
            }
            match kind {
                MissKind::Load | MissKind::Store => {
                    self.attr.note_completion(core, false, &completion);
                }
                MissKind::Ifetch => self.attr.note_completion(core, true, &completion),
                MissKind::Writeback => {}
            }
            self.flight.record(
                cycle,
                FlightKind::Completion {
                    core,
                    kind,
                    line: completion.line_addr,
                },
            );
            if self.cores[core].complete_fill(completion.line_addr, kind, cycle) {
                self.woken_buf.push(core);
                self.flight.record(cycle, FlightKind::Wake { core });
            }
        }
        // Woken cores rejoin the active list at their index position
        // (ascending order is the deterministic step order).
        for i in 0..self.woken_buf.len() {
            let core = self.woken_buf[i];
            let pos = self
                .active_list
                .binary_search(&core)
                .expect_err("woken core was already on the active list");
            self.active_list.insert(pos, core);
        }
        // Close stall intervals for cores the drain woke. Only fills
        // wake cores and only `note_completion` queues candidates, so a
        // drain that serviced nothing has nothing to scan or clear —
        // but a drain that serviced *anything* must still run the scan
        // to retire this cycle's wake-cause candidates.
        if drained_any {
            self.attr
                .scan_after_drain(&self.cores, &self.woken_buf, cycle);
        }
        self.prof_exit(span);
    }

    /// Observation after the five steps: core-state intervals on
    /// transitions (Paraver and/or Chrome trace) and the epoch
    /// telemetry sample. The cycle counter can jump past epoch
    /// boundaries when fast-forwarding, so the sample covers whatever
    /// span actually elapsed.
    fn observe(&mut self, cycle: u64) {
        self.close_state_intervals(cycle, false);
        if self
            .telemetry
            .as_ref()
            .is_some_and(|sink| cycle >= sink.next_due())
        {
            self.flush_epoch_sample(cycle);
        }
    }

    /// Progress bookkeeping — counter compares, not core scans:
    /// `halted` is maintained by `refresh_active_list` (halting is
    /// monotone) and the active list tracks `Active` exactly. Returns
    /// `true` once every core has halted.
    fn progress(&mut self, cycle: u64) -> Result<bool, RunError> {
        if self.halted == self.cores.len() {
            self.attr.finish(&self.cores, cycle);
            self.close_state_intervals(cycle, true);
            // Flush the final partial epoch (the sink drops it if no
            // cycles elapsed since the last sample).
            self.flush_epoch_sample(cycle);
            return Ok(true);
        }
        if self.active_list.is_empty() {
            // Every live core is stalled; fast-forward to the next
            // hierarchy event (or report a deadlock if there is none).
            // Clamp at the configured cycle limit: a hierarchy event
            // scheduled past `max_cycles` must still report the limit
            // as the cycle it was exceeded at, not the far-future event
            // time the simulation never actually reached.
            match self.hierarchy.next_event_time() {
                Some(t) => {
                    self.cycle = self
                        .cycle
                        .max(t.saturating_sub(1))
                        .min(self.config.max_cycles);
                }
                None => {
                    return Err(RunError::Deadlock {
                        cycle,
                        cores: self.cores.iter().map(Core::snapshot).collect(),
                        stalls: self.stall_infos(),
                    })
                }
            }
        }
        Ok(false)
    }

    /// Whether any two active cores' validated accesses within the
    /// next `window` fused positions overlap at byte granularity with
    /// at least one side writing — the condition under which a
    /// multi-core window could observably differ from per-cycle
    /// interleaving. A chunk in which no core stores costs one O(1)
    /// look at each core's run summary.
    fn window_conflicts(&mut self, window: u32) -> bool {
        let Simulation {
            cores,
            active_list: actives,
            store_map,
            ..
        } = self;
        for &idx in actives.iter() {
            cores[idx].seek_next_store();
        }
        let conflict = cross_owner_conflict(
            store_map,
            actives.iter().map(|&idx| cores[idx].fused_window(window)),
        );
        // The cursor-and-summary walk must agree with the pairwise
        // reference checker, which re-filters each run from index 0.
        debug_assert_eq!(conflict, {
            let mut pairwise = false;
            'outer: for (i, &a) in actives.iter().enumerate() {
                for &b in &actives[i + 1..] {
                    if coyote_iss::accesses_conflict(
                        cores[a].fused_accesses(),
                        cores[a].fused_pos(),
                        window,
                        cores[b].fused_accesses(),
                        cores[b].fused_pos(),
                        window,
                    ) {
                        pairwise = true;
                        break 'outer;
                    }
                }
            }
            pairwise
        });
        self.prof_bump("window/conflict_checks", 1);
        self.prof_bump("window/conflict_intervals", self.store_map.examined());
        conflict
    }

    /// Drains text-segment stores recorded by the plain cycle's steps:
    /// invalidates the patched predecoded entries (in the simulation's
    /// table and the oracle's), and aborts every validated run —
    /// a patched word may sit inside one.
    fn drain_text_writes(&mut self) {
        // Only cores this cycle stepped can have recorded a write: the
        // still-active list plus this cycle's deactivations cover
        // exactly that set.
        let stepped_wrote = self
            .active_list
            .iter()
            .chain(&self.deactivated_buf)
            .any(|&idx| self.cores[idx].has_text_writes());
        if !stepped_wrote {
            return;
        }
        let span = self.prof_enter("text_invalidate");
        self.prof_bump("window/text_invalidation", 1);
        let mut writes: Vec<(u64, u8)> = Vec::new();
        for core in &mut self.cores {
            writes.append(&mut core.take_text_writes());
        }
        if let Some(&(addr, _)) = writes.first() {
            self.flight
                .record(self.cycle, FlightKind::TextInvalidate { addr });
        }
        for &(addr, size) in &writes {
            self.text.invalidate(addr, u64::from(size));
            if let Some(oracle) = &mut self.oracle {
                oracle.invalidate_text(addr, u64::from(size));
            }
        }
        for core in &mut self.cores {
            core.abort_fused_run();
        }
        self.prof_exit(span);
    }

    /// Takes one epoch-telemetry sample at `cycle`, if telemetry is on.
    /// Shared by the periodic sampler and the end-of-run final flush
    /// (the sink itself drops empty spans).
    fn flush_epoch_sample(&mut self, cycle: u64) {
        if self.telemetry.is_some() {
            let span = self.prof_enter("epoch_sample");
            let snapshot = self.epoch_snapshot(cycle);
            if let Some(sink) = &mut self.telemetry {
                sink.sample(snapshot);
            }
            self.prof_exit(span);
        }
    }

    /// Closes the open core-state interval of every core whose state
    /// changed since it opened — or of every core when `flush`, at the
    /// end of the run — into the store the Paraver and Chrome exporters
    /// share.
    fn close_state_intervals(&mut self, cycle: u64, flush: bool) {
        let Some(trace) = &mut self.trace else {
            return;
        };
        for (core, track) in self.cores.iter().zip(&mut self.state_track) {
            let current = core.state();
            if flush || current != track.0 {
                trace.record_state(StateInterval {
                    core: core.index(),
                    start: track.1,
                    end: cycle,
                    state: state_code(track.0),
                });
                *track = (current, cycle);
            }
        }
    }

    /// Builds the cumulative-counter snapshot the telemetry sink
    /// differences into one epoch sample.
    fn epoch_snapshot(&self, cycle: u64) -> EpochSnapshot {
        let per_core = self
            .cores
            .iter()
            .map(|core| {
                let stats = core.stats_through(cycle);
                [
                    stats.retired,
                    stats.dep_stall_cycles,
                    stats.fetch_stall_cycles,
                ]
            })
            .collect();
        let stats = self.hierarchy.stats();
        let mshr = self.hierarchy.mshr_occupancy();
        let per_bank = stats
            .banks
            .iter()
            .zip(&mshr)
            .map(|(bank, &occupancy)| [bank.hits, bank.misses, occupancy as u64])
            .collect();
        EpochSnapshot {
            cycle,
            per_core,
            per_core_blame: self.attr.dep().to_vec(),
            per_bank,
            noc_traversals: stats.noc.traversals,
            completed: stats.completed,
            queued_requests: self.hierarchy.queued_requests() as u64,
            in_flight: self.hierarchy.in_flight_requests() as u64,
            mc_busy_channels: self.hierarchy.mc_busy_channels(cycle) as u64,
        }
    }

    fn build_report(&self, wall_time: std::time::Duration) -> Report {
        Report {
            cycles: self.cycle,
            cores: self
                .cores
                .iter()
                .map(|core| CoreReport {
                    stats: core.stats(),
                    l1i: core.icache_stats(),
                    l1d: core.dcache_stats(),
                    exit_code: match core.state() {
                        CoreState::Halted(code) => Some(code),
                        _ => None,
                    },
                    console: core.console().to_vec(),
                    fused_retired: core.fused_retired(),
                })
                .collect(),
            hierarchy: self.hierarchy.stats(),
            wall_time,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_asm::assemble;

    fn run_program(src: &str, config: SimConfig) -> Report {
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn tag_round_trip() {
        for core in [0usize, 1, 7, 127] {
            for kind in [
                MissKind::Ifetch,
                MissKind::Load,
                MissKind::Store,
                MissKind::Writeback,
            ] {
                assert_eq!(decode_tag(encode_tag(core, kind)), (core, kind));
            }
        }
    }

    #[test]
    fn rearm_fail_counters_are_the_prefixed_stop_names() {
        for stop in FuseStop::ALL {
            assert_eq!(
                REARM_FAIL_COUNTERS[stop as usize],
                format!("window/rearm_fail/{}", stop.name())
            );
        }
    }

    #[test]
    fn multicore_hart_partitioning() {
        let src = "
            .data
            out: .zero 64
            .text
            _start:
                csrr t0, mhartid
                la t1, out
                slli t2, t0, 3
                add t1, t1, t2
                addi t3, t0, 100
                sd t3, 0(t1)
                mv a0, t0
                li a7, 93
                ecall";
        let config = SimConfig::builder().cores(8).build().unwrap();
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.exit_codes(), Some((0..8).collect()));
        let base = program.symbol("out").unwrap();
        for i in 0..8u64 {
            assert_eq!(sim.memory().read_u64(base + i * 8), 100 + i);
        }
        assert!(report.cycles > 0);
        assert!(report.total_retired() >= 8 * 8);
    }

    #[test]
    fn stalls_are_counted_with_slow_memory() {
        let src = "
            .data
            x: .dword 3
            .text
            _start:
                la t0, x
                ld t1, 0(t0)
                addi t2, t1, 1   # RAW right behind the load
                mv a0, t2
                li a7, 93
                ecall";
        let report = run_program(src, SimConfig::builder().cores(1).build().unwrap());
        assert_eq!(report.exit_codes(), Some(vec![4]));
        assert!(report.total_dep_stall_cycles() > 0, "{report}");
        assert!(report.cores[0].stats.dep_stalls >= 1);
    }

    #[test]
    fn deadlock_reported_for_impossible_waits() {
        // A program that never halts and only spins is NOT a deadlock
        // (the core stays active) — it hits the cycle limit instead.
        let src = "_start:\n j _start";
        let config = SimConfig::builder().max_cycles(10_000).build().unwrap();
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        match sim.run() {
            Err(RunError::CycleLimit { .. }) => {}
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }

    #[test]
    fn stall_fast_forward_clamps_at_cycle_limit() {
        // The first instruction misses in the L1I, so the only core
        // stalls immediately and the orchestrator fast-forwards toward
        // the fill's completion time — which lies far past the tiny
        // cycle limit. The fast-forward must clamp at the limit instead
        // of leaving the cycle counter at the (never-simulated) event
        // time.
        let src = "_start:\n li a0, 0\n li a7, 93\n ecall";
        let config = SimConfig::builder().cores(1).max_cycles(2).build().unwrap();
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        match sim.run() {
            Err(RunError::CycleLimit { cycles }) => assert_eq!(cycles, 2),
            other => panic!("expected cycle limit, got {other:?}"),
        }
        assert_eq!(
            sim.cycle(),
            2,
            "fast-forward left the cycle counter past the configured limit"
        );
    }

    #[test]
    fn interleave_reduces_simulated_cycles() {
        let src = "
            _start:
                li t0, 2000
            loop:
                addi t0, t0, -1
                bnez t0, loop
                li a0, 0
                li a7, 93
                ecall";
        let base = run_program(src, SimConfig::builder().cores(1).build().unwrap());
        let batched = run_program(
            src,
            SimConfig::builder().cores(1).interleave(8).build().unwrap(),
        );
        assert_eq!(base.total_retired(), batched.total_retired());
        assert!(
            batched.cycles * 4 < base.cycles,
            "interleave should compress cycles: {} vs {}",
            batched.cycles,
            base.cycles
        );
    }

    #[test]
    fn trace_collects_misses() {
        let src = "
            .data
            x: .dword 1
            .text
            _start:
                la t0, x
                ld t1, 0(t0)
                mv a0, t1
                li a7, 93
                ecall";
        let config = SimConfig::builder().cores(1).trace(true).build().unwrap();
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        sim.run().unwrap();
        let trace = sim.trace().expect("tracing enabled");
        assert!(!trace.is_empty());
        assert!(trace.events().iter().any(|e| e.kind == MissKind::Load));
        assert!(trace.events().iter().any(|e| e.kind == MissKind::Ifetch));
    }

    #[test]
    fn trace_records_state_intervals() {
        let src = "
            .data
            x: .dword 1
            .text
            _start:
                la t0, x
                ld t1, 0(t0)
                addi t2, t1, 1   # RAW: guarantees a dep-stall interval
                li a7, 93
                li a0, 0
                ecall";
        let config = SimConfig::builder().cores(1).trace(true).build().unwrap();
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        sim.run().unwrap();
        let trace = sim.trace().unwrap();
        let states = trace.states();
        assert!(!states.is_empty());
        assert!(states
            .iter()
            .any(|s| s.state == crate::trace::STATE_DEP_STALL));
        assert!(states
            .iter()
            .any(|s| s.state == crate::trace::STATE_RUNNING));
        // Intervals for one core tile the timeline without overlap.
        let mut cursor = 0;
        for interval in states.iter().filter(|s| s.core == 0) {
            assert!(interval.start >= cursor, "overlap at {interval:?}");
            cursor = interval.end;
        }
    }

    #[test]
    fn cpi_stack_partition_and_drain_accounting() {
        // Core 0 exits immediately and drains; core 1 spins for a while.
        let src = "
            _start:
                csrr t0, mhartid
                bnez t0, spin
                li a0, 0
                li a7, 93
                ecall
            spin:
                li t1, 200
            loop:
                addi t1, t1, -1
                bnez t1, loop
                li a0, 1
                li a7, 93
                ecall";
        let config = SimConfig::builder().cores(2).build().unwrap();
        let program = assemble(src).unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        let report = sim.run().unwrap();
        let attr = sim.attribution();
        for core in 0..2 {
            let dep: u64 = attr.dep()[core].iter().sum();
            assert_eq!(
                attr.active()[core] + dep + attr.fetch()[core] + attr.drained()[core],
                report.cycles,
                "core {core} CPI stack must partition the run"
            );
            assert_eq!(dep, report.cores[core].stats.dep_stall_cycles);
            assert_eq!(
                attr.fetch()[core],
                report.cores[core].stats.fetch_stall_cycles
            );
        }
        assert!(attr.drained()[0] > 0, "early-exit core must drain");
        assert_eq!(attr.drained()[1], 0, "last core to halt never drains");
    }

    #[test]
    fn determinism_end_to_end() {
        let src = "
            .data
            buf: .zero 4096
            .text
            _start:
                csrr t0, mhartid
                la t1, buf
                li t2, 64
            loop:
                slli t3, t0, 3
                add t3, t1, t3
                ld t4, 0(t3)
                addi t4, t4, 1
                sd t4, 0(t3)
                addi t0, t0, 4
                addi t2, t2, -1
                bnez t2, loop
                li a0, 0
                li a7, 93
                ecall";
        let run = || {
            let config = SimConfig::builder().cores(4).build().unwrap();
            let program = assemble(src).unwrap();
            let mut sim = Simulation::new(config, &program).unwrap();
            let report = sim.run().unwrap();
            let per_core: Vec<String> = report
                .cores
                .iter()
                .map(|c| format!("{:?}/{:?}/{:?}", c.stats, c.l1d, c.exit_code))
                .collect();
            (
                report.cycles,
                report.total_retired(),
                format!("{:?}{per_core:?}", report.hierarchy),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
