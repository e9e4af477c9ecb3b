//! The Orchestrator: couples the functional cores (Spike substitute)
//! with the event-driven hierarchy (Sparta substitute).
//!
//! Per the paper, every cycle the Orchestrator "first tries to simulate
//! an instruction on each of the active cores"; detected RAW
//! dependencies deactivate cores, L1 misses are "enqueued into Sparta",
//! and then the event model is advanced "to keep it in sync with the
//! rest of the simulation", waking stalled cores whose misses were
//! serviced.
//!
//! This file is the machine and those five steps. What a run records
//! about itself is behind the one `Observer` (`observe.rs`); how it
//! fails is `error.rs`; what it says afterwards, [`crate::report`] and
//! `crash.rs`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use coyote_asm::Program;
use coyote_isa::{cross_owner_conflict, StoreMap, XReg};
use coyote_iss::core::{Core, CoreState, DecodedText, StepEvent};
use coyote_iss::{MissKind, SparseMemory};
use coyote_mem::hierarchy::{Completion, Hierarchy, Request};
use coyote_mem::telemetry::MemTelemetry;
use coyote_oracle::{LockstepChecker, TRAIL_EVENTS};
use coyote_telemetry::hostprof::{HostProf, WallClock};
use coyote_telemetry::{JsonValue, TelemetrySink};

use crate::attr::StallAttribution;
use crate::config::{ConfigError, SimConfig};
use crate::error::RunError;
use crate::flight::FlightRecorder;
use crate::observe::Observer;
use crate::report::Report;
use crate::trace::{StateInterval, Trace};

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

/// A configured multicore simulation ready to run (the crate root has
/// the quick-start example).
pub struct Simulation {
    config: SimConfig,
    cores: Vec<Core>,
    /// Functional memory shared by every core.
    mem: SparseMemory,
    /// Predecoded text segment.
    text: DecodedText,
    hierarchy: Hierarchy,
    cycle: u64,
    /// Everything the run records about itself; strictly observational
    /// (it reads the orchestrator, never the other way around).
    obs: Observer,
    miss_buf: Vec<coyote_iss::MissRequest>,
    completion_buf: Vec<Completion>,
    /// Lockstep functional reference, present when the oracle is on.
    oracle: Option<LockstepChecker>,
    /// Indices of cores currently in [`CoreState::Active`], ascending —
    /// the execute phase's work list. Maintained incrementally (compacted
    /// after each step phase, re-inserted on wake) so per-cycle cost
    /// scales with *running* cores, not configured cores.
    active_list: Vec<usize>,
    /// Cores halted so far. Monotone — a halted core never runs again —
    /// so the end-of-run check is a counter compare, not a scan.
    halted: usize,
    /// Reused buffer: cores the execute phase deactivated this cycle.
    deactivated_buf: Vec<usize>,
    /// Reused buffer: cores this cycle's completion drain woke.
    woken_buf: Vec<usize>,
    /// Reused scratch: the store index of the fused-window chunks'
    /// cross-core conflict test.
    store_map: StoreMap,
    /// Graceful-stop token ([`Simulation::set_stop_handle`]), polled per cycle.
    stop: Option<Arc<AtomicBool>>,
    /// Test hook: swallow the next data-load completion, stranding its
    /// waiter — the only genuine deadlock a correct hierarchy allows.
    debug_drop_next_load_fill: bool,
}

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
        let mut mem = SparseMemory::new();
        mem.load_program(program);
        let cores = (0..config.cores)
            .map(|i| Core::new(i, program.entry(), &config.core))
            .collect();
        let mut hierarchy = Hierarchy::new(config.hierarchy())
            .map_err(|m| RunError::Config(ConfigError::new(m)))?;
        if config.telemetry {
            hierarchy.enable_telemetry(config.chrome_trace);
        }
        let mut obs = Observer::new(&config);
        let span = obs.enter("predecode");
        let text = DecodedText::from_program(program);
        obs.exit(span);
        let stats = text.predecode_stats();
        obs.bump("predecode/words", stats.words);
        obs.bump("predecode/decoded", stats.decoded);
        obs.bump("predecode/holes", stats.holes);
        Ok(Simulation {
            cores,
            mem,
            text,
            hierarchy,
            cycle: 0,
            obs,
            miss_buf: Vec::new(),
            completion_buf: Vec::new(),
            oracle: config
                .oracle
                .then(|| LockstepChecker::new(program, config.cores, config.core.vlen_bits)),
            active_list: (0..config.cores).collect(),
            halted: 0,
            deactivated_buf: Vec::new(),
            woken_buf: Vec::new(),
            store_map: StoreMap::new(),
            stop: None,
            debug_drop_next_load_fill: false,
            config,
        })
    }

    /// Attaches a property-test replay seed to oracle divergence reports.
    pub fn set_oracle_replay_seed(&mut self, seed: u64) {
        if let Some(oracle) = &mut self.oracle {
            oracle.set_replay_seed(seed);
        }
    }

    /// Mutation-testing hook for the oracle: `core`'s next data fill
    /// delivers into the wrong register.
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

    /// The functional memory, for populating workload data. Mutating it
    /// mid-run bypasses the cache model's view of traffic: call this
    /// only before [`Simulation::run`].
    #[must_use]
    pub fn memory_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }

    /// The simulated cores.
    #[must_use]
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The event-driven memory hierarchy.
    pub(crate) fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The host-side self-profiler, if [`SimConfig::profiling`] is on.
    #[must_use]
    pub fn host_prof(&self) -> Option<&HostProf> {
        self.obs.host_prof()
    }

    /// Total events popped from the hierarchy event queue so far.
    #[must_use]
    pub fn event_pops(&self) -> u64 {
        self.hierarchy.event_pops()
    }

    /// Arms a graceful-stop token: once `handle` reads `true`,
    /// [`Simulation::run`] finishes the cycle in progress and returns
    /// [`RunError::Stopped`] with all state intact, so
    /// [`Simulation::partial_report`] and every exporter still work.
    /// `#![forbid(unsafe_code)]` rules out a signal handler in the
    /// model; `coyote-sim --stop-file` flips this flag from a thread.
    pub fn set_stop_handle(&mut self, handle: Arc<AtomicBool>) {
        self.stop = Some(handle);
    }

    /// The flight recorder: the bounded ring of recent notable events.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        self.obs.flight()
    }

    /// The collected trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.obs.trace()
    }

    /// The epoch-sampling telemetry sink, if telemetry was enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.obs.telemetry()
    }

    /// The hierarchy's request-lifecycle telemetry, if enabled.
    #[must_use]
    pub fn mem_telemetry(&self) -> Option<&MemTelemetry> {
        self.hierarchy.telemetry()
    }

    /// Per-core CPI stacks and the critical-PC table (always collected;
    /// blame degrades to `other` when [`SimConfig::telemetry`] is off).
    #[must_use]
    pub fn attribution(&self) -> &StallAttribution {
        self.obs.attribution()
    }

    /// Core-state intervals collected for Chrome-trace export (none
    /// unless [`SimConfig::chrome_trace`] was set).
    pub fn chrome_states(&self) -> impl Iterator<Item = &StateInterval> {
        self.obs.chrome_states()
    }

    /// Logs one record per handled hierarchy event.
    pub fn set_event_log(&mut self, enabled: bool) {
        self.hierarchy.set_event_log(enabled);
    }

    /// Takes the accumulated hierarchy event log, leaving it empty.
    #[must_use]
    pub fn take_event_log(&mut self) -> Vec<coyote_mem::hierarchy::EventRecord> {
        self.hierarchy.take_event_log()
    }

    /// Test hook: the next data-load completion is swallowed before
    /// delivery, so its waiter stalls forever and the run ends in
    /// [`RunError::Deadlock`].
    #[doc(hidden)]
    pub fn debug_inject_lost_fill(&mut self) {
        self.debug_drop_next_load_fill = true;
    }

    /// Order-insensitive digest of the architecturally visible outcome:
    /// final cycle count, every core's exit code, statistics, cache
    /// counters and console bytes, the hierarchy statistics, and the
    /// full functional-memory image. Two runs of one program and config
    /// must agree on it even when their same-cycle event pop order
    /// differs ([`SimConfig::perturb_seed`]); a mismatch is a race.
    #[must_use]
    pub fn determinism_digest(&self) -> u64 {
        crate::report::determinism_digest(self.cycle, &self.cores, &self.hierarchy, &self.mem)
    }

    /// The machine's last known state as a structured crash dump:
    /// per-core snapshots, stalls, MSHR occupancy, the open hostprof
    /// phases and the flight-recorder tail. `reason` names the exit
    /// (`deadlock`, `oracle_divergence`, `panic`, `stopped`, …).
    #[must_use]
    pub fn crash_json(&self, reason: &str) -> JsonValue {
        crate::crash::crash_json(self, reason)
    }

    /// A report over the cycles that actually ran, marked `truncated`;
    /// `wall_time` is zero because a partial run's host throughput is
    /// not comparable to a finished one.
    #[must_use]
    pub fn partial_report(&self) -> Report {
        let mut report = self.report(std::time::Duration::ZERO);
        report.truncated = true;
        report
    }

    fn report(&self, wall_time: std::time::Duration) -> Report {
        Report::collect(self.cycle, &self.cores, &self.hierarchy, wall_time)
    }

    /// Runs until every core exits, producing the report. However the
    /// run ends, the observer is finished at the last cycle reached, so
    /// a stopped or failed run's CPI stacks and traces cover it too.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on core faults, deadlock, or when
    /// `max_cycles` is exceeded.
    pub fn run(&mut self) -> Result<Report, RunError> {
        // Wall time feeds only the report's host-MIPS diagnostics,
        // never the model; exports that must be byte-stable zero it.
        // The clock lives behind `coyote_telemetry::hostprof` — the
        // workspace's one wall-clock exception (see `clippy.toml`).
        let started = WallClock::start();
        let cut_short = loop {
            if self.step_cycle()? {
                return Ok(self.report(started.elapsed()));
            }
            // The cycle in progress finished above; stopping here
            // leaves the machine at a clean cycle boundary.
            let stop = self.stop.as_ref();
            if stop.is_some_and(|stop| stop.load(Ordering::Relaxed)) {
                break RunError::Stopped { cycle: self.cycle };
            }
            let cycles = self.config.max_cycles;
            if self.cycle >= cycles {
                break RunError::CycleLimit { cycles };
            }
        };
        self.obs
            .finish(&self.cores, &mut self.hierarchy, self.cycle);
        Err(cut_short)
    }

    /// Advances the system by one orchestrator cycle — the paper's five
    /// steps (§III-A), each a named call — or, when the execute step
    /// retired a fused window, by the window's width: the steps after
    /// it then run once at the window's last cycle, which per-cycle
    /// stepping would reach in exactly the same state.
    ///
    /// Returns `true` once every core has halted. That, like an error,
    /// ends the run: the observer is finished before either is returned.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on core faults or deadlock.
    pub fn step_cycle(&mut self) -> Result<bool, RunError> {
        let outcome = self.five_steps();
        if !matches!(outcome, Ok(false)) {
            self.obs
                .finish(&self.cores, &mut self.hierarchy, self.cycle);
        }
        outcome
    }

    fn five_steps(&mut self) -> Result<bool, RunError> {
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
        self.obs.end_of_cycle(&self.cores, &self.hierarchy, cycle);
        self.progress(cycle)
    }

    /// Steps 1–2, the one execute engine. Retires a window of `width`
    /// cycles in which every active core retires exactly one
    /// instruction per cycle, and returns `width`.
    ///
    /// The window is bounded so every observable event (hierarchy
    /// completion, telemetry sample, cycle limit) still lands on exactly
    /// the cycle it would have per-cycle. Inside a bound above one cycle
    /// the fused path retires validated superblock runs for as long as
    /// every active core holds one ([`Simulation::fused_window`], the
    /// only place a run is armed); when it retires nothing — the bound
    /// is one cycle, or some core cannot arm — the width-1 window is the
    /// paper's plain cycle: one per-instruction [`Core::step`] attempt
    /// per active core, which never fuses, after which stalled and
    /// halted cores leave the active list.
    fn execute(&mut self, cycle: u64) -> Result<u32, RunError> {
        let span = self.obs.enter("execute");
        let bound = self.window_bound(cycle);
        let width = if bound > 1 {
            self.fused_window(cycle, bound)?
        } else {
            0
        };
        if width > 0 {
            // No stalls, misses, state transitions or text stores
            // happen inside a fused window: nothing to compact.
            self.obs.exit(span);
            return Ok(width);
        }
        self.step_cores(cycle)?;
        self.refresh_active_list();
        self.obs.exit(span);
        if !self.deactivated_buf.is_empty() {
            self.obs
                .deactivated(&self.cores, &self.deactivated_buf, cycle);
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
    /// so runs under them never fuse, as does an empty active list
    /// (nothing to retire). A bound of one cycle skips the fused path,
    /// and the plain cycle never arms.
    fn window_bound(&self, cycle: u64) -> u32 {
        if self.oracle.is_some() || self.config.interleave != 1 || self.active_list.is_empty() {
            return 1;
        }
        let limit = self.config.max_cycles;
        let mut bound = limit.saturating_sub(cycle).saturating_add(1);
        // Events pending at the start of this cycle are due at `cycle`
        // or later (earlier ones were popped last cycle), so the bound
        // is always at least 1.
        if let Some(t) = self.hierarchy.next_event_time() {
            bound = bound.min(t.saturating_sub(cycle) + 1);
        }
        if let Some(due) = self.obs.next_due() {
            bound = bound.min(due.saturating_sub(cycle) + 1);
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
        let span = self.obs.enter("fused_window");
        let mut consumed = 0u32;
        while consumed < bound {
            let at = cycle + u64::from(consumed);
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
                    self.obs.window_stopped(at, Some((idx, stop)));
                }
                break;
            }
            if self.active_list.len() > 1 && self.window_conflicts(chunk) {
                self.obs.window_stopped(at, None);
                break;
            }
            for &idx in &self.active_list {
                // Core-index order — though any order would do: the
                // chunk's accesses are pairwise disjoint across cores,
                // so the per-cycle interleaving and this per-core order
                // commute.
                self.cores[idx]
                    .step_block(&mut self.mem, &self.text, at, chunk)
                    .map_err(|source| RunError::Core { core: idx, source })?;
            }
            consumed += chunk;
            self.obs.chunk_retired(&self.active_list, chunk);
        }
        self.obs.exit(span);
        Ok(consumed)
    }

    /// The plain cycle of [`Simulation::execute`]: one per-instruction
    /// [`Core::step`] attempt per active core in index order, directly
    /// against shared memory (the interleave factor reproduces Spike's
    /// back-to-back batching; Coyote proper uses 1). No instruction
    /// here retires through a fused run: a step drops any run the
    /// core's last window left armed. The oracle replays each
    /// retirement in this same global order, so its reference memory
    /// reproduces the timed machine's exact interleaving.
    fn step_cores(&mut self, cycle: u64) -> Result<(), RunError> {
        let span = self.obs.enter("sequential");
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
        self.obs.exit(span);
        if let Some((core, source)) = fault {
            return Err(RunError::Core { core, source });
        }
        if let Some(mut divergence) = diverged {
            divergence.context = self.cores.iter().map(Core::snapshot).collect();
            divergence.trail = self.obs.flight().tail_lines(TRAIL_EVENTS);
            return Err(RunError::OracleDivergence(divergence));
        }
        Ok(())
    }

    /// Compacts the active list after a plain cycle: cores that left
    /// `Active` move to `deactivated_buf` (the exact transition list
    /// the observer is told) and halting cores bump the monotone halted
    /// count. O(cores stepped this cycle).
    fn refresh_active_list(&mut self) {
        self.deactivated_buf.clear();
        let mut write = 0;
        for read in 0..self.active_list.len() {
            let idx = self.active_list[read];
            match self.cores[idx].state() {
                CoreState::Active => {
                    self.active_list[write] = idx;
                    write += 1;
                }
                left => {
                    self.halted += usize::from(matches!(left, CoreState::Halted(_)));
                    self.deactivated_buf.push(idx);
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
        let span = self.obs.enter("miss_submit");
        for miss in self.miss_buf.drain(..) {
            self.obs.miss(cycle, &miss);
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
        self.obs.exit(span);
    }

    /// Steps 4–5: advances the event model to `cycle` and delivers the
    /// completed misses, waking the cores stalled on them.
    fn advance_and_wake(&mut self, cycle: u64) {
        let span = self.obs.enter("hier_advance");
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
            let woke = self.cores[core].complete_fill(completion.line_addr, kind, cycle);
            self.obs.completion(cycle, core, kind, &completion, woke);
            if woke {
                self.woken_buf.push(core);
            }
        }
        // Woken cores rejoin the active list at their index position
        // (ascending order is the deterministic step order).
        for &core in &self.woken_buf {
            let pos = self.active_list.binary_search(&core);
            let pos = pos.expect_err("woken core was already on the active list");
            self.active_list.insert(pos, core);
        }
        // A drain that serviced nothing has nothing to report — but
        // one that serviced *anything* must, to retire its candidates.
        if drained_any {
            self.obs.woken(&self.woken_buf, cycle);
        }
        self.obs.exit(span);
    }

    /// Progress bookkeeping — counter compares, not core scans: `halted`
    /// is monotone and the active list tracks `Active` exactly. Returns
    /// `true` once every core has halted.
    fn progress(&mut self, cycle: u64) -> Result<bool, RunError> {
        if self.halted == self.cores.len() {
            return Ok(true);
        }
        if self.active_list.is_empty() {
            // Every live core is stalled; fast-forward to the next
            // hierarchy event (or report a deadlock if there is none).
            // Clamp at the configured cycle limit: a hierarchy event
            // scheduled past `max_cycles` must still report the limit
            // as the cycle it was exceeded at, not the far-future event
            // time the simulation never actually reached.
            let Some(t) = self.hierarchy.next_event_time() else {
                return Err(RunError::Deadlock {
                    cycle,
                    cores: self.cores.iter().map(Core::snapshot).collect(),
                    stalls: crate::crash::stall_infos(&self.cores, &self.hierarchy),
                });
            };
            let resume = self.cycle.max(t.saturating_sub(1));
            self.cycle = resume.min(self.config.max_cycles);
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
        self.obs.bump("window/conflict_checks", 1);
        self.obs
            .bump("window/conflict_intervals", self.store_map.examined());
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
        let span = self.obs.enter("text_invalidate");
        let mut writes: Vec<(u64, u8)> = Vec::new();
        for core in &mut self.cores {
            writes.append(&mut core.take_text_writes());
        }
        if let Some(&(addr, _)) = writes.first() {
            self.obs.text_invalidated(self.cycle, addr);
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
        self.obs.exit(span);
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
        let states: Vec<_> = trace.states().collect();
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

    /// `dotprod.s` on 8 cores with every observation plane on.
    fn observed_dotprod() -> Simulation {
        let program = assemble(include_str!("../../../examples/asm/dotprod.s")).unwrap();
        let config = SimConfig::builder()
            .cores(8)
            .telemetry(true)
            .trace(true)
            .chrome_trace(true)
            .build()
            .unwrap();
        Simulation::new(config, &program).unwrap()
    }

    /// Request slices are sorted once, when the run ends. A document
    /// exported before that has the bytes of the same records in that
    /// order.
    #[test]
    fn a_chrome_document_exported_mid_run_is_in_canonical_order() {
        use coyote_mem::RequestSlice;
        let mut sim = observed_dotprod();
        while sim.cycle < 1_000 {
            assert!(!sim.step_cycle().unwrap(), "still running");
        }
        let sorted = |sim: &Simulation| {
            let slices = sim.mem_telemetry().unwrap().slices();
            slices.is_sorted_by_key(RequestSlice::order_key)
        };
        assert!(!sorted(&sim), "collected out of order");
        let mid_run = crate::chrome_trace_json(&sim).to_string_compact();
        sim.hierarchy.order_slices();
        assert!(sorted(&sim));
        assert_eq!(crate::chrome_trace_json(&sim).to_string_compact(), mid_run);
    }

    /// Exporting sorts nothing: compact, pretty and compact again give
    /// the same compact bytes, and stall links are in canonical order
    /// as collected.
    #[test]
    fn chrome_exports_repeat_byte_for_byte() {
        let mut sim = observed_dotprod();
        sim.run().unwrap();
        let key = |l: &crate::StallLink| (l.core, l.start, l.line_addr, l.tag);
        assert!(sim.attribution().links().is_sorted_by_key(key));
        let doc = crate::chrome_trace_json(&sim);
        let compact = doc.to_string_compact();
        assert!(doc.to_string_pretty().len() > compact.len());
        assert_eq!(doc.to_string_compact(), compact);
    }
}
