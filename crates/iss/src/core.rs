//! One simulated core: hart + L1 caches + scoreboard + pending-miss
//! table.
//!
//! [`Core::step`] implements exactly the per-cycle contract the paper
//! gives the Orchestrator:
//!
//! * a RAW (or WAW) dependency on a pending memory access deactivates
//!   the core ([`StepEvent::DepStall`]);
//! * executed instructions probe the L1s and report misses for the
//!   event-driven hierarchy ([`MissRequest`]);
//! * once a miss is serviced ([`Core::complete_fill`]) the destination
//!   registers become available and a stalled core reactivates.

use std::fmt;

use coyote_asm::Program;
use coyote_isa::superblock::{build_plans, RunTable};
use coyote_isa::{Access, DecodedInst, Inst, OwnerAccesses, PredecodeStats, XReg};

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::exec::{defs, execute, execute_scalar, uses, Ecall, ExecError, MemAccess, RegSet};
use crate::hart::{Hart, DEFAULT_VLEN_BITS};
use crate::mem::{AddrMap, SparseMemory};
use crate::scoreboard::{dest_set, Scoreboard};
use crate::superblock::{ArmState, ArmedRun, FuseDiag, FusedAccess};

/// Configuration of one core.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Vector register length in bits.
    pub vlen_bits: u64,
    /// Whether the orchestrator may retire validated superblock runs
    /// through [`Core::step_block`] in multi-cycle windows (armed only
    /// by [`Core::ensure_fused_run`]). A host-speed knob: every cycle
    /// count, digest and exported metric is bit-identical either way
    /// (property-tested). On by default; `false` forces the
    /// per-instruction path everywhere (the A/B reference).
    pub fusion: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            l1i: CacheConfig::default_l1i(),
            l1d: CacheConfig::default_l1d(),
            vlen_bits: DEFAULT_VLEN_BITS,
            fusion: true,
        }
    }
}

/// Why a miss request is travelling into the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// Instruction fetch miss.
    Ifetch,
    /// Data load miss.
    Load,
    /// Data store miss (write-allocate fill).
    Store,
    /// Dirty-line eviction (fire-and-forget write-back).
    Writeback,
}

impl MissKind {
    /// Stable lower-case name used in flight-recorder lines, crash
    /// dumps and Chrome-trace request labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MissKind::Ifetch => "ifetch",
            MissKind::Load => "load",
            MissKind::Store => "store",
            MissKind::Writeback => "writeback",
        }
    }
}

/// An L1 miss crossing into the event-driven hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRequest {
    /// Issuing core index.
    pub core: usize,
    /// Line-aligned physical address.
    pub line_addr: u64,
    /// Request kind.
    pub kind: MissKind,
    /// Program counter of the instruction that caused the miss (the
    /// causal anchor for stall attribution).
    pub pc: u64,
}

/// Result of attempting one instruction on a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction retired.
    Retired,
    /// The core stalled on a register dependency (now inactive).
    DepStall,
    /// The core is waiting for an instruction-line fill (now inactive).
    FetchStall,
    /// The program on this core called exit.
    Halted(i64),
}

/// Core execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Will execute next cycle.
    Active,
    /// Waiting for a register dependency.
    StalledDep,
    /// Waiting for an instruction-line fill.
    StalledFetch,
    /// Exited.
    Halted(i64),
}

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles spent stalled on register dependencies.
    pub dep_stall_cycles: u64,
    /// Cycles spent stalled on instruction fetch.
    pub fetch_stall_cycles: u64,
    /// Number of times the core entered a dependency stall.
    pub dep_stalls: u64,
    /// Taken branches/jumps.
    pub branches: u64,
    /// Vector instructions retired.
    pub vector_retired: u64,
}

/// Errors surfaced while stepping a core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The PC points at a word that does not decode.
    Decode {
        /// Faulting PC.
        pc: u64,
        /// The word fetched.
        word: u32,
    },
    /// The instruction executed but hit an unsupported configuration.
    Exec {
        /// Faulting PC.
        pc: u64,
        /// Underlying error.
        source: ExecError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Decode { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
            SimError::Exec { pc, source } => write!(f, "at pc {pc:#x}: {source}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Exec { source, .. } => Some(source),
            SimError::Decode { .. } => None,
        }
    }
}

/// Pre-decoded text segment, shared by all cores of a simulation.
///
/// Decoding (and recomputing use/def sets) on every fetch would
/// dominate simulation time; Coyote's kernels never modify their text,
/// so the loader predecodes the whole segment once into a dense
/// micro-op table ([`DecodedInst`]) that [`Core::step`] indexes by PC.
#[derive(Debug, Clone)]
pub struct DecodedText {
    base: u64,
    insts: Vec<Option<DecodedInst>>,
    /// The superblock run table (rows indexed like `insts`): the static
    /// structure of every run and its pre-resolved uops, built here once
    /// for all cores and rebuilt only by [`DecodedText::invalidate`].
    runs: RunTable,
    /// Volume counters from the initial predecode pass.
    predecode_stats: PredecodeStats,
}

impl DecodedText {
    /// Pre-decodes a program's text section and builds its superblock
    /// run table.
    #[must_use]
    pub fn from_program(program: &Program) -> DecodedText {
        let (insts, predecode_stats) = coyote_isa::predecode_with_stats(program.text());
        let runs = build_plans(&insts);
        DecodedText {
            base: program.text_base(),
            insts,
            runs,
            predecode_stats,
        }
    }

    /// Volume counters from the initial predecode pass (the host
    /// profiler's predecode phase).
    #[must_use]
    pub fn predecode_stats(&self) -> PredecodeStats {
        self.predecode_stats
    }

    /// The decoded instruction at `pc`, if it lies in the text section
    /// and decodes.
    #[must_use]
    pub fn get(&self, pc: u64) -> Option<&Inst> {
        self.entry(pc).map(|entry| &entry.inst)
    }

    /// The predecoded micro-op at `pc`, if it lies in the text section
    /// and decodes. The hot-path lookup: one bounds check + one index.
    #[must_use]
    pub fn entry(&self, pc: u64) -> Option<&DecodedInst> {
        self.index_of(pc).and_then(|idx| self.insts[idx].as_ref())
    }

    /// The table index of `pc`, if it lies in the text section.
    #[must_use]
    pub fn index_of(&self, pc: u64) -> Option<usize> {
        if pc < self.base || !pc.is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - self.base) / 4) as usize;
        (idx < self.insts.len()).then_some(idx)
    }

    /// The predecoded entries, by table index (`None` = a hole).
    pub(crate) fn entries(&self) -> &[Option<DecodedInst>] {
        &self.insts
    }

    /// The superblock run table.
    #[must_use]
    pub fn runs(&self) -> &RunTable {
        &self.runs
    }

    /// Whether the byte range `[addr, addr + len)` intersects the text
    /// segment. Stores matching this must invalidate the predecoded
    /// entries they patch (see [`DecodedText::invalidate`]).
    #[must_use]
    pub fn overlaps(&self, addr: u64, len: u64) -> bool {
        let end = self.base + self.insts.len() as u64 * 4;
        addr < end && addr.saturating_add(len) > self.base
    }

    /// Invalidates every predecoded entry the byte range
    /// `[addr, addr + len)` touches: the slots become holes (so the
    /// stepper falls back to fetching and decoding the patched words
    /// from memory) and the run table is rebuilt, so every run stops
    /// before them. The one path that changes the table; a rebuild is
    /// linear in the text and only self-modifying code pays it.
    pub fn invalidate(&mut self, addr: u64, len: u64) {
        if !self.overlaps(addr, len) || len == 0 {
            return;
        }
        let end = self.base + self.insts.len() as u64 * 4;
        let lo = addr.max(self.base);
        let hi = addr.saturating_add(len).min(end);
        let first = ((lo - self.base) / 4) as usize;
        let last = ((hi - 1 - self.base) / 4) as usize;
        for slot in &mut self.insts[first..=last] {
            *slot = None;
        }
        self.runs = build_plans(&self.insts);
    }
}

/// Point-in-time diagnostic view of one core.
///
/// Embedded in deadlock reports and oracle divergence context so a
/// failure message can show where every core was without dumping the
/// whole machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSnapshot {
    /// Core index.
    pub core: usize,
    /// Execution state at snapshot time.
    pub state: CoreState,
    /// Program counter (next instruction, or the stalled one).
    pub pc: u64,
    /// Outstanding data-line misses.
    pub in_flight_lines: usize,
    /// Instruction line the fetcher is blocked on, if any.
    pub pending_fetch: Option<u64>,
    /// Instructions retired so far.
    pub retired: u64,
}

impl fmt::Display for CoreSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {}: {:?} at pc {:#x}, {} data line(s) in flight",
            self.core, self.state, self.pc, self.in_flight_lines
        )?;
        if let Some(line) = self.pending_fetch {
            write!(f, ", fetch blocked on line {line:#x}")?;
        }
        write!(f, ", {} retired", self.retired)
    }
}

/// One simulated core.
#[derive(Debug, Clone)]
pub struct Core {
    index: usize,
    hart: Hart,
    icache: Cache,
    dcache: Cache,
    scoreboard: Scoreboard,
    /// In-flight data lines → registers waiting on each.
    pending_data: AddrMap<RegSet>,
    /// In-flight instruction line the fetcher is blocked on.
    pending_fetch: Option<u64>,
    /// Union of the use/def sets of the instruction a dependency stall
    /// is blocked on (precise wake-up test).
    blocked_regs: RegSet,
    state: CoreState,
    stall_started: u64,
    stats: CoreStats,
    console: Vec<u8>,
    access_buf: Vec<MemAccess>,
    /// Fault-injection hook for oracle self-tests: when set, the next
    /// serviced data fill "delivers" into the wrong register,
    /// corrupting this register's architectural value.
    corrupt_fill: Option<XReg>,
    /// Whether runs may be armed ([`CoreConfig::fusion`]).
    fusion: bool,
    /// The last arm attempt's outcome: while `fused_left` is non-zero,
    /// the validated run. Its uops stay in range while it is armed: they
    /// were validated against this text, and text invalidation aborts
    /// every run ([`Core::abort_fused_run`]).
    armed: ArmedRun,
    /// Instructions remaining in the validated run; while non-zero, a
    /// window chunk may retire them through [`Core::step_block`].
    /// [`Core::step`] drops the run: a plain retirement moves the PC off
    /// it.
    fused_left: u32,
    /// Index into `armed.accesses` of the next access to retire (the
    /// run's accesses retire strictly in order).
    fused_cursor: usize,
    /// Index into `armed.accesses` below which no store is left to
    /// retire: nothing in `[fused_cursor, fused_next_store)` writes.
    /// Arming resets it to 0 and only [`Core::seek_next_store`]
    /// advances it, so a lone core's runs never pay for the scan; a
    /// value behind the cursor merely reads as "may store".
    fused_next_store: usize,
    /// Instructions retired through the fused path. A host-diagnostic
    /// counter: deliberately outside
    /// [`CoreStats`] so the determinism digest cannot vary with the
    /// fusion knob, while metrics still export it (`block_hit_rate`).
    fused_retired: u64,
    /// Arm/validate outcome counters for the host profiler (same
    /// digest-exclusion contract as `fused_retired`).
    fuse_diag: FuseDiag,
    /// `Some(r)`: the last arm attempt failed with `r` instructions
    /// retired. While `stats.retired` is still `r` and nothing cleared
    /// this, every input of the arm is unchanged, so the attempt would
    /// fail again the same way and is not repeated. Its one case: a
    /// window that ended on this core's failed re-arm is followed by a
    /// window that retries it in the same state (DESIGN §13).
    arm_failed_at: Option<u64>,
    /// Stores this core made into the text segment this cycle; the
    /// orchestrator drains them into [`DecodedText::invalidate`] at
    /// end of cycle.
    text_writes: Vec<(u64, u8)>,
}

impl Core {
    /// Creates core `index` starting at `entry`.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry in `config` is invalid; validate
    /// configurations with [`CacheConfig::validate`] first.
    #[must_use]
    pub fn new(index: usize, entry: u64, config: &CoreConfig) -> Core {
        Core {
            index,
            hart: Hart::new(index as u64, entry, config.vlen_bits),
            icache: Cache::new(config.l1i),
            dcache: Cache::new(config.l1d),
            scoreboard: Scoreboard::new(),
            pending_data: AddrMap::default(),
            pending_fetch: None,
            blocked_regs: RegSet::new(),
            state: CoreState::Active,
            stall_started: 0,
            stats: CoreStats::default(),
            console: Vec::new(),
            access_buf: Vec::new(),
            corrupt_fill: None,
            fusion: config.fusion,
            armed: ArmedRun::default(),
            fused_left: 0,
            fused_cursor: 0,
            fused_next_store: 0,
            fused_retired: 0,
            fuse_diag: FuseDiag::default(),
            arm_failed_at: None,
            text_writes: Vec::new(),
        }
    }

    /// Core index (also its `mhartid`).
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Architectural state (for result verification).
    #[must_use]
    pub fn hart(&self) -> &Hart {
        &self.hart
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Registers the current dependency stall is blocked on (union of
    /// the blocked instruction's use and def sets). Meaningful only
    /// while the core is in [`CoreState::StalledDep`]; the orchestrator
    /// snapshots it when opening a stall interval so attribution can
    /// report *which* architectural registers the code was waiting for.
    #[must_use]
    pub fn blocked_regs(&self) -> &RegSet {
        &self.blocked_regs
    }

    /// Counters as of `cycle`, folding an in-progress stall's elapsed
    /// cycles in. [`Core::stats`] accumulates stall time only when the
    /// core wakes, which would under-report a mid-stall epoch sample.
    #[must_use]
    pub fn stats_through(&self, cycle: u64) -> CoreStats {
        let mut stats = self.stats;
        let elapsed = cycle.saturating_sub(self.stall_started);
        match self.state {
            CoreState::StalledDep => stats.dep_stall_cycles += elapsed,
            CoreState::StalledFetch => stats.fetch_stall_cycles += elapsed,
            CoreState::Active | CoreState::Halted(_) => {}
        }
        stats
    }

    /// L1I counters.
    #[must_use]
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// L1D counters.
    #[must_use]
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Bytes written to the console via the `write` ecall.
    #[must_use]
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Number of data lines currently in flight.
    #[must_use]
    pub fn in_flight_lines(&self) -> usize {
        self.pending_data.len()
    }

    /// Data line addresses this core is waiting on, ascending (sorted
    /// so the diagnostic output is deterministic). Deadlock reports
    /// and crash dumps use this to show what a stalled core blocks on.
    #[must_use]
    pub fn waiting_lines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self.pending_data.keys().copied().collect();
        lines.sort_unstable();
        lines
    }

    /// Instruction line the fetcher is blocked on, if any.
    #[must_use]
    pub fn pending_fetch_line(&self) -> Option<u64> {
        self.pending_fetch
    }

    /// Captures a diagnostic snapshot of this core.
    #[must_use]
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            core: self.index,
            state: self.state,
            pc: self.hart.pc,
            in_flight_lines: self.pending_data.len(),
            pending_fetch: self.pending_fetch,
            retired: self.stats.retired,
        }
    }

    /// Arms a deliberate timing-model fault: the next data fill this
    /// core services clobbers `reg` instead of delivering cleanly, as
    /// if the hierarchy routed the completion to the wrong register.
    ///
    /// Mutation-testing hook — exists so the co-simulation oracle can
    /// be shown to catch exactly this class of timing-model bug.
    pub fn inject_fill_corruption(&mut self, reg: XReg) {
        self.corrupt_fill = Some(reg);
        // A corrupted register would invalidate the pre-computed
        // access addresses of a validated run.
        self.fused_left = 0;
        self.arm_failed_at = None;
    }

    /// Instructions retired through the fused superblock path.
    #[must_use]
    pub fn fused_retired(&self) -> u64 {
        self.fused_retired
    }

    /// Host-diagnostic arm outcome counters (see [`FuseDiag`]): how
    /// often this core armed runs and why arm attempts stopped.
    #[must_use]
    pub fn fuse_diag(&self) -> &FuseDiag {
        &self.fuse_diag
    }

    /// Position of the next instruction within the validated run.
    #[must_use]
    pub fn fused_pos(&self) -> u32 {
        self.armed.len - self.fused_left
    }

    /// The validated accesses of the next `n` run positions for the
    /// cross-core conflict test. The walk starts at the retirement
    /// cursor, and after [`Core::seek_next_store`] whether a store
    /// falls inside the `n` positions is known without walking.
    #[must_use]
    pub fn fused_window(&self, n: u32) -> OwnerAccesses<impl Iterator<Item = Access> + '_> {
        let end = self.fused_pos() + n;
        OwnerAccesses {
            owner: self.index,
            has_stores: self
                .armed
                .accesses
                .get(self.fused_next_store)
                .is_some_and(|next| next.pos < end),
            accesses: self.armed.accesses[self.fused_cursor..]
                .iter()
                .take_while(move |access| access.pos < end)
                .map(FusedAccess::access),
        }
    }

    /// Pre-computed memory accesses of the validated run (positions
    /// are run-relative; compare against [`Core::fused_pos`]).
    #[must_use]
    pub fn fused_accesses(&self) -> &[FusedAccess] {
        &self.armed.accesses
    }

    /// Abandons the validated run; the next step revalidates from
    /// scratch. Called on text-segment invalidation, which may have
    /// patched instructions inside the run.
    pub fn abort_fused_run(&mut self) {
        self.fused_left = 0;
        self.arm_failed_at = None;
    }

    /// Stores into the text segment recorded this cycle (drained by
    /// the orchestrator into [`DecodedText::invalidate`]).
    #[must_use]
    pub fn has_text_writes(&self) -> bool {
        !self.text_writes.is_empty()
    }

    /// Drains the recorded text-segment stores.
    pub fn take_text_writes(&mut self) -> Vec<(u64, u8)> {
        std::mem::take(&mut self.text_writes)
    }

    /// The one arm routine: ensures a validated run is armed at the
    /// current PC, arming the longest run that may retire through
    /// [`Core::step_block`] when none is. Returns the instructions left
    /// in the run (0 = this core cannot fuse from here). The checks are
    /// [`ArmState::validate`]'s; an attempt that already failed in the
    /// same state (`arm_failed_at`) is not repeated.
    // `#[inline]`: the orchestrator's window loop calls this once per
    // core per chunk from another crate; inlined, an armed core costs
    // one field load and only a run boundary pays the validation call.
    #[inline]
    pub fn ensure_fused_run(&mut self, text: &DecodedText) -> u32 {
        if self.fused_left > 0 || !self.fusion || self.corrupt_fill.is_some() {
            return self.fused_left;
        }
        if self.arm_failed_at == Some(self.stats.retired) {
            if cfg!(debug_assertions) {
                self.check_arm_memo(text);
            }
            return 0;
        }
        self.validate_run(text);
        let len = self.armed.len;
        self.fuse_diag.record_arm(len, self.armed.stop);
        if len == 0 {
            self.arm_failed_at = Some(self.stats.retired);
        }
        self.fused_left = len;
        self.fused_cursor = 0;
        self.fused_next_store = 0;
        len
    }

    /// Debug check of the arm memo: validation, re-run without being
    /// recorded, must fail again and stop for the same reason. An arm
    /// input that changes without a retirement and without clearing the
    /// memo fails it.
    fn check_arm_memo(&mut self, text: &DecodedText) {
        self.validate_run(text);
        let (len, stop) = (self.armed.len, self.armed.stop);
        debug_assert!(
            len == 0 && stop == self.fuse_diag.last_stop,
            "core {}: the arm memo skipped an attempt that now arms {len} ({stop:?}, was {:?})",
            self.index,
            self.fuse_diag.last_stop
        );
    }

    /// Moves `fused_next_store` to the first store the retirement
    /// cursor has not passed, so [`Core::fused_window`] can tell a
    /// store-free chunk in O(1). Called by the orchestrator on every
    /// armed core of a multi-core chunk before the cross-core conflict
    /// test; the scan is amortised over the run.
    pub fn seek_next_store(&mut self) {
        let from = self.fused_next_store.max(self.fused_cursor);
        let accesses = &self.armed.accesses;
        self.fused_next_store = accesses[from..]
            .iter()
            .position(|access| access.write)
            .map_or(accesses.len(), |ahead| from + ahead);
    }

    /// Runs the arm checks against this core's state into `armed`,
    /// recording nothing.
    fn validate_run(&mut self, text: &DecodedText) {
        let state = ArmState {
            hart: &self.hart,
            icache: &self.icache,
            dcache: &self.dcache,
            scoreboard: &self.scoreboard,
            pending_data: &self.pending_data,
        };
        state.validate(text, &mut self.armed);
    }

    /// Retires exactly `n` pre-validated instructions over the cycles
    /// `[_cycle, _cycle + n)` — the one fused retire routine, called
    /// only for the orchestrator's window chunks. The caller must have
    /// proved `n` is at most what [`Core::ensure_fused_run`] last
    /// returned.
    ///
    /// Validation proved: I-line and every accessed D-line resident
    /// (probing resident lines never evicts, so residency holds for
    /// the whole run), no scoreboard hazard, accessed lines not in
    /// flight, no trap/fence/CSR/AMO/vector op, no text-segment store.
    /// The checks the per-instruction body of [`Core::step`] makes and
    /// this skips are therefore exactly the ones that cannot fire, and
    /// every counter the skipped branches would have touched is still
    /// updated identically, with the bookkeeping hoisted to run
    /// granularity: the I-cache evolution of each straight segment (a
    /// loop run wraps to its body's head after each taken back edge) is
    /// applied as one batch per line, the D-cache evolution replays the
    /// pre-validated access list directly (identical counter/LRU/stats
    /// evolution, no
    /// associative scan), the run table's pre-resolved uops are read
    /// consecutively instead of per-PC lookup, each runs through the
    /// scalar kernel ([`crate::exec::execute_scalar`]) with no
    /// [`crate::Effects`] or access list built, and the retirement
    /// counters are bumped once.
    /// Only per-cache *final* state is observable at the chunk boundary,
    /// and each cache's own access sequence is preserved exactly, so
    /// the evolution is bit-identical. No instruction a run holds reads
    /// the cycle counter, so `_cycle` only names where the run retires.
    ///
    /// # Errors
    ///
    /// None: no shape a run holds can fail. The `Result` is the retire
    /// routines' common signature.
    // `#[inline]`: the orchestrator's window loop calls this once per
    // core per chunk from another crate, where without the hint it
    // stays an out-of-line call: `matmul_1c` and `matmul_128c` ran ~4 %
    // slower without it (EXPERIMENTS.md `plain-step`).
    #[inline]
    pub fn step_block(
        &mut self,
        mem: &mut SparseMemory,
        text: &DecodedText,
        _cycle: u64,
        n: u32,
    ) -> Result<(), SimError> {
        debug_assert!(n <= self.fused_left, "window exceeds validated run");
        if n == 0 {
            return Ok(());
        }
        let pos0 = self.armed.len - self.fused_left;
        let end = pos0 + n;
        // Replay the pre-validated data accesses of the next `n`
        // positions (validation proved them guaranteed hits; the
        // executed accesses are checked against them below).
        let mut checked = self.fused_cursor;
        while let Some(fa) = self.armed.accesses.get(self.fused_cursor) {
            if fa.pos >= end {
                break;
            }
            self.dcache.touch(fa.way, fa.write);
            self.fused_cursor += 1;
        }
        // One straight segment per pass: the rest of the row's body, or
        // of the chunk. A loop run wraps to the body's head after each
        // taken back edge. In range by construction (see `armed`).
        let body = self.armed.body;
        // Only a loop run's later iterations need the division.
        let mut at = if pos0 < body { pos0 } else { pos0 % body };
        let mut branches = 0u64;
        let mut pos = pos0;
        while pos < end {
            let seg = (body - at).min(end - pos);
            let seg_pc = self.hart.pc;
            debug_assert_eq!(
                seg_pc,
                self.armed.head + u64::from(at) * 4,
                "fused run left its body"
            );
            self.icache.touch_run(seg_pc, seg);
            let first = self.armed.uop + at as usize;
            let uops = &text.runs().uops()[first..first + seg as usize];
            for (i, &uop) in (0..seg).zip(uops) {
                debug_assert_eq!(
                    self.hart.pc,
                    seg_pc + u64::from(i) * 4,
                    "fused run left the straight line"
                );
                let done = execute_scalar(&mut self.hart, mem, uop);
                if cfg!(debug_assertions) {
                    if let Some(access) = done.access {
                        debug_assert_eq!(
                            self.armed
                                .accesses
                                .get(checked)
                                .map(|fa| (fa.pos, fa.addr, fa.size, fa.write)),
                            Some((pos + i, access.addr, access.size, access.write)),
                            "fused access diverged from validation at {:#x}",
                            seg_pc + u64::from(i) * 4
                        );
                        checked += 1;
                    }
                }
                branches += u64::from(done.branched);
            }
            pos += seg;
            at = 0;
        }
        debug_assert_eq!(checked, self.fused_cursor, "replayed an unexecuted access");
        self.stats.retired += u64::from(n);
        self.stats.branches += branches;
        self.fused_retired += u64::from(n);
        self.fused_left -= n;
        Ok(())
    }

    /// Attempts to execute one instruction at the current cycle: the
    /// paper's per-instruction step (fetch probe, hazard check,
    /// [`execute`], D-cache probes, retire). It never arms a run and
    /// drops any armed one; fused retirement happens only in window
    /// chunks ([`Core::step_block`]).
    ///
    /// Misses that must travel to the hierarchy are appended to
    /// `misses`. Returns the step outcome; on `DepStall`/`FetchStall`
    /// the core becomes inactive and must not be stepped again until a
    /// [`Core::complete_fill`] reactivates it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on undecodable instructions or unsupported
    /// vector configurations.
    ///
    /// # Panics
    ///
    /// Panics if called while the core is not [`CoreState::Active`]
    /// (orchestrator bug).
    pub fn step(
        &mut self,
        mem: &mut SparseMemory,
        text: &DecodedText,
        cycle: u64,
        misses: &mut Vec<MissRequest>,
    ) -> Result<StepEvent, SimError> {
        assert!(
            self.state == CoreState::Active,
            "stepped core {} in state {:?}",
            self.index,
            self.state
        );

        // A plain retirement moves the PC off any armed run; the next
        // window re-arms from wherever this step leaves the core.
        self.fused_left = 0;

        // ---- fetch ----
        let pc = self.hart.pc;
        let iline = self.icache.line_addr(pc);
        let iprobe = self.icache.access(pc, false);
        if !iprobe.hit {
            misses.push(MissRequest {
                core: self.index,
                line_addr: iline,
                kind: MissKind::Ifetch,
                pc,
            });
            self.pending_fetch = Some(iline);
            self.state = CoreState::StalledFetch;
            self.stall_started = cycle;
            return Ok(StepEvent::FetchStall);
        }

        // Fast path: predecoded micro-op. Slow path (PC outside the
        // predecoded text segment, e.g. trampolines materialized in
        // data memory): decode the fetched word on the spot.
        let slow;
        let entry = match text.entry(pc) {
            Some(entry) => entry,
            None => {
                let word = mem.read_u32(pc);
                slow = DecodedInst::from_word(word).ok_or(SimError::Decode { pc, word })?;
                &slow
            }
        };

        // ---- hazard check ----
        // Scalar use/def sets were cached at predecode time; vector
        // sets depend on the hart's live LMUL and must be recomputed.
        let (use_set, def_set) = if entry.lmul_sensitive {
            (uses(&entry.inst, &self.hart), defs(&entry.inst, &self.hart))
        } else {
            (entry.uses, entry.defs)
        };
        if self.scoreboard.blocks(&use_set, &def_set) {
            self.state = CoreState::StalledDep;
            self.stall_started = cycle;
            self.stats.dep_stalls += 1;
            self.blocked_regs = use_set;
            self.blocked_regs.insert_all(&def_set);
            return Ok(StepEvent::DepStall);
        }

        // ---- execute ----
        let mut accesses = std::mem::take(&mut self.access_buf);
        let fx = execute(
            &mut self.hart,
            mem,
            &entry.inst,
            cycle,
            self.stats.retired,
            &mut accesses,
        )
        .map_err(|source| SimError::Exec { pc, source })?;

        // ---- probe the D-cache for every access ----
        let dest_regs = fx.dest.map(dest_set).unwrap_or_default();
        let mut prev_line = None;
        for access in &accesses {
            // Self-modifying code: a store landing in the text segment
            // stales the predecoded table. Record it; the orchestrator
            // invalidates the patched entries at end of cycle.
            if access.write && text.overlaps(access.addr, u64::from(access.size)) {
                self.text_writes.push((access.addr, access.size));
            }
            let line = self.dcache.line_addr(access.addr);
            let probe = self.dcache.access(access.addr, access.write);
            if let Some(victim) = probe.writeback {
                misses.push(MissRequest {
                    core: self.index,
                    line_addr: victim,
                    kind: MissKind::Writeback,
                    pc,
                });
            }
            // The same line as this instruction's previous access: that
            // access installed or hit it, so the line's pending entry,
            // if any, already holds `dest_regs`, and no new miss can
            // arise. (An instruction's accesses are all loads or all
            // stores, so `waiting` below is the same for both.) Only an
            // immediate repeat qualifies: lines A, B, A visit A twice.
            if prev_line.replace(line) == Some(line) {
                continue;
            }
            // A destination register must wait for the fill when the
            // access reads memory: plain loads, but also read-modify-
            // write atomics — an AMO's rd carries the *old* memory
            // value, so skipping the scoreboard here let a dependent
            // consume it while the line (including a not-yet-drained
            // store to the same line) was still in flight.
            let waiting = (!access.write || access.rmw) && !dest_regs.is_empty();
            if !probe.hit {
                // New outstanding line (unless an in-flight request to
                // the same line already exists — an MSHR merge).
                let entry = self.pending_data.entry(line);
                let is_new = matches!(entry, std::collections::hash_map::Entry::Vacant(_));
                let regs = entry.or_default();
                if waiting {
                    // Acquire one scoreboard reference per (line, reg)
                    // pair: completion releases each line's set once.
                    let mut delta = dest_regs;
                    delta.remove(regs);
                    regs.insert_all(&dest_regs);
                    self.scoreboard.acquire(&delta);
                }
                if is_new {
                    misses.push(MissRequest {
                        core: self.index,
                        line_addr: line,
                        kind: if access.write {
                            MissKind::Store
                        } else {
                            MissKind::Load
                        },
                        pc,
                    });
                }
            } else if waiting && !self.pending_data.is_empty() {
                // Hit on a line that is still in flight: the data has
                // not arrived yet, so the destination must wait for it.
                // (The empty-map check skips the hash probe on the
                // common nothing-in-flight path.)
                if let Some(regs) = self.pending_data.get_mut(&line) {
                    let mut delta = dest_regs;
                    delta.remove(regs);
                    regs.insert_all(&dest_regs);
                    self.scoreboard.acquire(&delta);
                }
            }
        }
        accesses.clear();
        self.access_buf = accesses;

        // ---- retire ----
        self.stats.retired += 1;
        if entry.vector {
            self.stats.vector_retired += 1;
        }
        if fx.branched {
            self.stats.branches += 1;
        }
        match fx.ecall {
            Some(Ecall::Exit(code)) => {
                self.state = CoreState::Halted(code);
                return Ok(StepEvent::Halted(code));
            }
            Some(Ecall::PutChar(byte)) => self.console.push(byte),
            Some(Ecall::Unknown(_)) | None => {}
        }
        Ok(StepEvent::Retired)
    }

    /// Notifies the core that a miss it issued has been serviced.
    ///
    /// Returns `true` if the core transitioned from stalled to active
    /// (the orchestrator should resume stepping it). Writeback
    /// completions never arrive here — they are fire-and-forget.
    pub fn complete_fill(&mut self, line_addr: u64, kind: MissKind, cycle: u64) -> bool {
        // A fill changes what an arm reads: the fetch line it waited on,
        // the scoreboard, the pending-fill table.
        self.arm_failed_at = None;
        match kind {
            MissKind::Ifetch => {
                if self.pending_fetch == Some(line_addr) {
                    self.pending_fetch = None;
                    if self.state == CoreState::StalledFetch {
                        self.stats.fetch_stall_cycles += cycle.saturating_sub(self.stall_started);
                        self.state = CoreState::Active;
                        return true;
                    }
                }
                false
            }
            MissKind::Load | MissKind::Store => {
                if let Some(regs) = self.pending_data.remove(&line_addr) {
                    self.scoreboard.release(&regs);
                    if let Some(reg) = self.corrupt_fill.take() {
                        // Armed fault: deliver the fill into the wrong
                        // register (see `inject_fill_corruption`). The
                        // mutation invalidates any pre-computed fused
                        // access addresses, so abandon the run.
                        let bad = self.hart.x(reg) ^ 0xDEAD_BEEF;
                        self.hart.set_x(reg, bad);
                        self.fused_left = 0;
                    }
                }
                // Wake only when the blocked instruction's registers are
                // actually clear — spurious wake/re-stall churn dominates
                // many-core memory-bound simulations otherwise.
                if self.state == CoreState::StalledDep
                    && !self.scoreboard.blocks(&self.blocked_regs, &RegSet::new())
                {
                    self.stats.dep_stall_cycles += cycle.saturating_sub(self.stall_started);
                    self.state = CoreState::Active;
                    return true;
                }
                false
            }
            MissKind::Writeback => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::SparseMemory;
    use coyote_asm::assemble;

    fn setup(src: &str) -> (Core, SparseMemory, DecodedText) {
        let program = assemble(src).unwrap();
        let mut mem = SparseMemory::new();
        mem.load_program(&program);
        let text = DecodedText::from_program(&program);
        let core = Core::new(0, program.entry(), &CoreConfig::default());
        (core, mem, text)
    }

    /// Steps with immediate fill completion (a perfect hierarchy).
    fn run_to_halt(src: &str, max_steps: u64) -> (Core, SparseMemory) {
        let (mut core, mut mem, text) = setup(src);
        let mut misses = Vec::new();
        for cycle in 0..max_steps {
            if let CoreState::Halted(_) = core.state() {
                return (core, mem);
            }
            if core.state() == CoreState::Active {
                core.step(&mut mem, &text, cycle, &mut misses).unwrap();
            }
            for miss in misses.drain(..) {
                core.complete_fill(miss.line_addr, miss.kind, cycle);
            }
        }
        panic!("program did not halt in {max_steps} steps");
    }

    #[test]
    fn trivial_program_halts_with_code() {
        let (core, _) = run_to_halt("_start:\n li a0, 5\n li a7, 93\n ecall\n", 100);
        assert_eq!(core.state(), CoreState::Halted(5));
        assert_eq!(core.stats().retired, 3);
    }

    #[test]
    fn loop_computes_sum() {
        let (core, mem) = run_to_halt(
            ".data
             result: .dword 0
             .text
             _start:
                li t0, 0        # sum
                li t1, 1        # i
                li t2, 11       # bound
             loop:
                add t0, t0, t1
                addi t1, t1, 1
                bne t1, t2, loop
                la t3, result
                sd t0, 0(t3)
                li a0, 0
                li a7, 93
                ecall",
            1000,
        );
        let addr = 0x8100_0000; // default data base
        assert_eq!(mem.read_u64(addr), 55);
        assert_eq!(core.state(), CoreState::Halted(0));
        // Fusion is on by default, but `Core::step` alone never arms.
        assert_eq!(core.fused_retired(), 0);
        assert_eq!(core.fuse_diag().template_arms, 0);
    }

    #[test]
    fn fetch_miss_stalls_then_resumes() {
        let (mut core, mut mem, text) = setup("_start:\n li a7, 93\n li a0, 0\n ecall\n");
        let mut misses = Vec::new();
        let ev = core.step(&mut mem, &text, 0, &mut misses).unwrap();
        assert_eq!(ev, StepEvent::FetchStall);
        assert_eq!(misses.len(), 1);
        assert_eq!(misses[0].kind, MissKind::Ifetch);
        // Completing the fill reactivates.
        assert!(core.complete_fill(misses[0].line_addr, MissKind::Ifetch, 5));
        assert_eq!(core.state(), CoreState::Active);
        assert_eq!(core.stats().fetch_stall_cycles, 5);
    }

    #[test]
    fn raw_dependency_stalls_until_fill() {
        let (mut core, mut mem, text) = setup(
            ".data
             x: .dword 7
             .text
             _start:
                la t0, x
                ld t1, 0(t0)     # misses
                addi t2, t1, 1   # RAW on t1
                li a7, 93
                li a0, 0
                ecall",
        );
        let mut misses = Vec::new();
        let mut cycle = 0u64;
        // Warm fetch + run la (2 insts) and ld.
        let mut load_line = None;
        loop {
            cycle += 1;
            if core.state() == CoreState::Active {
                core.step(&mut mem, &text, cycle, &mut misses).unwrap();
            }
            for miss in misses.drain(..) {
                match miss.kind {
                    MissKind::Ifetch => {
                        core.complete_fill(miss.line_addr, MissKind::Ifetch, cycle);
                    }
                    MissKind::Load => load_line = Some(miss.line_addr),
                    _ => {}
                }
            }
            // Stop once the RAW instruction is attempted.
            if core.state() == CoreState::StalledDep {
                break;
            }
            assert!(cycle < 100, "never reached the RAW stall");
        }
        // The addi stalled; hart value is already correct functionally.
        let load_line = load_line.expect("ld missed");
        assert!(core.hart().x(coyote_isa::XReg::parse("t1").unwrap()).eq(&7));
        // Completing the data fill wakes the core.
        assert!(core.complete_fill(load_line, MissKind::Load, cycle + 10));
        assert_eq!(core.state(), CoreState::Active);
        assert!(core.stats().dep_stall_cycles > 0);
        assert_eq!(core.stats().dep_stalls, 1);
    }

    #[test]
    fn store_miss_does_not_stall() {
        let (mut core, mut mem, text) = setup(
            "_start:
                li t0, 0x81000000
                sd zero, 0(t0)
                addi t1, zero, 1
                li a7, 93
                li a0, 0
                ecall",
        );
        let mut misses = Vec::new();
        let mut cycle = 0;
        while !matches!(core.state(), CoreState::Halted(_)) {
            cycle += 1;
            if core.state() == CoreState::Active {
                core.step(&mut mem, &text, cycle, &mut misses).unwrap();
            }
            // Only complete ifetch fills: data fills never arrive, yet
            // the program must still finish because nothing reads the
            // stored value.
            for miss in misses.drain(..) {
                if miss.kind == MissKind::Ifetch {
                    core.complete_fill(miss.line_addr, MissKind::Ifetch, cycle);
                }
            }
            assert!(cycle < 1000);
        }
    }

    #[test]
    fn mshr_merge_same_line() {
        let (mut core, mut mem, text) = setup(
            ".data
             x: .dword 1
             y: .dword 2
             .text
             _start:
                la t0, x
                ld t1, 0(t0)
                ld t2, 8(t0)     # same 64 B line: no second request
                li a7, 93
                li a0, 0
                ecall",
        );
        let mut misses = Vec::new();
        let mut data_requests = 0;
        let mut cycle = 0;
        while !matches!(core.state(), CoreState::Halted(_)) && core.state() != CoreState::StalledDep
        {
            cycle += 1;
            if core.state() == CoreState::Active {
                core.step(&mut mem, &text, cycle, &mut misses).unwrap();
            }
            for miss in misses.drain(..) {
                match miss.kind {
                    MissKind::Ifetch => {
                        core.complete_fill(miss.line_addr, MissKind::Ifetch, cycle);
                    }
                    MissKind::Load => data_requests += 1,
                    _ => {}
                }
            }
            assert!(cycle < 1000);
        }
        assert_eq!(data_requests, 1, "second load should merge into the MSHR");
    }

    #[test]
    fn decode_error_reported_with_pc() {
        let program = assemble("_start:\n nop\n").unwrap();
        let mut mem = SparseMemory::new();
        mem.load_program(&program);
        // Corrupt the text after predecode.
        let text = DecodedText::from_program(&program);
        let mut core = Core::new(0, program.entry() + 8, &CoreConfig::default());
        let mut misses = Vec::new();
        // First step: ifetch miss.
        core.step(&mut mem, &text, 0, &mut misses).unwrap();
        for miss in misses.drain(..) {
            core.complete_fill(miss.line_addr, miss.kind, 0);
        }
        let err = core.step(&mut mem, &text, 1, &mut misses).unwrap_err();
        assert!(matches!(err, SimError::Decode { .. }));
        assert!(err.to_string().contains("illegal instruction"));
    }
}
