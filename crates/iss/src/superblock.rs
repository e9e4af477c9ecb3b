//! Dynamic half of the superblock translation engine: the arm check
//! and what it reports and records.
//!
//! The static half (`coyote_isa::superblock`) gives every text slot a
//! run-table row: how far a straight-line run starting there can ever
//! fuse, its memory ops as one slice, and the union of the registers it
//! names. [`ArmState::validate`] arms the longest prefix of that run for
//! which, against the *live* machine state, the stripped-down fused
//! path is bit-identical to the per-instruction one:
//!
//! * every instruction line of the run is resident in the L1I (probing
//!   a resident line never evicts, so residency is stable for the
//!   whole run);
//! * no instruction's use/def set is blocked by the scoreboard — exact
//!   because fused runs never *acquire* scoreboard references, so the
//!   pending mask can only shrink mid-run (fills completing), never
//!   grow: an instruction that is unblocked at arm time stays unblocked
//!   when its turn comes;
//! * every memory access is a guaranteed L1D hit: line resident, and —
//!   crucially — *not* in the pending-fill table (a hit on an in-flight
//!   line must wait for the data). Its address is computable at arm
//!   time because the static run stops before any memory op whose base
//!   register the run writes;
//! * no store lands in the text segment (self-modifying code takes
//!   the per-instruction path, which detects and invalidates);
//! * no fill-corruption fault is armed (checked by the core: the
//!   oracle's mutation hook rewrites a register mid-flight, which would
//!   invalidate the addresses computed at arm time).
//!
//! A run that fails any check is simply truncated at the first
//! uncertain instruction; prefixes of a valid run are valid runs. This
//! file also holds the vocabulary of that decision — why a run stopped
//! ([`FuseStop`]), the per-core tallies ([`FuseDiag`]) and the armed
//! accesses the orchestrator's cross-core test reads ([`FusedAccess`]).

use coyote_isa::superblock::MAX_RUN;
use coyote_isa::RegSet;
use coyote_isa::{cross_owner_conflict, Access, OwnerAccesses, StoreMap};

use crate::cache::Cache;
use crate::core::DecodedText;
use crate::hart::Hart;
use crate::mem::AddrMap;
use crate::scoreboard::Scoreboard;

/// Why an arm attempt stopped where it did — the
/// window-abort and re-arm reason taxonomy the host profiler reports.
///
/// Purely host-diagnostic: recording a stop never changes what is
/// armed, and the counters live outside `CoreStats` so the
/// determinism digest cannot see them. Two further abort reasons exist
/// only at the orchestrator (they involve more than one core):
/// cross-core access conflicts and text-segment invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseStop {
    /// The whole static run armed: nothing dynamic truncated it.
    RunEnd,
    /// No fusable run starts here (static run shorter than two
    /// instructions, or the PC is outside the predecoded text).
    TooShort,
    /// An instruction's use/def set was blocked by the scoreboard.
    ScoreboardBusy,
    /// An accessed data line has a fill in flight.
    PendingFill,
    /// An instruction or data line is not resident in its L1.
    LineNotResident,
    /// Never recorded: that a memory op's base register is written
    /// earlier in the run is decided at predecode time and shortens
    /// the static run, so it reads as [`FuseStop::RunEnd`] or
    /// [`FuseStop::TooShort`]. The variant stays so the `base_written`
    /// keys of metrics schema 5 keep existing (as zeros); the next
    /// schema bump drops it.
    BaseWritten,
    /// A store lands in the text segment (self-modifying code takes
    /// the per-instruction path so invalidation fires).
    TextStore,
}

impl FuseStop {
    /// All stop reasons, in a fixed export order.
    pub const ALL: [FuseStop; 7] = [
        FuseStop::RunEnd,
        FuseStop::TooShort,
        FuseStop::ScoreboardBusy,
        FuseStop::PendingFill,
        FuseStop::LineNotResident,
        FuseStop::BaseWritten,
        FuseStop::TextStore,
    ];

    /// Number of stop reasons (sizes per-reason counter arrays).
    pub const COUNT: usize = FuseStop::ALL.len();

    /// Stable snake_case name used as the JSON key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FuseStop::RunEnd => "run_end",
            FuseStop::TooShort => "too_short",
            FuseStop::ScoreboardBusy => "scoreboard_busy",
            FuseStop::PendingFill => "pending_fill",
            FuseStop::LineNotResident => "line_not_resident",
            FuseStop::BaseWritten => "base_written",
            FuseStop::TextStore => "text_store",
        }
    }
}

/// Host-diagnostic counters for one core's arms: how often
/// runs were armed and why arm attempts stopped. Like
/// `fused_retired`, deliberately outside `CoreStats` so the
/// determinism digest cannot vary with profiling; the orchestrator
/// aggregates these in core-index order when exporting a profile.
#[derive(Debug, Clone)]
pub struct FuseDiag {
    /// Arm attempts, all of them (the name is the exported key's, from
    /// when a second routine counted the rest).
    pub template_arms: u64,
    /// Always 0.
    // benchmark-compat: `benchmark/` adds this field to `template_arms`
    // for its arm-attempt count; ROADMAP item 2 lists it for deletion.
    pub full_validations: u64,
    /// Attempts that armed a run of length >= 2.
    pub armed_runs: u64,
    /// Stop-reason counts indexed by `FuseStop as usize`
    /// ([`FuseStop::ALL`] order).
    pub stops: [u64; FuseStop::COUNT],
    /// Reason the most recent attempt stopped (what the orchestrator
    /// reports when a multi-core window dies on a failed re-arm).
    pub last_stop: FuseStop,
    /// Exact armed-run-length distribution: `run_len_counts[n]` counts
    /// runs armed at length `n` (lengths are `2..=MAX_RUN`).
    pub run_len_counts: [u64; MAX_RUN as usize + 1],
}

impl Default for FuseDiag {
    fn default() -> FuseDiag {
        FuseDiag {
            template_arms: 0,
            full_validations: 0,
            armed_runs: 0,
            stops: [0; FuseStop::COUNT],
            last_stop: FuseStop::RunEnd,
            run_len_counts: [0; MAX_RUN as usize + 1],
        }
    }
}

impl FuseDiag {
    /// Records the outcome of one arm attempt: the length it armed
    /// (0 = per-instruction path) and why it stopped there.
    pub fn record_arm(&mut self, len: u32, stop: FuseStop) {
        self.template_arms += 1;
        self.stops[stop as usize] += 1;
        self.last_stop = stop;
        if len > 0 {
            self.armed_runs += 1;
            if let Some(slot) = self.run_len_counts.get_mut(len as usize) {
                *slot += 1;
            }
        }
    }
}

/// One pre-validated memory access of a fused run.
///
/// `pos` is the instruction's position within the validated run (0 =
/// first). The orchestrator uses these to prove that a multi-cycle
/// window's cross-core accesses are disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedAccess {
    /// Position within the validated run.
    pub pos: u32,
    /// Byte address (computed from pre-run register values, exact
    /// because the base register is not written earlier in the run).
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// `true` for stores.
    pub write: bool,
    /// Flat index of the accessed line in the L1D (from
    /// [`crate::cache::Cache::probe_way`] at validation time; stays
    /// valid for the whole run because nothing evicts mid-run). Lets
    /// the fused retirement replay the guaranteed hit without the
    /// associative scan.
    pub way: u32,
}

impl FusedAccess {
    /// The access as the cross-core conflict test sees it.
    #[must_use]
    pub fn access(&self) -> Access {
        Access {
            addr: self.addr,
            size: u64::from(self.size),
            write: self.write,
        }
    }
}

/// The machine state an arm attempt reads, borrowed from one core (or
/// built by a test that wants to validate against a chosen state).
#[derive(Debug, Clone, Copy)]
pub struct ArmState<'a> {
    /// Registers and pc.
    pub hart: &'a Hart,
    /// L1 instruction cache.
    pub icache: &'a Cache,
    /// L1 data cache.
    pub dcache: &'a Cache,
    /// Pending-register scoreboard.
    pub scoreboard: &'a Scoreboard,
    /// In-flight data lines.
    pub pending_data: &'a AddrMap<RegSet>,
}

/// What one arm attempt found: the run it may arm, why it stopped
/// there, and what the fused retirement replays.
#[derive(Debug, Clone)]
pub struct ArmedRun {
    /// Length it may arm (0 = none).
    pub len: u32,
    /// Why it stopped there.
    pub stop: FuseStop,
    /// The run's memory accesses, in order (empty when `len` is 0).
    pub accesses: Vec<FusedAccess>,
    /// Index of the start slot's uop in the run table.
    pub(crate) uop: usize,
}

impl Default for ArmedRun {
    fn default() -> ArmedRun {
        ArmedRun {
            len: 0,
            stop: FuseStop::RunEnd,
            accesses: Vec::new(),
            uop: 0,
        }
    }
}

impl ArmState<'_> {
    /// The checks of an arm attempt at the hart's pc, recording nothing:
    /// fills `run` with the length it may arm from the pc's text slot,
    /// why it stopped there, and that run's accesses.
    ///
    /// What depends only on the text is one row of the run table. What
    /// depends on machine state is rechecked now, one fact at a time,
    /// each check truncating the run at its first failure. The checks
    /// commute: the armed length is the smallest failing position, and a
    /// later check only renames the stop reason when it fails strictly
    /// earlier.
    pub fn validate(&self, text: &DecodedText, run: &mut ArmedRun) {
        run.accesses.clear();
        let pc = self.hart.pc;
        let row = text
            .index_of(pc)
            .and_then(|start| Some((start, text.runs().run(start)?)))
            // Fewer than two instructions gain nothing over the
            // per-instruction path.
            .filter(|(_, row)| row.len >= 2);
        let Some((start, row)) = row else {
            (run.len, run.stop) = (0, FuseStop::TooShort);
            return;
        };
        let (mut len, mut stop) = (row.len, FuseStop::RunEnd);

        // I-line residency is line-granular: one probe vouches for
        // every slot sharing the line.
        let line_bytes = self.icache.config().line_bytes;
        let mut slot_pc = pc;
        while slot_pc < pc + u64::from(len) * 4 {
            if self.icache.probe_way(slot_pc).is_none() {
                (len, stop) = (((slot_pc - pc) / 4) as u32, FuseStop::LineNotResident);
                break;
            }
            slot_pc = self.icache.line_addr(slot_pc) + line_bytes;
        }

        // Hazard check against the *current* mask: one test against the
        // run's register union, a per-slot scan only when it hits.
        // Exact: fused runs never acquire, so the mask only shrinks
        // while the run retires.
        if self.scoreboard.pending().intersects(&row.regs) {
            let slots = &text.entries()[start..start + len as usize];
            let busy = slots.iter().position(|slot| {
                slot.as_ref()
                    .is_some_and(|entry| self.scoreboard.blocks(&entry.uses, &entry.defs))
            });
            if let Some(i) = busy {
                (len, stop) = (i as u32, FuseStop::ScoreboardBusy);
            }
        }

        // Every memory op must be a guaranteed hit at an address known
        // now (the static run never writes a base before using it).
        let no_pending_data = self.pending_data.is_empty();
        let mut blocked = None;
        for op in text.runs().mem_ops(row) {
            let pos = op.slot - start as u32;
            if pos >= len {
                break;
            }
            let addr = self.hart.x(op.base).wrapping_add(op.offset as i64 as u64);
            let Some(way) = self.dcache.probe_way(addr) else {
                blocked = Some((pos, FuseStop::LineNotResident));
                break;
            };
            // A hit on an in-flight line must wait for the data.
            if !no_pending_data && self.pending_data.contains_key(&self.dcache.line_addr(addr)) {
                blocked = Some((pos, FuseStop::PendingFill));
                break;
            }
            // Self-modifying stores go through the per-instruction
            // path so invalidation fires.
            if op.write && text.overlaps(addr, u64::from(op.size)) {
                blocked = Some((pos, FuseStop::TextStore));
                break;
            }
            run.accesses.push(FusedAccess {
                pos,
                addr,
                size: op.size,
                write: op.write,
                way,
            });
        }
        if let Some(cut) = blocked {
            (len, stop) = cut;
        }

        if len < 2 {
            run.accesses.clear();
            len = 0;
        }
        (run.len, run.stop, run.uop) = (len, stop, row.uop as usize);
    }
}

/// Whether any access in `a`'s `a_limit` positions from `a_skip`
/// overlaps any access in `b`'s `b_limit` positions from `b_skip` at
/// byte granularity with at least one side writing. The summary-free
/// pairwise form of the orchestrator's window check
/// ([`crate::core::Core::fused_window`] feeds the same predicate from
/// the retirement cursor); debug builds cross-check the two.
#[must_use]
pub fn accesses_conflict(
    a: &[FusedAccess],
    a_skip: u32,
    a_limit: u32,
    b: &[FusedAccess],
    b_skip: u32,
    b_limit: u32,
) -> bool {
    let sides = [(a, a_skip, a_limit), (b, b_skip, b_limit)];
    let owners = sides
        .iter()
        .enumerate()
        .map(|(owner, &(accesses, skip, limit))| OwnerAccesses {
            owner,
            has_stores: true,
            accesses: accesses
                .iter()
                .filter(move |x| x.pos >= skip && x.pos < skip + limit)
                .map(FusedAccess::access),
        });
    cross_owner_conflict(&mut StoreMap::new(), owners)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(pos: u32, addr: u64, size: u8, write: bool) -> FusedAccess {
        FusedAccess {
            pos,
            addr,
            size,
            write,
            way: 0,
        }
    }

    #[test]
    fn conflict_requires_overlap_and_a_write() {
        let a = [access(0, 0x100, 8, true)];
        let b = [access(0, 0x104, 8, false)];
        assert!(accesses_conflict(&a, 0, 4, &b, 0, 4));
        // Disjoint bytes of the same line: no conflict.
        let c = [access(0, 0x108, 8, false)];
        assert!(!accesses_conflict(&a, 0, 4, &c, 0, 4));
        // Read-read overlap: no conflict.
        let d = [access(0, 0x100, 8, false)];
        assert!(!accesses_conflict(&d, 0, 4, &b, 0, 4));
    }

    #[test]
    fn conflict_window_respects_skip_and_limit() {
        let a = [access(5, 0x100, 8, true)];
        let b = [access(1, 0x100, 8, false)];
        // a's access is outside the first 4 positions.
        assert!(!accesses_conflict(&a, 0, 4, &b, 0, 4));
        assert!(accesses_conflict(&a, 4, 4, &b, 0, 4));
        // b's access is before its skip point.
        assert!(!accesses_conflict(&a, 4, 4, &b, 2, 4));
    }
}
