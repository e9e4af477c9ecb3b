//! Superblock fuse plans: static classification of predecoded text
//! for fused multi-instruction retirement.
//!
//! The per-cycle stepper ([`mod@crate::predecode`]) pays a fixed dispatch
//! cost per instruction: hazard check, access probing, miss-path
//! branches, oracle hooks. For straight-line scalar code whose lines
//! are resident and whose registers are clear, none of those branches
//! can fire — so the timing layer can *validate once* and then retire
//! the whole run through a stripped-down fast path that is exact by
//! construction.
//!
//! This module is the static half of that engine. [`build_plans`]
//! walks a predecoded text segment backwards and computes, per
//! instruction slot:
//!
//! * a [`FuseClass`]: is the instruction eligible inside a fused run,
//!   only as a run *terminator* (control flow ends the straight-line
//!   block), or excluded entirely (traps, fences, CSRs, AMOs, vector
//!   ops whose register groups depend on live `LMUL`, predecode
//!   holes)?
//! * a [`MemPlan`] for scalar memory ops: the base register and
//!   offset needed to recompute the access address at validation time
//!   without executing the instruction;
//! * `run_len`: how far a run starting here can ever fuse — everything
//!   about a run's length that depends only on the text: it is
//!   straight-line (ends at, and includes, a terminator; stops before
//!   an excluded slot), at most [`MAX_RUN`] long, and stops before a
//!   memory op whose base register an earlier instruction of the run
//!   writes.
//!
//! The table is built once per text segment and shared by every core;
//! a text-segment store re-derives the affected slots
//! ([`rebuild_runs`]). The dynamic half lives in the timing layer
//! (`Core::ensure_fused_run` in `crates/iss/src/core.rs`): at arm time
//! it rechecks only what depends on machine state — cache residency,
//! scoreboard, in-flight lines, access addresses — and truncates the
//! static run at the first failure. [`BlockSummary`] aggregates a
//! run's register footprint for diagnostics and tests.

use crate::inst::Inst;
use crate::predecode::{DecodedInst, RegSet};
use crate::reg::XReg;

/// Cap on fused run length: bounds the cost of one arm attempt and the
/// staleness window of the residency facts it relies on.
pub const MAX_RUN: u32 = 64;

/// Static plan for one scalar memory access inside a fusable run.
///
/// The fused path must know each access's address *before* executing
/// the run (to prove L1 residency and the absence of text-segment
/// stores). Scalar RISC-V memory ops compute `x[base] + offset`, so
/// the plan carries exactly those two ingredients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPlan {
    /// Base address register.
    pub base: XReg,
    /// Sign-extended byte offset.
    pub offset: i32,
    /// Access size in bytes.
    pub size: u8,
    /// `true` for stores.
    pub write: bool,
}

/// How an instruction may participate in a fused run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseClass {
    /// Plain scalar compute: fusable anywhere in a run.
    Plain,
    /// Scalar memory op: fusable when its [`MemPlan`] address is a
    /// guaranteed L1 hit on a line with no fill in flight.
    Mem(MemPlan),
    /// Control flow (branch/jal/jalr): fusable only as the final
    /// instruction of a run — the run ends at the redirect.
    Terminator,
    /// Never fused: traps, fences, CSR ops, AMOs, vector instructions
    /// (their register groups depend on live `LMUL`), and predecode
    /// holes. Always handled by the per-instruction path.
    Excluded,
}

/// The per-slot fuse plan for one predecoded instruction.
#[derive(Debug, Clone, Copy)]
pub struct FusePlan {
    /// Eligibility class.
    pub class: FuseClass,
    /// Length of the longest run starting at this slot that can ever
    /// fuse: straight-line up to and including a
    /// [`FuseClass::Terminator`], at most [`MAX_RUN`], stopping before
    /// a memory op whose base register the run writes; 0 when the slot
    /// itself is [`FuseClass::Excluded`].
    pub run_len: u32,
}

impl FusePlan {
    /// The plan for an excluded (or invalidated) slot.
    #[must_use]
    pub fn excluded() -> FusePlan {
        FusePlan {
            class: FuseClass::Excluded,
            run_len: 0,
        }
    }
}

/// Classifies one micro-op for fusion. `None` entries (predecode
/// holes) are excluded.
#[must_use]
pub fn classify(slot: Option<&DecodedInst>) -> FuseClass {
    let Some(entry) = slot else {
        return FuseClass::Excluded;
    };
    if entry.lmul_sensitive || entry.vector {
        return FuseClass::Excluded;
    }
    match entry.inst {
        Inst::Upper { .. }
        | Inst::Op { .. }
        | Inst::Op32 { .. }
        | Inst::FpOp { .. }
        | Inst::FpFma { .. }
        | Inst::FpCvt { .. } => FuseClass::Plain,
        Inst::Load {
            op, rs1, offset, ..
        } => FuseClass::Mem(MemPlan {
            base: rs1,
            offset,
            size: op.width().bytes() as u8,
            write: false,
        }),
        Inst::Store {
            op, rs1, offset, ..
        } => FuseClass::Mem(MemPlan {
            base: rs1,
            offset,
            size: op.width().bytes() as u8,
            write: true,
        }),
        Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } => FuseClass::Terminator,
        // System (traps, fences), Csr (side effects / counters), Amo
        // (read-modify-write ordering), and everything vector.
        _ => FuseClass::Excluded,
    }
}

/// The static run length of slot `idx`, given that every later slot's
/// `run_len` is already final. The one place a run's text-only limits
/// are decided:
///
/// * an excluded slot starts no run and a terminator is a run of
///   exactly itself; any other slot extends its successor's run;
/// * no run is longer than [`MAX_RUN`];
/// * a memory op's address must be computable from the registers as
///   they are *before* the run starts, so the run stops before the
///   first memory op whose base register this slot writes. (Writes by
///   later slots already cut the successor's run, which this one
///   extends — so checking this slot's own defs covers every earlier
///   writer.)
fn static_run_len(insts: &[Option<DecodedInst>], plans: &[FusePlan], idx: usize) -> u32 {
    match plans[idx].class {
        FuseClass::Excluded => 0,
        FuseClass::Terminator => 1,
        FuseClass::Plain | FuseClass::Mem(_) => {
            let next = plans.get(idx + 1).map_or(0, |next| next.run_len);
            let len = (1 + next).min(MAX_RUN);
            let defs = insts[idx]
                .as_ref()
                .map_or(RegSet::new(), |entry| entry.defs);
            (1..len)
                .find(|&pos| match plans[idx + pos as usize].class {
                    FuseClass::Mem(op) => {
                        let mut base = RegSet::new();
                        base.add_x(op.base);
                        defs.intersects(&base)
                    }
                    _ => false,
                })
                .unwrap_or(len)
        }
    }
}

/// Builds the per-slot fuse-plan table for a predecoded text segment:
/// classifies every slot, then one backwards pass fills in `run_len`.
#[must_use]
pub fn build_plans(insts: &[Option<DecodedInst>]) -> Vec<FusePlan> {
    let mut plans: Vec<FusePlan> = insts
        .iter()
        .map(|slot| FusePlan {
            class: classify(slot.as_ref()),
            run_len: 0,
        })
        .collect();
    for idx in (0..plans.len()).rev() {
        plans[idx].run_len = static_run_len(insts, &plans, idx);
    }
    plans
}

/// Recomputes `run_len` for the slots whose runs reach into
/// `[first, last]` after those slots were excluded (text-segment
/// invalidation). Walks backwards from `last` until a slot upstream of
/// `first` keeps its run length: its run stops short of the excluded
/// slots, and so does every run that extends it.
pub fn rebuild_runs(
    insts: &[Option<DecodedInst>],
    plans: &mut [FusePlan],
    first: usize,
    last: usize,
) {
    let last = last.min(plans.len().saturating_sub(1));
    if plans.is_empty() || first >= plans.len() {
        return;
    }
    let mut idx = last;
    loop {
        let run_len = static_run_len(insts, plans, idx);
        let changed = plans[idx].run_len != run_len;
        plans[idx].run_len = run_len;
        if idx == 0 || (!changed && idx < first) {
            break;
        }
        idx -= 1;
    }
}

/// Aggregate register/memory footprint of one fusable run — the
/// "superblock summary" used by diagnostics and the property tests
/// (the dynamic validator works per instruction and does not need the
/// union sets).
#[derive(Debug, Clone, Default)]
pub struct BlockSummary {
    /// Union of registers read anywhere in the run.
    pub reads: RegSet,
    /// Union of registers written anywhere in the run.
    pub writes: RegSet,
    /// Static memory-access descriptors, in program order.
    pub mem: Vec<MemPlan>,
    /// Number of instructions in the run.
    pub len: u32,
    /// Minimum cycles to retire the run (one per instruction on this
    /// single-issue model).
    pub min_cycles: u32,
    /// Whether the run ends in a control-flow terminator (a proper
    /// basic block) rather than at an uncertain boundary.
    pub terminated: bool,
}

/// Summarizes the fusable run starting at `start` (bounded by that
/// slot's `run_len`). Returns an empty summary when the slot is
/// excluded.
#[must_use]
pub fn summarize(insts: &[Option<DecodedInst>], plans: &[FusePlan], start: usize) -> BlockSummary {
    let mut summary = BlockSummary::default();
    let Some(plan) = plans.get(start) else {
        return summary;
    };
    let len = plan.run_len as usize;
    for idx in start..(start + len).min(insts.len()) {
        let Some(entry) = insts[idx].as_ref() else {
            break;
        };
        summary.reads.insert_all(&entry.uses);
        summary.writes.insert_all(&entry.defs);
        match plans[idx].class {
            FuseClass::Mem(mem_plan) => summary.mem.push(mem_plan),
            FuseClass::Terminator => summary.terminated = true,
            FuseClass::Plain | FuseClass::Excluded => {}
        }
        summary.len += 1;
    }
    summary.min_cycles = summary.len;
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(words: &[u32]) -> Vec<Option<DecodedInst>> {
        crate::predecode::predecode(words)
    }

    const ADDI_RA_1: u32 = 0x0010_0093; // addi ra, zero, 1
    const LD_T1_T0: u32 = 0x0002_b303; // ld t1, 0(t0)
    const SD_T1_T0: u32 = 0x0062_b023; // sd t1, 0(t0)
    const BEQ_BACK: u32 = 0xfe00_0ee3; // beq zero, zero, -4
    const ECALL: u32 = 0x0000_0073;
    const HOLE: u32 = 0xffff_ffff;

    #[test]
    fn classify_covers_the_eligibility_classes() {
        let t = table(&[ADDI_RA_1, LD_T1_T0, SD_T1_T0, BEQ_BACK, ECALL, HOLE]);
        assert_eq!(classify(t[0].as_ref()), FuseClass::Plain);
        match classify(t[1].as_ref()) {
            FuseClass::Mem(plan) => {
                assert!(!plan.write);
                assert_eq!(plan.size, 8);
                assert_eq!(plan.offset, 0);
            }
            other => panic!("ld classified {other:?}"),
        }
        match classify(t[2].as_ref()) {
            FuseClass::Mem(plan) => assert!(plan.write),
            other => panic!("sd classified {other:?}"),
        }
        assert_eq!(classify(t[3].as_ref()), FuseClass::Terminator);
        assert_eq!(classify(t[4].as_ref()), FuseClass::Excluded);
        assert_eq!(classify(t[5].as_ref()), FuseClass::Excluded);
    }

    #[test]
    fn run_lengths_chain_up_to_terminators_and_break_at_excluded() {
        let t = table(&[ADDI_RA_1, LD_T1_T0, BEQ_BACK, ADDI_RA_1, ECALL, ADDI_RA_1]);
        let plans = build_plans(&t);
        assert_eq!(
            plans.iter().map(|p| p.run_len).collect::<Vec<_>>(),
            vec![3, 2, 1, 1, 0, 1]
        );
    }

    #[test]
    fn vector_and_csr_instructions_are_excluded() {
        let vsetvli = DecodedInst::from_inst(Inst::Vsetvli {
            rd: XReg::new(10).expect("a0"),
            rs1: XReg::new(11).expect("a1"),
            vtype: crate::vtype::VType::default(),
        });
        assert_eq!(classify(Some(&vsetvli)), FuseClass::Excluded);
        let csrr = DecodedInst::from_inst(Inst::Csr {
            op: crate::inst::CsrOp::Rw,
            rd: XReg::new(10).expect("a0"),
            csr: crate::csr::Csr::MHARTID,
            src: crate::inst::CsrSrc::Imm(0),
        });
        assert_eq!(classify(Some(&csrr)), FuseClass::Excluded);
    }

    #[test]
    fn rebuild_after_invalidation_shortens_upstream_runs() {
        let mut t = table(&[ADDI_RA_1, ADDI_RA_1, ADDI_RA_1, BEQ_BACK]);
        let mut plans = build_plans(&t);
        assert_eq!(plans[0].run_len, 4);
        // Patch slot 2 into a hole (self-modifying store landed there).
        t[2] = None;
        plans[2] = FusePlan::excluded();
        rebuild_runs(&t, &mut plans, 2, 2);
        assert_eq!(
            plans.iter().map(|p| p.run_len).collect::<Vec<_>>(),
            vec![2, 1, 0, 1]
        );
    }

    const ADDI_T0_8: u32 = 0x0082_8293; // addi t0, t0, 8
    const LD_T0_T0: u32 = 0x0002_b283; // ld t0, 0(t0)

    /// The static length of the run at `start` by a forward walk from
    /// that slot alone — the reference `run_len` is checked against.
    fn naive_run_len(insts: &[Option<DecodedInst>], start: usize) -> u32 {
        let mut written = RegSet::new();
        let mut len = 0;
        while len < MAX_RUN {
            let Some(entry) = insts.get(start + len as usize).and_then(Option::as_ref) else {
                break;
            };
            match classify(Some(entry)) {
                FuseClass::Excluded => break,
                FuseClass::Terminator => return len + 1,
                FuseClass::Mem(op) => {
                    let mut base = RegSet::new();
                    base.add_x(op.base);
                    if written.intersects(&base) {
                        break;
                    }
                }
                FuseClass::Plain => {}
            }
            written.insert_all(&entry.defs);
            len += 1;
        }
        len
    }

    #[test]
    fn run_len_equals_a_forward_walk_from_every_slot_before_and_after_patching() {
        // A base-written hazard, a load that writes its own base, a
        // hole, a straight line longer than MAX_RUN, a trap.
        let mut words = vec![ADDI_RA_1, ADDI_T0_8, LD_T1_T0, ADDI_RA_1, BEQ_BACK];
        words.extend([LD_T0_T0, LD_T1_T0, SD_T1_T0, BEQ_BACK, HOLE]);
        words.extend([ADDI_RA_1; MAX_RUN as usize + 6]);
        words.extend([LD_T1_T0, ADDI_T0_8, SD_T1_T0, BEQ_BACK, ECALL, ADDI_RA_1]);
        let t = table(&words);
        let plans = build_plans(&t);
        let lens = |plans: &[FusePlan]| plans.iter().map(|p| p.run_len).collect::<Vec<_>>();
        let naive = |t: &[Option<DecodedInst>]| {
            (0..t.len())
                .map(|start| naive_run_len(t, start))
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(&plans), naive(&t));
        // The table holds what it claims to.
        assert_eq!(lens(&plans)[..10], [2, 1, 3, 2, 1, 1, 3, 2, 1, 0]);
        assert_eq!(plans[10].run_len, MAX_RUN, "clamped");
        assert_eq!(plans[10 + 8].run_len, MAX_RUN, "62 addi, ld, addi t0");
        assert_eq!(plans[10 + 9].run_len, MAX_RUN - 1, "stops before sd 0(t0)");

        // Every one- and two-slot patch (a 4- or 8-byte text store).
        for first in 0..t.len() {
            for last in first..(first + 2).min(t.len()) {
                let mut patched = t.clone();
                let mut plans = plans.clone();
                for idx in first..=last {
                    patched[idx] = None;
                    plans[idx] = FusePlan::excluded();
                }
                rebuild_runs(&patched, &mut plans, first, last);
                assert_eq!(lens(&plans), naive(&patched), "patched {first}..={last}");
            }
        }
    }

    #[test]
    fn summary_collects_footprint_and_termination() {
        let t = table(&[LD_T1_T0, ADDI_RA_1, BEQ_BACK]);
        let plans = build_plans(&t);
        let summary = summarize(&t, &plans, 0);
        assert_eq!(summary.len, 3);
        assert_eq!(summary.min_cycles, 3);
        assert!(summary.terminated);
        assert_eq!(summary.mem.len(), 1);
        assert!(summary.reads.x & (1 << 5) != 0, "reads t0");
        assert!(summary.writes.x & (1 << 6) != 0, "writes t1");
        // Excluded start yields an empty summary.
        let empty = summarize(&t, &plans, 99);
        assert_eq!(empty.len, 0);
    }
}
