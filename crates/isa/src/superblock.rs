//! The superblock run table: static structure of fused multi-instruction
//! retirement.
//!
//! The per-cycle stepper ([`mod@crate::predecode`]) pays a fixed dispatch
//! cost per instruction: hazard check, access probing, miss-path
//! branches, oracle hooks. For straight-line scalar code whose lines
//! are resident and whose registers are clear, none of those branches
//! can fire — so the timing layer can *validate once* and then retire
//! the whole run through a stripped-down fast path that is exact by
//! construction.
//!
//! This module is the static half of that engine: [`build_plans`] turns
//! a predecoded text segment into one flat [`RunTable`] holding
//!
//! * per scalar slot, a pre-resolved [`Uop`] (at most 16 bytes): the
//!   operand form of `Op`/`Op32` and the register file of `Load`,
//!   `Store`, `FpOp` and `FpCvt` are decided here, so the scalar kernel
//!   never branches on them. Only the eleven shapes a run can hold get
//!   one ([`Uop::from_inst`]); traps, fences, CSRs, AMOs, vector ops
//!   (their register groups depend on live `LMUL`) and predecode holes
//!   do not;
//! * per slot, a [`Run`] row: how far a run starting there can ever
//!   fuse, where its uops and memory ops sit, and the union of the
//!   registers it names. The static length holds everything about a run
//!   that depends only on the text: it is straight-line (ends at, and
//!   includes, a branch or jump; stops before a slot with no uop), at
//!   most [`MAX_RUN`] long, and stops before a memory op whose base
//!   register an earlier instruction of the run writes;
//! * every memory op of the text once, in slot order ([`MemOp`]): a
//!   run's memory ops are one contiguous slice of it;
//! * a side table of *loop rows* ([`LoopRow`]): rows whose run is a
//!   whole counted self-loop body that advances each integer register
//!   it writes by a loop-invariant stride, so the arm can validate many
//!   iterations of it at once (up to [`MAX_LOOP_RUN`] instructions).
//!
//! The table is built once per text segment and shared by every core;
//! a text-segment store rebuilds it (`DecodedText::invalidate` in
//! `crates/iss/src/core.rs` is the one path). The dynamic half lives in
//! the timing layer (`ArmState::validate` in `crates/iss/src/superblock.rs`):
//! at arm time it reads one row and that row's memory-op slice, rechecks
//! only what depends on machine state — cache residency, scoreboard,
//! in-flight lines, access addresses — and truncates the static run at
//! the first failure.

use crate::inst::{
    AluOp, AluWOp, BranchOp, FmaOp, FpCvtOp, FpOp, Inst, LoadOp, StoreOp, UpperOp, XSrc,
};
use crate::predecode::{DecodedInst, RegSet};
use crate::reg::{FReg, XReg};

/// Cap on fused run length: bounds the cost of one arm attempt and the
/// staleness window of the residency facts it relies on.
pub const MAX_RUN: u32 = 64;

/// Cap on the length of a run armed over a loop row: the most
/// instructions (whole bodies, plus a cut one) one arm validates. It
/// bounds an arm's cost and its access list (at most this ÷ the body
/// length × the body's memory ops entries). 1,024 covers the whole
/// 96-iteration trip of the paper matmul's 7-instruction inner loop;
/// EXPERIMENTS.md `loop-runs` compares it with 128 and 512.
pub const MAX_LOOP_RUN: u32 = 1024;

/// A pre-resolved scalar micro-op: one of the shapes a fused run can
/// hold, with every choice that depends only on the instruction word
/// already made. A variant names its registers' files, so executing it
/// reads and writes them without asking the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uop {
    /// `lui`: `rd = imm`.
    Lui {
        /// Destination.
        rd: XReg,
        /// Pre-shifted immediate.
        imm: i64,
    },
    /// `auipc`: `rd = pc + imm`.
    Auipc {
        /// Destination.
        rd: XReg,
        /// Pre-shifted immediate.
        imm: i64,
    },
    /// Jump and link.
    Jal {
        /// Link register.
        rd: XReg,
        /// PC-relative byte offset.
        offset: i32,
    },
    /// Jump and link register.
    Jalr {
        /// Link register.
        rd: XReg,
        /// Base register.
        rs1: XReg,
        /// Byte offset added to `rs1`.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        op: BranchOp,
        /// First compared register.
        rs1: XReg,
        /// Second compared register.
        rs2: XReg,
        /// PC-relative byte offset.
        offset: i32,
    },
    /// Load into an `x` register.
    LoadX {
        /// Width and extension.
        op: LoadOp,
        /// Destination.
        rd: XReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        offset: i32,
    },
    /// Load into an `f` register.
    LoadF {
        /// Width.
        op: LoadOp,
        /// Destination.
        rd: FReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        offset: i32,
    },
    /// Store from an `x` register.
    StoreX {
        /// Width.
        op: StoreOp,
        /// Data register.
        rs2: XReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        offset: i32,
    },
    /// Store from an `f` register.
    StoreF {
        /// Width.
        op: StoreOp,
        /// Data register.
        rs2: FReg,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        offset: i32,
    },
    /// Register-register ALU op.
    OpX {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: XReg,
        /// Second source.
        rs2: XReg,
    },
    /// Register-immediate ALU op.
    OpI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: XReg,
        /// Immediate.
        imm: i32,
    },
    /// Register-register 32-bit ALU op.
    Op32X {
        /// Operation.
        op: AluWOp,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: XReg,
        /// Second source.
        rs2: XReg,
    },
    /// Register-immediate 32-bit ALU op.
    Op32I {
        /// Operation.
        op: AluWOp,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: XReg,
        /// Immediate.
        imm: i32,
    },
    /// Two-operand double op writing an `f` register.
    FpF {
        /// Operation.
        op: FpOp,
        /// Destination.
        rd: FReg,
        /// First source.
        rs1: FReg,
        /// Second source.
        rs2: FReg,
    },
    /// Double compare writing an `x` register.
    FpX {
        /// Operation.
        op: FpOp,
        /// Destination.
        rd: XReg,
        /// First source.
        rs1: FReg,
        /// Second source.
        rs2: FReg,
    },
    /// Fused multiply-add.
    Fma {
        /// Variant.
        op: FmaOp,
        /// Destination.
        rd: FReg,
        /// Multiplicand.
        rs1: FReg,
        /// Multiplier.
        rs2: FReg,
        /// Addend.
        rs3: FReg,
    },
    /// Conversion or move from an `x` register into an `f` one.
    CvtF {
        /// Conversion.
        op: FpCvtOp,
        /// Destination.
        rd: FReg,
        /// Source.
        rs1: XReg,
    },
    /// Conversion or move from an `f` register into an `x` one.
    CvtX {
        /// Conversion.
        op: FpCvtOp,
        /// Destination.
        rd: XReg,
        /// Source.
        rs1: FReg,
    },
}

/// `x` register `index` (a raw operand field; out of range reads `x0`).
fn xreg(index: u8) -> XReg {
    XReg::new(index).unwrap_or(XReg::ZERO)
}

/// `f` register `index` (a raw operand field; out of range reads `f0`).
fn freg(index: u8) -> FReg {
    FReg::new(index).unwrap_or_default()
}

impl Uop {
    /// The uop of `inst` if it has one of the shapes a fused run can
    /// hold — `Upper`, `Jal`, `Jalr`, `Branch`, `Load`, `Store`, `Op`,
    /// `Op32`, `FpOp`, `FpFma`, `FpCvt` — else `None`. The one place
    /// that decides which instructions fuse.
    #[must_use]
    pub fn from_inst(inst: &Inst) -> Option<Uop> {
        Some(match *inst {
            Inst::Upper { op, rd, imm } => match op {
                UpperOp::Lui => Uop::Lui { rd, imm },
                UpperOp::Auipc => Uop::Auipc { rd, imm },
            },
            Inst::Jal { rd, offset } => Uop::Jal { rd, offset },
            Inst::Jalr { rd, rs1, offset } => Uop::Jalr { rd, rs1, offset },
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => Uop::Branch {
                op,
                rs1,
                rs2,
                offset,
            },
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                if op.rd_is_f() {
                    Uop::LoadF {
                        op,
                        rd: freg(rd),
                        rs1,
                        offset,
                    }
                } else {
                    Uop::LoadX {
                        op,
                        rd: xreg(rd),
                        rs1,
                        offset,
                    }
                }
            }
            Inst::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                if op.rs2_is_f() {
                    Uop::StoreF {
                        op,
                        rs2: freg(rs2),
                        rs1,
                        offset,
                    }
                } else {
                    Uop::StoreX {
                        op,
                        rs2: xreg(rs2),
                        rs1,
                        offset,
                    }
                }
            }
            Inst::Op { op, rd, rs1, src } => match src {
                XSrc::X(rs2) => Uop::OpX { op, rd, rs1, rs2 },
                XSrc::I(imm) => Uop::OpI { op, rd, rs1, imm },
            },
            Inst::Op32 { op, rd, rs1, src } => match src {
                XSrc::X(rs2) => Uop::Op32X { op, rd, rs1, rs2 },
                XSrc::I(imm) => Uop::Op32I { op, rd, rs1, imm },
            },
            Inst::FpOp { op, rd, rs1, rs2 } => {
                if op.rd_is_f() {
                    Uop::FpF {
                        op,
                        rd: freg(rd),
                        rs1,
                        rs2,
                    }
                } else {
                    Uop::FpX {
                        op,
                        rd: xreg(rd),
                        rs1,
                        rs2,
                    }
                }
            }
            Inst::FpFma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => Uop::Fma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            },
            Inst::FpCvt { op, rd, rs1 } => {
                if op.rd_is_f() {
                    Uop::CvtF {
                        op,
                        rd: freg(rd),
                        rs1: xreg(rs1),
                    }
                } else {
                    Uop::CvtX {
                        op,
                        rd: xreg(rd),
                        rs1: freg(rs1),
                    }
                }
            }
            // System (traps, fences), Csr (side effects / counters), Amo
            // (read-modify-write ordering), and everything vector.
            _ => return None,
        })
    }

    /// Whether the uop redirects control flow: a run ends at (and
    /// includes) it.
    #[must_use]
    pub fn ends_run(&self) -> bool {
        matches!(
            self,
            Uop::Branch { .. } | Uop::Jal { .. } | Uop::Jalr { .. }
        )
    }

    /// The memory op of a load or store at text slot `slot`.
    #[must_use]
    pub fn mem_op(&self, slot: u32) -> Option<MemOp> {
        let (base, offset, size, write) = match *self {
            Uop::LoadX {
                op, rs1, offset, ..
            }
            | Uop::LoadF {
                op, rs1, offset, ..
            } => (rs1, offset, op.width().bytes(), false),
            Uop::StoreX {
                op, rs1, offset, ..
            }
            | Uop::StoreF {
                op, rs1, offset, ..
            } => (rs1, offset, op.width().bytes(), true),
            _ => return None,
        };
        Some(MemOp {
            slot,
            offset,
            base,
            size: size as u8,
            write,
        })
    }
}

/// One scalar memory op of the text, as an arm needs it: the address is
/// `x[base] + offset`, computable before the run executes because the
/// static run never writes a base register before its use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Text slot of the load or store; its position in a run starting
    /// at slot `s` is `slot - s`.
    pub slot: u32,
    /// Sign-extended byte offset.
    pub offset: i32,
    /// Base address register.
    pub base: XReg,
    /// Access size in bytes.
    pub size: u8,
    /// `true` for stores.
    pub write: bool,
}

/// One slot's row of the run table: the longest run starting there
/// that can ever fuse, and where its parts sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Static length: straight-line up to and including a branch or
    /// jump, at most [`MAX_RUN`], stopping before a memory op whose
    /// base register the run writes; 0 when the slot has no uop.
    pub len: u32,
    /// Index of the slot's uop in [`RunTable::uops`]; the run's uops
    /// are the `len` that start there.
    pub uop: u32,
    /// The run's memory ops are `mem[mem..mem_end]` of the table.
    pub mem: u32,
    /// End of the run's memory ops.
    pub mem_end: u32,
    /// Union of the uses and defs of every slot in the run.
    pub regs: RegSet,
}

/// How a loop body advances an integer register once per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stride {
    /// `addi r, r, imm`: by the sign-extended immediate.
    Imm(i64),
    /// `add r, r, q`: by `q`, which the body does not write.
    Reg(XReg),
}

/// A loop row: a row whose run is a whole counted self-loop. The run
/// ends at a conditional branch back to the row's own first slot, and
/// every integer register the body writes it writes exactly once, by
/// `addi r, r, imm` or by `add r, r, q` with `q` not written in the
/// body. Every iteration then runs the same uops, and each memory
/// address and branch operand of iteration `k` is its iteration-0 value
/// plus `k` strides, so an arm can validate many iterations at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRow {
    /// Text slot of the loop head (the row's slot).
    pub slot: u32,
    /// Each integer register the body writes, with its stride.
    pub updates: Vec<(XReg, Stride)>,
    /// The back edge's comparison and its `rs1`, `rs2`.
    pub branch: (BranchOp, XReg, XReg),
}

/// The run table of a text segment (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTable {
    runs: Vec<Run>,
    uops: Vec<Uop>,
    mem: Vec<MemOp>,
    /// The loop rows, by slot.
    loops: Vec<LoopRow>,
}

impl RunTable {
    /// The row of text slot `slot`, if in range.
    #[must_use]
    pub fn run(&self, slot: usize) -> Option<&Run> {
        self.runs.get(slot)
    }

    /// Every row, by text slot.
    #[must_use]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The uops of the scalar slots, in text order. A run's slots are
    /// consecutive scalar slots, so its uops are consecutive here too.
    #[must_use]
    pub fn uops(&self) -> &[Uop] {
        &self.uops
    }

    /// The memory ops of `run`, in slot order.
    #[must_use]
    pub fn mem_ops(&self, run: &Run) -> &[MemOp] {
        &self.mem[run.mem as usize..run.mem_end as usize]
    }

    /// The loop row of text slot `slot`, if its row is one.
    #[must_use]
    pub fn loop_row(&self, slot: usize) -> Option<&LoopRow> {
        let at = self
            .loops
            .binary_search_by_key(&slot, |row| row.slot as usize)
            .ok()?;
        self.loops.get(at)
    }

    /// Every loop row, by slot.
    #[must_use]
    pub fn loop_rows(&self) -> &[LoopRow] {
        &self.loops
    }
}

/// The loop row of the run at slot `s`, whose uops are `uops`, if it is
/// one (see [`LoopRow`]).
fn loop_row(insts: &[Option<DecodedInst>], uops: &[Uop], s: usize) -> Option<LoopRow> {
    let (&last, body) = uops.split_last()?;
    let Uop::Branch {
        op,
        rs1,
        rs2,
        offset,
    } = last
    else {
        return None;
    };
    if i64::from(offset) != -4 * body.len() as i64 || body.is_empty() {
        return None;
    }
    let (mut written, mut updates) = (0u32, Vec::new());
    for (entry, &uop) in insts[s..].iter().flatten().zip(body) {
        if entry.defs.x == 0 {
            continue;
        }
        let update = match uop {
            Uop::OpI {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            } if rd == rs1 => (rd, Stride::Imm(i64::from(imm))),
            Uop::OpX {
                op: AluOp::Add,
                rd,
                rs1,
                rs2,
            } if rd == rs1 && rs2 != rd => (rd, Stride::Reg(rs2)),
            _ => return None,
        };
        if written & entry.defs.x != 0 {
            return None;
        }
        written |= entry.defs.x;
        updates.push(update);
    }
    let varies = |by| matches!(by, Stride::Reg(q) if written & (1 << q.index()) != 0);
    let invariant = !updates.iter().any(|&(_, by)| varies(by));
    invariant.then_some(LoopRow {
        slot: s as u32,
        updates,
        branch: (op, rs1, rs2),
    })
}

/// Builds the run table of a predecoded text segment: one pass collects
/// the uops and memory ops, a backwards pass decides each slot's static
/// run length, and a last pass fills in the rows.
///
/// The static run length of slot `s`, given every later slot's:
///
/// * a slot with no uop starts no run and a branch or jump is a run of
///   exactly itself; any other slot extends its successor's run;
/// * no run is longer than [`MAX_RUN`];
/// * a memory op's address must be computable from the registers as
///   they are *before* the run starts, so the run stops before the
///   first memory op whose base register slot `s` writes. (Writes by
///   later slots already cut the successor's run, which this one
///   extends — so checking this slot's own defs covers every earlier
///   writer.)
#[must_use]
pub fn build_plans(insts: &[Option<DecodedInst>]) -> RunTable {
    let n = insts.len();
    let mut table = RunTable::default();
    let mut slot_uops = Vec::with_capacity(n);
    // `uop_before[s]` / `mem_before[s]`: uops / memory ops at slots < s.
    let mut uop_before = Vec::with_capacity(n + 1);
    let mut mem_before = Vec::with_capacity(n + 1);
    for (slot, entry) in insts.iter().enumerate() {
        uop_before.push(table.uops.len() as u32);
        mem_before.push(table.mem.len() as u32);
        let uop = entry.as_ref().and_then(|entry| Uop::from_inst(&entry.inst));
        if let Some(uop) = uop {
            table.uops.push(uop);
            table.mem.extend(uop.mem_op(slot as u32));
        }
        slot_uops.push(uop);
    }
    uop_before.push(table.uops.len() as u32);
    mem_before.push(table.mem.len() as u32);

    let mut lens = vec![0u32; n + 1];
    for s in (0..n).rev() {
        lens[s] = match slot_uops[s] {
            None => 0,
            Some(uop) if uop.ends_run() => 1,
            Some(_) => {
                let len = (1 + lens[s + 1]).min(MAX_RUN);
                let defs = insts[s].as_ref().map_or(RegSet::new(), |entry| entry.defs);
                let later = mem_before[s + 1] as usize..mem_before[s + len as usize] as usize;
                table.mem[later]
                    .iter()
                    .find(|op| defs.x & (1 << op.base.index()) != 0)
                    .map_or(len, |op| op.slot - s as u32)
            }
        };
    }

    table.runs = (0..n)
        .map(|s| {
            let end = s + lens[s] as usize;
            let mut regs = RegSet::new();
            for entry in insts[s..end].iter().flatten() {
                regs.insert_all(&entry.uses);
                regs.insert_all(&entry.defs);
            }
            Run {
                len: lens[s],
                uop: uop_before[s],
                mem: mem_before[s],
                mem_end: mem_before[end],
                regs,
            }
        })
        .collect();
    table.loops = (0..n)
        .filter_map(|s| {
            let run = table.runs[s];
            let uops = &table.uops[run.uop as usize..][..run.len as usize];
            loop_row(insts, uops, s)
        })
        .collect();
    table
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

    fn lens(table: &RunTable) -> Vec<u32> {
        table.runs().iter().map(|run| run.len).collect()
    }

    #[test]
    fn uops_cover_the_fusable_shapes_and_memory_ops() {
        let t = table(&[ADDI_RA_1, LD_T1_T0, SD_T1_T0, BEQ_BACK, ECALL, HOLE]);
        let runs = build_plans(&t);
        assert_eq!(runs.uops().len(), 4, "ecall and the hole have none");
        assert!(matches!(runs.uops()[0], Uop::OpI { imm: 1, .. }));
        assert!(runs.uops()[3].ends_run());
        let ops = runs.mem_ops(&runs.runs()[0]);
        assert_eq!(ops.len(), 2);
        assert_eq!((ops[0].slot, ops[0].size, ops[0].write), (1, 8, false));
        assert_eq!((ops[1].slot, ops[1].write), (2, true));
        assert_eq!(runs.runs()[4].len, 0);
        assert_eq!(runs.runs()[5].len, 0);
    }

    #[test]
    fn run_lengths_chain_up_to_terminators_and_break_at_excluded() {
        let t = table(&[ADDI_RA_1, LD_T1_T0, BEQ_BACK, ADDI_RA_1, ECALL, ADDI_RA_1]);
        assert_eq!(lens(&build_plans(&t)), vec![3, 2, 1, 1, 0, 1]);
    }

    #[test]
    fn vector_and_csr_instructions_have_no_uop() {
        let vsetvli = Inst::Vsetvli {
            rd: XReg::new(10).expect("a0"),
            rs1: XReg::new(11).expect("a1"),
            vtype: crate::vtype::VType::default(),
        };
        assert_eq!(Uop::from_inst(&vsetvli), None);
        let csrr = Inst::Csr {
            op: crate::inst::CsrOp::Rw,
            rd: XReg::new(10).expect("a0"),
            csr: crate::csr::Csr::MHARTID,
            src: crate::inst::CsrSrc::Imm(0),
        };
        assert_eq!(Uop::from_inst(&csrr), None);
    }

    const ADDI_T0_8: u32 = 0x0082_8293; // addi t0, t0, 8
    const LD_T0_T0: u32 = 0x0002_b283; // ld t0, 0(t0)

    /// The static length of the run at `start` by a forward walk from
    /// that slot alone — the reference `len` is checked against.
    fn naive_run_len(insts: &[Option<DecodedInst>], start: usize) -> u32 {
        let mut written = RegSet::new();
        let mut len = 0;
        while len < MAX_RUN {
            let Some(entry) = insts.get(start + len as usize).and_then(Option::as_ref) else {
                break;
            };
            let Some(uop) = Uop::from_inst(&entry.inst) else {
                break;
            };
            if uop.ends_run() {
                return len + 1;
            }
            if let Some(op) = uop.mem_op(0) {
                let mut base = RegSet::new();
                base.add_x(op.base);
                if written.intersects(&base) {
                    break;
                }
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
        let runs = build_plans(&t);
        let naive = |t: &[Option<DecodedInst>]| {
            (0..t.len())
                .map(|start| naive_run_len(t, start))
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(&runs), naive(&t));
        // The table holds what it claims to.
        assert_eq!(lens(&runs)[..10], [2, 1, 3, 2, 1, 1, 3, 2, 1, 0]);
        assert_eq!(runs.runs()[10].len, MAX_RUN, "clamped");
        assert_eq!(runs.runs()[10 + 8].len, MAX_RUN, "62 addi, ld, addi t0");
        assert_eq!(
            runs.runs()[10 + 9].len,
            MAX_RUN - 1,
            "stops before sd 0(t0)"
        );

        // Every one- and two-slot patch (a 4- or 8-byte text store).
        for first in 0..t.len() {
            for last in first..(first + 2).min(t.len()) {
                let mut patched = t.clone();
                for slot in &mut patched[first..=last] {
                    *slot = None;
                }
                let runs = build_plans(&patched);
                assert_eq!(lens(&runs), naive(&patched), "patched {first}..={last}");
            }
        }
    }

    #[test]
    fn a_row_holds_its_runs_uops_memory_ops_and_footprint() {
        let t = table(&[LD_T1_T0, ADDI_RA_1, BEQ_BACK]);
        let runs = build_plans(&t);
        let run = runs.runs()[0];
        assert_eq!(run.len, 3);
        let uops = &runs.uops()[run.uop as usize..][..run.len as usize];
        assert!(matches!(uops[0], Uop::LoadX { .. }));
        assert!(uops[2].ends_run());
        assert_eq!(runs.mem_ops(&run).len(), 1);
        assert_eq!(run.regs.x, (1 << 5) | (1 << 6) | (1 << 1), "t0, t1, ra");
        assert_eq!(runs.mem_ops(&runs.runs()[1]).len(), 0);
    }
}
