//! Abstract interpretation of one core's execution over the CFG.
//!
//! A forward dataflow fixpoint propagates per-register [`AbsVal`]
//! states block to block. Loops are handled by *widen-and-freeze*:
//! after a loop head has been revisited `FREEZE_AT` times without
//! converging, the interpreter builds a syntactic `FrozenPlan` for
//! the loop — classifying every register as invariant, a simple
//! induction variable (`addi r, r, imm` / `add r, r, invariant`), or
//! clobbered — and from then on computes the head state *functionally*
//! from the entry join alone, ignoring back edges. Counted exits
//! (`blt iv, bound` dominating all latches) give induction variables a
//! finite trip count; otherwise the widened dimension is
//! [`UNBOUNDED`], which poisons nothing by itself — the modular tier
//! of the disjointness check still exploits the stride.
//!
//! `csrr rd, mhartid` concretizes to the core index, which is how one
//! SPMD text image yields per-core footprints.
//!
//! A second, single pass over the converged states extracts the
//! [`MemAccess`] footprint and the [`Poison`] taxonomy: conditions
//! under which the static footprint cannot be trusted to cover the
//! dynamic one (indirect jumps, escapes from the predecoded text,
//! unresolvable addresses, atomics, vector memory).

use crate::domain::{AbsVal, Clamp, StridedSet, UNBOUNDED};
use crate::liveness::{block_liveness, BlockLiveness};
use coyote_isa::cfg::{BlockExit, Cfg};
use coyote_isa::inst::{AluOp, AluWOp, BranchOp, Inst};
use coyote_isa::predecode::DecodedInst;
use coyote_isa::superblock::{classify, FuseClass};
use coyote_isa::{Csr, XReg};

/// Loop-head revisit count that triggers widening.
const FREEZE_AT: u32 = 8;
/// Absolute per-block revisit cap: beyond this the in-state collapses
/// to all-`Top` to force termination.
const HARD_CAP: u32 = 48;
/// Global fixpoint step budget across all blocks.
const GLOBAL_STEPS: usize = 50_000;
/// Cap on recorded access patterns per core.
const MAX_ACCESSES: usize = 4096;

/// One static memory access: an abstract address set, a width and a
/// direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// PC of the instruction.
    pub pc: u64,
    /// Abstract byte address of the access start.
    pub addr: StridedSet,
    /// Bytes per dynamic access.
    pub width: u64,
    /// `true` for stores.
    pub write: bool,
}

/// Why a core's static footprint cannot be certified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Poison {
    /// A reachable `jalr`: the CFG under-approximates control flow.
    IndirectJump {
        /// PC of the jump.
        pc: u64,
    },
    /// Execution can leave the predecoded text segment.
    Escape {
        /// PC of the escaping block end (entry PC when the entry
        /// itself was outside the text).
        pc: u64,
    },
    /// A memory access whose address is unknown (`Top`).
    TopAddress {
        /// PC of the access.
        pc: u64,
    },
    /// An atomic memory operation: cross-core ordering intent.
    Amo {
        /// PC of the AMO.
        pc: u64,
    },
    /// A vector memory operation: element addresses depend on live
    /// `vl`/`vtype` state the scalar domain does not model.
    VectorMem {
        /// PC of the access.
        pc: u64,
    },
    /// The fixpoint or pattern budget was exhausted.
    Budget,
}

impl std::fmt::Display for Poison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Poison::IndirectJump { pc } => write!(f, "indirect jump at {pc:#x}"),
            Poison::Escape { pc } => write!(f, "execution escapes text segment near {pc:#x}"),
            Poison::TopAddress { pc } => write!(f, "unresolvable address at {pc:#x}"),
            Poison::Amo { pc } => write!(f, "atomic memory operation at {pc:#x}"),
            Poison::VectorMem { pc } => write!(f, "vector memory operation at {pc:#x}"),
            Poison::Budget => write!(f, "analysis budget exhausted"),
        }
    }
}

/// Result of interpreting one core.
#[derive(Clone, Debug)]
pub struct CoreAnalysis {
    /// Static memory accesses, in block/program order.
    pub accesses: Vec<MemAccess>,
    /// Reasons the footprint is untrustworthy (empty = clean).
    pub poisons: Vec<Poison>,
    /// Blocks proven reachable for this core (some blocks are
    /// core-gated by `mhartid` comparisons).
    pub reached_blocks: usize,
    /// Per-block reachability under the abstract semantics — strictly
    /// finer than CFG reachability (a proven `exit` syscall stops
    /// propagation where the CFG keeps a fallthrough edge).
    pub reached: Vec<bool>,
}

/// Abstract integer register file. `x0` is pinned to the constant 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Regs {
    x: Vec<AbsVal>,
}

impl Regs {
    fn zeroed() -> Regs {
        Regs {
            x: vec![AbsVal::constant(0); 32],
        }
    }

    fn get(&self, r: XReg) -> &AbsVal {
        &self.x[r.index()]
    }

    fn set(&mut self, r: XReg, v: AbsVal) {
        if r != XReg::ZERO {
            self.x[r.index()] = v;
        }
    }

    fn join_with(&mut self, other: &Regs) {
        for i in 1..32 {
            self.x[i] = self.x[i].join(&other.x[i]);
        }
    }

    fn mask_dead(&mut self, live: &BlockLiveness) {
        for i in 1..32 {
            if live.live_in.x & (1 << i) == 0 {
                self.x[i] = AbsVal::Top;
            }
        }
    }
}

/// How a register evolves across one loop iteration.
#[derive(Clone, Copy, Debug)]
enum RegPlan {
    /// No definition inside the loop.
    Invariant,
    /// Exactly one `addi r, r, imm`-shaped definition dominating all
    /// latches.
    Iv(IvDelta),
    /// Anything else.
    Clobbered,
}

/// The per-iteration increment of an induction variable.
#[derive(Clone, Copy, Debug)]
enum IvDelta {
    /// Immediate increment.
    Const(i64),
    /// `add r, r, k`: increment is the (invariant) value of `k`.
    Reg(usize),
    /// `sub r, r, k`: decrement by the value of `k`.
    NegReg(usize),
}

/// Continue-predicate of a counted loop exit, normalized onto the
/// counter: the loop continues while `counter <cond> bound`.
#[derive(Clone, Copy, Debug)]
enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Clone, Copy, Debug)]
struct CounterPlan {
    reg: usize,
    bound_reg: usize,
    cond: Cond,
    unsigned: bool,
    /// Whether the increment executes before the test within the same
    /// iteration (inc and test in the same block).
    inc_before_test: bool,
}

#[derive(Clone, Debug)]
struct FrozenPlan {
    latches: Vec<usize>,
    plan: Vec<RegPlan>,
    counters: Vec<CounterPlan>,
}

struct Interp<'a> {
    insts: &'a [Option<DecodedInst>],
    cfg: &'a Cfg,
    core: u64,
    idom: Vec<usize>,
    live: Vec<BlockLiveness>,
    loop_heads: Vec<Option<coyote_isa::cfg::NaturalLoop>>,
    in_states: Vec<Option<Regs>>,
    edge_out: Vec<Vec<Option<Regs>>>,
    visits: Vec<u32>,
    frozen: Vec<Option<FrozenPlan>>,
    budget_hit: bool,
}

/// Interprets one core over a prebuilt CFG.
#[must_use]
pub fn interpret(insts: &[Option<DecodedInst>], cfg: &Cfg, core: u64) -> CoreAnalysis {
    if cfg.blocks.is_empty() {
        return CoreAnalysis {
            accesses: Vec::new(),
            poisons: vec![Poison::Escape { pc: cfg.base }],
            reached_blocks: 0,
            reached: Vec::new(),
        };
    }
    let n = cfg.blocks.len();
    let mut loop_heads: Vec<Option<coyote_isa::cfg::NaturalLoop>> = vec![None; n];
    for l in cfg.natural_loops() {
        let head = l.head;
        loop_heads[head] = Some(l);
    }
    let mut interp = Interp {
        insts,
        cfg,
        core,
        idom: cfg.immediate_dominators(),
        live: block_liveness(insts, cfg),
        loop_heads,
        in_states: vec![None; n],
        edge_out: cfg
            .blocks
            .iter()
            .map(|b| vec![None; b.succs.len()])
            .collect(),
        visits: vec![0; n],
        frozen: vec![None; n],
        budget_hit: false,
    };
    interp.run();
    interp.extract()
}

impl Interp<'_> {
    fn pc_of(&self, idx: usize) -> u64 {
        self.cfg.base + 4 * idx as u64
    }

    /// Block id whose leader sits at `pc`, if any.
    fn block_at(&self, pc: u64) -> Option<usize> {
        if pc < self.cfg.base || !(pc - self.cfg.base).is_multiple_of(4) {
            return None;
        }
        let idx = ((pc - self.cfg.base) / 4) as usize;
        self.cfg
            .block_of(idx)
            .filter(|&b| self.cfg.blocks[b].start == idx)
    }

    fn run(&mut self) {
        let rpo = self.cfg.reverse_postorder();
        let mut dirty = vec![false; self.cfg.blocks.len()];
        dirty[0] = true;
        let mut steps = 0usize;
        while let Some(&b) = rpo.iter().find(|&&b| dirty[b]) {
            dirty[b] = false;
            steps += 1;
            if steps > GLOBAL_STEPS {
                self.budget_hit = true;
                break;
            }
            let Some(mut input) = self.compute_in(b) else {
                continue;
            };
            if self.visits[b] > 0 && self.in_states[b].as_ref() == Some(&input) {
                continue;
            }
            self.visits[b] += 1;
            if self.frozen[b].is_none()
                && self.visits[b] >= FREEZE_AT
                && self.loop_heads[b].is_some()
            {
                self.frozen[b] = Some(self.build_plan(b));
                match self.compute_in(b) {
                    Some(widened) => input = widened,
                    None => continue,
                }
            }
            if self.visits[b] >= HARD_CAP {
                let mut top = Regs::zeroed();
                for i in 1..32 {
                    top.x[i] = AbsVal::Top;
                }
                input = top;
            }
            self.in_states[b] = Some(input.clone());
            let outs = self.transfer(b, &input);
            let mut changed: Vec<usize> = Vec::new();
            for (slot, succ, state) in outs {
                if self.edge_out[b][slot].as_ref() != Some(&state) {
                    self.edge_out[b][slot] = Some(state);
                    changed.push(succ);
                }
            }
            for succ in changed {
                dirty[succ] = true;
            }
        }
    }

    /// Joins the incoming states of `b` (entry state for block 0;
    /// frozen heads ignore latch edges and apply the widening plan).
    fn compute_in(&self, b: usize) -> Option<Regs> {
        let skip_latches: &[usize] = self.frozen[b].as_ref().map_or(&[], |p| &p.latches);
        let mut acc: Option<Regs> = (b == 0).then(Regs::zeroed);
        for &p in &self.cfg.blocks[b].preds {
            if skip_latches.contains(&p) {
                continue;
            }
            for (slot, &succ) in self.cfg.blocks[p].succs.iter().enumerate() {
                if succ != b {
                    continue;
                }
                if let Some(state) = &self.edge_out[p][slot] {
                    match &mut acc {
                        Some(a) => a.join_with(state),
                        None => acc = Some(state.clone()),
                    }
                }
            }
        }
        let mut state = acc?;
        if let Some(plan) = &self.frozen[b] {
            state = self.widen(plan, &state);
        }
        state.mask_dead(&self.live[b]);
        Some(state)
    }

    /// Builds the syntactic loop plan for head `b`.
    fn build_plan(&self, b: usize) -> FrozenPlan {
        let looped = self.loop_heads[b].as_ref().expect("head has a loop");
        let in_loop = |blk: usize| looped.blocks.binary_search(&blk).is_ok();
        // Definition sites per x register inside the loop.
        let mut defs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); 32]; // (block, inst idx)
        for &blk in &looped.blocks {
            let block = &self.cfg.blocks[blk];
            for idx in block.start..block.start + block.len {
                let Some(d) = self.insts[idx].as_ref() else {
                    break;
                };
                for (r, def) in defs.iter_mut().enumerate().skip(1) {
                    if d.defs.x & (1 << r) != 0 {
                        def.push((blk, idx));
                    }
                }
            }
        }
        let dominates_latches = |blk: usize| {
            looped
                .latches
                .iter()
                .all(|&l| Cfg::dominates(&self.idom, blk, l))
        };
        let mut plan = vec![RegPlan::Clobbered; 32];
        for r in 1..32 {
            plan[r] = match defs[r].as_slice() {
                [] => RegPlan::Invariant,
                [(blk, idx)] if dominates_latches(*blk) => {
                    match self.insts[*idx].as_ref().map(|d| d.inst) {
                        Some(Inst::OpImm {
                            op: AluOp::Add,
                            rd,
                            rs1,
                            imm,
                        }) if rd == rs1 && rd.index() == r => RegPlan::Iv(IvDelta::Const(imm)),
                        Some(Inst::Op {
                            op: AluOp::Add,
                            rd,
                            rs1,
                            rs2,
                        }) if rd.index() == r && (rs1 == rd) != (rs2 == rd) && {
                            let k = if rs1 == rd { rs2 } else { rs1 };
                            defs[k.index()].is_empty() && k != XReg::ZERO
                        } =>
                        {
                            let k = if rs1 == rd { rs2 } else { rs1 };
                            RegPlan::Iv(IvDelta::Reg(k.index()))
                        }
                        Some(Inst::Op {
                            op: AluOp::Sub,
                            rd,
                            rs1,
                            rs2,
                        }) if rd.index() == r
                            && rs1 == rd
                            && rs2 != rd
                            && defs[rs2.index()].is_empty() =>
                        {
                            RegPlan::Iv(IvDelta::NegReg(rs2.index()))
                        }
                        _ => RegPlan::Clobbered,
                    }
                }
                _ => RegPlan::Clobbered,
            };
        }
        // Counted exits: conditional blocks dominating all latches with
        // an edge leaving the loop.
        let mut counters = Vec::new();
        for &eb in &looped.blocks {
            let block = &self.cfg.blocks[eb];
            let BlockExit::Branch { taken, fall } = block.exit else {
                continue;
            };
            if !dominates_latches(eb) {
                continue;
            }
            let taken_in = self.block_at(taken).is_some_and(in_loop);
            let fall_in = self.block_at(fall).is_some_and(in_loop);
            // Exactly one continuation must stay in the loop.
            if taken_in == fall_in {
                continue;
            }
            let continue_on_taken = taken_in;
            let end = block.start + block.len - 1;
            let Some(Inst::Branch { op, rs1, rs2, .. }) = self.insts[end].as_ref().map(|d| d.inst)
            else {
                continue;
            };
            let r1 = rs1.index();
            let r2 = rs2.index();
            let iv1 = matches!(plan[r1], RegPlan::Iv(_)) && r1 != 0;
            let iv2 = matches!(plan[r2], RegPlan::Iv(_)) && r2 != 0;
            let inv1 = matches!(plan[r1], RegPlan::Invariant) || r1 == 0;
            let inv2 = matches!(plan[r2], RegPlan::Invariant) || r2 == 0;
            let (counter, bound, counter_is_rs1) = if iv1 && inv2 {
                (r1, r2, true)
            } else if iv2 && inv1 {
                (r2, r1, false)
            } else {
                continue;
            };
            let (raw, unsigned) = match op {
                BranchOp::Eq => (Cond::Eq, false),
                BranchOp::Ne => (Cond::Ne, false),
                BranchOp::Lt => (Cond::Lt, false),
                BranchOp::Ge => (Cond::Ge, false),
                BranchOp::Ltu => (Cond::Lt, true),
                BranchOp::Geu => (Cond::Ge, true),
            };
            // Mirror when the counter is rs2, negate when the loop
            // continues on the fallthrough.
            let mirrored = if counter_is_rs1 { raw } else { mirror(raw) };
            let cond = if continue_on_taken {
                mirrored
            } else {
                negate(mirrored)
            };
            let inc_before_test = matches!(defs[counter].as_slice(), [(blk, _)] if *blk == eb);
            counters.push(CounterPlan {
                reg: counter,
                bound_reg: bound,
                cond,
                unsigned,
                inc_before_test,
            });
        }
        FrozenPlan {
            latches: looped.latches.clone(),
            plan,
            counters,
        }
    }

    /// Applies a frozen plan to the entry join, producing the widened
    /// head state.
    fn widen(&self, plan: &FrozenPlan, entry: &Regs) -> Regs {
        let delta_of = |d: IvDelta| -> Option<i64> {
            match d {
                IvDelta::Const(c) => Some(c),
                IvDelta::Reg(k) => entry.x[k].as_const().map(|v| v as i64),
                IvDelta::NegReg(k) => entry.x[k].as_const().map(|v| (v as i64).wrapping_neg()),
            }
        };
        // Head entry count: 1 + back-edge traversals, bounded by the
        // tightest counted exit.
        let mut head_count = UNBOUNDED;
        for c in &plan.counters {
            let Some(RegPlan::Iv(d)) = plan.plan.get(c.reg).copied() else {
                continue;
            };
            let Some(delta) = delta_of(d) else { continue };
            if delta == 0 {
                continue;
            }
            let Some(bound) = entry.x[c.bound_reg].as_const() else {
                continue;
            };
            let v0 = match entry.x[c.reg].as_set() {
                Some(s) if delta > 0 => s.base,
                Some(s) => match s.max() {
                    Some(m) => m,
                    None => continue,
                },
                None => continue,
            };
            let Some(passes) = continue_prefix(v0, delta, bound, c.cond, c.unsigned) else {
                continue;
            };
            let skip = u128::from(c.inc_before_test);
            let count = passes.saturating_sub(skip).saturating_add(1);
            let count = u64::try_from(count).unwrap_or(UNBOUNDED);
            head_count = head_count.min(count.max(1));
        }
        let mut out = Regs::zeroed();
        for r in 1..32 {
            out.x[r] = match plan.plan[r] {
                RegPlan::Invariant => entry.x[r].clone(),
                RegPlan::Clobbered => AbsVal::Top,
                RegPlan::Iv(d) => {
                    let widened = (|| {
                        let delta = delta_of(d)?;
                        let e = entry.x[r].as_set()?;
                        if delta == 0 {
                            return Some(e.clone());
                        }
                        let step = delta.unsigned_abs();
                        let hops = StridedSet::with_dims(0, vec![(step, head_count)]);
                        if delta > 0 {
                            e.add(&hops)
                        } else {
                            if head_count == UNBOUNDED {
                                return None;
                            }
                            let shift = (head_count - 1).checked_mul(step)?;
                            e.add_const(shift.wrapping_neg()).add(&hops)
                        }
                    })();
                    widened.map_or(AbsVal::Top, AbsVal::Set)
                }
            };
        }
        out
    }

    /// Runs the transfer function of block `b`, returning the state
    /// for each successor edge slot `(slot, succ, state)`.
    fn transfer(&self, b: usize, input: &Regs) -> Vec<(usize, usize, Regs)> {
        let block = &self.cfg.blocks[b];
        let mut regs = input.clone();
        for idx in block.start..block.start + block.len {
            let Some(d) = self.insts[idx].as_ref() else {
                break;
            };
            eval_inst(&mut regs, d, self.pc_of(idx), self.core);
        }
        let mut out = Vec::new();
        let mut slot = 0usize;
        match block.exit {
            BlockExit::Fallthrough | BlockExit::Jump(_) => {
                if let Some(&succ) = block.succs.first() {
                    out.push((0, succ, regs));
                }
            }
            BlockExit::Ecall => {
                // a7 == 93 is a proven clean halt; anything else may
                // continue at the fallthrough.
                let halts = regs.get(XReg::new(17).unwrap_or(XReg::ZERO)).as_const() == Some(93);
                if !halts {
                    if let Some(&succ) = block.succs.first() {
                        out.push((0, succ, regs));
                    }
                }
            }
            BlockExit::Branch { taken, fall } => {
                let end = block.start + block.len - 1;
                let Some(Inst::Branch { op, rs1, rs2, .. }) =
                    self.insts[end].as_ref().map(|d| d.inst)
                else {
                    return out;
                };
                let known = match (regs.get(rs1).as_const(), regs.get(rs2).as_const()) {
                    (Some(a), Some(b)) => Some(eval_branch(op, a, b)),
                    _ => None,
                };
                for (pc, is_taken) in [(taken, true), (fall, false)] {
                    let Some(succ) = self.block_at(pc) else {
                        continue; // escaped edge, no slot
                    };
                    let this_slot = slot;
                    slot += 1;
                    if let Some(taken_val) = known {
                        if taken_val != is_taken {
                            continue; // statically infeasible edge
                        }
                    }
                    let mut state = regs.clone();
                    if refine_edge(&mut state, op, rs1, rs2, is_taken) == EdgeFeasibility::Dead {
                        continue;
                    }
                    out.push((this_slot, succ, state));
                }
            }
            BlockExit::Indirect | BlockExit::Trap => {}
        }
        out
    }

    /// Post-fixpoint pass collecting the footprint and poisons.
    fn extract(&self) -> CoreAnalysis {
        let mut accesses = Vec::new();
        let mut poisons = Vec::new();
        let mut reached = 0usize;
        if self.budget_hit {
            poisons.push(Poison::Budget);
        }
        for (b, block) in self.cfg.blocks.iter().enumerate() {
            let Some(input) = &self.in_states[b] else {
                continue;
            };
            reached += 1;
            let mut regs = input.clone();
            for idx in block.start..block.start + block.len {
                let Some(d) = self.insts[idx].as_ref() else {
                    break;
                };
                let pc = self.pc_of(idx);
                match classify(Some(d)) {
                    FuseClass::Mem(plan) => match regs.get(plan.base).as_set() {
                        Some(s) => accesses.push(MemAccess {
                            pc,
                            addr: s.add_const(plan.offset as i64 as u64),
                            width: u64::from(plan.size),
                            write: plan.write,
                        }),
                        None => poisons.push(Poison::TopAddress { pc }),
                    },
                    _ => match d.inst {
                        Inst::Amo { width, rs1, .. } => {
                            poisons.push(Poison::Amo { pc });
                            if let Some(s) = regs.get(rs1).as_set() {
                                for write in [false, true] {
                                    accesses.push(MemAccess {
                                        pc,
                                        addr: s.clone(),
                                        width: width.bytes(),
                                        write,
                                    });
                                }
                            }
                        }
                        Inst::VLoad { .. } | Inst::VStore { .. } => {
                            poisons.push(Poison::VectorMem { pc });
                        }
                        _ => {}
                    },
                }
                eval_inst(&mut regs, d, pc, self.core);
            }
            let end_pc = self.pc_of(block.start + block.len - 1);
            if block.exit == BlockExit::Indirect {
                poisons.push(Poison::IndirectJump { pc: end_pc });
            }
            if block.escapes {
                poisons.push(Poison::Escape { pc: end_pc });
            }
            if block.exit == BlockExit::Ecall && block.succs.is_empty() {
                // No in-text fallthrough: only a proven exit is clean.
                let a7 = regs.get(XReg::new(17).unwrap_or(XReg::ZERO));
                if a7.as_const() != Some(93) {
                    poisons.push(Poison::Escape { pc: end_pc });
                }
            }
        }
        if accesses.len() > MAX_ACCESSES {
            accesses.truncate(MAX_ACCESSES);
            poisons.push(Poison::Budget);
        }
        CoreAnalysis {
            accesses,
            poisons,
            reached_blocks: reached,
            reached: self.in_states.iter().map(Option::is_some).collect(),
        }
    }
}

fn mirror(c: Cond) -> Cond {
    match c {
        Cond::Lt => Cond::Gt,
        Cond::Gt => Cond::Lt,
        Cond::Le => Cond::Ge,
        Cond::Ge => Cond::Le,
        Cond::Eq => Cond::Eq,
        Cond::Ne => Cond::Ne,
    }
}

fn negate(c: Cond) -> Cond {
    match c {
        Cond::Lt => Cond::Ge,
        Cond::Ge => Cond::Lt,
        Cond::Gt => Cond::Le,
        Cond::Le => Cond::Gt,
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
    }
}

/// Number of consecutive `k ≥ 0` for which `v0 + k·delta <cond>
/// bound` holds (the continue-prefix of a counted loop). `None` means
/// the prefix is infinite (the exit can never fire this way).
fn continue_prefix(v0: u64, delta: i64, bound: u64, cond: Cond, unsigned: bool) -> Option<u128> {
    let (v, c) = if unsigned {
        (i128::from(v0), i128::from(bound))
    } else {
        (i128::from(v0 as i64), i128::from(bound as i64))
    };
    let d = i128::from(delta);
    let ceil_div = |num: i128, den: i128| -> u128 {
        // num, den > 0 at every call site.
        ((num + den - 1) / den) as u128
    };
    match cond {
        Cond::Lt => {
            if v >= c {
                Some(0)
            } else if d > 0 {
                Some(ceil_div(c - v, d))
            } else {
                None
            }
        }
        Cond::Le => continue_prefix_le(v, d, c),
        Cond::Gt => {
            if v <= c {
                Some(0)
            } else if d < 0 {
                Some(ceil_div(v - c, -d))
            } else {
                None
            }
        }
        Cond::Ge => {
            if v < c {
                Some(0)
            } else if d < 0 {
                Some(((v - c) / -d) as u128 + 1)
            } else {
                None
            }
        }
        Cond::Ne => {
            if v == c {
                Some(0)
            } else if (c - v) % d == 0 && (c - v) / d > 0 {
                Some(((c - v) / d) as u128)
            } else {
                None
            }
        }
        Cond::Eq => Some(u128::from(v == c)),
    }
}

fn continue_prefix_le(v: i128, d: i128, c: i128) -> Option<u128> {
    if v > c {
        Some(0)
    } else if d > 0 {
        Some(((c - v) / d) as u128 + 1)
    } else {
        None
    }
}

#[derive(PartialEq, Eq)]
enum EdgeFeasibility {
    Live,
    Dead,
}

/// Refines `state` under the branch outcome: currently `x < C`-shaped
/// constraints clamp the strided set of `x`.
fn refine_edge(
    state: &mut Regs,
    op: BranchOp,
    rs1: XReg,
    rs2: XReg,
    taken: bool,
) -> EdgeFeasibility {
    // Normalize to "rs1 < rs2 holds on this edge", signed or not.
    let (holds_lt, unsigned) = match op {
        BranchOp::Lt => (taken, false),
        BranchOp::Ge => (!taken, false),
        BranchOp::Ltu => (taken, true),
        BranchOp::Geu => (!taken, true),
        BranchOp::Eq | BranchOp::Ne => return EdgeFeasibility::Live,
    };
    if !holds_lt {
        return EdgeFeasibility::Live;
    }
    let Some(bound) = state.get(rs2).as_const() else {
        return EdgeFeasibility::Live;
    };
    // Signed comparisons are only clamped in the common non-negative
    // regime (see the module-level no-wrap caveat).
    if !unsigned && bound >= 1 << 63 {
        return EdgeFeasibility::Live;
    }
    let Some(set) = state.get(rs1).as_set() else {
        return EdgeFeasibility::Live;
    };
    if !unsigned && set.base >= 1 << 63 {
        return EdgeFeasibility::Live;
    }
    match set.clamp_below(bound) {
        Clamp::Unchanged => EdgeFeasibility::Live,
        Clamp::Refined(r) => {
            state.set(rs1, AbsVal::Set(r));
            EdgeFeasibility::Live
        }
        Clamp::Empty => EdgeFeasibility::Dead,
    }
}

fn eval_branch(op: BranchOp, a: u64, b: u64) -> bool {
    match op {
        BranchOp::Eq => a == b,
        BranchOp::Ne => a != b,
        BranchOp::Lt => (a as i64) < (b as i64),
        BranchOp::Ge => (a as i64) >= (b as i64),
        BranchOp::Ltu => a < b,
        BranchOp::Geu => a >= b,
    }
}

/// Constant evaluation of the unambiguous ALU subset; division and
/// high-multiply families conservatively return `None` (→ `Top`).
fn const_eval(op: AluOp, a: u64, b: u64) -> Option<u64> {
    Some(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        _ => return None,
    })
}

fn const_eval_w(op: AluWOp, a: u64, b: u64) -> Option<u64> {
    let (a32, b32) = (a as i32, b as i32);
    let r: i32 = match op {
        AluWOp::Addw => a32.wrapping_add(b32),
        AluWOp::Subw => a32.wrapping_sub(b32),
        AluWOp::Sllw => a32.wrapping_shl((b & 31) as u32),
        AluWOp::Srlw => ((a as u32).wrapping_shr((b & 31) as u32)) as i32,
        AluWOp::Sraw => a32.wrapping_shr((b & 31) as u32),
        AluWOp::Mulw => a32.wrapping_mul(b32),
        _ => return None,
    };
    Some(r as i64 as u64)
}

/// Applies one instruction's effect on the abstract register file.
fn eval_inst(regs: &mut Regs, d: &DecodedInst, pc: u64, core: u64) {
    match d.inst {
        Inst::Lui { rd, imm } => regs.set(rd, AbsVal::constant(imm as u64)),
        Inst::Auipc { rd, imm } => {
            regs.set(rd, AbsVal::constant(pc.wrapping_add(imm as u64)));
        }
        Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => {
            regs.set(rd, AbsVal::constant(pc.wrapping_add(4)));
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            let a = regs.get(rs1).clone();
            let v = match op {
                AluOp::Add => match a.as_set() {
                    Some(s) => AbsVal::Set(s.add_const(imm as u64)),
                    None => AbsVal::Top,
                },
                AluOp::Sll => match a.as_set() {
                    Some(s) => s
                        .shl_const((imm & 63) as u32)
                        .map_or(AbsVal::Top, AbsVal::Set),
                    None => AbsVal::Top,
                },
                _ => a
                    .as_const()
                    .and_then(|c| const_eval(op, c, imm as u64))
                    .map_or(AbsVal::Top, AbsVal::constant),
            };
            regs.set(rd, v);
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            let a = regs.get(rs1).clone();
            let b = regs.get(rs2).clone();
            let v = match op {
                AluOp::Add => a.lift2(&b, StridedSet::add),
                AluOp::Sub => a.lift2(&b, StridedSet::sub),
                AluOp::Mul => match (a.as_set(), b.as_set()) {
                    (Some(x), Some(y)) => match (x.as_const(), y.as_const()) {
                        (Some(c), _) => y.mul_const(c).map_or(AbsVal::Top, AbsVal::Set),
                        (_, Some(c)) => x.mul_const(c).map_or(AbsVal::Top, AbsVal::Set),
                        _ => AbsVal::Top,
                    },
                    _ => AbsVal::Top,
                },
                AluOp::Sll => match (a.as_set(), b.as_const()) {
                    (Some(x), Some(sh)) => x
                        .shl_const((sh & 63) as u32)
                        .map_or(AbsVal::Top, AbsVal::Set),
                    _ => AbsVal::Top,
                },
                _ => match (a.as_const(), b.as_const()) {
                    (Some(x), Some(y)) => {
                        const_eval(op, x, y).map_or(AbsVal::Top, AbsVal::constant)
                    }
                    _ => AbsVal::Top,
                },
            };
            regs.set(rd, v);
        }
        Inst::OpImm32 { op, rd, rs1, imm } => {
            let v = regs
                .get(rs1)
                .as_const()
                .and_then(|c| const_eval_w(op, c, imm as u64))
                .map_or(AbsVal::Top, AbsVal::constant);
            regs.set(rd, v);
        }
        Inst::Op32 { op, rd, rs1, rs2 } => {
            let v = match (regs.get(rs1).as_const(), regs.get(rs2).as_const()) {
                (Some(a), Some(b)) => const_eval_w(op, a, b).map_or(AbsVal::Top, AbsVal::constant),
                _ => AbsVal::Top,
            };
            regs.set(rd, v);
        }
        Inst::Load { rd, .. } | Inst::Amo { rd, .. } => regs.set(rd, AbsVal::Top),
        Inst::Csr { rd, csr, .. } => {
            let v = if csr == Csr::MHARTID {
                AbsVal::constant(core)
            } else {
                AbsVal::Top
            };
            regs.set(rd, v);
        }
        Inst::Branch { .. }
        | Inst::Store { .. }
        | Inst::Fsd { .. }
        | Inst::Fld { .. }
        | Inst::Fence
        | Inst::Ecall
        | Inst::Ebreak => {}
        _ => {
            // Generic clobber through the cached def set: anything the
            // instruction may write to an x register becomes unknown.
            let defs = d.defs.x;
            for r in 1..32 {
                if defs & (1 << r) != 0 {
                    regs.x[r] = AbsVal::Top;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_asm::Assembler;
    use coyote_isa::predecode::predecode;

    fn analyze_src(src: &str, core: u64) -> (CoreAnalysis, Cfg) {
        let program = Assembler::new()
            .text_base(0x1000)
            .data_base(0x9000)
            .assemble(src)
            .expect("assembles");
        let table = predecode(program.text());
        let cfg = Cfg::build(&table, program.text_base(), program.entry());
        let analysis = interpret(&table, &cfg, core);
        (analysis, cfg)
    }

    #[test]
    fn straight_line_constant_addresses() {
        let (a, _) = analyze_src(
            "li t0, 0x9000\n\
             sd zero, 0(t0)\n\
             sd zero, 8(t0)\n\
             li a7, 93\n\
             ecall\n",
            0,
        );
        assert!(a.poisons.is_empty(), "poisons: {:?}", a.poisons);
        assert_eq!(a.accesses.len(), 2);
        assert_eq!(a.accesses[0].addr.as_const(), Some(0x9000));
        assert_eq!(a.accesses[1].addr.as_const(), Some(0x9008));
        assert!(a.accesses.iter().all(|m| m.write));
    }

    #[test]
    fn counted_loop_recovers_exact_stride() {
        // for (i = 0; i != 16; i++) buf[i] = 0  (countdown via bne)
        let (a, _) = analyze_src(
            "li t0, 0x9000\n\
             li t1, 16\n\
             li t2, 0\n\
             loop:\n\
             sd zero, 0(t0)\n\
             addi t0, t0, 8\n\
             addi t2, t2, 1\n\
             bne t2, t1, loop\n\
             li a7, 93\n\
             ecall\n",
            0,
        );
        assert!(a.poisons.is_empty(), "poisons: {:?}", a.poisons);
        let writes: Vec<_> = a.accesses.iter().filter(|m| m.write).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].addr, StridedSet::with_dims(0x9000, vec![(8, 16)]));
        assert_eq!(writes[0].width, 8);
    }

    #[test]
    fn mhartid_concretizes_per_core() {
        // Each core writes its own doubleword slot.
        let src = "csrr t0, mhartid\n\
                   slli t0, t0, 3\n\
                   li t1, 0x9000\n\
                   add t0, t0, t1\n\
                   sd zero, 0(t0)\n\
                   li a7, 93\n\
                   ecall\n";
        let (a0, _) = analyze_src(src, 0);
        let (a3, _) = analyze_src(src, 3);
        assert_eq!(a0.accesses[0].addr.as_const(), Some(0x9000));
        assert_eq!(a3.accesses[0].addr.as_const(), Some(0x9000 + 24));
    }

    #[test]
    fn hart_gated_block_is_unreachable_for_other_cores() {
        // Core 0 writes; every other core goes straight to exit.
        let src = "csrr t0, mhartid\n\
                   bne t0, zero, done\n\
                   li t1, 0x9000\n\
                   sd zero, 0(t1)\n\
                   done:\n\
                   li a7, 93\n\
                   ecall\n";
        let (a0, _) = analyze_src(src, 0);
        let (a1, _) = analyze_src(src, 1);
        assert_eq!(a0.accesses.len(), 1);
        assert!(a1.accesses.is_empty());
        assert!(a1.reached_blocks < a0.reached_blocks);
    }

    #[test]
    fn jalr_poisons_the_analysis() {
        let (a, _) = analyze_src(
            "la t0, done\n\
             jalr ra, t0, 0\n\
             done:\n\
             li a7, 93\n\
             ecall\n",
            0,
        );
        assert!(a
            .poisons
            .iter()
            .any(|p| matches!(p, Poison::IndirectJump { .. })));
    }

    #[test]
    fn amo_and_vector_poison() {
        let (a, _) = analyze_src(
            "li t0, 0x9000\n\
             li t1, 1\n\
             amoadd.d t2, t1, (t0)\n\
             li a7, 93\n\
             ecall\n",
            0,
        );
        assert!(a.poisons.iter().any(|p| matches!(p, Poison::Amo { .. })));
        // The AMO's read and write footprints are still recorded.
        assert_eq!(a.accesses.len(), 2);
    }

    #[test]
    fn unknown_store_address_is_top_poison() {
        let (a, _) = analyze_src(
            "li t0, 0x9000\n\
             ld t1, 0(t0)\n\
             sd zero, 0(t1)\n\
             li a7, 93\n\
             ecall\n",
            0,
        );
        assert!(a
            .poisons
            .iter()
            .any(|p| matches!(p, Poison::TopAddress { .. })));
    }

    #[test]
    fn widening_bounds_a_long_counted_loop() {
        // 4096 iterations: far beyond the freeze budget, so the trip
        // count must come from the counter plan, exactly.
        let (a, _) = analyze_src(
            "li t0, 0x9000\n\
             li t1, 4096\n\
             li t2, 0\n\
             loop:\n\
             sd zero, 0(t0)\n\
             addi t0, t0, 8\n\
             addi t2, t2, 1\n\
             blt t2, t1, loop\n\
             li a7, 93\n\
             ecall\n",
            0,
        );
        assert!(a.poisons.is_empty(), "poisons: {:?}", a.poisons);
        let w = a.accesses.iter().find(|m| m.write).expect("store");
        assert_eq!(w.addr, StridedSet::with_dims(0x9000, vec![(8, 4096)]));
    }
}
