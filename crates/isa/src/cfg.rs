//! Control-flow graph recovery over a predecoded text segment.
//!
//! [`Cfg::build`] walks the dense micro-op table produced by
//! [`crate::predecode()`] from the program entry point, splitting the
//! reachable code into basic blocks and recording every block's exit
//! shape. Direct control flow (`jal`, conditional branches, plain
//! fallthrough) is followed exactly; `jalr` and other indirect
//! transfers are a conservative **bail-out**: the block gets no
//! successors and the graph is flagged [`Cfg::has_indirect`], so
//! downstream analyses (the footprint certifier) know the recovered
//! graph under-approximates the real one. `ecall` terminates a block
//! but keeps its fallthrough edge — whether the edge is actually
//! taken depends on the syscall number, which only the abstract
//! interpreter can decide.
//!
//! On top of the block graph the module computes reverse postorder,
//! immediate dominators (iterative Cooper–Harvey–Kennedy) and natural
//! loops (back edges `latch → head` where `head` dominates `latch`,
//! bodies flooded backwards from the latch).

use crate::inst::Inst;
use crate::predecode::DecodedInst;

/// How a basic block ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockExit {
    /// Execution continues at the next instruction (the block was
    /// split because its successor is a jump target).
    Fallthrough,
    /// Unconditional direct jump (`jal`; the link write is a normal
    /// register def).
    Jump(u64),
    /// Conditional branch: taken target plus fallthrough.
    Branch {
        /// Branch-taken target PC.
        taken: u64,
        /// Fallthrough PC.
        fall: u64,
    },
    /// `ecall`: may halt the hart (exit syscall) or continue at the
    /// fallthrough, depending on the runtime `a7` value.
    Ecall,
    /// Indirect jump (`jalr`): targets unknown, conservative bail-out
    /// with no successor edges.
    Indirect,
    /// Execution cannot continue: `ebreak`, a decode hole, a transfer
    /// to a PC outside the text segment, or falling off the end.
    Trap,
}

/// One basic block: a maximal straight-line run of reachable
/// instructions.
#[derive(Clone, Debug)]
pub struct BasicBlock {
    /// Index of the first instruction (into the predecoded table).
    pub start: usize,
    /// Number of instructions in the block (at least 1).
    pub len: usize,
    /// How the block ends.
    pub exit: BlockExit,
    /// Successor block ids, in a fixed order (branch-taken before
    /// fallthrough).
    pub succs: Vec<usize>,
    /// Predecessor block ids, ascending.
    pub preds: Vec<usize>,
    /// True when some continuation of this block leaves the predecoded
    /// text segment (branch or jump to an out-of-text PC, or plain
    /// fallthrough off the end): execution would continue through the
    /// non-predecoded slow path, which the static analysis cannot see.
    /// `ecall` blocks with no in-text fallthrough do *not* set this —
    /// whether their fallthrough is feasible depends on the abstract
    /// `a7` value, so the interpreter decides.
    pub escapes: bool,
}

/// One natural loop.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header block (dominates every block in the body).
    pub head: usize,
    /// Latch blocks (sources of back edges into `head`).
    pub latches: Vec<usize>,
    /// All blocks in the loop body (including head and latches),
    /// ascending.
    pub blocks: Vec<usize>,
}

/// A control-flow graph over the reachable part of a text segment.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Basic blocks; ids index this vector. Block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Base address of the text segment the instruction indices are
    /// relative to.
    pub base: u64,
    /// Number of words in the predecoded table (for unreachable-code
    /// reporting).
    pub words: usize,
    /// True when some reachable block ends in an indirect jump, so
    /// the graph conservatively under-approximates real control flow.
    pub has_indirect: bool,
    /// True when some reachable path traps: decode hole, `ebreak`,
    /// transfer out of text, or falling off the end of the segment.
    pub has_trap: bool,
    /// True when some reachable block [`BasicBlock::escapes`] the
    /// text segment (or the entry point itself was outside it).
    pub has_escape: bool,
}

impl Cfg {
    /// Recovers the CFG of `insts` (the predecoded table of the text
    /// segment at `base`) starting from `entry`.
    ///
    /// An entry point outside the table yields a graph with a single
    /// trapping block-less CFG (`blocks` empty, `has_trap` set).
    #[must_use]
    pub fn build(insts: &[Option<DecodedInst>], base: u64, entry: u64) -> Cfg {
        let index_of = |pc: u64| -> Option<usize> {
            if pc < base || !(pc - base).is_multiple_of(4) {
                return None;
            }
            let idx = ((pc - base) / 4) as usize;
            (idx < insts.len()).then_some(idx)
        };
        let Some(entry_idx) = index_of(entry) else {
            return Cfg {
                blocks: Vec::new(),
                base,
                words: insts.len(),
                has_indirect: false,
                has_trap: true,
                has_escape: true,
            };
        };

        // Pass 1: discover reachable instructions and leaders.
        let mut reachable = vec![false; insts.len()];
        let mut leader = vec![false; insts.len()];
        leader[entry_idx] = true;
        let mut work = vec![entry_idx];
        let mut has_indirect = false;
        let mut has_trap = false;
        while let Some(start) = work.pop() {
            let mut idx = start;
            loop {
                if reachable[idx] {
                    break;
                }
                reachable[idx] = true;
                let Some(decoded) = &insts[idx] else {
                    has_trap = true;
                    break;
                };
                let pc = base + 4 * idx as u64;
                let mut push_target = |target: u64| match index_of(target) {
                    Some(t) => {
                        if !leader[t] {
                            leader[t] = true;
                        }
                        if !reachable[t] {
                            work.push(t);
                        }
                    }
                    None => has_trap = true,
                };
                match decoded.inst {
                    Inst::Jal { offset, .. } => {
                        push_target(pc.wrapping_add(offset as u64));
                        break;
                    }
                    Inst::Branch { offset, .. } => {
                        push_target(pc.wrapping_add(offset as u64));
                        push_target(pc + 4);
                        break;
                    }
                    Inst::Jalr { .. } => {
                        has_indirect = true;
                        break;
                    }
                    Inst::Ebreak => break,
                    Inst::Ecall => {
                        // The fallthrough is reachable unless the
                        // abstract interpreter proves a7 == exit.
                        push_target(pc + 4);
                        break;
                    }
                    _ => {
                        if idx + 1 < insts.len() {
                            idx += 1;
                        } else {
                            has_trap = true; // falls off the end
                            break;
                        }
                    }
                }
            }
        }

        // Pass 2: materialize the blocks.
        let mut block_starts = Vec::new();
        let mut prev_flows_in = false;
        for idx in 0..insts.len() {
            if !reachable[idx] {
                prev_flows_in = false;
                continue;
            }
            if leader[idx] || !prev_flows_in {
                block_starts.push(idx);
            }
            prev_flows_in = match insts[idx].as_ref().map(|d| &d.inst) {
                Some(
                    Inst::Jal { .. }
                    | Inst::Branch { .. }
                    | Inst::Jalr { .. }
                    | Inst::Ebreak
                    | Inst::Ecall,
                )
                | None => false,
                Some(_) => true,
            };
        }
        let id_of_start = |idx: usize| block_starts.binary_search(&idx).ok();
        let mut blocks: Vec<BasicBlock> = Vec::with_capacity(block_starts.len());
        for (b, &start) in block_starts.iter().enumerate() {
            let next_start = block_starts.get(b + 1).copied().unwrap_or(usize::MAX);
            let mut idx = start;
            let (len, exit, escapes) = loop {
                let here = idx - start + 1;
                let Some(decoded) = &insts[idx] else {
                    break (here, BlockExit::Trap, false);
                };
                let pc = base + 4 * idx as u64;
                match decoded.inst {
                    Inst::Jal { offset, .. } => {
                        break (here, BlockExit::Jump(pc.wrapping_add(offset as u64)), false);
                    }
                    Inst::Branch { offset, .. } => {
                        break (
                            here,
                            BlockExit::Branch {
                                taken: pc.wrapping_add(offset as u64),
                                fall: pc + 4,
                            },
                            false,
                        );
                    }
                    Inst::Jalr { .. } => break (here, BlockExit::Indirect, false),
                    Inst::Ebreak => break (here, BlockExit::Trap, false),
                    Inst::Ecall => break (here, BlockExit::Ecall, false),
                    _ => {
                        if idx + 1 == next_start {
                            break (here, BlockExit::Fallthrough, false);
                        }
                        if idx + 1 >= insts.len() {
                            // Falling off the end of text: execution
                            // would continue through non-predecoded
                            // memory.
                            break (here, BlockExit::Trap, true);
                        }
                        idx += 1;
                    }
                }
            };
            blocks.push(BasicBlock {
                start,
                len,
                exit,
                succs: Vec::new(),
                preds: Vec::new(),
                escapes,
            });
        }

        // Pass 3: edges. Targets outside the text (or into holes)
        // were already folded into `has_trap`.
        let target_block = |pc: u64| index_of(pc).and_then(id_of_start);
        for b in 0..blocks.len() {
            let end_idx = blocks[b].start + blocks[b].len - 1;
            let mut succs = Vec::new();
            let mut escaped_edge = false;
            let mut edge = |pc: u64, succs: &mut Vec<usize>| match target_block(pc) {
                Some(t) => succs.push(t),
                None => escaped_edge = true,
            };
            match blocks[b].exit.clone() {
                BlockExit::Fallthrough => {
                    edge(base + 4 * (end_idx as u64 + 1), &mut succs);
                }
                BlockExit::Jump(t) => edge(t, &mut succs),
                BlockExit::Branch { taken, fall } => {
                    edge(taken, &mut succs);
                    edge(fall, &mut succs);
                }
                BlockExit::Ecall => {
                    // An out-of-text fallthrough is only an escape if
                    // the syscall can return; the interpreter decides.
                    succs.extend(target_block(base + 4 * (end_idx as u64 + 1)));
                }
                BlockExit::Indirect | BlockExit::Trap => {}
            }
            for &s in &succs {
                blocks[s].preds.push(b);
            }
            blocks[b].succs = succs;
            blocks[b].escapes |= escaped_edge;
        }
        for block in &mut blocks {
            block.preds.sort_unstable();
            block.preds.dedup();
        }

        let has_escape = blocks.iter().any(|b| b.escapes);
        Cfg {
            blocks,
            base,
            words: insts.len(),
            has_indirect,
            has_trap,
            has_escape,
        }
    }

    /// Block id owning instruction index `idx`, if the instruction is
    /// reachable.
    #[must_use]
    pub fn block_of(&self, idx: usize) -> Option<usize> {
        let b = self.blocks.partition_point(|blk| blk.start <= idx);
        (b > 0 && idx < self.blocks[b - 1].start + self.blocks[b - 1].len).then(|| b - 1)
    }

    /// Instruction indices never covered by a reachable block,
    /// ascending (dead code candidates for `coyote-check`).
    #[must_use]
    pub fn unreachable_words(&self) -> Vec<usize> {
        let mut covered = vec![false; self.words];
        for block in &self.blocks {
            for flag in covered.iter_mut().skip(block.start).take(block.len) {
                *flag = true;
            }
        }
        covered
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (!c).then_some(i))
            .collect()
    }

    /// Reverse postorder over the block graph from the entry block.
    #[must_use]
    pub fn reverse_postorder(&self) -> Vec<usize> {
        if self.blocks.is_empty() {
            return Vec::new();
        }
        let mut state = vec![0_u8; self.blocks.len()]; // 0 new, 1 open, 2 done
        let mut post = Vec::with_capacity(self.blocks.len());
        let mut stack = vec![(0_usize, 0_usize)];
        state[0] = 1;
        while let Some(top) = stack.last_mut() {
            let b = top.0;
            if top.1 < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[top.1];
                top.1 += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Immediate dominators, one per block (`idom[entry] == entry`;
    /// unreachable-from-entry blocks keep `usize::MAX`).
    #[must_use]
    pub fn immediate_dominators(&self) -> Vec<usize> {
        let mut idom = vec![usize::MAX; self.blocks.len()];
        if self.blocks.is_empty() {
            return idom;
        }
        let rpo = self.reverse_postorder();
        let mut rpo_pos = vec![usize::MAX; self.blocks.len()];
        for (pos, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = pos;
        }
        idom[0] = 0;
        let intersect = |idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_pos[a] > rpo_pos[b] {
                    a = idom[a];
                }
                while rpo_pos[b] > rpo_pos[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in &self.blocks[b].preds {
                    if idom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        intersect(&idom, &rpo_pos, new_idom, p)
                    };
                }
                if new_idom != usize::MAX && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    /// True when `a` dominates `b` under the given idom vector.
    #[must_use]
    pub fn dominates(idom: &[usize], a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == usize::MAX || idom[cur] == cur {
                return cur == a;
            }
            cur = idom[cur];
        }
    }

    /// Natural loops: back edges whose head dominates the latch, one
    /// [`NaturalLoop`] per head (multiple latches merged).
    #[must_use]
    pub fn natural_loops(&self) -> Vec<NaturalLoop> {
        let idom = self.immediate_dominators();
        let mut loops: Vec<NaturalLoop> = Vec::new();
        for (latch, block) in self.blocks.iter().enumerate() {
            for &head in &block.succs {
                if idom[latch] == usize::MAX || !Cfg::dominates(&idom, head, latch) {
                    continue;
                }
                // Flood backwards from the latch, stopping at the head.
                let mut body = vec![head, latch];
                let mut stack = vec![latch];
                while let Some(b) = stack.pop() {
                    if b == head {
                        continue;
                    }
                    for &p in &self.blocks[b].preds {
                        if !body.contains(&p) {
                            body.push(p);
                            stack.push(p);
                        }
                    }
                }
                body.sort_unstable();
                body.dedup();
                if let Some(existing) = loops.iter_mut().find(|l| l.head == head) {
                    existing.latches.push(latch);
                    existing.blocks.extend(body);
                    existing.blocks.sort_unstable();
                    existing.blocks.dedup();
                } else {
                    loops.push(NaturalLoop {
                        head,
                        latches: vec![latch],
                        blocks: body,
                    });
                }
            }
        }
        loops.sort_by_key(|l| l.head);
        loops
    }

    /// Block ids that are targets of back edges (loop heads under the
    /// dominator criterion).
    #[must_use]
    pub fn loop_heads(&self) -> Vec<usize> {
        self.natural_loops().iter().map(|l| l.head).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predecode::predecode;

    // Hand-encoded words (cross-checked against the encoder in the
    // roundtrip suite).
    const ADDI_RA_1: u32 = 0x0010_0093; // addi ra, zero, 1
    const BEQ_BACK: u32 = 0xfe00_0ee3; // beq zero, zero, -4
    const ECALL: u32 = 0x0000_0073;
    const JALR_RA: u32 = 0x0000_80e7; // jalr ra, ra, 0

    #[test]
    fn straight_line_is_one_block() {
        let table = predecode(&[ADDI_RA_1, ADDI_RA_1, ECALL]);
        let cfg = Cfg::build(&table, 0x1000, 0x1000);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].len, 3);
        assert_eq!(cfg.blocks[0].exit, BlockExit::Ecall);
        assert!(!cfg.has_indirect);
    }

    #[test]
    fn backward_branch_makes_a_loop() {
        // 0: addi; 1: beq back to 0; 2: ecall (fallthrough of branch)
        let table = predecode(&[ADDI_RA_1, BEQ_BACK, ECALL]);
        let cfg = Cfg::build(&table, 0, 0);
        assert_eq!(cfg.blocks.len(), 2);
        let loops = cfg.natural_loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].head, 0);
        assert_eq!(loops[0].blocks, vec![0]);
        let idom = cfg.immediate_dominators();
        assert!(Cfg::dominates(&idom, 0, 1));
    }

    #[test]
    fn jalr_is_a_conservative_bail_out() {
        let table = predecode(&[JALR_RA, ADDI_RA_1, ECALL]);
        let cfg = Cfg::build(&table, 0, 0);
        assert!(cfg.has_indirect);
        assert_eq!(cfg.blocks[0].exit, BlockExit::Indirect);
        assert!(cfg.blocks[0].succs.is_empty());
        // The code after the jalr is not provably reachable.
        assert_eq!(cfg.unreachable_words(), vec![1, 2]);
    }

    #[test]
    fn entry_outside_text_traps() {
        let table = predecode(&[ADDI_RA_1]);
        let cfg = Cfg::build(&table, 0x1000, 0x2000);
        assert!(cfg.blocks.is_empty());
        assert!(cfg.has_trap);
    }
}
