//! Differential co-simulation oracle.
//!
//! Coyote's core architectural contract is that the *functional* result
//! of a program is independent of the *timing* configuration: caches,
//! scoreboards and the NoC may change **when** things happen but never
//! **what** happens. This crate enforces that contract at runtime.
//!
//! [`LockstepChecker`] owns a pure functional reference machine — one
//! [`Hart`] per core plus a private [`SparseMemory`], with no caches,
//! no scoreboard and no hierarchy — and replays every instruction the
//! timed simulation retires, in the exact global retirement order, then
//! diffs the architectural state (integer, FP and vector registers,
//! `pc`, the CSRs the workspace models, and every byte the instruction
//! wrote to memory). The first mismatch produces a structured
//! [`Divergence`] naming the core, cycle, PC, disassembled instruction
//! and the exact state delta.
//!
//! Because the reference machine consumes the simulation's own
//! cycle/instret counters and follows the simulation's retirement
//! interleaving, it stays in sync even through `csrr cycle` reads and
//! legitimately racy shared-memory programs — it checks that the timed
//! machine faithfully executed *its own* schedule, not that the
//! schedule itself is unique. What it deliberately cannot check:
//! cycle counts themselves, and whether a *different* legal
//! interleaving would have produced other values.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

use std::fmt;

use coyote_asm::Program;
use coyote_isa::{decode, Csr, FReg, VReg, XReg};
use coyote_iss::core::DecodedText;
use coyote_iss::exec::{execute, Ecall, MemAccess};
use coyote_iss::{CoreSnapshot, Hart, SparseMemory};

/// One architectural mismatch between the reference machine and the
/// timed simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// What diverged, e.g. `"x6 (t1)"`, `"pc"`, `"mem[0x81000040+8]"`.
    pub item: String,
    /// The reference machine's value.
    pub reference: String,
    /// The timed simulation's value.
    pub simulation: String,
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: reference {} != simulation {}",
            self.item, self.reference, self.simulation
        )
    }
}

/// A structured divergence report: the timed simulation's architectural
/// state disagreed with the functional reference at an instruction
/// retirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Core whose retirement diverged.
    pub core: usize,
    /// Simulation cycle of the retirement.
    pub cycle: u64,
    /// PC of the retiring instruction.
    pub pc: u64,
    /// Disassembly of the retiring instruction.
    pub inst: String,
    /// Every state mismatch found (capped; see [`Divergence::TRUNCATED`]).
    pub deltas: Vec<Delta>,
    /// Snapshot of every core at divergence time (filled in by the
    /// orchestrator, which owns the cores).
    pub context: Vec<CoreSnapshot>,
    /// The orchestrator's flight-recorder tail (rendered event lines,
    /// oldest first, at most [`TRAIL_EVENTS`]): what the machine was
    /// doing in the cycles leading up to the divergence. Filled in by
    /// the orchestrator, like `context`.
    pub trail: Vec<String>,
    /// RNG seed that regenerates the diverging program, when the run
    /// came from a property-test harness.
    pub replay_seed: Option<u64>,
}

/// Flight-recorder events the orchestrator attaches to a divergence
/// report's [`Divergence::trail`].
pub const TRAIL_EVENTS: usize = 16;

impl Divergence {
    /// Max deltas collected per report; further mismatches are dropped.
    pub const TRUNCATED: usize = 16;
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "co-simulation divergence: core {} at cycle {}, pc {:#x}: `{}`",
            self.core, self.cycle, self.pc, self.inst
        )?;
        for delta in &self.deltas {
            write!(f, "\n  {delta}")?;
        }
        if self.deltas.len() == Self::TRUNCATED {
            write!(f, "\n  (further deltas truncated)")?;
        }
        if let Some(seed) = self.replay_seed {
            write!(f, "\n  replay seed: {seed:#018x}")?;
        }
        if !self.context.is_empty() {
            write!(f, "\n  machine state at divergence:")?;
            for snap in &self.context {
                write!(f, "\n    {snap}")?;
            }
        }
        if !self.trail.is_empty() {
            write!(f, "\n  recent events:")?;
            for line in &self.trail {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for Divergence {}

/// Per-core reference state.
#[derive(Debug, Clone)]
struct RefCore {
    hart: Hart,
    instret: u64,
    halted: bool,
}

/// The functional reference machine, checked in lockstep against a
/// timed simulation.
#[derive(Debug, Clone)]
pub struct LockstepChecker {
    cores: Vec<RefCore>,
    mem: SparseMemory,
    text: DecodedText,
    replay_seed: Option<u64>,
    access_buf: Vec<MemAccess>,
}

impl LockstepChecker {
    /// Builds a reference machine for `cores` harts running `program`.
    #[must_use]
    pub fn new(program: &Program, cores: usize, vlen_bits: u64) -> LockstepChecker {
        let mut mem = SparseMemory::new();
        mem.load_program(program);
        LockstepChecker {
            cores: (0..cores)
                .map(|i| RefCore {
                    hart: Hart::new(i as u64, program.entry(), vlen_bits),
                    instret: 0,
                    halted: false,
                })
                .collect(),
            mem,
            text: DecodedText::from_program(program),
            replay_seed: None,
            access_buf: Vec::new(),
        }
    }

    /// Attaches a property-test replay seed to future divergence
    /// reports.
    pub fn set_replay_seed(&mut self, seed: u64) {
        self.replay_seed = Some(seed);
    }

    /// Re-synchronises the reference memory with the timed machine's
    /// functional memory.
    ///
    /// Workload harnesses populate input data directly into simulation
    /// memory after construction; the orchestrator calls this once
    /// before the first retirement so the reference machine sees the
    /// same initial image.
    pub fn sync_memory(&mut self, mem: &SparseMemory) {
        self.mem = mem.clone();
    }

    /// Instructions the reference machine has retired on `core`.
    #[must_use]
    pub fn instret(&self, core: usize) -> u64 {
        self.cores[core].instret
    }

    /// Invalidates predecoded text entries patched by a self-modifying
    /// store, mirroring the timed machine's invalidation point so both
    /// machines re-decode the patched words from their memories at the
    /// same retirement boundary.
    pub fn invalidate_text(&mut self, addr: u64, len: u64) {
        self.text.invalidate(addr, len);
    }

    /// Replays one retirement of `core` at `cycle` on the reference
    /// machine and diffs the result against the simulation's
    /// architectural state.
    ///
    /// Must be called once per retirement, in the simulation's global
    /// retirement order (the shared reference memory replays the same
    /// interleaving the timed machine produced). `sim_mem` is the timed
    /// simulation's functional memory *after* the retirement.
    ///
    /// # Errors
    ///
    /// Returns a [`Divergence`] describing the first mismatching
    /// retirement. `context` is left empty — the orchestrator owns the
    /// cores and fills it in.
    pub fn check_retirement(
        &mut self,
        core: usize,
        cycle: u64,
        sim_hart: &Hart,
        sim_mem: &SparseMemory,
    ) -> Result<(), Box<Divergence>> {
        let replay_seed = self.replay_seed;
        let reference = &mut self.cores[core];
        debug_assert!(!reference.halted, "retirement on a halted core {core}");
        let pc = reference.hart.pc;

        let divergence = |inst: String, deltas: Vec<Delta>| {
            Box::new(Divergence {
                core,
                cycle,
                pc,
                inst,
                deltas,
                context: Vec::new(),
                trail: Vec::new(),
                replay_seed,
            })
        };

        let inst = match self.text.get(pc) {
            Some(inst) => *inst,
            None => {
                let word = self.mem.read_u32(pc);
                match decode(word) {
                    Ok(inst) => inst,
                    Err(_) => {
                        return Err(divergence(
                            format!(".word {word:#010x}"),
                            vec![Delta {
                                item: "decode".into(),
                                reference: "undecodable".into(),
                                simulation: "retired an instruction".into(),
                            }],
                        ))
                    }
                }
            }
        };

        let mut accesses = std::mem::take(&mut self.access_buf);
        accesses.clear();
        let fx = match execute(
            &mut reference.hart,
            &mut self.mem,
            &inst,
            cycle,
            reference.instret,
            &mut accesses,
        ) {
            Ok(fx) => fx,
            Err(err) => {
                return Err(divergence(
                    inst.to_string(),
                    vec![Delta {
                        item: "execute".into(),
                        reference: format!("error: {err}"),
                        simulation: "retired".into(),
                    }],
                ))
            }
        };
        reference.instret += 1;
        if let Some(Ecall::Exit(_)) = fx.ecall {
            reference.halted = true;
        }

        let mut deltas = Vec::new();
        diff_state(&reference.hart, sim_hart, inst.is_vector(), &mut deltas);
        diff_memory(&self.mem, sim_mem, &accesses, &mut deltas);
        self.access_buf = accesses;

        if deltas.is_empty() {
            Ok(())
        } else {
            Err(divergence(inst.to_string(), deltas))
        }
    }
}

fn push_delta(deltas: &mut Vec<Delta>, item: String, reference: String, simulation: String) {
    if deltas.len() < Divergence::TRUNCATED {
        deltas.push(Delta {
            item,
            reference,
            simulation,
        });
    }
}

/// Diffs full architectural register state. The vector file is only
/// compared after vector instructions: it is by far the widest state
/// and only vector instructions can change it.
fn diff_state(reference: &Hart, sim: &Hart, inst_is_vector: bool, deltas: &mut Vec<Delta>) {
    if reference.pc != sim.pc {
        push_delta(
            deltas,
            "pc".into(),
            format!("{:#x}", reference.pc),
            format!("{:#x}", sim.pc),
        );
    }
    for i in 1..32 {
        let reg = XReg::new(i).expect("x1..x31");
        if reference.x(reg) != sim.x(reg) {
            push_delta(
                deltas,
                format!("x{i} ({reg})"),
                format!("{:#x}", reference.x(reg)),
                format!("{:#x}", sim.x(reg)),
            );
        }
    }
    for i in 0..32 {
        let reg = FReg::new(i).expect("f0..f31");
        if reference.f_bits(reg) != sim.f_bits(reg) {
            push_delta(
                deltas,
                format!("f{i} ({reg})"),
                format!("{:#x}", reference.f_bits(reg)),
                format!("{:#x}", sim.f_bits(reg)),
            );
        }
    }
    if reference.vl != sim.vl {
        push_delta(
            deltas,
            "vl".into(),
            reference.vl.to_string(),
            sim.vl.to_string(),
        );
    }
    if reference.vtype.to_bits() != sim.vtype.to_bits() {
        push_delta(
            deltas,
            "vtype".into(),
            format!("{:#x}", reference.vtype.to_bits()),
            format!("{:#x}", sim.vtype.to_bits()),
        );
    }
    let mscratch = |h: &Hart| h.read_csr(Csr::MSCRATCH, 0, 0);
    if mscratch(reference) != mscratch(sim) {
        push_delta(
            deltas,
            "mscratch".into(),
            format!("{:#x}", mscratch(reference)),
            format!("{:#x}", mscratch(sim)),
        );
    }
    if inst_is_vector {
        let dwords_per_reg = reference.vlen_bits() / 64;
        for r in 0..32 {
            let reg = VReg::new(r).expect("v0..v31");
            for d in 0..dwords_per_reg {
                let (a, b) = (reference.v_elem(reg, d, 8), sim.v_elem(reg, d, 8));
                if a != b {
                    push_delta(
                        deltas,
                        format!("v{r}[dword {d}]"),
                        format!("{a:#x}"),
                        format!("{b:#x}"),
                    );
                }
            }
        }
    }
}

/// Diffs the bytes the retiring instruction wrote.
fn diff_memory(
    reference: &SparseMemory,
    sim: &SparseMemory,
    accesses: &[MemAccess],
    deltas: &mut Vec<Delta>,
) {
    for access in accesses.iter().filter(|a| a.write) {
        let mut ref_buf = [0u8; 8];
        let mut sim_buf = [0u8; 8];
        let size = access.size as usize;
        reference.read_bytes(access.addr, &mut ref_buf[..size]);
        sim.read_bytes(access.addr, &mut sim_buf[..size]);
        if ref_buf != sim_buf {
            push_delta(
                deltas,
                format!("mem[{:#x}+{size}]", access.addr),
                format!("{:02x?}", &ref_buf[..size]),
                format!("{:02x?}", &sim_buf[..size]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_asm::assemble;
    use coyote_iss::{CoreState, DEFAULT_VLEN_BITS};

    /// Steps an untimed `coyote_iss::Core` with instant fills while the
    /// oracle checks every retirement — a self-consistency test of the
    /// checker against the very semantics it reuses.
    #[test]
    fn clean_run_is_divergence_free() {
        let program = assemble(
            ".data
             buf: .zero 64
             .text
             _start:
                li t0, 5
                la t1, buf
                sd t0, 0(t1)
                ld t2, 0(t1)
                amoadd.d t3, t0, (t1)
                add t2, t2, t3
                li a0, 0
                li a7, 93
                ecall",
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        mem.load_program(&program);
        let text = DecodedText::from_program(&program);
        let mut core =
            coyote_iss::Core::new(0, program.entry(), &coyote_iss::CoreConfig::default());
        let mut checker = LockstepChecker::new(&program, 1, DEFAULT_VLEN_BITS);
        let mut misses = Vec::new();
        for cycle in 0..200 {
            if matches!(core.state(), CoreState::Halted(_)) {
                assert_eq!(checker.instret(0), core.stats().retired);
                return;
            }
            if core.state() == CoreState::Active {
                let ev = core.step(&mut mem, &text, cycle, &mut misses).unwrap();
                if matches!(
                    ev,
                    coyote_iss::StepEvent::Retired | coyote_iss::StepEvent::Halted(_)
                ) {
                    checker
                        .check_retirement(0, cycle, core.hart(), &mem)
                        .unwrap();
                }
            }
            for miss in misses.drain(..) {
                core.complete_fill(miss.line_addr, miss.kind, cycle);
            }
        }
        panic!("did not halt");
    }

    #[test]
    fn corrupted_register_is_reported_with_delta() {
        let program = assemble(
            "_start:
                li t0, 7
                addi t1, t0, 1
                li a0, 0
                li a7, 93
                ecall",
        )
        .unwrap();
        let mut checker = LockstepChecker::new(&program, 1, DEFAULT_VLEN_BITS);
        checker.set_replay_seed(0xabcd);
        // A "simulation" hart that executed `li t0, 7` wrong.
        let mut sim = Hart::new(0, program.entry(), DEFAULT_VLEN_BITS);
        sim.pc = program.entry() + 4;
        sim.set_x(XReg::parse("t0").unwrap(), 9);
        let sim_mem = SparseMemory::new();
        let err = checker
            .check_retirement(0, 3, &sim, &sim_mem)
            .expect_err("must diverge");
        assert_eq!(err.core, 0);
        assert_eq!(err.cycle, 3);
        assert_eq!(err.pc, program.entry());
        assert_eq!(err.deltas.len(), 1);
        assert!(err.deltas[0].item.contains("t0"), "{}", err.deltas[0].item);
        let text = err.to_string();
        assert!(text.contains("0x7"), "{text}");
        assert!(text.contains("0x9"), "{text}");
        assert!(text.contains("replay seed"), "{text}");
    }
}
