//! The arm reads the run table: equivalence and rebuild gates.
//!
//! `ArmState::validate` reads one run-table row and its memory-op
//! slice. The reference below is the arm it replaced, kept here only:
//! it classifies every slot, derives each slot's static run length by a
//! backwards pass, and walks the run slot by slot — I-lines, then each
//! slot's use/def sets against the scoreboard, then each memory op. On
//! every start slot of every shipped program (`examples/asm/*.s`, and
//! each kernel at 1 and 8 harts) and over a small universe of machine
//! states — the scoreboard busy on each register the run names or on
//! none, each D-line of the run resident, absent or pending, each I-line
//! resident or not, a store aimed into the text, and pairs of those —
//! both must return the same `(len, stop)` and the same accesses (both
//! start at the pc's slot, `DecodedText::index_of`).
//!
//! A loop head's arm extends its first body over the iterations that
//! follow (`coyote_isa::superblock::LoopRow`). Its reference executes
//! rather than computes: it runs the body through `execute_scalar` on a
//! clone of the machine and re-arms the straight-line reference there,
//! once per iteration, until the back edge falls through, a re-arm stops
//! short or the run would pass `MAX_LOOP_RUN`. Besides the universe
//! above, each loop head is armed with the lines of every iteration up
//! to the cap resident, and with one later iteration's line absent or in
//! flight, under three register files: the universe's, one whose back
//! edge falls through after five iterations, and one with small register
//! strides.
//!
//! The second gate patches text through `DecodedText::invalidate` (every
//! single word, then seeded random byte ranges accumulating on one text)
//! and requires the table to equal one built from scratch over the
//! patched words, with every row's length equal to the reference's
//! backwards pass over them.

use coyote_asm::{assemble, Program};
use coyote_isa::superblock::{Stride, MAX_LOOP_RUN, MAX_RUN};
use coyote_isa::{build_plans, predecode, DecodedInst, FReg, Inst, RegSet, XReg};
use coyote_iss::exec::execute_scalar;
use coyote_iss::mem::AddrMap;
use coyote_iss::{
    ArmState, ArmedRun, Cache, CacheConfig, DecodedText, FuseStop, FusedAccess, Hart, Scoreboard,
    SparseMemory,
};
use coyote_kernels::{
    FftRadix2, MatmulScalar, MatmulVector, MlpInference, SpmvScalar, SpmvVectorAdaptive,
    SpmvVectorCsr, SpmvVectorEll, StencilVector, ThresholdFilter, Workload,
};

/// Every shipped program: the examples, then each kernel at the sizes
/// `tests/end_to_end.rs` runs, at 1 and 8 harts.
fn programs() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/asm exists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "s"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "examples/asm: {paths:?}");
    let mut programs = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(&path).expect("example reads");
        let program = assemble(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        programs.push((path.display().to_string(), program));
    }
    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(MatmulScalar::new(12, 100)),
        Box::new(MatmulVector::new(12, 101)),
        Box::new(SpmvScalar::new(48, 48, 0.1, 102)),
        Box::new(SpmvVectorCsr::new(48, 48, 0.1, 103)),
        Box::new(SpmvVectorEll::new(48, 48, 0.1, 104)),
        Box::new(SpmvVectorAdaptive::new(48, 64, 0.25, 105)),
        Box::new(StencilVector::new(10, 12, 2, 106)),
        Box::new(MlpInference::new(20, 12, 6, 107)),
        Box::new(FftRadix2::new(32, 108)),
        Box::new(ThresholdFilter::new(96, 0.1, 109)),
    ];
    for workload in workloads {
        for harts in [1, 8] {
            let program = workload
                .program(harts)
                .unwrap_or_else(|e| panic!("{} at {harts} harts: {e}", workload.name()));
            programs.push((format!("{} at {harts} harts", workload.name()), program));
        }
    }
    programs
}

// ---- the reference: the plan-walking arm ----

/// A memory op's static plan.
#[derive(Debug, Clone, Copy)]
struct MemPlan {
    base: XReg,
    offset: i32,
    size: u8,
    write: bool,
}

/// How a slot may take part in a fused run.
#[derive(Debug, Clone, Copy)]
enum Class {
    Plain,
    Mem(MemPlan),
    Terminator,
    Excluded,
}

fn classify(slot: Option<&DecodedInst>) -> Class {
    let Some(entry) = slot else {
        return Class::Excluded;
    };
    if entry.lmul_sensitive || entry.vector {
        return Class::Excluded;
    }
    match entry.inst {
        Inst::Upper { .. }
        | Inst::Op { .. }
        | Inst::Op32 { .. }
        | Inst::FpOp { .. }
        | Inst::FpFma { .. }
        | Inst::FpCvt { .. } => Class::Plain,
        Inst::Load {
            op, rs1, offset, ..
        } => Class::Mem(MemPlan {
            base: rs1,
            offset,
            size: op.width().bytes() as u8,
            write: false,
        }),
        Inst::Store {
            op, rs1, offset, ..
        } => Class::Mem(MemPlan {
            base: rs1,
            offset,
            size: op.width().bytes() as u8,
            write: true,
        }),
        Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } => Class::Terminator,
        _ => Class::Excluded,
    }
}

/// Each slot's class and static run length, by the backwards pass.
fn plans(insts: &[Option<DecodedInst>]) -> Vec<(Class, u32)> {
    let mut plans: Vec<(Class, u32)> = insts
        .iter()
        .map(|slot| (classify(slot.as_ref()), 0))
        .collect();
    for idx in (0..plans.len()).rev() {
        plans[idx].1 = match plans[idx].0 {
            Class::Excluded => 0,
            Class::Terminator => 1,
            Class::Plain | Class::Mem(_) => {
                let next = plans.get(idx + 1).map_or(0, |next| next.1);
                let len = (1 + next).min(MAX_RUN);
                let defs = insts[idx].as_ref().map_or(RegSet::new(), |e| e.defs);
                (1..len)
                    .find(|&pos| match plans[idx + pos as usize].0 {
                        Class::Mem(op) => {
                            let mut base = RegSet::new();
                            base.add_x(op.base);
                            defs.intersects(&base)
                        }
                        _ => false,
                    })
                    .unwrap_or(len)
            }
        };
    }
    plans
}

/// The arm as it walked the plan table slot by slot.
fn reference_arm(
    insts: &[Option<DecodedInst>],
    plans: &[(Class, u32)],
    text: &DecodedText,
    state: &ArmState,
) -> (u32, FuseStop, Vec<FusedAccess>) {
    let (len, stop, accesses) = reference_walk(insts, plans, text, state);
    if len < 2 {
        return (0, stop, Vec::new());
    }
    (len, stop, accesses)
}

/// [`reference_arm`] before it drops a run shorter than two.
fn reference_walk(
    insts: &[Option<DecodedInst>],
    plans: &[(Class, u32)],
    text: &DecodedText,
    state: &ArmState,
) -> (u32, FuseStop, Vec<FusedAccess>) {
    let mut accesses = Vec::new();
    let pc = state.hart.pc;
    let (start, mut len, mut stop) = match text.index_of(pc) {
        Some(start) if plans[start].1 >= 2 => (start, plans[start].1, FuseStop::RunEnd),
        _ => (0, 0, FuseStop::TooShort),
    };
    let line_bytes = state.icache.config().line_bytes;
    let mut slot_pc = pc;
    while slot_pc < pc + u64::from(len) * 4 {
        if state.icache.probe_way(slot_pc).is_none() {
            (len, stop) = (((slot_pc - pc) / 4) as u32, FuseStop::LineNotResident);
            break;
        }
        slot_pc = state.icache.line_addr(slot_pc) + line_bytes;
    }
    if !state.scoreboard.is_clear() {
        let busy = (0..len).find(|&i| {
            let entry = insts[start + i as usize]
                .as_ref()
                .expect("run slot decoded");
            state.scoreboard.blocks(&entry.uses, &entry.defs)
        });
        if let Some(i) = busy {
            (len, stop) = (i, FuseStop::ScoreboardBusy);
        }
    }
    let mut blocked = None;
    for i in 0..len {
        let Class::Mem(op) = plans[start + i as usize].0 else {
            continue;
        };
        let addr = state.hart.x(op.base).wrapping_add(op.offset as i64 as u64);
        let Some(way) = state.dcache.probe_way(addr) else {
            blocked = Some((i, FuseStop::LineNotResident));
            break;
        };
        if state
            .pending_data
            .contains_key(&state.dcache.line_addr(addr))
        {
            blocked = Some((i, FuseStop::PendingFill));
            break;
        }
        if op.write && text.overlaps(addr, u64::from(op.size)) {
            blocked = Some((i, FuseStop::TextStore));
            break;
        }
        accesses.push(FusedAccess {
            pos: i as u16,
            addr,
            size: op.size,
            write: op.write,
            way,
        });
    }
    if let Some(cut) = blocked {
        (len, stop) = cut;
    }
    (len, stop, accesses)
}

/// The arm of a loop head whose straight-line arm `first` armed its
/// whole body, by execution: runs the body through `execute_scalar` on
/// a clone of the hart and re-walks the straight-line reference from
/// there, once per iteration. Any other arm is `first` itself.
fn executing_reference(
    insts: &[Option<DecodedInst>],
    plans: &[(Class, u32)],
    text: &DecodedText,
    state: &ArmState,
    first: (u32, FuseStop, Vec<FusedAccess>),
) -> (u32, FuseStop, Vec<FusedAccess>) {
    let pc = state.hart.pc;
    let Some(start) = text.index_of(pc) else {
        return first;
    };
    let body = plans[start].1;
    if text.runs().loop_row(start).is_none() || (first.0, first.1) != (body, FuseStop::RunEnd) {
        return first;
    }
    let row = text.runs().run(start).expect("row in range");
    let uops = &text.runs().uops()[row.uop as usize..][..body as usize];
    let (mut hart, mut mem) = (state.hart.clone(), SparseMemory::new());
    let (mut len, mut accesses) = (body, first.2);
    loop {
        for &uop in uops {
            execute_scalar(&mut hart, &mut mem, uop);
        }
        if hart.pc != pc || len + body > MAX_LOOP_RUN {
            return (len, FuseStop::RunEnd, accesses);
        }
        let next = ArmState {
            hart: &hart,
            ..*state
        };
        let (cut, stop, more) = reference_walk(insts, plans, text, &next);
        accesses.extend(more.into_iter().map(|access| FusedAccess {
            pos: access.pos + len as u16,
            ..access
        }));
        if (cut, stop) != (body, FuseStop::RunEnd) {
            return (len + cut, stop, accesses);
        }
        len += body;
    }
}

// ---- machine states ----

/// Data addresses the registers point at: each `x` register its own
/// page and cache set, far from the text.
fn register_values() -> [u64; 32] {
    std::array::from_fn(|i| 0x9000_0000 + 0x1040 * i as u64)
}

/// One point of the state universe.
#[derive(Debug, Clone, Default)]
struct Shape {
    /// A register the scoreboard holds busy.
    busy: Option<RegSet>,
    /// A data line left out of the L1D.
    absent_dline: Option<u64>,
    /// A resident data line with a fill in flight.
    pending_dline: Option<u64>,
    /// An instruction line left out of the L1I.
    absent_iline: Option<u64>,
    /// A register pointed into the text segment.
    into_text: Option<(XReg, u64)>,
}

struct Machine {
    hart: Hart,
    icache: Cache,
    dcache: Cache,
    scoreboard: Scoreboard,
    pending: AddrMap<RegSet>,
}

impl Machine {
    fn state(&self) -> ArmState<'_> {
        ArmState {
            hart: &self.hart,
            icache: &self.icache,
            dcache: &self.dcache,
            scoreboard: &self.scoreboard,
            pending_data: &self.pending,
        }
    }
}

/// What the run at a start slot touches, for the shapes to vary.
struct Footprint {
    /// Registers the static run names, one set each.
    regs: Vec<RegSet>,
    /// Instruction lines of the static run.
    ilines: Vec<u64>,
    /// Data lines of the static run's memory ops.
    dlines: Vec<u64>,
    /// `(base, offset)` of each store of the static run.
    stores: Vec<(XReg, i32)>,
    /// The static run's memory ops.
    mems: Vec<MemPlan>,
}

fn footprint(
    insts: &[Option<DecodedInst>],
    plans: &[(Class, u32)],
    start: usize,
    pc: u64,
    empty: &Machine,
) -> Footprint {
    let len = plans[start].1 as usize;
    let mut union = RegSet::new();
    let (mut ilines, mut dlines, mut stores, mut mems) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let regs = register_values();
    for (i, slot) in insts[start..start + len].iter().enumerate() {
        let entry = slot.as_ref().expect("run slot decoded");
        union.insert_all(&entry.uses);
        union.insert_all(&entry.defs);
        let iline = empty.icache.line_addr(pc + 4 * i as u64);
        if !ilines.contains(&iline) {
            ilines.push(iline);
        }
        if let Class::Mem(op) = plans[start + i].0 {
            let addr = regs[op.base.index()].wrapping_add(op.offset as i64 as u64);
            let dline = empty.dcache.line_addr(addr);
            if !dlines.contains(&dline) {
                dlines.push(dline);
            }
            if op.write {
                stores.push((op.base, op.offset));
            }
            mems.push(op);
        }
    }
    let mut one_each = Vec::new();
    for i in 0..32u8 {
        if union.x & (1 << i) != 0 {
            let mut set = RegSet::new();
            set.add_x(XReg::new(i).expect("x register"));
            one_each.push(set);
        }
        if union.f & (1 << i) != 0 {
            let mut set = RegSet::new();
            set.add_f(FReg::new(i).expect("f register"));
            one_each.push(set);
        }
    }
    Footprint {
        regs: one_each,
        ilines,
        dlines,
        stores,
        mems,
    }
}

/// The shapes tried at one start slot: the all-resident idle state,
/// each factor alone, and each pair of factors from different checks.
fn shapes(fp: &Footprint, text_base: u64) -> Vec<Shape> {
    let busy: Vec<Shape> = fp
        .regs
        .iter()
        .map(|&set| Shape {
            busy: Some(set),
            ..Shape::default()
        })
        .collect();
    let mut dline = Vec::new();
    for &line in &fp.dlines {
        dline.push(Shape {
            absent_dline: Some(line),
            ..Shape::default()
        });
        dline.push(Shape {
            pending_dline: Some(line),
            ..Shape::default()
        });
    }
    let iline: Vec<Shape> = fp
        .ilines
        .iter()
        .map(|&line| Shape {
            absent_iline: Some(line),
            ..Shape::default()
        })
        .collect();
    let text: Vec<Shape> = fp
        .stores
        .iter()
        .map(|&(base, offset)| Shape {
            into_text: Some((base, text_base.wrapping_sub(offset as i64 as u64))),
            ..Shape::default()
        })
        .collect();

    let groups = [&busy, &dline, &iline, &text];
    let mut all = vec![Shape::default()];
    for group in groups {
        all.extend(group.iter().cloned());
    }
    let merge = |a: &Shape, b: &Shape| Shape {
        busy: a.busy.or(b.busy),
        absent_dline: a.absent_dline.or(b.absent_dline),
        pending_dline: a.pending_dline.or(b.pending_dline),
        absent_iline: a.absent_iline.or(b.absent_iline),
        into_text: a.into_text.or(b.into_text),
    };
    for (i, first) in groups.iter().enumerate() {
        for second in &groups[i + 1..] {
            for a in *first {
                for b in *second {
                    all.push(merge(a, b));
                }
            }
        }
    }
    all
}

/// Builds the machine of `shape` from an empty one: every line of the
/// run resident unless the shape leaves it out.
fn build(empty: &Machine, pc: u64, fp: &Footprint, shape: &Shape) -> Machine {
    let mut hart = Hart::new(0, pc, 128);
    let mut regs = register_values();
    if let Some((reg, value)) = shape.into_text {
        regs[reg.index()] = value;
    }
    for (i, &value) in regs.iter().enumerate().skip(1) {
        hart.set_x(XReg::new(i as u8).expect("x register"), value);
    }
    let mut icache = empty.icache.clone();
    for &line in &fp.ilines {
        if shape.absent_iline != Some(line) {
            icache.access(line, false);
        }
    }
    // The lines at the addresses the registers give now (a base aimed
    // into the text moves its ops' lines).
    let mut dcache = empty.dcache.clone();
    for op in &fp.mems {
        let line = dcache.line_addr(hart.x(op.base).wrapping_add(op.offset as i64 as u64));
        if shape.absent_dline != Some(line) {
            dcache.access(line, false);
        }
    }
    let mut scoreboard = Scoreboard::new();
    if let Some(set) = shape.busy {
        scoreboard.acquire(&set);
    }
    let mut pending = AddrMap::default();
    if let Some(line) = shape.pending_dline {
        pending.insert(line, RegSet::new());
    }
    Machine {
        hart,
        icache,
        dcache,
        scoreboard,
        pending,
    }
}

fn empty_machine() -> Machine {
    Machine {
        hart: Hart::new(0, 0, 128),
        icache: Cache::new(CacheConfig::default_l1i()),
        dcache: Cache::new(CacheConfig::default_l1d()),
        scoreboard: Scoreboard::new(),
        pending: AddrMap::default(),
    }
}

#[test]
fn the_table_arm_equals_the_plan_walking_arm_in_every_state() {
    let empty = empty_machine();
    let mut run = ArmedRun::default();
    let (mut starts, mut states, mut armed, mut stops) = (0u64, 0u64, 0u64, [0u64; 7]);
    for (name, program) in programs() {
        let text = DecodedText::from_program(&program);
        let insts = predecode(program.text());
        let plans = plans(&insts);
        let base = program.text_base();
        for start in 0..insts.len() {
            starts += 1;
            let pc = base + 4 * start as u64;
            let fp = footprint(&insts, &plans, start, pc, &empty);
            for shape in shapes(&fp, base) {
                states += 1;
                let machine = build(&empty, pc, &fp, &shape);
                let state = machine.state();
                let first = reference_arm(&insts, &plans, &text, &state);
                let want = executing_reference(&insts, &plans, &text, &state, first);
                state.validate(&text, &mut run);
                let got = (run.len, run.stop, run.accesses.clone());
                assert_eq!(got, want, "{name}: slot {start} ({pc:#x}) in {shape:?}");
                armed += u64::from(run.len > 0);
                stops[run.stop as usize] += 1;
            }
        }
    }
    // The universe reaches every reason an arm can stop for.
    for stop in FuseStop::ALL {
        if stop != FuseStop::BaseWritten {
            assert!(stops[stop as usize] > 0, "no state stopped at {stop:?}");
        }
    }
    assert!(
        armed > 0 && starts > 1_000 && states > 10 * starts,
        "{starts} slots, {states} states, {armed} armed"
    );
}

/// The data lines each iteration of the loop at `hart`'s pc touches, by
/// execution, for as many iterations as a run may hold or the loop runs.
fn iteration_lines(text: &DecodedText, start: usize, hart: &Hart, dcache: &Cache) -> Vec<Vec<u64>> {
    let row = text.runs().run(start).expect("row in range");
    let uops = &text.runs().uops()[row.uop as usize..][..row.len as usize];
    let (mut hart, mut mem) = (hart.clone(), SparseMemory::new());
    let head = hart.pc;
    let mut lines = Vec::new();
    while lines.len() < (MAX_LOOP_RUN / row.len) as usize {
        let iteration = uops
            .iter()
            .filter_map(|&uop| execute_scalar(&mut hart, &mut mem, uop).access)
            .map(|access| dcache.line_addr(access.addr))
            .collect();
        lines.push(iteration);
        if hart.pc != head {
            break;
        }
    }
    lines
}

#[test]
fn loop_heads_arm_as_their_executed_iterations() {
    let empty = empty_machine();
    let mut run = ArmedRun::default();
    let (mut heads, mut machines, mut longest, mut stops) = (0u64, 0u64, 0u32, [0u64; 7]);
    for (name, program) in programs() {
        let text = DecodedText::from_program(&program);
        let insts = predecode(program.text());
        let plans = plans(&insts);
        let base = program.text_base();
        for lp in text.runs().loop_rows() {
            heads += 1;
            let start = lp.slot as usize;
            let pc = base + 4 * start as u64;
            let fp = footprint(&insts, &plans, start, pc, &empty);
            let idle = build(&empty, pc, &fp, &Shape::default());
            // The registers as `build` sets them (trips past the cap),
            // with the back edge's operands five iterations apart, and
            // with each register stride a small one with low bits set.
            let mut short = idle.hart.clone();
            let mut small = idle.hart.clone();
            for &(_, by) in &lp.updates {
                if let Stride::Reg(q) = by {
                    small.set_x(q, 24);
                }
            }
            let (_, rs1, rs2) = lp.branch;
            let step = lp.updates.iter().find_map(|&(reg, by)| match by {
                Stride::Imm(imm) if reg == rs1 => Some(imm as u64),
                _ => None,
            });
            if let Some(step) = step {
                let trip = step.wrapping_mul(5);
                if rs2 == XReg::ZERO {
                    short.set_x(rs1, trip.wrapping_neg());
                } else if lp.updates.iter().all(|&(reg, _)| reg != rs2) {
                    short.set_x(rs2, short.x(rs1).wrapping_add(trip));
                }
            }
            for hart in [idle.hart.clone(), short, small] {
                let lines = iteration_lines(&text, start, &hart, &empty.dcache);
                let n = lines.len();
                // Every line resident; then one later iteration's last
                // line left out, or in flight.
                let mut variants = vec![(None, None)];
                for k in [1, 2, n / 2, n.saturating_sub(1)] {
                    if let Some(&line) = lines.get(k).filter(|_| k > 0).and_then(|l| l.last()) {
                        variants.extend([(Some(line), None), (None, Some(line))]);
                    }
                }
                for (absent, pending) in variants {
                    let mut machine = Machine {
                        hart: hart.clone(),
                        icache: idle.icache.clone(),
                        dcache: empty.dcache.clone(),
                        scoreboard: Scoreboard::new(),
                        pending: AddrMap::default(),
                    };
                    for &line in lines.iter().flatten() {
                        if Some(line) != absent {
                            machine.dcache.access(line, false);
                        }
                    }
                    if let Some(line) = pending {
                        machine.pending.insert(line, RegSet::new());
                    }
                    let state = machine.state();
                    let first = reference_arm(&insts, &plans, &text, &state);
                    let want = executing_reference(&insts, &plans, &text, &state, first);
                    state.validate(&text, &mut run);
                    let got = (run.len, run.stop, run.accesses.clone());
                    assert_eq!(got, want, "{name}: loop head {start} ({pc:#x}), absent {absent:x?}, pending {pending:x?}");
                    machines += 1;
                    longest = longest.max(run.len);
                    stops[run.stop as usize] += 1;
                }
            }
        }
    }
    // The loop heads reach runs past one body, the cap, and cuts in a
    // later iteration for each data-line reason.
    assert!(
        heads > 0 && machines > 4 * heads,
        "{heads} heads, {machines} machines"
    );
    assert!(longest > MAX_LOOP_RUN - MAX_RUN, "longest run {longest}");
    for stop in [
        FuseStop::RunEnd,
        FuseStop::LineNotResident,
        FuseStop::PendingFill,
    ] {
        assert!(stops[stop as usize] > 0, "no loop arm stopped at {stop:?}");
    }
}

/// The slots the byte range `[addr, addr + len)` touches.
fn touched(base: u64, words: usize, addr: u64, len: u64) -> std::ops::Range<usize> {
    let end = base + 4 * words as u64;
    let (lo, hi) = (addr.max(base), addr.saturating_add(len).min(end));
    if len == 0 || lo >= hi {
        return 0..0;
    }
    ((lo - base) / 4) as usize..((hi - 1 - base) / 4) as usize + 1
}

/// Asserts the table of `text` is the one built from scratch over
/// `insts`, and that its run lengths are the reference's.
fn assert_rebuilt(text: &DecodedText, insts: &[Option<DecodedInst>], what: &str) {
    assert!(text.runs() == &build_plans(insts), "{what}");
    let lens: Vec<u32> = text.runs().runs().iter().map(|run| run.len).collect();
    let want: Vec<u32> = plans(insts).iter().map(|plan| plan.1).collect();
    assert_eq!(lens, want, "{what}");
}

#[test]
fn invalidation_leaves_the_table_built_from_scratch() {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        // xorshift64*
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for (name, program) in programs() {
        let fresh = DecodedText::from_program(&program);
        let insts = predecode(program.text());
        let base = program.text_base();
        for word in 0..insts.len() {
            let mut text = fresh.clone();
            text.invalidate(base + 4 * word as u64, 4);
            let mut patched = insts.clone();
            patched[word] = None;
            assert_rebuilt(&text, &patched, &format!("{name}: word {word}"));
        }

        // Seeded ranges, unaligned and straddling either end of the
        // text, accumulating holes on one text.
        let (mut text, mut patched) = (fresh.clone(), insts.clone());
        let span = 4 * insts.len() as u64 + 16;
        for round in 0..200 {
            let addr = (base - 8).wrapping_add(next() % span);
            let len = next() % 13;
            text.invalidate(addr, len);
            for slot in &mut patched[touched(base, insts.len(), addr, len)] {
                *slot = None;
            }
            assert_rebuilt(
                &text,
                &patched,
                &format!("{name}: round {round}, {len} bytes at {addr:#x}"),
            );
        }
    }
}
