//! `Core::step_block` against `Core::step`, with no orchestrator in
//! between: the two routines that call `exec::execute` must leave a core
//! in the same state however a validated run is cut into chunks.
//!
//! The reference is a fusion-off core retiring every instruction through
//! the per-instruction body of `Core::step`. The subject is a fusion-on
//! core whose runs are armed with `Core::ensure_fused_run` and retired
//! with `Core::step_block(k)` — one instruction at a time, the whole run
//! at once, and split in two at every position. Both sit under the same
//! hierarchy stand-in: every miss is answered a fixed number of cycles
//! after it is raised (0 = an ideal hierarchy).

use std::collections::VecDeque;

use coyote_iss::{
    Core, CoreConfig, CoreState, DecodedText, FuseDiag, FuseStop, MissRequest, SparseMemory,
};

/// Everything the orchestrator, the report and the digest can see of a
/// core after it halted, as named renderings (a mismatch names its
/// field instead of dumping the vector register file).
fn outcome(core: &Core, mem: &SparseMemory) -> Vec<(&'static str, String)> {
    vec![
        ("state", format!("{:?}", core.state())),
        ("stats", format!("{:?}", core.stats())),
        ("l1i", format!("{:?}", core.icache_stats())),
        ("l1d", format!("{:?}", core.dcache_stats())),
        ("memory", format!("{:#x}", mem.digest())),
        ("hart", format!("{:?}", core.hart())),
    ]
}

/// How the fused driver cuts an armed run of `len` instructions.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// `len` chunks of one instruction.
    Single,
    /// One chunk.
    Whole,
    /// Two chunks, `at` and `len - at` (one chunk when `at >= len`).
    Split { at: u32 },
}

/// Runs `src` to its exit ecall. `cut` = `None` is the reference:
/// fusion off, `Core::step` only. A miss raised at cycle `c` is filled
/// at `c + fill_delay`; a chunk of `k` instructions occupies `k` cycles
/// exactly as `k` steps do, so stall accounting is comparable.
fn run(src: &str, cut: Option<Cut>, fill_delay: u64) -> (Core, SparseMemory) {
    let program = coyote_asm::assemble(src).expect("assemble");
    let mut mem = SparseMemory::new();
    mem.load_program(&program);
    let text = DecodedText::from_program(&program);
    let config = CoreConfig {
        fusion: cut.is_some(),
        ..CoreConfig::default()
    };
    let mut core = Core::new(0, program.entry(), &config);
    let mut misses = Vec::new();
    // (due cycle, miss), in the order raised — which is due order.
    let mut fills: VecDeque<(u64, MissRequest)> = VecDeque::new();
    let mut cycle = 1u64;
    while !matches!(core.state(), CoreState::Halted(_)) {
        assert!(cycle < 1_000_000, "program did not halt");
        // A stalled core sleeps until its next fill. (A fill falling
        // due inside a chunk is delivered after it: the run was armed
        // without the registers and lines that fill releases.)
        if core.state() != CoreState::Active {
            cycle = cycle.max(fills.front().expect("stalled with no fill in flight").0);
        }
        while fills.front().is_some_and(|&(due, _)| due <= cycle) {
            let (due, miss) = fills.pop_front().expect("front");
            core.complete_fill(miss.line_addr, miss.kind, due);
        }
        if core.state() != CoreState::Active {
            continue;
        }
        let armed = cut.map_or(0, |_| core.ensure_fused_run(&text));
        if armed > 0 {
            let chunks = match cut.expect("armed only when fused") {
                Cut::Single => vec![1; armed as usize],
                Cut::Whole => vec![armed],
                Cut::Split { at } if at < armed => vec![at, armed - at],
                Cut::Split { .. } => vec![armed],
            };
            for k in chunks {
                core.step_block(&mut mem, &text, cycle, k)
                    .expect("validated run executes");
                cycle += u64::from(k);
            }
            continue;
        }
        core.step(&mut mem, &text, cycle, &mut misses)
            .expect("step executes");
        fills.extend(misses.drain(..).map(|miss| (cycle + fill_delay, miss)));
        cycle += 1;
    }
    (core, mem)
}

/// Strided read-modify-write walk with a call in the loop: misses,
/// dirty evictions, taken branches and runs that end at `jal`/`ret`.
const WALK: &str = "
    .data
    buf: .zero 65536
    .text
    _start:
        la s0, buf
        li s1, 96
        li s2, 0
    loop:
        ld t0, 0(s0)
        add t0, t0, s1
        sd t0, 0(s0)
        ld t1, 8(s0)
        add s2, s2, t1
        jal ra, bump
        addi s0, s0, 584
        addi s1, s1, -1
        bnez s1, loop
        mv a0, s2
        li a7, 93
        ecall
    bump:
        addi s2, s2, 3
        sd s2, 16(s0)
        ret";

/// LRU order inside one L1D set decides the outcome. Eight lines
/// 4 KiB apart fill one set of the default 32 KiB 8-way L1D; a fusable
/// loop then re-touches (and dirties) line 0, making it most recently
/// used; a ninth line evicts the least recently used way; line 0 is
/// read again. With every touch applied that last read hits and line 1
/// was the victim; a `step_block` that skipped the D-cache LRU update
/// would evict dirty line 0 instead (one more miss, one writeback).
const LRU: &str = "
    .data
    buf: .zero 40960
    .text
    _start:
        la s0, buf
        li t3, 4096
        li t0, 8
        mv t1, s0
    fill:
        ld t2, 0(t1)
        add t1, t1, t3
        addi t0, t0, -1
        bnez t0, fill
        li t0, 6
    hot:
        ld t2, 0(s0)
        addi t2, t2, 1
        sd t2, 8(s0)
        addi t0, t0, -1
        bnez t0, hot
        ld t4, 0(t1)
        ld t5, 8(s0)
        mv a0, t5
        li a7, 93
        ecall";

/// Two runs alternate: a forward branch (not taken until the last
/// iteration) splits the loop body, so the core arms `ld … beqz` and
/// `addi … bnez` in turn and never the same PC twice in a row.
const ALTERNATING: &str = "
    .data
    buf: .zero 64
    .text
    _start:
        la s0, buf
        li s1, 200
    loop:
        ld t0, 0(s0)
        addi t0, t0, 1
        sd t0, 0(s0)
        beqz s1, skip
        addi s2, s2, 1
    skip:
        addi s1, s1, -1
        addi s3, s3, 2
        bnez s1, loop
        mv a0, s2
        li a7, 93
        ecall";

/// Arms attempted while a load miss is in flight (run with a fill
/// delay). Each loop's `ld t0` misses a fresh line; the run after it
/// meets the busy scoreboard at position 2 (`use2`: arms two
/// instructions), at position 1 (`use1`: too short, per-instruction)
/// or a second load to the in-flight line at position 2 (`same_line`).
const IN_FLIGHT: &str = "
    .data
    buf: .zero 16384
    .text
    _start:
        la s0, buf
        li s1, 40
    use2:
        ld t0, 0(s0)
        addi s2, s2, 1
        addi s3, s3, 2
        add s4, s4, t0
        addi s0, s0, 64
        addi s1, s1, -1
        bnez s1, use2
        li s1, 40
    use1:
        ld t0, 0(s0)
        addi s2, s2, 1
        add s4, s4, t0
        addi s0, s0, 64
        addi s1, s1, -1
        bnez s1, use1
        li s1, 40
    same_line:
        ld t0, 0(s0)
        addi s2, s2, 1
        addi s3, s3, 2
        ld t1, 8(s0)
        addi s0, s0, 64
        addi s1, s1, -1
        bnez s1, same_line
        add a0, s4, t1
        li a7, 93
        ecall";

/// What the static plan cuts: a straight line longer than `MAX_RUN`
/// (`body` is 150 instructions and a load), and a loop whose load's
/// base register is written by the instruction before it.
fn static_cuts() -> String {
    format!(
        "
    .data
    buf: .zero 4096
    .text
    _start:
        la s0, buf
        li s1, 3
    body:
        {}
        ld t0, 0(s0)
        addi s1, s1, -1
        bnez s1, body
        li s1, 50
    bump:
        addi s0, s0, 8
        ld t0, 0(s0)
        add s2, s2, t0
        addi s1, s1, -1
        bnez s1, bump
        mv a0, s2
        li a7, 93
        ecall",
        "addi s2, s2, 1\n        ".repeat(150)
    )
}

#[test]
fn step_block_matches_step_however_the_run_is_cut() {
    // (name, program, fill delay, what the fused core's arm tallies
    // must show for the program to be exercising what it is here for).
    type Premise = fn(&FuseDiag) -> bool;
    let programs: [(&str, String, u64, Premise); 5] = [
        ("walk", WALK.into(), 0, |_| true),
        ("lru", LRU.into(), 0, |_| true),
        ("alternating", ALTERNATING.into(), 0, |diag| {
            // Both runs are four long.
            diag.run_len_counts[4] >= 2 * 199
        }),
        ("in-flight", IN_FLIGHT.into(), 30, |diag| {
            diag.run_len_counts[2] >= 80
                && diag.stops[FuseStop::ScoreboardBusy as usize] >= 120
                && diag.stops[FuseStop::PendingFill as usize] >= 40
        }),
        ("static-cuts", static_cuts(), 0, |diag| {
            // Warm iterations of `body` arm 64 + 64 + the rest; `bump`
            // arms `ld … bnez` whenever the load's line is resident and
            // never the `addi s0` before it.
            diag.run_len_counts[64] >= 4
                && diag.run_len_counts[4] >= 40
                && diag.stops[FuseStop::TooShort as usize] >= 50
        }),
    ];
    for (name, src, fill_delay, premise) in programs {
        let (reference, reference_mem) = run(&src, None, fill_delay);
        assert_eq!(reference.fused_retired(), 0, "{name}: reference fused");
        let mut cuts = vec![Cut::Single, Cut::Whole];
        // No run is longer than MAX_RUN = 64; `at` past a run's length
        // degenerates to `Whole`, so this covers every split of every
        // run.
        cuts.extend((1..64).map(|at| Cut::Split { at }));
        for cut in cuts {
            let (fused, fused_mem) = run(&src, Some(cut), fill_delay);
            assert!(
                fused.fused_retired() * 2 > reference.stats().retired,
                "{name} {cut:?}: only {} instructions took the block path",
                fused.fused_retired()
            );
            assert!(
                premise(fused.fuse_diag()),
                "{name} {cut:?}: {:?}",
                fused.fuse_diag()
            );
            for (got, want) in outcome(&fused, &fused_mem)
                .iter()
                .zip(&outcome(&reference, &reference_mem))
            {
                assert_eq!(got, want, "{name} {cut:?}");
            }
        }
    }
}

#[test]
fn the_lru_program_hits_line_zero_after_the_eviction() {
    // Pins the premise of `LRU`: exactly nine lines are ever missed
    // (eight fills, the ninth line, nothing else) and the one dirty
    // line is never evicted. If this drifts (cache geometry, data
    // base), the program no longer discriminates LRU order.
    let l1d = run(LRU, None, 0).0.dcache_stats();
    assert_eq!((l1d.misses, l1d.writebacks), (9, 0), "{l1d:?}");
}
