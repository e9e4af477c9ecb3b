//! `Core::step_block` against `Core::step`, with no orchestrator in
//! between: the two routines that call `exec::execute` must leave a core
//! in the same state however a validated run is cut into chunks.
//!
//! The reference is a fusion-off core retiring every instruction through
//! the per-instruction body of `Core::step`. The subject is a fusion-on
//! core whose runs are armed with `Core::ensure_fused_run` and retired
//! with `Core::step_block(k)` — one instruction at a time, the whole run
//! at once, and split in two at every position. Both sit under an ideal
//! hierarchy: every miss is answered in the cycle it is raised.

use coyote_iss::{Core, CoreConfig, CoreState, DecodedText, SparseMemory};

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
/// fusion off, `Core::step` only.
fn run(src: &str, cut: Option<Cut>) -> (Core, SparseMemory) {
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
    let mut cycle = 0u64;
    while !matches!(core.state(), CoreState::Halted(_)) {
        assert_eq!(core.state(), CoreState::Active, "fills arrive at once");
        assert!(cycle < 100_000, "program did not halt");
        cycle += 1;
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
        for miss in misses.drain(..) {
            core.complete_fill(miss.line_addr, miss.kind, cycle);
        }
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

#[test]
fn step_block_matches_step_however_the_run_is_cut() {
    for (name, src) in [("walk", WALK), ("lru", LRU)] {
        let (reference, reference_mem) = run(src, None);
        assert_eq!(reference.fused_retired(), 0, "{name}: reference fused");
        let mut cuts = vec![Cut::Single, Cut::Whole];
        // Runs are at most a loop body long; `at` past the longest run
        // degenerates to `Whole`, so 1..16 covers every split of every
        // run.
        cuts.extend((1..16).map(|at| Cut::Split { at }));
        for cut in cuts {
            let (fused, fused_mem) = run(src, Some(cut));
            assert!(
                fused.fused_retired() * 2 > reference.stats().retired,
                "{name} {cut:?}: only {} instructions took the block path",
                fused.fused_retired()
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
    let l1d = run(LRU, None).0.dcache_stats();
    assert_eq!((l1d.misses, l1d.writebacks), (9, 0), "{l1d:?}");
}
