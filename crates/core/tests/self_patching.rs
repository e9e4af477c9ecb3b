//! Regression: stores into the text segment must invalidate the
//! predecoded `DecodedText` entries (and abort any fused superblock
//! run containing them). The table is built once at load; before the
//! invalidation hook a self-patching kernel silently kept executing
//! the stale micro-op. The kernel below runs a hot loop (fusable:
//! straight-line, cache-resident), patches the loop body's `addi`
//! in place, and re-runs it — the exit code proves which semantics
//! executed.

use coyote::{host_profile_json, FlightKind, JsonValue, ProfMode, Report, SimConfig, Simulation};

/// Ten iterations of `addi a0, a0, 1`, then the word is patched to
/// `addi a0, a0, 2` (0x0025_0513) and the loop runs ten more times:
/// a0 = 10 * 1 + 10 * 2 = 30 iff the patch takes effect.
const SELF_PATCHING: &str = "
    .text
    _start:
        li s1, 2            # phases remaining
        li a0, 0
    restart:
        li s0, 10           # iterations per phase
    patchme:
        addi a0, a0, 1      # patched to `addi a0, a0, 2` for phase 2
        addi s0, s0, -1
        bnez s0, patchme
        addi s1, s1, -1
        beqz s1, done
        la t0, patchme
        li t1, 0x00250513   # addi a0, a0, 2
        sw t1, 0(t0)
        j restart
    done:
        li a7, 93
        ecall";

/// Runs the kernel to completion under the counter-clock host profiler
/// (which `equivalence.rs` proves changes no simulated state).
fn run(oracle: bool, fusion: bool) -> (Simulation, Report) {
    let program = coyote_asm::assemble(SELF_PATCHING).expect("assemble");
    let config = SimConfig::builder()
        .cores(1)
        .oracle(oracle)
        .fusion(fusion)
        .profiling(ProfMode::Counter)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let report = sim.run().expect("run completes");
    (sim, report)
}

fn exits(report: &Report) -> Vec<i64> {
    report.exit_codes().expect("all harts exited")
}

#[test]
fn patched_instruction_reexecutes_with_new_semantics_under_oracle() {
    // The oracle steps a functional twin in lockstep; a stale decode
    // on either side diverges and fails the run outright.
    let (_, report) = run(true, true);
    assert_eq!(
        exits(&report),
        vec![30],
        "patched addi must add 2 in phase 2"
    );
    // The oracle pins every window to one cycle, and a plain cycle
    // never fuses, so fusion being on retires nothing fused.
    assert_eq!(
        report.block_hit_rate(),
        0.0,
        "a one-cycle window retired through the fused path"
    );
}

#[test]
fn fused_runs_see_the_patch_and_match_per_instruction_stepping() {
    // Fusion on: the hot loop retires through validated superblock
    // runs, so the store must re-derive the static runs that reach the
    // patched slot, abort the armed run, and force a fresh arm.
    let (fused, fused_report) = run(false, true);
    assert_eq!(exits(&fused_report), vec![30]);
    assert!(
        fused_report.block_hit_rate() > 0.0,
        "the hot loop must actually exercise the fused path"
    );
    // Fusion off: the reference per-instruction schedule.
    let (plain, plain_report) = run(false, false);
    assert_eq!(exits(&plain_report), vec![30]);
    assert_eq!(
        plain_report.block_hit_rate(),
        0.0,
        "fusion off must not fuse"
    );
    assert_eq!(
        fused.determinism_digest(),
        plain.determinism_digest(),
        "fused execution diverged from per-instruction stepping"
    );
    // A store into text is reported where it happens: a flight event
    // and a `text_invalidation` window abort.
    assert!(
        fused
            .flight()
            .tail()
            .iter()
            .any(|e| matches!(e.kind, FlightKind::TextInvalidate { .. })),
        "no text_invalidate flight event: {:?}",
        fused.flight().tail_lines(8)
    );
    let aborts = host_profile_json(&fused);
    let aborts = aborts.get("abort_reasons").expect("abort taxonomy");
    assert!(aborts.get("text_invalidation").and_then(JsonValue::as_u64) >= Some(1));
}
