//! Per-line miss bookkeeping of one vector load.
//!
//! A vector load that touches lines A and B sends one request per line,
//! waits on both, and its destination stays pending until the *last*
//! of them is filled. These rows pin that for a unit-stride load over
//! two lines and for gathers whose elements touch lines A, A, B and
//! A, B, A: a repeat of the line just touched and a return to a line
//! touched earlier must both leave the bookkeeping as if each line had
//! been seen once. A last row pins that a fill landing on a core that
//! is still active lets its next arm attempt see the line arrive.

use coyote_asm::assemble;
use coyote_iss::{
    Core, CoreConfig, CoreState, DecodedText, FuseStop, MissKind, MissRequest, SparseMemory,
    StepEvent,
};

/// Runs `body` (which must define the label `probe` on the vector load
/// and follow it with an instruction that reads `v2`), completing every
/// fill at once, up to `probe`. Steps the load, then the dependent.
/// Returns the load's data misses and the core, stalled on `v2`.
fn stall_after_probe(body: &str) -> (Vec<MissRequest>, Core, u64, u64) {
    let src = format!(
        ".data
         buf: .zero 256
         idx_aab: .dword 0, 8, 64
         idx_aba: .dword 0, 64, 8
         .text
         _start:
            la t0, buf
            {body}
            li a7, 93
            li a0, 0
            ecall"
    );
    let program = assemble(&src).expect("assemble");
    let mut mem = SparseMemory::new();
    mem.load_program(&program);
    let text = DecodedText::from_program(&program);
    let mut core = Core::new(0, program.entry(), &CoreConfig::default());
    let probe = program.symbol("probe").expect("probe label");
    let mut misses = Vec::new();
    let mut cycle = 0;

    // Everything before the probe: every fill lands at once.
    while core.hart().pc != probe {
        cycle += 1;
        core.step(&mut mem, &text, cycle, &mut misses)
            .expect("step");
        for miss in misses.drain(..) {
            core.complete_fill(miss.line_addr, miss.kind, cycle);
        }
        assert!(cycle < 1000, "never reached the probe");
    }
    assert_eq!(core.state(), CoreState::Active);
    assert!(core.waiting_lines().is_empty());

    // The probe: its data fills stay outstanding.
    let mut data = Vec::new();
    loop {
        cycle += 1;
        let event = core
            .step(&mut mem, &text, cycle, &mut misses)
            .expect("step");
        for miss in misses.drain(..) {
            if miss.kind == MissKind::Ifetch {
                core.complete_fill(miss.line_addr, miss.kind, cycle);
            } else {
                data.push(miss);
            }
        }
        if event == StepEvent::Retired {
            break;
        }
    }

    // The dependent stalls on `v2`.
    while core.state() != CoreState::StalledDep {
        cycle += 1;
        assert_eq!(
            core.state(),
            CoreState::Active,
            "the dependent ran past the load"
        );
        core.step(&mut mem, &text, cycle, &mut misses)
            .expect("step");
        for miss in misses.drain(..) {
            assert_eq!(miss.kind, MissKind::Ifetch);
            core.complete_fill(miss.line_addr, miss.kind, cycle);
        }
        assert!(cycle < 2000, "the dependent never stalled");
    }
    let buf = program.symbol("buf").expect("buf label");
    (data, core, probe, buf)
}

/// Checks one probe: requests for A then B, both lines waited on, and
/// the dependent wakes on the fill of B only after A's.
fn check(body: &str) {
    let (misses, mut core, probe, a) = stall_after_probe(body);
    let b = a + 64;
    let load = |line_addr| MissRequest {
        core: 0,
        line_addr,
        kind: MissKind::Load,
        pc: probe,
    };
    assert_eq!(misses, [load(a), load(b)], "{body}");
    assert_eq!(core.waiting_lines(), [a, b], "{body}");
    assert!(
        !core.complete_fill(a, MissKind::Load, 5000),
        "{body}: woke on A alone"
    );
    assert_eq!(core.state(), CoreState::StalledDep, "{body}");
    assert_eq!(core.waiting_lines(), [b], "{body}");
    assert!(
        core.complete_fill(b, MissKind::Load, 5001),
        "{body}: B must wake it"
    );
    assert_eq!(core.state(), CoreState::Active, "{body}");
    assert!(core.waiting_lines().is_empty(), "{body}");
}

#[test]
fn unit_stride_load_over_two_lines() {
    check(
        "vsetivli zero, 16, e64, m1, ta, ma
         probe: vle64.v v2, (t0)
         vadd.vv v3, v2, v2",
    );
}

#[test]
fn gather_over_lines_a_a_b() {
    check(
        "vsetivli zero, 3, e64, m1, ta, ma
         la t1, idx_aab
         vle64.v v1, (t1)
         probe: vluxei64.v v2, (t0), v1
         vadd.vv v3, v2, v2",
    );
}

#[test]
fn gather_over_lines_a_b_a() {
    check(
        "vsetivli zero, 3, e64, m1, ta, ma
         la t1, idx_aba
         vle64.v v1, (t1)
         probe: vluxei64.v v2, (t0), v1
         vadd.vv v3, v2, v2",
    );
}

/// A fill that lands on a still-active core changes what an arm reads
/// without a retirement, so it must clear the "arm failed at this retire
/// count" memo: here a store miss leaves its line in flight, the run
/// after it fails to arm on a load from that line, the fill lands, and
/// the next attempt at the same PC and retire count must arm.
#[test]
fn a_fill_between_a_failed_arm_and_the_next_lets_it_arm() {
    let program = assemble(
        ".data
         buf: .zero 128
         .text
         _start:
            la t0, buf
            sd zero, 0(t0)
         probe:
            addi t1, zero, 1
            ld t2, 8(t0)
            addi t3, t2, 1
            addi t4, zero, 2
            li a7, 93
            li a0, 0
            ecall",
    )
    .expect("assemble");
    let mut mem = SparseMemory::new();
    mem.load_program(&program);
    let text = DecodedText::from_program(&program);
    let mut core = Core::new(0, program.entry(), &CoreConfig::default());
    let probe = program.symbol("probe").expect("probe label");
    let mut misses = Vec::new();
    let mut store = None;
    let mut cycle = 0;
    while core.hart().pc != probe {
        cycle += 1;
        core.step(&mut mem, &text, cycle, &mut misses)
            .expect("step");
        for miss in misses.drain(..) {
            if miss.kind == MissKind::Store {
                store = Some(miss.line_addr);
            } else {
                core.complete_fill(miss.line_addr, miss.kind, cycle);
            }
        }
        assert!(cycle < 1000, "never reached the probe");
    }
    let line = store.expect("the store missed");
    assert_eq!(core.ensure_fused_run(&text), 0, "armed over a pending line");
    assert_eq!(core.fuse_diag().last_stop, FuseStop::PendingFill);
    let retired = core.stats().retired;

    assert!(!core.complete_fill(line, MissKind::Store, cycle + 1));
    assert_eq!(core.state(), CoreState::Active);
    assert_eq!(core.stats().retired, retired);
    assert_eq!(
        core.ensure_fused_run(&text),
        6,
        "the fill cleared the pending line, so the whole run arms"
    );
}
