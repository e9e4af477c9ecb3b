//! Structural property tests for the assembler:
//!
//! * branch/jump offsets computed through the two-pass layout always
//!   land exactly on the labelled instruction, for random control-flow
//!   graphs;
//! * arbitrary garbage input produces an error (never a panic);
//! * `.equ`-driven layouts match direct numeric layouts.

use coyote_asm::assembler::MAX_DATA_BYTES;
use coyote_asm::Assembler;
use coyote_isa::decode::decode;
use coyote_isa::inst::Inst;
use proptest::prelude::*;

/// A random program of `blocks` labelled blocks, each with `pad`
/// fixed-length filler instructions followed by a control transfer to a
/// random block.
#[derive(Debug, Clone)]
struct Cfg {
    /// For each block: (filler instruction count, target block, kind).
    blocks: Vec<(usize, usize, Transfer)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Transfer {
    Jump,
    BranchEq,
    BranchLt,
}

fn cfg_strategy() -> impl Strategy<Value = Cfg> {
    (2usize..10)
        .prop_flat_map(|n| {
            prop::collection::vec(
                (
                    0usize..6,
                    0..n,
                    prop_oneof![
                        Just(Transfer::Jump),
                        Just(Transfer::BranchEq),
                        Just(Transfer::BranchLt)
                    ],
                ),
                n,
            )
        })
        .prop_map(|blocks| Cfg { blocks })
}

fn render(cfg: &Cfg) -> String {
    let mut src = String::from("_start:\n");
    for (index, (pad, target, kind)) in cfg.blocks.iter().enumerate() {
        src.push_str(&format!("block{index}:\n"));
        for _ in 0..*pad {
            src.push_str("    addi t0, t0, 1\n");
        }
        match kind {
            Transfer::Jump => src.push_str(&format!("    j block{target}\n")),
            Transfer::BranchEq => src.push_str(&format!("    beq a0, a1, block{target}\n")),
            Transfer::BranchLt => src.push_str(&format!("    blt a0, a1, block{target}\n")),
        }
    }
    src.push_str("    li a0, 0\n    li a7, 93\n    ecall\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Every control transfer's decoded PC-relative offset points
    /// exactly at the labelled block.
    #[test]
    fn control_transfers_hit_their_labels(cfg in cfg_strategy()) {
        let src = render(&cfg);
        let program = Assembler::new().assemble(&src).expect("valid program");
        // Walk the text; for each block in order, skip `pad` fillers and
        // check the transfer.
        let base = program.text_base();
        let mut pc = base;
        for (index, (pad, target, kind)) in cfg.blocks.iter().enumerate() {
            let block_addr = program.symbol(&format!("block{index}")).expect("label");
            prop_assert_eq!(block_addr, pc, "block {} address", index);
            pc += 4 * *pad as u64;
            let word = program.text()[((pc - base) / 4) as usize];
            let inst = decode(word).expect("decodes");
            let target_addr = program.symbol(&format!("block{target}")).expect("target");
            match (kind, inst) {
                (Transfer::Jump, Inst::Jal { offset, .. }) => {
                    prop_assert_eq!(pc.wrapping_add(offset as i64 as u64), target_addr);
                }
                (Transfer::BranchEq | Transfer::BranchLt, Inst::Branch { offset, .. }) => {
                    prop_assert_eq!(pc.wrapping_add(offset as i64 as u64), target_addr);
                }
                (k, other) => prop_assert!(false, "expected {k:?}, decoded {other:?}"),
            }
            pc += 4;
        }
    }

    /// The assembler returns errors, never panics, on arbitrary text.
    #[test]
    fn never_panics_on_garbage(source in "\\PC{0,400}") {
        let _ = Assembler::new().assemble(&source);
    }

    /// Lines of almost-plausible tokens are handled gracefully too.
    #[test]
    fn never_panics_on_token_soup(
        lines in prop::collection::vec(
            prop_oneof![
                Just(".data".to_owned()),
                Just(".text".to_owned()),
                Just("label:".to_owned()),
                Just("add a0, a1".to_owned()),       // missing operand
                Just("ld a0, (nope)".to_owned()),    // bad base
                Just("vsetvli t0, a0, e99".to_owned()),
                Just(".word".to_owned()),
                Just(".align -1".to_owned()),
                Just("j nowhere".to_owned()),
                Just("addi t0, t0, 99999".to_owned()),
                Just("nop".to_owned()),
            ],
            0..20,
        )
    ) {
        let source = lines.join("\n");
        let _ = Assembler::new().assemble(&source);
    }
}

#[test]
fn equ_and_numeric_layouts_agree() {
    let with_equ = Assembler::new()
        .assemble(
            ".equ SIZE, 128
             .data
             buf: .zero SIZE
             tail: .dword 1
             .text
             _start:
                li t0, SIZE
                ecall",
        )
        .unwrap();
    let numeric = Assembler::new()
        .assemble(
            ".data
             buf: .zero 128
             tail: .dword 1
             .text
             _start:
                li t0, 128
                ecall",
        )
        .unwrap();
    assert_eq!(with_equ.text(), numeric.text());
    assert_eq!(with_equ.symbol("tail"), numeric.symbol("tail"));
}

/// A `.zero`/`.space`/`.skip` count is bounded and overflow-checked
/// during layout, before anything is allocated for it.
#[test]
fn zero_counts_are_bounded_before_allocation() {
    let max = MAX_DATA_BYTES;
    let half = max / 2 + 1;
    for (source, line) in [
        (".data\n.zero 0x7fffffffffffffff\n".to_owned(), 2),
        (
            ".data\nx: .space 0x7fffffffffffffff\n.skip 0x7fffffffffffffff\n".to_owned(),
            2,
        ),
        (format!(".data\n.zero {half}\n.zero {half}\n"), 3),
        (format!(".data\n.dword 1\n.zero {max}\n"), 3),
    ] {
        let err = Assembler::new().assemble(&source).unwrap_err();
        assert_eq!(err.line, line, "{source:?}: {err}");
        assert!(err.message.contains("data image"), "{err}");
    }
    // A count that wraps the address space is an error too, not a wrap.
    let top = Assembler::new().data_base(u64::MAX - 8);
    assert_eq!(top.assemble(".data\n.zero 16\n").unwrap_err().line, 2);
    // The bound itself is accepted.
    let full = Assembler::new().assemble(&format!(".data\n.zero {max}\n"));
    assert_eq!(full.unwrap().data().len() as u64, max);
}
