//! What the assembler emits, pinned: every pseudo-instruction in each of
//! its operand shapes, every `examples/asm/*.s` program and every kernel
//! workload at its `end_to_end.rs` size assemble to the text words whose
//! count and digest were recorded from the hand-written expansions the
//! pseudo-instruction table replaced.

use coyote_asm::assemble;
use coyote_asm::expand::PSEUDO;
use coyote_kernels::workload::Workload;
use coyote_kernels::{
    FftRadix2, MatmulScalar, MatmulVector, MlpInference, SpmvScalar, SpmvVectorAdaptive,
    SpmvVectorCsr, SpmvVectorEll, StencilVector, ThresholdFilter,
};

/// Text words assembled by [`every_program`], recorded at aee8b4d.
const WORDS: u64 = 1_384;
/// FNV-1a-64 over those words (little-endian), recorded at aee8b4d.
const DIGEST: u64 = 0x8162_f975_7a90_b3ba;

/// Each pseudo-instruction in each of its operand shapes: a branch or
/// jump target as a label behind, a label ahead and a literal offset, a
/// CSR by name and by number. `li`, `la` and `call` close the list.
const PSEUDO_STATEMENTS: &[&str] = &[
    "nop",
    "mv a0, a1",
    "not a0, a1",
    "neg a0, a1",
    "negw a0, a1",
    "sext.w a0, a1",
    "seqz a0, a1",
    "snez a0, a1",
    "sltz a0, a1",
    "sgtz a0, a1",
    "beqz a0, back",
    "bnez a0, ahead",
    "blez a0, -8",
    "bgez a0, back",
    "bltz a0, ahead",
    "bgtz a0, 12",
    "bgt a0, a1, back",
    "ble a0, a1, ahead",
    "bgtu a0, a1, -16",
    "bleu a0, a1, back",
    "j back",
    "j ahead",
    "j 2048",
    "jr a0",
    "ret",
    "csrr a0, mhartid",
    "csrr a0, 0xc02",
    "csrw mscratch, a0",
    "csrw 0x340, t1",
    "fmv.d fa0, fa1",
    "fneg.d fa0, fa1",
    "fabs.d fa0, fa1",
    "li a0, -2048",
    "li a0, 0x12345",
    "li a0, 0x123456789abcdef0",
    "la a0, value",
    "call back",
];

fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
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
    ]
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The text section of every program the test assembles, in order.
fn every_program() -> Vec<Vec<u32>> {
    let mut texts = Vec::new();
    let body: String = PSEUDO_STATEMENTS
        .iter()
        .map(|s| format!(" {s}\n"))
        .collect();
    let pseudo = format!(".data\nvalue: .dword 1\n.text\n_start:\nback:\n{body}ahead:\n ecall\n");
    texts.push(
        assemble(&pseudo)
            .expect("pseudo-instructions assemble")
            .text()
            .to_vec(),
    );

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/asm");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/asm exists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "s"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "examples/asm: {paths:?}");
    for path in paths {
        let source = std::fs::read_to_string(&path).expect("example reads");
        let program = assemble(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        texts.push(program.text().to_vec());
    }

    for workload in workloads() {
        for harts in [1, 8] {
            let program = workload
                .program(harts)
                .unwrap_or_else(|e| panic!("{} at {harts} harts: {e}", workload.name()));
            texts.push(program.text().to_vec());
        }
    }
    texts
}

#[test]
fn assembler_output_is_as_recorded() {
    let mut words = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for text in every_program() {
        words += text.len() as u64;
        for word in text {
            fnv1a(&mut digest, &word.to_le_bytes());
        }
    }
    assert_eq!(words, WORDS, "the number of emitted words changed");
    assert_eq!(digest, DIGEST, "an emitted word changed");
}

/// Every row of the pseudo-instruction table is among the statements the
/// digest covers.
#[test]
fn every_pseudo_instruction_is_pinned() {
    let mnemonic = |s: &&str| s.split(' ').next().unwrap_or_default().to_owned();
    let pinned: Vec<String> = PSEUDO_STATEMENTS.iter().map(mnemonic).collect();
    let missing: Vec<_> = PSEUDO
        .iter()
        .filter(|p| !pinned.iter().any(|m| m == p.name))
        .map(|p| p.name)
        .collect();
    assert!(missing.is_empty(), "not in PSEUDO_STATEMENTS: {missing:?}");
}
