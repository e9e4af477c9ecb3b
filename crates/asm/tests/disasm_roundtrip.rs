//! Exhaustive small-universe test of the three ISA representations
//! (word ↔ [`coyote_isa::Inst`] ↔ text), and of the operation tables
//! they are all derived from.
//!
//! The universe is structured, not sampled: every value of every field
//! that selects an operation, with the register fields that never do
//! held fixed. Its decodable count and a digest of every disassembly
//! and re-encoded word were recorded from the hand-written ladders the
//! tables replaced, so the accepted encoding set, every re-encoding and
//! every disassembly string are pinned to them.

use std::collections::BTreeSet;

use coyote_asm::expand::PSEUDO;
use coyote_asm::Assembler;
use coyote_isa::ops::{self, Row, Table, VF, VI, VV, VX};
use coyote_isa::{decode, encode, Inst};

/// Decodable words in [`sweep_words`], recorded at fee73df.
const DECODABLE: u64 = 1_565_780;
/// FNV-1a-64 over each decodable word's disassembly bytes followed by
/// its re-encoded word (little-endian), recorded at fee73df.
const DIGEST: u64 = 0x223a_b03c_9898_4529;

/// Every `(opcode, funct3, top7, f24_20)` × `rs1 ∈ {0, 1, 16, 17, 31}`
/// (the OPMVV unary operations are selected by that field) with
/// `rd = 5`, then `ecall`/`ebreak`, which are exact words with `rd = 0`.
fn sweep_words() -> impl Iterator<Item = u32> {
    let fields = (0..32u32).flat_map(|opcode| {
        (0..8u32).flat_map(move |funct3| {
            (0..128u32).flat_map(move |top7| {
                (0..32u32).flat_map(move |f24_20| {
                    [0u32, 1, 16, 17, 31].into_iter().map(move |rs1| {
                        top7 << 25
                            | f24_20 << 20
                            | rs1 << 15
                            | funct3 << 12
                            | 5 << 7
                            | opcode << 2
                            | 0b11
                    })
                })
            })
        })
    });
    fields.chain([0x0000_0073, 0x0010_0073])
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `disasm → assemble → decode` is the identity on `inst`.
fn assert_reassembles(inst: Inst, text: &str) {
    let program = Assembler::new()
        .assemble(&format!("_start:\n {text}\n"))
        .unwrap_or_else(|e| panic!("assembling `{text}`: {e}"));
    assert_eq!(program.text().len(), 1, "`{text}` expanded to several");
    assert_eq!(decode(program.text()[0]), Ok(inst), "through text `{text}`");
}

/// The name columns of a table row, with the operation type erased.
struct Stem {
    name: &'static str,
    forms: u8,
    imm: Option<&'static str>,
    alias: Option<&'static str>,
}

fn stems<T>(table: &Table<T>) -> impl Iterator<Item = Stem> {
    let erase = |r: &Row<T>| Stem {
        name: r.name,
        forms: r.forms,
        imm: r.imm,
        alias: r.alias,
    };
    table.0.iter().map(erase)
}

/// The rows whose `name` (and `imm`) are whole mnemonics.
fn plain_stems() -> Vec<Stem> {
    let mut all: Vec<Stem> = Vec::new();
    all.extend(stems(&ops::UPPER));
    all.extend(stems(&ops::SYSTEM));
    all.extend(stems(&ops::BRANCH));
    all.extend(stems(&ops::LOAD));
    all.extend(stems(&ops::STORE));
    all.extend(stems(&ops::ALU));
    all.extend(stems(&ops::ALU_W));
    all.extend(stems(&ops::CSR));
    all.extend(stems(&ops::FP));
    all.extend(stems(&ops::FMA));
    all.extend(stems(&ops::FP_CVT));
    all.extend(stems(&ops::VUNARY));
    all
}

/// The vector rows whose mnemonic is `name.form`.
fn vector_stems() -> impl Iterator<Item = Stem> {
    stems(&ops::VARITH)
}

/// Every mnemonic the tables describe: each form of each row.
fn table_mnemonics() -> BTreeSet<String> {
    let mut all = BTreeSet::new();
    for stem in plain_stems() {
        all.insert(stem.name.to_owned());
        all.extend(stem.imm.map(str::to_owned));
    }
    for stem in vector_stems() {
        for (form, suffix) in [(VV, "vv"), (VX, "vx"), (VI, "vi"), (VF, "vf")] {
            if stem.forms & form != 0 {
                all.insert(format!("{}.{suffix}", stem.name));
            }
        }
    }
    all.extend(stems(&ops::VMASK).map(|s| format!("{}.mm", s.name)));
    all.extend(stems(&ops::VRED).map(|s| format!("{}.vs", s.name)));
    for op in ops::AMO.0 {
        all.extend(stems(&ops::AMO_WIDTH).map(|w| format!("{}.{}", op.name, w.name)));
    }
    for mode in ops::VMEM_MODE.0 {
        for eew in ops::VMEM_EEW.0 {
            all.insert(format!("vl{}{}.v", mode.name, eew.name));
            all.insert(format!("vs{}{}.v", mode.name, eew.name));
        }
    }
    all
}

#[test]
fn every_structured_word_round_trips() {
    let mut decodable = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = BTreeSet::new();
    for word in sweep_words() {
        let Ok(inst) = decode(word) else {
            continue;
        };
        decodable += 1;
        let again = encode(&inst).unwrap_or_else(|e| panic!("{word:#010x} `{inst}`: {e}"));
        assert_eq!(decode(again), Ok(inst), "{word:#010x} → {again:#010x}");
        let text = inst.to_string();
        fnv1a(&mut digest, text.as_bytes());
        fnv1a(&mut digest, &again.to_le_bytes());
        assert_reassembles(inst, &text);
        let mnemonic = text.split(' ').next().expect("split yields an item");
        if !seen.contains(mnemonic) {
            seen.insert(mnemonic.to_owned());
        }
    }
    assert_eq!(decodable, DECODABLE, "the accepted encoding set changed");
    assert_eq!(digest, DIGEST, "a disassembly or a re-encoding changed");
    let missed: Vec<_> = table_mnemonics().difference(&seen).cloned().collect();
    assert!(missed.is_empty(), "table rows never decoded: {missed:?}");
}

#[test]
fn known_tricky_disassemblies_reassemble() {
    // Hand-picked encodings that exercise corner syntax.
    for word in [
        0x0010_0093u32, // addi ra, zero, 1
        0x0ff0_000f,    // fence
        0xf140_2573,    // csrr a0, mhartid (csrrs)
        0x1234_5537,    // lui a0, 0x12345
        0x8000_0537,    // lui a0, 0x80000 (negative upper immediate)
    ] {
        let inst = decode(word).unwrap();
        assert_reassembles(inst, &inst.to_string());
    }
}

/// `docs/ASSEMBLY.md` names every operation the tables define: each
/// stem, immediate-form mnemonic and alias is a word of the document,
/// and each pseudo-instruction has a table row naming its base.
#[test]
fn assembly_reference_names_every_table_row() {
    let doc = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/ASSEMBLY.md"
    ));
    let words: BTreeSet<&str> = doc
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '.'))
        .map(|w| w.trim_matches('.'))
        .collect();
    let mut wanted: Vec<String> = Vec::new();
    let named = plain_stems()
        .into_iter()
        .chain(vector_stems())
        .chain(stems(&ops::VMASK))
        .chain(stems(&ops::VRED))
        .chain(stems(&ops::AMO))
        .chain(stems(&ops::AMO_WIDTH))
        .chain(stems(&ops::VMEM_EEW));
    for stem in named {
        let names = [Some(stem.name), stem.imm, stem.alias];
        wanted.extend(names.into_iter().flatten().map(str::to_owned));
    }
    for mode in ops::VMEM_MODE.0 {
        wanted.extend([format!("vl{}", mode.name), format!("vs{}", mode.name)]);
    }
    for pseudo in PSEUDO {
        let head = format!("| `{}", pseudo.name);
        let row = doc.lines().find(|line| {
            let rest = line.strip_prefix(head.as_str());
            rest.is_some_and(|rest| rest.starts_with([' ', '`']))
        });
        let base = format!("`{} ", pseudo.base);
        if !row.is_some_and(|row| row.contains(base.as_str())) {
            wanted.push(format!("{} (a row naming `{}`)", pseudo.name, pseudo.base));
        }
    }
    let missing: Vec<_> = wanted
        .iter()
        .filter(|w| !words.contains(w.as_str()))
        .collect();
    assert!(missing.is_empty(), "not in docs/ASSEMBLY.md: {missing:?}");
}
