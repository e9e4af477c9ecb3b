//! Exhaustive small-universe test of the vector execution semantics.
//!
//! The universe is structured, not sampled: every OP-V arithmetic word
//! (funct6 × vm × every funct3 but the `vset*` one) over a few register
//! fields — `vd ∈ {0, 1, 8}`, `vs2 ∈ {0, 2, 8}`, bits 19:15 ∈ {0, 3, 16,
//! 17, 31} — that decodes. Each word runs through [`execute`] on the same
//! seeded hart at every element width, LMUL 1 and 2, and `vl` 3 and
//! VLMAX; the outcome, the destination it reports, the whole register
//! state afterwards and the scoreboard sets at that group length are
//! folded into one digest. The word count and digest were recorded at
//! cbc80a5, so every execution result, error and use/def set of the
//! vector unit is pinned to that tree.

use coyote_isa::predecode::{defs_with_group, uses_with_group};
use coyote_isa::{decode, FReg, Lmul, RegSet, Sew, VReg, VType, XReg};
use coyote_iss::exec::execute;
use coyote_iss::{Hart, SparseMemory};

/// Decodable words in [`universe`], recorded at cbc80a5.
const WORDS: u64 = 9_438;
/// FNV-1a-64 over every run's outcome and state. Recorded at cbc80a5,
/// then re-recorded once when NaN results became canonical (the old
/// value held only in debug builds: `vfredusum.vs` over NaN lanes kept
/// whichever payload the host's operand order propagated).
const DIGEST: u64 = 0x640e_6f27_8802_7e34;

const VLEN_BITS: u64 = 256;
const OPC_OP_V: u32 = 0b101_0111;
const F3_OPCFG: u32 = 0b111;

fn universe() -> impl Iterator<Item = u32> {
    (0..64u32).flat_map(|funct6| {
        (0..2u32).flat_map(move |vm| {
            (0..8u32)
                .filter(|&f3| f3 != F3_OPCFG)
                .flat_map(move |funct3| {
                    [0u32, 1, 8].into_iter().flat_map(move |vd| {
                        [0u32, 2, 8].into_iter().flat_map(move |vs2| {
                            [0u32, 3, 16, 17, 31].into_iter().map(move |f19_15| {
                                funct6 << 26
                                    | vm << 25
                                    | vs2 << 20
                                    | f19_15 << 15
                                    | funct3 << 12
                                    | vd << 7
                                    | OPC_OP_V
                            })
                        })
                    })
                })
        })
    })
}

/// `SplitMix64`: a fixed, dependency-free stream for seeding the hart.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A register value: a small integer of either sign, a float from a
    /// list that includes negatives, zeros, infinities and NaN, or raw
    /// bits — so compares tie, shifts and divides meet edge cases and
    /// floating-point lanes meet NaN.
    fn value(&mut self) -> u64 {
        const FLOATS: [f64; 10] = [
            -1.5,
            2.0,
            f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-310,
            3.25,
            -7.0,
        ];
        let pick = self.next();
        match pick % 4 {
            0 => pick >> 61,
            1 => (pick >> 61).wrapping_neg(),
            2 => FLOATS[(pick >> 32) as usize % FLOATS.len()].to_bits(),
            _ => self.next(),
        }
    }
}

fn seeded_hart() -> Hart {
    let mut hart = Hart::new(0, 0x8000_0000, VLEN_BITS);
    let mut rng = SplitMix(1);
    for n in 0..32 {
        hart.set_x(XReg::new(n).unwrap(), rng.value());
        hart.set_f_bits(FReg::new(n).unwrap(), rng.value());
    }
    // v0 gets raw bits: a mask with set and clear bits mixed.
    for reg in 0..32 {
        for i in 0..VLEN_BITS / 64 {
            let value = if reg == 0 { rng.next() } else { rng.value() };
            hart.set_v_elem(VReg::new(reg).unwrap(), i, 8, value);
        }
    }
    hart
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_set(hash: &mut u64, set: RegSet) {
    for word in [set.x, set.f, set.v] {
        fnv1a(hash, &word.to_le_bytes());
    }
}

fn fold_state(hash: &mut u64, hart: &Hart) {
    for n in 0..32 {
        fnv1a(hash, &hart.x(XReg::new(n).unwrap()).to_le_bytes());
        fnv1a(hash, &hart.f_bits(FReg::new(n).unwrap()).to_le_bytes());
    }
    for reg in 0..32 {
        for i in 0..VLEN_BITS / 64 {
            let elem = hart.v_elem(VReg::new(reg).unwrap(), i, 8);
            fnv1a(hash, &elem.to_le_bytes());
        }
    }
}

#[test]
fn every_vector_word_executes_as_recorded() {
    let seed = seeded_hart();
    let mut mem = SparseMemory::new();
    let mut accesses = Vec::new();
    let mut words = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for word in universe() {
        let Ok(inst) = decode(word) else {
            continue;
        };
        words += 1;
        for sew in [Sew::E8, Sew::E16, Sew::E32, Sew::E64] {
            for lmul in [Lmul::M1, Lmul::M2] {
                let group = lmul.group_len() as u8;
                let vtype = VType::new(sew, lmul);
                let vlmax = vtype.vlmax(VLEN_BITS);
                for vl in [3, vlmax] {
                    // A group based at v31 runs past the register file
                    // once it spills out of its first register.
                    let based = uses_with_group(&inst, 1).v | defs_with_group(&inst, 1).v;
                    let per_reg = VLEN_BITS / u64::from(sew.bits());
                    if group > 1 && based & 1 << 31 != 0 && vl > per_reg {
                        continue;
                    }
                    let mut hart = seed.clone();
                    hart.vtype = vtype;
                    hart.vl = vl;
                    let outcome = match execute(&mut hart, &mut mem, &inst, 0, 0, &mut accesses) {
                        Ok(fx) => format!("ok {:?} {}", fx.dest, accesses.len()),
                        Err(e) => format!("err {e}"),
                    };
                    fnv1a(&mut digest, outcome.as_bytes());
                    fold_state(&mut digest, &hart);
                    fold_set(&mut digest, uses_with_group(&inst, group));
                    fold_set(&mut digest, defs_with_group(&inst, group));
                }
            }
        }
    }
    assert_eq!(words, WORDS, "the decodable OP-V set changed");
    assert_eq!(
        digest, DIGEST,
        "a vector result, error or use/def set changed"
    );
}
