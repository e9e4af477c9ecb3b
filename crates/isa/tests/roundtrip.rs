//! Property tests: `encode` and `decode` are exact inverses over the
//! supported instruction space, and `decode` never panics on arbitrary
//! words.

use coyote_isa::decode::decode;
use coyote_isa::encode::encode;
use coyote_isa::inst::{AmoOp, CsrSrc, Inst, VAddrMode, VFScalar, VScalar};
use coyote_isa::ops::{self, Row, Table, UIMM, VF, VI, VV, VX};
use coyote_isa::{Csr, FReg, Lmul, Sew, VReg, VType, XReg};
use proptest::prelude::*;

/// The operations of `table` whose row satisfies `keep`. Every
/// operation strategy below is drawn from the tables this way, so a new
/// row is covered with no edit here.
fn rows<T: Copy + std::fmt::Debug + 'static>(
    table: &Table<T>,
    keep: impl Fn(&Row<T>) -> bool,
) -> impl Strategy<Value = T> {
    let ops: Vec<T> = table.0.iter().filter(|r| keep(r)).map(|r| r.op).collect();
    (0..ops.len()).prop_map(move |i| ops[i])
}

/// Every operation of `table`.
fn all<T: Copy + std::fmt::Debug + 'static>(table: &Table<T>) -> impl Strategy<Value = T> {
    rows(table, |_| true)
}

/// The operations of `table` that have every form in `forms`.
fn with<T: Copy + std::fmt::Debug + 'static>(
    table: &Table<T>,
    forms: u8,
) -> impl Strategy<Value = T> {
    rows(table, move |r| r.forms & forms == forms)
}

/// The operations with an immediate form that does (`shift`) or does
/// not carry an unsigned shift amount.
fn imm_form<T: Copy + std::fmt::Debug + 'static>(
    table: &Table<T>,
    shift: bool,
) -> impl Strategy<Value = T> {
    rows(table, move |r| r.imm.is_some() && r.has(UIMM) == shift)
}

fn xreg() -> impl Strategy<Value = XReg> {
    (0u8..32).prop_map(|n| XReg::new(n).unwrap())
}
fn freg() -> impl Strategy<Value = FReg> {
    (0u8..32).prop_map(|n| FReg::new(n).unwrap())
}
fn vreg() -> impl Strategy<Value = VReg> {
    (0u8..32).prop_map(|n| VReg::new(n).unwrap())
}
fn csr() -> impl Strategy<Value = Csr> {
    (0u16..0x1000).prop_map(|a| Csr::new(a).unwrap())
}
fn sew() -> impl Strategy<Value = Sew> {
    all(&ops::VMEM_EEW)
}
fn lmul() -> impl Strategy<Value = Lmul> {
    prop_oneof![
        Just(Lmul::MF8),
        Just(Lmul::MF4),
        Just(Lmul::MF2),
        Just(Lmul::M1),
        Just(Lmul::M2),
        Just(Lmul::M4),
        Just(Lmul::M8),
    ]
}
fn vtype() -> impl Strategy<Value = VType> {
    (sew(), lmul(), any::<bool>(), any::<bool>()).prop_map(|(sew, lmul, ta, ma)| VType {
        sew,
        lmul,
        ta,
        ma,
    })
}

fn vaddr_mode() -> impl Strategy<Value = VAddrMode> {
    prop_oneof![
        Just(VAddrMode::Unit),
        xreg().prop_map(VAddrMode::Strided),
        vreg().prop_map(VAddrMode::Indexed),
    ]
}

prop_compose! {
    fn b_offset()(raw in -2048i32..=2047) -> i32 { raw * 2 }
}
prop_compose! {
    fn j_offset()(raw in -(1i32 << 19)..(1i32 << 19)) -> i32 { raw * 2 }
}
prop_compose! {
    fn u_imm()(raw in -(1i64 << 19)..(1i64 << 19)) -> i64 { raw * 4096 }
}

/// A strategy over every encodable instruction form.
fn inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (xreg(), u_imm()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (xreg(), u_imm()).prop_map(|(rd, imm)| Inst::Auipc { rd, imm }),
        (xreg(), j_offset()).prop_map(|(rd, offset)| Inst::Jal { rd, offset }),
        (xreg(), xreg(), -2048i32..=2047).prop_map(|(rd, rs1, offset)| Inst::Jalr {
            rd,
            rs1,
            offset
        }),
        (all(&ops::BRANCH), xreg(), xreg(), b_offset()).prop_map(|(op, rs1, rs2, offset)| {
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            }
        }),
        (all(&ops::LOAD), xreg(), xreg(), -2048i32..=2047).prop_map(
            |((width, signed), rd, rs1, offset)| Inst::Load {
                width,
                signed,
                rd,
                rs1,
                offset
            }
        ),
        (all(&ops::STORE), xreg(), xreg(), -2048i32..=2047).prop_map(
            |(width, rs2, rs1, offset)| Inst::Store {
                width,
                rs2,
                rs1,
                offset
            }
        ),
        (imm_form(&ops::ALU, false), xreg(), xreg(), -2048i64..=2047)
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm { op, rd, rs1, imm }),
        (imm_form(&ops::ALU, true), xreg(), xreg(), 0i64..=63)
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm { op, rd, rs1, imm }),
        (all(&ops::ALU), xreg(), xreg(), xreg()).prop_map(|(op, rd, rs1, rs2)| Inst::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        (
            imm_form(&ops::ALU_W, false),
            xreg(),
            xreg(),
            -2048i64..=2047
        )
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm32 { op, rd, rs1, imm }),
        (imm_form(&ops::ALU_W, true), xreg(), xreg(), 0i64..=31)
            .prop_map(|(op, rd, rs1, imm)| Inst::OpImm32 { op, rd, rs1, imm }),
        (all(&ops::ALU_W), xreg(), xreg(), xreg()).prop_map(|(op, rd, rs1, rs2)| Inst::Op32 {
            op,
            rd,
            rs1,
            rs2
        }),
        Just(Inst::Fence),
        Just(Inst::Ecall),
        Just(Inst::Ebreak),
        (
            all(&ops::CSR),
            xreg(),
            csr(),
            prop_oneof![
                xreg().prop_map(CsrSrc::Reg),
                (0u8..32).prop_map(CsrSrc::Imm)
            ]
        )
            .prop_map(|(op, rd, csr, src)| Inst::Csr { op, rd, csr, src }),
        // `lr` has no data register: rs2 must be x0.
        (all(&ops::AMO), all(&ops::AMO_WIDTH), xreg(), xreg(), xreg()).prop_map(
            |(op, width, rd, rs1, rs2)| Inst::Amo {
                op,
                width,
                rd,
                rs1,
                rs2: if op == AmoOp::Lr { XReg::ZERO } else { rs2 }
            }
        ),
        (freg(), xreg(), -2048i32..=2047).prop_map(|(rd, rs1, offset)| Inst::Fld {
            rd,
            rs1,
            offset
        }),
        (freg(), xreg(), -2048i32..=2047).prop_map(|(rs2, rs1, offset)| Inst::Fsd {
            rs2,
            rs1,
            offset
        }),
        (all(&ops::FP), freg(), freg(), freg()).prop_map(|(op, rd, rs1, rs2)| Inst::FpOp {
            op,
            rd,
            rs1,
            rs2
        }),
        (all(&ops::FMA), freg(), freg(), freg(), freg()).prop_map(|(op, rd, rs1, rs2, rs3)| {
            Inst::FpFma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            }
        }),
        (all(&ops::FP_CMP), xreg(), freg(), freg()).prop_map(|(op, rd, rs1, rs2)| Inst::FpCmp {
            op,
            rd,
            rs1,
            rs2
        }),
        (all(&ops::FP_CVT), 0u8..32, 0u8..32).prop_map(|(op, rd, rs1)| Inst::FpCvt { op, rd, rs1 }),
        (xreg(), freg()).prop_map(|(rd, rs1)| Inst::FmvXD { rd, rs1 }),
        (freg(), xreg()).prop_map(|(rd, rs1)| Inst::FmvDX { rd, rs1 }),
        (xreg(), xreg(), vtype()).prop_map(|(rd, rs1, vtype)| Inst::Vsetvli { rd, rs1, vtype }),
        (xreg(), 0u8..32, vtype()).prop_map(|(rd, avl, vtype)| Inst::Vsetivli { rd, avl, vtype }),
        (xreg(), xreg(), xreg()).prop_map(|(rd, rs1, rs2)| Inst::Vsetvl { rd, rs1, rs2 }),
        (vreg(), xreg(), vaddr_mode(), sew(), any::<bool>()).prop_map(
            |(vd, rs1, mode, eew, vm)| Inst::VLoad {
                vd,
                rs1,
                mode,
                eew,
                vm
            }
        ),
        (vreg(), xreg(), vaddr_mode(), sew(), any::<bool>()).prop_map(
            |(vs3, rs1, mode, eew, vm)| Inst::VStore {
                vs3,
                rs1,
                mode,
                eew,
                vm
            }
        ),
        (with(&ops::VINT, VV), vreg(), vreg(), vreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, vs1, vm)| Inst::VIntOp {
                op,
                vd,
                vs2,
                src: VScalar::Vector(vs1),
                vm,
            }
        ),
        (with(&ops::VINT, VX), vreg(), vreg(), xreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, rs1, vm)| Inst::VIntOp {
                op,
                vd,
                vs2,
                src: VScalar::Xreg(rs1),
                vm
            }
        ),
        (
            rows(&ops::VINT, |r| r.has(VI) && !r.has(UIMM)),
            vreg(),
            vreg(),
            -16i8..=15,
            any::<bool>()
        )
            .prop_map(|(op, vd, vs2, imm, vm)| Inst::VIntOpImm {
                op,
                vd,
                vs2,
                imm,
                vm
            }),
        (
            with(&ops::VINT, VI | UIMM),
            vreg(),
            vreg(),
            0i8..=31,
            any::<bool>()
        )
            .prop_map(|(op, vd, vs2, imm, vm)| Inst::VIntOpImm {
                op,
                vd,
                vs2,
                imm,
                vm
            }),
        (with(&ops::VMUL, VV), vreg(), vreg(), vreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, vs1, vm)| Inst::VMulOp {
                op,
                vd,
                vs2,
                src: VScalar::Vector(vs1),
                vm
            }
        ),
        (with(&ops::VMUL, VX), vreg(), vreg(), xreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, rs1, vm)| Inst::VMulOp {
                op,
                vd,
                vs2,
                src: VScalar::Xreg(rs1),
                vm
            }
        ),
        (with(&ops::VFP, VV), vreg(), vreg(), vreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, vs1, vm)| Inst::VFpOp {
                op,
                vd,
                vs2,
                src: VFScalar::Vector(vs1),
                vm
            }
        ),
        (with(&ops::VFP, VF), vreg(), vreg(), freg(), any::<bool>()).prop_map(
            |(op, vd, vs2, rs1, vm)| Inst::VFpOp {
                op,
                vd,
                vs2,
                src: VFScalar::Freg(rs1),
                vm
            }
        ),
        (vreg(), vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vs1, vm)| Inst::VRedSum {
            vd,
            vs2,
            vs1,
            vm
        }),
        (vreg(), vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vs1, vm)| Inst::VFRedSum {
            vd,
            vs2,
            vs1,
            vm
        }),
        (vreg(), vreg()).prop_map(|(vd, vs1)| Inst::VMvVV { vd, vs1 }),
        (vreg(), xreg()).prop_map(|(vd, rs1)| Inst::VMvVX { vd, rs1 }),
        (vreg(), -16i8..=15).prop_map(|(vd, imm)| Inst::VMvVI { vd, imm }),
        (vreg(), freg()).prop_map(|(vd, rs1)| Inst::VFMvVF { vd, rs1 }),
        (xreg(), vreg()).prop_map(|(rd, vs2)| Inst::VMvXS { rd, vs2 }),
        (vreg(), xreg()).prop_map(|(vd, rs1)| Inst::VMvSX { vd, rs1 }),
        (freg(), vreg()).prop_map(|(rd, vs2)| Inst::VFMvFS { rd, vs2 }),
        (vreg(), freg()).prop_map(|(vd, rs1)| Inst::VFMvSF { vd, rs1 }),
        (vreg(), any::<bool>()).prop_map(|(vd, vm)| Inst::Vid { vd, vm }),
        // Mask subset.
        (with(&ops::VCMP, VV), vreg(), vreg(), vreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, vs1, vm)| Inst::VMaskCmp {
                op,
                vd,
                vs2,
                src: VScalar::Vector(vs1),
                vm
            }
        ),
        (with(&ops::VCMP, VX), vreg(), vreg(), xreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, rs1, vm)| Inst::VMaskCmp {
                op,
                vd,
                vs2,
                src: VScalar::Xreg(rs1),
                vm
            }
        ),
        (
            with(&ops::VCMP, VI),
            vreg(),
            vreg(),
            -16i8..=15,
            any::<bool>()
        )
            .prop_map(|(op, vd, vs2, imm, vm)| Inst::VMaskCmpImm {
                op,
                vd,
                vs2,
                imm,
                vm
            }),
        (with(&ops::VFCMP, VV), vreg(), vreg(), vreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, vs1, vm)| Inst::VFMaskCmp {
                op,
                vd,
                vs2,
                src: VFScalar::Vector(vs1),
                vm
            }
        ),
        (with(&ops::VFCMP, VF), vreg(), vreg(), freg(), any::<bool>()).prop_map(
            |(op, vd, vs2, rs1, vm)| Inst::VFMaskCmp {
                op,
                vd,
                vs2,
                src: VFScalar::Freg(rs1),
                vm
            }
        ),
        (all(&ops::VMASK), vreg(), vreg(), vreg())
            .prop_map(|(op, vd, vs2, vs1)| Inst::VMaskLogical { op, vd, vs2, vs1 }),
        (
            vreg(),
            vreg(),
            prop_oneof![
                vreg().prop_map(VScalar::Vector),
                xreg().prop_map(VScalar::Xreg)
            ]
        )
            .prop_map(|(vd, vs2, src)| Inst::VMerge { vd, vs2, src }),
        (vreg(), vreg(), -16i8..=15).prop_map(|(vd, vs2, imm)| Inst::VMergeImm { vd, vs2, imm }),
        (vreg(), vreg(), freg()).prop_map(|(vd, vs2, rs1)| Inst::VFMerge { vd, vs2, rs1 }),
        (xreg(), vreg(), any::<bool>()).prop_map(|(rd, vs2, vm)| Inst::Vcpop { rd, vs2, vm }),
        (xreg(), vreg(), any::<bool>()).prop_map(|(rd, vs2, vm)| Inst::Vfirst { rd, vs2, vm }),
    ]
}

proptest! {
    /// encode ∘ decode = id over the whole encodable space.
    #[test]
    fn encode_decode_round_trip(inst in inst()) {
        let word = encode(&inst).expect("strategy only yields encodable forms");
        let back = decode(word).expect("every encoded word decodes");
        prop_assert_eq!(back, inst);
    }

    /// decode never panics and, when it succeeds, re-encoding reproduces
    /// a word that decodes to the same instruction (decode is a
    /// retraction of encode).
    #[test]
    fn decode_total_and_stable(word in any::<u32>()) {
        if let Ok(inst) = decode(word) {
            let re = encode(&inst).expect("decoded instructions are encodable");
            let again = decode(re).expect("re-encoded word decodes");
            prop_assert_eq!(again, inst);
        }
    }

    /// Predecode covers the full decodable space: every encoding
    /// `decode` accepts yields a [`coyote_isa::DecodedInst`] micro-op
    /// holding the same instruction, so the fast path never falls back
    /// for an in-text instruction the slow path could execute.
    #[test]
    fn predecode_covers_every_decodable_encoding(inst in inst()) {
        let word = encode(&inst).expect("strategy only yields encodable forms");
        let entry = coyote_isa::DecodedInst::from_word(word)
            .expect("predecode must accept every word decode accepts");
        prop_assert_eq!(&entry.inst, &inst);
        // And on arbitrary words the two agree on decodability.
        let holes = coyote_isa::predecode(&[word, 0xffff_ffff]);
        prop_assert!(holes[0].is_some());
        prop_assert!(holes[1].is_none());
    }
}
