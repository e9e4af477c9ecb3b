//! Property tests: `encode` and `decode` are exact inverses over the
//! supported instruction space, and `decode` never panics on arbitrary
//! words.

use coyote_isa::decode::decode;
use coyote_isa::encode::encode;
use coyote_isa::inst::{AmoOp, CsrSrc, Inst, VAddrMode, VSrc, XSrc};
use coyote_isa::ops::{self, Row, Table, UIMM, VM};
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

/// A vector operand of every form, with immediates drawn from `imm`.
fn vsrc(imm: std::ops::RangeInclusive<i8>) -> impl Strategy<Value = VSrc> {
    prop_oneof![
        vreg().prop_map(VSrc::V),
        xreg().prop_map(VSrc::X),
        freg().prop_map(VSrc::F),
        imm.prop_map(VSrc::I),
    ]
}

/// Whether `row` encodes operand `src`: a form the row has and, for an
/// immediate, a value its 5-bit field holds.
fn encodable<T>(row: &Row<T>, src: VSrc) -> bool {
    let fits = match src {
        VSrc::I(imm) if row.has(UIMM) => (0..=31).contains(&imm),
        VSrc::I(imm) => (-16..=15).contains(&imm),
        _ => true,
    };
    row.has(src.form()) && fits
}

/// An operation of `table` with an operand its row encodes; immediates
/// cover both the signed and the shift-amount ranges.
fn op_src<T: Copy + PartialEq + std::fmt::Debug + 'static>(
    table: &'static Table<T>,
) -> impl Strategy<Value = (T, VSrc)> {
    (all(table), vsrc(-16..=31)).prop_filter("a form the row has", move |&(op, src)| {
        encodable(table.row(op), src)
    })
}

/// A `VARITH` instruction with any operand, paired with whether its row
/// encodes that operand.
fn varith() -> impl Strategy<Value = (Inst, bool)> {
    let src = vsrc(i8::MIN..=i8::MAX);
    (all(&ops::VARITH), vreg(), vreg(), src, any::<bool>()).prop_map(|(op, vd, vs2, src, vm)| {
        let ok = encodable(ops::VARITH.row(op), src);
        let inst = Inst::VArith {
            op,
            vd,
            vs2,
            src,
            vm,
        };
        (inst, ok)
    })
}

/// A `VARITH` instruction with an operand its row encodes.
fn encodable_varith() -> impl Strategy<Value = Inst> {
    (op_src(&ops::VARITH), vreg(), vreg(), any::<bool>()).prop_map(|((op, src), vd, vs2, vm)| {
        Inst::VArith {
            op,
            vd,
            vs2,
            src,
            vm,
        }
    })
}

/// A vector instruction with any operand, paired with whether it has an
/// encoding: its row has the operand's form, a splat's `vs2` is `v0`, a
/// mask is on an operation that takes one.
fn any_vector_op() -> impl Strategy<Value = (Inst, bool)> {
    let src = || vsrc(i8::MIN..=i8::MAX);
    prop_oneof![
        // `prop_oneof!` draws its arms evenly: one `VARITH` arm per
        // family keeps the share the five families' variants had.
        varith(),
        varith(),
        varith(),
        varith(),
        varith(),
        // Half the splats get `vs2` = v0, the only one they encode with.
        (vreg(), vreg(), src(), any::<bool>(), any::<bool>()).prop_map(|(vd, vs2, src, vm, v0)| {
            let vs2 = if v0 { VReg::V0 } else { vs2 };
            let ok = encodable(&ops::VMERGE, src) && (!vm || vs2 == VReg::V0);
            (Inst::VMerge { vd, vs2, src, vm }, ok)
        }),
        (vreg(), src())
            .prop_map(|(vd, src)| { (Inst::VMvS { vd, src }, encodable(&ops::VMV_S, src)) }),
        (all(&ops::VUNARY), 0u8..32, vreg(), any::<bool>()).prop_map(|(op, rd, vs2, vm)| {
            let ok = vm || ops::VUNARY.row(op).has(VM);
            (Inst::VUnary { op, rd, vs2, vm }, ok)
        }),
    ]
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
        (all(&ops::UPPER), xreg(), u_imm()).prop_map(|(op, rd, imm)| Inst::Upper { op, rd, imm }),
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
        // A raw data register names an `x` or an `f` register by the
        // row, so every row, `fld` and `fsd` included, takes any index.
        (all(&ops::LOAD), 0u8..32, xreg(), -2048i32..=2047).prop_map(|(op, rd, rs1, offset)| {
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            }
        }),
        (all(&ops::STORE), 0u8..32, xreg(), -2048i32..=2047).prop_map(|(op, rs2, rs1, offset)| {
            Inst::Store {
                op,
                rs2,
                rs1,
                offset,
            }
        }),
        (all(&ops::ALU), xreg(), xreg(), xreg().prop_map(XSrc::X))
            .prop_map(|(op, rd, rs1, src)| Inst::Op { op, rd, rs1, src }),
        (
            imm_form(&ops::ALU, false),
            xreg(),
            xreg(),
            (-2048i32..=2047).prop_map(XSrc::I)
        )
            .prop_map(|(op, rd, rs1, src)| Inst::Op { op, rd, rs1, src }),
        (
            imm_form(&ops::ALU, true),
            xreg(),
            xreg(),
            (0i32..=63).prop_map(XSrc::I)
        )
            .prop_map(|(op, rd, rs1, src)| Inst::Op { op, rd, rs1, src }),
        (all(&ops::ALU_W), xreg(), xreg(), xreg().prop_map(XSrc::X))
            .prop_map(|(op, rd, rs1, src)| { Inst::Op32 { op, rd, rs1, src } }),
        (
            imm_form(&ops::ALU_W, false),
            xreg(),
            xreg(),
            (-2048i32..=2047).prop_map(XSrc::I)
        )
            .prop_map(|(op, rd, rs1, src)| Inst::Op32 { op, rd, rs1, src }),
        (
            imm_form(&ops::ALU_W, true),
            xreg(),
            xreg(),
            (0i32..=31).prop_map(XSrc::I)
        )
            .prop_map(|(op, rd, rs1, src)| Inst::Op32 { op, rd, rs1, src }),
        all(&ops::SYSTEM).prop_map(|op| Inst::System { op }),
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
        // The compares are `FP` rows whose raw `rd` is an `x` register.
        (all(&ops::FP), 0u8..32, freg(), freg()).prop_map(|(op, rd, rs1, rs2)| Inst::FpOp {
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
        (all(&ops::FP_CVT), 0u8..32, 0u8..32).prop_map(|(op, rd, rs1)| Inst::FpCvt { op, rd, rs1 }),
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
        // One arm per vector-arithmetic family, as in `any_vector_op`.
        encodable_varith(),
        encodable_varith(),
        encodable_varith(),
        encodable_varith(),
        encodable_varith(),
        (all(&ops::VRED), vreg(), vreg(), vreg(), any::<bool>()).prop_map(
            |(op, vd, vs2, vs1, vm)| Inst::VRed {
                op,
                vd,
                vs2,
                vs1,
                vm
            }
        ),
        (vreg(), any::<bool>()).prop_map(|(vd, vm)| Inst::Vid { vd, vm }),
        (all(&ops::VMASK), vreg(), vreg(), vreg())
            .prop_map(|(op, vd, vs2, vs1)| Inst::VMaskLogical { op, vd, vs2, vs1 }),
        // A merge takes any `vs2`, a splat (`vm` set) only v0; `vmv.x.s`
        // takes no mask.
        any_vector_op()
            .prop_filter("encodable", |&(_, ok)| ok)
            .prop_map(|(inst, _)| inst),
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

    /// The vector shapes `Inst` can hold without an encoding — a form the
    /// row lacks, an immediate its field cannot hold, a splat whose `vs2`
    /// is not v0, an element-0 move from a vector or an immediate, a mask
    /// on an operation that takes none — are encode errors, never a word
    /// that decodes to something else.
    #[test]
    fn vector_shapes_encode_exactly_when_they_exist(case in any_vector_op()) {
        let (inst, ok) = case;
        match encode(&inst) {
            Ok(word) => {
                prop_assert!(ok, "{inst:?} encoded as {word:#010x}");
                prop_assert_eq!(decode(word), Ok(inst));
            }
            Err(e) => prop_assert!(!ok, "{inst:?}: {e}"),
        }
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
