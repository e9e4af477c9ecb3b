//! Instruction encoder: [`Inst`] → 32-bit machine code.
//!
//! The encoder is the canonical definition of the bit layouts used by the
//! whole workspace; [`mod@crate::decode`] mirrors it exactly and the two are
//! property-tested as inverses.
//!
//! Rounding modes are not represented in [`Inst`]; floating-point
//! instructions encode the conventional choices (dynamic rounding for
//! arithmetic, round-toward-zero for float→int conversions), matching
//! what the GNU assembler emits for the corresponding mnemonics.

use std::fmt;

use crate::inst::{AmoOp, CsrSrc, Inst, VAddrMode, VSrc, XSrc};
use crate::ops::{self, *};
use crate::reg::{VReg, XReg};
use crate::vtype::Sew;

/// Error produced when an [`Inst`] has no valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate or offset does not fit in its encoding field.
    ImmOutOfRange {
        /// Mnemonic-ish context for the message.
        what: &'static str,
        /// The rejected value.
        value: i64,
    },
    /// A branch/jump offset is not a multiple of two.
    MisalignedOffset {
        /// Mnemonic-ish context for the message.
        what: &'static str,
        /// The rejected value.
        value: i64,
    },
    /// The operation exists but not in this operand form (`sub` has no
    /// immediate form, `vmsgtu` no `.vv` form, `vmv.x.s` no masked one).
    NoSuchForm {
        /// Mnemonic stem of the operation.
        name: &'static str,
        /// The missing form: `.vv`, `.vx`, `.vi`, `.vf`, `immediate` or
        /// `masked`.
        form: &'static str,
    },
    /// The instruction variant cannot be expressed (e.g. an atomic of
    /// byte width).
    InvalidForm(&'static str),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { what, value } => {
                write!(f, "immediate {value} out of range for {what}")
            }
            EncodeError::MisalignedOffset { what, value } => {
                write!(f, "offset {value} for {what} is not a multiple of 2")
            }
            EncodeError::NoSuchForm { name, form } => write!(f, "`{name}` has no {form} form"),
            EncodeError::InvalidForm(what) => write!(f, "no valid encoding for {what}"),
        }
    }
}

impl std::error::Error for EncodeError {}

type Result32 = Result<u32, EncodeError>;

/// Dynamic rounding mode, used for FP arithmetic.
const RM_DYN: u32 = 0b111;
/// Round-toward-zero, used for float→int conversions.
const RM_RTZ: u32 = 0b001;

fn r_type(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn i_type(imm: i64, rs1: u32, funct3: u32, rd: u32, opcode: u32, what: &'static str) -> Result32 {
    if !(-2048..=2047).contains(&imm) {
        return Err(EncodeError::ImmOutOfRange { what, value: imm });
    }
    let imm12 = (imm as u32) & 0xfff;
    Ok((imm12 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode)
}

fn s_type(imm: i64, rs2: u32, rs1: u32, funct3: u32, opcode: u32, what: &'static str) -> Result32 {
    if !(-2048..=2047).contains(&imm) {
        return Err(EncodeError::ImmOutOfRange { what, value: imm });
    }
    let imm = imm as u32;
    Ok(((imm >> 5 & 0x7f) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm & 0x1f) << 7)
        | opcode)
}

fn b_type(offset: i64, rs2: u32, rs1: u32, funct3: u32, what: &'static str) -> Result32 {
    if offset % 2 != 0 {
        return Err(EncodeError::MisalignedOffset {
            what,
            value: offset,
        });
    }
    if !(-4096..=4094).contains(&offset) {
        return Err(EncodeError::ImmOutOfRange {
            what,
            value: offset,
        });
    }
    let imm = offset as u32;
    Ok(((imm >> 12 & 1) << 31)
        | ((imm >> 5 & 0x3f) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm >> 1 & 0xf) << 8)
        | ((imm >> 11 & 1) << 7)
        | OPC_BRANCH)
}

fn u_type(imm: i64, rd: u32, opcode: u32, what: &'static str) -> Result32 {
    if imm % 4096 != 0 {
        return Err(EncodeError::ImmOutOfRange { what, value: imm });
    }
    if !(-(1i64 << 31)..(1i64 << 31)).contains(&imm) {
        return Err(EncodeError::ImmOutOfRange { what, value: imm });
    }
    Ok(((imm as u32) & 0xffff_f000) | (rd << 7) | opcode)
}

fn j_type(offset: i64, rd: u32, what: &'static str) -> Result32 {
    if offset % 2 != 0 {
        return Err(EncodeError::MisalignedOffset {
            what,
            value: offset,
        });
    }
    if !(-(1i64 << 20)..(1i64 << 20)).contains(&offset) {
        return Err(EncodeError::ImmOutOfRange {
            what,
            value: offset,
        });
    }
    let imm = offset as u32;
    Ok(((imm >> 20 & 1) << 31)
        | ((imm >> 1 & 0x3ff) << 21)
        | ((imm >> 11 & 1) << 20)
        | ((imm >> 12 & 0xff) << 12)
        | (rd << 7)
        | OPC_JAL)
}

/// A raw register index, which must name one of the 32 registers.
fn raw_index(index: u8, what: &'static str) -> Result32 {
    if index < 32 {
        Ok(u32::from(index))
    } else {
        Err(EncodeError::ImmOutOfRange {
            what,
            value: i64::from(index),
        })
    }
}

/// R-type word of a row keyed `funct7_funct3`.
fn r_row<T>(row: &Row<T>, rs2: u32, rs1: u32, rd: u32, opcode: u32) -> u32 {
    r_type(row.bits >> 3, rs2, rs1, row.bits & 0x7, rd, opcode)
}

/// The context [`EncodeError::ImmOutOfRange`] names for the immediate of
/// an `Op` (`word` false) or `Op32` row.
#[must_use]
pub fn alu_imm_what<T>(row: &Row<T>, word: bool) -> &'static str {
    match (word, row.has(UIMM)) {
        (false, false) => "op-imm",
        (false, true) => "shift amount",
        (true, false) => "addiw",
        (true, true) => "word shift amount",
    }
}

/// OP / OP-IMM and their 32-bit (`word`) twins: a register operand is an
/// R-type; an immediate shift packs its amount under funct7, any other
/// immediate is an I-type.
fn alu<T>(row: &Row<T>, src: XSrc, (rs1, rd): (XReg, XReg), word: bool) -> Result32 {
    let (opcode, opcode_imm, max_shamt) = if word {
        (OPC_OP32, OPC_OP_IMM32, 31)
    } else {
        (OPC_OP, OPC_OP_IMM, 63)
    };
    let imm = match src {
        XSrc::X(rs2) => return Ok(r_row(row, rs2.bits(), rs1.bits(), rd.bits(), opcode)),
        XSrc::I(imm) => i64::from(imm),
    };
    if row.imm.is_none() {
        return Err(EncodeError::NoSuchForm {
            name: row.name,
            form: "immediate",
        });
    }
    let what = alu_imm_what(row, word);
    if !row.has(UIMM) {
        return i_type(imm, rs1.bits(), row.bits & 0x7, rd.bits(), opcode_imm, what);
    }
    if !(0..=max_shamt).contains(&imm) {
        return Err(EncodeError::ImmOutOfRange { what, value: imm });
    }
    Ok(r_row(row, 0, rs1.bits(), rd.bits(), opcode_imm) | (imm as u32) << 20)
}

/// OP-V arithmetic encoding: `funct6 | vm | vs2 | vs1/rs1/imm | funct3 | vd`.
fn op_v(funct6: u32, vm: bool, f19_15: u32, f24_20: u32, funct3: u32, vd: u32) -> u32 {
    (funct6 << 26)
        | (u32::from(vm) << 25)
        | (f24_20 << 20)
        | (f19_15 << 15)
        | (funct3 << 12)
        | (vd << 7)
        | OPC_OP_V
}

/// [`op_v`] for a row of the family whose `.vv` funct3 is `f3_vv`,
/// with second operand `src`; a form the row lacks is an error.
fn op_v_row<T>(row: &Row<T>, f3_vv: u32, (src, vm): (VSrc, bool), vs2: VReg, vd: VReg) -> Result32 {
    if !row.has(src.form()) {
        return Err(EncodeError::NoSuchForm {
            name: row.name,
            form: src.suffix(),
        });
    }
    let f19_15 = match src {
        VSrc::V(vs1) => vs1.bits(),
        VSrc::X(rs1) => rs1.bits(),
        VSrc::F(rs1) => rs1.bits(),
        VSrc::I(imm) => {
            let (range, what) = if row.has(UIMM) {
                (0..=31, "vector shift immediate")
            } else {
                (-16..=15, "vector immediate")
            };
            if !range.contains(&imm) {
                return Err(EncodeError::ImmOutOfRange {
                    what,
                    value: i64::from(imm),
                });
            }
            (imm as u32) & 0x1f
        }
    };
    let funct3 = vsrc_funct3(src, f3_vv);
    Ok(op_v(row.bits, vm, f19_15, vs2.bits(), funct3, vd.bits()))
}

/// Vector load/store word; `reg` is `vd` or `vs3`.
fn vmem(mode: VAddrMode, eew: Sew, vm: bool, rs1: XReg, reg: VReg, opcode: u32) -> u32 {
    let f24_20 = match mode {
        VAddrMode::Unit => 0,
        VAddrMode::Indexed(vs2) => vs2.bits(),
        VAddrMode::Strided(rs2) => rs2.bits(),
    };
    (ops::VMEM_MODE.mode(mode).bits << 26)
        | (u32::from(vm) << 25)
        | (f24_20 << 20)
        | (rs1.bits() << 15)
        | (ops::VMEM_EEW.row(eew).bits << 12)
        | (reg.bits() << 7)
        | opcode
}

/// Encodes a decoded instruction into its 32-bit machine representation.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate or offset does not fit its
/// field, or the variant has no architectural encoding (see the error's
/// variants).
///
/// # Examples
///
/// ```
/// # use coyote_isa::{encode::encode, inst::{AluOp, Inst, XSrc}, reg::XReg};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Inst::Op {
///     op: AluOp::Add,
///     rd: XReg::RA,
///     rs1: XReg::ZERO,
///     src: XSrc::I(1),
/// };
/// assert_eq!(encode(&inst)?, 0x0010_0093); // addi ra, zero, 1
/// # Ok(())
/// # }
/// ```
pub fn encode(inst: &Inst) -> Result32 {
    match *inst {
        Inst::Upper { op, rd, imm } => {
            let row = ops::UPPER.row(op);
            u_type(imm, rd.bits(), row.bits, row.name)
        }
        Inst::Jal { rd, offset } => j_type(i64::from(offset), rd.bits(), "jal"),
        Inst::Jalr { rd, rs1, offset } => i_type(
            i64::from(offset),
            rs1.bits(),
            0b000,
            rd.bits(),
            OPC_JALR,
            "jalr",
        ),
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => b_type(
            i64::from(offset),
            rs2.bits(),
            rs1.bits(),
            ops::BRANCH.row(op).bits,
            "branch",
        ),
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let bits = ops::LOAD.row(op).bits;
            let rd = raw_index(rd, "load register index")?;
            let offset = i64::from(offset);
            i_type(offset, rs1.bits(), bits >> 7, rd, bits & 0x7f, "load")
        }
        Inst::Store {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let bits = ops::STORE.row(op).bits;
            let rs2 = raw_index(rs2, "store register index")?;
            let offset = i64::from(offset);
            s_type(offset, rs2, rs1.bits(), bits >> 7, bits & 0x7f, "store")
        }
        Inst::Op { op, rd, rs1, src } => alu(ops::ALU.row(op), src, (rs1, rd), false),
        Inst::Op32 { op, rd, rs1, src } => alu(ops::ALU_W.row(op), src, (rs1, rd), true),
        Inst::System { op } => Ok(ops::SYSTEM.row(op).bits),
        Inst::Csr { op, rd, csr, src } => {
            let base = ops::CSR.row(op).bits;
            let (funct3, field) = match src {
                CsrSrc::Reg(rs1) => (base, rs1.bits()),
                CsrSrc::Imm(z) => {
                    if z >= 32 {
                        return Err(EncodeError::ImmOutOfRange {
                            what: "csr immediate",
                            value: i64::from(z),
                        });
                    }
                    (base | 0b100, u32::from(z))
                }
            };
            Ok((csr.bits() << 20) | (field << 15) | (funct3 << 12) | (rd.bits() << 7) | OPC_SYSTEM)
        }
        Inst::Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        } => {
            let funct3 = ops::AMO_WIDTH
                .get(width)
                .ok_or(EncodeError::InvalidForm("amo width must be w or d"))?
                .bits;
            if op == AmoOp::Lr && rs2 != XReg::ZERO {
                return Err(EncodeError::InvalidForm("lr with rs2 != x0"));
            }
            Ok(r_type(
                ops::AMO.row(op).bits << 2,
                rs2.bits(),
                rs1.bits(),
                funct3,
                rd.bits(),
                OPC_AMO,
            ))
        }
        Inst::FpOp { op, rd, rs1, rs2 } => Ok(r_row(
            ops::FP.row(op),
            rs2.bits(),
            rs1.bits(),
            raw_index(rd, "fp register index")?,
            OPC_OP_FP,
        )),
        Inst::FpFma {
            op,
            rd,
            rs1,
            rs2,
            rs3,
        } => Ok((rs3.bits() << 27)
            | (0b01 << 25)
            | (rs2.bits() << 20)
            | (rs1.bits() << 15)
            | (RM_DYN << 12)
            | (rd.bits() << 7)
            | ops::FMA.row(op).bits),
        Inst::FpCvt { op, rd, rs1 } => {
            let row = ops::FP_CVT.row(op);
            let what = "fcvt register index";
            let (rd, rs1) = (raw_index(rd, what)?, raw_index(rs1, what)?);
            let rm = if !op.rd_is_f() && row.has(RM) {
                RM_RTZ
            } else {
                0b000
            };
            Ok(r_type(
                row.bits >> 5,
                row.bits & 0x1f,
                rs1,
                rm,
                rd,
                OPC_OP_FP,
            ))
        }
        Inst::Vsetvli { rd, rs1, vtype } => {
            let zimm = (vtype.to_bits() as u32) & 0x7ff;
            Ok((zimm << 20) | (rs1.bits() << 15) | (F3_OPCFG << 12) | (rd.bits() << 7) | OPC_OP_V)
        }
        Inst::Vsetivli { rd, avl, vtype } => {
            if avl >= 32 {
                return Err(EncodeError::ImmOutOfRange {
                    what: "vsetivli avl",
                    value: i64::from(avl),
                });
            }
            let zimm = (vtype.to_bits() as u32) & 0x3ff;
            Ok((0b11 << 30)
                | (zimm << 20)
                | (u32::from(avl) << 15)
                | (F3_OPCFG << 12)
                | (rd.bits() << 7)
                | OPC_OP_V)
        }
        Inst::Vsetvl { rd, rs1, rs2 } => Ok((1 << 31)
            | (rs2.bits() << 20)
            | (rs1.bits() << 15)
            | (F3_OPCFG << 12)
            | (rd.bits() << 7)
            | OPC_OP_V),
        Inst::VLoad {
            vd,
            rs1,
            mode,
            eew,
            vm,
        } => Ok(vmem(mode, eew, vm, rs1, vd, OPC_LOAD_FP)),
        Inst::VStore {
            vs3,
            rs1,
            mode,
            eew,
            vm,
        } => Ok(vmem(mode, eew, vm, rs1, vs3, OPC_STORE_FP)),
        Inst::VIntOp {
            op,
            vd,
            vs2,
            src,
            vm,
        } => op_v_row(ops::VINT.row(op), F3_OPIVV, (src, vm), vs2, vd),
        Inst::VMulOp {
            op,
            vd,
            vs2,
            src,
            vm,
        } => op_v_row(ops::VMUL.row(op), F3_OPMVV, (src, vm), vs2, vd),
        Inst::VFpOp {
            op,
            vd,
            vs2,
            src,
            vm,
        } => op_v_row(ops::VFP.row(op), F3_OPFVV, (src, vm), vs2, vd),
        Inst::VRed {
            op,
            vd,
            vs2,
            vs1,
            vm,
        } => {
            let row = ops::VRED.row(op);
            let (funct3, funct6) = (row.bits >> 6, row.bits & 0x3f);
            Ok(op_v(funct6, vm, vs1.bits(), vs2.bits(), funct3, vd.bits()))
        }
        Inst::VMerge { vs2, vm: true, .. } if vs2 != VReg::V0 => {
            Err(EncodeError::InvalidForm("vmv.v with vs2 other than v0"))
        }
        Inst::VMerge { vd, vs2, src, vm } => op_v_row(&ops::VMERGE, F3_OPIVV, (src, vm), vs2, vd),
        Inst::VUnary { op, rd, vs2, vm } => {
            let row = ops::VUNARY.row(op);
            if !vm && !row.has(VM) {
                return Err(EncodeError::NoSuchForm {
                    name: row.name,
                    form: "masked",
                });
            }
            let (funct3, vs1) = (row.bits >> 5, row.bits & 0x1f);
            let rd = raw_index(rd, "vector unary register index")?;
            Ok(op_v(F6_VUNARY0, vm, vs1, vs2.bits(), funct3, rd))
        }
        Inst::VMvS { vd, src } => op_v_row(&ops::VMV_S, F3_OPMVV, (src, true), VReg::V0, vd),
        Inst::Vid { vd, vm } => Ok(op_v(F6_VMUNARY0, vm, VS1_VID, 0, F3_OPMVV, vd.bits())),
        Inst::VMaskCmp {
            op,
            vd,
            vs2,
            src,
            vm,
        } => op_v_row(ops::VCMP.row(op), F3_OPIVV, (src, vm), vs2, vd),
        Inst::VFMaskCmp {
            op,
            vd,
            vs2,
            src,
            vm,
        } => op_v_row(ops::VFCMP.row(op), F3_OPFVV, (src, vm), vs2, vd),
        Inst::VMaskLogical { op, vd, vs2, vs1 } => Ok(op_v(
            ops::VMASK.row(op).bits,
            true,
            vs1.bits(),
            vs2.bits(),
            F3_OPMVV,
            vd.bits(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{
        AluOp, AluWOp, BranchOp, LoadOp, MemWidth, StoreOp, SysOp, UpperOp, VIntOp, VUnaryOp,
    };
    use crate::vtype::{Lmul, VType};

    fn x(n: u8) -> XReg {
        XReg::new(n).unwrap()
    }

    #[test]
    fn golden_scalar_encodings() {
        // Cross-checked against the RISC-V spec / GNU as output.
        let cases: Vec<(Inst, u32)> = vec![
            (
                Inst::Op {
                    op: AluOp::Add,
                    rd: x(1),
                    rs1: x(0),
                    src: XSrc::I(1),
                },
                0x0010_0093, // addi ra, zero, 1
            ),
            (
                Inst::Op {
                    op: AluOp::Add,
                    rd: x(1),
                    rs1: x(2),
                    src: XSrc::X(x(3)),
                },
                0x0031_00b3, // add ra, sp, gp
            ),
            (
                Inst::Upper {
                    op: UpperOp::Lui,
                    rd: x(10),
                    imm: 0x12345 << 12,
                },
                0x1234_5537, // lui a0, 0x12345
            ),
            (
                Inst::Jal {
                    rd: x(0),
                    offset: 0,
                },
                0x0000_006f,
            ),
            (
                Inst::Load {
                    op: LoadOp::Ld,
                    rd: 10,
                    rs1: x(2),
                    offset: 8,
                },
                0x0081_3503, // ld a0, 8(sp)
            ),
            (
                Inst::Store {
                    op: StoreOp::Sd,
                    rs2: 10,
                    rs1: x(2),
                    offset: 8,
                },
                0x00a1_3423, // sd a0, 8(sp)
            ),
            (Inst::System { op: SysOp::Ecall }, 0x0000_0073),
            (Inst::System { op: SysOp::Ebreak }, 0x0010_0073),
        ];
        for (inst, want) in cases {
            assert_eq!(encode(&inst).unwrap(), want, "encoding {inst:?}");
        }
    }

    #[test]
    fn negative_immediates() {
        // addi sp, sp, -16 = 0xff010113
        let inst = Inst::Op {
            op: AluOp::Add,
            rd: x(2),
            rs1: x(2),
            src: XSrc::I(-16),
        };
        assert_eq!(encode(&inst).unwrap(), 0xff01_0113);
    }

    #[test]
    fn branch_encoding_bne() {
        // bne a0, a1, -4  (backward branch)
        let inst = Inst::Branch {
            op: BranchOp::Ne,
            rs1: x(10),
            rs2: x(11),
            offset: -4,
        };
        assert_eq!(encode(&inst).unwrap(), 0xfeb5_1ee3);
    }

    #[test]
    fn out_of_range_rejected() {
        let inst = Inst::Op {
            op: AluOp::Add,
            rd: x(1),
            rs1: x(1),
            src: XSrc::I(5000),
        };
        assert!(matches!(
            encode(&inst),
            Err(EncodeError::ImmOutOfRange { .. })
        ));

        let inst = Inst::Jal {
            rd: x(0),
            offset: 3,
        };
        assert!(matches!(
            encode(&inst),
            Err(EncodeError::MisalignedOffset { .. })
        ));
    }

    #[test]
    fn invalid_forms_rejected() {
        let inst = Inst::Op {
            op: AluOp::Sub,
            rd: x(1),
            rs1: x(1),
            src: XSrc::I(0),
        };
        assert_eq!(
            encode(&inst),
            Err(EncodeError::NoSuchForm {
                name: "sub",
                form: "immediate"
            })
        );

        let inst = Inst::Op {
            op: AluOp::Mul,
            rd: x(1),
            rs1: x(1),
            src: XSrc::I(0),
        };
        assert!(encode(&inst).is_err());

        let inst = Inst::Op32 {
            op: AluWOp::Sraw,
            rd: x(1),
            rs1: x(1),
            src: XSrc::I(32),
        };
        assert_eq!(
            encode(&inst),
            Err(EncodeError::ImmOutOfRange {
                what: "word shift amount",
                value: 32
            })
        );

        let inst = Inst::Load {
            op: LoadOp::Fld,
            rd: 32,
            rs1: x(1),
            offset: 0,
        };
        assert_eq!(
            encode(&inst),
            Err(EncodeError::ImmOutOfRange {
                what: "load register index",
                value: 32
            })
        );
    }

    #[test]
    fn vsetvli_layout() {
        // vsetvli t0, a0, e64,m1,ta,ma: zimm = 0b11011000 = 0xd8
        let inst = Inst::Vsetvli {
            rd: x(5),
            rs1: x(10),
            vtype: VType::new(crate::vtype::Sew::E64, Lmul::M1),
        };
        let word = encode(&inst).unwrap();
        assert_eq!(word & 0x7f, OPC_OP_V);
        assert_eq!((word >> 12) & 0x7, F3_OPCFG);
        assert_eq!(word >> 31, 0); // vsetvli bit
        assert_eq!((word >> 20) & 0x7ff, 0xd8);
        assert_eq!((word >> 7) & 0x1f, 5);
        assert_eq!((word >> 15) & 0x1f, 10);
    }

    #[test]
    fn vector_shift_immediate_range() {
        use crate::reg::VReg;
        let v = |n| VReg::new(n).unwrap();
        let sll = |imm| Inst::VIntOp {
            op: VIntOp::Sll,
            vd: v(1),
            vs2: v(2),
            src: VSrc::I(imm),
            vm: true,
        };
        assert!(encode(&sll(31)).is_ok());
        // Shift amounts are unsigned 5-bit: 17 would be negative as simm5
        // but is a legal shift.
        assert!(encode(&sll(17)).is_ok());
        assert!(encode(&sll(-1)).is_err());
    }

    #[test]
    fn unmaskable_unary_rejects_a_mask() {
        let mv = |vm| Inst::VUnary {
            op: VUnaryOp::MvXS,
            rd: 10,
            vs2: VReg::V0,
            vm,
        };
        assert!(encode(&mv(true)).is_ok());
        assert_eq!(
            encode(&mv(false)),
            Err(EncodeError::NoSuchForm {
                name: "vmv.x.s",
                form: "masked"
            })
        );
    }

    #[test]
    fn lr_requires_x0_rs2() {
        let bad = Inst::Amo {
            op: AmoOp::Lr,
            width: MemWidth::D,
            rd: x(10),
            rs1: x(11),
            rs2: x(12),
        };
        assert!(encode(&bad).is_err());
        let ok = Inst::Amo {
            op: AmoOp::Lr,
            width: MemWidth::D,
            rd: x(10),
            rs1: x(11),
            rs2: x(0),
        };
        assert!(encode(&ok).is_ok());
    }
}
