//! Instruction decoder: 32-bit machine code → [`Inst`].
//!
//! Exact mirror of [`mod@crate::encode`]; the pair is property-tested as
//! inverses over the supported instruction space. Rounding-mode fields of
//! floating-point instructions are accepted but not represented (the
//! simulator always computes with the canonical rounding the encoder
//! emits).

use std::fmt;

use crate::csr::Csr;
use crate::inst::{AmoOp, CsrSrc, FmaOp, Inst, SysOp, VAddrMode, VSrc, XSrc};
use crate::ops::{self, *};
use crate::reg::{FReg, VReg, XReg};
use crate::vtype::{Sew, VType};

/// Error produced when a 32-bit word is not a supported instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The undecodable word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

fn rd_x(word: u32) -> XReg {
    XReg::from_bits(word >> 7)
}
fn rs1_x(word: u32) -> XReg {
    XReg::from_bits(word >> 15)
}
fn rs2_x(word: u32) -> XReg {
    XReg::from_bits(word >> 20)
}
fn rd_f(word: u32) -> FReg {
    FReg::from_bits(word >> 7)
}
/// The `rd` field as a raw index, for a shape whose row picks the file.
fn rd_raw(word: u32) -> u8 {
    ((word >> 7) & 0x1f) as u8
}
fn rs1_f(word: u32) -> FReg {
    FReg::from_bits(word >> 15)
}
fn rs2_f(word: u32) -> FReg {
    FReg::from_bits(word >> 20)
}
fn rd_v(word: u32) -> VReg {
    VReg::from_bits(word >> 7)
}
fn vs1(word: u32) -> VReg {
    VReg::from_bits(word >> 15)
}
fn vs2(word: u32) -> VReg {
    VReg::from_bits(word >> 20)
}
fn funct3(word: u32) -> u32 {
    (word >> 12) & 0x7
}
fn funct7(word: u32) -> u32 {
    word >> 25
}
/// `funct3_opcode`, the key of the scalar memory tables.
fn funct3_opcode(word: u32) -> u32 {
    funct3(word) << 7 | (word & 0x7f)
}
/// `funct7_funct3`, the key of the R-type tables.
fn funct7_3(word: u32) -> u32 {
    funct7(word) << 3 | funct3(word)
}
fn f24_20(word: u32) -> u32 {
    (word >> 20) & 0x1f
}

fn imm_i(word: u32) -> i32 {
    (word as i32) >> 20
}

fn imm_s(word: u32) -> i32 {
    let hi = ((word as i32) >> 25) << 5;
    let lo = ((word >> 7) & 0x1f) as i32;
    hi | lo
}

fn imm_b(word: u32) -> i32 {
    let sign = ((word as i32) >> 31) << 12;
    let b11 = (((word >> 7) & 1) << 11) as i32;
    let b10_5 = (((word >> 25) & 0x3f) << 5) as i32;
    let b4_1 = (((word >> 8) & 0xf) << 1) as i32;
    sign | b11 | b10_5 | b4_1
}

fn imm_u(word: u32) -> i64 {
    i64::from((word & 0xffff_f000) as i32)
}

fn imm_j(word: u32) -> i32 {
    let sign = ((word as i32) >> 31) << 20;
    let b19_12 = ((word >> 12) & 0xff) << 12;
    let b11 = ((word >> 20) & 1) << 11;
    let b10_1 = ((word >> 21) & 0x3ff) << 1;
    sign | (b19_12 | b11 | b10_1) as i32
}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError`] if the word is not in the supported subset
/// (RV64IM, A-subset, Zicsr, D, V-subset).
///
/// # Examples
///
/// ```
/// # use coyote_isa::{decode::decode, inst::{AluOp, Inst, XSrc}, reg::XReg};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = decode(0x0010_0093)?; // addi ra, zero, 1
/// assert_eq!(
///     inst,
///     Inst::Op { op: AluOp::Add, rd: XReg::RA, rs1: XReg::ZERO, src: XSrc::I(1) }
/// );
/// # Ok(())
/// # }
/// ```
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    decode_opt(word).ok_or(DecodeError { word })
}

fn decode_opt(word: u32) -> Option<Inst> {
    Some(match word & 0x7f {
        OPC_LUI | OPC_AUIPC => Inst::Upper {
            op: ops::UPPER.from_bits(word & 0x7f)?.op,
            rd: rd_x(word),
            imm: imm_u(word),
        },
        OPC_JAL => Inst::Jal {
            rd: rd_x(word),
            offset: imm_j(word),
        },
        OPC_JALR if funct3(word) == 0 => Inst::Jalr {
            rd: rd_x(word),
            rs1: rs1_x(word),
            offset: imm_i(word),
        },
        OPC_BRANCH => Inst::Branch {
            op: ops::BRANCH.from_bits(funct3(word))?.op,
            rs1: rs1_x(word),
            rs2: rs2_x(word),
            offset: imm_b(word),
        },
        OPC_OP | OPC_OP_IMM => {
            let (op, src) = alu(word, &ops::ALU, 6)?;
            Inst::Op {
                op,
                rd: rd_x(word),
                rs1: rs1_x(word),
                src,
            }
        }
        OPC_OP32 | OPC_OP_IMM32 => {
            let (op, src) = alu(word, &ops::ALU_W, 5)?;
            Inst::Op32 {
                op,
                rd: rd_x(word),
                rs1: rs1_x(word),
                src,
            }
        }
        OPC_MISC_MEM => Inst::System { op: SysOp::Fence },
        OPC_SYSTEM => match funct3(word) {
            0b000 => Inst::System {
                op: ops::SYSTEM.from_bits(word)?.op,
            },
            f3 => {
                // funct3 bit 2 selects the immediate form.
                let field = (word >> 15) & 0x1f;
                Inst::Csr {
                    op: ops::CSR.from_bits(f3 & 0b011)?.op,
                    rd: rd_x(word),
                    csr: Csr::from_bits(word >> 20),
                    src: if f3 & 0b100 != 0 {
                        CsrSrc::Imm(field as u8)
                    } else {
                        CsrSrc::Reg(XReg::from_bits(field))
                    },
                }
            }
        },
        OPC_AMO => {
            let width = ops::AMO_WIDTH.from_bits(funct3(word))?.op;
            let op = ops::AMO.from_bits(word >> 27)?.op;
            if op == AmoOp::Lr && rs2_x(word) != XReg::ZERO {
                return None;
            }
            Inst::Amo {
                op,
                width,
                rd: rd_x(word),
                rs1: rs1_x(word),
                rs2: rs2_x(word),
            }
        }
        // The width field discriminates the vector accesses from `fld`
        // and `fsd` on the shared LOAD-FP / STORE-FP opcodes.
        OPC_LOAD_FP if funct3(word) != F3_FP_D => {
            let (mode, eew, vm) = vmem(word)?;
            Inst::VLoad {
                vd: rd_v(word),
                rs1: rs1_x(word),
                mode,
                eew,
                vm,
            }
        }
        OPC_STORE_FP if funct3(word) != F3_FP_D => {
            let (mode, eew, vm) = vmem(word)?;
            Inst::VStore {
                vs3: rd_v(word),
                rs1: rs1_x(word),
                mode,
                eew,
                vm,
            }
        }
        OPC_LOAD | OPC_LOAD_FP => Inst::Load {
            op: ops::LOAD.from_bits(funct3_opcode(word))?.op,
            rd: rd_raw(word),
            rs1: rs1_x(word),
            offset: imm_i(word),
        },
        OPC_STORE | OPC_STORE_FP => Inst::Store {
            op: ops::STORE.from_bits(funct3_opcode(word))?.op,
            rs2: ((word >> 20) & 0x1f) as u8,
            rs1: rs1_x(word),
            offset: imm_s(word),
        },
        OPC_OP_FP => return decode_op_fp(word),
        OPC_OP_V if funct3(word) == F3_OPCFG => return decode_vset(word),
        OPC_OP_V => return decode_op_v(word),
        opcode => return decode_fma(word, ops::FMA.from_bits(opcode)?.op),
    })
}

/// `(op, src)` of OP / OP-IMM and their 32-bit twins. Opcode bit 5 sets
/// the register form, which selects on `funct7_funct3`. An immediate
/// form selects on funct3 and carries a 12-bit immediate, except a shift
/// ([`UIMM`]), which keeps the upper bits of funct7 above a
/// `shamt_bits`-wide shift amount.
fn alu<T: Copy + PartialEq>(word: u32, table: &Table<T>, shamt_bits: u32) -> Option<(T, XSrc)> {
    if word & 0b010_0000 != 0 {
        return Some((table.from_bits(funct7_3(word))?.op, XSrc::X(rs2_x(word))));
    }
    let mut row = table.from_bits(funct3(word))?;
    let mut imm = imm_i(word);
    if row.has(UIMM) {
        let shamt_mask = (1 << shamt_bits) - 1;
        row = table.from_bits((funct7(word) & !(shamt_mask >> 5)) << 3 | funct3(word))?;
        imm = ((word >> 20) & shamt_mask) as i32;
    }
    row.imm.map(|_| (row.op, XSrc::I(imm)))
}

/// `(mode, eew, vm)` of a vector load or store.
fn vmem(word: u32) -> Option<(VAddrMode, Sew, bool)> {
    let eew = ops::VMEM_EEW.from_bits(funct3(word))?.op;
    if (word >> 28) != 0 {
        return None; // nf/mew unsupported
    }
    let mode = match ops::VMEM_MODE.from_bits((word >> 26) & 0b11)?.op {
        VAddrMode::Unit if f24_20(word) != 0 => return None,
        VAddrMode::Unit => VAddrMode::Unit,
        VAddrMode::Strided(_) => VAddrMode::Strided(rs2_x(word)),
        VAddrMode::Indexed(_) => VAddrMode::Indexed(vs2(word)),
    };
    Some((mode, eew, (word >> 25) & 1 == 1))
}

fn decode_op_fp(word: u32) -> Option<Inst> {
    let key = funct7_3(word);
    let arith = |r: &&ops::Row<_>| r.bits == key || (r.has(RM) && r.bits >> 3 == key >> 3);
    if let Some(row) = ops::FP.0.iter().find(arith) {
        return Some(Inst::FpOp {
            op: row.op,
            rd: rd_raw(word),
            rs1: rs1_f(word),
            rs2: rs2_f(word),
        });
    }
    let row = ops::FP_CVT
        .from_bits(funct7(word) << 5 | f24_20(word))
        .filter(|r| r.has(RM) || funct3(word) == 0)?;
    Some(Inst::FpCvt {
        op: row.op,
        rd: rd_raw(word),
        rs1: ((word >> 15) & 0x1f) as u8,
    })
}

fn decode_fma(word: u32, op: FmaOp) -> Option<Inst> {
    if (word >> 25) & 0b11 != 0b01 {
        return None; // only the D format is supported
    }
    Some(Inst::FpFma {
        op,
        rd: rd_f(word),
        rs1: rs1_f(word),
        rs2: rs2_f(word),
        rs3: FReg::from_bits(word >> 27),
    })
}

fn decode_op_v(word: u32) -> Option<Inst> {
    let f3 = funct3(word);
    let funct6 = word >> 26;
    let vm = (word >> 25) & 1 == 1;
    let vd = rd_v(word);
    let vs2 = vs2(word);
    let f19_15 = (word >> 15) & 0x1f;
    // Field 19:15 is the second operand; funct3 says which form it is.
    let src = match f3 {
        F3_OPIVI => VSrc::I(sext5(f19_15)),
        F3_OPIVX | F3_OPMVX => VSrc::X(rs1_x(word)),
        F3_OPFVF => VSrc::F(rs1_f(word)),
        _ => VSrc::V(vs1(word)),
    };
    // Whether `src` is a form a row with `forms` has, in the family
    // whose `.vv` funct3 is `f3_vv`.
    let fits = |forms: u8, f3_vv: u32| forms & src.form() != 0 && vsrc_funct3(src, f3_vv) == f3;
    // The splats and scalar→element-0 moves fix `vm` = 1 and `vs2` = v0.
    let whole = vm && vs2 == VReg::V0;

    if let Some(row) = ops::VRED.from_bits(f3 << 6 | funct6) {
        return Some(Inst::VRed {
            op: row.op,
            vd,
            vs2,
            vs1: vs1(word),
            vm,
        });
    }
    if let Some(row) = ops::VUNARY
        .from_bits(f3 << 5 | f19_15)
        .filter(|_| funct6 == F6_VUNARY0)
    {
        return Some(Inst::VUnary {
            op: row.op,
            rd: rd_raw(word),
            vs2,
            vm: vm || !row.has(VM),
        });
    }
    if (f3, funct6, f19_15) == (F3_OPMVV, F6_VMUNARY0, VS1_VID) && vs2 == VReg::V0 {
        return Some(Inst::Vid { vd, vm });
    }
    if funct6 == ops::VMV_S.bits && whole && fits(ops::VMV_S.forms, F3_OPMVV) {
        return Some(Inst::VMvS { vd, src });
    }
    if funct6 == ops::VMERGE.bits && (whole || !vm) && fits(ops::VMERGE.forms, F3_OPIVV) {
        return Some(Inst::VMerge { vd, vs2, src, vm });
    }
    if let Some(row) = ops::VMASK
        .from_bits(funct6)
        .filter(|_| vm && f3 == F3_OPMVV)
    {
        return Some(Inst::VMaskLogical {
            op: row.op,
            vd,
            vs2,
            vs1: vs1(word),
        });
    }
    if let Some(row) = ops::VINT
        .from_bits(funct6)
        .filter(|r| fits(r.forms, F3_OPIVV))
    {
        // A shift's immediate is an unsigned amount.
        let src = match src {
            VSrc::I(_) if row.has(UIMM) => VSrc::I(f19_15 as i8),
            src => src,
        };
        return Some(Inst::VIntOp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VMUL
        .from_bits(funct6)
        .filter(|r| fits(r.forms, F3_OPMVV))
    {
        return Some(Inst::VMulOp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VFP
        .from_bits(funct6)
        .filter(|r| fits(r.forms, F3_OPFVV))
    {
        return Some(Inst::VFpOp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VCMP
        .from_bits(funct6)
        .filter(|r| fits(r.forms, F3_OPIVV))
    {
        return Some(Inst::VMaskCmp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    let row = ops::VFCMP
        .from_bits(funct6)
        .filter(|r| fits(r.forms, F3_OPFVV))?;
    Some(Inst::VFMaskCmp {
        op: row.op,
        vd,
        vs2,
        src,
        vm,
    })
}

fn sext5(field: u32) -> i8 {
    (((field << 3) as u8) as i8) >> 3
}

fn decode_vset(word: u32) -> Option<Inst> {
    let rd = rd_x(word);
    if word >> 31 == 0 {
        Some(Inst::Vsetvli {
            rd,
            rs1: rs1_x(word),
            vtype: VType::from_bits(u64::from((word >> 20) & 0x7ff))?,
        })
    } else if word >> 30 == 0b11 {
        Some(Inst::Vsetivli {
            rd,
            avl: ((word >> 15) & 0x1f) as u8,
            vtype: VType::from_bits(u64::from((word >> 20) & 0x3ff))?,
        })
    } else if word >> 25 == 0b1000000 {
        Some(Inst::Vsetvl {
            rd,
            rs1: rs1_x(word),
            rs2: rs2_x(word),
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::{
        AluOp, AluWOp, BranchOp, CsrOp, FpCvtOp, FpOp, LoadOp, MemWidth, StoreOp, UpperOp, VFpOp,
        VIntOp, VMulOp, VRedOp, VUnaryOp,
    };
    use crate::vtype::Lmul;

    fn x(n: u8) -> XReg {
        XReg::new(n).unwrap()
    }
    fn v(n: u8) -> VReg {
        VReg::new(n).unwrap()
    }
    fn f(n: u8) -> FReg {
        FReg::new(n).unwrap()
    }

    #[test]
    fn decode_golden_words() {
        assert_eq!(
            decode(0x0010_0093).unwrap(),
            Inst::Op {
                op: AluOp::Add,
                rd: x(1),
                rs1: x(0),
                src: XSrc::I(1)
            }
        );
        assert_eq!(
            decode(0xff01_0113).unwrap(),
            Inst::Op {
                op: AluOp::Add,
                rd: x(2),
                rs1: x(2),
                src: XSrc::I(-16)
            }
        );
        let system = |op| Inst::System { op };
        assert_eq!(decode(0x0000_0073).unwrap(), system(SysOp::Ecall));
        assert_eq!(decode(0x0010_0073).unwrap(), system(SysOp::Ebreak));
        // Any MISC-MEM word (here `fence.i`) is a fence.
        assert_eq!(decode(0x0000_100f).unwrap(), system(SysOp::Fence));
    }

    #[test]
    fn undecodable_words_error() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
        // funct3 = 111 load (no such width)
        assert!(decode(0x0000_7003).is_err());
    }

    /// Every instruction we can build round-trips encode → decode.
    #[test]
    fn round_trip_representative_sample() {
        let sample: Vec<Inst> = vec![
            Inst::Upper {
                op: UpperOp::Lui,
                rd: x(7),
                imm: -4096,
            },
            Inst::Upper {
                op: UpperOp::Auipc,
                rd: x(3),
                imm: 0x7ffff000,
            },
            Inst::Jal {
                rd: x(1),
                offset: -2048,
            },
            Inst::Jalr {
                rd: x(0),
                rs1: x(1),
                offset: 0,
            },
            Inst::Branch {
                op: BranchOp::Geu,
                rs1: x(4),
                rs2: x(5),
                offset: 4094,
            },
            Inst::Load {
                op: LoadOp::Lwu,
                rd: 9,
                rs1: x(8),
                offset: -2048,
            },
            Inst::Store {
                op: StoreOp::Sb,
                rs2: 6,
                rs1: x(7),
                offset: 2047,
            },
            Inst::Op {
                op: AluOp::Sra,
                rd: x(1),
                rs1: x(2),
                src: XSrc::I(63),
            },
            Inst::Op {
                op: AluOp::Mulhsu,
                rd: x(1),
                rs1: x(2),
                src: XSrc::X(x(3)),
            },
            Inst::Op32 {
                op: AluWOp::Sraw,
                rd: x(1),
                rs1: x(2),
                src: XSrc::I(31),
            },
            Inst::Op32 {
                op: AluWOp::Remuw,
                rd: x(1),
                rs1: x(2),
                src: XSrc::X(x(3)),
            },
            Inst::System { op: SysOp::Fence },
            Inst::System { op: SysOp::Ecall },
            Inst::System { op: SysOp::Ebreak },
            Inst::Csr {
                op: CsrOp::Rs,
                rd: x(10),
                csr: Csr::MHARTID,
                src: CsrSrc::Reg(x(0)),
            },
            Inst::Csr {
                op: CsrOp::Rw,
                rd: x(0),
                csr: Csr::MSCRATCH,
                src: CsrSrc::Imm(31),
            },
            Inst::Amo {
                op: AmoOp::Add,
                width: MemWidth::D,
                rd: x(10),
                rs1: x(11),
                rs2: x(12),
            },
            Inst::Load {
                op: LoadOp::Fld,
                rd: 5,
                rs1: x(10),
                offset: 16,
            },
            Inst::Store {
                op: StoreOp::Fsd,
                rs2: 5,
                rs1: x(10),
                offset: -8,
            },
            Inst::FpOp {
                op: FpOp::Max,
                rd: 1,
                rs1: f(2),
                rs2: f(3),
            },
            Inst::FpFma {
                op: FmaOp::Nmadd,
                rd: f(1),
                rs1: f(2),
                rs2: f(3),
                rs3: f(4),
            },
            Inst::FpOp {
                op: FpOp::Le,
                rd: 5,
                rs1: f(6),
                rs2: f(7),
            },
            Inst::FpCvt {
                op: FpCvtOp::DFromLu,
                rd: 3,
                rs1: 4,
            },
            Inst::FpCvt {
                op: FpCvtOp::MvXD,
                rd: 5,
                rs1: 6,
            },
            Inst::FpCvt {
                op: FpCvtOp::MvDX,
                rd: 6,
                rs1: 5,
            },
            Inst::Vsetvli {
                rd: x(5),
                rs1: x(10),
                vtype: VType::new(Sew::E64, Lmul::M8),
            },
            Inst::Vsetivli {
                rd: x(5),
                avl: 16,
                vtype: VType::new(Sew::E32, Lmul::M1),
            },
            Inst::Vsetvl {
                rd: x(5),
                rs1: x(10),
                rs2: x(11),
            },
            Inst::VLoad {
                vd: v(8),
                rs1: x(10),
                mode: VAddrMode::Unit,
                eew: Sew::E64,
                vm: true,
            },
            Inst::VLoad {
                vd: v(8),
                rs1: x(10),
                mode: VAddrMode::Strided(x(11)),
                eew: Sew::E32,
                vm: true,
            },
            Inst::VLoad {
                vd: v(8),
                rs1: x(10),
                mode: VAddrMode::Indexed(v(16)),
                eew: Sew::E64,
                vm: false,
            },
            Inst::VStore {
                vs3: v(8),
                rs1: x(10),
                mode: VAddrMode::Unit,
                eew: Sew::E64,
                vm: true,
            },
            Inst::VIntOp {
                op: VIntOp::Add,
                vd: v(1),
                vs2: v(2),
                src: VSrc::V(v(3)),
                vm: true,
            },
            Inst::VIntOp {
                op: VIntOp::Rsub,
                vd: v(1),
                vs2: v(2),
                src: VSrc::X(x(3)),
                vm: false,
            },
            Inst::VIntOp {
                op: VIntOp::Sll,
                vd: v(1),
                vs2: v(2),
                src: VSrc::I(3),
                vm: true,
            },
            Inst::VIntOp {
                op: VIntOp::Add,
                vd: v(1),
                vs2: v(2),
                src: VSrc::I(-16),
                vm: true,
            },
            Inst::VMulOp {
                op: VMulOp::Macc,
                vd: v(1),
                vs2: v(2),
                src: VSrc::V(v(3)),
                vm: true,
            },
            Inst::VFpOp {
                op: VFpOp::Macc,
                vd: v(1),
                vs2: v(2),
                src: VSrc::F(f(3)),
                vm: true,
            },
            Inst::VRed {
                op: VRedOp::Sum,
                vd: v(1),
                vs2: v(2),
                vs1: v(3),
                vm: true,
            },
            Inst::VRed {
                op: VRedOp::FUSum,
                vd: v(1),
                vs2: v(2),
                vs1: v(3),
                vm: true,
            },
            Inst::VMerge {
                vd: v(1),
                vs2: v(2),
                src: VSrc::I(-5),
                vm: false,
            },
            Inst::VMerge {
                vd: v(1),
                vs2: VReg::V0,
                src: VSrc::F(f(2)),
                vm: true,
            },
            Inst::VUnary {
                op: VUnaryOp::MvXS,
                rd: 1,
                vs2: v(2),
                vm: true,
            },
            Inst::VMvS {
                vd: v(1),
                src: VSrc::X(x(2)),
            },
            Inst::VUnary {
                op: VUnaryOp::FMvFS,
                rd: 1,
                vs2: v(2),
                vm: true,
            },
            Inst::VMvS {
                vd: v(1),
                src: VSrc::F(f(2)),
            },
            Inst::VUnary {
                op: VUnaryOp::Cpop,
                rd: 10,
                vs2: v(4),
                vm: false,
            },
            Inst::VUnary {
                op: VUnaryOp::First,
                rd: 11,
                vs2: v(4),
                vm: true,
            },
            Inst::Vid { vd: v(1), vm: true },
        ];
        for inst in sample {
            let word = encode(&inst).unwrap();
            let back = decode(word).unwrap_or_else(|e| panic!("decode of {inst:?}: {e}"));
            assert_eq!(back, inst, "round-trip through {word:#010x}");
        }
    }

    #[test]
    fn vector_shift_imm_decodes_unsigned() {
        let inst = Inst::VIntOp {
            op: VIntOp::Srl,
            vd: v(4),
            vs2: v(5),
            src: VSrc::I(17),
            vm: true,
        };
        let word = encode(&inst).unwrap();
        assert_eq!(decode(word).unwrap(), inst);
    }
}
