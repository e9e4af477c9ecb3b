//! Disassembler: [`Inst`] → assembler text.
//!
//! The output uses the same syntax the `coyote-asm` crate parses, so
//! `assemble(inst.to_string())` reproduces the instruction; that
//! round-trip is property-tested in the assembler crate.

use std::fmt;

use crate::inst::{AmoOp, CsrSrc, Inst, VAddrMode, VSrc, XSrc};
use crate::ops;
use crate::reg::{FReg, VReg, XReg};
use crate::vtype::Sew;

fn mask_suffix(vm: bool) -> &'static str {
    if vm {
        ""
    } else {
        ", v0.t"
    }
}

impl fmt::Display for VSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VSrc::V(vs1) => write!(f, "{vs1}"),
            VSrc::X(rs1) => write!(f, "{rs1}"),
            VSrc::F(rs1) => write!(f, "{rs1}"),
            VSrc::I(imm) => write!(f, "{imm}"),
        }
    }
}

/// `name.form vd, vs2, src[, v0.t]`, the shape of every vector
/// arithmetic and compare instruction.
fn varith(
    f: &mut fmt::Formatter<'_>,
    name: &str,
    src: VSrc,
    (vd, vs2): (VReg, VReg),
    vm: bool,
) -> fmt::Result {
    let form = src.suffix();
    write!(f, "{name}{form} {vd}, {vs2}, {src}{}", mask_suffix(vm))
}

/// Vector load (`dir` = `l`) or store (`s`) of register `reg`.
fn vmem(
    f: &mut fmt::Formatter<'_>,
    dir: char,
    (reg, rs1): (VReg, XReg),
    mode: VAddrMode,
    eew: Sew,
    vm: bool,
) -> fmt::Result {
    let kind = ops::VMEM_MODE.mode(mode).name;
    let bits = ops::VMEM_EEW.row(eew).name;
    write!(f, "v{dir}{kind}{bits}.v {reg}, ({rs1})")?;
    match mode {
        VAddrMode::Unit => Ok(()),
        VAddrMode::Strided(rs2) => write!(f, ", {rs2}"),
        VAddrMode::Indexed(v2) => write!(f, ", {v2}"),
    }?;
    f.write_str(mask_suffix(vm))
}

/// `vf` for an `f`-register source, `v` otherwise: the mnemonic prefix
/// of the merges and moves.
fn fp_prefix(src: VSrc) -> &'static str {
    if let VSrc::F(_) = src {
        "vf"
    } else {
        "v"
    }
}

/// A raw register index printed as an `f` or `x` register.
fn raw_reg(index: u8, float: bool) -> String {
    if float {
        FReg::new(index).map(|r| r.to_string())
    } else {
        XReg::new(index).map(|r| r.to_string())
    }
    .unwrap_or_else(|_| format!("?{index}"))
}

impl fmt::Display for XSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XSrc::X(rs2) => write!(f, "{rs2}"),
            XSrc::I(imm) => write!(f, "{imm}"),
        }
    }
}

/// The mnemonic of `row` in operand form `src`: the register form's
/// name, or the immediate form's.
fn alu_name<T>(row: &ops::Row<T>, src: XSrc) -> &'static str {
    match src {
        XSrc::X(_) => row.name,
        XSrc::I(_) => row.imm.unwrap_or("op-imm?"),
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Upper { op, rd, imm } => {
                let name = ops::UPPER.row(op).name;
                write!(f, "{name} {rd}, {:#x}", (imm >> 12) & 0xfffff)
            }
            Inst::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", ops::BRANCH.row(op).name),
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let rd = raw_reg(rd, op.rd_is_f());
                write!(f, "{} {rd}, {offset}({rs1})", ops::LOAD.row(op).name)
            }
            Inst::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let rs2 = raw_reg(rs2, op.rs2_is_f());
                write!(f, "{} {rs2}, {offset}({rs1})", ops::STORE.row(op).name)
            }
            Inst::Op { op, rd, rs1, src } => {
                let name = alu_name(ops::ALU.row(op), src);
                write!(f, "{name} {rd}, {rs1}, {src}")
            }
            Inst::Op32 { op, rd, rs1, src } => {
                let name = alu_name(ops::ALU_W.row(op), src);
                write!(f, "{name} {rd}, {rs1}, {src}")
            }
            Inst::System { op } => f.write_str(ops::SYSTEM.row(op).name),
            Inst::Csr { op, rd, csr, src } => {
                let row = ops::CSR.row(op);
                match src {
                    CsrSrc::Reg(rs1) => write!(f, "{} {rd}, {csr}, {rs1}", row.name),
                    CsrSrc::Imm(z) => write!(f, "{} {rd}, {csr}, {z}", row.imm.unwrap_or("?")),
                }
            }
            Inst::Amo {
                op,
                width,
                rd,
                rs1,
                rs2,
            } => {
                let name = ops::AMO.row(op).name;
                let suffix = ops::AMO_WIDTH.get(width).map_or("?", |r| r.name);
                if op == AmoOp::Lr {
                    write!(f, "{name}.{suffix} {rd}, ({rs1})")
                } else {
                    write!(f, "{name}.{suffix} {rd}, {rs2}, ({rs1})")
                }
            }
            Inst::FpOp { op, rd, rs1, rs2 } => {
                let rd = raw_reg(rd, op.rd_is_f());
                write!(f, "{} {rd}, {rs1}, {rs2}", ops::FP.row(op).name)
            }
            Inst::FpFma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => write!(f, "{} {rd}, {rs1}, {rs2}, {rs3}", ops::FMA.row(op).name),
            Inst::FpCvt { op, rd, rs1 } => {
                // rd/rs1 are raw indices; render with the class each side
                // of the conversion uses.
                let f_rd = op.rd_is_f();
                let (rd, rs1) = (raw_reg(rd, f_rd), raw_reg(rs1, !f_rd));
                write!(f, "{} {rd}, {rs1}", ops::FP_CVT.row(op).name)
            }
            Inst::Vsetvli { rd, rs1, vtype } => write!(f, "vsetvli {rd}, {rs1}, {vtype}"),
            Inst::Vsetivli { rd, avl, vtype } => write!(f, "vsetivli {rd}, {avl}, {vtype}"),
            Inst::Vsetvl { rd, rs1, rs2 } => write!(f, "vsetvl {rd}, {rs1}, {rs2}"),
            Inst::VLoad {
                vd,
                rs1,
                mode,
                eew,
                vm,
            } => vmem(f, 'l', (vd, rs1), mode, eew, vm),
            Inst::VStore {
                vs3,
                rs1,
                mode,
                eew,
                vm,
            } => vmem(f, 's', (vs3, rs1), mode, eew, vm),
            Inst::VArith {
                op,
                vd,
                vs2,
                src,
                vm,
            } => varith(f, ops::VARITH.row(op).name, src, (vd, vs2), vm),
            Inst::VRed {
                op,
                vd,
                vs2,
                vs1,
                vm,
            } => {
                let name = ops::VRED.row(op).name;
                write!(f, "{name}.vs {vd}, {vs2}, {vs1}{}", mask_suffix(vm))
            }
            // `vfmerge.vfm`, `vmv.v.x`, …: an `f` source prefixes `vf`,
            // the splat prints the form's last letter only.
            Inst::VMerge { vd, vs2, src, vm } => {
                let (v, form) = (fp_prefix(src), src.suffix());
                if vm {
                    write!(f, "{v}mv.v.{} {vd}, {src}", &form[2..])
                } else {
                    write!(f, "{v}merge{form}m {vd}, {vs2}, {src}, v0")
                }
            }
            Inst::VUnary { op, rd, vs2, vm } => {
                let (name, rd) = (ops::VUNARY.row(op).name, raw_reg(rd, op.rd_is_f()));
                write!(f, "{name} {rd}, {vs2}{}", mask_suffix(vm))
            }
            Inst::VMvS { vd, src } => {
                let (v, form) = (fp_prefix(src), src.suffix());
                write!(f, "{v}mv.s.{} {vd}, {src}", &form[2..])
            }
            Inst::Vid { vd, vm } => write!(f, "vid.v {vd}{}", mask_suffix(vm)),
            Inst::VMaskLogical { op, vd, vs2, vs1 } => {
                write!(f, "{}.mm {vd}, {vs2}, {vs1}", ops::VMASK.row(op).name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, FmaOp, FpCvtOp, FpOp, LoadOp, VArithOp, VIntOp};
    use crate::vtype::{Lmul, VType};

    fn x(n: u8) -> XReg {
        XReg::new(n).unwrap()
    }
    fn v(n: u8) -> VReg {
        VReg::new(n).unwrap()
    }

    #[test]
    fn scalar_disassembly() {
        let inst = Inst::Op {
            op: AluOp::Add,
            rd: x(2),
            rs1: x(2),
            src: XSrc::I(-16),
        };
        assert_eq!(inst.to_string(), "addi sp, sp, -16");

        let inst = Inst::Load {
            op: LoadOp::Ld,
            rd: 10,
            rs1: x(2),
            offset: 8,
        };
        assert_eq!(inst.to_string(), "ld a0, 8(sp)");

        let inst = Inst::FpOp {
            op: FpOp::Eq,
            rd: 10,
            rs1: FReg::new(1).unwrap(),
            rs2: FReg::new(2).unwrap(),
        };
        assert_eq!(inst.to_string(), "feq.d a0, ft1, ft2");
    }

    #[test]
    fn vector_disassembly() {
        let inst = Inst::VLoad {
            vd: v(8),
            rs1: x(10),
            mode: VAddrMode::Unit,
            eew: Sew::E64,
            vm: true,
        };
        assert_eq!(inst.to_string(), "vle64.v v8, (a0)");

        let inst = Inst::VLoad {
            vd: v(8),
            rs1: x(10),
            mode: VAddrMode::Indexed(v(16)),
            eew: Sew::E64,
            vm: true,
        };
        assert_eq!(inst.to_string(), "vluxei64.v v8, (a0), v16");

        let inst = Inst::Vsetvli {
            rd: x(5),
            rs1: x(10),
            vtype: VType::new(Sew::E64, Lmul::M1),
        };
        assert_eq!(inst.to_string(), "vsetvli t0, a0, e64,m1,ta,ma");
    }

    #[test]
    fn masked_op_gets_v0t_suffix() {
        let inst = Inst::VArith {
            op: VArithOp::Int(VIntOp::Add),
            vd: v(1),
            vs2: v(2),
            src: VSrc::V(v(3)),
            vm: false,
        };
        assert_eq!(inst.to_string(), "vadd.vv v1, v2, v3, v0.t");
    }

    #[test]
    fn fp_disassembly() {
        let inst = Inst::FpFma {
            op: FmaOp::Madd,
            rd: FReg::new(1).unwrap(),
            rs1: FReg::new(2).unwrap(),
            rs2: FReg::new(3).unwrap(),
            rs3: FReg::new(4).unwrap(),
        };
        assert_eq!(inst.to_string(), "fmadd.d ft1, ft2, ft3, ft4");

        let inst = Inst::FpCvt {
            op: FpCvtOp::DFromL,
            rd: 1,
            rs1: 10,
        };
        assert_eq!(inst.to_string(), "fcvt.d.l ft1, a0");
    }
}
