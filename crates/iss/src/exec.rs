//! Functional execution semantics.
//!
//! [`execute`] applies one decoded instruction to a [`Hart`] and the
//! shared [`SparseMemory`], reporting the data-memory accesses
//! performed and the destination register written, which the timing
//! layer (L1 caches + RAW scoreboard + event-driven hierarchy) uses to
//! drive the Coyote cycle loop. The scalar shapes a fused run can hold
//! execute in [`execute_scalar`] as pre-resolved uops: `execute` lowers
//! them with [`Uop::from_inst`], and the fused retirement runs the run
//! table's uops directly.
//!
//! Floating-point notes: the simulator computes with host `f64`
//! arithmetic. Arithmetic uses round-to-nearest-even (the canonical
//! dynamic rounding the encoder emits); float→int conversions use
//! round-toward-zero with saturation, matching RISC-V `rtz` semantics
//! for in-range values. `fmin`/`fmax` follow IEEE `minNum`/`maxNum` for
//! non-NaN inputs. Arithmetic that produces a NaN returns the canonical
//! NaN `0x7ff8_0000_0000_0000`, as RISC-V requires, so no result depends on
//! which input payload the host's operand order propagates; sign
//! injection and moves stay bit-exact.

use std::fmt;

use coyote_isa::inst::{
    AluOp, AluWOp, AmoOp, CsrOp, CsrSrc, FmaOp, FpCvtOp, FpOp, Inst, MemWidth, SysOp, VAddrMode,
    VArithOp, VCmpOp, VFCmpOp, VFpOp, VIntOp, VMaskOp, VMulOp, VRedOp, VSrc, VUnaryOp,
};
use coyote_isa::{FReg, Sew, Uop, VReg, VType, XReg};

use crate::hart::Hart;
use crate::mem::SparseMemory;

/// One data-memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// `true` for stores (and the store half of atomics).
    pub write: bool,
    /// `true` for read-modify-write accesses (writing atomics): the
    /// destination register carries the pre-store memory value, so it
    /// depends on the line fill exactly like a load even though the
    /// access also writes.
    pub rmw: bool,
}

/// Destination register written by an instruction, for scoreboarding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Integer register.
    X(XReg),
    /// Floating-point register.
    F(FReg),
    /// Vector register group (base register + group length).
    V(VReg, u8),
}

/// Environment-call request raised by `ecall` under the proxy-kernel
/// convention Coyote's baremetal kernels use (`a7` = syscall number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ecall {
    /// `a7 = 93`: exit with the code in `a0`.
    Exit(i64),
    /// `a7 = 64`: write the byte in `a0` to the console.
    PutChar(u8),
    /// Any other syscall number (treated as a no-op by the simulator).
    Unknown(u64),
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Effects {
    /// Destination register, if any, for RAW tracking of loads.
    pub dest: Option<Dest>,
    /// Raised environment call, if the instruction was `ecall`.
    pub ecall: Option<Ecall>,
    /// Whether control flow was redirected (taken branch or jump).
    pub branched: bool,
}

/// Error from executing an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A vector FP operation needs SEW=64.
    FpVectorNeedsE64,
    /// The register group starting at `reg` holds fewer than `vl`
    /// elements before the register file ends at `v31`.
    GroupPastV31 {
        /// First register of the group.
        reg: VReg,
    },
    /// `vsetvl` asked for a `vtype` the model does not implement: a
    /// reserved SEW or LMUL, or any bit above bit 7 set (`vill`
    /// included). The hardware would set `vill`; the model has no such
    /// state.
    UnsupportedVtype {
        /// The requested `vtype` register value.
        value: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::FpVectorNeedsE64 => {
                write!(f, "vector floating-point requires e64 elements")
            }
            ExecError::GroupPastV31 { reg } => {
                write!(f, "vector register group at {reg} runs past v31")
            }
            ExecError::UnsupportedVtype { value } => {
                write!(f, "vsetvl: unsupported vtype {value:#x}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

pub use coyote_isa::RegSet;

/// Vector register group length implied by the hart's current LMUL.
fn group_len(hart: &Hart) -> u8 {
    hart.vtype.lmul.group_len() as u8
}

/// Registers read by `inst` (for RAW-hazard detection).
#[must_use]
pub fn uses(inst: &Inst, hart: &Hart) -> RegSet {
    coyote_isa::predecode::uses_with_group(inst, group_len(hart))
}

/// Registers written by `inst` (for WAW-hazard detection against pending
/// fills).
#[must_use]
pub fn defs(inst: &Inst, hart: &Hart) -> RegSet {
    coyote_isa::predecode::defs_with_group(inst, group_len(hart))
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a << (b & 63),
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a >> (b & 63),
        AluOp::Sra => ((a as i64) >> (b & 63)) as u64,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => ((i128::from(a as i64) * i128::from(b as i64)) >> 64) as u64,
        AluOp::Mulhsu => ((i128::from(a as i64) * i128::from(b)) >> 64) as u64,
        AluOp::Mulhu => ((u128::from(a) * u128::from(b)) >> 64) as u64,
        AluOp::Div => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                u64::MAX
            } else if a == i64::MIN && b == -1 {
                a as u64
            } else {
                (a / b) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                a as u64
            } else if a == i64::MIN && b == -1 {
                0
            } else {
                (a % b) as u64
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn alu_w(op: AluWOp, a: u64, b: u64) -> u64 {
    let a32 = a as i32;
    let b32 = b as i32;
    let result = match op {
        AluWOp::Addw => a32.wrapping_add(b32),
        AluWOp::Subw => a32.wrapping_sub(b32),
        AluWOp::Sllw => a32.wrapping_shl(b as u32 & 31),
        AluWOp::Srlw => ((a32 as u32).wrapping_shr(b as u32 & 31)) as i32,
        AluWOp::Sraw => a32.wrapping_shr(b as u32 & 31),
        AluWOp::Mulw => a32.wrapping_mul(b32),
        AluWOp::Divw => {
            if b32 == 0 {
                -1
            } else if a32 == i32::MIN && b32 == -1 {
                a32
            } else {
                a32 / b32
            }
        }
        AluWOp::Divuw => {
            if b32 == 0 {
                -1
            } else {
                ((a32 as u32) / (b32 as u32)) as i32
            }
        }
        AluWOp::Remw => {
            if b32 == 0 {
                a32
            } else if a32 == i32::MIN && b32 == -1 {
                0
            } else {
                a32 % b32
            }
        }
        AluWOp::Remuw => {
            if b32 == 0 {
                a32
            } else {
                ((a32 as u32) % (b32 as u32)) as i32
            }
        }
    };
    result as i64 as u64
}

#[inline]
fn load_value(mem: &mut SparseMemory, addr: u64, width: MemWidth, signed: bool) -> u64 {
    match (width, signed) {
        (MemWidth::B, true) => mem.read_u8(addr) as i8 as i64 as u64,
        (MemWidth::B, false) => u64::from(mem.read_u8(addr)),
        (MemWidth::H, true) => mem.read_u16(addr) as i16 as i64 as u64,
        (MemWidth::H, false) => u64::from(mem.read_u16(addr)),
        (MemWidth::W, true) => mem.read_u32(addr) as i32 as i64 as u64,
        (MemWidth::W, false) => u64::from(mem.read_u32(addr)),
        (MemWidth::D, _) => mem.read_u64(addr),
    }
}

#[inline]
fn store_value(mem: &mut SparseMemory, addr: u64, width: MemWidth, value: u64) {
    match width {
        MemWidth::B => mem.write_u8(addr, value as u8),
        MemWidth::H => mem.write_u16(addr, value as u16),
        MemWidth::W => mem.write_u32(addr, value as u32),
        MemWidth::D => mem.write_u64(addr, value),
    }
}

/// The memory access width of one vector element of width `eew`.
fn elem_width(eew: Sew) -> MemWidth {
    match eew {
        Sew::E8 => MemWidth::B,
        Sew::E16 => MemWidth::H,
        Sew::E32 => MemWidth::W,
        Sew::E64 => MemWidth::D,
    }
}

/// What [`execute_scalar`] did: the [`Effects`] of a scalar
/// instruction, which never raises an environment call, plus the one
/// data access it may make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar {
    /// Destination register, if any.
    pub dest: Option<Dest>,
    /// The data-memory access, for loads and stores.
    pub access: Option<MemAccess>,
    /// Whether control flow was redirected (taken branch or jump).
    pub branched: bool,
}

/// The scalar kernel: executes one pre-resolved [`Uop`] — the shapes a
/// fused run can hold, with the operand form and every register file
/// decided at predecode time, so nothing here branches on them.
///
/// None of the shapes can fail, and none reads the counter CSRs. Their
/// semantics are spelled here only: [`execute`] lowers a scalar
/// instruction to its uop and runs it here, and the fused retirement
/// (`Core::step_block`) runs the run table's uops directly, so a fused
/// instruction neither enters the function that also implements every
/// vector, CSR and AMO op nor builds [`Effects`] or pushes a
/// [`MemAccess`] it would not read.
#[inline]
pub fn execute_scalar(hart: &mut Hart, mem: &mut SparseMemory, uop: Uop) -> Scalar {
    let mut done = Scalar {
        dest: None,
        access: None,
        branched: false,
    };
    let mut next_pc = hart.pc.wrapping_add(4);
    match uop {
        Uop::Lui { rd, imm } => done.dest = Some(set_x(hart, rd, imm as u64)),
        Uop::Auipc { rd, imm } => {
            done.dest = Some(set_x(hart, rd, hart.pc.wrapping_add(imm as u64)));
        }
        Uop::Jal { rd, offset } => {
            done.dest = Some(set_x(hart, rd, next_pc));
            next_pc = hart.pc.wrapping_add(offset as i64 as u64);
            done.branched = true;
        }
        Uop::Jalr { rd, rs1, offset } => {
            let target = hart.x(rs1).wrapping_add(offset as i64 as u64) & !1;
            done.dest = Some(set_x(hart, rd, next_pc));
            next_pc = target;
            done.branched = true;
        }
        Uop::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            if op.taken(hart.x(rs1), hart.x(rs2)) {
                next_pc = hart.pc.wrapping_add(offset as i64 as u64);
                done.branched = true;
            }
        }
        Uop::LoadX {
            op,
            rd,
            rs1,
            offset,
        } => {
            let addr = hart.x(rs1).wrapping_add(offset as i64 as u64);
            let value = load_value(mem, addr, op.width(), op.signed());
            done.dest = Some(set_x(hart, rd, value));
            done.access = Some(data_access(addr, op.width(), false));
        }
        Uop::LoadF {
            op,
            rd,
            rs1,
            offset,
        } => {
            let addr = hart.x(rs1).wrapping_add(offset as i64 as u64);
            let value = load_value(mem, addr, op.width(), op.signed());
            done.dest = Some(set_f_bits(hart, rd, value));
            done.access = Some(data_access(addr, op.width(), false));
        }
        Uop::StoreX {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let addr = hart.x(rs1).wrapping_add(offset as i64 as u64);
            store_value(mem, addr, op.width(), hart.x(rs2));
            done.access = Some(data_access(addr, op.width(), true));
        }
        Uop::StoreF {
            op,
            rs2,
            rs1,
            offset,
        } => {
            let addr = hart.x(rs1).wrapping_add(offset as i64 as u64);
            store_value(mem, addr, op.width(), hart.f_bits(rs2));
            done.access = Some(data_access(addr, op.width(), true));
        }
        Uop::OpX { op, rd, rs1, rs2 } => {
            done.dest = Some(set_x(hart, rd, alu(op, hart.x(rs1), hart.x(rs2))));
        }
        Uop::OpI { op, rd, rs1, imm } => {
            done.dest = Some(set_x(hart, rd, alu(op, hart.x(rs1), imm as i64 as u64)));
        }
        Uop::Op32X { op, rd, rs1, rs2 } => {
            done.dest = Some(set_x(hart, rd, alu_w(op, hart.x(rs1), hart.x(rs2))));
        }
        Uop::Op32I { op, rd, rs1, imm } => {
            done.dest = Some(set_x(hart, rd, alu_w(op, hart.x(rs1), imm as i64 as u64)));
        }
        Uop::FpF { op, rd, rs1, rs2 } => {
            done.dest = Some(set_f_bits(hart, rd, fp_op(op, hart.f(rs1), hart.f(rs2))));
        }
        Uop::FpX { op, rd, rs1, rs2 } => {
            done.dest = Some(set_x(hart, rd, fp_op(op, hart.f(rs1), hart.f(rs2))));
        }
        Uop::Fma {
            op,
            rd,
            rs1,
            rs2,
            rs3,
        } => {
            let (a, b, c) = (hart.f(rs1), hart.f(rs2), hart.f(rs3));
            let result = match op {
                FmaOp::Madd => a.mul_add(b, c),
                FmaOp::Msub => a.mul_add(b, -c),
                FmaOp::Nmsub => (-a).mul_add(b, c),
                FmaOp::Nmadd => (-a).mul_add(b, -c),
            };
            hart.set_f(rd, canonical(result));
            done.dest = Some(Dest::F(rd));
        }
        Uop::CvtF { op, rd, rs1 } => {
            done.dest = Some(set_f_bits(hart, rd, fp_cvt(op, hart.x(rs1))));
        }
        Uop::CvtX { op, rd, rs1 } => {
            done.dest = Some(set_x(hart, rd, fp_cvt(op, hart.f_bits(rs1))));
        }
    }
    hart.pc = next_pc;
    done
}

/// Writes `x[rd]` and names it as the destination.
#[inline]
fn set_x(hart: &mut Hart, rd: XReg, value: u64) -> Dest {
    hart.set_x(rd, value);
    Dest::X(rd)
}

/// Writes `f[rd]`'s bits and names it as the destination.
#[inline]
fn set_f_bits(hart: &mut Hart, rd: FReg, bits: u64) -> Dest {
    hart.set_f_bits(rd, bits);
    Dest::F(rd)
}

/// The access of a scalar load or store.
#[inline]
fn data_access(addr: u64, width: MemWidth, write: bool) -> MemAccess {
    MemAccess {
        addr,
        size: width.bytes() as u8,
        write,
        rmw: false,
    }
}

/// A two-operand double op's result bits: a double, or 0/1 for a compare.
#[inline]
fn fp_op(op: FpOp, a: f64, b: f64) -> u64 {
    match op {
        FpOp::Add => canonical(a + b).to_bits(),
        FpOp::Sub => canonical(a - b).to_bits(),
        FpOp::Mul => canonical(a * b).to_bits(),
        FpOp::Div => canonical(a / b).to_bits(),
        FpOp::Sgnj => a.copysign(b).to_bits(),
        FpOp::Sgnjn => a.copysign(-b).to_bits(),
        FpOp::Sgnjx => a.to_bits() ^ (b.to_bits() & (1 << 63)),
        FpOp::Min => canonical(a.min(b)).to_bits(),
        FpOp::Max => canonical(a.max(b)).to_bits(),
        FpOp::Eq => u64::from(a == b),
        FpOp::Lt => u64::from(a < b),
        FpOp::Le => u64::from(a <= b),
    }
}

/// A conversion's result bits from its source register's bits (an
/// integer, or a double's bits).
#[inline]
fn fp_cvt(op: FpCvtOp, src: u64) -> u64 {
    let d = f64::from_bits(src);
    match op {
        FpCvtOp::DFromL => (src as i64 as f64).to_bits(),
        FpCvtOp::DFromLu => (src as f64).to_bits(),
        FpCvtOp::DFromW => (src as i32 as f64).to_bits(),
        FpCvtOp::MvDX | FpCvtOp::MvXD => src,
        FpCvtOp::LFromD => d as i64 as u64,
        FpCvtOp::LuFromD => d as u64,
        FpCvtOp::WFromD => d as i32 as i64 as u64,
    }
}

/// Executes one instruction on `hart`, mutating `mem`.
///
/// `accesses` is cleared and refilled with the data-memory accesses the
/// instruction performed (an out-buffer so the hot simulation loop does
/// not allocate). `cycle`/`instret` feed the counter CSRs.
///
/// # Errors
///
/// Returns [`ExecError`] for a vector floating-point operation at an
/// element width other than 64 bits, a vector register group that runs
/// past `v31`, or a `vsetvl` to an unsupported `vtype`. The instruction
/// is not retired in that case.
pub fn execute(
    hart: &mut Hart,
    mem: &mut SparseMemory,
    inst: &Inst,
    cycle: u64,
    instret: u64,
    accesses: &mut Vec<MemAccess>,
) -> Result<Effects, ExecError> {
    accesses.clear();
    if let Some(uop) = Uop::from_inst(inst) {
        let done = execute_scalar(hart, mem, uop);
        accesses.extend(done.access);
        return Ok(Effects {
            dest: done.dest,
            ecall: None,
            branched: done.branched,
        });
    }
    let mut fx = Effects::default();
    match *inst {
        // Lowered to a uop and executed by the scalar kernel above.
        Inst::Upper { .. }
        | Inst::Jal { .. }
        | Inst::Jalr { .. }
        | Inst::Branch { .. }
        | Inst::Load { .. }
        | Inst::Store { .. }
        | Inst::Op { .. }
        | Inst::Op32 { .. }
        | Inst::FpOp { .. }
        | Inst::FpFma { .. }
        | Inst::FpCvt { .. } => {}
        Inst::System { op } => {
            fx.ecall = match op {
                SysOp::Fence => None,
                SysOp::Ecall => {
                    let arg = hart.x(XReg::A0);
                    Some(match hart.x(XReg::A7) {
                        93 => Ecall::Exit(arg as i64),
                        64 => Ecall::PutChar(arg as u8),
                        other => Ecall::Unknown(other),
                    })
                }
                SysOp::Ebreak => Some(Ecall::Exit(-1)),
            };
        }
        Inst::Csr { op, rd, csr, src } => {
            let old = hart.read_csr(csr, cycle, instret);
            let operand = match src {
                CsrSrc::Reg(rs1) => hart.x(rs1),
                CsrSrc::Imm(z) => u64::from(z),
            };
            let new = match op {
                CsrOp::Rw => Some(operand),
                CsrOp::Rs => (operand != 0).then_some(old | operand),
                CsrOp::Rc => (operand != 0).then_some(old & !operand),
            };
            if let Some(v) = new {
                hart.write_csr(csr, v);
            }
            hart.set_x(rd, old);
            fx.dest = Some(Dest::X(rd));
        }
        Inst::Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        } => {
            let addr = hart.x(rs1);
            let old = load_value(mem, addr, width, true);
            let src = hart.x(rs2);
            let new = match op {
                AmoOp::Lr => None,
                AmoOp::Sc => Some(src),
                AmoOp::Swap => Some(src),
                AmoOp::Add => Some(old.wrapping_add(src)),
                AmoOp::Xor => Some(old ^ src),
                AmoOp::And => Some(old & src),
                AmoOp::Or => Some(old | src),
                AmoOp::Min => Some(if (old as i64) <= (src as i64) {
                    old
                } else {
                    src
                }),
                AmoOp::Max => Some(if (old as i64) >= (src as i64) {
                    old
                } else {
                    src
                }),
                AmoOp::Minu => Some(old.min(src)),
                AmoOp::Maxu => Some(old.max(src)),
            };
            let is_write = new.is_some();
            if let Some(v) = new {
                store_value(mem, addr, width, v);
            }
            // sc writes rd = 0 (success: the in-order single-memory model
            // makes every reservation succeed); others return the old value.
            hart.set_x(rd, if op == AmoOp::Sc { 0 } else { old });
            accesses.push(MemAccess {
                addr,
                size: width.bytes() as u8,
                write: is_write,
                rmw: is_write,
            });
            fx.dest = Some(Dest::X(rd));
        }
        Inst::Vsetvli { rd, rs1, vtype } => {
            let avl = avl(hart, rd, rs1);
            hart.vtype = vtype;
            hart.vl = avl.min(vtype.vlmax(hart.vlen_bits()));
            hart.set_x(rd, hart.vl);
            fx.dest = Some(Dest::X(rd));
        }
        Inst::Vsetivli { rd, avl, vtype } => {
            hart.vtype = vtype;
            hart.vl = u64::from(avl).min(vtype.vlmax(hart.vlen_bits()));
            hart.set_x(rd, hart.vl);
            fx.dest = Some(Dest::X(rd));
        }
        Inst::Vsetvl { rd, rs1, rs2 } => {
            let value = hart.x(rs2);
            let vtype = VType::from_bits(value)
                .filter(|_| value >> 8 == 0)
                .ok_or(ExecError::UnsupportedVtype { value })?;
            let avl = avl(hart, rd, rs1);
            hart.vtype = vtype;
            hart.vl = avl.min(vtype.vlmax(hart.vlen_bits()));
            hart.set_x(rd, hart.vl);
            fx.dest = Some(Dest::X(rd));
        }
        Inst::VLoad {
            vd,
            rs1,
            mode,
            eew,
            vm,
        } => {
            let base = hart.x(rs1);
            let bytes = eew.bytes();
            let width = elem_width(eew);
            in_file(hart, bytes, &[Some(vd), index_reg(mode)])?;
            for i in 0..hart.vl {
                if !vm && !hart.v0_mask_bit(i) {
                    continue;
                }
                let addr = vector_elem_addr(hart, base, mode, eew, i);
                hart.set_v_elem(vd, i, bytes, load_value(mem, addr, width, false));
                accesses.push(MemAccess {
                    addr,
                    size: bytes as u8,
                    write: false,
                    rmw: false,
                });
            }
            fx.dest = Some(Dest::V(vd, vmem_group_len(hart, eew)));
        }
        Inst::VStore {
            vs3,
            rs1,
            mode,
            eew,
            vm,
        } => {
            let base = hart.x(rs1);
            let bytes = eew.bytes();
            let width = elem_width(eew);
            in_file(hart, bytes, &[Some(vs3), index_reg(mode)])?;
            for i in 0..hart.vl {
                if !vm && !hart.v0_mask_bit(i) {
                    continue;
                }
                let addr = vector_elem_addr(hart, base, mode, eew, i);
                store_value(mem, addr, width, hart.v_elem(vs3, i, bytes));
                accesses.push(MemAccess {
                    addr,
                    size: bytes as u8,
                    write: true,
                    rmw: false,
                });
            }
        }
        Inst::VArith {
            op,
            vd,
            vs2,
            src,
            vm,
        } => {
            let sew = hart.vtype.sew;
            if matches!(op, VArithOp::Fp(_) | VArithOp::FCmp(_)) && sew != Sew::E64 {
                return Err(ExecError::FpVectorNeedsE64);
            }
            // A compare writes one mask register, whatever the group length.
            let mask = op.writes_mask();
            let dest = (!mask).then_some(vd);
            in_file(hart, sew.bytes(), &[dest, Some(vs2), vector(src)])?;
            let regs = (vd, vs2, src);
            match op {
                VArithOp::Int(op) => vint_loop(hart, op, regs, vm),
                VArithOp::Mul(op) => vacc_loop(hart, regs, vm, |acc, b2, b1| {
                    // An `x` operand takes part with all 64 bits.
                    let b1 = match src {
                        VSrc::V(_) => sext(b1, sew),
                        _ => b1 as i64,
                    };
                    vmul_op(op, sext(acc, sew), b1, sext(b2, sew), sew) as u64
                }),
                VArithOp::Fp(op) => vacc_loop(hart, regs, vm, |acc, b2, b1| {
                    let [acc, b2, b1] = [acc, b2, b1].map(f64::from_bits);
                    vfp_op(op, acc, b2, b1).to_bits()
                }),
                VArithOp::Cmp(op) => vcmp_loop(hart, regs, vm, |a, b| {
                    vint_compare(op, a, b & mask_for(sew), sew)
                }),
                VArithOp::FCmp(op) => vcmp_loop(hart, regs, vm, |a, b| {
                    vfp_compare(op, f64::from_bits(a), f64::from_bits(b))
                }),
            }
            fx.dest = Some(Dest::V(vd, if mask { 1 } else { group_len(hart) }));
        }
        Inst::VRed {
            op,
            vd,
            vs2,
            vs1,
            vm,
        } => {
            let sew = hart.vtype.sew;
            if op == VRedOp::FUSum && sew != Sew::E64 {
                return Err(ExecError::FpVectorNeedsE64);
            }
            let bytes = sew.bytes();
            in_file(hart, bytes, &[Some(vs2)])?;
            let seed = hart.v_elem(vs1, 0, bytes);
            let active = (0..hart.vl).filter(|&i| vm || hart.v0_mask_bit(i));
            let elems = active.map(|i| hart.v_elem(vs2, i, bytes));
            let sum = match op {
                VRedOp::Sum => elems.fold(seed, u64::wrapping_add) & mask_for(sew),
                // A NaN, once in the sum, stays: canonicalizing the total
                // is canonicalizing every step.
                VRedOp::FUSum => {
                    let add = |acc: f64, e: u64| acc + f64::from_bits(e);
                    canonical(elems.fold(f64::from_bits(seed), add)).to_bits()
                }
            };
            hart.set_v_elem(vd, 0, bytes, sum);
            fx.dest = Some(Dest::V(vd, 1));
        }
        Inst::VMerge { vd, vs2, src, vm } => {
            if matches!(src, VSrc::F(_)) && hart.vtype.sew != Sew::E64 {
                return Err(ExecError::FpVectorNeedsE64);
            }
            let bytes = hart.vtype.sew.bytes();
            in_file(hart, bytes, &[Some(vd), Some(vs2), vector(src)])?;
            for i in 0..hart.vl {
                let value = if vm || hart.v0_mask_bit(i) {
                    src_elem(hart, src, i, bytes)
                } else {
                    hart.v_elem(vs2, i, bytes)
                };
                hart.set_v_elem(vd, i, bytes, value);
            }
            fx.dest = Some(Dest::V(vd, group_len(hart)));
        }
        Inst::VUnary { op, rd, vs2, vm } => {
            let sew = hart.vtype.sew;
            let active = |i: &u64| (vm || hart.v0_mask_bit(*i)) && hart.v_bit(vs2, *i);
            let value = match op {
                VUnaryOp::MvXS => sext(hart.v_elem(vs2, 0, sew.bytes()), sew) as u64,
                VUnaryOp::FMvFS => hart.v_elem(vs2, 0, 8),
                VUnaryOp::Cpop => (0..hart.vl).filter(active).count() as u64,
                // -1 when no bit is set.
                VUnaryOp::First => (0..hart.vl).find(active).unwrap_or(u64::MAX),
            };
            fx.dest = Some(write_raw(hart, rd, op.rd_is_f(), value));
        }
        Inst::VMvS { vd, src } => {
            // An `f` register fills a whole 64-bit element whatever SEW is.
            let bytes = match src {
                VSrc::F(_) => 8,
                _ => hart.vtype.sew.bytes(),
            };
            hart.set_v_elem(vd, 0, bytes, src_elem(hart, src, 0, bytes));
            fx.dest = Some(Dest::V(vd, 1));
        }
        Inst::Vid { vd, vm } => {
            let bytes = hart.vtype.sew.bytes();
            in_file(hart, bytes, &[Some(vd)])?;
            for i in 0..hart.vl {
                if !vm && !hart.v0_mask_bit(i) {
                    continue;
                }
                hart.set_v_elem(vd, i, bytes, i);
            }
            fx.dest = Some(Dest::V(vd, group_len(hart)));
        }
        Inst::VMaskLogical { op, vd, vs2, vs1 } => {
            for i in 0..hart.vl {
                let a = hart.v_bit(vs2, i);
                let b = hart.v_bit(vs1, i);
                let result = match op {
                    VMaskOp::And => a & b,
                    VMaskOp::Nand => !(a & b),
                    VMaskOp::AndNot => a & !b,
                    VMaskOp::Xor => a ^ b,
                    VMaskOp::Or => a | b,
                    VMaskOp::Nor => !(a | b),
                    VMaskOp::OrNot => a | !b,
                    VMaskOp::Xnor => !(a ^ b),
                };
                hart.set_v_bit(vd, i, result);
            }
            fx.dest = Some(Dest::V(vd, 1));
        }
    }

    hart.pc = hart.pc.wrapping_add(4);
    Ok(fx)
}

/// Writes `value` to register `index` of the `f` file when `float`, else
/// of the `x` file: the destination of an op whose register class the
/// op's `rd_is_f`, not the variant, decides.
#[inline]
fn write_raw(hart: &mut Hart, index: u8, float: bool, value: u64) -> Dest {
    if float {
        let rd = FReg::new(index).unwrap_or_default();
        hart.set_f_bits(rd, value);
        Dest::F(rd)
    } else {
        let rd = XReg::new(index).unwrap_or(XReg::ZERO);
        hart.set_x(rd, value);
        Dest::X(rd)
    }
}

/// The application vector length `vsetvli` and `vsetvl` request (RVV
/// 1.0 §6.2): `rs1`'s value; with `rs1` = x0 the maximum, or, when
/// `rd` is x0 too, the current `vl` (only `vtype` changes).
fn avl(hart: &Hart, rd: XReg, rs1: XReg) -> u64 {
    if rs1 != XReg::ZERO {
        hart.x(rs1)
    } else if rd == XReg::ZERO {
        hart.vl
    } else {
        u64::MAX
    }
}

/// Register-group length for a vector memory op whose EEW may differ
/// from the configured SEW (EMUL = EEW/SEW × LMUL).
fn vmem_group_len(hart: &Hart, eew: Sew) -> u8 {
    let (num, den) = hart.vtype.lmul.ratio();
    let emul8 = 8 * u64::from(eew.bits()) * num / (u64::from(hart.vtype.sew.bits()) * den);
    (emul8 / 8).clamp(1, 8) as u8
}

fn vector_elem_addr(hart: &Hart, base: u64, mode: VAddrMode, eew: Sew, i: u64) -> u64 {
    match mode {
        VAddrMode::Unit => base.wrapping_add(i * eew.bytes()),
        VAddrMode::Strided(rs2) => base.wrapping_add(hart.x(rs2).wrapping_mul(i)),
        VAddrMode::Indexed(vs2) => base.wrapping_add(hart.v_elem(vs2, i, eew.bytes())),
    }
}

/// The index register of an indexed access.
fn index_reg(mode: VAddrMode) -> Option<VReg> {
    match mode {
        VAddrMode::Indexed(vs2) => Some(vs2),
        VAddrMode::Unit | VAddrMode::Strided(_) => None,
    }
}

/// The register of a `.vv` operand.
fn vector(src: VSrc) -> Option<VReg> {
    match src {
        VSrc::V(vs1) => Some(vs1),
        VSrc::X(_) | VSrc::F(_) | VSrc::I(_) => None,
    }
}

/// Checks that each group in `regs`, `vl` elements of `bytes` each, ends
/// within the register file; a group that runs past `v31` is an error
/// raised before any element is written.
fn in_file(hart: &Hart, bytes: u64, regs: &[Option<VReg>]) -> Result<(), ExecError> {
    let vlenb = hart.vlen_bits() / 8;
    let past = |reg: &VReg| reg.index() as u64 * vlenb + hart.vl * bytes > 32 * vlenb;
    match regs.iter().flatten().find(|reg| past(reg)) {
        Some(&reg) => Err(ExecError::GroupPastV31 { reg }),
        None => Ok(()),
    }
}

/// Element `i` (`bytes` wide) of the second operand: an element of the
/// `.vv` register, or the raw bits every element shares — the `x` or `f`
/// register, or the sign-extended immediate.
fn src_elem(hart: &Hart, src: VSrc, i: u64, bytes: u64) -> u64 {
    match src {
        VSrc::V(vs1) => hart.v_elem(vs1, i, bytes),
        VSrc::X(rs1) => hart.x(rs1),
        VSrc::F(rs1) => hart.f_bits(rs1),
        VSrc::I(imm) => imm as i64 as u64,
    }
}

/// The NaN RISC-V arithmetic returns whenever its result is a NaN,
/// whatever the inputs' payloads.
const CANONICAL_NAN: u64 = 0x7ff8_0000_0000_0000;

/// `x`, or the canonical NaN if `x` is any NaN.
fn canonical(x: f64) -> f64 {
    if x.is_nan() {
        f64::from_bits(CANONICAL_NAN)
    } else {
        x
    }
}

fn mask_for(sew: Sew) -> u64 {
    match sew {
        Sew::E8 => 0xff,
        Sew::E16 => 0xffff,
        Sew::E32 => 0xffff_ffff,
        Sew::E64 => u64::MAX,
    }
}

fn sext(value: u64, sew: Sew) -> i64 {
    match sew {
        Sew::E8 => value as u8 as i8 as i64,
        Sew::E16 => value as u16 as i16 as i64,
        Sew::E32 => value as u32 as i32 as i64,
        Sew::E64 => value as i64,
    }
}

fn vint_loop(hart: &mut Hart, op: VIntOp, (vd, vs2, src): (VReg, VReg, VSrc), vm: bool) {
    let sew = hart.vtype.sew;
    let bytes = sew.bytes();
    let sh_mask = u64::from(sew.bits()) - 1;
    for i in 0..hart.vl {
        if !vm && !hart.v0_mask_bit(i) {
            continue;
        }
        let b2 = hart.v_elem(vs2, i, bytes);
        let b1 = src_elem(hart, src, i, bytes) & mask_for(sew);
        let result = match op {
            VIntOp::Add => b2.wrapping_add(b1),
            VIntOp::Sub => b2.wrapping_sub(b1),
            VIntOp::Rsub => b1.wrapping_sub(b2),
            VIntOp::And => b2 & b1,
            VIntOp::Or => b2 | b1,
            VIntOp::Xor => b2 ^ b1,
            VIntOp::Sll => b2 << (b1 & sh_mask),
            VIntOp::Srl => b2 >> (b1 & sh_mask),
            VIntOp::Sra => (sext(b2, sew) >> (b1 & sh_mask)) as u64,
            VIntOp::Min => {
                if sext(b2, sew) <= sext(b1, sew) {
                    b2
                } else {
                    b1
                }
            }
            VIntOp::Max => {
                if sext(b2, sew) >= sext(b1, sew) {
                    b2
                } else {
                    b1
                }
            }
            VIntOp::Minu => b2.min(b1),
            VIntOp::Maxu => b2.max(b1),
        } & mask_for(sew);
        hart.set_v_elem(vd, i, bytes, result);
    }
}

/// Writes `f(vd[i], vs2[i], src[i])` to element `i` of `vd` for every
/// active element: the multiply and floating-point families, whose
/// accumulators read `vd`.
fn vacc_loop(
    hart: &mut Hart,
    (vd, vs2, src): (VReg, VReg, VSrc),
    vm: bool,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let bytes = hart.vtype.sew.bytes();
    for i in 0..hart.vl {
        if !vm && !hart.v0_mask_bit(i) {
            continue;
        }
        let acc = hart.v_elem(vd, i, bytes);
        let b2 = hart.v_elem(vs2, i, bytes);
        let b1 = src_elem(hart, src, i, bytes);
        hart.set_v_elem(vd, i, bytes, f(acc, b2, b1));
    }
}

/// Sets mask bit `i` of `vd` to `f(vs2[i], src[i])` for every active
/// element: the two compare families.
fn vcmp_loop(
    hart: &mut Hart,
    (vd, vs2, src): (VReg, VReg, VSrc),
    vm: bool,
    f: impl Fn(u64, u64) -> bool,
) {
    let bytes = hart.vtype.sew.bytes();
    for i in 0..hart.vl {
        if !vm && !hart.v0_mask_bit(i) {
            continue;
        }
        let a = hart.v_elem(vs2, i, bytes);
        let b = src_elem(hart, src, i, bytes);
        hart.set_v_bit(vd, i, f(a, b));
    }
}

fn vfp_op(op: VFpOp, acc: f64, b2: f64, b1: f64) -> f64 {
    match op {
        VFpOp::Add => canonical(b2 + b1),
        VFpOp::Sub => canonical(b2 - b1),
        VFpOp::Mul => canonical(b2 * b1),
        VFpOp::Div => canonical(b2 / b1),
        VFpOp::Min => canonical(b2.min(b1)),
        VFpOp::Max => canonical(b2.max(b1)),
        VFpOp::Sgnj => b2.copysign(b1),
        VFpOp::Macc => canonical(b1.mul_add(b2, acc)),
    }
}

/// Element compare for the `vmf*` family, `vs2 OP src`.
fn vfp_compare(op: VFCmpOp, a: f64, b: f64) -> bool {
    match op {
        VFCmpOp::Eq => a == b,
        VFCmpOp::Le => a <= b,
        VFCmpOp::Lt => a < b,
        VFCmpOp::Ne => a != b,
        VFCmpOp::Gt => a > b,
        VFCmpOp::Ge => a >= b,
    }
}

/// Element compare for the `vmseq` family. `a` is the `vs2` element,
/// `b` the scalar/vector/immediate operand — the spec compares
/// `vs2 OP src`.
fn vint_compare(op: VCmpOp, a: u64, b: u64, sew: Sew) -> bool {
    let (sa, sb) = (sext(a, sew), sext(b, sew));
    match op {
        VCmpOp::Eq => a == b,
        VCmpOp::Ne => a != b,
        VCmpOp::Ltu => a < b,
        VCmpOp::Lt => sa < sb,
        VCmpOp::Leu => a <= b,
        VCmpOp::Le => sa <= sb,
        VCmpOp::Gtu => a > b,
        VCmpOp::Gt => sa > sb,
    }
}

fn vmul_op(op: VMulOp, acc: i64, b1: i64, b2: i64, sew: Sew) -> i64 {
    let bits = i64::from(sew.bits());
    match op {
        VMulOp::Mul => b2.wrapping_mul(b1),
        VMulOp::Mulh => ((i128::from(b2) * i128::from(b1)) >> bits) as i64,
        VMulOp::Mulhu => {
            let ua = (b2 as u64) & mask_for(sew);
            let ub = (b1 as u64) & mask_for(sew);
            ((u128::from(ua) * u128::from(ub)) >> bits) as i64
        }
        VMulOp::Div => {
            if b1 == 0 {
                -1
            } else if b2 == i64::MIN && b1 == -1 {
                b2
            } else {
                b2 / b1
            }
        }
        VMulOp::Divu => {
            let ua = (b2 as u64) & mask_for(sew);
            let ub = (b1 as u64) & mask_for(sew);
            ua.checked_div(ub).map_or(-1, |q| q as i64)
        }
        VMulOp::Rem => {
            if b1 == 0 {
                b2
            } else if b2 == i64::MIN && b1 == -1 {
                0
            } else {
                b2 % b1
            }
        }
        VMulOp::Remu => {
            let ua = (b2 as u64) & mask_for(sew);
            let ub = (b1 as u64) & mask_for(sew);
            if ub == 0 {
                ua as i64
            } else {
                (ua % ub) as i64
            }
        }
        VMulOp::Macc => acc.wrapping_add(b1.wrapping_mul(b2)),
    }
}
