//! The decoded instruction representation.
//!
//! [`Inst`] covers the subset of RV64 that Coyote's HPC kernels and the
//! paper's evaluation need: RV64I, the M extension, a word/doubleword
//! subset of A, the `Zicsr` instructions, the D floating-point extension
//! and a substantial slice of the V vector extension (unit-stride,
//! strided and indexed memory operations plus the integer/floating-point
//! arithmetic used by matmul, `SpMV` and stencil kernels).
//!
//! The representation is *semantic*: immediates are stored fully
//! sign-extended and shifted, so the execution engine never re-derives
//! encoding details.

use crate::csr::Csr;
use crate::ops;
use crate::reg::{FReg, VReg, XReg};
use crate::vtype::{Sew, VType};

/// Conditional branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater or equal (unsigned).
    Geu,
}

impl BranchOp {
    /// Whether the branch is taken on operand values `a` (`rs1`) and `b`
    /// (`rs2`): the one comparison both the scalar kernel and the arm's
    /// back-edge evaluation use.
    #[must_use]
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchOp::Eq => a == b,
            BranchOp::Ne => a != b,
            BranchOp::Lt => (a as i64) < (b as i64),
            BranchOp::Ge => (a as i64) >= (b as i64),
            BranchOp::Ltu => a < b,
            BranchOp::Geu => a >= b,
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemWidth {
    /// One byte.
    B,
    /// Two bytes (halfword).
    H,
    /// Four bytes (word).
    W,
    /// Eight bytes (doubleword).
    D,
}

impl MemWidth {
    /// Access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// `log2` of the access size.
    #[must_use]
    pub fn log2_bytes(self) -> u32 {
        match self {
            MemWidth::B => 0,
            MemWidth::H => 1,
            MemWidth::W => 2,
            MemWidth::D => 3,
        }
    }
}

/// Scalar load: the integer widths, zero- or sign-extending, and `fld`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb`.
    Lb,
    /// `lh`.
    Lh,
    /// `lw`.
    Lw,
    /// `ld`.
    Ld,
    /// `lbu`.
    Lbu,
    /// `lhu`.
    Lhu,
    /// `lwu`.
    Lwu,
    /// `fld`: a doubleword into an `f` register.
    Fld,
}

impl LoadOp {
    /// Access width.
    #[must_use]
    pub fn width(self) -> MemWidth {
        use LoadOp::*;
        match self {
            Lb | Lbu => MemWidth::B,
            Lh | Lhu => MemWidth::H,
            Lw | Lwu => MemWidth::W,
            Ld | Fld => MemWidth::D,
        }
    }

    /// Whether a value narrower than 64 bits is sign-extended.
    #[must_use]
    pub fn signed(self) -> bool {
        use LoadOp::*;
        match self {
            Lb | Lh | Lw | Ld | Fld => true,
            Lbu | Lhu | Lwu => false,
        }
    }

    /// Whether `rd` names an `f` register, not an `x` one.
    #[must_use]
    pub fn rd_is_f(self) -> bool {
        use LoadOp::*;
        match self {
            Fld => true,
            Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => false,
        }
    }
}

/// Scalar store: the integer widths and `fsd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb`.
    Sb,
    /// `sh`.
    Sh,
    /// `sw`.
    Sw,
    /// `sd`.
    Sd,
    /// `fsd`: a doubleword from an `f` register.
    Fsd,
}

impl StoreOp {
    /// Access width.
    #[must_use]
    pub fn width(self) -> MemWidth {
        use StoreOp::*;
        match self {
            Sb => MemWidth::B,
            Sh => MemWidth::H,
            Sw => MemWidth::W,
            Sd | Fsd => MemWidth::D,
        }
    }

    /// Whether `rs2` names an `f` register, not an `x` one.
    #[must_use]
    pub fn rs2_is_f(self) -> bool {
        use StoreOp::*;
        match self {
            Fsd => true,
            Sb | Sh | Sw | Sd => false,
        }
    }
}

/// Integer register-register / register-immediate operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical left shift.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// Multiplication, low 64 bits (M extension).
    Mul,
    /// Multiplication, high bits, signed×signed.
    Mulh,
    /// Multiplication, high bits, signed×unsigned.
    Mulhsu,
    /// Multiplication, high bits, unsigned×unsigned.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// 32-bit (`*W`) integer operation for RV64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluWOp {
    /// `addw` / `addiw`.
    Addw,
    /// `subw` (register form only).
    Subw,
    /// `sllw` / `slliw`.
    Sllw,
    /// `srlw` / `srliw`.
    Srlw,
    /// `sraw` / `sraiw`.
    Sraw,
    /// `mulw` (M extension).
    Mulw,
    /// `divw` (M extension).
    Divw,
    /// `divuw` (M extension).
    Divuw,
    /// `remw` (M extension).
    Remw,
    /// `remuw` (M extension).
    Remuw,
}

/// Atomic memory operation (A extension subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Load-reserved.
    Lr,
    /// Store-conditional.
    Sc,
    /// Atomic swap.
    Swap,
    /// Atomic add.
    Add,
    /// Atomic xor.
    Xor,
    /// Atomic and.
    And,
    /// Atomic or.
    Or,
    /// Atomic minimum (signed).
    Min,
    /// Atomic maximum (signed).
    Max,
    /// Atomic minimum (unsigned).
    Minu,
    /// Atomic maximum (unsigned).
    Maxu,
}

/// CSR access operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Read/write (`csrrw`).
    Rw,
    /// Read and set bits (`csrrs`).
    Rs,
    /// Read and clear bits (`csrrc`).
    Rc,
}

/// Source operand of a CSR instruction: register or 5-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form (`csrrw`/`csrrs`/`csrrc`).
    Reg(XReg),
    /// Immediate form (`csrrwi`/`csrrsi`/`csrrci`).
    Imm(u8),
}

/// Two-operand double-precision floating-point operation or compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `fadd.d`.
    Add,
    /// `fsub.d`.
    Sub,
    /// `fmul.d`.
    Mul,
    /// `fdiv.d`.
    Div,
    /// `fsgnj.d` (also `fmv.d`).
    Sgnj,
    /// `fsgnjn.d` (also `fneg.d`).
    Sgnjn,
    /// `fsgnjx.d` (also `fabs.d`).
    Sgnjx,
    /// `fmin.d`.
    Min,
    /// `fmax.d`.
    Max,
    /// `feq.d`: 1 in an `x` register if equal.
    Eq,
    /// `flt.d`: 1 in an `x` register if less.
    Lt,
    /// `fle.d`: 1 in an `x` register if less or equal.
    Le,
}

impl FpOp {
    /// Whether `rd` names an `f` register; a compare writes an `x` one.
    #[must_use]
    pub fn rd_is_f(self) -> bool {
        use FpOp::*;
        match self {
            Add | Sub | Mul | Div | Sgnj | Sgnjn | Sgnjx | Min | Max => true,
            Eq | Lt | Le => false,
        }
    }
}

/// Fused multiply-add family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaOp {
    /// `fmadd.d`: `rd = rs1*rs2 + rs3`.
    Madd,
    /// `fmsub.d`: `rd = rs1*rs2 - rs3`.
    Msub,
    /// `fnmsub.d`: `rd = -(rs1*rs2) + rs3`.
    Nmsub,
    /// `fnmadd.d`: `rd = -(rs1*rs2) - rs3`.
    Nmadd,
}

/// Conversions between `f64` and integer registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCvtOp {
    /// `fcvt.d.l`: signed 64-bit integer to double.
    DFromL,
    /// `fcvt.d.lu`: unsigned 64-bit integer to double.
    DFromLu,
    /// `fcvt.l.d`: double to signed 64-bit integer (round toward zero).
    LFromD,
    /// `fcvt.lu.d`: double to unsigned 64-bit integer (round toward zero).
    LuFromD,
    /// `fcvt.d.w`: signed 32-bit integer to double.
    DFromW,
    /// `fcvt.w.d`: double to signed 32-bit integer (round toward zero).
    WFromD,
    /// `fmv.x.d`: the raw bits of a double into an integer register.
    MvXD,
    /// `fmv.d.x`: the raw bits of an integer register into a double.
    MvDX,
}

impl FpCvtOp {
    /// Whether `rd` names an `f` register; `rs1` then names an `x`
    /// register, and the other way round.
    #[must_use]
    pub fn rd_is_f(self) -> bool {
        use FpCvtOp::*;
        match self {
            DFromL | DFromLu | DFromW | MvDX => true,
            LFromD | LuFromD | WFromD | MvXD => false,
        }
    }
}

/// Upper-immediate operation: what the shifted immediate is added to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpperOp {
    /// `lui`: zero.
    Lui,
    /// `auipc`: the instruction's own pc.
    Auipc,
}

/// Operand-less system instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysOp {
    /// Memory fence (a timing no-op in Coyote's in-order model).
    Fence,
    /// Environment call; Coyote's baremetal HTIF intercepts it.
    Ecall,
    /// Breakpoint.
    Ebreak,
}

/// Vector memory addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VAddrMode {
    /// Unit-stride: consecutive elements.
    Unit,
    /// Constant byte stride held in an `x` register.
    Strided(XReg),
    /// Indexed (gather/scatter): byte offsets held in a vector register,
    /// unordered variant.
    Indexed(VReg),
}

/// Integer vector operation usable in `.vv`, `.vx` and (subset) `.vi`
/// forms (the OPIVV/OPIVX/OPIVI funct3 space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VIntOp {
    /// `vadd`.
    Add,
    /// `vsub` (no `.vi` form).
    Sub,
    /// `vrsub` (`.vx`/`.vi` only).
    Rsub,
    /// `vand`.
    And,
    /// `vor`.
    Or,
    /// `vxor`.
    Xor,
    /// `vsll`.
    Sll,
    /// `vsrl`.
    Srl,
    /// `vsra`.
    Sra,
    /// `vmin` (signed; no `.vi` form).
    Min,
    /// `vmax` (signed; no `.vi` form).
    Max,
    /// `vminu` (no `.vi` form).
    Minu,
    /// `vmaxu` (no `.vi` form).
    Maxu,
}

/// Integer vector multiply/divide family (the OPMVV/OPMVX funct3 space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VMulOp {
    /// `vmul`.
    Mul,
    /// `vmulh`.
    Mulh,
    /// `vmulhu`.
    Mulhu,
    /// `vdiv`.
    Div,
    /// `vdivu`.
    Divu,
    /// `vrem`.
    Rem,
    /// `vremu`.
    Remu,
    /// `vmacc`: `vd += vs1 * vs2`.
    Macc,
}

/// Integer vector comparison producing a mask (the `vmseq` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VCmpOp {
    /// `vmseq`.
    Eq,
    /// `vmsne`.
    Ne,
    /// `vmsltu` (no `.vi` form).
    Ltu,
    /// `vmslt` (no `.vi` form).
    Lt,
    /// `vmsleu`.
    Leu,
    /// `vmsle`.
    Le,
    /// `vmsgtu` (`.vx`/`.vi` only).
    Gtu,
    /// `vmsgt` (`.vx`/`.vi` only).
    Gt,
}

/// Floating-point vector comparison producing a mask (`vmf*` family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VFCmpOp {
    /// `vmfeq`.
    Eq,
    /// `vmfle`.
    Le,
    /// `vmflt`.
    Lt,
    /// `vmfne`.
    Ne,
    /// `vmfgt` (`.vf` only).
    Gt,
    /// `vmfge` (`.vf` only).
    Ge,
}

/// Mask-register logical operation (`vm*.mm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VMaskOp {
    /// `vmand.mm`.
    And,
    /// `vmnand.mm`.
    Nand,
    /// `vmandn.mm` (`vd = vs2 & !vs1`).
    AndNot,
    /// `vmxor.mm`.
    Xor,
    /// `vmor.mm`.
    Or,
    /// `vmnor.mm`.
    Nor,
    /// `vmorn.mm` (`vd = vs2 | !vs1`).
    OrNot,
    /// `vmxnor.mm`.
    Xnor,
}

/// Vector reduction into element 0 (`.vs`): `vd[0] = vs1[0] + Σ vs2[*]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VRedOp {
    /// `vredsum`: integer sum.
    Sum,
    /// `vfredusum`: floating-point sum (unordered; computed in order).
    FUSum,
}

/// Vector operation reading `vs2` into a scalar register (the funct6
/// `010000` unary family, selected by funct3 and the `vs1` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VUnaryOp {
    /// `vmv.x.s`: element 0, sign-extended from SEW, into an `x` register.
    MvXS,
    /// `vfmv.f.s`: element 0's 64 bits into an `f` register.
    FMvFS,
    /// `vcpop.m`: the number of set mask bits in `vs2[0..vl]`.
    Cpop,
    /// `vfirst.m`: the index of the first set mask bit, or -1.
    First,
}

impl VUnaryOp {
    /// Whether `rd` names an `f` register (`vfmv.f.s`), not an `x` one.
    #[must_use]
    pub fn rd_is_f(self) -> bool {
        match self {
            VUnaryOp::FMvFS => true,
            VUnaryOp::MvXS | VUnaryOp::Cpop | VUnaryOp::First => false,
        }
    }
}

/// Floating-point vector operation (the OPFVV/OPFVF funct3 space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VFpOp {
    /// `vfadd`.
    Add,
    /// `vfsub`.
    Sub,
    /// `vfmul`.
    Mul,
    /// `vfdiv`.
    Div,
    /// `vfmin`.
    Min,
    /// `vfmax`.
    Max,
    /// `vfsgnj`.
    Sgnj,
    /// `vfmacc`: `vd += vs1 * vs2` (fused).
    Macc,
}

/// The operation of an [`Inst::VArith`]: the family, which decides the
/// element loop and the `.vv` funct3 space, and the operation in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VArithOp {
    /// Integer ALU (OPIVV/OPIVX/OPIVI).
    Int(VIntOp),
    /// Integer multiply/divide (OPMVV/OPMVX).
    Mul(VMulOp),
    /// Floating point (OPFVV/OPFVF).
    Fp(VFpOp),
    /// Integer compare into a mask (OPIVV/OPIVX/OPIVI).
    Cmp(VCmpOp),
    /// Floating-point compare into a mask (OPFVV/OPFVF).
    FCmp(VFCmpOp),
}

impl VArithOp {
    /// Whether `vd` is one mask register, not a register group: a
    /// compare.
    #[must_use]
    pub fn writes_mask(self) -> bool {
        matches!(self, VArithOp::Cmp(_) | VArithOp::FCmp(_))
    }

    /// Whether the operation also reads `vd`: a multiply-accumulate.
    #[must_use]
    pub fn reads_vd(self) -> bool {
        matches!(
            self,
            VArithOp::Mul(VMulOp::Macc) | VArithOp::Fp(VFpOp::Macc)
        )
    }
}

/// Second source operand of a vector arithmetic instruction. The
/// variant is the operand form: `.vv`, `.vx`, `.vf` or `.vi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VSrc {
    /// A vector register (`.vv`), naming `vs1`.
    V(VReg),
    /// An integer register (`.vx`).
    X(XReg),
    /// A floating-point register (`.vf`).
    F(FReg),
    /// A 5-bit immediate (`.vi`): sign-extended, or an unsigned shift
    /// amount where the operation's row has [`ops::UIMM`].
    I(i8),
}

impl VSrc {
    /// The form flag: [`ops::VV`], [`ops::VX`], [`ops::VF`] or [`ops::VI`].
    #[must_use]
    pub fn form(self) -> u8 {
        match self {
            VSrc::V(_) => ops::VV,
            VSrc::X(_) => ops::VX,
            VSrc::F(_) => ops::VF,
            VSrc::I(_) => ops::VI,
        }
    }

    /// The mnemonic's form suffix: `.vv`, `.vx`, `.vf` or `.vi`.
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            VSrc::V(_) => ".vv",
            VSrc::X(_) => ".vx",
            VSrc::F(_) => ".vf",
            VSrc::I(_) => ".vi",
        }
    }
}

/// Second source operand of an integer ALU instruction, the scalar twin
/// of [`VSrc`]: the variant is the operand form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XSrc {
    /// A register (`add`, OP / OP-32), naming `rs2`.
    X(XReg),
    /// An immediate (`addi`, OP-IMM / OP-IMM-32): sign-extended 12-bit,
    /// or a shift amount where the operation's row has [`ops::UIMM`].
    I(i32),
}

/// A decoded instruction.
///
/// Construct values directly, via [`crate::decode::decode`], or by
/// assembling text with the `coyote-asm` crate; re-encode with
/// [`crate::encode::encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    // ---- RV64I ----
    /// `lui` / `auipc`.
    Upper {
        /// Operation.
        op: UpperOp,
        /// Destination register.
        rd: XReg,
        /// Sign-extended, pre-shifted immediate (multiple of 4096).
        imm: i64,
    },
    /// Jump and link.
    Jal {
        /// Destination register for the return address.
        rd: XReg,
        /// PC-relative byte offset (multiple of 2).
        offset: i32,
    },
    /// Jump and link register.
    Jalr {
        /// Destination register for the return address.
        rd: XReg,
        /// Base register.
        rs1: XReg,
        /// Byte offset added to `rs1`.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison performed.
        op: BranchOp,
        /// First compared register.
        rs1: XReg,
        /// Second compared register.
        rs2: XReg,
        /// PC-relative byte offset (multiple of 2).
        offset: i32,
    },
    /// Scalar load.
    Load {
        /// Operation: width, extension and register file.
        op: LoadOp,
        /// Destination register index: `f` where [`LoadOp::rd_is_f`],
        /// `x` otherwise.
        rd: u8,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        offset: i32,
    },
    /// Scalar store.
    Store {
        /// Operation: width and register file.
        op: StoreOp,
        /// Source data register index: `f` where [`StoreOp::rs2_is_f`],
        /// `x` otherwise.
        rs2: u8,
        /// Base address register.
        rs1: XReg,
        /// Byte offset.
        offset: i32,
    },
    /// Integer ALU operation (including the M extension), register or
    /// immediate form. `Sub` and the M-extension ops have no immediate.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: XReg,
        /// First source register.
        rs1: XReg,
        /// Second operand: `rs2` or the immediate.
        src: XSrc,
    },
    /// 32-bit (`*w`) ALU operation, register or immediate form; only
    /// `Addw`, `Sllw`, `Srlw` and `Sraw` have an immediate.
    Op32 {
        /// Operation.
        op: AluWOp,
        /// Destination register.
        rd: XReg,
        /// First source register.
        rs1: XReg,
        /// Second operand: `rs2` or the immediate.
        src: XSrc,
    },
    /// `fence` / `ecall` / `ebreak`.
    System {
        /// Operation.
        op: SysOp,
    },
    /// CSR access.
    Csr {
        /// Operation.
        op: CsrOp,
        /// Destination register for the old CSR value.
        rd: XReg,
        /// Accessed CSR.
        csr: Csr,
        /// Source operand.
        src: CsrSrc,
    },
    /// Atomic memory operation (word or doubleword).
    Amo {
        /// Operation.
        op: AmoOp,
        /// Access width (`W` or `D`).
        width: MemWidth,
        /// Destination register for the old memory value.
        rd: XReg,
        /// Address register.
        rs1: XReg,
        /// Data register (must be `x0` for `lr`).
        rs2: XReg,
    },

    // ---- D extension ----
    /// Two-operand double-precision operation or compare.
    FpOp {
        /// Operation.
        op: FpOp,
        /// Destination register index: `f` where [`FpOp::rd_is_f`], `x`
        /// for a compare.
        rd: u8,
        /// First source.
        rs1: FReg,
        /// Second source.
        rs2: FReg,
    },
    /// Fused multiply-add.
    FpFma {
        /// Variant.
        op: FmaOp,
        /// Destination FP register.
        rd: FReg,
        /// Multiplicand.
        rs1: FReg,
        /// Multiplier.
        rs2: FReg,
        /// Addend.
        rs3: FReg,
    },
    /// Conversion or bit move between double and integer registers.
    FpCvt {
        /// Conversion performed.
        op: FpCvtOp,
        /// Destination register index: `f` where
        /// [`FpCvtOp::rd_is_f`], `x` otherwise.
        rd: u8,
        /// Source register index, of the other file.
        rs1: u8,
    },

    // ---- V extension ----
    /// `vsetvli rd, rs1, vtypei`.
    Vsetvli {
        /// Receives the new `vl`.
        rd: XReg,
        /// Requested application vector length (`x0` = keep/maximal).
        rs1: XReg,
        /// Requested type.
        vtype: VType,
    },
    /// `vsetivli rd, uimm, vtypei`.
    Vsetivli {
        /// Receives the new `vl`.
        rd: XReg,
        /// 5-bit immediate AVL.
        avl: u8,
        /// Requested type.
        vtype: VType,
    },
    /// `vsetvl rd, rs1, rs2`.
    Vsetvl {
        /// Receives the new `vl`.
        rd: XReg,
        /// Requested AVL.
        rs1: XReg,
        /// Register holding the raw `vtype` bits.
        rs2: XReg,
    },
    /// Vector load.
    VLoad {
        /// Destination vector register.
        vd: VReg,
        /// Base address register.
        rs1: XReg,
        /// Addressing mode.
        mode: VAddrMode,
        /// Effective element width encoded in the instruction.
        eew: Sew,
        /// Mask bit: `true` = unmasked (`vm`=1).
        vm: bool,
    },
    /// Vector store.
    VStore {
        /// Source vector register.
        vs3: VReg,
        /// Base address register.
        rs1: XReg,
        /// Addressing mode.
        mode: VAddrMode,
        /// Effective element width encoded in the instruction.
        eew: Sew,
        /// Mask bit: `true` = unmasked.
        vm: bool,
    },
    /// Vector arithmetic or compare, `name.form vd, vs2, src[, v0.t]`.
    VArith {
        /// Operation, with its family.
        op: VArithOp,
        /// Destination: a register group, or one mask register where
        /// [`VArithOp::writes_mask`]. Also the accumulator where
        /// [`VArithOp::reads_vd`].
        vd: VReg,
        /// Vector source (`vs2`).
        vs2: VReg,
        /// Second operand; the row's forms say which it may be.
        src: VSrc,
        /// Mask bit: `true` = unmasked.
        vm: bool,
    },
    /// Reduction into element 0.
    VRed {
        /// Operation.
        op: VRedOp,
        /// Destination.
        vd: VReg,
        /// Reduced vector.
        vs2: VReg,
        /// Scalar seed in element 0.
        vs1: VReg,
        /// Mask bit: `true` = unmasked.
        vm: bool,
    },
    /// `vmerge.v{v,x,i}m` / `vfmerge.vfm` (`vm` clear):
    /// `vd[i] = v0.mask[i] ? src[i] : vs2[i]`. With `vm` set and `vs2` =
    /// `v0` it is the splat `vmv.v.{v,x,i}` / `vfmv.v.f`: `vd[i] = src[i]`.
    VMerge {
        /// Destination.
        vd: VReg,
        /// Taken where the mask bit is clear; `v0` for a splat.
        vs2: VReg,
        /// Taken where the mask bit is set, or everywhere in a splat.
        src: VSrc,
        /// `true` = the splat.
        vm: bool,
    },
    /// `vs2` into a scalar register.
    VUnary {
        /// Operation.
        op: VUnaryOp,
        /// Destination register index: `f` where
        /// [`VUnaryOp::rd_is_f`], `x` otherwise.
        rd: u8,
        /// Vector source.
        vs2: VReg,
        /// Mask bit: `true` = unmasked; always set where the row lacks
        /// [`ops::VM`].
        vm: bool,
    },
    /// `vmv.s.x` / `vfmv.s.f`: scalar register → element 0.
    VMvS {
        /// Vector destination.
        vd: VReg,
        /// The `x` or `f` source.
        src: VSrc,
    },
    /// `vid.v`: write element indices 0,1,2,… .
    Vid {
        /// Destination.
        vd: VReg,
        /// Mask bit: `true` = unmasked.
        vm: bool,
    },
    /// Mask-register logical, `.mm` form (always unmasked).
    VMaskLogical {
        /// Operation.
        op: VMaskOp,
        /// Destination mask.
        vd: VReg,
        /// First source mask (`vs2`).
        vs2: VReg,
        /// Second source mask (`vs1`).
        vs1: VReg,
    },
}

// The predecoded table holds one `Inst` per text word: folding shapes
// into one variant must not grow it.
const _: () = assert!(std::mem::size_of::<Inst>() == 16);

impl Inst {
    /// Whether this instruction belongs to the V extension.
    #[must_use]
    pub fn is_vector(&self) -> bool {
        matches!(
            self,
            Inst::Vsetvli { .. }
                | Inst::Vsetivli { .. }
                | Inst::Vsetvl { .. }
                | Inst::VLoad { .. }
                | Inst::VStore { .. }
                | Inst::VArith { .. }
                | Inst::VRed { .. }
                | Inst::VMerge { .. }
                | Inst::VUnary { .. }
                | Inst::VMvS { .. }
                | Inst::Vid { .. }
                | Inst::VMaskLogical { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_width_sizes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::D.bytes(), 8);
        assert_eq!(MemWidth::W.log2_bytes(), 2);
    }

    #[test]
    fn vector_predicate() {
        let vl = Inst::VLoad {
            vd: VReg::V0,
            rs1: XReg::A0,
            mode: VAddrMode::Unit,
            eew: Sew::E64,
            vm: true,
        };
        assert!(vl.is_vector());
        let j = Inst::Jal {
            rd: XReg::RA,
            offset: 16,
        };
        assert!(!j.is_vector());
    }
}
