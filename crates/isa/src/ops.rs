//! One table per operation family.
//!
//! Every operation is one [`Row`]: the enum variant, its mnemonic stem,
//! the bits that select it and the operand forms it has. The decoder
//! looks rows up by bits, the encoder and disassembler by variant, the
//! assembler by name, so an operation is spelled once. What stays in
//! those four files is per *format*, not per operation: field
//! extraction and packing, immediate ranges, operand syntax.
//!
//! Every `Inst` variant is an operand *shape*, and each shape with more
//! than one operation has a table here. Adding an instruction of an
//! existing shape is one row plus its semantics in the ISS. The five
//! vector arithmetic families (integer, multiply, floating point and the
//! two compares) are one shape, `Inst::VArith`, and one table,
//! [`VARITH`], keyed by funct3 and funct6 together: the family is part of
//! the operation ([`VArithOp`]), so every consumer has one arm or one
//! lookup for all of them. The major opcodes, the OP-V funct3 spaces and
//! the funct6 values of the vector encodings with no table of their own
//! are also defined here, because `decode` and `encode` must agree on
//! them.

// Multi-field keys are written field by field (`funct7_funct3`), the
// way the specification's encoding tables print them.
#![allow(clippy::unusual_byte_groupings)]

use crate::inst::VArithOp::{self, Cmp, FCmp, Fp, Int, Mul};
use crate::inst::{
    AluOp, AluWOp, AmoOp, BranchOp, CsrOp, FmaOp, FpCvtOp, FpOp, LoadOp, MemWidth, StoreOp, SysOp,
    UpperOp, VAddrMode, VCmpOp, VFCmpOp, VFpOp, VIntOp, VMaskOp, VMulOp, VRedOp, VSrc, VUnaryOp,
};
use crate::reg::{VReg, XReg};
use crate::vtype::Sew;

/// Form flag: the operation has a `.vv` encoding.
pub const VV: u8 = 1 << 0;
/// Form flag: the operation has a `.vx` encoding.
pub const VX: u8 = 1 << 1;
/// Form flag: the operation has a `.vi` encoding.
pub const VI: u8 = 1 << 2;
/// Form flag: the operation has a `.vf` encoding.
pub const VF: u8 = 1 << 3;
/// Form flag: the immediate form carries an unsigned shift amount, not
/// a sign-extended immediate.
pub const UIMM: u8 = 1 << 4;
/// Form flag: funct3 is a rounding mode, not a selector — the decoder
/// ignores it and the encoder writes the row's value.
pub const RM: u8 = 1 << 5;
/// Form flag: the vector operation takes a `v0.t` mask. Without it the
/// decoder ignores the `vm` bit, and encoding a masked one is
/// `EncodeError::NoSuchForm`.
pub const VM: u8 = 1 << 6;

/// One operation of a family.
#[derive(Debug)]
pub struct Row<T: 'static> {
    /// The variant (or key) this row describes.
    pub op: T,
    /// Mnemonic, or the stem a form or width suffix is appended to.
    pub name: &'static str,
    /// The selecting bits; each table documents their layout.
    pub bits: u32,
    /// Union of the form flags that apply.
    pub forms: u8,
    /// Mnemonic of the register-immediate form, when there is one.
    pub imm: Option<&'static str>,
    /// An older spelling the assembler also accepts.
    pub alias: Option<&'static str>,
}

const fn row<T>(op: T, name: &'static str, bits: u32) -> Row<T> {
    Row {
        op,
        name,
        bits,
        forms: 0,
        imm: None,
        alias: None,
    }
}

impl<T> Row<T> {
    /// Whether any of the form flags `flags` applies.
    #[must_use]
    pub fn has(&self, flags: u8) -> bool {
        self.forms & flags != 0
    }
}

impl<T: Copy> Row<T> {
    const fn forms(self, forms: u8) -> Row<T> {
        Row { forms, ..self }
    }

    const fn imm(self, imm: &'static str) -> Row<T> {
        Row {
            imm: Some(imm),
            ..self
        }
    }

    const fn alias(self, alias: &'static str) -> Row<T> {
        Row {
            alias: Some(alias),
            ..self
        }
    }
}

/// The rows of one family and the lookups every consumer derives from
/// them.
#[derive(Debug)]
pub struct Table<T: 'static>(pub &'static [Row<T>]);

impl<T: Copy + PartialEq> Table<T> {
    /// The row of `op`, if it has one.
    #[must_use]
    pub fn get(&self, op: T) -> Option<&'static Row<T>> {
        self.0.iter().find(|r| r.op == op)
    }

    /// The row of `op`.
    ///
    /// # Panics
    ///
    /// If `op` has no row. Every variant of the operation enums has one:
    /// without it the operation cannot be assembled or decoded at all.
    #[must_use]
    pub fn row(&self, op: T) -> &'static Row<T> {
        self.get(op).expect("every operation has a table row")
    }

    /// The row selected by `bits`.
    #[must_use]
    pub fn from_bits(&self, bits: u32) -> Option<&'static Row<T>> {
        self.0.iter().find(|r| r.bits == bits)
    }

    /// The row named `name`, by mnemonic stem or alias.
    #[must_use]
    pub fn from_name(&self, name: &str) -> Option<&'static Row<T>> {
        self.0
            .iter()
            .find(|r| r.name == name || r.alias == Some(name))
    }

    /// The row whose register-immediate form is named `name`.
    #[must_use]
    pub fn from_imm(&self, name: &str) -> Option<&'static Row<T>> {
        self.0.iter().find(|r| r.imm == Some(name))
    }
}

impl Table<VAddrMode> {
    /// The row of `mode`'s variant; the rows hold placeholder registers.
    #[must_use]
    pub fn mode(&self, mode: VAddrMode) -> &'static Row<VAddrMode> {
        let same =
            |r: &&Row<VAddrMode>| std::mem::discriminant(&r.op) == std::mem::discriminant(&mode);
        self.0.iter().find(same).expect("every mode has a row")
    }
}

/// Upper immediates; `bits` is the major opcode.
pub static UPPER: Table<UpperOp> = Table(&[
    row(UpperOp::Lui, "lui", OPC_LUI),
    row(UpperOp::Auipc, "auipc", OPC_AUIPC),
]);

/// Operand-less system instructions; `bits` is the whole word. Every
/// MISC-MEM word decodes as `fence`, whose row holds the word encoded.
pub static SYSTEM: Table<SysOp> = Table(&[
    row(SysOp::Fence, "fence", 0x0ff0_000f),
    row(SysOp::Ecall, "ecall", 0x0000_0073),
    row(SysOp::Ebreak, "ebreak", 0x0010_0073),
]);

/// Conditional branches; `bits` is funct3.
pub static BRANCH: Table<BranchOp> = Table(&[
    row(BranchOp::Eq, "beq", 0b000),
    row(BranchOp::Ne, "bne", 0b001),
    row(BranchOp::Lt, "blt", 0b100),
    row(BranchOp::Ge, "bge", 0b101),
    row(BranchOp::Ltu, "bltu", 0b110),
    row(BranchOp::Geu, "bgeu", 0b111),
]);

/// Scalar loads; `bits` is `funct3_opcode`. Which register file `rd`
/// names is [`LoadOp::rd_is_f`].
pub static LOAD: Table<LoadOp> = Table(&[
    row(LoadOp::Lb, "lb", 0b000_0000011),
    row(LoadOp::Lh, "lh", 0b001_0000011),
    row(LoadOp::Lw, "lw", 0b010_0000011),
    row(LoadOp::Ld, "ld", 0b011_0000011),
    row(LoadOp::Lbu, "lbu", 0b100_0000011),
    row(LoadOp::Lhu, "lhu", 0b101_0000011),
    row(LoadOp::Lwu, "lwu", 0b110_0000011),
    row(LoadOp::Fld, "fld", 0b011_0000111),
]);

/// Scalar stores; `bits` is `funct3_opcode`. Which register file `rs2`
/// names is [`StoreOp::rs2_is_f`].
pub static STORE: Table<StoreOp> = Table(&[
    row(StoreOp::Sb, "sb", 0b000_0100011),
    row(StoreOp::Sh, "sh", 0b001_0100011),
    row(StoreOp::Sw, "sw", 0b010_0100011),
    row(StoreOp::Sd, "sd", 0b011_0100011),
    row(StoreOp::Fsd, "fsd", 0b011_0100111),
]);

/// OP / OP-IMM; `bits` is `funct7_funct3` of the register form. The
/// immediate form, where `imm` names one, has the same funct3; a shift
/// ([`UIMM`]) keeps funct7's upper six bits above a 6-bit shift amount.
#[rustfmt::skip]
pub static ALU: Table<AluOp> = Table(&[
    row(AluOp::Add, "add", 0b0000000_000).imm("addi"),
    row(AluOp::Sub, "sub", 0b0100000_000),
    row(AluOp::Sll, "sll", 0b0000000_001).imm("slli").forms(UIMM),
    row(AluOp::Slt, "slt", 0b0000000_010).imm("slti"),
    row(AluOp::Sltu, "sltu", 0b0000000_011).imm("sltiu"),
    row(AluOp::Xor, "xor", 0b0000000_100).imm("xori"),
    row(AluOp::Srl, "srl", 0b0000000_101).imm("srli").forms(UIMM),
    row(AluOp::Sra, "sra", 0b0100000_101).imm("srai").forms(UIMM),
    row(AluOp::Or, "or", 0b0000000_110).imm("ori"),
    row(AluOp::And, "and", 0b0000000_111).imm("andi"),
    row(AluOp::Mul, "mul", 0b0000001_000),
    row(AluOp::Mulh, "mulh", 0b0000001_001),
    row(AluOp::Mulhsu, "mulhsu", 0b0000001_010),
    row(AluOp::Mulhu, "mulhu", 0b0000001_011),
    row(AluOp::Div, "div", 0b0000001_100),
    row(AluOp::Divu, "divu", 0b0000001_101),
    row(AluOp::Rem, "rem", 0b0000001_110),
    row(AluOp::Remu, "remu", 0b0000001_111),
]);

/// OP-32 / OP-IMM-32; laid out like [`ALU`], with 5-bit shift amounts.
#[rustfmt::skip]
pub static ALU_W: Table<AluWOp> = Table(&[
    row(AluWOp::Addw, "addw", 0b0000000_000).imm("addiw"),
    row(AluWOp::Subw, "subw", 0b0100000_000),
    row(AluWOp::Sllw, "sllw", 0b0000000_001).imm("slliw").forms(UIMM),
    row(AluWOp::Srlw, "srlw", 0b0000000_101).imm("srliw").forms(UIMM),
    row(AluWOp::Sraw, "sraw", 0b0100000_101).imm("sraiw").forms(UIMM),
    row(AluWOp::Mulw, "mulw", 0b0000001_000),
    row(AluWOp::Divw, "divw", 0b0000001_100),
    row(AluWOp::Divuw, "divuw", 0b0000001_101),
    row(AluWOp::Remw, "remw", 0b0000001_110),
    row(AluWOp::Remuw, "remuw", 0b0000001_111),
]);

/// CSR accesses; `bits` is funct3 of the register form, the immediate
/// form sets funct3 bit 2.
pub static CSR: Table<CsrOp> = Table(&[
    row(CsrOp::Rw, "csrrw", 0b001).imm("csrrwi"),
    row(CsrOp::Rs, "csrrs", 0b010).imm("csrrsi"),
    row(CsrOp::Rc, "csrrc", 0b011).imm("csrrci"),
]);

/// Atomics; `bits` is funct5, the mnemonic is `name.width`.
pub static AMO: Table<AmoOp> = Table(&[
    row(AmoOp::Add, "amoadd", 0b00000),
    row(AmoOp::Swap, "amoswap", 0b00001),
    row(AmoOp::Lr, "lr", 0b00010),
    row(AmoOp::Sc, "sc", 0b00011),
    row(AmoOp::Xor, "amoxor", 0b00100),
    row(AmoOp::Or, "amoor", 0b01000),
    row(AmoOp::And, "amoand", 0b01100),
    row(AmoOp::Min, "amomin", 0b10000),
    row(AmoOp::Max, "amomax", 0b10100),
    row(AmoOp::Minu, "amominu", 0b11000),
    row(AmoOp::Maxu, "amomaxu", 0b11100),
]);

/// Atomic access widths; `name` is the mnemonic suffix, `bits` funct3.
pub static AMO_WIDTH: Table<MemWidth> =
    Table(&[row(MemWidth::W, "w", 0b010), row(MemWidth::D, "d", 0b011)]);

/// Two-operand double-precision arithmetic and compares; `bits` is
/// `funct7_funct3`, where funct3 is the emitted (dynamic) rounding mode
/// under [`RM`]. Which register file `rd` names is [`FpOp::rd_is_f`].
pub static FP: Table<FpOp> = Table(&[
    row(FpOp::Add, "fadd.d", 0b0000001_111).forms(RM),
    row(FpOp::Sub, "fsub.d", 0b0000101_111).forms(RM),
    row(FpOp::Mul, "fmul.d", 0b0001001_111).forms(RM),
    row(FpOp::Div, "fdiv.d", 0b0001101_111).forms(RM),
    row(FpOp::Sgnj, "fsgnj.d", 0b0010001_000),
    row(FpOp::Sgnjn, "fsgnjn.d", 0b0010001_001),
    row(FpOp::Sgnjx, "fsgnjx.d", 0b0010001_010),
    row(FpOp::Min, "fmin.d", 0b0010101_000),
    row(FpOp::Max, "fmax.d", 0b0010101_001),
    row(FpOp::Le, "fle.d", 0b1010001_000),
    row(FpOp::Lt, "flt.d", 0b1010001_001),
    row(FpOp::Eq, "feq.d", 0b1010001_010),
]);

/// Fused multiply-adds; `bits` is the major opcode.
pub static FMA: Table<FmaOp> = Table(&[
    row(FmaOp::Madd, "fmadd.d", 0b1000011),
    row(FmaOp::Msub, "fmsub.d", 0b1000111),
    row(FmaOp::Nmsub, "fnmsub.d", 0b1001011),
    row(FmaOp::Nmadd, "fnmadd.d", 0b1001111),
]);

/// Float/integer conversions and bit moves; `bits` is `funct7_rs2`.
/// Under [`RM`] funct3 is a rounding mode the decoder ignores (the
/// encoder writes round-toward-zero into an integer, 000 otherwise); a
/// bit move has funct3 = 000. Which side is the `f` register is
/// [`FpCvtOp::rd_is_f`].
pub static FP_CVT: Table<FpCvtOp> = Table(&[
    row(FpCvtOp::WFromD, "fcvt.w.d", 0b1100001_00000).forms(RM),
    row(FpCvtOp::LFromD, "fcvt.l.d", 0b1100001_00010).forms(RM),
    row(FpCvtOp::LuFromD, "fcvt.lu.d", 0b1100001_00011).forms(RM),
    row(FpCvtOp::DFromW, "fcvt.d.w", 0b1101001_00000).forms(RM),
    row(FpCvtOp::DFromL, "fcvt.d.l", 0b1101001_00010).forms(RM),
    row(FpCvtOp::DFromLu, "fcvt.d.lu", 0b1101001_00011).forms(RM),
    row(FpCvtOp::MvXD, "fmv.x.d", 0b1110001_00000),
    row(FpCvtOp::MvDX, "fmv.d.x", 0b1111001_00000),
]);

/// Vector arithmetic and compares, every family in one table; `bits` is
/// `funct3_funct6`, where funct3 is the family's `.vv` space (OPIVV,
/// OPMVV or OPFVV). A `.vx` word's funct3 is the space with bit 2 set
/// ([`vsrc_funct3`]); `.vi` rows are all in OPIVV and `.vf` rows all in
/// OPFVV, so a word's funct3 and form name its row's space and `decode`
/// needs one lookup.
#[rustfmt::skip]
pub static VARITH: Table<VArithOp> = Table(&[
    row(Int(VIntOp::Add), "vadd", F3_OPIVV << 6).forms(VV | VX | VI),
    row(Int(VIntOp::Sub), "vsub", F3_OPIVV << 6 | 0b000010).forms(VV | VX),
    row(Int(VIntOp::Rsub), "vrsub", F3_OPIVV << 6 | 0b000011).forms(VX | VI),
    row(Int(VIntOp::Minu), "vminu", F3_OPIVV << 6 | 0b000100).forms(VV | VX),
    row(Int(VIntOp::Min), "vmin", F3_OPIVV << 6 | 0b000101).forms(VV | VX),
    row(Int(VIntOp::Maxu), "vmaxu", F3_OPIVV << 6 | 0b000110).forms(VV | VX),
    row(Int(VIntOp::Max), "vmax", F3_OPIVV << 6 | 0b000111).forms(VV | VX),
    row(Int(VIntOp::And), "vand", F3_OPIVV << 6 | 0b001001).forms(VV | VX | VI),
    row(Int(VIntOp::Or), "vor", F3_OPIVV << 6 | 0b001010).forms(VV | VX | VI),
    row(Int(VIntOp::Xor), "vxor", F3_OPIVV << 6 | 0b001011).forms(VV | VX | VI),
    row(Int(VIntOp::Sll), "vsll", F3_OPIVV << 6 | 0b100101).forms(VV | VX | VI | UIMM),
    row(Int(VIntOp::Srl), "vsrl", F3_OPIVV << 6 | 0b101000).forms(VV | VX | VI | UIMM),
    row(Int(VIntOp::Sra), "vsra", F3_OPIVV << 6 | 0b101001).forms(VV | VX | VI | UIMM),
    row(Mul(VMulOp::Divu), "vdivu", F3_OPMVV << 6 | 0b100000).forms(VV | VX),
    row(Mul(VMulOp::Div), "vdiv", F3_OPMVV << 6 | 0b100001).forms(VV | VX),
    row(Mul(VMulOp::Remu), "vremu", F3_OPMVV << 6 | 0b100010).forms(VV | VX),
    row(Mul(VMulOp::Rem), "vrem", F3_OPMVV << 6 | 0b100011).forms(VV | VX),
    row(Mul(VMulOp::Mulhu), "vmulhu", F3_OPMVV << 6 | 0b100100).forms(VV | VX),
    row(Mul(VMulOp::Mul), "vmul", F3_OPMVV << 6 | 0b100101).forms(VV | VX),
    row(Mul(VMulOp::Mulh), "vmulh", F3_OPMVV << 6 | 0b100111).forms(VV | VX),
    row(Mul(VMulOp::Macc), "vmacc", F3_OPMVV << 6 | 0b101101).forms(VV | VX),
    row(Fp(VFpOp::Add), "vfadd", F3_OPFVV << 6).forms(VV | VF),
    row(Fp(VFpOp::Sub), "vfsub", F3_OPFVV << 6 | 0b000010).forms(VV | VF),
    row(Fp(VFpOp::Min), "vfmin", F3_OPFVV << 6 | 0b000100).forms(VV | VF),
    row(Fp(VFpOp::Max), "vfmax", F3_OPFVV << 6 | 0b000110).forms(VV | VF),
    row(Fp(VFpOp::Sgnj), "vfsgnj", F3_OPFVV << 6 | 0b001000).forms(VV | VF),
    row(Fp(VFpOp::Div), "vfdiv", F3_OPFVV << 6 | 0b100000).forms(VV | VF),
    row(Fp(VFpOp::Mul), "vfmul", F3_OPFVV << 6 | 0b100100).forms(VV | VF),
    row(Fp(VFpOp::Macc), "vfmacc", F3_OPFVV << 6 | 0b101100).forms(VV | VF),
    row(Cmp(VCmpOp::Eq), "vmseq", F3_OPIVV << 6 | 0b011000).forms(VV | VX | VI),
    row(Cmp(VCmpOp::Ne), "vmsne", F3_OPIVV << 6 | 0b011001).forms(VV | VX | VI),
    row(Cmp(VCmpOp::Ltu), "vmsltu", F3_OPIVV << 6 | 0b011010).forms(VV | VX),
    row(Cmp(VCmpOp::Lt), "vmslt", F3_OPIVV << 6 | 0b011011).forms(VV | VX),
    row(Cmp(VCmpOp::Leu), "vmsleu", F3_OPIVV << 6 | 0b011100).forms(VV | VX | VI),
    row(Cmp(VCmpOp::Le), "vmsle", F3_OPIVV << 6 | 0b011101).forms(VV | VX | VI),
    row(Cmp(VCmpOp::Gtu), "vmsgtu", F3_OPIVV << 6 | 0b011110).forms(VX | VI),
    row(Cmp(VCmpOp::Gt), "vmsgt", F3_OPIVV << 6 | 0b011111).forms(VX | VI),
    row(FCmp(VFCmpOp::Eq), "vmfeq", F3_OPFVV << 6 | 0b011000).forms(VV | VF),
    row(FCmp(VFCmpOp::Le), "vmfle", F3_OPFVV << 6 | 0b011001).forms(VV | VF),
    row(FCmp(VFCmpOp::Lt), "vmflt", F3_OPFVV << 6 | 0b011011).forms(VV | VF),
    row(FCmp(VFCmpOp::Ne), "vmfne", F3_OPFVV << 6 | 0b011100).forms(VV | VF),
    row(FCmp(VFCmpOp::Gt), "vmfgt", F3_OPFVV << 6 | 0b011101).forms(VF),
    row(FCmp(VFCmpOp::Ge), "vmfge", F3_OPFVV << 6 | 0b011111).forms(VF),
]);

/// Reductions (`name.vs vd, vs2, vs1`); `bits` is `funct3_funct6`.
#[rustfmt::skip]
pub static VRED: Table<VRedOp> = Table(&[
    row(VRedOp::Sum, "vredsum", F3_OPMVV << 6),
    row(VRedOp::FUSum, "vfredusum", F3_OPFVV << 6 | 0b000001).alias("vfredsum"),
]);

/// The funct6 [`F6_VUNARY0`] operations writing a scalar register, whole
/// mnemonics; `bits` is `funct3_vs1`. Which register file `rd` names is
/// [`VUnaryOp::rd_is_f`].
#[rustfmt::skip]
pub static VUNARY: Table<VUnaryOp> = Table(&[
    row(VUnaryOp::MvXS, "vmv.x.s", F3_OPMVV << 5),
    row(VUnaryOp::FMvFS, "vfmv.f.s", F3_OPFVV << 5),
    row(VUnaryOp::Cpop, "vcpop.m", F3_OPMVV << 5 | 0b10000).forms(VM),
    row(VUnaryOp::First, "vfirst.m", F3_OPMVV << 5 | 0b10001).forms(VM),
]);

/// Mask-register logicals (`.mm`, OPMVV, always unmasked); `bits` is
/// funct6.
pub static VMASK: Table<VMaskOp> = Table(&[
    row(VMaskOp::AndNot, "vmandn", 0b011000).alias("vmandnot"),
    row(VMaskOp::And, "vmand", 0b011001),
    row(VMaskOp::Or, "vmor", 0b011010),
    row(VMaskOp::Xor, "vmxor", 0b011011),
    row(VMaskOp::OrNot, "vmorn", 0b011100).alias("vmornot"),
    row(VMaskOp::Nand, "vmnand", 0b011101),
    row(VMaskOp::Nor, "vmnor", 0b011110),
    row(VMaskOp::Xnor, "vmxnor", 0b011111),
]);

/// Vector memory element widths; `name` is the digits in the mnemonic,
/// `bits` the `width` field.
pub static VMEM_EEW: Table<Sew> = Table(&[
    row(Sew::E8, "8", 0b000),
    row(Sew::E16, "16", 0b101),
    row(Sew::E32, "32", 0b110),
    row(Sew::E64, "64", 0b111),
]);

/// Vector addressing modes, with placeholder registers; `name` is the
/// mnemonic infix (`vl<se>64.v`), `bits` the `mop` field.
pub static VMEM_MODE: Table<VAddrMode> = Table(&[
    row(VAddrMode::Unit, "e", 0b00),
    row(VAddrMode::Indexed(VReg::V0), "uxei", 0b01),
    row(VAddrMode::Strided(XReg::ZERO), "se", 0b10),
]);

/// Major opcode: `lui`.
pub const OPC_LUI: u32 = 0b0110111;
/// Major opcode: `auipc`.
pub const OPC_AUIPC: u32 = 0b0010111;
/// Major opcode: `jal`.
pub const OPC_JAL: u32 = 0b1101111;
/// Major opcode: `jalr`.
pub const OPC_JALR: u32 = 0b1100111;
/// Major opcode: conditional branches.
pub const OPC_BRANCH: u32 = 0b1100011;
/// Major opcode: integer loads.
pub const OPC_LOAD: u32 = 0b0000011;
/// Major opcode: integer stores.
pub const OPC_STORE: u32 = 0b0100011;
/// Major opcode: register-immediate ALU.
pub const OPC_OP_IMM: u32 = 0b0010011;
/// Major opcode: register-register ALU.
pub const OPC_OP: u32 = 0b0110011;
/// Major opcode: 32-bit register-immediate ALU.
pub const OPC_OP_IMM32: u32 = 0b0011011;
/// Major opcode: 32-bit register-register ALU.
pub const OPC_OP32: u32 = 0b0111011;
/// Major opcode: `fence`.
pub const OPC_MISC_MEM: u32 = 0b0001111;
/// Major opcode: `ecall`, `ebreak` and CSR accesses.
pub const OPC_SYSTEM: u32 = 0b1110011;
/// Major opcode: atomics.
pub const OPC_AMO: u32 = 0b0101111;
/// Major opcode: `fld` and vector loads.
pub const OPC_LOAD_FP: u32 = 0b0000111;
/// Major opcode: `fsd` and vector stores.
pub const OPC_STORE_FP: u32 = 0b0100111;
/// Major opcode: scalar floating point.
pub const OPC_OP_FP: u32 = 0b1010011;
/// Major opcode: vector arithmetic and configuration.
pub const OPC_OP_V: u32 = 0b1010111;

/// OP-V funct3: integer vector-vector.
pub const F3_OPIVV: u32 = 0b000;
/// OP-V funct3: floating-point vector-vector.
pub const F3_OPFVV: u32 = 0b001;
/// OP-V funct3: multiply-class vector-vector.
pub const F3_OPMVV: u32 = 0b010;
/// OP-V funct3: integer vector-immediate.
pub const F3_OPIVI: u32 = 0b011;
/// OP-V funct3: integer vector-scalar.
pub const F3_OPIVX: u32 = 0b100;
/// OP-V funct3: floating-point vector-scalar.
pub const F3_OPFVF: u32 = 0b101;
/// OP-V funct3: multiply-class vector-scalar.
pub const F3_OPMVX: u32 = 0b110;
/// OP-V funct3: `vset*` configuration.
pub const F3_OPCFG: u32 = 0b111;
/// LOAD-FP / STORE-FP funct3 of `fld` / `fsd`; the vector accesses
/// use the others.
pub const F3_FP_D: u32 = 0b011;

/// funct6 of the [`VUNARY`] operations and of [`VMV_S`].
pub const F6_VUNARY0: u32 = 0b010000;
/// funct6 of `vid.v` (OPMVV).
pub const F6_VMUNARY0: u32 = 0b010100;
/// `vs1` selector of `vid.v` under [`F6_VMUNARY0`].
pub const VS1_VID: u32 = 0b10001;

/// The merges (`vm` clear) and splats (`vm` set, `vs2` = `v0`); `bits`
/// is funct6. `.vf` is `vfmerge.vfm` / `vfmv.v.f`.
pub static VMERGE: Row<()> = row((), "vmerge", 0b010111).forms(VV | VX | VI | VF);

/// The scalar → element-0 moves `vmv.s.x` / `vfmv.s.f`; `bits` is
/// funct6.
pub static VMV_S: Row<()> = row((), "vmv.s", F6_VUNARY0).forms(VX | VF);

/// funct3 of operand `src` in the family whose `.vv` form is `f3_vv`
/// (OPIVV, OPMVV or OPFVV): an `x` register sets bit 2 of it, an `f`
/// register is always OPFVF and an immediate always OPIVI.
#[must_use]
pub fn vsrc_funct3(src: VSrc, f3_vv: u32) -> u32 {
    match src {
        VSrc::V(_) => f3_vv,
        VSrc::X(_) => f3_vv | 0b100,
        VSrc::F(_) => F3_OPFVF,
        VSrc::I(_) => F3_OPIVI,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed<T: Copy + PartialEq + std::fmt::Debug>(table: &Table<T>) {
        for r in table.0 {
            assert_eq!(table.row(r.op).name, r.name, "duplicate key {:?}", r.op);
            assert_eq!(table.from_name(r.name).unwrap().op, r.op, "{}", r.name);
            assert_eq!(table.from_bits(r.bits).unwrap().op, r.op, "{}", r.name);
            if let Some(alias) = r.alias {
                assert_eq!(table.from_name(alias).unwrap().op, r.op, "{alias}");
            }
            if let Some(imm) = r.imm {
                assert_eq!(table.from_imm(imm).unwrap().op, r.op, "{imm}");
                assert!(table.from_name(imm).is_none(), "{imm}");
            }
        }
    }

    /// No key, name or bit pattern is used twice and every lookup inverts.
    #[test]
    fn tables_are_bijections() {
        well_formed(&UPPER);
        well_formed(&SYSTEM);
        well_formed(&BRANCH);
        well_formed(&LOAD);
        well_formed(&STORE);
        well_formed(&ALU);
        well_formed(&ALU_W);
        well_formed(&CSR);
        well_formed(&AMO);
        well_formed(&AMO_WIDTH);
        well_formed(&FP);
        well_formed(&FMA);
        well_formed(&FP_CVT);
        well_formed(&VARITH);
        well_formed(&VRED);
        well_formed(&VUNARY);
        well_formed(&VMASK);
        well_formed(&VMEM_EEW);
        assert_eq!(VMEM_MODE.mode(VAddrMode::Strided(XReg::RA)).name, "se");
        assert_eq!(VMEM_MODE.from_name("uxei").unwrap().bits, 0b01);
    }

    /// `decode` finds a word's `VARITH` row with one lookup, keyed by the
    /// `.vv` space its funct3 implies: keys and names are unique, each
    /// family lives in one space, and a form appears only in the spaces
    /// where that implication holds.
    #[test]
    fn varith_rows_are_unique_and_their_forms_legal_in_their_space() {
        for (i, r) in VARITH.0.iter().enumerate() {
            let (name, space) = (r.name, r.bits >> 6);
            let family = match r.op {
                Int(_) | Cmp(_) => F3_OPIVV,
                Mul(_) => F3_OPMVV,
                Fp(_) | FCmp(_) => F3_OPFVV,
            };
            assert_eq!(space, family, "{name}: space");
            for other in &VARITH.0[..i] {
                assert_ne!(other.bits, r.bits, "{name}: key of {}", other.name);
                assert_ne!(other.name, name, "name");
            }
            let forms = VV | VX | VI | VF | UIMM;
            assert!(r.forms != 0 && r.forms & !forms == 0, "{name}: forms");
            assert!(!r.has(VI) || space == F3_OPIVV, "{name}.vi outside OPIVV");
            assert!(!r.has(VF) || space == F3_OPFVV, "{name}.vf outside OPFVV");
            assert!(!r.has(VX) || space != F3_OPFVV, "{name}.vx in OPFVV");
            assert!(!r.has(UIMM) || r.has(VI), "{name}: UIMM without .vi");
        }
    }

    #[test]
    fn lookups_follow_the_columns() {
        assert_eq!(ALU.from_imm("sltiu").unwrap().op, AluOp::Sltu);
        assert!(ALU.from_imm("sub").is_none());
        assert!(ALU.from_name("addi").is_none());
        assert_eq!(VMASK.from_name("vmornot").unwrap().op, VMaskOp::OrNot);
        assert_eq!(LOAD.row(LoadOp::Fld).bits >> 7, F3_FP_D);
        assert!(VMASK.from_name("").is_none());
    }
}
