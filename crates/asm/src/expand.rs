//! Mnemonic expansion: one source statement → one or more [`Inst`]s.
//!
//! A real instruction is found by its operand shape's table in
//! [`coyote_isa::ops`]; a pseudo-instruction is a row of [`PSEUDO`], its
//! base instruction with some operands fixed, and expands through the
//! same lookup. Only `li`, `la` and `call` expand as code. Expansion
//! lengths are fixed per mnemonic (and, for `li`, per immediate value),
//! so the layout pass can size the text section before labels are
//! resolved.
//!
//! Vector multiply-accumulate operands: the RVV specification writes
//! `vmacc.vv vd, vs1, vs2` while every other vector op is
//! `vop.vv vd, vs2, vs1`. Because multiplication is commutative the two
//! source orders are semantically identical for the MAC family, so this
//! assembler (and the matching disassembler) use the uniform
//! `vd, vs2, vs1` order everywhere.

use std::collections::BTreeMap;

use coyote_isa::encode::{alu_imm_what, EncodeError};
use coyote_isa::inst::{AluOp, AluWOp, AmoOp, CsrSrc, Inst, UpperOp, VAddrMode, VSrc, XSrc};
use coyote_isa::ops::{self, Table};
use coyote_isa::{Csr, FReg, Lmul, Sew, VReg, VType, XReg};

use crate::operand::Operand;

/// Symbol table: labels and `.equ` constants.
pub type Symbols = BTreeMap<String, u64>;

type R<T> = Result<T, String>;

/// An operand of a pseudo-instruction's base instruction.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// The pseudo-instruction's own operand `i` (from 0).
    Op(usize),
    /// A fixed register.
    Reg(XReg),
    /// A fixed immediate.
    Imm(i64),
}

impl Arg {
    fn operand(self, ops: &[Operand]) -> R<Operand> {
        match self {
            Arg::Op(i) => get(ops, i).cloned(),
            Arg::Reg(reg) => Ok(Operand::X(reg)),
            Arg::Imm(value) => Ok(Operand::Imm(value)),
        }
    }
}

/// A pseudo-instruction: `name` is `base` with operands `args`.
#[derive(Debug)]
pub struct Pseudo {
    /// The pseudo-instruction's mnemonic.
    pub name: &'static str,
    /// The mnemonic of the one instruction it stands for.
    pub base: &'static str,
    /// The base instruction's operands, in order.
    pub args: &'static [Arg],
}

const fn pseudo(name: &'static str, base: &'static str, args: &'static [Arg]) -> Pseudo {
    Pseudo { name, base, args }
}

const X0: Arg = Arg::Reg(XReg::ZERO);
const RA: Arg = Arg::Reg(XReg::RA);
const OP0: Arg = Arg::Op(0);
const OP1: Arg = Arg::Op(1);
const OP2: Arg = Arg::Op(2);

/// The pseudo-instructions, each one row.
pub static PSEUDO: &[Pseudo] = &[
    pseudo("nop", "addi", &[X0, X0, Arg::Imm(0)]),
    pseudo("mv", "addi", &[OP0, OP1, Arg::Imm(0)]),
    pseudo("not", "xori", &[OP0, OP1, Arg::Imm(-1)]),
    pseudo("neg", "sub", &[OP0, X0, OP1]),
    pseudo("negw", "subw", &[OP0, X0, OP1]),
    pseudo("sext.w", "addiw", &[OP0, OP1, Arg::Imm(0)]),
    pseudo("seqz", "sltiu", &[OP0, OP1, Arg::Imm(1)]),
    pseudo("snez", "sltu", &[OP0, X0, OP1]),
    pseudo("sltz", "slt", &[OP0, OP1, X0]),
    pseudo("sgtz", "slt", &[OP0, X0, OP1]),
    pseudo("beqz", "beq", &[OP0, X0, OP1]),
    pseudo("bnez", "bne", &[OP0, X0, OP1]),
    pseudo("blez", "bge", &[X0, OP0, OP1]),
    pseudo("bgez", "bge", &[OP0, X0, OP1]),
    pseudo("bltz", "blt", &[OP0, X0, OP1]),
    pseudo("bgtz", "blt", &[X0, OP0, OP1]),
    pseudo("bgt", "blt", &[OP1, OP0, OP2]),
    pseudo("ble", "bge", &[OP1, OP0, OP2]),
    pseudo("bgtu", "bltu", &[OP1, OP0, OP2]),
    pseudo("bleu", "bgeu", &[OP1, OP0, OP2]),
    pseudo("j", "jal", &[X0, OP0]),
    pseudo("jr", "jalr", &[X0, OP0, Arg::Imm(0)]),
    pseudo("ret", "jalr", &[X0, RA, Arg::Imm(0)]),
    pseudo("csrr", "csrrs", &[OP0, OP1, X0]),
    pseudo("csrw", "csrrw", &[X0, OP0, OP1]),
    pseudo("fmv.d", "fsgnj.d", &[OP0, OP1, OP1]),
    pseudo("fneg.d", "fsgnjn.d", &[OP0, OP1, OP1]),
    pseudo("fabs.d", "fsgnjx.d", &[OP0, OP1, OP1]),
];

fn get(ops: &[Operand], i: usize) -> R<&Operand> {
    ops.get(i)
        .ok_or_else(|| format!("missing operand {}", i + 1))
}

fn xr(ops: &[Operand], i: usize) -> R<XReg> {
    match get(ops, i)? {
        Operand::X(r) => Ok(*r),
        other => Err(format!(
            "operand {} must be an x register, got {other:?}",
            i + 1
        )),
    }
}

fn fr(ops: &[Operand], i: usize) -> R<FReg> {
    match get(ops, i)? {
        Operand::F(r) => Ok(*r),
        other => Err(format!(
            "operand {} must be an f register, got {other:?}",
            i + 1
        )),
    }
}

/// Operand `i` as a raw index: an `f` register when `float`, else an `x`
/// one, for the shapes whose row picks the register file.
fn xfr(ops: &[Operand], i: usize, float: bool) -> R<u8> {
    Ok(if float {
        fr(ops, i)?.into()
    } else {
        xr(ops, i)?.into()
    })
}

fn vr(ops: &[Operand], i: usize) -> R<VReg> {
    match get(ops, i)? {
        Operand::V(r) => Ok(*r),
        other => Err(format!(
            "operand {} must be a v register, got {other:?}",
            i + 1
        )),
    }
}

fn resolve(op: &Operand, symbols: &Symbols) -> R<i64> {
    match op {
        Operand::Imm(v) => Ok(*v),
        Operand::Sym(name) => symbols
            .get(name)
            .map(|&v| v as i64)
            .ok_or_else(|| format!("undefined symbol `{name}`")),
        Operand::Hi(name) => {
            let v = symbols
                .get(name)
                .ok_or_else(|| format!("undefined symbol `{name}`"))?;
            // %hi: upper 20 bits with the +0x800 rounding that pairs
            // with a sign-extended %lo.
            Ok(((v.wrapping_add(0x800) as i64) >> 12) & 0xfffff)
        }
        Operand::Lo(name) => {
            let v = symbols
                .get(name)
                .ok_or_else(|| format!("undefined symbol `{name}`"))?;
            Ok(((*v as i64) << 52) >> 52)
        }
        other => Err(format!("expected an immediate, got {other:?}")),
    }
}

fn imm(ops: &[Operand], i: usize, symbols: &Symbols) -> R<i64> {
    resolve(get(ops, i)?, symbols)
}

fn mem(ops: &[Operand], i: usize, symbols: &Symbols) -> R<(i64, XReg)> {
    match get(ops, i)? {
        Operand::Mem { offset, base } => Ok((resolve(offset, symbols)?, *base)),
        other => Err(format!(
            "operand {} must be a memory operand `off(reg)`, got {other:?}",
            i + 1
        )),
    }
}

/// Base of a vector memory operand: just `(reg)`.
fn vmem_base(ops: &[Operand], i: usize) -> R<XReg> {
    match get(ops, i)? {
        Operand::Mem { offset, base } => {
            if **offset != Operand::Imm(0) {
                return Err("vector memory operands take no offset".to_owned());
            }
            Ok(*base)
        }
        other => Err(format!("operand {} must be `(reg)`, got {other:?}", i + 1)),
    }
}

/// Branch/jump target: a label (resolved PC-relative) or a literal offset.
fn target(ops: &[Operand], i: usize, pc: u64, symbols: &Symbols) -> R<i64> {
    match get(ops, i)? {
        Operand::Imm(v) => Ok(*v),
        Operand::Sym(name) => {
            let addr = symbols
                .get(name)
                .ok_or_else(|| format!("undefined label `{name}`"))?;
            Ok(*addr as i64 - pc as i64)
        }
        other => Err(format!(
            "operand {} must be a label or offset, got {other:?}",
            i + 1
        )),
    }
}

fn csr_operand(ops: &[Operand], i: usize) -> R<Csr> {
    match get(ops, i)? {
        Operand::Sym(name) => Csr::parse(name).ok_or_else(|| format!("unknown csr `{name}`")),
        Operand::Imm(v) => u16::try_from(*v)
            .ok()
            .and_then(|a| Csr::new(a).ok())
            .ok_or_else(|| format!("csr address {v} out of range")),
        other => Err(format!("operand {} must be a csr, got {other:?}", i + 1)),
    }
}

/// Requires the operand at `i` to be the literal `v0` (the merge
/// family's mandatory mask operand).
fn require_v0(ops: &[Operand], i: usize) -> R<()> {
    match get(ops, i)? {
        Operand::V(reg) if reg.index() == 0 => Ok(()),
        other => Err(format!("operand {} must be v0, got {other:?}", i + 1)),
    }
}

/// Whether a trailing `v0.t` mask operand is present at index `i`.
fn mask_at(ops: &[Operand], i: usize) -> bool {
    matches!(ops.get(i), Some(Operand::VMask))
}

/// `rd = rs1 + imm` for an `imm` the 12-bit field holds.
fn addi(rd: XReg, rs1: XReg, imm: i32) -> Inst {
    Inst::Op {
        op: AluOp::Add,
        rd,
        rs1,
        src: XSrc::I(imm),
    }
}

/// The `li` expansion for an arbitrary 64-bit immediate.
#[must_use]
pub fn li_sequence(rd: XReg, value: i64) -> Vec<Inst> {
    if (-2048..=2047).contains(&value) {
        return vec![addi(rd, XReg::ZERO, value as i32)];
    }
    if i32::try_from(value).is_ok() {
        let hi20 = (value.wrapping_add(0x800)) >> 12;
        let lui_imm = ((hi20 << 12) as i32) as i64;
        // `addiw` adds in 32 bits: where `hi20` rounds up past
        // `i32::MAX`, the wrapped difference is the small negative one.
        let lo = value.wrapping_sub(lui_imm) as i32;
        let mut seq = vec![Inst::Upper {
            op: UpperOp::Lui,
            rd,
            imm: lui_imm,
        }];
        if lo != 0 {
            seq.push(Inst::Op32 {
                op: AluWOp::Addw,
                rd,
                rs1: rd,
                src: XSrc::I(lo),
            });
        }
        return seq;
    }
    // General 64-bit constant: materialize the upper part, shift, add the
    // low 12 bits; recurse on the upper part.
    let lo12 = (value << 52) >> 52;
    let hi = (value.wrapping_sub(lo12)) >> 12;
    let mut seq = li_sequence(rd, hi);
    seq.push(Inst::Op {
        op: AluOp::Sll,
        rd,
        rs1: rd,
        src: XSrc::I(12),
    });
    if lo12 != 0 {
        seq.push(addi(rd, rd, lo12 as i32));
    }
    seq
}

/// Number of instructions `mnemonic` expands to.
///
/// # Errors
///
/// Returns a message if the mnemonic is unknown or (for `li`) the value
/// operand cannot be evaluated during layout.
pub fn expansion_len(mnemonic: &str, ops: &[Operand], symbols: &Symbols) -> R<usize> {
    match mnemonic {
        "li" => {
            let rd = xr(ops, 0)?;
            let value = imm(ops, 1, symbols)
                .map_err(|e| format!("{e} (li values must be known at layout time)"))?;
            Ok(li_sequence(rd, value).len())
        }
        "la" | "call" => Ok(2),
        _ => Ok(1),
    }
}

/// Expands one statement into machine instructions.
///
/// `pc` is the address of the first emitted instruction; label operands
/// resolve PC-relative against it.
///
/// # Errors
///
/// Returns a message describing the malformed statement.
pub fn expand(mnemonic: &str, ops: &[Operand], pc: u64, symbols: &Symbols) -> R<Vec<Inst>> {
    if let Some(pseudo) = PSEUDO.iter().find(|p| p.name == mnemonic) {
        // A missing operand is numbered as written; an operand of the
        // wrong kind is numbered in the base instruction the message names.
        let args = pseudo.args.iter().map(|arg| arg.operand(ops));
        return expand(pseudo.base, &args.collect::<R<Vec<_>>>()?, pc, symbols)
            .map_err(|e| format!("{e} (`{}` expands to `{}`)", pseudo.name, pseudo.base));
    }
    // Vector mnemonics have systematic shapes; try those first, then
    // the scalar operation tables; what is left is one of a kind.
    if let Some(insts) = expand_vector(mnemonic, ops, symbols)? {
        return Ok(insts);
    }
    if let Some(insts) = expand_family(mnemonic, ops, pc, symbols)? {
        return Ok(insts);
    }

    let one = |inst: Inst| Ok(vec![inst]);
    match mnemonic {
        "jal" => {
            // `jal target` or `jal rd, target`.
            let (rd, idx) = if ops.len() == 1 {
                (XReg::RA, 0)
            } else {
                (xr(ops, 0)?, 1)
            };
            let offset = target(ops, idx, pc, symbols)?;
            one(Inst::Jal {
                rd,
                offset: i32::try_from(offset).map_err(|_| "jal offset too large")?,
            })
        }
        "jalr" => {
            // `jalr rs1` | `jalr rd, offset(rs1)` | `jalr rd, rs1, offset`.
            let (rd, offset, rs1) = match ops.len() {
                1 => (XReg::RA, 0, xr(ops, 0)?),
                2 => {
                    let rd = xr(ops, 0)?;
                    let (offset, rs1) = mem(ops, 1, symbols)?;
                    (rd, offset, rs1)
                }
                _ => {
                    let (rd, rs1) = (xr(ops, 0)?, xr(ops, 1)?);
                    (rd, imm(ops, 2, symbols)?, rs1)
                }
            };
            one(Inst::Jalr {
                rd,
                rs1,
                offset: i32::try_from(offset).map_err(|_| "jalr offset too large")?,
            })
        }
        "call" => {
            let value = match get(ops, 0)? {
                Operand::Sym(name) => *symbols
                    .get(name)
                    .ok_or_else(|| format!("undefined label `{name}`"))?,
                other => return Err(format!("call target must be a label, got {other:?}")),
            };
            Ok(pcrel_pair(XReg::RA, value, pc, PcrelKind::Call)?)
        }
        "la" => {
            let rd = xr(ops, 0)?;
            let value = match get(ops, 1)? {
                Operand::Sym(name) => *symbols
                    .get(name)
                    .ok_or_else(|| format!("undefined symbol `{name}`"))?,
                other => return Err(format!("la source must be a symbol, got {other:?}")),
            };
            Ok(pcrel_pair(rd, value, pc, PcrelKind::Address)?)
        }
        "li" => {
            let rd = xr(ops, 0)?;
            Ok(li_sequence(rd, imm(ops, 1, symbols)?))
        }
        _ => Err(format!("unknown mnemonic `{mnemonic}`")),
    }
}

/// The scalar operation families, where the mnemonic selects a row of
/// a table in [`coyote_isa::ops`]; returns `Ok(None)` when it names none.
fn expand_family(
    mnemonic: &str,
    ops: &[Operand],
    pc: u64,
    symbols: &Symbols,
) -> R<Option<Vec<Inst>>> {
    let some = |inst: Inst| Ok(Some(vec![inst]));
    if let Some(row) = ops::UPPER.from_name(mnemonic) {
        let rd = xr(ops, 0)?;
        let raw = imm(ops, 1, symbols)?;
        if !(-0x8_0000..=0xf_ffff).contains(&raw) {
            return Err(format!("20-bit immediate out of range: {raw}"));
        }
        let imm = (((raw & 0xfffff) << 12) as i32) as i64;
        return some(Inst::Upper {
            op: row.op,
            rd,
            imm,
        });
    }
    if let Some(row) = ops::SYSTEM.from_name(mnemonic) {
        return some(Inst::System { op: row.op });
    }
    if let Some(row) = ops::BRANCH.from_name(mnemonic) {
        let (rs1, rs2) = (xr(ops, 0)?, xr(ops, 1)?);
        let offset = target(ops, 2, pc, symbols)?;
        return some(Inst::Branch {
            op: row.op,
            rs1,
            rs2,
            offset: i32::try_from(offset).map_err(|_| "branch offset too large")?,
        });
    }
    if let Some(row) = ops::LOAD.from_name(mnemonic) {
        let rd = xfr(ops, 0, row.op.rd_is_f())?;
        let (offset, rs1) = mem(ops, 1, symbols)?;
        return some(Inst::Load {
            op: row.op,
            rd,
            rs1,
            offset: i32::try_from(offset).map_err(|_| "load offset too large")?,
        });
    }
    if let Some(row) = ops::STORE.from_name(mnemonic) {
        let rs2 = xfr(ops, 0, row.op.rs2_is_f())?;
        let (offset, rs1) = mem(ops, 1, symbols)?;
        return some(Inst::Store {
            op: row.op,
            rs2,
            rs1,
            offset: i32::try_from(offset).map_err(|_| "store offset too large")?,
        });
    }
    if let Some((op, rd, rs1, src)) = alu_form(&ops::ALU, mnemonic, false, ops, symbols)? {
        return some(Inst::Op { op, rd, rs1, src });
    }
    if let Some((op, rd, rs1, src)) = alu_form(&ops::ALU_W, mnemonic, true, ops, symbols)? {
        return some(Inst::Op32 { op, rd, rs1, src });
    }
    if let Some(row) = ops::CSR.from_name(mnemonic) {
        return some(Inst::Csr {
            op: row.op,
            rd: xr(ops, 0)?,
            csr: csr_operand(ops, 1)?,
            src: CsrSrc::Reg(xr(ops, 2)?),
        });
    }
    if let Some(row) = ops::CSR.from_imm(mnemonic) {
        let z = imm(ops, 2, symbols)?;
        let z = u8::try_from(z).map_err(|_| "csr immediate out of range")?;
        return some(Inst::Csr {
            op: row.op,
            rd: xr(ops, 0)?,
            csr: csr_operand(ops, 1)?,
            src: CsrSrc::Imm(z),
        });
    }
    let amo = mnemonic.split_once('.').and_then(|(stem, width)| {
        Some((
            ops::AMO.from_name(stem)?.op,
            ops::AMO_WIDTH.from_name(width)?.op,
        ))
    });
    if let Some((op, width)) = amo {
        // `lr` has no data register: `lr.d rd, (rs1)`.
        let rd = xr(ops, 0)?;
        let (rs1, rs2) = if op == AmoOp::Lr {
            (vmem_base(ops, 1)?, XReg::ZERO)
        } else {
            (vmem_base(ops, 2)?, xr(ops, 1)?)
        };
        return some(Inst::Amo {
            op,
            width,
            rd,
            rs1,
            rs2,
        });
    }
    if let Some(row) = ops::FP.from_name(mnemonic) {
        return some(Inst::FpOp {
            op: row.op,
            rd: xfr(ops, 0, row.op.rd_is_f())?,
            rs1: fr(ops, 1)?,
            rs2: fr(ops, 2)?,
        });
    }
    if let Some(row) = ops::FMA.from_name(mnemonic) {
        return some(Inst::FpFma {
            op: row.op,
            rd: fr(ops, 0)?,
            rs1: fr(ops, 1)?,
            rs2: fr(ops, 2)?,
            rs3: fr(ops, 3)?,
        });
    }
    if let Some(row) = ops::FP_CVT.from_name(mnemonic) {
        let f_rd = row.op.rd_is_f();
        return some(Inst::FpCvt {
            op: row.op,
            rd: xfr(ops, 0, f_rd)?,
            rs1: xfr(ops, 1, !f_rd)?,
        });
    }
    Ok(None)
}

/// `(op, rd, rs1, src)` of the operation of `table` that `mnemonic`
/// names in its register form (`add`) or its immediate form (`addi`);
/// `None` if it names neither. An immediate no `i32` holds is out of
/// range for every field, and is reported as the encoder reports one
/// (`word`: an `Op32` row).
fn alu_form<T: Copy + PartialEq>(
    table: &Table<T>,
    mnemonic: &str,
    word: bool,
    ops: &[Operand],
    symbols: &Symbols,
) -> R<Option<(T, XReg, XReg, XSrc)>> {
    let (row, is_imm) = match table.from_name(mnemonic) {
        Some(row) => (row, false),
        None => match table.from_imm(mnemonic) {
            Some(row) => (row, true),
            None => return Ok(None),
        },
    };
    let (rd, rs1) = (xr(ops, 0)?, xr(ops, 1)?);
    let src = if is_imm {
        let value = imm(ops, 2, symbols)?;
        let range = EncodeError::ImmOutOfRange {
            what: alu_imm_what(row, word),
            value,
        };
        XSrc::I(i32::try_from(value).map_err(|_| range.to_string())?)
    } else {
        XSrc::X(xr(ops, 2)?)
    };
    Ok(Some((row.op, rd, rs1, src)))
}

#[derive(Clone, Copy)]
enum PcrelKind {
    Address,
    Call,
}

/// `auipc`+`addi`/`jalr` pair for PC-relative addressing.
fn pcrel_pair(rd: XReg, value: u64, pc: u64, kind: PcrelKind) -> R<Vec<Inst>> {
    let delta = value.wrapping_sub(pc) as i64;
    let hi20 = (delta.wrapping_add(0x800)) >> 12;
    let auipc_imm = ((hi20 << 12) as i32) as i64;
    let lo = delta.wrapping_sub(auipc_imm);
    // Within 2 KiB below `i32::MAX` the rounded-up upper part wraps
    // negative, and no 12-bit `lo` makes up the difference.
    if i32::try_from(delta).is_err() || !(-2048..=2047).contains(&lo) {
        return Err(format!("pc-relative target {delta:#x} out of ±2 GiB range"));
    }
    let second = match kind {
        PcrelKind::Address => addi(rd, rd, lo as i32),
        PcrelKind::Call => Inst::Jalr {
            rd,
            rs1: rd,
            offset: lo as i32,
        },
    };
    let auipc = Inst::Upper {
        op: UpperOp::Auipc,
        rd,
        imm: auipc_imm,
    };
    Ok(vec![auipc, second])
}

/// Vector mnemonic handling; returns `Ok(None)` when the mnemonic is not
/// a vector instruction.
fn expand_vector(mnemonic: &str, ops: &[Operand], symbols: &Symbols) -> R<Option<Vec<Inst>>> {
    let some = |inst: Inst| Ok(Some(vec![inst]));
    match mnemonic {
        "vsetvli" => {
            let rd = xr(ops, 0)?;
            let rs1 = xr(ops, 1)?;
            let vtype = parse_vtype(&ops[2..])?;
            return some(Inst::Vsetvli { rd, rs1, vtype });
        }
        "vsetivli" => {
            let rd = xr(ops, 0)?;
            let avl = imm(ops, 1, symbols)?;
            let avl = u8::try_from(avl).map_err(|_| "vsetivli avl out of range")?;
            let vtype = parse_vtype(&ops[2..])?;
            return some(Inst::Vsetivli { rd, avl, vtype });
        }
        "vsetvl" => {
            return some(Inst::Vsetvl {
                rd: xr(ops, 0)?,
                rs1: xr(ops, 1)?,
                rs2: xr(ops, 2)?,
            });
        }
        "vid.v" => {
            return some(Inst::Vid {
                vd: vr(ops, 0)?,
                vm: !mask_at(ops, 1),
            });
        }
        // The merges, the splats they encode as (`vm` = 1, `vs2` = v0)
        // and the element-0 moves.
        "vmerge.vvm" | "vmerge.vxm" | "vmerge.vim" | "vfmerge.vfm" => {
            require_v0(ops, 3)?;
            return some(Inst::VMerge {
                vd: vr(ops, 0)?,
                vs2: vr(ops, 1)?,
                src: vsrc(mnemonic, ops, 2, symbols)?,
                vm: false,
            });
        }
        "vmv.v.v" | "vmv.v.x" | "vmv.v.i" | "vfmv.v.f" => {
            return some(Inst::VMerge {
                vd: vr(ops, 0)?,
                vs2: VReg::V0,
                src: vsrc(mnemonic, ops, 1, symbols)?,
                vm: true,
            });
        }
        "vmv.s.x" | "vfmv.s.f" => {
            return some(Inst::VMvS {
                vd: vr(ops, 0)?,
                src: vsrc(mnemonic, ops, 1, symbols)?,
            });
        }
        _ => {}
    }
    if let Some(row) = ops::VUNARY.from_name(mnemonic) {
        let rd = xfr(ops, 0, row.op.rd_is_f())?;
        let (vs2, vm) = (vr(ops, 1)?, !mask_at(ops, 2));
        return some(Inst::VUnary {
            op: row.op,
            rd,
            vs2,
            vm,
        });
    }

    // Vector memory: v{l,s}{e,se,uxei}<bits>.v
    if let Some((is_load, mode, eew)) = parse_vmem_mnemonic(mnemonic) {
        let vreg0 = vr(ops, 0)?;
        let rs1 = vmem_base(ops, 1)?;
        let (mode, mask_idx) = match mode {
            VAddrMode::Unit => (VAddrMode::Unit, 2),
            VAddrMode::Strided(_) => (VAddrMode::Strided(xr(ops, 2)?), 3),
            VAddrMode::Indexed(_) => (VAddrMode::Indexed(vr(ops, 2)?), 3),
        };
        let vm = !mask_at(ops, mask_idx);
        return some(if is_load {
            Inst::VLoad {
                vd: vreg0,
                rs1,
                mode,
                eew,
                vm,
            }
        } else {
            Inst::VStore {
                vs3: vreg0,
                rs1,
                mode,
                eew,
                vm,
            }
        });
    }

    // Vector arithmetic: <stem>.<form> where form ∈ {vv, vx, vi, vf, mm, vs}.
    let Some((stem, form)) = mnemonic.rsplit_once('.') else {
        return Ok(None);
    };
    if let Some(row) = ops::VRED.from_name(stem).filter(|_| form == "vs") {
        return some(Inst::VRed {
            op: row.op,
            vd: vr(ops, 0)?,
            vs2: vr(ops, 1)?,
            vs1: vr(ops, 2)?,
            vm: !mask_at(ops, 3),
        });
    }
    if form == "mm" {
        let Some(row) = ops::VMASK.from_name(stem) else {
            return Ok(None);
        };
        return some(Inst::VMaskLogical {
            op: row.op,
            vd: vr(ops, 0)?,
            vs2: vr(ops, 1)?,
            vs1: vr(ops, 2)?,
        });
    }
    if !matches!(form, "vv" | "vx" | "vi" | "vf") {
        return Ok(None);
    }
    // The operand shapes every family shares; which forms an operation
    // really has is the encoder's check, from the same table.
    let head = || -> R<_> {
        let (vd, vs2) = (vr(ops, 0)?, vr(ops, 1)?);
        let src = vsrc(mnemonic, ops, 2, symbols)?;
        Ok((vd, vs2, src, !mask_at(ops, 3)))
    };
    if let Some(row) = ops::VINT.from_name(stem) {
        let (vd, vs2, src, vm) = head()?;
        return some(Inst::VIntOp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VMUL.from_name(stem) {
        let (vd, vs2, src, vm) = head()?;
        return some(Inst::VMulOp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VFP.from_name(stem) {
        let (vd, vs2, src, vm) = head()?;
        return some(Inst::VFpOp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VCMP.from_name(stem) {
        let (vd, vs2, src, vm) = head()?;
        return some(Inst::VMaskCmp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    if let Some(row) = ops::VFCMP.from_name(stem) {
        let (vd, vs2, src, vm) = head()?;
        return some(Inst::VFMaskCmp {
            op: row.op,
            vd,
            vs2,
            src,
            vm,
        });
    }
    Ok(None)
}

/// The second operand of a vector instruction, by the form letter its
/// mnemonic ends in (`x` for `vadd.vx`, `vmv.v.x` and `vmerge.vxm`): a
/// `v`, `x` or `f` register, or (`i`) an immediate.
fn vsrc(mnemonic: &str, ops: &[Operand], i: usize, symbols: &Symbols) -> R<VSrc> {
    let stem = mnemonic.trim_end_matches('m');
    Ok(match &stem[stem.len() - 1..] {
        "v" => VSrc::V(vr(ops, i)?),
        "x" => VSrc::X(xr(ops, i)?),
        "f" => VSrc::F(fr(ops, i)?),
        _ => {
            let value = imm(ops, i, symbols)?;
            let imm = i8::try_from(value);
            VSrc::I(imm.map_err(|_| format!("vector immediate {value} out of range"))?)
        }
    })
}

/// Parses `v{l,s}{e,se,uxei}<bits>.v` into (is-load, the mode's table
/// row key with its placeholder register, element width).
fn parse_vmem_mnemonic(mnemonic: &str) -> Option<(bool, VAddrMode, Sew)> {
    let rest = mnemonic.strip_prefix('v')?.strip_suffix(".v")?;
    let (is_load, rest) = match rest.strip_prefix('l') {
        Some(rest) => (true, rest),
        None => (false, rest.strip_prefix('s')?),
    };
    let digits = rest.find(|c: char| c.is_ascii_digit())?;
    let mode = ops::VMEM_MODE.from_name(&rest[..digits])?.op;
    let eew = ops::VMEM_EEW.from_name(&rest[digits..])?.op;
    Some((is_load, mode, eew))
}

/// Parses the trailing `eXX,mY,ta,ma` operands of a `vset*` instruction.
fn parse_vtype(ops: &[Operand]) -> R<VType> {
    let mut sew = None;
    let mut lmul = None;
    let mut ta = false;
    let mut ma = false;
    for op in ops {
        let Operand::Sym(word) = op else {
            return Err(format!("invalid vtype element {op:?}"));
        };
        match word.as_str() {
            "e8" => sew = Some(Sew::E8),
            "e16" => sew = Some(Sew::E16),
            "e32" => sew = Some(Sew::E32),
            "e64" => sew = Some(Sew::E64),
            "mf8" => lmul = Some(Lmul::MF8),
            "mf4" => lmul = Some(Lmul::MF4),
            "mf2" => lmul = Some(Lmul::MF2),
            "m1" => lmul = Some(Lmul::M1),
            "m2" => lmul = Some(Lmul::M2),
            "m4" => lmul = Some(Lmul::M4),
            "m8" => lmul = Some(Lmul::M8),
            "ta" => ta = true,
            "tu" => ta = false,
            "ma" => ma = true,
            "mu" => ma = false,
            other => return Err(format!("invalid vtype element `{other}`")),
        }
    }
    Ok(VType {
        sew: sew.ok_or("vtype missing element width")?,
        lmul: lmul.ok_or("vtype missing lmul")?,
        ta,
        ma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_isa::inst::{BranchOp, CsrOp, MemWidth, VFpOp, VIntOp, VMulOp};

    fn parse_ops(text: &str) -> Vec<Operand> {
        crate::operand::split_operands(text)
            .iter()
            .map(|t| Operand::parse(t).unwrap())
            .collect()
    }

    fn expand1(mnemonic: &str, ops_text: &str) -> Inst {
        let ops = parse_ops(ops_text);
        let insts = expand(mnemonic, &ops, 0x8000_0000, &Symbols::new()).unwrap();
        assert_eq!(insts.len(), 1);
        insts[0]
    }

    #[test]
    fn li_small_medium_large() {
        let rd = XReg::A0;
        assert_eq!(li_sequence(rd, 5).len(), 1);
        assert_eq!(li_sequence(rd, -2048).len(), 1);
        assert_eq!(li_sequence(rd, 0x1000).len(), 1); // lui only, lo == 0
        assert_eq!(li_sequence(rd, 0x12345).len(), 2);
        assert!(li_sequence(rd, 0x1234_5678_9abc_def0).len() >= 5);
    }

    /// Interpret an li sequence to verify it materializes the value;
    /// every instruction of it must encode.
    fn run_li(value: i64) -> i64 {
        let seq = li_sequence(XReg::A0, value);
        let mut reg: i64 = 0;
        for inst in seq {
            coyote_isa::encode(&inst).unwrap_or_else(|e| panic!("li {value:#x}: {inst}: {e}"));
            match inst {
                Inst::Op {
                    op: AluOp::Add,
                    src: XSrc::I(imm),
                    ..
                } => reg = reg.wrapping_add(i64::from(imm)),
                Inst::Op {
                    op: AluOp::Sll,
                    src: XSrc::I(imm),
                    ..
                } => reg <<= imm,
                Inst::Upper {
                    op: UpperOp::Lui,
                    imm,
                    ..
                } => reg = imm,
                Inst::Op32 {
                    op: AluWOp::Addw,
                    src: XSrc::I(imm),
                    ..
                } => reg = i64::from((reg.wrapping_add(i64::from(imm))) as i32),
                other => panic!("unexpected inst in li sequence: {other:?}"),
            }
        }
        reg
    }

    #[test]
    fn li_materializes_exact_values() {
        for v in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            0x7fff_ffff,
            0x7fff_f800,
            -0x8000_0000,
            0x8000_0000,
            0x1234_5678,
            -0x1234_5678,
            0x1234_5678_9abc_def0,
            i64::MAX,
            i64::MIN,
            0x8000_0000_0000_0000u64 as i64,
        ] {
            assert_eq!(run_li(v), v, "li of {v:#x}");
        }
    }

    #[test]
    fn branch_to_label_is_pc_relative() {
        let mut symbols = Symbols::new();
        symbols.insert("loop".to_owned(), 0x8000_0000);
        let ops = parse_ops("a0, a1, loop");
        let insts = expand("bne", &ops, 0x8000_0010, &symbols).unwrap();
        assert_eq!(
            insts[0],
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: XReg::A0,
                rs2: XReg::A1,
                offset: -16
            }
        );
    }

    #[test]
    fn la_emits_auipc_addi() {
        let mut symbols = Symbols::new();
        symbols.insert("data".to_owned(), 0x8100_0008);
        let ops = parse_ops("a0, data");
        let insts = expand("la", &ops, 0x8000_0000, &symbols).unwrap();
        assert_eq!(insts.len(), 2);
        let Inst::Upper {
            op: UpperOp::Auipc,
            imm: hi,
            ..
        } = insts[0]
        else {
            panic!("expected auipc");
        };
        let Inst::Op {
            src: XSrc::I(lo), ..
        } = insts[1]
        else {
            panic!("expected addi");
        };
        assert_eq!(0x8000_0000i64 + hi + i64::from(lo), 0x8100_0008);
    }

    #[test]
    fn pseudo_expansions() {
        assert_eq!(
            expand1("mv", "a0, a1"),
            Inst::Op {
                op: AluOp::Add,
                rd: XReg::A0,
                rs1: XReg::A1,
                src: XSrc::I(0)
            }
        );
        assert_eq!(
            expand1("nop", ""),
            Inst::Op {
                op: AluOp::Add,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                src: XSrc::I(0)
            }
        );
        assert!(matches!(expand1("ret", ""), Inst::Jalr { .. }));
        assert!(matches!(
            expand1("csrr", "a0, mhartid"),
            Inst::Csr {
                op: CsrOp::Rs,
                src: CsrSrc::Reg(XReg::ZERO),
                ..
            }
        ));
    }

    #[test]
    fn vector_memory_forms() {
        assert!(matches!(
            expand1("vle64.v", "v8, (a0)"),
            Inst::VLoad {
                mode: VAddrMode::Unit,
                eew: Sew::E64,
                vm: true,
                ..
            }
        ));
        assert!(matches!(
            expand1("vlse64.v", "v8, (a0), t0"),
            Inst::VLoad {
                mode: VAddrMode::Strided(_),
                ..
            }
        ));
        assert!(matches!(
            expand1("vluxei64.v", "v8, (a0), v16"),
            Inst::VLoad {
                mode: VAddrMode::Indexed(_),
                ..
            }
        ));
        assert!(matches!(
            expand1("vse32.v", "v8, (a0), v0.t"),
            Inst::VStore {
                eew: Sew::E32,
                vm: false,
                ..
            }
        ));
    }

    #[test]
    fn vector_arith_forms() {
        assert!(matches!(
            expand1("vadd.vv", "v1, v2, v3"),
            Inst::VIntOp {
                op: VIntOp::Add,
                src: VSrc::V(_),
                vm: true,
                ..
            }
        ));
        assert!(matches!(
            expand1("vsll.vi", "v1, v2, 3"),
            Inst::VIntOp {
                op: VIntOp::Sll,
                src: VSrc::I(3),
                ..
            }
        ));
        assert!(matches!(
            expand1("vfmacc.vf", "v1, v2, fa0"),
            Inst::VFpOp {
                op: VFpOp::Macc,
                src: VSrc::F(_),
                ..
            }
        ));
        assert!(matches!(
            expand1("vmacc.vx", "v1, v2, a0, v0.t"),
            Inst::VMulOp {
                op: VMulOp::Macc,
                vm: false,
                ..
            }
        ));
    }

    #[test]
    fn vsetvli_parses_joined_vtype() {
        let inst = expand1("vsetvli", "t0, a0, e64,m1,ta,ma");
        assert_eq!(
            inst,
            Inst::Vsetvli {
                rd: XReg::parse("t0").unwrap(),
                rs1: XReg::A0,
                vtype: VType::new(Sew::E64, Lmul::M1),
            }
        );
    }

    #[test]
    fn errors_are_descriptive() {
        let err = expand("bogus", &[], 0, &Symbols::new()).unwrap_err();
        assert!(err.contains("bogus"));
        let ops = parse_ops("a0, a1, nowhere");
        let err = expand("beq", &ops, 0, &Symbols::new()).unwrap_err();
        assert!(err.contains("nowhere"));
        // A pseudo-instruction's error names the base it expands to.
        for (mnemonic, ops_text, want) in [
            ("bgt", "a0", "missing operand 2"),
            (
                "neg",
                "a0, 5",
                "operand 3 must be an x register, got Imm(5) (`neg` expands to `sub`)",
            ),
        ] {
            let err = expand(mnemonic, &parse_ops(ops_text), 0, &Symbols::new()).unwrap_err();
            assert_eq!(err, want, "{mnemonic} {ops_text}");
        }
        // An immediate no field holds is reported with its value as
        // written, whether `i32` holds it or not.
        let err = coyote_isa::encode(&expand1("addi", "a0, a0, 5000")).unwrap_err();
        assert_eq!(err.to_string(), "immediate 5000 out of range for op-imm");
        for (mnemonic, ops_text, want) in [
            (
                "addi",
                "a0, a0, 0x100000000",
                "immediate 4294967296 out of range for op-imm",
            ),
            (
                "slliw",
                "a0, a0, -4294967296",
                "immediate -4294967296 out of range for word shift amount",
            ),
        ] {
            let err = expand(mnemonic, &parse_ops(ops_text), 0, &Symbols::new()).unwrap_err();
            assert_eq!(err, want, "{mnemonic} {ops_text}");
        }
        // Where `auipc`'s rounded-up part overshoots, no 12-bit `lo` is
        // left: an error, not a truncated offset.
        let far = Symbols::from([("far".to_owned(), 0x7fff_ffff)]);
        for (mnemonic, ops_text) in [("call", "far"), ("la", "a0, far")] {
            let err = expand(mnemonic, &parse_ops(ops_text), 0, &far).unwrap_err();
            assert_eq!(err, "pc-relative target 0x7fffffff out of ±2 GiB range");
        }
        let err = coyote_isa::encode(&expand1("vadd.vi", "v1, v2, 99")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "immediate 99 out of range for vector immediate",
        );
        // A form the operation lacks is reported under its own name.
        for (mnemonic, ops_text) in [
            ("vmsgtu.vv", "v1, v2, v3"),
            ("vmsltu.vi", "v1, v2, 3"),
            ("vsub.vi", "v1, v2, 3"),
            ("vmin.vi", "v1, v2, 3"),
            ("vmax.vi", "v1, v2, 3"),
            ("vmfge.vv", "v1, v2, v3"),
        ] {
            let err = coyote_isa::encode(&expand1(mnemonic, ops_text)).unwrap_err();
            let (stem, form) = mnemonic.split_once('.').unwrap();
            assert_eq!(err.to_string(), format!("`{stem}` has no .{form} form"));
        }
    }

    #[test]
    fn expansion_len_matches_expand() {
        let symbols = {
            let mut s = Symbols::new();
            s.insert("somewhere".to_owned(), 0x8000_0100);
            s
        };
        for (mnemonic, ops_text) in [
            ("li", "a0, 0x123456789"),
            ("li", "a0, 7"),
            ("la", "a0, somewhere"),
            ("call", "somewhere"),
            ("add", "a0, a1, a2"),
            ("vadd.vv", "v1, v2, v3"),
        ] {
            let ops = parse_ops(ops_text);
            let len = expansion_len(mnemonic, &ops, &symbols).unwrap();
            let insts = expand(mnemonic, &ops, 0x8000_0000, &symbols).unwrap();
            assert_eq!(len, insts.len(), "{mnemonic} {ops_text}");
        }
    }

    #[test]
    fn amo_forms() {
        assert!(matches!(
            expand1("lr.d", "a0, (a1)"),
            Inst::Amo { op: AmoOp::Lr, .. }
        ));
        assert!(matches!(
            expand1("amoadd.w", "a0, a2, (a1)"),
            Inst::Amo {
                op: AmoOp::Add,
                width: MemWidth::W,
                ..
            }
        ));
    }
}
