//! Exhaustive small-universe test of the scalar execution semantics —
//! the scalar twin of `vector_sweep.rs`.
//!
//! The universe is every row of the scalar op tables (`UPPER`, `BRANCH`,
//! `LOAD` and `STORE` with `fld` and `fsd`, `ALU` with its immediate
//! forms, `ALU_W` likewise, `FP` with its compares, `FMA`, `FP_CVT`) plus
//! `jal` and `jalr`, each at a few destinations (a fresh register, one aliasing the first
//! source, and `x0`) and a few immediates or offsets. Every instruction
//! runs through [`execute`] once per operand tuple from a grid — `0, 1,
//! -1, i64::MIN, i64::MAX, 0x8000_0000` in the `x` sources, `±0.0,
//! ±inf`, a non-canonical NaN and a subnormal in the `f` sources — and
//! the outcome, the destination, branch flag and accesses it reports,
//! both register files, the pc and the bytes around any accessed
//! address are folded into one digest. The instruction count and digest were recorded
//! before the fused-run shapes moved out of `execute` into their own
//! kernel, so that move is pinned to the semantics it had.

use coyote_isa::inst::XSrc;
use coyote_isa::{ops, FReg, Inst, Uop, XReg};
use coyote_iss::exec::execute;
use coyote_iss::{Hart, SparseMemory};

/// Instructions in [`universe`], recorded before the scalar kernel.
const WORDS: u64 = 583;
/// FNV-1a-64 over every run's outcome and state, recorded with
/// [`WORDS`].
const DIGEST: u64 = 0xfbda_33b1_72ec_09d1;

const PC: u64 = 0x8000_0000;
const X_GRID: [u64; 6] = [
    0,
    1,
    u64::MAX,
    i64::MIN as u64,
    i64::MAX as u64,
    0x8000_0000,
];
const F_GRID: [f64; 6] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    // A negative quiet NaN with a payload: any result that passes it on
    // instead of the canonical NaN shows.
    f64::from_bits(0xfff8_0000_0000_0bad),
    1e-310,
];
const IMMS: [i32; 7] = [0, 1, -1, 31, 63, 2047, -2048];
const OFFSETS: [i32; 4] = [0, -1, 7, 2047];

/// Source registers: operand `n` of a grid tuple is loaded into `x(6+n)`
/// and `f(6+n)` alike, so one index drives either register class.
const SRC: [u8; 3] = [6, 7, 8];
/// Destinations: a register no source uses, one aliasing the first
/// source, and (for `x` only) the hard-wired zero.
const X_DEST: [u8; 3] = [5, 6, 0];
const F_DEST: [u8; 2] = [5, 6];

fn x(n: u8) -> XReg {
    XReg::new(n).unwrap()
}

fn f(n: u8) -> FReg {
    FReg::new(n).unwrap()
}

/// One instruction and how many grid operands it reads.
struct Case {
    inst: Inst,
    arity: u32,
}

fn universe() -> Vec<Case> {
    let mut cases = Vec::new();
    let mut add = |inst, arity| cases.push(Case { inst, arity });
    let (rs1, rs2, rs3) = (SRC[0], SRC[1], SRC[2]);
    for &rd in &X_DEST {
        let rd = x(rd);
        for row in ops::UPPER.0 {
            for imm in [0, 1 << 12, -(1 << 12), i64::from(i32::MIN)] {
                add(
                    Inst::Upper {
                        op: row.op,
                        rd,
                        imm,
                    },
                    0,
                );
            }
        }
        for offset in [0, 4, -4, 2048, -(1 << 20)] {
            add(Inst::Jal { rd, offset }, 0);
        }
        for offset in [0, 1, -1, 2047] {
            add(
                Inst::Jalr {
                    rd,
                    rs1: x(rs1),
                    offset,
                },
                1,
            );
        }
        for row in ops::LOAD.0.iter().filter(|r| !r.op.rd_is_f()) {
            for offset in OFFSETS {
                add(
                    Inst::Load {
                        op: row.op,
                        rd: rd.into(),
                        rs1: x(rs1),
                        offset,
                    },
                    1,
                );
            }
        }
        for row in ops::ALU.0 {
            add(
                Inst::Op {
                    op: row.op,
                    rd,
                    rs1: x(rs1),
                    src: XSrc::X(x(rs2)),
                },
                2,
            );
            if row.imm.is_some() {
                for imm in IMMS {
                    add(
                        Inst::Op {
                            op: row.op,
                            rd,
                            rs1: x(rs1),
                            src: XSrc::I(imm),
                        },
                        1,
                    );
                }
            }
        }
        for row in ops::ALU_W.0 {
            add(
                Inst::Op32 {
                    op: row.op,
                    rd,
                    rs1: x(rs1),
                    src: XSrc::X(x(rs2)),
                },
                2,
            );
            if row.imm.is_some() {
                for imm in IMMS {
                    add(
                        Inst::Op32 {
                            op: row.op,
                            rd,
                            rs1: x(rs1),
                            src: XSrc::I(imm),
                        },
                        1,
                    );
                }
            }
        }
        for row in ops::FP.0.iter().filter(|r| !r.op.rd_is_f()) {
            add(
                Inst::FpOp {
                    op: row.op,
                    rd: rd.into(),
                    rs1: f(rs1),
                    rs2: f(rs2),
                },
                2,
            );
        }
    }
    for row in ops::BRANCH.0 {
        for offset in [8, -8] {
            add(
                Inst::Branch {
                    op: row.op,
                    rs1: x(rs1),
                    rs2: x(rs2),
                    offset,
                },
                2,
            );
        }
    }
    for row in ops::STORE.0 {
        for offset in OFFSETS {
            add(
                Inst::Store {
                    op: row.op,
                    rs2,
                    rs1: x(rs1),
                    offset,
                },
                2,
            );
        }
    }
    for &rd in &F_DEST {
        for row in ops::LOAD.0.iter().filter(|r| r.op.rd_is_f()) {
            for offset in OFFSETS {
                add(
                    Inst::Load {
                        op: row.op,
                        rd,
                        rs1: x(rs1),
                        offset,
                    },
                    1,
                );
            }
        }
        for row in ops::FP.0.iter().filter(|r| r.op.rd_is_f()) {
            add(
                Inst::FpOp {
                    op: row.op,
                    rd,
                    rs1: f(rs1),
                    rs2: f(rs2),
                },
                2,
            );
        }
        for row in ops::FMA.0 {
            let (rs1, rs2, rs3) = (f(rs1), f(rs2), f(rs3));
            add(
                Inst::FpFma {
                    op: row.op,
                    rd: f(rd),
                    rs1,
                    rs2,
                    rs3,
                },
                3,
            );
        }
    }
    // A conversion's `rd` is raw: 5 or 6 names an `x` or an `f`
    // register by the op's `rd_is_f`, and its source is the other file.
    for row in ops::FP_CVT.0 {
        for rd in [5, 6] {
            add(
                Inst::FpCvt {
                    op: row.op,
                    rd,
                    rs1,
                },
                1,
            );
        }
    }
    cases
}

/// Every operand tuple of `arity` grid indices.
fn tuples(arity: u32) -> impl Iterator<Item = [usize; 3]> {
    let n = X_GRID.len();
    (0..n.pow(arity)).map(move |t| [t % n, t / n % n, t / (n * n) % n])
}

fn seeded_hart(tuple: [usize; 3]) -> Hart {
    let mut hart = Hart::new(0, PC, 128);
    for n in 1..32u8 {
        hart.set_x(
            x(n),
            u64::from(n).wrapping_mul(0x0101_0101_0101_0101) ^ 0x5a00,
        );
        hart.set_f(f(n), f64::from(n) * -1.25);
    }
    for (&reg, &pick) in SRC.iter().zip(&tuple) {
        hart.set_x(x(reg), X_GRID[pick]);
        hart.set_f(f(reg), F_GRID[pick]);
    }
    hart
}

/// The address a memory instruction accesses, if it is one.
fn access_addr(inst: &Inst, hart: &Hart) -> Option<u64> {
    let (Inst::Load { rs1, offset, .. } | Inst::Store { rs1, offset, .. }) = *inst else {
        return None;
    };
    Some(hart.x(rs1).wrapping_add(offset as i64 as u64))
}

/// The bytes around an accessed address: 8 before to 16 after.
const WINDOW: std::ops::Range<u64> = 0..24;

fn window_addr(addr: u64, i: u64) -> u64 {
    addr.wrapping_sub(8).wrapping_add(i)
}

/// Fills the window around `addr` with a fixed pattern whose bytes
/// have the sign bit set and clear, so sign extension shows.
fn seed_memory(mem: &mut SparseMemory, addr: u64) {
    for i in WINDOW {
        mem.write_u8(window_addr(addr, i), (i as u8).wrapping_mul(0x9d) ^ 0x81);
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_state(hash: &mut u64, hart: &Hart, mem: &SparseMemory, addr: Option<u64>) {
    for n in 0..32 {
        fnv1a(hash, &hart.x(x(n)).to_le_bytes());
        fnv1a(hash, &hart.f_bits(f(n)).to_le_bytes());
    }
    fnv1a(hash, &hart.pc.to_le_bytes());
    if let Some(addr) = addr {
        for i in WINDOW {
            fnv1a(hash, &[mem.read_u8(window_addr(addr, i))]);
        }
    }
}

#[test]
fn every_scalar_instruction_executes_as_recorded() {
    let mut mem = SparseMemory::new();
    let mut accesses = Vec::new();
    let mut words = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for case in universe() {
        words += 1;
        for tuple in tuples(case.arity) {
            let mut hart = seeded_hart(tuple);
            let addr = access_addr(&case.inst, &hart);
            if let Some(addr) = addr {
                seed_memory(&mut mem, addr);
            }
            let outcome = match execute(&mut hart, &mut mem, &case.inst, 0, 0, &mut accesses) {
                Ok(fx) => format!(
                    "ok {:?} {:?} {} {:?}",
                    fx.dest, fx.ecall, fx.branched, accesses
                ),
                Err(e) => format!("err {e}"),
            };
            fnv1a(&mut digest, outcome.as_bytes());
            fold_state(&mut digest, &hart, &mem, addr);
        }
    }
    assert_eq!(words, WORDS, "the scalar universe changed");
    assert_eq!(digest, DIGEST, "a scalar result or reported effect changed");
}

/// The fused path's half: every run of the universe through the scalar
/// kernel, reached through the instruction's pre-resolved uop, leaves
/// the registers, pc and memory `execute` leaves and reports the same
/// destination, branch and access. Any other shape has no uop.
#[test]
fn the_scalar_kernel_leaves_the_state_execute_leaves() {
    let (mut mem, mut twin) = (SparseMemory::new(), SparseMemory::new());
    let mut accesses = Vec::new();
    let kernel = coyote_iss::exec::execute_scalar;
    for case in universe() {
        for tuple in tuples(case.arity) {
            let mut hart = seeded_hart(tuple);
            let mut fused = hart.clone();
            let addr = access_addr(&case.inst, &hart);
            if let Some(addr) = addr {
                seed_memory(&mut mem, addr);
                seed_memory(&mut twin, addr);
            }
            let fx = execute(&mut hart, &mut mem, &case.inst, 0, 0, &mut accesses)
                .expect("a scalar instruction cannot fail");
            let uop = Uop::from_inst(&case.inst).expect("the universe holds only kernel shapes");
            let done = kernel(&mut fused, &mut twin, uop);
            let inst = &case.inst;
            assert_eq!(fx.ecall, None, "{inst:?}");
            assert_eq!(
                (done.dest, done.branched),
                (fx.dest, fx.branched),
                "{inst:?}"
            );
            assert_eq!(done.access.as_slice(), accesses.as_slice(), "{inst:?}");
            let (mut want, mut got) = (0, 0);
            fold_state(&mut want, &hart, &mem, addr);
            fold_state(&mut got, &fused, &twin, addr);
            assert_eq!(got, want, "{inst:?} with operands {tuple:?}");
        }
    }

    let ecall = Inst::System {
        op: coyote_isa::inst::SysOp::Ecall,
    };
    assert_eq!(Uop::from_inst(&ecall), None, "ecall is not a kernel shape");
}
