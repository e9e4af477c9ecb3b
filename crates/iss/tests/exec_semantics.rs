//! Execution-semantics tests: assembled programs run on a [`Core`] with
//! an ideal memory below the L1s, and the architectural results are
//! checked against host-computed oracles.

use coyote_isa::VReg;
use coyote_iss::core::{Core, CoreConfig, CoreState, DecodedText, SimError};
use coyote_iss::mem::SparseMemory;
use coyote_iss::ExecError;
use proptest::prelude::*;

/// Runs `src` to completion, or to the first step error, with immediate
/// miss servicing; returns the halted core and memory.
fn try_run(src: &str) -> Result<(Core, SparseMemory), SimError> {
    let program = coyote_asm::assemble(src).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut mem = SparseMemory::new();
    mem.load_program(&program);
    let text = DecodedText::from_program(&program);
    let mut core = Core::new(0, program.entry(), &CoreConfig::default());
    let mut misses = Vec::new();
    for cycle in 0..2_000_000u64 {
        if matches!(core.state(), CoreState::Halted(_)) {
            return Ok((core, mem));
        }
        if core.state() == CoreState::Active {
            core.step(&mut mem, &text, cycle, &mut misses)?;
        }
        for miss in misses.drain(..) {
            core.complete_fill(miss.line_addr, miss.kind, cycle);
        }
    }
    panic!("program did not halt");
}

fn run(src: &str) -> (Core, SparseMemory) {
    try_run(src).unwrap_or_else(|e| panic!("step: {e}"))
}

fn exit_code(src: &str) -> i64 {
    let (core, _) = run(src);
    match core.state() {
        CoreState::Halted(code) => code,
        other => panic!("not halted: {other:?}"),
    }
}

/// Exit with the value of a computed expression in a0.
fn compute(body: &str) -> i64 {
    exit_code(&format!("_start:\n{body}\n li a7, 93\n ecall\n"))
}

#[test]
fn alu_edge_cases() {
    // Division by zero yields all-ones / dividend per the spec.
    assert_eq!(compute("li t0, 5\n li t1, 0\n div a0, t0, t1"), -1);
    assert_eq!(compute("li t0, 5\n li t1, 0\n rem a0, t0, t1"), 5);
    // Signed overflow: MIN / -1 = MIN, MIN % -1 = 0.
    assert_eq!(
        compute("li t0, 0x8000000000000000\n li t1, -1\n div a0, t0, t1"),
        i64::MIN
    );
    assert_eq!(
        compute("li t0, 0x8000000000000000\n li t1, -1\n rem a0, t0, t1"),
        0
    );
    // mulh of large values.
    assert_eq!(
        compute("li t0, 0x4000000000000000\n li t1, 4\n mulh a0, t0, t1"),
        1
    );
    // sraw sign-extends through the word boundary.
    assert_eq!(compute("li t0, 0x80000000\n sraiw a0, t0, 4"), -0x0800_0000);
    // sltu/slt distinction.
    assert_eq!(compute("li t0, -1\n li t1, 1\n slt a0, t0, t1"), 1);
    assert_eq!(compute("li t0, -1\n li t1, 1\n sltu a0, t0, t1"), 0);
}

#[test]
fn load_store_sign_extension() {
    let src = "
        .data
        b: .dword 0xfffffffffffffff0
        .text
        _start:
            la t0, b
            lb t1, 0(t0)
            lbu t2, 0(t0)
            add a0, t1, t2
            li a7, 93
            ecall";
    // lb = -16, lbu = 240 → sum 224.
    assert_eq!(exit_code(src), 224);
}

/// Guest addresses wrap modulo 2^64: `-4(zero)` is `u64::MAX - 3`, so
/// an 8-byte access there straddles the top of the address space and
/// its upper half lands at addresses 0..3. Used to overflow-panic debug
/// builds in `SparseMemory`'s page-straddling slow path.
#[test]
fn load_store_straddling_the_address_space_wraps() {
    let src = "
        _start:
            li t0, 0x1122334455667788
            sd t0, -4(zero)
            ld a1, -4(zero)
            sub a0, a1, t0
            li a7, 93
            ecall";
    let (core, mem) = run(src);
    assert_eq!(core.state(), CoreState::Halted(0), "load saw the store");
    assert_eq!(mem.read_u32(u64::MAX - 3), 0x5566_7788);
    let low: Vec<u8> = (0..4).map(|addr| mem.read_u8(addr)).collect();
    assert_eq!(low, [0x44, 0x33, 0x22, 0x11]);
    assert_eq!(mem.read_u64(u64::MAX - 3), 0x1122_3344_5566_7788);

    // A unit-stride vector wraps the same way: element 1 of a
    // two-element access based at -8 is at address 0.
    let src = "
        _start:
            li t0, 2
            vsetvli t1, t0, e64,m1,ta,ma
            vid.v v1
            vadd.vi v1, v1, 5        # 5, 6
            li t2, -8
            vse64.v v1, (t2)
            vle64.v v2, (t2)
            vmv.v.i v3, 0
            vredsum.vs v3, v2, v3
            vmv.x.s a0, v3
            li a7, 93
            ecall";
    let (core, mem) = run(src);
    assert_eq!(core.state(), CoreState::Halted(11), "load saw the store");
    assert_eq!(mem.read_u64(u64::MAX - 7), 5);
    assert_eq!(mem.read_u64(0), 6);
}

/// A register group that would run past `v31` is an error naming the
/// register and the pc, raised before any element is written — not a
/// panic. At e64/m8 with VLEN 1024, `vl` = 128 spans eight registers.
#[test]
fn vector_group_past_v31_is_an_exec_error() {
    for (inst, reg) in [
        ("vadd.vv v31, v31, v31", "v31"),
        ("vmv.v.i v25, 3", "v25"),
        ("vle64.v v30, (zero)", "v30"),
        ("vmsle.vv v1, v24, v29", "v29"),
    ] {
        let src = format!(
            "_start:\n li a0, 1024\n vsetvli t0, a0, e64,m8,ta,ma\n {inst}\n li a7, 93\n ecall"
        );
        let source = ExecError::GroupPastV31 {
            reg: VReg::parse(reg).unwrap(),
        };
        let err = try_run(&src).err();
        assert_eq!(
            err,
            Some(SimError::Exec {
                pc: 0x8000_0008,
                source
            }),
            "{inst}"
        );
    }
    // The last group that fits, and a group past v31 at a `vl` that
    // stays inside its first register, run as before.
    let fits = "_start:\n li a0, 1024\n vsetvli t0, a0, e64,m8,ta,ma\n vmv.v.i v24, 3\n vmv.x.s a0, v31\n li a7, 93\n ecall";
    assert_eq!(run(fits).0.state(), CoreState::Halted(3));
    let short = "_start:\n li a0, 4\n vsetvli t0, a0, e64,m8,ta,ma\n vmv.v.i v31, 7\n vmv.x.s a0, v31\n li a7, 93\n ecall";
    assert_eq!(run(short).0.state(), CoreState::Halted(7));
}

/// `vsetvl` to a `vtype` the model does not implement — a reserved SEW
/// or LMUL, or any bit above bit 7 set, `vill` included — is an error
/// naming the value, not a run under some other `vtype`.
#[test]
fn vsetvl_to_an_unsupported_vtype_is_an_exec_error() {
    for value in [-1i64, -2048, 1 << 8, 0b100, 0b100_000] {
        let src = format!("_start:\n li a1, {value}\n vsetvl a0, zero, a1\n li a7, 93\n ecall");
        let source = ExecError::UnsupportedVtype {
            value: value as u64,
        };
        let err = try_run(&src).err();
        assert_eq!(
            err,
            Some(SimError::Exec {
                pc: 0x8000_0004,
                source
            }),
            "{value:#x}"
        );
    }
    // e64, m1, ta, ma is implemented: `vl` is VLMAX.
    assert_eq!(compute("li a1, 0xd8\n vsetvl a0, zero, a1"), 16);
}

#[test]
fn fp_arithmetic_matches_host() {
    let src = "
        .data
        a: .double 1.5
        b: .double 2.25
        out: .double 0.0
        .text
        _start:
            la t0, a
            fld fa0, 0(t0)
            fld fa1, 8(t0)
            fmul.d fa2, fa0, fa1           # 3.375
            fmadd.d fa3, fa0, fa1, fa2     # 6.75
            fsd fa3, 16(t0)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = mem.read_f64(0x8100_0000 + 16);
    assert_eq!(out, 1.5f64.mul_add(2.25, 1.5 * 2.25));
}

/// FP arithmetic returns RISC-V's canonical NaN whatever the inputs'
/// payloads — the host's choice of which payload to propagate depends on
/// operand order, and so on the build profile. Sign injection is a bit
/// operation and keeps the payload.
#[test]
fn fp_nan_results_are_canonical() {
    let src = "
        .data
        a: .dword 0x7ff8000000000abc
        b: .dword 0xfff8000000000def
        out: .dword 0, 0, 0
        .text
        _start:
            la t0, a
            fld fa0, 0(t0)
            fld fa1, 8(t0)
            fadd.d fa2, fa0, fa1
            fadd.d fa3, fa1, fa0
            fsgnj.d fa4, fa1, fa0
            fsd fa2, 16(t0)
            fsd fa3, 24(t0)
            fsd fa4, 32(t0)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    assert_eq!(mem.read_u64(0x8100_0000 + 16), 0x7ff8_0000_0000_0000);
    assert_eq!(mem.read_u64(0x8100_0000 + 24), 0x7ff8_0000_0000_0000);
    assert_eq!(mem.read_u64(0x8100_0000 + 32), 0x7ff8_0000_0000_0def);
}

#[test]
fn fp_compare_and_convert() {
    assert_eq!(compute("li t0, 7\n fcvt.d.l fa0, t0\n fcvt.l.d a0, fa0"), 7);
    // Conversion truncates toward zero.
    let src = "
        .data
        v: .double -2.75
        .text
        _start:
            la t0, v
            fld fa0, 0(t0)
            fcvt.l.d a0, fa0
            li a7, 93
            ecall";
    assert_eq!(exit_code(src), -2);
}

#[test]
fn csr_mhartid_and_counters() {
    // Hart 0 → mhartid reads 0.
    assert_eq!(compute("csrr a0, mhartid"), 0);
    // instret grows monotonically.
    assert_eq!(
        compute("csrr t0, instret\n csrr t1, instret\n sub a0, t1, t0"),
        1
    );
}

#[test]
fn amoadd_read_modify_write() {
    let src = "
        .data
        counter: .dword 10
        .text
        _start:
            la t0, counter
            li t1, 5
            amoadd.d a0, t1, (t0)   # a0 = old (10), mem = 15
            ld t2, 0(t0)
            add a0, a0, t2          # 10 + 15
            li a7, 93
            ecall";
    assert_eq!(exit_code(src), 25);
}

#[test]
fn vector_unit_stride_add() {
    let src = "
        .data
        a: .dword 1, 2, 3, 4, 5, 6, 7, 8
        b: .dword 10, 20, 30, 40, 50, 60, 70, 80
        out: .zero 64
        .text
        _start:
            li t0, 8
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, a
            la t3, b
            vle64.v v1, (t2)
            vle64.v v2, (t3)
            vadd.vv v3, v1, v2
            la t4, out
            vse64.v v3, (t4)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out_base = 0x8100_0000u64 + 128;
    for i in 0..8u64 {
        assert_eq!(mem.read_u64(out_base + i * 8), (i + 1) + (i + 1) * 10);
    }
}

#[test]
fn vector_strip_mining_handles_remainder() {
    // 21 elements with VLMAX=16: two strips of 16 and 5.
    let mut data = String::from(".data\nsrc:\n");
    for i in 0..21 {
        data.push_str(&format!(".dword {}\n", i * 3));
    }
    data.push_str("dst: .zero 168\n");
    let src = format!(
        "{data}
        .text
        _start:
            li t0, 21          # remaining
            la t1, src
            la t2, dst
        strip:
            vsetvli t3, t0, e64,m1,ta,ma
            vle64.v v1, (t1)
            vadd.vi v1, v1, 1
            vse64.v v1, (t2)
            slli t4, t3, 3
            add t1, t1, t4
            add t2, t2, t4
            sub t0, t0, t3
            bnez t0, strip
            li a0, 0
            li a7, 93
            ecall"
    );
    let (_, mem) = run(&src);
    let dst = 0x8100_0000u64 + 21 * 8;
    for i in 0..21u64 {
        assert_eq!(mem.read_u64(dst + i * 8), i * 3 + 1, "element {i}");
    }
}

#[test]
fn vector_gather_indexed_load() {
    let src = "
        .data
        table: .dword 100, 101, 102, 103, 104, 105, 106, 107
        idx:   .dword 7, 0, 3, 3
        out:   .zero 32
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, idx
            vle64.v v2, (t2)
            vsll.vi v2, v2, 3       # element index -> byte offset
            la t3, table
            vluxei64.v v1, (t3), v2
            la t4, out
            vse64.v v1, (t4)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 64 + 32;
    assert_eq!(mem.read_u64(out), 107);
    assert_eq!(mem.read_u64(out + 8), 100);
    assert_eq!(mem.read_u64(out + 16), 103);
    assert_eq!(mem.read_u64(out + 24), 103);
}

#[test]
fn vector_fp_dot_product_via_macc_and_reduction() {
    let src = "
        .data
        a: .double 1.0, 2.0, 3.0, 4.0
        b: .double 0.5, 0.25, 2.0, 1.5
        out: .double 0.0
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, a
            la t3, b
            vle64.v v1, (t2)
            vle64.v v2, (t3)
            vmv.v.i v3, 0
            vfmacc.vv v3, v1, v2      # v3 += a*b elementwise
            vmv.v.i v4, 0
            vfredusum.vs v4, v3, v4
            la t4, out
            vfmv.f.s fa0, v4
            fsd fa0, 0(t4)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = mem.read_f64(0x8100_0000 + 64);
    assert_eq!(
        out,
        1.0f64.mul_add(0.5, 2.0f64.mul_add(0.25, 3.0f64.mul_add(2.0, 4.0 * 1.5))) - 0.0
    );
}

#[test]
fn vector_strided_load() {
    let src = "
        .data
        m: .dword 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11
        out: .zero 32
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, m
            li t3, 24            # stride: every third dword
            vlse64.v v1, (t2), t3
            la t4, out
            vse64.v v1, (t4)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 96;
    for (i, want) in [0u64, 3, 6, 9].iter().enumerate() {
        assert_eq!(mem.read_u64(out + i as u64 * 8), *want);
    }
}

#[test]
fn vector_masked_op_skips_inactive_elements() {
    let src = "
        .data
        v: .dword 1, 2, 3, 4
        out: .dword 9, 9, 9, 9
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, v
            vle64.v v1, (t2)
            li t3, 0b0101
            vmv.s.x v0, t3            # mask: elements 0 and 2 active
            la t4, out
            vse64.v v1, (t4), v0.t
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 32;
    assert_eq!(mem.read_u64(out), 1);
    assert_eq!(mem.read_u64(out + 8), 9); // untouched
    assert_eq!(mem.read_u64(out + 16), 3);
    assert_eq!(mem.read_u64(out + 24), 9);
}

#[test]
fn console_output_via_write_ecall() {
    let src = "
        _start:
            li a0, 72      # 'H'
            li a7, 64
            ecall
            li a0, 105     # 'i'
            ecall
            li a0, 0
            li a7, 93
            ecall";
    let (core, _) = run(src);
    assert_eq!(core.console(), b"Hi");
}

proptest! {
    /// Random operand pairs through every scalar ALU op agree with a
    /// host-computed oracle.
    #[test]
    fn scalar_alu_matches_oracle(a in any::<i64>(), b in any::<i64>()) {
        type Oracle = fn(i64, i64) -> i64;
        let ops: &[(&str, Oracle)] = &[
            ("add", |a, b| a.wrapping_add(b)),
            ("sub", |a, b| a.wrapping_sub(b)),
            ("xor", |a, b| a ^ b),
            ("or", |a, b| a | b),
            ("and", |a, b| a & b),
            ("sll", |a, b| a.wrapping_shl(b as u32 & 63)),
            ("srl", |a, b| ((a as u64) >> (b as u32 & 63)) as i64),
            ("sra", |a, b| a >> (b as u32 & 63)),
            ("slt", |a, b| i64::from(a < b)),
            ("sltu", |a, b| i64::from((a as u64) < (b as u64))),
            ("mul", |a, b| a.wrapping_mul(b)),
            ("mulhu", |a, b| (((a as u64 as u128) * (b as u64 as u128)) >> 64) as i64),
        ];
        // One program computing all ops, XOR-reducing into a0 so a single
        // simulated run checks every operation.
        let mut body = format!("li t0, {a}\n li t1, {b}\n li a0, 0\n");
        let mut expected = 0i64;
        for (name, oracle) in ops {
            body.push_str(&format!("{name} t2, t0, t1\n xor a0, a0, t2\n"));
            expected ^= oracle(a, b);
        }
        let got = compute(&body);
        prop_assert_eq!(got, expected);
    }

    /// Division/remainder agree with RISC-V semantics for arbitrary
    /// operands including zero divisors.
    #[test]
    fn div_rem_matches_oracle(a in any::<i64>(), b in any::<i64>()) {
        let div = if b == 0 { -1 } else if a == i64::MIN && b == -1 { a } else { a / b };
        let rem = if b == 0 { a } else if a == i64::MIN && b == -1 { 0 } else { a % b };
        let got = compute(&format!("li t0, {a}\n li t1, {b}\n div t2, t0, t1\n rem t3, t0, t1\n xor a0, t2, t3"));
        prop_assert_eq!(got, div ^ rem);
    }
}

#[test]
fn vector_e32_elements_and_indexed_gather() {
    // 32-bit element width: 32 lanes per 1024-bit register; gather with
    // 32-bit indices via vluxei32.
    let src = "
        .data
        table: .word 10, 11, 12, 13, 14, 15, 16, 17
        idx:   .word 28, 0, 8, 8, 4, 12, 20, 16   # byte offsets
        out:   .zero 32
        .text
        _start:
            li t0, 8
            vsetvli t1, t0, e32,m1,ta,ma
            la t2, idx
            vle32.v v2, (t2)
            la t3, table
            vluxei32.v v1, (t3), v2
            la t4, out
            vse32.v v1, (t4)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 64;
    let expected = [17u32, 10, 12, 12, 11, 13, 15, 14];
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(mem.read_u32(out + i as u64 * 4), *want, "element {i}");
    }
}

#[test]
fn vector_int_ops_at_e32_wrap_correctly() {
    let src = "
        .data
        a: .word 0x7fffffff, 1, 0xffffffff, 100
        out: .zero 16
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e32,m1,ta,ma
            la t2, a
            vle32.v v1, (t2)
            vadd.vi v1, v1, 1
            la t3, out
            vse32.v v1, (t3)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 16;
    assert_eq!(mem.read_u32(out), 0x8000_0000); // i32::MAX + 1 wraps
    assert_eq!(mem.read_u32(out + 4), 2);
    assert_eq!(mem.read_u32(out + 8), 0); // u32 wrap
    assert_eq!(mem.read_u32(out + 12), 101);
}

#[test]
fn vector_lmul2_group_operations() {
    // LMUL=2: 32 e64 elements spanning two architectural registers.
    let mut data = String::from(".data\nsrc:\n");
    for i in 0..32 {
        data.push_str(&format!(".dword {i}\n"));
    }
    data.push_str("dst: .zero 256\n");
    let src = format!(
        "{data}
        .text
        _start:
            li t0, 32
            vsetvli t1, t0, e64,m2,ta,ma
            la t2, src
            vle64.v v2, (t2)
            vadd.vi v2, v2, 5
            la t3, dst
            vse64.v v2, (t3)
            mv a0, zero
            li a7, 93
            ecall"
    );
    let (core, mem) = run(&src);
    // vsetvli must have granted all 32 elements in one go (VLMAX = 32
    // at e64/m2 with VLEN=1024).
    assert_eq!(core.hart().vl, 32);
    let dst = 0x8100_0000u64 + 32 * 8;
    for i in 0..32u64 {
        assert_eq!(mem.read_u64(dst + i * 8), i + 5, "element {i}");
    }
}

#[test]
fn mask_compare_merge_and_cpop() {
    let src = "
        .data
        v: .dword 5, 12, 3, 20, 7, 15, 1, 9
        out: .zero 64
        counts: .zero 16
        .text
        _start:
            li t0, 8
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, v
            vle64.v v1, (t2)
            li t3, 10
            vmslt.vx v0, v1, t3      # mask: v[i] < 10
            vcpop.m t4, v0           # how many small elements
            vfirst.m t5, v0          # index of the first small one
            # replace small elements by zero
            vmerge.vim v2, v1, 0, v0 # mask set -> 0, else keep
            la t6, out
            vse64.v v2, (t6)
            la a1, counts
            sd t4, 0(a1)
            sd t5, 8(a1)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 64;
    let expected = [0u64, 12, 0, 20, 0, 15, 0, 0];
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(mem.read_u64(out + i as u64 * 8), *want, "element {i}");
    }
    let counts = out + 64;
    assert_eq!(mem.read_u64(counts), 5, "five elements below 10");
    assert_eq!(mem.read_u64(counts + 8), 0, "first small element at 0");
}

#[test]
fn fp_mask_compare_and_vfmerge() {
    let src = "
        .data
        v: .double -1.5, 2.0, -0.25, 3.0
        out: .zero 32
        .text
        _start:
            li t0, 4
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, v
            vle64.v v1, (t2)
            fmv.d.x fa0, zero
            vmflt.vf v0, v1, fa0     # mask: v[i] < 0.0
            vfmerge.vfm v2, v1, fa0, v0   # ReLU: negatives -> 0.0
            la t3, out
            vse64.v v2, (t3)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 32;
    let expected = [0.0f64, 2.0, 0.0, 3.0];
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(mem.read_f64(out + i as u64 * 8), *want, "element {i}");
    }
}

#[test]
fn mask_logicals_combine() {
    let src = "
        .data
        a: .dword 1, 5, 2, 8, 3, 9, 4, 6
        out: .zero 16
        .text
        _start:
            li t0, 8
            vsetvli t1, t0, e64,m1,ta,ma
            la t2, a
            vle64.v v1, (t2)
            li t3, 3
            vmsgt.vx v2, v1, t3      # > 3
            li t3, 8
            vmslt.vx v3, v1, t3      # < 8
            vmand.mm v4, v2, v3      # 3 < x < 8: {5, 6} and {4}? values 5,4,6
            vcpop.m t4, v4
            vmxor.mm v5, v2, v3      # exactly one side
            vcpop.m t5, v5
            la t6, out
            sd t4, 0(t6)
            sd t5, 8(t6)
            li a0, 0
            li a7, 93
            ecall";
    let (_, mem) = run(src);
    let out = 0x8100_0000u64 + 64;
    // values: 1 5 2 8 3 9 4 6 → >3: {5,8,9,4,6}=5 elems; <8: {1,5,2,3,4,6}=6
    // and: {5,4,6}=3 ; xor: (5-3)+(6-3)=2+3=5
    assert_eq!(mem.read_u64(out), 3);
    assert_eq!(mem.read_u64(out + 8), 5);
}

#[test]
fn vfirst_returns_minus_one_when_empty() {
    let src = "
        _start:
            li t0, 8
            vsetvli t1, t0, e64,m1,ta,ma
            vmv.v.i v1, 0            # zero mask register
            vfirst.m a0, v1
            li a7, 93
            ecall";
    let (core, _) = run(src);
    match core.state() {
        coyote_iss::CoreState::Halted(code) => assert_eq!(code, -1),
        other => panic!("{other:?}"),
    }
}
