# Paper-scale scalar matmul for coyote-sim: C = A x B for 96x96
# row-major f64 matrices, output rows striped across up to 128 harts
# by mhartid (the DATE'21 Figure-3 workload shape). Each hart owns row
# `mhartid` outright, so the per-hart write footprints are disjoint.
# Run with any --cores up to 128; surplus harts exit
# immediately, and with fewer than 96 cores the uncovered rows simply
# stay zero (the matrices are zero-filled — this kernel exists for
# timing and analysis, not numerics).
    .equ N, 96
    .equ HARTS, 128
    .data
a:  .zero 73728            # N*N doubles
b:  .zero 73728
c:  .zero 73728
    .text
_start:
    csrr s0, mhartid
    li s11, N
    li s9, N               # row bound
    li s10, HARTS          # row stride across harts
    li t1, 768             # row bytes (8*N)
outer:
    bge s0, s9, done
    la s1, a
    la s2, b
    la s3, c
    mul t2, s0, t1
    add s1, s1, t2         # &a[i][0]
    add s3, s3, t2         # &c[i][0]
    li s4, 0               # j
col:
    fmv.d.x fa0, zero
    mv t3, s1
    slli t4, s4, 3
    add t4, s2, t4         # &b[0][j]
    li s5, 0               # k
inner:
    fld fa1, 0(t3)
    fld fa2, 0(t4)
    fmadd.d fa0, fa1, fa2, fa0
    addi t3, t3, 8
    add t4, t4, t1
    addi s5, s5, 1
    blt s5, s11, inner
    slli t6, s4, 3
    add t6, s3, t6
    fsd fa0, 0(t6)
    addi s4, s4, 1
    blt s4, s11, col
    add s0, s0, s10
    j outer
done:
    li a0, 0
    li a7, 93
    ecall
