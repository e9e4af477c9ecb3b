//! Whole-program analysis and disjointness certificates.
//!
//! [`analyze`] predecodes a program once, recovers its CFG and runs
//! the abstract interpreter once per core (`mhartid` is the only
//! per-core input, so the text is shared). [`certify`] then tries to
//! prove that no two cores can ever touch the same byte with at least
//! one write involved — the exact property the simulator's fused
//! windows test dynamically on every chunk. The certificate is a
//! verdict `coyote-check` reports; the simulator does not consume it.

use crate::absint::{interpret, CoreAnalysis, MemAccess};
use crate::footprint::{disjoint, AccessPattern, Disjoint};
use coyote_asm::Program;
use coyote_isa::predecode::predecode;
use coyote_isa::Cfg;

/// Cap on footprint patterns per core; beyond it certification is
/// refused (the pairwise proof would be quadratic in this).
const MAX_PATTERNS_PER_CORE: usize = 256;

/// Static analysis of one program over `cores` harts.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The recovered control-flow graph (shared across cores).
    pub cfg: Cfg,
    /// Per-core interpretation results, indexed by hart id.
    pub cores: Vec<CoreAnalysis>,
}

/// Runs the full static analysis for `cores` harts.
#[must_use]
pub fn analyze(program: &Program, cores: usize) -> Analysis {
    let table = predecode(program.text());
    let cfg = Cfg::build(&table, program.text_base(), program.entry());
    let cores = (0..cores)
        .map(|core| interpret(&table, &cfg, core as u64))
        .collect();
    Analysis { cfg, cores }
}

/// Outcome of a certification attempt.
#[derive(Clone, Debug)]
pub struct CertifyOutcome {
    /// Number of harts analyzed.
    pub cores: usize,
    /// Whether the disjointness certificate was granted.
    pub granted: bool,
    /// Human-readable denial reasons (empty when granted).
    pub reasons: Vec<String>,
}

fn patterns(core: &CoreAnalysis) -> Vec<AccessPattern> {
    core.accesses
        .iter()
        .map(|m: &MemAccess| AccessPattern {
            addr: m.addr.clone(),
            width: m.width,
            write: m.write,
            pc: m.pc,
        })
        .collect()
}

/// Attempts to prove all cross-core write/any conflicts impossible.
#[must_use]
pub fn certify(program: &Program, cores: usize) -> CertifyOutcome {
    certify_analysis(&analyze(program, cores), cores)
}

/// [`certify`] over a precomputed [`Analysis`].
#[must_use]
pub fn certify_analysis(analysis: &Analysis, cores: usize) -> CertifyOutcome {
    let mut reasons = Vec::new();
    for (hart, core) in analysis.cores.iter().enumerate() {
        for p in &core.poisons {
            reasons.push(format!("core {hart}: {p}"));
        }
        if core.accesses.len() > MAX_PATTERNS_PER_CORE {
            reasons.push(format!(
                "core {hart}: {} access patterns exceed the certification cap of {MAX_PATTERNS_PER_CORE}",
                core.accesses.len()
            ));
        }
    }
    if reasons.is_empty() {
        let per_core: Vec<Vec<AccessPattern>> = analysis.cores.iter().map(patterns).collect();
        'outer: for i in 0..per_core.len() {
            for j in i + 1..per_core.len() {
                // Writes of i vs everything of j, and vice versa.
                for (wa, pb) in [(i, j), (j, i)] {
                    for w in per_core[wa].iter().filter(|p| p.write) {
                        for q in &per_core[pb] {
                            if disjoint(w, q) == Disjoint::Unknown {
                                reasons.push(format!(
                                    "cores {i}/{j}: cannot separate write at pc {:#x} \
                                     from access at pc {:#x}",
                                    w.pc, q.pc
                                ));
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
    }
    CertifyOutcome {
        cores,
        granted: reasons.is_empty(),
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_asm::Assembler;

    fn program(src: &str) -> Program {
        Assembler::new()
            .text_base(0x1000)
            .data_base(0x0010_0000)
            .assemble(src)
            .expect("assembles")
    }

    /// Each hart writes its own 64-byte-strided slot sequence: a
    /// round-robin split over 4 cores, one doubleword per core per
    /// block of 32 bytes.
    const PARTITIONED: &str = "\
        csrr t0, mhartid\n\
        slli t0, t0, 3\n\
        li t1, 0x100000\n\
        add t1, t1, t0\n\
        li t2, 16\n\
        loop:\n\
        sd zero, 0(t1)\n\
        addi t1, t1, 32\n\
        addi t2, t2, -1\n\
        bnez t2, loop\n\
        li a7, 93\n\
        ecall\n";

    /// All harts hammer the same counter location.
    const CONTENDED: &str = "\
        li t0, 0x100000\n\
        ld t1, 0(t0)\n\
        addi t1, t1, 1\n\
        sd t1, 0(t0)\n\
        li a7, 93\n\
        ecall\n";

    #[test]
    fn partitioned_round_robin_earns_a_certificate() {
        let out = certify(&program(PARTITIONED), 4);
        assert!(out.granted, "denied: {:?}", out.reasons);
    }

    #[test]
    fn contended_counter_is_refused() {
        let out = certify(&program(CONTENDED), 4);
        assert!(!out.granted);
        assert!(out.reasons.iter().any(|r| r.contains("cannot separate")));
    }

    #[test]
    fn single_core_is_trivially_disjoint() {
        let out = certify(&program(CONTENDED), 1);
        assert!(out.granted, "denied: {:?}", out.reasons);
    }

    #[test]
    fn indirect_jump_denies_with_a_poison_reason() {
        let out = certify(
            &program(
                "la t0, done\n\
                 jalr ra, t0, 0\n\
                 done:\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            2,
        );
        assert!(!out.granted);
        assert!(out.reasons.iter().any(|r| r.contains("indirect jump")));
    }
}
