//! Workload diagnostics for `coyote-check`.
//!
//! [`check`] runs the full static analysis over an assembled program
//! and turns its artifacts into actionable findings: dead code,
//! misaligned scalar accesses, stores into the text segment,
//! cross-core cache-line sharing, a static stack estimate, and the
//! disjointness-certificate verdict. Each [`Diagnostic`] carries a
//! severity so CI gates can fail on errors while tracking warnings
//! through a committed baseline.

use crate::certify::{analyze, certify_analysis, Analysis, CertifyOutcome};
use crate::domain::UNBOUNDED;
use crate::footprint::{disjoint, AccessPattern, Disjoint};
use coyote_asm::Program;
use coyote_isa::Inst;
use coyote_telemetry::JsonValue;

/// Cache-line size assumed by the sharing heuristic, matching the
/// simulator's memory hierarchy.
const LINE_BYTES: u64 = 64;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Neutral information (stack estimate, certificate verdict).
    Info,
    /// Probably a performance or hygiene problem.
    Warning,
    /// Almost certainly a bug (e.g. a store into the text segment).
    Error,
}

impl Severity {
    /// Lowercase label used in reports and baselines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding about the workload.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Stable rule identifier (baseline key).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Guest PC the finding anchors to, when it has one.
    pub pc: Option<u64>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.pc {
            Some(pc) => write!(
                f,
                "{}: [{}] {:#x}: {}",
                self.severity.label(),
                self.rule,
                pc,
                self.message
            ),
            None => write!(
                f,
                "{}: [{}] {}",
                self.severity.label(),
                self.rule,
                self.message
            ),
        }
    }
}

impl Diagnostic {
    /// Stable one-line form used as the baseline key (no counts, no
    /// per-run noise).
    #[must_use]
    pub fn baseline_key(&self) -> String {
        match self.pc {
            Some(pc) => format!("{} {:#x}", self.rule, pc),
            None => self.rule.to_owned(),
        }
    }

    /// JSON form for `--json` output.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let doc = JsonValue::object()
            .with("severity", self.severity.label())
            .with("rule", self.rule)
            .with("message", self.message.clone());
        match self.pc {
            Some(pc) => doc.with("pc", pc),
            None => doc,
        }
    }
}

/// Full report of one `coyote-check` run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Findings, stable order (rule groups in document order).
    pub diagnostics: Vec<Diagnostic>,
    /// The certification verdict the diagnostics refer to.
    pub certificate: CertifyOutcome,
}

impl CheckReport {
    /// Number of findings at `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// JSON form for `--json` output.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let items: Vec<JsonValue> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        let reasons: Vec<JsonValue> = self
            .certificate
            .reasons
            .iter()
            .map(|r| JsonValue::Str(r.clone()))
            .collect();
        JsonValue::object()
            .with("errors", self.count(Severity::Error))
            .with("warnings", self.count(Severity::Warning))
            .with(
                "certificate",
                JsonValue::object()
                    .with("cores", self.certificate.cores)
                    .with("granted", self.certificate.granted)
                    .with("reasons", JsonValue::Array(reasons)),
            )
            .with("diagnostics", JsonValue::Array(items))
    }
}

/// Coalesces sorted word indices into inclusive `(start, end)` runs.
fn coalesce(words: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &w in words {
        match runs.last_mut() {
            Some(run) if run.1 + 1 == w => run.1 = w,
            _ => runs.push((w, w)),
        }
    }
    runs
}

/// Runs every diagnostic pass over `program` analyzed for `cores`
/// harts.
#[must_use]
pub fn check(program: &Program, cores: usize) -> CheckReport {
    let analysis = analyze(program, cores);
    let certificate = certify_analysis(&analysis, cores);
    let mut diagnostics = Vec::new();

    unreachable_code(&analysis, program, &mut diagnostics);
    misaligned_accesses(&analysis, &mut diagnostics);
    text_writes(&analysis, program, &mut diagnostics);
    shared_lines(&analysis, program, &mut diagnostics);
    stack_estimate(program, &mut diagnostics);
    diagnostics.push(Diagnostic {
        severity: Severity::Info,
        rule: "certificate",
        message: if certificate.granted {
            format!(
                "disjointness certificate GRANTED for {} core(s): every cross-core write/any pair is provably disjoint",
                certificate.cores
            )
        } else {
            format!(
                "disjointness certificate denied for {} core(s): {}",
                certificate.cores,
                certificate
                    .reasons
                    .first()
                    .map_or("no accesses analyzed", String::as_str)
            )
        },
        pc: None,
    });

    CheckReport {
        diagnostics,
        certificate,
    }
}

fn unreachable_code(analysis: &Analysis, program: &Program, out: &mut Vec<Diagnostic>) {
    let base = program.text_base();
    // Interpreter reachability beats CFG reachability: a block behind
    // a proven `exit` syscall is dead even though the CFG keeps the
    // ecall fallthrough edge.
    let mut covered = vec![false; analysis.cfg.words];
    for (b, block) in analysis.cfg.blocks.iter().enumerate() {
        if analysis
            .cores
            .iter()
            .any(|c| c.reached.get(b) == Some(&true))
        {
            for flag in covered.iter_mut().skip(block.start).take(block.len) {
                *flag = true;
            }
        }
    }
    let dead: Vec<usize> = covered
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| (!c).then_some(i))
        .collect();
    for (start, end) in coalesce(&dead) {
        let words = end - start + 1;
        out.push(Diagnostic {
            severity: Severity::Warning,
            rule: "unreachable-code",
            message: format!(
                "{words} instruction word(s) never reachable from the entry point \
                 (through {:#x})",
                base + 4 * end as u64
            ),
            pc: Some(base + 4 * start as u64),
        });
    }
}

fn misaligned_accesses(analysis: &Analysis, out: &mut Vec<Diagnostic>) {
    // Dedup by pc: every core shares the text, and a misalignment is a
    // property of the instruction, not the hart.
    let mut seen: Vec<u64> = Vec::new();
    for core in &analysis.cores {
        for access in &core.accesses {
            if access.width <= 1 || seen.contains(&access.pc) {
                continue;
            }
            let base_off = access.addr.base % access.width != 0;
            let step_off = access.addr.dims.iter().any(|&(s, _)| s % access.width != 0);
            if base_off || step_off {
                seen.push(access.pc);
                out.push(Diagnostic {
                    severity: Severity::Warning,
                    rule: "misaligned-access",
                    message: format!(
                        "{}-byte {} not aligned to its width (base {:#x}{})",
                        access.width,
                        if access.write { "store" } else { "load" },
                        access.addr.base,
                        if step_off { ", stride misaligned" } else { "" }
                    ),
                    pc: Some(access.pc),
                });
            }
        }
    }
}

fn text_writes(analysis: &Analysis, program: &Program, out: &mut Vec<Diagnostic>) {
    let start = program.text_base();
    let end = start + 4 * program.text().len() as u64;
    let mut seen: Vec<u64> = Vec::new();
    for core in &analysis.cores {
        for access in core.accesses.iter().filter(|a| a.write) {
            if seen.contains(&access.pc) {
                continue;
            }
            let pattern = AccessPattern {
                addr: access.addr.clone(),
                width: access.width,
                write: true,
                pc: access.pc,
            };
            if pattern.overlaps_range(start, end) {
                seen.push(access.pc);
                out.push(Diagnostic {
                    severity: Severity::Error,
                    rule: "text-write",
                    message: format!(
                        "store may hit the text segment [{start:#x}, {end:#x}): \
                         self-modifying code forces the simulator onto the slow path"
                    ),
                    pc: Some(access.pc),
                });
            }
        }
    }
}

/// Rounds a pattern out to whole cache lines.
fn to_lines(p: &AccessPattern) -> AccessPattern {
    // Densify first: a stride-8 walk over a row is one contiguous
    // range, and rounding THAT to line granularity is exact. Rounding
    // the strided form element-by-uniform-shift would widen every
    // element past its neighbour and fabricate overlaps inside
    // line-aligned partitions.
    let dense = p.densified();
    let mut addr = dense.addr;
    let shift = addr.base % LINE_BYTES;
    addr.base -= shift;
    let width = (shift + dense.width).div_ceil(LINE_BYTES) * LINE_BYTES;
    AccessPattern {
        addr,
        width,
        write: p.write,
        pc: p.pc,
    }
}

fn shared_lines(analysis: &Analysis, program: &Program, out: &mut Vec<Diagnostic>) {
    // A program that synchronizes explicitly shares lines on purpose.
    let table = coyote_isa::predecode::predecode(program.text());
    let synchronizes = analysis.cfg.blocks.iter().any(|b| {
        (b.start..b.start + b.len).any(|idx| {
            matches!(
                table.get(idx).and_then(|d| d.as_ref()).map(|d| d.inst),
                Some(Inst::Amo { .. } | Inst::Fence)
            )
        })
    });
    if synchronizes || analysis.cores.len() < 2 {
        return;
    }
    let per_core: Vec<Vec<AccessPattern>> = analysis
        .cores
        .iter()
        .map(|c| {
            c.accesses
                .iter()
                .map(|m| AccessPattern {
                    addr: m.addr.clone(),
                    width: m.width,
                    write: m.write,
                    pc: m.pc,
                })
                .collect()
        })
        .collect();
    let mut seen: Vec<(u64, u64)> = Vec::new();
    for i in 0..per_core.len() {
        for j in i + 1..per_core.len() {
            for w in per_core[i].iter().filter(|p| p.write) {
                for q in &per_core[j] {
                    // Byte-disjoint but same cache line: false sharing.
                    if disjoint(w, q) == Disjoint::Proven
                        && disjoint(&to_lines(w), &to_lines(q)) == Disjoint::Unknown
                        && !seen.contains(&(w.pc, q.pc))
                    {
                        seen.push((w.pc, q.pc));
                        out.push(Diagnostic {
                            severity: Severity::Warning,
                            rule: "shared-line",
                            message: format!(
                                "write may share a {LINE_BYTES}-byte line with another \
                                 core's access at pc {:#x} (false sharing)",
                                q.pc
                            ),
                            pc: Some(w.pc),
                        });
                    }
                }
            }
        }
    }
}

fn stack_estimate(program: &Program, out: &mut Vec<Diagnostic>) {
    // Syntactic upper bound: the sum of every static `addi sp, sp, -N`
    // frame allocation. Recursion would need an indirect call, which
    // already surfaces as an indirect-jump certificate denial.
    let table = coyote_isa::predecode::predecode(program.text());
    let mut total: u64 = 0;
    for slot in table.iter().flatten() {
        if let Inst::OpImm {
            op: coyote_isa::inst::AluOp::Add,
            rd,
            rs1,
            imm,
        } = slot.inst
        {
            if rd == coyote_isa::XReg::SP && rs1 == coyote_isa::XReg::SP && imm < 0 {
                total += imm.unsigned_abs();
            }
        }
    }
    if total > 0 {
        out.push(Diagnostic {
            severity: Severity::Info,
            rule: "stack-bound",
            message: format!("static stack frame allocations total {total} bytes"),
            pc: None,
        });
    }
}

/// True when a pattern's extent suggests an unbounded loop (used by
/// callers that want to annotate reports).
#[must_use]
pub fn is_unbounded(p: &AccessPattern) -> bool {
    p.addr.dims.iter().any(|&(_, c)| c == UNBOUNDED)
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

    #[test]
    fn clean_partitioned_kernel_reports_only_infos() {
        let report = check(
            &program(
                "csrr t0, mhartid\n\
                 slli t0, t0, 6\n\
                 li t1, 0x100000\n\
                 add t1, t1, t0\n\
                 sd zero, 0(t1)\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            2,
        );
        assert_eq!(report.count(Severity::Error), 0, "{:?}", report.diagnostics);
        assert_eq!(
            report.count(Severity::Warning),
            0,
            "{:?}",
            report.diagnostics
        );
        assert!(report.certificate.granted);
    }

    #[test]
    fn dead_code_after_exit_is_flagged() {
        let report = check(
            &program(
                "li a7, 93\n\
                 ecall\n\
                 li t0, 1\n\
                 li t0, 2\n",
            ),
            1,
        );
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "unreachable-code")
            .collect();
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("2 instruction word(s)"));
    }

    #[test]
    fn misaligned_store_is_flagged() {
        let report = check(
            &program(
                "li t0, 0x100001\n\
                 sd zero, 0(t0)\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            1,
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "misaligned-access"));
    }

    #[test]
    fn store_into_text_is_an_error() {
        let report = check(
            &program(
                "li t0, 0x1000\n\
                 sw zero, 0(t0)\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            1,
        );
        assert_eq!(report.count(Severity::Error), 1);
        assert!(report.diagnostics.iter().any(|d| d.rule == "text-write"));
    }

    #[test]
    fn false_sharing_is_flagged_without_sync() {
        // Two cores write adjacent doublewords of one 64-byte line.
        let report = check(
            &program(
                "csrr t0, mhartid\n\
                 slli t0, t0, 3\n\
                 li t1, 0x100000\n\
                 add t1, t1, t0\n\
                 sd zero, 0(t1)\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            2,
        );
        assert!(report.diagnostics.iter().any(|d| d.rule == "shared-line"));
        // Byte-level disjointness still holds.
        assert!(report.certificate.granted);
    }

    #[test]
    fn fence_suppresses_the_sharing_warning() {
        let report = check(
            &program(
                "csrr t0, mhartid\n\
                 slli t0, t0, 3\n\
                 li t1, 0x100000\n\
                 add t1, t1, t0\n\
                 sd zero, 0(t1)\n\
                 fence\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            2,
        );
        assert!(!report.diagnostics.iter().any(|d| d.rule == "shared-line"));
    }

    #[test]
    fn stack_frames_produce_an_info_estimate() {
        let report = check(
            &program(
                "addi sp, sp, -64\n\
                 addi sp, sp, 64\n\
                 li a7, 93\n\
                 ecall\n",
            ),
            1,
        );
        let stack = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "stack-bound")
            .expect("stack info");
        assert!(stack.message.contains("64 bytes"));
    }

    #[test]
    fn json_report_shape_is_stable() {
        let report = check(&program("li a7, 93\necall\n"), 1);
        let doc = report.to_json();
        assert!(doc.get("errors").is_some());
        assert!(doc.get("warnings").is_some());
        assert!(doc
            .get("certificate")
            .and_then(|c| c.get("granted"))
            .is_some());
        assert!(doc.get("diagnostics").is_some());
    }
}
