//! Fused windows stay on under tracing, so tracing must not be able
//! to tell: with telemetry, the Paraver trace and the Chrome trace all
//! recording, a run that retires multi-cycle windows must produce the
//! same cycles, digest, `.prv` bytes, Chrome JSON bytes and metrics
//! JSON bytes as the same run stepped one cycle at a time — and it
//! must really have taken windows, or the comparison proves nothing.
//! The same artifacts must also not tell which legal schedule ran: a
//! non-zero `perturb_seed` permutes the pop order of same-cycle
//! completions (so the order cores are reported woken in), and every
//! byte stays put.
//!
//! Also pins the cost model of the cross-core conflict test through
//! the host profiler's deterministic counters: a chunk in which no
//! core stores examines zero accesses.

use coyote::{chrome_trace_json, metrics_json, L2Sharing, ProfMode, SimConfig, Simulation};
use coyote_asm::Program;
use coyote_iss::SparseMemory;
use coyote_kernels::workload::Workload;
use coyote_kernels::{MatmulScalar, SpmvScalar};

/// Everything an observer can see of one finished run.
#[derive(PartialEq)]
struct Observed {
    cycles: u64,
    digest: u64,
    prv: Vec<u8>,
    chrome: String,
    metrics: String,
}

/// Runs `program` cycle by cycle with every observation plane on.
/// Returns what the planes recorded and how many `step_cycle` calls
/// retired a multi-cycle window (some core retired more than one
/// instruction in one call, which at interleave 1 only a window does).
fn observe(
    program: &Program,
    populate: &dyn Fn(&mut SparseMemory),
    cores: usize,
    sharing: L2Sharing,
    fusion: bool,
    perturb_seed: u64,
) -> (Observed, u64) {
    let config = SimConfig::builder()
        .cores(cores)
        .sharing(sharing)
        .fusion(fusion)
        .perturb_seed(perturb_seed)
        .telemetry(true)
        .metrics_interval(512)
        .trace(true)
        .chrome_trace(true)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, program).expect("create sim");
    populate(sim.memory_mut());

    let retired =
        |sim: &Simulation| -> Vec<u64> { sim.cores().iter().map(|c| c.stats().retired).collect() };
    let mut windows = 0;
    let mut before = retired(&sim);
    loop {
        let done = sim.step_cycle().expect("run completes");
        let after = retired(&sim);
        if before.iter().zip(&after).any(|(b, a)| a - b > 1) {
            windows += 1;
        }
        before = after;
        if done {
            break;
        }
        assert!(sim.cycle() < sim.config().max_cycles, "cycle limit");
    }

    let mut report = sim.partial_report();
    report.truncated = false;
    // Translation coverage (and the knob's echo) legitimately differ
    // between fusion on and off; every model-output line must not.
    let metrics = metrics_json(&sim, &report)
        .to_string_pretty()
        .lines()
        .filter(|l| {
            !l.contains("fused_retired")
                && !l.contains("block_hit_rate")
                && !l.contains("\"fusion\"")
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut prv = Vec::new();
    sim.trace()
        .expect("tracing on")
        .write_prv(&mut prv)
        .expect("in-memory write");
    let observed = Observed {
        cycles: sim.cycle(),
        digest: sim.determinism_digest(),
        prv,
        chrome: chrome_trace_json(&sim).to_string_compact(),
        metrics,
    };
    (observed, windows)
}

/// Every hart read-modify-writes the same dword: multi-core chunks
/// always conflict, so windows only open while one hart runs alone.
const CONTENDED: &str = "
    .data
    hot: .dword 0
    .text
    _start:
        csrr t0, mhartid
        la t1, hot
        li t2, 24
    loop:
        ld t3, 0(t1)
        add t3, t3, t0
        sd t3, 0(t1)
        addi t2, t2, -1
        bnez t2, loop
        li a0, 0
        li a7, 93
        ecall";

/// Every hart but hart 0 exits at once: after the first few cycles the
/// windows are those of one active core among halted ones.
const STRAGGLER: &str = "
    .data
    buf: .zero 2048
    .text
    _start:
        csrr t0, mhartid
        bnez t0, done
        la t1, buf
        li t2, 200
    loop:
        ld t3, 0(t1)
        addi t3, t3, 1
        sd t3, 0(t1)
        addi t1, t1, 8
        addi t2, t2, -1
        bnez t2, loop
    done:
        li a0, 0
        li a7, 93
        ecall";

#[test]
fn traced_windows_are_observationally_invisible() {
    let matmul = MatmulScalar::new(16, 7);
    let spmv = SpmvScalar::new(64, 64, 0.1, 8);
    // A workload, or the assembly source of a kernel with no data.
    let kernels: [(&str, Result<&dyn Workload, &str>); 4] = [
        ("matmul", Ok(&matmul)),
        ("spmv", Ok(&spmv)),
        ("contended", Err(CONTENDED)),
        ("straggler", Err(STRAGGLER)),
    ];
    for (name, kernel) in kernels {
        let workload = kernel.ok();
        for cores in [1, 2, 8, 16] {
            let program = match kernel {
                Ok(w) => w.program(cores).expect("assemble"),
                Err(src) => coyote_asm::assemble(src).expect("assemble"),
            };
            let populate = |mem: &mut SparseMemory| {
                if let Some(w) = workload {
                    w.populate(&program, mem);
                }
            };
            for sharing in [L2Sharing::Shared, L2Sharing::Private] {
                let tag = format!("{name} cores={cores} {sharing:?}");
                let (stepped, no_windows) = observe(&program, &populate, cores, sharing, false, 0);
                let (fused, windows) = observe(&program, &populate, cores, sharing, true, 0);
                let (reordered, _) = observe(&program, &populate, cores, sharing, true, 7);
                assert_eq!(no_windows, 0, "{tag}: fusion off took a window");
                assert!(windows > 0, "{tag}: no multi-cycle window under tracing");
                assert_eq!(fused.cycles, stepped.cycles, "{tag}: cycles");
                assert_eq!(fused.digest, stepped.digest, "{tag}: digest");
                assert!(fused.prv == stepped.prv, "{tag}: .prv bytes differ");
                assert!(fused.chrome == stepped.chrome, "{tag}: Chrome JSON differs");
                assert_eq!(fused.metrics, stepped.metrics, "{tag}: metrics JSON");
                assert_eq!(reordered.cycles, fused.cycles, "{tag}: cycles by seed");
                assert_eq!(reordered.digest, fused.digest, "{tag}: digest by seed");
                assert!(reordered.prv == fused.prv, "{tag}: .prv bytes by seed");
                assert!(reordered.chrome == fused.chrome, "{tag}: Chrome by seed");
                assert_eq!(reordered.metrics, fused.metrics, "{tag}: metrics by seed");
            }
        }
    }
}

/// Runs a 4-hart kernel whose loop body is `body` under the counter
/// clock and returns (`window/conflict_checks`,
/// `window/conflict_intervals`).
fn conflict_counters(body: &str) -> (u64, u64) {
    let src = format!(
        "
        .data
        buf: .zero 4096
        .text
        _start:
            csrr t0, mhartid
            la t1, buf
            slli t2, t0, 9
            add t1, t1, t2
            li t3, 64
        loop:
            {body}
            addi t3, t3, -1
            bnez t3, loop
            li a0, 0
            li a7, 93
            ecall"
    );
    let program = coyote_asm::assemble(&src).expect("assemble");
    let config = SimConfig::builder()
        .cores(4)
        .profiling(ProfMode::Counter)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    sim.run().expect("run completes");
    let prof = sim.host_prof().expect("profiling on");
    (
        prof.counter("window/conflict_checks"),
        prof.counter("window/conflict_intervals"),
    )
}

#[test]
fn store_free_chunks_examine_no_accesses() {
    // Loads only: every chunk is checked, none looks at an access.
    let (checks, intervals) = conflict_counters("ld t4, 0(t1)\n ld t5, 8(t1)\n add t4, t4, t5");
    assert!(checks > 0, "no multi-core chunk was checked");
    assert_eq!(intervals, 0, "a store-free chunk examined accesses");
    // Same shape with a store: now there is something to examine.
    let (checks, intervals) = conflict_counters("ld t4, 0(t1)\n addi t4, t4, 1\n sd t4, 0(t1)");
    assert!(checks > 0);
    assert!(intervals > 0, "a storing chunk examined nothing");
}
