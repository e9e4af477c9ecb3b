//! The equivalence table: every host-side knob is pure acceleration or
//! pure observation. For arbitrary machine shapes and kernels, each
//! combination of the axes
//!
//! * superblock fusion on / off,
//! * host profiling off / wall clock / counter clock,
//! * co-simulation oracle on / off,
//! * schedule-perturbation seed,
//!
//! must reproduce the plain baseline (fusion off, unprofiled, unchecked,
//! canonical schedule) of the same machine exactly: same determinism
//! digest, same cycle count, byte-identical metrics JSON once the
//! sections that *describe* a knob (the `host_profile` member, the
//! fused-coverage counters, the `fusion` config echo) are stripped. The always-on flight recorder
//! rides the same proof: it is active in every run below. A new host
//! knob adds a field to [`Knobs`] and a loop in [`all_knobs`], not a
//! file.

use std::time::Duration;

use coyote::{JsonValue, L2Config, L2Sharing, ProfMode, SimConfig, Simulation};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Machine {
    cores: usize,
    sharing: L2Sharing,
    /// Instructions per core per cycle. Part of the simulated machine
    /// (it changes the cycle count), so the baseline shares it; like
    /// the oracle it pins the execute step to one-cycle windows.
    interleave: usize,
    iterations: u64,
    stride: u64,
    /// One 16 KiB L2 bank per tile with two MSHRs instead of the default
    /// banks: every request of a tile contends for one arbitration
    /// domain.
    one_bank: bool,
}

fn machine_strategy() -> impl Strategy<Value = Machine> {
    (
        1usize..9,
        prop_oneof![Just(L2Sharing::Shared), Just(L2Sharing::Private)],
        prop_oneof![Just(1usize), Just(4)],
        4u64..32,
        prop_oneof![Just(8u64), Just(64), Just(72)],
    )
        .prop_map(|(cores, sharing, interleave, iterations, stride)| Machine {
            cores,
            sharing,
            interleave,
            iterations,
            stride,
            one_bank: false,
        })
}

/// Either a hart-partitioned load/store walk (each hart starts in its
/// own 512-byte slice, so multi-core fused windows run conflict-free)
/// or a contended one where every hart read-modify-writes the SAME
/// dword (so every multi-core window trips the cross-core conflict
/// test and falls back to per-cycle stepping).
fn kernel(machine: &Machine, contended: bool) -> String {
    if contended {
        format!(
            "
            .data
            hot: .dword 0
            .text
            _start:
                csrr t0, mhartid
                la t1, hot
                li t2, {iters}
            loop:
                ld t3, 0(t1)
                add t3, t3, t0
                sd t3, 0(t1)
                addi t2, t2, -1
                bnez t2, loop
                li a0, 0
                li a7, 93
                ecall",
            iters = machine.iterations,
        )
    } else {
        format!(
            "
            .data
            buf: .zero 16384
            .text
            _start:
                csrr t0, mhartid
                la t1, buf
                slli t2, t0, 9
                add t1, t1, t2
                li t3, {iters}
            loop:
                ld t4, 0(t1)
                addi t4, t4, 1
                sd t4, 0(t1)
                addi t1, t1, {stride}
                addi t3, t3, -1
                bnez t3, loop
                mv a0, t0
                li a7, 93
                ecall",
            iters = machine.iterations,
            stride = machine.stride,
        )
    }
}

/// One row of the table: a setting of every host-side axis.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    fusion: bool,
    profiling: ProfMode,
    oracle: bool,
    perturb: u64,
}

/// The reference everything must equal: plain per-instruction stepping
/// on the canonical schedule, nothing profiling or checking.
const BASELINE: Knobs = Knobs {
    fusion: false,
    profiling: ProfMode::Off,
    oracle: false,
    perturb: 0,
};

/// The full cross product of the on/off axes at one perturbation seed
/// (12 rows; the kernels are a few hundred cycles each).
fn all_knobs(perturb: u64) -> Vec<Knobs> {
    let mut rows = Vec::new();
    for fusion in [false, true] {
        for profiling in [ProfMode::Off, ProfMode::Wall, ProfMode::Counter] {
            for oracle in [false, true] {
                rows.push(Knobs {
                    fusion,
                    profiling,
                    oracle,
                    perturb,
                });
            }
        }
    }
    rows
}

/// What one run is compared on.
struct Outcome {
    digest: u64,
    cycles: u64,
    metrics: String,
    /// The `host_profile` member [`strip_knob_sections`] removed from
    /// `metrics` (null when unprofiled).
    host_profile: JsonValue,
    /// Instructions each core retired through the fused path.
    fused_retired: Vec<u64>,
}

/// The metrics document with everything that legitimately describes a
/// knob removed: the `host_profile` member (null when unprofiled, so
/// it is dropped from *both* sides), and the lines reporting how much
/// work took the fused path or whether fusion was enabled.
fn strip_knob_sections(doc: JsonValue) -> String {
    let JsonValue::Object(pairs) = doc else {
        panic!("metrics document is not an object");
    };
    let doc = JsonValue::Object(
        pairs
            .into_iter()
            .filter(|(key, _)| key != "host_profile")
            .collect(),
    );
    let json = doc.to_string_pretty();
    let kept: Vec<&str> = json
        .lines()
        .filter(|l| {
            !l.contains("fused_retired")
                && !l.contains("block_hit_rate")
                && !l.contains("\"fusion\"")
        })
        .collect();
    assert!(
        kept.len() < json.lines().count(),
        "coverage counters missing from metrics JSON — schema drifted"
    );
    kept.join("\n")
}

fn run(src: &str, machine: &Machine, knobs: Knobs) -> Outcome {
    let program = coyote_asm::assemble(src).expect("assemble");
    let mut builder = SimConfig::builder();
    if machine.one_bank {
        builder = builder.banks_per_tile(1).l2(L2Config {
            bank_size_bytes: 16 * 1024,
            mshrs: 2,
            ..L2Config::default()
        });
    }
    let config = builder
        .cores(machine.cores)
        .sharing(machine.sharing)
        .interleave(machine.interleave)
        .fusion(knobs.fusion)
        .profiling(knobs.profiling)
        .oracle(knobs.oracle)
        .perturb_seed(knobs.perturb)
        .telemetry(true)
        .metrics_interval(64)
        .build()
        .expect("valid config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let mut report = sim.run().expect("run completes");
    // Wall time is host noise, not model output.
    report.wall_time = Duration::ZERO;
    let doc = coyote::metrics_json(&sim, &report);
    let host_profile = doc.get("host_profile").cloned().expect("host_profile key");
    assert_eq!(
        host_profile == JsonValue::Null,
        knobs.profiling == ProfMode::Off,
        "host_profile must be exported exactly when profiling is on ({knobs:?})"
    );
    Outcome {
        digest: sim.determinism_digest(),
        cycles: report.cycles,
        metrics: strip_knob_sections(doc),
        host_profile,
        fused_retired: report.cores.iter().map(|c| c.fused_retired).collect(),
    }
}

/// The one assertion: every row of the table equals the baseline.
fn assert_table_matches_baseline(machine: &Machine, contended: bool, perturb: u64) {
    let src = kernel(machine, contended);
    let baseline = run(&src, machine, BASELINE);
    for knobs in all_knobs(perturb) {
        let outcome = run(&src, machine, knobs);
        assert_eq!(
            (outcome.digest, outcome.cycles),
            (baseline.digest, baseline.cycles),
            "(digest, cycles) diverged from the plain baseline under {knobs:?} on {machine:?}"
        );
        // Name the first differing line instead of dumping both
        // documents.
        let diff = outcome
            .metrics
            .lines()
            .zip(baseline.metrics.lines())
            .find(|(a, b)| a != b);
        assert!(
            outcome.metrics == baseline.metrics,
            "metrics JSON diverged from the plain baseline under {knobs:?} on {machine:?}: {diff:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_host_knob_reproduces_the_plain_baseline(
        machine in machine_strategy(),
        contended in any::<bool>(),
        perturb in prop_oneof![Just(0u64), 1u64..u64::MAX],
    ) {
        assert_table_matches_baseline(&machine, contended, perturb);
    }
}

/// Fixed shapes checked without the generator in the way: the 4-core
/// contended machine the CI smoke uses, the 8-core private-L2 case
/// that once made a fused window diverge from per-instruction stepping
/// (formerly the stored seed in `parallel_props.proptest-regressions`),
/// the same smoke machine batching four instructions per cycle, a
/// single core (whose windows take the same loop as everyone's), the
/// two 16-core two-tile machines (shared and private L2), and the
/// 8-core machine whose one bank has two MSHRs, the configuration that
/// stresses arbitration hardest (it runs the partitioned walk too:
/// distinct lines from eight harts keep its MSHR queue full).
#[test]
fn fixed_shapes_reproduce_the_plain_baseline() {
    let smoke = Machine {
        cores: 4,
        sharing: L2Sharing::Shared,
        interleave: 1,
        iterations: 24,
        stride: 64,
        one_bank: false,
    };
    let regression = Machine {
        cores: 8,
        sharing: L2Sharing::Private,
        iterations: 10,
        ..smoke
    };
    let batched = Machine {
        interleave: 4,
        ..smoke
    };
    let solo = Machine { cores: 1, ..smoke };
    let shared_l2 = Machine { cores: 16, ..smoke };
    let private_l2 = Machine {
        cores: 16,
        sharing: L2Sharing::Private,
        ..smoke
    };
    let one_bank = Machine {
        cores: 8,
        one_bank: true,
        ..smoke
    };
    for machine in [
        smoke, regression, batched, solo, shared_l2, private_l2, one_bank,
    ] {
        for perturb in [0, 0x00C0_707E_5EED] {
            assert_table_matches_baseline(&machine, true, perturb);
        }
    }
    for perturb in [0, 0x00C0_707E_5EED] {
        assert_table_matches_baseline(&one_bank, false, perturb);
    }
}

/// Under the counter clock the stripped `host_profile` section is
/// itself a pure function of the simulated schedule: every
/// simulation-derived part — the per-core fused-pipeline diagnostics,
/// the abort-reason taxonomy, the chunk-/run-length distributions, the
/// event-pop total — is byte-stable across legal schedule
/// perturbations, and the per-core rows are aggregated in core order.
/// Every fused retirement is a window chunk: a core's chunk lengths sum
/// to its fused retirements.
#[test]
fn counter_profiles_aggregate_by_core_order() {
    let machine = Machine {
        cores: 4,
        sharing: L2Sharing::Shared,
        interleave: 1,
        iterations: 24,
        stride: 64,
        one_bank: false,
    };
    for contended in [false, true] {
        let src = kernel(&machine, contended);
        let profiled = |perturb| {
            let knobs = Knobs {
                fusion: true,
                profiling: ProfMode::Counter,
                perturb,
                ..BASELINE
            };
            run(&src, &machine, knobs)
        };
        let canon = profiled(0);
        let pert = profiled(0x00C0_707E_5EED);
        assert_eq!(
            canon.digest, pert.digest,
            "digest diverged (contended={contended})"
        );
        for section in [
            "per_core",
            "abort_reasons",
            "chunk_lengths",
            "run_lengths",
            "event_pops",
        ] {
            let a = canon.host_profile.get(section).expect("section present");
            let b = pert.host_profile.get(section).expect("section present");
            assert_eq!(
                a.to_string_pretty(),
                b.to_string_pretty(),
                "host_profile.{section} depends on the schedule perturbation (contended={contended})"
            );
        }
        let order: Vec<u64> = canon
            .host_profile
            .get("per_core")
            .and_then(JsonValue::as_array)
            .expect("per_core array")
            .iter()
            .map(|row| row.get("core").and_then(JsonValue::as_u64).expect("core"))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3], "per-core rows out of core order");
        let chunk_sums: Vec<u64> = canon
            .host_profile
            .get("per_core")
            .and_then(JsonValue::as_array)
            .expect("per_core array")
            .iter()
            .map(|row| {
                row.get("chunk_lengths")
                    .and_then(|hist| hist.get("sum"))
                    .and_then(JsonValue::as_u64)
                    .expect("chunk_lengths.sum")
            })
            .collect();
        assert!(
            canon.fused_retired.iter().any(|&n| n > 0),
            "the kernel must exercise the fused path (contended={contended})"
        );
        assert_eq!(
            chunk_sums, canon.fused_retired,
            "a fused retirement outside a window chunk (contended={contended})"
        );
    }
}
