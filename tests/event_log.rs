//! Pins the memory hierarchy's event *order*, not only its end state.
//!
//! Cycle counts and statistics can survive a reordering of same-cycle
//! events that the arbitration contract forbids (two same-bank events
//! swapped, a fill drained after an arrival); the fired-event log
//! cannot. Each row runs a vector SpMV at 16 cores with the event log
//! on and folds FNV-1a over every record. The constants were recorded
//! from the binary-heap event queue the timing wheel replaced; a lost,
//! extra or reordered event changes them.
//!
//! The last row checks the perturbation seed itself: on a contended
//! machine it must really reorder same-cycle events of different
//! arbitration domains, and that reordering must change nothing else.

use std::time::Duration;

use coyote::{L2Config, McConfig, NocModel, SimConfig, Simulation};
use coyote_kernels::workload::Workload;
use coyote_kernels::{MatmulScalar, SpmvVectorCsr};
use coyote_mem::hierarchy::EventRecord;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Runs the kernel with the event log on; returns (record count, FNV-1a
/// over every field of every record in firing order).
fn event_log(config: SimConfig) -> (usize, u64) {
    let kernel = SpmvVectorCsr::new(384, 384, 0.1, 2022);
    let program = kernel.program(config.cores).expect("assembles");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    kernel.populate(&program, sim.memory_mut());
    sim.set_event_log(true);
    sim.run().expect("run completes");
    kernel.verify(&program, sim.memory()).expect("verifies");
    let log = sim.take_event_log();
    let mut hash = FNV_OFFSET;
    for r in &log {
        for bytes in [
            &r.cycle.to_le_bytes()[..],
            r.kind.as_bytes(),
            &r.line_addr.to_le_bytes(),
            &r.tag.to_le_bytes(),
            &(r.bank as u64).to_le_bytes(),
            &(r.tile as u64).to_le_bytes(),
        ] {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    (log.len(), hash)
}

#[test]
fn default_machine_fires_the_recorded_event_sequence() {
    let config = SimConfig::builder().cores(16).build().unwrap();
    assert_eq!(event_log(config), (27_799, 0x63df_4f32_6f3c_5161));
}

#[test]
fn contended_perturbed_machine_fires_the_recorded_event_sequence() {
    // Two MSHRs per bank (waiting queues, merges on wake), next-line
    // prefetch, a mesh, the open-page DRAM model and a nonzero
    // perturbation seed: every ordering rule of the queue is in play.
    let config = SimConfig::builder()
        .cores(16)
        .l2(L2Config {
            mshrs: 2,
            ..L2Config::default()
        })
        .prefetch_degree(2)
        .noc(NocModel::Mesh {
            width: 2,
            height: 1,
            hop_latency: 3,
            base_latency: 2,
        })
        .mc(McConfig {
            row_bytes: 2048,
            ..McConfig::default()
        })
        .perturb_seed(7)
        .build()
        .unwrap();
    assert_eq!(event_log(config), (36_556, 0x40e7_c9f3_b9f0_1a58));
}

/// What one run of the contended machine is compared on.
struct Observed {
    log: Vec<EventRecord>,
    cycles: u64,
    digest: u64,
    metrics: String,
}

/// Eight cores on one tile sharing a single 16 KiB L2 bank with two
/// MSHRs: every same-cycle arrival funnels into one arbitration domain,
/// so an order that leaked out of the contract would reshuffle MSHR
/// grants and queueing delays.
fn contended_run(perturb_seed: u64) -> Observed {
    let config = SimConfig::builder()
        .cores(8)
        .banks_per_tile(1)
        .l2(L2Config {
            bank_size_bytes: 16 * 1024,
            mshrs: 2,
            ..L2Config::default()
        })
        .telemetry(true)
        .metrics_interval(500)
        .perturb_seed(perturb_seed)
        .build()
        .unwrap();
    let kernel = MatmulScalar::new(12, 0x00C0_707E);
    let program = kernel.program(config.cores).expect("assembles");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    kernel.populate(&program, sim.memory_mut());
    sim.set_event_log(true);
    let mut report = sim.run().expect("run completes");
    kernel.verify(&program, sim.memory()).expect("verifies");
    // Wall time is host noise, not model output.
    report.wall_time = Duration::ZERO;
    Observed {
        log: sim.take_event_log(),
        cycles: report.cycles,
        digest: sim.determinism_digest(),
        metrics: coyote::metrics_json(&sim, &report).to_string_pretty(),
    }
}

/// Sorts a log into canonical order: within a cycle, by record content,
/// so two legal schedules of one run compare equal.
fn canonical(mut log: Vec<EventRecord>) -> Vec<EventRecord> {
    log.sort_by_key(|r| (r.cycle, r.kind, r.line_addr, r.tag, r.bank, r.tile));
    log
}

/// The first position where two logs differ, with the record each run
/// has there (`None` past its end).
fn first_difference<'a>(
    a: &'a [EventRecord],
    b: &'a [EventRecord],
) -> Option<(usize, Option<&'a EventRecord>, Option<&'a EventRecord>)> {
    (0..a.len().max(b.len()))
        .map(|i| (i, a.get(i), b.get(i)))
        .find(|(_, x, y)| x != y)
}

#[test]
fn perturbation_reorders_events_and_changes_nothing_else() {
    let canon = contended_run(0);
    let pert = contended_run(0x00C0_707E_5EED);
    assert!(
        canon.log != pert.log,
        "the seed moved no same-cycle cross-domain pair ({} records): perturbation is inert",
        canon.log.len()
    );
    let (canon_log, pert_log) = (canonical(canon.log), canonical(pert.log));
    if let Some((i, a, b)) = first_difference(&canon_log, &pert_log) {
        let show = |r: Option<&EventRecord>| {
            r.map_or_else(|| "end of log".to_owned(), ToString::to_string)
        };
        panic!(
            "schedule race: canonical record {i} differs\n  seed 0: {}\n  perturbed: {}",
            show(a),
            show(b)
        );
    }
    assert_eq!(
        (pert.cycles, pert.digest),
        (canon.cycles, canon.digest),
        "(cycles, digest) depend on the schedule perturbation"
    );
    let line = canon
        .metrics
        .lines()
        .zip(pert.metrics.lines())
        .position(|(a, b)| a != b);
    assert!(
        canon.metrics == pert.metrics,
        "metrics JSON depends on the schedule perturbation (first differing line: {line:?})"
    );
}
