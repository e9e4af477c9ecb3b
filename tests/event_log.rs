//! Pins the memory hierarchy's event *order*, not only its end state.
//!
//! Cycle counts and statistics can survive a reordering of same-cycle
//! events that the arbitration contract forbids (two same-bank events
//! swapped, a fill drained after an arrival); the fired-event log
//! cannot. Each row runs a vector SpMV at 16 cores with the event log
//! on and folds FNV-1a over every record. The constants were recorded
//! from the binary-heap event queue the timing wheel replaced; a lost,
//! extra or reordered event changes them.

use coyote::{L2Config, McConfig, NocModel, SimConfig, Simulation};
use coyote_kernels::workload::Workload;
use coyote_kernels::SpmvVectorCsr;

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
