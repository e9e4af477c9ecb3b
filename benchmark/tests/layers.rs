//! The traced pass from the library side: the ideal-memory `iss` drivers
//! compute the right answer, and the recorded spans account for the rep.

use coyote_benchmark::layers::{self, iss_pass};
use coyote_benchmark::workloads::{find, WORKLOADS};

#[test]
fn ideal_memory_iss_drivers_verify_at_1_and_8_cores() {
    for spec in &WORKLOADS {
        let workload = spec.build(11, true);
        for cores in [1, 8] {
            let program = workload.program(cores).unwrap();
            let step = iss_pass(&program, workload.as_ref(), cores, false).unwrap();
            let block = iss_pass(&program, workload.as_ref(), cores, true).unwrap();
            // Same program, same instructions, whichever way they retire.
            assert_eq!(
                step.retired, block.retired,
                "{} at {cores} cores",
                spec.name
            );
            assert_eq!(step.fused_retired, 0);
            assert!(block.fused_retired > 0, "{} never fused", spec.name);
        }
    }
}

#[test]
fn span_self_times_sum_to_the_rep_wall() {
    let spec = find("spmv_128c").unwrap();
    let workload = spec.build(5, true);
    let traced = layers::run(spec, workload.as_ref(), 5, 0.0);
    assert_eq!(traced.log.failed, 0, "{:?}", traced.log.errors);
    assert!(!traced.rep_walls.is_empty());
    let spans = traced.recorder.spans();
    let self_seconds = traced.recorder.self_seconds();
    for (i, &wall) in traced.rep_walls.iter().enumerate() {
        let rep = i as u32 + 1;
        let self_sum: f64 = (0..spans.len())
            .filter(|&id| spans[id].rep == rep)
            .map(|id| self_seconds[id])
            .sum();
        assert!(
            (self_sum - wall).abs() <= 0.02 * wall,
            "rep {rep}: span self times sum to {self_sum}, the rep took {wall}"
        );
        // Every stage of the rep hangs off the one root span.
        let roots = spans
            .iter()
            .filter(|s| s.rep == rep && s.parent.is_none())
            .count();
        assert_eq!(roots, 1);
    }
}
