//! The live plane's abnormal exits: a deadlock leaves a parseable
//! crash dump behind, and a graceful stop leaves a partial report
//! marked `truncated`. (That watching a run never changes it is the
//! `status` axis of `equivalence.rs`.)

use coyote::{JsonValue, SimConfig, Simulation};

/// A forced deadlock (lost data fill) must produce a parseable crash
/// dump carrying the stall attribution and the flight-recorder tail.
#[test]
fn deadlock_crash_dump_carries_stalls_and_flight_tail() {
    let src = "
        .data
        x: .dword 7
        .text
        _start:
            la t0, x
            ld t1, 0(t0)
            addi a0, t1, 1
            li a7, 93
            ecall";
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder().cores(1).build().expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    sim.debug_inject_lost_fill();
    let err = sim.run().expect_err("lost fill must deadlock");
    let rendered = err.to_string();
    assert!(rendered.contains("deadlock at cycle"), "{rendered}");
    assert!(rendered.contains("blocked on:"), "{rendered}");

    let dump = sim.crash_json("deadlock");
    let text = dump.to_string_pretty();
    let parsed = coyote::parse_json(&text).expect("crash dump parses");
    assert_eq!(
        parsed.get("reason").and_then(JsonValue::as_str),
        Some("deadlock")
    );
    let stalls = parsed
        .get("stalls")
        .and_then(JsonValue::as_array)
        .expect("stalls array");
    assert!(!stalls.is_empty(), "no stall attribution in the dump");
    assert!(
        stalls[0].get("line").is_some() && stalls[0].get("pc").is_some(),
        "stall entries must carry line and pc"
    );
    let flight = parsed.get("flight_recorder").expect("flight recorder");
    let events = flight
        .get("events")
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(!events.is_empty(), "flight tail is empty");
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(JsonValue::as_str) == Some("stall")),
        "flight tail should record the stall"
    );
    assert!(
        parsed.get("mshr_occupancy").is_some(),
        "mshr occupancy missing"
    );
    assert!(parsed.get("cores").is_some(), "core snapshots missing");
}

/// A graceful stop yields a partial report marked `truncated`, and the
/// truncation flag shows up in the metrics document.
#[test]
fn stop_token_truncates_the_run() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let src = "
        _start:
            li t0, 100000
        loop:
            addi t0, t0, -1
            bnez t0, loop
            li a0, 0
            li a7, 93
            ecall";
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder().cores(1).build().expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let stop = Arc::new(AtomicBool::new(true));
    sim.set_stop_handle(Arc::clone(&stop));
    match sim.run() {
        Err(coyote::RunError::Stopped { cycle }) => {
            assert!(cycle >= 1, "stop must land after a completed cycle");
        }
        other => panic!("expected Stopped, got {other:?}"),
    }
    let report = sim.partial_report();
    assert!(report.truncated, "partial report must be marked truncated");
    let doc = coyote::metrics_json(&sim, &report);
    assert_eq!(
        doc.get("report")
            .and_then(|r| r.get("truncated"))
            .map(JsonValue::to_string_compact),
        Some("true".to_owned())
    );
}
