//! Abnormal exits: a deadlock or a graceful stop leaves a parseable
//! crash dump that says on its own where every core was and why, and a
//! stop leaves a partial report marked `truncated`.

use coyote::{JsonValue, SimConfig, Simulation, CRASH_SCHEMA_VERSION};

/// `crash.json` is the only artifact an abnormal exit leaves besides
/// the partial metrics, so it alone must carry the machine's last
/// state: the pinned version and key set, per-core `state`/`pc`/
/// `retired`, the stall list, MSHR occupancy and a non-empty flight
/// tail. Returns the parsed dump for case-specific assertions.
fn self_sufficient_crash_dump(sim: &Simulation, reason: &str) -> JsonValue {
    let text = sim.crash_json(reason).to_string_pretty();
    let dump = coyote::parse_json(&text).expect("crash dump parses");
    assert_eq!(CRASH_SCHEMA_VERSION, 6, "bump deliberately, with the keys");
    assert_eq!(
        dump.keys().expect("crash dump is an object"),
        [
            "schema_version",
            "reason",
            "cycle",
            "cores",
            "stalls",
            "mshr_occupancy",
            "hostprof_phases",
            "event_pops",
            "flight_recorder",
        ],
        "crash.json key set changed — bump CRASH_SCHEMA_VERSION"
    );
    assert_eq!(
        dump.get("schema_version").and_then(JsonValue::as_u64),
        Some(CRASH_SCHEMA_VERSION)
    );
    assert_eq!(dump.get("reason").and_then(JsonValue::as_str), Some(reason));
    assert_eq!(
        dump.get("cycle").and_then(JsonValue::as_u64),
        Some(sim.cycle())
    );
    let cores = dump
        .get("cores")
        .and_then(JsonValue::as_array)
        .expect("cores array");
    assert_eq!(cores.len(), sim.cores().len());
    for (core, snap) in cores.iter().zip(sim.cores()) {
        let snap = snap.snapshot();
        assert!(core.get("state").and_then(JsonValue::as_str).is_some());
        assert_eq!(core.get("pc").and_then(JsonValue::as_u64), Some(snap.pc));
        assert_eq!(
            core.get("retired").and_then(JsonValue::as_u64),
            Some(snap.retired)
        );
    }
    assert!(dump.get("stalls").and_then(JsonValue::as_array).is_some());
    let mshr = dump
        .get("mshr_occupancy")
        .and_then(JsonValue::as_array)
        .expect("mshr occupancy array");
    assert!(!mshr.is_empty(), "one occupancy entry per L2 bank");
    let events = dump
        .get("flight_recorder")
        .and_then(|f| f.get("events"))
        .and_then(JsonValue::as_array)
        .expect("flight events array");
    assert!(!events.is_empty(), "flight tail is empty");
    dump
}

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

    let dump = self_sufficient_crash_dump(&sim, "deadlock");
    let core = &dump
        .get("cores")
        .and_then(JsonValue::as_array)
        .expect("cores")[0];
    assert_eq!(
        core.get("state").and_then(JsonValue::as_str),
        Some("stalled_dep")
    );
    let stalls = dump
        .get("stalls")
        .and_then(JsonValue::as_array)
        .expect("stalls array");
    assert!(!stalls.is_empty(), "no stall attribution in the dump");
    assert!(
        stalls[0].get("line").is_some() && stalls[0].get("pc").is_some(),
        "stall entries must carry line and pc"
    );
    let events = dump
        .get("flight_recorder")
        .and_then(|f| f.get("events"))
        .and_then(JsonValue::as_array)
        .expect("events array");
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(JsonValue::as_str) == Some("stall")),
        "flight tail should record the stall"
    );
}

/// A graceful stop yields a partial report marked `truncated`, the
/// truncation flag shows up in the metrics document, and the crash dump
/// shows the core unfinished.
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
    let dump = self_sufficient_crash_dump(&sim, "stopped");
    let core = &dump
        .get("cores")
        .and_then(JsonValue::as_array)
        .expect("cores")[0];
    assert_ne!(
        core.get("state").and_then(JsonValue::as_str),
        Some("halted")
    );
}
