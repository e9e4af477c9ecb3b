//! Abnormal exits: a deadlock or a graceful stop leaves a parseable
//! crash dump that says on its own where every core was and why, and a
//! stop leaves a partial report marked `truncated` whose CPI stacks
//! still partition the cycles that ran.

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
    // The whole dump, flight-tail order included (`Completion` then
    // `Wake` per fill, the swallowed fill absent), as recorded at
    // 4b772b8, before the recorders moved behind one observer.
    assert_eq!(
        sim.crash_json("deadlock").to_string_pretty(),
        include_str!("golden/crash_lost_fill.json")
    );
    // The run is over, so the planes are closed at the cycle it died on.
    let attr = sim.attribution();
    let dep: u64 = attr.dep()[0].iter().sum();
    assert_eq!(
        attr.active()[0] + dep + attr.fetch()[0] + attr.drained()[0],
        sim.cycle()
    );
}

/// A graceful stop yields a partial report marked `truncated`, the
/// truncation flag shows up in the metrics document, every core's CPI
/// stack partitions the cycles that ran (hart 0 was running, hart 1 had
/// halted: both tails are flushed), and the crash dump shows hart 0
/// unfinished.
#[test]
fn stop_token_truncates_the_run() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let src = "
        _start:
            csrr t0, mhartid
            bnez t0, done
            li t0, 100000
        loop:
            addi t0, t0, -1
            bnez t0, loop
        done:
            li a0, 0
            li a7, 93
            ecall";
    let program = coyote_asm::assemble(src).expect("assemble");
    let config = SimConfig::builder()
        .cores(2)
        .telemetry(true)
        .trace(true)
        .build()
        .expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    // Run into the loop first, so the stop lands mid-run with one hart
    // halted, then stop at the next cycle boundary.
    while sim.cores()[1].snapshot().retired < 5 {
        assert!(!sim.step_cycle().expect("step"), "hart 0 loops on");
    }
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
    let per_core = doc
        .get("attribution")
        .and_then(|a| a.get("per_core"))
        .and_then(JsonValue::as_array)
        .expect("CPI stacks");
    for row in per_core {
        assert_eq!(
            row.get("total_cycles").and_then(JsonValue::as_u64),
            Some(report.cycles),
            "a stopped run's CPI stack must still partition it: {}",
            row.to_string_compact()
        );
    }
    assert!(
        per_core[1].get("drained").and_then(JsonValue::as_u64) > Some(0),
        "the halted hart drains until the stop"
    );
    // Both traces reach the stop cycle too.
    let last = sim.trace().expect("tracing on").states();
    assert_eq!(last.map(|s| s.end).max(), Some(report.cycles));
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
