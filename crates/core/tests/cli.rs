//! Integration test for the `coyote-sim` command-line driver.

use std::io::Write;
use std::process::Command;

fn sim_binary() -> &'static str {
    env!("CARGO_BIN_EXE_coyote-sim")
}

fn write_temp_program(name: &str, source: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("coyote-sim-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(name);
    let mut file = std::fs::File::create(&path).expect("create temp file");
    file.write_all(source.as_bytes()).expect("write program");
    path
}

#[test]
fn runs_a_program_and_propagates_exit_code() {
    let path = write_temp_program(
        "exit7.s",
        "_start:
            li a0, 7
            li a7, 93
            ecall",
    );
    let output = Command::new(sim_binary())
        .arg(&path)
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(7));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cycles:"), "report on stderr: {stderr}");
}

#[test]
fn prints_console_output_on_stdout() {
    let path = write_temp_program(
        "print.s",
        "_start:
            li a0, 104     # 'h'
            li a7, 64
            ecall
            li a0, 105     # 'i'
            ecall
            li a0, 0
            li a7, 93
            ecall",
    );
    let output = Command::new(sim_binary())
        .arg(&path)
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&output.stdout), "hi\n");
}

#[test]
fn multicore_flags_and_trace_output() {
    let path = write_temp_program(
        "multi.s",
        "_start:
            csrr t0, mhartid
            li a0, 0
            li a7, 93
            ecall",
    );
    let trace = std::env::temp_dir().join("coyote-sim-tests/trace-out");
    let output = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "4", "--l2-private", "--mapping", "page"])
        .args(["--prefetch", "2", "--noc-latency", "3"])
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(0));
    let prv = trace.with_extension("prv");
    let contents = std::fs::read_to_string(&prv).expect("trace written");
    assert!(contents.starts_with("#Paraver"));
    assert!(trace.with_extension("pcf").exists());
}

#[test]
fn bad_arguments_fail_cleanly() {
    let output = Command::new(sim_binary())
        .arg("--cores")
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--cores"));

    // A hostile core count is a config error, not a failed allocation.
    let path = write_temp_program("hostile_cores.s", "_start:\n li a7, 93\n ecall\n");
    let output = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "100000000"])
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("core count"));

    // So are a mesh that cannot hold the tiles (it used to panic inside
    // the hierarchy), a prefetch degree that would never finish, a
    // latency that wrapped the event clock (debug panic; release
    // reported shorter stalls than the default) and a bank count that
    // never started.
    for (flags, needle) in [
        (["--cores", "16", "--mesh", "1x1"], "mesh 1x1"),
        (["--cores", "2", "--mesh", "0x0"], "mesh 0x0"),
        (
            ["--cores", "2", "--prefetch", "99999999"],
            "prefetch degree",
        ),
        (
            ["--cores", "4", "--noc-latency", "18446744073709551615"],
            "NoC traversal latency 18446744073709551615 exceeds the supported maximum of 1048576",
        ),
        (
            ["--cores", "4", "--banks-per-tile", "100000"],
            "100000 banks_per_tile exceeds the supported maximum of 16384 L2 banks",
        ),
    ] {
        let output = Command::new(sim_binary())
            .arg(&path)
            .args(flags)
            .output()
            .expect("spawn coyote-sim");
        assert_eq!(output.status.code(), Some(1), "{flags:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("invalid simulation config") && stderr.contains(needle),
            "{flags:?}: {stderr}"
        );
    }

    let output = Command::new(sim_binary())
        .arg("/nonexistent/file.s")
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn assembly_errors_point_at_the_line() {
    // The second program used to abort the process on a failed
    // 8 EiB allocation instead of returning an error.
    for (name, source, line) in [
        (
            "broken.s",
            "_start:\n    nop\n    bogus_mnemonic a0",
            "line 3",
        ),
        ("huge.s", ".data\n.zero 0x7fffffffffffffff\n", "line 2"),
    ] {
        let path = write_temp_program(name, source);
        let output = Command::new(sim_binary())
            .arg(&path)
            .output()
            .expect("spawn coyote-sim");
        assert_eq!(output.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(line), "{name} stderr: {stderr}");
    }
}

/// A register group that runs past `v31` used to panic the simulator
/// (exit 101), with and without the oracle; it is an execution error
/// naming the pc and the register.
#[test]
fn vector_group_past_v31_is_an_error_naming_the_pc() {
    let path = write_temp_program(
        "group_past_v31.s",
        "_start:\n li a0, 1024\n vsetvli t0, a0, e64,m8,ta,ma\n vadd.vv v31, v31, v31\n",
    );
    for oracle in [&[][..], &["--oracle"][..]] {
        let output = Command::new(sim_binary())
            .arg(&path)
            .args(oracle)
            .output()
            .expect("spawn coyote-sim");
        assert_eq!(output.status.code(), Some(1), "{oracle:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("pc 0x80000008") && stderr.contains("v31 runs past v31"),
            "{oracle:?}: {stderr}"
        );
    }
}

/// A jump to a PC that is not 4-byte aligned is an error naming that
/// PC, with and without the oracle. Without the C extension such a
/// fetch faults; decoding the bytes there instead runs the halves that
/// straddle the data words below (`nop; li a7, 93; ecall`) and exits 42.
#[test]
fn misaligned_jump_target_is_an_error_naming_the_pc() {
    let path = write_temp_program(
        "misaligned_jump.s",
        ".data\ntarget:\n .word 0x00130000, 0x08930000, 0x007305D0, 0\n.text\n\
         _start:\n li a0, 42\n la t0, target\n jalr x0, 2(t0)\n",
    );
    for oracle in [&[][..], &["--oracle"][..]] {
        let output = Command::new(sim_binary())
            .arg(&path)
            .args(oracle)
            .output()
            .expect("spawn coyote-sim");
        assert_eq!(output.status.code(), Some(1), "{oracle:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("pc 0x81000002") && stderr.contains("misaligned"),
            "{oracle:?}: {stderr}"
        );
    }
}

/// `vsetvl` to an unsupported `vtype` is an execution error naming the
/// pc and the value, with and without the oracle — not a run under the
/// default `vtype` (which exits 16 here).
#[test]
fn vsetvl_to_an_unsupported_vtype_is_an_error_naming_the_pc() {
    let path = write_temp_program(
        "vsetvl_vill.s",
        "_start:\n li a1, -1\n vsetvl a0, zero, a1\n li a7, 93\n ecall\n",
    );
    for oracle in [&[][..], &["--oracle"][..]] {
        let output = Command::new(sim_binary())
            .arg(&path)
            .args(oracle)
            .output()
            .expect("spawn coyote-sim");
        assert_eq!(output.status.code(), Some(1), "{oracle:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("pc 0x80000004") && stderr.contains("vtype 0xffffffffffffffff"),
            "{oracle:?}: {stderr}"
        );
    }
}

#[test]
fn every_documented_flag_parses() {
    let path = write_temp_program(
        "flags.s",
        "_start:
            li a0, 0
            li a7, 93
            ecall",
    );
    let trace = std::env::temp_dir().join("coyote-sim-tests/flags-trace");
    let metrics = std::env::temp_dir().join("coyote-sim-tests/flags-metrics");
    let chrome = std::env::temp_dir().join("coyote-sim-tests/flags-chrome.json");
    let output = Command::new(sim_binary())
        .arg(&path)
        .args([
            "--cores",
            "4",
            "--cores-per-tile",
            "2",
            "--banks-per-tile",
            "2",
        ])
        .args(["--l2-private", "--mapping", "set", "--noc-latency", "2"])
        .args(["--mesh", "2x2", "--prefetch", "1", "--interleave", "2"])
        .args(["--max-cycles", "100000", "--metrics-interval", "500"])
        .args(["--top-k", "16"])
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--chrome-trace")
        .arg(&chrome)
        .arg("--oracle")
        .output()
        .expect("spawn coyote-sim");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn metrics_out_writes_well_formed_json_and_csv() {
    let path = write_temp_program(
        "metrics.s",
        ".data
         buf: .zero 1024
         .text
         _start:
            la t0, buf
            li t1, 16
         loop:
            ld t2, 0(t0)
            sd t2, 8(t0)
            addi t0, t0, 64
            addi t1, t1, -1
            bnez t1, loop
            li a0, 0
            li a7, 93
            ecall",
    );
    let metrics = std::env::temp_dir().join("coyote-sim-tests/metrics-out");
    let output = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "2", "--metrics-interval", "1000"])
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(0));

    let text = std::fs::read_to_string(metrics.with_extension("json")).expect("metrics json");
    let doc = coyote_telemetry::parse_json(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema_version")
            .and_then(coyote_telemetry::JsonValue::as_u64),
        Some(coyote::SCHEMA_VERSION)
    );
    assert!(doc
        .get("histograms")
        .is_some_and(|h| h.get("stages").is_some()));

    let csv = std::fs::read_to_string(metrics.with_extension("csv")).expect("metrics csv");
    let header = csv.lines().next().expect("csv header");
    assert!(
        header.starts_with("epoch,start,end,retired,ipc"),
        "{header}"
    );
    assert!(csv.lines().count() > 1, "csv has at least one epoch row");
}

#[test]
fn chrome_trace_flag_writes_trace_event_json() {
    let path = write_temp_program(
        "chrome.s",
        ".data
         v: .dword 3
         .text
         _start:
            la t0, v
            ld t1, 0(t0)
            li a0, 0
            li a7, 93
            ecall",
    );
    let chrome = std::env::temp_dir().join("coyote-sim-tests/chrome-out.json");
    let output = Command::new(sim_binary())
        .arg(&path)
        .arg("--chrome-trace")
        .arg(&chrome)
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(0));

    let text = std::fs::read_to_string(&chrome).expect("chrome trace");
    let doc = coyote_telemetry::parse_json(&text).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("ph field");
        // X = slice, M = metadata, s/f = stall-attribution flow pair.
        assert!(
            ph == "X" || ph == "M" || ph == "s" || ph == "f",
            "unexpected phase {ph}"
        );
    }
}

/// The streamed file is the in-memory pretty document byte for byte,
/// and the compact form still equals the golden recorded from the tree
/// serialiser this path replaced (commit 79160f9, same program and
/// flags), so identity with the old exporter outlives it. The pretty
/// form is also checked against the golden re-serialised through the
/// tree path (`JsonValue::to_string_pretty`), an oracle that shares no
/// code with the Chrome writer's templates. Likewise the `.prv`,
/// recorded at 4b772b8 from the per-core interval scan the observer's
/// transition lists replaced.
#[test]
fn streamed_chrome_trace_equals_the_library_document_and_the_golden() {
    let program = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/asm/dotprod.s");
    let dir = std::env::temp_dir().join("coyote-sim-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let chrome = dir.join("dotprod-chrome.json");
    let output = Command::new(sim_binary())
        .arg(program)
        .args(["--cores", "8"])
        .arg("--chrome-trace")
        .arg(&chrome)
        .arg("--metrics-out")
        .arg(dir.join("dotprod-metrics"))
        .arg("--trace")
        .arg(dir.join("dotprod-trace"))
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("capped"), "no cap is reached: {stderr}");

    let source = std::fs::read_to_string(program).expect("dotprod.s");
    let config = coyote::SimConfig::builder()
        .cores(8)
        .trace(true)
        .telemetry(true)
        .chrome_trace(true)
        .build()
        .expect("valid config");
    let mut sim = coyote::Simulation::new(config, &coyote_asm::assemble(&source).unwrap()).unwrap();
    sim.run().expect("dotprod runs");
    let doc = coyote::chrome_trace_json(&sim);
    let golden = include_str!("golden/chrome_dotprod_8c.json");
    let streamed = std::fs::read_to_string(&chrome).expect("chrome trace");
    assert!(streamed == doc.to_string_pretty(), "streamed file differs");
    assert!(
        doc.to_string_compact() == golden,
        "compact document differs from the golden of the old tree exporter"
    );
    let tree = coyote::parse_json(golden).expect("the golden parses");
    assert!(
        doc.to_string_pretty() == tree.to_string_pretty(),
        "pretty document differs from the golden re-serialised through the tree"
    );
    let mut compact = Vec::new();
    doc.write_compact(&mut compact).expect("a Vec sink");
    assert!(
        compact == doc.to_string_compact().as_bytes(),
        "streamed compact document differs"
    );
    let prv = std::fs::read(dir.join("dotprod-trace.prv")).expect("paraver trace");
    assert!(
        prv == include_bytes!("golden/prv_dotprod_8c.prv"),
        ".prv differs from the golden of the per-core interval scan"
    );
}

/// More than `SLICE_CAP` / `LINK_CAP` requests: the trace silently
/// loses the later ones, so stderr must say how many.
#[test]
fn capped_chrome_trace_reports_the_drop_counts() {
    let path = write_temp_program(
        "cap-overflow.s",
        "_start:
            li t1, 0x1000000
            li t2, 100100
        loop:
            ld t3, 0(t1)        # every load misses: a new line each time
            add t4, t4, t3      # and stalls the core until it returns
            addi t1, t1, 64
            addi t2, t2, -1
            bnez t2, loop
            li a0, 0
            li a7, 93
            ecall",
    );
    let chrome = std::env::temp_dir().join("coyote-sim-tests/cap-overflow-chrome.json");
    let output = Command::new(sim_binary())
        .arg(&path)
        .arg("--chrome-trace")
        .arg(&chrome)
        .output()
        .expect("spawn coyote-sim");
    std::fs::remove_file(&chrome).expect("the (large) trace was written");
    assert_eq!(output.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let notice: Vec<&str> = stderr.lines().filter(|l| l.contains("capped")).collect();
    assert_eq!(notice.len(), 1, "one notice line: {stderr}");
    assert!(
        notice[0].contains("dropped 101 request slices (cap 100000)")
            && notice[0].contains("101 stall links (cap 100000)"),
        "both drop counts: {}",
        notice[0]
    );
}

#[test]
fn zero_metrics_interval_is_rejected() {
    let path = write_temp_program(
        "zero-interval.s",
        "_start:
            li a0, 0
            li a7, 93
            ecall",
    );
    let metrics = std::env::temp_dir().join("coyote-sim-tests/zero-interval-metrics");
    let output = Command::new(sim_binary())
        .arg(&path)
        .args(["--metrics-interval", "0"])
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("metrics_interval"), "stderr: {stderr}");

    let output = Command::new(sim_binary())
        .arg(&path)
        .args(["--top-k", "0"])
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("attribution_top_k"), "stderr: {stderr}");
}

#[test]
fn empty_output_paths_are_rejected() {
    let path = write_temp_program(
        "empty-path.s",
        "_start:
            li a0, 0
            li a7, 93
            ecall",
    );
    for flag in [
        "--trace",
        "--metrics-out",
        "--chrome-trace",
        "--prof-out",
        "--crash-out",
        "--stop-file",
    ] {
        for bad in ["", "   "] {
            let output = Command::new(sim_binary())
                .arg(&path)
                .args([flag, bad])
                .output()
                .expect("spawn coyote-sim");
            assert_eq!(
                output.status.code(),
                Some(1),
                "{flag} {bad:?} should be rejected"
            );
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains(&format!("{flag} needs a non-empty path")),
                "stderr for {flag} {bad:?}: {stderr}"
            );
        }
    }
}

#[test]
fn retired_status_flags_are_unknown_arguments() {
    let path = write_temp_program(
        "no-status.s",
        "_start:
            li a0, 0
            li a7, 93
            ecall",
    );
    // The live-status plane's two flags, spelled in halves so a grep for
    // the retired names over the tree stays empty.
    for flag in ["out", "interval"].map(|half| format!("--status-{half}")) {
        let output = Command::new(sim_binary())
            .arg(&path)
            .args([flag.as_str(), "1"])
            .output()
            .expect("spawn coyote-sim");
        assert_eq!(output.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn stop_file_truncates_the_run_with_a_crash_dump() {
    // A long-running kernel; the stop file exists before launch, so
    // the watchdog fires on its first poll and the run stops after a
    // cycle boundary.
    let path = write_temp_program(
        "stoppable.s",
        "_start:
            li t0, 50000000
        loop:
            addi t0, t0, -1
            bnez t0, loop
            li a0, 0
            li a7, 93
            ecall",
    );
    let dir = std::env::temp_dir().join("coyote-sim-tests");
    let stop = dir.join("stop-now");
    std::fs::write(&stop, b"").expect("create stop file");
    let metrics = dir.join("stopped-metrics");
    let crash = dir.join("stopped-crash.json");
    let output = Command::new(sim_binary())
        .arg(&path)
        .arg("--stop-file")
        .arg(&stop)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--crash-out")
        .arg(&crash)
        .output()
        .expect("spawn coyote-sim");
    let _ = std::fs::remove_file(&stop);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(130), "stderr: {stderr}");
    assert!(stderr.contains("stop requested"), "stderr: {stderr}");

    // Partial metrics are marked truncated.
    let text = std::fs::read_to_string(metrics.with_extension("json")).expect("metrics json");
    let doc = coyote_telemetry::parse_json(&text).expect("valid JSON");
    assert_eq!(
        doc.get("report")
            .and_then(|r| r.get("truncated"))
            .map(coyote_telemetry::JsonValue::to_string_compact),
        Some("true".to_owned())
    );

    // The crash dump parses and names the stop.
    let text = std::fs::read_to_string(&crash).expect("crash dump");
    let dump = coyote_telemetry::parse_json(&text).expect("valid crash JSON");
    assert_eq!(
        dump.get("reason")
            .and_then(coyote_telemetry::JsonValue::as_str),
        Some("stopped")
    );
    // With no other live artifact, the dump alone says where the run
    // was: per-core state, stalls, MSHR occupancy, the flight tail.
    assert_eq!(
        dump.get("schema_version")
            .and_then(coyote_telemetry::JsonValue::as_u64),
        Some(coyote::CRASH_SCHEMA_VERSION)
    );
    let core = &dump
        .get("cores")
        .and_then(|c| c.as_array())
        .expect("cores array")[0];
    for key in ["state", "pc", "retired"] {
        assert!(core.get(key).is_some(), "cores[0] lost `{key}`");
    }
    for key in ["stalls", "mshr_occupancy"] {
        assert!(
            dump.get(key).and_then(|v| v.as_array()).is_some(),
            "crash dump lost `{key}`"
        );
    }
    let events = dump
        .get("flight_recorder")
        .and_then(|f| f.get("events"))
        .and_then(|e| e.as_array())
        .expect("flight events");
    assert!(!events.is_empty(), "flight tail is empty");
}

/// A stopped run is written out like a finished one: every artifact the
/// command line asked for exists, reaches the stop cycle, and passes the
/// repo's own readers (before, only the metrics were written and their
/// CPI stacks stopped at each core's last transition). The stop file
/// exists at launch, so the run stops after its first cycle, before any
/// stall has closed — the same cycle as the library's
/// `stop_before_the_first_cycle_passes_the_check`.
#[test]
fn stopped_run_writes_every_requested_artifact_and_passes_the_check() {
    let path = write_temp_program("spin.s", "_start:\n    j _start\n");
    let dir = std::env::temp_dir().join("coyote-sim-tests");
    let stop = dir.join("spin-stop");
    std::fs::write(&stop, b"").expect("create stop file");
    let (metrics, trace, chrome) = (
        dir.join("spin-metrics"),
        dir.join("spin-trace"),
        dir.join("spin-chrome.json"),
    );
    let output = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "2"])
        .arg("--stop-file")
        .arg(&stop)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--trace")
        .arg(&trace)
        .arg("--chrome-trace")
        .arg(&chrome)
        .output()
        .expect("spawn coyote-sim");
    let _ = std::fs::remove_file(&stop);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(130), "stderr: {stderr}");

    let check = inspect("explain")
        .arg(metrics.with_extension("json"))
        .arg("--check")
        .output()
        .expect("spawn coyote-inspect explain");
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(0), "stderr: {stderr}");

    let text = std::fs::read_to_string(metrics.with_extension("json")).expect("metrics json");
    let doc = coyote_telemetry::parse_json(&text).expect("valid JSON");
    let cycles = doc
        .get("report")
        .and_then(|r| r.get("cycles"))
        .and_then(coyote_telemetry::JsonValue::as_u64)
        .expect("report.cycles");
    assert_eq!(
        cycles,
        library_stop_cycle(),
        "the stop lands where the library's does"
    );
    let summary = inspect("trace")
        .arg(trace.with_extension("prv"))
        .arg("--json")
        .output()
        .expect("spawn coyote-inspect trace");
    assert_eq!(summary.status.code(), Some(0));
    let summary = coyote_telemetry::parse_json(&String::from_utf8_lossy(&summary.stdout))
        .expect("valid JSON from --json");
    assert_eq!(
        summary
            .get("horizon_cycles")
            .and_then(coyote_telemetry::JsonValue::as_u64),
        Some(cycles),
        "the Paraver trace must reach the stop cycle"
    );
    assert!(trace.with_extension("pcf").exists());
    let text = std::fs::read_to_string(&chrome).expect("chrome trace");
    let doc = coyote_telemetry::parse_json(&text).expect("valid Chrome JSON");
    let field = |e: &coyote_telemetry::JsonValue, key: &str| {
        e.get(key).and_then(coyote_telemetry::JsonValue::as_u64)
    };
    let open_at_the_stop = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("cat").and_then(|n| n.as_str()) == Some("core-state"))
        .filter(|e| {
            field(e, "ts")
                .zip(field(e, "dur"))
                .map(|(ts, dur)| ts + dur)
                == Some(cycles)
        })
        .count();
    assert_eq!(open_at_the_stop, 2, "each spinning hart's state slice");
}

/// The machine `stopped_run_writes_every_requested_artifact_and_passes_the_check`
/// runs, stopped through the library with the token set before the
/// first cycle. Returns the stop cycle.
fn library_stop_cycle() -> u64 {
    use coyote::{RunError, SimConfig, Simulation};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let program = coyote_asm::assemble("_start:\n    j _start\n").expect("assemble");
    let config = SimConfig::builder()
        .cores(2)
        .trace(true)
        .chrome_trace(true)
        .build()
        .expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    sim.set_stop_handle(Arc::new(AtomicBool::new(true)));
    let Err(RunError::Stopped { cycle }) = sim.run() else {
        panic!("a set stop token must stop the run");
    };
    let report = sim.partial_report();
    assert_eq!(report.cycles, cycle);
    // Two tests call this concurrently: one file per test thread.
    let path = std::env::temp_dir().join("coyote-sim-tests").join(format!(
        "stop-at-once-{:?}.json",
        std::thread::current().id()
    ));
    std::fs::create_dir_all(path.parent().expect("temp dir")).expect("create temp dir");
    std::fs::write(
        &path,
        coyote::metrics_json(&sim, &report).to_string_pretty(),
    )
    .expect("write metrics");
    let check = inspect("explain")
        .arg(&path)
        .arg("--check")
        .output()
        .expect("spawn coyote-inspect explain");
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert_eq!(
        check.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    assert!(
        stdout.contains("0 critical PCs"),
        "no stall has closed yet: {stdout}"
    );
    cycle
}

#[test]
fn stop_before_the_first_cycle_passes_the_check() {
    assert!(library_stop_cycle() >= 1, "the first cycle completes");
}

/// `coyote-inspect … | head`: the reader hangs up before the report is
/// written. That is not an error (it used to be a panic, exit 101).
#[test]
fn inspect_exits_quietly_when_the_reader_hangs_up() {
    // Big enough that parsing it outlasts the parent closing the pipe.
    let mut prv = String::from("#Paraver (01/01/2021 at 00:00):400001:1(1):1:1(1:1)\n");
    for cycle in 0..400_000u64 {
        let line = 0x1000 + 64 * (cycle % 4096);
        prv.push_str(&format!(
            "2:1:1:1:1:{cycle}:42000001:2:42000002:{line}:42000003:2147483664\n"
        ));
    }
    let dir = std::env::temp_dir().join("coyote-sim-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("hangup.prv");
    std::fs::write(&path, prv).expect("write trace");
    let mut child = inspect("trace")
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn coyote-inspect trace");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
}

/// `coyote-inspect <subcommand>` as a command.
fn inspect(subcommand: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_coyote-inspect"));
    command.arg(subcommand);
    command
}

#[test]
fn inspect_needs_a_known_subcommand() {
    let bin = env!("CARGO_BIN_EXE_coyote-inspect");
    for args in [&[][..], &["top"][..], &["coyote-explain", "m.json"][..]] {
        let output = Command::new(bin)
            .args(args)
            .output()
            .expect("spawn coyote-inspect");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage:"), "stderr: {stderr}");
        for subcommand in ["explain", "prof", "trace"] {
            assert!(
                stderr.contains(&format!("coyote-inspect {subcommand}")),
                "stderr: {stderr}"
            );
        }
        assert!(output.stdout.is_empty());
    }
}

#[test]
fn inspect_explain_checks_a_metrics_document() {
    let path = write_temp_program(
        "explain.s",
        ".data
         buf: .zero 2048
         .text
         _start:
            la t0, buf
            li t1, 24
         loop:
            ld t2, 0(t0)
            addi t3, t2, 1    # RAW behind the load: dep stalls
            sd t3, 8(t0)
            addi t0, t0, 64
            addi t1, t1, -1
            bnez t1, loop
            li a0, 0
            li a7, 93
            ecall",
    );
    let metrics = std::env::temp_dir().join("coyote-sim-tests/explain-metrics");
    let status = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "2", "--metrics-interval", "200"])
        .arg("--metrics-out")
        .arg(&metrics)
        .status()
        .expect("spawn coyote-sim");
    assert!(status.success());

    let output = inspect("explain")
        .arg(metrics.with_extension("json"))
        .args(["--check", "--top", "5"])
        .output()
        .expect("spawn coyote-inspect explain");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("Per-core CPI stack"), "{stdout}");
    assert!(stdout.contains("Top critical PCs"), "{stdout}");
    assert!(stdout.contains("check: OK"), "{stdout}");

    // Unreadable input fails cleanly.
    let output = inspect("explain")
        .arg("/nonexistent/metrics.json")
        .output()
        .expect("spawn coyote-inspect explain");
    assert_eq!(output.status.code(), Some(1));

    let output = inspect("explain")
        .arg("--frobnicate")
        .output()
        .expect("spawn coyote-inspect explain");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--frobnicate"));
}

#[test]
fn inspect_prof_checks_a_profile_document() {
    let path = write_temp_program(
        "prof.s",
        "_start:
            li t0, 64
         loop:
            addi t0, t0, -1
            bnez t0, loop
            li a0, 0
            li a7, 93
            ecall",
    );
    let prof = std::env::temp_dir().join("coyote-sim-tests/prof-profile");
    let status = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "2", "--prof-counters"])
        .arg("--prof-out")
        .arg(&prof)
        .status()
        .expect("spawn coyote-sim");
    assert!(status.success());

    let output = inspect("prof")
        .arg(prof.with_extension("json"))
        .arg("--check")
        .output()
        .expect("spawn coyote-inspect prof");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("Phase tree (counter mode"), "{stdout}");
    assert!(stdout.contains("check: OK"), "{stdout}");

    // An unprofiled document fails the gate, and `--json` belongs to
    // `trace` only.
    let unprofiled = std::env::temp_dir().join("coyote-sim-tests/unprofiled.json");
    std::fs::write(&unprofiled, "{\"host_profile\": null}").expect("write document");
    let output = inspect("prof")
        .arg(&unprofiled)
        .arg("--check")
        .output()
        .expect("spawn coyote-inspect prof");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("not profiled"));
    let output = inspect("prof")
        .arg(prof.with_extension("json"))
        .arg("--json")
        .output()
        .expect("spawn coyote-inspect prof");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("--json"));
}

#[test]
fn unknown_flags_fail_with_usage_hint() {
    let output = Command::new(sim_binary())
        .arg("--frobnicate")
        .output()
        .expect("spawn coyote-sim");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--frobnicate"), "stderr: {stderr}");

    let output = inspect("trace")
        .args(["trace.prv", "--frobnicate"])
        .output()
        .expect("spawn coyote-inspect trace");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--frobnicate"), "stderr: {stderr}");
}

#[test]
fn inspect_trace_shows_idle_cores_and_emits_json() {
    // Core 0 does memory work; cores 1..3 exit immediately. The
    // breakdown must still print one row per header core.
    let path = write_temp_program(
        "idle.s",
        ".data
         x: .dword 7
         .text
         _start:
            csrr t0, mhartid
            bnez t0, done
            la t1, x
            ld t2, 0(t1)
         done:
            li a0, 0
            li a7, 93
            ecall",
    );
    let trace = std::env::temp_dir().join("coyote-sim-tests/idle-trace");
    let status = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "4"])
        .arg("--trace")
        .arg(&trace)
        .status()
        .expect("spawn coyote-sim");
    assert!(status.success());

    let output = inspect("trace")
        .arg(trace.with_extension("prv"))
        .output()
        .expect("spawn coyote-inspect trace");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    for core in 0..4 {
        assert!(
            stdout.contains(&format!("\n  {core:>4}  ")),
            "missing row for core {core}: {stdout}"
        );
    }

    let output = inspect("trace")
        .arg(trace.with_extension("prv"))
        .arg("--json")
        .output()
        .expect("spawn coyote-inspect trace --json");
    assert_eq!(output.status.code(), Some(0));
    let doc = coyote_telemetry::parse_json(&String::from_utf8_lossy(&output.stdout))
        .expect("valid JSON from --json");
    assert_eq!(
        doc.get("cores")
            .and_then(coyote_telemetry::JsonValue::as_u64),
        Some(4)
    );
    let per_core = doc
        .get("per_core")
        .and_then(|v| v.as_array())
        .expect("per_core array");
    assert_eq!(per_core.len(), 4);
}

#[test]
fn inspect_trace_summarizes_a_trace() {
    let path = write_temp_program(
        "traced.s",
        ".data
         x: .dword 7
         .text
         _start:
            la t0, x
            ld t1, 0(t0)
            addi t2, t1, 1
            li a0, 0
            li a7, 93
            ecall",
    );
    let trace = std::env::temp_dir().join("coyote-sim-tests/stats-trace");
    let status = Command::new(sim_binary())
        .arg(&path)
        .args(["--cores", "2"])
        .arg("--trace")
        .arg(&trace)
        .status()
        .expect("spawn coyote-sim");
    assert!(status.success());

    let output = inspect("trace")
        .arg(trace.with_extension("prv"))
        .output()
        .expect("spawn coyote-inspect trace");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("miss mix"), "{stdout}");
    assert!(stdout.contains("per-core time breakdown"), "{stdout}");
    assert!(stdout.contains("data load"), "{stdout}");
}
