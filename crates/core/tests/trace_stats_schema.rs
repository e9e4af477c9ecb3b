//! Golden-file test pinning the `coyote-inspect trace --json` schema.
//!
//! `tests/golden/trace_stats_schema.txt` lists the schema version and
//! the key paths downstream tooling may rely on, in the same format as
//! `metrics_schema.txt`: a `schema_version=N` line, then one key path
//! per line (non-dotted lines double as the exact top-level key set).

use std::io::Write;
use std::process::Command;

use coyote::JsonValue;

/// A hand-written 12-field trace: two cores, a state interval, and
/// misses from two distinct PCs (plus one synthetic writeback, PC 0).
const SAMPLE_PRV: &str = "#Paraver (01/01/2021 at 00:00):101:1(2):1:2(1:1,1:1)
1:1:1:1:1:0:40:1
1:1:1:1:1:40:90:2
2:1:1:1:1:10:42000001:2:42000002:4096:42000003:2147483652
2:1:1:1:1:35:42000001:2:42000002:4160:42000003:2147483652
2:2:1:2:1:50:42000001:1:42000002:8192:42000003:2147483700
2:2:1:2:1:80:42000001:4:42000002:8256:42000003:0
";

fn stats_json() -> JsonValue {
    let dir = std::env::temp_dir().join("coyote-trace-stats-golden");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // The two tests in this binary run on parallel threads: one file
    // each, or one truncates the sample while the other's child reads.
    let prv = dir.join(format!("sample-{:?}.prv", std::thread::current().id()));
    let mut file = std::fs::File::create(&prv).expect("create prv");
    file.write_all(SAMPLE_PRV.as_bytes()).expect("write prv");
    drop(file);

    let output = Command::new(env!("CARGO_BIN_EXE_coyote-inspect"))
        .arg("trace")
        .arg(&prv)
        .arg("--json")
        .output()
        .expect("spawn coyote-inspect trace");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    coyote::parse_json(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON")
}

fn lookup<'a>(doc: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    let mut value = doc;
    for part in path.split('.') {
        value = value.get(part)?;
    }
    Some(value)
}

#[test]
fn trace_stats_schema_matches_golden_file() {
    let golden = include_str!("golden/trace_stats_schema.txt");
    let doc = stats_json();

    let mut lines = golden.lines().filter(|l| !l.trim().is_empty());
    let version: u64 = lines
        .next()
        .expect("golden file has a version line")
        .strip_prefix("schema_version=")
        .expect("first golden line is schema_version=N")
        .parse()
        .expect("numeric schema version");
    assert_eq!(
        doc.get("schema_version").and_then(JsonValue::as_u64),
        Some(version),
        "schema version changed — regenerate tests/golden/trace_stats_schema.txt"
    );

    for path in lines.clone() {
        assert!(
            lookup(&doc, path).is_some(),
            "trace-stats document lost pinned key `{path}`"
        );
    }
    let pinned_top: Vec<&str> = lines.filter(|l| !l.contains('.')).collect();
    assert_eq!(
        doc.keys().expect("top-level object"),
        pinned_top,
        "top-level key set changed — update the golden file"
    );
}

#[test]
fn critical_pcs_rank_by_miss_count_and_skip_synthetic() {
    let doc = stats_json();
    let pcs = doc
        .get("hottest_pcs")
        .and_then(JsonValue::as_array)
        .expect("hottest_pcs array");
    // Two real PCs; the writeback's PC 0 must not be ranked.
    assert_eq!(pcs.len(), 2);
    assert_eq!(
        pcs[0].get("pc").and_then(JsonValue::as_str),
        Some("0x80000004")
    );
    assert_eq!(pcs[0].get("misses").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(
        pcs[1].get("pc").and_then(JsonValue::as_str),
        Some("0x80000034")
    );
}

/// Hostile `.prv` text is a `ParseTraceError` naming its line — not a
/// 2.4 TB allocation (the header's task count sized the per-core
/// table), a debug-build underflow or a wrapped index (task 0), or a
/// silently accepted record for a task the header never declared.
#[test]
fn hostile_prv_inputs_are_parse_errors_with_their_line() {
    let header = "#Paraver (01/01/2021 at 00:00):101:1(8):1:8(1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1)";
    for (name, text, line) in [
        (
            "unbounded task count",
            "#Paraver (01/01/2021 at 00:00):101:1(1):1:99999999999(1:1)\n".to_owned(),
            1,
        ),
        ("task 0", format!("{header}\n1:0:1:0:1:0:40:1\n"), 2),
        (
            "task 9 of 8",
            format!(
                "{header}\n1:1:1:1:1:0:40:1\n2:9:1:9:1:10:42000001:2:42000002:4096:42000003:4\n"
            ),
            3,
        ),
        (
            "interval ending before it starts",
            format!("{header}\n1:1:1:1:1:40:10:1\n"),
            2,
        ),
    ] {
        let err = coyote::Trace::parse_prv(&text).expect_err(name);
        assert_eq!(err.line, line, "{name}: {err}");
    }
    // The command reports it and exits 1 instead of aborting.
    let dir = std::env::temp_dir().join("coyote-trace-stats-golden");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let prv = dir.join("hostile.prv");
    std::fs::write(&prv, "#Paraver (x):1:1(1):1:99999999999(1:1)\n").expect("write prv");
    let output = Command::new(env!("CARGO_BIN_EXE_coyote-inspect"))
        .arg("trace")
        .arg(&prv)
        .output()
        .expect("spawn coyote-inspect trace");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("prv line 1"));
}
