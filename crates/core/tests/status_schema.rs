//! Golden-file test pinning the status-snapshot JSON-lines schema.
//!
//! `tests/golden/status_schema.txt` lists the schema version and the
//! key paths `coyote-top` (and any external watcher) may rely on. If
//! this test fails you changed the externally visible status-line
//! shape: either restore the old shape, or bump
//! [`coyote::STATUS_SCHEMA_VERSION`] and regenerate the golden file to match
//! (and mention the break in DESIGN.md).

use std::path::PathBuf;

use coyote::{parse_json, JsonValue, SimConfig, Simulation, StatusEmitter};

/// Runs a small two-core kernel with a status stream attached and
/// returns the last emitted snapshot line, parsed.
fn last_snapshot(tag: &str) -> JsonValue {
    let program = coyote_asm::assemble(
        ".data
         buf: .zero 1024
         .text
         _start:
            csrr t0, mhartid
            slli t0, t0, 6
            la t1, buf
            add t1, t1, t0
            li t2, 4
         loop:
            ld t3, 0(t1)
            sd t3, 8(t1)
            addi t2, t2, -1
            bnez t2, loop
            li a0, 0
            li a7, 93
            ecall",
    )
    .expect("assemble");
    let config = SimConfig::builder().cores(2).build().expect("config");
    let mut sim = Simulation::new(config, &program).expect("create sim");
    let dir = std::env::temp_dir().join("coyote-status-schema");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Tests in this binary run on parallel threads: one file each.
    let path: PathBuf = dir.join(format!("{}-{tag}.jsonl", std::process::id()));
    let emitter = StatusEmitter::create(&path, 3_600_000).expect("emitter");
    sim.set_status(emitter);
    sim.run().expect("run completes");
    let text = std::fs::read_to_string(&path).expect("status file");
    let _ = std::fs::remove_file(&path);
    let line = text
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .expect("at least the final snapshot");
    parse_json(line).expect("snapshot line parses")
}

fn lookup<'a>(doc: &'a JsonValue, path: &str) -> Option<&'a JsonValue> {
    let mut value = doc;
    for part in path.split('.') {
        // Key paths under `cores` address the array's first element.
        if let Some(items) = value.as_array() {
            value = items.first()?;
        }
        value = value.get(part)?;
    }
    Some(value)
}

#[test]
fn status_schema_matches_golden_file() {
    let golden = include_str!("golden/status_schema.txt");
    let snap = last_snapshot("golden");

    let mut lines = golden.lines().filter(|l| !l.trim().is_empty());
    let version_line = lines.next().expect("golden file has a version line");
    let version: u64 = version_line
        .strip_prefix("schema_version=")
        .expect("first golden line is schema_version=N")
        .parse()
        .expect("numeric schema version");
    assert_eq!(
        coyote::STATUS_SCHEMA_VERSION,
        version,
        "STATUS_SCHEMA_VERSION changed; regenerate tests/golden/status_schema.txt"
    );
    assert_eq!(
        snap.get("schema_version").and_then(JsonValue::as_u64),
        Some(version)
    );

    // Every golden key path must exist in the snapshot line...
    for path in lines.clone() {
        assert!(
            lookup(&snap, path).is_some(),
            "status snapshot lost pinned key `{path}` — \
             bump STATUS_SCHEMA_VERSION and update the golden file"
        );
    }

    // ...and no new top-level keys may appear unpinned.
    let pinned_top: Vec<&str> = lines.filter(|l| !l.contains('.')).collect();
    assert_eq!(
        snap.keys().expect("snapshot is an object"),
        pinned_top,
        "top-level key set changed — bump STATUS_SCHEMA_VERSION and update the golden file"
    );
}

#[test]
fn final_snapshot_reflects_the_finished_run() {
    let snap = last_snapshot("final");
    // Both cores halted, so the final cut shows the end state.
    assert_eq!(snap.get("halted").and_then(JsonValue::as_u64), Some(2));
    let cores = snap
        .get("cores")
        .and_then(JsonValue::as_array)
        .expect("cores array");
    assert_eq!(cores.len(), 2);
    for core in cores {
        assert_eq!(
            core.get("state").and_then(JsonValue::as_str),
            Some("halted")
        );
        assert!(core.get("retired").and_then(JsonValue::as_u64).unwrap_or(0) > 0);
    }
}
