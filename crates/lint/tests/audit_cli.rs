//! CLI-level tests for `coyote-audit --lint`: the machine-readable
//! `--format json` output shape is pinned here so downstream consumers
//! (CI annotators, editors) can rely on its keys.

use std::path::PathBuf;
use std::process::Command;

use coyote::{parse_json, JsonValue};

fn audit_binary() -> &'static str {
    env!("CARGO_BIN_EXE_coyote-audit")
}

/// Builds a throwaway repo root containing one model-crate source file
/// with known violations, and returns the root.
fn fixture_root(name: &str, source: &str) -> PathBuf {
    let root = std::env::temp_dir().join("coyote-audit-tests").join(name);
    let src = root.join("crates/mem/src");
    std::fs::create_dir_all(&src).expect("create fixture tree");
    std::fs::write(src.join("fixture.rs"), source).expect("write fixture");
    root
}

#[test]
fn format_json_emits_rule_file_line_snippet() {
    let root = fixture_root(
        "format-json",
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let output = Command::new(audit_binary())
        .args(["--lint", "--format", "json", "--root"])
        .arg(&root)
        .output()
        .expect("spawn coyote-audit");
    // Findings present: the gate fails (exit 1) but the JSON is valid.
    assert_eq!(output.status.code(), Some(1));
    let doc = parse_json(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON");

    assert!(doc.get("scanned").and_then(JsonValue::as_u64).is_some());
    assert!(doc
        .get("baseline_suppressed")
        .and_then(JsonValue::as_u64)
        .is_some());
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array");
    assert!(!findings.is_empty(), "wall-clock fixture must be flagged");
    for finding in findings {
        assert_eq!(
            finding.get("rule").and_then(|v| v.as_str()),
            Some("wall-clock")
        );
        let file = finding.get("file").and_then(|v| v.as_str()).expect("file");
        assert!(file.ends_with("fixture.rs"), "{file}");
        assert_eq!(finding.get("line").and_then(JsonValue::as_u64), Some(2));
        let snippet = finding
            .get("snippet")
            .and_then(|v| v.as_str())
            .expect("snippet key");
        assert!(snippet.contains("Instant::now"), "{snippet}");
        // The legacy key must NOT leak into the new shape.
        assert!(finding.get("text").is_none(), "legacy `text` key present");
    }
}

#[test]
fn legacy_json_flag_keeps_the_text_key() {
    let root = fixture_root(
        "legacy-json",
        "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let output = Command::new(audit_binary())
        .args(["--lint", "--json", "--root"])
        .arg(&root)
        .output()
        .expect("spawn coyote-audit");
    assert_eq!(output.status.code(), Some(1));
    let doc = parse_json(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON");
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array");
    assert!(!findings.is_empty());
    for finding in findings {
        assert!(finding.get("text").is_some(), "legacy shape keeps `text`");
        assert!(finding.get("snippet").is_none());
    }
}

#[test]
fn format_json_on_a_clean_tree_passes_with_empty_findings() {
    let root = fixture_root("clean-tree", "pub fn five() -> u64 {\n    5\n}\n");
    let output = Command::new(audit_binary())
        .args(["--lint", "--format", "json", "--root"])
        .arg(&root)
        .output()
        .expect("spawn coyote-audit");
    assert_eq!(output.status.code(), Some(0));
    let doc = parse_json(&String::from_utf8_lossy(&output.stdout)).expect("valid JSON");
    let findings = doc
        .get("findings")
        .and_then(|v| v.as_array())
        .expect("findings array");
    assert!(findings.is_empty());
}

#[test]
fn bad_format_and_misplaced_flags_are_usage_errors() {
    let output = Command::new(audit_binary())
        .args(["--lint", "--format", "yaml"])
        .output()
        .expect("spawn coyote-audit");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("yaml"));

    // --format json is a --lint option.
    let output = Command::new(audit_binary())
        .args(["--race", "--config", "tiny", "--format", "json"])
        .output()
        .expect("spawn coyote-audit");
    assert_eq!(output.status.code(), Some(2));

    // The retired --race knobs are unknown arguments, not silent no-ops.
    for flag in ["--profile", "--status"] {
        let output = Command::new(audit_binary())
            .args(["--race", "--config", "tiny", flag])
            .output()
            .expect("spawn coyote-audit");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&output.stderr).contains("unknown argument"));
    }
}
