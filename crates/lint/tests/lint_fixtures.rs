//! Fixture tests: one known-bad snippet per rule that must be flagged,
//! and one clean twin that must pass — plus the suppression paths
//! (in-source `audit:allow` and the baseline file).

use std::collections::BTreeSet;

use coyote_lint::lint::{apply_baseline, baseline_key, scan_file, Finding};

/// Scans a fixture as if it lived in a model crate's library source.
fn scan_fixture(source: &str) -> Vec<Finding> {
    scan_file("crates/mem/src/fixture.rs", source)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn hashmap_iter_flagged_and_clean_twin_passes() {
    let bad = scan_fixture(include_str!("fixtures/hashmap_iter_bad.rs"));
    assert!(
        rules(&bad).contains(&"hashmap-iter"),
        "expected hashmap-iter in {bad:?}"
    );
    // Both the local `per_line` and the `counts` parameter iterate.
    assert!(bad.iter().filter(|f| f.rule == "hashmap-iter").count() >= 2);
    let clean = scan_fixture(include_str!("fixtures/hashmap_iter_clean.rs"));
    assert!(clean.is_empty(), "clean twin flagged: {clean:?}");
}

#[test]
fn hashmap_iter_only_applies_to_model_crates() {
    let outside = scan_file(
        "crates/asm/src/fixture.rs",
        include_str!("fixtures/hashmap_iter_bad.rs"),
    );
    assert!(!rules(&outside).contains(&"hashmap-iter"));
}

#[test]
fn wall_clock_flagged_and_clean_twin_passes() {
    let bad = scan_fixture(include_str!("fixtures/wall_clock_bad.rs"));
    assert!(rules(&bad).contains(&"wall-clock"), "{bad:?}");
    let clean = scan_fixture(include_str!("fixtures/wall_clock_clean.rs"));
    assert!(clean.is_empty(), "clean twin flagged: {clean:?}");
}

#[test]
fn wall_clock_exception_is_path_pinned_to_the_hostprof_module() {
    // The one allowlisted path (the host profiler) may read the clock
    // with no `audit:allow` comment at all...
    let pinned = scan_file(
        "crates/telemetry/src/hostprof.rs",
        include_str!("fixtures/wall_clock_bad.rs"),
    );
    assert!(
        !rules(&pinned).contains(&"wall-clock"),
        "hostprof.rs must be exempt: {pinned:?}"
    );
    // ...while the identical code anywhere else — even elsewhere in
    // the telemetry crate, or in the orchestrator — still fires:
    // `hostprof.rs` is the whole exception list.
    for path in [
        "crates/telemetry/src/live.rs",
        "crates/telemetry/src/hist.rs",
        "crates/telemetry/src/lib.rs",
        "crates/core/src/sim.rs",
        "crates/core/src/flight.rs",
        "crates/mem/src/hierarchy.rs",
    ] {
        let elsewhere = scan_file(path, include_str!("fixtures/wall_clock_bad.rs"));
        assert!(
            rules(&elsewhere).contains(&"wall-clock"),
            "{path} must not inherit the wall-clock exception: {elsewhere:?}"
        );
    }
}

#[test]
fn lossy_cast_flagged_and_clean_twin_passes() {
    let bad = scan_fixture(include_str!("fixtures/lossy_cast_bad.rs"));
    assert_eq!(
        bad.iter().filter(|f| f.rule == "lossy-cast").count(),
        2,
        "{bad:?}"
    );
    let clean = scan_fixture(include_str!("fixtures/lossy_cast_clean.rs"));
    assert!(clean.is_empty(), "clean twin flagged: {clean:?}");
}

#[test]
fn lib_unwrap_flagged_and_clean_twin_passes() {
    let bad = scan_fixture(include_str!("fixtures/lib_unwrap_bad.rs"));
    assert!(rules(&bad).contains(&"lib-unwrap"), "{bad:?}");
    // Clean twin: typed error, documented expect, unwrap inside
    // #[cfg(test)] — none flagged.
    let clean = scan_fixture(include_str!("fixtures/lib_unwrap_clean.rs"));
    assert!(clean.is_empty(), "clean twin flagged: {clean:?}");
}

#[test]
fn lib_unwrap_not_applied_to_bins() {
    let bin = scan_file(
        "crates/mem/src/bin/tool.rs",
        include_str!("fixtures/lib_unwrap_bad.rs"),
    );
    assert!(!rules(&bin).contains(&"lib-unwrap"));
}

#[test]
fn predecode_bypass_flagged_in_the_core_step_file_only() {
    let bad = scan_file(
        "crates/iss/src/core.rs",
        include_str!("fixtures/predecode_bypass_bad.rs"),
    );
    assert!(
        bad.iter().filter(|f| f.rule == "predecode-bypass").count() >= 2,
        "expected the decode import and both call forms flagged: {bad:?}"
    );
    // The sanctioned slow path (`DecodedInst::from_word`) and the
    // `predecode(` loader must not trip the token-boundary check.
    let clean = scan_file(
        "crates/iss/src/core.rs",
        include_str!("fixtures/predecode_bypass_clean.rs"),
    );
    assert!(
        !rules(&clean).contains(&"predecode-bypass"),
        "clean twin flagged: {clean:?}"
    );
    // Decoding is fine everywhere else — the rule pins only the hot
    // step path.
    let elsewhere = scan_file(
        "crates/iss/src/exec.rs",
        include_str!("fixtures/predecode_bypass_bad.rs"),
    );
    assert!(!rules(&elsewhere).contains(&"predecode-bypass"));
}

#[test]
fn predecode_bypass_pins_the_superblock_dispatch_file() {
    // Run validation that re-decodes words bypasses the predecoded
    // table *and* the fusion boundary checks — pinned like core.rs.
    let bad = scan_file(
        "crates/iss/src/superblock.rs",
        include_str!("fixtures/superblock_bypass_bad.rs"),
    );
    assert!(
        bad.iter().filter(|f| f.rule == "predecode-bypass").count() >= 2,
        "expected the decode import and both call forms flagged: {bad:?}"
    );
    // The sanctioned shape — walking `DecodedText` slots and fuse
    // plans, ending the run at a hole — must stay clean.
    let clean = scan_file(
        "crates/iss/src/superblock.rs",
        include_str!("fixtures/superblock_bypass_clean.rs"),
    );
    assert!(
        !rules(&clean).contains(&"predecode-bypass"),
        "clean twin flagged: {clean:?}"
    );
    // The static planner (crates/isa) legitimately inspects decoded
    // micro-ops it is handed; only the dispatch file is pinned.
    let planner = scan_file(
        "crates/isa/src/superblock.rs",
        include_str!("fixtures/superblock_bypass_bad.rs"),
    );
    assert!(!rules(&planner).contains(&"predecode-bypass"));
}

#[test]
fn forbid_unsafe_flagged_on_crate_roots_only() {
    let bad = scan_file(
        "crates/mem/src/lib.rs",
        include_str!("fixtures/forbid_unsafe_bad.rs"),
    );
    assert_eq!(rules(&bad), vec!["forbid-unsafe"]);
    let clean = scan_file(
        "crates/mem/src/lib.rs",
        include_str!("fixtures/forbid_unsafe_clean.rs"),
    );
    assert!(clean.is_empty(), "clean twin flagged: {clean:?}");
    // Non-root files are not required to carry the attribute.
    let non_root = scan_file(
        "crates/mem/src/other.rs",
        include_str!("fixtures/forbid_unsafe_bad.rs"),
    );
    assert!(non_root.is_empty());
}

#[test]
fn audit_allow_suppresses_on_line_and_from_comment_block_above() {
    let same_line = "fn f(v: Option<u8>) -> u8 { v.unwrap() } // audit:allow(lib-unwrap)\n";
    assert!(scan_fixture(same_line).is_empty());

    let block_above = "\
// audit:allow(lib-unwrap): the caller checked is_some() and this
// multi-line justification carries down to the code line.
fn f(v: Option<u8>) -> u8 { v.unwrap() }
";
    assert!(scan_fixture(block_above).is_empty());

    // The directive names a *different* rule: no suppression.
    let wrong_rule = "// audit:allow(wall-clock)\nfn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    assert_eq!(rules(&scan_fixture(wrong_rule)), vec!["lib-unwrap"]);
}

#[test]
fn strings_and_comments_do_not_trip_rules() {
    let source = "\
pub fn describe() -> &'static str {
    // Instant::now() in a comment is fine.
    \"call Instant::now() and x.unwrap() for cycle as u32\"
}
";
    assert!(scan_fixture(source).is_empty());
}

#[test]
fn baseline_round_trips_through_keys() {
    let findings = scan_fixture(include_str!("fixtures/lossy_cast_bad.rs"));
    assert!(!findings.is_empty());
    let baseline: BTreeSet<String> = findings.iter().map(baseline_key).collect();
    let (kept, suppressed) = apply_baseline(findings.clone(), &baseline);
    assert!(kept.is_empty());
    assert_eq!(suppressed, findings.len());
}
