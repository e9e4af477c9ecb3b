//! Layer 1: the static determinism lint.
//!
//! A line/token scanner — deliberately not a full parser — that strips
//! string literals and comments, tracks `#[cfg(test)]` / `#[test]`
//! regions by brace depth, and then applies five project-specific
//! rules:
//!
//! | rule            | hazard                                                    |
//! |-----------------|-----------------------------------------------------------|
//! | `hashmap-iter`  | iterating a default-hasher `HashMap`/`HashSet` in a model crate (`mem`, `iss`, `core`, `telemetry`): iteration order is seeded per process and leaks into stats and JSON output |
//! | `wall-clock`    | `Instant::now` / `SystemTime` anywhere under `crates/` except the path-pinned host-profiler module ([`WALL_CLOCK_FILES`]): wall time is not reproducible |
//! | `lossy-cast`    | a narrowing `as` cast applied to a cycle/latency-named counter: silently truncates long runs |
//! | `lib-unwrap`    | bare `.unwrap()` in library (non-`bin`, non-test) code: panics instead of a typed error (`.expect("why")` documents the invariant and is permitted) |
//! | `forbid-unsafe` | crate root missing `#![forbid(unsafe_code)]`              |
//! | `predecode-bypass` | a `coyote_isa::decode` call in the core step path (`crates/iss/src/core.rs`) or the superblock dispatch path (`crates/iss/src/superblock.rs`): per-retirement decode silently reintroduces the hot-loop cost the predecoded micro-op table (`coyote_isa::predecode`) exists to eliminate, and in the superblock path it would dodge the fusion boundary checks; out-of-text PCs must go through `DecodedInst::from_word` |
//!
//! Suppression: a `// audit:allow(<rule>)` comment on the offending
//! line, or heading the comment block directly above it (the directive
//! carries across comment-only lines to the next code line), or a
//! matching entry in the checked-in baseline file (see
//! [`load_baseline`]). The baseline keys
//! findings by rule, file, and whitespace-normalized line *text* — not
//! line number — so unrelated churn does not invalidate it.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every rule the lint knows, in report order.
pub const RULES: &[&str] = &[
    "hashmap-iter",
    "wall-clock",
    "lossy-cast",
    "lib-unwrap",
    "forbid-unsafe",
    "predecode-bypass",
];

/// Files whose hot step path must dispatch on the predecoded micro-op
/// table instead of calling the decoder per retirement. The superblock
/// dispatch file is pinned alongside the core step path: run
/// validation and fused retirement must consume `DecodedText`
/// slots/plans, never re-decode words — a decoder call there would
/// silently bypass both the predecode table and the fusion boundary
/// checks built on top of it.
pub const PREDECODED_FILES: &[&str] = &["crates/iss/src/core.rs", "crates/iss/src/superblock.rs"];

/// The only file allowed to read the host wall clock. The host-side
/// self-profiler must time real phases, so the clock lives in exactly
/// this module, whose API cannot leak an `Instant` into simulated
/// state; everywhere else `Instant::now` / `SystemTime` still fires
/// the `wall-clock` rule. Path-pinned (not `audit:allow`-commented) so
/// moving or copying the code revokes the exception automatically.
pub const WALL_CLOCK_FILES: &[&str] = &["crates/telemetry/src/hostprof.rs"];

/// Crates whose iteration order feeds statistics or exported JSON.
pub const MODEL_CRATES: &[&str] = &["mem", "iss", "core", "telemetry"];

/// One rule violation at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (an entry of [`RULES`]).
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.text
        )
    }
}

/// The baseline key for a finding: `rule<TAB>file<TAB>normalized text`.
#[must_use]
pub fn baseline_key(finding: &Finding) -> String {
    format!(
        "{}\t{}\t{}",
        finding.rule,
        finding.file,
        normalize_ws(&finding.text)
    )
}

fn normalize_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Loads a baseline file: one [`baseline_key`] per line, `#` comments
/// and blank lines ignored. A missing file is an empty baseline.
///
/// # Errors
///
/// Propagates I/O errors other than "not found".
pub fn load_baseline(path: &Path) -> io::Result<BTreeSet<String>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    Ok(text
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect())
}

/// Drops findings whose [`baseline_key`] appears in `baseline`.
/// Returns the surviving findings and the number suppressed.
#[must_use]
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &BTreeSet<String>,
) -> (Vec<Finding>, usize) {
    let mut kept = Vec::new();
    let mut suppressed = 0usize;
    for finding in findings {
        if baseline.contains(&baseline_key(&finding)) {
            suppressed += 1;
        } else {
            kept.push(finding);
        }
    }
    (kept, suppressed)
}

/// Scans every `.rs` file under `crates/*/src` of `root`, in sorted
/// path order (the lint dogfoods the determinism it enforces).
///
/// # Errors
///
/// Propagates directory-walk and file-read failures.
pub fn scan_repo(root: &Path) -> io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|path| path.is_dir())
        .collect();
    crate_dirs.sort();

    let mut findings = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = fs::read_to_string(&file)?;
            findings.extend(scan_file(&rel, &source));
        }
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path.clone());
        }
    }
    Ok(())
}

/// One source line after preprocessing: executable text with string
/// literals blanked and comments removed, plus the comment text (for
/// `audit:allow` directives).
struct Prepared {
    code: String,
    comment: String,
}

/// Strips comments and literals across lines, tracking block-comment
/// nesting. String/char contents are replaced with spaces so column
/// positions stay meaningful; comment text is captured separately.
#[derive(Default)]
struct Stripper {
    block_depth: usize,
}

impl Stripper {
    #[allow(clippy::too_many_lines)]
    fn strip(&mut self, line: &str) -> Prepared {
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            if self.block_depth > 0 {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    self.block_depth -= 1;
                    i += 2;
                } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    self.block_depth += 1;
                    i += 2;
                } else {
                    comment.push(bytes[i]);
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    comment.extend(&bytes[i + 2..]);
                    break;
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    self.block_depth += 1;
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            '\\' => i += 2,
                            '"' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    code.push('"');
                }
                'r' if bytes.get(i + 1) == Some(&'"') || bytes.get(i + 1) == Some(&'#') => {
                    // Raw string: r"..." or r#"..."# (single level is
                    // all this codebase uses).
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        j += 1;
                        'raw: while j < bytes.len() {
                            if bytes[j] == '"' {
                                let mut k = j + 1;
                                let mut seen = 0;
                                while seen < hashes && bytes.get(k) == Some(&'#') {
                                    seen += 1;
                                    k += 1;
                                }
                                if seen == hashes {
                                    j = k;
                                    break 'raw;
                                }
                            }
                            j += 1;
                        }
                        code.push('"');
                        code.push('"');
                        i = j;
                    } else {
                        code.push('r');
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal ('x', '\n', '\u{..}') vs lifetime
                    // ('a in generics). A literal always closes with a
                    // quote nearby; a lifetime never does.
                    let close = if bytes.get(i + 1) == Some(&'\\') {
                        bytes[i + 2..]
                            .iter()
                            .position(|&c| c == '\'')
                            .map(|p| i + 2 + p)
                    } else {
                        (bytes.get(i + 2) == Some(&'\'')).then_some(i + 2)
                    };
                    if let Some(end) = close {
                        code.push('\'');
                        code.push('\'');
                        i = end + 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        Prepared { code, comment }
    }
}

/// Parses `audit:allow(rule-a, rule-b)` directives out of comment text.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("audit:allow(") {
        rest = &rest[pos + "audit:allow(".len()..];
        if let Some(end) = rest.find(')') {
            for rule in rest[..end].split(',') {
                allows.push(rule.trim().to_owned());
            }
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    allows
}

/// True when `c` can be part of a Rust identifier.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts the identifier ending at byte offset `end` (exclusive).
fn ident_before(code: &str, end: usize) -> Option<&str> {
    let head = &code[..end];
    let start = head
        .char_indices()
        .rev()
        .take_while(|&(_, c)| is_ident_char(c))
        .last()
        .map(|(idx, _)| idx)?;
    let ident = &head[start..];
    (!ident.is_empty() && !ident.chars().next().is_some_and(char::is_numeric)).then_some(ident)
}

/// Identifier names that denote cycle/latency counters for the
/// `lossy-cast` rule.
fn is_time_counter(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    ["cycle", "latency", "elapsed", "timestamp", "deadline"]
        .iter()
        .any(|needle| lower.contains(needle))
        || ["now", "time", "delta"].contains(&lower.as_str())
}

/// Narrowing cast targets for `lossy-cast`. `usize`/`u64` are wide
/// enough for any counter this simulator tracks.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Finds `ident as <narrow>` where `ident` names a time counter.
fn lossy_cast_hit(code: &str) -> bool {
    let mut rest = code;
    let mut offset = 0;
    while let Some(pos) = rest.find(" as ") {
        let abs = offset + pos;
        let after = &code[abs + 4..];
        let ty: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
        if NARROW_TYPES.contains(&ty.as_str()) {
            if let Some(ident) = ident_before(code, abs) {
                if is_time_counter(ident) {
                    return true;
                }
            }
        }
        rest = &rest[pos + 4..];
        offset = abs + 4;
    }
    false
}

/// Methods whose call on a hash map/set observes iteration order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".retain(",
];

/// Does `code` declare `ident` with a *default-hasher* std hash
/// collection? Custom-hasher aliases (`FastMap`, `AddrMap`) carry a
/// third type parameter and are deterministic by construction.
fn hash_decl(code: &str) -> Option<String> {
    for (marker, default_params) in [("HashMap", 2usize), ("HashSet", 1usize)] {
        let mut offset = 0;
        while let Some(pos) = code[offset..].find(marker) {
            let abs = offset + pos;
            offset = abs + marker.len();
            // Reject identifiers that merely contain the marker
            // (e.g. `FastHashMapish`).
            if abs > 0 && code[..abs].chars().next_back().is_some_and(is_ident_char) {
                continue;
            }
            let after = &code[abs + marker.len()..];
            let generic_ok = if let Some(rest) = after.strip_prefix('<') {
                // Count top-level commas: params == default_params
                // means the default (seeded) hasher.
                let mut depth = 1usize;
                let mut commas = 0usize;
                for c in rest.chars() {
                    match c {
                        '<' | '(' | '[' => depth += 1,
                        '>' | ')' | ']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ',' if depth == 1 => commas += 1,
                        _ => {}
                    }
                }
                commas + 1 == default_params
            } else {
                // `HashMap::new()` / `HashMap::default()` etc. always
                // produce the default hasher.
                after.starts_with("::")
            };
            if !generic_ok {
                continue;
            }
            // Find the identifier being declared: `let [mut] name:` or
            // `let [mut] name =` earlier on the line, or a struct
            // field `name: HashMap<..>`.
            let head = &code[..abs];
            if let Some(colon) = head.rfind(':') {
                let trimmed = head[..colon].trim_end();
                if let Some(ident) = ident_before(trimmed, trimmed.len()) {
                    return Some(ident.to_owned());
                }
            }
            if let Some(eq) = head.rfind('=') {
                let trimmed = head[..eq].trim_end();
                let trimmed = trimmed.strip_suffix(':').unwrap_or(trimmed).trim_end();
                if let Some(ident) = ident_before(trimmed, trimmed.len()) {
                    return Some(ident.to_owned());
                }
            }
        }
    }
    None
}

/// Does `code` iterate `ident` (declared as a default-hasher map/set)?
fn iterates_hazard(code: &str, ident: &str) -> bool {
    let mut offset = 0;
    while let Some(pos) = code[offset..].find(ident) {
        let abs = offset + pos;
        offset = abs + ident.len();
        let bounded_left = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| is_ident_char(c) || c == '.');
        if !bounded_left {
            continue;
        }
        let after = &code[abs + ident.len()..];
        if after.chars().next().is_some_and(is_ident_char) {
            continue;
        }
        if ITER_METHODS.iter().any(|m| after.starts_with(m)) {
            return true;
        }
        // `for (k, v) in &map` / `for k in map` — the ident appears
        // after ` in ` on a `for` line.
        if code.contains("for ") {
            if let Some(in_pos) = code.find(" in ") {
                if abs > in_pos {
                    return true;
                }
            }
        }
    }
    false
}

/// Whether `code` invokes the instruction decoder: a
/// `coyote_isa::decode` path (call or import) or a bare `decode(` call
/// at a token boundary. Suffixed identifiers such as `predecode(` and
/// the sanctioned slow path `DecodedInst::from_word(` do not match.
fn decoder_call_hit(code: &str) -> bool {
    if code.contains("coyote_isa::decode") || code.contains("decode::decode") {
        return true;
    }
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("decode(") {
        let abs = from + pos;
        let boundary = abs == 0 || {
            let c = bytes[abs - 1] as char;
            !(c.is_ascii_alphanumeric() || c == '_')
        };
        if boundary {
            return true;
        }
        from = abs + 1;
    }
    false
}

/// Scans one file. `repo_rel` is the `/`-separated repo-relative path
/// (used for crate classification and finding locations); `source` is
/// the file contents. Pure — fixture tests call this directly.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn scan_file(repo_rel: &str, source: &str) -> Vec<Finding> {
    let crate_name = repo_rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    let is_model = MODEL_CRATES.contains(&crate_name);
    let is_predecoded = PREDECODED_FILES.contains(&repo_rel);
    let is_wall_clock_exempt = WALL_CLOCK_FILES.contains(&repo_rel);
    let is_bin = repo_rel.contains("/bin/") || repo_rel.ends_with("/main.rs");
    let is_crate_root = repo_rel.ends_with("src/lib.rs");

    let lines: Vec<&str> = source.lines().collect();
    let mut stripper = Stripper::default();
    let mut prepared = Vec::with_capacity(lines.len());
    let mut allows: Vec<Vec<String>> = Vec::with_capacity(lines.len());
    let mut file_allows: BTreeSet<String> = BTreeSet::new();
    for line in &lines {
        let prep = stripper.strip(line);
        let line_allows = parse_allows(&prep.comment);
        for allow in &line_allows {
            file_allows.insert(allow.clone());
        }
        allows.push(line_allows);
        prepared.push(prep);
    }

    // Pass 1: default-hasher map/set declarations.
    let mut hazards: Vec<String> = Vec::new();
    for prep in &prepared {
        if let Some(ident) = hash_decl(&prep.code) {
            if !hazards.contains(&ident) {
                hazards.push(ident);
            }
        }
    }

    // A directive on a comment-only line suppresses the next code
    // line, so one `audit:allow` heads a multi-line justification
    // comment; a directive on a code line suppresses that line.
    let mut effective: Vec<Vec<String>> = vec![Vec::new(); prepared.len()];
    let mut carried: Vec<String> = Vec::new();
    for (idx, prep) in prepared.iter().enumerate() {
        let mut here = allows[idx].clone();
        let code_only_ws = prep.code.trim().is_empty();
        if code_only_ws {
            carried.append(&mut here);
        } else {
            here.append(&mut carried);
            effective[idx] = here;
        }
    }
    let allowed = |idx: usize, rule: &str| -> bool { effective[idx].iter().any(|a| a == rule) };

    // Pass 2: per-line rules, skipping test regions.
    let mut findings = Vec::new();
    let mut depth = 0i64;
    let mut pending_test_attr = false;
    let mut test_region_depth: Option<i64> = None;

    for (idx, prep) in prepared.iter().enumerate() {
        let code = prep.code.as_str();
        let trimmed_attr = code.trim();
        if trimmed_attr.starts_with("#[cfg(test)]") || trimmed_attr.starts_with("#[test]") {
            pending_test_attr = true;
        }

        let depth_before = depth;
        let mut opens_brace = false;
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opens_brace = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if pending_test_attr && opens_brace && test_region_depth.is_none() {
            test_region_depth = Some(depth_before);
            pending_test_attr = false;
        }
        let in_test = test_region_depth.is_some();
        if let Some(region) = test_region_depth {
            if depth <= region {
                test_region_depth = None;
            }
        }
        if in_test {
            continue;
        }

        let mut push = |rule: &'static str| {
            if !allowed(idx, rule) {
                findings.push(Finding {
                    rule,
                    file: repo_rel.to_owned(),
                    line: idx + 1,
                    text: lines[idx].trim().to_owned(),
                });
            }
        };

        if !is_wall_clock_exempt && (code.contains("Instant::now") || code.contains("SystemTime")) {
            push("wall-clock");
        }
        if !is_bin && code.contains(".unwrap()") {
            push("lib-unwrap");
        }
        if lossy_cast_hit(code) {
            push("lossy-cast");
        }
        if is_model && hazards.iter().any(|h| iterates_hazard(code, h)) {
            push("hashmap-iter");
        }
        if is_predecoded && decoder_call_hit(code) {
            push("predecode-bypass");
        }
    }

    if is_crate_root
        && !source.contains("#![forbid(unsafe_code)]")
        && !file_allows.contains("forbid-unsafe")
    {
        findings.push(Finding {
            rule: "forbid-unsafe",
            file: repo_rel.to_owned(),
            line: 1,
            text: "missing #![forbid(unsafe_code)] in crate root".to_owned(),
        });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_strings_and_comments() {
        let mut s = Stripper::default();
        let prep = s.strip(r#"let x = "Instant::now()"; // audit:allow(wall-clock)"#);
        assert!(!prep.code.contains("Instant"));
        assert_eq!(parse_allows(&prep.comment), vec!["wall-clock"]);
    }

    #[test]
    fn stripper_tracks_block_comments() {
        let mut s = Stripper::default();
        let a = s.strip("code(); /* begin");
        assert!(a.code.contains("code"));
        let b = s.strip("Instant::now() still comment */ after();");
        assert!(!b.code.contains("Instant"));
        assert!(b.code.contains("after"));
    }

    #[test]
    fn hash_decl_distinguishes_hashers() {
        assert_eq!(
            hash_decl("let mut per_line: HashMap<u64, usize> = HashMap::new();"),
            Some("per_line".to_owned())
        );
        assert_eq!(
            hash_decl("pages: HashMap<u64, V, BuildHasherDefault<H>>,"),
            None
        );
        assert_eq!(
            hash_decl("let s: HashSet<u64> = HashSet::new();"),
            Some("s".to_owned())
        );
    }

    #[test]
    fn lossy_cast_targets_time_counters_only() {
        assert!(lossy_cast_hit("let x = cycle as u32;"));
        assert!(lossy_cast_hit("push(latency as u16)"));
        assert!(!lossy_cast_hit("let imm = word as i32;"));
        assert!(!lossy_cast_hit("let wide = cycle as u64;"));
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn tail() { y.unwrap() }\n";
        let findings = scan_file("crates/mem/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn baseline_suppresses_by_text_not_line() {
        let finding = Finding {
            rule: "lib-unwrap",
            file: "crates/mem/src/x.rs".to_owned(),
            line: 42,
            text: "let v =   thing.unwrap();".to_owned(),
        };
        let mut baseline = BTreeSet::new();
        baseline.insert("lib-unwrap\tcrates/mem/src/x.rs\tlet v = thing.unwrap();".to_owned());
        let (kept, suppressed) = apply_baseline(vec![finding], &baseline);
        assert!(kept.is_empty());
        assert_eq!(suppressed, 1);
    }
}
