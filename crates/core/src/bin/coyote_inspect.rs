//! `coyote-inspect`: read one run's artifacts after the fact.
//!
//! ```text
//! coyote-inspect explain <metrics.json> [--top N] [--check]
//! coyote-inspect prof    <profile.json> [--top N] [--check]
//! coyote-inspect trace   <trace.prv>    [--top N] [--json]
//! ```
//!
//! - `explain` — where the *simulated* cycles went. Reads a metrics JSON
//!   document written by `coyote-sim --metrics-out` (schema version 2 or
//!   later) and prints the causal stall attribution: one CPI-stack row
//!   per core, then the top-K critical-PC table with per-stage blame.
//!   `--check` requires every core's CPI stack to partition the run's
//!   cycles and the critical-PC table to be non-empty.
//! - `prof` — where the *host* time went. Reads a host-profile document
//!   (the standalone `FILE.json` of `coyote-sim --prof-out FILE`, or a
//!   full metrics document whose run was profiled) and renders the
//!   orchestrator phase tree, the fused-window abort-reason taxonomy and
//!   the chunk-/run-length distributions of the superblock fast path.
//!   `--check` requires a non-empty phase tree, a complete abort
//!   taxonomy and ordered chunk-length quantiles.
//! - `trace` — summarizes a Coyote-produced Paraver trace without the
//!   Paraver GUI: per-core state breakdowns, miss counts by kind, the
//!   hottest cache lines and the busiest 10%-of-runtime window — the
//!   first-order analyses the paper describes doing in Paraver
//!   ("identifying access patterns or analyzing how and when the L2
//!   banks, NoC, or memory are stressed"). `--json` emits the same
//!   summary as a JSON document (same writer as `--metrics-out`).
//!
//! A failed `--check` exits 1 (the CI smoke gates). Every report goes
//! through one buffered handle on stdout; a reader that hangs up early
//! (`coyote-inspect trace big.prv | head`) ends the run quietly, exit 0.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use coyote::trace::{STATE_DEP_STALL, STATE_FETCH_STALL, STATE_RUNNING};
use coyote::{JsonValue, Trace, SCHEMA_VERSION};
use coyote_iss::MissKind;

/// One subcommand: its name, what it reads, the mode flag it takes
/// besides `--top N`, and its entry point.
struct Subcommand {
    name: &'static str,
    input: &'static str,
    /// `--check` or `--json`.
    flag: &'static str,
    run: fn(&Options, &mut dyn Write) -> Result<(), Failure>,
}

/// Why a subcommand stopped early: a message for the user (a `String`),
/// or stdout went away (an [`io::Error`]).
type Failure = Box<dyn std::error::Error>;

const SUBCOMMANDS: [Subcommand; 3] = [
    Subcommand {
        name: "explain",
        input: "metrics.json",
        flag: "--check",
        run: explain,
    },
    Subcommand {
        name: "prof",
        input: "profile.json",
        flag: "--check",
        run: prof,
    },
    Subcommand {
        name: "trace",
        input: "trace.prv",
        flag: "--json",
        run: trace,
    },
];

struct Options {
    path: String,
    top: Option<usize>,
    /// Whether the subcommand's mode flag was given.
    flag: bool,
}

fn usage() -> String {
    let mut text = String::from("usage:");
    for sub in &SUBCOMMANDS {
        text.push_str(&format!(
            "\n  coyote-inspect {:<7} {:<14} [--top N] [{}]",
            sub.name,
            format!("<{}>", sub.input),
            sub.flag
        ));
    }
    text
}

/// The subcommand's options, or `None` when `--help` asks for the usage.
fn parse_args(
    sub: &Subcommand,
    mut args: impl Iterator<Item = String>,
) -> Result<Option<Options>, String> {
    let mut path = None;
    let mut top = None;
    let mut flag = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let v = args.next().ok_or("--top needs a value")?;
                top = Some(v.parse().map_err(|e| format!("--top: {e}"))?);
            }
            "--help" | "-h" => return Ok(None),
            other if other == sub.flag => flag = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(Options {
        path: path.ok_or_else(|| format!("no {} given (try --help)", sub.input))?,
        top,
        flag,
    }))
}

/// Reads and parses the JSON document at `path`.
fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    coyote::parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Walks `path` into the document, with a readable error on absence.
fn get<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("document missing `{}`", path.join(".")))?;
    }
    Ok(cur)
}

/// The unsigned integer at `path`.
fn u64_at(doc: &JsonValue, path: &[&str]) -> Result<u64, String> {
    get(doc, path)?
        .as_u64()
        .ok_or_else(|| format!("`{}` is not an unsigned integer", path.join(".")))
}

/// The array at `path`.
fn array_at<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a [JsonValue], String> {
    get(doc, path)?
        .as_array()
        .ok_or_else(|| format!("`{}` is not an array", path.join(".")))
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn explain(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let doc = read_json(&options.path)?;

    let schema = u64_at(&doc, &["schema_version"])?;
    if schema < 2 {
        return Err(format!(
            "schema_version {schema} predates stall attribution (need >= 2); \
             regenerate the metrics with a current coyote-sim"
        )
        .into());
    }
    let cycles = u64_at(&doc, &["report", "cycles"])?;
    let report_cores = array_at(&doc, &["report", "cores"])?;
    let per_core = array_at(&doc, &["attribution", "per_core"])?;
    let top_pcs = array_at(&doc, &["attribution", "top_pcs"])?;

    writeln!(
        out,
        "{}: {} cores, {} cycles",
        options.path,
        per_core.len(),
        cycles
    )?;
    writeln!(out)?;

    // Blame columns come from the document itself so the binary keeps
    // working if categories are added in a later schema revision.
    let blame_keys: Vec<String> = per_core
        .first()
        .and_then(|row| row.get("dep_stall"))
        .and_then(coyote::JsonValue::keys)
        .map(|keys| keys.iter().map(|&k| k.to_owned()).collect())
        .unwrap_or_default();

    writeln!(out, "Per-core CPI stack (% of {cycles} cycles)")?;
    let mut header = format!("{:>4} {:>8} {:>7}", "core", "cpi", "active");
    for key in &blame_keys {
        header.push_str(&format!(" {:>8}", format!("d:{key}")));
    }
    header.push_str(&format!(" {:>7} {:>7}", "fetch", "drained"));
    writeln!(out, "{header}")?;
    let mut partition_ok = true;
    for (idx, row) in per_core.iter().enumerate() {
        let core = u64_at(row, &["core"])?;
        let active = u64_at(row, &["active"])?;
        let fetch = u64_at(row, &["fetch_stall"])?;
        let drained = u64_at(row, &["drained"])?;
        let mut dep_cols = Vec::new();
        let mut dep_total = 0;
        for key in &blame_keys {
            let v = u64_at(row, &["dep_stall", key])?;
            dep_total += v;
            dep_cols.push(v);
        }
        let retired = report_cores
            .get(idx)
            .and_then(|c| c.get("retired"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let busy = cycles - drained.min(cycles);
        let cpi = if retired == 0 {
            f64::NAN
        } else {
            busy as f64 / retired as f64
        };
        let mut line = format!("{core:>4} {cpi:>8.3} {:>6.1}%", percent(active, cycles));
        for v in &dep_cols {
            line.push_str(&format!(" {:>7.1}%", percent(*v, cycles)));
        }
        line.push_str(&format!(
            " {:>6.1}% {:>6.1}%",
            percent(fetch, cycles),
            percent(drained, cycles)
        ));
        writeln!(out, "{line}")?;
        let total = active + dep_total + fetch + drained;
        if total != cycles {
            partition_ok = false;
            eprintln!(
                "coyote-inspect explain: core {core}: CPI stack sums to {total}, expected {cycles}"
            );
        }
    }

    writeln!(out)?;
    let shown = options.top.unwrap_or(top_pcs.len()).min(top_pcs.len());
    writeln!(
        out,
        "Top critical PCs ({} shown of {} exported; cycles = attributed stall time)",
        shown,
        top_pcs.len()
    )?;
    writeln!(
        out,
        "{:>4} {:>14} {:>10} {:>7} {:>9} {:>6}  blocked regs",
        "rank", "pc", "cycles", "count", "dominant", "error"
    )?;
    for (rank, entry) in top_pcs.iter().take(shown).enumerate() {
        let pc = get(entry, &["pc"])?.as_str().unwrap_or("?");
        let ecycles = u64_at(entry, &["cycles"])?;
        let count = u64_at(entry, &["count"])?;
        let error = u64_at(entry, &["error"])?;
        let dominant = get(entry, &["dominant"])?.as_str().unwrap_or("?");
        let regs = get(entry, &["regs"])?.as_str().unwrap_or("");
        writeln!(
            out,
            "{:>4} {pc:>14} {ecycles:>10} {count:>7} {dominant:>9} {error:>6}  {regs}",
            rank + 1
        )?;
    }

    if options.flag {
        if !partition_ok {
            return Err("CPI-stack partition check failed".into());
        }
        // A stopped run can end before any stall closes, so only a
        // finished run must have critical PCs.
        let truncated = get(&doc, &["report", "truncated"]).ok() == Some(&JsonValue::Bool(true));
        if top_pcs.is_empty() && !truncated {
            return Err(
                "critical-PC table is empty (was the run telemetry-enabled and stalling?)".into(),
            );
        }
        writeln!(out)?;
        writeln!(
            out,
            "check: OK ({} cores partition {} cycles; {} critical PCs)",
            per_core.len(),
            cycles,
            top_pcs.len()
        )?;
    }
    Ok(())
}

/// Milliseconds with sub-ms resolution for phase rows.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Recursively prints one phase row and its children. In wall mode the
/// magnitude column is time; in counter mode it is the entry count.
fn print_phase(
    out: &mut dyn Write,
    phase: &JsonValue,
    depth: usize,
    wall: bool,
    total: u64,
) -> Result<(), Failure> {
    let name = get(phase, &["name"])?.as_str().unwrap_or("?");
    let count = u64_at(phase, &["count"])?;
    let total_ns = u64_at(phase, &["total_ns"])?;
    let exclusive_ns = u64_at(phase, &["exclusive_ns"])?;
    let label = format!("{:indent$}{name}", "", indent = 2 * depth);
    if wall {
        writeln!(
            out,
            "{label:<28} {:>10.2}ms {:>6.1}% {:>10.2}ms {:>12}",
            ms(total_ns),
            percent(total_ns, total),
            ms(exclusive_ns),
            count
        )?;
    } else {
        writeln!(
            out,
            "{label:<28} {:>12} {:>6.1}%",
            count,
            percent(count, total)
        )?;
    }
    if let Some(children) = get(phase, &["children"])?.as_array() {
        for child in children {
            print_phase(out, child, depth + 1, wall, total)?;
        }
    }
    Ok(())
}

fn prof(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let doc = read_json(&options.path)?;

    let profile = get(&doc, &["host_profile"])?;
    if *profile == JsonValue::Null {
        return Err("this run was not profiled (host_profile is null); \
             re-run coyote-sim with --prof-out, or enable SimConfig profiling"
            .into());
    }
    let mode = get(profile, &["mode"])?.as_str().unwrap_or("?");
    let wall = mode == "wall";
    let phases = array_at(profile, &["phases"])?;
    let event_pops = u64_at(profile, &["event_pops"])?;

    // The denominator for phase shares: total wall nanoseconds (or
    // total entries in counter mode) across the top-level phases.
    let mut total = 0u64;
    for phase in phases {
        total += u64_at(phase, &[if wall { "total_ns" } else { "count" }])?;
    }

    writeln!(out, "{}: host profile ({mode} clock)", options.path)?;
    writeln!(out, "event-queue pops: {event_pops}")?;
    writeln!(out)?;
    if wall {
        writeln!(out, "Phase tree ({:.2}ms profiled)", ms(total))?;
        writeln!(
            out,
            "{:<28} {:>12} {:>6} {:>12} {:>12}",
            "phase", "total", "share", "exclusive", "entries"
        )?;
    } else {
        writeln!(
            out,
            "Phase tree (counter mode: entries, share of top-level entries)"
        )?;
        writeln!(out, "{:<28} {:>12} {:>6}", "phase", "entries", "share")?;
    }
    for phase in phases {
        print_phase(out, phase, 0, wall, total)?;
    }

    // Abort reasons, largest first.
    let abort = get(profile, &["abort_reasons"])?;
    let mut reasons: Vec<(String, u64)> = abort
        .keys()
        .unwrap_or_default()
        .iter()
        .map(|&key| {
            let v = abort.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            (key.to_owned(), v)
        })
        .collect();
    let total_aborts: u64 = reasons.iter().map(|(_, v)| v).sum();
    reasons.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let nonzero = reasons.iter().filter(|(_, v)| *v > 0).count();
    let shown = options.top.unwrap_or(nonzero).min(reasons.len());
    writeln!(out)?;
    writeln!(
        out,
        "Window aborts and validation stops ({total_aborts} total)"
    )?;
    for (reason, count) in reasons.iter().take(shown.max(1)) {
        writeln!(
            out,
            "  {reason:<22} {count:>12} {:>6.1}%",
            percent(*count, total_aborts)
        )?;
    }

    // Fused-chunk and run-length distributions.
    let dist = |what: &str| -> Result<[u64; 4], String> {
        let mut out = [0; 4];
        for (slot, key) in out.iter_mut().zip(["count", "p50", "p99", "max"]) {
            *slot = u64_at(profile, &[what, key])?;
        }
        Ok(out)
    };
    let [c_count, c_p50, c_p99, c_max] = dist("chunk_lengths")?;
    let [r_count, r_p50, r_p99, r_max] = dist("run_lengths")?;
    writeln!(out)?;
    writeln!(
        out,
        "Fused-window chunk lengths: count {c_count}  p50 {c_p50}  p99 {c_p99}  max {c_max}"
    )?;
    writeln!(
        out,
        "Armed run lengths:          count {r_count}  p50 {r_p50}  p99 {r_p99}  max {r_max}"
    )?;

    if options.flag {
        if phases.is_empty() {
            return Err("phase tree is empty".into());
        }
        for required in [
            "run_end",
            "too_short",
            "scoreboard_busy",
            "pending_fill",
            "line_not_resident",
            "base_written",
            "text_store",
            "cross_core_conflict",
            "text_invalidation",
        ] {
            if abort.get(required).is_none() {
                return Err(format!("abort taxonomy missing `{required}`").into());
            }
        }
        if c_p50 > c_p99 || c_p99 > c_max {
            return Err(format!(
                "chunk-length quantiles are unordered: p50 {c_p50}, p99 {c_p99}, max {c_max}"
            )
            .into());
        }
        writeln!(out)?;
        writeln!(
            out,
            "check: OK ({} top-level phases; {} abort reasons; {} chunks)",
            phases.len(),
            reasons.len(),
            c_count
        )?;
    }
    Ok(())
}

/// Per-core running / dep-stall / fetch-stall cycle totals.
struct CoreBreakdown {
    running: u64,
    dep: u64,
    fetch: u64,
}

impl CoreBreakdown {
    /// The denominator of this core's shares (never zero).
    fn total(&self) -> u64 {
        (self.running + self.dep + self.fetch).max(1)
    }
}

struct Summary {
    events: usize,
    horizon: u64,
    cores: Vec<CoreBreakdown>,
    miss_mix: Vec<(&'static str, usize)>,
    hottest: Vec<(u64, usize)>,
    /// Critical PCs: miss count per instruction address (top-N; PC 0 —
    /// synthetic traffic and pre-PC traces — is excluded).
    hottest_pcs: Vec<(u64, usize)>,
    /// (start, end, miss count) of the busiest 10%-of-horizon window.
    busiest: Option<(u64, u64, usize)>,
}

/// The `top` most frequent keys, hottest first. Ties break by key so
/// the order (and therefore the emitted JSON) is byte-stable across
/// runs.
fn hottest(keys: impl Iterator<Item = u64>, top: usize) -> Vec<(u64, usize)> {
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for key in keys {
        *counts.entry(key).or_default() += 1;
    }
    let mut hot: Vec<(u64, usize)> = counts.into_iter().collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot.truncate(top);
    hot
}

fn summarize(trace: &Trace, top: usize) -> Summary {
    let horizon = trace
        .events()
        .iter()
        .map(|e| e.cycle)
        .chain(trace.states().map(|s| s.end))
        .max()
        .unwrap_or(0)
        .max(1);

    // The header core count is authoritative: cores that never missed
    // or stalled must still show up (as all-zero rows) rather than
    // silently vanishing from the report. Record-derived indices are
    // kept as a lower bound for traces from older writers.
    let derived = trace
        .states()
        .map(|s| s.core as usize)
        .chain(trace.events().iter().map(|e| e.core))
        .max()
        .map_or(0, |c| c + 1);
    let core_count = trace.cores().max(derived);

    let cores = (0..core_count)
        .map(|core| {
            let mut breakdown = CoreBreakdown {
                running: 0,
                dep: 0,
                fetch: 0,
            };
            for interval in trace.states().filter(|s| s.core as usize == core) {
                let span = interval.end - interval.start;
                match interval.state {
                    STATE_RUNNING => breakdown.running += span,
                    STATE_DEP_STALL => breakdown.dep += span,
                    STATE_FETCH_STALL => breakdown.fetch += span,
                    _ => {}
                }
            }
            breakdown
        })
        .collect();

    let miss_mix = [
        (MissKind::Ifetch, "instruction_fetch"),
        (MissKind::Load, "data_load"),
        (MissKind::Store, "data_store"),
        (MissKind::Writeback, "writeback"),
    ]
    .into_iter()
    .map(|(kind, label)| {
        (
            label,
            trace.events().iter().filter(|e| e.kind == kind).count(),
        )
    })
    .collect();

    let window = (horizon / 10).max(1);
    let mut busiest = None;
    let mut best_count = 0usize;
    let mut cycles: Vec<u64> = trace.events().iter().map(|e| e.cycle).collect();
    cycles.sort_unstable();
    let mut lo = 0usize;
    for hi in 0..cycles.len() {
        while cycles[hi] - cycles[lo] > window {
            lo += 1;
        }
        if hi - lo + 1 > best_count {
            best_count = hi - lo + 1;
            busiest = Some((cycles[lo], cycles[lo] + window, hi - lo + 1));
        }
    }

    Summary {
        events: trace.len(),
        horizon,
        cores,
        miss_mix,
        hottest: hottest(trace.events().iter().map(|e| e.line_addr), top),
        // Keyed by the missing instruction's PC (the causal anchor
        // carried by 12-field traces; 0 in older 10-field traces).
        hottest_pcs: hottest(
            trace.events().iter().map(|e| e.pc).filter(|&pc| pc != 0),
            top,
        ),
        busiest,
    }
}

fn print_text(summary: &Summary, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "trace: {} events over {} cycles",
        summary.events, summary.horizon
    )?;

    if !summary.cores.is_empty() {
        writeln!(out, "\nper-core time breakdown:")?;
        writeln!(out, "  core  running%  dep-stall%  fetch-stall%")?;
        for (core, b) in summary.cores.iter().enumerate() {
            writeln!(
                out,
                "  {core:>4}  {:>7.1}%  {:>9.1}%  {:>11.1}%",
                percent(b.running, b.total()),
                percent(b.dep, b.total()),
                percent(b.fetch, b.total()),
            )?;
        }
    }

    writeln!(out, "\nmiss mix:")?;
    for (label, count) in &summary.miss_mix {
        writeln!(out, "  {:<18} {count}", label.replace('_', " "))?;
    }

    writeln!(out, "\nhottest lines:")?;
    for (addr, count) in &summary.hottest {
        writeln!(out, "  {addr:#012x}  {count} misses")?;
    }

    if !summary.hottest_pcs.is_empty() {
        writeln!(out, "\ncritical PCs (most misses issued):")?;
        for (pc, count) in &summary.hottest_pcs {
            writeln!(out, "  {pc:#012x}  {count} misses")?;
        }
    }

    if let Some((start, end, count)) = summary.busiest {
        writeln!(
            out,
            "\nbusiest window: {} misses in cycles {}..{} ({:.1}% of all misses in 10% of time)",
            count,
            start,
            end,
            percent(count as u64, summary.events.max(1) as u64)
        )?;
    }
    Ok(())
}

fn to_json(summary: &Summary) -> JsonValue {
    let per_core = summary
        .cores
        .iter()
        .enumerate()
        .map(|(core, b)| {
            let total = b.total() as f64;
            JsonValue::object()
                .with("core", core)
                .with("running_cycles", b.running)
                .with("dep_stall_cycles", b.dep)
                .with("fetch_stall_cycles", b.fetch)
                .with("running_frac", b.running as f64 / total)
                .with("dep_stall_frac", b.dep as f64 / total)
                .with("fetch_stall_frac", b.fetch as f64 / total)
        })
        .collect::<Vec<_>>();

    let mut miss_mix = JsonValue::object();
    for (label, count) in &summary.miss_mix {
        miss_mix = miss_mix.with(label, *count);
    }

    let ranked = |rows: &[(u64, usize)], key: &str| {
        rows.iter()
            .map(|(addr, count)| {
                JsonValue::object()
                    .with(key, format!("{addr:#x}"))
                    .with("misses", *count)
            })
            .collect::<Vec<_>>()
    };

    let busiest = summary
        .busiest
        .map_or(JsonValue::Null, |(start, end, count)| {
            JsonValue::object()
                .with("start", start)
                .with("end", end)
                .with("misses", count)
        });

    JsonValue::object()
        .with("schema_version", SCHEMA_VERSION)
        .with("events", summary.events)
        .with("horizon_cycles", summary.horizon)
        .with("cores", summary.cores.len())
        .with("per_core", per_core)
        .with("miss_mix", miss_mix)
        .with("hottest_lines", ranked(&summary.hottest, "line_addr"))
        .with("hottest_pcs", ranked(&summary.hottest_pcs, "pc"))
        .with("busiest_window", busiest)
}

fn trace(options: &Options, out: &mut dyn Write) -> Result<(), Failure> {
    let path = &options.path;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = Trace::parse_prv(&text).map_err(|e| format!("{path}: {e}"))?;
    let summary = summarize(&trace, options.top.unwrap_or(8));
    if options.flag {
        writeln!(out, "{}", to_json(&summary).to_string_pretty())?;
    } else {
        print_text(&summary, out)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let sub = SUBCOMMANDS.iter().find(|sub| sub.name == name);
    if sub.is_none() && name != "--help" && name != "-h" {
        if !name.is_empty() {
            eprintln!("coyote-inspect: unknown subcommand `{name}`");
        }
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let mut out = BufWriter::new(io::stdout().lock());
    let result = match sub.map(|sub| (sub, parse_args(sub, args))) {
        Some((sub, Ok(Some(options)))) => (sub.run)(&options, &mut out),
        Some((_, Err(message))) => Err(message.into()),
        // `--help`, bare or after a subcommand.
        _ => writeln!(out, "{}", usage()).map_err(Failure::from),
    };
    // Whatever the subcommand managed to say is said before its verdict.
    match result.and(out.flush().map_err(Failure::from)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => match failure.downcast_ref::<io::Error>() {
            Some(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
            _ => {
                eprintln!("coyote-inspect {name}: {failure}");
                ExitCode::FAILURE
            }
        },
    }
}
