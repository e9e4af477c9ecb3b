//! Command line: `run` (one workload or `--all`) and `compare`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use coyote_telemetry::{parse_json, JsonValue};

use crate::compare::{compare, Verdict};
use crate::endtoend::{self, Noise, RepLog};
use crate::spec::BenchSpec;
use crate::workloads::{self, Spec, WORKLOADS};
use crate::{layers, Metric};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// glibc malloc settings every measuring process runs under: no `mmap`
/// for large blocks and no trimming, so the heap's pages are faulted in
/// once, by the warm-up rep, and kept. Without them the observed workload
/// maps and unmaps 800 MiB every rep and spends a fifth of its time in
/// the kernel's page-fault path, whose cost on a shared host moved the
/// median rep by 11 % between back-to-back passes (3 % with them).
/// Other allocators ignore the variables.
const HEAP_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_MAX_", "0"),
    ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
];

/// Replaces this process with itself under `HEAP_ENV` unless it already
/// runs under it (malloc reads its environment once, at start). No
/// process is added; if the exec fails the pass runs as it is.
fn keep_heap() {
    if HEAP_ENV
        .iter()
        .all(|(key, value)| std::env::var(key).as_deref() == Ok(value))
    {
        return;
    }
    #[cfg(unix)]
    if let Ok(exe) = std::env::current_exe() {
        use std::os::unix::process::CommandExt;
        let error = Command::new(exe)
            .args(std::env::args_os().skip(1))
            .envs(HEAP_ENV)
            .exec();
        eprintln!(
            "benchmark: cannot re-execute under {HEAP_ENV:?} ({error}); heap pages are not kept"
        );
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage:
  benchmark [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  benchmark run --all [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
  benchmark compare A.json B.json [--spec BENCHMARK.json]

run prints every metric by name with its unit, checks every rep's output, and
ends with one JSON line {correct, attempted, failed, metrics}. --trace 0 takes
the end-to-end metrics with tracing off; --trace 1 takes the per-layer metrics
in a separate traced pass (run --all --trace 1 does both).";

/// Where result files go unless `--out` says otherwise.
#[must_use]
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Parsed `run` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--workload`, or `None` for `--all`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--quick`: small problem sizes, for smoke tests.
    pub quick: bool,
    /// `--out`.
    pub out: Option<PathBuf>,
}

/// Parses the arguments after `run`.
///
/// # Errors
///
/// Returns a message naming the offending argument.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--all" => all = true,
            "--quick" => parsed.quick = true,
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 0 and 3600".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_owned());
    }
    Ok(parsed)
}

/// `{name: form(metric)}` in reporting order.
fn metric_map(metrics: &[Metric], form: impl Fn(&Metric) -> JsonValue) -> JsonValue {
    metrics
        .iter()
        .fold(JsonValue::object(), |map, m| map.with(m.name, form(m)))
}

/// The result document of one pass over one workload.
fn pass_doc(
    spec: &Spec,
    args: &RunArgs,
    log: &RepLog,
    metrics: &[Metric],
    noise: Option<Noise>,
    reconciliation: JsonValue,
) -> JsonValue {
    let reference = log.reference.map_or(JsonValue::Null, |r| {
        JsonValue::object()
            .with("sim_cycles", r.sim_cycles)
            .with("retired", r.retired)
            .with("digest", format!("{:#018x}", r.digest))
    });
    let errors: Vec<JsonValue> = log.errors.iter().map(|e| e.as_str().into()).collect();
    JsonValue::object()
        .with("schema", 1u64)
        .with("workload", spec.name)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("quick", args.quick)
        .with("attempted", log.attempted)
        .with("failed", log.failed)
        .with("errors", errors)
        .with("reference", reference)
        .with("noise", noise.map_or(JsonValue::Null, |n| n.to_json()))
        .with("metrics", metric_map(metrics, Metric::to_json_full))
        .with("reconciliation", reconciliation)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one pass over one workload in this process, prints the metric
/// table and the contract's result line, and returns whether it was
/// correct.
///
/// # Errors
///
/// Returns an error for an unknown workload or an unwritable file.
pub fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })?;
    let workload = spec.build(args.seed, args.quick);
    let (log, metrics, noise, reconciliation) = if args.trace {
        let traced = layers::run(spec, workload.as_ref(), args.seed, args.seconds);
        let spans = JsonValue::object()
            .with("workload", spec.name)
            .with("seed", args.seed)
            .with("spans", traced.recorder.to_json());
        write_file(
            &results_dir().join(format!("trace-{}.json", spec.name)),
            &spans.to_string_compact(),
        )?;
        (traced.log, traced.metrics, None, traced.reconciliation)
    } else {
        let e2e = endtoend::run(spec, workload.as_ref(), args.seconds);
        (e2e.log, e2e.metrics, e2e.noise, JsonValue::Null)
    };
    let correct = log.failed == 0 && !metrics.is_empty();

    println!(
        "{} seed={} {}: {} passes, {} failed",
        spec.name,
        args.seed,
        if args.trace {
            "traced pass (per-layer)"
        } else {
            "end to end (tracing off)"
        },
        log.attempted,
        log.failed
    );
    for error in &log.errors {
        println!("  FAILED {error}");
    }
    for metric in &metrics {
        println!("{}", metric.row());
    }
    if let Some(noise) = noise {
        println!(
            "  noise guard: cpu_util={:.3} rep_iqr_frac={:.4}{}",
            noise.cpu_util,
            noise.rep_iqr_frac,
            if noise.noisy() {
                "  WARNING: noisy host, timings are not trustworthy"
            } else {
                ""
            }
        );
    }
    if !args.trace {
        println!("  timing model: unvalidated (no silicon or RTL reference); caches start empty every rep");
    }

    if let Some(out) = &args.out {
        let doc = pass_doc(spec, args, &log, &metrics, noise, reconciliation);
        write_file(out, &doc.to_string_pretty())?;
    }
    println!(
        "{}",
        JsonValue::object()
            .with("correct", correct)
            .with("attempted", log.attempted)
            .with("failed", log.failed)
            .with("metrics", metric_map(&metrics, Metric::to_json))
            .to_string_compact()
    );
    Ok(correct)
}

/// Re-executes this program once per workload (and once more per workload
/// for the traced pass), one process at a time, and merges the result
/// documents into `--out`.
///
/// # Errors
///
/// Returns an error when a child cannot be started or leaves no document.
pub fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let dir = results_dir();
    let mut correct = true;
    let mut passes: [Vec<JsonValue>; 2] = [Vec::new(), Vec::new()];
    for trace in [false, true] {
        if trace && !args.trace {
            continue;
        }
        for spec in &WORKLOADS {
            let part = dir.join(format!(
                "part-{}-{}.json",
                spec.name,
                if trace { "traced" } else { "e2e" }
            ));
            // A child that dies early must not leave an older document to be read.
            let _ = fs::remove_file(&part);
            let mut child = Command::new(&exe);
            child
                .args(["run", "--workload", spec.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .envs(HEAP_ENV)
                .arg("--out")
                .arg(&part);
            if args.quick {
                child.arg("--quick");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            correct &= status.success();
            let text = fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            passes[usize::from(trace)].push(parse_json(&text).map_err(|e| e.to_string())?);
        }
    }
    let [end_to_end, traced] = passes;
    let noisy = end_to_end
        .iter()
        .any(|doc| doc.get("noise").and_then(|n| n.get("noisy")) == Some(&JsonValue::Bool(true)));
    if noisy {
        println!("WARNING: at least one workload ran on a noisy host");
    }
    let out = args.out.clone().unwrap_or_else(|| dir.join("latest.json"));
    let doc = JsonValue::object()
        .with("schema", 1u64)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("quick", args.quick)
        .with("claim", JsonValue::Null)
        .with("noisy", noisy)
        .with("workloads", end_to_end)
        .with("traced", traced);
    write_file(&out, &doc.to_string_pretty())?;
    println!("wrote {}", out.display());
    Ok(correct)
}

/// `compare A.json B.json [--spec FILE]`: prints one row per (workload,
/// end-to-end metric) and returns whether no row is `worse`.
///
/// # Errors
///
/// Returns an error for bad arguments or unreadable files.
pub fn run_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes exactly two result files".to_owned());
    };
    let spec = BenchSpec::load(&spec_path)?;
    let load = |path: &String| -> Result<JsonValue, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&spec, &load(a)?, &load(b)?)?;
    println!("A = {a}\nB = {b}   (ratios are B/A)");
    for row in &rows {
        println!("{}", row.line());
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} worse",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Worse)
    );
    Ok(count(Verdict::Worse) == 0)
}

/// Dispatches on the first argument; `Ok(false)` means "ran, but the
/// result is bad" (exit code 1).
///
/// # Errors
///
/// Returns a usage or I/O error (exit code 2).
pub fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(first) => {
            let rest = if first == "run" { &args[1..] } else { args };
            let run_args = parse_run_args(rest)?;
            match &run_args.workload {
                Some(name) => {
                    keep_heap();
                    run_one(name, &run_args)
                }
                None => run_all(&run_args),
            }
        }
    }
}
