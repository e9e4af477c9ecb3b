//! `coyote-audit`: the determinism gate.
//!
//! ```text
//! coyote-audit --lint [--root DIR] [--baseline FILE] [--json | --format json]
//! coyote-audit --race --config NAME [--perturb-seed N] [--json]
//! coyote-audit --race --all [--json]
//! ```
//!
//! `--lint` walks `crates/*/src` applying the static determinism rules
//! (see `coyote_lint::lint`); exit code 1 means new violations.
//! `--format json` emits machine-readable findings keyed
//! `rule`/`file`/`line`/`snippet` (the legacy `--json` shape keeps its
//! `text` key for existing consumers).
//! `--race` runs the named repro configuration twice — canonical and
//! schedule-perturbed — and diffs the results (see
//! `coyote_lint::race`); exit code 1 means a schedule race.

use std::path::PathBuf;
use std::process::ExitCode;

use coyote::JsonValue;
use coyote_lint::lint::{apply_baseline, load_baseline, scan_repo};
use coyote_lint::race::{self, CONFIG_NAMES};

const USAGE: &str =
    "usage: coyote-audit --lint [--root DIR] [--baseline FILE] [--json | --format json]
       coyote-audit --race (--config NAME | --all) [--perturb-seed N] [--json]";

struct Args {
    lint: bool,
    race: bool,
    root: PathBuf,
    baseline: Option<PathBuf>,
    configs: Vec<String>,
    perturb_seed: u64,
    json: bool,
    format_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        lint: false,
        race: false,
        root: PathBuf::from("."),
        baseline: None,
        configs: Vec::new(),
        perturb_seed: 0,
        json: false,
        format_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lint" => args.lint = true,
            "--race" => args.race = true,
            "--json" => args.json = true,
            "--format" => {
                let format = take(&mut it, "--format")?;
                match format.as_str() {
                    "json" => args.format_json = true,
                    "text" => args.format_json = false,
                    other => return Err(format!("--format: unknown format `{other}`\n{USAGE}")),
                }
            }
            "--root" => args.root = PathBuf::from(take(&mut it, "--root")?),
            "--baseline" => args.baseline = Some(PathBuf::from(take(&mut it, "--baseline")?)),
            "--config" => args.configs.push(take(&mut it, "--config")?),
            "--all" => args
                .configs
                .extend(CONFIG_NAMES.iter().map(|&n| n.to_owned())),
            "--perturb-seed" => {
                let raw = take(&mut it, "--perturb-seed")?;
                let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                args.perturb_seed = parsed.map_err(|e| format!("--perturb-seed: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.lint == args.race {
        return Err(format!("pick exactly one of --lint / --race\n{USAGE}"));
    }
    if args.race && args.configs.is_empty() {
        return Err(format!("--race needs --config NAME or --all\n{USAGE}"));
    }
    if args.format_json && !args.lint {
        return Err(format!("--format json applies to --lint only\n{USAGE}"));
    }
    Ok(args)
}

fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn run_lint(args: &Args) -> Result<bool, String> {
    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| args.root.join("audit.baseline"));
    let baseline = load_baseline(&baseline_path)
        .map_err(|e| format!("reading baseline {}: {e}", baseline_path.display()))?;
    let findings = scan_repo(&args.root).map_err(|e| format!("scanning crates/: {e}"))?;
    let total = findings.len();
    let (findings, suppressed) = apply_baseline(findings, &baseline);

    if args.json || args.format_json {
        // `--format json` is the documented machine interface: each
        // finding carries the offending source line under `snippet`.
        // The legacy `--json` shape keeps its `text` key so existing
        // consumers do not break.
        let snippet_key = if args.format_json { "snippet" } else { "text" };
        let items: Vec<JsonValue> = findings
            .iter()
            .map(|f| {
                JsonValue::object()
                    .with("rule", f.rule)
                    .with("file", f.file.clone())
                    .with("line", f.line)
                    .with(snippet_key, f.text.clone())
            })
            .collect();
        let doc = JsonValue::object()
            .with("scanned", total)
            .with("baseline_suppressed", suppressed)
            .with("findings", JsonValue::Array(items));
        println!("{}", doc.to_string_pretty());
    } else {
        for finding in &findings {
            println!("{finding}");
        }
        println!(
            "coyote-audit --lint: {} finding(s), {} baseline-suppressed",
            findings.len(),
            suppressed
        );
    }
    Ok(findings.is_empty())
}

fn run_race(args: &Args) -> Result<bool, String> {
    let mut clean = true;
    let mut reports = Vec::new();
    for name in &args.configs {
        let outcome = race::check(name, args.perturb_seed, false)?;
        if args.json {
            reports.push(outcome.to_json());
        } else if let Some(divergence) = &outcome.divergence {
            clean = false;
            println!(
                "coyote-audit --race: SCHEDULE RACE in config `{}` (seed {:#x})",
                outcome.config, outcome.perturb_seed
            );
            for observable in &divergence.observables {
                println!("  diverged: {observable}");
            }
            if let Some(cycle) = divergence.cycle {
                println!("  first divergent cycle: {cycle}");
            }
            if let Some(event) = &divergence.baseline_event {
                println!("  canonical schedule: {event}");
            }
            if let Some(event) = &divergence.perturbed_event {
                println!("  perturbed schedule: {event}");
            }
        } else {
            println!(
                "coyote-audit --race: config `{}` deterministic over {} cycles (seed {:#x})",
                outcome.config, outcome.cycles, outcome.perturb_seed
            );
        }
        if outcome.divergence.is_some() {
            clean = false;
        }
    }
    if args.json {
        println!("{}", JsonValue::Array(reports).to_string_pretty());
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("coyote-audit: {message}");
            return ExitCode::from(2);
        }
    };
    let result = if args.lint {
        run_lint(&args)
    } else {
        run_race(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("coyote-audit: {message}");
            ExitCode::from(2)
        }
    }
}
