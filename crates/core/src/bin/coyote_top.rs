//! `coyote-top`: watch a running simulation.
//!
//! Tails the JSON-lines status stream written by
//! `coyote-sim --status-out FILE` and renders a live dashboard:
//! per-core utilization bars, the CPI stack each core spent the last
//! interval on, fused-path coverage, simulation speed and the ETA.
//!
//! ```text
//! coyote-top status.jsonl [options]
//!
//!   --once        render the latest snapshot once and exit
//!   --check       validate the stream instead of rendering: every
//!                 snapshot must carry the pinned keys and the sequence
//!                 numbers must increase strictly; exit 1 on violation
//!                 (used with --once as the CI smoke gate)
//!   --interval N  milliseconds between refreshes (default 1000)
//! ```
//!
//! The watcher is read-only and host-side: it never touches the
//! simulation, and the stream it reads is excluded from the determinism
//! digest, so watching a run cannot change its result.

use std::process::ExitCode;

use coyote::{parse_json, JsonValue};

/// Width of a utilization bar, in character cells.
const BAR_WIDTH: usize = 24;

/// Top-level keys every snapshot line must carry (pinned by the
/// status-schema golden test on the writer side).
const REQUIRED_KEYS: &[&str] = &[
    "schema_version",
    "seq",
    "cycle",
    "max_cycles",
    "retired",
    "elapsed_seconds",
    "host_mips",
    "cycles_per_sec",
    "eta_seconds",
    "block_hit_rate",
    "event_pops",
    "halted",
    "cores",
];

/// Keys every per-core entry must carry.
const REQUIRED_CORE_KEYS: &[&str] = &["core", "state", "pc", "retired", "cpi"];

/// The CPI-stack columns, in render order.
const CPI_KEYS: &[&str] = &["active", "dep_stall", "fetch_stall", "drained"];

struct Options {
    path: String,
    once: bool,
    check: bool,
    interval_ms: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut once = false;
    let mut check = false;
    let mut interval_ms = 1000u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--check" => check = true,
            "--interval" => {
                let v = args.next().ok_or("--interval needs a value")?;
                interval_ms = v.parse().map_err(|e| format!("--interval: {e}"))?;
                if interval_ms == 0 {
                    return Err("--interval must be at least 1 millisecond".to_owned());
                }
            }
            "--help" | "-h" => {
                println!("usage: coyote-top <status.jsonl> [options]");
                println!("  --once        render the latest snapshot once and exit");
                println!("  --check       validate the stream; exit 1 on violation");
                println!("  --interval N  milliseconds between refreshes (default 1000)");
                std::process::exit(0);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        path: path.ok_or("no status file given (try --help)")?,
        once,
        check,
        interval_ms,
    })
}

/// Reads and parses every non-empty line of the status file.
fn read_stream(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut snapshots = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            parse_json(line).map_err(|e| format!("{path}:{}: not valid JSON: {e}", i + 1))?;
        snapshots.push(value);
    }
    Ok(snapshots)
}

/// Validates the whole stream: pinned keys on every line, strictly
/// increasing sequence numbers, per-core entries complete.
fn check_stream(snapshots: &[JsonValue]) -> Result<(), String> {
    if snapshots.is_empty() {
        return Err("status stream is empty".to_owned());
    }
    let mut last_seq = None;
    for snap in snapshots {
        for key in REQUIRED_KEYS {
            if snap.get(key).is_none() {
                return Err(format!("snapshot missing pinned key `{key}`"));
            }
        }
        let seq = snap
            .get("seq")
            .and_then(JsonValue::as_u64)
            .ok_or("`seq` is not an unsigned integer")?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!(
                    "sequence numbers not increasing: {prev} then {seq}"
                ));
            }
        }
        last_seq = Some(seq);
        let cores = snap
            .get("cores")
            .and_then(JsonValue::as_array)
            .ok_or("`cores` is not an array")?;
        for core in cores {
            for key in REQUIRED_CORE_KEYS {
                if core.get(key).is_none() {
                    return Err(format!("core entry missing pinned key `{key}`"));
                }
            }
            let cpi = core.get("cpi").ok_or("core entry missing `cpi`")?;
            for key in CPI_KEYS {
                if cpi.get(key).and_then(JsonValue::as_u64).is_none() {
                    return Err(format!("cpi stack missing column `{key}`"));
                }
            }
        }
    }
    Ok(())
}

fn get_u64(snap: &JsonValue, key: &str) -> u64 {
    snap.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_f64(snap: &JsonValue, key: &str) -> f64 {
    snap.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// `#`-bar of `frac` (0..=1) over [`BAR_WIDTH`] cells.
fn bar(frac: f64) -> String {
    let filled = (frac.clamp(0.0, 1.0) * BAR_WIDTH as f64).round() as usize;
    let mut out = String::with_capacity(BAR_WIDTH);
    for i in 0..BAR_WIDTH {
        out.push(if i < filled { '#' } else { '.' });
    }
    out
}

fn format_eta(seconds: f64) -> String {
    if seconds <= 0.0 {
        return "--".to_owned();
    }
    let total = seconds.round() as u64;
    let (h, m, s) = (total / 3600, (total % 3600) / 60, total % 60);
    if h > 0 {
        format!("{h}h{m:02}m{s:02}s")
    } else if m > 0 {
        format!("{m}m{s:02}s")
    } else {
        format!("{s}s")
    }
}

/// Renders the dashboard for the latest snapshot.
fn render(snap: &JsonValue) -> String {
    let mut out = String::new();
    let cycle = get_u64(snap, "cycle");
    let max_cycles = get_u64(snap, "max_cycles");
    let progress = if max_cycles == 0 {
        0.0
    } else {
        cycle as f64 / max_cycles as f64
    };
    out.push_str(&format!(
        "coyote-top  seq {}  cycle {cycle} / {max_cycles} ({:.1}%)  elapsed {:.1}s\n",
        get_u64(snap, "seq"),
        progress * 100.0,
        get_f64(snap, "elapsed_seconds"),
    ));
    let cores_total = snap
        .get("cores")
        .and_then(JsonValue::as_array)
        .map_or(0, <[JsonValue]>::len) as u64;
    let done = cores_total > 0 && get_u64(snap, "halted") == cores_total;
    out.push_str(&format!(
        "speed {:.2} Mcycle/s  {:.2} MIPS  retired {}  eta {}\n",
        get_f64(snap, "cycles_per_sec") / 1.0e6,
        get_f64(snap, "host_mips"),
        get_u64(snap, "retired"),
        if done {
            "done".to_owned()
        } else {
            format_eta(get_f64(snap, "eta_seconds"))
        },
    ));
    out.push_str(&format!(
        "fused coverage {:.1}%  event pops {}  halted {}\n",
        get_f64(snap, "block_hit_rate") * 100.0,
        get_u64(snap, "event_pops"),
        get_u64(snap, "halted"),
    ));
    out.push('\n');
    let cores = snap
        .get("cores")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    for core in cores {
        let cpi = core.get("cpi");
        let stack: Vec<u64> = CPI_KEYS
            .iter()
            .map(|k| {
                cpi.and_then(|c| c.get(k))
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            })
            .collect();
        let total: u64 = stack.iter().sum();
        let active_frac = if total == 0 {
            0.0
        } else {
            stack[0] as f64 / total as f64
        };
        out.push_str(&format!(
            "core {:>3} [{}] {:>5.1}%  {:<13} pc {:#010x}  retired {:>10}",
            get_u64(core, "core"),
            bar(active_frac),
            active_frac * 100.0,
            core.get("state").and_then(JsonValue::as_str).unwrap_or("?"),
            get_u64(core, "pc"),
            get_u64(core, "retired"),
        ));
        if total > 0 {
            out.push_str("  cpi ");
            let parts: Vec<String> = CPI_KEYS
                .iter()
                .zip(&stack)
                .map(|(k, v)| format!("{k} {:.0}%", *v as f64 / total as f64 * 100.0))
                .collect();
            out.push_str(&parts.join(" / "));
        }
        out.push('\n');
    }
    out
}

fn run(options: &Options) -> Result<ExitCode, String> {
    loop {
        let snapshots = read_stream(&options.path)?;
        if options.check {
            check_stream(&snapshots)?;
        }
        match snapshots.last() {
            Some(last) => {
                if !options.once {
                    // Clear screen + home, like top(1).
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render(last));
            }
            None if options.once => return Err("status stream is empty".to_owned()),
            None => {}
        }
        if options.once {
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("coyote-top: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("coyote-top: {message}");
            ExitCode::FAILURE
        }
    }
}
