//! `coyote-sim`: run a RISC-V assembly file on the Coyote simulator.
//!
//! ```text
//! coyote-sim program.s [options]
//!
//!   --cores N            simulated cores (default 1)
//!   --cores-per-tile N   tile width (default 8)
//!   --banks-per-tile N   L2 banks per tile (default 4)
//!   --l2-private         tile-private L2 (default shared)
//!   --mapping page|set   bank mapping policy (default set)
//!   --noc-latency N      crossbar request/response latency
//!   --mesh WxH           use a 2D mesh NoC instead of the crossbar
//!   --prefetch N         L2 next-line prefetch degree (default 0)
//!   --interleave N       instructions per core per cycle (default 1)
//!   --max-cycles N       cycle budget (default 2e9)
//!   --trace FILE         write a Paraver trace to FILE(.prv/.pcf)
//!   --metrics-out FILE   write telemetry metrics to FILE(.json/.csv)
//!   --metrics-interval N time-series epoch length in cycles (default 10000)
//!   --top-k N            critical-PC attribution table size (default 32)
//!   --chrome-trace FILE  write a Chrome trace-event JSON (Perfetto-loadable)
//!   --prof-out FILE      profile the host side of the run and write
//!                        FILE.json (host_profile document) and
//!                        FILE.folded (flamegraph folded stacks)
//!   --prof-counters      with --prof-out: deterministic counter clock
//!                        instead of wall time
//!   --oracle             co-simulate a functional reference machine and
//!                        abort on the first architectural divergence
//!   --crash-out FILE     write a crash dump (flight-recorder tail, stalls,
//!                        MSHR occupancy) on deadlock, divergence, panic or
//!                        stop
//!   --stop-file FILE     stop gracefully when FILE appears: finish the
//!                        current cycle, write every requested artifact
//!                        up to it (metrics marked truncated), exit 130.
//!                        The crate forbids unsafe code, so there is no
//!                        signal handler; wrap runs with
//!                        `trap 'touch stop' INT` to map Ctrl-C here.
//! ```
//!
//! The program's console output (ecall 64) is printed; the process exit
//! code is the maximum hart exit code.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use coyote::{
    L2Sharing, MappingPolicy, NocModel, ProfMode, Report, RunError, SimConfig, Simulation,
};

/// Exit code of a graceful stop — distinct from hart exit codes (0..=127
/// by convention) and from the generic failure code.
const STOP_EXIT: i64 = 130;

struct Options {
    source: String,
    config: SimConfig,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    chrome_trace_path: Option<String>,
    prof_path: Option<String>,
    crash_path: Option<String>,
    stop_file: Option<String>,
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The parsed value of a numeric flag.
fn number<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr<Err: std::fmt::Display>,
{
    let text = value(args, flag)?;
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The value of an output-path flag; empty paths are rejected up front
/// rather than after the whole program has been simulated.
fn path_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    let path = value(args, flag)?;
    if path.trim().is_empty() {
        return Err(format!("{flag} needs a non-empty path"));
    }
    Ok(path)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut source = None;
    let mut builder = SimConfig::builder().cores(1);
    let mut trace_path = None;
    let mut metrics_path = None;
    let mut chrome_trace_path = None;
    let mut prof_path = None;
    let mut prof_counters = false;
    let mut mesh: Option<(usize, usize)> = None;
    let mut noc_latency: Option<u64> = None;
    let mut crash_path: Option<String> = None;
    let mut stop_file: Option<String> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cores" => builder = builder.cores(number(&mut args, "--cores")?),
            "--cores-per-tile" => {
                builder = builder.cores_per_tile(number(&mut args, "--cores-per-tile")?);
            }
            "--banks-per-tile" => {
                builder = builder.banks_per_tile(number(&mut args, "--banks-per-tile")?);
            }
            "--l2-private" => builder = builder.sharing(L2Sharing::Private),
            "--mapping" => {
                let policy = match value(&mut args, "--mapping")?.as_str() {
                    "page" => MappingPolicy::page_to_bank(),
                    "set" => MappingPolicy::SetInterleave,
                    other => return Err(format!("unknown mapping `{other}` (page|set)")),
                };
                builder = builder.mapping(policy);
            }
            "--noc-latency" => noc_latency = Some(number(&mut args, "--noc-latency")?),
            "--mesh" => {
                let spec = value(&mut args, "--mesh")?;
                let (w, h) = spec
                    .split_once('x')
                    .ok_or_else(|| format!("--mesh takes WxH, got `{spec}`"))?;
                mesh = Some((
                    w.parse().map_err(|e| format!("--mesh width: {e}"))?,
                    h.parse().map_err(|e| format!("--mesh height: {e}"))?,
                ));
            }
            "--prefetch" => builder = builder.prefetch_degree(number(&mut args, "--prefetch")?),
            "--interleave" => builder = builder.interleave(number(&mut args, "--interleave")?),
            "--max-cycles" => builder = builder.max_cycles(number(&mut args, "--max-cycles")?),
            "--trace" => {
                trace_path = Some(path_value(&mut args, "--trace")?);
                builder = builder.trace(true);
            }
            "--metrics-out" => {
                metrics_path = Some(path_value(&mut args, "--metrics-out")?);
                builder = builder.telemetry(true);
            }
            "--metrics-interval" => {
                builder = builder.metrics_interval(number(&mut args, "--metrics-interval")?);
            }
            "--top-k" => builder = builder.attribution_top_k(number(&mut args, "--top-k")?),
            "--chrome-trace" => {
                chrome_trace_path = Some(path_value(&mut args, "--chrome-trace")?);
                builder = builder.chrome_trace(true);
            }
            "--prof-out" => prof_path = Some(path_value(&mut args, "--prof-out")?),
            "--prof-counters" => prof_counters = true,
            "--oracle" => builder = builder.oracle(true),
            "--crash-out" => crash_path = Some(path_value(&mut args, "--crash-out")?),
            "--stop-file" => stop_file = Some(path_value(&mut args, "--stop-file")?),
            "--help" | "-h" => {
                println!("usage: coyote-sim <program.s> [options]");
                println!("  --cores N            simulated cores (default 1)");
                println!("  --cores-per-tile N   tile width (default 8)");
                println!("  --banks-per-tile N   L2 banks per tile (default 4)");
                println!("  --l2-private         tile-private L2 (default shared)");
                println!("  --mapping page|set   bank mapping policy (default set)");
                println!("  --noc-latency N      crossbar request/response latency");
                println!("  --mesh WxH           2D mesh NoC instead of the crossbar");
                println!("  --prefetch N         L2 next-line prefetch degree (default 0)");
                println!("  --interleave N       instructions per core per cycle (default 1)");
                println!("  --max-cycles N       cycle budget");
                println!("  --trace FILE         write a Paraver trace to FILE(.prv/.pcf)");
                println!("  --metrics-out FILE   write telemetry metrics to FILE(.json/.csv)");
                println!(
                    "  --metrics-interval N time-series epoch length in cycles (default 10000)"
                );
                println!("  --top-k N            critical-PC attribution table size (default 32)");
                println!("  --chrome-trace FILE  write a Chrome trace-event JSON (Perfetto)");
                println!("  --prof-out FILE      write host profile FILE.json + FILE.folded");
                println!("  --prof-counters      profile with the deterministic counter clock");
                println!("  --oracle             check against a functional reference machine");
                println!("  --crash-out FILE     crash dump on deadlock/divergence/panic/stop");
                println!("  --stop-file FILE     stop gracefully when FILE appears (exit 130)");
                std::process::exit(0);
            }
            other if source.is_none() && !other.starts_with('-') => {
                source = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    if prof_path.is_some() {
        builder = builder.profiling(if prof_counters {
            ProfMode::Counter
        } else {
            ProfMode::Wall
        });
    } else if prof_counters {
        return Err("--prof-counters requires --prof-out".to_owned());
    }

    if let Some((w, h)) = mesh {
        builder = builder.noc(NocModel::Mesh {
            width: w,
            height: h,
            hop_latency: noc_latency.unwrap_or(2),
            base_latency: 2,
        });
    } else if let Some(lat) = noc_latency {
        builder = builder.noc(NocModel::IdealCrossbar {
            request_latency: lat,
            response_latency: lat,
        });
    }

    Ok(Options {
        source: source.ok_or("no input file given (try --help)")?,
        config: builder.build().map_err(|e| e.to_string())?,
        trace_path,
        metrics_path,
        chrome_trace_path,
        prof_path,
        crash_path,
        stop_file,
    })
}

/// Writes `crash.json` if a crash path is configured; dump errors are
/// reported but never mask the original failure.
fn write_crash_dump(options: &Options, sim: &Simulation, reason: &str) {
    let Some(path) = &options.crash_path else {
        return;
    };
    let doc = sim.crash_json(reason);
    match std::fs::write(path, doc.to_string_pretty()) {
        Ok(()) => eprintln!("crash dump: {path}"),
        Err(e) => eprintln!("coyote-sim: crash dump {path}: {e}"),
    }
}

fn write_metrics(options: &Options, sim: &Simulation, report: &Report) -> Result<(), String> {
    if let Some(path) = &options.metrics_path {
        let base = std::path::Path::new(path);
        let json = base.with_extension("json");
        let csv = base.with_extension("csv");
        std::fs::write(&json, coyote::metrics_json(sim, report).to_string_pretty())
            .map_err(|e| format!("{}: {e}", json.display()))?;
        std::fs::write(&csv, coyote::metrics_csv(sim))
            .map_err(|e| format!("{}: {e}", csv.display()))?;
        eprintln!("metrics: {} (+ {})", json.display(), csv.display());
    }
    Ok(())
}

/// Creates `path`, streams an artifact into it through a buffer and
/// flushes; a failure at any of the three names the path.
fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    File::create(path)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            write(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run(options: &Options) -> Result<i64, String> {
    let text =
        std::fs::read_to_string(&options.source).map_err(|e| format!("{}: {e}", options.source))?;
    let program = coyote_asm::assemble(&text).map_err(|e| format!("{}: {e}", options.source))?;
    let mut sim = Simulation::new(options.config, &program).map_err(|e| e.to_string())?;

    if let Some(stop_path) = &options.stop_file {
        // A stop file present at launch stops the run after its first
        // cycle, whatever the watchdog's timing.
        let flag = Arc::new(AtomicBool::new(Path::new(stop_path).exists()));
        sim.set_stop_handle(Arc::clone(&flag));
        let path = stop_path.clone();
        // Watchdog: polls for the stop file and flips the stop token the
        // simulation checks each cycle. The thread is detached — it dies
        // with the process if the file never appears.
        std::thread::spawn(move || loop {
            if std::fs::metadata(&path).is_ok() {
                flag.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
    let result = match outcome {
        Ok(result) => result,
        Err(panic) => {
            write_crash_dump(options, &sim, "panic");
            std::panic::resume_unwind(panic);
        }
    };
    // A stopped run is written out like a finished one: the library
    // closed every plane at the stop cycle, so each requested artifact
    // is whole up to it.
    let (report, stopped) = match result {
        Ok(report) => (report, false),
        Err(RunError::Stopped { cycle }) => {
            eprintln!(
                "coyote-sim: stop requested; finished cycle {cycle}, writing partial results"
            );
            (sim.partial_report(), true)
        }
        Err(err) => {
            let reason = match &err {
                RunError::Deadlock { .. } => "deadlock",
                RunError::OracleDivergence(_) => "oracle_divergence",
                _ => "error",
            };
            write_crash_dump(options, &sim, reason);
            return Err(err.to_string());
        }
    };

    let console = report.console_string();
    if !stopped && !console.is_empty() {
        print!("{console}");
        if !console.ends_with('\n') {
            println!();
        }
    }
    eprintln!("{report}");

    if let Some(path) = &options.trace_path {
        let trace = sim.trace().expect("tracing was enabled");
        let base = std::path::Path::new(path);
        let prv = base.with_extension("prv");
        let pcf = base.with_extension("pcf");
        write_file(&prv, |out| trace.write_prv(out))?;
        write_file(&pcf, |out| trace.write_pcf(out))?;
        eprintln!("trace: {} (+ {})", prv.display(), pcf.display());
    }

    write_metrics(options, &sim, &report)?;

    if let Some(path) = &options.prof_path {
        let prof = sim.host_prof().expect("profiling was enabled");
        let base = std::path::Path::new(path);
        let json = base.with_extension("json");
        let folded = base.with_extension("folded");
        let doc = coyote::JsonValue::object()
            .with("schema_version", coyote::SCHEMA_VERSION)
            .with("host_profile", coyote::host_profile_json(&sim));
        std::fs::write(&json, doc.to_string_pretty())
            .map_err(|e| format!("{}: {e}", json.display()))?;
        std::fs::write(&folded, prof.folded()).map_err(|e| format!("{}: {e}", folded.display()))?;
        eprintln!("host profile: {} (+ {})", json.display(), folded.display());
    }

    if let Some(path) = &options.chrome_trace_path {
        write_file(Path::new(path), |out| {
            coyote::chrome_trace_json(&sim).write_pretty(out)
        })?;
        eprintln!("chrome trace: {path}");
        // Both record stores are capped; past the cap the timeline has
        // core-state slices only, and nothing in the file says so.
        let slices = sim
            .mem_telemetry()
            .map_or(0, coyote_mem::MemTelemetry::dropped_slices);
        let links = sim.attribution().dropped_links();
        if slices > 0 || links > 0 {
            eprintln!(
                "chrome trace: capped: dropped {slices} request slices (cap {}) and \
                 {links} stall links (cap {}); later requests and stall arrows are missing",
                coyote_mem::SLICE_CAP,
                coyote::attr::LINK_CAP,
            );
        }
    }

    if stopped {
        write_crash_dump(options, &sim, "stopped");
        return Ok(STOP_EXIT);
    }
    Ok(report
        .exit_codes()
        .map_or(-1, |codes| codes.into_iter().max().unwrap_or(0)))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("coyote-sim: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(code) => ExitCode::from((code & 0xff) as u8),
        Err(message) => {
            eprintln!("coyote-sim: {message}");
            ExitCode::FAILURE
        }
    }
}
