//! `coyote-bench`: machine-readable benchmark runner for the paper's
//! throughput figure.
//!
//! ```text
//! coyote-bench fig3 [options]
//!
//!   --quick              quick-scale problem sizes and core counts
//!   --weak               weak-scaling sweep (problem grows with cores)
//!   --cores A,B,C        restrict the sweep to these core counts
//!   --kernel matmul|spmv run only one kernel (default both)
//!   --json FILE          write the sweep as JSON rows + a host block
//! ```
//!
//! The JSON schema is `{schema, experiment, scale, host, rows,
//! host_profile}` with one row per measured point:
//! `{cores, kernel, instructions, cycles, wall_ns, mips,
//! block_hit_rate}`. The `host`
//! block records the machine the numbers came from; the MIPS column is
//! one wall-clock sample per point, so comparing two files is the
//! `benchmark/` harness's job (`compare`, repeated interleaved runs),
//! not this binary's. `host_profile` is one *extra* wall-profiled run
//! at the sweep's largest core count — per-phase share of host time,
//! fused-chunk p50/p99, abort-reason counts — kept out of the measured
//! rows so profiling overhead never touches the MIPS numbers.

use std::process::ExitCode;

use coyote::JsonValue;
use coyote_bench::fig3::{self, Fig3Row};
use coyote_bench::Scale;
use coyote_kernels::workload::Workload;

#[derive(Clone, Copy, PartialEq, Eq)]
enum KernelChoice {
    Matmul,
    Spmv,
    Both,
}

struct Options {
    scale: Scale,
    weak: bool,
    cores: Option<Vec<usize>>,
    kernel: KernelChoice,
    json_path: Option<String>,
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("fig3") => {}
        Some("--help" | "-h") | None => {
            print_help();
            std::process::exit(0);
        }
        Some(other) => return Err(format!("unknown experiment `{other}` (try fig3)")),
    }

    let mut options = Options {
        scale: Scale::Paper,
        weak: false,
        cores: None,
        kernel: KernelChoice::Both,
        json_path: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.scale = Scale::Quick,
            "--weak" => options.weak = true,
            "--cores" => {
                let list = value(&mut args, "--cores")?;
                let cores: Result<Vec<usize>, _> =
                    list.split(',').map(str::trim).map(str::parse).collect();
                options.cores = Some(cores.map_err(|e| format!("--cores: {e}"))?);
            }
            "--kernel" => {
                options.kernel = match value(&mut args, "--kernel")?.as_str() {
                    "matmul" => KernelChoice::Matmul,
                    "spmv" => KernelChoice::Spmv,
                    "both" => KernelChoice::Both,
                    other => return Err(format!("unknown kernel `{other}` (matmul|spmv|both)")),
                };
            }
            "--json" => options.json_path = Some(value(&mut args, "--json")?),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

fn print_help() {
    println!("usage: coyote-bench fig3 [options]");
    println!("  --quick              quick-scale problem sizes and core counts");
    println!("  --weak               weak-scaling sweep (problem grows with cores)");
    println!("  --cores A,B,C        restrict the sweep to these core counts");
    println!("  --kernel matmul|spmv run only one kernel (default both)");
    println!("  --json FILE          write the sweep as JSON rows + a host block");
}

fn sweep(options: &Options) -> Vec<Fig3Row> {
    let counts: Vec<usize> = match &options.cores {
        Some(list) => list.clone(),
        None => fig3::core_counts(options.scale),
    };
    let mut rows = Vec::new();
    for &cores in &counts {
        let (matmul, spmv);
        let mut kernels: Vec<&dyn Workload> = Vec::new();
        if options.weak {
            let (rows_per_core, n, spmv_rows_per_core, spmv_cols) = match options.scale {
                Scale::Quick => (2usize, 24usize, 16usize, 128usize),
                Scale::Paper => (2, 96, 32, 1024),
            };
            matmul = coyote_kernels::MatmulScalar::with_rows(rows_per_core * cores, n, 1003);
            spmv =
                coyote_kernels::SpmvScalar::new(spmv_rows_per_core * cores, spmv_cols, 0.04, 1004);
        } else {
            matmul = fig3::matmul_for(options.scale);
            spmv = fig3::spmv_for(options.scale);
        }
        if options.kernel != KernelChoice::Spmv {
            kernels.push(&matmul);
        }
        if options.kernel != KernelChoice::Matmul {
            kernels.push(&spmv);
        }
        for kernel in kernels {
            let row = fig3::measure(kernel, cores);
            eprintln!(
                "fig3: cores={:3} kernel={:6} instructions={:>12} cycles={:>12} wall={:8.1}ms mips={:.3} block_hit={:.3}",
                row.cores,
                row.kernel,
                row.instructions,
                row.cycles,
                row.wall.as_secs_f64() * 1e3,
                row.mips,
                row.block_hit_rate
            );
            rows.push(row);
        }
    }
    rows
}

fn scale_name(options: &Options) -> &'static str {
    match (options.scale, options.weak) {
        (Scale::Quick, false) => "quick",
        (Scale::Quick, true) => "quick-weak",
        (Scale::Paper, false) => "paper",
        (Scale::Paper, true) => "paper-weak",
    }
}

fn host_block() -> JsonValue {
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    JsonValue::object()
        .with("threads", threads)
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with(
            "opt",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
}

/// The host-profile summary attached to the JSON export: one extra
/// wall-profiled run of the sweep's first selected kernel at its
/// largest core count. Separate from `sweep()` so the measured MIPS
/// rows never carry profiling overhead.
fn profile_block(options: &Options, rows: &[Fig3Row]) -> JsonValue {
    let Some(cores) = rows.iter().map(|r| r.cores).max() else {
        return JsonValue::Null;
    };
    if options.kernel == KernelChoice::Spmv {
        let spmv = fig3::spmv_for(options.scale);
        fig3::profile_summary(&spmv, cores)
    } else {
        let matmul = fig3::matmul_for(options.scale);
        fig3::profile_summary(&matmul, cores)
    }
}

fn rows_json(options: &Options, rows: &[Fig3Row], host_profile: JsonValue) -> JsonValue {
    let row_values: Vec<JsonValue> = rows
        .iter()
        .map(|row| {
            JsonValue::object()
                .with("cores", row.cores)
                .with("kernel", row.kernel)
                .with("instructions", row.instructions)
                .with("cycles", row.cycles)
                .with(
                    "wall_ns",
                    u64::try_from(row.wall.as_nanos()).unwrap_or(u64::MAX),
                )
                .with("mips", row.mips)
                .with("block_hit_rate", row.block_hit_rate)
        })
        .collect();
    JsonValue::object()
        .with("schema", 2u64)
        .with("experiment", "fig3")
        .with("scale", scale_name(options))
        .with("host", host_block())
        .with("rows", row_values)
        .with("host_profile", host_profile)
}

fn run(options: &Options) -> Result<(), String> {
    let rows = sweep(options);
    println!("{}", fig3::table(&rows));

    if let Some(path) = &options.json_path {
        eprintln!("fig3: profiling one extra run for the host_profile block");
        let json = rows_json(options, &rows, profile_block(options, &rows));
        std::fs::write(path, format!("{}\n", json.to_string_pretty()))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("fig3: wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|options| run(&options)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("coyote-bench: {message}");
            ExitCode::FAILURE
        }
    }
}
