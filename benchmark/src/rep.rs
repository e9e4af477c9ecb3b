//! One repetition: `Workload::program` → `Simulation::new` →
//! `Workload::populate` → `Simulation::run` → exit codes →
//! `Workload::verify` (→ the four exporters when observed).
//!
//! Every rep builds a fresh `Simulation`, so the modelled caches start
//! empty and statistics count from cycle 0.

use std::hint::black_box;
use std::time::Instant;

use coyote::{
    chrome_trace_json, metrics_csv, metrics_json, Report, RunError, SimConfig, Simulation,
};
use coyote_kernels::Workload;

use crate::spans::Recorder;

/// Host seconds spent in each stage of one rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepTimes {
    /// `Workload::program` (assembly-text generation + assembly).
    pub program_s: f64,
    /// `Simulation::new` (predecode, plans, hierarchy build).
    pub new_s: f64,
    /// `Workload::populate`.
    pub populate_s: f64,
    /// The drive closure (`Simulation::run` unless stated otherwise).
    pub run_s: f64,
    /// Exit-code check + `Workload::verify`.
    pub verify_s: f64,
    /// `metrics_json` → pretty string, `metrics_csv`, `chrome_trace_json`
    /// → compact string, `Trace::write_prv` (all 0 when not observed).
    pub export_s: [f64; 4],
    /// Bytes the exporters produced.
    pub export_bytes: u64,
    /// The whole rep.
    pub total_s: f64,
}

impl RepTimes {
    /// Set-up time: everything before the run starts.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.program_s + self.new_s + self.populate_s
    }
}

// Span names of the rep's stages; the prefix is the layer (crate) name.
const SPAN_REP: &str = "rep";
const SPAN_PROGRAM: &str = "asm.program";
const SPAN_NEW: &str = "core.new";
const SPAN_POPULATE: &str = "kernels.populate";
const SPAN_RUN: &str = "core.run";
const SPAN_VERIFY: &str = "kernels.verify";
/// The four exporters, in `RepTimes::export_s` order.
const SPAN_EXPORT: [&str; 4] = [
    "telemetry.metrics_json",
    "telemetry.metrics_csv",
    "telemetry.chrome_json",
    "telemetry.prv",
];

/// What identifies a run's simulated outcome; every rep of a workload
/// must reproduce the first rep's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// `Report::cycles`.
    pub sim_cycles: u64,
    /// `Report::total_retired()`.
    pub retired: u64,
    /// `Simulation::determinism_digest()`.
    pub digest: u64,
}

/// A finished, verified rep.
#[derive(Debug)]
pub struct RepDone {
    /// Stage timings.
    pub times: RepTimes,
    /// The run's report.
    pub report: Report,
    /// The simulation after the run (for counters and the digest).
    pub sim: Simulation,
}

impl RepDone {
    /// The simulated outcome. Computed outside the rep's timed span: the
    /// digest hashes all of simulated memory.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            sim_cycles: self.report.cycles,
            retired: self.report.total_retired(),
            digest: self.sim.determinism_digest(),
        }
    }
}

/// Times `f`, recording a span around it when tracing.
fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let span = rec.as_mut().map(|r| r.enter(name));
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec.as_mut(), span) {
        r.exit(id);
    }
    (out, seconds)
}

/// Runs one rep of `workload` under `config`, driving the simulation with
/// `drive`. With a recorder, a span is recorded around every stage.
///
/// # Errors
///
/// Returns a description of the failure: assembly error, `RunError`,
/// non-zero exit code, or `Workload::verify` mismatch.
pub fn run_rep(
    workload: &dyn Workload,
    config: SimConfig,
    mut rec: Option<&mut Recorder>,
    drive: impl FnOnce(&mut Simulation) -> Result<Report, RunError>,
) -> Result<RepDone, String> {
    let rep_span = rec.as_mut().map(|r| r.enter(SPAN_REP));
    let rep_start = Instant::now();
    let mut times = RepTimes::default();
    let outcome = run_stages(workload, config, &mut rec, drive, &mut times);
    times.total_s = rep_start.elapsed().as_secs_f64();
    if let (Some(r), Some(id)) = (rec.as_mut(), rep_span) {
        r.exit(id);
    }
    outcome.map(|(report, sim)| RepDone { times, report, sim })
}

fn run_stages(
    workload: &dyn Workload,
    config: SimConfig,
    rec: &mut Option<&mut Recorder>,
    drive: impl FnOnce(&mut Simulation) -> Result<Report, RunError>,
    times: &mut RepTimes,
) -> Result<(Report, Simulation), String> {
    let (program, s) = timed(rec, SPAN_PROGRAM, || workload.program(config.cores));
    times.program_s = s;
    let program = program.map_err(|e| format!("assembly failed: {e}"))?;

    let (sim, s) = timed(rec, SPAN_NEW, || Simulation::new(config, &program));
    times.new_s = s;
    let mut sim = sim.map_err(|e| format!("simulation set-up failed: {e}"))?;

    let ((), s) = timed(rec, SPAN_POPULATE, || {
        workload.populate(&program, sim.memory_mut());
    });
    times.populate_s = s;

    let (report, s) = timed(rec, SPAN_RUN, || drive(&mut sim));
    times.run_s = s;
    let report = report.map_err(|e| format!("simulation failed: {e}"))?;

    let (verified, s) = timed(rec, SPAN_VERIFY, || match report.exit_codes() {
        Some(codes) if codes.iter().all(|&c| c == 0) => workload
            .verify(&program, sim.memory())
            .map_err(|e| format!("verification failed: {e}")),
        codes => Err(format!("non-zero or missing exit codes: {codes:?}")),
    });
    times.verify_s = s;
    verified?;

    if config.trace && config.telemetry && config.chrome_trace {
        let exports: [&dyn Fn() -> usize; 4] = [
            &|| black_box(metrics_json(&sim, &report).to_string_pretty()).len(),
            &|| black_box(metrics_csv(&sim)).len(),
            &|| black_box(chrome_trace_json(&sim).to_string_compact()).len(),
            &|| {
                let mut prv = Vec::new();
                sim.trace()
                    .expect("observed runs collect the Paraver trace")
                    .write_prv(&mut prv)
                    .expect("writing to a Vec cannot fail");
                black_box(prv).len()
            },
        ];
        for (i, export) in exports.iter().enumerate() {
            let (bytes, s) = timed(rec, SPAN_EXPORT[i], export);
            times.export_s[i] = s;
            times.export_bytes += bytes as u64;
        }
    }
    Ok((report, sim))
}
