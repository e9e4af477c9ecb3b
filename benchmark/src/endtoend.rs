//! The end-to-end pass: closed loop, one client — rep *k+1* starts when
//! rep *k* has verified — with tracing off.

use std::time::Instant;

use coyote::{ProfMode, Simulation};
use coyote_kernels::Workload;
use coyote_telemetry::JsonValue;

use crate::procfs;
use crate::rep::{run_rep, Fingerprint, RepDone, RepTimes};
use crate::stats::Summary;
use crate::workloads::Spec;
use crate::Metric;

/// Timed reps every run takes, however short `--seconds` is.
pub const MIN_TIMED_REPS: usize = 2;

/// The noise guard trips below this CPU share …
const MIN_CPU_UTIL: f64 = 0.95;
/// … or above this IQR ÷ p50 of `core.run_s`.
const MAX_REP_IQR_FRAC: f64 = 0.10;

/// Whether the host was quiet enough for the timings to mean something.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// Process user+sys time ÷ wall time over the timed reps.
    pub cpu_util: f64,
    /// IQR ÷ p50 of the timed reps' run spans.
    pub rep_iqr_frac: f64,
}

impl Noise {
    /// Whether either guard tripped.
    #[must_use]
    pub fn noisy(&self) -> bool {
        self.cpu_util < MIN_CPU_UTIL || self.rep_iqr_frac > MAX_REP_IQR_FRAC
    }

    /// `{cpu_util, rep_iqr_frac, noisy}` as JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("cpu_util", self.cpu_util)
            .with("rep_iqr_frac", self.rep_iqr_frac)
            .with("noisy", self.noisy())
    }
}

/// Passes run back to back against one reference outcome.
#[derive(Debug, Default)]
pub struct RepLog {
    /// Passes started: reps (warm-up included) and layer-driver passes.
    pub attempted: u64,
    /// Passes that failed (error, bad exit code, verify mismatch, or a
    /// simulated outcome differing from the first rep's).
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// The first successful rep's outcome.
    pub reference: Option<Fingerprint>,
    /// Simulated IPC of the reference rep.
    pub sim_ipc: f64,
}

impl RepLog {
    /// Books one pass that has no simulated outcome to compare.
    pub fn book<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| {
                self.failed += 1;
                self.errors
                    .push(format!("{what} (pass {}): {e}", self.attempted));
            })
            .ok()
    }

    /// Books one rep: it must have succeeded and must reproduce the first
    /// rep's `(sim_cycles, total_retired, determinism_digest)`.
    pub fn book_rep(&mut self, what: &str, outcome: Result<RepDone, String>) -> Option<RepDone> {
        let reference = self.reference;
        let checked = outcome.and_then(|done| {
            let fingerprint = done.fingerprint();
            match reference {
                Some(reference) if reference != fingerprint => Err(format!(
                    "outcome {fingerprint:?} differs from the first rep's {reference:?}"
                )),
                _ => Ok((done, fingerprint)),
            }
        });
        let (done, fingerprint) = self.book(what, checked)?;
        if self.reference.is_none() {
            self.reference = Some(fingerprint);
            self.sim_ipc = done.report.ipc();
        }
        Some(done)
    }
}

/// Summary of one stage's time over `times`.
#[must_use]
pub fn stage_summary(times: &[RepTimes], stage: impl Fn(&RepTimes) -> f64) -> Option<Summary> {
    let values: Vec<f64> = times.iter().map(stage).collect();
    Summary::of(&values)
}

/// Result of the end-to-end pass.
#[derive(Debug)]
pub struct EndToEnd {
    /// The rep log.
    pub log: RepLog,
    /// The end-to-end metrics (empty when no timed rep succeeded).
    pub metrics: Vec<Metric>,
    /// The noise guard's reading.
    pub noise: Option<Noise>,
}

/// Runs the warm-up rep, then timed reps until `seconds` have passed.
#[must_use]
pub fn run(spec: &Spec, workload: &dyn Workload, seconds: f64) -> EndToEnd {
    let config = spec.config(spec.observed, ProfMode::Off);
    let mut log = RepLog::default();
    log.book_rep("warm-up", run_rep(workload, config, None, Simulation::run));

    let cpu_start = procfs::cpu_seconds();
    let start = Instant::now();
    let mut times = Vec::new();
    let mut timed = 0;
    while timed < MIN_TIMED_REPS || start.elapsed().as_secs_f64() < seconds {
        let outcome = run_rep(workload, config, None, Simulation::run);
        times.extend(log.book_rep("rep", outcome).map(|done| done.times));
        timed += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_start.zip(procfs::cpu_seconds()).map(|(a, b)| b - a);

    let mut metrics = Vec::new();
    let mut noise = None;
    if let (Some(reference), Some(run), Some(total), Some(setup)) = (
        log.reference,
        stage_summary(&times, |t| t.run_s),
        stage_summary(&times, |t| t.total_s),
        stage_summary(&times, RepTimes::setup_s),
    ) {
        let retired = reference.retired as f64;
        metrics = vec![
            Metric::timed(
                "host_mips",
                "Minst/s",
                run.map_inverse(|s| retired / 1e6 / s),
            ),
            Metric::timed("time_to_result_s", "s", total),
            Metric::timed("setup_s", "s", setup),
            Metric::exact(
                "peak_rss_mib",
                "MiB",
                procfs::peak_rss_mib().unwrap_or(f64::NAN),
            ),
            Metric::exact("sim_cycles", "cycles", reference.sim_cycles as f64),
            Metric::exact("sim_ipc", "inst/cycle", log.sim_ipc),
        ];
        noise = Some(Noise {
            // Tick-granular CPU time can exceed wall by a tick; cap at 1.
            cpu_util: cpu.map_or(f64::NAN, |c| (c / wall).min(1.0)),
            rep_iqr_frac: run.iqr_frac(),
        });
    }
    EndToEnd {
        log,
        metrics,
        noise,
    }
}
