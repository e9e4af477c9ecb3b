//! Layer 2: the dynamic schedule-race detector.
//!
//! The hierarchy's event queue orders same-cycle events by arbitration
//! domain (bank, memory controller, tile) with a content-derived
//! canonical rank *inside* each domain; the pop order of different
//! domains within one cycle is an implementation detail that no model
//! state may depend on. [`SimConfig::perturb_seed`] permutes exactly
//! that free order — a legal reordering by construction.
//!
//! The detector runs the same workload twice: once with the canonical
//! schedule (seed 0) and once perturbed. It then compares
//!
//! * per-core exit codes,
//! * the order-insensitive architectural digest
//!   ([`Simulation::determinism_digest`]: final cycle, core stats,
//!   cache counters, console bytes, hierarchy stats, full memory
//!   image), and
//! * the metrics JSON byte-for-byte (with wall time zeroed — host time
//!   is the one legitimately nondeterministic quantity).
//!
//! Any difference is a latent event-ordering race. To localize it, both
//! runs are repeated with hierarchy event logging enabled; per-cycle
//! event multisets are compared under canonical order and the first
//! divergent cycle plus the first differing event pair is reported.

use std::time::Duration;

use coyote::{metrics_json, JsonValue, L2Sharing, Report, RunError, SimConfig, Simulation};
use coyote_kernels::workload::Workload;
use coyote_kernels::MatmulScalar;
use coyote_mem::hierarchy::EventRecord;

/// Perturbation seed used when the caller does not pick one. Any
/// nonzero value works; divergence must not depend on which.
pub const DEFAULT_PERTURB_SEED: u64 = 0x00C0_707E_5EED;

/// Names accepted by [`named_config`], in display order.
pub const CONFIG_NAMES: &[&str] = &["shared-l2", "private-l2", "tiny"];

/// Builds one of the named repro configurations (paper Figure-3
/// systems): `shared-l2` and `private-l2` are 16-core two-tile systems
/// differing in L2 sharing; `tiny` is the fast self-test system.
#[must_use]
pub fn named_config(name: &str) -> Option<(SimConfig, MatmulScalar)> {
    let (sharing, cores, n) = match name {
        "shared-l2" => (L2Sharing::Shared, 16, 20),
        "private-l2" => (L2Sharing::Private, 16, 20),
        "tiny" => (L2Sharing::Shared, 8, 12),
        _ => return None,
    };
    let mut builder = SimConfig::builder()
        .cores(cores)
        .cores_per_tile(8)
        .sharing(sharing)
        .telemetry(true)
        .metrics_interval(500);
    if name == "tiny" {
        // The self-test system is deliberately contended: one bank and
        // scarce MSHRs funnel every same-cycle arrival into the same
        // arbitration domain, so an illegal (non-canonical) drain order
        // visibly reshuffles MSHR grants and queueing delays. The
        // canonical queue must stay deterministic even here.
        builder = builder.banks_per_tile(1).l2(coyote::L2Config {
            bank_size_bytes: 16 * 1024,
            mshrs: 2,
            ..coyote::L2Config::default()
        });
    }
    let config = builder
        .build()
        .expect("named repro config is statically valid");
    Some((config, MatmulScalar::new(n, 0x00C0_707E)))
}

/// Where two schedules diverged.
#[derive(Debug, Clone)]
pub struct RaceDivergence {
    /// What differed between the runs (exit codes, digest, metrics
    /// JSON), in detection order.
    pub observables: Vec<String>,
    /// First cycle whose canonical event multiset differs, when the
    /// event logs localize the race.
    pub cycle: Option<u64>,
    /// The canonical-schedule event at the divergence point.
    pub baseline_event: Option<String>,
    /// The perturbed-schedule event at the divergence point.
    pub perturbed_event: Option<String>,
}

/// Result of one race check.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// The named configuration checked.
    pub config: String,
    /// The perturbation seed of the second run.
    pub perturb_seed: u64,
    /// Simulated cycles of the canonical run.
    pub cycles: u64,
    /// Hierarchy events compared during localization (0 when the runs
    /// agreed and no localization pass was needed).
    pub events_compared: usize,
    /// `None` when the schedules agreed on every observable.
    pub divergence: Option<RaceDivergence>,
}

impl RaceOutcome {
    /// Renders the outcome as JSON.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let divergence = self.divergence.as_ref().map_or(JsonValue::Null, |d| {
            JsonValue::object()
                .with(
                    "observables",
                    JsonValue::Array(
                        d.observables
                            .iter()
                            .map(|o| JsonValue::Str(o.clone()))
                            .collect(),
                    ),
                )
                .with("cycle", d.cycle.map_or(JsonValue::Null, JsonValue::from))
                .with(
                    "baseline_event",
                    d.baseline_event
                        .clone()
                        .map_or(JsonValue::Null, JsonValue::Str),
                )
                .with(
                    "perturbed_event",
                    d.perturbed_event
                        .clone()
                        .map_or(JsonValue::Null, JsonValue::Str),
                )
        });
        JsonValue::object()
            .with("config", self.config.clone())
            .with("perturb_seed", self.perturb_seed)
            .with("cycles", self.cycles)
            .with("events_compared", self.events_compared)
            .with("divergence", divergence)
    }
}

/// Everything one run produces that the detector diffs.
struct RunArtifacts {
    exit_codes: Option<Vec<i64>>,
    digest: u64,
    metrics: String,
    cycles: u64,
    events: Vec<EventRecord>,
}

/// Per-run knobs the detector varies between the baseline and the
/// perturbed schedule.
#[derive(Clone, Copy)]
struct RunKnobs {
    perturb_seed: u64,
    log_events: bool,
    inject_unordered_drain: bool,
}

fn run_once(
    mut config: SimConfig,
    workload: &dyn Workload,
    knobs: RunKnobs,
) -> Result<RunArtifacts, String> {
    config.perturb_seed = knobs.perturb_seed;
    let program = workload
        .program(config.cores)
        .map_err(|e| format!("workload failed to assemble: {e}"))?;
    let mut sim = Simulation::new(config, &program).map_err(|e| e.to_string())?;
    workload.populate(&program, sim.memory_mut());
    sim.set_event_log(knobs.log_events);
    if knobs.inject_unordered_drain {
        sim.debug_inject_unordered_drain();
    }
    let mut report: Report = sim.run().map_err(|e: RunError| e.to_string())?;
    // Wall time (and the MIPS rate derived from it) is the one
    // legitimately nondeterministic report field; zero it so the
    // byte-for-byte metrics comparison sees only model state.
    report.wall_time = Duration::ZERO;
    let metrics = metrics_json(&sim, &report).to_string_pretty();
    Ok(RunArtifacts {
        exit_codes: report.exit_codes(),
        digest: sim.determinism_digest(),
        metrics,
        cycles: report.cycles,
        events: sim.take_event_log(),
    })
}

/// Canonical within-cycle event order, so that legal cross-domain
/// reorderings compare equal and only genuine divergence survives.
fn canonical_event_sort(events: &mut [EventRecord]) {
    events.sort_by(|a, b| {
        (a.cycle, a.kind, a.line_addr, a.tag, a.bank, a.tile).cmp(&(
            b.cycle,
            b.kind,
            b.line_addr,
            b.tag,
            b.bank,
            b.tile,
        ))
    });
}

/// Finds the first cycle whose canonical event multisets differ, and
/// the first differing pair there.
fn localize(
    mut baseline: Vec<EventRecord>,
    mut perturbed: Vec<EventRecord>,
) -> (Option<u64>, Option<String>, Option<String>) {
    canonical_event_sort(&mut baseline);
    canonical_event_sort(&mut perturbed);
    let len = baseline.len().max(perturbed.len());
    for i in 0..len {
        match (baseline.get(i), perturbed.get(i)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => {
                let cycle = a
                    .map(|r| r.cycle)
                    .into_iter()
                    .chain(b.map(|r| r.cycle))
                    .min();
                return (
                    cycle,
                    a.map(ToString::to_string),
                    b.map(ToString::to_string),
                );
            }
        }
    }
    (None, None, None)
}

/// Runs the schedule-race check on the named configuration.
///
/// `inject_unordered_drain` arms the deliberate `HashMap`-ordered event
/// drain in the hierarchy — the detector's self-test: with the
/// injection the check must report a divergence, without it the check
/// must report none.
///
/// # Errors
///
/// Returns a message for unknown configuration names and for
/// simulation failures unrelated to divergence.
pub fn check(
    name: &str,
    perturb_seed: u64,
    inject_unordered_drain: bool,
) -> Result<RaceOutcome, String> {
    let (config, workload) = named_config(name)
        .ok_or_else(|| format!("unknown race config `{name}` (have: {CONFIG_NAMES:?})"))?;
    let seed = if perturb_seed == 0 {
        DEFAULT_PERTURB_SEED
    } else {
        perturb_seed
    };

    let baseline_knobs = RunKnobs {
        perturb_seed: 0,
        log_events: false,
        inject_unordered_drain,
    };
    let perturbed_knobs = RunKnobs {
        perturb_seed: seed,
        ..baseline_knobs
    };
    let baseline = run_once(config, &workload, baseline_knobs)?;
    let perturbed = run_once(config, &workload, perturbed_knobs)?;

    let mut observables = Vec::new();
    if baseline.exit_codes != perturbed.exit_codes {
        observables.push(format!(
            "exit codes: {:?} vs {:?}",
            baseline.exit_codes, perturbed.exit_codes
        ));
    }
    if baseline.digest != perturbed.digest {
        observables.push(format!(
            "architectural digest: {:#018x} vs {:#018x}",
            baseline.digest, perturbed.digest
        ));
    }
    if baseline.metrics != perturbed.metrics {
        let line = baseline
            .metrics
            .lines()
            .zip(perturbed.metrics.lines())
            .position(|(a, b)| a != b);
        observables.push(match line {
            Some(idx) => format!("metrics JSON first differs at line {}", idx + 1),
            None => "metrics JSON lengths differ".to_owned(),
        });
    }

    if observables.is_empty() {
        return Ok(RaceOutcome {
            config: name.to_owned(),
            perturb_seed: seed,
            cycles: baseline.cycles,
            events_compared: 0,
            divergence: None,
        });
    }

    // Divergence: rerun both schedules with event logging (runs are
    // individually deterministic, so the rerun reproduces them) and
    // localize the first divergent cycle and event pair.
    let baseline_logged = run_once(
        config,
        &workload,
        RunKnobs {
            log_events: true,
            ..baseline_knobs
        },
    )?;
    let perturbed_logged = run_once(
        config,
        &workload,
        RunKnobs {
            log_events: true,
            ..perturbed_knobs
        },
    )?;
    let events_compared = baseline_logged
        .events
        .len()
        .max(perturbed_logged.events.len());
    let (cycle, baseline_event, perturbed_event) =
        localize(baseline_logged.events, perturbed_logged.events);

    Ok(RaceOutcome {
        config: name.to_owned(),
        perturb_seed: seed,
        cycles: baseline.cycles,
        events_compared,
        divergence: Some(RaceDivergence {
            observables,
            cycle,
            baseline_event,
            perturbed_event,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sort_erases_cross_domain_order() {
        let a = EventRecord {
            cycle: 10,
            kind: "bank-arrive",
            line_addr: 0x100,
            tag: 4,
            bank: 0,
            tile: 0,
        };
        let b = EventRecord {
            cycle: 10,
            kind: "mc-send",
            line_addr: 0x200,
            tag: 8,
            bank: 1,
            tile: 0,
        };
        let mut one = vec![a.clone(), b.clone()];
        let mut two = vec![b, a];
        canonical_event_sort(&mut one);
        canonical_event_sort(&mut two);
        assert_eq!(one, two);
    }

    #[test]
    fn localize_names_first_divergent_cycle() {
        let mk = |cycle, line_addr| EventRecord {
            cycle,
            kind: "bank-arrive",
            line_addr,
            tag: 0,
            bank: 0,
            tile: 0,
        };
        let base = vec![mk(5, 0x40), mk(9, 0x80)];
        let pert = vec![mk(5, 0x40), mk(9, 0xc0)];
        let (cycle, a, b) = localize(base, pert);
        assert_eq!(cycle, Some(9));
        assert!(a.unwrap().contains("0x80"));
        assert!(b.unwrap().contains("0xc0"));
    }
}
