//! The crash dump: a machine's last known state as one JSON document,
//! written when a run ends abnormally (deadlock, oracle divergence,
//! panic, graceful stop). Read-only over the [`Simulation`].

use coyote_iss::core::{Core, CoreState};
use coyote_mem::hierarchy::Hierarchy;
use coyote_telemetry::JsonValue;

use crate::error::StallInfo;
use crate::sim::Simulation;
use crate::trace::state_names;

/// Version of the `crash.json` document [`Simulation::crash_json`]
/// builds. Bump on any breaking change to its key names or value
/// semantics; moves independently of the metrics
/// [`crate::SCHEMA_VERSION`].
pub const CRASH_SCHEMA_VERSION: u64 = 6;

/// `value` as JSON, `null` when absent.
fn or_null<T: Into<JsonValue>>(value: Option<T>) -> JsonValue {
    value.map_or(JsonValue::Null, Into::into)
}

/// Why each currently stalled core cannot make progress: its waiting
/// line resolved against the hierarchy's in-flight state.
pub(crate) fn stall_infos(cores: &[Core], hierarchy: &Hierarchy) -> Vec<StallInfo> {
    cores
        .iter()
        .filter(|core| {
            matches!(
                core.state(),
                CoreState::StalledDep | CoreState::StalledFetch
            )
        })
        .map(|core| {
            let snap = core.snapshot();
            let line = core
                .waiting_lines()
                .first()
                .copied()
                .or_else(|| core.pending_fetch_line());
            let (bank, issue_pc) = line
                .and_then(|l| hierarchy.in_flight_line_info(l))
                .map_or((None, None), |(b, p)| (Some(b), Some(p)));
            StallInfo {
                core: snap.core,
                pc: snap.pc,
                line,
                bank,
                issue_pc,
            }
        })
        .collect()
}

/// See [`Simulation::crash_json`].
pub(crate) fn crash_json(sim: &Simulation, reason: &str) -> JsonValue {
    let cores: Vec<JsonValue> = sim
        .cores()
        .iter()
        .map(|core| {
            let snap = core.snapshot();
            let waiting: Vec<JsonValue> = core
                .waiting_lines()
                .into_iter()
                .map(JsonValue::from)
                .collect();
            JsonValue::object()
                .with("core", snap.core)
                .with("state", state_names(snap.state).name)
                .with("pc", snap.pc)
                .with("retired", snap.retired)
                .with("in_flight_lines", snap.in_flight_lines)
                .with("waiting_lines", JsonValue::Array(waiting))
                .with("pending_fetch", or_null(snap.pending_fetch))
        })
        .collect();
    let hierarchy = sim.hierarchy();
    let mshr: Vec<JsonValue> = hierarchy
        .mshr_occupancy()
        .into_iter()
        .map(JsonValue::from)
        .collect();
    let phases: Vec<JsonValue> = sim
        .host_prof()
        .map(|p| p.open_phases().into_iter().map(JsonValue::from).collect())
        .unwrap_or_default();
    let stalls: Vec<JsonValue> = stall_infos(sim.cores(), hierarchy)
        .into_iter()
        .map(|s| {
            JsonValue::object()
                .with("core", s.core)
                .with("pc", s.pc)
                .with("line", or_null(s.line))
                .with("bank", or_null(s.bank))
                .with("issue_pc", or_null(s.issue_pc))
        })
        .collect();
    JsonValue::object()
        .with("schema_version", CRASH_SCHEMA_VERSION)
        .with("reason", reason)
        .with("cycle", sim.cycle())
        .with("cores", JsonValue::Array(cores))
        .with("stalls", JsonValue::Array(stalls))
        .with("mshr_occupancy", JsonValue::Array(mshr))
        .with("hostprof_phases", JsonValue::Array(phases))
        .with("event_pops", sim.event_pops())
        .with("flight_recorder", sim.flight().to_json())
}
