//! Telemetry primitives for the Coyote reproduction.
//!
//! The paper positions Coyote as a data-movement analysis tool: the
//! numbers it emits about cache banks, the NoC, and memory are the
//! product. This crate supplies the observability building blocks the
//! simulator threads through its stack:
//!
//! - [`Histogram`] — log2-bucketed latency histograms for
//!   request-lifecycle stages (NoC, bank, MSHR wait, DRAM, delivery);
//! - [`TimeSeries`] — the cumulative [`EpochSnapshot`]s of a run,
//!   taken on the epoch grid it schedules, compacted in bounded memory,
//!   read as per-epoch [`Sample`]s and serialized to CSV. It is typed
//!   on plain numbers so this crate stays a leaf dependency;
//! - [`JsonValue`] — a hand-rolled, dependency-free JSON tree, its one
//!   writer and a parser, used for the stable `schema_version`ed
//!   metrics document;
//! - [`ChromeWriter`] — Chrome trace-event JSON (Perfetto-loadable) for
//!   request lifecycles and core-state intervals, streamed event by
//!   event from templates taken from the tree writer's text, each event
//!   a [`Record`] (as each `.prv` line is);
//! - [`HostProf`] — the host-side self-profiler: phase timers and
//!   counters for the simulator's *own* hot path.
//!
//! Everything that describes the simulated machine is deterministic:
//! no hashing with random seeds, so identical simulations produce
//! byte-identical exports. Wall-clock reads exist in exactly one
//! place — [`hostprof`], the only `#[expect]` of the root `clippy.toml`'s
//! `disallowed-methods` — and measure the host without ever feeding time
//! back into the model.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod hostprof;
pub mod json;
pub mod series;
pub mod topk;

pub use chrome::{ChromeWriter, SliceArgs};
pub use hist::{Histogram, BUCKETS};
pub use hostprof::{HostProf, ProfClock, SpanToken, WallClock};
pub use json::{parse as parse_json, JsonParseError, JsonValue, Record, RECORD_BYTES};
pub use series::{EpochSnapshot, Sample, TimeSeries};
pub use topk::{PcEntry, TopK};

/// Version of the exported metrics JSON schema. Bump on any breaking
/// change to key names or value semantics; the golden-file test in
/// `crates/core` pins it.
///
/// v4 added the `host_profile` top-level section (null unless the run
/// was profiled). v5 added the `report.truncated` flag (true when a
/// graceful stop cut the run short).
pub const SCHEMA_VERSION: u64 = 5;

/// A stage of the request lifecycle through the memory hierarchy.
///
/// Stages partition a request's end-to-end latency: `submit →
/// (NocRequest) → bank arrival → (Bank: queueing, tag lookup, MSHR
/// wait) → (Mc: DRAM access, miss owners only) → (NocFill) → fill →
/// (Deliver) → completion`. Hits and MSHR-merged requests have no
/// `Mc`/`NocFill` component; their wait shows up in `Bank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Submission to arrival at the home L2 bank (request NoC hop).
    NocRequest,
    /// Bank arrival to departure toward the response path: tag lookup,
    /// queueing, and MSHR wait. For a miss owner this ends when the
    /// memory-controller request is sent.
    Bank,
    /// Memory-controller send to response (DRAM access; miss owners
    /// only).
    Mc,
    /// Memory-controller response to fill at the bank (fill NoC hop;
    /// miss owners only).
    NocFill,
    /// Fill (or hit) to delivery at the requesting tile (response NoC
    /// hop).
    Deliver,
    /// Submission to completion.
    EndToEnd,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::NocRequest,
        Stage::Bank,
        Stage::Mc,
        Stage::NocFill,
        Stage::Deliver,
        Stage::EndToEnd,
    ];

    /// Stable snake_case name used as the JSON key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::NocRequest => "noc_request",
            Stage::Bank => "bank",
            Stage::Mc => "mc",
            Stage::NocFill => "noc_fill",
            Stage::Deliver => "deliver",
            Stage::EndToEnd => "end_to_end",
        }
    }
}

/// The hierarchy stage held responsible for a closed dependency-stall
/// interval.
///
/// A request's service time is split across stages
/// ([`Stage`]/`MemTelemetry` in `crates/mem` record the exact
/// per-stage latencies); `Blame` is the attribution-side view: which
/// single stage *dominated* the request that kept a core asleep, plus
/// the per-stage cycle split carried on [`RequestCause`]. The sixth
/// attribution column, `other`, lives only on the simulator side — it
/// absorbs stalls with no causal record (telemetry disabled, or a wake
/// with no completing request) and is deliberately not a `Blame`
/// variant so causal records always carry real hierarchy blame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blame {
    /// Network-on-chip hops: request, fill, and response traversals.
    Noc,
    /// L2 bank service for a hit (tag lookup + bank queueing).
    L2Hit,
    /// L2 miss handling at the bank: lookup plus miss-path residency
    /// while waiting for the fill (merged waiters included).
    L2Miss,
    /// MSHR-full back-pressure: parked in the bank's waiting queue
    /// before an MSHR could be acquired.
    Mshr,
    /// Memory-controller (DRAM) service.
    Mc,
}

impl Blame {
    /// All blame categories, in precedence order (first max wins when
    /// [`RequestCause::dominant`] ties).
    pub const ALL: [Blame; 5] = [
        Blame::Noc,
        Blame::L2Hit,
        Blame::L2Miss,
        Blame::Mshr,
        Blame::Mc,
    ];

    /// Stable snake_case name used as the JSON key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Blame::Noc => "noc",
            Blame::L2Hit => "l2_hit",
            Blame::L2Miss => "l2_miss",
            Blame::Mshr => "mshr",
            Blame::Mc => "mc",
        }
    }
}

/// Number of attribution columns in per-core blame rows: the five
/// [`Blame`] categories plus a trailing `other` column for
/// unattributed stall cycles.
pub const BLAME_COLS: usize = Blame::ALL.len() + 1;

/// Causal record attached to a completed memory request: who issued
/// it, from which instruction, and how its service time splits across
/// hierarchy stages. The orchestrator uses this to attribute the stall
/// interval the completion closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCause {
    /// Program counter of the instruction that issued the access.
    pub pc: u64,
    /// Cycle the request was submitted to the hierarchy.
    pub submit: u64,
    /// Service cycles by [`Blame`] category, indexed by `Blame as
    /// usize`; sums to the request's end-to-end latency.
    pub blame: [u64; Blame::ALL.len()],
}

impl RequestCause {
    /// Total service cycles across all blame categories (the request's
    /// end-to-end latency).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.blame.iter().sum()
    }

    /// The category with the most service cycles; ties resolve to the
    /// earliest entry in [`Blame::ALL`], keeping attribution
    /// deterministic.
    #[must_use]
    pub fn dominant(&self) -> Blame {
        let mut best = Blame::ALL[0];
        for blame in Blame::ALL {
            if self.blame[blame as usize] > self.blame[best as usize] {
                best = blame;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_blame_ties_resolve_in_all_order() {
        let cause = RequestCause {
            pc: 0x80,
            submit: 10,
            blame: [4, 0, 4, 0, 4],
        };
        assert_eq!(cause.dominant(), Blame::Noc);
        assert_eq!(cause.total(), 12);
        let mc_heavy = RequestCause {
            pc: 0x80,
            submit: 10,
            blame: [4, 0, 4, 0, 5],
        };
        assert_eq!(mc_heavy.dominant(), Blame::Mc);
    }

    #[test]
    fn blame_names_are_unique_and_stable() {
        let names: Vec<&str> = Blame::ALL.iter().map(|b| b.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Blame::L2Miss.name(), "l2_miss");
        assert_eq!(BLAME_COLS, 6);
    }

    #[test]
    fn stage_names_are_unique_and_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Stage::EndToEnd.name(), "end_to_end");
    }
}
