//! Telemetry primitives for the Coyote reproduction.
//!
//! The paper positions Coyote as a data-movement analysis tool: the
//! numbers it emits about cache banks, the NoC, and memory are the
//! product. This crate supplies the observability building blocks the
//! simulator threads through its stack:
//!
//! - [`Histogram`] — log2-bucketed latency histograms for
//!   request-lifecycle stages (NoC, bank, MSHR wait, DRAM, delivery);
//! - [`TimeSeries`] / [`Sample`] — epoch-sampled delta counters with
//!   bounded-memory pair-merge compaction, serializing to CSV;
//! - [`JsonValue`] — a hand-rolled, dependency-free JSON tree and
//!   parser used for the stable `schema_version`ed metrics document,
//!   serialized by [`JsonEmitter`];
//! - [`ChromeWriter`] — Chrome trace-event JSON (Perfetto-loadable) for
//!   request lifecycles and core-state intervals, streamed event by
//!   event from templates taken from the emitter's text, each event a
//!   [`Record`] (as each `.prv` line is);
//! - [`TelemetrySink`] — the epoch bookkeeping the simulation loop
//!   drives, deliberately typed on plain numbers so this crate stays a
//!   leaf dependency;
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
pub use json::{parse as parse_json, JsonEmitter, JsonParseError, JsonValue, Record, RECORD_BYTES};
pub use series::{Sample, TimeSeries};
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

/// Cumulative counters and instantaneous gauges captured at one cycle,
/// fed to [`TelemetrySink::sample`]. The sink differences consecutive
/// snapshots to produce per-epoch [`Sample`]s, so callers only ever
/// report running totals — no delta bookkeeping leaks into the
/// simulator.
#[derive(Debug, Clone, Default)]
pub struct EpochSnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Per-core cumulative `[retired, dep_stall_cycles,
    /// fetch_stall_cycles]`.
    pub per_core: Vec<[u64; 3]>,
    /// Per-core cumulative dependency-stall cycles by attribution
    /// category (`Blame::ALL` order, then `other`). Covers *closed*
    /// stall intervals only — an in-progress stall is attributed when
    /// its closing completion arrives, which keeps every column
    /// monotone across snapshots.
    pub per_core_blame: Vec<[u64; BLAME_COLS]>,
    /// Per-bank `[hits, misses, mshr_occupancy]` — first two
    /// cumulative, third an instantaneous gauge.
    pub per_bank: Vec<[u64; 3]>,
    /// Cumulative NoC traversals.
    pub noc_traversals: u64,
    /// Cumulative completed hierarchy requests.
    pub completed: u64,
    /// Requests parked waiting for an MSHR right now.
    pub queued_requests: u64,
    /// Requests in flight anywhere in the hierarchy right now.
    pub in_flight: u64,
    /// Memory-controller channels busy right now.
    pub mc_busy_channels: u64,
}

/// Epoch bookkeeping for the simulation loop: decides when the next
/// sample is due, differences cumulative snapshots into delta
/// [`Sample`]s, and owns the resulting [`TimeSeries`].
#[derive(Debug)]
pub struct TelemetrySink {
    interval: u64,
    next_due: u64,
    last: EpochSnapshot,
    series: TimeSeries,
}

impl TelemetrySink {
    /// A sink sampling every `interval` cycles (minimum 1), starting
    /// from cycle 0.
    #[must_use]
    pub fn new(interval: u64) -> TelemetrySink {
        let interval = interval.max(1);
        TelemetrySink {
            interval,
            next_due: interval,
            last: EpochSnapshot::default(),
            series: TimeSeries::default(),
        }
    }

    /// The configured sampling interval in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// First cycle at which the next sample is due. The simulator can
    /// fast-forward past this; the epoch then simply covers more
    /// cycles.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Records one epoch ending at `snapshot.cycle`. Counters in the
    /// snapshot are cumulative; the sink differences them against the
    /// previous snapshot. Zero-length epochs are dropped.
    pub fn sample(&mut self, snapshot: EpochSnapshot) {
        let start = self.last.cycle;
        let end = snapshot.cycle;
        // Schedule the next epoch boundary strictly after `end`, on the
        // interval grid, so a fast-forwarded cycle counter never causes
        // back-to-back zero-length epochs.
        self.next_due = end + self.interval - end % self.interval;
        if end <= start {
            return;
        }

        let per_core: Vec<[u64; 3]> = diff_rows(&snapshot.per_core, &self.last.per_core, [true; 3]);
        let per_core_blame: Vec<[u64; BLAME_COLS]> = diff_rows(
            &snapshot.per_core_blame,
            &self.last.per_core_blame,
            [true; BLAME_COLS],
        );
        let per_bank: Vec<[u64; 3]> =
            diff_rows(&snapshot.per_bank, &self.last.per_bank, [true, true, false]);

        let sum_col = |rows: &[[u64; 3]], col: usize| rows.iter().map(|r| r[col]).sum::<u64>();
        let sample = Sample {
            start,
            end,
            retired: sum_col(&per_core, 0),
            dep_stall_cycles: sum_col(&per_core, 1),
            fetch_stall_cycles: sum_col(&per_core, 2),
            l2_hits: sum_col(&per_bank, 0),
            l2_misses: sum_col(&per_bank, 1),
            noc_traversals: snapshot.noc_traversals - self.last.noc_traversals,
            completed: snapshot.completed - self.last.completed,
            mshr_occupancy: sum_col(&per_bank, 2),
            queued_requests: snapshot.queued_requests,
            in_flight: snapshot.in_flight,
            mc_busy_channels: snapshot.mc_busy_channels,
            per_core,
            per_core_blame,
            per_bank,
        };
        self.series.push(sample);
        self.last = snapshot;
    }

    /// The accumulated time series.
    #[must_use]
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// Per-row difference of cumulative snapshots; `diff[i]` subtracts the
/// column, otherwise the newer gauge value is kept. Rows absent from
/// the older snapshot diff against zero.
fn diff_rows<const N: usize>(
    newer: &[[u64; N]],
    older: &[[u64; N]],
    diff: [bool; N],
) -> Vec<[u64; N]> {
    newer
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let prev = older.get(i).copied().unwrap_or([0; N]);
            let mut out = [0u64; N];
            for c in 0..N {
                out[c] = if diff[c] {
                    row[c].saturating_sub(prev[c])
                } else {
                    row[c]
                };
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(cycle: u64, retired: u64, hits: u64) -> EpochSnapshot {
        EpochSnapshot {
            cycle,
            per_core: vec![[retired, cycle / 2, 0]],
            per_bank: vec![[hits, hits / 2, 3]],
            noc_traversals: hits * 2,
            completed: hits,
            ..EpochSnapshot::default()
        }
    }

    #[test]
    fn sink_differences_cumulative_counters() {
        let mut sink = TelemetrySink::new(100);
        sink.sample(snapshot(100, 50, 10));
        sink.sample(snapshot(200, 120, 25));
        let samples = sink.series().samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].retired, 50);
        assert_eq!(samples[1].retired, 70);
        assert_eq!(samples[1].l2_hits, 15);
        assert_eq!(samples[1].completed, 15);
        // Gauge column passes through untouched.
        assert_eq!(samples[1].per_bank[0][2], 3);
        // Delta sum equals the final cumulative value.
        let total: u64 = samples.iter().map(|s| s.retired).sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn next_due_follows_the_interval_grid_after_fast_forward() {
        let mut sink = TelemetrySink::new(100);
        assert_eq!(sink.next_due(), 100);
        // Fast-forwarded well past several boundaries.
        sink.sample(snapshot(370, 10, 1));
        assert_eq!(sink.next_due(), 400);
        // Landing exactly on a boundary schedules the following one.
        sink.sample(snapshot(400, 12, 2));
        assert_eq!(sink.next_due(), 500);
    }

    #[test]
    fn zero_length_epochs_are_dropped() {
        let mut sink = TelemetrySink::new(10);
        sink.sample(snapshot(10, 5, 1));
        sink.sample(snapshot(10, 5, 1));
        assert_eq!(sink.series().len(), 1);
    }

    #[test]
    fn interval_is_clamped_to_one() {
        let sink = TelemetrySink::new(0);
        assert_eq!(sink.interval(), 1);
        assert_eq!(sink.next_due(), 1);
    }

    #[test]
    fn blame_rows_difference_like_other_counters() {
        let mut sink = TelemetrySink::new(100);
        let mut first = snapshot(100, 10, 1);
        first.per_core_blame = vec![[5, 0, 10, 0, 20, 3]];
        sink.sample(first);
        let mut second = snapshot(200, 20, 2);
        second.per_core_blame = vec![[7, 0, 25, 4, 20, 3]];
        sink.sample(second);
        let samples = sink.series().samples();
        assert_eq!(samples[0].per_core_blame, vec![[5, 0, 10, 0, 20, 3]]);
        assert_eq!(samples[1].per_core_blame, vec![[2, 0, 15, 4, 0, 0]]);
    }

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
