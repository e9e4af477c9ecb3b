//! Request-lifecycle telemetry for the hierarchy.
//!
//! When enabled (see [`crate::hierarchy::Hierarchy::enable_telemetry`]),
//! the event pipeline stamps each response-bearing request at every
//! stage boundary. On completion the stamps collapse into per-stage
//! latencies folded into log2 histograms — aggregate per
//! [`Stage`], per bank (the `Bank` stage, which includes queueing and
//! MSHR wait), and per memory controller (the `Mc` stage) — and,
//! optionally, into bounded [`RequestSlice`] records for Chrome-trace
//! export.
//!
//! Only requests with `needs_response` are tracked: prefetches and
//! writebacks never complete, so the end-to-end histogram count equals
//! the hierarchy's `completed` counter by construction.

use coyote_telemetry::{Blame, Histogram, RequestCause, Stage};

/// Per-request stage timestamps (cycles): the slice retained on
/// completion, plus what only the blame split reads. `None` fields
/// belong to stages the request skipped (hits and MSHR-merged requests
/// never visit the memory controller).
#[derive(Debug, Clone, Copy)]
struct Stamps {
    slice: RequestSlice,
    bank_fill: Option<u64>,
    mshr_grant: Option<u64>,
    merged: bool,
    pc: u64,
}

/// A stage a retained request skipped.
const UNSTAMPED: u64 = u64::MAX;

/// A retained stamp, `None` for a skipped stage.
fn stamped(cycle: u64) -> Option<u64> {
    (cycle != UNSTAMPED).then_some(cycle)
}

/// One completed request's lifecycle, retained for Chrome-trace export:
/// what the export writes and no more, 72 bytes. A stage the request
/// skipped is a sentinel that the accessors turn back into `None`.
#[derive(Debug, Clone, Copy)]
pub struct RequestSlice {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Caller tag from the originating request.
    pub tag: u64,
    /// Submission cycle.
    pub submit: u64,
    /// Completion cycle.
    pub complete: u64,
    bank_arrive: u64,
    mc_send: u64,
    mc_respond: u64,
    respond: u64,
    /// Serving bank (global index; a validated hierarchy has at most
    /// 16 384).
    pub bank: u16,
    /// Serving memory controller, for miss owners (at most 4 096).
    pub mc: Option<u16>,
}

const _: () = assert!(std::mem::size_of::<RequestSlice>() <= 72);
// `bank` and `mc` hold any index a validated hierarchy has.
const _: () = assert!(crate::hierarchy::MAX_BANKS <= 1 << 16 && crate::mc::MAX_CHANNELS <= 1 << 16);

impl RequestSlice {
    /// The canonical order of retained slices, which same-cycle
    /// completions would otherwise leave to the event pop order:
    /// submission, completion, line address, tag.
    #[must_use]
    pub fn order_key(&self) -> (u64, u64, u64, u64) {
        (self.submit, self.complete, self.line_addr, self.tag)
    }

    /// Arrival at the bank.
    #[must_use]
    pub fn bank_arrive(&self) -> Option<u64> {
        stamped(self.bank_arrive)
    }

    /// Departure toward the memory controller (miss owners).
    #[must_use]
    pub fn mc_send(&self) -> Option<u64> {
        stamped(self.mc_send)
    }

    /// Memory-controller response (miss owners).
    #[must_use]
    pub fn mc_respond(&self) -> Option<u64> {
        stamped(self.mc_respond)
    }

    /// Response departure toward the requesting tile.
    #[must_use]
    pub fn respond(&self) -> Option<u64> {
        stamped(self.respond)
    }
}

/// Lifecycle stamping state and the histograms it feeds.
#[derive(Debug, Clone)]
pub struct MemTelemetry {
    /// In-flight stamps by request-slab slot: a slot is refilled only
    /// after [`MemTelemetry::on_complete`] has taken its stamps.
    stamps: Vec<Option<Stamps>>,
    stages: [Histogram; Stage::ALL.len()],
    per_bank: Vec<Histogram>,
    per_mc: Vec<Histogram>,
    /// Reserved to [`SLICE_CAP`] when collecting, so never regrown.
    slices: Vec<RequestSlice>,
    collect_slices: bool,
    dropped_slices: u64,
    stamp_errors: u64,
}

/// Cap on retained [`RequestSlice`]s: enough for a detailed Perfetto
/// view without unbounded memory on long runs. Overflow increments
/// [`MemTelemetry::dropped_slices`] instead of allocating.
pub const SLICE_CAP: usize = 100_000;

impl MemTelemetry {
    /// Telemetry for a hierarchy with the given bank/controller counts.
    /// `collect_slices` additionally retains up to [`SLICE_CAP`]
    /// completed lifecycles for Chrome-trace export.
    #[must_use]
    pub fn new(banks: usize, mcs: usize, collect_slices: bool) -> MemTelemetry {
        MemTelemetry {
            stamps: Vec::new(),
            stages: std::array::from_fn(|_| Histogram::new()),
            per_bank: vec![Histogram::new(); banks],
            per_mc: vec![Histogram::new(); mcs],
            slices: Vec::with_capacity(if collect_slices { SLICE_CAP } else { 0 }),
            collect_slices,
            dropped_slices: 0,
            stamp_errors: 0,
        }
    }

    pub(crate) fn on_submit(
        &mut self,
        slot: u32,
        now: u64,
        line_addr: u64,
        bank: usize,
        tag: u64,
        pc: u64,
    ) {
        let slot = slot as usize;
        self.stamps.resize(self.stamps.len().max(slot + 1), None);
        let slice = RequestSlice {
            line_addr,
            tag,
            submit: now,
            complete: UNSTAMPED,
            bank_arrive: UNSTAMPED,
            mc_send: UNSTAMPED,
            mc_respond: UNSTAMPED,
            respond: UNSTAMPED,
            bank: bank as u16,
            mc: None,
        };
        self.stamps[slot] = Some(Stamps {
            slice,
            bank_fill: None,
            mshr_grant: None,
            merged: false,
            pc,
        });
    }

    pub(crate) fn on_bank_arrive(&mut self, slot: u32, now: u64) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.slice.bank_arrive = now;
        }
    }

    pub(crate) fn on_mc_send(&mut self, slot: u32, now: u64, mc: usize) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.slice.mc_send = now;
            s.slice.mc = Some(mc as u16);
        }
    }

    pub(crate) fn on_mc_respond(&mut self, slot: u32, now: u64) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.slice.mc_respond = now;
        }
    }

    pub(crate) fn on_bank_fill(&mut self, slot: u32, now: u64) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.bank_fill = Some(now);
        }
    }

    pub(crate) fn on_respond(&mut self, slot: u32, now: u64) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.slice.respond = now;
        }
    }

    /// Marks the request as MSHR-merged into another in-flight miss to
    /// the same line: it never owns an MC round-trip, and its residency
    /// at the bank counts as miss wait, not hit service.
    pub(crate) fn on_merge(&mut self, slot: u32) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.merged = true;
        }
    }

    /// Marks the cycle an MSHR was finally acquired for (or a merge
    /// slot granted to) a request that had been parked in the bank's
    /// waiting queue; `bank_arrive → mshr_grant` is MSHR-full
    /// back-pressure.
    pub(crate) fn on_mshr_grant(&mut self, slot: u32, now: u64) {
        if let Some(Some(s)) = self.stamps.get_mut(slot as usize) {
            s.mshr_grant = Some(now);
        }
    }

    /// A stage delta from an ordered stamp pair. A pair stamped out of
    /// order is an event-pipeline bug: rather than underflowing (and
    /// poisoning a histogram with a near-`u64::MAX` sample), it
    /// increments [`MemTelemetry::stamp_errors`] and records nothing.
    fn stage_delta(&mut self, later: u64, earlier: u64) -> Option<u64> {
        match later.checked_sub(earlier) {
            Some(delta) => Some(delta),
            None => {
                self.stamp_errors += 1;
                None
            }
        }
    }

    /// Folds the request's stamps into the stage histograms and returns
    /// its causal record: the issuing PC plus the request's end-to-end
    /// latency split across [`Blame`] categories. The split partitions
    /// `complete - submit` exactly (misordered stamp pairs drop their
    /// stage and are counted in [`MemTelemetry::stamp_errors`]):
    ///
    /// - `Noc`: request hop, fill hop (miss owners), and response hop;
    /// - `Mshr`: `bank_arrive → mshr_grant` back-pressure wait;
    /// - `L2Hit`: bank residency of a plain hit;
    /// - `L2Miss`: bank residency of a miss owner up to the MC send, or
    ///   of a merged waiter up to its response;
    /// - `Mc`: the owner's DRAM round-trip.
    pub(crate) fn on_complete(&mut self, slot: u32, now: u64) -> Option<RequestCause> {
        let s = self.stamps.get_mut(slot as usize)?.take()?;
        let (submit, bank_arrive) = (s.slice.submit, s.slice.bank_arrive());
        let (mc_send, mc_respond, respond) =
            (s.slice.mc_send(), s.slice.mc_respond(), s.slice.respond());
        let mut blame = [0u64; Blame::ALL.len()];
        if let Some(arrive) = bank_arrive {
            if let Some(hop) = self.stage_delta(arrive, submit) {
                blame[Blame::Noc as usize] += hop;
            }
            let bank_start = s.mshr_grant.unwrap_or(arrive);
            if let Some(grant) = s.mshr_grant {
                if let Some(wait) = self.stage_delta(grant, arrive) {
                    blame[Blame::Mshr as usize] += wait;
                }
            }
            if let Some(send) = mc_send {
                // Miss owner: bank residency ends at the MC send.
                if let Some(lookup) = self.stage_delta(send, bank_start) {
                    blame[Blame::L2Miss as usize] += lookup;
                }
            } else if let Some(respond) = respond {
                let residency = self.stage_delta(respond, bank_start);
                if let Some(residency) = residency {
                    // Merged waiters spent their residency waiting on
                    // someone else's miss; plain hits on bank service.
                    let kind = if s.merged {
                        Blame::L2Miss
                    } else {
                        Blame::L2Hit
                    };
                    blame[kind as usize] += residency;
                }
            }
        }
        if let (Some(send), Some(resp)) = (mc_send, mc_respond) {
            if let Some(dram) = self.stage_delta(resp, send) {
                blame[Blame::Mc as usize] += dram;
            }
        }
        if let (Some(resp), Some(fill)) = (mc_respond, s.bank_fill) {
            if let Some(hop) = self.stage_delta(fill, resp) {
                blame[Blame::Noc as usize] += hop;
            }
        }
        if let Some(respond) = respond {
            // Miss owners are responded the cycle they fill, so the
            // fill → respond gap is zero and this hop completes the
            // partition for every request shape.
            if let Some(hop) = self.stage_delta(now, respond) {
                blame[Blame::Noc as usize] += hop;
            }
        }
        let cause = RequestCause {
            pc: s.pc,
            submit,
            blame,
        };
        if let Some(e2e) = self.stage_delta(now, submit) {
            self.stages[Stage::EndToEnd as usize].record(e2e);
        }
        if let Some(arrive) = bank_arrive {
            if let Some(noc) = self.stage_delta(arrive, submit) {
                self.stages[Stage::NocRequest as usize].record(noc);
            }
            // The bank stage ends when the request leaves toward the MC
            // (miss owners) or toward the response path (hits and
            // merged requests, whose MSHR wait is bank time).
            if let Some(bank_done) = mc_send.or(respond) {
                if let Some(bank_latency) = self.stage_delta(bank_done, arrive) {
                    self.stages[Stage::Bank as usize].record(bank_latency);
                    if let Some(h) = self.per_bank.get_mut(usize::from(s.slice.bank)) {
                        h.record(bank_latency);
                    }
                }
            }
        }
        if let (Some(send), Some(resp)) = (mc_send, mc_respond) {
            if let Some(mc_latency) = self.stage_delta(resp, send) {
                self.stages[Stage::Mc as usize].record(mc_latency);
                if let Some(h) = s.slice.mc.and_then(|m| self.per_mc.get_mut(usize::from(m))) {
                    h.record(mc_latency);
                }
            }
        }
        if let (Some(resp), Some(fill)) = (mc_respond, s.bank_fill) {
            if let Some(fill_latency) = self.stage_delta(fill, resp) {
                self.stages[Stage::NocFill as usize].record(fill_latency);
            }
        }
        if let Some(respond) = respond {
            if let Some(deliver) = self.stage_delta(now, respond) {
                self.stages[Stage::Deliver as usize].record(deliver);
            }
        }
        if self.collect_slices {
            if self.slices.len() < SLICE_CAP {
                self.slices.push(RequestSlice {
                    complete: now,
                    ..s.slice
                });
            } else {
                self.dropped_slices += 1;
            }
        }
        Some(cause)
    }

    /// Aggregate histogram for a lifecycle stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Per-bank histograms of the `Bank` stage (queueing + lookup +
    /// MSHR wait), indexed by global bank.
    #[must_use]
    pub fn per_bank(&self) -> &[Histogram] {
        &self.per_bank
    }

    /// Per-controller histograms of the `Mc` stage.
    #[must_use]
    pub fn per_mc(&self) -> &[Histogram] {
        &self.per_mc
    }

    /// Completed lifecycles retained for trace export (empty unless
    /// slice collection was enabled).
    #[must_use]
    pub fn slices(&self) -> &[RequestSlice] {
        &self.slices
    }

    /// Puts the retained slices in canonical order
    /// ([`RequestSlice::order_key`]), once, when the run ends. Caching
    /// the keys halves the time of sorting the records by them.
    pub fn order_slices(&mut self) {
        self.slices.sort_by_cached_key(RequestSlice::order_key);
    }

    /// Lifecycles discarded after [`SLICE_CAP`] was reached.
    #[must_use]
    pub fn dropped_slices(&self) -> u64 {
        self.dropped_slices
    }

    /// Stamp pairs observed out of order on completion (always 0 on a
    /// healthy event pipeline; a nonzero value means a lifecycle event
    /// fired before one of its predecessors).
    #[must_use]
    pub fn stamp_errors(&self) -> u64 {
        self.stamp_errors
    }

    /// Requests currently holding stamps (in flight).
    #[must_use]
    pub fn tracked_in_flight(&self) -> usize {
        self.stamps.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_stamps_record_without_errors() {
        let mut t = MemTelemetry::new(1, 1, false);
        t.on_submit(7, 100, 0x40, 0, 4, 0x8000);
        t.on_bank_arrive(7, 110);
        t.on_respond(7, 130);
        let cause = t.on_complete(7, 140).expect("tracked request");
        assert_eq!(t.stamp_errors(), 0);
        assert_eq!(t.stage(Stage::EndToEnd).count(), 1);
        assert_eq!(t.stage(Stage::EndToEnd).sum(), 40);
        assert_eq!(t.stage(Stage::Bank).sum(), 20);
        // Hit shape: 10 request hop + 20 bank + 10 response hop.
        assert_eq!(cause.pc, 0x8000);
        assert_eq!(cause.blame[Blame::Noc as usize], 20);
        assert_eq!(cause.blame[Blame::L2Hit as usize], 20);
        assert_eq!(cause.total(), 40);
        assert_eq!(cause.dominant(), Blame::Noc);
    }

    #[test]
    fn miss_owner_blame_partitions_end_to_end() {
        let mut t = MemTelemetry::new(1, 1, false);
        t.on_submit(3, 100, 0x40, 0, 4, 0x9000);
        t.on_bank_arrive(3, 110);
        t.on_mc_send(3, 114, 0);
        t.on_mc_respond(3, 164);
        t.on_bank_fill(3, 174);
        t.on_respond(3, 174);
        let cause = t.on_complete(3, 184).expect("tracked request");
        assert_eq!(t.stamp_errors(), 0);
        assert_eq!(cause.blame[Blame::Noc as usize], 30); // 10 + 10 + 10
        assert_eq!(cause.blame[Blame::L2Miss as usize], 4);
        assert_eq!(cause.blame[Blame::Mc as usize], 50);
        assert_eq!(cause.blame[Blame::Mshr as usize], 0);
        assert_eq!(cause.total(), 84);
        assert_eq!(cause.dominant(), Blame::Mc);
    }

    #[test]
    fn queued_then_merged_waiter_blames_mshr_and_miss_wait() {
        let mut t = MemTelemetry::new(1, 1, false);
        t.on_submit(5, 100, 0x40, 0, 4, 0xa000);
        t.on_bank_arrive(5, 110);
        t.on_mshr_grant(5, 150); // parked 40 cycles behind full MSHRs
        t.on_merge(5); // then merged into an in-flight miss
        t.on_respond(5, 180);
        let cause = t.on_complete(5, 190).expect("tracked request");
        assert_eq!(t.stamp_errors(), 0);
        assert_eq!(cause.blame[Blame::Mshr as usize], 40);
        assert_eq!(cause.blame[Blame::L2Miss as usize], 30);
        assert_eq!(cause.blame[Blame::L2Hit as usize], 0);
        assert_eq!(cause.blame[Blame::Noc as usize], 20);
        assert_eq!(cause.total(), 90);
    }

    #[test]
    fn misordered_stamp_pair_reports_error_instead_of_underflowing() {
        let mut t = MemTelemetry::new(1, 1, false);
        // Completion stamped *before* submission: an event-pipeline bug
        // that must surface as a counted error, not a ~u64::MAX sample.
        t.on_submit(9, 200, 0x80, 0, 4, 0);
        t.on_complete(9, 150);
        assert_eq!(t.stamp_errors(), 1);
        assert_eq!(t.stage(Stage::EndToEnd).count(), 0);

        // A misordered interior pair only skips its own stage — once in
        // the blame split and once in the histogram fold.
        let mut t = MemTelemetry::new(1, 1, false);
        t.on_submit(10, 100, 0xc0, 0, 4, 0);
        t.on_bank_arrive(10, 110);
        t.on_respond(10, 105); // before bank_arrive: bank stage invalid
        t.on_complete(10, 140);
        assert_eq!(t.stamp_errors(), 2);
        assert_eq!(t.stage(Stage::EndToEnd).count(), 1);
        assert_eq!(t.stage(Stage::Bank).count(), 0);
    }
}
