//! Request-lifecycle telemetry for the hierarchy.
//!
//! Every request carries its stage times (`Stamps`) in its slab entry,
//! written by the event handlers whether or not telemetry is on. When
//! telemetry is enabled (see
//! [`crate::hierarchy::Hierarchy::enable_telemetry`]), each completion
//! folds its entry's stamps once into per-stage latencies in log2
//! histograms — aggregate per [`Stage`], per bank (the `Bank` stage,
//! which includes queueing and MSHR wait), and per memory controller
//! (the `Mc` stage) — and, optionally, into bounded [`RequestSlice`]
//! records for Chrome-trace export.
//!
//! Only requests with `needs_response` complete: prefetches and
//! writebacks never do, so the end-to-end histogram count equals the
//! hierarchy's `completed` counter by construction.

use coyote_telemetry::{Blame, Histogram, RequestCause, Stage};

use crate::hierarchy::Request;

/// A stage a request skipped (hits and MSHR-merged requests never visit
/// the memory controller; only a queued request is granted an MSHR).
const UNSTAMPED: u64 = u64::MAX;

/// A stamp, `None` for a skipped stage.
fn stamped(cycle: u64) -> Option<u64> {
    (cycle != UNSTAMPED).then_some(cycle)
}

/// One request's stage times (cycles), [`UNSTAMPED`] for a stage it
/// skipped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamps {
    pub(crate) submit: u64,
    pub(crate) bank_arrive: u64,
    /// The cycle a request parked behind full MSHRs was woken:
    /// `bank_arrive → mshr_grant` is MSHR-full back-pressure.
    pub(crate) mshr_grant: u64,
    pub(crate) mc_send: u64,
    pub(crate) mc_respond: u64,
    pub(crate) bank_fill: u64,
    pub(crate) respond: u64,
    /// The serving memory controller, set when `McSend` is scheduled
    /// (the one place a request is routed to a controller).
    pub(crate) mc: u16,
    /// Merged into another in-flight miss to the same line: it never
    /// owns an MC round trip, and its bank residency is miss wait.
    pub(crate) merged: bool,
}

impl Stamps {
    /// A request submitted at `submit`, no stage reached yet.
    pub(crate) fn new(submit: u64) -> Stamps {
        Stamps {
            submit,
            bank_arrive: UNSTAMPED,
            mshr_grant: UNSTAMPED,
            mc_send: UNSTAMPED,
            mc_respond: UNSTAMPED,
            bank_fill: UNSTAMPED,
            respond: UNSTAMPED,
            mc: 0,
            merged: false,
        }
    }
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

/// The histograms and retained slices that completed requests fold
/// into.
#[derive(Debug, Clone)]
pub struct MemTelemetry {
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
            stages: std::array::from_fn(|_| Histogram::new()),
            per_bank: vec![Histogram::new(); banks],
            per_mc: vec![Histogram::new(); mcs],
            slices: Vec::with_capacity(if collect_slices { SLICE_CAP } else { 0 }),
            collect_slices,
            dropped_slices: 0,
            stamp_errors: 0,
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

    /// Folds a request completing at `now`, served by `bank`, into the
    /// stage histograms and returns its causal record: the issuing PC
    /// plus the request's end-to-end latency split across [`Blame`]
    /// categories. The split partitions `complete - submit` exactly
    /// (misordered stamp pairs drop their stage and are counted in
    /// [`MemTelemetry::stamp_errors`]):
    ///
    /// - `Noc`: request hop, fill hop (miss owners), and response hop;
    /// - `Mshr`: `bank_arrive → mshr_grant` back-pressure wait;
    /// - `L2Hit`: bank residency of a plain hit;
    /// - `L2Miss`: bank residency of a miss owner up to the MC send, or
    ///   of a merged waiter up to its response;
    /// - `Mc`: the owner's DRAM round-trip.
    pub(crate) fn on_complete(
        &mut self,
        s: &Stamps,
        req: &Request,
        bank: usize,
        now: u64,
    ) -> RequestCause {
        let (submit, bank_arrive, mshr_grant) =
            (s.submit, stamped(s.bank_arrive), stamped(s.mshr_grant));
        let (mc_send, mc_respond, bank_fill, respond) = (
            stamped(s.mc_send),
            stamped(s.mc_respond),
            stamped(s.bank_fill),
            stamped(s.respond),
        );
        let mut blame = [0u64; Blame::ALL.len()];
        if let Some(arrive) = bank_arrive {
            if let Some(hop) = self.stage_delta(arrive, submit) {
                blame[Blame::Noc as usize] += hop;
            }
            let bank_start = mshr_grant.unwrap_or(arrive);
            if let Some(grant) = mshr_grant {
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
        if let (Some(resp), Some(fill)) = (mc_respond, bank_fill) {
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
                    if let Some(h) = self.per_bank.get_mut(bank) {
                        h.record(bank_latency);
                    }
                }
            }
        }
        if let (Some(send), Some(resp)) = (mc_send, mc_respond) {
            if let Some(mc_latency) = self.stage_delta(resp, send) {
                self.stages[Stage::Mc as usize].record(mc_latency);
                if let Some(h) = self.per_mc.get_mut(usize::from(s.mc)) {
                    h.record(mc_latency);
                }
            }
        }
        if let (Some(resp), Some(fill)) = (mc_respond, bank_fill) {
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
                    line_addr: req.line_addr,
                    tag: req.tag,
                    submit,
                    complete: now,
                    bank_arrive: s.bank_arrive,
                    mc_send: s.mc_send,
                    mc_respond: s.mc_respond,
                    respond: s.respond,
                    bank: bank as u16,
                    mc: mc_send.map(|_| s.mc),
                });
            } else {
                self.dropped_slices += 1;
            }
        }
        RequestCause {
            pc: req.pc,
            submit,
            blame,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(pc: u64) -> Request {
        Request {
            line_addr: 0x40,
            tile: 0,
            needs_response: true,
            tag: 4,
            pc,
        }
    }

    #[test]
    fn ordered_stamps_record_without_errors() {
        let mut t = MemTelemetry::new(1, 1, false);
        let s = Stamps {
            bank_arrive: 110,
            respond: 130,
            ..Stamps::new(100)
        };
        let cause = t.on_complete(&s, &request(0x8000), 0, 140);
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
        let mut t = MemTelemetry::new(1, 1, true);
        let s = Stamps {
            bank_arrive: 110,
            mc_send: 114,
            mc_respond: 164,
            bank_fill: 174,
            respond: 174,
            ..Stamps::new(100)
        };
        let cause = t.on_complete(&s, &request(0x9000), 0, 184);
        assert_eq!(t.stamp_errors(), 0);
        assert_eq!(cause.blame[Blame::Noc as usize], 30); // 10 + 10 + 10
        assert_eq!(cause.blame[Blame::L2Miss as usize], 4);
        assert_eq!(cause.blame[Blame::Mc as usize], 50);
        assert_eq!(cause.blame[Blame::Mshr as usize], 0);
        assert_eq!(cause.total(), 84);
        assert_eq!(cause.dominant(), Blame::Mc);
        // The retained slice is built from the entry: its request, its
        // bank and controller, and the stages it reached.
        let slice = t.slices()[0];
        assert_eq!((slice.line_addr, slice.tag), (0x40, 4));
        assert_eq!((slice.submit, slice.complete), (100, 184));
        assert_eq!((slice.bank, slice.mc), (0, Some(0)));
        assert_eq!((slice.mc_send(), slice.respond()), (Some(114), Some(174)));
        assert_eq!(t.per_mc()[0].count(), 1);
    }

    #[test]
    fn queued_then_merged_waiter_blames_mshr_and_miss_wait() {
        let mut t = MemTelemetry::new(1, 1, true);
        let s = Stamps {
            bank_arrive: 110,
            // Parked 40 cycles behind full MSHRs, then merged into an
            // in-flight miss.
            mshr_grant: 150,
            merged: true,
            respond: 180,
            ..Stamps::new(100)
        };
        let cause = t.on_complete(&s, &request(0xa000), 0, 190);
        assert_eq!(t.stamp_errors(), 0);
        assert_eq!(cause.blame[Blame::Mshr as usize], 40);
        assert_eq!(cause.blame[Blame::L2Miss as usize], 30);
        assert_eq!(cause.blame[Blame::L2Hit as usize], 0);
        assert_eq!(cause.blame[Blame::Noc as usize], 20);
        assert_eq!(cause.total(), 90);
        // A request that never reached a controller names none.
        assert_eq!(t.slices()[0].mc, None);
        assert_eq!(t.per_mc()[0].count(), 0);
    }

    #[test]
    fn misordered_stamp_pair_reports_error_instead_of_underflowing() {
        let mut t = MemTelemetry::new(1, 1, false);
        // Completion stamped *before* submission: an event-pipeline bug
        // that must surface as a counted error, not a ~u64::MAX sample.
        t.on_complete(&Stamps::new(200), &request(0), 0, 150);
        assert_eq!(t.stamp_errors(), 1);
        assert_eq!(t.stage(Stage::EndToEnd).count(), 0);

        // A misordered interior pair only skips its own stage — once in
        // the blame split and once in the histogram fold.
        let mut t = MemTelemetry::new(1, 1, false);
        let s = Stamps {
            bank_arrive: 110,
            respond: 105, // before bank_arrive: bank stage invalid
            ..Stamps::new(100)
        };
        t.on_complete(&s, &request(0), 0, 140);
        assert_eq!(t.stamp_errors(), 2);
        assert_eq!(t.stage(Stage::EndToEnd).count(), 1);
        assert_eq!(t.stage(Stage::Bank).count(), 0);
    }
}
