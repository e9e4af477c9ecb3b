//! Causal stall attribution: per-core CPI stacks and critical-request
//! tracing.
//!
//! The orchestrator deactivates a core when it blocks on a register
//! dependency against an in-flight miss (or on an instruction-line
//! fill) and wakes it when the hierarchy delivers the fill.  The
//! observer (`observe.rs`) turns those transitions into intervals
//! of its per-core state table and hands each one here as it closes;
//! this module attributes every cycle of it to exactly one bucket of
//! the core's CPI stack:
//!
//! * `active` — the core executed (or attempted) an instruction;
//! * `dep_stall[blame]` — blocked on a RAW dependency, split by the
//!   memory-hierarchy stage that dominated the critical fill
//!   ([`Blame`] categories plus a catch-all `other` column);
//! * `fetch_stall` — blocked on an instruction-line fill;
//! * `drained` — halted while other cores kept running.
//!
//! The four buckets partition simulated time exactly: for every core,
//! `active + Σ dep_stall + fetch_stall + drained == cycles` however the
//! run ends (the invariant is property-tested).
//!
//! # Schedule insensitivity
//!
//! Attribution must not depend on event pop order inside a cycle (the
//! equivalence tests byte-compare metrics JSON across perturbed
//! schedules).  A core woken this cycle may have received several
//! fills in the same cycle, and their drain order is not part of the
//! simulation contract.  We therefore never attribute to "the
//! completion that flipped the core awake".  Instead every completion
//! delivered to a still-stalled core this cycle becomes a *candidate*,
//! and the interval is attributed to the canonical winner: maximum
//! end-to-end latency, ties broken by smallest PC, then smallest line
//! address, then smallest tag — all schedule-invariant quantities. Each
//! core keeps only its best candidate so far, so a wake elects its cause
//! in O(1).

use coyote_isa::RegSet;
use coyote_iss::core::CoreState;
use coyote_mem::hierarchy::Completion;
use coyote_telemetry::{Blame, RequestCause, TopK, BLAME_COLS};

use crate::chunks::Chunks;

/// Index of the catch-all `other` column in a dep-stall blame row
/// (used when memory telemetry is disabled and no [`RequestCause`]
/// accompanies the waking fill).
pub const BLAME_OTHER: usize = BLAME_COLS - 1;

/// Upper bound on retained [`StallLink`] records, so Chrome flow-event
/// generation stays bounded on long runs.  Overflow is counted in
/// [`StallAttribution::dropped_links`].
pub const LINK_CAP: usize = 100_000;

/// Links per chunk of a core's store (7 KiB).
const LINK_CHUNK: usize = 128;

/// One closed stall interval tied to the memory request that ended it.
///
/// Links are only recorded when Chrome tracing is enabled; they become
/// flow events binding the core's stall slice to the causing request
/// slice in the trace viewer. 56 bytes: the core is a `u32` (at most
/// [`crate::config::MAX_CORES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallLink {
    /// Cycle the stall interval opened.
    pub start: u64,
    /// Cycle the stall interval closed (wakeup).
    pub end: u64,
    /// Program counter of the instruction that issued the critical
    /// request.
    pub pc: u64,
    /// Line address of the critical request.
    pub line_addr: u64,
    /// Hierarchy tag of the critical request.
    pub tag: u64,
    /// Cycle the critical request entered the hierarchy.
    pub submit: u64,
    /// Core that stalled.
    pub core: u32,
    /// Stage that dominated the critical request's latency.
    pub blame: Blame,
}

const _: () = assert!(std::mem::size_of::<StallLink>() <= 56);

/// A completion delivered to a still-stalled core this cycle; one of
/// these per woken core is elected the interval's cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    line_addr: u64,
    tag: u64,
    cause: Option<RequestCause>,
}

/// Per-core CPI-stack accumulator plus the bounded critical-PC table.
///
/// Holds no core state of its own: the observer (`observe.rs`)
/// owns the per-core state table and reports each interval as it
/// closes, plus the fills that are candidates for ending a stall.
#[derive(Debug)]
pub struct StallAttribution {
    /// Blocked-register mask captured when a dep-stall opened
    /// (`[x | f << 32, v]`).
    stall_regs: Vec<[u64; 2]>,
    active: Vec<u64>,
    dep: Vec<[u64; BLAME_COLS]>,
    fetch: Vec<u64>,
    drained: Vec<u64>,
    top: TopK,
    /// Per core, in the order its stalls closed, which is the order of
    /// their starts: the links are in their canonical order (core, then
    /// start) as they are collected.
    links: Vec<Chunks<StallLink, LINK_CHUNK>>,
    kept_links: usize,
    collect_links: bool,
    dropped_links: u64,
    /// Per core, the best candidate of the current drain.
    best: Vec<Option<Candidate>>,
    /// The cores with a candidate in the current drain.
    touched: Vec<usize>,
}

impl StallAttribution {
    /// A fresh accumulator for `cores` cores and a critical-PC table
    /// bounded at `top_k` entries.  `collect_links` enables
    /// [`StallLink`] recording (Chrome flow events).
    #[must_use]
    pub fn new(cores: usize, top_k: usize, collect_links: bool) -> StallAttribution {
        StallAttribution {
            stall_regs: vec![[0, 0]; cores],
            active: vec![0; cores],
            dep: vec![[0; BLAME_COLS]; cores],
            fetch: vec![0; cores],
            drained: vec![0; cores],
            top: TopK::new(top_k),
            links: (0..cores).map(|_| Chunks::default()).collect(),
            kept_links: 0,
            collect_links,
            dropped_links: 0,
            best: vec![None; cores],
            touched: Vec::new(),
        }
    }

    /// `core` blocked on a register dependency: remember which
    /// registers, for the critical-PC table row its wake will credit.
    pub fn stalled_on(&mut self, core: usize, regs: &RegSet) {
        self.stall_regs[core] = [
            u64::from(regs.x) | u64::from(regs.f) << 32,
            u64::from(regs.v),
        ];
    }

    /// Record a fill (an instruction line if `fetch`) delivered to
    /// `core`, in `state` as this cycle's drain began, as a wake
    /// candidate if the core is stalled on the matching kind of request.
    pub fn note_completion(
        &mut self,
        core: usize,
        state: CoreState,
        fetch: bool,
        completion: &Completion,
    ) {
        let eligible = match state {
            CoreState::StalledDep => !fetch,
            CoreState::StalledFetch => fetch,
            CoreState::Active | CoreState::Halted(_) => false,
        };
        if !eligible {
            return;
        }
        let candidate = Candidate {
            line_addr: completion.line_addr,
            tag: completion.tag,
            cause: completion.cause,
        };
        match &mut self.best[core] {
            // On an exact tie the later candidate wins.
            Some(best) if Self::order(&candidate, best).is_lt() => {}
            Some(best) => *best = candidate,
            slot @ None => {
                *slot = Some(candidate);
                self.touched.push(core);
            }
        }
    }

    /// Charge the interval `since..end` that `core` spent in `state`
    /// to its bucket. A stall goes to the canonical cause among this
    /// cycle's candidates; with none (telemetry off, or a stall still
    /// open when the run ends) it lands in `other`.
    #[inline]
    pub fn close(&mut self, core: usize, state: CoreState, since: u64, end: u64) {
        let span = end.saturating_sub(since);
        match state {
            CoreState::Active => self.active[core] += span,
            CoreState::Halted(_) => self.drained[core] += span,
            CoreState::StalledDep => {
                let winner = self.elect(core);
                let blame = winner.and_then(|c| c.cause).map(|c| c.dominant());
                self.dep[core][blame.map_or(BLAME_OTHER, |b| b as usize)] += span;
                let regs = std::mem::take(&mut self.stall_regs[core]);
                self.credit(winner, core, since, end, span, regs);
            }
            CoreState::StalledFetch => {
                let winner = self.elect(core);
                self.fetch[core] += span;
                self.credit(winner, core, since, end, span, [0, 0]);
            }
        }
    }

    /// Ends a completion drain: its candidates can explain no later
    /// wake. Must follow every drain that delivered a fill, even one
    /// that woke nobody.
    pub fn end_drain(&mut self) {
        for core in self.touched.drain(..) {
            self.best[core] = None;
        }
    }

    /// The canonical wake cause for `core`: its best candidate of this
    /// drain. (A core's candidates are all of the kind it was stalled
    /// on.)
    fn elect(&self, core: usize) -> Option<Candidate> {
        self.best[core]
    }

    /// The election order: maximum end-to-end latency, ties to smallest
    /// PC, then line address, then tag.
    fn order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
        let ka = Self::rank(a);
        let kb = Self::rank(b);
        ka.0.cmp(&kb.0)
            .then(kb.1.cmp(&ka.1))
            .then(kb.2.cmp(&ka.2))
            .then(kb.3.cmp(&ka.3))
    }

    /// Ordering key: latency (maximized), then pc/line/tag (minimized).
    fn rank(c: &Candidate) -> (u64, u64, u64, u64) {
        let (total, pc) = c.cause.map_or((0, 0), |cause| (cause.total(), cause.pc));
        (total, pc, c.line_addr, c.tag)
    }

    /// Feed the critical-PC table and (optionally) the link log from a
    /// closed interval with an elected cause.
    fn credit(
        &mut self,
        winner: Option<Candidate>,
        core: usize,
        start: u64,
        end: u64,
        span: u64,
        regs: [u64; 2],
    ) {
        let Some(candidate) = winner else { return };
        let Some(cause) = candidate.cause else { return };
        self.top.add(cause.pc, span, cause.dominant(), regs);
        if self.collect_links {
            if self.kept_links < LINK_CAP {
                self.kept_links += 1;
                self.links[core].push(StallLink {
                    core: core as u32,
                    start,
                    end,
                    pc: cause.pc,
                    line_addr: candidate.line_addr,
                    tag: candidate.tag,
                    submit: cause.submit,
                    blame: cause.dominant(),
                });
            } else {
                self.dropped_links += 1;
            }
        }
    }

    /// Cycles each core spent executing.
    #[must_use]
    pub fn active(&self) -> &[u64] {
        &self.active
    }

    /// Dep-stall cycles per core, split by blame category
    /// ([`Blame::ALL`] order, then the `other` column).
    #[must_use]
    pub fn dep(&self) -> &[[u64; BLAME_COLS]] {
        &self.dep
    }

    /// Fetch-stall cycles per core.
    #[must_use]
    pub fn fetch(&self) -> &[u64] {
        &self.fetch
    }

    /// Cycles each core sat halted while the simulation kept running.
    #[must_use]
    pub fn drained(&self) -> &[u64] {
        &self.drained
    }

    /// The bounded critical-PC table.
    #[must_use]
    pub fn top(&self) -> &TopK {
        &self.top
    }

    /// Closed stall intervals retained for Chrome flow events, by core
    /// and, within a core, by start.
    pub fn links(&self) -> impl Iterator<Item = &StallLink> {
        self.links.iter().flat_map(Chunks::iter)
    }

    /// Links discarded after [`LINK_CAP`] was reached.
    #[must_use]
    pub fn dropped_links(&self) -> u64 {
        self.dropped_links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The election it replaced: the canonical winner among every
    /// candidate of the drain delivered to `core`, by a linear scan.
    fn linear_scan(candidates: &[(usize, Candidate)], core: usize) -> Option<Candidate> {
        candidates
            .iter()
            .filter(|(c, _)| *c == core)
            .map(|(_, candidate)| *candidate)
            .max_by(StallAttribution::order)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Over random drains of completions with duplicates and exact
        /// ties (equal rank, different cause), every core's elected
        /// cause is the linear scan's, before and after each drain ends.
        #[test]
        fn the_kept_best_candidate_is_the_linear_scans_winner(
            ops in proptest::collection::vec(
                (0u8..8, 0usize..3, 0u8..4, 0u64..3, 0u64..3, 0u64..3, 0u64..3, 0u64..3),
                0..80,
            ),
        ) {
            let states = [
                CoreState::StalledDep,
                CoreState::StalledFetch,
                CoreState::Active,
                CoreState::Halted(0),
            ];
            let mut attr = StallAttribution::new(3, 4, false);
            let mut reference = Vec::new();
            for (kind, core, state, line_addr, tag, pc, latency, submit) in ops {
                if kind == 0 {
                    attr.end_drain();
                    reference.clear();
                } else {
                    let fetch = kind % 2 == 0;
                    let state = states[state as usize];
                    // Equal totals split differently tie on rank but
                    // differ in cause.
                    let mut blame = [0; Blame::ALL.len()];
                    blame[(submit % 2) as usize] = latency;
                    let cause = (kind != 1).then_some(RequestCause { pc, submit, blame });
                    let completion = Completion { tag, line_addr, tile: 0, cause };
                    attr.note_completion(core, state, fetch, &completion);
                    let eligible = match state {
                        CoreState::StalledDep => !fetch,
                        CoreState::StalledFetch => fetch,
                        CoreState::Active | CoreState::Halted(_) => false,
                    };
                    if eligible {
                        reference.push((core, Candidate { line_addr, tag, cause }));
                    }
                }
                for c in 0..3 {
                    proptest::prop_assert_eq!(attr.elect(c), linear_scan(&reference, c));
                }
            }
        }
    }
}
