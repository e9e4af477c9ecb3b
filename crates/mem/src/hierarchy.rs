//! The event-driven memory hierarchy below the L1s.
//!
//! Reproduces the paper's Sparta-modelled half of Coyote: L1 misses are
//! submitted as [`Request`]s, travel over the NoC to an L2 bank chosen
//! by the [`MappingPolicy`], possibly on to a memory controller, and
//! come back as [`Completion`]s that the orchestrator routes to the
//! issuing core.
//!
//! Request pipeline (each `→` is an event):
//!
//! ```text
//! submit → [NoC] → bank lookup ─ hit ──────────→ [NoC] → completion
//!                      │ miss (MSHR, merge, queue)
//!                      └→ [NoC] → MC (queue+latency) → [NoC] → fill → [NoC] → completion
//! ```

use std::fmt;

use crate::event::{content_rank, Domain, EventQueue};
use crate::fastmap::FastMap;
use crate::l2::{BankStats, L2Bank, L2Config, Lookup};
use crate::mapping::MappingPolicy;
use crate::mc::{McConfig, McStats, MemoryController};
use crate::noc::{Noc, NocModel, NocNode, NocStats};
use crate::telemetry::{MemTelemetry, Stamps};

/// Largest value [`HierarchyConfig::validate`] accepts for any latency
/// or occupancy that is added to an event time: 2^20 cycles, four
/// orders of magnitude above the default DRAM access. A request sums a
/// handful of these onto the current cycle, so an unbounded one wraps
/// `u64` (a debug-build panic, a silently *shorter* stall in release).
pub const MAX_LATENCY: u64 = 1 << 20;

/// Largest total L2 bank count [`HierarchyConfig::validate`] accepts:
/// four banks for each of the 4096 tiles the largest accepted machine
/// can have, 256x the paper's 128-core system. Every bank owns a tag
/// array, so an unbounded count turns a typo into a run that never
/// starts.
pub const MAX_BANKS: usize = 16_384;

/// Whether the L2 is shared across tiles or private per tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Sharing {
    /// All banks serve all tiles; a request may cross the NoC to a
    /// remote tile's bank.
    Shared,
    /// A tile's requests are served only by its own banks.
    Private,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Number of compute tiles.
    pub tiles: usize,
    /// L2 banks per tile.
    pub banks_per_tile: usize,
    /// Per-bank L2 geometry and timing.
    pub l2: L2Config,
    /// Shared or tile-private L2.
    pub sharing: L2Sharing,
    /// Bank-selection policy.
    pub mapping: MappingPolicy,
    /// NoC model.
    pub noc: NocModel,
    /// Memory controllers.
    pub mc: McConfig,
    /// Next-line prefetch degree at the L2 banks: on a demand miss,
    /// speculatively fetch this many sequential lines (0 = off, the
    /// paper's baseline; prefetching is the paper's named future work).
    pub prefetch_degree: usize,
    /// Schedule-perturbation seed (0 = the canonical order). A nonzero
    /// seed permutes the firing order of same-cycle events in
    /// *different* arbitration domains — a legal reordering under the
    /// event contract (see [`crate::event`]) that must not change any
    /// simulation observable; the equivalence tests run workloads under
    /// several seeds and diff the results.
    pub perturb_seed: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            tiles: 1,
            banks_per_tile: 4,
            l2: L2Config::default(),
            sharing: L2Sharing::Shared,
            mapping: MappingPolicy::SetInterleave,
            noc: NocModel::default(),
            mc: McConfig::default(),
            prefetch_degree: 0,
            perturb_seed: 0,
        }
    }
}

impl HierarchyConfig {
    /// Validates the composite configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiles == 0 || self.banks_per_tile == 0 {
            return Err("tiles and banks_per_tile must be positive".to_owned());
        }
        if self
            .tiles
            .checked_mul(self.banks_per_tile)
            .is_none_or(|banks| banks > MAX_BANKS)
        {
            return Err(format!(
                "{} tiles x {} banks_per_tile exceeds the supported maximum of {MAX_BANKS} L2 banks",
                self.tiles, self.banks_per_tile
            ));
        }
        self.l2.validate()?;
        self.mc.validate()?;
        if let MappingPolicy::PageToBank { page_bytes } = self.mapping {
            if !page_bytes.is_power_of_two() || page_bytes < self.l2.line_bytes {
                return Err(format!(
                    "page size {page_bytes} must be a power of two of at least one {}-byte line",
                    self.l2.line_bytes
                ));
            }
        }
        if let NocModel::Mesh { width, height, .. } = self.noc {
            // `checked_mul`: a grid too large to count is refused too,
            // not multiplied into an overflow.
            if width
                .checked_mul(height)
                .is_none_or(|nodes| nodes < self.tiles)
            {
                return Err(format!(
                    "mesh {width}x{height} cannot hold {} tiles",
                    self.tiles
                ));
            }
        }
        for (field, cycles) in [
            ("NoC traversal latency", self.worst_noc_latency()),
            ("L2 hit_latency", self.l2.hit_latency),
            ("L2 miss_latency", self.l2.miss_latency),
            ("MC access_latency", self.mc.access_latency),
            ("MC cycles_per_line", self.mc.cycles_per_line),
            ("MC row_hit_latency", self.mc.row_hit_latency),
            ("MC row_miss_latency", self.mc.row_miss_latency),
        ] {
            if cycles > MAX_LATENCY {
                return Err(format!(
                    "{field} {cycles} exceeds the supported maximum of {MAX_LATENCY} cycles"
                ));
            }
        }
        Ok(())
    }

    /// The worst traversal the NoC can charge; for a mesh, injection
    /// overhead plus one hop per row and column.
    fn worst_noc_latency(&self) -> u64 {
        match self.noc {
            NocModel::IdealCrossbar {
                request_latency,
                response_latency,
            } => request_latency.max(response_latency),
            NocModel::Mesh {
                width,
                height,
                hop_latency,
                base_latency,
            } => {
                let hops = (width as u64).saturating_add(height as u64);
                base_latency.saturating_add(hop_latency.saturating_mul(hops))
            }
        }
    }

    /// The longest delay one event handler adds to the cycle it runs in
    /// when no memory channel queues — what the event wheel is sized
    /// by: a hit's lookup plus its response hop, a miss's lookup plus
    /// miss latency, the hop to a controller plus one line's transfer
    /// and the slowest device access, a prefetch's one cycle (112 at the
    /// defaults, a 128-cycle wheel). Channel queueing has no bound;
    /// those events wait in the wheel's overflow.
    fn max_event_delay(&self) -> u64 {
        let noc = self.worst_noc_latency();
        let device = if self.mc.row_bytes == 0 {
            self.mc.access_latency
        } else {
            self.mc.row_hit_latency.max(self.mc.row_miss_latency)
        };
        [
            noc.saturating_add(self.l2.hit_latency),
            self.l2.hit_latency.saturating_add(self.l2.miss_latency),
            noc.saturating_add(self.mc.cycles_per_line)
                .saturating_add(device),
            1,
        ]
        .into_iter()
        .max()
        .unwrap_or(1)
    }

    /// Total bank count (at most [`MAX_BANKS`] once validated).
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.tiles * self.banks_per_tile
    }
}

/// An L1 miss entering the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Issuing tile.
    pub tile: usize,
    /// `false` for fire-and-forget writebacks.
    pub needs_response: bool,
    /// Opaque caller tag, returned in the [`Completion`].
    pub tag: u64,
    /// Program counter of the issuing instruction (0 for synthetic
    /// requests: prefetches and L2 victim writebacks). Carried on the
    /// causal record so stall cycles can be charged back to code.
    pub pc: u64,
}

/// A serviced miss leaving the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The tag from the originating [`Request`].
    pub tag: u64,
    /// The serviced line.
    pub line_addr: u64,
    /// The tile that issued the request.
    pub tile: usize,
    /// Causal record — issuing PC plus per-stage blame split — when
    /// telemetry is enabled; `None` otherwise.
    pub cause: Option<coyote_telemetry::RequestCause>,
}

/// A pipeline event, naming its request by slot in the request slab.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The request arrives at its bank.
    BankArrive(u32),
    /// The request leaves its bank toward the MC.
    McSend(u32),
    /// The request's data leaves the MC back toward the bank.
    McRespond(u32),
    /// The request's line is installed in the bank.
    BankFill(u32),
    /// The request's response reaches the requesting tile.
    Complete(u32),
}

impl Ev {
    fn name(self) -> &'static str {
        match self {
            Ev::BankArrive(_) => "bank-arrive",
            Ev::McSend(_) => "mc-send",
            Ev::McRespond(_) => "mc-respond",
            Ev::BankFill(_) => "bank-fill",
            Ev::Complete(_) => "complete",
        }
    }

    fn slot(self) -> u32 {
        match self {
            Ev::BankArrive(slot)
            | Ev::McSend(slot)
            | Ev::McRespond(slot)
            | Ev::BankFill(slot)
            | Ev::Complete(slot) => slot,
        }
    }
}

/// One fired event, captured when the event log is enabled (tests
/// compare two runs' logs and name the first divergent record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Cycle the event fired at.
    pub cycle: u64,
    /// Event kind (`bank-arrive`, `mc-send`, `mc-respond`, `bank-fill`,
    /// `complete`).
    pub kind: &'static str,
    /// The request's line address.
    pub line_addr: u64,
    /// The request's caller tag (0 for prefetches and writebacks).
    pub tag: u64,
    /// Serving bank (global index).
    pub bank: usize,
    /// Issuing tile.
    pub tile: usize,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {} {} line {:#x} tag {} bank {} tile {}",
            self.cycle, self.kind, self.line_addr, self.tag, self.bank, self.tile
        )
    }
}

/// Canonical same-cycle rank for an event: a fixed kind priority in the
/// top bits (within a bank, fills drain before fresh arrivals) and a
/// content hash below, so arbitration between colliding events depends
/// only on the requests themselves — never on the incidental order the
/// scheduling handlers ran in.
fn ev_rank(kind_priority: u64, kind_code: u64, state: &ReqState) -> u64 {
    let flags =
        u64::from(state.is_prefetch) | (u64::from(state.is_l2_writeback) << 1) | (kind_code << 2);
    (kind_priority << 61) | (content_rank(flags, state.req.line_addr, state.req.tag) >> 3)
}

/// One in-flight request: a slot of the hierarchy's request slab.
#[derive(Debug, Clone)]
struct ReqState {
    /// Stage times, written by the event handlers and folded into the
    /// telemetry once, on completion.
    stamps: Stamps,
    /// Submission order, unique over the run (slots are reused): names
    /// the oldest request of a line.
    seq: u64,
    req: Request,
    bank: usize,
    local_idx: u64,
    /// Synthesized L2-victim writebacks carry no MSHR and no response.
    is_l2_writeback: bool,
    /// Speculative next-line prefetch: fills quietly, never responds.
    is_prefetch: bool,
    /// The next request merged onto the same in-flight fill, or
    /// [`NO_SLOT`].
    next_waiter: u32,
}

const _: () = assert!(std::mem::size_of::<ReqState>() <= 136);

/// End of a waiter chain.
const NO_SLOT: u32 = u32::MAX;

/// The requests merged onto one in-flight fill, in arrival order: a
/// chain through [`ReqState::next_waiter`].
#[derive(Debug, Clone, Copy)]
struct Waiters {
    first: u32,
    last: u32,
}

impl Waiters {
    /// A prefetch's fill: nobody waits for it yet.
    const NONE: Waiters = Waiters {
        first: NO_SLOT,
        last: NO_SLOT,
    };

    fn one(slot: u32) -> Waiters {
        Waiters {
            first: slot,
            last: slot,
        }
    }
}

/// Aggregated hierarchy statistics.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Per-bank counters.
    pub banks: Vec<BankStats>,
    /// NoC counters.
    pub noc: NocStats,
    /// Per-MC counters.
    pub mcs: Vec<McStats>,
    /// Requests submitted.
    pub submitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Misses merged into an already-in-flight fill of the same line.
    pub merged: u64,
}

impl HierarchyStats {
    /// Total L2 hits across banks.
    #[must_use]
    pub fn l2_hits(&self) -> u64 {
        self.banks.iter().map(|b| b.hits).sum()
    }

    /// Total L2 misses across banks.
    #[must_use]
    pub fn l2_misses(&self) -> u64 {
        self.banks.iter().map(|b| b.misses).sum()
    }

    /// L2 miss rate over all banks.
    #[must_use]
    pub fn l2_miss_rate(&self) -> f64 {
        let total = self.l2_hits() + self.l2_misses();
        if total == 0 {
            0.0
        } else {
            self.l2_misses() as f64 / total as f64
        }
    }
}

/// The event-driven hierarchy.
///
/// In-flight requests live in a slab: a `Vec` of slots reused through a
/// free list. Events carry the slot, so a handler reaches its request by
/// index, and requests merged onto one fill chain through their slots.
/// Each fact about a request in flight is kept once: its stage times in
/// its slot, a bank's MSHRs as that bank's map of pending fills.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    banks: Vec<L2Bank>,
    /// Per-bank MSHR file: line → the requests merged onto its
    /// in-flight fill. One entry per MSHR held, at most `l2.mshrs`.
    bank_pending: Vec<FastMap<Waiters>>,
    noc: Noc,
    mcs: Vec<MemoryController>,
    events: EventQueue<Ev>,
    /// The request slab; `None` marks a free slot.
    states: Vec<Option<ReqState>>,
    free_states: Vec<u32>,
    next_seq: u64,
    completions_out: Vec<Completion>,
    submitted: u64,
    completed: u64,
    merged: u64,
    /// The fold of completed requests' stamps; checked once per
    /// completion.
    telemetry: Option<Box<MemTelemetry>>,
    /// Fired-event capture (off by default; see
    /// [`Hierarchy::set_event_log`]).
    event_log: Option<Vec<EventRecord>>,
}

impl Hierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for inconsistent
    /// configurations.
    pub fn new(config: HierarchyConfig) -> Result<Hierarchy, String> {
        config.validate()?;
        let total_banks = config.total_banks();
        Ok(Hierarchy {
            config,
            banks: (0..total_banks).map(|_| L2Bank::new(config.l2)).collect(),
            bank_pending: vec![FastMap::default(); total_banks],
            noc: Noc::new(config.noc, config.tiles, config.mc.count),
            mcs: (0..config.mc.count)
                .map(|_| MemoryController::new(config.mc))
                .collect(),
            events: EventQueue::with_max_delay(config.max_event_delay(), config.perturb_seed),
            states: Vec::new(),
            free_states: Vec::new(),
            next_seq: 0,
            completions_out: Vec::new(),
            submitted: 0,
            completed: 0,
            merged: 0,
            telemetry: None,
            event_log: None,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Turns on the request-lifecycle telemetry: each completion from
    /// now on folds its stamps into it. With `collect_slices`, completed
    /// lifecycles are additionally retained (bounded) for Chrome-trace
    /// export.
    pub fn enable_telemetry(&mut self, collect_slices: bool) {
        self.telemetry = Some(Box::new(MemTelemetry::new(
            self.config.total_banks(),
            self.config.mc.count,
            collect_slices,
        )));
    }

    /// The lifecycle telemetry, if enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&MemTelemetry> {
        self.telemetry.as_deref()
    }

    /// The run is over: puts the retained request slices in their
    /// canonical order ([`MemTelemetry::order_slices`]).
    pub fn order_slices(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.order_slices();
        }
    }

    /// Outstanding MSHR entries per bank (instantaneous gauge).
    #[must_use]
    pub fn mshr_occupancy(&self) -> Vec<usize> {
        self.bank_pending.iter().map(FastMap::len).collect()
    }

    /// Requests parked waiting for an MSHR, summed over banks.
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        self.banks.iter().map(L2Bank::waiting_len).sum()
    }

    /// Requests in flight anywhere in the hierarchy (including
    /// prefetches and writebacks).
    #[must_use]
    pub fn in_flight_requests(&self) -> usize {
        self.states.len() - self.free_states.len()
    }

    /// Memory-controller channels busy at `now`, summed over
    /// controllers.
    #[must_use]
    pub fn mc_busy_channels(&self, now: u64) -> usize {
        self.mcs.iter().map(|m| m.busy_channels(now)).sum()
    }

    /// Diagnostic lookup: the home bank and issuing PC of the oldest
    /// in-flight request for `line_addr`, if any. Deterministic — the
    /// oldest is the lowest submission number, whichever slot holds it.
    /// Deadlock reports use this to name the MSHR a stalled core's
    /// waiting line is parked in.
    #[must_use]
    pub fn in_flight_line_info(&self, line_addr: u64) -> Option<(usize, u64)> {
        self.states
            .iter()
            .flatten()
            .filter(|state| state.req.line_addr == line_addr)
            .min_by_key(|state| state.seq)
            .map(|state| (state.bank, state.req.pc))
    }

    /// Which tile hosts a global bank index.
    fn bank_tile(&self, bank: usize) -> usize {
        bank / self.config.banks_per_tile
    }

    /// Selects the bank and bank-local index for a request.
    fn route(&self, req: &Request) -> (usize, u64) {
        let line_bytes = self.config.l2.line_bytes;
        match self.config.sharing {
            L2Sharing::Shared => {
                let banks = self.config.total_banks() as u64;
                let (bank, local) = self.config.mapping.map(req.line_addr, line_bytes, banks);
                (bank, local)
            }
            L2Sharing::Private => {
                let banks = self.config.banks_per_tile as u64;
                let (local_bank, local) = self.config.mapping.map(req.line_addr, line_bytes, banks);
                (req.tile * self.config.banks_per_tile + local_bank, local)
            }
        }
    }

    /// Files a request submitted at `now` in a free slab slot, numbered
    /// in submission order.
    fn alloc(
        &mut self,
        now: u64,
        req: Request,
        (bank, local_idx): (usize, u64),
        is_l2_writeback: bool,
        is_prefetch: bool,
    ) -> u32 {
        let state = ReqState {
            stamps: Stamps::new(now),
            seq: self.next_seq,
            req,
            bank,
            local_idx,
            is_l2_writeback,
            is_prefetch,
            next_waiter: NO_SLOT,
        };
        self.next_seq += 1;
        match self.free_states.pop() {
            Some(slot) => {
                self.states[slot as usize] = Some(state);
                slot
            }
            None => {
                self.states.push(Some(state));
                (self.states.len() - 1) as u32
            }
        }
    }

    /// Frees a request's slot, returning its state.
    fn release(&mut self, slot: u32) -> ReqState {
        self.free_states.push(slot);
        self.states[slot as usize]
            .take()
            .expect("a live request slot")
    }

    fn state(&self, slot: u32) -> &ReqState {
        self.states[slot as usize]
            .as_ref()
            .expect("a live request slot")
    }

    /// The stage times of a live request.
    fn stamps(&mut self, slot: u32) -> &mut Stamps {
        &mut self.states[slot as usize]
            .as_mut()
            .expect("a live request slot")
            .stamps
    }

    /// Whether `bank` has an MSHR free.
    fn mshr_free(&self, bank: usize) -> bool {
        self.bank_pending[bank].len() < self.config.l2.mshrs
    }

    /// Appends request `slot` to the waiters of `line`'s in-flight fill
    /// at `bank` and counts the merge; `false` when no fill of the line
    /// is pending there.
    fn merge(&mut self, bank: usize, line: u64, slot: u32) -> bool {
        let Some(waiters) = self.bank_pending[bank].get_mut(&line) else {
            return false;
        };
        match std::mem::replace(&mut waiters.last, slot) {
            NO_SLOT => waiters.first = slot,
            last => {
                self.states[last as usize]
                    .as_mut()
                    .expect("a waiting request is live")
                    .next_waiter = slot;
            }
        }
        self.merged += 1;
        self.stamps(slot).merged = true;
        true
    }

    /// Submits an L1 miss at the current cycle.
    pub fn submit(&mut self, now: u64, req: Request) {
        self.submitted += 1;
        let route = self.route(&req);
        let slot = self.alloc(now, req, route, false, false);
        let bank = route.0;
        let latency = self
            .noc
            .traverse_request(NocNode::Tile(req.tile), NocNode::Tile(self.bank_tile(bank)));
        self.schedule_ev(now + latency, Ev::BankArrive(slot));
    }

    /// Schedules a pipeline event under the arbitration contract: the
    /// domain names the component the handler mutates, and the rank is
    /// derived from the request content (see [`ev_rank`]).
    fn schedule_ev(&mut self, time: u64, ev: Ev) {
        let state = self.state(ev.slot());
        let (domain, rank) = match ev {
            // Within a bank, fills (priority 0) drain before arrivals
            // (priority 1): a same-cycle fill+arrival to one line is a
            // hit, canonically.
            Ev::BankArrive(_) => (Domain::Bank(state.bank), ev_rank(1, 0, state)),
            Ev::BankFill(_) => (Domain::Bank(state.bank), ev_rank(0, 3, state)),
            Ev::McSend(_) => {
                let mc = self
                    .config
                    .mc
                    .mc_for(state.req.line_addr, self.config.l2.line_bytes);
                (Domain::Mc(mc), ev_rank(0, 1, state))
            }
            // The MC-response hop mutates no arbitrated component (its
            // side effects are commutative NoC counters), so it is free
            // to reorder against everything.
            Ev::McRespond(_) => (Domain::Free, ev_rank(0, 2, state)),
            Ev::Complete(_) => (Domain::Tile(state.req.tile), ev_rank(0, 4, state)),
        };
        self.events.schedule_arb(time, domain, rank, ev);
    }

    /// Enables or disables fired-event capture. The log is consumed
    /// with [`Hierarchy::take_event_log`].
    pub fn set_event_log(&mut self, enabled: bool) {
        self.event_log = enabled.then(Vec::new);
    }

    /// Takes the captured event log (empty when logging is off).
    pub fn take_event_log(&mut self) -> Vec<EventRecord> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Advances the model to `now`, processing every event due at or
    /// before it; serviced requests are appended to `completions`.
    ///
    /// Call this every cycle (as the orchestrator does) or step `now`
    /// through [`Hierarchy::next_event_time`]: handler-relative delays
    /// are measured from `now`, so skipping past several distinct event
    /// times in one call would stretch modelled latencies.
    pub fn advance(&mut self, now: u64, completions: &mut Vec<Completion>) {
        let pops = self.events.pop_count();
        while let Some(ev) = self.events.pop_due(now) {
            self.log_event(now, ev);
            self.handle(now, ev);
        }
        if cfg!(debug_assertions) && self.events.pop_count() != pops {
            self.check_conservation();
        }
        completions.append(&mut self.completions_out);
    }

    /// Debug-build conservation checks after an advance that fired
    /// events: no bank holds more MSHRs than it has, and once no event
    /// is left nothing is in flight — no live slot, no queued request,
    /// no MSHR held.
    fn check_conservation(&self) {
        let held = self.mshr_occupancy();
        assert!(
            held.iter().all(|&n| n <= self.config.l2.mshrs),
            "MSHR overflow: {held:?}"
        );
        if self.events.is_empty() {
            assert!(
                self.states.iter().all(Option::is_none),
                "no event is pending but {} requests are in flight",
                self.in_flight_requests()
            );
            assert_eq!(
                (self.queued_requests(), held.iter().sum()),
                (0, 0),
                "requests queued or MSHRs held with no event pending"
            );
        }
    }

    fn log_event(&mut self, now: u64, ev: Ev) {
        let Some(log) = &mut self.event_log else {
            return;
        };
        if let Some(state) = &self.states[ev.slot() as usize] {
            log.push(EventRecord {
                cycle: now,
                kind: ev.name(),
                line_addr: state.req.line_addr,
                tag: state.req.tag,
                bank: state.bank,
                tile: state.req.tile,
            });
        }
    }

    /// The cycle of the earliest pending event (for fast-forwarding an
    /// otherwise idle system).
    #[must_use]
    pub fn next_event_time(&self) -> Option<u64> {
        self.events.next_time()
    }

    /// Total events ever drained from the queue — the host profiler's
    /// event-queue drain volume. Deterministic: a function of the
    /// simulated schedule, not of host timing.
    #[must_use]
    pub fn event_pops(&self) -> u64 {
        self.events.pop_count()
    }

    /// Whether any request is still in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight_requests() == 0 && self.events.is_empty()
    }

    /// Snapshot of all counters.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            banks: self.banks.iter().map(super::l2::L2Bank::stats).collect(),
            noc: self.noc.stats(),
            mcs: self
                .mcs
                .iter()
                .map(super::mc::MemoryController::stats)
                .collect(),
            submitted: self.submitted,
            completed: self.completed,
            merged: self.merged,
        }
    }

    fn handle(&mut self, now: u64, ev: Ev) {
        match ev {
            Ev::BankArrive(slot) => self.on_bank_arrive(now, slot),
            Ev::McSend(slot) => self.on_mc_send(now, slot),
            Ev::McRespond(slot) => self.on_mc_respond(now, slot),
            Ev::BankFill(slot) => self.on_bank_fill(now, slot),
            Ev::Complete(slot) => self.on_complete(now, slot),
        }
    }

    fn on_bank_arrive(&mut self, now: u64, slot: u32) {
        let state = self.state(slot);
        let (bank, local_idx) = (state.bank, state.local_idx);
        let Request {
            line_addr,
            tile,
            needs_response,
            ..
        } = state.req;
        let is_prefetch = state.is_prefetch;
        self.stamps(slot).bank_arrive = now;
        if is_prefetch {
            // Prefetches are best-effort: drop if the line is resident,
            // already being fetched, or no MSHR is free.
            let resident = self.banks[bank].probe_quiet(line_addr, local_idx);
            let in_flight = self.bank_pending[bank].contains_key(&line_addr);
            if resident || in_flight || !self.mshr_free(bank) {
                self.release(slot);
                return;
            }
            self.bank_pending[bank].insert(line_addr, Waiters::NONE);
            self.schedule_ev(now + self.config.l2.miss_latency, Ev::McSend(slot));
            return;
        }
        match self.banks[bank].lookup(line_addr, local_idx, !needs_response) {
            Lookup::Hit => {
                if needs_response {
                    let hit_latency = self.config.l2.hit_latency;
                    self.schedule_response(now + hit_latency, slot);
                } else {
                    // Writeback absorbed by the bank (line marked dirty).
                    self.release(slot);
                }
            }
            Lookup::Miss => {
                let lookup_done = now + self.config.l2.hit_latency;
                if needs_response {
                    // Merge with an in-flight fill of the same line.
                    if self.merge(bank, line_addr, slot) {
                        return;
                    }
                    if self.mshr_free(bank) {
                        self.bank_pending[bank].insert(line_addr, Waiters::one(slot));
                        self.schedule_ev(
                            lookup_done + self.config.l2.miss_latency,
                            Ev::McSend(slot),
                        );
                    } else {
                        self.banks[bank].enqueue_waiting(u64::from(slot));
                    }
                    self.issue_prefetches(now, line_addr, tile);
                } else {
                    // Writeback missing in L2: forward to memory.
                    self.schedule_ev(lookup_done, Ev::McSend(slot));
                }
            }
        }
    }

    /// Issues next-line prefetches triggered by a demand miss to
    /// `line_addr` from `tile`. Each candidate is routed through the
    /// normal mapping (it may land on a different bank) and enters that
    /// bank one cycle later.
    fn issue_prefetches(&mut self, now: u64, line_addr: u64, tile: usize) {
        for i in 1..=self.config.prefetch_degree as u64 {
            let req = Request {
                line_addr: line_addr.wrapping_add(i * self.config.l2.line_bytes),
                tile,
                needs_response: false,
                tag: 0,
                pc: 0,
            };
            let route = self.route(&req);
            let slot = self.alloc(now, req, route, false, true);
            self.schedule_ev(now + 1, Ev::BankArrive(slot));
        }
    }

    fn on_mc_send(&mut self, now: u64, slot: u32) {
        let state = self.state(slot);
        let (bank, line_addr) = (state.bank, state.req.line_addr);
        let write = !state.req.needs_response && !state.is_prefetch;
        let mc_index = self.config.mc.mc_for(line_addr, self.config.l2.line_bytes);
        let stamps = self.stamps(slot);
        stamps.mc_send = now;
        stamps.mc = mc_index as u16;
        let bank_tile = self.bank_tile(bank);
        let latency = self
            .noc
            .traverse_request(NocNode::Tile(bank_tile), NocNode::Mc(mc_index));
        let done =
            self.mcs[mc_index].service(now + latency, line_addr, self.config.l2.line_bytes, write);
        if write {
            // Writebacks (L1-originated or L2 victims) are absorbed.
            self.release(slot);
        } else {
            self.schedule_ev(done, Ev::McRespond(slot));
        }
    }

    fn on_mc_respond(&mut self, now: u64, slot: u32) {
        let state = self.state(slot);
        let (bank, line_addr) = (state.bank, state.req.line_addr);
        self.stamps(slot).mc_respond = now;
        let mc_index = self.config.mc.mc_for(line_addr, self.config.l2.line_bytes);
        let bank_tile = self.bank_tile(bank);
        let latency = self
            .noc
            .traverse_response(NocNode::Mc(mc_index), NocNode::Tile(bank_tile));
        self.schedule_ev(now + latency, Ev::BankFill(slot));
    }

    fn on_bank_fill(&mut self, now: u64, slot: u32) {
        let state = self.state(slot);
        let (bank, local_idx) = (state.bank, state.local_idx);
        let (line_addr, tile, is_prefetch) =
            (state.req.line_addr, state.req.tile, state.is_prefetch);
        self.stamps(slot).bank_fill = now;
        // Install the line; a dirty victim becomes a synthesized
        // writeback to memory.
        if let Some(victim) = self.banks[bank].fill(line_addr, local_idx, false, is_prefetch) {
            let req = Request {
                line_addr: victim,
                tile,
                needs_response: false,
                tag: 0,
                pc: 0,
            };
            let wb = self.alloc(now, req, (bank, 0), true, false);
            self.schedule_ev(now, Ev::McSend(wb));
        }
        // Free the line's MSHR and respond to every request merged onto
        // it (before waking queued requests, so a same-line waiter is
        // not answered twice). Waiters are demand misses: a prefetch
        // never merges or queues.
        let waiters = self.bank_pending[bank]
            .remove(&line_addr)
            .unwrap_or(Waiters::NONE);
        let mut waiter = waiters.first;
        while waiter != NO_SLOT {
            let next = self.state(waiter).next_waiter;
            self.schedule_response(now, waiter);
            waiter = next;
        }
        if is_prefetch {
            self.release(slot);
        }
        // Wake one queued request now that an MSHR is free.
        if let Some(waiting) = self.banks[bank].pop_waiting() {
            let waiting = waiting as u32;
            let state = self.state(waiting);
            let (wbank, line) = (state.bank, state.req.line_addr);
            self.stamps(waiting).mshr_grant = now;
            // A fetch for this line may have started while the request
            // sat in the queue; merge instead of fetching twice.
            if !self.merge(wbank, line, waiting) {
                self.bank_pending[wbank].insert(line, Waiters::one(waiting));
                // Lookup was already paid on arrival; only the miss path
                // remains.
                self.schedule_ev(now + self.config.l2.miss_latency, Ev::McSend(waiting));
            }
        }
    }

    fn schedule_response(&mut self, now: u64, slot: u32) {
        let state = self.state(slot);
        let (bank, tile) = (state.bank, state.req.tile);
        self.stamps(slot).respond = now;
        let bank_tile = self.bank_tile(bank);
        let latency = self
            .noc
            .traverse_response(NocNode::Tile(bank_tile), NocNode::Tile(tile));
        self.schedule_ev(now + latency, Ev::Complete(slot));
    }

    fn on_complete(&mut self, now: u64, slot: u32) {
        let state = self.release(slot);
        debug_assert!(!state.is_l2_writeback);
        let cause = self
            .telemetry
            .as_mut()
            .map(|t| t.on_complete(&state.stamps, &state.req, state.bank, now));
        self.completed += 1;
        self.completions_out.push(Completion {
            tag: state.req.tag,
            line_addr: state.req.line_addr,
            tile: state.req.tile,
            cause,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HierarchyConfig {
        HierarchyConfig {
            tiles: 2,
            banks_per_tile: 2,
            l2: L2Config {
                bank_size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
                mshrs: 4,
                hit_latency: 10,
                miss_latency: 5,
            },
            sharing: L2Sharing::Shared,
            mapping: MappingPolicy::SetInterleave,
            noc: NocModel::IdealCrossbar {
                request_latency: 8,
                response_latency: 8,
            },
            mc: McConfig {
                count: 2,
                channels_per_mc: 4,
                access_latency: 100,
                cycles_per_line: 4,
                ..McConfig::default()
            },
            prefetch_degree: 0,
            perturb_seed: 0,
        }
    }

    /// Runs the hierarchy until idle, returning (cycle, completions).
    fn drain(h: &mut Hierarchy, from: u64) -> (u64, Vec<Completion>) {
        let mut out = Vec::new();
        let mut now = from;
        while !h.is_idle() {
            now = h.next_event_time().unwrap_or(now + 1).max(now);
            h.advance(now, &mut out);
        }
        (now, out)
    }

    #[test]
    fn event_wheel_spans_the_longest_handler_delay() {
        // At the defaults the controller leg is the longest: an 8-cycle
        // hop, a 4-cycle line transfer, a 100-cycle DRAM access.
        assert_eq!(HierarchyConfig::default().max_event_delay(), 112);
        // A slow bank and a fast DRAM make a hit's lookup plus its
        // response hop the longest.
        let mut cfg = config();
        cfg.l2.hit_latency = 300;
        cfg.mc.access_latency = 1;
        assert_eq!(cfg.max_event_delay(), 308);
        // With the open-page model the slower device latency counts.
        let mut cfg = HierarchyConfig::default();
        cfg.mc.row_bytes = 2048;
        assert_eq!(cfg.max_event_delay(), 8 + 4 + 160);
    }

    #[test]
    fn cold_miss_round_trip_latency() {
        let mut h = Hierarchy::new(config()).unwrap();
        h.submit(
            0,
            Request {
                line_addr: 0x4000,
                tile: 0,
                needs_response: true,
                tag: 1,
                pc: 0,
            },
        );
        let (done, out) = drain(&mut h, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 1);
        // Line 0x4000 with 4 banks set-interleaved: bank = (0x4000/64)%4
        // = 0 → tile 0, so the tile→bank and bank→tile NoC hops are
        // local (0 cycles). Path: lookup(10) + miss(5) + NoC(8) +
        // MC(4+100) + NoC(8) + fill/respond(0).
        assert_eq!(done, 10 + 5 + 8 + 104 + 8);
        let stats = h.stats();
        assert_eq!(stats.l2_misses(), 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn second_access_hits_in_l2() {
        let mut h = Hierarchy::new(config()).unwrap();
        let req = Request {
            line_addr: 0x4000,
            tile: 0,
            needs_response: true,
            tag: 1,
            pc: 0,
        };
        h.submit(0, req);
        let (t1, _) = drain(&mut h, 0);
        h.submit(t1, Request { tag: 2, ..req });
        let (t2, out) = drain(&mut h, t1);
        assert_eq!(out.len(), 1);
        // Hit path: local NoC (0) + hit latency + local response (0).
        assert_eq!(t2 - t1, 10);
        assert_eq!(h.stats().l2_hits(), 1);
    }

    #[test]
    fn concurrent_misses_to_same_line_merge() {
        let mut h = Hierarchy::new(config()).unwrap();
        for tag in 0..4 {
            h.submit(
                0,
                Request {
                    line_addr: 0x8000,
                    tile: 0,
                    needs_response: true,
                    tag,
                    pc: 0,
                },
            );
        }
        let (_, out) = drain(&mut h, 0);
        assert_eq!(out.len(), 4);
        let stats = h.stats();
        assert_eq!(stats.merged, 3);
        assert_eq!(stats.mcs.iter().map(|m| m.reads).sum::<u64>(), 1);
    }

    #[test]
    fn mshr_exhaustion_queues_and_eventually_serves() {
        let mut cfg = config();
        cfg.l2.mshrs = 1;
        cfg.banks_per_tile = 1;
        cfg.tiles = 1;
        let mut h = Hierarchy::new(cfg).unwrap();
        // 8 distinct lines, all to the single bank with 1 MSHR.
        for i in 0..8u64 {
            h.submit(
                0,
                Request {
                    line_addr: i * 64,
                    tile: 0,
                    needs_response: true,
                    tag: i,
                    pc: 0,
                },
            );
        }
        let (_, out) = drain(&mut h, 0);
        assert_eq!(out.len(), 8);
        let stats = h.stats();
        assert!(stats.banks[0].mshr_stalls >= 6, "stalls: {stats:?}");
    }

    #[test]
    fn private_l2_keeps_requests_on_tile() {
        let mut cfg = config();
        cfg.sharing = L2Sharing::Private;
        let mut h = Hierarchy::new(cfg).unwrap();
        // Tile 1's request must be served by banks 2..4.
        h.submit(
            0,
            Request {
                line_addr: 0x4000,
                tile: 1,
                needs_response: true,
                tag: 7,
                pc: 0,
            },
        );
        let (_, out) = drain(&mut h, 0);
        assert_eq!(out.len(), 1);
        let stats = h.stats();
        let touched: Vec<usize> = stats
            .banks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.accesses() > 0)
            .map(|(i, _)| i)
            .collect();
        assert!(touched.iter().all(|&b| b >= 2), "banks {touched:?}");
    }

    #[test]
    fn writeback_is_fire_and_forget() {
        let mut h = Hierarchy::new(config()).unwrap();
        h.submit(
            0,
            Request {
                line_addr: 0xc000,
                tile: 0,
                needs_response: false,
                tag: 0,
                pc: 0,
            },
        );
        let (_, out) = drain(&mut h, 0);
        assert!(out.is_empty());
        // Missing in L2 → forwarded to memory as a write.
        assert_eq!(h.stats().mcs.iter().map(|m| m.writes).sum::<u64>(), 1);
    }

    #[test]
    fn next_line_prefetch_turns_misses_into_hits() {
        let mut cfg = config();
        cfg.tiles = 1;
        cfg.banks_per_tile = 1;
        // Stream 32 sequential lines twice: without prefetch, the first
        // pass misses on every line; with degree 2, later lines of the
        // first pass hit on prefetched data.
        let run_with = |degree: usize| {
            let mut c = cfg;
            c.prefetch_degree = degree;
            let mut h = Hierarchy::new(c).unwrap();
            let mut out = Vec::new();
            let mut now = 0u64;
            for i in 0..32u64 {
                h.submit(
                    now,
                    Request {
                        line_addr: i * 64,
                        tile: 0,
                        needs_response: true,
                        tag: i,
                        pc: 0,
                    },
                );
                // Space the requests out so prefetches can land.
                for _ in 0..300 {
                    now += 1;
                    h.advance(now, &mut out);
                }
            }
            while !h.is_idle() {
                now += 1;
                h.advance(now, &mut out);
            }
            (h.stats(), out.len())
        };
        let (base, base_done) = run_with(0);
        let (pf, pf_done) = run_with(2);
        assert_eq!(base_done, 32);
        assert_eq!(pf_done, 32);
        assert_eq!(base.banks[0].prefetch_fills, 0);
        assert!(pf.banks[0].prefetch_fills > 0);
        assert!(pf.banks[0].prefetch_useful > 0);
        assert!(
            pf.l2_hits() > base.l2_hits(),
            "prefetch should convert stream misses into hits: {} vs {}",
            pf.l2_hits(),
            base.l2_hits()
        );
    }

    #[test]
    fn determinism_same_input_same_timeline() {
        let run = || {
            let mut h = Hierarchy::new(config()).unwrap();
            for i in 0..64u64 {
                h.submit(
                    i / 4,
                    Request {
                        line_addr: (i * 37 % 50) * 64,
                        tile: (i % 2) as usize,
                        needs_response: i % 5 != 0,
                        tag: i,
                        pc: 0,
                    },
                );
            }
            let mut out = Vec::new();
            let mut now = 0;
            while !h.is_idle() {
                now += 1;
                h.advance(now, &mut out);
            }
            (now, out, format!("{:?}", h.stats()))
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn telemetry_stage_latencies_partition_end_to_end() {
        use coyote_telemetry::Stage;
        let mut h = Hierarchy::new(config()).unwrap();
        h.enable_telemetry(true);
        let mut now = 0;
        let mut out = Vec::new();
        // Mixed traffic: cold misses, same-line merges, re-reads that
        // hit, and fire-and-forget writebacks.
        for i in 0..48u64 {
            h.submit(
                now,
                Request {
                    line_addr: (i % 12) * 64,
                    tile: (i % 2) as usize,
                    needs_response: i % 7 != 0,
                    tag: i,
                    pc: 0,
                },
            );
            for _ in 0..8 {
                now += 1;
                h.advance(now, &mut out);
            }
        }
        while !h.is_idle() {
            now += 1;
            h.advance(now, &mut out);
        }
        let stats = h.stats();
        let t = h.telemetry().unwrap();
        // Every completed request is measured end to end; nothing else is.
        assert_eq!(t.stage(Stage::EndToEnd).count(), stats.completed);
        // The stages partition each request's lifetime exactly, so the
        // per-stage sums add up to the end-to-end sum.
        let partition: u64 = [
            Stage::NocRequest,
            Stage::Bank,
            Stage::Mc,
            Stage::NocFill,
            Stage::Deliver,
        ]
        .iter()
        .map(|&s| t.stage(s).sum())
        .sum();
        assert_eq!(partition, t.stage(Stage::EndToEnd).sum());
        // Per-MC histograms decompose the aggregate MC stage.
        let mc_total: u64 = t.per_mc().iter().map(Histogram::count).sum();
        assert_eq!(mc_total, t.stage(Stage::Mc).count());
        // Only MC round trips (one per miss owner) visit the MC stage.
        let owners = t.slices().iter().filter(|s| s.mc_send().is_some()).count() as u64;
        assert_eq!(t.stage(Stage::Mc).count(), owners);
        assert_eq!(t.stage(Stage::NocFill).count(), owners);
        assert!(owners < stats.completed, "merges and hits skip the MC");
        // Slices were retained for every completed request.
        assert_eq!(t.slices().len() as u64, stats.completed);
        assert_eq!(t.dropped_slices(), 0);
        for s in t.slices() {
            assert!(s.submit <= s.complete);
            if let (Some(send), Some(resp)) = (s.mc_send(), s.mc_respond()) {
                assert!(send <= resp);
            }
        }
    }

    #[test]
    fn completion_causes_partition_end_to_end_under_mshr_pressure() {
        use coyote_telemetry::{Blame, Stage};
        let mut cfg = config();
        cfg.tiles = 1;
        cfg.banks_per_tile = 1;
        cfg.l2.mshrs = 2;
        let mut h = Hierarchy::new(cfg).unwrap();
        h.enable_telemetry(true);
        // Distinct lines so six misses fight over two MSHRs, plus a
        // same-line reread that merges.
        let mut out: Vec<Completion> = Vec::new();
        for i in 0..6u64 {
            h.submit(
                0,
                Request {
                    line_addr: i * 64,
                    tile: 0,
                    needs_response: true,
                    tag: i,
                    pc: 0x1000 + i * 4,
                },
            );
        }
        h.submit(
            1,
            Request {
                line_addr: 0,
                tile: 0,
                needs_response: true,
                tag: 100,
                pc: 0x2000,
            },
        );
        let mut now = 1;
        while !h.is_idle() {
            now += 1;
            h.advance(now, &mut out);
        }
        assert_eq!(out.len(), 7);
        let t = h.telemetry().unwrap();
        assert_eq!(t.stamp_errors(), 0);
        // Every completion carries a cause whose blame split matches the
        // slice's end-to-end span exactly.
        let mut cause_total = 0u64;
        let mut mshr_blame = 0u64;
        for c in &out {
            let cause = c.cause.expect("telemetry enabled");
            let slice = t
                .slices()
                .iter()
                .find(|s| s.tag == c.tag)
                .expect("slice retained");
            // The cause carries this request's own stamps, not another's.
            let pc = if c.tag == 100 {
                0x2000
            } else {
                0x1000 + 4 * c.tag
            };
            assert_eq!(cause.pc, pc);
            assert_eq!(cause.submit, slice.submit);
            assert_eq!(cause.total(), slice.complete - slice.submit);
            cause_total += cause.total();
            mshr_blame += cause.blame[Blame::Mshr as usize];
        }
        assert_eq!(cause_total, t.stage(Stage::EndToEnd).sum());
        assert!(mshr_blame > 0, "queued requests must blame MSHR pressure");
    }

    /// Stamps live in the slot of the request's slab entry: a request
    /// submitted into a slot another request freed gets a cause with
    /// its own pc and submit cycle, wave after wave.
    #[test]
    fn causes_keep_their_request_when_slab_slots_are_reused() {
        let mut h = Hierarchy::new(config()).unwrap();
        h.enable_telemetry(true);
        let pc_of = |tag: u64| 0x4000 + 8 * tag;
        let mut submitted_at = Vec::new();
        let mut out: Vec<Completion> = Vec::new();
        let mut now = 0;
        for wave in 0..8u64 {
            // Each wave rereads half the previous wave's lines (hits and
            // merges) and misses on the rest, while that wave drains.
            for i in 0..6u64 {
                let tag = wave * 6 + i;
                let line = if wave > 0 && i % 2 == 0 { tag - 6 } else { tag };
                h.submit(
                    now,
                    Request {
                        line_addr: line * 64,
                        tile: (i % 2) as usize,
                        needs_response: true,
                        tag,
                        pc: pc_of(tag),
                    },
                );
                submitted_at.push(now);
            }
            for _ in 0..60 {
                now += 1;
                h.advance(now, &mut out);
            }
        }
        let (_, rest) = drain(&mut h, now);
        out.extend(rest);
        assert_eq!(out.len(), submitted_at.len());
        assert!(
            h.states.len() <= submitted_at.len() / 2,
            "slots were reused"
        );
        let t = h.telemetry().unwrap();
        assert_eq!(t.stamp_errors(), 0);
        for c in &out {
            let cause = c.cause.expect("telemetry enabled");
            assert_eq!(cause.pc, pc_of(c.tag), "tag {}", c.tag);
            assert_eq!(cause.submit, submitted_at[c.tag as usize], "tag {}", c.tag);
        }
    }

    use coyote_telemetry::Histogram;

    #[test]
    fn disabled_telemetry_reports_none() {
        let mut h = Hierarchy::new(config()).unwrap();
        assert!(h.telemetry().is_none());
        h.submit(
            0,
            Request {
                line_addr: 0,
                tile: 0,
                needs_response: true,
                tag: 0,
                pc: 0,
            },
        );
        let (_, out) = drain(&mut h, 0);
        assert_eq!(out.len(), 1);
        assert!(h.telemetry().is_none());
    }

    #[test]
    fn occupancy_gauges_track_outstanding_work() {
        let mut cfg = config();
        cfg.l2.mshrs = 2;
        cfg.tiles = 1;
        cfg.banks_per_tile = 1;
        let mut h = Hierarchy::new(cfg).unwrap();
        for i in 0..6u64 {
            h.submit(
                0,
                Request {
                    line_addr: i * 64,
                    tile: 0,
                    needs_response: true,
                    tag: i,
                    pc: 0,
                },
            );
        }
        let mut out = Vec::new();
        // Step past the bank lookup so misses allocate MSHRs.
        let mut now = 0;
        while h.mshr_occupancy().iter().sum::<usize>() == 0 && !h.is_idle() {
            now += 1;
            h.advance(now, &mut out);
        }
        assert_eq!(h.mshr_occupancy(), vec![2]);
        assert_eq!(h.queued_requests(), 4);
        assert_eq!(h.in_flight_requests(), 6);
        let (_, rest) = drain(&mut h, now);
        assert_eq!(out.len() + rest.len(), 6);
        assert_eq!(h.mshr_occupancy(), vec![0]);
        assert_eq!(h.queued_requests(), 0);
        assert_eq!(h.in_flight_requests(), 0);
        assert_eq!(h.mc_busy_channels(now + 100_000), 0);
    }

    #[test]
    fn capacity_pressure_generates_l2_writebacks() {
        let mut cfg = config();
        cfg.tiles = 1;
        cfg.banks_per_tile = 1;
        cfg.l2.bank_size_bytes = 4096; // 64 lines
        cfg.l2.ways = 1;
        let mut h = Hierarchy::new(cfg).unwrap();
        let mut now = 0;
        let mut out = Vec::new();
        // Dirty the whole cache with L1 writebacks that miss and then
        // get filled... writebacks don't allocate; instead stream reads
        // then re-read far addresses to cause evictions. Evictions are
        // only dirty if a writeback marked them; so first fill, then
        // dirty them with writebacks, then evict.
        for i in 0..64u64 {
            h.submit(
                now,
                Request {
                    line_addr: i * 64,
                    tile: 0,
                    needs_response: true,
                    tag: i,
                    pc: 0,
                },
            );
        }
        while !h.is_idle() {
            now += 1;
            h.advance(now, &mut out);
        }
        for i in 0..64u64 {
            h.submit(
                now,
                Request {
                    line_addr: i * 64,
                    tile: 0,
                    needs_response: false,
                    tag: 0,
                    pc: 0,
                },
            );
        }
        while !h.is_idle() {
            now += 1;
            h.advance(now, &mut out);
        }
        // Conflicting fills evict the dirty lines.
        for i in 0..64u64 {
            h.submit(
                now,
                Request {
                    line_addr: 4096 + i * 64,
                    tile: 0,
                    needs_response: true,
                    tag: 100 + i,
                    pc: 0,
                },
            );
        }
        while !h.is_idle() {
            now += 1;
            h.advance(now, &mut out);
        }
        let stats = h.stats();
        assert_eq!(stats.banks[0].writebacks, 64);
        assert_eq!(stats.mcs.iter().map(|m| m.writes).sum::<u64>(), 64);
    }
}
