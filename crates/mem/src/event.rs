//! Deterministic discrete-event kernel with auditable tie arbitration.
//!
//! The Sparta framework's essential service to Coyote is a cycle-ordered
//! event queue driving modular components. [`EventQueue`] reproduces
//! that, with one addition: same-cycle ties are not broken by incidental
//! insertion order but by an explicit arbitration contract.
//!
//! Every event scheduled through [`EventQueue::schedule_arb`] carries
//!
//! * a [`Domain`] — the component whose state the handler will touch
//!   (an L2 bank, a memory controller, a tile's response port), and
//! * a `rank` — a canonical value derived from the *content* of the
//!   request (miss kind, line address, tag), independent of the order
//!   in which the scheduling handlers happened to run.
//!
//! Events due on the same cycle fire ordered by `(domain group, rank)`.
//! Within a domain this makes arbitration (MSHR grants, LRU stamping,
//! channel assignment) a deterministic function of the colliding
//! requests themselves. Across *different* domains the order is
//! irrelevant by design — handlers of distinct domains must touch
//! disjoint state. A nonzero perturbation seed permutes the
//! cross-domain group order (a legal reordering); any observable
//! difference versus the unperturbed run is a latent event-ordering
//! race, and the repository's event-log and equivalence tests check for
//! exactly that.
//!
//! # Order and storage
//!
//! Every event carries one key, `(time, domain group, content rank,
//! seq)` — `seq` is the scheduling sequence number, the last tiebreak —
//! and events fire in key order. The store is a timing wheel sized from
//! the longest delay a handler adds to the cycle it runs in (see
//! [`EventQueue::with_max_delay`]):
//!
//! * the *due list* holds every event at or before the *cursor*, the
//!   cycle being drained, sorted by key; an event scheduled into that
//!   cycle (or, legal if unusual, before it) is inserted at its key's
//!   place;
//! * `span` buckets, indexed by `time & (span - 1)`, hold the events of
//!   the next `span` cycles unsorted, chained through one node arena, so
//!   storage grows with the peak number of pending events, not with
//!   span times burst;
//! * an overflow heap holds events further out (a memory controller's
//!   channel queueing has no bound) and drains into the buckets as the
//!   cursor passes.
//!
//! Reaching a cycle sorts its bucket's few events into the due list, so
//! push and pop are O(1) apart from that small sort, and the pop order
//! is exactly that of a binary heap over the same key, perturbation
//! seeds included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The component state an event handler is allowed to mutate.
///
/// Two same-cycle events in the same domain are ordered by their
/// canonical rank (arbitration is content-deterministic). Two
/// same-cycle events in different domains may fire in either order —
/// the perturbation seed exercises both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// An L2 bank (tag array, MSHR file, waiting queue, merge table).
    Bank(usize),
    /// A memory controller (channels, open rows, queue accounting).
    Mc(usize),
    /// A tile's completion/response port.
    Tile(usize),
    /// Touches no arbitrated component state (e.g. a pure NoC hop whose
    /// only side effects are commutative counters).
    Free,
}

impl Domain {
    /// Stable encoding used for ordering and seed mixing.
    #[must_use]
    fn code(self) -> u64 {
        match self {
            Domain::Free => 0,
            Domain::Bank(i) => (1 << 32) | i as u64,
            Domain::Mc(i) => (2 << 32) | i as u64,
            Domain::Tile(i) => (3 << 32) | i as u64,
        }
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer used to
/// derive canonical ranks and to permute domain groups under a seed.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Canonical event rank from request content. The inputs must be
/// derivable from the request itself (never from scheduling order or
/// internal ids, which differ between perturbed runs).
#[must_use]
pub fn content_rank(kind: u64, line_addr: u64, tag: u64) -> u64 {
    mix64(kind ^ mix64(line_addr) ^ mix64(tag.wrapping_mul(0x2545_f491_4f6c_dd1d)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: u64,
    /// Domain group order within a cycle: the domain code, or its
    /// seed-mixed permutation under perturbation.
    group: u64,
    /// Canonical content rank within the domain group.
    rank: u64,
    /// Insertion sequence, the final tiebreak.
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    key: Key,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A bucket event in the node arena, or a free node.
#[derive(Debug, Clone)]
struct Node<T> {
    key: Key,
    /// The next node of the same bucket (or of the free chain).
    next: u32,
    /// `None` while the node is free.
    payload: Option<T>,
}

/// End of a node chain.
const NIL: u32 = u32::MAX;

/// The wheel span bounds, in cycles. The floor keeps the occupancy
/// bitmap in whole words; the cap bounds the empty buckets a config
/// with very long latencies would allocate (its later events wait in
/// the overflow heap instead).
const MIN_SPAN: u64 = 64;
const MAX_SPAN: u64 = 1 << 12;

/// The delay [`EventQueue::new`] sizes its wheel for: 128 cycles, the
/// span the memory hierarchy gets at its default configuration.
const DEFAULT_MAX_DELAY: u64 = 128;

/// A deterministic time-ordered event queue.
///
/// # Examples
///
/// ```
/// use coyote_mem::event::{Domain, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule_arb(5, Domain::Free, 0, "later");
/// q.schedule_arb(2, Domain::Bank(0), 9, "sooner-but-second");
/// q.schedule_arb(2, Domain::Bank(0), 1, "sooner");
/// assert_eq!(q.pop_due(2), Some("sooner")); // the lower rank first
/// assert_eq!(q.pop_due(2), Some("sooner-but-second"));
/// assert_eq!(q.pop_due(2), None); // "later" is not due yet
/// assert_eq!(q.next_time(), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Every event at or before `cursor`, sorted by key, latest first:
    /// the next event to fire is the last element.
    due: Vec<Entry<T>>,
    /// The cycle the due list was loaded for. Bucket events lie in
    /// `(cursor, cursor + span]`, overflow events beyond.
    cursor: u64,
    /// `span - 1`: the bucket of time `t` is `t & mask`.
    mask: u64,
    /// Per-bucket head of its node chain.
    heads: Vec<u32>,
    /// One bit per non-empty bucket.
    occupied: Vec<u64>,
    /// Node arena of the bucket chains.
    nodes: Vec<Node<T>>,
    /// Head of the free-node chain.
    free: u32,
    /// Events more than a span past the cursor.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// The earliest scheduled time, kept current by every push and pop
    /// (the orchestrator asks for it every cycle); `None` when empty.
    next: Option<u64>,
    seq: u64,
    /// 0 = canonical order; nonzero permutes cross-domain group order.
    perturb_seed: u64,
    /// Events ever popped (drained). A deterministic function of the
    /// simulated schedule; the host profiler exports it as the
    /// event-queue drain volume.
    pops: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue with canonical (unperturbed) ordering.
    #[must_use]
    pub fn new() -> EventQueue<T> {
        EventQueue::with_max_delay(DEFAULT_MAX_DELAY, 0)
    }

    /// Creates an empty queue whose wheel spans `max_delay` cycles past the cycle being
    /// drained, rounded up to a power of two within 64..=4096, and whose
    /// same-cycle cross-domain order is permuted by `seed` (0 means
    /// canonical order; every permutation is a legal ordering under the
    /// [`Domain`] contract). Size the wheel by the longest delay one
    /// handler adds to the cycle it runs in.
    /// The span is a speed knob only: an event scheduled further out
    /// waits in the overflow heap, and the pop order never depends on
    /// it.
    #[must_use]
    pub fn with_max_delay(max_delay: u64, seed: u64) -> EventQueue<T> {
        let span = max_delay.clamp(MIN_SPAN, MAX_SPAN).next_power_of_two();
        EventQueue {
            due: Vec::new(),
            cursor: 0,
            mask: span - 1,
            heads: vec![NIL; span as usize],
            occupied: vec![0; (span / 64) as usize],
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            next: None,
            seq: 0,
            perturb_seed: seed,
            pops: 0,
        }
    }

    /// Schedules `payload` at `time` under the arbitration contract:
    /// same-cycle ties fire ordered by domain group, then by the
    /// canonical `rank` (see [`content_rank`]). The handler must touch
    /// only the state of `domain` (plus commutative counters). Equal
    /// keys fire in scheduling order.
    pub fn schedule_arb(&mut self, time: u64, domain: Domain, rank: u64, payload: T) {
        let code = domain.code();
        let group = if self.perturb_seed == 0 {
            code
        } else {
            mix64(self.perturb_seed ^ code)
        };
        let key = Key {
            time,
            group,
            rank,
            seq: self.seq,
        };
        self.seq += 1;
        if self.next.is_none_or(|next| time < next) {
            self.next = Some(time);
        }
        self.place(Entry { key, payload });
    }

    /// Files an event by its distance from the cursor.
    fn place(&mut self, entry: Entry<T>) {
        let time = entry.key.time;
        if time <= self.cursor {
            let at = self.due.partition_point(|e| e.key > entry.key);
            self.due.insert(at, entry);
        } else if time - self.cursor <= self.mask + 1 {
            let bucket = (time & self.mask) as usize;
            let node = Node {
                key: entry.key,
                next: self.heads[bucket],
                payload: Some(entry.payload),
            };
            let index = if self.free == NIL {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            } else {
                let index = self.free;
                self.free = std::mem::replace(&mut self.nodes[index as usize], node).next;
                index
            };
            self.heads[bucket] = index;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.overflow.push(Reverse(entry));
        }
    }

    /// Pops the next event whose time is `<= now`, if any.
    // Inlined: the orchestrator asks every cycle, and most cycles have
    // nothing due.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.next.is_some_and(|next| next <= now) {
            return Some(self.pop_first());
        }
        // Nothing is due by `now`: move the cursor up to it, so what is
        // scheduled from `now` on finds its bucket, not the overflow.
        if self.due.is_empty() && now > self.cursor {
            self.cursor = now;
            if !self.overflow.is_empty() {
                self.refill();
            }
        }
        None
    }

    /// Pops the earliest event; the queue must not be empty.
    fn pop_first(&mut self) -> T {
        if self.due.is_empty() {
            let time = self.next.expect("a non-empty queue has a next time");
            self.load(time);
        }
        let entry = self
            .due
            .pop()
            .expect("the loaded cycle holds the earliest event");
        self.pops += 1;
        self.next = match self.due.last() {
            Some(e) => Some(e.key.time),
            None => self.scan_next(),
        };
        entry.payload
    }

    /// Moves the cursor to `time`, the earliest pending time, and sorts
    /// that cycle's events into the (empty) due list.
    fn load(&mut self, time: u64) {
        self.cursor = time;
        let bucket = (time & self.mask) as usize;
        let mut index = std::mem::replace(&mut self.heads[bucket], NIL);
        self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        while index != NIL {
            let node = &mut self.nodes[index as usize];
            let payload = node.payload.take().expect("a chained node holds an event");
            self.due.push(Entry {
                key: node.key,
                payload,
            });
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = index;
            index = next;
        }
        self.refill();
        self.due.sort_unstable_by_key(|e| Reverse(e.key));
    }

    /// Moves the overflow events now within a span of the cursor into
    /// the wheel.
    fn refill(&mut self) {
        let horizon = self.cursor.saturating_add(self.mask + 1);
        while self
            .overflow
            .peek()
            .is_some_and(|e| e.0.key.time <= horizon)
        {
            if let Some(Reverse(entry)) = self.overflow.pop() {
                self.place(entry);
            }
        }
    }

    /// The earliest pending time once the due list is empty: the first
    /// occupied bucket after the cursor, else the overflow's minimum.
    fn scan_next(&self) -> Option<u64> {
        let start = (self.cursor.wrapping_add(1) & self.mask) as usize;
        let (first, bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        // The start word from `bit` up, then every word in wheel order
        // (`words` is a power of two), ending on the start word again,
        // whose bits at or above `bit` are already known to be clear.
        let (mut word, mut bits) = (first, self.occupied[first] & (u64::MAX << bit));
        let mut step = 0;
        while bits == 0 {
            if step == words {
                return self.overflow.peek().map(|e| e.0.key.time);
            }
            step += 1;
            word = (first + step) & (words - 1);
            bits = self.occupied[word];
        }
        let bucket = word * 64 + bits.trailing_zeros() as usize;
        Some(self.cursor + 1 + ((bucket.wrapping_sub(start) as u64) & self.mask))
    }

    /// Total events ever popped from this queue.
    #[must_use]
    pub fn pop_count(&self) -> u64 {
        self.pops
    }

    /// The time of the earliest scheduled event.
    #[must_use]
    pub fn next_time(&self) -> Option<u64> {
        self.next
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_arb(10, Domain::Free, 0, 'c');
        q.schedule_arb(1, Domain::Bank(2), 0, 'a');
        q.schedule_arb(5, Domain::Tile(0), 0, 'b');
        assert_eq!(q.pop_due(10), Some('a'));
        assert_eq!(q.pop_due(10), Some('b'));
        assert_eq!(q.pop_due(10), Some('c'));
        assert_eq!(q.pop_due(10), None);
    }

    #[test]
    fn equal_keys_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_arb(7, Domain::Bank(1), 3, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_due(7), Some(i));
        }
    }

    #[test]
    fn not_due_events_stay() {
        let mut q = EventQueue::new();
        q.schedule_arb(5, Domain::Free, 0, ());
        assert_eq!(q.pop_due(4), None);
        assert!(!q.is_empty());
        assert_eq!(q.pop_due(5), Some(()));
        assert!(q.is_empty());
    }

    #[test]
    fn next_time_fast_forwards() {
        let mut q = EventQueue::new();
        q.schedule_arb(100, Domain::Free, 0, "far");
        assert_eq!(q.next_time(), Some(100));
        assert_eq!(q.pop_due(100), Some("far"));
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn arb_ties_order_by_rank_not_insertion() {
        let mut q = EventQueue::new();
        q.schedule_arb(3, Domain::Bank(0), 9, "high-rank");
        q.schedule_arb(3, Domain::Bank(0), 1, "low-rank");
        assert_eq!(q.pop_due(3), Some("low-rank"));
        assert_eq!(q.pop_due(3), Some("high-rank"));
    }

    #[test]
    fn same_domain_order_survives_perturbation() {
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            let mut q = EventQueue::with_max_delay(DEFAULT_MAX_DELAY, seed);
            q.schedule_arb(2, Domain::Mc(1), 40, 'b');
            q.schedule_arb(2, Domain::Mc(1), 30, 'a');
            q.schedule_arb(2, Domain::Mc(1), 50, 'c');
            assert_eq!(q.pop_due(2), Some('a'), "seed {seed}");
            assert_eq!(q.pop_due(2), Some('b'), "seed {seed}");
            assert_eq!(q.pop_due(2), Some('c'), "seed {seed}");
        }
    }

    #[test]
    fn perturbation_permutes_cross_domain_group_order() {
        let drain = |seed: u64| {
            let mut q = EventQueue::with_max_delay(DEFAULT_MAX_DELAY, seed);
            for bank in 0..8usize {
                q.schedule_arb(1, Domain::Bank(bank), 0, bank);
            }
            let mut order = Vec::new();
            while let Some(b) = q.pop_due(1) {
                order.push(b);
            }
            order
        };
        let canonical = drain(0);
        assert_eq!(canonical, (0..8).collect::<Vec<_>>());
        // At least one seed must produce a different cross-domain order
        // (with 8 groups, all 16 seeds agreeing is impossible in
        // practice and would mean the perturbation is inert).
        assert!(
            (1..=16u64).any(|seed| drain(seed) != canonical),
            "perturbation never changed cross-domain order"
        );
    }

    #[test]
    fn perturbation_never_reorders_across_time() {
        let mut q = EventQueue::with_max_delay(DEFAULT_MAX_DELAY, 42);
        q.schedule_arb(5, Domain::Bank(0), 0, "later");
        q.schedule_arb(2, Domain::Mc(3), u64::MAX, "sooner");
        assert_eq!(q.next_time(), Some(2));
        assert_eq!(q.pop_due(5), Some("sooner"));
        assert_eq!(q.pop_due(5), Some("later"));
    }

    #[test]
    fn events_past_the_span_wait_in_the_overflow() {
        // A 64-cycle wheel: 70, 197 and 1,000 start in the overflow; 70
        // moves into the bucket 6 leaves once the cursor reaches 6. All
        // fire in time order, and a same-cycle insert during the drain
        // takes its key's place.
        let mut q = EventQueue::with_max_delay(1, 0);
        for t in [1_000u64, 6, 70, 197] {
            q.schedule_arb(t, Domain::Free, 0, t);
        }
        assert_eq!(q.pop_due(6), Some(6));
        q.schedule_arb(6, Domain::Free, 0, 600);
        assert_eq!(q.next_time(), Some(6));
        assert_eq!(q.pop_due(6), Some(600));
        for t in [70, 197, 1_000] {
            assert_eq!(q.next_time(), Some(t));
            assert_eq!(q.pop_due(t), Some(t));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop_count(), 5);
    }

    #[test]
    fn content_rank_is_stable_and_spread() {
        let a = content_rank(1, 0x4000, 7);
        assert_eq!(a, content_rank(1, 0x4000, 7));
        assert_ne!(a, content_rank(2, 0x4000, 7));
        assert_ne!(a, content_rank(1, 0x4040, 7));
        assert_ne!(a, content_rank(1, 0x4000, 8));
    }
}
