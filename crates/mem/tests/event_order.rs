//! The timing-wheel [`EventQueue`] against the binary heap it replaced.
//!
//! `HeapQueue` below is that heap, kept here as the reference: one
//! `BinaryHeap` over `(time, domain group, content rank, seq)`. Random
//! sequences of `schedule_arb` / `pop_due` / `next_time` / `is_empty` run
//! on both, and every answer must agree — which event pops, when, and
//! what the queue reports between pops. The sequences cover same-cycle
//! inserts during a drain, inserts before the cursor, times past the
//! wheel's span (the overflow heap), idle fast-forward through
//! `next_time` + `pop_due` (as the orchestrator skips idle cycles) and
//! the perturbation seeds 0, 1 and `u64::MAX`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use coyote_mem::event::{mix64, Domain, EventQueue};

/// `(time, group, rank, seq, payload)`: the key, then the event.
type Entry = (u64, u64, u64, u64, u64);

/// The reference: the binary-heap queue, ordering rules unchanged.
struct HeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    perturb_seed: u64,
    pops: u64,
}

impl HeapQueue {
    fn new(perturb_seed: u64) -> HeapQueue {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            perturb_seed,
            pops: 0,
        }
    }

    fn schedule_arb(&mut self, time: u64, domain: Domain, rank: u64, payload: u64) {
        let code = match domain {
            Domain::Free => 0,
            Domain::Bank(i) => (1 << 32) | i as u64,
            Domain::Mc(i) => (2 << 32) | i as u64,
            Domain::Tile(i) => (3 << 32) | i as u64,
        };
        let group = if self.perturb_seed == 0 {
            code
        } else {
            mix64(self.perturb_seed ^ code)
        };
        self.heap
            .push(Reverse((time, group, rank, self.seq, payload)));
        self.seq += 1;
    }

    fn pop_due(&mut self, now: u64) -> Option<u64> {
        if self.heap.peek().is_some_and(|e| e.0 .0 <= now) {
            self.pops += 1;
            self.heap.pop().map(|e| e.0 .4)
        } else {
            None
        }
    }

    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0 .0)
    }
}

/// A seeded draw stream.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0) % n
    }
}

/// Drives both queues through `ops` random operations; `max_delay`
/// sizes the wheel, and scheduled times reach eight times past it.
fn compare(case: u64, perturb_seed: u64, max_delay: u64, ops: usize) {
    let mut wheel = EventQueue::with_max_delay(max_delay, perturb_seed);
    let mut heap = HeapQueue::new(perturb_seed);
    let mut draws = Draws(mix64(case) ^ perturb_seed);
    let reach = max_delay.max(64) * 8;
    let mut now = 0u64;
    let mut payload = 0u64;
    for op in 0..ops {
        let at = format!("case {case} seed {perturb_seed} span {max_delay} op {op} now {now}");
        match draws.below(16) {
            // Schedule: mostly near `now`, some in the current cycle, some
            // before it, some past the span.
            0..=7 => {
                let time = match draws.below(8) {
                    0 => now,
                    1 => now.saturating_sub(draws.below(4)),
                    2 => now + draws.below(reach),
                    _ => now + 1 + draws.below(max_delay),
                };
                payload += 1;
                let index = draws.below(3) as usize;
                let domain = match draws.below(4) {
                    0 => Domain::Bank(index),
                    1 => Domain::Mc(index),
                    2 => Domain::Tile(index),
                    _ => Domain::Free,
                };
                // Few ranks, so equal (group, rank) pairs fall back on
                // the sequence number.
                let rank = draws.below(3) << 61;
                wheel.schedule_arb(time, domain, rank, payload);
                heap.schedule_arb(time, domain, rank, payload);
            }
            // Drain the current cycle, the way `Hierarchy::advance` does;
            // half the drains schedule more events while they run.
            8..=11 => loop {
                let popped = wheel.pop_due(now);
                assert_eq!(popped, heap.pop_due(now), "{at}");
                if popped.is_none() {
                    break;
                }
                if draws.below(2) == 0 {
                    let time = now + draws.below(3);
                    payload += 1;
                    wheel.schedule_arb(time, Domain::Bank(0), 0, payload);
                    heap.schedule_arb(time, Domain::Bank(0), 0, payload);
                }
            },
            // Time moves: one cycle, a jump, or (rarely) backwards.
            12 | 13 => {
                now = match draws.below(8) {
                    0 => now + draws.below(reach),
                    1 => now.saturating_sub(draws.below(8)),
                    _ => now + 1,
                };
            }
            // Idle fast-forward: jump to the next event's time and pop
            // there.
            14 => {
                if let Some(time) = wheel.next_time() {
                    now = now.max(time);
                    assert_eq!(wheel.pop_due(now), heap.pop_due(now), "{at}");
                }
            }
            _ => assert_eq!(wheel.pop_due(now), heap.pop_due(now), "{at}"),
        }
        assert_eq!(wheel.next_time(), heap.next_time(), "{at}");
        assert_eq!(wheel.is_empty(), heap.heap.is_empty(), "{at}");
    }
    while let Some(time) = heap.next_time() {
        now = now.max(time);
        let popped = heap.pop_due(now);
        assert_eq!(wheel.pop_due(now), popped, "case {case} final drain");
    }
    assert!(wheel.is_empty());
    assert_eq!(wheel.pop_count(), heap.pops);
}

#[test]
fn wheel_pops_exactly_in_heap_order() {
    for perturb_seed in [0, 1, u64::MAX] {
        // Span 64 (the floor) and 128 (the default hierarchy's).
        for max_delay in [1, 112] {
            for case in 0..60 {
                compare(case, perturb_seed, max_delay, 2_000);
            }
        }
    }
}

#[test]
fn long_sequences_keep_heap_order_across_many_wheel_turns() {
    for perturb_seed in [0, 1, u64::MAX] {
        compare(1_000, perturb_seed, 64, 200_000);
    }
}
