//! Banked L2 cache model with MSHR-limited outstanding misses.
//!
//! Each bank is an independent component (the paper highlights that "the
//! functionality of each element (e.g. an L2 Bank) is encapsulated as an
//! independent component"). A bank owns a set-associative tag array over
//! its *bank-local* line index space (see [`crate::mapping`]) and a
//! bounded miss-status holding register (MSHR) file: when the MSHRs are
//! exhausted, incoming misses queue at the bank — the back-pressure the
//! paper's "maximum number of in-flight misses" knob controls.

use std::collections::VecDeque;

/// Geometry and timing of every L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity **per bank** in bytes.
    pub bank_size_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Line size in bytes (must match the L1s).
    pub line_bytes: u64,
    /// Maximum in-flight misses per bank.
    pub mshrs: usize,
    /// Tag-lookup latency paid by every access (the "hit latency").
    pub hit_latency: u64,
    /// Additional latency from lookup to the miss request leaving the
    /// bank (the "miss latency").
    pub miss_latency: u64,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            bank_size_bytes: 256 * 1024,
            ways: 16,
            line_bytes: 64,
            mshrs: 16,
            hit_latency: 12,
            miss_latency: 4,
        }
    }
}

impl L2Config {
    /// Sets per bank.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.bank_size_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 8 {
            return Err(format!("L2 line size {} invalid", self.line_bytes));
        }
        if self.ways == 0 || self.mshrs == 0 {
            return Err("L2 ways and mshrs must be positive".to_owned());
        }
        // 0 stands for a product too large to hold; nothing but 0 is a
        // multiple of it, so it is refused below, not wrapped.
        let denom = self.ways.checked_mul(self.line_bytes).unwrap_or(0);
        if self.bank_size_bytes == 0 || !self.bank_size_bytes.is_multiple_of(denom) {
            return Err(format!(
                "L2 bank size {} not divisible by ways*line",
                self.bank_size_bytes
            ));
        }
        let sets = self.bank_size_bytes / denom;
        if !sets.is_power_of_two() {
            return Err(format!("L2 set count {sets} must be a power of two"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TagLine {
    line_addr: u64,
    valid: bool,
    dirty: bool,
    /// Installed by a prefetch and not yet demanded.
    prefetched: bool,
    lru: u64,
}

/// Per-bank counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty victims evicted toward memory.
    pub writebacks: u64,
    /// Requests that found all MSHRs busy and had to queue.
    pub mshr_stalls: u64,
    /// Peak depth of the MSHR-full waiting queue.
    pub max_queue_depth: usize,
    /// Prefetch fills installed.
    pub prefetch_fills: u64,
    /// Prefetched lines later hit by a demand access.
    pub prefetch_useful: u64,
}

impl BankStats {
    /// Total lookups.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Result of a bank lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present.
    Hit,
    /// Line absent; fill required. Carries the dirty victim (if any)
    /// that the later fill will evict.
    Miss,
}

/// One L2 bank: tag array + MSHR accounting.
#[derive(Debug, Clone)]
pub struct L2Bank {
    config: L2Config,
    lines: Vec<TagLine>,
    set_mask: u64,
    counter: u64,
    in_flight: usize,
    /// Requests queued because MSHRs were exhausted; drained by the
    /// hierarchy when an MSHR frees.
    waiting: VecDeque<u64>,
    stats: BankStats,
}

impl L2Bank {
    /// Builds a bank.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (checked at hierarchy
    /// construction).
    #[must_use]
    pub fn new(config: L2Config) -> L2Bank {
        config.validate().expect("invalid L2 config");
        let sets = config.sets();
        L2Bank {
            config,
            lines: vec![TagLine::default(); (sets * config.ways) as usize],
            set_mask: sets - 1,
            counter: 0,
            in_flight: 0,
            waiting: VecDeque::new(),
            stats: BankStats::default(),
        }
    }

    /// Bank configuration.
    #[must_use]
    pub fn config(&self) -> L2Config {
        self.config
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Probes the tag array for `line_addr` whose bank-local index is
    /// `local_idx` (from the mapping policy). `write` marks a hit line
    /// dirty (write-backs arriving from the L1s).
    pub fn lookup(&mut self, line_addr: u64, local_idx: u64, write: bool) -> Lookup {
        self.counter += 1;
        let set = (local_idx & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        let set_lines = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(line) = set_lines
            .iter_mut()
            .find(|l| l.valid && l.line_addr == line_addr)
        {
            line.lru = self.counter;
            line.dirty |= write;
            if line.prefetched {
                line.prefetched = false;
                self.stats.prefetch_useful += 1;
            }
            self.stats.hits += 1;
            Lookup::Hit
        } else {
            self.stats.misses += 1;
            Lookup::Miss
        }
    }

    /// Whether `line_addr` is resident, without touching LRU state or
    /// statistics — used to filter prefetch candidates.
    #[must_use]
    pub fn probe_quiet(&self, line_addr: u64, local_idx: u64) -> bool {
        let set = (local_idx & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        self.lines[set * ways..(set + 1) * ways]
            .iter()
            .any(|l| l.valid && l.line_addr == line_addr)
    }

    /// Installs `line_addr` after a fill returns from memory; returns
    /// the dirty victim's address if one must be written back.
    /// `prefetched` marks speculative installs for usefulness tracking.
    pub fn fill(
        &mut self,
        line_addr: u64,
        local_idx: u64,
        dirty: bool,
        prefetched: bool,
    ) -> Option<u64> {
        self.counter += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let set = (local_idx & self.set_mask) as usize;
        let ways = self.config.ways as usize;
        let set_lines = &mut self.lines[set * ways..(set + 1) * ways];
        if let Some(line) = set_lines
            .iter_mut()
            .find(|l| l.valid && l.line_addr == line_addr)
        {
            // Already present (e.g. a racing fill); just refresh.
            line.lru = self.counter;
            line.dirty |= dirty;
            return None;
        }
        let victim = set_lines
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("at least one way");
        let writeback = (victim.valid && victim.dirty).then_some(victim.line_addr);
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        *victim = TagLine {
            line_addr,
            valid: true,
            dirty,
            prefetched,
            lru: self.counter,
        };
        writeback
    }

    /// Whether an MSHR is available.
    #[must_use]
    pub fn mshr_available(&self) -> bool {
        self.in_flight < self.config.mshrs
    }

    /// Claims an MSHR for an outgoing miss.
    ///
    /// # Panics
    ///
    /// Panics if none is free (callers must check
    /// [`L2Bank::mshr_available`] first).
    pub fn mshr_acquire(&mut self) {
        assert!(self.mshr_available(), "MSHR overflow");
        self.in_flight += 1;
    }

    /// Releases an MSHR when a fill completes.
    pub fn mshr_release(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Currently outstanding misses.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queues a request id while the MSHRs are full.
    pub fn enqueue_waiting(&mut self, request_id: u64) {
        self.stats.mshr_stalls += 1;
        self.waiting.push_back(request_id);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.waiting.len());
    }

    /// Pops the oldest waiting request id, if any.
    pub fn pop_waiting(&mut self) -> Option<u64> {
        self.waiting.pop_front()
    }

    /// Depth of the waiting queue.
    #[must_use]
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> L2Bank {
        L2Bank::new(L2Config {
            bank_size_bytes: 8 * 1024,
            ways: 2,
            line_bytes: 64,
            mshrs: 2,
            hit_latency: 10,
            miss_latency: 4,
        })
    }

    #[test]
    fn config_validation() {
        assert!(L2Config::default().validate().is_ok());
        assert!(L2Config {
            bank_size_bytes: 1000,
            ..L2Config::default()
        }
        .validate()
        .is_err());
        assert!(L2Config {
            mshrs: 0,
            ..L2Config::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut b = bank();
        assert_eq!(b.lookup(0x4000, 0x100, false), Lookup::Miss);
        assert_eq!(b.fill(0x4000, 0x100, false, false), None);
        assert_eq!(b.lookup(0x4000, 0x100, false), Lookup::Hit);
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn dirty_fill_evicts_with_writeback() {
        let mut b = bank();
        // 64 sets, 2 ways: local indices congruent mod 64 share a set.
        b.fill(0x0001_0000, 0, true, false);
        b.fill(0x0002_0000, 1, false, false); // different set, no conflict
        b.fill(0x0003_0000, 64, false, false); // set 0: second way
                                               // Third line in set 0 evicts the dirty first line.
        let wb = b.fill(0x0004_0000, 128, false, false); // set 0 again
        assert_eq!(wb, Some(0x0001_0000));
        assert_eq!(b.stats().writebacks, 1);
    }

    #[test]
    fn mshr_accounting_and_queueing() {
        let mut b = bank();
        assert!(b.mshr_available());
        b.mshr_acquire();
        b.mshr_acquire();
        assert!(!b.mshr_available());
        b.enqueue_waiting(42);
        b.enqueue_waiting(43);
        assert_eq!(b.stats().mshr_stalls, 2);
        assert_eq!(b.stats().max_queue_depth, 2);
        b.mshr_release();
        assert!(b.mshr_available());
        assert_eq!(b.pop_waiting(), Some(42));
        assert_eq!(b.pop_waiting(), Some(43));
        assert_eq!(b.pop_waiting(), None);
    }

    #[test]
    #[should_panic(expected = "MSHR overflow")]
    fn mshr_overflow_panics() {
        let mut b = bank();
        b.mshr_acquire();
        b.mshr_acquire();
        b.mshr_acquire();
    }

    #[test]
    fn prefetch_usefulness_tracking() {
        let mut b = bank();
        b.fill(0x9000, 7, false, true);
        assert_eq!(b.stats().prefetch_fills, 1);
        assert!(b.probe_quiet(0x9000, 7));
        assert_eq!(b.stats().hits, 0, "probe_quiet is stat-free");
        // First demand hit consumes the prefetched flag.
        assert_eq!(b.lookup(0x9000, 7, false), Lookup::Hit);
        assert_eq!(b.stats().prefetch_useful, 1);
        // Second demand hit does not double-count.
        assert_eq!(b.lookup(0x9000, 7, false), Lookup::Hit);
        assert_eq!(b.stats().prefetch_useful, 1);
    }

    #[test]
    fn redundant_fill_is_benign() {
        let mut b = bank();
        b.fill(0x1000, 0, false, false);
        assert_eq!(b.fill(0x1000, 0, true, false), None);
        assert_eq!(b.lookup(0x1000, 0, false), Lookup::Hit);
    }
}
