//! Set-associative L1 cache model (true LRU, write-back,
//! write-allocate).
//!
//! Coyote keeps the L1 instruction and data caches inside the functional
//! simulator (the paper does this "to reduce the number of interactions
//! between Spike and Sparta"); only misses cross into the event-driven
//! hierarchy. This model is therefore *probe-only*: it tracks tags and
//! dirty bits, never data (the functional memory holds the values).

use std::fmt;

/// Geometry of an L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// 32 KiB, 8-way, 64 B lines: the conventional L1D of an HPC core.
    #[must_use]
    pub fn default_l1d() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
        }
    }

    /// 16 KiB, 4-way, 64 B lines: the conventional L1I.
    #[must_use]
    pub fn default_l1i() -> CacheConfig {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.validate().expect("invalid cache config");
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Checks that the geometry is consistent: powers of two where
    /// required and a capacity that divides evenly into sets.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 8 {
            return Err(format!(
                "line size {} must be a power of two >= 8",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("associativity must be at least 1".to_owned());
        }
        // 0 stands for a product too large to hold: refused, not wrapped.
        let denom = self.ways.checked_mul(self.line_bytes).unwrap_or(0);
        if denom == 0 || !self.size_bytes.is_multiple_of(denom) {
            return Err(format!(
                "capacity {} not divisible by ways*line ({denom})",
                self.size_bytes
            ));
        }
        let sets = self.size_bytes / denom;
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!("set count {sets} must be a power of two >= 1"));
        }
        Ok(())
    }
}

/// One way, in 16 bytes: a set of eight spans two or three host cache
/// lines.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// The resident line's tag, or [`Line::EMPTY`]'s.
    tag: u64,
    /// LRU stamp (higher = more recently used) in the low 63 bits, the
    /// dirty flag in the top bit.
    stamp: u64,
}

/// The dirty flag's bit of [`Line::stamp`]; no stamp reaches it.
const DIRTY: u64 = 1 << 63;

impl Line {
    /// An invalid way. A real tag is an address shifted right by at
    /// least three bits, so it never equals this one.
    const EMPTY: Line = Line {
        tag: u64::MAX,
        stamp: 0,
    };

    /// Stamps the way used at `counter`, dirty if `write` or already so.
    fn use_at(&mut self, counter: u64, write: bool) {
        self.stamp = counter | (self.stamp & DIRTY) | if write { DIRTY } else { 0 };
    }
}

/// Counters exposed by a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probe count that hit.
    pub hits: u64,
    /// Probe count that missed.
    pub misses: u64,
    /// Dirty lines evicted (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total probes.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// Result of probing the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty line evicted by the fill
    /// (write-back traffic for the hierarchy).
    pub writeback: Option<u64>,
}

/// A probe-only set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    counter: u64,
    stats: CacheStats,
    /// Memo of the most recently touched line `(tag, index into
    /// `lines`)`: sequential code re-probes the same line many times in
    /// a row, and the memo answers those hits without the associative
    /// scan ([`Cache::probe_way`] is its one test). Every hit
    /// ([`Cache::touch`]) and install refreshes it, so it always names a
    /// valid resident line.
    last: Option<(u64, u32)>,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CacheConfig::validate`]; configs are
    /// validated again at simulation construction, so this is a
    /// programming error by then.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        Cache {
            config,
            lines: vec![Line::EMPTY; (sets * config.ways) as usize],
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            counter: 0,
            stats: CacheStats::default(),
            last: None,
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line-aligns an address.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// Probes for `addr`; on a miss the line is installed immediately
    /// (the timing of the fill is the hierarchy's business, tracked by
    /// the core's pending-miss table). `write` marks the line dirty. A
    /// hit is [`Cache::probe_way`] then [`Cache::touch`], the routine
    /// every replayed hit uses too.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        if let Some(idx) = self.probe_way(addr) {
            self.touch(idx, 1, write);
            return Probe {
                hit: true,
                writeback: None,
            };
        }
        self.counter += 1;
        let tag = addr >> self.line_shift;
        self.stats.misses += 1;
        // Choose victim: an invalid way, else the least recently used.
        let ways = self.config.ways as usize;
        let first = (tag & self.set_mask) as usize * ways;
        let (idx, victim) = (first..)
            .zip(&mut self.lines[first..first + ways])
            .min_by_key(|(_, l)| {
                if l.tag == Line::EMPTY.tag {
                    0
                } else {
                    (l.stamp & !DIRTY) + 1
                }
            })
            .expect("at least one way");
        let dirty = victim.tag != Line::EMPTY.tag && victim.stamp & DIRTY != 0;
        let writeback = dirty.then(|| victim.tag << self.line_shift);
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            stamp: self.counter | if write { DIRTY } else { 0 },
        };
        self.last = Some((tag, idx as u32));
        Probe {
            hit: false,
            writeback,
        }
    }

    /// Flat index of `addr`'s resident line, if resident (no LRU
    /// update, no stats): the one lookup, answering a repeat of the most
    /// recently used line from the memo without scanning its set. The
    /// index stays valid while the line stays resident: hits never
    /// relocate lines, and a resident line is only displaced by an
    /// eviction (which the pre-validated run contract excludes).
    #[must_use]
    #[inline]
    pub fn probe_way(&self, addr: u64) -> Option<u32> {
        let tag = addr >> self.line_shift;
        if let Some((last_tag, last_idx)) = self.last {
            if last_tag == tag {
                return Some(last_idx);
            }
        }
        // The set scan has no early exit (a tag is resident in at most
        // one way), so it costs no mispredicted branch.
        let ways = self.config.ways as usize;
        let first = (tag & self.set_mask) as usize * ways;
        let mut found = None;
        for (idx, line) in (first..).zip(&self.lines[first..first + ways]) {
            if line.tag == tag {
                found = Some(idx as u32);
            }
        }
        found
    }

    /// Records `count` hits on the resident line at flat index `idx`
    /// (obtained from [`Cache::probe_way`]): the one hit routine. The
    /// counter advances by `count` and the line takes the last stamp,
    /// the same counter, LRU, stats, dirty and memo evolution as `count`
    /// [`Cache::access`] calls hitting that line back to back (only the
    /// final stamp is observable).
    pub fn touch(&mut self, idx: u32, count: u64, write: bool) {
        self.counter += count;
        let line = &mut self.lines[idx as usize];
        line.use_at(self.counter, write);
        self.stats.hits += count;
        self.last = Some((line.tag, idx));
    }

    /// Replays `count` straight-line fetches at `start, start + 4, …`:
    /// one [`Cache::touch`] per line, identical to `count` individual
    /// [`Cache::access`]`(pc, false)` calls with one lookup per line
    /// instead of one per fetch. A fused run's lines are resident by its
    /// validation; a line that is not takes its first fetch through
    /// [`Cache::access`], so the replay stays exact.
    pub fn touch_run(&mut self, start: u64, count: u32) {
        let end = start + 4 * u64::from(count);
        let mut pc = start;
        while pc < end {
            if let Some(idx) = self.probe_way(pc) {
                let next = (self.line_addr(pc) + (1 << self.line_shift)).min(end);
                self.touch(idx, (next - pc) / 4, false);
                pc = next;
            } else {
                self.access(pc, false);
                pc += 4;
            }
        }
    }

    /// Invalidates everything (used between benchmark repetitions).
    pub fn flush(&mut self) {
        self.lines.fill(Line::EMPTY);
        self.last = None;
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B/{}-way/{}B lines: {} hits, {} misses ({:.1}% miss)",
            self.config.size_bytes,
            self.config.ways,
            self.config.line_bytes,
            self.stats.hits,
            self.stats.misses,
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::default_l1d().validate().is_ok());
        assert!(CacheConfig {
            size_bytes: 100,
            ways: 2,
            line_bytes: 64
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 256,
            ways: 0,
            line_bytes: 64
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 48
        }
        .validate()
        .is_err());
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x103f, false).hit); // same line
        assert!(!c.access(0x1040, false).hit); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines with tag congruent mod 2 == 0: addresses
        // 0x0000, 0x0080, 0x0100 (line 0, 2, 4).
        c.access(0x0000, false);
        c.access(0x0080, false);
        // Touch 0x0000 so 0x0080 is LRU.
        c.access(0x0000, false);
        // Fill a third line in set 0: evicts 0x0080.
        c.access(0x0100, false);
        assert!(c.probe_way(0x0000).is_some());
        assert!(c.probe_way(0x0080).is_none());
        assert!(c.probe_way(0x0100).is_some());
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x0000, true); // dirty
        c.access(0x0080, false);
        c.access(0x0100, false); // evicts 0x0000? No: 0x0080 touched later.
                                 // LRU in set 0 after the two fills is 0x0000 (oldest).
        let probe = c.access(0x0180, false);
        // Two evictions happened; exactly one of them was dirty.
        let _ = probe;
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn writeback_address_is_line_aligned() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 1,
            line_bytes: 64,
        });
        c.access(0x1234, true);
        let probe = c.access(0x5678, false);
        assert_eq!(probe.writeback, Some(0x1200));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 1,
            line_bytes: 64,
        });
        c.access(0x0000, false); // clean fill
        c.access(0x0008, true); // write hit → dirty
        let probe = c.access(0x1000, false);
        assert_eq!(probe.writeback, Some(0x0000));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0000, true);
        c.flush();
        assert!(c.probe_way(0x0000).is_none());
        assert!(!c.access(0x0000, false).hit);
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.stats().miss_rate(), 0.25);
    }
}
