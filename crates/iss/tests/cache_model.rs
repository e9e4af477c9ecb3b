//! Property test: the L1 cache model agrees with a naive reference
//! implementation (fully explicit LRU lists) on hit/miss/writeback
//! behaviour for arbitrary access streams and geometries, whether a hit
//! comes through `access`, through `probe_way` + `touch` (the fused
//! data replay) or through `touch_run` (the batched fetch): every path
//! records a hit through the same routine.

use coyote_iss::cache::{Cache, CacheConfig};
use proptest::prelude::*;

/// Obviously-correct reference: per-set `Vec` ordered most-recent-first.
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>, // (line_addr, dirty), MRU at index 0
    ways: usize,
    line_shift: u32,
    set_count: u64,
}

impl RefCache {
    fn new(config: CacheConfig) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); config.sets() as usize],
            ways: config.ways as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_count: config.sets(),
        }
    }

    /// Whether `addr`'s line is resident.
    fn resident(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift << self.line_shift;
        let set = ((line >> self.line_shift) % self.set_count) as usize;
        self.sets[set].iter().any(|&(l, _)| l == line)
    }

    /// Returns (hit, writeback_line_addr).
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        let line = addr >> self.line_shift << self.line_shift;
        let set = ((line >> self.line_shift) % self.set_count) as usize;
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&(l, _)| l == line) {
            let (l, dirty) = entries.remove(pos);
            entries.insert(0, (l, dirty || write));
            return (true, None);
        }
        let mut writeback = None;
        if entries.len() == self.ways {
            let (victim, dirty) = entries.pop().expect("full set");
            if dirty {
                writeback = Some(victim);
            }
        }
        entries.insert(0, (line, write));
        (false, writeback)
    }
}

/// The reference's counters over a stream.
#[derive(Default)]
struct Expected {
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Expected {
    /// One reference access, counted.
    fn access(&mut self, reference: &mut RefCache, addr: u64, write: bool) -> (bool, Option<u64>) {
        let (hit, writeback) = reference.access(addr, write);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.writebacks += u64::from(writeback.is_some());
        (hit, writeback)
    }
}

fn config_strategy() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], // ways
        prop_oneof![Just(2u64), Just(8), Just(64)],         // sets
        prop_oneof![Just(16u64), Just(64)],                 // line bytes
    )
        .prop_map(|(ways, sets, line_bytes)| CacheConfig {
            size_bytes: ways * sets * line_bytes,
            ways,
            line_bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn matches_reference_model(
        config in config_strategy(),
        accesses in prop::collection::vec((0u64..4096, prop::bool::ANY), 1..300),
    ) {
        let mut cache = Cache::new(config);
        let mut reference = RefCache::new(config);
        for (i, &(addr, write)) in accesses.iter().enumerate() {
            let probe = cache.access(addr, write);
            let (ref_hit, ref_writeback) = reference.access(addr, write);
            prop_assert_eq!(probe.hit, ref_hit, "access {} ({:#x})", i, addr);
            prop_assert_eq!(probe.writeback, ref_writeback, "access {} ({:#x})", i, addr);
        }
        // Stats agree with the replayed outcomes.
        let hits = accesses.len() as u64 - cache.stats().misses;
        prop_assert_eq!(cache.stats().hits, hits);
    }

    #[test]
    fn touches_match_reference_model(
        config in config_strategy(),
        ops in prop::collection::vec(
            (0u8..3, 0u64..4096, prop::bool::ANY, 0u32..40),
            1..200,
        ),
    ) {
        let mut cache = Cache::new(config);
        let mut reference = RefCache::new(config);
        let mut expected = Expected::default();
        for (i, &(kind, addr, write, n)) in ops.iter().enumerate() {
            match kind {
                // A plain probe.
                0 => {
                    let probe = cache.access(addr, write);
                    let (hit, writeback) = expected.access(&mut reference, addr, write);
                    prop_assert_eq!((probe.hit, probe.writeback), (hit, writeback), "op {}", i);
                }
                // A replayed hit: `n % 4 + 1` hits on a resident line,
                // each a reference hit.
                1 => {
                    let way = cache.probe_way(addr);
                    prop_assert_eq!(way.is_some(), reference.resident(addr), "op {}", i);
                    if let Some(way) = way {
                        let count = n % 4 + 1;
                        cache.touch(way, u64::from(count), write);
                        for _ in 0..count {
                            prop_assert!(expected.access(&mut reference, addr, write).0, "op {}", i);
                        }
                    }
                }
                // A batched fetch of `n` words: `n` reference fetches.
                _ => {
                    let start = addr & !3;
                    cache.touch_run(start, n);
                    for k in 0..u64::from(n) {
                        expected.access(&mut reference, start + 4 * k, false);
                    }
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(
                (stats.hits, stats.misses, stats.writebacks),
                (expected.hits, expected.misses, expected.writebacks),
                "op {}",
                i
            );
        }
        // Residency agrees line by line at the end.
        for addr in (0u64..4096).step_by(16) {
            prop_assert_eq!(cache.probe_way(addr).is_some(), reference.resident(addr), "{:#x}", addr);
        }
    }
}
