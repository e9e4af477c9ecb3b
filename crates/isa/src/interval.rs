//! The cross-owner byte-conflict predicate.
//!
//! The fused-window chunk check (`crates/core/src/sim.rs`) and the
//! superblock pairwise checker (`crates/iss/src/superblock.rs`) share
//! one predicate, [`cross_owner_conflict`].
//!
//! Conflict semantics are exactly the ones the orchestrator relies on:
//! two accesses conflict when they share a byte, belong to *different*
//! owners (cores), and at least one of them is a store. Same-owner
//! overlap and load/load sharing are never conflicts. Addresses live on
//! the guest's 2^64 ring: an access that runs past `u64::MAX` continues
//! at address 0.
//!
//! The predicate is store-centric. Every conflicting pair contains a
//! store, so it is enough to index the stores and test each access
//! against stores of *other* owners; a window without stores is
//! conflict-free without looking at a single load. That makes the cost
//! proportional to the sharing that can actually go wrong rather than
//! to the number of accesses.

/// One memory access: `size` bytes starting at `addr`, wrapping modulo
/// 2^64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// First byte touched.
    pub addr: u64,
    /// Bytes touched (`0` touches nothing).
    pub size: u64,
    /// `true` for a store, `false` for a load.
    pub write: bool,
}

impl Access {
    /// A load of `size` bytes at `addr`.
    #[must_use]
    pub fn load(addr: u64, size: u64) -> Access {
        Access {
            addr,
            size,
            write: false,
        }
    }

    /// A store of `size` bytes at `addr`.
    #[must_use]
    pub fn store(addr: u64, size: u64) -> Access {
        Access {
            addr,
            size,
            write: true,
        }
    }

    /// The access as one or two non-wrapping inclusive byte ranges
    /// `[first, last]`: an access straddling `u64::MAX` is the range up
    /// to the top of the address space plus the range from address 0.
    fn pieces(self) -> impl Iterator<Item = (u64, u64)> {
        let last = self.addr.wrapping_add(self.size.wrapping_sub(1));
        let (head, tail) = if self.size == 0 {
            (None, None)
        } else if last < self.addr {
            (Some((self.addr, u64::MAX)), Some((0, last)))
        } else {
            (Some((self.addr, last)), None)
        };
        head.into_iter().chain(tail)
    }
}

/// One owner's accesses within the window under test, plus the one-bit
/// summary that lets [`cross_owner_conflict`] skip them in pass 1
/// without iterating.
pub struct OwnerAccesses<I> {
    /// Identifier of the party making the accesses (core index).
    pub owner: usize,
    /// `false` promises that `accesses` yields no store; `true` makes
    /// no promise.
    pub has_stores: bool,
    /// The accesses themselves.
    pub accesses: I,
}

/// A store range of one owner, `[first, last]` inclusive.
#[derive(Clone, Copy, Debug)]
struct StoreRange {
    first: u64,
    last: u64,
    owner: usize,
}

/// Scratch index of a window's stores, kept by the caller so the hot
/// path reuses its allocation.
#[derive(Debug, Default)]
pub struct StoreMap {
    /// After [`StoreMap::seal`]: disjoint single-owner ranges,
    /// ascending.
    ranges: Vec<StoreRange>,
    examined: u64,
}

impl StoreMap {
    /// An empty index.
    #[must_use]
    pub fn new() -> StoreMap {
        StoreMap::default()
    }

    /// Accesses the last [`cross_owner_conflict`] call looked at
    /// (stores indexed plus loads tested) — a host-independent measure
    /// of its work; `0` for a store-free window.
    #[must_use]
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// Sorts the gathered stores and coalesces overlapping ones in
    /// place. Returns `true` when two owners' stores overlap; otherwise
    /// the ranges end up disjoint, each with a single owner (ranges
    /// that merely touch stay separate, so distinct owners survive).
    fn seal(&mut self) -> bool {
        self.ranges.sort_unstable_by_key(|r| r.first);
        let mut kept = 0;
        for i in 1..self.ranges.len() {
            let next = self.ranges[i];
            let cur = &mut self.ranges[kept];
            // Earlier ranges end before `cur` starts, so `cur` is the
            // only one `next` can overlap.
            if next.first <= cur.last {
                if next.owner != cur.owner {
                    return true;
                }
                cur.last = cur.last.max(next.last);
            } else {
                kept += 1;
                self.ranges[kept] = next;
            }
        }
        self.ranges.truncate(kept + 1);
        false
    }

    /// Whether a store of an owner other than `owner` touches a byte
    /// of `access`. Requires a sealed map.
    fn hits(&self, access: Access, owner: usize) -> bool {
        access.pieces().any(|(first, last)| {
            let from = self.ranges.partition_point(|r| r.last < first);
            self.ranges[from..]
                .iter()
                .take_while(|r| r.first <= last)
                .any(|r| r.owner != owner)
        })
    }
}

/// Whether any two accesses of different owners share a byte with at
/// least one of them a store.
///
/// Pass 1 gathers the stores of every owner that may have some into
/// `map`; none means no conflict. Otherwise the stores are sorted once
/// (store/store overlaps across owners surface there) and pass 2 tests
/// every load against them. `owners` is therefore iterated twice; `map` is scratch and holds no
/// result besides [`StoreMap::examined`].
pub fn cross_owner_conflict<W, I>(map: &mut StoreMap, owners: W) -> bool
where
    W: Iterator<Item = OwnerAccesses<I>> + Clone,
    I: Iterator<Item = Access>,
{
    map.ranges.clear();
    map.examined = 0;
    for window in owners.clone().filter(|w| w.has_stores) {
        for store in window.accesses.filter(|a| a.write) {
            map.examined += 1;
            map.ranges
                .extend(store.pieces().map(|(first, last)| StoreRange {
                    first,
                    last,
                    owner: window.owner,
                }));
        }
    }
    if map.ranges.is_empty() {
        return false;
    }
    if map.seal() {
        return true;
    }
    for window in owners {
        for load in window.accesses.filter(|a| !a.write) {
            map.examined += 1;
            if map.hits(load, window.owner) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All accesses of all owners, no summaries: what a caller with
    /// nothing precomputed passes.
    fn conflict(accesses: &[(usize, Access)]) -> bool {
        let owners = accesses.iter().map(|&(owner, access)| OwnerAccesses {
            owner,
            has_stores: true,
            accesses: std::iter::once(access),
        });
        cross_owner_conflict(&mut StoreMap::new(), owners)
    }

    #[test]
    fn predicate_matches_orchestrator_semantics() {
        // Same owner: never a conflict, even store/store.
        assert!(!conflict(&[
            (0, Access::store(0, 8)),
            (0, Access::store(4, 8))
        ]));
        // Load/load across owners: fine.
        assert!(!conflict(&[
            (0, Access::load(0, 8)),
            (1, Access::load(4, 8))
        ]));
        // Load/store overlap across owners: conflict.
        assert!(conflict(&[
            (0, Access::load(0, 8)),
            (1, Access::store(7, 1))
        ]));
        // Byte-adjacent (touching, not overlapping): fine.
        assert!(!conflict(&[
            (0, Access::store(0, 8)),
            (1, Access::store(8, 8))
        ]));
        // Touching stores of two owners stay two ranges: a load of the
        // second owner's bytes by the first owner still conflicts.
        assert!(conflict(&[
            (0, Access::store(0, 8)),
            (1, Access::store(8, 8)),
            (0, Access::load(12, 1))
        ]));
    }

    /// Failing-first regression: the interval constructor this module
    /// used to have computed `end` with `saturating_add`, dropping the
    /// bytes of a wrapping access that land at address 0.
    #[test]
    fn wrapping_store_reaches_address_zero() {
        // Core A stores 8 bytes at `u64::MAX - 3` (bytes MAX-3..=MAX
        // and 0..=3); core B loads byte 1.
        assert!(conflict(&[
            (0, Access::store(u64::MAX - 3, 8)),
            (1, Access::load(1, 1))
        ]));
        assert!(!conflict(&[
            (0, Access::store(u64::MAX - 3, 8)),
            (1, Access::load(4, 1))
        ]));
        // And the mirror image: a wrapping load against a low store.
        assert!(conflict(&[
            (0, Access::load(u64::MAX, 2)),
            (1, Access::store(0, 1))
        ]));
    }

    #[test]
    fn store_free_windows_examine_nothing() {
        let mut map = StoreMap::new();
        let loads = [Access::load(0, 8), Access::load(4, 8)];
        let owners = (0..2).map(|owner| OwnerAccesses {
            owner,
            has_stores: false,
            accesses: loads.iter().copied(),
        });
        assert!(!cross_owner_conflict(&mut map, owners));
        assert_eq!(map.examined(), 0);
    }
}
