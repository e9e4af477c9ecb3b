//! Tests for the shared byte-interval module. The cross-owner conflict
//! predicate is checked *exhaustively* over a small universe against a
//! naive pairwise byte-set oracle (abstract-domain code needs more than
//! random sampling — see ROADMAP item 4c), plus one proptest for large
//! random inputs.

use proptest::prelude::*;

use coyote_isa::{cross_owner_conflict, Access, OwnerAccesses, StoreMap};

const OWNERS: usize = 3;

/// The accesses of one case grouped by owner, the way the orchestrator
/// presents them (at most `N` per owner).
struct Case<const N: usize> {
    per_owner: [([Access; N], usize); OWNERS],
}

impl<const N: usize> Case<N> {
    fn new(accesses: impl Iterator<Item = (usize, Access)>) -> Case<N> {
        let mut per_owner = [([Access::load(0, 0); N], 0); OWNERS];
        for (owner, access) in accesses {
            let (list, len) = &mut per_owner[owner];
            list[*len] = access;
            *len += 1;
        }
        Case { per_owner }
    }

    /// The predicate under test. `summaries` feeds it exact
    /// `has_stores`; without, the "know nothing" value.
    fn conflicts(&self, map: &mut StoreMap, summaries: bool) -> bool {
        let owners = self
            .per_owner
            .iter()
            .enumerate()
            .map(|(owner, (list, len))| {
                let list = &list[..*len];
                OwnerAccesses {
                    owner,
                    has_stores: !summaries || list.iter().any(|a| a.write),
                    accesses: list.iter().copied(),
                }
            });
        cross_owner_conflict(map, owners)
    }
}

/// Naive oracle: every pair, every byte, addresses wrapping like the
/// guest's.
fn naive_conflicts(accesses: &[(usize, Access)]) -> bool {
    let shares_byte = |a: Access, b: Access| {
        (0..a.size).any(|i| {
            let byte = a.addr.wrapping_add(i);
            byte.wrapping_sub(b.addr) < b.size
        })
    };
    accesses.iter().enumerate().any(|(i, &(a_owner, a))| {
        accesses[i + 1..]
            .iter()
            .any(|&(b_owner, b)| a_owner != b_owner && (a.write || b.write) && shares_byte(a, b))
    })
}

/// Every multiset of exactly `k` accesses drawn from `starts` x `sizes`
/// x `OWNERS` x {load, store}, each checked against the oracle in both
/// caller forms. Returns the number of multisets checked.
fn check_all_multisets(starts: &[u64], sizes: &[u64], k: usize) -> u64 {
    let mut universe = Vec::new();
    for &addr in starts {
        for &size in sizes {
            for owner in 0..OWNERS {
                universe.push((owner, Access::load(addr, size)));
                universe.push((owner, Access::store(addr, size)));
            }
        }
    }
    // Pairwise oracle verdicts, so a multiset's verdict is a few table
    // lookups.
    let n = universe.len();
    let mut pair = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            pair[i * n + j] = naive_conflicts(&[universe[i], universe[j]]);
        }
    }
    let mut map = StoreMap::new();
    let mut checked = 0;
    // Non-decreasing index tuples enumerate multisets.
    let mut pick = vec![0usize; k];
    loop {
        let expected = (0..k).any(|a| (a + 1..k).any(|b| pair[pick[a] * n + pick[b]]));
        let case = Case::<4>::new(pick.iter().map(|&i| universe[i]));
        for summaries in [true, false] {
            assert_eq!(
                case.conflicts(&mut map, summaries),
                expected,
                "summaries={summaries} accesses={:?}",
                pick.iter().map(|&i| universe[i]).collect::<Vec<_>>()
            );
        }
        checked += 1;
        // Advance to the next non-decreasing tuple.
        let Some(pos) = (0..k).rev().find(|&p| pick[p] + 1 < n) else {
            return checked;
        };
        let next = pick[pos] + 1;
        pick[pos..].fill(next);
    }
}

/// A `len`-byte stretch of the address ring centred on the wrap point:
/// the last `len / 2` addresses, then the first `len / 2`.
fn ring(len: u64) -> Vec<u64> {
    (0..len)
        .map(|i| 0_u64.wrapping_sub(len / 2).wrapping_add(i))
        .collect()
}

// The universe shrinks as the multiset grows (`C(n + k - 1, k)`
// multisets of `n` distinct accesses) so each check stays a few seconds
// in a debug build: every access shape for pairs, then fewer sizes,
// then fewer start addresses.

#[test]
fn predicate_matches_oracle_on_every_pair() {
    let all_sizes: Vec<u64> = (1..=8).collect();
    assert_eq!(check_all_multisets(&ring(12), &all_sizes, 1), 576);
    assert_eq!(check_all_multisets(&ring(12), &all_sizes, 2), 166_176);
}

#[test]
fn predicate_matches_oracle_on_every_triple() {
    assert_eq!(check_all_multisets(&ring(12), &[1, 3, 8], 3), 1_703_016);
}

#[test]
fn predicate_matches_oracle_on_every_quadruple() {
    assert_eq!(check_all_multisets(&ring(6), &[2, 7], 4), 1_215_450);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Large random inputs: many accesses per owner, long stores, and
    /// addresses clustered at the wrap point and in a second far region.
    #[test]
    fn predicate_agrees_with_naive_oracle_on_large_inputs(
        accesses in proptest::collection::vec(
            (
                prop_oneof![0_u64..96, (0_u64..96).prop_map(|a| a.wrapping_sub(48)), 4096_u64..4192],
                1_u64..12,
                0..OWNERS,
                (0_u8..5).prop_map(|n| n == 0),
            ),
            0..24,
        ),
    ) {
        let accesses: Vec<(usize, Access)> = accesses
            .into_iter()
            .map(|(addr, size, owner, write)| (owner, Access { addr, size, write }))
            .collect();
        let expected = naive_conflicts(&accesses);
        let case = Case::<24>::new(accesses.iter().copied());
        let mut map = StoreMap::new();
        prop_assert_eq!(case.conflicts(&mut map, true), expected);
        prop_assert_eq!(case.conflicts(&mut map, false), expected);
    }
}
