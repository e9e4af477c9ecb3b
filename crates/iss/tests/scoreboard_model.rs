//! The scoreboard against a reference model, exhaustively over a small
//! universe.
//!
//! The reference is the straightforward 3 × 32-bit loop: it tests every
//! register bit on every `acquire`/`release`. The scoreboard walks only
//! the set bits. Every sequence of up to four operations over the
//! universe below must leave both with equal `blocks`, `is_clear` and
//! `pending` after each operation.

use coyote_iss::{RegSet, Scoreboard};

/// Reference scoreboard: per-register counts, a pending mask, and a
/// loop over all 96 register bits.
#[derive(Clone, Default)]
struct Reference {
    x: [u16; 32],
    f: [u16; 32],
    v: [u16; 32],
    mask: RegSet,
}

impl Reference {
    fn acquire(&mut self, regs: &RegSet) {
        for i in 0..32 {
            if regs.x >> i & 1 == 1 {
                self.x[i] += 1;
            }
            if regs.f >> i & 1 == 1 {
                self.f[i] += 1;
            }
            if regs.v >> i & 1 == 1 {
                self.v[i] += 1;
            }
        }
        self.mask.insert_all(regs);
    }

    fn release(&mut self, regs: &RegSet) {
        for i in 0..32 {
            if regs.x >> i & 1 == 1 {
                self.x[i] = self.x[i].saturating_sub(1);
                if self.x[i] == 0 {
                    self.mask.x &= !(1 << i);
                }
            }
            if regs.f >> i & 1 == 1 {
                self.f[i] = self.f[i].saturating_sub(1);
                if self.f[i] == 0 {
                    self.mask.f &= !(1 << i);
                }
            }
            if regs.v >> i & 1 == 1 {
                self.v[i] = self.v[i].saturating_sub(1);
                if self.v[i] == 0 {
                    self.mask.v &= !(1 << i);
                }
            }
        }
    }

    fn blocks(&self, uses: &RegSet, defs: &RegSet) -> bool {
        self.mask.intersects(uses) || self.mask.intersects(defs)
    }
}

/// Empty; one `x`, `f` or `v` bit at 0, 1 and 31; the v8–v15 group; a
/// mixed x/f/v set; all ones.
fn universe() -> Vec<RegSet> {
    let set = |x, f, v| RegSet { x, f, v };
    let mut sets = vec![RegSet::new()];
    for bit in [0, 1, 31] {
        sets.extend([
            set(1 << bit, 0, 0),
            set(0, 1 << bit, 0),
            set(0, 0, 1 << bit),
        ]);
    }
    sets.push(set(0, 0, 0xff << 8));
    sets.push(set(1 << 10 | 1 << 31, 1 << 1, 1 << 8 | 1 << 9));
    sets.push(set(u32::MAX, u32::MAX, u32::MAX));
    sets
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Acquire(usize),
    Release(usize),
}

/// Applies every operation to both models, compares them, and recurses
/// until the sequence is `left` operations longer. Returns how many
/// sequences it checked.
fn explore(
    sets: &[RegSet],
    sb: &Scoreboard,
    reference: &Reference,
    trail: &mut Vec<Op>,
    left: usize,
) -> u64 {
    if left == 0 {
        return 0;
    }
    let ops = (0..sets.len()).flat_map(|i| [Op::Acquire(i), Op::Release(i)]);
    let mut checked = 0;
    for op in ops {
        let (mut sb, mut reference) = (sb.clone(), reference.clone());
        match op {
            Op::Acquire(i) => {
                sb.acquire(&sets[i]);
                reference.acquire(&sets[i]);
            }
            Op::Release(i) => {
                sb.release(&sets[i]);
                reference.release(&sets[i]);
            }
        }
        trail.push(op);
        assert_eq!(sb.pending(), reference.mask, "pending after {trail:?}");
        assert_eq!(
            sb.is_clear(),
            reference.mask.is_empty(),
            "is_clear after {trail:?}"
        );
        let none = RegSet::new();
        for probe in sets {
            assert_eq!(
                sb.blocks(probe, &none),
                reference.blocks(probe, &none),
                "blocks(uses = {probe:?}) after {trail:?}"
            );
            assert_eq!(
                sb.blocks(&none, probe),
                reference.blocks(&none, probe),
                "blocks(defs = {probe:?}) after {trail:?}"
            );
        }
        checked += 1 + explore(sets, &sb, &reference, trail, left - 1);
        trail.pop();
    }
    checked
}

#[test]
fn scoreboard_matches_the_reference_on_every_short_sequence() {
    let sets = universe();
    assert_eq!(sets.len(), 13);
    let checked = explore(
        &sets,
        &Scoreboard::new(),
        &Reference::default(),
        &mut Vec::new(),
        4,
    );
    // 26 operations: 26 + 26² + 26³ + 26⁴ sequences of length 1..=4.
    assert_eq!(checked, 26 + 26 * 26 + 26 * 26 * 26 + 26 * 26 * 26 * 26);
}
