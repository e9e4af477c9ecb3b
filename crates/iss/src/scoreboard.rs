//! RAW-dependency scoreboard.
//!
//! Tracks registers whose values are architecturally present (the
//! functional simulator writes them immediately) but whose *timing* is
//! still pending on outstanding L1 misses. Per the paper, an instruction
//! that reads such a register deactivates its core until the miss is
//! serviced; writes to a pending register (WAW) stall as well so a fill
//! can never be reordered past a younger producer.
//!
//! Registers are reference-counted: a vector gather can miss in several
//! cache lines, and its destination group must stay pending until the
//! *last* line is filled.

use crate::exec::{Dest, RegSet};

/// Pending-register scoreboard for one core.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    x: [u16; 32],
    f: [u16; 32],
    v: [u16; 32],
    mask: RegSet,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    #[must_use]
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// Whether an instruction with the given use/def sets must stall.
    #[must_use]
    pub fn blocks(&self, uses: &RegSet, defs: &RegSet) -> bool {
        self.mask.intersects(uses) || self.mask.intersects(defs)
    }

    /// Adds one pending-fill reference to every register in `regs`.
    /// Costs one step per register in the set; an empty set costs
    /// nothing.
    pub fn acquire(&mut self, regs: &RegSet) {
        for (counts, bits) in [
            (&mut self.x, regs.x),
            (&mut self.f, regs.f),
            (&mut self.v, regs.v),
        ] {
            for_each_bit(bits, |i| counts[i] += 1);
        }
        self.mask.insert_all(regs);
    }

    /// Drops one reference from every register in `regs`; registers
    /// whose count reaches zero become available again.
    pub fn release(&mut self, regs: &RegSet) {
        for (counts, mask, bits) in [
            (&mut self.x, &mut self.mask.x, regs.x),
            (&mut self.f, &mut self.mask.f, regs.f),
            (&mut self.v, &mut self.mask.v, regs.v),
        ] {
            for_each_bit(bits, |i| {
                counts[i] = counts[i].saturating_sub(1);
                if counts[i] == 0 {
                    *mask &= !(1 << i);
                }
            });
        }
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_clear(&self) -> bool {
        self.mask.is_empty()
    }

    /// The currently pending registers.
    #[must_use]
    pub fn pending(&self) -> RegSet {
        self.mask
    }
}

/// Calls `f` with the index of every set bit of `bits`, lowest first.
#[inline]
fn for_each_bit(mut bits: u32, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Converts a [`Dest`] into a [`RegSet`] holding just that destination.
#[must_use]
pub fn dest_set(dest: Dest) -> RegSet {
    let mut set = RegSet::new();
    match dest {
        Dest::X(r) => set.add_x(r),
        Dest::F(r) => set.add_f(r),
        Dest::V(r, len) => set.add_v_group(r, len),
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_isa::{FReg, VReg, XReg};

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        sb.acquire(&dest_set(Dest::X(XReg::A0)));
        let mut uses = RegSet::new();
        uses.add_x(XReg::A0);
        assert!(sb.blocks(&uses, &RegSet::new()));
        let mut other = RegSet::new();
        other.add_x(XReg::A1);
        assert!(!sb.blocks(&other, &RegSet::new()));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        sb.acquire(&dest_set(Dest::F(FReg::FA0)));
        let mut defs = RegSet::new();
        defs.add_f(FReg::FA0);
        assert!(sb.blocks(&RegSet::new(), &defs));
    }

    #[test]
    fn x0_never_pends() {
        let mut sb = Scoreboard::new();
        sb.acquire(&dest_set(Dest::X(XReg::ZERO)));
        assert!(sb.is_clear());
    }

    #[test]
    fn vector_groups_overlap() {
        let mut sb = Scoreboard::new();
        // v8..v11 pending (LMUL=4 load).
        sb.acquire(&dest_set(Dest::V(VReg::new(8).unwrap(), 4)));
        let mut uses = RegSet::new();
        uses.add_v_group(VReg::new(10).unwrap(), 1);
        assert!(sb.blocks(&uses, &RegSet::new()));
        let mut clear = RegSet::new();
        clear.add_v_group(VReg::new(12).unwrap(), 1);
        assert!(!sb.blocks(&clear, &RegSet::new()));
    }

    #[test]
    fn release_clears_only_named_regs() {
        let mut sb = Scoreboard::new();
        sb.acquire(&dest_set(Dest::X(XReg::A0)));
        sb.acquire(&dest_set(Dest::X(XReg::A1)));
        sb.release(&dest_set(Dest::X(XReg::A0)));
        let mut a0 = RegSet::new();
        a0.add_x(XReg::A0);
        let mut a1 = RegSet::new();
        a1.add_x(XReg::A1);
        assert!(!sb.blocks(&a0, &RegSet::new()));
        assert!(sb.blocks(&a1, &RegSet::new()));
        assert!(!sb.is_clear());
    }

    #[test]
    fn multi_line_fill_requires_all_releases() {
        // A gather whose destination waits on three lines.
        let mut sb = Scoreboard::new();
        let dest = dest_set(Dest::V(VReg::new(4).unwrap(), 1));
        sb.acquire(&dest);
        sb.acquire(&dest);
        sb.acquire(&dest);
        sb.release(&dest);
        assert!(sb.blocks(&dest, &RegSet::new()));
        sb.release(&dest);
        assert!(sb.blocks(&dest, &RegSet::new()));
        sb.release(&dest);
        assert!(!sb.blocks(&dest, &RegSet::new()));
        assert!(sb.is_clear());
    }

    #[test]
    fn release_of_unpending_reg_is_noop() {
        let mut sb = Scoreboard::new();
        sb.release(&dest_set(Dest::X(XReg::A0)));
        assert!(sb.is_clear());
    }
}
