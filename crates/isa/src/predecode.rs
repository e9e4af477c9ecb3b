//! Predecoded micro-op form of an instruction stream.
//!
//! Decoding and recomputing register use/def sets on every retirement
//! dominates the simulator's hot loop. [`DecodedInst`] is the micro-op
//! the timing layer dispatches on instead: the decoded [`Inst`] (whose
//! enum discriminant selects the exec function and whose fields carry
//! the pre-resolved register indices and immediates) together with the
//! instruction's cached use/def [`RegSet`]s. [`predecode`] builds the
//! dense table for a text segment once at program load.
//!
//! Vector instructions are the one wrinkle: their register *groups*
//! depend on the hart's live `LMUL`, so their sets cannot be cached at
//! load time. Such entries are marked [`DecodedInst::lmul_sensitive`]
//! and the stepper recomputes their sets with [`uses_with_group`] /
//! [`defs_with_group`] under the current group length.

use crate::inst::{CsrSrc, Inst, VAddrMode, VSrc, XSrc};
use crate::reg::{FReg, VReg, XReg};

/// A set of registers, used for hazard detection (bit per register).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSet {
    /// Integer registers (bit 0 = `x0`, always clear).
    pub x: u32,
    /// FP registers.
    pub f: u32,
    /// Vector registers.
    pub v: u32,
}

impl RegSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> RegSet {
        RegSet::default()
    }

    /// Adds an integer register (`x0` is ignored: it can never be
    /// pending).
    pub fn add_x(&mut self, reg: XReg) {
        if reg != XReg::ZERO {
            self.x |= 1 << reg.index();
        }
    }

    /// Adds an FP register.
    pub fn add_f(&mut self, reg: FReg) {
        self.f |= 1 << reg.index();
    }

    /// Adds a vector register group of `len` registers starting at
    /// `reg` (wrapping masked off at `v31`).
    pub fn add_v_group(&mut self, reg: VReg, len: u8) {
        for i in 0..u32::from(len) {
            let idx = reg.index() as u32 + i;
            if idx < 32 {
                self.v |= 1 << idx;
            }
        }
    }

    /// Whether the two sets intersect.
    #[must_use]
    pub fn intersects(&self, other: &RegSet) -> bool {
        (self.x & other.x) | (self.f & other.f) | (self.v & other.v) != 0
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x == 0 && self.f == 0 && self.v == 0
    }

    /// Removes every register in `other` from `self`.
    pub fn remove(&mut self, other: &RegSet) {
        self.x &= !other.x;
        self.f &= !other.f;
        self.v &= !other.v;
    }

    /// Unions `other` into `self`.
    pub fn insert_all(&mut self, other: &RegSet) {
        self.x |= other.x;
        self.f |= other.f;
        self.v |= other.v;
    }
}

/// Registers read by `inst` under vector register-group length `g`
/// (for RAW-hazard detection). `g` only matters for vector operands;
/// scalar instructions produce the same set for every `g`.
#[must_use]
pub fn uses_with_group(inst: &Inst, g: u8) -> RegSet {
    let mut set = RegSet::new();
    match *inst {
        Inst::Upper { .. } | Inst::System { .. } | Inst::Jal { .. } => {}
        Inst::Jalr { rs1, .. } => set.add_x(rs1),
        Inst::Branch { rs1, rs2, .. } => {
            set.add_x(rs1);
            set.add_x(rs2);
        }
        Inst::Load { rs1, .. } => set.add_x(rs1),
        Inst::Store { op, rs2, rs1, .. } => {
            set.add_x(rs1);
            add_raw(&mut set, rs2, op.rs2_is_f());
        }
        Inst::Op { rs1, src, .. } | Inst::Op32 { rs1, src, .. } => {
            set.add_x(rs1);
            if let XSrc::X(rs2) = src {
                set.add_x(rs2);
            }
        }
        Inst::Csr { src, .. } => {
            if let CsrSrc::Reg(rs1) = src {
                set.add_x(rs1);
            }
        }
        Inst::Amo { rs1, rs2, .. } => {
            set.add_x(rs1);
            set.add_x(rs2);
        }
        Inst::FpOp { rs1, rs2, .. } => {
            set.add_f(rs1);
            set.add_f(rs2);
        }
        Inst::FpFma { rs1, rs2, rs3, .. } => {
            set.add_f(rs1);
            set.add_f(rs2);
            set.add_f(rs3);
        }
        Inst::FpCvt { op, rs1, .. } => add_raw(&mut set, rs1, !op.rd_is_f()),
        Inst::Vsetvli { rs1, .. } => set.add_x(rs1),
        Inst::Vsetivli { .. } => {}
        Inst::Vsetvl { rs1, rs2, .. } => {
            set.add_x(rs1);
            set.add_x(rs2);
        }
        Inst::VLoad { rs1, mode, vm, .. } => {
            set.add_x(rs1);
            add_mode_uses(&mut set, mode, g);
            if !vm {
                set.add_v_group(VReg::V0, 1);
            }
        }
        Inst::VStore {
            vs3, rs1, mode, vm, ..
        } => {
            set.add_x(rs1);
            set.add_v_group(vs3, g);
            add_mode_uses(&mut set, mode, g);
            if !vm {
                set.add_v_group(VReg::V0, 1);
            }
        }
        Inst::VArith {
            op,
            vd,
            vs2,
            src,
            vm,
        } => {
            set.add_v_group(vs2, g);
            add_src(&mut set, src, g);
            if !vm {
                set.add_v_group(VReg::V0, 1);
            }
            if op.reads_vd() {
                set.add_v_group(vd, g);
            }
        }
        Inst::VRed { vs2, vs1, vm, .. } => {
            set.add_v_group(vs2, g);
            set.add_v_group(vs1, 1);
            if !vm {
                set.add_v_group(VReg::V0, 1);
            }
        }
        Inst::VMerge { vs2, src, vm, .. } => {
            add_src(&mut set, src, g);
            // A splat reads neither `vs2` nor the mask.
            if !vm {
                set.add_v_group(vs2, g);
                set.add_v_group(VReg::V0, 1);
            }
        }
        Inst::VMvS { src, .. } => add_src(&mut set, src, 1),
        Inst::Vid { vm, .. } => {
            if !vm {
                set.add_v_group(VReg::V0, 1);
            }
        }
        Inst::VMaskLogical { vs2, vs1, .. } => {
            set.add_v_group(vs2, 1);
            set.add_v_group(vs1, 1);
        }
        Inst::VUnary { vs2, vm, .. } => {
            set.add_v_group(vs2, 1);
            if !vm {
                set.add_v_group(VReg::V0, 1);
            }
        }
    }
    set
}

fn add_src(set: &mut RegSet, src: VSrc, g: u8) {
    match src {
        VSrc::V(vs1) => set.add_v_group(vs1, g),
        VSrc::X(rs1) => set.add_x(rs1),
        VSrc::F(rs1) => set.add_f(rs1),
        VSrc::I(_) => {}
    }
}

/// Adds register `index` of the `f` file when `float`, else of `x`.
fn add_raw(set: &mut RegSet, index: u8, float: bool) {
    if float {
        set.add_f(FReg::new(index).unwrap_or_default());
    } else {
        set.add_x(XReg::new(index).unwrap_or(XReg::ZERO));
    }
}

fn add_mode_uses(set: &mut RegSet, mode: VAddrMode, g: u8) {
    match mode {
        VAddrMode::Unit => {}
        VAddrMode::Strided(rs2) => set.add_x(rs2),
        VAddrMode::Indexed(vs2) => set.add_v_group(vs2, g),
    }
}

/// Registers written by `inst` under vector register-group length `g`
/// (for WAW-hazard detection against pending fills).
#[must_use]
pub fn defs_with_group(inst: &Inst, g: u8) -> RegSet {
    let mut set = RegSet::new();
    match *inst {
        Inst::Upper { rd, .. }
        | Inst::Jal { rd, .. }
        | Inst::Jalr { rd, .. }
        | Inst::Op { rd, .. }
        | Inst::Op32 { rd, .. }
        | Inst::Csr { rd, .. }
        | Inst::Amo { rd, .. }
        | Inst::Vsetvli { rd, .. }
        | Inst::Vsetivli { rd, .. }
        | Inst::Vsetvl { rd, .. } => set.add_x(rd),
        Inst::FpFma { rd, .. } => set.add_f(rd),
        Inst::Load { op, rd, .. } => add_raw(&mut set, rd, op.rd_is_f()),
        Inst::FpOp { op, rd, .. } => add_raw(&mut set, rd, op.rd_is_f()),
        Inst::FpCvt { op, rd, .. } => add_raw(&mut set, rd, op.rd_is_f()),
        Inst::VUnary { op, rd, .. } => add_raw(&mut set, rd, op.rd_is_f()),
        Inst::VLoad { vd, .. } => set.add_v_group(vd, g),
        Inst::VArith { op, vd, .. } => set.add_v_group(vd, if op.writes_mask() { 1 } else { g }),
        Inst::VMerge { vd, .. } | Inst::Vid { vd, .. } => set.add_v_group(vd, g),
        Inst::VRed { vd, .. } | Inst::VMvS { vd, .. } | Inst::VMaskLogical { vd, .. } => {
            set.add_v_group(vd, 1);
        }
        Inst::Branch { .. } | Inst::Store { .. } | Inst::VStore { .. } | Inst::System { .. } => {}
    }
    set
}

/// One predecoded micro-op: the decoded instruction plus everything the
/// per-cycle stepper would otherwise recompute on every retirement.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInst {
    /// The decoded instruction. Its enum discriminant is the exec-fn
    /// selector and its fields carry the pre-resolved register indices
    /// and immediate.
    pub inst: Inst,
    /// Cached use set, valid whenever `lmul_sensitive` is false.
    pub uses: RegSet,
    /// Cached def set, valid whenever `lmul_sensitive` is false.
    pub defs: RegSet,
    /// Whether the use/def sets depend on the hart's live `LMUL` (the
    /// vector register-group length). When set, the stepper must
    /// recompute them with [`uses_with_group`]/[`defs_with_group`].
    pub lmul_sensitive: bool,
    /// Whether the instruction counts toward the vector-retired stat.
    pub vector: bool,
}

impl DecodedInst {
    /// Builds the micro-op for a decoded instruction.
    #[must_use]
    pub fn from_inst(inst: Inst) -> DecodedInst {
        let vector = inst.is_vector();
        DecodedInst {
            uses: uses_with_group(&inst, 1),
            defs: defs_with_group(&inst, 1),
            // Group lengths only vary for vector operands, so every
            // non-vector instruction's sets are LMUL-independent.
            lmul_sensitive: vector,
            vector,
            inst,
        }
    }

    /// Decodes one word into a micro-op (the slow path for PCs outside
    /// the predecoded text segment).
    #[must_use]
    pub fn from_word(word: u32) -> Option<DecodedInst> {
        crate::decode::decode(word).ok().map(DecodedInst::from_inst)
    }
}

/// Predecode volume counters, for the host profiler's predecode phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredecodeStats {
    /// Text-segment words examined.
    pub words: u64,
    /// Words that decoded into a micro-op table entry.
    pub decoded: u64,
    /// Words left as `None` holes (illegal-instruction faults if ever
    /// reached).
    pub holes: u64,
}

/// Predecodes a text segment into the dense micro-op table the stepper
/// indexes by `(pc - text_base) / 4`. Words that do not decode leave a
/// `None` hole (reaching one at run time is an illegal-instruction
/// fault).
#[must_use]
pub fn predecode(words: &[u32]) -> Vec<Option<DecodedInst>> {
    predecode_with_stats(words).0
}

/// [`predecode`] plus volume counters: how many words were examined
/// and how many decoded. The table is computed identically.
#[must_use]
pub fn predecode_with_stats(words: &[u32]) -> (Vec<Option<DecodedInst>>, PredecodeStats) {
    let table: Vec<Option<DecodedInst>> =
        words.iter().map(|&w| DecodedInst::from_word(w)).collect();
    let decoded = table.iter().filter(|e| e.is_some()).count() as u64;
    let stats = PredecodeStats {
        words: words.len() as u64,
        decoded,
        holes: words.len() as u64 - decoded,
    };
    (table, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sets_are_group_independent() {
        let inst = crate::decode::decode(0x0010_0093).unwrap(); // addi ra, zero, 1
        for g in 1..=8 {
            assert_eq!(uses_with_group(&inst, g), uses_with_group(&inst, 1));
            assert_eq!(defs_with_group(&inst, g), defs_with_group(&inst, 1));
        }
        let d = DecodedInst::from_inst(inst);
        assert!(!d.lmul_sensitive);
        assert!(!d.vector);
        assert_eq!(d.defs.x, 1 << 1); // ra
    }

    /// The micro-op table is walked on every retirement; folding a shape
    /// must not grow its entries.
    #[test]
    fn micro_op_fits_in_48_bytes() {
        assert!(std::mem::size_of::<DecodedInst>() <= 48);
    }

    /// A fused run dispatches one pre-resolved uop per instruction; a
    /// new variant or operand must not grow it past 16 bytes.
    #[test]
    fn run_uop_fits_in_16_bytes() {
        assert!(std::mem::size_of::<crate::superblock::Uop>() <= 16);
    }

    #[test]
    fn undecodable_word_leaves_hole() {
        let table = predecode(&[0x0010_0093, 0xffff_ffff]);
        assert!(table[0].is_some());
        assert!(table[1].is_none());
    }
}
