//! Architectural state of one hart: scalar, floating-point and vector
//! register files plus the machine CSR subset.

use coyote_isa::{Csr, FReg, VReg, VType, XReg};

/// A hardware thread's architectural state.
///
/// The vector register file length (VLEN) is configurable per hart; the
/// paper's VPU has 16 lanes of 64 bits, i.e. `vlen_bits = 1024`, which is
/// the default used throughout the workspace.
#[derive(Debug, Clone)]
pub struct Hart {
    /// Program counter.
    pub pc: u64,
    x: [u64; 32],
    f: [u64; 32],
    /// Vector register file: 32 registers of `vlen_bits/8` bytes each.
    v: Vec<u8>,
    vlen_bits: u64,
    /// Current vector length.
    pub vl: u64,
    /// Current vector type.
    pub vtype: VType,
    hart_id: u64,
    mscratch: u64,
}

/// Default VLEN in bits: 16 lanes × 64 bits, the paper's VPU shape.
pub const DEFAULT_VLEN_BITS: u64 = 1024;

/// The first `N` bytes of `bytes` as an array (a fixed-width copy).
fn fixed<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&bytes[..N]);
    out
}

/// The architectural mask register (`v0`).
#[must_use]
pub fn mask_reg() -> VReg {
    VReg::V0
}

impl Hart {
    /// Creates a hart with the given ID, entry PC and VLEN.
    ///
    /// # Panics
    ///
    /// Panics if `vlen_bits` is not a power of two ≥ 64.
    #[must_use]
    pub fn new(hart_id: u64, pc: u64, vlen_bits: u64) -> Hart {
        assert!(
            vlen_bits >= 64 && vlen_bits.is_power_of_two(),
            "vlen must be a power of two >= 64"
        );
        Hart {
            pc,
            x: [0; 32],
            f: [0; 32],
            v: vec![0; (vlen_bits as usize / 8) * 32],
            vlen_bits,
            vl: 0,
            vtype: VType::default(),
            hart_id,
            mscratch: 0,
        }
    }

    /// This hart's ID as reported by `mhartid`.
    #[must_use]
    pub fn hart_id(&self) -> u64 {
        self.hart_id
    }

    /// VLEN in bits.
    #[must_use]
    pub fn vlen_bits(&self) -> u64 {
        self.vlen_bits
    }

    /// Reads an integer register (`x0` always reads zero).
    #[must_use]
    pub fn x(&self, reg: XReg) -> u64 {
        self.x[reg.index()]
    }

    /// Writes an integer register (writes to `x0` are dropped).
    pub fn set_x(&mut self, reg: XReg, value: u64) {
        if reg != XReg::ZERO {
            self.x[reg.index()] = value;
        }
    }

    /// Reads an FP register as raw bits.
    #[must_use]
    pub fn f_bits(&self, reg: FReg) -> u64 {
        self.f[reg.index()]
    }

    /// Reads an FP register as `f64`.
    #[must_use]
    pub fn f(&self, reg: FReg) -> f64 {
        f64::from_bits(self.f[reg.index()])
    }

    /// Writes an FP register from raw bits.
    pub fn set_f_bits(&mut self, reg: FReg, bits: u64) {
        self.f[reg.index()] = bits;
    }

    /// Writes an FP register from an `f64`.
    pub fn set_f(&mut self, reg: FReg, value: f64) {
        self.f[reg.index()] = value.to_bits();
    }

    /// Reads vector element `idx` of `reg` as a 64-bit value
    /// (zero-extended for narrower element widths).
    ///
    /// # Panics
    ///
    /// Panics if the element lies outside the register or `elem_bytes`
    /// is not 1, 2, 4 or 8.
    #[must_use]
    pub fn v_elem(&self, reg: VReg, idx: u64, elem_bytes: u64) -> u64 {
        let o = self.v_offset(reg, idx, elem_bytes);
        let v = &self.v;
        match elem_bytes {
            1 => u64::from(v[o]),
            2 => u64::from(u16::from_le_bytes(fixed(&v[o..]))),
            4 => u64::from(u32::from_le_bytes(fixed(&v[o..]))),
            8 => u64::from_le_bytes(fixed(&v[o..])),
            _ => panic!("vector element width {elem_bytes} is not 1, 2, 4 or 8"),
        }
    }

    /// Writes vector element `idx` of `reg` (truncating to the element
    /// width).
    ///
    /// # Panics
    ///
    /// Panics if the element lies outside the register or `elem_bytes`
    /// is not 1, 2, 4 or 8.
    pub fn set_v_elem(&mut self, reg: VReg, idx: u64, elem_bytes: u64, value: u64) {
        let o = self.v_offset(reg, idx, elem_bytes);
        let v = &mut self.v;
        match elem_bytes {
            1 => v[o] = value as u8,
            2 => v[o..o + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => v[o..o + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            8 => v[o..o + 8].copy_from_slice(&value.to_le_bytes()),
            _ => panic!("vector element width {elem_bytes} is not 1, 2, 4 or 8"),
        }
    }

    /// Element index into the flat vector file. Element indices past the
    /// end of `reg` spill into the next architectural register, giving
    /// LMUL>1 register groups for free.
    fn v_offset(&self, reg: VReg, idx: u64, elem_bytes: u64) -> usize {
        let vlen_bytes = self.vlen_bits / 8;
        let offset = reg.index() as u64 * vlen_bytes + idx * elem_bytes;
        assert!(
            offset + elem_bytes <= self.v.len() as u64,
            "vector element {idx} of {reg:?} out of file"
        );
        offset as usize
    }

    /// Mask bit `idx` from `v0` (LSB-first packing per the V spec).
    #[must_use]
    pub fn v0_mask_bit(&self, idx: u64) -> bool {
        self.v_bit(crate::hart::mask_reg(), idx)
    }

    /// Mask bit `idx` of an arbitrary vector register.
    ///
    /// # Panics
    ///
    /// Panics if the bit lies outside the register file.
    #[must_use]
    pub fn v_bit(&self, reg: VReg, idx: u64) -> bool {
        let vlen_bytes = self.vlen_bits / 8;
        let byte = self.v[(reg.index() as u64 * vlen_bytes + idx / 8) as usize];
        (byte >> (idx % 8)) & 1 == 1
    }

    /// Sets mask bit `idx` of an arbitrary vector register.
    ///
    /// # Panics
    ///
    /// Panics if the bit lies outside the register file.
    pub fn set_v_bit(&mut self, reg: VReg, idx: u64, value: bool) {
        let vlen_bytes = self.vlen_bits / 8;
        let byte = &mut self.v[(reg.index() as u64 * vlen_bytes + idx / 8) as usize];
        if value {
            *byte |= 1 << (idx % 8);
        } else {
            *byte &= !(1 << (idx % 8));
        }
    }

    /// `VLMAX` for the current `vtype`.
    #[must_use]
    pub fn vlmax(&self) -> u64 {
        self.vtype.vlmax(self.vlen_bits)
    }

    /// Reads a CSR.
    ///
    /// `cycle`/`instret`/`time` are owned by the orchestrator, which
    /// passes the current counts in.
    #[must_use]
    pub fn read_csr(&self, csr: Csr, cycle: u64, instret: u64) -> u64 {
        match csr {
            Csr::MHARTID => self.hart_id,
            Csr::MSCRATCH => self.mscratch,
            Csr::CYCLE | Csr::TIME => cycle,
            Csr::INSTRET => instret,
            Csr::VL => self.vl,
            Csr::VTYPE => self.vtype.to_bits(),
            Csr::VLENB => self.vlen_bits / 8,
            _ => 0,
        }
    }

    /// Writes a CSR (read-only and unknown CSRs are ignored, as the
    /// baremetal kernels never depend on trapping).
    pub fn write_csr(&mut self, csr: Csr, value: u64) {
        if csr == Csr::MSCRATCH {
            self.mscratch = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hart() -> Hart {
        Hart::new(3, 0x8000_0000, DEFAULT_VLEN_BITS)
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut h = hart();
        h.set_x(XReg::ZERO, 99);
        assert_eq!(h.x(XReg::ZERO), 0);
        h.set_x(XReg::A0, 99);
        assert_eq!(h.x(XReg::A0), 99);
    }

    #[test]
    fn fp_bits_round_trip() {
        let mut h = hart();
        let r = FReg::new(7).unwrap();
        h.set_f(r, 2.5);
        assert_eq!(h.f(r), 2.5);
        h.set_f_bits(r, 0x7ff8_0000_0000_1234);
        assert_eq!(h.f_bits(r), 0x7ff8_0000_0000_1234);
    }

    #[test]
    fn vector_elements_round_trip() {
        let mut h = hart();
        let v3 = VReg::new(3).unwrap();
        for i in 0..16 {
            h.set_v_elem(v3, i, 8, 1000 + i);
        }
        for i in 0..16 {
            assert_eq!(h.v_elem(v3, i, 8), 1000 + i);
        }
        // 32-bit elements: 32 of them per 1024-bit register.
        let v4 = VReg::new(4).unwrap();
        h.set_v_elem(v4, 31, 4, 0xdead_beef_aabb_ccdd);
        assert_eq!(h.v_elem(v4, 31, 4), 0xaabb_ccdd); // truncated
    }

    #[test]
    fn lmul_groups_spill_into_next_register() {
        let mut h = hart();
        let v8 = VReg::new(8).unwrap();
        let v9 = VReg::new(9).unwrap();
        // Element 16 of v8 with SEW=64 is element 0 of v9.
        h.set_v_elem(v8, 16, 8, 777);
        assert_eq!(h.v_elem(v9, 0, 8), 777);
    }

    #[test]
    fn mask_bits_lsb_first() {
        let mut h = hart();
        h.set_v_elem(VReg::V0, 0, 1, 0b0000_0101);
        assert!(h.v0_mask_bit(0));
        assert!(!h.v0_mask_bit(1));
        assert!(h.v0_mask_bit(2));
        assert!(!h.v0_mask_bit(8));
    }

    #[test]
    fn arbitrary_register_bits() {
        let mut h = hart();
        let v7 = VReg::new(7).unwrap();
        h.set_v_bit(v7, 0, true);
        h.set_v_bit(v7, 9, true);
        h.set_v_bit(v7, 127, true);
        assert!(h.v_bit(v7, 0));
        assert!(!h.v_bit(v7, 1));
        assert!(h.v_bit(v7, 9));
        assert!(h.v_bit(v7, 127));
        h.set_v_bit(v7, 9, false);
        assert!(!h.v_bit(v7, 9));
        // Other registers untouched.
        assert!(!h.v_bit(VReg::new(8).unwrap(), 0));
    }

    #[test]
    fn csr_reads() {
        let h = hart();
        assert_eq!(h.read_csr(Csr::MHARTID, 0, 0), 3);
        assert_eq!(h.read_csr(Csr::VLENB, 0, 0), 128);
        assert_eq!(h.read_csr(Csr::CYCLE, 42, 7), 42);
        assert_eq!(h.read_csr(Csr::INSTRET, 42, 7), 7);
    }

    #[test]
    fn mscratch_writable_others_ignored() {
        let mut h = hart();
        h.write_csr(Csr::MSCRATCH, 0x1234);
        assert_eq!(h.read_csr(Csr::MSCRATCH, 0, 0), 0x1234);
        h.write_csr(Csr::MHARTID, 0xffff);
        assert_eq!(h.read_csr(Csr::MHARTID, 0, 0), 3);
    }

    #[test]
    #[should_panic(expected = "vlen")]
    fn bad_vlen_rejected() {
        let _ = Hart::new(0, 0, 48);
    }
}
