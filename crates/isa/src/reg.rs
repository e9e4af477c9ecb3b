//! Register file newtypes for the three RISC-V register classes.
//!
//! The simulator manipulates integer ([`XReg`]), floating-point ([`FReg`])
//! and vector ([`VReg`]) register indices constantly; newtypes keep the
//! three spaces statically distinct (a scoreboard entry for `x5` can never
//! be confused with one for `f5` or `v5`).

use std::fmt;

/// Error returned when constructing a register from an out-of-range index.
///
/// RISC-V register files have exactly 32 architectural registers, so any
/// index above 31 is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRegError {
    /// The rejected index.
    pub index: u8,
}

impl fmt::Display for InvalidRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "register index {} out of range (0..=31)", self.index)
    }
}

impl std::error::Error for InvalidRegError {}

macro_rules! reg_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u8);

        impl $name {
            /// Creates a register from a raw index.
            ///
            /// # Errors
            ///
            /// Returns [`InvalidRegError`] if `index > 31`.
            pub fn new(index: u8) -> Result<Self, InvalidRegError> {
                if index < 32 {
                    Ok(Self(index))
                } else {
                    Err(InvalidRegError { index })
                }
            }

            /// Creates a register from the low five bits of `bits`,
            /// as extracted from an instruction encoding.
            #[must_use]
            pub fn from_bits(bits: u32) -> Self {
                Self((bits & 0x1f) as u8)
            }

            /// Returns the architectural index (0..=31).
            #[must_use]
            pub fn index(self) -> usize {
                usize::from(self.0)
            }

            /// Returns the index as the raw 5-bit field value.
            #[must_use]
            pub fn bits(self) -> u32 {
                u32::from(self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl TryFrom<u8> for $name {
            type Error = InvalidRegError;

            fn try_from(index: u8) -> Result<Self, Self::Error> {
                Self::new(index)
            }
        }

        impl From<$name> for u8 {
            fn from(reg: $name) -> u8 {
                reg.0
            }
        }
    };
}

reg_newtype!(
    /// An integer (`x`) register index.
    ///
    /// `x0` is hard-wired to zero; writes to it are discarded by the
    /// execution model, not by this type.
    XReg,
    "x"
);
reg_newtype!(
    /// A floating-point (`f`) register index.
    FReg,
    "f"
);
reg_newtype!(
    /// A vector (`v`) register index.
    VReg,
    "v"
);

impl XReg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: XReg = XReg(0);
    /// Return address `x1` (`ra`).
    pub const RA: XReg = XReg(1);
    /// Stack pointer `x2` (`sp`).
    pub const SP: XReg = XReg(2);
    /// Global pointer `x3` (`gp`).
    pub const GP: XReg = XReg(3);
    /// Thread pointer `x4` (`tp`).
    pub const TP: XReg = XReg(4);
    /// First argument / return value register `x10` (`a0`).
    pub const A0: XReg = XReg(10);
    /// Second argument register `x11` (`a1`).
    pub const A1: XReg = XReg(11);
    /// Syscall-number register `x17` (`a7`).
    pub const A7: XReg = XReg(17);

    /// ABI mnemonic for this register (e.g. `"a0"` for `x10`).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        X_ABI_NAMES[self.index()]
    }

    /// Parses either the numeric (`x7`) or ABI (`t2`) spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<XReg> {
        if let Some(rest) = name.strip_prefix('x') {
            if let Ok(n) = rest.parse::<u8>() {
                return XReg::new(n).ok();
            }
        }
        X_ABI_NAMES
            .iter()
            .position(|&abi| abi == name)
            .or(if name == "fp" { Some(8) } else { None })
            .map(|i| XReg(i as u8))
    }
}

impl FReg {
    /// First FP argument register `f10` (`fa0`).
    pub const FA0: FReg = FReg(10);

    /// ABI mnemonic for this register (e.g. `"fa0"` for `f10`).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        F_ABI_NAMES[self.index()]
    }

    /// Parses either the numeric (`f7`) or ABI (`ft7`) spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<FReg> {
        if let Some(rest) = name.strip_prefix('f') {
            if let Ok(n) = rest.parse::<u8>() {
                return FReg::new(n).ok();
            }
        }
        F_ABI_NAMES
            .iter()
            .position(|&abi| abi == name)
            .map(|i| FReg(i as u8))
    }
}

impl VReg {
    /// Vector register `v0`, also the mask register.
    pub const V0: VReg = VReg(0);

    /// Parses the numeric (`v12`) spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<VReg> {
        let rest = name.strip_prefix('v')?;
        let n = rest.parse::<u8>().ok()?;
        VReg::new(n).ok()
    }
}

const X_ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

const F_ABI_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

impl fmt::Display for XReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_out_of_range() {
        assert!(XReg::new(31).is_ok());
        assert_eq!(XReg::new(32), Err(InvalidRegError { index: 32 }));
        assert!(FReg::new(40).is_err());
        assert!(VReg::new(255).is_err());
    }

    #[test]
    fn from_bits_masks_to_five_bits() {
        assert_eq!(XReg::from_bits(0xffff_ffe5).index(), 5);
        assert_eq!(VReg::from_bits(32).index(), 0);
    }

    #[test]
    fn abi_names_round_trip() {
        for i in 0..32 {
            let x = XReg::new(i).unwrap();
            assert_eq!(XReg::parse(x.abi_name()), Some(x));
            assert_eq!(XReg::parse(&format!("x{i}")), Some(x));
            let f = FReg::new(i).unwrap();
            assert_eq!(FReg::parse(f.abi_name()), Some(f));
            let v = VReg::new(i).unwrap();
            assert_eq!(VReg::parse(&format!("v{i}")), Some(v));
        }
    }

    #[test]
    fn fp_alias_for_s0() {
        assert_eq!(XReg::parse("fp"), XReg::new(8).ok());
        assert_eq!(XReg::parse("s0"), XReg::new(8).ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(XReg::parse("x32"), None);
        assert_eq!(XReg::parse("y1"), None);
        assert_eq!(FReg::parse("f99"), None);
        assert_eq!(VReg::parse("w0"), None);
        assert_eq!(VReg::parse("v-1"), None);
    }

    #[test]
    fn display_uses_abi_names() {
        assert_eq!(XReg::A0.to_string(), "a0");
        assert_eq!(XReg::ZERO.to_string(), "zero");
        assert_eq!(FReg::FA0.to_string(), "fa0");
        assert_eq!(VReg::V0.to_string(), "v0");
    }

    #[test]
    fn well_known_constants() {
        assert_eq!(XReg::RA.index(), 1);
        assert_eq!(XReg::SP.index(), 2);
        assert_eq!(XReg::A0.index(), 10);
    }
}
