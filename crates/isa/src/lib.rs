//! RISC-V instruction set definitions for the Coyote simulator.
//!
//! This crate is the foundation of the Coyote reproduction (DATE 2021:
//! *Coyote: An Open Source Simulation Tool to Enable RISC-V in HPC*). It
//! defines the supported instruction subset — RV64I, M, an A subset,
//! `Zicsr`, the D floating-point extension and the slice of the V vector
//! extension the paper's HPC kernels rely on — together with a decoder,
//! an encoder and a disassembler that are exact inverses.
//!
//! # Examples
//!
//! Decode, inspect and re-encode a word:
//!
//! ```
//! use coyote_isa::{decode::decode, encode::encode};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inst = decode(0x0010_0093)?; // addi ra, zero, 1
//! assert_eq!(inst.to_string(), "addi ra, zero, 1");
//! assert_eq!(encode(&inst)?, 0x0010_0093);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod csr;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod inst;
pub mod interval;
pub mod ops;
pub mod predecode;
pub mod reg;
pub mod superblock;
pub mod vtype;

pub use csr::Csr;
pub use decode::{decode, DecodeError};
pub use encode::{encode, EncodeError};
pub use inst::Inst;
pub use interval::{cross_owner_conflict, Access, OwnerAccesses, StoreMap};
pub use predecode::{predecode, predecode_with_stats, DecodedInst, PredecodeStats, RegSet};
pub use reg::{FReg, VReg, XReg};
pub use superblock::{build_plans, MemOp, Run, RunTable, Uop};
pub use vtype::{Lmul, Sew, VType};
