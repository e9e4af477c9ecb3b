//! Functional RISC-V instruction set simulator with L1 cache models —
//! the Spike substitute of the Coyote reproduction.
//!
//! The paper integrates Spike for functional execution plus L1 modelling
//! and Sparta for everything below; this crate is the former half. It
//! provides:
//!
//! * [`hart::Hart`] — architectural state (scalar, FP and vector files);
//! * [`exec`] — the execution semantics of the supported RV64 subset;
//! * [`mem::SparseMemory`] — the shared functional memory;
//! * [`cache::Cache`] — probe-only L1 I/D models (LRU, write-back);
//! * [`scoreboard::Scoreboard`] — RAW/WAW tracking against in-flight
//!   misses;
//! * [`core::Core`] — the per-cycle stepping contract the Coyote
//!   orchestrator drives.
//!
//! # Examples
//!
//! Run a tiny program on one core with an ideal (zero-latency) memory
//! below the L1s:
//!
//! ```
//! use coyote_iss::core::{Core, CoreConfig, CoreState, DecodedText};
//! use coyote_iss::mem::SparseMemory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = coyote_asm::assemble(
//!     "_start:
//!         li a0, 42
//!         li a7, 93
//!         ecall",
//! )?;
//! let mut mem = SparseMemory::new();
//! mem.load_program(&program);
//! let text = DecodedText::from_program(&program);
//! let mut core = Core::new(0, program.entry(), &CoreConfig::default());
//!
//! let mut misses = Vec::new();
//! for cycle in 0..100 {
//!     if let CoreState::Halted(code) = core.state() {
//!         assert_eq!(code, 42);
//!         return Ok(());
//!     }
//!     if core.state() == CoreState::Active {
//!         core.step(&mut mem, &text, cycle, &mut misses)?;
//!     }
//!     for miss in misses.drain(..) {
//!         core.complete_fill(miss.line_addr, miss.kind, cycle);
//!     }
//! }
//! panic!("did not halt");
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod cache;
pub mod core;
pub mod exec;
pub mod hart;
pub mod mem;
pub mod scoreboard;
pub mod superblock;

pub use crate::core::{
    Core, CoreConfig, CoreSnapshot, CoreState, CoreStats, DecodedText, MissKind, MissRequest,
    SimError, StepEvent,
};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use exec::{Dest, Ecall, Effects, ExecError, MemAccess, RegSet};
pub use hart::{Hart, DEFAULT_VLEN_BITS};
pub use mem::SparseMemory;
pub use scoreboard::Scoreboard;
pub use superblock::{accesses_conflict, ArmState, ArmedRun, FuseDiag, FuseStop, FusedAccess};
