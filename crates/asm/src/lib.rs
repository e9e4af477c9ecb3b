//! A two-pass RISC-V assembler for Coyote's baremetal kernels.
//!
//! The paper's kernels are assembled with the GNU toolchain; this crate
//! replaces that external dependency with a self-contained assembler for
//! the instruction subset defined in [`coyote_isa`]. It supports labels,
//! the common pseudo-instructions (`li`, `la`, `call`, `mv`, branch
//! aliases, …), `.text`/`.data` sections and the data directives kernels
//! need (`.word`, `.dword`, `.double`, `.zero`, `.align`, `.equ`).
//!
//! # Examples
//!
//! ```
//! use coyote_asm::assemble;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     ".data
//!      value:
//!         .dword 41
//!      .text
//!      _start:
//!         la t0, value
//!         ld a0, 0(t0)
//!         addi a0, a0, 1
//!         ecall",
//! )?;
//! assert_eq!(program.text().len(), 5); // la expands to two instructions
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod assembler;
pub mod error;
pub mod expand;
pub mod operand;
pub mod program;

pub use assembler::{assemble, Assembler};
pub use error::AsmError;
pub use program::Program;
