//! The paper's HPC kernels, assembled for the Coyote simulator.
//!
//! "Four different kernels have been adapted to baremetal simulation in
//! Spike and can be executed using Coyote [...]: scalar matrix
//! multiplication, vector matrix multiplication, vector SpMV (three
//! different implementations of the algorithm) and vector stencil."
//!
//! This crate provides exactly those six kernels as [`Workload`]s —
//! each bundles its RISC-V assembly, a seeded data generator and a
//! host-side oracle that verifies the simulated result — plus a scalar
//! SpMV used (with scalar matmul) by the Figure 3 throughput
//! experiment, and an [`MlpInference`] "AI" kernel from the paper's
//! future-work list.
//!
//! # Examples
//!
//! ```
//! use coyote::SimConfig;
//! use coyote_kernels::matmul::MatmulScalar;
//! use coyote_kernels::workload::run_workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = MatmulScalar::new(8, 42);
//! let config = SimConfig::builder().cores(2).build()?;
//! let (report, _sim) = run_workload(&workload, config)?;
//! assert!(report.total_retired() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod data;
pub mod fft;
pub mod filter;
pub mod matmul;
pub mod mlp;
pub mod spmv;
pub mod stencil;
pub mod workload;

pub use data::{CsrMatrix, DenseMatrix};
pub use fft::FftRadix2;
pub use filter::ThresholdFilter;
pub use matmul::{MatmulScalar, MatmulVector};
pub use mlp::MlpInference;
pub use spmv::{SpmvScalar, SpmvVectorAdaptive, SpmvVectorCsr, SpmvVectorEll};
pub use stencil::StencilVector;
pub use workload::{run_workload, VerifyError, Workload, WorkloadError};
