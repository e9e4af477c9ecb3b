//! Coyote: an execution-driven RISC-V multicore simulator for HPC
//! design space exploration — a from-scratch Rust reproduction of
//! *"Coyote: An Open Source Simulation Tool to Enable RISC-V in HPC"*
//! (Perez, Fell, Davis — DATE 2021).
//!
//! Coyote couples a functional RISC-V simulator with L1 cache models
//! (the paper uses Spike; here [`coyote_iss`]) to an event-driven model
//! of the rest of the memory hierarchy — banked L2, NoC, memory
//! controllers (the paper uses Sparta; here [`coyote_mem`]) — through an
//! Orchestrator ([`Simulation`]) that executes one instruction per
//! active core per cycle, stalls cores on RAW dependencies against
//! in-flight misses, and wakes them when the hierarchy services those
//! misses.
//!
//! # Quick start
//!
//! ```
//! use coyote::{SimConfig, Simulation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = coyote_asm::assemble(
//!     "_start:
//!         csrr t0, mhartid     # partition work by hart
//!         addi a0, t0, 10
//!         li a7, 93
//!         ecall                # exit(10 + hartid)",
//! )?;
//! let config = SimConfig::builder().cores(2).build()?;
//! let mut sim = Simulation::new(config, &program)?;
//! let report = sim.run()?;
//! assert_eq!(report.exit_codes(), Some(vec![10, 11]));
//! println!("{report}");
//! # Ok(())
//! # }
//! ```
//!
//! See the `coyote-kernels` crate for the paper's HPC kernels (matmul,
//! SpMV, stencil) and the `coyote-bench` crate for the `repro` harness
//! that regenerates the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod attr;
mod chunks;
pub mod config;
mod crash;
mod error;
pub mod flight;
pub mod metrics;
mod observe;
pub mod report;
pub mod sim;
pub mod trace;

pub use attr::{StallAttribution, StallLink};
pub use config::{ConfigError, ProfMode, SimConfig, SimConfigBuilder};
pub use crash::CRASH_SCHEMA_VERSION;
pub use error::{RunError, StallInfo};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use metrics::{
    chrome_trace_json, host_profile_json, metrics_csv, metrics_json, ChromeTraceDoc, SCHEMA_VERSION,
};
pub use report::{CoreReport, Report};
pub use sim::Simulation;
pub use trace::{Trace, TraceEvent};

// Re-export the building blocks so downstream users need one import.
pub use coyote_iss::{CacheConfig, CoreConfig, CoreSnapshot, SparseMemory};
pub use coyote_mem::hierarchy::L2Sharing;
pub use coyote_mem::l2::L2Config;
pub use coyote_mem::mapping::MappingPolicy;
pub use coyote_mem::mc::McConfig;
pub use coyote_mem::noc::NocModel;
pub use coyote_oracle::{Delta, Divergence, LockstepChecker};
pub use coyote_telemetry::{parse_json, Histogram, HostProf, JsonValue, Stage, TimeSeries};
