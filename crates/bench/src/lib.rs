//! Benchmark and reproduction harness for the Coyote paper's
//! evaluation.
//!
//! The library half holds the experiment implementations the `repro`
//! binary prints; see [`fig3`] for the
//! paper's figure and [`experiments`] for the remaining evaluation
//! axes. Experiment ids match the DESIGN.md per-experiment index.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fig3;
pub mod table;

/// Problem-size preset for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for tests and smoke runs (seconds).
    Quick,
    /// Paper-scale inputs for EXPERIMENTS.md (minutes).
    Paper,
}

pub use table::Table;
