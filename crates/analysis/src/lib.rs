//! Guest-binary static analysis for the Coyote simulator.
//!
//! The simulator's fused windows test at *runtime*, on every chunk,
//! that concurrently executed cores never touch the same byte. This
//! crate asks the same question at *load time*: it recovers a
//! control-flow graph from the predecoded text, runs a strided-interval
//! abstract interpretation per core (with `mhartid` concretized, so
//! one SPMD image yields per-core footprints), and tries to prove all
//! cross-core write/any pairs disjoint. The answer is a verdict about
//! the workload, not a gate: nothing in the simulator consumes it (the
//! runtime test runs regardless), and any condition the static story
//! cannot cover (indirect jumps, escapes from text, unresolvable
//! addresses, atomics, vector memory) denies the certificate rather
//! than weakening it.
//!
//! The same artifacts power `coyote-check`, a workload linter that
//! reports dead code, misaligned accesses, stores into the text
//! segment, cross-core false sharing and a static stack estimate —
//! see [`mod@check`].
//!
//! Pipeline: [`Cfg`](coyote_isa::Cfg) recovery →
//! [`liveness`] → [`absint`] (per core) → [`footprint`] disjointness
//! tiers → [`mod@certify`] / [`mod@check`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod certify;
pub mod check;
pub mod domain;
pub mod footprint;
pub mod liveness;

pub use absint::{CoreAnalysis, MemAccess, Poison};
pub use certify::{analyze, certify, certify_analysis, Analysis, CertifyOutcome};
pub use check::{check, CheckReport, Diagnostic, Severity};
pub use domain::{AbsVal, StridedSet, UNBOUNDED};
pub use footprint::{disjoint, AccessPattern, Disjoint};
