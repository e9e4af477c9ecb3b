//! Deterministic discrete-event memory-hierarchy model — the Sparta
//! substitute of the Coyote reproduction.
//!
//! The paper uses SiFive's Sparta framework to model everything below
//! the L1 caches "based on a modular design, in which the functionality
//! of each element (e.g. an L2 Bank) is encapsulated as an independent
//! component". This crate rebuilds that layer from scratch:
//!
//! * [`event::EventQueue`] — the cycle-ordered, deterministic event
//!   kernel: a timing wheel with O(1) push and pop whose pop order is
//!   one key, `(time, domain group, content rank, seq)`;
//! * [`l2::L2Bank`] — banked L2 with MSHR-limited outstanding misses;
//! * [`mapping::MappingPolicy`] — the paper's two data-mapping policies
//!   (page-to-bank and set-interleaving);
//! * [`noc::Noc`] — the idealized crossbar of the paper plus a 2D-mesh
//!   extension;
//! * [`mc::MemoryController`] — HBM-style multi-channel controllers with
//!   bandwidth and latency;
//! * [`hierarchy::Hierarchy`] — the wiring: submit L1 misses, advance
//!   the clock, collect completions; in-flight requests live in a slab
//!   whose slot each event carries.
//!
//! # Examples
//!
//! ```
//! use coyote_mem::hierarchy::{Hierarchy, HierarchyConfig, Request};
//!
//! # fn main() -> Result<(), String> {
//! let mut hierarchy = Hierarchy::new(HierarchyConfig::default())?;
//! hierarchy.submit(0, Request {
//!     line_addr: 0x8000_0000,
//!     tile: 0,
//!     needs_response: true,
//!     tag: 42,
//!     pc: 0,
//! });
//! let mut completions = Vec::new();
//! let mut cycle = 0;
//! while !hierarchy.is_idle() {
//!     cycle += 1;
//!     hierarchy.advance(cycle, &mut completions);
//! }
//! assert_eq!(completions.len(), 1);
//! assert_eq!(completions[0].tag, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]

pub mod event;
pub mod fastmap;
pub mod hierarchy;
pub mod l2;
pub mod mapping;
pub mod mc;
pub mod noc;
pub mod telemetry;

pub use event::EventQueue;
pub use fastmap::{FastHasher, FastMap};
pub use hierarchy::{Completion, Hierarchy, HierarchyConfig, HierarchyStats, L2Sharing, Request};
pub use l2::{BankStats, L2Bank, L2Config};
pub use mapping::MappingPolicy;
pub use mc::{McConfig, McStats, MemoryController};
pub use noc::{Noc, NocModel, NocNode, NocStats};
pub use telemetry::{MemTelemetry, RequestSlice, SLICE_CAP};
