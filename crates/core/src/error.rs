//! How a run ends other than by every core halting, and why a stalled
//! core cannot make progress.

use std::fmt;

use coyote_iss::{CoreSnapshot, SimError};
use coyote_oracle::Divergence;

use crate::config::ConfigError;

/// Error terminating a simulation run.
#[derive(Debug)]
pub enum RunError {
    /// The configuration was invalid.
    Config(ConfigError),
    /// A core faulted (illegal instruction, unsupported vector config).
    Core {
        /// Which core faulted.
        core: usize,
        /// The underlying fault.
        source: SimError,
    },
    /// No core can ever make progress again (all stalled or halted with
    /// an idle hierarchy) — indicates a kernel or simulator bug.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Snapshot of every core at detection time: state, stalled PC
        /// and outstanding-miss counts.
        cores: Vec<CoreSnapshot>,
        /// Per stalled core: the line it waits on and where that line
        /// sits in the hierarchy, so the error display and the crash
        /// dump agree on what blocked whom.
        stalls: Vec<StallInfo>,
    },
    /// The co-simulation oracle caught the timed machine producing a
    /// different architectural result than the functional reference
    /// ([`crate::SimConfig::oracle`]).
    OracleDivergence(Box<Divergence>),
    /// The configured cycle budget was exhausted.
    CycleLimit {
        /// The budget that was exceeded.
        cycles: u64,
    },
    /// A graceful stop was requested (see
    /// [`crate::Simulation::set_stop_handle`]): the current cycle finished,
    /// the simulation state is intact, and a partial report is
    /// available via [`crate::Simulation::partial_report`].
    Stopped {
        /// Cycle the run stopped after.
        cycle: u64,
    },
}

/// Why one core in a [`RunError::Deadlock`] report cannot make
/// progress: the cache line it waits on, and — when the hierarchy
/// still tracks an in-flight request for it — the bank MSHR holding
/// that fill plus the PC that issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallInfo {
    /// The stalled core.
    pub core: usize,
    /// PC of the blocked instruction.
    pub pc: u64,
    /// Line the core waits on (first outstanding data line, or the
    /// blocked fetch line). `None` if the core records no pending line
    /// — a scoreboard-level simulator bug.
    pub line: Option<u64>,
    /// Global bank index whose MSHR holds the in-flight fill.
    pub bank: Option<usize>,
    /// Issuing PC the hierarchy recorded for that in-flight request.
    pub issue_pc: Option<u64>,
}

impl fmt::Display for StallInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core {} blocked at pc {:#x}", self.core, self.pc)?;
        match self.line {
            Some(line) => write!(f, " on line {line:#x}")?,
            None => write!(f, " with no pending line")?,
        }
        if let Some(bank) = self.bank {
            write!(f, " (bank {bank} MSHR")?;
            if let Some(pc) = self.issue_pc {
                write!(f, ", issued at pc {pc:#x}")?;
            }
            write!(f, ")")?;
        } else if self.line.is_some() {
            write!(f, " (not in flight in the hierarchy)")?;
        }
        Ok(())
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "{e}"),
            RunError::Core { core, source } => write!(f, "core {core}: {source}"),
            RunError::Deadlock {
                cycle,
                cores,
                stalls,
            } => {
                write!(f, "deadlock at cycle {cycle}")?;
                for snap in cores {
                    write!(f, "\n  {snap}")?;
                }
                if !stalls.is_empty() {
                    write!(f, "\nblocked on:")?;
                    for stall in stalls {
                        write!(f, "\n  {stall}")?;
                    }
                }
                Ok(())
            }
            RunError::OracleDivergence(divergence) => write!(f, "{divergence}"),
            RunError::CycleLimit { cycles } => write!(f, "cycle limit {cycles} exceeded"),
            RunError::Stopped { cycle } => {
                write!(f, "run stopped by request after cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Core { source, .. } => Some(source),
            RunError::OracleDivergence(divergence) => Some(divergence.as_ref()),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}
