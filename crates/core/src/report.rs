//! Simulation report: the statistics the paper says Coyote outputs
//! ("statistics about memory accesses (miss rates, number of stalls due
//! to dependencies, etc.), the execution time of the simulated
//! application"), plus host-side throughput for the Figure 3
//! reproduction — and the other two read-only views of a machine's
//! counters: the epoch snapshot and the determinism digest.

use std::fmt;
use std::time::Duration;

use coyote_iss::core::{Core, CoreState};
use coyote_iss::{CacheStats, CoreStats, SparseMemory};
use coyote_mem::hierarchy::{Hierarchy, HierarchyStats};
use coyote_telemetry::{EpochSnapshot, BLAME_COLS};

/// Per-core slice of a report.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Core counters (retired, stalls, …).
    pub stats: CoreStats,
    /// L1I counters.
    pub l1i: CacheStats,
    /// L1D counters.
    pub l1d: CacheStats,
    /// Exit code, if the core halted.
    pub exit_code: Option<i64>,
    /// Console bytes the core printed.
    pub console: Vec<u8>,
    /// Instructions retired through the superblock fused path — a
    /// host-diagnostic counter (deliberately outside [`CoreStats`] so
    /// the determinism digest cannot depend on the fusion knob).
    pub fused_retired: u64,
}

/// Complete result of a simulation run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Simulated execution time in cycles.
    pub cycles: u64,
    /// Per-core results.
    pub cores: Vec<CoreReport>,
    /// Memory-hierarchy counters.
    pub hierarchy: HierarchyStats,
    /// Host wall-clock time of the run.
    pub wall_time: Duration,
    /// Whether a graceful stop cut the run short: the counters above
    /// cover only the cycles that actually ran. Always `false` for a
    /// run that reached halt on its own.
    pub truncated: bool,
}

impl Report {
    /// The counters of a machine `cycle` cycles into its run.
    pub(crate) fn collect(
        cycle: u64,
        cores: &[Core],
        hierarchy: &Hierarchy,
        wall_time: Duration,
    ) -> Report {
        Report {
            cycles: cycle,
            cores: cores
                .iter()
                .map(|core| CoreReport {
                    stats: core.stats(),
                    l1i: core.icache_stats(),
                    l1d: core.dcache_stats(),
                    exit_code: match core.state() {
                        CoreState::Halted(code) => Some(code),
                        _ => None,
                    },
                    console: core.console().to_vec(),
                    fused_retired: core.fused_retired(),
                })
                .collect(),
            hierarchy: hierarchy.stats(),
            wall_time,
            truncated: false,
        }
    }

    /// Total instructions retired across cores.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.retired).sum()
    }

    /// Aggregate simulation throughput in simulated MIPS
    /// (million instructions per host second) — the Figure 3 metric.
    #[must_use]
    pub fn host_mips(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_retired() as f64 / secs / 1.0e6
        }
    }

    /// Aggregate instructions per simulated cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired() as f64 / self.cycles as f64
        }
    }

    /// Combined L1D miss rate.
    #[must_use]
    pub fn l1d_miss_rate(&self) -> f64 {
        let hits: u64 = self.cores.iter().map(|c| c.l1d.hits).sum();
        let misses: u64 = self.cores.iter().map(|c| c.l1d.misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            misses as f64 / (hits + misses) as f64
        }
    }

    /// Total cycles cores spent stalled on RAW dependencies.
    #[must_use]
    pub fn total_dep_stall_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.dep_stall_cycles).sum()
    }

    /// Instructions retired through the superblock fused path, across
    /// cores.
    #[must_use]
    pub fn total_fused_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.fused_retired).sum()
    }

    /// Fraction of all retirements that took the fused path (0 when
    /// fusion is disabled or nothing retired).
    #[must_use]
    pub fn block_hit_rate(&self) -> f64 {
        let retired = self.total_retired();
        if retired == 0 {
            0.0
        } else {
            self.total_fused_retired() as f64 / retired as f64
        }
    }

    /// All cores' exit codes, if all halted.
    #[must_use]
    pub fn exit_codes(&self) -> Option<Vec<i64>> {
        self.cores.iter().map(|c| c.exit_code).collect()
    }

    /// Concatenated console output in core order.
    #[must_use]
    pub fn console_string(&self) -> String {
        let mut out = String::new();
        for core in &self.cores {
            out.push_str(&String::from_utf8_lossy(&core.console));
        }
        out
    }
}

/// The cumulative-counter snapshot the telemetry sink differences into
/// one epoch sample; `blame` is the per-core dep-stall blame so far.
pub(crate) fn epoch_snapshot(
    cycle: u64,
    cores: &[Core],
    hierarchy: &Hierarchy,
    blame: &[[u64; BLAME_COLS]],
) -> EpochSnapshot {
    let per_core = cores
        .iter()
        .map(|core| {
            let stats = core.stats_through(cycle);
            [
                stats.retired,
                stats.dep_stall_cycles,
                stats.fetch_stall_cycles,
            ]
        })
        .collect();
    let stats = hierarchy.stats();
    let mshr = hierarchy.mshr_occupancy();
    let per_bank = stats
        .banks
        .iter()
        .zip(&mshr)
        .map(|(bank, &occupancy)| [bank.hits, bank.misses, occupancy as u64])
        .collect();
    EpochSnapshot {
        cycle,
        per_core,
        per_core_blame: blame.to_vec(),
        per_bank,
        noc_traversals: stats.noc.traversals,
        completed: stats.completed,
        queued_requests: hierarchy.queued_requests() as u64,
        in_flight: hierarchy.in_flight_requests() as u64,
        mc_busy_channels: hierarchy.mc_busy_channels(cycle) as u64,
    }
}

/// See [`crate::Simulation::determinism_digest`].
pub(crate) fn determinism_digest(
    cycle: u64,
    cores: &[Core],
    hierarchy: &Hierarchy,
    mem: &SparseMemory,
) -> u64 {
    fn fnv(acc: u64, bytes: &[u8]) -> u64 {
        let mix = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        bytes.iter().fold(acc, mix)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv(h, &cycle.to_le_bytes());
    for core in cores {
        let exit = match core.state() {
            CoreState::Halted(code) => format!("halt:{code}"),
            other => format!("{other:?}"),
        };
        let line = format!(
            "core {} {exit} {:?} {:?} {:?}",
            core.index(),
            core.stats(),
            core.icache_stats(),
            core.dcache_stats(),
        );
        h = fnv(h, line.as_bytes());
        h = fnv(h, core.console());
    }
    h = fnv(h, format!("{:?}", hierarchy.stats()).as_bytes());
    h = fnv(h, &mem.digest().to_le_bytes());
    h
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles: {}  instructions: {}  IPC: {:.3}  host MIPS: {:.2}",
            self.cycles,
            self.total_retired(),
            self.ipc(),
            self.host_mips()
        )?;
        writeln!(
            f,
            "L1D miss rate: {:.2}%  L2 miss rate: {:.2}%  dep-stall cycles: {}",
            self.l1d_miss_rate() * 100.0,
            self.hierarchy.l2_miss_rate() * 100.0,
            self.total_dep_stall_cycles()
        )?;
        for (i, core) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "  core {i}: {} retired, {} dep stalls ({} cycles), L1D {:.1}% miss, exit {:?}",
                core.stats.retired,
                core.stats.dep_stalls,
                core.stats.dep_stall_cycles,
                core.l1d.miss_rate() * 100.0,
                core.exit_code
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let core = CoreReport {
            stats: CoreStats {
                retired: 500,
                dep_stall_cycles: 100,
                dep_stalls: 10,
                ..CoreStats::default()
            },
            l1i: CacheStats::default(),
            l1d: CacheStats {
                hits: 90,
                misses: 10,
                writebacks: 0,
            },
            exit_code: Some(0),
            console: b"ok".to_vec(),
            fused_retired: 250,
        };
        Report {
            cycles: 1000,
            cores: vec![core.clone(), core],
            hierarchy: HierarchyStats::default(),
            wall_time: Duration::from_millis(10),
            truncated: false,
        }
    }

    #[test]
    fn aggregate_math() {
        let r = report();
        assert_eq!(r.total_retired(), 1000);
        assert_eq!(r.ipc(), 1.0);
        assert_eq!(r.l1d_miss_rate(), 0.1);
        assert_eq!(r.total_dep_stall_cycles(), 200);
        assert_eq!(r.total_fused_retired(), 500);
        assert!((r.block_hit_rate() - 0.5).abs() < 1e-12);
        // 1000 instructions / 0.01 s = 100k inst/s = 0.1 MIPS.
        assert!((r.host_mips() - 0.1).abs() < 1e-9);
        assert_eq!(r.exit_codes(), Some(vec![0, 0]));
        assert_eq!(r.console_string(), "okok");
    }

    #[test]
    fn partial_halt_yields_no_exit_codes() {
        let mut r = report();
        r.cores[1].exit_code = None;
        assert_eq!(r.exit_codes(), None);
    }

    #[test]
    fn display_mentions_key_metrics() {
        let text = report().to_string();
        assert!(text.contains("IPC"));
        assert!(text.contains("core 0"));
        assert!(text.contains("L1D miss rate"));
    }

    #[test]
    fn zero_division_is_safe() {
        let r = Report {
            cycles: 0,
            cores: Vec::new(),
            hierarchy: HierarchyStats::default(),
            wall_time: Duration::ZERO,
            truncated: false,
        };
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.host_mips(), 0.0);
        assert_eq!(r.l1d_miss_rate(), 0.0);
        assert_eq!(r.block_hit_rate(), 0.0);
    }
}
