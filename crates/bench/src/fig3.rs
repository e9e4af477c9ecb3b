//! Figure 3 reproduction: aggregate simulation throughput (MIPS) as the
//! simulated core count grows, for scalar matmul and scalar SpMV.
//!
//! The paper reports the throughput rising from a 1-core bottleneck
//! (interleaving disabled in Spike) to ~6 MIPS at 128 cores. Absolute
//! numbers depend on the host; the reproduced *shape* — aggregate MIPS
//! growing with core count, matmul and SpMV tracking each other — is
//! what EXPERIMENTS.md records.

use std::time::Duration;

use coyote::SimConfig;
use coyote_kernels::workload::{run_workload, Workload};
use coyote_kernels::{MatmulScalar, SpmvScalar};

use crate::table::Table;
use crate::Scale;

/// One measured point of the Figure 3 sweep.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Simulated core count.
    pub cores: usize,
    /// Kernel name.
    pub kernel: &'static str,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Host wall-clock time.
    pub wall: Duration,
    /// Aggregate simulation throughput in MIPS.
    pub mips: f64,
    /// Fraction of retirements that took the superblock fused path.
    pub block_hit_rate: f64,
}

/// The core counts the paper sweeps (quick mode trims the tail).
#[must_use]
pub fn core_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 2, 4, 8],
        Scale::Paper => vec![1, 2, 4, 8, 16, 32, 64, 128],
    }
}

/// The scalar matmul kernel at the scale's problem size.
#[must_use]
pub fn matmul_for(scale: Scale) -> MatmulScalar {
    match scale {
        Scale::Quick => MatmulScalar::new(24, 1001),
        Scale::Paper => MatmulScalar::new(96, 1001),
    }
}

/// The scalar SpMV kernel at the scale's problem size.
#[must_use]
pub fn spmv_for(scale: Scale) -> SpmvScalar {
    match scale {
        Scale::Quick => SpmvScalar::new(128, 128, 0.06, 1002),
        Scale::Paper => SpmvScalar::new(2048, 2048, 0.02, 1002),
    }
}

/// Measures one point of the sweep: `workload` on `cores` simulated
/// cores.
#[must_use]
pub fn measure(workload: &dyn Workload, cores: usize) -> Fig3Row {
    let config = SimConfig::builder()
        .cores(cores)
        .cores_per_tile(8)
        .build()
        .expect("valid config");
    let (report, _) = run_workload(workload, config).expect("workload runs and verifies");
    Fig3Row {
        cores,
        kernel: if workload.name().starts_with("matmul") {
            "Matmul"
        } else {
            "SpMV"
        },
        instructions: report.total_retired(),
        cycles: report.cycles,
        wall: report.wall_time,
        mips: report.host_mips(),
        block_hit_rate: report.block_hit_rate(),
    }
}

/// Runs the sweep for both kernels across the scale's core counts
/// (fixed problem: strong scaling of the simulated application).
#[must_use]
pub fn run(scale: Scale) -> Vec<Fig3Row> {
    let matmul = matmul_for(scale);
    let spmv = spmv_for(scale);
    let mut rows = Vec::new();
    for &cores in &core_counts(scale) {
        rows.push(measure(&matmul, cores));
        rows.push(measure(&spmv, cores));
    }
    rows
}

/// Weak-scaling variant: the problem grows with the core count so every
/// core always has the same work — isolating how per-core simulated
/// state affects the host throughput as the system scales.
#[must_use]
pub fn run_weak(scale: Scale) -> Vec<Fig3Row> {
    let (rows_per_core, n, spmv_rows_per_core, spmv_cols) = match scale {
        Scale::Quick => (2usize, 24usize, 16usize, 128usize),
        Scale::Paper => (2, 96, 32, 1024),
    };
    let mut rows = Vec::new();
    for &cores in &core_counts(scale) {
        let matmul = coyote_kernels::MatmulScalar::with_rows(rows_per_core * cores, n, 1003);
        let spmv = SpmvScalar::new(spmv_rows_per_core * cores, spmv_cols, 0.04, 1004);
        rows.push(measure(&matmul, cores));
        rows.push(measure(&spmv, cores));
    }
    rows
}

/// Renders the sweep as the paper's figure series (one MIPS column per
/// kernel).
#[must_use]
pub fn table(rows: &[Fig3Row]) -> Table {
    let mut t = Table::new([
        "cores",
        "kernel",
        "instructions",
        "sim cycles",
        "wall [ms]",
        "MIPS",
        "block hit",
    ]);
    for row in rows {
        t.push([
            row.cores.to_string(),
            row.kernel.to_owned(),
            row.instructions.to_string(),
            row.cycles.to_string(),
            format!("{:.1}", row.wall.as_secs_f64() * 1e3),
            format!("{:.3}", row.mips),
            format!("{:.3}", row.block_hit_rate),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_all_points() {
        let rows = run(Scale::Quick);
        assert_eq!(rows.len(), core_counts(Scale::Quick).len() * 2);
        for row in &rows {
            assert!(row.instructions > 0);
            assert!(row.cycles > 0);
        }
        let t = table(&rows);
        assert_eq!(t.len(), rows.len());
    }

    #[test]
    fn weak_scaling_grows_work_with_cores() {
        let rows = run_weak(Scale::Quick);
        let matmul: Vec<&Fig3Row> = rows.iter().filter(|r| r.kernel == "Matmul").collect();
        assert!(
            matmul.last().unwrap().instructions > 2 * matmul[0].instructions,
            "weak scaling must grow total work"
        );
    }

    #[test]
    fn same_kernel_same_total_work() {
        // The simulated problem is fixed, so total instructions stay in
        // the same ballpark as cores grow (start-up code is per hart).
        let rows = run(Scale::Quick);
        let matmul: Vec<&Fig3Row> = rows.iter().filter(|r| r.kernel == "Matmul").collect();
        let base = matmul[0].instructions as f64;
        for row in &matmul {
            let ratio = row.instructions as f64 / base;
            assert!(
                (0.8..1.6).contains(&ratio),
                "instructions drifted: {} vs {}",
                row.instructions,
                base
            );
        }
    }

    #[test]
    fn more_cores_fewer_cycles() {
        // Strong scaling of the *simulated* application.
        let rows = run(Scale::Quick);
        let matmul: Vec<&Fig3Row> = rows.iter().filter(|r| r.kernel == "Matmul").collect();
        assert!(
            matmul.last().unwrap().cycles < matmul[0].cycles,
            "parallel run should take fewer simulated cycles"
        );
    }
}
