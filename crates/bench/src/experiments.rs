//! The evaluation experiments beyond Figure 3: one per configuration
//! axis the paper promises (interleaving, L2 sharing, mapping policy,
//! L2 geometry/MSHRs, NoC, the kernel suite, vector vs scalar, and the
//! Paraver trace).
//!
//! Every experiment returns both structured rows and a rendered
//! [`Table`]; the `repro` binary prints the tables recorded in
//! EXPERIMENTS.md.

use coyote::{
    L2Config, L2Sharing, MappingPolicy, McConfig, NocModel, Report, SimConfig, Simulation,
};
use coyote_kernels::workload::{run_workload, Workload};
use coyote_kernels::{
    FftRadix2, MatmulScalar, MatmulVector, MlpInference, SpmvScalar, SpmvVectorAdaptive,
    SpmvVectorCsr, SpmvVectorEll, StencilVector, ThresholdFilter,
};

use crate::table::Table;
use crate::Scale;

fn base_builder(cores: usize) -> coyote::SimConfigBuilder {
    SimConfig::builder().cores(cores).cores_per_tile(8)
}

fn run(workload: &dyn Workload, config: SimConfig) -> (Report, Simulation) {
    run_workload(workload, config).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()))
}

/// Spike-interleaving ablation (§III-A): with interleaving disabled
/// (factor 1, Coyote's model) low-core simulation is bottlenecked;
/// batching instructions back-to-back accelerates the host at the cost
/// of timing fidelity (simulated cycles shrink artificially).
#[must_use]
pub fn interleave_ablation(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 20,
        Scale::Paper => 48,
    };
    let workload = MatmulScalar::new(n, 2001);
    let mut t = Table::new([
        "cores",
        "interleave",
        "instructions",
        "sim cycles",
        "wall [ms]",
        "MIPS",
    ]);
    for &cores in &[1usize, 2, 4, 8] {
        for &factor in &[1usize, 8, 64] {
            let config = base_builder(cores)
                .interleave(factor)
                .build()
                .expect("valid config");
            let (report, _) = run(&workload, config);
            t.push([
                cores.to_string(),
                factor.to_string(),
                report.total_retired().to_string(),
                report.cycles.to_string(),
                format!("{:.1}", report.wall_time.as_secs_f64() * 1e3),
                format!("{:.3}", report.host_mips()),
            ]);
        }
    }
    t
}

/// Shared vs. tile-private L2 (§III-A: "The L2 can be configured as
/// fully-shared across the system or private to the cores of each
/// tile").
#[must_use]
pub fn l2_sharing(scale: Scale) -> Table {
    let (n, rows) = match scale {
        Scale::Quick => (24, 96),
        Scale::Paper => (64, 1024),
    };
    let matmul = MatmulVector::new(n, 2002);
    let spmv = SpmvVectorCsr::new(rows, rows, 0.05, 2003);
    let workloads: [&dyn Workload; 2] = [&matmul, &spmv];
    let mut t = Table::new([
        "kernel",
        "L2 sharing",
        "sim cycles",
        "L2 miss %",
        "NoC traversals",
        "dep-stall cycles",
    ]);
    for workload in workloads {
        for (sharing, name) in [
            (L2Sharing::Shared, "shared"),
            (L2Sharing::Private, "private"),
        ] {
            let config = base_builder(32)
                .sharing(sharing)
                .build()
                .expect("valid config");
            let (report, _) = run(workload, config);
            t.push([
                workload.name().to_owned(),
                name.to_owned(),
                report.cycles.to_string(),
                format!("{:.2}", report.hierarchy.l2_miss_rate() * 100.0),
                report.hierarchy.noc.traversals.to_string(),
                report.total_dep_stall_cycles().to_string(),
            ]);
        }
    }
    t
}

/// Page-to-bank vs. set-interleaving data mapping: reports runtime and
/// the bank-load imbalance (max/mean accesses over banks) each policy
/// produces.
#[must_use]
pub fn mapping_policy(scale: Scale) -> Table {
    let (n, rows) = match scale {
        Scale::Quick => (24, 96),
        Scale::Paper => (64, 1024),
    };
    let matmul = MatmulVector::new(n, 2004);
    let spmv = SpmvVectorCsr::new(rows, rows, 0.05, 2005);
    let workloads: [&dyn Workload; 2] = [&matmul, &spmv];
    let mut t = Table::new([
        "kernel",
        "mapping",
        "sim cycles",
        "bank imbalance",
        "L2 miss %",
    ]);
    for workload in workloads {
        for policy in [MappingPolicy::page_to_bank(), MappingPolicy::SetInterleave] {
            let config = base_builder(16)
                .mapping(policy)
                .build()
                .expect("valid config");
            let (report, _) = run(workload, config);
            let accesses: Vec<u64> = report
                .hierarchy
                .banks
                .iter()
                .map(coyote_mem::l2::BankStats::accesses)
                .collect();
            let max = accesses.iter().copied().max().unwrap_or(0) as f64;
            let mean = accesses.iter().sum::<u64>() as f64 / accesses.len().max(1) as f64;
            let imbalance = if mean == 0.0 { 0.0 } else { max / mean };
            t.push([
                workload.name().to_owned(),
                policy.name().to_owned(),
                report.cycles.to_string(),
                format!("{imbalance:.2}"),
                format!("{:.2}", report.hierarchy.l2_miss_rate() * 100.0),
            ]);
        }
    }
    t
}

/// L2 geometry sweep: bank capacity × MSHR count (the paper's "size,
/// associativity and line size, the number of banks [...] the maximum
/// number of in-flight misses, and the hit/miss latencies").
#[must_use]
pub fn l2_sweep(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 24,
        Scale::Paper => 128, // 3 matrices x 128 KiB: exceeds the small L2 points
    };
    let workload = MatmulVector::new(n, 2006);
    let mut t = Table::new([
        "bank KiB",
        "MSHRs",
        "sim cycles",
        "L2 miss %",
        "MSHR stalls",
    ]);
    for &size_kib in &[16u64, 64, 256] {
        for &mshrs in &[2usize, 16, 64] {
            let l2 = L2Config {
                bank_size_bytes: size_kib * 1024,
                mshrs,
                ..L2Config::default()
            };
            let config = base_builder(16).l2(l2).build().expect("valid config");
            let (report, _) = run(&workload, config);
            let stalls: u64 = report.hierarchy.banks.iter().map(|b| b.mshr_stalls).sum();
            t.push([
                size_kib.to_string(),
                mshrs.to_string(),
                report.cycles.to_string(),
                format!("{:.2}", report.hierarchy.l2_miss_rate() * 100.0),
                stalls.to_string(),
            ]);
        }
    }
    t
}

/// NoC sweep: the paper's idealized crossbar at several fixed latencies,
/// plus the 2D-mesh extension.
#[must_use]
pub fn noc_sweep(scale: Scale) -> Table {
    let rows = match scale {
        Scale::Quick => 96,
        Scale::Paper => 1024,
    };
    let spmv = SpmvVectorCsr::new(rows, rows, 0.05, 2007);
    let matmul = MatmulVector::new(
        match scale {
            Scale::Quick => 24,
            Scale::Paper => 64,
        },
        2008,
    );
    let workloads: [&dyn Workload; 2] = [&spmv, &matmul];
    let mut t = Table::new(["kernel", "NoC", "sim cycles", "mean NoC latency"]);
    let mut models: Vec<(String, NocModel)> = [1u64, 4, 16, 64]
        .iter()
        .map(|&lat| {
            (
                format!("crossbar({lat})"),
                NocModel::IdealCrossbar {
                    request_latency: lat,
                    response_latency: lat,
                },
            )
        })
        .collect();
    models.push((
        "mesh 4x4(hop 2)".to_owned(),
        NocModel::Mesh {
            width: 4,
            height: 4,
            hop_latency: 2,
            base_latency: 2,
        },
    ));
    for workload in workloads {
        for (name, model) in &models {
            let config = base_builder(32).noc(*model).build().expect("valid config");
            let (report, _) = run(workload, config);
            t.push([
                workload.name().to_owned(),
                name.clone(),
                report.cycles.to_string(),
                format!("{:.1}", report.hierarchy.noc.mean_latency()),
            ]);
        }
    }
    t
}

/// Every kernel of the paper under the default 16-core configuration:
/// the "statistics about memory accesses" summary table.
#[must_use]
pub fn kernel_suite(scale: Scale) -> Table {
    let quick = scale == Scale::Quick;
    let matmul_n = if quick { 20 } else { 48 };
    let spmv_rows = if quick { 96 } else { 512 };
    let ms = MatmulScalar::new(matmul_n, 2009);
    let mv = MatmulVector::new(matmul_n, 2009);
    let ss = SpmvScalar::new(spmv_rows, spmv_rows, 0.05, 2010);
    let sc = SpmvVectorCsr::new(spmv_rows, spmv_rows, 0.05, 2010);
    let se = SpmvVectorEll::new(spmv_rows, spmv_rows, 0.05, 2010);
    let sa = SpmvVectorAdaptive::new(spmv_rows, spmv_rows, 0.05, 2010);
    let st = StencilVector::new(
        if quick { 18 } else { 66 },
        if quick { 18 } else { 66 },
        2,
        2011,
    );
    let ml = MlpInference::new(
        if quick { 24 } else { 256 },
        if quick { 16 } else { 128 },
        if quick { 8 } else { 32 },
        2019,
    );
    let ff = FftRadix2::new(if quick { 64 } else { 1024 }, 2020);
    let tf = ThresholdFilter::new(if quick { 128 } else { 4096 }, 0.2, 2021);
    let workloads: [&dyn Workload; 10] = [&ms, &mv, &ss, &sc, &se, &sa, &st, &ml, &ff, &tf];
    let mut t = Table::new([
        "kernel",
        "instructions",
        "sim cycles",
        "IPC",
        "L1D miss %",
        "L2 miss %",
        "dep stalls",
    ]);
    for workload in workloads {
        let config = base_builder(16).build().expect("valid config");
        let (report, _) = run(workload, config);
        t.push([
            workload.name().to_owned(),
            report.total_retired().to_string(),
            report.cycles.to_string(),
            format!("{:.3}", report.ipc()),
            format!("{:.2}", report.l1d_miss_rate() * 100.0),
            format!("{:.2}", report.hierarchy.l2_miss_rate() * 100.0),
            report
                .cores
                .iter()
                .map(|c| c.stats.dep_stalls)
                .sum::<u64>()
                .to_string(),
        ]);
    }
    t
}

/// Differential-oracle sweep: the whole kernel suite re-runs with the
/// lockstep co-simulation oracle enabled ([`SimConfig::oracle`]). Any
/// timing/functional-separation violation aborts the experiment with
/// the oracle's structured divergence report, so a printed table is
/// itself the assertion that every kernel is oracle-clean.
#[must_use]
pub fn oracle_check(scale: Scale) -> Table {
    let quick = scale == Scale::Quick;
    let matmul_n = if quick { 16 } else { 32 };
    let spmv_rows = if quick { 64 } else { 256 };
    let ms = MatmulScalar::new(matmul_n, 2030);
    let mv = MatmulVector::new(matmul_n, 2030);
    let ss = SpmvScalar::new(spmv_rows, spmv_rows, 0.05, 2031);
    let sc = SpmvVectorCsr::new(spmv_rows, spmv_rows, 0.05, 2031);
    let st = StencilVector::new(
        if quick { 10 } else { 34 },
        if quick { 10 } else { 34 },
        2,
        2032,
    );
    let ml = MlpInference::new(
        if quick { 16 } else { 64 },
        if quick { 8 } else { 32 },
        8,
        2033,
    );
    let ff = FftRadix2::new(if quick { 32 } else { 256 }, 2034);
    let tf = ThresholdFilter::new(if quick { 64 } else { 1024 }, 0.2, 2035);
    let workloads: [&dyn Workload; 8] = [&ms, &mv, &ss, &sc, &st, &ml, &ff, &tf];
    let mut t = Table::new(["kernel", "instructions", "sim cycles", "oracle"]);
    for workload in workloads {
        let config = base_builder(8).oracle(true).build().expect("valid config");
        let (report, _) = run(workload, config);
        t.push([
            workload.name().to_owned(),
            report.total_retired().to_string(),
            report.cycles.to_string(),
            "clean".to_owned(),
        ]);
    }
    t
}

/// Vector vs. scalar data movement: dynamic instruction and L1-access
/// reduction the V extension buys on matmul and SpMV — the paper's
/// motivation for requiring vector support in an HPC simulator.
#[must_use]
pub fn vector_comparison(scale: Scale) -> Table {
    let quick = scale == Scale::Quick;
    let n = if quick { 24 } else { 64 };
    let rows = if quick { 96 } else { 512 };
    let ms = MatmulScalar::new(n, 2012);
    let mv = MatmulVector::new(n, 2012);
    let ss = SpmvScalar::new(rows, rows, 0.05, 2013);
    let sv = SpmvVectorCsr::new(rows, rows, 0.05, 2013);
    let mut t = Table::new([
        "pair",
        "scalar insts",
        "vector insts",
        "inst reduction",
        "scalar cycles",
        "vector cycles",
        "cycle speedup",
    ]);
    let config = base_builder(8).build().expect("valid config");
    for (name, scalar, vector) in [
        ("matmul", &ms as &dyn Workload, &mv as &dyn Workload),
        ("spmv", &ss as &dyn Workload, &sv as &dyn Workload),
    ] {
        let (rs, _) = run(scalar, config);
        let (rv, _) = run(vector, config);
        t.push([
            name.to_owned(),
            rs.total_retired().to_string(),
            rv.total_retired().to_string(),
            format!(
                "{:.1}x",
                rs.total_retired() as f64 / rv.total_retired() as f64
            ),
            rs.cycles.to_string(),
            rv.cycles.to_string(),
            format!("{:.2}x", rs.cycles as f64 / rv.cycles as f64),
        ]);
    }
    t
}

/// L2 next-line prefetch ablation (the paper's named future work:
/// "different data management policies such as prefetching,
/// streaming"). Streaming kernels should gain; the irregular gather
/// kernel measures pollution.
#[must_use]
pub fn prefetch_ablation(scale: Scale) -> Table {
    let quick = scale == Scale::Quick;
    let matmul = MatmulVector::new(if quick { 24 } else { 96 }, 2015);
    let spmv = SpmvVectorCsr::new(
        if quick { 96 } else { 1024 },
        if quick { 96 } else { 1024 },
        0.05,
        2016,
    );
    let workloads: [&dyn Workload; 2] = [&matmul, &spmv];
    let mut t = Table::new([
        "kernel",
        "degree",
        "sim cycles",
        "L2 miss %",
        "prefetch fills",
        "useful %",
    ]);
    for workload in workloads {
        for &degree in &[0usize, 1, 2, 4] {
            let config = base_builder(16)
                .prefetch_degree(degree)
                .build()
                .expect("valid config");
            let (report, _) = run(workload, config);
            let fills: u64 = report
                .hierarchy
                .banks
                .iter()
                .map(|b| b.prefetch_fills)
                .sum();
            let useful: u64 = report
                .hierarchy
                .banks
                .iter()
                .map(|b| b.prefetch_useful)
                .sum();
            let useful_pct = if fills == 0 {
                0.0
            } else {
                100.0 * useful as f64 / fills as f64
            };
            t.push([
                workload.name().to_owned(),
                degree.to_string(),
                report.cycles.to_string(),
                format!("{:.2}", report.hierarchy.l2_miss_rate() * 100.0),
                fills.to_string(),
                format!("{useful_pct:.1}"),
            ]);
        }
    }
    t
}

/// Memory-controller row-buffer ablation (the paper's named future
/// work: "the modelling of the memory controllers"). Compares the flat
/// latency model against an open-page model whose hit/miss latencies
/// bracket it.
#[must_use]
pub fn row_buffer(scale: Scale) -> Table {
    let quick = scale == Scale::Quick;
    let matmul = MatmulVector::new(if quick { 24 } else { 96 }, 2017);
    let spmv = SpmvVectorCsr::new(
        if quick { 96 } else { 1024 },
        if quick { 96 } else { 1024 },
        0.05,
        2018,
    );
    let workloads: [&dyn Workload; 2] = [&matmul, &spmv];
    let mut t = Table::new(["kernel", "MC model", "sim cycles", "row hit %"]);
    for workload in workloads {
        for (name, mc) in [
            ("flat(100)", McConfig::default()),
            (
                "open-page, line-interleave",
                McConfig {
                    row_bytes: 2048,
                    row_hit_latency: 60,
                    row_miss_latency: 160,
                    ..McConfig::default()
                },
            ),
            (
                "open-page, row-interleave",
                McConfig {
                    row_bytes: 2048,
                    row_hit_latency: 60,
                    row_miss_latency: 160,
                    interleave_bytes: 2048,
                    ..McConfig::default()
                },
            ),
        ] {
            let config = base_builder(16).mc(mc).build().expect("valid config");
            let (report, _) = run(workload, config);
            let hits: u64 = report.hierarchy.mcs.iter().map(|m| m.row_hits).sum();
            let misses: u64 = report.hierarchy.mcs.iter().map(|m| m.row_misses).sum();
            let pct = if hits + misses == 0 {
                0.0
            } else {
                100.0 * hits as f64 / (hits + misses) as f64
            };
            t.push([
                workload.name().to_owned(),
                name.to_owned(),
                report.cycles.to_string(),
                format!("{pct:.1}"),
            ]);
        }
    }
    t
}

/// Paraver trace demonstration: runs the stencil with tracing enabled
/// and reports the emitted `.prv` size; when `path` is given the
/// `.prv`/`.pcf` pair is written next to it.
///
/// # Panics
///
/// Panics if the trace files cannot be written.
#[must_use]
pub fn trace_demo(scale: Scale, path: Option<&std::path::Path>) -> Table {
    let g = match scale {
        Scale::Quick => 18,
        Scale::Paper => 66,
    };
    let workload = StencilVector::new(g, g, 2, 2014);
    let config = base_builder(8).trace(true).build().expect("valid config");
    let (report, sim) = run(&workload, config);
    let trace = sim.trace().expect("tracing enabled");
    let mut prv = Vec::new();
    trace.write_prv(&mut prv).expect("in-memory write");
    if let Some(base) = path {
        let prv_path = base.with_extension("prv");
        let pcf_path = base.with_extension("pcf");
        std::fs::write(&prv_path, &prv).expect("write .prv");
        let mut pcf = Vec::new();
        trace.write_pcf(&mut pcf).expect("in-memory write");
        std::fs::write(&pcf_path, &pcf).expect("write .pcf");
    }
    let mut t = Table::new(["kernel", "events", "prv bytes", "sim cycles"]);
    t.push([
        workload.name().to_owned(),
        trace.len().to_string(),
        prv.len().to_string(),
        report.cycles.to_string(),
    ]);
    t
}

/// Telemetry demo: the stencil kernel with the telemetry layer on,
/// exporting the `schema_version`ed metrics JSON, the per-epoch CSV,
/// and a Perfetto-loadable Chrome trace next to `path` (when given).
/// The table shows the request-lifecycle latency percentiles the
/// histograms were built for.
#[must_use]
pub fn telemetry_demo(scale: Scale, path: Option<&std::path::Path>) -> Table {
    let g = match scale {
        Scale::Quick => 18,
        Scale::Paper => 66,
    };
    let workload = StencilVector::new(g, g, 2, 2015);
    let config = base_builder(8)
        .telemetry(true)
        .metrics_interval(1000)
        .chrome_trace(true)
        .build()
        .expect("valid config");
    let (report, sim) = run(&workload, config);

    if let Some(base) = path {
        let doc = coyote::metrics_json(&sim, &report);
        std::fs::write(base.with_extension("json"), doc.to_string_pretty())
            .expect("write metrics .json");
        std::fs::write(base.with_extension("csv"), coyote::metrics_csv(&sim))
            .expect("write metrics .csv");
        let mut trace = std::io::BufWriter::new(
            std::fs::File::create(base.with_extension("trace.json")).expect("create chrome trace"),
        );
        coyote::chrome_trace_json(&sim)
            .write_pretty(&mut trace)
            .and_then(|()| std::io::Write::flush(&mut trace))
            .expect("write chrome trace");
    }

    let telemetry = sim.mem_telemetry().expect("telemetry enabled");
    let mut t = Table::new(["stage", "requests", "mean [cyc]", "p50", "p95", "p99"]);
    for stage in coyote::Stage::ALL {
        let h = telemetry.stage(stage);
        t.push([
            stage.name().to_owned(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.quantile(0.50).to_string(),
            h.quantile(0.95).to_string(),
            h.quantile(0.99).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_compresses_simulated_cycles() {
        let t = interleave_ablation(Scale::Quick);
        assert_eq!(t.len(), 12);
        // Structural check only here; the cycle-compression relation is
        // asserted in the simulator's own tests.
    }

    #[test]
    fn l2_sharing_runs_both_modes() {
        let t = l2_sharing(Scale::Quick);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn mapping_policy_reports_imbalance() {
        let t = mapping_policy(Scale::Quick);
        assert_eq!(t.len(), 4);
        assert!(t.render().contains("page-to-bank"));
        assert!(t.render().contains("set-interleave"));
    }

    #[test]
    fn l2_sweep_covers_grid() {
        let t = l2_sweep(Scale::Quick);
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn noc_sweep_latency_monotone() {
        let t = noc_sweep(Scale::Quick);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn kernel_suite_runs_all_kernels() {
        let t = kernel_suite(Scale::Quick);
        assert_eq!(t.len(), 10);
        assert!(t.render().contains("mlp-inference"));
        assert!(t.render().contains("fft-radix2"));
        assert!(t.render().contains("threshold-filter"));
    }

    #[test]
    fn vector_comparison_shows_reduction() {
        let t = vector_comparison(Scale::Quick);
        assert_eq!(t.len(), 2);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn prefetch_ablation_covers_degrees() {
        let t = prefetch_ablation(Scale::Quick);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn row_buffer_covers_models() {
        let t = row_buffer(Scale::Quick);
        assert_eq!(t.len(), 6);
        assert!(t.render().contains("open-page"));
    }

    #[test]
    fn trace_demo_emits_events() {
        let t = trace_demo(Scale::Quick, None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn telemetry_demo_reports_every_stage() {
        let t = telemetry_demo(Scale::Quick, None);
        assert_eq!(t.len(), coyote::Stage::ALL.len());
    }
}
