//! Generates a Paraver-compatible L1-miss trace from the vector stencil
//! kernel, the analysis flow the paper describes ("this trace can be
//! analyzed using the Paraver Visualization Tools").
//!
//! ```text
//! cargo run --release --example paraver_trace
//! ```
//!
//! Writes `target/stencil.prv` and `target/stencil.pcf`.

use std::fs::File;
use std::io::{BufWriter, Write};

use coyote::SimConfig;
use coyote_iss::MissKind;
use coyote_kernels::workload::run_workload;
use coyote_kernels::StencilVector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = StencilVector::new(34, 34, 3, 99);
    let config = SimConfig::builder().cores(8).trace(true).build()?;
    let (report, sim) = run_workload(&workload, config)?;

    let trace = sim.trace().expect("tracing enabled");
    std::fs::create_dir_all("target")?;
    let mut prv = BufWriter::new(File::create("target/stencil.prv")?);
    trace.write_prv(&mut prv)?;
    prv.flush()?;
    trace.write_pcf(File::create("target/stencil.pcf")?)?;

    println!("{report}");
    println!(
        "recorded {} L1-miss events over {} cycles",
        trace.len(),
        report.cycles
    );

    // A taste of the analysis Paraver would do: miss counts per kind.
    for (kind, label) in [
        (MissKind::Ifetch, "instruction fetch"),
        (MissKind::Load, "data load"),
        (MissKind::Store, "data store"),
        (MissKind::Writeback, "writeback"),
    ] {
        let count = trace.events().iter().filter(|e| e.kind == kind).count();
        println!("  {label:<18} {count}");
    }
    println!("trace written to target/stencil.prv (+ .pcf)");
    Ok(())
}
