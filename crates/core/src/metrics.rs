//! Machine-readable metrics exporters.
//!
//! Three formats, all derived from a finished [`Simulation`]:
//!
//! * [`metrics_json`] — the versioned metrics document (configuration,
//!   report counters, hierarchy counters, lifecycle histograms, and a
//!   time-series summary). The schema is pinned by
//!   [`SCHEMA_VERSION`] and a golden-file test; scripts may rely on the
//!   top-level key set.
//! * [`metrics_csv`] — the epoch time series as CSV, one row per epoch
//!   (see [`coyote_telemetry::TimeSeries::to_csv`] for the column set).
//! * [`chrome_trace_json`] — request lifecycles and core-state
//!   intervals as Chrome trace-event JSON, loadable in chrome://tracing
//!   or <https://ui.perfetto.dev>. One trace `ts` microsecond equals
//!   one simulated cycle.

use std::borrow::Cow;
use std::io::{self, Write};

use coyote_iss::{FuseDiag, FuseStop};
use coyote_mem::hierarchy::HierarchyStats;
use coyote_mem::RequestSlice;
use coyote_telemetry::hostprof::HostProf;
use coyote_telemetry::{Blame, ChromeWriter, Histogram, JsonValue, SliceArgs, Stage};

use crate::attr::BLAME_OTHER;
use crate::config::SimConfig;
use crate::report::Report;
use crate::sim::Simulation;
use crate::trace;

pub use coyote_telemetry::SCHEMA_VERSION;

/// Builds the full metrics JSON document.
///
/// Top-level keys (pinned by the schema test): `schema_version`,
/// `config`, `report`, `hierarchy`, `histograms`, `time_series`,
/// `attribution`, `host_profile`. Histograms and the time series are
/// `null` when the run had telemetry disabled; attribution is always
/// present (stall blame degrades to the `other` column without memory
/// telemetry); `host_profile` is `null` unless the run was profiled
/// ([`crate::config::SimConfig::profiling`]).
#[must_use]
pub fn metrics_json(sim: &Simulation, report: &Report) -> JsonValue {
    JsonValue::object()
        .with("schema_version", SCHEMA_VERSION)
        .with("config", config_json(sim.config()))
        .with("report", report_json(report))
        .with("hierarchy", hierarchy_json(&report.hierarchy))
        .with("histograms", histograms_json(sim))
        .with("time_series", time_series_json(sim))
        .with("attribution", attribution_json(sim))
        .with("host_profile", host_profile_json(sim))
}

/// The epoch time series as CSV (header only when telemetry was off).
#[must_use]
pub fn metrics_csv(sim: &Simulation) -> String {
    match sim.telemetry() {
        Some(sink) => sink.series().to_csv(),
        None => coyote_telemetry::TimeSeries::default().to_csv(),
    }
}

fn config_json(config: &SimConfig) -> JsonValue {
    JsonValue::object()
        .with("cores", config.cores)
        .with("cores_per_tile", config.cores_per_tile)
        .with("tiles", config.tiles())
        .with("banks_per_tile", config.banks_per_tile)
        .with("l2_line_bytes", config.l2.line_bytes)
        .with("l2_bank_size_bytes", config.l2.bank_size_bytes)
        .with("l2_mshrs", config.l2.mshrs)
        .with("mc_count", config.mc.count)
        .with("mc_channels_per_mc", config.mc.channels_per_mc)
        .with("prefetch_degree", config.prefetch_degree)
        .with("interleave", config.interleave)
        .with("fusion", config.core.fusion)
        .with("telemetry", config.telemetry)
        .with("metrics_interval", config.metrics_interval)
        .with("chrome_trace", config.chrome_trace)
        .with("attribution_top_k", config.attribution_top_k)
}

fn report_json(report: &Report) -> JsonValue {
    let cores: Vec<JsonValue> = report
        .cores
        .iter()
        .map(|core| {
            JsonValue::object()
                .with("retired", core.stats.retired)
                .with("dep_stalls", core.stats.dep_stalls)
                .with("dep_stall_cycles", core.stats.dep_stall_cycles)
                .with("fetch_stall_cycles", core.stats.fetch_stall_cycles)
                .with("branches", core.stats.branches)
                .with("vector_retired", core.stats.vector_retired)
                .with("fused_retired", core.fused_retired)
                .with("l1i_hits", core.l1i.hits)
                .with("l1i_misses", core.l1i.misses)
                .with("l1d_hits", core.l1d.hits)
                .with("l1d_misses", core.l1d.misses)
                .with("l1d_writebacks", core.l1d.writebacks)
                .with(
                    "exit_code",
                    core.exit_code.map_or(JsonValue::Null, JsonValue::from),
                )
        })
        .collect();
    JsonValue::object()
        .with("cycles", report.cycles)
        .with("total_retired", report.total_retired())
        .with("ipc", report.ipc())
        .with("host_mips", report.host_mips())
        .with("l1d_miss_rate", report.l1d_miss_rate())
        .with("block_hit_rate", report.block_hit_rate())
        .with("total_dep_stall_cycles", report.total_dep_stall_cycles())
        .with("wall_time_seconds", report.wall_time.as_secs_f64())
        .with("truncated", report.truncated)
        .with("cores", JsonValue::Array(cores))
}

fn hierarchy_json(stats: &HierarchyStats) -> JsonValue {
    let banks: Vec<JsonValue> = stats
        .banks
        .iter()
        .map(|bank| {
            JsonValue::object()
                .with("hits", bank.hits)
                .with("misses", bank.misses)
                .with("writebacks", bank.writebacks)
                .with("mshr_stalls", bank.mshr_stalls)
                .with("max_queue_depth", bank.max_queue_depth)
                .with("prefetch_fills", bank.prefetch_fills)
                .with("prefetch_useful", bank.prefetch_useful)
        })
        .collect();
    let mcs: Vec<JsonValue> = stats
        .mcs
        .iter()
        .map(|mc| {
            JsonValue::object()
                .with("reads", mc.reads)
                .with("writes", mc.writes)
                .with("queue_cycles", mc.queue_cycles)
                .with("busy_cycles", mc.busy_cycles)
                .with("row_hits", mc.row_hits)
                .with("row_misses", mc.row_misses)
        })
        .collect();
    JsonValue::object()
        .with("submitted", stats.submitted)
        .with("completed", stats.completed)
        .with("merged", stats.merged)
        .with("l2_hits", stats.l2_hits())
        .with("l2_misses", stats.l2_misses())
        .with("l2_miss_rate", stats.l2_miss_rate())
        .with("noc_traversals", stats.noc.traversals)
        .with("noc_mean_latency", stats.noc.mean_latency())
        .with("banks", JsonValue::Array(banks))
        .with("mcs", JsonValue::Array(mcs))
}

fn histograms_json(sim: &Simulation) -> JsonValue {
    let Some(mem) = sim.mem_telemetry() else {
        return JsonValue::Null;
    };
    let mut stages = JsonValue::object();
    for stage in Stage::ALL {
        stages = stages.with(stage.name(), histogram_json(mem.stage(stage)));
    }
    let per_bank: Vec<JsonValue> = mem.per_bank().iter().map(histogram_json).collect();
    let per_mc: Vec<JsonValue> = mem.per_mc().iter().map(histogram_json).collect();
    JsonValue::object()
        .with("stages", stages)
        .with("per_bank", JsonValue::Array(per_bank))
        .with("per_mc", JsonValue::Array(per_mc))
        .with("dropped_slices", mem.dropped_slices())
        .with("stamp_errors", mem.stamp_errors())
}

/// One histogram as JSON: exact aggregates, bucket-bound percentiles,
/// and the sparse `[upper_bound, count]` bucket list.
fn histogram_json(hist: &Histogram) -> JsonValue {
    let buckets: Vec<JsonValue> = hist
        .nonzero_buckets()
        .into_iter()
        .map(|(bound, count)| JsonValue::Array(vec![bound.into(), count.into()]))
        .collect();
    JsonValue::object()
        .with("count", hist.count())
        .with("sum", hist.sum())
        .with("min", hist.min())
        .with("max", hist.max())
        .with("mean", hist.mean())
        .with("p50", hist.quantile(0.50))
        .with("p95", hist.quantile(0.95))
        .with("p99", hist.quantile(0.99))
        .with("buckets", JsonValue::Array(buckets))
}

/// Renders a blame row (`Blame::ALL` columns plus `other`) as an
/// object keyed by category name.
fn blame_json(row: &[u64]) -> JsonValue {
    let mut out = JsonValue::object();
    for blame in Blame::ALL {
        out = out.with(blame.name(), row[blame as usize]);
    }
    if let Some(&other) = row.get(BLAME_OTHER) {
        out = out.with("other", other);
    }
    out
}

/// Formats a packed blocked-register mask (`[x | f << 32, v]`) as
/// space-separated architectural register names.
fn reg_names(mask: [u64; 2]) -> String {
    let mut names = Vec::new();
    for i in 0..32 {
        if mask[0] >> i & 1 == 1 {
            names.push(format!("x{i}"));
        }
    }
    for i in 0..32 {
        if mask[0] >> (32 + i) & 1 == 1 {
            names.push(format!("f{i}"));
        }
    }
    for i in 0..32 {
        if mask[1] >> i & 1 == 1 {
            names.push(format!("v{i}"));
        }
    }
    names.join(" ")
}

/// The causal stall-attribution section: per-core CPI stacks and the
/// bounded top-K critical-PC table.
fn attribution_json(sim: &Simulation) -> JsonValue {
    let attr = sim.attribution();
    let per_core: Vec<JsonValue> = (0..sim.config().cores)
        .map(|core| {
            let dep = &attr.dep()[core];
            let dep_total: u64 = dep.iter().sum();
            let total = attr.active()[core] + dep_total + attr.fetch()[core] + attr.drained()[core];
            JsonValue::object()
                .with("core", core)
                .with("active", attr.active()[core])
                .with("dep_stall", blame_json(dep))
                .with("fetch_stall", attr.fetch()[core])
                .with("drained", attr.drained()[core])
                .with("total_cycles", total)
        })
        .collect();
    let top_pcs: Vec<JsonValue> = attr
        .top()
        .ranked()
        .into_iter()
        .map(|(pc, entry)| {
            let mut dominant = Blame::ALL[0];
            for blame in Blame::ALL {
                if entry.blame[blame as usize] > entry.blame[dominant as usize] {
                    dominant = blame;
                }
            }
            JsonValue::object()
                .with("pc", format!("{pc:#x}"))
                .with("cycles", entry.cycles)
                .with("count", entry.count)
                .with("error", entry.error)
                .with("dominant", dominant.name())
                .with("blame", blame_json(&entry.blame))
                .with("regs", reg_names(entry.reg_mask))
        })
        .collect();
    JsonValue::object()
        .with("top_k", sim.config().attribution_top_k)
        .with("dropped_links", attr.dropped_links())
        .with("per_core", JsonValue::Array(per_core))
        .with("top_pcs", JsonValue::Array(top_pcs))
}

fn time_series_json(sim: &Simulation) -> JsonValue {
    let Some(sink) = sim.telemetry() else {
        return JsonValue::Null;
    };
    let series = sink.series();
    let retired: u64 = series.samples().iter().map(|s| s.retired).sum();
    JsonValue::object()
        .with("interval", sink.interval())
        .with("epochs", series.len())
        .with("compactions", u64::from(series.compactions()))
        .with("total_retired", retired)
}

/// The `host_profile` section: the orchestrator phase tree, named
/// counters, event-queue drain volume, and fused-pipeline introspection
/// (per-core arm/validate outcomes, the window-abort reason taxonomy,
/// chunk- and run-length distributions). `Null` unless the run was
/// profiled ([`crate::config::SimConfig::profiling`]).
///
/// Host observation never feeds back into the model: stripping this
/// section from a profiled run's document must leave it byte-identical
/// to an unprofiled run (property-tested in `prof_invariance`). In
/// counter mode every field is additionally a pure function of the
/// simulated schedule, so the whole section is byte-stable across
/// hosts.
#[must_use]
pub fn host_profile_json(sim: &Simulation) -> JsonValue {
    let Some(prof) = sim.host_prof() else {
        return JsonValue::Null;
    };
    let phases: Vec<JsonValue> = prof
        .roots()
        .iter()
        .map(|&id| phase_json(prof, id))
        .collect();
    let mut counters = JsonValue::object();
    for (name, value) in prof.counters() {
        counters = counters.with(name, value);
    }
    let mut merged_runs = Histogram::new();
    let per_core: Vec<JsonValue> = sim
        .cores()
        .iter()
        .map(|core| {
            let diag = core.fuse_diag();
            let mut stops = JsonValue::object();
            for stop in FuseStop::ALL {
                stops = stops.with(stop.name(), diag.stops[stop as usize]);
            }
            let runs = run_length_hist(diag);
            merged_runs.merge(&runs);
            let chunks = prof
                .core_hists("chunk_len")
                .and_then(|hists| hists.get(core.index()))
                .cloned()
                .unwrap_or_default();
            JsonValue::object()
                .with("core", core.index())
                .with("template_arms", diag.template_arms)
                .with("full_validations", diag.full_validations)
                .with("armed_runs", diag.armed_runs)
                .with("stops", stops)
                .with("run_lengths", histogram_json(&runs))
                .with("chunk_lengths", histogram_json(&chunks))
        })
        .collect();
    // The window-abort taxonomy: per-core validation stop reasons
    // summed across cores, plus the two orchestrator-level aborts that
    // no single core owns.
    let mut abort = JsonValue::object();
    for stop in FuseStop::ALL {
        let total: u64 = sim
            .cores()
            .iter()
            .map(|core| core.fuse_diag().stops[stop as usize])
            .sum();
        abort = abort.with(stop.name(), total);
    }
    abort = abort
        .with(
            "cross_core_conflict",
            prof.counter("window/cross_core_conflict"),
        )
        .with(
            "text_invalidation",
            prof.counter("window/text_invalidation"),
        );
    JsonValue::object()
        .with("mode", prof.clock().name())
        .with("phases", JsonValue::Array(phases))
        .with("counters", counters)
        .with("event_pops", sim.event_pops())
        .with("abort_reasons", abort)
        .with(
            "chunk_lengths",
            histogram_json(&prof.merged_core_hist("chunk_len")),
        )
        .with("run_lengths", histogram_json(&merged_runs))
        .with("per_core", JsonValue::Array(per_core))
}

/// One phase-tree node: timing aggregates plus recursive children.
fn phase_json(prof: &HostProf, id: usize) -> JsonValue {
    let phase = prof.phase(id);
    let children: Vec<JsonValue> = phase
        .children
        .iter()
        .map(|&child| phase_json(prof, child))
        .collect();
    JsonValue::object()
        .with("name", phase.name)
        .with("count", phase.count)
        .with("total_ns", phase.total_ns)
        .with("exclusive_ns", prof.exclusive_ns(id))
        .with("latency", histogram_json(phase.hist))
        .with("children", JsonValue::Array(children))
}

/// Converts a core's exact armed-run-length count table into a log2
/// histogram (bulk inserts — no per-sample replay).
fn run_length_hist(diag: &FuseDiag) -> Histogram {
    let mut hist = Histogram::new();
    for (len, &count) in diag.run_len_counts.iter().enumerate() {
        hist.record_n(len as u64, count);
    }
    hist
}

/// Row groups in the exported Chrome trace.
const PID_CORES: u32 = 1;
const PID_BANKS: u32 = 2;
const PID_MCS: u32 = 3;
const PID_REQUESTS: u32 = 4;

/// The Chrome trace-event document of a run, borrowed from its
/// [`Simulation`]: core-state intervals, captured request lifecycles and
/// stall→request flow arrows. Nothing is built until one of the
/// serializers runs, and each walks the three record stores once,
/// emitting text as it goes. Requires [`SimConfig::chrome_trace`] to
/// have been set for the run; otherwise the document is valid but empty.
#[derive(Debug, Clone, Copy)]
pub struct ChromeTraceDoc<'a> {
    sim: &'a Simulation,
}

/// The Chrome trace-event document of `sim`'s run; see [`ChromeTraceDoc`].
#[must_use]
pub fn chrome_trace_json(sim: &Simulation) -> ChromeTraceDoc<'_> {
    ChromeTraceDoc { sim }
}

impl ChromeTraceDoc<'_> {
    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        self.text(false)
    }

    /// Serializes with two-space indentation.
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        self.text(true)
    }

    /// Streams the compact form into `out`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_compact<W: Write>(&self, mut out: W) -> io::Result<()> {
        let tail = self.emit(false, Some(&mut out))?;
        out.write_all(&tail)
    }

    /// Streams the pretty form into `out`: the bytes of
    /// [`ChromeTraceDoc::to_string_pretty`], never all held at once.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_pretty<W: Write>(&self, mut out: W) -> io::Result<()> {
        let tail = self.emit(true, Some(&mut out))?;
        out.write_all(&tail)
    }

    /// The whole document as one `String`: the writer's buffer, taken
    /// over without a copy.
    fn text(&self, pretty: bool) -> String {
        let text = self.emit(pretty, None).expect("no sink, no I/O");
        String::from_utf8(text).expect("the Chrome writer writes only whole UTF-8 strings")
    }

    /// Emits the document. With a `sink` the text moves there a chunk
    /// at a time and only the unwritten tail is returned; without one
    /// the whole document is.
    fn emit(&self, pretty: bool, mut sink: Option<&mut dyn Write>) -> io::Result<Vec<u8>> {
        /// Text buffered between writes to the sink.
        const CHUNK: usize = 64 << 10;
        let sim = self.sim;
        let states = sim.chrome_states().count();
        // Slices are in canonical order once the run has finished, and
        // links always are, so the trace is byte-stable across legal
        // schedules.
        let mut slices = Cow::Borrowed(sim.mem_telemetry().map_or(&[][..], |mem| mem.slices()));
        if !slices.is_sorted_by_key(RequestSlice::order_key) {
            // Mid-run: a sorted copy, so the document is the same.
            slices.to_mut().sort_by_key(RequestSlice::order_key);
        }
        let links = sim.attribution().links().count();

        // A whole document is sized up front so it is never regrown:
        // compact bytes per state slice / request (up to three slices
        // with args) / flow pair as measured on the 128-core matmul,
        // rounded up; pretty text is under twice that.
        let capacity = match sink {
            Some(_) => 2 * CHUNK,
            None => {
                (states * 96 + slices.len() * 448 + links * 224 + 4096) * if pretty { 2 } else { 1 }
            }
        };
        let mut spill = |out: &mut ChromeWriter| -> io::Result<()> {
            if let Some(sink) = &mut sink {
                if out.text().len() >= CHUNK {
                    sink.write_all(out.text())?;
                    out.clear();
                }
            }
            Ok(())
        };
        let mut out = ChromeWriter::new(pretty, capacity);
        for (pid, name) in [
            (PID_CORES, "cores"),
            (PID_BANKS, "L2 banks (bank stage)"),
            (PID_MCS, "memory controllers"),
            (PID_REQUESTS, "requests end-to-end (by core)"),
        ] {
            out.metadata("process_name", pid, 0, name);
        }
        for core in 0..sim.config().cores {
            let name = format!("core {core}");
            out.metadata("thread_name", PID_CORES, core as u32, &name);
        }

        for s in sim.chrome_states() {
            // Trailing halted intervals add nothing but timeline width.
            if s.state == trace::STATE_HALTED {
                continue;
            }
            let name = trace::STATES[usize::from(s.state)].chrome;
            let (dur, tid) = (s.end - s.start, s.core);
            out.slice(name, "core-state", s.start, dur, PID_CORES, tid, None);
            spill(&mut out)?;
        }

        for s in slices.iter() {
            let (core, kind) = crate::sim::decode_tag(s.tag);
            let (name, tid, bank) = (kind.name(), core as u32, u32::from(s.bank));
            let args = Some(SliceArgs {
                line_addr: s.line_addr,
                core: core as u64,
                bank: u64::from(bank),
            });
            let dur = s.complete - s.submit;
            out.slice(name, "request", s.submit, dur, PID_REQUESTS, tid, args);
            if let (Some(arrive), Some(done)) = (s.bank_arrive(), s.mc_send().or(s.respond())) {
                let dur = done.saturating_sub(arrive);
                out.slice(name, "bank", arrive, dur, PID_BANKS, bank, args);
            }
            if let (Some(mc), Some(send), Some(respond)) = (s.mc, s.mc_send(), s.mc_respond()) {
                let (dur, mc) = (respond - send, u32::from(mc));
                out.slice(name, "mc", send, dur, PID_MCS, mc, args);
            }
            spill(&mut out)?;
        }

        // Flow events bind each closed stall interval to the request that
        // ended it: the flow starts on the causing request's slice and
        // finishes on the core's stall slice.
        for (idx, link) in sim.attribution().links().enumerate() {
            let (id, tid) = (idx as u64 + 1, link.core);
            out.flow(link.pc, id, link.submit, PID_REQUESTS, tid, true);
            out.flow(link.pc, id, link.start, PID_CORES, tid, false);
            spill(&mut out)?;
        }
        Ok(out.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn run_telemetry_sim() -> (Simulation, Report) {
        let src = "
            .data
            buf: .zero 8192
            .text
            _start:
                csrr t0, mhartid
                la t1, buf
                li t2, 32
            loop:
                slli t3, t0, 3
                add t3, t1, t3
                ld t4, 0(t3)
                addi t4, t4, 1
                sd t4, 0(t3)
                addi t0, t0, 2
                addi t2, t2, -1
                bnez t2, loop
                li a0, 0
                li a7, 93
                ecall";
        let program = coyote_asm::assemble(src).unwrap();
        let config = SimConfig::builder()
            .cores(2)
            .telemetry(true)
            .metrics_interval(100)
            .chrome_trace(true)
            .build()
            .unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        let report = sim.run().unwrap();
        (sim, report)
    }

    /// The `traceEvents` of the run's Chrome document, read back
    /// through the parser (compact and streamed pretty must agree).
    fn chrome_events(sim: &Simulation) -> Vec<JsonValue> {
        let doc = chrome_trace_json(sim);
        let parsed = coyote_telemetry::parse_json(&doc.to_string_compact()).unwrap();
        let mut streamed = Vec::new();
        doc.write_pretty(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), doc.to_string_pretty());
        assert_eq!(
            coyote_telemetry::parse_json(&doc.to_string_pretty()).unwrap(),
            parsed
        );
        parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn json_document_has_pinned_top_level_keys() {
        let (sim, report) = run_telemetry_sim();
        let doc = metrics_json(&sim, &report);
        assert_eq!(
            doc.keys(),
            Some(vec![
                "schema_version",
                "config",
                "report",
                "hierarchy",
                "histograms",
                "time_series",
                "attribution",
                "host_profile",
            ])
        );
        assert_eq!(
            doc.get("schema_version").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        // Round-trips through the parser.
        let text = doc.to_string_pretty();
        assert_eq!(coyote_telemetry::parse_json(&text).unwrap(), doc);
        // Unprofiled runs carry the key with a null section.
        assert_eq!(doc.get("host_profile"), Some(&JsonValue::Null));
    }

    #[test]
    fn host_profile_section_exports_taxonomy_and_distributions() {
        let src = "
            _start:
                li t0, 64
            loop:
                addi t0, t0, -1
                bnez t0, loop
                li a0, 0
                li a7, 93
                ecall";
        let program = coyote_asm::assemble(src).unwrap();
        let config = SimConfig::builder()
            .cores(2)
            .profiling(crate::config::ProfMode::Counter)
            .build()
            .unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        let report = sim.run().unwrap();
        let doc = metrics_json(&sim, &report);
        let profile = doc.get("host_profile").expect("profiled run");
        assert_eq!(
            profile.get("mode").and_then(JsonValue::as_str),
            Some("counter")
        );
        let phases = profile.get("phases").and_then(JsonValue::as_array).unwrap();
        assert!(
            phases
                .iter()
                .any(|p| p.get("name").and_then(JsonValue::as_str) == Some("execute")),
            "phase tree must contain the execute phase"
        );
        // The abort taxonomy carries every FuseStop reason plus the two
        // orchestrator-level aborts.
        let abort = profile.get("abort_reasons").unwrap();
        for stop in FuseStop::ALL {
            assert!(abort.get(stop.name()).is_some(), "missing {}", stop.name());
        }
        assert!(abort.get("cross_core_conflict").is_some());
        assert!(abort.get("text_invalidation").is_some());
        // Counter mode: all phase timings are zero, counts are not.
        assert!(phases
            .iter()
            .all(|p| { p.get("total_ns").and_then(JsonValue::as_u64) == Some(0) }));
        assert!(
            profile
                .get("event_pops")
                .and_then(JsonValue::as_u64)
                .unwrap()
                > 0
        );
        assert_eq!(
            profile
                .get("per_core")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
        // Predecode counters made it across from the decoded text.
        let counters = profile.get("counters").unwrap();
        assert!(
            counters
                .get("predecode/words")
                .and_then(JsonValue::as_u64)
                .unwrap()
                > 0
        );
    }

    #[test]
    fn e2e_histogram_count_matches_completed_requests() {
        let (sim, report) = run_telemetry_sim();
        let doc = metrics_json(&sim, &report);
        let e2e_count = doc
            .get("histograms")
            .and_then(|h| h.get("stages"))
            .and_then(|s| s.get("end_to_end"))
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .unwrap();
        assert_eq!(e2e_count, report.hierarchy.completed);
        assert!(e2e_count > 0);
    }

    #[test]
    fn csv_retired_deltas_sum_to_total_retired() {
        let (sim, report) = run_telemetry_sim();
        let csv = metrics_csv(&sim);
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let retired_col = header.iter().position(|&h| h == "retired").unwrap();
        let total: u64 = lines
            .map(|row| {
                row.split(',')
                    .nth(retired_col)
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, report.total_retired());
    }

    #[test]
    fn chrome_trace_has_core_and_request_slices() {
        let (sim, _report) = run_telemetry_sim();
        let events = chrome_events(&sim);
        let slices: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert!(slices
            .iter()
            .any(|e| e.get("cat").and_then(JsonValue::as_str) == Some("core-state")));
        assert!(slices
            .iter()
            .any(|e| e.get("cat").and_then(JsonValue::as_str) == Some("request")));
        // Every slice is well-formed: ts and dur present.
        for slice in &slices {
            assert!(slice.get("ts").and_then(JsonValue::as_u64).is_some());
            assert!(slice.get("dur").and_then(JsonValue::as_u64).is_some());
        }
    }

    #[test]
    fn disabled_telemetry_exports_nulls_and_empty_csv() {
        let program = coyote_asm::assemble("_start:\n li a0, 0\n li a7, 93\n ecall").unwrap();
        let config = SimConfig::builder().cores(1).build().unwrap();
        let mut sim = Simulation::new(config, &program).unwrap();
        let report = sim.run().unwrap();
        let doc = metrics_json(&sim, &report);
        assert_eq!(doc.get("histograms"), Some(&JsonValue::Null));
        assert_eq!(doc.get("time_series"), Some(&JsonValue::Null));
        // Attribution stays present: CPI stacks need no memory
        // telemetry (blame just lands in `other`).
        assert!(doc
            .get("attribution")
            .and_then(|a| a.get("per_core"))
            .is_some());
        assert_eq!(metrics_csv(&sim).lines().count(), 1);
        assert_eq!(
            chrome_events(&sim).len(),
            5,
            "metadata only: four row groups and one core"
        );
    }

    /// Reads one CPI-stack row back out of the document.
    fn stack_row(doc: &JsonValue, core: usize) -> JsonValue {
        doc.get("attribution")
            .and_then(|a| a.get("per_core"))
            .and_then(JsonValue::as_array)
            .unwrap()[core]
            .clone()
    }

    #[test]
    fn cpi_stack_partitions_total_cycles() {
        let (sim, report) = run_telemetry_sim();
        let doc = metrics_json(&sim, &report);
        for core in 0..sim.config().cores {
            let row = stack_row(&doc, core);
            let field = |k: &str| row.get(k).and_then(JsonValue::as_u64).unwrap();
            let dep = row.get("dep_stall").unwrap();
            let dep_total: u64 = dep
                .keys()
                .unwrap()
                .iter()
                .map(|k| dep.get(k).and_then(JsonValue::as_u64).unwrap())
                .sum();
            assert_eq!(
                field("active") + dep_total + field("fetch_stall") + field("drained"),
                report.cycles,
                "core {core} CPI stack must partition total cycles"
            );
            assert_eq!(field("total_cycles"), report.cycles);
            // The dep bucket agrees with the core's own stall counter.
            assert_eq!(dep_total, report.cores[core].stats.dep_stall_cycles);
        }
        let top_pcs = doc
            .get("attribution")
            .and_then(|a| a.get("top_pcs"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(!top_pcs.is_empty(), "loop kernel must produce critical PCs");
    }

    #[test]
    fn flow_events_agree_with_critical_pc_table() {
        let (sim, report) = run_telemetry_sim();
        let links: Vec<_> = sim.attribution().links().collect();
        assert!(!links.is_empty(), "chrome run must record stall links");
        // No eviction in this small run: per-PC sums over the links
        // must equal the exported top_pcs cycles exactly.
        let mut by_pc = std::collections::BTreeMap::new();
        for link in &links {
            *by_pc.entry(format!("{:#x}", link.pc)).or_insert(0u64) += link.end - link.start;
        }
        let doc = metrics_json(&sim, &report);
        let top_pcs = doc
            .get("attribution")
            .and_then(|a| a.get("top_pcs"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(by_pc.len() <= sim.config().attribution_top_k);
        for entry in top_pcs {
            let pc = entry.get("pc").and_then(JsonValue::as_str).unwrap();
            let cycles = entry.get("cycles").and_then(JsonValue::as_u64).unwrap();
            assert_eq!(by_pc.get(pc), Some(&cycles), "pc {pc}");
            assert_eq!(entry.get("error").and_then(JsonValue::as_u64), Some(0));
        }
        // Each link becomes one start/finish flow pair in the trace.
        let events = chrome_events(&sim);
        let ph_count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
                .count()
        };
        assert_eq!(ph_count("s"), links.len());
        assert_eq!(ph_count("f"), links.len());
    }

    #[test]
    fn critical_pcs_name_blocked_registers() {
        let (sim, report) = run_telemetry_sim();
        let doc = metrics_json(&sim, &report);
        let top_pcs = doc
            .get("attribution")
            .and_then(|a| a.get("top_pcs"))
            .and_then(JsonValue::as_array)
            .unwrap();
        // The kernel stalls on `t4` (x29) right behind its load.
        assert!(
            top_pcs.iter().any(|e| {
                e.get("regs")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|regs| regs.split(' ').any(|r| r == "x29"))
            }),
            "expected a critical PC blocked on x29: {}",
            doc.get("attribution").unwrap().to_string_pretty()
        );
    }
}
