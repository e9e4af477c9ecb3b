//! The traced pass: spans around the harness's own calls into each crate,
//! then isolated layer drivers, each fed with this workload's program or
//! recorded miss stream and each looped for a slice of the time budget.
//!
//! Layer names are crate names. Nothing here is compiled into the
//! simulator: every driver calls public functions from outside.

use std::hint::black_box;
use std::time::Instant;

use coyote::{host_profile_json, ProfMode, Report, RunError, SimConfig, Simulation, TraceEvent};
use coyote_asm::Program;
use coyote_isa::{build_plans, decode, predecode};
use coyote_iss::{
    Cache, CacheConfig, CacheStats, Core, CoreConfig, CoreState, DecodedText, MissKind,
    SparseMemory,
};
use coyote_kernels::Workload;
use coyote_mem::event::{mix64, Domain};
use coyote_mem::{EventQueue, Hierarchy, Request};
use coyote_telemetry::JsonValue;

use crate::endtoend::{stage_summary, RepLog, MIN_TIMED_REPS};
use crate::rep::{run_rep, RepDone, RepTimes};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::workloads::Spec;
use crate::Metric;

/// Result of the traced pass.
#[derive(Debug)]
pub struct Traced {
    /// Passes attempted and failed.
    pub log: RepLog,
    /// Every per-layer metric (empty when a pass failed).
    pub metrics: Vec<Metric>,
    /// The spans recorded around the workload's own reps.
    pub recorder: Recorder,
    /// Wall seconds of each timed rep, taken beside the spans; rep id
    /// `k` in the recorder is entry `k - 1` here.
    pub rep_walls: Vec<f64>,
    /// Σ layers against `core.run_s`.
    pub reconciliation: JsonValue,
}

impl Traced {
    fn failed(log: RepLog, recorder: Recorder) -> Traced {
        Traced {
            log,
            metrics: Vec::new(),
            recorder,
            rep_walls: Vec::new(),
            reconciliation: JsonValue::Null,
        }
    }
}

/// The metric list under construction.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn timed(&mut self, name: &'static str, unit: &'static str, summary: Summary) {
        self.0.push(Metric::timed(name, unit, summary));
    }

    fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric::exact(name, unit, value));
    }
}

/// Calls `pass` until `seconds` have gone by, at least `min` times.
fn looped<T>(seconds: f64, min: usize, mut pass: impl FnMut() -> Option<T>) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut calls = 0;
    while calls < min || start.elapsed().as_secs_f64() < seconds {
        out.extend(pass());
        calls += 1;
    }
    out
}

/// Runs the traced pass within roughly `seconds`.
#[must_use]
pub fn run(spec: &Spec, workload: &dyn Workload, seed: u64, seconds: f64) -> Traced {
    let slice = seconds / 12.0;
    let own = spec.config(spec.observed, ProfMode::Off);
    let other = spec.config(!spec.observed, ProfMode::Off);
    let mut log = RepLog::default();
    let mut recorder = Recorder::default();

    // The workload's own reps, with spans; the first is the warm-up.
    log.book_rep(
        "warm-up",
        run_rep(workload, own, Some(&mut recorder), Simulation::run),
    );
    let mut rep_id = 0;
    let own_times: Vec<RepTimes> = looped(seconds / 4.0, MIN_TIMED_REPS, || {
        rep_id += 1;
        recorder.set_rep(rep_id);
        let outcome = run_rep(workload, own, Some(&mut recorder), Simulation::run);
        log.book_rep("traced rep", outcome).map(|done| done.times)
    });

    // The same workload with the observability planes flipped.
    let other_times: Vec<RepTimes> = looped(slice, 1, || {
        let outcome = run_rep(workload, other, None, Simulation::run);
        log.book_rep("flipped-planes rep", outcome).map(|d| d.times)
    });

    // `ProfMode::Wall` runs, read back through `host_profile_json`.
    let mut phases = Vec::new();
    let profiled_run_s: Vec<f64> = looped(slice, 1, || {
        let config = spec.config(spec.observed, ProfMode::Wall);
        let done = log.book_rep(
            "profiled rep",
            run_rep(workload, config, None, Simulation::run),
        )?;
        phases = phase_seconds(&done.sim);
        Some(done.times.run_s)
    });

    // One run driven cycle by cycle from here, for the window histogram.
    let mut windows = Vec::new();
    let stepped = log.book_rep(
        "stepped rep",
        run_rep(workload, own, None, |sim| drive_stepped(sim, &mut windows)),
    );

    // One plain run with the Paraver trace on records the miss stream.
    let record_config = SimConfig {
        trace: true,
        ..spec.config(false, ProfMode::Off)
    };
    let recorded = log.book_rep(
        "miss-stream recording",
        run_rep(workload, record_config, None, Simulation::run),
    );

    let program = log.book(
        "assembly",
        workload.program(spec.cores).map_err(|e| e.to_string()),
    );
    let (Some(stepped), Some(recorded), Some(program)) = (stepped, recorded, program) else {
        return Traced::failed(log, recorder);
    };

    let events = recorded.sim.trace().map_or(&[][..], |t| t.events());
    let replays: Vec<Replay> = looped(slice, 1, || {
        log.book(
            "hierarchy replay",
            replay(events, &record_config, &recorded),
        )
    });
    let step_passes: Vec<IssPass> = looped(slice, 1, || {
        log.book(
            "iss step driver",
            iss_pass(&program, workload, spec.cores, false),
        )
    });
    let block_passes: Vec<IssPass> = looped(slice, 1, || {
        log.book(
            "iss block driver",
            iss_pass(&program, workload, spec.cores, true),
        )
    });
    let (l1_pass_s, l1_hit_rate) = l1_stream(seed, slice);
    let eventq_batch_s = eventq_churn(seed, slice);
    let (decode_batch_s, predecode_batch_s, isa_batch_words) = isa_batches(program.text(), slice);

    let observed_times = if spec.observed {
        &own_times
    } else {
        &other_times
    };
    let plain_times = if spec.observed {
        &other_times
    } else {
        &own_times
    };
    let walls = |passes: &[IssPass]| passes.iter().map(|p| p.wall_s).collect::<Vec<f64>>();
    let (
        Some(run),
        Some(observed_run),
        Some(plain_run),
        Some(profiled_run),
        Some(replay),
        Some(replay_wall),
        Some(block),
        Some(block_wall),
        Some(step_wall),
    ) = (
        stage_summary(&own_times, |t| t.run_s),
        stage_summary(observed_times, |t| t.run_s),
        stage_summary(plain_times, |t| t.run_s),
        Summary::of(&profiled_run_s),
        replays.last(),
        Summary::of(&replays.iter().map(|r| r.wall_s).collect::<Vec<f64>>()),
        block_passes.last(),
        Summary::of(&walls(&block_passes)),
        Summary::of(&walls(&step_passes)),
    )
    else {
        return Traced::failed(log, recorder);
    };
    let summary = |times: &[f64]| Summary::of(times).expect("every loop makes one pass");
    let stage = |times: &[RepTimes], f: &dyn Fn(&RepTimes) -> f64| {
        stage_summary(times, f).expect("at least one rep succeeded")
    };
    let rate = |times: &Summary, work: f64| times.map_inverse(|s| work / s);

    let mut m = Metrics::default();
    // asm
    let text_words = program.text().len() as f64;
    let assemble = stage(&own_times, &|t| t.program_s);
    m.timed(
        "asm.kwords_s",
        "kwords/s",
        rate(&assemble, text_words / 1e3),
    );
    m.timed("asm.assemble_s", "s", assemble);
    m.exact("asm.text_words", "count", text_words);
    // isa
    let mwords = isa_batch_words / 1e6;
    m.timed(
        "isa.decode_mwords_s",
        "Mwords/s",
        rate(&summary(&decode_batch_s), mwords),
    );
    m.timed(
        "isa.predecode_mwords_s",
        "Mwords/s",
        rate(&summary(&predecode_batch_s), mwords),
    );
    // iss
    let minst = block.retired as f64 / 1e6;
    let block_kinst = block.retired as f64 / 1e3;
    let block_arms = block.template_arms + block.full_validations;
    m.timed("iss.step_mips", "Minst/s", rate(&step_wall, minst));
    m.timed("iss.block_mips", "Minst/s", rate(&block_wall, minst));
    m.exact(
        "iss.block_hit_rate",
        "ratio",
        ratio(block.fused_retired, block.retired),
    );
    m.exact(
        "iss.arm_attempts_per_kinst",
        "1/kinst",
        block_arms as f64 / block_kinst,
    );
    m.exact(
        "iss.full_validation_share",
        "ratio",
        ratio(block.full_validations, block_arms),
    );
    m.exact(
        "iss.l1d_miss_per_kinst",
        "1/kinst",
        block.l1d.misses as f64 / block_kinst,
    );
    m.exact(
        "iss.l1i_miss_per_kinst",
        "1/kinst",
        block.l1i.misses as f64 / block_kinst,
    );
    m.timed(
        "iss.l1_maccess_s",
        "Maccess/s",
        rate(&summary(&l1_pass_s), L1_STREAM_LEN as f64 / 1e6),
    );
    m.exact("iss.l1_stream_hit_rate", "ratio", l1_hit_rate);
    // mem
    let (requests, pops) = (replay.requests as f64, replay.event_pops as f64);
    m.timed(
        "mem.replay_mreq_s",
        "Mreq/s",
        rate(&replay_wall, requests / 1e6),
    );
    m.timed(
        "mem.replay_ns_per_event",
        "ns",
        replay_wall.scale(1e9 / pops),
    );
    m.exact("mem.requests", "count", requests);
    m.exact("mem.event_pops", "count", pops);
    m.exact("mem.events_per_request", "ratio", pops / requests);
    m.exact("mem.l2_miss_rate", "ratio", replay.l2_miss_rate);
    m.exact(
        "mem.merged_share",
        "ratio",
        ratio(replay.merged, replay.requests),
    );
    m.exact(
        "mem.completed_share",
        "ratio",
        ratio(replay.completions, replay.responses_requested),
    );
    m.timed(
        "mem.eventq_mops_s",
        "Mops/s",
        rate(
            &summary(&eventq_batch_s),
            2.0 * EVENTQ_BATCH_POPS as f64 / 1e6,
        ),
    );
    // core
    let kinst = stepped.report.total_retired() as f64 / 1e3;
    let arms: u64 = stepped
        .sim
        .cores()
        .iter()
        .map(|c| c.fuse_diag().template_arms + c.fuse_diag().full_validations)
        .sum();
    windows.sort_unstable();
    let phase_share = |name: &str| {
        let seconds = phases
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s);
        seconds / profiled_run_s.last().copied().unwrap_or(f64::NAN)
    };
    m.timed("core.new_s", "s", stage(&own_times, &|t| t.new_s));
    m.timed("core.run_s", "s", run.clone());
    m.exact(
        "core.window_cycles_mean",
        "cycles",
        stepped.report.cycles as f64 / windows.len() as f64,
    );
    m.exact(
        "core.window_cycles_p50",
        "cycles",
        windows[windows.len() / 2] as f64,
    );
    m.exact(
        "core.step_calls_per_kinst",
        "1/kinst",
        windows.len() as f64 / kinst,
    );
    m.exact(
        "core.event_pops_per_kinst",
        "1/kinst",
        stepped.sim.event_pops() as f64 / kinst,
    );
    m.exact(
        "core.block_hit_rate",
        "ratio",
        stepped.report.block_hit_rate(),
    );
    m.exact(
        "core.arm_attempts_per_kinst",
        "1/kinst",
        arms as f64 / kinst,
    );
    m.exact(
        "core.conflict_fallbacks",
        "count",
        stepped.sim.conflict_fallbacks() as f64,
    );
    // An estimate: under ideal memory the driver never stalls or spins, and
    // it interleaves cores by run, not by cycle.
    m.exact(
        "core.glue_share",
        "ratio",
        1.0 - (block_wall.best + replay_wall.best) / run.best,
    );
    m.exact("core.phase.execute_share", "ratio", phase_share("execute"));
    m.exact(
        "core.phase.hier_advance_share",
        "ratio",
        phase_share("hier_advance"),
    );
    m.exact(
        "core.phase.miss_submit_share",
        "ratio",
        phase_share("miss_submit"),
    );
    m.exact(
        "core.trace_overhead",
        "ratio",
        profiled_run.best / run.best - 1.0,
    );
    // telemetry
    const EXPORT_METRICS: [&str; 4] = [
        "telemetry.metrics_json_s",
        "telemetry.metrics_csv_s",
        "telemetry.chrome_json_s",
        "telemetry.prv_s",
    ];
    for (i, name) in EXPORT_METRICS.iter().enumerate() {
        m.timed(name, "s", stage(observed_times, &|t| t.export_s[i]));
    }
    let export_bytes = observed_times.last().map_or(0, |t| t.export_bytes) as f64;
    let export_wall = stage(observed_times, &|t| t.export_s.iter().sum());
    m.exact("telemetry.export_bytes", "bytes", export_bytes);
    m.timed(
        "telemetry.export_mb_s",
        "MB/s",
        rate(&export_wall, export_bytes / 1e6),
    );
    m.exact(
        "telemetry.observe_overhead",
        "ratio",
        observed_run.best / plain_run.best - 1.0,
    );
    // kernels
    m.timed(
        "kernels.populate_s",
        "s",
        stage(&own_times, &|t| t.populate_s),
    );
    m.timed("kernels.verify_s", "s", stage(&own_times, &|t| t.verify_s));

    let time_to_result = stage(&own_times, &|t| t.total_s);
    let reconciliation = JsonValue::object()
        .with("core_run_s", run.best)
        .with("iss_block_driver_s", block_wall.best)
        .with("mem_replay_s", replay_wall.best)
        .with("core_glue_s", run.best - block_wall.best - replay_wall.best)
        .with("iss_block_driver_share", block_wall.best / run.best)
        .with("mem_replay_share", replay_wall.best / run.best)
        .with("time_to_result_s", time_to_result.best)
        .with(
            "telemetry_export_share_of_time_to_result",
            if spec.observed {
                export_wall.best / time_to_result.best
            } else {
                0.0
            },
        );
    // A failed pass leaves its numbers suspect: report none.
    if log.failed > 0 {
        m.0.clear();
    }
    let rep_walls = own_times.iter().map(|t| t.total_s).collect();
    Traced {
        log,
        metrics: m.0,
        recorder,
        rep_walls,
        reconciliation,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Drives `sim` with `step_cycle`, recording the `cycle()` delta per call.
fn drive_stepped(sim: &mut Simulation, windows: &mut Vec<u64>) -> Result<Report, RunError> {
    let max_cycles = sim.config().max_cycles;
    let mut last = sim.cycle();
    loop {
        let done = sim.step_cycle()?;
        windows.push(sim.cycle() - last);
        last = sim.cycle();
        if done {
            return Ok(sim.partial_report());
        }
        if last >= max_cycles {
            return Err(RunError::CycleLimit { cycles: max_cycles });
        }
    }
}

/// Seconds per root phase of a `ProfMode::Wall` run.
fn phase_seconds(sim: &Simulation) -> Vec<(String, f64)> {
    let profile = host_profile_json(sim);
    let phases = profile.get("phases").and_then(JsonValue::as_array);
    phases
        .unwrap_or_default()
        .iter()
        .filter_map(|p| {
            let name = p.get("name")?.as_str()?.to_owned();
            Some((name, p.get("total_ns")?.as_u64()? as f64 / 1e9))
        })
        .collect()
}

/// One pass of an `iss` driver.
#[derive(Debug, Clone, Copy)]
pub struct IssPass {
    /// Host seconds for the stepping loop.
    pub wall_s: f64,
    /// Instructions retired over all cores.
    pub retired: u64,
    /// Of those, through `step_block` / the fused dispatch.
    pub fused_retired: u64,
    /// Σ `FuseDiag::template_arms`.
    pub template_arms: u64,
    /// Σ `FuseDiag::full_validations`.
    pub full_validations: u64,
    /// Σ `Core::dcache_stats`.
    pub l1d: CacheStats,
    /// Σ `Core::icache_stats`.
    pub l1i: CacheStats,
}

fn add_stats(total: &mut CacheStats, part: CacheStats) {
    total.hits += part.hits;
    total.misses += part.misses;
    total.writebacks += part.writebacks;
}

/// Steps `cores` `Core`s round-robin against one `SparseMemory` under an
/// ideal hierarchy: every `MissRequest` is answered the same cycle with
/// `Core::complete_fill`. With `fused`, runs are armed with
/// `Core::ensure_fused_run` and retired with `Core::step_block` when at
/// least two instructions long; without, fusion is off and every
/// instruction goes through `Core::step`.
///
/// # Errors
///
/// Returns a core fault, a non-zero exit code, a core left stalled, or a
/// `Workload::verify` mismatch.
pub fn iss_pass(
    program: &Program,
    workload: &dyn Workload,
    cores: usize,
    fused: bool,
) -> Result<IssPass, String> {
    let mut mem = SparseMemory::new();
    mem.load_program(program);
    workload.populate(program, &mut mem);
    let text = DecodedText::from_program(program);
    let config = CoreConfig {
        fusion: fused,
        ..CoreConfig::default()
    };
    let mut harts: Vec<Core> = (0..cores)
        .map(|i| Core::new(i, program.entry(), &config))
        .collect();
    let mut misses = Vec::new();

    let start = Instant::now();
    let mut cycle = 0u64;
    let mut running = cores;
    while running > 0 {
        cycle += 1;
        running = 0;
        for core in &mut harts {
            if core.state() != CoreState::Active {
                continue;
            }
            running += 1;
            let armed = if fused {
                core.ensure_fused_run(&text)
            } else {
                0
            };
            if armed >= 2 {
                core.step_block(&mut mem, &text, cycle, armed)
                    .map_err(|e| format!("core {}: {e}", core.index()))?;
                continue;
            }
            core.step(&mut mem, &text, cycle, &mut misses)
                .map_err(|e| format!("core {}: {e}", core.index()))?;
            for miss in misses.drain(..) {
                core.complete_fill(miss.line_addr, miss.kind, cycle);
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut pass = IssPass {
        wall_s,
        retired: 0,
        fused_retired: 0,
        template_arms: 0,
        full_validations: 0,
        l1d: CacheStats::default(),
        l1i: CacheStats::default(),
    };
    for core in &harts {
        if core.state() != CoreState::Halted(0) {
            return Err(format!("core {} ended in {:?}", core.index(), core.state()));
        }
        pass.retired += core.stats().retired;
        pass.fused_retired += core.fused_retired();
        pass.template_arms += core.fuse_diag().template_arms;
        pass.full_validations += core.fuse_diag().full_validations;
        add_stats(&mut pass.l1d, core.dcache_stats());
        add_stats(&mut pass.l1i, core.icache_stats());
    }
    workload
        .verify(program, &mem)
        .map_err(|e| format!("verification failed: {e}"))?;
    Ok(pass)
}

/// One replay of a recorded miss stream into a fresh hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Host seconds for the replay loop.
    pub wall_s: f64,
    /// Requests submitted.
    pub requests: u64,
    /// Of those, the ones that asked for a response.
    pub responses_requested: u64,
    /// Completions the hierarchy delivered.
    pub completions: u64,
    /// Misses merged into an in-flight fill.
    pub merged: u64,
    /// `Hierarchy::event_pops`.
    pub event_pops: u64,
    /// `HierarchyStats::l2_miss_rate`.
    pub l2_miss_rate: f64,
}

/// The orchestrator's request tag: `(core << 2) | kind`. The tag feeds the
/// hierarchy's same-cycle arbitration rank, so the replay must use the
/// same one; `replay` checks its statistics against the recorded run's.
fn request_tag(core: usize, kind: MissKind) -> u64 {
    let code = match kind {
        MissKind::Ifetch => 0,
        MissKind::Load => 1,
        MissKind::Store => 2,
        MissKind::Writeback => 3,
    };
    ((core as u64) << 2) | code
}

/// Replays `events` into `Hierarchy::new(config.hierarchy())` with no
/// cores: `submit` at the recorded cycle, `advance`, and `next_event_time`
/// to skip idle cycles. The recorded run stops when its last core halts;
/// the replay goes on until the hierarchy has drained, so that every
/// requested response can be counted.
///
/// # Errors
///
/// Returns an error when a requested response never completes, or when
/// the replayed hierarchy's statistics at the recorded run's last cycle
/// differ from that run's.
fn replay(events: &[TraceEvent], config: &SimConfig, recorded: &RepDone) -> Result<Replay, String> {
    let mut hierarchy = Hierarchy::new(config.hierarchy())?;
    let mut completions = Vec::new();
    let mut delivered = 0u64;
    let mut responses_requested = 0u64;
    let mut next = 0;
    let mut at_last_cycle = None;

    let start = Instant::now();
    let mut now = events.first().map(|e| e.cycle);
    while let Some(cycle) = now {
        if cycle > recorded.report.cycles && at_last_cycle.is_none() {
            at_last_cycle = Some((hierarchy.stats(), hierarchy.event_pops()));
        }
        while let Some(event) = events.get(next).filter(|e| e.cycle == cycle) {
            let needs_response = event.kind != MissKind::Writeback;
            responses_requested += u64::from(needs_response);
            hierarchy.submit(
                cycle,
                Request {
                    line_addr: event.line_addr,
                    tile: config.tile_of_core(event.core),
                    needs_response,
                    tag: request_tag(event.core, event.kind),
                    pc: event.pc,
                },
            );
            next += 1;
        }
        hierarchy.advance(cycle, &mut completions);
        delivered += completions.len() as u64;
        completions.clear();
        now = match (
            events.get(next).map(|e| e.cycle),
            hierarchy.next_event_time(),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
    let wall_s = start.elapsed().as_secs_f64();

    if delivered != responses_requested {
        return Err(format!(
            "{delivered} completions for {responses_requested} requested responses"
        ));
    }
    let (stats, event_pops) =
        at_last_cycle.unwrap_or_else(|| (hierarchy.stats(), hierarchy.event_pops()));
    if format!("{stats:?}") != format!("{:?}", recorded.report.hierarchy)
        || event_pops != recorded.sim.event_pops()
    {
        return Err("replayed hierarchy statistics differ from the recorded run's".to_owned());
    }
    Ok(Replay {
        wall_s,
        requests: stats.submitted,
        responses_requested,
        completions: delivered,
        merged: stats.merged,
        event_pops,
        l2_miss_rate: stats.l2_miss_rate(),
    })
}

/// Accesses per pass of the L1 stream.
const L1_STREAM_LEN: usize = 1 << 18;

/// `Cache::access` over a seeded stream: even accesses stride through an
/// L1-resident half-capacity region, odd ones pick random lines in a
/// region four times the capacity. Returns seconds per pass and the hit
/// rate of the second pass (the first warms the cache).
fn l1_stream(seed: u64, seconds: f64) -> (Vec<f64>, f64) {
    let config = CacheConfig::default_l1d();
    let stream: Vec<(u64, bool)> = (0..L1_STREAM_LEN as u64)
        .map(|i| {
            let r = mix64(seed.wrapping_add(i));
            let addr = if i % 2 == 0 {
                (i * 4) % (config.size_bytes / 2)
            } else {
                let lines = 4 * config.size_bytes / config.line_bytes;
                config.size_bytes + (r % lines) * config.line_bytes
            };
            (addr, r >> 63 == 1)
        })
        .collect();
    let mut cache = Cache::new(config);
    let mut hits_after_pass = Vec::new();
    let pass_s = looped(seconds, 2, || {
        let start = Instant::now();
        for &(addr, write) in &stream {
            black_box(cache.access(addr, write));
        }
        let seconds = start.elapsed().as_secs_f64();
        hits_after_pass.push(cache.stats().hits);
        Some(seconds)
    });
    let second_pass_hits = hits_after_pass[1] - hits_after_pass[0];
    (pass_s, ratio(second_pass_hits, L1_STREAM_LEN as u64))
}

/// Pops per batch of the event-queue churn (one op = a schedule or a pop).
const EVENTQ_BATCH_POPS: u64 = 1 << 18;

/// `EventQueue::schedule_arb` + `pop_due` at a steady occupancy of 256
/// across all `Domain`s. Returns seconds per batch.
fn eventq_churn(seed: u64, seconds: f64) -> Vec<f64> {
    const OCCUPANCY: u64 = 256;
    let mut draws = seed;
    let mut schedule = |queue: &mut EventQueue<u64>, now: u64, payload: u64| {
        draws = draws.wrapping_add(1);
        let r = mix64(draws);
        let index = (r >> 8) as usize % 16;
        let domain = match r % 4 {
            0 => Domain::Bank(index),
            1 => Domain::Mc(index),
            2 => Domain::Tile(index),
            _ => Domain::Free,
        };
        queue.schedule_arb(now + 1 + (r >> 16) % 64, domain, r, payload);
    };
    let mut queue = EventQueue::new();
    for payload in 0..OCCUPANCY {
        schedule(&mut queue, 0, payload);
    }
    looped(seconds, 1, || {
        let start = Instant::now();
        let mut pops = 0;
        while pops < EVENTQ_BATCH_POPS {
            let now = queue.next_time().expect("the queue never drains");
            while pops < EVENTQ_BATCH_POPS {
                let Some(payload) = queue.pop_due(now) else {
                    break;
                };
                schedule(&mut queue, now, payload);
                pops += 1;
            }
        }
        Some(start.elapsed().as_secs_f64())
    })
}

/// `decode`, then `predecode` + `build_plans`, looped over the program's
/// text words. Returns seconds per batch for each, and the words a batch
/// covers.
fn isa_batches(words: &[u32], seconds: f64) -> (Vec<f64>, Vec<f64>, f64) {
    // Kernel text is tens of words: a batch is as many passes as cover
    // 100k words, so the clock reads stay out of the measurement.
    let passes = 100_000usize.div_ceil(words.len().max(1));
    let decode_s = looped(seconds / 2.0, 1, || {
        let start = Instant::now();
        for _ in 0..passes {
            for &word in black_box(words) {
                let _ = black_box(decode(word));
            }
        }
        Some(start.elapsed().as_secs_f64())
    });
    let predecode_s = looped(seconds / 2.0, 1, || {
        let start = Instant::now();
        for _ in 0..passes {
            let insts = predecode(black_box(words));
            black_box(build_plans(&insts));
        }
        Some(start.elapsed().as_secs_f64())
    });
    (decode_s, predecode_s, (passes * words.len()) as f64)
}
