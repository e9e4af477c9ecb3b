//! The one observer of the cycle loop.
//!
//! [`crate::Simulation`] tells the [`Observer`] each fact once, at the
//! step that establishes it, and the observer folds it into whichever
//! planes the configuration turned on:
//!
//! | call | said by | folded into |
//! |---|---|---|
//! | [`Observer::deactivated`] | steps 1–2 | state table, CPI stack, flight `Stall`/`Halt` |
//! | [`Observer::window_stopped`] | steps 1–2 | flight `WindowAbort`/`WindowConflict` + profile counter |
//! | [`Observer::text_invalidated`] | steps 1–2 | flight `TextInvalidate` + profile counter |
//! | [`Observer::miss`] | step 3 | Paraver miss events |
//! | [`Observer::completion`] | steps 4–5 | wake-cause candidates, flight `Completion`/`Wake` |
//! | [`Observer::woken`] | steps 4–5 | state table, CPI stack (cause election), stall links |
//! | [`Observer::end_of_cycle`] | after step 5 | state intervals of the cycle, epoch sample when due |
//! | [`Observer::finish`] | every way out of a run | open intervals, CPI-stack tails, last epoch |
//!
//! Host-profile *spans* ([`Observer::enter`]/[`Observer::exit`]) bracket
//! the steps themselves and stay in the loop.
//!
//! Everything here is pure observation of the simulated schedule: no
//! call returns anything the machine acts on except
//! [`Observer::next_due`], which only bounds how far a fused window may
//! run so a sample lands on the cycle it would have per-cycle.

use coyote_iss::core::{Core, CoreState};
use coyote_iss::{FuseStop, MissKind, MissRequest};
use coyote_mem::hierarchy::{Completion, Hierarchy};
use coyote_telemetry::hostprof::{HostProf, ProfClock, SpanToken};
use coyote_telemetry::TimeSeries;

use crate::attr::StallAttribution;
use crate::config::{ProfMode, SimConfig};
use crate::flight::{FlightKind, FlightRecorder};
use crate::report::epoch_snapshot;
use crate::trace::{state_names, StateInterval, Trace, TraceEvent, STATE_RUNNING};

/// The profile counters charged when a lockstep fused window stops
/// because a core failed to re-arm, indexed by that core's stop reason
/// (`FuseStop as usize`, [`FuseStop::ALL`] order): `FuseStop::name()`
/// under a `window/rearm_fail/` prefix (unit-tested below).
const REARM_FAIL_COUNTERS: [&str; FuseStop::COUNT] = [
    "window/rearm_fail/run_end",
    "window/rearm_fail/too_short",
    "window/rearm_fail/scoreboard_busy",
    "window/rearm_fail/pending_fill",
    "window/rearm_fail/line_not_resident",
    "window/rearm_fail/base_written",
    "window/rearm_fail/text_store",
];

/// The interval `core` spent in `state`, as the trace stores it.
fn interval(core: usize, state: CoreState, start: u64, end: u64) -> StateInterval {
    StateInterval {
        core: core as u32,
        start,
        end,
        state: state_names(state).code,
    }
}

/// The recorders of a run and the one per-core state table they share.
#[derive(Debug)]
pub struct Observer {
    /// Per-core `(state, cycle the state was entered)`.
    state: Vec<(CoreState, u64)>,
    /// Intervals that ended this cycle, in the order they were
    /// reported: the running ones, which wait here because a fill due
    /// this same cycle resumes them ([`Observer::woken`]), and — when a
    /// trace is kept — the stalls, so that [`Observer::end_of_cycle`]
    /// can store them all in core order.
    closing: Vec<StateInterval>,
    /// Per-core CPI stacks and the critical-PC table; always on.
    attr: StallAttribution,
    /// Miss events (with `trace`) and the one store of core-state
    /// intervals both trace exporters read; present when `trace` or
    /// `chrome_trace` is on.
    trace: Option<Trace>,
    /// [`SimConfig::trace`]: record misses, hand out the Paraver trace.
    paraver: bool,
    /// [`SimConfig::chrome_trace`]: hand out the state intervals.
    chrome: bool,
    /// Epoch sampler, present when telemetry is on.
    telemetry: Option<TimeSeries>,
    /// Always-on bounded ring of recent notable events, dumped into
    /// crash reports.
    flight: FlightRecorder,
    /// Host-side self-profiler, present when [`SimConfig::profiling`]
    /// is not [`ProfMode::Off`]. Profiled and unprofiled runs are
    /// bit-identical (property-tested).
    prof: Option<HostProf>,
}

impl Observer {
    /// The planes `config` asks for; decided here and nowhere else.
    #[must_use]
    pub fn new(config: &SimConfig) -> Observer {
        let clock = match config.profiling {
            ProfMode::Off => None,
            ProfMode::Wall => Some(ProfClock::Wall),
            ProfMode::Counter => Some(ProfClock::Counter),
        };
        Observer {
            state: vec![(CoreState::Active, 0); config.cores],
            closing: Vec::with_capacity(config.cores),
            attr: StallAttribution::new(
                config.cores,
                config.attribution_top_k,
                config.chrome_trace,
            ),
            trace: (config.trace || config.chrome_trace).then(|| Trace::new(config.cores)),
            paraver: config.trace,
            chrome: config.chrome_trace,
            telemetry: config
                .telemetry
                .then(|| TimeSeries::new(config.metrics_interval)),
            flight: FlightRecorder::new(),
            prof: clock.map(|clock| HostProf::new(clock, config.cores)),
        }
    }

    /// The collected trace, if Paraver tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref().filter(|_| self.paraver)
    }

    /// Core-state intervals for the Chrome trace (none unless it was
    /// enabled).
    pub fn chrome_states(&self) -> impl Iterator<Item = &StateInterval> {
        let trace = self.trace.as_ref().filter(|_| self.chrome);
        trace.into_iter().flat_map(Trace::states)
    }

    /// The epoch time series, if telemetry was enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TimeSeries> {
        self.telemetry.as_ref()
    }

    /// Per-core CPI stacks and the critical-PC table.
    #[must_use]
    pub fn attribution(&self) -> &StallAttribution {
        &self.attr
    }

    /// The flight recorder.
    #[must_use]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The host profiler, if profiling was enabled.
    #[must_use]
    pub fn host_prof(&self) -> Option<&HostProf> {
        self.prof.as_ref()
    }

    /// First cycle at which the next epoch sample is due, if telemetry
    /// is on.
    #[must_use]
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        self.telemetry.as_ref().map(TimeSeries::next_due)
    }

    /// Opens a profiling span, if profiling is on. The token must be
    /// handed back to [`Observer::exit`] on every path that continues
    /// the run (error paths may drop it: the run is over).
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Option<SpanToken> {
        self.prof.as_mut().map(|p| p.enter(name))
    }

    /// Closes a span opened by [`Observer::enter`].
    #[inline]
    pub fn exit(&mut self, span: Option<SpanToken>) {
        if let (Some(prof), Some(span)) = (&mut self.prof, span) {
            prof.exit(span);
        }
    }

    /// Adds `n` to a named profile counter, if profiling is on.
    pub fn bump(&mut self, name: &'static str, n: u64) {
        if let Some(prof) = &mut self.prof {
            prof.bump(name, n);
        }
    }

    /// Each of `cores` retired a fused chunk of `len` instructions.
    pub fn chunk_retired(&mut self, cores: &[usize], len: u32) {
        if let Some(prof) = &mut self.prof {
            for &idx in cores {
                prof.record_core("chunk_len", idx, u64::from(len));
            }
        }
    }

    /// The cores in `list` (ascending) left `Active` in this cycle's
    /// execute step: each stalled or halted.
    pub fn deactivated(&mut self, cores: &[Core], list: &[usize], cycle: u64) {
        for &idx in list {
            let core = &cores[idx];
            let state = core.state();
            let kind = match state {
                CoreState::Halted(code) => FlightKind::Halt { core: idx, code },
                _ => FlightKind::Stall {
                    core: idx,
                    state,
                    pc: core.snapshot().pc,
                },
            };
            self.flight.record(cycle, kind);
            if state == CoreState::StalledDep {
                self.attr.stalled_on(idx, core.blocked_regs());
            }
            let (prev, since) = std::mem::replace(&mut self.state[idx], (state, cycle));
            self.closing.push(interval(idx, prev, since, cycle));
        }
    }

    /// A lockstep fused window under way stopped early at `cycle`:
    /// `culprit` failed to re-arm its run for the given reason, or
    /// (`None`) the next chunk had a cross-core access conflict.
    pub fn window_stopped(&mut self, cycle: u64, culprit: Option<(usize, FuseStop)>) {
        let (kind, counter) = match culprit {
            Some((core, stop)) => (
                FlightKind::WindowAbort { core, stop },
                REARM_FAIL_COUNTERS[stop as usize],
            ),
            None => (FlightKind::WindowConflict, "window/cross_core_conflict"),
        };
        self.flight.record(cycle, kind);
        self.bump(counter, 1);
    }

    /// Stores into the text segment, the first at `addr`, invalidated
    /// predecoded entries this cycle.
    pub fn text_invalidated(&mut self, cycle: u64, addr: u64) {
        self.flight
            .record(cycle, FlightKind::TextInvalidate { addr });
        self.bump("window/text_invalidation", 1);
    }

    /// An L1 miss entered the event model.
    pub fn miss(&mut self, cycle: u64, miss: &MissRequest) {
        if let Some(trace) = self.trace.as_mut().filter(|_| self.paraver) {
            let event = TraceEvent {
                cycle,
                core: miss.core,
                kind: miss.kind,
                line_addr: miss.line_addr,
                pc: miss.pc,
            };
            trace.record(event).expect("a core of the run");
        }
    }

    /// The hierarchy delivered `completion` (a fill of `kind`) to
    /// `core`, which `woke` it or not. A fill that reaches a core still
    /// stalled as this cycle's drain began is a wake-cause candidate.
    pub fn completion(
        &mut self,
        cycle: u64,
        core: usize,
        kind: MissKind,
        completion: &Completion,
        woke: bool,
    ) {
        if kind != MissKind::Writeback {
            let fetch = kind == MissKind::Ifetch;
            self.attr
                .note_completion(core, self.state[core].0, fetch, completion);
        }
        let line = completion.line_addr;
        self.flight
            .record(cycle, FlightKind::Completion { core, kind, line });
        if woke {
            self.flight.record(cycle, FlightKind::Wake { core });
        }
    }

    /// This cycle's completion drain is over and woke the cores in
    /// `list` (in completion-pop order): close their stalls, electing
    /// each one's canonical cause among the drain's candidates. Must
    /// follow every drain that delivered a fill, even one that woke
    /// nobody.
    pub fn woken(&mut self, list: &[usize], cycle: u64) {
        for &idx in list {
            let (prev, since) = self.state[idx];
            self.attr.close(idx, prev, since, cycle);
            // A stall that opened in this very cycle took no time: the
            // running interval it would have split carries on.
            let resumed = if since == cycle {
                self.closing.iter().position(|iv| iv.core as usize == idx)
            } else {
                None
            };
            let since = match resumed {
                Some(pos) => self.closing.swap_remove(pos).start,
                None => {
                    if self.trace.is_some() {
                        self.closing.push(interval(idx, prev, since, cycle));
                    }
                    cycle
                }
            };
            self.state[idx] = (CoreState::Active, since);
        }
        self.attr.end_drain();
    }

    /// Stores the intervals that ended this cycle — by core, whatever
    /// order they were reported in: the drain's is completion-pop
    /// order, which [`SimConfig::perturb_seed`] permutes.
    fn settle(&mut self) {
        if self.trace.is_some() {
            self.closing.sort_unstable_by_key(|iv| iv.core);
        }
        for iv in self.closing.drain(..) {
            if iv.state == STATE_RUNNING {
                self.attr
                    .close(iv.core as usize, CoreState::Active, iv.start, iv.end);
            }
            if let Some(trace) = &mut self.trace {
                trace.record_state(iv).expect("a core of the run");
            }
        }
    }

    /// Takes one epoch-telemetry sample at `cycle`, if telemetry is on
    /// (the series itself drops empty spans).
    fn sample_epoch(&mut self, cores: &[Core], hierarchy: &Hierarchy, cycle: u64) {
        if self.telemetry.is_some() {
            let span = self.enter("epoch_sample");
            let snapshot = epoch_snapshot(cycle, cores, hierarchy, self.attr.dep());
            if let Some(series) = &mut self.telemetry {
                series.push(snapshot);
            }
            self.exit(span);
        }
    }

    /// The five steps of `cycle` are done. The cycle counter can jump
    /// past epoch boundaries when fast-forwarding, so a due sample
    /// covers whatever span actually elapsed.
    #[inline]
    pub fn end_of_cycle(&mut self, cores: &[Core], hierarchy: &Hierarchy, cycle: u64) {
        if !self.closing.is_empty() {
            self.settle();
        }
        if self.next_due().is_some_and(|due| cycle >= due) {
            self.sample_epoch(cores, hierarchy, cycle);
        }
    }

    /// The run is over at `cycle`, however it ended: every core's open
    /// interval closes (so each CPI stack sums to `cycle` and the
    /// traces reach it), the final partial epoch is sampled, and the
    /// request slices are put in their canonical order once, for every
    /// export to read as they are.
    #[cold]
    pub fn finish(&mut self, cores: &[Core], hierarchy: &mut Hierarchy, cycle: u64) {
        self.settle();
        for (idx, core) in cores.iter().enumerate() {
            let (prev, since) = std::mem::replace(&mut self.state[idx], (core.state(), cycle));
            self.attr.close(idx, prev, since, cycle);
            if let Some(trace) = &mut self.trace {
                let iv = interval(idx, prev, since, cycle);
                trace.record_state(iv).expect("a core of the run");
            }
        }
        self.sample_epoch(cores, hierarchy, cycle);
        hierarchy.order_slices();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_iss::{core::DecodedText, SparseMemory};

    #[test]
    fn rearm_fail_counters_are_the_prefixed_stop_names() {
        for stop in FuseStop::ALL {
            assert_eq!(
                REARM_FAIL_COUNTERS[stop as usize],
                format!("window/rearm_fail/{}", stop.name())
            );
        }
    }

    /// A fill due the cycle its consumer issues: the core stalls in the
    /// execute step and is woken by the drain of the same cycle. The
    /// trace shows one unbroken running interval, the CPI stack a dep
    /// stall of zero cycles, and the partition holds.
    #[test]
    fn a_stall_woken_in_its_own_cycle_does_not_split_the_running_interval() {
        let program = coyote_asm::assemble(
            ".data\nx: .dword 3\n.text\n_start:\n la t0, x\n ld t1, 0(t0)\n addi a0, t1, 1",
        )
        .unwrap();
        let config = SimConfig::builder().cores(1).trace(true).build().unwrap();
        let mut hierarchy = Hierarchy::new(config.hierarchy()).unwrap();
        let mut mem = SparseMemory::new();
        mem.load_program(&program);
        let text = DecodedText::from_program(&program);
        let mut cores = [Core::new(0, program.entry(), &config.core)];
        let mut obs = Observer::new(&config);
        let mut misses = Vec::new();
        // One hand-driven orchestrator cycle: step the core, then
        // deliver the oldest outstanding miss if `fill` says so.
        let mut turn = |cores: &mut [Core; 1], obs: &mut Observer, cycle: u64, fill: bool| {
            if cores[0].state() == CoreState::Active {
                cores[0].step(&mut mem, &text, cycle, &mut misses).unwrap();
                if cores[0].state() != CoreState::Active {
                    obs.deactivated(&cores[..], &[0], cycle);
                }
            }
            if fill {
                let miss: MissRequest = misses.remove(0);
                let completion = Completion {
                    tag: 0,
                    line_addr: miss.line_addr,
                    tile: 0,
                    cause: None,
                };
                let woke = cores[0].complete_fill(miss.line_addr, miss.kind, cycle);
                obs.completion(cycle, 0, miss.kind, &completion, woke);
                obs.woken(if woke { &[0] } else { &[] }, cycle);
            }
            obs.end_of_cycle(&cores[..], &hierarchy, cycle);
        };
        turn(&mut cores, &mut obs, 1, false); // fetch miss
        turn(&mut cores, &mut obs, 5, true); // its fill
        for cycle in 6..=8 {
            turn(&mut cores, &mut obs, cycle, false); // auipc, addi, ld (misses)
        }
        turn(&mut cores, &mut obs, 9, true); // addi blocks on t1; the fill is due now
        assert_eq!(cores[0].state(), CoreState::Active);
        assert_eq!(cores[0].stats().dep_stalls, 1, "the consumer did stall");
        turn(&mut cores, &mut obs, 10, false); // addi retires
        obs.finish(&cores, &mut hierarchy, 10);

        // Running, the fetch stall, running on through cycle 9.
        let mut prv = Vec::new();
        obs.trace().unwrap().write_prv(&mut prv).unwrap();
        let body = "1:1:1:1:1:0:1:1\n1:1:1:1:1:1:5:3\n1:1:1:1:1:5:10:1\n";
        assert!(String::from_utf8(prv)
            .unwrap()
            .ends_with(&format!(")\n{body}")));
        let attr = obs.attribution();
        let dep: u64 = attr.dep()[0].iter().sum();
        assert_eq!(
            (attr.active()[0], dep, attr.fetch()[0], attr.drained()[0]),
            (6, 0, 4, 0)
        );
    }
}
