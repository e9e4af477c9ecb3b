//! Host-side self-profiler: the simulator observing itself.
//!
//! Every other module in this workspace observes the *simulated*
//! machine; this one observes the simulator. It provides scoped phase
//! timers that build a hierarchical phase tree, log2 host-latency
//! histograms (reusing [`Histogram`]), named monotone counters, and
//! per-core value histograms (chunk lengths, run lengths) — everything
//! the orchestrator needs to explain where host time goes without any
//! external profiler.
//!
//! # The wall-clock exception
//!
//! This file alone is allowed to call [`Instant::now`]: the root
//! `clippy.toml` disallows it everywhere, and the two calls below carry
//! the workspace's only `#[expect(clippy::disallowed_methods)]`.
//! Keeping every wall-clock read behind [`HostProf`] and [`WallClock`]
//! makes the determinism argument local: host time can be *measured*
//! here but never *returned into* simulated state, because nothing in
//! this module exposes a value the simulator feeds back into a model
//! decision.
//!
//! # Deterministic counter mode
//!
//! [`ProfClock::Counter`] runs the same phase tree and counters with
//! zero wall-clock reads: phase entry counts, abort-reason counters and
//! per-core histograms all derive from simulated state only, so two
//! legal schedules of the same simulation produce byte-identical
//! profiles (`crates/core/tests/equivalence.rs` diffs them across
//! perturbation seeds).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::hist::Histogram;

/// Time source for a [`HostProf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfClock {
    /// Real host time: phase durations from [`Instant::now`].
    Wall,
    /// Wall-clock-free deterministic mode: phases count entries but
    /// record no durations. Profiles are byte-identical across hosts
    /// and legal schedules.
    Counter,
}

impl ProfClock {
    /// Stable name used as the JSON `mode` value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfClock::Wall => "wall",
            ProfClock::Counter => "counter",
        }
    }
}

/// Proof that a phase was entered; hand it back to [`HostProf::exit`].
///
/// Deliberately not `Copy`/`Clone`: one `enter` pairs with one `exit`.
/// Only this module can construct one, so the wall-clock read it may
/// carry cannot escape.
#[must_use = "a dropped span never closes its phase"]
#[derive(Debug)]
pub struct SpanToken {
    node: usize,
    start: Option<Instant>,
}

/// One node of the phase tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
    hist: Histogram,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            hist: Histogram::new(),
        }
    }
}

/// Read-only view of one phase, as returned by [`HostProf::phase`].
#[derive(Debug, Clone, Copy)]
pub struct Phase<'a> {
    /// Phase name as passed to [`HostProf::enter`].
    pub name: &'static str,
    /// Times the phase was entered.
    pub count: u64,
    /// Total nanoseconds spent inside (zero in counter mode).
    pub total_ns: u64,
    /// Log2 histogram of per-entry nanoseconds (empty in counter mode).
    pub hist: &'a Histogram,
    /// Node ids of child phases, in first-entry order.
    pub children: &'a [usize],
}

/// The host-side profiler: a phase tree, named counters, and per-core
/// histograms. Create one per simulation; the orchestrator threads it
/// through its hot path behind an `Option` so the off state costs one
/// branch.
#[derive(Debug)]
pub struct HostProf {
    clock: ProfClock,
    cores: usize,
    /// `nodes[0]` is a synthetic root that is never timed; real phases
    /// hang off it.
    nodes: Vec<Node>,
    /// Path currently open, rooted at node 0.
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
    core_hists: BTreeMap<&'static str, Vec<Histogram>>,
}

impl HostProf {
    /// A fresh profiler for a `cores`-core simulation.
    #[must_use]
    pub fn new(clock: ProfClock, cores: usize) -> HostProf {
        HostProf {
            clock,
            cores: cores.max(1),
            nodes: vec![Node::new("")],
            stack: vec![0],
            counters: BTreeMap::new(),
            core_hists: BTreeMap::new(),
        }
    }

    /// The profiler's time source.
    #[must_use]
    pub fn clock(&self) -> ProfClock {
        self.clock
    }

    /// Number of cores per-core histograms are sized for.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Opens a phase named `name` nested under the phase currently
    /// open (or at the top level). Reuses the node if this parent has
    /// seen the name before, so the tree stays bounded by the set of
    /// distinct call paths.
    pub fn enter(&mut self, name: &'static str) -> SpanToken {
        let parent = *self.stack.last().expect("stack always holds the root");
        let node = match self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name)
        {
            Some(existing) => existing,
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node::new(name));
                self.nodes[parent].children.push(id);
                id
            }
        };
        self.stack.push(node);
        #[expect(
            clippy::disallowed_methods,
            reason = "the host profiler is the one place that reads the wall clock"
        )]
        let start = match self.clock {
            ProfClock::Wall => Some(Instant::now()),
            ProfClock::Counter => None,
        };
        SpanToken { node, start }
    }

    /// Closes the phase opened by `token`, accumulating its duration
    /// (wall mode) or just its entry count (counter mode).
    ///
    /// Consumes the token by design — it is a linear proof-of-entry,
    /// so a span cannot be closed twice.
    #[allow(clippy::needless_pass_by_value)]
    pub fn exit(&mut self, token: SpanToken) {
        debug_assert_eq!(
            self.stack.last().copied(),
            Some(token.node),
            "phase exits must nest"
        );
        if self.stack.len() > 1 {
            self.stack.pop();
        }
        let node = &mut self.nodes[token.node];
        node.count += 1;
        if let Some(start) = token.start {
            let ns = saturating_ns(start.elapsed());
            node.total_ns += ns;
            node.hist.record(ns);
        }
    }

    /// Adds `n` to the named monotone counter.
    pub fn bump(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of a named counter (0 if never bumped).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// Records `value` into the per-core histogram family `name` for
    /// `core`. Families are created lazily, sized to [`Self::cores`].
    pub fn record_core(&mut self, name: &'static str, core: usize, value: u64) {
        let hists = self
            .core_hists
            .entry(name)
            .or_insert_with(|| vec![Histogram::new(); self.cores]);
        if let Some(hist) = hists.get_mut(core) {
            hist.record(value);
        }
    }

    /// The per-core histograms of a family, indexed by core id.
    #[must_use]
    pub fn core_hists(&self, name: &str) -> Option<&[Histogram]> {
        self.core_hists.get(name).map(Vec::as_slice)
    }

    /// All per-core histogram family names, in name order.
    pub fn core_hist_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.core_hists.keys().copied()
    }

    /// All cores of a family merged into one histogram (empty if the
    /// family was never recorded).
    #[must_use]
    pub fn merged_core_hist(&self, name: &str) -> Histogram {
        let mut merged = Histogram::new();
        if let Some(hists) = self.core_hists.get(name) {
            for hist in hists {
                merged.merge(hist);
            }
        }
        merged
    }

    /// Top-level phase node ids, in first-entry order.
    #[must_use]
    pub fn roots(&self) -> &[usize] {
        &self.nodes[0].children
    }

    /// Names of the phases currently open, outermost first (empty when
    /// nothing is open). Crash dumps use this to report what the
    /// simulator was doing when a run died mid-phase.
    #[must_use]
    pub fn open_phases(&self) -> Vec<&'static str> {
        self.stack[1..]
            .iter()
            .map(|&id| self.nodes[id].name)
            .collect()
    }

    /// Read-only view of a phase node.
    #[must_use]
    pub fn phase(&self, id: usize) -> Phase<'_> {
        let node = &self.nodes[id];
        Phase {
            name: node.name,
            count: node.count,
            total_ns: node.total_ns,
            hist: &node.hist,
            children: &node.children,
        }
    }

    /// Nanoseconds spent in a phase *excluding* its children
    /// (saturating: clock jitter can make children sum past the
    /// parent by a few ns).
    #[must_use]
    pub fn exclusive_ns(&self, id: usize) -> u64 {
        let node = &self.nodes[id];
        let child_ns: u64 = node.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        node.total_ns.saturating_sub(child_ns)
    }

    /// The phase tree as flamegraph-compatible folded stacks: one
    /// `path;to;phase value` line per node, sorted lexicographically.
    /// Values are exclusive nanoseconds in wall mode and exclusive
    /// entry counts in counter mode.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut lines = Vec::new();
        let mut walk: Vec<(usize, String)> = self
            .roots()
            .iter()
            .map(|&id| (id, self.nodes[id].name.to_owned()))
            .collect();
        while let Some((id, path)) = walk.pop() {
            let node = &self.nodes[id];
            let value = match self.clock {
                ProfClock::Wall => self.exclusive_ns(id),
                ProfClock::Counter => {
                    let child_count: u64 = node.children.iter().map(|&c| self.nodes[c].count).sum();
                    node.count.saturating_sub(child_count)
                }
            };
            lines.push(format!("{path} {value}"));
            for &child in &node.children {
                walk.push((child, format!("{path};{}", self.nodes[child].name)));
            }
        }
        lines.sort_unstable();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// A one-shot wall-clock stopwatch for code that needs a host duration
/// (the end-of-run `wall_time` report field) without holding a full
/// profiler. Exists so `Instant` never appears outside this module.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Starts the stopwatch.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the host profiler is the one place that reads the wall clock"
    )]
    pub fn start() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`WallClock::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Duration → nanoseconds, saturating at `u64::MAX` (584 years).
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_tree_nests_and_reuses_nodes() {
        let mut prof = HostProf::new(ProfClock::Counter, 1);
        for _ in 0..3 {
            let outer = prof.enter("execute");
            let inner = prof.enter("fused_window");
            prof.exit(inner);
            prof.exit(outer);
        }
        let scan = prof.enter("attr_scan");
        prof.exit(scan);
        assert_eq!(prof.roots().len(), 2);
        let execute = prof.phase(prof.roots()[0]);
        assert_eq!(execute.name, "execute");
        assert_eq!(execute.count, 3);
        assert_eq!(execute.children.len(), 1);
        let window = prof.phase(execute.children[0]);
        assert_eq!(window.name, "fused_window");
        assert_eq!(window.count, 3);
        let scan = prof.phase(prof.roots()[1]);
        assert_eq!(scan.name, "attr_scan");
        assert_eq!(scan.count, 1);
    }

    #[test]
    fn counter_mode_records_no_time() {
        let mut prof = HostProf::new(ProfClock::Counter, 2);
        let span = prof.enter("step");
        prof.exit(span);
        let step = prof.phase(prof.roots()[0]);
        assert_eq!(step.total_ns, 0);
        assert!(step.hist.is_empty());
        assert_eq!(step.count, 1);
    }

    #[test]
    fn wall_mode_accumulates_time_and_histogram() {
        let mut prof = HostProf::new(ProfClock::Wall, 1);
        for _ in 0..4 {
            let span = prof.enter("step");
            std::hint::black_box(0u64);
            prof.exit(span);
        }
        let step = prof.phase(prof.roots()[0]);
        assert_eq!(step.count, 4);
        assert_eq!(step.hist.count(), 4);
        assert_eq!(step.hist.sum(), step.total_ns);
    }

    #[test]
    fn counters_are_monotone_and_sorted() {
        let mut prof = HostProf::new(ProfClock::Counter, 1);
        prof.bump("window/cross_core_conflict", 2);
        prof.bump("predecode/slots", 10);
        prof.bump("window/cross_core_conflict", 1);
        assert_eq!(prof.counter("window/cross_core_conflict"), 3);
        assert_eq!(prof.counter("never"), 0);
        let names: Vec<&str> = prof.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["predecode/slots", "window/cross_core_conflict"]);
    }

    #[test]
    fn per_core_histograms_merge() {
        let mut prof = HostProf::new(ProfClock::Counter, 3);
        prof.record_core("chunk_len", 0, 4);
        prof.record_core("chunk_len", 2, 16);
        prof.record_core("chunk_len", 2, 16);
        // Out-of-range core ids are dropped, not a panic.
        prof.record_core("chunk_len", 9, 1);
        let hists = prof.core_hists("chunk_len").expect("family exists");
        assert_eq!(hists.len(), 3);
        assert_eq!(hists[0].count(), 1);
        assert_eq!(hists[1].count(), 0);
        assert_eq!(hists[2].count(), 2);
        let merged = prof.merged_core_hist("chunk_len");
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 16);
        assert!(prof.merged_core_hist("absent").is_empty());
        let names: Vec<&str> = prof.core_hist_names().collect();
        assert_eq!(names, vec!["chunk_len"]);
    }

    #[test]
    fn folded_stacks_are_sorted_exclusive_and_newline_terminated() {
        let mut prof = HostProf::new(ProfClock::Counter, 1);
        for _ in 0..5 {
            let outer = prof.enter("execute");
            let inner = prof.enter("sequential");
            prof.exit(inner);
            prof.exit(outer);
        }
        let lone = prof.enter("wake");
        prof.exit(lone);
        let folded = prof.folded();
        assert_eq!(folded, "execute 0\nexecute;sequential 5\nwake 1\n");
    }

    #[test]
    fn wall_clock_measures_forward_time() {
        let clock = WallClock::start();
        std::hint::black_box(0u64);
        let first = clock.elapsed();
        let second = clock.elapsed();
        assert!(second >= first);
    }

    #[test]
    fn clock_names_are_stable() {
        assert_eq!(ProfClock::Wall.name(), "wall");
        assert_eq!(ProfClock::Counter.name(), "counter");
    }
}
