//! Epoch-sampled time series with bounded memory.
//!
//! The series keeps the cumulative [`EpochSnapshot`]s the sampler hands
//! it, after a cycle-0 origin. Epoch `i` is the [`Sample`] between
//! snapshots `i` and `i + 1`, read at export: a counter is its growth
//! between the two, a gauge its value at the later one. To keep memory
//! bounded over arbitrarily long runs, a series holding its capacity in
//! epochs compacts by keeping the even-indexed snapshots and the last,
//! so each kept epoch spans the two (or, at an odd end, the one) it
//! replaces and the effective epoch length doubles. Every counter in a
//! snapshot is monotone, so a merged epoch's growth is exactly the sum
//! of its parts and its gauges are the later part's: no column's total
//! changes, and invariants like "per-epoch retired deltas sum to total
//! retired" survive any number of compactions.

use crate::{Blame, BLAME_COLS};

/// Cumulative counters and instantaneous gauges captured at one cycle,
/// fed to [`TimeSeries::push`]. Callers only ever report
/// running totals; the series stores the snapshot as it is and reads
/// per-epoch deltas off neighbouring snapshots. A new epoch column is a
/// field here and its column in [`TimeSeries::to_csv`].
#[derive(Debug, Clone, Default)]
pub struct EpochSnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Per-core cumulative `[retired, dep_stall_cycles,
    /// fetch_stall_cycles]`.
    pub per_core: Vec<[u64; 3]>,
    /// Per-core cumulative dependency-stall cycles by attribution
    /// category ([`Blame::ALL`] order, then `other`). Covers *closed*
    /// stall intervals only — an in-progress stall is attributed when
    /// its closing completion arrives, which keeps every column
    /// monotone across snapshots (so an epoch's columns can lag its
    /// `dep_stall` by at most one in-progress stall per core).
    pub per_core_blame: Vec<[u64; BLAME_COLS]>,
    /// Per-bank `[hits, misses, mshr_occupancy]` — first two
    /// cumulative, third an instantaneous gauge.
    pub per_bank: Vec<[u64; 3]>,
    /// Cumulative NoC traversals.
    pub noc_traversals: u64,
    /// Cumulative completed hierarchy requests.
    pub completed: u64,
    /// Requests parked waiting for an MSHR right now.
    pub queued_requests: u64,
    /// Requests in flight anywhere in the hierarchy right now.
    pub in_flight: u64,
    /// Memory-controller channels busy right now.
    pub mc_busy_channels: u64,
}

/// One epoch: a view of the two snapshots that bound it. Gauges are
/// read straight off [`to`](Self::to); counters as their growth from
/// [`from`](Self::from) through the methods below.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// The snapshot at the epoch's first cycle.
    pub from: &'a EpochSnapshot,
    /// The snapshot at the epoch's end (exclusive).
    pub to: &'a EpochSnapshot,
}

impl Sample<'_> {
    /// Cycles covered by this epoch.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.to.cycle - self.from.cycle
    }

    /// Growth of a scalar counter over the epoch.
    #[must_use]
    pub fn delta(&self, counter: fn(&EpochSnapshot) -> u64) -> u64 {
        counter(self.to).saturating_sub(counter(self.from))
    }

    /// Core `c`'s `[retired, dep_stall_cycles, fetch_stall_cycles]`
    /// over the epoch.
    #[must_use]
    pub fn core(&self, c: usize) -> [u64; 3] {
        growth(&self.from.per_core, &self.to.per_core, c)
    }

    /// Core `c`'s dependency-stall cycles by attribution category over
    /// the epoch.
    #[must_use]
    pub fn blame(&self, c: usize) -> [u64; BLAME_COLS] {
        growth(&self.from.per_core_blame, &self.to.per_core_blame, c)
    }

    /// Bank `b`'s `[hits, misses]` over the epoch, then its MSHR
    /// occupancy at the end: the one gauge column of the tables.
    #[must_use]
    pub fn bank(&self, b: usize) -> [u64; 3] {
        let [hits, misses, _] = growth(&self.from.per_bank, &self.to.per_bank, b);
        let mshr = self.to.per_bank.get(b).map_or(0, |row| row[2]);
        [hits, misses, mshr]
    }

    /// [`core`](Self::core) summed over the cores.
    #[must_use]
    pub fn cores(&self) -> [u64; 3] {
        column_sums((0..self.to.per_core.len()).map(|c| self.core(c)))
    }

    /// [`bank`](Self::bank) summed over the banks.
    #[must_use]
    pub fn banks(&self) -> [u64; 3] {
        column_sums((0..self.to.per_bank.len()).map(|b| self.bank(b)))
    }
}

/// Growth of row `i` of a cumulative table, column by column: a row
/// `from` lacks grows from zero, and a row `to` lacks reads as zero.
fn growth<const N: usize>(from: &[[u64; N]], to: &[[u64; N]], i: usize) -> [u64; N] {
    let at = |table: &[[u64; N]]| table.get(i).copied().unwrap_or([0; N]);
    let (from, to) = (at(from), at(to));
    std::array::from_fn(|c| to[c].saturating_sub(from[c]))
}

fn column_sums(rows: impl Iterator<Item = [u64; 3]>) -> [u64; 3] {
    rows.fold([0; 3], |sum, row| std::array::from_fn(|c| sum[c] + row[c]))
}

/// A bounded, compacting sequence of epoch snapshots, and the epoch
/// grid the simulation loop samples on.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// The origin, then one snapshot per epoch end, in time order.
    snapshots: Vec<EpochSnapshot>,
    capacity: usize,
    compactions: u32,
    interval: u64,
    next_due: u64,
}

impl TimeSeries {
    /// Epochs held before compaction kicks in.
    pub const CAPACITY: usize = 4096;

    /// A series sampled every `interval` cycles (minimum 1), starting
    /// from cycle 0.
    #[must_use]
    pub fn new(interval: u64) -> TimeSeries {
        let interval = interval.max(1);
        TimeSeries {
            snapshots: vec![EpochSnapshot::default()],
            capacity: Self::CAPACITY,
            compactions: 0,
            interval,
            next_due: interval,
        }
    }

    /// The configured sampling interval in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// First cycle at which the next sample is due. The simulator can
    /// fast-forward past this; the epoch then simply covers more
    /// cycles.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Ends an epoch at `snapshot.cycle`, compacting first if at
    /// capacity. A snapshot no later than the last one would end an
    /// empty epoch and is dropped.
    pub fn push(&mut self, snapshot: EpochSnapshot) {
        // Schedule the next epoch boundary strictly after this one, on
        // the interval grid, so a fast-forwarded cycle counter never
        // causes back-to-back empty epochs.
        let end = snapshot.cycle;
        self.next_due = end + self.interval - end % self.interval;
        if self.snapshots.last().is_some_and(|last| end <= last.cycle) {
            return;
        }
        if self.len() >= self.capacity {
            let count = self.snapshots.len();
            let mut nth = 0;
            self.snapshots.retain(|_| {
                nth += 1;
                nth % 2 == 1 || nth == count
            });
            self.compactions += 1;
        }
        self.snapshots.push(snapshot);
    }

    /// The epochs currently held, in time order.
    pub fn samples(&self) -> impl Iterator<Item = Sample<'_>> {
        self.snapshots.windows(2).map(|pair| Sample {
            from: &pair[0],
            to: &pair[1],
        })
    }

    /// How many compactions have run.
    #[must_use]
    pub fn compactions(&self) -> u32 {
        self.compactions
    }

    /// Number of epochs currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshots.len() - 1
    }

    /// Whether the series holds no epochs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the series as CSV: a header row, then one row per
    /// epoch. Per-core and per-bank columns are sized by the widest
    /// snapshot, and rows missing those entries report 0.
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let widest = |table: fn(&EpochSnapshot) -> usize| {
            self.snapshots.iter().map(table).max().unwrap_or(0)
        };
        let cores = widest(|s| s.per_core.len());
        let blame_cores = widest(|s| s.per_core_blame.len());
        let banks = widest(|s| s.per_bank.len());

        let mut out = String::new();
        out.push_str(
            "epoch,start,end,retired,ipc,dep_stall_frac,fetch_stall_frac,\
             l2_hits,l2_misses,noc_traversals,completed,\
             mshr_occupancy,queued_requests,in_flight,mc_busy_channels",
        );
        for c in 0..cores {
            let _ = write!(
                out,
                ",core{c}_retired,core{c}_dep_stall,core{c}_fetch_stall"
            );
        }
        for c in 0..blame_cores {
            for blame in Blame::ALL {
                let _ = write!(out, ",core{c}_dep_{}", blame.name());
            }
            let _ = write!(out, ",core{c}_dep_other");
        }
        for b in 0..banks {
            let _ = write!(out, ",bank{b}_hits,bank{b}_misses,bank{b}_mshr");
        }
        out.push('\n');

        for (epoch, s) in self.samples().enumerate() {
            // A held epoch spans at least one cycle, so this is never 0.
            let core_cycles = s.cycles().saturating_mul(cores.max(1) as u64) as f64;
            let frac = |v: u64| v as f64 / core_cycles;
            let [retired, dep, fetch] = s.cores();
            let [hits, misses, mshr] = s.banks();
            let _ = write!(
                out,
                "{epoch},{},{},{retired},{:.6},{:.6},{:.6},{hits},{misses},{},{},{mshr},{},{},{}",
                s.from.cycle,
                s.to.cycle,
                frac(retired),
                frac(dep),
                frac(fetch),
                s.delta(|s| s.noc_traversals),
                s.delta(|s| s.completed),
                s.to.queued_requests,
                s.to.in_flight,
                s.to.mc_busy_channels,
            );
            for c in 0..cores {
                let [retired, dep, fetch] = s.core(c);
                let _ = write!(out, ",{retired},{dep},{fetch}");
            }
            for c in 0..blame_cores {
                for value in s.blame(c) {
                    let _ = write!(out, ",{value}");
                }
            }
            for b in 0..banks {
                let [hits, misses, mshr] = s.bank(b);
                let _ = write!(out, ",{hits},{misses},{mshr}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A series that compacts once it holds `capacity` (≥ 2) epochs.
    fn capped(capacity: usize) -> TimeSeries {
        TimeSeries {
            capacity,
            ..TimeSeries::new(1)
        }
    }

    /// Ends one epoch at `end` on top of the series' last snapshot:
    /// `retired` on core 0, fixed stalls on both cores, three hits and a
    /// miss on the one bank, whose MSHR gauge reads `retired % 5`.
    fn push_epoch(ts: &mut TimeSeries, end: u64, retired: u64) {
        let mut next = ts.snapshots.last().cloned().unwrap_or_default();
        next.per_core.resize(2, [0; 3]);
        next.per_bank.resize(1, [0; 3]);
        for (row, by) in next.per_core.iter_mut().zip([[retired, 1, 0], [0, 2, 1]]) {
            for c in 0..3 {
                row[c] += by[c];
            }
        }
        let bank = &mut next.per_bank[0];
        *bank = [bank[0] + 3, bank[1] + 1, retired % 5];
        next.cycle = end;
        ts.push(next);
    }

    fn retired(ts: &TimeSeries) -> Vec<u64> {
        ts.samples().map(|s| s.cores()[0]).collect()
    }

    #[test]
    fn push_below_capacity_keeps_all_samples() {
        let mut ts = capped(8);
        for i in 0..5 {
            push_epoch(&mut ts, (i + 1) * 100, 10);
        }
        assert_eq!(ts.len(), 5);
        assert_eq!(ts.compactions(), 0);
    }

    #[test]
    fn compaction_preserves_counter_totals() {
        let mut ts = capped(4);
        let mut pushed_retired = 0u64;
        for i in 0..33 {
            push_epoch(&mut ts, (i + 1) * 100, i + 1);
            pushed_retired += i + 1;
        }
        assert!(ts.compactions() > 0);
        assert!(ts.len() <= 4 + 1);
        assert_eq!(retired(&ts).iter().sum::<u64>(), pushed_retired);
        // Per-core retired column keeps the same total too.
        let core0: u64 = ts.samples().map(|s| s.core(0)[0]).sum();
        assert_eq!(core0, pushed_retired);
        // Time coverage stays contiguous.
        let samples: Vec<Sample> = ts.samples().collect();
        assert_eq!(samples.first().unwrap().from.cycle, 0);
        assert_eq!(samples.last().unwrap().to.cycle, 3300);
        for pair in samples.windows(2) {
            assert_eq!(pair[0].to.cycle, pair[1].from.cycle);
        }
    }

    #[test]
    fn odd_sample_count_compacts_pairwise_and_keeps_the_trailer() {
        // Five epochs at capacity: pairs (0,1) and (2,3) merge, the odd
        // trailing epoch rides along untouched.
        let mut ts = capped(5);
        for i in 0..5u64 {
            push_epoch(&mut ts, (i + 1) * 100, i + 1);
        }
        assert_eq!(ts.len(), 5);
        push_epoch(&mut ts, 600, 6);
        assert_eq!(ts.compactions(), 1);
        assert_eq!(ts.len(), 4);
        assert_eq!(retired(&ts), vec![3, 7, 5, 6]);
        // The odd trailer kept its exact bounds and the merged pairs
        // doubled their epoch length.
        let samples: Vec<Sample> = ts.samples().collect();
        assert_eq!(samples[0].cycles(), 200);
        assert_eq!(samples[2].from.cycle, 400);
        assert_eq!(samples[2].to.cycle, 500);
        // Coverage stays contiguous across the odd boundary.
        for pair in samples.windows(2) {
            assert_eq!(pair[0].to.cycle, pair[1].from.cycle);
        }
    }

    #[test]
    fn repeated_odd_compactions_preserve_totals() {
        // Minimum capacity (2) forces a compaction on nearly every
        // push; with an odd length at each step the trailer path runs
        // constantly. No counter mass may be created or destroyed.
        let mut ts = capped(2);
        let mut pushed = 0u64;
        for i in 0..17u64 {
            push_epoch(&mut ts, (i + 1) * 10, i + 1);
            pushed += i + 1;
        }
        assert!(ts.compactions() >= 4);
        assert_eq!(retired(&ts).iter().sum::<u64>(), pushed);
        let samples: Vec<Sample> = ts.samples().collect();
        assert_eq!(samples.first().unwrap().from.cycle, 0);
        assert_eq!(samples.last().unwrap().to.cycle, 170);
    }

    #[test]
    fn gauges_take_end_of_epoch_value() {
        // The third epoch compacts the first two into one.
        let mut ts = capped(2);
        push_epoch(&mut ts, 100, 4); // mshr gauge 4
        push_epoch(&mut ts, 200, 7); // mshr gauge 2
        push_epoch(&mut ts, 300, 1);
        let merged = ts.samples().next().unwrap();
        assert_eq!(merged.cycles(), 200);
        assert_eq!(merged.banks()[2], 2);
        // Bank column 2 is a gauge: the later value, not the sum.
        assert_eq!(merged.bank(0)[2], 2);
        // Bank columns 0/1 are counters: summed.
        assert_eq!(merged.bank(0)[0], 6);
    }

    #[test]
    fn csv_has_header_and_per_entity_columns() {
        let mut ts = capped(8);
        push_epoch(&mut ts, 1000, 500);
        let csv = ts.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("epoch,start,end,retired,ipc"));
        assert!(header.contains("core1_dep_stall"));
        assert!(header.contains("bank0_mshr"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        assert!(lines.next().is_none());
    }

    #[test]
    fn blame_columns_absorb_and_serialize() {
        let mut ts = capped(2);
        let at = |cycle, per_core_blame| EpochSnapshot {
            cycle,
            per_core_blame,
            ..EpochSnapshot::default()
        };
        ts.push(at(100, vec![[1, 2, 3, 4, 5, 6]]));
        ts.push(at(200, vec![[11, 2, 3, 4, 5, 7], [2, 0, 0, 0, 0, 0]]));
        ts.push(at(300, vec![[11, 2, 3, 4, 5, 7], [2, 0, 0, 0, 0, 0]]));
        let merged = ts.samples().next().unwrap();
        assert_eq!(merged.blame(0), [11, 2, 3, 4, 5, 7]);
        assert_eq!(merged.blame(1), [2, 0, 0, 0, 0, 0]);

        let csv = ts.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("core0_dep_noc"));
        assert!(header.contains("core1_dep_mc"));
        assert!(header.contains("core0_dep_other"));
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
    }

    #[test]
    fn empty_series_yields_header_only() {
        let ts = TimeSeries::new(1);
        let csv = ts.to_csv();
        assert_eq!(csv.lines().count(), 1);
    }

    #[test]
    fn ipc_handles_zero_length_epochs() {
        // A snapshot repeating the last cycle would end an empty epoch:
        // no row may span zero cycles or divide by them.
        let mut ts = capped(8);
        push_epoch(&mut ts, 100, 10);
        push_epoch(&mut ts, 100, 10);
        push_epoch(&mut ts, 250, 30);
        let csv = ts.to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_ne!(row[1], row[2], "epoch {} is empty", row[0]);
            for frac in &row[4..7] {
                assert!(frac.parse::<f64>().is_ok_and(f64::is_finite), "{frac}");
            }
        }
        assert_eq!(rows[1][4], "0.100000");
    }

    fn snapshot(cycle: u64, retired: u64, hits: u64) -> EpochSnapshot {
        EpochSnapshot {
            cycle,
            per_core: vec![[retired, cycle / 2, 0]],
            per_bank: vec![[hits, hits / 2, 3]],
            noc_traversals: hits * 2,
            completed: hits,
            ..EpochSnapshot::default()
        }
    }

    #[test]
    fn sink_differences_cumulative_counters() {
        let mut sink = TimeSeries::new(100);
        sink.push(snapshot(100, 50, 10));
        sink.push(snapshot(200, 120, 25));
        let samples: Vec<Sample> = sink.samples().collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].cores()[0], 50);
        assert_eq!(samples[1].cores()[0], 70);
        assert_eq!(samples[1].banks()[0], 15);
        assert_eq!(samples[1].delta(|s| s.completed), 15);
        // Gauge column passes through untouched.
        assert_eq!(samples[1].bank(0)[2], 3);
        // Delta sum equals the final cumulative value.
        let total: u64 = samples.iter().map(|s| s.cores()[0]).sum();
        assert_eq!(total, 120);
    }

    #[test]
    fn next_due_follows_the_interval_grid_after_fast_forward() {
        let mut sink = TimeSeries::new(100);
        assert_eq!(sink.next_due(), 100);
        // Fast-forwarded well past several boundaries.
        sink.push(snapshot(370, 10, 1));
        assert_eq!(sink.next_due(), 400);
        // Landing exactly on a boundary schedules the following one.
        sink.push(snapshot(400, 12, 2));
        assert_eq!(sink.next_due(), 500);
    }

    #[test]
    fn zero_length_epochs_are_dropped() {
        let mut sink = TimeSeries::new(10);
        sink.push(snapshot(10, 5, 1));
        sink.push(snapshot(10, 5, 1));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn interval_is_clamped_to_one() {
        let sink = TimeSeries::new(0);
        assert_eq!(sink.interval(), 1);
        assert_eq!(sink.next_due(), 1);
    }

    #[test]
    fn blame_rows_difference_like_other_counters() {
        let mut sink = TimeSeries::new(100);
        let mut first = snapshot(100, 10, 1);
        first.per_core_blame = vec![[5, 0, 10, 0, 20, 3]];
        sink.push(first);
        let mut second = snapshot(200, 20, 2);
        second.per_core_blame = vec![[7, 0, 25, 4, 20, 3]];
        sink.push(second);
        let samples: Vec<Sample> = sink.samples().collect();
        assert_eq!(samples[0].blame(0), [5, 0, 10, 0, 20, 3]);
        assert_eq!(samples[1].blame(0), [2, 0, 15, 4, 0, 0]);
    }

    /// The sampler and compactor the snapshot series replaced, kept as
    /// the reference it must match: the sink differenced each snapshot
    /// against the last into a delta sample, and the series merged
    /// adjacent delta samples in pairs.
    mod reference {
        use crate::{Blame, EpochSnapshot, BLAME_COLS};

        #[derive(Debug, Clone, Default)]
        pub struct Delta {
            start: u64,
            end: u64,
            retired: u64,
            dep_stall_cycles: u64,
            fetch_stall_cycles: u64,
            l2_hits: u64,
            l2_misses: u64,
            noc_traversals: u64,
            completed: u64,
            mshr_occupancy: u64,
            queued_requests: u64,
            in_flight: u64,
            mc_busy_channels: u64,
            per_core: Vec<[u64; 3]>,
            per_core_blame: Vec<[u64; BLAME_COLS]>,
            per_bank: Vec<[u64; 3]>,
        }

        impl Delta {
            fn absorb(&mut self, next: &Delta) {
                self.end = next.end;
                self.retired += next.retired;
                self.dep_stall_cycles += next.dep_stall_cycles;
                self.fetch_stall_cycles += next.fetch_stall_cycles;
                self.l2_hits += next.l2_hits;
                self.l2_misses += next.l2_misses;
                self.noc_traversals += next.noc_traversals;
                self.completed += next.completed;
                self.mshr_occupancy = next.mshr_occupancy;
                self.queued_requests = next.queued_requests;
                self.in_flight = next.in_flight;
                self.mc_busy_channels = next.mc_busy_channels;
                merge_triples(&mut self.per_core, &next.per_core, [true, true, true]);
                merge_triples(
                    &mut self.per_core_blame,
                    &next.per_core_blame,
                    [true; BLAME_COLS],
                );
                merge_triples(&mut self.per_bank, &next.per_bank, [true, true, false]);
            }
        }

        fn merge_triples<const N: usize>(
            into: &mut Vec<[u64; N]>,
            from: &[[u64; N]],
            add: [bool; N],
        ) {
            if into.len() < from.len() {
                into.resize(from.len(), [0; N]);
            }
            for (mine, theirs) in into.iter_mut().zip(from) {
                for i in 0..N {
                    if add[i] {
                        mine[i] += theirs[i];
                    } else {
                        mine[i] = theirs[i];
                    }
                }
            }
        }

        fn diff_rows<const N: usize>(
            newer: &[[u64; N]],
            older: &[[u64; N]],
            diff: [bool; N],
        ) -> Vec<[u64; N]> {
            newer
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    let prev = older.get(i).copied().unwrap_or([0; N]);
                    std::array::from_fn(|c| {
                        if diff[c] {
                            row[c].saturating_sub(prev[c])
                        } else {
                            row[c]
                        }
                    })
                })
                .collect()
        }

        /// The sink's sampler: `last` is the last snapshot it kept.
        #[derive(Debug, Default)]
        pub struct Series {
            last: EpochSnapshot,
            samples: Vec<Delta>,
            capacity: usize,
            pub compactions: u32,
        }

        impl Series {
            pub fn new(capacity: usize) -> Series {
                Series {
                    capacity: capacity.max(2),
                    ..Series::default()
                }
            }

            pub fn sample(&mut self, snapshot: &EpochSnapshot) {
                let (start, end) = (self.last.cycle, snapshot.cycle);
                if end <= start {
                    return;
                }
                let last = &self.last;
                let per_core = diff_rows(&snapshot.per_core, &last.per_core, [true; 3]);
                let per_core_blame = diff_rows(
                    &snapshot.per_core_blame,
                    &last.per_core_blame,
                    [true; BLAME_COLS],
                );
                let per_bank = diff_rows(&snapshot.per_bank, &last.per_bank, [true, true, false]);
                let sum_col = |rows: &[[u64; 3]], col: usize| rows.iter().map(|r| r[col]).sum();
                let sample = Delta {
                    start,
                    end,
                    retired: sum_col(&per_core, 0),
                    dep_stall_cycles: sum_col(&per_core, 1),
                    fetch_stall_cycles: sum_col(&per_core, 2),
                    l2_hits: sum_col(&per_bank, 0),
                    l2_misses: sum_col(&per_bank, 1),
                    noc_traversals: snapshot.noc_traversals - last.noc_traversals,
                    completed: snapshot.completed - last.completed,
                    mshr_occupancy: sum_col(&per_bank, 2),
                    queued_requests: snapshot.queued_requests,
                    in_flight: snapshot.in_flight,
                    mc_busy_channels: snapshot.mc_busy_channels,
                    per_core,
                    per_core_blame,
                    per_bank,
                };
                if self.samples.len() >= self.capacity {
                    let mut merged = Vec::new();
                    let mut iter = self.samples.drain(..);
                    while let Some(mut first) = iter.next() {
                        if let Some(second) = iter.next() {
                            first.absorb(&second);
                        }
                        merged.push(first);
                    }
                    drop(iter);
                    self.samples = merged;
                    self.compactions += 1;
                }
                self.samples.push(sample);
                self.last = snapshot.clone();
            }

            pub fn to_csv(&self) -> String {
                use std::fmt::Write as _;
                let widest =
                    |width: fn(&Delta) -> usize| self.samples.iter().map(width).max().unwrap_or(0);
                let cores = widest(|s| s.per_core.len());
                let blame_cores = widest(|s| s.per_core_blame.len());
                let banks = widest(|s| s.per_bank.len());
                let mut out = String::from(
                    "epoch,start,end,retired,ipc,dep_stall_frac,fetch_stall_frac,\
                     l2_hits,l2_misses,noc_traversals,completed,\
                     mshr_occupancy,queued_requests,in_flight,mc_busy_channels",
                );
                for c in 0..cores {
                    let _ = write!(
                        out,
                        ",core{c}_retired,core{c}_dep_stall,core{c}_fetch_stall"
                    );
                }
                for c in 0..blame_cores {
                    for blame in Blame::ALL {
                        let _ = write!(out, ",core{c}_dep_{}", blame.name());
                    }
                    let _ = write!(out, ",core{c}_dep_other");
                }
                for b in 0..banks {
                    let _ = write!(out, ",bank{b}_hits,bank{b}_misses,bank{b}_mshr");
                }
                out.push('\n');
                for (epoch, s) in self.samples.iter().enumerate() {
                    let core_cycles = (s.end - s.start).saturating_mul(cores.max(1) as u64);
                    let frac = |v: u64| {
                        if core_cycles == 0 {
                            0.0
                        } else {
                            v as f64 / core_cycles as f64
                        }
                    };
                    let _ = write!(
                        out,
                        "{epoch},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{}",
                        s.start,
                        s.end,
                        s.retired,
                        frac(s.retired),
                        frac(s.dep_stall_cycles),
                        frac(s.fetch_stall_cycles),
                        s.l2_hits,
                        s.l2_misses,
                        s.noc_traversals,
                        s.completed,
                        s.mshr_occupancy,
                        s.queued_requests,
                        s.in_flight,
                        s.mc_busy_channels,
                    );
                    for c in 0..cores {
                        let row = s.per_core.get(c).copied().unwrap_or([0; 3]);
                        let _ = write!(out, ",{},{},{}", row[0], row[1], row[2]);
                    }
                    for c in 0..blame_cores {
                        let row = s.per_core_blame.get(c).copied().unwrap_or([0; BLAME_COLS]);
                        for value in row {
                            let _ = write!(out, ",{value}");
                        }
                    }
                    for b in 0..banks {
                        let row = s.per_bank.get(b).copied().unwrap_or([0; 3]);
                        let _ = write!(out, ",{},{},{}", row[0], row[1], row[2]);
                    }
                    out.push('\n');
                }
                out
            }
        }
    }

    /// A monotone snapshot stream of `cores` cores and `banks` banks, one
    /// snapshot per word: a word that is 0 mod 5 repeats the last cycle
    /// (an empty epoch), counters grow by the word's bits (sometimes by
    /// nothing), and gauges take fresh values that rise and fall.
    fn stream(cores: usize, banks: usize, words: &[u64]) -> Vec<EpochSnapshot> {
        let mut at = EpochSnapshot {
            per_core: vec![[0; 3]; cores],
            per_core_blame: vec![[0; BLAME_COLS]; cores],
            per_bank: vec![[0; 3]; banks],
            ..EpochSnapshot::default()
        };
        let mut out = Vec::new();
        for &word in words {
            let mut bits = word;
            let mut draw = |bound: u64| {
                bits = bits.rotate_left(7) ^ 0x9e37_79b9_7f4a_7c15;
                bits % bound
            };
            if word % 5 != 0 {
                at.cycle += 1 + draw(40);
            }
            for row in &mut at.per_core {
                *row = [row[0] + draw(20), row[1] + draw(7), row[2] + draw(3)];
            }
            for row in &mut at.per_core_blame {
                for value in row.iter_mut() {
                    *value += draw(5);
                }
            }
            for row in &mut at.per_bank {
                *row = [row[0] + draw(9), row[1] + draw(4), draw(8)];
            }
            at.noc_traversals += draw(30);
            at.completed += draw(10);
            at.queued_requests = draw(6);
            at.in_flight = draw(12);
            at.mc_busy_channels = draw(4);
            out.push(at.clone());
        }
        out
    }

    proptest! {
        /// Storing snapshots and keeping the even-indexed ones is the
        /// delta sampler with pair-merge compaction, to the byte.
        #[test]
        fn the_snapshot_series_writes_the_delta_series_csv(
            cores in 1usize..=9,
            banks in 0usize..=4,
            capacity in 2usize..=8,
            words in prop::collection::vec(any::<u64>(), 0..=60),
        ) {
            let mut series = capped(capacity);
            let mut reference = reference::Series::new(capacity);
            for snapshot in stream(cores, banks, &words) {
                reference.sample(&snapshot);
                series.push(snapshot);
            }
            prop_assert_eq!(series.to_csv(), reference.to_csv());
            prop_assert_eq!(series.compactions(), reference.compactions);
        }
    }
}
