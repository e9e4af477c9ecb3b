//! Deterministic parallel execute phase: a fixed worker pool stepping
//! disjoint core shards against a read-only pre-cycle memory snapshot.
//!
//! Each cycle the orchestrator clones the active cores into shard jobs,
//! sends all but the first to the pool, and steps shard 0 inline.
//! Workers step their cores through a [`BufferedMemory`] so every store
//! lands in a core-private buffer and every data access is logged.
//! After the join the orchestrator intersects the per-core access sets:
//! if no same-cycle cross-core ranges overlap, the buffers commit in
//! core-index order (reproducing the sequential schedule byte for
//! byte); any overlap discards the shard results and re-executes the
//! cycle sequentially, so the observable interleaving is always
//! bit-identical to `jobs = 1`.
//!
//! When host profiling is on ([`crate::config::SimConfig::profiling`]),
//! the orchestrator brackets these three stages as the profiler phases
//! `parallel/shard_step` (dispatch + step + join), `parallel/
//! conflict_check` (the access-set sweep below) and `parallel/commit`;
//! a discarded cycle additionally bumps the `parallel/
//! conflict_fallback` counter and re-runs under the `sequential` phase.
//! Per-shard state carries no profiling hooks on purpose: worker
//! threads must never observe the host clock, so all timing happens on
//! the orchestrator thread at the phase boundaries.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use coyote_isa::{cross_owner_conflict, Access, OwnerAccesses, StoreMap};
use coyote_iss::core::{Core, CoreState, DecodedText, StepEvent};
use coyote_iss::{BufferedMemory, MissRequest, SimError, SparseMemory, StoreBuffer};

/// Work for one shard of one cycle.
pub(crate) struct Job {
    /// Shared pre-cycle memory snapshot (read-only during the step).
    pub mem: Arc<SparseMemory>,
    /// Shared predecoded text segment.
    pub text: Arc<DecodedText>,
    /// The cycle being executed.
    pub cycle: u64,
    /// Instructions attempted per core this cycle.
    pub interleave: usize,
    /// `(core index, clone of the core)` pairs to step.
    pub cores: Vec<(usize, Core)>,
    /// Which shard this is, so results reassemble in shard order.
    pub shard: usize,
}

/// One stepped core clone plus everything observable it produced.
pub(crate) struct SteppedCore {
    /// Index of the core in the orchestrator's core vector.
    pub idx: usize,
    /// The stepped clone (replaces the original on commit).
    pub core: Core,
    /// Events in step order (drives oracle checks and stall scans).
    pub events: Vec<StepEvent>,
    /// The core's buffered stores and logged accesses.
    pub buf: StoreBuffer,
    /// L1 misses raised, in issue order.
    pub misses: Vec<MissRequest>,
    /// A fault, if the core faulted mid-shard.
    pub error: Option<SimError>,
}

/// One shard's results, tagged for reassembly.
pub(crate) struct ShardResult {
    /// The shard index from the [`Job`].
    pub shard: usize,
    /// Stepped cores in the job's order.
    pub cores: Vec<SteppedCore>,
}

/// Steps every core in the shard against the read-only snapshot.
/// Mirrors the sequential step-1 loop exactly: per core, up to
/// `interleave` attempts, stopping when the core leaves
/// [`CoreState::Active`] or faults.
pub(crate) fn step_shard(
    mem: &SparseMemory,
    text: &DecodedText,
    cycle: u64,
    interleave: usize,
    cores: Vec<(usize, Core)>,
) -> Vec<SteppedCore> {
    cores
        .into_iter()
        .map(|(idx, mut core)| {
            let mut view = BufferedMemory::new(mem);
            let mut misses = Vec::new();
            let mut events = Vec::new();
            let mut error = None;
            for _ in 0..interleave {
                if core.state() != CoreState::Active {
                    break;
                }
                match core.step(&mut view, text, cycle, &mut misses) {
                    Ok(event) => events.push(event),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            SteppedCore {
                idx,
                core,
                events,
                buf: view.into_buffer(),
                misses,
                error,
            }
        })
        .collect()
}

/// Runs a job and releases the snapshot handles *before* the result is
/// sent, so the orchestrator can reclaim exclusive memory access
/// (`Arc::get_mut`) as soon as the last shard result arrives.
fn run(job: Job) -> Vec<SteppedCore> {
    let Job {
        mem,
        text,
        cycle,
        interleave,
        cores,
        shard: _,
    } = job;
    let stepped = step_shard(&mem, &text, cycle, interleave, cores);
    drop(mem);
    drop(text);
    stepped
}

/// Whether any two cores' same-cycle accesses overlap with at least
/// one write — the condition under which the parallel step's results
/// could differ from the sequential schedule and must be discarded.
///
/// Granularity is byte ranges, not cache lines: HPC kernels routinely
/// partition one line across harts (disjoint dwords), which must not
/// force a fallback. `map` is the orchestrator's reused scratch.
pub(crate) fn conflicting(map: &mut StoreMap, stepped: &[SteppedCore]) -> bool {
    let owners = stepped.iter().map(|s| OwnerAccesses {
        owner: s.idx,
        has_stores: s.buf.writes().next().is_some(),
        accesses: s
            .buf
            .reads()
            .iter()
            .map(|&(addr, len)| Access::load(addr, u64::from(len)))
            .chain(
                s.buf
                    .writes()
                    .map(|(addr, len)| Access::store(addr, u64::from(len))),
            ),
    });
    cross_owner_conflict(map, owners)
}

/// Fixed pool of `jobs - 1` worker threads (shard 0 always runs inline
/// on the orchestrator thread). Workers live for the whole simulation;
/// dropping the pool disconnects their job channels and joins them.
pub(crate) struct WorkerPool {
    senders: Vec<mpsc::Sender<Job>>,
    results: mpsc::Receiver<ShardResult>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `jobs - 1` workers, each with a private job queue feeding
    /// one shared result channel.
    pub fn new(jobs: usize) -> WorkerPool {
        let (result_tx, results) = mpsc::channel();
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for _ in 1..jobs {
            let (tx, rx) = mpsc::channel::<Job>();
            let result_tx = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    let shard = job.shard;
                    let cores = run(job);
                    if result_tx.send(ShardResult { shard, cores }).is_err() {
                        break;
                    }
                }
            }));
            senders.push(tx);
        }
        WorkerPool {
            senders,
            results,
            handles,
        }
    }

    /// Number of pool workers (`jobs - 1`).
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Sends `job` to pool worker `worker` (0-based).
    pub fn dispatch(&self, worker: usize, job: Job) {
        self.senders[worker]
            .send(job)
            .expect("worker thread exited early");
    }

    /// Blocks for one shard result; shards complete in any order.
    pub fn recv(&self) -> ShardResult {
        self.results.recv().expect("worker thread exited early")
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnecting the job channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_iss::MemoryIo;

    fn stepped_with(
        mem: &SparseMemory,
        idx: usize,
        access: impl FnOnce(&mut BufferedMemory),
    ) -> SteppedCore {
        let mut view = BufferedMemory::new(mem);
        access(&mut view);
        SteppedCore {
            idx,
            core: Core::new(idx, 0, &coyote_iss::core::CoreConfig::default()),
            events: Vec::new(),
            buf: view.into_buffer(),
            misses: Vec::new(),
            error: None,
        }
    }

    #[test]
    fn conflict_detection_is_byte_granular() {
        let mem = SparseMemory::new();
        let mut map = StoreMap::new();
        // Disjoint dwords of one cache line: no conflict.
        let a = stepped_with(&mem, 0, |v| v.write_u64(0x100, 1));
        let b = stepped_with(&mem, 1, |v| v.write_u64(0x108, 2));
        assert!(!conflicting(&mut map, &[a, b]));
        // Cross-core write/read overlap (even one byte): conflict.
        let a = stepped_with(&mem, 0, |v| v.write_u64(0x100, 1));
        let b = stepped_with(&mem, 1, |v| {
            let _ = v.read_u8(0x107);
        });
        assert!(conflicting(&mut map, &[a, b]));
        // Cross-core write/write overlap: conflict.
        let a = stepped_with(&mem, 0, |v| v.write_u32(0x200, 1));
        let b = stepped_with(&mem, 1, |v| v.write_u32(0x202, 2));
        assert!(conflicting(&mut map, &[a, b]));
        // Read/read overlap: no conflict.
        let a = stepped_with(&mem, 0, |v| {
            let _ = v.read_u64(0x100);
        });
        let b = stepped_with(&mem, 1, |v| {
            let _ = v.read_u64(0x100);
        });
        assert!(!conflicting(&mut map, &[a, b]));
        // Same-core read-modify-write: no conflict with itself.
        let a = stepped_with(&mem, 0, |v| {
            let _ = v.read_u64(0x300);
            v.write_u64(0x300, 3);
        });
        assert!(!conflicting(&mut map, &[a]));
        // A store straddling the top of the address space reaches
        // address 0 (it used to be truncated at `u64::MAX`).
        let a = stepped_with(&mem, 0, |v| v.write_u64(u64::MAX - 3, 4));
        let b = stepped_with(&mem, 1, |v| {
            let _ = v.read_u8(1);
        });
        assert!(conflicting(&mut map, &[a, b]));
    }

    #[test]
    fn pool_round_trips_a_job() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 2);
        let mem = Arc::new(SparseMemory::new());
        let text = Arc::new(DecodedText::from_program(
            &coyote_asm::assemble("_start:\n    li a7, 93\n    ecall").expect("assembles"),
        ));
        for worker in 0..2 {
            pool.dispatch(
                worker,
                Job {
                    mem: Arc::clone(&mem),
                    text: Arc::clone(&text),
                    cycle: 1,
                    interleave: 1,
                    cores: Vec::new(),
                    shard: worker + 1,
                },
            );
        }
        let mut shards: Vec<usize> = (0..2).map(|_| pool.recv().shard).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![1, 2]);
        // Workers dropped their snapshot handles with the job.
        drop(pool);
        assert_eq!(Arc::strong_count(&mem), 1);
        assert_eq!(Arc::strong_count(&text), 1);
    }

    #[test]
    fn step_shard_buffers_stores_and_reports_misses() {
        let mut mem = SparseMemory::new();
        let program = coyote_asm::assemble(
            "_start:
                li t0, 0x10000
                li t1, 42
                sd t1, 0(t0)
                li a7, 93
                ecall",
        )
        .expect("assembles");
        mem.load_program(&program);
        let text = DecodedText::from_program(&program);
        let config = coyote_iss::core::CoreConfig::default();
        let core = Core::new(0, program.entry(), &config);
        let mut cores = vec![(0, core)];
        // Step until the core halts; each call is one "cycle".
        for cycle in 1..200 {
            let stepped = step_shard(&mem, &text, cycle, 1, cores);
            let s = stepped.into_iter().next().expect("one core");
            assert!(s.error.is_none());
            // Stores stay out of shared memory until commit.
            s.buf.commit(&mut mem);
            if s.core.state() == CoreState::Halted(0) {
                assert_eq!(mem.read_u64(0x10000), 42);
                return;
            }
            cores = vec![(0, s.core)];
            // Pretend every miss is serviced instantly.
            for miss in &s.misses {
                cores[0].1.complete_fill(miss.line_addr, miss.kind, cycle);
            }
        }
        panic!("program did not halt");
    }
}
