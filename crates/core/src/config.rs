//! Simulation configuration.
//!
//! Gathers every knob the paper names: core count and tiling, L1 and L2
//! geometry, L2 sharing, data-mapping policy, NoC latencies, memory
//! controllers, VLEN — plus the Spike-interleaving ablation control.

use coyote_iss::{CacheConfig, CoreConfig};
use coyote_mem::hierarchy::{HierarchyConfig, L2Sharing};
use coyote_mem::l2::L2Config;
use coyote_mem::mapping::MappingPolicy;
use coyote_mem::mc::McConfig;
use coyote_mem::noc::NocModel;
use std::fmt;

/// Largest core count [`SimConfig::validate`] accepts: 32× the paper's
/// largest machine (128 cores). Every core owns its L1 models and
/// vector register file, so an unbounded count turns a typo into a
/// multi-gigabyte allocation that aborts the process instead of
/// returning a [`ConfigError`].
pub const MAX_CORES: usize = 4096;

/// Largest L2 next-line prefetch degree [`SimConfig::validate`]
/// accepts: 64 sequential 64-byte lines is a whole 4 KiB page per
/// demand miss, 16× the largest degree the `prefetch` experiment
/// sweeps. Every demand L2 miss loops over the degree, so an unbounded
/// one turns a typo into a run that never finishes.
pub const MAX_PREFETCH_DEGREE: usize = 64;

/// Largest interleave factor [`SimConfig::validate`] accepts: 65,536
/// instructions per core per cycle — Spike's default batch is 5,000
/// and the `interleave` experiment sweeps to 64. The batch runs inside
/// one simulated cycle, so on a kernel that never stalls an unbounded
/// factor spins there forever, out of `max_cycles`' sight.
pub const MAX_INTERLEAVE: usize = 1 << 16;

/// Largest total number of cache lines (every L1 and every L2 bank)
/// [`SimConfig::validate`] accepts: 2^24, 1 GiB of 64-byte lines. The
/// default per-core and per-bank geometry at [`MAX_CORES`] needs 11.5 Mi.
/// Every line has a tag-array entry on the host, so an unbounded cache
/// size aborts the process on a failed allocation instead of returning
/// a [`ConfigError`].
pub const MAX_CACHE_LINES: u64 = 1 << 24;

/// Largest vector register length [`SimConfig::validate`] accepts: the
/// RVV 1.0 architectural maximum of 65,536 bits.
pub const MAX_VLEN_BITS: u64 = 1 << 16;

/// Complete configuration of a Coyote simulation.
///
/// Build with [`SimConfig::builder`]; `SimConfig::default()` models a
/// single 8-core tile resembling one ACME VAS tile.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Total simulated cores (at most [`MAX_CORES`]).
    pub cores: usize,
    /// Cores per tile (the paper's VAS tile holds 8).
    pub cores_per_tile: usize,
    /// L2 banks per tile.
    pub banks_per_tile: usize,
    /// Per-core configuration (L1s + VLEN).
    pub core: CoreConfig,
    /// Per-bank L2 configuration.
    pub l2: L2Config,
    /// Shared vs. tile-private L2.
    pub sharing: L2Sharing,
    /// Bank-mapping policy.
    pub mapping: MappingPolicy,
    /// NoC model.
    pub noc: NocModel,
    /// Memory controllers.
    pub mc: McConfig,
    /// L2 next-line prefetch degree (0 disables, the paper's baseline;
    /// at most [`MAX_PREFETCH_DEGREE`]).
    pub prefetch_degree: usize,
    /// Instructions each active core executes per simulated cycle (at
    /// least 1, at most [`MAX_INTERLEAVE`]).
    ///
    /// Coyote runs with 1 (interleaving disabled, the paper's timing
    /// model); larger values reproduce Spike's back-to-back
    /// interleaving as an ablation of the Figure 3 bottleneck
    /// discussion.
    pub interleave: usize,
    /// Cycle budget before [`crate::RunError::CycleLimit`].
    pub max_cycles: u64,
    /// Whether to collect the Paraver L1-miss trace.
    pub trace: bool,
    /// Whether to run the differential co-simulation oracle: a pure
    /// functional reference machine replays every retirement and the
    /// run aborts with [`crate::RunError::OracleDivergence`] on
    /// the first architectural mismatch.
    pub oracle: bool,
    /// Whether to collect telemetry: request-lifecycle latency
    /// histograms in the hierarchy plus the epoch-sampled time series
    /// (see [`crate::metrics`]). Off by default — the disabled path
    /// costs one branch per hierarchy event.
    pub telemetry: bool,
    /// Telemetry sampling epoch in cycles (must be at least 1). Each
    /// epoch contributes one row to the exported time-series CSV.
    pub metrics_interval: u64,
    /// Whether to additionally retain per-request lifecycles and
    /// core-state intervals for Chrome trace-event export (implies
    /// `telemetry`; bounded memory, see
    /// [`coyote_mem::telemetry::SLICE_CAP`]).
    pub chrome_trace: bool,
    /// Schedule-perturbation seed. 0 (the default) is the canonical
    /// schedule; any other value permutes the pop order of same-cycle
    /// events from *different* arbitration domains in the hierarchy
    /// event queue — a legal reordering that must not change any
    /// architectural result or statistic.
    pub perturb_seed: u64,
    /// How many critical PCs the stall-attribution top-K table keeps
    /// (must be at least 1). Attribution itself is always on — it costs
    /// a few counters per core — and the table is O(K) regardless of
    /// run length.
    pub attribution_top_k: usize,
    /// Host-side self-profiling mode (see `coyote-inspect prof`). A
    /// host-execution knob like [`CoreConfig::fusion`]: it never appears
    /// in the determinism digest or in `config_json`, and turning it on must
    /// not change any simulated result — the only observable addition
    /// is the `host_profile` metrics section (property-tested).
    pub profiling: ProfMode,
}

/// How the host-side self-profiler observes the orchestrator.
///
/// A host-execution knob like [`CoreConfig::fusion`]: excluded from the
/// determinism digest and from `config_json`, and forbidden from
/// feeding back into simulated state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfMode {
    /// No profiling (the default): the hot path pays one predictable
    /// branch per phase site and records nothing.
    #[default]
    Off,
    /// Wall-clock phase timing plus deterministic counters. Timings
    /// come from the workspace's single pinned wall-clock site
    /// (`coyote_telemetry::hostprof`); everything else in the profile
    /// is a pure function of the simulated schedule.
    Wall,
    /// Wall-clock-free mode: phase *entry counts* instead of
    /// durations. The whole profile is then byte-stable across hosts
    /// and legal schedule perturbations (pinned by
    /// `tests/equivalence.rs`).
    Counter,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 8,
            cores_per_tile: 8,
            banks_per_tile: 4,
            core: CoreConfig::default(),
            l2: L2Config::default(),
            sharing: L2Sharing::Shared,
            mapping: MappingPolicy::SetInterleave,
            noc: NocModel::default(),
            mc: McConfig::default(),
            prefetch_degree: 0,
            interleave: 1,
            max_cycles: 2_000_000_000,
            trace: false,
            oracle: false,
            telemetry: false,
            metrics_interval: 10_000,
            chrome_trace: false,
            perturb_seed: 0,
            attribution_top_k: 32,
            profiling: ProfMode::Off,
        }
    }
}

impl SimConfig {
    /// Starts a builder from the defaults.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
            removed: None,
        }
    }

    /// Number of tiles implied by `cores` and `cores_per_tile`.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.cores.div_ceil(self.cores_per_tile)
    }

    /// The tile hosting a core.
    #[must_use]
    pub fn tile_of_core(&self, core: usize) -> usize {
        core / self.cores_per_tile
    }

    /// Derives the hierarchy configuration.
    #[must_use]
    pub fn hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig {
            tiles: self.tiles(),
            banks_per_tile: self.banks_per_tile,
            l2: self.l2,
            sharing: self.sharing,
            mapping: self.mapping,
            noc: self.noc,
            mc: self.mc,
            prefetch_degree: self.prefetch_degree,
            perturb_seed: self.perturb_seed,
        }
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("core count must be positive"));
        }
        if self.cores > MAX_CORES {
            return Err(ConfigError::new(format!(
                "core count {} exceeds the supported maximum of {MAX_CORES}",
                self.cores
            )));
        }
        if self.cores_per_tile == 0 {
            return Err(ConfigError::new("cores_per_tile must be positive"));
        }
        if self.prefetch_degree > MAX_PREFETCH_DEGREE {
            return Err(ConfigError::new(format!(
                "prefetch degree {} exceeds the supported maximum of {MAX_PREFETCH_DEGREE}",
                self.prefetch_degree
            )));
        }
        if self.interleave == 0 {
            return Err(ConfigError::new("interleave must be at least 1"));
        }
        if self.interleave > MAX_INTERLEAVE {
            return Err(ConfigError::new(format!(
                "interleave {} exceeds the supported maximum of {MAX_INTERLEAVE}",
                self.interleave
            )));
        }
        if self.metrics_interval == 0 {
            return Err(ConfigError::new("metrics_interval must be at least 1"));
        }
        if self.attribution_top_k == 0 {
            return Err(ConfigError::new("attribution_top_k must be at least 1"));
        }
        self.core
            .l1i
            .validate()
            .map_err(|m| ConfigError::new(format!("l1i: {m}")))?;
        self.core
            .l1d
            .validate()
            .map_err(|m| ConfigError::new(format!("l1d: {m}")))?;
        if self.core.l1d.line_bytes != self.l2.line_bytes
            || self.core.l1i.line_bytes != self.l2.line_bytes
        {
            return Err(ConfigError::new(
                "L1 and L2 line sizes must match (line-granular hierarchy requests)",
            ));
        }
        let vlen = self.core.vlen_bits;
        if !(64..=MAX_VLEN_BITS).contains(&vlen) || !vlen.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "vlen_bits {vlen} must be a power of two between 64 and {MAX_VLEN_BITS}"
            )));
        }
        let hierarchy = self.hierarchy();
        hierarchy.validate().map_err(ConfigError::new)?;
        // u128: 4096 cores and 16,384 banks of `u64` sizes cannot wrap it.
        let line = u128::from(self.l2.line_bytes);
        let lines = self.cores as u128
            * (u128::from(self.core.l1i.size_bytes) + u128::from(self.core.l1d.size_bytes))
            / line
            + hierarchy.total_banks() as u128 * u128::from(self.l2.bank_size_bytes) / line;
        if lines > u128::from(MAX_CACHE_LINES) {
            return Err(ConfigError::new(format!(
                "the L1s and L2 banks hold {lines} cache lines in total, more than the \
                 supported maximum of {MAX_CACHE_LINES}"
            )));
        }
        Ok(())
    }
}

/// Error describing an invalid [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> ConfigError {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid simulation config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`SimConfig`].
///
/// # Examples
///
/// ```
/// use coyote::config::SimConfig;
/// use coyote_mem::hierarchy::L2Sharing;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SimConfig::builder()
///     .cores(16)
///     .cores_per_tile(8)
///     .sharing(L2Sharing::Private)
///     .build()?;
/// assert_eq!(config.tiles(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
    /// Set by a benchmark-compat shim (below) asked for a removed
    /// feature; makes [`SimConfigBuilder::build`] fail.
    removed: Option<&'static str>,
}

impl SimConfigBuilder {
    /// Sets the total core count.
    #[must_use]
    pub fn cores(mut self, cores: usize) -> Self {
        self.config.cores = cores;
        self
    }

    /// Sets the cores per tile.
    #[must_use]
    pub fn cores_per_tile(mut self, n: usize) -> Self {
        self.config.cores_per_tile = n;
        self
    }

    /// Sets the L2 banks per tile.
    #[must_use]
    pub fn banks_per_tile(mut self, n: usize) -> Self {
        self.config.banks_per_tile = n;
        self
    }

    /// Sets the per-core configuration, its `fusion` knob included.
    #[must_use]
    pub fn core(mut self, core: CoreConfig) -> Self {
        self.config.core = core;
        self
    }

    /// Sets the L1D geometry.
    #[must_use]
    pub fn l1d(mut self, l1d: CacheConfig) -> Self {
        self.config.core.l1d = l1d;
        self
    }

    /// Sets the L1I geometry.
    #[must_use]
    pub fn l1i(mut self, l1i: CacheConfig) -> Self {
        self.config.core.l1i = l1i;
        self
    }

    /// Sets the per-bank L2 configuration.
    #[must_use]
    pub fn l2(mut self, l2: L2Config) -> Self {
        self.config.l2 = l2;
        self
    }

    /// Sets L2 sharing.
    #[must_use]
    pub fn sharing(mut self, sharing: L2Sharing) -> Self {
        self.config.sharing = sharing;
        self
    }

    /// Sets the mapping policy.
    #[must_use]
    pub fn mapping(mut self, mapping: MappingPolicy) -> Self {
        self.config.mapping = mapping;
        self
    }

    /// Sets the NoC model.
    #[must_use]
    pub fn noc(mut self, noc: NocModel) -> Self {
        self.config.noc = noc;
        self
    }

    /// Sets the memory-controller configuration.
    #[must_use]
    pub fn mc(mut self, mc: McConfig) -> Self {
        self.config.mc = mc;
        self
    }

    /// Sets the L2 next-line prefetch degree (0 disables).
    #[must_use]
    pub fn prefetch_degree(mut self, degree: usize) -> Self {
        self.config.prefetch_degree = degree;
        self
    }

    /// Sets the interleaving factor (1 = Coyote's timing model).
    #[must_use]
    pub fn interleave(mut self, interleave: usize) -> Self {
        self.config.interleave = interleave;
        self
    }

    /// Sets the cycle budget.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.config.max_cycles = max_cycles;
        self
    }

    /// Enables or disables trace collection.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.config.trace = trace;
        self
    }

    /// Enables or disables the differential co-simulation oracle.
    #[must_use]
    pub fn oracle(mut self, oracle: bool) -> Self {
        self.config.oracle = oracle;
        self
    }

    /// Enables or disables telemetry (lifecycle histograms + epoch
    /// time series).
    #[must_use]
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Sets the telemetry sampling epoch in cycles.
    #[must_use]
    pub fn metrics_interval(mut self, interval: u64) -> Self {
        self.config.metrics_interval = interval;
        self
    }

    /// Enables or disables Chrome-trace lifecycle capture (implies
    /// telemetry).
    #[must_use]
    pub fn chrome_trace(mut self, chrome_trace: bool) -> Self {
        self.config.chrome_trace = chrome_trace;
        if chrome_trace {
            self.config.telemetry = true;
        }
        self
    }

    /// Sets the schedule-perturbation seed (0 = canonical order).
    #[must_use]
    pub fn perturb_seed(mut self, seed: u64) -> Self {
        self.config.perturb_seed = seed;
        self
    }

    /// Sets the critical-PC top-K table size for stall attribution.
    #[must_use]
    pub fn attribution_top_k(mut self, k: usize) -> Self {
        self.config.attribution_top_k = k;
        self
    }

    /// Enables or disables the superblock fusion fast path
    /// ([`CoreConfig::fusion`]: on by default; disabling forces the
    /// per-instruction reference path).
    #[must_use]
    pub fn fusion(mut self, fusion: bool) -> Self {
        self.config.core.fusion = fusion;
        self
    }

    /// Sets the host-side self-profiling mode (off by default).
    #[must_use]
    pub fn profiling(mut self, mode: ProfMode) -> Self {
        self.config.profiling = mode;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        if let Some(what) = self.removed {
            return Err(ConfigError::new(what));
        }
        self.config.validate()?;
        Ok(self.config)
    }
}

// benchmark-compat: delete with the next [benchmark] PR
//
// `benchmark/` (frozen between [benchmark] PRs) still spells out the
// two retired host knobs at their only remaining value and reads the
// retired fallback counter. These are not options: anything but the
// retired default is a build error, and the counter is constant.
impl SimConfigBuilder {
    #[doc(hidden)]
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        if jobs != 1 {
            self.removed =
                Some("jobs: the parallel execute phase was removed (only 1 is accepted)");
        }
        self
    }

    #[doc(hidden)]
    #[must_use]
    pub fn certify(mut self, certify: bool) -> Self {
        if certify {
            self.removed = Some("certify: the runtime disjointness certificate was removed");
        }
        self
    }
}

impl crate::sim::Simulation {
    #[doc(hidden)]
    #[must_use]
    pub fn conflict_fallbacks(&self) -> u64 {
        0
    }
}

#[test]
fn benchmark_compat_shims_accept_only_the_retired_defaults() {
    let config = SimConfig::builder().jobs(1).certify(false).build().unwrap();
    let err = SimConfig::builder().jobs(2).build().unwrap_err();
    assert!(err.to_string().contains("jobs"), "{err}");
    let err = SimConfig::builder().certify(true).build().unwrap_err();
    assert!(err.to_string().contains("certify"), "{err}");
    let program = coyote_asm::assemble("_start:\n li a7, 93\n ecall").unwrap();
    let sim = crate::sim::Simulation::new(config, &program).unwrap();
    assert_eq!(sim.conflict_fallbacks(), 0);
}
// end benchmark-compat

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SimConfig::default().validate().is_ok());
    }

    #[test]
    fn tiles_round_up() {
        let c = SimConfig::builder()
            .cores(12)
            .cores_per_tile(8)
            .build()
            .unwrap();
        assert_eq!(c.tiles(), 2);
        assert_eq!(c.tile_of_core(0), 0);
        assert_eq!(c.tile_of_core(7), 0);
        assert_eq!(c.tile_of_core(8), 1);
    }

    #[test]
    fn out_of_range_core_counts_rejected() {
        for cores in [0, MAX_CORES + 1, 100_000_000] {
            assert!(SimConfig::builder().cores(cores).build().is_err());
        }
        assert!(SimConfig::builder().cores(MAX_CORES).build().is_ok());
    }

    #[test]
    fn undersized_mesh_and_unbounded_prefetch_rejected() {
        let mesh = |width, height| NocModel::Mesh {
            width,
            height,
            hop_latency: 1,
            base_latency: 2,
        };
        // 16 cores = 2 tiles.
        let two_tiles = || SimConfig::builder().cores(16);
        for (width, height) in [(1, 1), (0, 0), (1 << 32, 1 << 32)] {
            let err = two_tiles().noc(mesh(width, height)).build().unwrap_err();
            assert!(err.to_string().contains("mesh"), "{err}");
        }
        assert!(two_tiles().noc(mesh(2, 1)).build().is_ok());
        let err = SimConfig::builder()
            .prefetch_degree(99_999_999)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("prefetch degree"), "{err}");
        assert!(SimConfig::builder()
            .prefetch_degree(MAX_PREFETCH_DEGREE)
            .build()
            .is_ok());
    }

    #[test]
    fn mismatched_line_sizes_rejected() {
        let l2 = L2Config {
            line_bytes: 128,
            ..L2Config::default()
        };
        let err = SimConfig::builder().l2(l2).build().unwrap_err();
        assert!(err.to_string().contains("line sizes"));
    }

    #[test]
    fn zero_and_unbounded_interleave_rejected() {
        assert!(SimConfig::builder().interleave(0).build().is_err());
        let err = SimConfig::builder()
            .interleave(usize::MAX)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("interleave"), "{err}");
        assert!(SimConfig::builder()
            .interleave(MAX_INTERLEAVE)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_metrics_interval_rejected() {
        let err = SimConfig::builder()
            .metrics_interval(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("metrics_interval"));
    }

    #[test]
    fn zero_attribution_top_k_rejected() {
        let err = SimConfig::builder()
            .attribution_top_k(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("attribution_top_k"));
    }

    #[test]
    fn hierarchy_reflects_topology() {
        let c = SimConfig::builder()
            .cores(32)
            .cores_per_tile(8)
            .banks_per_tile(2)
            .build()
            .unwrap();
        let h = c.hierarchy();
        assert_eq!(h.tiles, 4);
        assert_eq!(h.total_banks(), 8);
    }
}
