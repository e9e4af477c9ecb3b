//! Memory-controller model with HBM-style channels.
//!
//! Each controller owns several channels selected by address
//! interleaving. A channel serves one line per `cycles_per_line`
//! (bandwidth) and adds a fixed `access_latency` (device latency) — the
//! classic bandwidth/latency decomposition the paper's MC/HBM discussion
//! calls for. Queueing is implicit: a request arriving while the channel
//! is busy is served when the channel frees, so the completion time is
//! computable at arrival (no extra events needed).

/// Largest total channel count (`count * channels_per_mc`)
/// [`McConfig::validate`] accepts: 256x the default 2 x 8. Every channel
/// owns host state, so an unbounded count aborts on a failed allocation.
pub const MAX_CHANNELS: usize = 4096;

/// Memory-controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of controllers in the system.
    pub count: usize,
    /// Channels per controller (HBM pseudo-channels).
    pub channels_per_mc: usize,
    /// Fixed access latency in cycles (row access + transfer head),
    /// used when the row-buffer model is disabled.
    pub access_latency: u64,
    /// Cycles of channel occupancy per line transferred (1/bandwidth).
    pub cycles_per_line: u64,
    /// Row-buffer (open-page) model: DRAM row size in bytes, or 0 to
    /// disable and use the flat `access_latency`. Extending the MC
    /// model is the paper's named future work.
    pub row_bytes: u64,
    /// Latency when the access hits the channel's open row.
    pub row_hit_latency: u64,
    /// Latency when the row must be precharged and activated first.
    pub row_miss_latency: u64,
    /// Address-interleave granule across controllers and channels in
    /// bytes (0 = one cache line). Coarser granules keep DRAM rows on
    /// one channel (row locality) at the cost of burst parallelism.
    pub interleave_bytes: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            count: 2,
            channels_per_mc: 8,
            access_latency: 100,
            cycles_per_line: 4,
            row_bytes: 0,
            row_hit_latency: 60,
            row_miss_latency: 160,
            interleave_bytes: 0,
        }
    }
}

impl McConfig {
    /// The effective interleave granule (one line when unset).
    #[must_use]
    pub fn granule(&self, line_bytes: u64) -> u64 {
        if self.interleave_bytes == 0 {
            line_bytes
        } else {
            self.interleave_bytes
        }
    }

    /// Which controller owns `line_addr`.
    #[must_use]
    pub fn mc_for(&self, line_addr: u64, line_bytes: u64) -> usize {
        ((line_addr / self.granule(line_bytes)) % self.count as u64) as usize
    }

    /// Which channel of a controller serves `line_addr`.
    #[must_use]
    pub fn channel_for(&self, line_addr: u64, line_bytes: u64) -> usize {
        ((line_addr / self.granule(line_bytes)) as usize / self.count) % self.channels_per_mc
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.count == 0 || self.channels_per_mc == 0 {
            return Err("memory controller and channel counts must be positive".to_owned());
        }
        if self
            .count
            .checked_mul(self.channels_per_mc)
            .is_none_or(|channels| channels > MAX_CHANNELS)
        {
            return Err(format!(
                "{} controllers x {} channels_per_mc exceeds the supported maximum of \
                 {MAX_CHANNELS} memory channels",
                self.count, self.channels_per_mc
            ));
        }
        if self.cycles_per_line == 0 {
            return Err("cycles_per_line must be at least 1".to_owned());
        }
        if self.row_bytes != 0 && !self.row_bytes.is_power_of_two() {
            return Err(format!(
                "row size {} must be a power of two",
                self.row_bytes
            ));
        }
        if self.interleave_bytes != 0 && !self.interleave_bytes.is_power_of_two() {
            return Err(format!(
                "interleave granule {} must be a power of two",
                self.interleave_bytes
            ));
        }
        Ok(())
    }
}

/// Counters for one controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Read (fill) requests served.
    pub reads: u64,
    /// Write (writeback) requests served.
    pub writes: u64,
    /// Total cycles requests spent waiting for a busy channel.
    pub queue_cycles: u64,
    /// Total channel-busy cycles (for bandwidth-utilization reports).
    pub busy_cycles: u64,
    /// Accesses that hit the channel's open row (row-buffer model).
    pub row_hits: u64,
    /// Accesses that required precharge + activate.
    pub row_misses: u64,
}

impl McStats {
    /// All requests served.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.reads + self.writes
    }
}

/// One memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: McConfig,
    /// Cycle at which each channel becomes free.
    channel_free: Vec<u64>,
    /// Open DRAM row per channel (row-buffer model).
    open_row: Vec<Option<u64>>,
    stats: McStats,
}

impl MemoryController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (checked at hierarchy
    /// construction).
    #[must_use]
    pub fn new(config: McConfig) -> MemoryController {
        config.validate().expect("invalid MC config");
        MemoryController {
            config,
            channel_free: vec![0; config.channels_per_mc],
            open_row: vec![None; config.channels_per_mc],
            stats: McStats::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> McStats {
        self.stats
    }

    /// Serves a line request arriving at `now`; returns the cycle the
    /// data is available (for reads) or fully absorbed (for writes).
    ///
    /// With the row-buffer model enabled (`row_bytes > 0`), the device
    /// latency depends on whether the channel's open row matches
    /// (open-page policy); otherwise the flat `access_latency` applies.
    pub fn service(&mut self, now: u64, line_addr: u64, line_bytes: u64, write: bool) -> u64 {
        let channel = self.config.channel_for(line_addr, line_bytes);
        let start = now.max(self.channel_free[channel]);
        self.stats.queue_cycles += start - now;
        self.channel_free[channel] = start + self.config.cycles_per_line;
        self.stats.busy_cycles += self.config.cycles_per_line;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let device_latency = match line_addr.checked_div(self.config.row_bytes) {
            None => self.config.access_latency, // row model disabled
            Some(row) => {
                if self.open_row[channel] == Some(row) {
                    self.stats.row_hits += 1;
                    self.config.row_hit_latency
                } else {
                    self.open_row[channel] = Some(row);
                    self.stats.row_misses += 1;
                    self.config.row_miss_latency
                }
            }
        };
        start + self.config.cycles_per_line + device_latency
    }

    /// How many channels are still occupied at `now` (telemetry gauge).
    #[must_use]
    pub fn busy_channels(&self, now: u64) -> usize {
        self.channel_free.iter().filter(|&&free| free > now).count()
    }
}

/// Selects the memory controller owning a line with the default
/// line-granular interleave (see [`McConfig::mc_for`] for the
/// configurable form).
#[must_use]
pub fn mc_for_line(line_addr: u64, line_bytes: u64, count: usize) -> usize {
    ((line_addr / line_bytes) % count as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(McConfig {
            count: 1,
            channels_per_mc: 2,
            access_latency: 50,
            cycles_per_line: 10,
            ..McConfig::default()
        })
    }

    #[test]
    fn idle_channel_serves_at_fixed_latency() {
        let mut m = mc();
        assert_eq!(m.service(100, 0, 64, false), 160); // 100 + 10 + 50
        assert_eq!(m.stats().reads, 1);
        assert_eq!(m.stats().queue_cycles, 0);
    }

    #[test]
    fn busy_channel_queues() {
        let mut m = mc();
        // Two back-to-back requests to the same channel (same line idx
        // parity).
        let t1 = m.service(0, 0, 64, false);
        let t2 = m.service(0, 128, 64, false); // line 2 → channel 0 again
        assert_eq!(t1, 60);
        assert_eq!(t2, 70); // waited 10 cycles of occupancy
        assert_eq!(m.stats().queue_cycles, 10);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut m = mc();
        let t1 = m.service(0, 0, 64, false); // line 0 → channel 0
        let t2 = m.service(0, 64, 64, false); // line 1 → channel 1
        assert_eq!(t1, 60);
        assert_eq!(t2, 60);
        assert_eq!(m.stats().queue_cycles, 0);
    }

    #[test]
    fn writes_counted_separately() {
        let mut m = mc();
        m.service(0, 0, 64, true);
        assert_eq!(m.stats().writes, 1);
        assert_eq!(m.stats().reads, 0);
    }

    #[test]
    fn mc_interleaving_covers_all_controllers() {
        let hits: std::collections::BTreeSet<usize> =
            (0..16u64).map(|i| mc_for_line(i * 64, 64, 4)).collect();
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn row_buffer_hits_are_faster() {
        let mut m = MemoryController::new(McConfig {
            count: 1,
            channels_per_mc: 1,
            access_latency: 100,
            cycles_per_line: 2,
            row_bytes: 2048,
            row_hit_latency: 30,
            row_miss_latency: 150,
            interleave_bytes: 0,
        });
        // First access opens the row (miss), sequential neighbors hit.
        let t0 = m.service(0, 0, 64, false);
        assert_eq!(t0, 2 + 150);
        let t1 = m.service(200, 64, 64, false);
        assert_eq!(t1, 200 + 2 + 30);
        // Different row: conflict.
        let t2 = m.service(400, 4096, 64, false);
        assert_eq!(t2, 400 + 2 + 150);
        assert_eq!(m.stats().row_hits, 1);
        assert_eq!(m.stats().row_misses, 2);
    }

    #[test]
    fn flat_model_ignores_rows() {
        let mut m = mc();
        m.service(0, 0, 64, false);
        m.service(200, 64, 64, false);
        assert_eq!(m.stats().row_hits, 0);
        assert_eq!(m.stats().row_misses, 0);
    }

    #[test]
    fn coarse_interleave_preserves_row_locality() {
        let cfg = McConfig {
            count: 2,
            channels_per_mc: 4,
            interleave_bytes: 2048,
            ..McConfig::default()
        };
        // All lines of one 2 KiB row land on one (mc, channel).
        let mc0 = cfg.mc_for(0, 64);
        let ch0 = cfg.channel_for(0, 64);
        for line in (0..2048).step_by(64) {
            assert_eq!(cfg.mc_for(line, 64), mc0);
            assert_eq!(cfg.channel_for(line, 64), ch0);
        }
        // The next row moves on.
        assert!(cfg.mc_for(2048, 64) != mc0 || cfg.channel_for(2048, 64) != ch0);
    }

    #[test]
    fn row_bytes_must_be_power_of_two() {
        assert!(McConfig {
            row_bytes: 1000,
            ..McConfig::default()
        }
        .validate()
        .is_err());
        assert!(McConfig {
            row_bytes: 2048,
            ..McConfig::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn config_validation() {
        assert!(McConfig::default().validate().is_ok());
        assert!(McConfig {
            count: 0,
            ..McConfig::default()
        }
        .validate()
        .is_err());
        assert!(McConfig {
            cycles_per_line: 0,
            ..McConfig::default()
        }
        .validate()
        .is_err());
    }
}
