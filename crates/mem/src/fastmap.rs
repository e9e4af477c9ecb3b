//! A fast, deterministic hash map for `u64` keys.
//!
//! The hierarchy's per-request maps sit on the simulation hot path, and
//! `std`'s default SipHash both costs cycles and (being randomly
//! seeded) would perturb iteration order between runs. This
//! multiplicative hasher is cheap and fixed-seed, keeping the simulator
//! deterministic. Shared by the event pipeline and the telemetry layer.

#[expect(
    clippy::disallowed_types,
    reason = "a fixed hasher keeps iteration order the same in every process; only the default hasher is banned"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for line addresses and request ids.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, value: u64) {
        self.0 = value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// `HashMap<u64, V>` with the deterministic [`FastHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "a fixed hasher keeps iteration order the same in every process; only the default hasher is banned"
)]
pub type FastMap<V> = HashMap<u64, V, BuildHasherDefault<FastHasher>>;
