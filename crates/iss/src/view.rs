//! Buffered per-core memory view for the deterministic parallel
//! execute phase.
//!
//! During a parallel cycle every core steps against a read-only
//! snapshot of pre-cycle memory through a [`BufferedMemory`]: reads are
//! answered from the shared base patched with the core's own same-cycle
//! stores, stores land in a private [`StoreBuffer`] instead of the
//! shared memory, and both are logged. After the join the orchestrator
//! uses the logs to detect same-cycle cross-core overlaps (which force
//! a sequential re-execution of the cycle) and, when there are none,
//! commits each store buffer in core order — reproducing the sequential
//! schedule's memory image byte for byte.

use crate::mem::{AddrMap, MemoryIo, SparseMemory};

/// One logged store: up to 8 bytes at `addr`. Wider writes are split
/// into several records by [`BufferedMemory::write_bytes`].
#[derive(Debug, Clone, Copy)]
struct StoreRecord {
    addr: u64,
    len: u32,
    bytes: [u8; 8],
}

/// A core's private same-cycle memory activity: an ordered store log
/// (replayed verbatim at commit), a byte overlay answering the core's
/// own reads, and the read ranges needed for conflict detection.
#[derive(Debug, Default)]
pub struct StoreBuffer {
    overlay: AddrMap<u8>,
    log: Vec<StoreRecord>,
    reads: Vec<(u64, u32)>,
}

impl StoreBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> StoreBuffer {
        StoreBuffer::default()
    }

    /// Whether the core neither read nor wrote data memory this cycle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty() && self.reads.is_empty()
    }

    /// Byte ranges read this cycle, as `(start, len)` in access order.
    #[must_use]
    pub fn reads(&self) -> &[(u64, u32)] {
        &self.reads
    }

    /// Byte ranges written this cycle, as `(start, len)` in store
    /// order.
    pub fn writes(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.log.iter().map(|r| (r.addr, r.len))
    }

    /// Replays the store log into `mem` in program order. The ordered
    /// log (not the overlay) is the commit source, so the shared memory
    /// sees exactly the writes the sequential schedule would have
    /// performed, in the same order.
    pub fn commit(&self, mem: &mut SparseMemory) {
        for record in &self.log {
            mem.write_bytes(record.addr, &record.bytes[..record.len as usize]);
        }
    }
}

/// Read-only view of shared memory plus a core-private store buffer.
#[derive(Debug)]
pub struct BufferedMemory<'a> {
    base: &'a SparseMemory,
    buf: StoreBuffer,
}

impl<'a> BufferedMemory<'a> {
    /// A fresh view over pre-cycle memory.
    #[must_use]
    pub fn new(base: &'a SparseMemory) -> BufferedMemory<'a> {
        BufferedMemory {
            base,
            buf: StoreBuffer::new(),
        }
    }

    /// Consumes the view, returning the accumulated buffer.
    #[must_use]
    pub fn into_buffer(self) -> StoreBuffer {
        self.buf
    }
}

impl MemoryIo for BufferedMemory<'_> {
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.base.read_bytes(addr, buf);
        if !self.buf.overlay.is_empty() {
            for (i, byte) in buf.iter_mut().enumerate() {
                if let Some(own) = self.buf.overlay.get(&addr.wrapping_add(i as u64)) {
                    *byte = *own;
                }
            }
        }
        self.buf.reads.push((addr, buf.len() as u32));
    }

    fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (chunk_no, chunk) in bytes.chunks(8).enumerate() {
            let start = addr.wrapping_add((chunk_no * 8) as u64);
            let mut record = StoreRecord {
                addr: start,
                len: chunk.len() as u32,
                bytes: [0; 8],
            };
            record.bytes[..chunk.len()].copy_from_slice(chunk);
            self.buf.log.push(record);
            for (i, byte) in chunk.iter().enumerate() {
                self.buf.overlay.insert(start.wrapping_add(i as u64), *byte);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_base_until_overwritten() {
        let mut base = SparseMemory::new();
        base.write_u64(0x1000, 0xdead_beef_cafe_f00d);
        let mut view = BufferedMemory::new(&base);
        assert_eq!(view.read_u64(0x1000), 0xdead_beef_cafe_f00d);
        view.write_u32(0x1000, 0x1234_5678);
        assert_eq!(view.read_u32(0x1000), 0x1234_5678);
        assert_eq!(view.read_u64(0x1000), 0xdead_beef_1234_5678);
        // Base untouched until commit.
        assert_eq!(base.read_u64(0x1000), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn commit_replays_stores_in_order() {
        let base = SparseMemory::new();
        let mut view = BufferedMemory::new(&base);
        view.write_u64(0x2000, 1);
        view.write_u64(0x2000, 2); // later store wins
        view.write_u8(0x2007, 9);
        let buf = view.into_buffer();
        let mut mem = SparseMemory::new();
        buf.commit(&mut mem);
        assert_eq!(mem.read_u64(0x2000), (9u64 << 56) | 2);
    }

    #[test]
    fn wide_write_splits_into_records() {
        let base = SparseMemory::new();
        let mut view = BufferedMemory::new(&base);
        let data: Vec<u8> = (0..20u8).collect();
        view.write_bytes(0x3000, &data);
        let buf = view.into_buffer();
        assert_eq!(buf.writes().count(), 3); // 8 + 8 + 4
        let mut mem = SparseMemory::new();
        buf.commit(&mut mem);
        let mut out = [0u8; 20];
        mem.read_bytes(0x3000, &mut out);
        assert_eq!(&out[..], &data[..]);
    }

    #[test]
    fn logs_reads_and_writes() {
        let mut base = SparseMemory::new();
        base.write_u32(0x4000, 7);
        let mut view = BufferedMemory::new(&base);
        let _ = view.read_u32(0x4000);
        view.write_u16(0x4100, 3);
        let buf = view.into_buffer();
        assert_eq!(buf.reads(), &[(0x4000, 4)]);
        assert_eq!(buf.writes().collect::<Vec<_>>(), vec![(0x4100, 2)]);
        assert!(!buf.is_empty());
    }
}
