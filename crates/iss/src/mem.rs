//! Sparse physical memory.
//!
//! Backing store for the functional simulator: a page-granular sparse
//! array so that kernels can use a 4 GiB-style address space without the
//! host allocating it. Reads of never-written memory return zeroes,
//! matching the zero-initialized DRAM the paper's baremetal kernels
//! assume.

#[expect(
    clippy::disallowed_types,
    reason = "a fixed hasher keeps iteration order the same in every process; only the default hasher is banned"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use coyote_asm::Program;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Multiplicative hasher for page/line numbers: the simulator hashes
/// billions of `u64` keys on its hot path, where SipHash's DoS
/// resistance buys nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused on the hot path).
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

/// `HashMap` keyed by addresses/pages using [`AddrHasher`].
#[expect(
    clippy::disallowed_types,
    reason = "a fixed hasher keeps iteration order the same in every process; only the default hasher is banned"
)]
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// Cap on the dense page-table window span (pages). 1 << 16 pages is a
/// 256 MiB address span at 8 bytes of slot overhead per page — far more
/// than any paper kernel's footprint, small enough that the slot vector
/// stays cheap. Pages outside the window fall back to the hash map.
const MAX_DENSE_PAGES: u64 = 1 << 16;

/// Splits the `len` bytes at `addr` into per-page pieces: `(page
/// number, offset in that page, range of the caller's buffer)`.
/// Addresses wrap modulo 2^64 like the guest's own arithmetic
/// (`ld a1, -4(zero)` is legal).
fn page_segments(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let offset = (at as usize) & (PAGE_SIZE - 1);
            let n = (len - done).min(PAGE_SIZE - offset);
            let segment = (at >> PAGE_SHIFT, offset, done..done + n);
            done += n;
            segment
        })
    })
}

/// Sparse byte-addressable memory with 4 KiB page granularity.
///
/// All harts of a simulated system share one `SparseMemory` (the paper's
/// tiles are not coherence-modelled, but they are functionally shared).
///
/// Internally a hybrid page table: writes establish a *dense window* —
/// a contiguous slot vector starting at the lowest written page — so
/// the hot path (kernel text + data live within a few MiB of each
/// other) resolves a page with one subtraction and one bounds check
/// instead of a hash lookup. Pages further than `MAX_DENSE_PAGES`
/// from the window spill into a hash-map fallback, preserving the
/// 4 GiB-style sparse address space.
#[derive(Debug, Default, Clone)]
pub struct SparseMemory {
    /// First page number of the dense window (meaningless while
    /// `slots` is empty).
    base_page: u64,
    /// Dense slots covering pages `[base_page, base_page + len)`.
    slots: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Populated slots in `slots` (for `resident_pages`).
    dense_resident: usize,
    /// Pages outside the dense window.
    far: AddrMap<Box<[u8; PAGE_SIZE]>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Resolves a page for reading: dense window first, hash fallback
    /// second, `None` for never-written pages.
    #[inline]
    fn page(&self, page_no: u64) -> Option<&[u8; PAGE_SIZE]> {
        let idx = page_no.wrapping_sub(self.base_page);
        if (idx as usize) < self.slots.len() {
            return self.slots[idx as usize].as_deref();
        }
        self.far.get(&page_no).map(Box::as_ref)
    }

    /// Resolves a page for writing, allocating (and growing the dense
    /// window when the page is within `MAX_DENSE_PAGES` of it) on
    /// first touch.
    fn page_mut(&mut self, page_no: u64) -> &mut [u8; PAGE_SIZE] {
        let idx = page_no.wrapping_sub(self.base_page) as usize;
        if idx < self.slots.len() {
            let slot = &mut self.slots[idx];
            if slot.is_none() {
                *slot = Some(Box::new([0; PAGE_SIZE]));
                self.dense_resident += 1;
            }
            return slot.as_deref_mut().expect("just populated");
        }
        self.adopt(page_no)
    }

    /// Cold path of [`Self::page_mut`]: the page is outside the dense
    /// window. Establish or grow the window to cover it when the
    /// resulting span stays within `MAX_DENSE_PAGES` (migrating any
    /// far pages the grown window swallows, so they are not shadowed
    /// by fresh zero slots); otherwise fall back to the hash map.
    #[cold]
    fn adopt(&mut self, page_no: u64) -> &mut [u8; PAGE_SIZE] {
        let (new_base, new_end) = if self.slots.is_empty() {
            (page_no, page_no + 1)
        } else {
            (
                self.base_page.min(page_no),
                (self.base_page + self.slots.len() as u64).max(page_no + 1),
            )
        };
        if new_end - new_base <= MAX_DENSE_PAGES {
            if new_base < self.base_page && !self.slots.is_empty() {
                let grow = (self.base_page - new_base) as usize;
                self.slots
                    .splice(0..0, std::iter::repeat_with(|| None).take(grow));
            }
            self.base_page = new_base;
            self.slots
                .resize_with((new_end - new_base) as usize, || None);
            // Migrate far pages the window now covers.
            if !self.far.is_empty() {
                let swallowed: Vec<u64> = self
                    .far
                    .keys()
                    .filter(|p| (new_base..new_end).contains(p))
                    .copied()
                    .collect();
                for p in swallowed {
                    let page = self.far.remove(&p).expect("key just listed");
                    self.slots[(p - new_base) as usize] = Some(page);
                    self.dense_resident += 1;
                }
            }
            let slot = &mut self.slots[(page_no - new_base) as usize];
            if slot.is_none() {
                *slot = Some(Box::new([0; PAGE_SIZE]));
                self.dense_resident += 1;
            }
            return slot.as_deref_mut().expect("just populated");
        }
        self.far
            .entry(page_no)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Loads a program image (text + data sections).
    pub fn load_program(&mut self, program: &Program) {
        let mut addr = program.text_base();
        for word in program.text() {
            self.write_u32(addr, *word);
            addr += 4;
        }
        self.write_bytes(program.data_base(), program.data());
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self.page_mut(addr >> PAGE_SHIFT);
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        // Fast path: the whole range is inside one page.
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + buf.len() <= PAGE_SIZE {
            match self.page(addr >> PAGE_SHIFT) {
                Some(page) => buf.copy_from_slice(&page[offset..offset + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        // Page-straddling path: one page lookup per page segment.
        for (page_no, offset, range) in page_segments(addr, buf.len()) {
            let seg = &mut buf[range];
            match self.page(page_no) {
                Some(page) => seg.copy_from_slice(&page[offset..offset + seg.len()]),
                None => seg.fill(0),
            }
        }
    }

    /// Writes `bytes` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + bytes.len() <= PAGE_SIZE {
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page[offset..offset + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (page_no, offset, range) in page_segments(addr, bytes.len()) {
            let seg = &bytes[range];
            self.page_mut(page_no)[offset..offset + seg.len()].copy_from_slice(seg);
        }
    }

    /// Reads `N` bytes at `addr`: a fixed-width copy when they share a
    /// page, whether or not the caller inlines [`Self::read_bytes`].
    #[inline]
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut bytes = [0; N];
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + N > PAGE_SIZE {
            self.read_bytes(addr, &mut bytes);
        } else if let Some(page) = self.page(addr >> PAGE_SHIFT) {
            bytes.copy_from_slice(&page[offset..offset + N]);
        }
        bytes
    }

    /// Writes `N` bytes at `addr`; the write-side twin of
    /// [`Self::read_array`].
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + N > PAGE_SIZE {
            self.write_bytes(addr, &bytes);
        } else {
            self.page_mut(addr >> PAGE_SHIFT)[offset..offset + N].copy_from_slice(&bytes);
        }
    }

    /// Reads a little-endian `u16`.
    #[must_use]
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u64, value: u16) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_array(addr, value.to_le_bytes());
    }

    /// Reads an `f64` (IEEE-754 bits).
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of populated pages (for memory-footprint diagnostics).
    /// Empty dense-window slots do not count: only pages that were
    /// actually written.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.dense_resident + self.far.len()
    }

    /// Order-insensitive digest of the full memory image.
    ///
    /// Two memories with identical contents produce identical digests
    /// regardless of page-map iteration order: each page contributes a
    /// per-page hash (seeded by its page number) and the contributions
    /// are combined with a commutative wrapping sum, so runs under
    /// different schedule perturbations can compare final state.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fn mix(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        fn page_hash(page_no: u64, page: &[u8; PAGE_SIZE]) -> u64 {
            let mut h = mix(page_no ^ 0x636f_796f_7465_6d65);
            for chunk in page.chunks_exact(8) {
                let mut b = [0u8; 8];
                b.copy_from_slice(chunk);
                h = mix(h ^ u64::from_le_bytes(b));
            }
            mix(h)
        }
        let mut acc = 0u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(page) = slot {
                acc = acc.wrapping_add(page_hash(self.base_page + i as u64, page));
            }
        }
        // The wrapping sum is commutative, so the map's iteration order
        // cannot leak into the digest.
        for (page_no, page) in &self.far {
            acc = acc.wrapping_add(page_hash(*page_no, page));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_u64(0xdead_beef), 0);
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn read_back_written_values() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1000, 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u64(0x1000), 0x0123_4567_89ab_cdef);
        assert_eq!(mem.read_u32(0x1000), 0x89ab_cdef);
        assert_eq!(mem.read_u16(0x1006), 0x0123);
        assert_eq!(mem.read_u8(0x1007), 0x01);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x1ffc, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(0x1ffc), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
        let mut buf = [0u8; 16];
        mem.read_bytes(0x1ff8, &mut buf);
        assert_eq!(&buf[4..12], &0x1122_3344_5566_7788u64.to_le_bytes());
    }

    /// Page-segment copies against a byte-at-a-time reference over
    /// random ranges, some crossing several pages and some straddling
    /// `u64::MAX`: same bytes, same pages allocated, same digest, and a
    /// read never allocates.
    #[test]
    fn segment_copies_match_a_bytewise_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let page = PAGE_SIZE as u64;
        let mut mem = SparseMemory::new();
        let mut reference = SparseMemory::new();
        for round in 0..300 {
            let anchor = match round % 4 {
                0 => u64::MAX - next() % (3 * page),
                1 => 0x8100_0000 + next() % (16 * page),
                2 => ((next() % 64) * page).wrapping_sub(next() % 8),
                _ => next(),
            };
            let len = 1 + (next() % (3 * page + 5)) as usize;
            if round % 3 == 2 {
                let mut got = vec![0xa5; len];
                let pages = mem.resident_pages();
                mem.read_bytes(anchor, &mut got);
                assert_eq!(mem.resident_pages(), pages, "a read allocated");
                let want: Vec<u8> = (0..len as u64)
                    .map(|i| reference.read_u8(anchor.wrapping_add(i)))
                    .collect();
                assert_eq!(got, want, "read {len} bytes at {anchor:#x}");
            } else {
                let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                mem.write_bytes(anchor, &bytes);
                for (i, byte) in bytes.iter().enumerate() {
                    reference.write_u8(anchor.wrapping_add(i as u64), *byte);
                }
            }
            assert_eq!(mem.resident_pages(), reference.resident_pages());
        }
        assert!(mem.resident_pages() > 100);
        assert_eq!(mem.digest(), reference.digest());
    }

    #[test]
    fn far_pages_fall_back_to_the_hash_map() {
        let mut mem = SparseMemory::new();
        // Establish the dense window low, then write far beyond its
        // maximum span: the far page must stay readable and must not
        // be shadowed when the window later grows.
        mem.write_u64(0x1000, 1);
        let far = 0x1000 + (MAX_DENSE_PAGES + 7) * PAGE_SIZE as u64;
        mem.write_u64(far, 2);
        assert_eq!(mem.read_u64(0x1000), 1);
        assert_eq!(mem.read_u64(far), 2);
        assert_eq!(mem.resident_pages(), 2);
        // Growing the dense window (both directions) keeps everything.
        mem.write_u64(0x0, 3);
        mem.write_u64(0x9000, 4);
        assert_eq!(mem.read_u64(0x1000), 1);
        assert_eq!(mem.read_u64(far), 2);
        assert_eq!(mem.read_u64(0x0), 3);
        assert_eq!(mem.read_u64(0x9000), 4);
        assert_eq!(mem.resident_pages(), 4);
    }

    #[test]
    fn digest_is_layout_independent() {
        // Same contents written in different orders (dense window
        // established at different base pages) digest identically.
        let mut a = SparseMemory::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x8000_0000, 9);
        let mut b = SparseMemory::new();
        b.write_u64(0x8000_0000, 9);
        b.write_u64(0x1000, 7);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), SparseMemory::new().digest());
    }

    #[test]
    fn f64_round_trip() {
        let mut mem = SparseMemory::new();
        mem.write_f64(0x2000, -1.5e300);
        assert_eq!(mem.read_f64(0x2000), -1.5e300);
        // NaN bit patterns preserved exactly.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        mem.write_f64(0x2008, nan);
        assert_eq!(mem.read_f64(0x2008).to_bits(), nan.to_bits());
    }

    #[test]
    fn load_program_places_sections() {
        let program = coyote_asm::assemble(
            ".data
             v: .dword 42
             .text
             _start: ecall",
        )
        .unwrap();
        let mut mem = SparseMemory::new();
        mem.load_program(&program);
        assert_eq!(mem.read_u32(program.text_base()), 0x0000_0073);
        assert_eq!(mem.read_u64(program.symbol("v").unwrap()), 42);
    }
}
