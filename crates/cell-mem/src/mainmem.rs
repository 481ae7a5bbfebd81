//! Simulated main (XDR) memory with an aligned allocator.
//!
//! The PPE side of a ported application allocates its data wrappers here
//! with [`MainMemory::alloc`] — the analog of the SDK's `malloc_align` that
//! paper Listing 4 uses (`free_align` appears there too). SPEs never touch
//! this type directly; their DMA engine (`cell-mfc`) calls
//! [`MainMemory::read`]/[`MainMemory::write`] on their behalf.
//!
//! The model is thread-safe: the PPE thread and all SPE threads hold the
//! same `Arc<MainMemory>`. An `std::sync` RwLock guards the byte arena;
//! DMA transfers from different SPEs serialize on writes, which is harmless
//! for a functional model (the EIB model supplies the timing effects of
//! contention).

use std::collections::BTreeMap;

use cell_core::{align_up, CellError, CellResult, QUADWORD};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Effective addresses start here so that address 0 stays invalid — a null
/// effective address in a mailbox is one of the classic porting bugs this
/// simulator is meant to surface.
pub const BASE_ADDR: u64 = 0x1_0000;

#[derive(Debug)]
struct Arena {
    data: Vec<u8>,
    /// Free blocks keyed by offset → length. Coalesced on free.
    free: BTreeMap<usize, usize>,
    /// Live allocations keyed by offset → length.
    live: BTreeMap<usize, usize>,
}

/// Simulated main memory: a byte arena plus an aligned first-fit allocator.
#[derive(Debug)]
pub struct MainMemory {
    inner: RwLock<Arena>,
    capacity: usize,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl MainMemory {
    /// Create a memory of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 4096,
            "main memory of {capacity} bytes is too small to simulate"
        );
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        MainMemory {
            inner: RwLock::new(Arena {
                data: vec![0u8; capacity],
                free,
                live: BTreeMap::new(),
            }),
            capacity,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total bytes copied out of the arena by [`MainMemory::read`] since
    /// construction. Telemetry cross-checks trace DMA totals against this.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes copied into the arena by [`MainMemory::write`].
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        self.inner.read().unwrap().live.values().sum()
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.inner.read().unwrap().live.len()
    }

    fn offset_of(&self, addr: u64, len: usize) -> CellResult<usize> {
        let off = addr
            .checked_sub(BASE_ADDR)
            .ok_or(CellError::MainMemoryOutOfBounds {
                addr,
                len,
                capacity: self.capacity,
            })? as usize;
        if off.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(CellError::MainMemoryOutOfBounds {
                addr,
                len,
                capacity: self.capacity,
            });
        }
        Ok(off)
    }

    /// Allocate `size` bytes aligned to `align` (a power of two, at least
    /// 16 — DMA-illegal allocations are refused at the source).
    pub fn alloc(&self, size: usize, align: usize) -> CellResult<u64> {
        if size == 0 {
            return Err(CellError::OutOfMemory {
                requested: 0,
                align,
            });
        }
        if !align.is_power_of_two() || align < QUADWORD {
            return Err(CellError::Misaligned {
                what: "allocation alignment",
                addr: align as u64,
                required: QUADWORD,
            });
        }
        let mut arena = self.inner.write().unwrap();
        // First fit over the free list: find a block that can carry an
        // aligned sub-range of `size` bytes.
        let mut found: Option<(usize, usize, usize)> = None; // (block_off, block_len, alloc_off)
        for (&off, &len) in &arena.free {
            let aligned = align_up(off, align);
            let pad = aligned - off;
            if len >= pad + size {
                found = Some((off, len, aligned));
                break;
            }
        }
        let Some((block_off, block_len, alloc_off)) = found else {
            return Err(CellError::OutOfMemory {
                requested: size,
                align,
            });
        };
        arena.free.remove(&block_off);
        // Leading pad stays free.
        if alloc_off > block_off {
            arena.free.insert(block_off, alloc_off - block_off);
        }
        // Trailing remainder stays free.
        let end = alloc_off + size;
        let block_end = block_off + block_len;
        if block_end > end {
            arena.free.insert(end, block_end - end);
        }
        arena.live.insert(alloc_off, size);
        Ok(BASE_ADDR + alloc_off as u64)
    }

    /// Allocate and zero-fill (fresh arenas are zeroed already, but a
    /// recycled block may carry stale bytes — real `calloc` semantics).
    pub fn alloc_zeroed(&self, size: usize, align: usize) -> CellResult<u64> {
        let addr = self.alloc(size, align)?;
        self.fill(addr, 0, size)?;
        Ok(addr)
    }

    /// Free a previous allocation. The whole allocation is freed; freeing
    /// an interior or unknown address is an error.
    pub fn free(&self, addr: u64) -> CellResult<()> {
        let off = self.offset_of(addr, 0)?;
        let mut arena = self.inner.write().unwrap();
        let Some(len) = arena.live.remove(&off) else {
            return Err(CellError::BadFree { addr });
        };
        // Insert into the free list and coalesce with neighbours.
        let mut start = off;
        let mut end = off + len;
        if let Some((&prev_off, &prev_len)) = arena.free.range(..off).next_back() {
            if prev_off + prev_len == start {
                arena.free.remove(&prev_off);
                start = prev_off;
            }
        }
        if let Some((&next_off, &next_len)) = arena.free.range(off..).next() {
            if next_off == end {
                arena.free.remove(&next_off);
                end = next_off + next_len;
            }
        }
        arena.free.insert(start, end - start);
        Ok(())
    }

    /// Read `out.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> CellResult<()> {
        let off = self.offset_of(addr, out.len())?;
        let arena = self.inner.read().unwrap();
        out.copy_from_slice(&arena.data[off..off + out.len()]);
        self.bytes_read
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Write `src` starting at `addr`.
    pub fn write(&self, addr: u64, src: &[u8]) -> CellResult<()> {
        let off = self.offset_of(addr, src.len())?;
        let mut arena = self.inner.write().unwrap();
        arena.data[off..off + src.len()].copy_from_slice(src);
        self.bytes_written
            .fetch_add(src.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Fill `len` bytes at `addr` with `byte`.
    pub fn fill(&self, addr: u64, byte: u8, len: usize) -> CellResult<()> {
        let off = self.offset_of(addr, len)?;
        let mut arena = self.inner.write().unwrap();
        arena.data[off..off + len].fill(byte);
        Ok(())
    }

    /// Read a little-endian `u32` (the mailbox word size).
    pub fn read_u32(&self, addr: u64) -> CellResult<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn write_u32(&self, addr: u64, v: u32) -> CellResult<()> {
        self.write(addr, &v.to_le_bytes())
    }

    pub fn read_u64(&self, addr: u64) -> CellResult<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn write_u64(&self, addr: u64, v: u64) -> CellResult<()> {
        self.write(addr, &v.to_le_bytes())
    }

    pub fn read_f32(&self, addr: u64) -> CellResult<f32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    pub fn write_f32(&self, addr: u64, v: f32) -> CellResult<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Copy `len` bytes within main memory (PPE-side memcpy).
    pub fn copy_within(&self, src: u64, dst: u64, len: usize) -> CellResult<()> {
        let s = self.offset_of(src, len)?;
        let d = self.offset_of(dst, len)?;
        let mut arena = self.inner.write().unwrap();
        arena.data.copy_within(s..s + len, d);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_aligned_nonnull() {
        let m = MainMemory::new(1 << 20);
        let a = m.alloc(100, 16).unwrap();
        assert!(a >= BASE_ADDR);
        assert_eq!(a % 16, 0);
        let b = m.alloc(100, 128).unwrap();
        assert_eq!(b % 128, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn alloc_rejects_sub_quadword_alignment() {
        let m = MainMemory::new(1 << 20);
        assert!(m.alloc(64, 8).is_err());
        assert!(m.alloc(64, 12).is_err());
        assert!(m.alloc(0, 16).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let m = MainMemory::new(1 << 20);
        let a = m.alloc(256, 16).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        m.write(a, &data).unwrap();
        let mut out = vec![0u8; 256];
        m.read(a, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn typed_accessors_roundtrip() {
        let m = MainMemory::new(1 << 20);
        let a = m.alloc(64, 16).unwrap();
        m.write_u32(a, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_u32(a).unwrap(), 0xDEAD_BEEF);
        m.write_u64(a + 8, u64::MAX - 5).unwrap();
        assert_eq!(m.read_u64(a + 8).unwrap(), u64::MAX - 5);
        m.write_f32(a + 16, 3.5).unwrap();
        assert_eq!(m.read_f32(a + 16).unwrap(), 3.5);
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let m = MainMemory::new(4096);
        let mut buf = [0u8; 16];
        assert!(matches!(
            m.read(BASE_ADDR + 4090, &mut buf),
            Err(CellError::MainMemoryOutOfBounds { .. })
        ));
        assert!(m.read(0, &mut buf).is_err(), "null-ish address must fail");
    }

    #[test]
    fn free_and_reuse() {
        let m = MainMemory::new(1 << 16);
        let a = m.alloc(1 << 14, 16).unwrap();
        let b = m.alloc(1 << 14, 16).unwrap();
        m.free(a).unwrap();
        m.free(b).unwrap();
        assert_eq!(m.live_allocations(), 0);
        // After coalescing, the full arena is available again.
        let c = m.alloc((1 << 16) - 16, 16).unwrap();
        assert!(c >= BASE_ADDR);
    }

    #[test]
    fn double_free_fails() {
        let m = MainMemory::new(1 << 16);
        let a = m.alloc(64, 16).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.free(a), Err(CellError::BadFree { addr: a }));
    }

    #[test]
    fn free_of_interior_address_fails() {
        let m = MainMemory::new(1 << 16);
        let a = m.alloc(64, 16).unwrap();
        assert!(matches!(m.free(a + 16), Err(CellError::BadFree { .. })));
        m.free(a).unwrap();
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let m = MainMemory::new(4096);
        assert!(matches!(
            m.alloc(1 << 20, 16),
            Err(CellError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn alloc_zeroed_clears_recycled_block() {
        let m = MainMemory::new(1 << 16);
        let a = m.alloc(128, 16).unwrap();
        m.fill(a, 0xAB, 128).unwrap();
        m.free(a).unwrap();
        let b = m.alloc_zeroed(128, 16).unwrap();
        let mut out = [0xFFu8; 128];
        m.read(b, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn copy_within_moves_bytes() {
        let m = MainMemory::new(1 << 16);
        let a = m.alloc(64, 16).unwrap();
        let b = m.alloc(64, 16).unwrap();
        m.write(a, b"hello, heterogeneous world!!...").unwrap();
        m.copy_within(a, b, 31).unwrap();
        let mut out = vec![0u8; 31];
        m.read(b, &mut out).unwrap();
        assert_eq!(&out, b"hello, heterogeneous world!!...");
    }

    #[test]
    fn allocated_bytes_tracks_live_set() {
        let m = MainMemory::new(1 << 16);
        let a = m.alloc(100, 16).unwrap();
        let _b = m.alloc(200, 16).unwrap();
        assert_eq!(m.allocated_bytes(), 300);
        m.free(a).unwrap();
        assert_eq!(m.allocated_bytes(), 200);
    }

    mod properties {
        use super::*;
        use cell_core::SplitMix64;

        /// Drive the allocator with a seeded random alloc/free trace and
        /// check the structural invariants after every step: live
        /// allocations never overlap, frees always coalesce back, and a
        /// full drain restores the arena to one maximal block.
        #[test]
        fn allocator_invariants_hold() {
            for case in 0..64u64 {
                let mut rng = SplitMix64::new(0x00A1_10C8 ^ case);
                let m = MainMemory::new(1 << 18);
                let mut live: Vec<(u64, usize)> = Vec::new();
                let steps = 1 + rng.next_below(60) as usize;
                for _ in 0..steps {
                    match rng.next_below(5) {
                        0..=2 => {
                            let size = 1 + rng.next_below(7999) as usize;
                            let align = 1usize << (4 + rng.next_below(6));
                            if let Ok(addr) = m.alloc(size, align) {
                                assert_eq!(addr % align as u64, 0, "misaligned grant");
                                // No overlap with any live allocation.
                                for &(a, s) in &live {
                                    let disjoint = addr + size as u64 <= a || a + s as u64 <= addr;
                                    assert!(disjoint, "{addr:#x}+{size} overlaps {a:#x}+{s}");
                                }
                                live.push((addr, size));
                            }
                        }
                        3 => {
                            if !live.is_empty() {
                                let (a, _) = live.remove(0);
                                assert!(m.free(a).is_ok());
                            }
                        }
                        _ => {
                            if let Some((a, _)) = live.pop() {
                                assert!(m.free(a).is_ok());
                            }
                        }
                    }
                    let total: usize = live.iter().map(|&(_, s)| s).sum();
                    assert_eq!(m.allocated_bytes(), total);
                    assert_eq!(m.live_allocations(), live.len());
                }
                // Drain: afterwards the full arena must be allocatable again.
                for (a, _) in live.drain(..) {
                    assert!(m.free(a).is_ok());
                }
                let everything = m.alloc((1 << 18) - 16, 16);
                assert!(everything.is_ok(), "arena did not coalesce: {everything:?}");
            }
        }

        #[test]
        fn writes_never_bleed_into_neighbours() {
            for case in 0..32u64 {
                let mut rng = SplitMix64::new(0xB1EED ^ case);
                let m = MainMemory::new(1 << 18);
                let n = 2 + rng.next_below(8) as usize;
                let blocks: Vec<(u64, usize)> = (0..n)
                    .map(|_| {
                        let s = 16 + rng.next_below(496) as usize;
                        (m.alloc(s, 16).unwrap(), s)
                    })
                    .collect();
                for (i, &(addr, size)) in blocks.iter().enumerate() {
                    m.fill(addr, i as u8 + 1, size).unwrap();
                }
                for (i, &(addr, size)) in blocks.iter().enumerate() {
                    let mut buf = vec![0u8; size];
                    m.read(addr, &mut buf).unwrap();
                    assert!(buf.iter().all(|&b| b == i as u8 + 1));
                }
            }
        }
    }

    #[test]
    fn concurrent_disjoint_writes() {
        use std::sync::Arc;
        let m = Arc::new(MainMemory::new(1 << 20));
        let addrs: Vec<u64> = (0..8).map(|_| m.alloc(4096, 128).unwrap()).collect();
        let mut handles = Vec::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let pattern = vec![i as u8; 4096];
                for _ in 0..50 {
                    m.write(addr, &pattern).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for (i, &addr) in addrs.iter().enumerate() {
            let mut out = vec![0u8; 4096];
            m.read(addr, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == i as u8));
        }
    }
}
