//! The SPE Local Store: 256 KB for code *and* data, managed by the user.
//!
//! Paper §2: "An SPE contains … a 256KB Local Storage (LS), used as local
//! memory for both code and data and managed entirely by the
//! application/user." §3.2 adds the sizing constraint that drives kernel
//! identification: kernels must be small enough to fit, large enough to be
//! worth a DMA round-trip.
//!
//! The model reserves a code region at the bottom (configurable; real SPE
//! kernels of the paper's kind are tens of KB) and provides a bump
//! allocator for the data region, since real LS layouts are static per
//! kernel. A `reset` rewinds the allocator between kernel invocations that
//! reuse the LS.

use cell_core::{align_up, CellError, CellResult, QUADWORD};

/// A local-store address (the SPU uses 32-bit LS addresses).
pub type LsAddr = u32;

/// One SPE's local store.
#[derive(Debug)]
pub struct LocalStore {
    data: Vec<u8>,
    code_reserved: usize,
    /// Bump pointer for data allocations.
    next: usize,
    /// High-water mark — lets tests assert a kernel's true LS footprint.
    high_water: usize,
}

impl LocalStore {
    /// Create a local store of `size` bytes with the bottom
    /// `code_reserved` bytes modeled as occupied by kernel code.
    pub fn new(size: usize, code_reserved: usize) -> Self {
        assert!(size.is_power_of_two(), "LS size must be a power of two");
        assert!(code_reserved < size, "code reserve must leave data room");
        let next = align_up(code_reserved, QUADWORD);
        LocalStore {
            data: vec![0u8; size],
            code_reserved,
            next,
            high_water: next,
        }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    pub fn code_reserved(&self) -> usize {
        self.code_reserved
    }

    /// Bytes still available to `alloc`.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.next
    }

    /// Largest data footprint the kernel has used so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Allocate `size` bytes aligned to `align` in the data region.
    ///
    /// Fails with [`CellError::LocalStoreOverflow`] when the kernel's
    /// buffers no longer fit — exactly the situation that forces the
    /// sliced-DMA design of paper §3.4.
    pub fn alloc(&mut self, size: usize, align: usize) -> CellResult<LsAddr> {
        if !align.is_power_of_two() || align < QUADWORD {
            return Err(CellError::Misaligned {
                what: "LS allocation alignment",
                addr: align as u64,
                required: QUADWORD,
            });
        }
        if size == 0 {
            return Err(CellError::LocalStoreOverflow {
                offset: self.next as u32,
                len: 0,
                capacity: self.data.len(),
            });
        }
        let start = align_up(self.next, align);
        let end = start
            .checked_add(size)
            .ok_or(CellError::LocalStoreOverflow {
                offset: start as u32,
                len: size,
                capacity: self.data.len(),
            })?;
        if end > self.data.len() {
            return Err(CellError::LocalStoreOverflow {
                offset: start as u32,
                len: size,
                capacity: self.data.len(),
            });
        }
        self.next = end;
        self.high_water = self.high_water.max(end);
        Ok(start as LsAddr)
    }

    /// Rewind the bump allocator to just past the code region. The bytes
    /// themselves are left in place (real LS contents persist too).
    pub fn reset(&mut self) {
        self.next = align_up(self.code_reserved, QUADWORD);
    }

    #[inline]
    fn span(&self, addr: LsAddr, len: usize) -> CellResult<(usize, usize)> {
        let start = addr as usize;
        let end = start
            .checked_add(len)
            .ok_or(CellError::LocalStoreOverflow {
                offset: addr,
                len,
                capacity: self.data.len(),
            })?;
        if end > self.data.len() {
            return Err(CellError::LocalStoreOverflow {
                offset: addr,
                len,
                capacity: self.data.len(),
            });
        }
        Ok((start, end))
    }

    /// Read `out.len()` bytes from `addr`.
    #[inline]
    pub fn read(&self, addr: LsAddr, out: &mut [u8]) -> CellResult<()> {
        let (s, e) = self.span(addr, out.len())?;
        out.copy_from_slice(&self.data[s..e]);
        Ok(())
    }

    /// Write `src` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: LsAddr, src: &[u8]) -> CellResult<()> {
        let (s, e) = self.span(addr, src.len())?;
        self.data[s..e].copy_from_slice(src);
        Ok(())
    }

    /// Borrow a slice of the store (for zero-copy kernel compute).
    #[inline]
    pub fn slice(&self, addr: LsAddr, len: usize) -> CellResult<&[u8]> {
        let (s, e) = self.span(addr, len)?;
        Ok(&self.data[s..e])
    }

    /// Borrow a mutable slice of the store.
    #[inline]
    pub fn slice_mut(&mut self, addr: LsAddr, len: usize) -> CellResult<&mut [u8]> {
        let (s, e) = self.span(addr, len)?;
        Ok(&mut self.data[s..e])
    }

    /// Two disjoint mutable slices (input buffer + output buffer patterns).
    pub fn slices_mut(
        &mut self,
        a: (LsAddr, usize),
        b: (LsAddr, usize),
    ) -> CellResult<(&mut [u8], &mut [u8])> {
        let (a_s, a_e) = self.span(a.0, a.1)?;
        let (b_s, b_e) = self.span(b.0, b.1)?;
        if a_s < b_e && b_s < a_e {
            return Err(CellError::BadData {
                message: format!(
                    "overlapping LS slices [{a_s:#x},{a_e:#x}) and [{b_s:#x},{b_e:#x})"
                ),
            });
        }
        if a_s < b_s {
            let (lo, hi) = self.data.split_at_mut(b_s);
            Ok((&mut lo[a_s..a_e], &mut hi[..b_e - b_s]))
        } else {
            let (lo, hi) = self.data.split_at_mut(a_s);
            let (bs, be) = (b_s, b_e);
            Ok((&mut hi[..a_e - a_s], &mut lo[bs..be]))
        }
    }

    pub fn read_u32(&self, addr: LsAddr) -> CellResult<u32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn write_u32(&mut self, addr: LsAddr, v: u32) -> CellResult<()> {
        self.write(addr, &v.to_le_bytes())
    }

    pub fn read_f32(&self, addr: LsAddr) -> CellResult<f32> {
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    pub fn write_f32(&mut self, addr: LsAddr, v: f32) -> CellResult<()> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls() -> LocalStore {
        LocalStore::new(64 * 1024, 8 * 1024)
    }

    #[test]
    fn alloc_respects_code_reserve_and_alignment() {
        let mut s = ls();
        let a = s.alloc(100, 16).unwrap();
        assert!(a as usize >= 8 * 1024);
        assert_eq!(a % 16, 0);
        let b = s.alloc(100, 128).unwrap();
        assert_eq!(b % 128, 0);
        assert!(b > a);
    }

    #[test]
    fn alloc_overflow_is_the_slicing_signal() {
        let mut s = ls();
        // 56 KB of data room; a 64 KB buffer (one image row set too many)
        // must be refused.
        let err = s.alloc(64 * 1024, 16).unwrap_err();
        assert!(matches!(err, CellError::LocalStoreOverflow { .. }));
        // But a properly sliced buffer fits.
        assert!(s.alloc(16 * 1024, 16).is_ok());
    }

    #[test]
    fn alloc_rejects_zero_and_bad_alignment() {
        let mut s = ls();
        assert!(s.alloc(0, 16).is_err());
        assert!(s.alloc(64, 4).is_err());
    }

    #[test]
    fn reset_rewinds_but_keeps_bytes() {
        let mut s = ls();
        let a = s.alloc(64, 16).unwrap();
        s.write(a, &[7u8; 64]).unwrap();
        s.reset();
        let b = s.alloc(64, 16).unwrap();
        assert_eq!(a, b);
        let mut out = [0u8; 64];
        s.read(b, &mut out).unwrap();
        assert_eq!(out, [7u8; 64]);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut s = ls();
        let _ = s.alloc(1024, 16).unwrap();
        let hw1 = s.high_water();
        s.reset();
        let _ = s.alloc(128, 16).unwrap();
        assert_eq!(
            s.high_water(),
            hw1,
            "reset must not lower the high-water mark"
        );
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = ls();
        let a = s.alloc(256, 16).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        s.write(a, &data).unwrap();
        let mut out = vec![0u8; 256];
        s.read(a, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn oob_access_fails() {
        let s = ls();
        let mut buf = [0u8; 32];
        assert!(s.read((64 * 1024 - 16) as LsAddr, &mut buf).is_err());
        assert!(s.read(u32::MAX, &mut buf).is_err());
    }

    fn overflows<T>(r: CellResult<T>) -> bool {
        matches!(r, Err(CellError::LocalStoreOverflow { .. }))
    }

    #[test]
    fn accessors_reach_the_last_byte_and_reject_one_past_it() {
        let mut s = ls();
        let last = (s.capacity() - 16) as LsAddr;
        let mut buf = [0u8; 16];
        assert!(s.write(last, &[9u8; 16]).is_ok());
        assert!(s.read(last, &mut buf).is_ok());
        assert_eq!(buf, [9u8; 16]);
        assert_eq!(s.slice(last, 16).unwrap(), &[9u8; 16]);
        assert_eq!(s.slice_mut(last, 16).unwrap().len(), 16);

        let past = last + 1;
        assert!(overflows(s.read(past, &mut buf)));
        assert!(overflows(s.write(past, &buf)));
        assert!(overflows(s.slice(past, 16)));
        assert!(overflows(s.slice_mut(past, 16)));
    }

    #[test]
    fn accessors_reject_wrapping_spans_without_panicking() {
        let mut s = ls();
        let mut byte = [0u8; 1];
        assert!(overflows(s.read(u32::MAX, &mut byte)));
        assert!(overflows(s.write(u32::MAX, &byte)));
        assert!(overflows(s.slice(u32::MAX, 1)));
        assert!(overflows(s.slice_mut(u32::MAX, 1)));
        // `addr + len` overflows usize. No buffer is that long, so only
        // the borrowing accessors can ask for it.
        assert!(overflows(s.slice(1, usize::MAX)));
        assert!(overflows(s.slice_mut(1, usize::MAX)));
    }

    #[test]
    fn slices_mut_rejects_an_out_of_bounds_second_span() {
        let mut s = ls();
        let a = s.alloc(64, 16).unwrap();
        let last = (s.capacity() - 16) as LsAddr;
        assert!(overflows(s.slices_mut((a, 64), (last, 32))));
        assert!(overflows(s.slices_mut((a, 64), (1, usize::MAX))));
        assert!(s.slices_mut((a, 64), (last, 16)).is_ok());
    }

    #[test]
    fn disjoint_slices_mut() {
        let mut s = ls();
        let a = s.alloc(64, 16).unwrap();
        let b = s.alloc(64, 16).unwrap();
        {
            let (sa, sb) = s.slices_mut((a, 64), (b, 64)).unwrap();
            sa.fill(1);
            sb.fill(2);
        }
        assert_eq!(s.slice(a, 64).unwrap()[0], 1);
        assert_eq!(s.slice(b, 64).unwrap()[0], 2);
        // Reversed order works too.
        let (sb, sa) = s.slices_mut((b, 64), (a, 64)).unwrap();
        assert_eq!(sb[0], 2);
        assert_eq!(sa[0], 1);
    }

    #[test]
    fn overlapping_slices_mut_fails() {
        let mut s = ls();
        let a = s.alloc(64, 16).unwrap();
        assert!(s.slices_mut((a, 64), (a + 32, 32)).is_err());
    }

    #[test]
    fn typed_access() {
        let mut s = ls();
        let a = s.alloc(16, 16).unwrap();
        s.write_u32(a, 12345).unwrap();
        assert_eq!(s.read_u32(a).unwrap(), 12345);
        s.write_f32(a + 4, -2.25).unwrap();
        assert_eq!(s.read_f32(a + 4).unwrap(), -2.25);
    }

    #[test]
    fn full_cell_ls_fits_a_352x240_slice_but_not_the_image() {
        // The paper's MARVEL test image is 352x240 RGB = 247.5 KB raw,
        // which does NOT fit a 256 KB LS next to code; a 32-row slice does.
        let mut s = LocalStore::new(256 * 1024, 32 * 1024);
        let full = 352 * 240 * 3;
        assert!(s.alloc(full, 16).is_err());
        let slice = 352 * 32 * 3;
        assert!(s.alloc(slice, 16).is_ok());
    }
}
