//! The 128-bit register value with its u32×4 and f32×4 lane views.
//!
//! Lane order is little-endian throughout: lane 0 occupies bytes 0..k.
//! `V128` is pure data — building or viewing one costs nothing; only
//! [`Spu`](crate::spu::Spu) methods charge pipeline issues.

use std::fmt;

/// A 128-bit SIMD value.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct V128(pub(crate) [u8; 16]);

impl V128 {
    #[inline]
    pub fn from_bytes(b: [u8; 16]) -> Self {
        V128(b)
    }

    #[inline]
    pub fn to_bytes(self) -> [u8; 16] {
        self.0
    }

    /// Load from the first 16 bytes of a slice (panics if shorter — kernel
    /// buffers are always quadword-padded by construction).
    #[inline]
    pub(crate) fn from_slice(s: &[u8]) -> Self {
        let mut b = [0u8; 16];
        b.copy_from_slice(&s[..16]);
        V128(b)
    }

    /// Store to the first 16 bytes of a slice.
    #[inline]
    pub(crate) fn write_to(self, out: &mut [u8]) {
        out[..16].copy_from_slice(&self.0);
    }

    // ---- typed views -----------------------------------------------------

    #[inline]
    pub fn from_u32x4(l: [u32; 4]) -> Self {
        let mut b = [0u8; 16];
        for (i, v) in l.iter().enumerate() {
            b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        V128(b)
    }

    #[inline]
    pub fn as_u32x4(self) -> [u32; 4] {
        std::array::from_fn(|i| {
            u32::from_le_bytes([
                self.0[i * 4],
                self.0[i * 4 + 1],
                self.0[i * 4 + 2],
                self.0[i * 4 + 3],
            ])
        })
    }

    #[inline]
    pub fn from_f32x4(l: [f32; 4]) -> Self {
        Self::from_u32x4(l.map(f32::to_bits))
    }

    #[inline]
    pub fn as_f32x4(self) -> [f32; 4] {
        self.as_u32x4().map(f32::from_bits)
    }

    // ---- splats (free: these model immediate loads the compiler hoists) --

    #[inline]
    pub fn splat_u32(x: u32) -> Self {
        Self::from_u32x4([x; 4])
    }

    #[inline]
    pub fn splat_f32(x: f32) -> Self {
        Self::from_f32x4([x; 4])
    }
}

/// What `shufb` writes for a control byte with its top bit set, indexed
/// by the byte's top three bits: `10xxxxxx` writes 0x00, `110xxxxx`
/// 0xFF and `111xxxxx` 0x80.
const SHUFB_FILL: [u8; 8] = [0, 0, 0, 0, 0x00, 0x00, 0xFF, 0x80];

/// The top bit of every control byte: a `shufb` control word without
/// one is pure selection.
const SHUFB_FILL_BITS: u128 = u128::from_ne_bytes([0x80; 16]);

/// Byte shuffle (`shufb`), the SPU's rule: result byte `i` is byte
/// `c[i] & 0x1F` of the 32-byte concatenation `a ‖ b` when `c[i]` is
/// below 0x80; otherwise it is 0x00 for `10xxxxxx`, 0xFF for
/// `110xxxxx` and 0x80 for `111xxxxx`. Pure data, like every `V128`
/// operation: the `cell-isa` interpreter that executes it charges the
/// odd-pipe issue.
#[inline]
pub fn shufb(a: V128, b: V128, c: V128) -> V128 {
    let mut cat = [0u8; 32];
    cat[..16].copy_from_slice(&a.0);
    cat[16..].copy_from_slice(&b.0);
    let mut out = c.0.map(|sel| cat[usize::from(sel & 0x1F)]);
    // Interpreted kernels shuffle inside their inner loops with control
    // words that only select (`cwd`/`cwx` patterns, stencil neighbours),
    // so fill bytes are patched in on a path those words never take: a
    // compare and select per byte in the lookup above cost perfbench's
    // `isa_jobs` ~6 % of its host rate.
    if u128::from_ne_bytes(c.0) & SHUFB_FILL_BITS != 0 {
        for (byte, &sel) in out.iter_mut().zip(&c.0) {
            if sel >= 0x80 {
                *byte = SHUFB_FILL[usize::from(sel >> 5)];
            }
        }
    }
    V128(out)
}

impl fmt::Debug for V128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V128({:02x?})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip_and_lane_order() {
        let u = [0u32, u32::MAX, 0xDEADBEEF, 42];
        assert_eq!(V128::from_u32x4(u).as_u32x4(), u);
        // Lane 0 lives in bytes 0..4, little-endian.
        let b = V128::from_u32x4([1, 2, 3, 4]).to_bytes();
        assert_eq!(b[..4], [1, 0, 0, 0]);
    }

    #[test]
    fn f32_roundtrip_preserves_bits() {
        let f = [0.0f32, -0.0, f32::INFINITY, 1.5e-40];
        let out = V128::from_f32x4(f).as_f32x4();
        for (a, b) in f.iter().zip(out.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn splats_fill_all_lanes() {
        assert!(V128::splat_u32(70000)
            .as_u32x4()
            .iter()
            .all(|&x| x == 70000));
        assert!(V128::splat_f32(2.5).as_f32x4().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn slice_load_store() {
        let data: Vec<u8> = (0..32).collect();
        let v = V128::from_slice(&data[8..]);
        assert_eq!(v.to_bytes()[0], 8);
        let mut out = [0u8; 20];
        v.write_to(&mut out);
        assert_eq!(&out[..16], &data[8..24]);
    }

    #[test]
    fn shufb_selects_and_fills() {
        let a = V128::from_bytes(std::array::from_fn(|i| i as u8)); // 0..15
        let b = V128::from_bytes(std::array::from_fn(|i| i as u8 + 16)); // 16..31
        let pattern = V128::from_bytes([
            0, 15, 16, 31, 0x80, 5, 21, 0xFF, 0xBF, 0xC0, 0xDF, 0xE0, 0x7F, 0x3F, 2, 2,
        ]);
        let r = shufb(a, b, pattern).to_bytes();
        assert_eq!(r[0], 0);
        assert_eq!(r[1], 15);
        assert_eq!(r[2], 16);
        assert_eq!(r[3], 31);
        assert_eq!(r[4], 0x00, "10xxxxxx writes 0x00");
        assert_eq!(r[5], 5);
        assert_eq!(r[6], 21);
        assert_eq!(r[7], 0x80, "111xxxxx writes 0x80");
        assert_eq!(r[8], 0x00, "10xxxxxx writes 0x00");
        assert_eq!(r[9], 0xFF, "110xxxxx writes 0xFF");
        assert_eq!(r[10], 0xFF, "110xxxxx writes 0xFF");
        assert_eq!(r[11], 0x80, "111xxxxx writes 0x80");
        assert_eq!(r[12], 31, "0x7F selects by its low 5 bits");
        assert_eq!(r[13], 31, "0x3F selects by its low 5 bits");
    }
}
