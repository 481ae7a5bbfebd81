//! The 128-bit register value with typed lane views.
//!
//! Lane order is little-endian throughout: lane 0 occupies bytes 0..k.
//! `V128` is pure data — building or viewing one costs nothing; only
//! [`Spu`](crate::spu::Spu) methods charge pipeline issues.

use std::fmt;

/// A 128-bit SIMD value.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct V128(pub(crate) [u8; 16]);

impl V128 {
    /// All-zero register.
    #[inline]
    pub fn zero() -> Self {
        V128([0; 16])
    }

    /// All-ones register (the result of a true comparison in every lane).
    #[inline]
    pub fn ones() -> Self {
        V128([0xFF; 16])
    }

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
    pub fn from_slice(s: &[u8]) -> Self {
        let mut b = [0u8; 16];
        b.copy_from_slice(&s[..16]);
        V128(b)
    }

    /// Store to the first 16 bytes of a slice.
    #[inline]
    pub fn write_to(self, out: &mut [u8]) {
        out[..16].copy_from_slice(&self.0);
    }

    // ---- typed views -----------------------------------------------------

    #[inline]
    pub fn from_u8x16(l: [u8; 16]) -> Self {
        V128(l)
    }

    #[inline]
    pub fn as_u8x16(self) -> [u8; 16] {
        self.0
    }

    #[inline]
    pub fn from_i8x16(l: [i8; 16]) -> Self {
        V128(l.map(|x| x as u8))
    }

    #[inline]
    pub fn as_i8x16(self) -> [i8; 16] {
        self.0.map(|x| x as i8)
    }

    #[inline]
    pub fn from_u16x8(l: [u16; 8]) -> Self {
        let mut b = [0u8; 16];
        for (i, v) in l.iter().enumerate() {
            b[i * 2..i * 2 + 2].copy_from_slice(&v.to_le_bytes());
        }
        V128(b)
    }

    #[inline]
    pub fn as_u16x8(self) -> [u16; 8] {
        std::array::from_fn(|i| u16::from_le_bytes([self.0[i * 2], self.0[i * 2 + 1]]))
    }

    #[inline]
    pub fn from_i16x8(l: [i16; 8]) -> Self {
        Self::from_u16x8(l.map(|x| x as u16))
    }

    #[inline]
    pub fn as_i16x8(self) -> [i16; 8] {
        self.as_u16x8().map(|x| x as i16)
    }

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
    pub fn from_i32x4(l: [i32; 4]) -> Self {
        Self::from_u32x4(l.map(|x| x as u32))
    }

    #[inline]
    pub fn as_i32x4(self) -> [i32; 4] {
        self.as_u32x4().map(|x| x as i32)
    }

    #[inline]
    pub fn from_f32x4(l: [f32; 4]) -> Self {
        Self::from_u32x4(l.map(f32::to_bits))
    }

    #[inline]
    pub fn as_f32x4(self) -> [f32; 4] {
        self.as_u32x4().map(f32::from_bits)
    }

    #[inline]
    pub fn from_f64x2(l: [f64; 2]) -> Self {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&l[0].to_le_bytes());
        b[8..].copy_from_slice(&l[1].to_le_bytes());
        V128(b)
    }

    #[inline]
    pub fn as_f64x2(self) -> [f64; 2] {
        [
            f64::from_le_bytes(self.0[..8].try_into().unwrap()),
            f64::from_le_bytes(self.0[8..].try_into().unwrap()),
        ]
    }

    // ---- splats (free: these model immediate loads the compiler hoists) --

    #[inline]
    pub fn splat_u8(x: u8) -> Self {
        V128([x; 16])
    }

    #[inline]
    pub fn splat_u16(x: u16) -> Self {
        Self::from_u16x8([x; 8])
    }

    #[inline]
    pub fn splat_u32(x: u32) -> Self {
        Self::from_u32x4([x; 4])
    }

    #[inline]
    pub fn splat_i32(x: i32) -> Self {
        Self::from_i32x4([x; 4])
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
/// operation; [`Spu::shufb`](crate::Spu::shufb) charges the odd-pipe
/// issue.
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
    fn u8_roundtrip() {
        let lanes: [u8; 16] = std::array::from_fn(|i| i as u8 * 3);
        assert_eq!(V128::from_u8x16(lanes).as_u8x16(), lanes);
    }

    #[test]
    fn i8_roundtrip() {
        let lanes: [i8; 16] = std::array::from_fn(|i| (i as i8) - 8);
        assert_eq!(V128::from_i8x16(lanes).as_i8x16(), lanes);
    }

    #[test]
    fn u16_roundtrip_and_lane_order() {
        let lanes = [1u16, 2, 3, 4, 5, 6, 0xFFFF, 0x8000];
        let v = V128::from_u16x8(lanes);
        assert_eq!(v.as_u16x8(), lanes);
        // Lane 0 lives in bytes 0..2, little-endian.
        assert_eq!(v.to_bytes()[0], 1);
        assert_eq!(v.to_bytes()[1], 0);
    }

    #[test]
    fn i16_roundtrip() {
        let lanes = [-1i16, 32767, -32768, 0, 7, -7, 100, -100];
        assert_eq!(V128::from_i16x8(lanes).as_i16x8(), lanes);
    }

    #[test]
    fn u32_i32_roundtrip() {
        let u = [0u32, u32::MAX, 0xDEADBEEF, 42];
        assert_eq!(V128::from_u32x4(u).as_u32x4(), u);
        let i = [i32::MIN, -1, 0, i32::MAX];
        assert_eq!(V128::from_i32x4(i).as_i32x4(), i);
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
    fn f64_roundtrip() {
        let d = [std::f64::consts::PI, -1e300];
        assert_eq!(V128::from_f64x2(d).as_f64x2(), d);
    }

    #[test]
    fn splats_fill_all_lanes() {
        assert!(V128::splat_u8(7).as_u8x16().iter().all(|&x| x == 7));
        assert!(V128::splat_u16(300).as_u16x8().iter().all(|&x| x == 300));
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
        assert_eq!(v.as_u8x16()[0], 8);
        let mut out = [0u8; 20];
        v.write_to(&mut out);
        assert_eq!(&out[..16], &data[8..24]);
    }

    #[test]
    fn zero_and_ones() {
        assert_eq!(V128::zero().as_u32x4(), [0; 4]);
        assert_eq!(V128::ones().as_u32x4(), [u32::MAX; 4]);
    }
}
