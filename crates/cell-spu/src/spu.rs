//! The SPU execution context: functional SIMD ops with issue accounting.
//!
//! Method groups mirror the real pipeline split:
//!
//! * **even pipeline** — fixed-point and floating arithmetic, compares,
//!   selects, element shifts;
//! * **odd pipeline** — quadword loads/stores, byte shuffles and
//!   rotations, lane extraction/insertion;
//! * **branch unit** — [`Spu::branch`] (hinted) and
//!   [`Spu::branch_hard`] (unhinted, data-dependent); the cost models
//!   charge the 18-cycle miss penalty on a fraction of the hard ones;
//! * **scalar escape hatch** — [`Spu::scalar_op`] and the scalar
//!   load/store helpers model un-SIMDized code, which on a real SPU pays
//!   rotate+extract(+insert) on every access. Unoptimized ported kernels
//!   are written in terms of these.
//!
//! Composite helpers (`div_f32`, `sqrt_f32`, horizontal sums) charge the
//! issue sequence a compiler would emit (reciprocal estimate + Newton
//! steps, shuffle/add ladders), so profiles stay honest without forcing
//! kernels to spell out every instruction.
//!
//! [`Spu::charge_even`] and [`Spu::charge_odd`] go one step further: they
//! only charge. A kernel may compute its result in plain host code and
//! charge the issue sequence of the SPU code it models in bulk, as long as
//! every `charge_compute` slice keeps the per-pipe totals the per-op
//! sequence would have produced — cycles are computed per slice from that
//! slice's counter delta. Every method is `#[inline]`: the workspace
//! builds without LTO, and a charged issue should cost the host one add.

use crate::counters::SpuCounters;
use crate::v128::V128;

/// The SPU context a kernel executes against.
#[derive(Debug, Default, Clone)]
pub struct Spu {
    c: SpuCounters,
}

impl Spu {
    #[inline]
    pub fn new() -> Self {
        Spu {
            c: SpuCounters::new(),
        }
    }

    /// Current tally.
    #[inline]
    pub fn counters(&self) -> SpuCounters {
        self.c
    }

    /// Take the tally, resetting it.
    #[inline]
    pub fn take_counters(&mut self) -> SpuCounters {
        std::mem::take(&mut self.c)
    }

    /// Charge `n` even-pipeline issues without computing anything: the
    /// entry point for a kernel whose functional result comes from plain
    /// host code (see the module docs for the contract).
    #[inline]
    pub fn charge_even(&mut self, n: u64) {
        self.c.even += n;
    }

    /// Charge `n` odd-pipeline issues without computing anything.
    #[inline]
    pub fn charge_odd(&mut self, n: u64) {
        self.c.odd += n;
    }

    #[inline]
    fn even(&mut self) {
        self.charge_even(1);
    }

    #[inline]
    fn odd(&mut self) {
        self.charge_odd(1);
    }

    // =====================================================================
    // Even pipeline: byte arithmetic
    // =====================================================================

    /// Wrapping byte add.
    #[inline]
    pub fn add_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].wrapping_add(b[i])))
    }

    /// Saturating byte add.
    #[inline]
    pub fn adds_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].saturating_add(b[i])))
    }

    /// Wrapping byte subtract.
    #[inline]
    pub fn sub_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].wrapping_sub(b[i])))
    }

    /// Saturating byte subtract.
    #[inline]
    pub fn subs_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// Rounded byte average (`avgb`).
    #[inline]
    pub fn avg_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| {
            (a[i] as u16 + b[i] as u16).div_ceil(2) as u8
        }))
    }

    /// Absolute byte difference (`absdb`).
    #[inline]
    pub fn absdiff_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].abs_diff(b[i])))
    }

    #[inline]
    pub fn min_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].min(b[i])))
    }

    #[inline]
    pub fn max_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| a[i].max(b[i])))
    }

    /// Byte equality: 0xFF where equal.
    #[inline]
    pub fn cmpeq_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| if a[i] == b[i] { 0xFF } else { 0 }))
    }

    /// Unsigned byte greater-than: 0xFF where `a > b`.
    #[inline]
    pub fn cmpgt_u8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u8x16(), b.as_u8x16());
        V128::from_u8x16(std::array::from_fn(|i| if a[i] > b[i] { 0xFF } else { 0 }))
    }

    /// `sumb`: sum groups of four bytes into the four u32 lanes.
    #[inline]
    pub fn sum4_u8(&mut self, a: V128) -> V128 {
        self.even();
        let b = a.as_u8x16();
        V128::from_u32x4(std::array::from_fn(|i| {
            b[i * 4] as u32 + b[i * 4 + 1] as u32 + b[i * 4 + 2] as u32 + b[i * 4 + 3] as u32
        }))
    }

    /// Signed byte add (wrapping).
    #[inline]
    pub fn add_i8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i8x16(), b.as_i8x16());
        V128::from_i8x16(std::array::from_fn(|i| a[i].wrapping_add(b[i])))
    }

    /// Signed byte greater-than mask.
    #[inline]
    pub fn cmpgt_i8(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i8x16(), b.as_i8x16());
        V128::from_u8x16(std::array::from_fn(|i| if a[i] > b[i] { 0xFF } else { 0 }))
    }

    /// Per-byte population count (`cntb`).
    #[inline]
    pub fn cntb(&mut self, a: V128) -> V128 {
        self.even();
        V128::from_u8x16(a.as_u8x16().map(|b| b.count_ones() as u8))
    }

    // =====================================================================
    // Even pipeline: halfword arithmetic
    // =====================================================================

    #[inline]
    pub fn add_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(|i| a[i].wrapping_add(b[i])))
    }

    #[inline]
    pub fn adds_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(|i| a[i].saturating_add(b[i])))
    }

    #[inline]
    pub fn sub_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(|i| a[i].wrapping_sub(b[i])))
    }

    #[inline]
    pub fn add_i16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i16x8(), b.as_i16x8());
        V128::from_i16x8(std::array::from_fn(|i| a[i].wrapping_add(b[i])))
    }

    #[inline]
    pub fn sub_i16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i16x8(), b.as_i16x8());
        V128::from_i16x8(std::array::from_fn(|i| a[i].wrapping_sub(b[i])))
    }

    /// Low 16 bits of the lane-wise product.
    #[inline]
    pub fn mul_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(|i| a[i].wrapping_mul(b[i])))
    }

    /// `mpy`-style widening multiply of the even halfword lanes:
    /// `a[2i] * b[2i]` into u32 lane `i`.
    #[inline]
    pub fn mul_even_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u32x4(std::array::from_fn(|i| a[i * 2] as u32 * b[i * 2] as u32))
    }

    #[inline]
    pub fn min_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(|i| a[i].min(b[i])))
    }

    #[inline]
    pub fn max_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(|i| a[i].max(b[i])))
    }

    #[inline]
    pub fn cmpeq_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(
            |i| if a[i] == b[i] { 0xFFFF } else { 0 },
        ))
    }

    #[inline]
    pub fn cmpgt_u16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u16x8(std::array::from_fn(
            |i| if a[i] > b[i] { 0xFFFF } else { 0 },
        ))
    }

    #[inline]
    pub fn cmpgt_i16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i16x8(), b.as_i16x8());
        V128::from_u16x8(std::array::from_fn(
            |i| if a[i] > b[i] { 0xFFFF } else { 0 },
        ))
    }

    /// Shift each halfword left by an immediate.
    #[inline]
    pub fn shl_u16(&mut self, a: V128, n: u32) -> V128 {
        self.even();
        let a = a.as_u16x8();
        V128::from_u16x8(std::array::from_fn(|i| if n < 16 { a[i] << n } else { 0 }))
    }

    /// Logical right shift of each halfword by an immediate.
    #[inline]
    pub fn shr_u16(&mut self, a: V128, n: u32) -> V128 {
        self.even();
        let a = a.as_u16x8();
        V128::from_u16x8(std::array::from_fn(|i| if n < 16 { a[i] >> n } else { 0 }))
    }

    /// Arithmetic right shift of each signed halfword.
    #[inline]
    pub fn sar_i16(&mut self, a: V128, n: u32) -> V128 {
        self.even();
        let a = a.as_i16x8();
        let n = n.min(15);
        V128::from_i16x8(std::array::from_fn(|i| a[i] >> n))
    }

    /// Signed halfword min.
    #[inline]
    pub fn min_i16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i16x8(), b.as_i16x8());
        V128::from_i16x8(std::array::from_fn(|i| a[i].min(b[i])))
    }

    /// Signed halfword max.
    #[inline]
    pub fn max_i16(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i16x8(), b.as_i16x8());
        V128::from_i16x8(std::array::from_fn(|i| a[i].max(b[i])))
    }

    /// Signed halfword absolute value (compare + select on silicon; one
    /// composite issue pair here).
    #[inline]
    pub fn abs_i16(&mut self, a: V128) -> V128 {
        self.c.even += 2;
        V128::from_i16x8(a.as_i16x8().map(i16::wrapping_abs))
    }

    // =====================================================================
    // Even pipeline: word arithmetic
    // =====================================================================

    #[inline]
    pub fn add_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(|i| a[i].wrapping_add(b[i])))
    }

    #[inline]
    pub fn sub_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(|i| a[i].wrapping_sub(b[i])))
    }

    #[inline]
    pub fn add_i32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i32x4(), b.as_i32x4());
        V128::from_i32x4(std::array::from_fn(|i| a[i].wrapping_add(b[i])))
    }

    #[inline]
    pub fn sub_i32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i32x4(), b.as_i32x4());
        V128::from_i32x4(std::array::from_fn(|i| a[i].wrapping_sub(b[i])))
    }

    /// Low 32 bits of the lane-wise product.
    #[inline]
    pub fn mul_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(|i| a[i].wrapping_mul(b[i])))
    }

    #[inline]
    pub fn min_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(|i| a[i].min(b[i])))
    }

    #[inline]
    pub fn max_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(|i| a[i].max(b[i])))
    }

    #[inline]
    pub fn cmpeq_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(
            |i| if a[i] == b[i] { u32::MAX } else { 0 },
        ))
    }

    #[inline]
    pub fn cmpgt_u32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u32x4(), b.as_u32x4());
        V128::from_u32x4(std::array::from_fn(
            |i| if a[i] > b[i] { u32::MAX } else { 0 },
        ))
    }

    #[inline]
    pub fn cmpgt_i32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i32x4(), b.as_i32x4());
        V128::from_u32x4(std::array::from_fn(
            |i| if a[i] > b[i] { u32::MAX } else { 0 },
        ))
    }

    #[inline]
    pub fn shl_u32(&mut self, a: V128, n: u32) -> V128 {
        self.even();
        let a = a.as_u32x4();
        V128::from_u32x4(std::array::from_fn(|i| if n < 32 { a[i] << n } else { 0 }))
    }

    #[inline]
    pub fn shr_u32(&mut self, a: V128, n: u32) -> V128 {
        self.even();
        let a = a.as_u32x4();
        V128::from_u32x4(std::array::from_fn(|i| if n < 32 { a[i] >> n } else { 0 }))
    }

    #[inline]
    pub fn sar_i32(&mut self, a: V128, n: u32) -> V128 {
        self.even();
        let a = a.as_i32x4();
        let n = n.min(31);
        V128::from_i32x4(std::array::from_fn(|i| a[i] >> n))
    }

    /// Signed word min.
    #[inline]
    pub fn min_i32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i32x4(), b.as_i32x4());
        V128::from_i32x4(std::array::from_fn(|i| a[i].min(b[i])))
    }

    /// Signed word max.
    #[inline]
    pub fn max_i32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_i32x4(), b.as_i32x4());
        V128::from_i32x4(std::array::from_fn(|i| a[i].max(b[i])))
    }

    /// Per-word count leading zeros (`clz`).
    #[inline]
    pub fn clz_u32(&mut self, a: V128) -> V128 {
        self.even();
        V128::from_u32x4(a.as_u32x4().map(u32::leading_zeros))
    }

    /// Per-word variable rotate left (`rot`): each lane rotates by the
    /// low 5 bits of the corresponding lane of `n`.
    #[inline]
    pub fn rotl_u32(&mut self, a: V128, n: V128) -> V128 {
        self.even();
        let (a, n) = (a.as_u32x4(), n.as_u32x4());
        V128::from_u32x4(std::array::from_fn(|i| a[i].rotate_left(n[i] & 31)))
    }

    // =====================================================================
    // Even pipeline: bitwise and select
    // =====================================================================

    #[inline]
    pub fn and(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.to_bytes(), b.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| a[i] & b[i]))
    }

    #[inline]
    pub fn or(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.to_bytes(), b.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| a[i] | b[i]))
    }

    #[inline]
    pub fn xor(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.to_bytes(), b.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| a[i] ^ b[i]))
    }

    /// `a & !b` (`andc`).
    #[inline]
    pub fn andc(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.to_bytes(), b.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| a[i] & !b[i]))
    }

    /// Bit select (`selb`): mask bit 1 takes from `b`, 0 from `a`.
    #[inline]
    pub fn selb(&mut self, a: V128, b: V128, mask: V128) -> V128 {
        self.even();
        let (a, b, m) = (a.to_bytes(), b.to_bytes(), mask.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| (a[i] & !m[i]) | (b[i] & m[i])))
    }

    // =====================================================================
    // Even pipeline: single-precision float
    // =====================================================================

    #[inline]
    pub fn add_f32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i] + b[i]))
    }

    #[inline]
    pub fn sub_f32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i] - b[i]))
    }

    #[inline]
    pub fn mul_f32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i] * b[i]))
    }

    /// Fused multiply-add `a*b + c` (`fma`) — the SPE's workhorse.
    #[inline]
    pub fn madd_f32(&mut self, a: V128, b: V128, c: V128) -> V128 {
        self.even();
        let (a, b, c) = (a.as_f32x4(), b.as_f32x4(), c.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i].mul_add(b[i], c[i])))
    }

    /// Fused multiply-subtract `a*b - c` (`fms`).
    #[inline]
    pub fn msub_f32(&mut self, a: V128, b: V128, c: V128) -> V128 {
        self.even();
        let (a, b, c) = (a.as_f32x4(), b.as_f32x4(), c.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i].mul_add(b[i], -c[i])))
    }

    #[inline]
    pub fn min_f32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i].min(b[i])))
    }

    #[inline]
    pub fn max_f32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i].max(b[i])))
    }

    #[inline]
    pub fn abs_f32(&mut self, a: V128) -> V128 {
        self.even();
        V128::from_f32x4(a.as_f32x4().map(f32::abs))
    }

    #[inline]
    pub fn cmpgt_f32(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_u32x4(std::array::from_fn(
            |i| if a[i] > b[i] { u32::MAX } else { 0 },
        ))
    }

    /// Reciprocal via estimate + two Newton-Raphson steps
    /// (`frest`+`fi`+NR): 4 even issues, accuracy ~1e-6 relative like real
    /// SPU sequences.
    #[inline]
    pub fn recip_f32(&mut self, a: V128) -> V128 {
        self.c.even += 4;
        V128::from_f32x4(a.as_f32x4().map(|x| {
            // A 12-bit `frest`-style estimate refined by one Newton step,
            // matching the precision shape of the real sequence.
            let est = f32::from_bits(0x7EF3_11C3u32.wrapping_sub(x.to_bits()));
            let est = est * (2.0 - x * est);
            est * (2.0 - x * est)
        }))
    }

    /// Division composed from reciprocal + multiply: 4 even issues.
    #[inline]
    pub fn div_f32(&mut self, a: V128, b: V128) -> V128 {
        self.c.even += 4;
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i] / b[i]))
    }

    /// Square root composed from rsqrt estimate + Newton + multiply:
    /// 4 even issues.
    #[inline]
    pub fn sqrt_f32(&mut self, a: V128) -> V128 {
        self.c.even += 4;
        V128::from_f32x4(a.as_f32x4().map(f32::sqrt))
    }

    /// Vector exponential: the polynomial + exponent-assembly sequence SPE
    /// math libraries use (≈8 even issues for 4 lanes).
    #[inline]
    pub fn exp_f32(&mut self, a: V128) -> V128 {
        self.c.even += 8;
        V128::from_f32x4(a.as_f32x4().map(f32::exp))
    }

    /// Scalar exponential in a vector register (same 8-issue sequence, one
    /// useful lane).
    #[inline]
    pub fn exp_scalar_f32(&mut self, x: f32) -> f32 {
        self.c.even += 8;
        x.exp()
    }

    /// Convert signed words to floats (`csflt`).
    #[inline]
    pub fn cvt_i32_f32(&mut self, a: V128) -> V128 {
        self.even();
        V128::from_f32x4(a.as_i32x4().map(|x| x as f32))
    }

    /// Convert floats to signed words, truncating (`cflts`).
    #[inline]
    pub fn cvt_f32_i32(&mut self, a: V128) -> V128 {
        self.even();
        V128::from_i32x4(a.as_f32x4().map(|x| x as i32))
    }

    // =====================================================================
    // Double precision (slow path: 2 ops / 7 cycles on silicon)
    // =====================================================================

    #[inline]
    pub fn add_f64(&mut self, a: V128, b: V128) -> V128 {
        self.c.double += 1;
        let (a, b) = (a.as_f64x2(), b.as_f64x2());
        V128::from_f64x2([a[0] + b[0], a[1] + b[1]])
    }

    #[inline]
    pub fn mul_f64(&mut self, a: V128, b: V128) -> V128 {
        self.c.double += 1;
        let (a, b) = (a.as_f64x2(), b.as_f64x2());
        V128::from_f64x2([a[0] * b[0], a[1] * b[1]])
    }

    #[inline]
    pub fn madd_f64(&mut self, a: V128, b: V128, c: V128) -> V128 {
        self.c.double += 1;
        let (a, b, c) = (a.as_f64x2(), b.as_f64x2(), c.as_f64x2());
        V128::from_f64x2([a[0].mul_add(b[0], c[0]), a[1].mul_add(b[1], c[1])])
    }

    // =====================================================================
    // Odd pipeline: loads, stores, shuffles
    // =====================================================================

    /// Load a quadword from a byte slice (`lqd`). `offset` must be within
    /// bounds with 16 bytes of headroom.
    #[inline]
    pub fn load(&mut self, buf: &[u8], offset: usize) -> V128 {
        self.odd();
        V128::from_slice(&buf[offset..])
    }

    /// Store a quadword (`stqd`).
    #[inline]
    pub fn store(&mut self, v: V128, buf: &mut [u8], offset: usize) {
        self.odd();
        v.write_to(&mut buf[offset..]);
    }

    /// Byte shuffle (`shufb`): each pattern byte selects from the 32-byte
    /// concatenation `a ‖ b` by its low 5 bits; bytes with the top bit set
    /// produce zero (a simplification of the SPU's special codes).
    #[inline]
    pub fn shufb(&mut self, a: V128, b: V128, pattern: V128) -> V128 {
        self.odd();
        let (a, b, p) = (a.to_bytes(), b.to_bytes(), pattern.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| {
            let sel = p[i];
            if sel & 0x80 != 0 {
                0
            } else {
                let idx = (sel & 0x1F) as usize;
                if idx < 16 {
                    a[idx]
                } else {
                    b[idx - 16]
                }
            }
        }))
    }

    /// Rotate the quadword left by `n` bytes (`rotqby`).
    #[inline]
    pub fn rot_bytes(&mut self, a: V128, n: usize) -> V128 {
        self.odd();
        let b = a.to_bytes();
        let n = n % 16;
        V128::from_bytes(std::array::from_fn(|i| b[(i + n) % 16]))
    }

    /// Shift the whole quadword left by `n` bytes, zero-filling
    /// (`shlqby`). Shifts of 16+ clear the register.
    #[inline]
    pub fn shl_bytes(&mut self, a: V128, n: usize) -> V128 {
        self.odd();
        let b = a.to_bytes();
        V128::from_bytes(std::array::from_fn(
            |i| if i + n < 16 { b[i + n] } else { 0 },
        ))
    }

    /// Shift the whole quadword right by `n` bytes, zero-filling.
    #[inline]
    pub fn shr_bytes(&mut self, a: V128, n: usize) -> V128 {
        self.odd();
        let b = a.to_bytes();
        V128::from_bytes(std::array::from_fn(|i| if i >= n { b[i - n] } else { 0 }))
    }

    /// OR across the four words into lane 0 (`orx`) — the idiomatic "did
    /// any lane match" reduction after a compare.
    #[inline]
    pub fn orx(&mut self, a: V128) -> V128 {
        self.odd();
        let l = a.as_u32x4();
        V128::from_u32x4([l[0] | l[1] | l[2] | l[3], 0, 0, 0])
    }

    /// Table lookup: bytes of `idx` (low 4 bits) select from `table`'s 16
    /// bytes. One shuffle issue — the core of SIMD quantization.
    #[inline]
    pub fn lookup16_u8(&mut self, table: V128, idx: V128) -> V128 {
        self.odd();
        let (t, ix) = (table.to_bytes(), idx.to_bytes());
        V128::from_bytes(std::array::from_fn(|i| t[(ix[i] & 0x0F) as usize]))
    }

    /// Interleave the low 8 bytes of `a` with zeros, widening to u16 lanes
    /// (a `shufb` in real code).
    #[inline]
    pub fn unpack_lo_u8_u16(&mut self, a: V128) -> V128 {
        self.odd();
        let b = a.as_u8x16();
        V128::from_u16x8(std::array::from_fn(|i| b[i] as u16))
    }

    /// Widen the high 8 bytes to u16 lanes.
    #[inline]
    pub fn unpack_hi_u8_u16(&mut self, a: V128) -> V128 {
        self.odd();
        let b = a.as_u8x16();
        V128::from_u16x8(std::array::from_fn(|i| b[i + 8] as u16))
    }

    /// Pack two u16x8 registers into one u8x16 with saturation. Charged to
    /// the even pipeline like the real saturating pack.
    #[inline]
    pub fn pack_u16_u8_sat(&mut self, a: V128, b: V128) -> V128 {
        self.even();
        let (a, b) = (a.as_u16x8(), b.as_u16x8());
        V128::from_u8x16(std::array::from_fn(|i| {
            let v = if i < 8 { a[i] } else { b[i - 8] };
            v.min(255) as u8
        }))
    }

    /// Extract one byte lane (rotate + move on silicon → odd issue).
    #[inline]
    pub fn extract_u8(&mut self, a: V128, lane: usize) -> u8 {
        self.odd();
        a.as_u8x16()[lane]
    }

    #[inline]
    pub fn extract_u16(&mut self, a: V128, lane: usize) -> u16 {
        self.odd();
        a.as_u16x8()[lane]
    }

    #[inline]
    pub fn extract_u32(&mut self, a: V128, lane: usize) -> u32 {
        self.odd();
        a.as_u32x4()[lane]
    }

    #[inline]
    pub fn extract_f32(&mut self, a: V128, lane: usize) -> f32 {
        self.odd();
        a.as_f32x4()[lane]
    }

    #[inline]
    pub fn insert_u8(&mut self, a: V128, lane: usize, v: u8) -> V128 {
        self.odd();
        let mut b = a.as_u8x16();
        b[lane] = v;
        V128::from_u8x16(b)
    }

    #[inline]
    pub fn insert_u32(&mut self, a: V128, lane: usize, v: u32) -> V128 {
        self.odd();
        let mut b = a.as_u32x4();
        b[lane] = v;
        V128::from_u32x4(b)
    }

    #[inline]
    pub fn insert_f32(&mut self, a: V128, lane: usize, v: f32) -> V128 {
        self.odd();
        let mut b = a.as_f32x4();
        b[lane] = v;
        V128::from_f32x4(b)
    }

    // =====================================================================
    // Horizontal reductions (composed instruction sequences)
    // =====================================================================

    /// Sum the four f32 lanes: two shuffles (odd) + two adds (even).
    #[inline]
    pub fn hsum_f32(&mut self, a: V128) -> f32 {
        self.c.odd += 2;
        self.c.even += 2;
        let l = a.as_f32x4();
        (l[0] + l[2]) + (l[1] + l[3])
    }

    /// Sum the four u32 lanes.
    #[inline]
    pub fn hsum_u32(&mut self, a: V128) -> u32 {
        self.c.odd += 2;
        self.c.even += 2;
        let l = a.as_u32x4();
        l[0].wrapping_add(l[1])
            .wrapping_add(l[2])
            .wrapping_add(l[3])
    }

    /// Sum all 16 bytes: `sumb` + horizontal u32 sum.
    #[inline]
    pub fn hsum_u8(&mut self, a: V128) -> u32 {
        let quads = self.sum4_u8(a);
        self.hsum_u32(quads)
    }

    /// Count 0xFF-mask lanes set in a byte comparison result:
    /// mask & 1-splat, then horizontal sum.
    #[inline]
    pub fn count_mask_u8(&mut self, mask: V128) -> u32 {
        let one = V128::splat_u8(1);
        let bits = self.and(mask, one);
        self.hsum_u8(bits)
    }

    // =====================================================================
    // Branch unit
    // =====================================================================

    /// A hinted or statically predictable branch.
    #[inline]
    pub fn branch(&mut self) {
        self.c.branches += 1;
    }

    /// A data-dependent branch with no useful hint (cost models charge the
    /// 18-cycle penalty on a miss fraction of these).
    #[inline]
    pub fn branch_hard(&mut self) {
        self.c.branches_hard += 1;
    }

    // =====================================================================
    // Scalar escape hatch (unoptimized / un-SIMDizable code)
    // =====================================================================

    /// Record `n` scalar operations executed in vector registers.
    #[inline]
    pub fn scalar_op(&mut self, n: u64) {
        self.c.scalar += n;
    }

    /// Scalar byte load with the scalar-in-vector penalty.
    #[inline]
    pub fn scalar_load_u8(&mut self, buf: &[u8], idx: usize) -> u8 {
        self.c.scalar += 1;
        buf[idx]
    }

    /// Scalar byte store with the scalar-in-vector penalty.
    #[inline]
    pub fn scalar_store_u8(&mut self, buf: &mut [u8], idx: usize, v: u8) {
        self.c.scalar += 1;
        buf[idx] = v;
    }

    /// Scalar u32 load from a u32 view of a byte buffer.
    #[inline]
    pub fn scalar_load_u32(&mut self, buf: &[u8], byte_idx: usize) -> u32 {
        self.c.scalar += 1;
        u32::from_le_bytes(buf[byte_idx..byte_idx + 4].try_into().unwrap())
    }

    #[inline]
    pub fn scalar_store_u32(&mut self, buf: &mut [u8], byte_idx: usize, v: u32) {
        self.c.scalar += 1;
        buf[byte_idx..byte_idx + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn scalar_load_f32(&mut self, buf: &[u8], byte_idx: usize) -> f32 {
        self.c.scalar += 1;
        f32::from_le_bytes(buf[byte_idx..byte_idx + 4].try_into().unwrap())
    }

    #[inline]
    pub fn scalar_store_f32(&mut self, buf: &mut [u8], byte_idx: usize, v: f32) {
        self.c.scalar += 1;
        buf[byte_idx..byte_idx + 4].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spu() -> Spu {
        Spu::new()
    }

    #[test]
    fn byte_arithmetic() {
        let mut s = spu();
        let a = V128::splat_u8(200);
        let b = V128::splat_u8(100);
        assert_eq!(s.add_u8(a, b).as_u8x16()[0], 44); // wrap
        assert_eq!(s.adds_u8(a, b).as_u8x16()[0], 255); // saturate
        assert_eq!(s.sub_u8(b, a).as_u8x16()[0], 156); // wrap
        assert_eq!(s.subs_u8(b, a).as_u8x16()[0], 0); // saturate
        assert_eq!(s.avg_u8(a, b).as_u8x16()[0], 150);
        assert_eq!(s.absdiff_u8(a, b).as_u8x16()[0], 100);
        assert_eq!(s.min_u8(a, b).as_u8x16()[0], 100);
        assert_eq!(s.max_u8(a, b).as_u8x16()[0], 200);
        assert_eq!(s.counters().even, 8);
        assert_eq!(s.counters().odd, 0);
    }

    #[test]
    fn byte_compares_produce_masks() {
        let mut s = spu();
        let a = V128::from_u8x16(std::array::from_fn(|i| i as u8));
        let b = V128::splat_u8(8);
        let gt = s.cmpgt_u8(a, b);
        let expect: [u8; 16] = std::array::from_fn(|i| if i > 8 { 0xFF } else { 0 });
        assert_eq!(gt.as_u8x16(), expect);
        let eq = s.cmpeq_u8(a, b);
        assert_eq!(eq.as_u8x16()[8], 0xFF);
        assert_eq!(eq.as_u8x16()[7], 0);
        assert_eq!(s.count_mask_u8(gt), 7);
    }

    #[test]
    fn sumb_groups_of_four() {
        let mut s = spu();
        let v = V128::from_u8x16([1, 2, 3, 4, 10, 10, 10, 10, 0, 0, 0, 1, 255, 255, 255, 255]);
        assert_eq!(s.sum4_u8(v).as_u32x4(), [10, 40, 1, 1020]);
        assert_eq!(s.hsum_u8(v), 10 + 40 + 1 + 1020);
    }

    #[test]
    fn halfword_ops() {
        let mut s = spu();
        let a = V128::splat_u16(40_000);
        let b = V128::splat_u16(30_000);
        assert_eq!(s.add_u16(a, b).as_u16x8()[0], 4464); // wrap
        assert_eq!(s.adds_u16(a, b).as_u16x8()[0], u16::MAX);
        assert_eq!(
            s.mul_u16(a, b).as_u16x8()[0],
            40_000u16.wrapping_mul(30_000)
        );
        assert_eq!(s.mul_even_u16(a, b).as_u32x4()[0], 40_000u32 * 30_000);
        assert_eq!(s.shl_u16(V128::splat_u16(3), 4).as_u16x8()[0], 48);
        assert_eq!(s.shr_u16(V128::splat_u16(48), 4).as_u16x8()[0], 3);
        assert_eq!(s.sar_i16(V128::from_i16x8([-64; 8]), 3).as_i16x8()[0], -8);
    }

    #[test]
    fn signed_halfword_add_sub() {
        let mut s = spu();
        let a = V128::from_i16x8([-100, 200, -300, 400, -500, 600, -700, 800]);
        let b = V128::from_i16x8([50; 8]);
        assert_eq!(s.add_i16(a, b).as_i16x8()[0], -50);
        assert_eq!(s.sub_i16(a, b).as_i16x8()[1], 150);
        assert_eq!(
            s.cmpgt_i16(a, V128::zero()).as_u16x8(),
            [0, 0xFFFF, 0, 0xFFFF, 0, 0xFFFF, 0, 0xFFFF]
        );
    }

    #[test]
    fn word_ops() {
        let mut s = spu();
        let a = V128::from_u32x4([1, 2, 3, u32::MAX]);
        let b = V128::splat_u32(1);
        assert_eq!(s.add_u32(a, b).as_u32x4(), [2, 3, 4, 0]);
        assert_eq!(s.sub_u32(a, b).as_u32x4(), [0, 1, 2, u32::MAX - 1]);
        assert_eq!(s.mul_u32(a, V128::splat_u32(3)).as_u32x4()[2], 9);
        assert_eq!(s.shl_u32(b, 8).as_u32x4()[0], 256);
        assert_eq!(s.shr_u32(V128::splat_u32(256), 8).as_u32x4()[0], 1);
        assert_eq!(s.sar_i32(V128::splat_i32(-256), 4).as_i32x4()[0], -16);
        assert_eq!(s.min_u32(a, b).as_u32x4()[3], 1);
        assert_eq!(s.max_u32(a, b).as_u32x4()[3], u32::MAX);
    }

    #[test]
    fn word_compares() {
        let mut s = spu();
        let a = V128::from_i32x4([-5, 0, 5, 10]);
        assert_eq!(
            s.cmpgt_i32(a, V128::zero()).as_u32x4(),
            [0, 0, u32::MAX, u32::MAX]
        );
        let u = V128::from_u32x4([1, 5, 5, 9]);
        assert_eq!(
            s.cmpeq_u32(u, V128::splat_u32(5)).as_u32x4(),
            [0, u32::MAX, u32::MAX, 0]
        );
        assert_eq!(
            s.cmpgt_u32(u, V128::splat_u32(4)).as_u32x4(),
            [0, u32::MAX, u32::MAX, u32::MAX]
        );
    }

    #[test]
    fn bitwise_and_select() {
        let mut s = spu();
        let a = V128::splat_u8(0b1100);
        let b = V128::splat_u8(0b1010);
        assert_eq!(s.and(a, b).as_u8x16()[0], 0b1000);
        assert_eq!(s.or(a, b).as_u8x16()[0], 0b1110);
        assert_eq!(s.xor(a, b).as_u8x16()[0], 0b0110);
        assert_eq!(s.andc(a, b).as_u8x16()[0], 0b0100);
        let mask = V128::from_u8x16(std::array::from_fn(|i| if i % 2 == 0 { 0xFF } else { 0 }));
        let sel = s.selb(V128::splat_u8(1), V128::splat_u8(2), mask);
        assert_eq!(sel.as_u8x16()[0], 2);
        assert_eq!(sel.as_u8x16()[1], 1);
    }

    #[test]
    fn float_ops_match_scalar() {
        let mut s = spu();
        let a = V128::from_f32x4([1.0, 2.0, -3.0, 0.5]);
        let b = V128::from_f32x4([4.0, 0.25, 6.0, -1.0]);
        assert_eq!(s.add_f32(a, b).as_f32x4(), [5.0, 2.25, 3.0, -0.5]);
        assert_eq!(s.sub_f32(a, b).as_f32x4(), [-3.0, 1.75, -9.0, 1.5]);
        assert_eq!(s.mul_f32(a, b).as_f32x4(), [4.0, 0.5, -18.0, -0.5]);
        let c = V128::splat_f32(1.0);
        assert_eq!(s.madd_f32(a, b, c).as_f32x4()[0], 5.0);
        assert_eq!(s.msub_f32(a, b, c).as_f32x4()[0], 3.0);
        assert_eq!(s.abs_f32(a).as_f32x4()[2], 3.0);
        assert_eq!(s.min_f32(a, b).as_f32x4()[1], 0.25);
        assert_eq!(s.max_f32(a, b).as_f32x4()[3], 0.5);
        assert_eq!(s.cmpgt_f32(a, b).as_u32x4(), [0, u32::MAX, 0, u32::MAX]);
    }

    #[test]
    fn float_div_sqrt_composites() {
        let mut s = spu();
        let a = V128::from_f32x4([1.0, 4.0, 9.0, 100.0]);
        let d = s.div_f32(a, V128::splat_f32(2.0)).as_f32x4();
        assert_eq!(d, [0.5, 2.0, 4.5, 50.0]);
        let r = s.sqrt_f32(a).as_f32x4();
        assert_eq!(r, [1.0, 2.0, 3.0, 10.0]);
        // Composite cost: 4 + 4 even issues.
        assert_eq!(s.counters().even, 8);
    }

    #[test]
    fn conversions() {
        let mut s = spu();
        let i = V128::from_i32x4([-2, 0, 7, 1000]);
        assert_eq!(s.cvt_i32_f32(i).as_f32x4(), [-2.0, 0.0, 7.0, 1000.0]);
        let f = V128::from_f32x4([-2.9, 0.1, 7.99, 1000.5]);
        assert_eq!(s.cvt_f32_i32(f).as_i32x4(), [-2, 0, 7, 1000]);
    }

    #[test]
    fn double_precision_counts_separately() {
        let mut s = spu();
        let a = V128::from_f64x2([1.5, -2.0]);
        let b = V128::from_f64x2([2.0, 3.0]);
        assert_eq!(s.add_f64(a, b).as_f64x2(), [3.5, 1.0]);
        assert_eq!(s.mul_f64(a, b).as_f64x2(), [3.0, -6.0]);
        assert_eq!(s.madd_f64(a, b, a).as_f64x2(), [4.5, -8.0]);
        assert_eq!(s.counters().double, 3);
        assert_eq!(s.counters().even, 0);
    }

    #[test]
    fn loads_stores_roundtrip() {
        let mut s = spu();
        let mut buf = vec![0u8; 64];
        let v = V128::from_u8x16(std::array::from_fn(|i| i as u8 + 1));
        s.store(v, &mut buf, 16);
        let back = s.load(&buf, 16);
        assert_eq!(back, v);
        assert_eq!(s.counters().odd, 2);
    }

    #[test]
    fn shufb_selects_and_zeros() {
        let mut s = spu();
        let a = V128::from_u8x16(std::array::from_fn(|i| i as u8)); // 0..15
        let b = V128::from_u8x16(std::array::from_fn(|i| i as u8 + 16)); // 16..31
        let pattern = V128::from_u8x16([0, 15, 16, 31, 0x80, 5, 21, 0xFF, 1, 1, 1, 1, 2, 2, 2, 2]);
        let r = s.shufb(a, b, pattern).as_u8x16();
        assert_eq!(r[0], 0);
        assert_eq!(r[1], 15);
        assert_eq!(r[2], 16);
        assert_eq!(r[3], 31);
        assert_eq!(r[4], 0, "0x80 selects zero");
        assert_eq!(r[5], 5);
        assert_eq!(r[6], 21);
        assert_eq!(r[7], 0, "0xFF selects zero");
    }

    #[test]
    fn rotate_bytes() {
        let mut s = spu();
        let v = V128::from_u8x16(std::array::from_fn(|i| i as u8));
        let r = s.rot_bytes(v, 3).as_u8x16();
        assert_eq!(r[0], 3);
        assert_eq!(r[13], 0);
        assert_eq!(s.rot_bytes(v, 16), v);
        assert_eq!(s.rot_bytes(v, 19).as_u8x16()[0], 3);
    }

    #[test]
    fn lookup16_quantizes() {
        let mut s = spu();
        let table = V128::from_u8x16([
            10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
        ]);
        let idx = V128::from_u8x16([0, 5, 15, 16, 31, 255, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0]);
        let r = s.lookup16_u8(table, idx).as_u8x16();
        assert_eq!(r[0], 10);
        assert_eq!(r[1], 15);
        assert_eq!(r[2], 25);
        assert_eq!(r[3], 10, "index 16 wraps to 0 via low-4-bit masking");
        assert_eq!(r[4], 25, "index 31 → 15");
        assert_eq!(r[5], 25, "index 255 → 15");
    }

    #[test]
    fn widen_and_pack() {
        let mut s = spu();
        let v = V128::from_u8x16(std::array::from_fn(|i| (i * 16) as u8));
        let lo = s.unpack_lo_u8_u16(v).as_u16x8();
        let hi = s.unpack_hi_u8_u16(v).as_u16x8();
        assert_eq!(lo[0], 0);
        assert_eq!(lo[7], 112);
        assert_eq!(hi[0], 128);
        assert_eq!(hi[7], 240);
        let packed = s.pack_u16_u8_sat(V128::splat_u16(300), V128::splat_u16(5));
        assert_eq!(packed.as_u8x16()[0], 255);
        assert_eq!(packed.as_u8x16()[8], 5);
    }

    #[test]
    fn extract_insert_cost_odd() {
        let mut s = spu();
        let v = V128::from_u32x4([10, 20, 30, 40]);
        assert_eq!(s.extract_u32(v, 2), 30);
        let v2 = s.insert_u32(v, 1, 99);
        assert_eq!(v2.as_u32x4(), [10, 99, 30, 40]);
        let v3 = s.insert_u8(v, 0, 7);
        assert_eq!(v3.as_u8x16()[0], 7);
        let v4 = s.insert_f32(v, 3, 1.5);
        assert_eq!(v4.as_f32x4()[3], 1.5);
        assert_eq!(s.extract_u8(v, 4), 20);
        assert_eq!(s.extract_u16(v, 0), 10);
        assert_eq!(s.extract_f32(V128::splat_f32(2.5), 1), 2.5);
        assert_eq!(s.counters().odd, 7);
        assert_eq!(s.counters().even, 0);
    }

    #[test]
    fn hsum_f32_matches_scalar() {
        let mut s = spu();
        let v = V128::from_f32x4([1.5, -0.5, 2.0, 10.0]);
        assert_eq!(s.hsum_f32(v), 13.0);
        assert_eq!(s.hsum_u32(V128::from_u32x4([1, 2, 3, 4])), 10);
    }

    #[test]
    fn branch_counters() {
        let mut s = spu();
        s.branch();
        s.branch_hard();
        s.branch_hard();
        assert_eq!(s.counters().branches, 1);
        assert_eq!(s.counters().branches_hard, 2);
    }

    #[test]
    fn scalar_helpers_touch_memory_and_count() {
        let mut s = spu();
        let mut buf = vec![0u8; 32];
        s.scalar_store_u8(&mut buf, 3, 9);
        assert_eq!(s.scalar_load_u8(&buf, 3), 9);
        s.scalar_store_u32(&mut buf, 4, 0xABCD);
        assert_eq!(s.scalar_load_u32(&buf, 4), 0xABCD);
        s.scalar_store_f32(&mut buf, 8, -1.25);
        assert_eq!(s.scalar_load_f32(&buf, 8), -1.25);
        s.scalar_op(5);
        assert_eq!(s.counters().scalar, 11);
    }

    #[test]
    fn take_counters_resets() {
        let mut s = spu();
        s.add_u8(V128::zero(), V128::zero());
        s.charge_even(4);
        s.charge_odd(3);
        let c = s.take_counters();
        assert_eq!((c.even, c.odd, c.total()), (5, 3, 8));
        assert_eq!(s.counters(), SpuCounters::default());
    }

    #[test]
    fn signed_byte_ops() {
        let mut s = spu();
        let a = V128::from_i8x16([-100i8; 16]);
        let b = V128::from_i8x16([-50i8; 16]);
        assert_eq!(s.add_i8(a, b).as_i8x16()[0], 106); // wraps
        assert_eq!(s.cmpgt_i8(b, a).as_u8x16()[0], 0xFF);
        assert_eq!(s.cmpgt_i8(a, b).as_u8x16()[0], 0);
    }

    #[test]
    fn cntb_counts_bits() {
        let mut s = spu();
        let v = V128::from_u8x16([
            0, 1, 3, 7, 15, 31, 63, 127, 255, 0x80, 0xAA, 0x55, 2, 4, 8, 16,
        ]);
        assert_eq!(
            s.cntb(v).as_u8x16(),
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 4, 4, 1, 1, 1, 1]
        );
    }

    #[test]
    fn signed_minmax_and_abs() {
        let mut s = spu();
        let a = V128::from_i16x8([-5, 5, -100, 100, i16::MIN, i16::MAX, 0, -1]);
        let b = V128::from_i16x8([0; 8]);
        assert_eq!(s.min_i16(a, b).as_i16x8()[0], -5);
        assert_eq!(s.max_i16(a, b).as_i16x8()[0], 0);
        assert_eq!(s.abs_i16(a).as_i16x8()[2], 100);
        assert_eq!(
            s.abs_i16(a).as_i16x8()[4],
            i16::MIN,
            "wrapping abs at the edge"
        );
        let w = V128::from_i32x4([-7, 7, i32::MIN, 0]);
        assert_eq!(s.min_i32(w, V128::zero()).as_i32x4(), [-7, 0, i32::MIN, 0]);
        assert_eq!(s.max_i32(w, V128::zero()).as_i32x4(), [0, 7, 0, 0]);
    }

    #[test]
    fn clz_and_rotl() {
        let mut s = spu();
        let v = V128::from_u32x4([0, 1, 0x8000_0000, 0x00F0_0000]);
        assert_eq!(s.clz_u32(v).as_u32x4(), [32, 31, 0, 8]);
        let r = s.rotl_u32(V128::from_u32x4([0x8000_0001; 4]), V128::splat_u32(1));
        assert_eq!(r.as_u32x4()[0], 3);
        // Rotate counts use only the low 5 bits.
        let r33 = s.rotl_u32(V128::splat_u32(2), V128::splat_u32(33));
        assert_eq!(r33.as_u32x4()[0], 4);
    }

    #[test]
    fn quadword_byte_shifts() {
        let mut s = spu();
        let v = V128::from_u8x16(std::array::from_fn(|i| i as u8 + 1));
        let l = s.shl_bytes(v, 2).as_u8x16();
        assert_eq!(l[0], 3);
        assert_eq!(l[14], 0);
        let r = s.shr_bytes(v, 2).as_u8x16();
        assert_eq!(r[0], 0);
        assert_eq!(r[2], 1);
        assert_eq!(s.shl_bytes(v, 16), V128::zero());
        assert_eq!(s.shr_bytes(v, 20), V128::zero());
    }

    #[test]
    fn orx_reduces_match_masks() {
        let mut s = spu();
        let none = s.cmpeq_u32(V128::splat_u32(1), V128::splat_u32(2));
        assert_eq!(s.orx(none).as_u32x4()[0], 0);
        let some = s.cmpeq_u32(V128::from_u32x4([1, 2, 3, 4]), V128::splat_u32(3));
        assert_eq!(s.orx(some).as_u32x4()[0], u32::MAX);
    }

    #[test]
    fn exp_composites() {
        let mut s = spu();
        let v = s
            .exp_f32(V128::from_f32x4([0.0, 1.0, -1.0, 2.0]))
            .as_f32x4();
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!((v[1] - std::f32::consts::E).abs() < 1e-5);
        assert!((s.exp_scalar_f32(0.5) - 0.5f32.exp()).abs() < 1e-6);
        assert_eq!(s.counters().even, 16);
    }

    #[test]
    fn recip_is_close() {
        let mut s = spu();
        let r = s
            .recip_f32(V128::from_f32x4([2.0, 4.0, 0.5, 10.0]))
            .as_f32x4();
        for (got, want) in r.iter().zip([0.5f32, 0.25, 2.0, 0.1]) {
            assert!((got - want).abs() < want * 1e-4, "{got} vs {want}");
        }
    }
}
