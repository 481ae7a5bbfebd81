//! The SPU execution context: the issue tally a kernel charges.
//!
//! Charges mirror the real pipeline split:
//!
//! * **even pipeline** — arithmetic: [`Spu::add_f32`], [`Spu::mul_f32`],
//!   the exponential sequence of [`Spu::exp_scalar_f32`];
//! * **odd pipeline** — quadword loads and stores ([`Spu::load`],
//!   [`Spu::store`]);
//! * **branch unit** — [`Spu::branch`] (hinted) and
//!   [`Spu::branch_hard`] (unhinted, data-dependent); the cost models
//!   charge the 18-cycle miss penalty on a fraction of the hard ones;
//! * **scalar escape hatch** — [`Spu::scalar_op`] and
//!   [`Spu::scalar_load_u8`] model un-SIMDized code, which on a real SPU
//!   pays rotate+extract(+insert) on every access. Unoptimized ported
//!   kernels are written in terms of these.
//!
//! [`Spu::charge_even`] and [`Spu::charge_odd`] only charge. A kernel may
//! compute its result in plain host code and charge the issue sequence of
//! the SPU code it models in bulk, as long as every `charge_compute` slice
//! keeps the per-pipe totals the per-op sequence would have produced —
//! cycles are computed per slice from that slice's counter delta. Every
//! method is `#[inline]`: the workspace builds without LTO, and a charged
//! issue should cost the host one add.

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
        Self::default()
    }

    /// Current tally.
    #[inline]
    pub fn counters(&self) -> SpuCounters {
        self.c
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

    // =====================================================================
    // Even pipeline: single-precision float
    // =====================================================================

    #[inline]
    pub fn add_f32(&mut self, a: V128, b: V128) -> V128 {
        self.charge_even(1);
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i] + b[i]))
    }

    #[inline]
    pub fn mul_f32(&mut self, a: V128, b: V128) -> V128 {
        self.charge_even(1);
        let (a, b) = (a.as_f32x4(), b.as_f32x4());
        V128::from_f32x4(std::array::from_fn(|i| a[i] * b[i]))
    }

    /// Scalar exponential in a vector register: the polynomial +
    /// exponent-assembly sequence SPE math libraries use (8 even issues,
    /// one useful lane).
    #[inline]
    pub fn exp_scalar_f32(&mut self, x: f32) -> f32 {
        self.charge_even(8);
        x.exp()
    }

    // =====================================================================
    // Odd pipeline: loads and stores
    // =====================================================================

    /// Load a quadword from a byte slice (`lqd`). `offset` must be within
    /// bounds with 16 bytes of headroom.
    #[inline]
    pub fn load(&mut self, buf: &[u8], offset: usize) -> V128 {
        self.charge_odd(1);
        V128::from_slice(&buf[offset..])
    }

    /// Store a quadword (`stqd`).
    #[inline]
    pub fn store(&mut self, v: V128, buf: &mut [u8], offset: usize) {
        self.charge_odd(1);
        v.write_to(&mut buf[offset..]);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spu() -> Spu {
        Spu::new()
    }

    #[test]
    fn float_ops_match_scalar() {
        let mut s = spu();
        let a = V128::from_f32x4([1.0, 2.0, -3.0, 0.5]);
        let b = V128::from_f32x4([4.0, 0.25, 6.0, -1.0]);
        assert_eq!(s.add_f32(a, b).as_f32x4(), [5.0, 2.25, 3.0, -0.5]);
        assert_eq!(s.mul_f32(a, b).as_f32x4(), [4.0, 0.5, -18.0, -0.5]);
    }

    #[test]
    fn loads_stores_roundtrip() {
        let mut s = spu();
        let mut buf = vec![0u8; 64];
        let v = V128::from_bytes(std::array::from_fn(|i| i as u8 + 1));
        s.store(v, &mut buf, 16);
        let back = s.load(&buf, 16);
        assert_eq!(back, v);
        assert_eq!(s.counters().odd, 2);
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
        buf[3] = 9;
        assert_eq!(s.scalar_load_u8(&buf, 3), 9);
        s.scalar_op(5);
        assert_eq!(s.counters().scalar, 6);
    }

    #[test]
    fn charges_add_to_the_tally() {
        let mut s = spu();
        s.charge_even(4);
        s.charge_odd(3);
        let c = s.counters();
        assert_eq!((c.even, c.odd, c.total()), (4, 3, 7));
    }

    #[test]
    fn exp_composites() {
        let mut s = spu();
        assert!((s.exp_scalar_f32(0.5) - 0.5f32.exp()).abs() < 1e-6);
        assert_eq!(s.counters().even, 8);
    }
}
