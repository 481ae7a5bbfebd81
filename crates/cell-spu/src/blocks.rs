//! Reusable SIMD building blocks.
//!
//! The primitives every SPE kernel ends up re-writing — bulk moves, fills,
//! dot products, AXPY, reductions — implemented once against the [`Spu`]
//! ISA with correct issue accounting. MARVEL-class kernels compose these;
//! new ports get them for free.

use crate::spu::Spu;
use crate::v128::V128;

/// Quadword-granular copy (`memcpy` at 16 B per odd-pipeline pair).
/// Ragged tails fall back to scalar-in-vector, like real SPU code.
pub fn copy_bytes(spu: &mut Spu, src: &[u8], dst: &mut [u8]) {
    assert!(dst.len() >= src.len(), "destination too small");
    let full = src.len() / 16 * 16;
    let mut i = 0;
    while i < full {
        let v = spu.load(src, i);
        spu.store(v, dst, i);
        i += 16;
    }
    for j in full..src.len() {
        let b = spu.scalar_load_u8(src, j);
        spu.scalar_store_u8(dst, j, b);
    }
}

/// Quadword-granular fill (`memset`).
pub fn fill_bytes(spu: &mut Spu, dst: &mut [u8], value: u8) {
    let v = V128::splat_u8(value);
    let full = dst.len() / 16 * 16;
    let mut i = 0;
    while i < full {
        spu.store(v, dst, i);
        i += 16;
    }
    for j in full..dst.len() {
        spu.scalar_store_u8(dst, j, value);
    }
}

/// Load an f32 slice element range as a vector (helper; charged as one
/// odd-pipeline load).
fn load_f32x4(spu: &mut Spu, data: &[f32], i: usize) -> V128 {
    spu.charge_odd(1);
    V128::from_f32x4([data[i], data[i + 1], data[i + 2], data[i + 3]])
}

/// Dot product of two f32 slices: FMA chains + one horizontal sum.
/// Accumulation order is `(((acc + a0*b0) + a1*b1) …)` per lane, then the
/// lane sum — deterministic, and identical to [`dot_reference`].
pub fn dot_f32(spu: &mut Spu, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot of mismatched lengths");
    let full = a.len() / 4 * 4;
    let mut acc = V128::zero();
    let mut i = 0;
    while i < full {
        let va = load_f32x4(spu, a, i);
        let vb = load_f32x4(spu, b, i);
        acc = spu.madd_f32(va, vb, acc);
        i += 4;
    }
    let mut sum = spu.hsum_f32(acc);
    for j in full..a.len() {
        spu.scalar_op(2);
        sum += a[j] * b[j];
    }
    sum
}

/// The scalar association [`dot_f32`] reproduces exactly.
pub fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
    let full = a.len() / 4 * 4;
    let mut lanes = [0.0f32; 4];
    let mut i = 0;
    while i < full {
        for l in 0..4 {
            lanes[l] = a[i + l].mul_add(b[i + l], lanes[l]);
        }
        i += 4;
    }
    let mut sum = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for j in full..a.len() {
        sum += a[j] * b[j];
    }
    sum
}

/// `y ← α·x + y` over f32 slices (AXPY), 4-wide FMA.
pub fn axpy_f32(spu: &mut Spu, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy of mismatched lengths");
    let va = V128::splat_f32(alpha);
    let full = x.len() / 4 * 4;
    let mut i = 0;
    while i < full {
        let vx = load_f32x4(spu, x, i);
        let vy = load_f32x4(spu, y, i);
        let r = spu.madd_f32(va, vx, vy).as_f32x4();
        y[i..i + 4].copy_from_slice(&r);
        spu.charge_odd(1); // the quadword store
        i += 4;
    }
    for j in full..x.len() {
        spu.scalar_op(2);
        y[j] = alpha.mul_add(x[j], y[j]);
    }
}

/// Sum of an f32 slice, 4 lanes then horizontal.
pub fn sum_f32(spu: &mut Spu, data: &[f32]) -> f32 {
    let ones = V128::splat_f32(1.0);
    let full = data.len() / 4 * 4;
    let mut acc = V128::zero();
    let mut i = 0;
    while i < full {
        let v = load_f32x4(spu, data, i);
        acc = spu.madd_f32(v, ones, acc);
        i += 4;
    }
    let mut sum = spu.hsum_f32(acc);
    for &x in &data[full..] {
        spu.scalar_op(1);
        sum += x;
    }
    sum
}

/// Maximum byte of a slice: lane-wise max then a log-depth reduction.
pub fn max_u8(spu: &mut Spu, data: &[u8]) -> u8 {
    let full = data.len() / 16 * 16;
    let mut acc = V128::zero();
    let mut i = 0;
    while i < full {
        let v = spu.load(data, i);
        acc = spu.max_u8(acc, v);
        i += 16;
    }
    // Reduce 16 lanes with 4 rotate+max steps.
    for shift in [8usize, 4, 2, 1] {
        let r = spu.rot_bytes(acc, shift);
        acc = spu.max_u8(acc, r);
    }
    let mut m = spu.extract_u8(acc, 0);
    for &x in &data[full..] {
        spu.scalar_op(1);
        m = m.max(x);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_core::SplitMix64;

    fn floats(n: usize, seed: u64) -> Vec<f32> {
        let mut r = SplitMix64::new(seed);
        (0..n).map(|_| (r.next_f64() as f32 - 0.5) * 4.0).collect()
    }

    #[test]
    fn copy_and_fill_roundtrip() {
        let mut spu = Spu::new();
        let src: Vec<u8> = (0..77).map(|i| i as u8 * 3).collect();
        let mut dst = vec![0u8; 80];
        copy_bytes(&mut spu, &src, &mut dst);
        assert_eq!(&dst[..77], &src[..]);
        fill_bytes(&mut spu, &mut dst, 0xAB);
        assert!(dst.iter().all(|&b| b == 0xAB));
        let c = spu.counters();
        assert!(c.odd > 0 && c.scalar > 0, "both paths exercised");
    }

    #[test]
    fn dot_matches_reference_exactly() {
        let mut spu = Spu::new();
        for n in [0usize, 1, 4, 7, 64, 166] {
            let a = floats(n, 1);
            let b = floats(n, 2);
            let simd = dot_f32(&mut spu, &a, &b);
            let reference = dot_reference(&a, &b);
            assert_eq!(simd.to_bits(), reference.to_bits(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn dot_length_mismatch_panics() {
        let mut spu = Spu::new();
        let _ = dot_f32(&mut spu, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut spu = Spu::new();
        let x = floats(37, 3);
        let mut y = floats(37, 4);
        let y0 = y.clone();
        axpy_f32(&mut spu, 2.5, &x, &mut y);
        // 9 quads × (2 loads + FMA + store), then a 1-element scalar tail.
        let c = spu.counters();
        assert_eq!((c.even, c.odd, c.scalar), (9, 27, 2));
        for i in 0..37 {
            assert_eq!(
                y[i].to_bits(),
                2.5f32.mul_add(x[i], y0[i]).to_bits(),
                "i={i}"
            );
        }
    }

    #[test]
    fn sum_is_close_and_deterministic() {
        let mut spu = Spu::new();
        let data = floats(129, 5);
        let a = sum_f32(&mut spu, &data);
        let b = sum_f32(&mut spu, &data);
        assert_eq!(a.to_bits(), b.to_bits());
        let naive: f32 = data.iter().sum();
        assert!((a - naive).abs() < 1e-3, "{a} vs {naive}");
    }

    #[test]
    fn max_u8_matches_iterator_max() {
        let mut spu = Spu::new();
        for n in [1usize, 15, 16, 17, 100] {
            let mut r = SplitMix64::new(n as u64);
            let data: Vec<u8> = (0..n).map(|_| r.next_u32() as u8).collect();
            assert_eq!(
                max_u8(&mut spu, &data),
                *data.iter().max().unwrap(),
                "n={n}"
            );
        }
    }

    #[test]
    fn issue_rates_are_vectorized() {
        let mut spu = Spu::new();
        let a = floats(1024, 7);
        let b = floats(1024, 8);
        let _ = dot_f32(&mut spu, &a, &b);
        let c = spu.counters();
        // 256 quads × (2 loads + 1 FMA), then the horizontal sum.
        assert_eq!((c.even, c.odd), (258, 514));
        let per_elem = (c.even + c.odd) as f64 / 1024.0;
        assert!(per_elem < 1.0, "{per_elem:.2} issues/element");
    }
}
