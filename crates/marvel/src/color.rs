//! RGB→HSV conversion and MARVEL's 166-bin HSV quantization.
//!
//! Paper §5.1: "the color histogram is computed on the HSV image
//! representation, and quantized in 166 bins" — the classic Smith & Chang
//! scheme (Smith & Chang, SPIE 1996): 18 hues × 3 saturations × 3 values = 162 chromatic bins,
//! plus 4 gray bins, total 166.
//!
//! Two implementations of the pixel→bin map live here:
//!
//! * [`quantize_rgb`] — plain scalar (used by the reference pipeline and
//!   as ground truth in tests);
//! * [`quantize_row_simd`] — the SPE form: the scalar map, charged as the
//!   branch-free compare/select ladder over 16 pixels at a time that a
//!   hand-SIMDized SPU kernel issues.

use cell_core::{OpClass, OpProfile};
use cell_spu::Spu;

/// Number of quantized color bins.
pub const NUM_BINS: usize = 166;

/// Chromatic geometry: 18 hues × 3 saturations × 3 values, then 4 grays.
pub const HUE_BINS: u32 = 18;
pub const SAT_BINS: u32 = 3;
pub const VAL_BINS: u32 = 3;
pub const GRAY_BINS: u32 = 4;

/// Integer HSV: h in 0..360, s in 0..=255, v in 0..=255.
///
/// Pure integer math so the SIMD and scalar paths can agree bit-for-bit.
#[inline]
pub fn rgb_to_hsv(r: u8, g: u8, b: u8) -> (u16, u8, u8) {
    let (r32, g32, b32) = (r as i32, g as i32, b as i32);
    let max = r32.max(g32).max(b32);
    let min = r32.min(g32).min(b32);
    let delta = max - min;
    let v = max as u8;
    let s = if max == 0 {
        0
    } else {
        (255 * delta / max) as u8
    };
    let h = if delta == 0 {
        0
    } else if max == r32 {
        (60 * (g32 - b32) / delta).rem_euclid(360)
    } else if max == g32 {
        120 + 60 * (b32 - r32) / delta
    } else {
        240 + 60 * (r32 - g32) / delta
    };
    (h as u16, s, v)
}

/// Saturation threshold below which a pixel counts as gray.
pub const GRAY_SAT_THRESHOLD: u8 = 26; // ~10 %

/// Scalar pixel → bin map (ground truth).
#[inline]
pub fn quantize_rgb(r: u8, g: u8, b: u8) -> u8 {
    let (h, s, v) = rgb_to_hsv(r, g, b);
    if s < GRAY_SAT_THRESHOLD {
        // Gray bins 162..=165 by value quartile.
        return (162 + (v as u32 * GRAY_BINS / 256)) as u8;
    }
    let hq = (h as u32 * HUE_BINS / 360).min(HUE_BINS - 1);
    let sq = ((s as u32 - GRAY_SAT_THRESHOLD as u32) * SAT_BINS
        / (256 - GRAY_SAT_THRESHOLD as u32))
        .min(SAT_BINS - 1);
    let vq = (v as u32 * VAL_BINS / 256).min(VAL_BINS - 1);
    (hq * SAT_BINS * VAL_BINS + sq * VAL_BINS + vq) as u8
}

/// Scalar pixel → bin with operation accounting for the cost models: the
/// HSV conversion plus quantization is ~25 scalar ops and a couple of
/// data-dependent branches per pixel.
#[inline]
pub fn quantize_rgb_counted(r: u8, g: u8, b: u8, prof: &mut OpProfile) -> u8 {
    prof.record(OpClass::Load, 3);
    prof.record(OpClass::IntAlu, 14); // max/min ladder, deltas, compares
    prof.record(OpClass::IntMul, 4); // scaling multiplies
    prof.record(OpClass::IntDiv, 2); // the two divides (hue, saturation)
    prof.record(OpClass::BranchHard, 2); // max-channel and gray tests
    prof.record(OpClass::Store, 1);
    quantize_rgb(r, g, b)
}

/// Quantize one row of interleaved RGB into bins, scalar (reference).
pub fn quantize_row(rgb: &[u8], out: &mut [u8]) {
    debug_assert_eq!(rgb.len(), out.len() * 3);
    for (dst, px) in out.iter_mut().zip(rgb.chunks_exact(3)) {
        *dst = quantize_rgb(px[0], px[1], px[2]);
    }
}

/// SIMD row quantization for the SPE kernels.
///
/// Strategy: de-interleave 16 RGB pixels into three byte vectors with
/// shuffles, run the max/min ladder and compare/select chains with byte
/// SIMD, and resolve the divides with the u16 reciprocal-multiply trick —
/// all branch-free. A ragged tail shorter than 16 pixels runs
/// scalar-in-vector.
///
/// The bins come from [`quantize_row`]; the SPU pays that issue sequence
/// per 16 pixels: 3 quadword loads, 6 deinterleave shuffles, the
/// max/min/delta ladder (5 even), the widened hue/saturation arithmetic
/// (~22 even + ~6 odd, measured from the scalar op mix) and one store.
/// Each tail pixel pays 3 scalar loads, 20 scalar ops and a scalar store.
pub fn quantize_row_simd(spu: &mut Spu, rgb: &[u8], out: &mut [u8]) {
    debug_assert_eq!(rgb.len(), out.len() * 3);
    quantize_row(rgb, out);
    let blocks = (out.len() / 16) as u64;
    spu.charge_even(27 * blocks);
    spu.charge_odd(16 * blocks);
    spu.scalar_op(24 * (out.len() % 16) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsv_primaries() {
        assert_eq!(rgb_to_hsv(255, 0, 0).0, 0);
        assert_eq!(rgb_to_hsv(0, 255, 0).0, 120);
        assert_eq!(rgb_to_hsv(0, 0, 255).0, 240);
        // White: zero saturation, full value.
        let (_, s, v) = rgb_to_hsv(255, 255, 255);
        assert_eq!(s, 0);
        assert_eq!(v, 255);
        // Black.
        let (_, s, v) = rgb_to_hsv(0, 0, 0);
        assert_eq!(s, 0);
        assert_eq!(v, 0);
    }

    #[test]
    fn hue_wraps_into_range() {
        // Magenta-ish colors exercise the rem_euclid wrap.
        for (r, g, b) in [(255u8, 0u8, 128u8), (255, 0, 255), (128, 0, 255)] {
            let (h, _, _) = rgb_to_hsv(r, g, b);
            assert!(h < 360, "hue {h} out of range for ({r},{g},{b})");
        }
    }

    #[test]
    fn bins_cover_exactly_166() {
        let mut seen = [false; 256];
        // Sweep a dense color lattice.
        for r in (0..=255).step_by(5) {
            for g in (0..=255).step_by(5) {
                for b in (0..=255).step_by(5) {
                    seen[quantize_rgb(r as u8, g as u8, b as u8) as usize] = true;
                }
            }
        }
        let max_bin = (0..256).rev().find(|&i| seen[i]).unwrap();
        assert!(max_bin < NUM_BINS, "bin {max_bin} out of range");
        let used = seen.iter().filter(|&&s| s).count();
        assert!(
            used > 100,
            "only {used} bins used by the lattice — quantizer degenerate"
        );
    }

    #[test]
    fn grays_land_in_gray_bins() {
        for v in [0u8, 80, 160, 255] {
            let bin = quantize_rgb(v, v, v);
            assert!((162..166).contains(&(bin as usize)), "gray {v} → bin {bin}");
        }
        // Ordering: darker grays in lower gray bins.
        assert!(quantize_rgb(10, 10, 10) < quantize_rgb(250, 250, 250));
    }

    #[test]
    fn saturated_colors_land_in_chromatic_bins() {
        for (r, g, b) in [(255u8, 0u8, 0u8), (0, 255, 0), (0, 0, 255), (255, 255, 0)] {
            let bin = quantize_rgb(r, g, b);
            assert!((bin as usize) < 162, "({r},{g},{b}) → gray bin {bin}?");
        }
        // Different hues → different bins.
        assert_ne!(quantize_rgb(255, 0, 0), quantize_rgb(0, 255, 0));
    }

    #[test]
    fn counted_matches_uncounted() {
        let mut prof = OpProfile::new();
        for (r, g, b) in [(1u8, 2u8, 3u8), (200, 100, 50), (128, 128, 128)] {
            assert_eq!(
                quantize_rgb(r, g, b),
                quantize_rgb_counted(r, g, b, &mut prof)
            );
        }
        assert!(prof.count(OpClass::IntDiv) == 6);
        assert!(prof.total_ops() > 0);
    }

    #[test]
    fn simd_row_matches_scalar_row() {
        // Includes a ragged tail (37 = 2×16 + 5).
        let img = crate::image::ColorImage::synthetic(37, 9, 42).unwrap();
        let mut spu = Spu::new();
        for y in 0..img.height() {
            let row = img.row(y);
            let mut scalar = vec![0u8; img.width()];
            let mut simd = vec![0u8; img.width()];
            quantize_row(row, &mut scalar);
            quantize_row_simd(&mut spu, row, &mut simd);
            assert_eq!(scalar, simd, "row {y} diverged");
        }
        // And the SIMD path must actually have issued SIMD work.
        let c = spu.counters();
        assert!(c.even > 0 && c.odd > 0);
        assert!(c.scalar > 0, "ragged tail must use the scalar path");
    }

    #[test]
    fn simd_op_rate_is_sub_scalar() {
        // The point of the exercise: per pixel, the SIMD path issues far
        // fewer operations than the ~25 scalar ops of the reference.
        let img = crate::image::ColorImage::synthetic(352, 16, 3).unwrap();
        let mut spu = Spu::new();
        let mut out = vec![0u8; img.width()];
        for y in 0..img.height() {
            quantize_row_simd(&mut spu, img.row(y), &mut out);
        }
        let c = spu.counters();
        let pixels = (img.width() * img.height()) as f64;
        let issues_per_pixel = (c.even + c.odd) as f64 / pixels;
        assert!(
            issues_per_pixel < 4.0,
            "SIMD quantizer at {issues_per_pixel:.2} issues/pixel — not SIMDized enough"
        );
    }
}
