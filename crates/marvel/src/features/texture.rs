//! TXExtract — wavelet subband texture features (paper kernel 3, 6 %).
//!
//! "Texture features are derived from the pattern of spatial-frequency
//! energy across image subbands" (§5.2, after Naphade/Lin/Smith). The
//! implementation: grayscale → 3-level 2D Haar transform → mean absolute
//! detail energy per subband (LH, HL, HH at each level) plus the final
//! approximation mean — a 10-dimensional feature.
//!
//! Integer Haar (unnormalized sums, exact) keeps the scalar, banded and
//! SIMD paths bit-identical.

use cell_core::{OpClass, OpProfile};
use cell_spu::Spu;

use crate::features::Feature;
use crate::image::{ColorImage, GrayImage};

/// Decomposition depth.
pub const LEVELS: usize = 3;

/// Feature dimensionality: 3 detail bands × 3 levels + final LL mean.
pub const TX_DIM: usize = 3 * LEVELS + 1;

/// One 2×2 Haar step on four pixels (unnormalized).
#[inline]
fn haar4(x00: i32, x01: i32, x10: i32, x11: i32) -> (i32, i32, i32, i32) {
    let ll = x00 + x01 + x10 + x11;
    let lh = x00 - x01 + x10 - x11; // horizontal detail
    let hl = x00 + x01 - x10 - x11; // vertical detail
    let hh = x00 - x01 - x10 + x11; // diagonal detail
    (ll, lh, hl, hh)
}

/// Accumulates one level's detail energies and produces the next LL.
fn transform_level(ll: &[i32], w: usize, h: usize) -> (Vec<i32>, usize, usize, [u64; 3]) {
    let (nw, nh) = (w / 2, h / 2);
    let mut next = vec![0i32; nw * nh];
    let mut energy = [0u64; 3]; // |LH|, |HL|, |HH| sums
    for y in 0..nh {
        for x in 0..nw {
            let (x00, x01) = (ll[2 * y * w + 2 * x], ll[2 * y * w + 2 * x + 1]);
            let (x10, x11) = (ll[(2 * y + 1) * w + 2 * x], ll[(2 * y + 1) * w + 2 * x + 1]);
            let (a, lh, hl, hh) = haar4(x00, x01, x10, x11);
            next[y * nw + x] = a / 4;
            energy[0] += lh.unsigned_abs() as u64;
            energy[1] += hl.unsigned_abs() as u64;
            energy[2] += hh.unsigned_abs() as u64;
        }
    }
    (next, nw, nh, energy)
}

fn finish_feature(per_level: &[[u64; 3]], counts: &[u64], final_ll: &[i32]) -> Feature {
    let mut f = Vec::with_capacity(TX_DIM);
    for (level, (e, &n)) in per_level.iter().zip(counts).enumerate() {
        // Detail coefficients at level L span ±(4^{L+1} / 4)·255·… — the
        // unnormalized 2×2 sums quadruple per level; normalize to [0, 1].
        let scale = (n.max(1) as f64) * 4.0f64.powi(level as i32 + 1) * 255.0 / 2.0;
        for &band in e {
            f.push((band as f64 / scale) as f32);
        }
    }
    let ll_mean = if final_ll.is_empty() {
        0.0
    } else {
        final_ll.iter().map(|&v| v as f64).sum::<f64>() / (final_ll.len() as f64 * 255.0)
    };
    f.push(ll_mean as f32);
    f
}

/// Reference extraction.
pub fn extract(img: &ColorImage) -> Feature {
    extract_gray(&img.to_gray())
}

/// Reference extraction from a prepared gray plane.
pub fn extract_gray(gray: &GrayImage) -> Feature {
    let (mut w, mut h) = (gray.width(), gray.height());
    let mut ll: Vec<i32> = gray.data().iter().map(|&v| v as i32).collect();
    let mut per_level = Vec::with_capacity(LEVELS);
    let mut counts = Vec::with_capacity(LEVELS);
    for _ in 0..LEVELS {
        if w < 2 || h < 2 {
            per_level.push([0u64; 3]);
            counts.push(0);
            continue;
        }
        let (next, nw, nh, energy) = transform_level(&ll, w, h);
        per_level.push(energy);
        counts.push((nw * nh) as u64);
        ll = next;
        w = nw;
        h = nh;
    }
    finish_feature(&per_level, &counts, &ll)
}

/// Reference extraction with operation accounting: gray conversion plus
/// the geometric series of per-level 2×2 transforms.
pub fn extract_counted(img: &ColorImage, prof: &mut OpProfile) -> Feature {
    let px = img.pixel_count() as u64;
    // Gray conversion: 3 loads, 3 mul, 2 add, shift, store per pixel.
    prof.record(OpClass::Load, px * 3);
    prof.record(OpClass::IntMul, px * 3);
    prof.record(OpClass::IntAlu, px * 3);
    prof.record(OpClass::Store, px);
    // The original C++ wavelet runs in single-precision float with
    // separable horizontal + vertical passes: per output coefficient,
    // ~8 loads, ~16 float adds/subs, 4 float scaling multiplies, 2 stores
    // and the |coef| energy accumulation. (Our integer Haar is the
    // SPE-side optimization; the reference machines pay the float cost.)
    let mut outputs = px / 4;
    for _ in 0..LEVELS {
        prof.record(OpClass::Load, outputs * 8);
        prof.record(OpClass::FpAdd, outputs * 16);
        prof.record(OpClass::FpMul, outputs * 4);
        prof.record(OpClass::FpAdd, outputs * 3); // energy accumulate
        prof.record(OpClass::Store, outputs * 2);
        prof.record(OpClass::Branch, outputs);
        outputs /= 4;
    }
    prof.record(OpClass::FpDiv, TX_DIM as u64);
    extract(img)
}

/// Banded accumulator: the SPE kernel feeds gray rows in pairs; level 1 is
/// transformed on the fly, deeper levels run in [`Self::finish`] on the
/// retained LL plane (which is 4× smaller than the image and fits the LS).
#[derive(Debug, Clone)]
pub struct TextureAcc {
    width: usize,
    ll1: Vec<i32>,
    level1_energy: [u64; 3],
    rows_in: usize,
}

impl TextureAcc {
    pub fn new(width: usize) -> Self {
        TextureAcc {
            width,
            ll1: Vec::new(),
            level1_energy: [0; 3],
            rows_in: 0,
        }
    }

    /// Feed a band of gray rows. Bands must contain an even number of
    /// rows (pairs are consumed whole); the total fed must equal the
    /// image height before `finish`.
    pub fn update_band(&mut self, gray_rows: &[u8]) {
        assert_eq!(
            gray_rows.len() % (2 * self.width),
            0,
            "bands must be whole row pairs"
        );
        let w = self.width;
        for pair in gray_rows.chunks_exact(2 * w) {
            let (r0, r1) = pair.split_at(w);
            for x in 0..w / 2 {
                let (a, lh, hl, hh) = haar4(
                    r0[2 * x] as i32,
                    r0[2 * x + 1] as i32,
                    r1[2 * x] as i32,
                    r1[2 * x + 1] as i32,
                );
                self.ll1.push(a / 4);
                self.level1_energy[0] += lh.unsigned_abs() as u64;
                self.level1_energy[1] += hl.unsigned_abs() as u64;
                self.level1_energy[2] += hh.unsigned_abs() as u64;
            }
            self.rows_in += 2;
        }
    }

    /// SIMD band processing: row pairs, eight 2×2 blocks per iteration.
    /// Even/odd columns separate with shuffle patterns; sums/differences
    /// run in i16 lanes (safe: |coeff| ≤ 1020). The coefficients come
    /// from [`Self::update_band`]; the SPU pays per eight 2×2 blocks:
    ///
    /// * two row loads and four column shuffles (odd), eight i16
    ///   sums/differences (even);
    /// * the single-precision arithmetic the ported kernel keeps (only
    ///   4 lanes wide): 36 FMAs and 10 int→float converts (even) with
    ///   their 10 widening unpacks (odd);
    /// * per detail band |v| via negate/compare/select (3 even) and a
    ///   horizontal sum (2 odd + 2 even);
    /// * the LL/4 shift (even) and its store (odd).
    ///
    /// A ragged tail pays 14 scalar ops per 2×2 block.
    pub fn update_band_simd(&mut self, spu: &mut Spu, gray_rows: &[u8]) {
        self.update_band(gray_rows);
        let pairs = (gray_rows.len() / (2 * self.width)) as u64;
        let half = (self.width / 2) as u64;
        spu.charge_odd(23 * pairs * (half / 8));
        spu.charge_even(70 * pairs * (half / 8));
        spu.scalar_op(14 * pairs * (half % 8));
    }

    /// Run levels 2.. on the retained LL plane and produce the feature.
    pub fn finish(self) -> Feature {
        let w1 = self.width / 2;
        let h1 = self.rows_in / 2;
        debug_assert_eq!(self.ll1.len(), w1 * h1);
        let mut per_level = vec![self.level1_energy];
        let mut counts = vec![(w1 * h1) as u64];
        let (mut ll, mut w, mut h) = (self.ll1, w1, h1);
        for _ in 1..LEVELS {
            if w < 2 || h < 2 {
                per_level.push([0; 3]);
                counts.push(0);
                continue;
            }
            let (next, nw, nh, energy) = transform_level(&ll, w, h);
            per_level.push(energy);
            counts.push((nw * nh) as u64);
            ll = next;
            w = nw;
            h = nh;
        }
        finish_feature(&per_level, &counts, &ll)
    }
}

/// The exact i16 SIMD equivalence precondition: Haar sums of u8 inputs
/// stay within ±1020, far inside i16.
#[cfg(test)]
const _: () = assert!(4 * 255 <= i16::MAX as usize);

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> ColorImage {
        ColorImage::synthetic(64, 48, 41).unwrap()
    }

    #[test]
    fn feature_shape() {
        let f = extract(&img());
        assert_eq!(f.len(), TX_DIM);
        assert!(f.iter().all(|v| v.is_finite()));
        assert!(f.iter().all(|&v| (0.0..=1.5).contains(&v)), "{f:?}");
    }

    #[test]
    fn flat_image_has_zero_detail_energy() {
        let mut flat = ColorImage::new(32, 32).unwrap();
        for y in 0..32 {
            for x in 0..32 {
                flat.set(x, y, (128, 128, 128));
            }
        }
        let f = extract(&flat);
        for (i, &v) in f.iter().take(TX_DIM - 1).enumerate() {
            assert_eq!(v, 0.0, "detail band {i} nonzero on a flat image");
        }
        assert!(f[TX_DIM - 1] > 0.3, "LL mean should reflect mid-gray");
    }

    #[test]
    fn textured_beats_smooth() {
        // Vertical stripes: strong horizontal-detail (LH) energy.
        let mut stripes = ColorImage::new(32, 32).unwrap();
        for y in 0..32 {
            for x in 0..32 {
                let v = if x % 2 == 0 { 255 } else { 0 };
                stripes.set(x, y, (v, v, v));
            }
        }
        let f_stripes = extract(&stripes);
        let mut smooth = ColorImage::new(32, 32).unwrap();
        for y in 0..32 {
            for x in 0..32 {
                let v = (x * 8) as u8;
                smooth.set(x, y, (v, v, v));
            }
        }
        let f_smooth = extract(&smooth);
        assert!(
            f_stripes[0] > 10.0 * f_smooth[0].max(1e-6),
            "stripes LH {} vs smooth {}",
            f_stripes[0],
            f_smooth[0]
        );
        // Stripes are purely horizontal-frequency: HL (vertical detail)
        // stays at zero.
        assert_eq!(f_stripes[1], 0.0);
    }

    #[test]
    fn banded_equals_reference() {
        let image = img();
        let reference = extract(&image);
        let gray = image.to_gray();
        for band_pairs in [1usize, 2, 4, 12] {
            let mut acc = TextureAcc::new(gray.width());
            for band in gray.data().chunks(band_pairs * 2 * gray.width()) {
                acc.update_band(band);
            }
            assert_eq!(
                acc.finish(),
                reference,
                "band of {band_pairs} row pairs diverged"
            );
        }
    }

    #[test]
    fn simd_equals_reference() {
        // 52 exercises the ragged tail (52/2 = 26 = 3×8 + 2).
        let image = ColorImage::synthetic(52, 40, 43).unwrap();
        let reference = extract(&image);
        let gray = image.to_gray();
        let mut acc = TextureAcc::new(gray.width());
        let mut spu = Spu::new();
        for band in gray.data().chunks(4 * gray.width()) {
            acc.update_band_simd(&mut spu, band);
        }
        assert_eq!(acc.finish(), reference);
        let c = spu.counters();
        assert!(c.even > 0 && c.odd > 0);
        assert!(c.scalar > 0, "ragged tail exercised");
    }

    #[test]
    #[should_panic(expected = "whole row pairs")]
    fn odd_band_rejected() {
        let mut acc = TextureAcc::new(8);
        acc.update_band(&[0u8; 8]); // one row, not a pair
    }

    #[test]
    fn counted_matches() {
        let image = img();
        let mut prof = OpProfile::new();
        assert_eq!(extract(&image), extract_counted(&image, &mut prof));
        // TX is cheap: an order less work per pixel than CC's probes.
        let per_px = prof.total_ops() as f64 / image.pixel_count() as f64;
        assert!((5.0..30.0).contains(&per_px), "{per_px:.1} ops/pixel");
    }

    #[test]
    fn simd_issue_rate() {
        let image = img();
        let gray = image.to_gray();
        let mut acc = TextureAcc::new(gray.width());
        let mut spu = Spu::new();
        acc.update_band_simd(&mut spu, gray.data());
        let c = spu.counters();
        let per_px = (c.even.max(c.odd)) as f64 / image.pixel_count() as f64;
        assert!(per_px < 5.0, "{per_px:.2} issues/pixel");
    }
}
