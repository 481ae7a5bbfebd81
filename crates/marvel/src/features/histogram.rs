//! CHExtract — the 166-bin HSV color histogram (paper kernel 1, 8 %).
//!
//! "The color histogram of an image is computed by discretizing the colors
//! within an image and counting the number of colors that fall into each
//! bin" (§5.2). The bin map is the 166-bin HSV quantization of
//! [`crate::color`].

use cell_core::{OpClass, OpProfile};
use cell_spu::Spu;

use crate::color::{quantize_rgb, quantize_rgb_counted, quantize_row_simd, NUM_BINS};
use crate::features::{normalize_l1, Feature};
use crate::image::ColorImage;

/// Reference extraction: scalar, whole image.
pub fn extract(img: &ColorImage) -> Feature {
    let mut counts = [0u32; NUM_BINS];
    for px in img.data().chunks_exact(3) {
        counts[quantize_rgb(px[0], px[1], px[2]) as usize] += 1;
    }
    normalize_l1(&counts)
}

/// Reference extraction with operation accounting.
pub fn extract_counted(img: &ColorImage, prof: &mut OpProfile) -> Feature {
    let mut counts = [0u32; NUM_BINS];
    for px in img.data().chunks_exact(3) {
        let bin = quantize_rgb_counted(px[0], px[1], px[2], prof);
        counts[bin as usize] += 1;
        // Histogram increment: load, add, store.
        prof.record(OpClass::Load, 1);
        prof.record(OpClass::IntAlu, 1);
        prof.record(OpClass::Store, 1);
        prof.record(OpClass::Branch, 1); // loop
    }
    // Normalization pass.
    prof.record(OpClass::FpDiv, NUM_BINS as u64);
    prof.record(OpClass::Load, NUM_BINS as u64);
    prof.record(OpClass::Store, NUM_BINS as u64);
    normalize_l1(&counts)
}

/// Sliced extraction state: counts accumulated row band by row band (the
/// SPE kernel's inner form — CH needs no halo).
#[derive(Debug, Clone)]
pub struct SlicedHistogram {
    counts: [u32; NUM_BINS],
}

impl SlicedHistogram {
    pub fn new() -> Self {
        SlicedHistogram {
            counts: [0; NUM_BINS],
        }
    }

    /// Accumulate a band of interleaved RGB rows (scalar form).
    pub fn update(&mut self, rgb_band: &[u8]) {
        for px in rgb_band.chunks_exact(3) {
            self.counts[quantize_rgb(px[0], px[1], px[2]) as usize] += 1;
        }
    }

    /// Accumulate a band using the SPE SIMD quantizer. The histogram
    /// scatter uses the 16-sub-histogram technique: each SIMD lane owns a
    /// private histogram so increments need no cross-lane conflict
    /// resolution; [`Self::finish`] merges them. Issue costs on top of the
    /// quantization: one odd extract and one hinted loop branch per pixel,
    /// and per four pixels one even add plus an odd load and store across
    /// the lane-private histograms.
    pub fn update_simd(&mut self, spu: &mut Spu, rgb_band: &[u8], bins_scratch: &mut [u8]) {
        let pixels = rgb_band.len() / 3;
        let bins = &mut bins_scratch[..pixels];
        quantize_row_simd(spu, rgb_band, bins);
        for &b in bins.iter() {
            self.counts[b as usize] += 1;
            spu.branch();
        }
        let quads = (pixels as u64).div_ceil(4);
        spu.charge_odd(pixels as u64 + 2 * quads);
        spu.charge_even(quads);
    }

    /// Final feature vector.
    pub fn finish(&self) -> Feature {
        normalize_l1(&self.counts)
    }

    pub fn counts(&self) -> &[u32; NUM_BINS] {
        &self.counts
    }
}

impl Default for SlicedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The freshly *ported* SPE form (paper §5.3). CH's starting point was
/// already 26.41× the PPE — only possible if the port's clean inner loop
/// auto-vectorized, which a quantization loop over contiguous pixels
/// does. What stayed scalar after the port: the histogram update and the
/// (single-buffered) data transfer; optimization then only doubled it to
/// 53.67×. This variant models exactly that state.
pub fn update_ported_spu(
    spu: &mut Spu,
    counts: &mut [u32; NUM_BINS],
    rgb_band: &[u8],
    bins_scratch: &mut [u8],
) {
    let pixels = rgb_band.len() / 3;
    let bins = &mut bins_scratch[..pixels];
    quantize_row_simd(spu, rgb_band, bins);
    for &b in bins.iter() {
        counts[b as usize] += 1;
        spu.scalar_op(2); // scalar load-increment-store
        spu.branch(); // loop, predictable
    }
}

/// Unoptimized SPE form: plain scalar code straight from the C++ port,
/// every access paying the scalar-in-vector penalty. (Kept for the
/// ablation comparison; the §5.3 reproduction uses
/// [`update_ported_spu`].)
pub fn update_unoptimized_spu(spu: &mut Spu, counts: &mut [u32; NUM_BINS], rgb_band: &[u8]) {
    let pixels = rgb_band.len() / 3;
    for i in 0..pixels {
        let r = spu.scalar_load_u8(rgb_band, i * 3);
        let g = spu.scalar_load_u8(rgb_band, i * 3 + 1);
        let b = spu.scalar_load_u8(rgb_band, i * 3 + 2);
        spu.scalar_op(20); // HSV + quantize arithmetic
        spu.branch_hard();
        spu.branch_hard();
        let bin = quantize_rgb(r, g, b);
        counts[bin as usize] += 1;
        spu.scalar_op(2); // increment load+store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> ColorImage {
        ColorImage::synthetic(64, 48, 21).unwrap()
    }

    #[test]
    fn histogram_is_normalized_and_sized() {
        let f = extract(&img());
        assert_eq!(f.len(), NUM_BINS);
        let sum: f32 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn flat_image_concentrates_in_one_bin() {
        let mut flat = ColorImage::new(16, 16).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                flat.set(x, y, (255, 0, 0));
            }
        }
        let f = extract(&flat);
        let max = f.iter().cloned().fold(0.0f32, f32::max);
        assert!((max - 1.0).abs() < 1e-6, "all mass in the red bin");
    }

    #[test]
    fn counted_matches_plain() {
        let mut prof = OpProfile::new();
        assert_eq!(extract(&img()), extract_counted(&img(), &mut prof));
        // ~25 ops/pixel: the profile must be in that ballpark.
        let per_pixel = prof.total_ops() as f64 / (64.0 * 48.0);
        assert!((15.0..40.0).contains(&per_pixel), "{per_pixel} ops/pixel");
    }

    #[test]
    fn sliced_equals_reference_for_any_band_split() {
        let image = img();
        let reference = extract(&image);
        for band_rows in [1usize, 3, 7, 16, 48] {
            let mut sl = SlicedHistogram::new();
            let rb = image.row_bytes();
            for band in image.data().chunks(band_rows * rb) {
                sl.update(band);
            }
            assert_eq!(sl.finish(), reference, "band of {band_rows} rows diverged");
        }
    }

    #[test]
    fn simd_sliced_equals_reference() {
        let image = img();
        let reference = extract(&image);
        let mut sl = SlicedHistogram::new();
        let mut spu = Spu::new();
        let mut scratch = vec![0u8; image.width() * 8];
        let rb = image.row_bytes();
        for band in image.data().chunks(8 * rb) {
            sl.update_simd(&mut spu, band, &mut scratch);
        }
        assert_eq!(sl.finish(), reference);
        assert!(spu.counters().even > 0);
    }

    #[test]
    fn simd_issue_rate_beats_scalar_op_rate() {
        let image = img();
        let mut sl = SlicedHistogram::new();
        let mut spu = Spu::new();
        let mut scratch = vec![0u8; image.width() * 48];
        sl.update_simd(&mut spu, image.data(), &mut scratch);
        let c = spu.counters();
        let per_px = (c.even + c.odd + c.scalar) as f64 / image.pixel_count() as f64;
        assert!(
            per_px < 8.0,
            "{per_px:.2} issues/pixel — SIMD CH too expensive"
        );
    }

    #[test]
    fn unoptimized_spu_form_matches_and_is_scalar_heavy() {
        let image = img();
        let reference = extract(&image);
        let mut counts = [0u32; NUM_BINS];
        let mut spu = Spu::new();
        update_unoptimized_spu(&mut spu, &mut counts, image.data());
        assert_eq!(normalize_l1(&counts), reference);
        let c = spu.counters();
        assert!(c.scalar as usize > image.pixel_count() * 20);
        assert!(c.branches_hard as usize >= image.pixel_count());
    }

    #[test]
    fn counts_accessor_totals_pixels() {
        let image = img();
        let mut sl = SlicedHistogram::new();
        sl.update(image.data());
        let total: u64 = sl.counts().iter().map(|&c| c as u64).sum();
        assert_eq!(total, image.pixel_count() as u64);
    }
}
