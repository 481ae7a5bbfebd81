//! CCExtract — the color auto-correlogram (paper kernel 2, 54 %).
//!
//! "For each pixel P, it counts how many pixels there are within a square
//! window of size 17x17 around P belonging to the same histogram bin as P"
//! (§5.2, after Huang et al.). The feature reported per bin is the
//! probability that a window neighbour of a pixel of color *c* also has
//! color *c*: `same[c] / examined[c]`, with windows clipped at the image
//! border and the centre pixel excluded.
//!
//! This is the paper's dominant kernel: ~289 neighbour probes per pixel
//! dwarf everything else, which is exactly why its coverage is 54 % and
//! why the whole application's speed-up hinges on it.

use cell_core::{OpClass, OpProfile};
use cell_spu::Spu;

use crate::color::{quantize_row, NUM_BINS};
use crate::features::Feature;
use crate::image::ColorImage;

/// Window radius: a 17×17 window is radius 8.
pub const RADIUS: usize = 8;

/// Quantize a whole image into a bin plane.
pub fn quantize_image(img: &ColorImage) -> Vec<u8> {
    let mut bins = vec![0u8; img.pixel_count()];
    for (row_bins, y) in bins.chunks_mut(img.width()).zip(0..) {
        quantize_row(img.row(y), row_bins);
    }
    bins
}

/// Reference extraction: scalar, whole image.
pub fn extract(img: &ColorImage) -> Feature {
    let bins = quantize_image(img);
    let mut acc = CorrelogramAcc::new(img.width(), img.height());
    acc.update_rows(&bins, 0, img.height());
    acc.finish()
}

/// Reference extraction with operation accounting.
pub fn extract_counted(img: &ColorImage, prof: &mut OpProfile) -> Feature {
    // Pass 1: quantization (same cost as the CH inner map).
    let bins = {
        let mut b = vec![0u8; img.pixel_count()];
        for (row_bins, y) in b.chunks_mut(img.width()).zip(0..) {
            for (dst, px) in row_bins.iter_mut().zip(img.row(y).chunks_exact(3)) {
                *dst = crate::color::quantize_rgb_counted(px[0], px[1], px[2], prof);
            }
        }
        b
    };
    // Pass 2: window probes — the hot loop. The C++ inner loop is a tight
    // unrolled byte-compare scan over contiguous rows: the compiler reads
    // bins a word at a time (one load per ~4 probes), the compare+count
    // pair mostly dual-issues (~1.5 ALU ops/probe), and the loop branch
    // amortizes over the unroll factor. This is why the paper's CC sits
    // at 54 % rather than eating the whole profile.
    let (w, h) = (img.width(), img.height());
    let mut probes = 0u64;
    for y in 0..h {
        let y0 = y.saturating_sub(RADIUS);
        let y1 = (y + RADIUS).min(h - 1);
        for x in 0..w {
            let x0 = x.saturating_sub(RADIUS);
            let x1 = (x + RADIUS).min(w - 1);
            probes += ((y1 - y0 + 1) * (x1 - x0 + 1) - 1) as u64;
        }
    }
    prof.record(OpClass::Load, probes / 4);
    prof.record(OpClass::IntAlu, probes * 3 / 2);
    prof.record(OpClass::Branch, probes / 4);
    prof.record(OpClass::FpDiv, NUM_BINS as u64);

    let mut acc = CorrelogramAcc::new(w, h);
    acc.update_rows(&bins, 0, h);
    acc.finish()
}

/// Correlogram accumulator over a bin plane — usable whole-image (the
/// reference) or band-by-band with halos (the SPE kernel).
#[derive(Debug, Clone)]
pub struct CorrelogramAcc {
    width: usize,
    height: usize,
    same: Vec<u64>,
    examined: Vec<u64>,
}

impl CorrelogramAcc {
    pub fn new(width: usize, height: usize) -> Self {
        CorrelogramAcc {
            width,
            height,
            same: vec![0; NUM_BINS],
            examined: vec![0; NUM_BINS],
        }
    }

    /// Process centre rows `[y_start, y_end)`.
    ///
    /// `bins` must cover rows `[y_start - RADIUS, y_end + RADIUS)` clipped
    /// to the image — i.e. the band *plus its halo* (paper §3.4's border
    /// conditions). Its first row is `max(y_start - RADIUS, 0)`.
    #[allow(clippy::needless_range_loop)] // x drives window math, not just indexing
    pub fn update_rows(&mut self, bins: &[u8], y_start: usize, y_end: usize) {
        let w = self.width;
        let first_row = y_start.saturating_sub(RADIUS);
        for y in y_start..y_end {
            let wy0 = y.saturating_sub(RADIUS);
            let wy1 = (y + RADIUS).min(self.height - 1);
            let center_row = &bins[(y - first_row) * w..(y - first_row + 1) * w];
            for x in 0..w {
                let c = center_row[x];
                let wx0 = x.saturating_sub(RADIUS);
                let wx1 = (x + RADIUS).min(w - 1);
                let mut same = 0u32;
                for wy in wy0..=wy1 {
                    let row = &bins[(wy - first_row) * w..(wy - first_row + 1) * w];
                    for &n in &row[wx0..=wx1] {
                        same += (n == c) as u32;
                    }
                }
                // The centre matched itself; exclude it.
                same -= 1;
                let window = (wy1 - wy0 + 1) * (wx1 - wx0 + 1) - 1;
                self.same[c as usize] += same as u64;
                self.examined[c as usize] += window as u64;
            }
        }
    }

    /// SIMD band processing, the way hand-tuned SPE correlogram code is
    /// actually written:
    ///
    /// * rows are copied once into a scratch plane **padded with a
    ///   sentinel bin** (`0xFF`, never produced by the quantizer) for
    ///   `RADIUS` columns on each side — every centre column then runs
    ///   through the same branch-free vector loop, no scalar borders;
    /// * per window offset the inner loop is `load, cmpeq, sub` — the
    ///   0xFF/0x00 compare mask is *subtracted* from the byte
    ///   accumulators (x − 0xFF ≡ x + 1 mod 256), one even issue instead
    ///   of an and/widen/add chain;
    /// * byte accumulators are widened into u16 every 8 window rows
    ///   (8 × 17 = 136 < 255, no overflow).
    ///
    /// The host runs the same counting over whole padded rows (byte
    /// compares the compiler vectorizes) and charges each output row's
    /// SPU issue sequence per 16-pixel block in bulk. Results are
    /// bit-identical to the scalar path.
    pub fn update_rows_simd(&mut self, spu: &mut Spu, bins: &[u8], y_start: usize, y_end: usize) {
        let w = self.width;
        let first_row = y_start.saturating_sub(RADIUS);
        let rows = ((y_end + RADIUS).min(self.height) - first_row).max(1);
        // Padded scratch plane: RADIUS sentinels either side, row length
        // rounded up so vector loads never run off the end.
        let pw = w + 2 * RADIUS + 16;
        let mut padded = vec![0xFFu8; pw * rows];
        for r in 0..rows {
            padded[r * pw + RADIUS..r * pw + RADIUS + w].copy_from_slice(&bins[r * w..(r + 1) * w]);
        }
        // One load + one store per 16 bytes for the copy.
        let blocks = (w as u64).div_ceil(16);
        spu.charge_odd(2 * blocks * rows as u64);

        let mut acc8 = vec![0u8; w];
        let mut counts = vec![0u16; w];
        for y in y_start..y_end {
            let wy0 = y.saturating_sub(RADIUS);
            let wy1 = (y + RADIUS).min(self.height - 1);
            let crow = (y - first_row) * pw + RADIUS;
            let centres = &padded[crow..crow + w];
            counts.fill(0);
            for wy in wy0..=wy1 {
                let base = (wy - first_row) * pw;
                for dx in 0..=2 * RADIUS {
                    let neigh = &padded[base + dx..base + dx + w];
                    for ((acc, &n), &c) in acc8.iter_mut().zip(neigh).zip(centres) {
                        *acc += (n == c) as u8;
                    }
                }
                if (wy - wy0) % 8 == 7 || wy == wy1 {
                    for (count, acc) in counts.iter_mut().zip(&mut acc8) {
                        *count += *acc as u16;
                        *acc = 0;
                    }
                }
            }
            // The examined-window denominator uses the *clipped* column
            // range: sentinels never match but are not real neighbours
            // either.
            let wrows = (wy1 - wy0 + 1) as u64;
            for (cx, (&c, &count)) in centres.iter().zip(&counts).enumerate() {
                let wx0 = cx.saturating_sub(RADIUS);
                let wx1 = (cx + RADIUS).min(w - 1);
                // The centre matched itself; exclude it.
                self.same[c as usize] += count as u64 - 1;
                self.examined[c as usize] += wrows * (wx1 - wx0 + 1) as u64 - 1;
            }
            // Per block: the centre load; 17 loads (odd) + 17 cmpeq/sub
            // pairs (even) per window row; 2 unpacks + 2 adds per widen;
            // the min/max of the denominator ladder and one table add per
            // four lanes (even). Plus one odd extract per pixel.
            let flushes = wrows.div_ceil(8);
            spu.charge_odd(blocks * (1 + 17 * wrows + 2 * flushes) + w as u64);
            spu.charge_even(blocks * (34 * wrows + 2 * flushes + 2) + (w as u64).div_ceil(4));
        }
    }

    /// Final feature: per-bin neighbour-match probability.
    pub fn finish(&self) -> Feature {
        self.same
            .iter()
            .zip(&self.examined)
            .map(|(&s, &e)| if e == 0 { 0.0 } else { s as f32 / e as f32 })
            .collect()
    }
}

/// Unoptimized SPE form: the ported C++ loop, scalar-in-vector with
/// unhinted data-dependent branches — the paper's 0.43× case.
pub fn update_rows_unoptimized_spu(
    acc: &mut CorrelogramAcc,
    spu: &mut Spu,
    bins: &[u8],
    y_start: usize,
    y_end: usize,
) {
    let w = acc.width;
    let first_row = y_start.saturating_sub(RADIUS);
    for y in y_start..y_end {
        let wy0 = y.saturating_sub(RADIUS);
        let wy1 = (y + RADIUS).min(acc.height - 1);
        for x in 0..w {
            let c = spu.scalar_load_u8(bins, (y - first_row) * w + x);
            let wx0 = x.saturating_sub(RADIUS);
            let wx1 = (x + RADIUS).min(w - 1);
            let mut same = 0u32;
            for wy in wy0..=wy1 {
                let base = (wy - first_row) * w;
                for wx in wx0..=wx1 {
                    let n = spu.scalar_load_u8(bins, base + wx);
                    spu.branch_hard(); // `if (n == c) count++` — unhinted
                    spu.scalar_op(1);
                    same += (n == c) as u32;
                }
            }
            same -= 1;
            let window = (wy1 - wy0 + 1) * (wx1 - wx0 + 1) - 1;
            acc.same[c as usize] += same as u64;
            acc.examined[c as usize] += window as u64;
            spu.scalar_op(4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> ColorImage {
        ColorImage::synthetic(48, 40, 31).unwrap()
    }

    #[test]
    fn feature_shape_and_range() {
        let f = extract(&img());
        assert_eq!(f.len(), NUM_BINS);
        assert!(
            f.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "probabilities out of range"
        );
        assert!(f.iter().any(|&v| v > 0.0));
    }

    #[test]
    fn flat_image_has_probability_one() {
        let mut flat = ColorImage::new(20, 20).unwrap();
        for y in 0..20 {
            for x in 0..20 {
                flat.set(x, y, (0, 0, 255));
            }
        }
        let f = extract(&flat);
        let bin = crate::color::quantize_rgb(0, 0, 255) as usize;
        assert!(
            (f[bin] - 1.0).abs() < 1e-6,
            "uniform image: every neighbour matches"
        );
    }

    #[test]
    fn checkerboard_has_probability_below_half() {
        // A 1-px checkerboard of two colors: neighbours at odd Manhattan
        // offsets differ, so the same-color probability is well below 1.
        let mut cb = ColorImage::new(24, 24).unwrap();
        for y in 0..24 {
            for x in 0..24 {
                let c = if (x + y) % 2 == 0 {
                    (255, 0, 0)
                } else {
                    (0, 0, 255)
                };
                cb.set(x, y, c);
            }
        }
        let f = extract(&cb);
        let red = crate::color::quantize_rgb(255, 0, 0) as usize;
        assert!(f[red] < 0.55, "checkerboard red correlation {}", f[red]);
        assert!(f[red] > 0.3);
    }

    #[test]
    fn banded_update_equals_whole_image() {
        let image = img();
        let reference = extract(&image);
        let bins = quantize_image(&image);
        let (w, h) = (image.width(), image.height());
        for band_rows in [5usize, 8, 16, 40] {
            let mut acc = CorrelogramAcc::new(w, h);
            let mut y = 0;
            while y < h {
                let y_end = (y + band_rows).min(h);
                // Build the band + halo exactly as the SPE kernel DMAs it.
                let top = y.saturating_sub(RADIUS);
                let bot = (y_end + RADIUS).min(h);
                acc.update_rows(&bins[top * w..bot * w], y, y_end);
                y = y_end;
            }
            assert_eq!(acc.finish(), reference, "band of {band_rows} rows diverged");
        }
    }

    #[test]
    fn simd_equals_scalar() {
        let image = img();
        let reference = extract(&image);
        let bins = quantize_image(&image);
        let (w, h) = (image.width(), image.height());
        let mut acc = CorrelogramAcc::new(w, h);
        let mut spu = Spu::new();
        acc.update_rows_simd(&mut spu, &bins, 0, h);
        assert_eq!(acc.finish(), reference);
        let c = spu.counters();
        assert!(c.even > 0 && c.odd > 0);
    }

    #[test]
    fn simd_banded_equals_scalar() {
        let image = img();
        let reference = extract(&image);
        let bins = quantize_image(&image);
        let (w, h) = (image.width(), image.height());
        let mut acc = CorrelogramAcc::new(w, h);
        let mut spu = Spu::new();
        let mut y = 0;
        while y < h {
            let y_end = (y + 8).min(h);
            let top = y.saturating_sub(RADIUS);
            let bot = (y_end + RADIUS).min(h);
            acc.update_rows_simd(&mut spu, &bins[top * w..bot * w], y, y_end);
            y = y_end;
        }
        assert_eq!(acc.finish(), reference);
    }

    #[test]
    fn unoptimized_spu_matches_and_is_branch_heavy() {
        let image = ColorImage::synthetic(32, 24, 5).unwrap();
        let reference = extract(&image);
        let bins = quantize_image(&image);
        let mut acc = CorrelogramAcc::new(image.width(), image.height());
        let mut spu = Spu::new();
        update_rows_unoptimized_spu(&mut acc, &mut spu, &bins, 0, image.height());
        assert_eq!(acc.finish(), reference);
        let c = spu.counters();
        // ~289 probes/pixel, each with an unhinted branch.
        assert!(c.branches_hard as usize > image.pixel_count() * 100);
    }

    #[test]
    fn counted_matches_and_probe_count_dominates() {
        let image = ColorImage::synthetic(40, 32, 6).unwrap();
        let mut prof = OpProfile::new();
        assert_eq!(extract(&image), extract_counted(&image, &mut prof));
        // Probes ≈ 289/pixel → the probe ALU work must dwarf the
        // quantization pass.
        let per_px = prof.count(OpClass::IntAlu) as f64 / image.pixel_count() as f64;
        assert!(per_px > 150.0, "{per_px:.0} probe ALU ops/pixel");
    }

    #[test]
    fn simd_issue_rate_is_an_order_below_scalar() {
        let image = img();
        let bins = quantize_image(&image);
        let mut acc = CorrelogramAcc::new(image.width(), image.height());
        let mut spu = Spu::new();
        acc.update_rows_simd(&mut spu, &bins, 0, image.height());
        let c = spu.counters();
        let per_px = c.even.max(c.odd) as f64 / image.pixel_count() as f64;
        // Scalar does ~870 ops/px (289 probes × 3); the dual-issue-bound
        // SIMD pipeline cost must be far below that.
        assert!(per_px < 350.0, "{per_px:.0} issues/pixel — CC not SIMDized");
    }
}
