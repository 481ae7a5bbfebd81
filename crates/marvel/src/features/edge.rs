//! EHExtract — the edge histogram (paper kernel 4, 28 %).
//!
//! "A sequence of filters applied in succession on the image: color
//! conversion RGB to Gray, image edge detection with the Sobel operators,
//! edge angle and magnitude computation per pixel, plus the quantization
//! and normalization operations specific to histogram-like functions"
//! (§5.2).
//!
//! The layout follows the MPEG-7 edge-histogram idea: the image splits
//! into a 4×4 grid of regions; each region holds five bins — vertical,
//! horizontal, 45°, 135°, and non-directional edges — giving an
//! 80-dimensional feature.
//!
//! Angle quantization is done in exact integer arithmetic (comparing
//! `|dy|/|dx|` against tan 22.5° as a fixed-point ratio), so the scalar,
//! banded and SIMD paths agree bit-for-bit. The *counted* reference
//! charges the float `sqrtf`/`atan2f` cost the original C++ pays — the
//! integer trick is precisely the kind of SPE optimization §4.1 lists
//! ("replace multiplications and divisions by shift operations").

use cell_core::{OpClass, OpProfile};
use cell_spu::Spu;

use crate::features::Feature;
use crate::image::{ColorImage, GrayImage};

/// Spatial grid: 4×4 regions.
pub const GRID: usize = 4;

/// Edge types per region.
pub const TYPES: usize = 5;

/// Feature dimensionality.
pub const EH_DIM: usize = GRID * GRID * TYPES;

/// Gradient-magnitude-squared threshold for a directional edge.
const STRONG2: i32 = 160 * 160;
/// Threshold for a non-directional (weak) edge.
const WEAK2: i32 = 48 * 48;

/// tan(22.5°) in 16.16 fixed point.
const TAN22: i64 = 27146;

/// Edge type of one gradient, or `None` below the weak threshold.
/// 0 = vertical edge (horizontal gradient), 1 = horizontal, 2 = 45°,
/// 3 = 135°, 4 = non-directional.
#[inline]
pub fn classify(dx: i32, dy: i32) -> Option<usize> {
    let mag2 = dx * dx + dy * dy;
    if mag2 <= WEAK2 {
        return None;
    }
    if mag2 <= STRONG2 {
        return Some(4);
    }
    let adx = dx.unsigned_abs() as i64;
    let ady = dy.unsigned_abs() as i64;
    if (ady << 16) < adx * TAN22 {
        Some(0) // gradient ~horizontal → vertical edge
    } else if (adx << 16) < ady * TAN22 {
        Some(1) // gradient ~vertical → horizontal edge
    } else if (dx >= 0) == (dy >= 0) {
        Some(2) // 45°
    } else {
        Some(3) // 135°
    }
}

/// Sobel gradients at (x, y); caller guarantees 1-pixel interior.
#[inline]
fn sobel(gray: &[u8], w: usize, idx: usize) -> (i32, i32) {
    let p = |o: usize| gray[o] as i32;
    let (a, b, c) = (p(idx - w - 1), p(idx - w), p(idx - w + 1));
    let (d, f) = (p(idx - 1), p(idx + 1));
    let (g, h, i) = (p(idx + w - 1), p(idx + w), p(idx + w + 1));
    let dx = (c + 2 * f + i) - (a + 2 * d + g);
    let dy = (g + 2 * h + i) - (a + 2 * b + c);
    (dx, dy)
}

/// Accumulator usable whole-image or banded with a 1-row halo.
#[derive(Debug, Clone)]
pub struct EdgeAcc {
    width: usize,
    height: usize,
    counts: [u32; EH_DIM],
    region_pixels: [u32; GRID * GRID],
}

impl EdgeAcc {
    pub fn new(width: usize, height: usize) -> Self {
        EdgeAcc {
            width,
            height,
            counts: [0; EH_DIM],
            region_pixels: [0; GRID * GRID],
        }
    }

    #[inline]
    fn region(&self, x: usize, y: usize) -> usize {
        let rx = (x * GRID / self.width).min(GRID - 1);
        let ry = (y * GRID / self.height).min(GRID - 1);
        ry * GRID + rx
    }

    /// Process centre rows `[y_start, y_end)` of the image.
    ///
    /// `gray` must hold rows `[y_start - 1, y_end + 1)` clipped to the
    /// image (the 1-row Sobel halo); its first row is
    /// `max(y_start - 1, 0)`. Border pixels of the *image* are skipped
    /// (no gradient), but band borders are interior thanks to the halo.
    pub fn update_rows(&mut self, gray: &[u8], y_start: usize, y_end: usize) {
        let w = self.width;
        let first_row = y_start.saturating_sub(1);
        for y in y_start..y_end {
            if y == 0 || y == self.height - 1 {
                continue;
            }
            let row_base = (y - first_row) * w;
            for x in 1..w - 1 {
                let (dx, dy) = sobel(gray, w, row_base + x);
                let r = self.region(x, y);
                self.region_pixels[r] += 1;
                if let Some(t) = classify(dx, dy) {
                    self.counts[r * TYPES + t] += 1;
                }
            }
        }
    }

    /// SIMD band processing: gradients and the classification ladder run
    /// in i16/i32 lanes; the per-pixel type scatter is the same
    /// lane-private trick the CH kernel uses. The counts come from
    /// [`Self::update_rows`]; each interior row pays the SPU sequence
    /// below.
    pub fn update_rows_simd(&mut self, spu: &mut Spu, gray: &[u8], y_start: usize, y_end: usize) {
        let rows = (y_start.max(1)..y_end.min(self.height.saturating_sub(1))).len() as u64;
        let pixels = self.width.saturating_sub(2) as u64;
        let blocks = pixels.div_ceil(16);
        if self.width >= 18 {
            // Per 16-pixel block (the last one re-anchored at w-17 to
            // overlap its neighbour instead of leaving a scalar tail):
            // eight neighbourhood loads, eight widening unpacks and the
            // store (odd); the i16 Sobel sums (24 even); and the
            // classification ladder — mag², thresholds, tan compare, sign
            // agreement — whose squares and compares need 32-bit lanes,
            // so each logical step costs four issues across the 16 pixels
            // (64 multiply/compare + 20 select, even).
            spu.charge_odd(17 * blocks * rows);
            spu.charge_even(108 * blocks * rows);
        } else {
            // Too narrow to vectorize: scalar-in-vector Sobel + ladder.
            spu.scalar_op(24 * pixels * rows);
        }
        // Scatter into the lane-private region histograms: per 16 pixels
        // one extract, one load (odd) and one add (even).
        spu.charge_odd(2 * blocks * rows);
        spu.charge_even(blocks * rows);
        self.update_rows(gray, y_start, y_end);
    }

    /// Final feature: per-region type densities.
    pub fn finish(&self) -> Feature {
        let mut f = Vec::with_capacity(EH_DIM);
        for r in 0..GRID * GRID {
            let n = self.region_pixels[r].max(1) as f32;
            for t in 0..TYPES {
                f.push(self.counts[r * TYPES + t] as f32 / n);
            }
        }
        f
    }
}

/// Reference extraction.
pub fn extract(img: &ColorImage) -> Feature {
    extract_gray(&img.to_gray())
}

pub fn extract_gray(gray: &GrayImage) -> Feature {
    let mut acc = EdgeAcc::new(gray.width(), gray.height());
    acc.update_rows(gray.data(), 0, gray.height());
    acc.finish()
}

/// Reference extraction with the cost profile of the float C++ original:
/// gray conversion, Sobel, `sqrtf` magnitude and `atan2f` angle per
/// pixel, then quantization.
pub fn extract_counted(img: &ColorImage, prof: &mut OpProfile) -> Feature {
    let px = img.pixel_count() as u64;
    // RGB → gray.
    prof.record(OpClass::Load, px * 3);
    prof.record(OpClass::IntMul, px * 3);
    prof.record(OpClass::IntAlu, px * 3);
    prof.record(OpClass::Store, px);
    let interior = ((img.width() - 2) * (img.height() - 2)) as u64;
    // Sobel: 8 loads (one cached), 10 adds, 2 shifts per pixel.
    prof.record(OpClass::Load, interior * 6);
    prof.record(OpClass::IntAlu, interior * 12);
    // Magnitude: 2 mul + add + sqrtf.
    prof.record(OpClass::FpMul, interior * 2);
    prof.record(OpClass::FpAdd, interior);
    prof.record(OpClass::FpSqrt, interior);
    // atan2f: libm argument reduction + polynomial + quadrant fixup,
    // ≈150–250 cycles on these cores.
    prof.record(OpClass::FpMul, interior * 20);
    prof.record(OpClass::FpAdd, interior * 20);
    prof.record(OpClass::FpDiv, interior * 3);
    prof.record(OpClass::BranchHard, interior * 4);
    // Quantization + histogram increment.
    prof.record(OpClass::IntAlu, interior * 4);
    prof.record(OpClass::Store, interior);
    prof.record(OpClass::FpDiv, EH_DIM as u64);
    extract(img)
}

/// Unoptimized SPE form: the ported float code, scalar-in-vector.
pub fn update_rows_unoptimized_spu(
    acc: &mut EdgeAcc,
    spu: &mut Spu,
    gray: &[u8],
    y_start: usize,
    y_end: usize,
) {
    let w = acc.width;
    let first_row = y_start.saturating_sub(1);
    for y in y_start..y_end {
        if y == 0 || y == acc.height - 1 {
            continue;
        }
        let row_base = (y - first_row) * w;
        for x in 1..w - 1 {
            let (dx, dy) = sobel(gray, w, row_base + x);
            // 8 scalar loads + ~30 scalar float ops (sqrtf + atan2f) +
            // data-dependent branches.
            spu.scalar_op(8 + 30);
            spu.branch_hard();
            spu.branch_hard();
            let r = acc.region(x, y);
            acc.region_pixels[r] += 1;
            if let Some(t) = classify(dx, dy) {
                acc.counts[r * TYPES + t] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> ColorImage {
        ColorImage::synthetic(64, 48, 51).unwrap()
    }

    #[test]
    fn classify_directions() {
        assert_eq!(classify(300, 0), Some(0), "pure horizontal gradient");
        assert_eq!(classify(0, 300), Some(1), "pure vertical gradient");
        assert_eq!(classify(300, 300), Some(2), "45°");
        assert_eq!(classify(300, -300), Some(3), "135°");
        assert_eq!(classify(-300, 300), Some(3));
        assert_eq!(classify(100, 100), Some(4), "weak-ish → non-directional");
        assert_eq!(classify(10, 10), None, "below weak threshold");
        assert_eq!(classify(0, 0), None);
    }

    #[test]
    fn feature_shape_and_range() {
        let f = extract(&img());
        assert_eq!(f.len(), EH_DIM);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(f.iter().any(|&v| v > 0.0), "synthetic scenes contain edges");
    }

    #[test]
    fn vertical_stripe_image_fills_vertical_bins() {
        let mut v = ColorImage::new(64, 64).unwrap();
        for y in 0..64 {
            for x in 0..64 {
                let c = if (x / 8) % 2 == 0 { 255 } else { 0 };
                v.set(x, y, (c, c, c));
            }
        }
        let f = extract(&v);
        // Type 0 (vertical edge) must dominate type 1 across regions.
        let vert: f32 = (0..16).map(|r| f[r * TYPES]).sum();
        let horiz: f32 = (0..16).map(|r| f[r * TYPES + 1]).sum();
        assert!(vert > 10.0 * horiz.max(1e-6), "vert {vert} horiz {horiz}");
    }

    #[test]
    fn flat_image_has_no_edges() {
        let mut flat = ColorImage::new(32, 32).unwrap();
        for y in 0..32 {
            for x in 0..32 {
                flat.set(x, y, (77, 77, 77));
            }
        }
        let f = extract(&flat);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn banded_equals_reference() {
        let image = img();
        let reference = extract(&image);
        let gray = image.to_gray();
        let (w, h) = (gray.width(), gray.height());
        for band_rows in [3usize, 8, 16, 48] {
            let mut acc = EdgeAcc::new(w, h);
            let mut y = 0;
            while y < h {
                let y_end = (y + band_rows).min(h);
                let top = y.saturating_sub(1);
                let bot = (y_end + 1).min(h);
                acc.update_rows(&gray.data()[top * w..bot * w], y, y_end);
                y = y_end;
            }
            assert_eq!(acc.finish(), reference, "band of {band_rows} rows diverged");
        }
    }

    #[test]
    fn simd_equals_reference() {
        let image = img();
        let reference = extract(&image);
        let gray = image.to_gray();
        let (w, h) = (gray.width(), gray.height());
        let mut acc = EdgeAcc::new(w, h);
        let mut spu = Spu::new();
        let mut y = 0;
        while y < h {
            let y_end = (y + 8).min(h);
            let top = y.saturating_sub(1);
            let bot = (y_end + 1).min(h);
            acc.update_rows_simd(&mut spu, &gray.data()[top * w..bot * w], y, y_end);
            y = y_end;
        }
        assert_eq!(acc.finish(), reference);
        assert!(spu.counters().even > 0);
    }

    #[test]
    fn unoptimized_spu_matches() {
        let image = ColorImage::synthetic(40, 32, 52).unwrap();
        let reference = extract(&image);
        let gray = image.to_gray();
        let mut acc = EdgeAcc::new(gray.width(), gray.height());
        let mut spu = Spu::new();
        update_rows_unoptimized_spu(&mut acc, &mut spu, gray.data(), 0, gray.height());
        assert_eq!(acc.finish(), reference);
        assert!(spu.counters().scalar > 0);
    }

    #[test]
    fn counted_matches_and_is_heavier_than_ch() {
        let image = img();
        let mut prof = OpProfile::new();
        assert_eq!(extract(&image), extract_counted(&image, &mut prof));
        let mut ch_prof = OpProfile::new();
        let _ = crate::features::histogram::extract_counted(&image, &mut ch_prof);
        use cell_core::{CostModel, MachineProfile};
        let ppe = MachineProfile::ppe();
        let t_eh = ppe.time(&prof).seconds();
        let t_ch = ppe.time(&ch_prof).seconds();
        // Paper coverage: EH 28 % vs CH 8 % → EH ≈ 3.5× CH on the PPE.
        let ratio = t_eh / t_ch;
        assert!(
            (1.5..8.0).contains(&ratio),
            "EH/CH PPE cost ratio {ratio:.2}"
        );
    }

    #[test]
    fn region_mapping_covers_grid() {
        let acc = EdgeAcc::new(64, 48);
        assert_eq!(acc.region(0, 0), 0);
        assert_eq!(acc.region(63, 47), 15);
        assert_eq!(acc.region(32, 0), 2);
        assert_eq!(acc.region(0, 24), 8);
    }
}
