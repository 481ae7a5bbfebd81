//! Image types, synthetic scenes, and PPM I/O.
//!
//! The paper's experiments use 352×240 color images (fifty of them for the
//! large set). Real MARVEL reads news-video keyframes; we generate
//! deterministic synthetic scenes with comparable statistics — smooth
//! regions, textured regions, edges, and color variety — so every feature
//! extractor has real structure to measure.

use cell_core::{CellError, CellResult, SplitMix64};

/// The paper's test-image geometry.
pub const PAPER_WIDTH: usize = 352;
pub const PAPER_HEIGHT: usize = 240;

/// An 8-bit interleaved RGB image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColorImage {
    width: usize,
    height: usize,
    /// `3 * width * height` bytes, row-major, R G B.
    data: Vec<u8>,
}

impl ColorImage {
    pub fn new(width: usize, height: usize) -> CellResult<Self> {
        if width == 0 || height == 0 || width > 1 << 16 || height > 1 << 16 {
            return Err(CellError::BadData {
                message: format!("bad image geometry {width}x{height}"),
            });
        }
        Ok(ColorImage {
            width,
            height,
            data: vec![0; width * height * 3],
        })
    }

    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> CellResult<Self> {
        if data.len() != width * height * 3 {
            return Err(CellError::BadData {
                message: format!(
                    "{} bytes for {width}x{height} RGB (need {})",
                    data.len(),
                    width * height * 3
                ),
            });
        }
        let mut img = Self::new(width, height)?;
        img.data = data;
        Ok(img)
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Raw interleaved bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> usize {
        self.width * 3
    }

    /// One row's bytes.
    pub fn row(&self, y: usize) -> &[u8] {
        let rb = self.row_bytes();
        &self.data[y * rb..(y + 1) * rb]
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> (u8, u8, u8) {
        let i = (y * self.width + x) * 3;
        (self.data[i], self.data[i + 1], self.data[i + 2])
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, rgb: (u8, u8, u8)) {
        let i = (y * self.width + x) * 3;
        self.data[i] = rgb.0;
        self.data[i + 1] = rgb.1;
        self.data[i + 2] = rgb.2;
    }

    /// Luma conversion (ITU-R BT.601 integer approximation) — the "color
    /// conversion RGB to Gray" stage of the edge histogram kernel.
    pub fn to_gray(&self) -> GrayImage {
        let mut g = GrayImage::new(self.width, self.height).expect("geometry already validated");
        for (dst, rgb) in g.data.iter_mut().zip(self.data.chunks_exact(3)) {
            let y = 77 * rgb[0] as u32 + 150 * rgb[1] as u32 + 29 * rgb[2] as u32;
            *dst = (y >> 8) as u8;
        }
        g
    }

    /// A deterministic synthetic scene: smooth sky gradient, textured
    /// ground band, a few solid-color rectangles (edges!), and mild sensor
    /// noise. Distinct seeds give distinct scenes.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> CellResult<Self> {
        let mut img = Self::new(width, height)?;
        let mut rng = SplitMix64::new(seed ^ 0x4D41_5256_454C_0001); // "MARVEL" tag
                                                                     // Scene palette parameters.
        let horizon = height * (40 + (rng.next_u32() % 30) as usize) / 100;
        let sky_hue = rng.next_below(360) as u32;
        let ground_base: (u8, u8, u8) = (
            rng.next_in(40, 120) as u8,
            rng.next_in(60, 140) as u8,
            rng.next_in(20, 90) as u8,
        );
        for y in 0..height {
            for x in 0..width {
                let rgb = if y < horizon {
                    // Sky: vertical gradient of one hue.
                    let v = 150 + (105 * y / horizon.max(1)) as u32;
                    hsv_ish(sky_hue, 120, v.min(255) as u8)
                } else {
                    // Ground: base color + positional texture.
                    let t = ((x * 7919 + y * 104729) % 61) as i32 - 30;
                    (
                        clamp_u8(ground_base.0 as i32 + t),
                        clamp_u8(ground_base.1 as i32 + t / 2),
                        clamp_u8(ground_base.2 as i32 + t / 3),
                    )
                };
                img.set(x, y, rgb);
            }
        }
        // A few rectangles: buildings/objects with crisp edges.
        for _ in 0..rng.next_in(3, 8) {
            let rw =
                rng.next_in(width as u64 / 16, (width / 4).max(width / 16 + 1) as u64) as usize;
            let rh =
                rng.next_in(height as u64 / 12, (height / 3).max(height / 12 + 1) as u64) as usize;
            let rx = rng.next_below(width.saturating_sub(rw).max(1) as u64) as usize;
            let ry = rng.next_in(
                horizon as u64 / 2,
                height.saturating_sub(rh).max(horizon / 2 + 1) as u64,
            ) as usize;
            let color: (u8, u8, u8) = (
                rng.next_u32() as u8,
                rng.next_u32() as u8,
                rng.next_u32() as u8,
            );
            for y in ry..(ry + rh).min(height) {
                for x in rx..(rx + rw).min(width) {
                    img.set(x, y, color);
                }
            }
        }
        // Sensor noise.
        for b in &mut img.data {
            let n = rng.next_below(9) as i32 - 4;
            *b = clamp_u8(*b as i32 + n);
        }
        Ok(img)
    }

    /// The paper's test set: `n` distinct 352×240 scenes.
    pub fn paper_set(n: usize) -> Vec<ColorImage> {
        (0..n)
            .map(|i| {
                Self::synthetic(PAPER_WIDTH, PAPER_HEIGHT, 1000 + i as u64).expect("valid geometry")
            })
            .collect()
    }

    /// Bilinear rescale — the costly preprocessing step the paper's test
    /// setup avoided by using same-size images ("rescaling (otherwise a
    /// costly operation) is not required", §5.2). Implemented in 8.8
    /// fixed point so results are deterministic across machines.
    pub fn rescale_bilinear(&self, new_w: usize, new_h: usize) -> CellResult<ColorImage> {
        let mut out = ColorImage::new(new_w, new_h)?;
        // Fixed-point source step per destination pixel, corner-anchored:
        // destination pixel 0 samples source 0, the last samples the last.
        let sx = if new_w > 1 {
            ((self.width - 1) << 8) / (new_w - 1)
        } else {
            0
        };
        let sy = if new_h > 1 {
            ((self.height - 1) << 8) / (new_h - 1)
        } else {
            0
        };
        for y in 0..new_h {
            let fy = y * sy;
            let y0 = (fy >> 8).min(self.height - 1);
            let y1 = (y0 + 1).min(self.height - 1);
            let wy = (fy & 0xFF) as u32;
            for x in 0..new_w {
                let fx = x * sx;
                let x0 = (fx >> 8).min(self.width - 1);
                let x1 = (x0 + 1).min(self.width - 1);
                let wx = (fx & 0xFF) as u32;
                let mut rgb = [0u8; 3];
                for (ch, out_ch) in rgb.iter_mut().enumerate() {
                    let p =
                        |px: usize, py: usize| self.data[(py * self.width + px) * 3 + ch] as u32;
                    let top = p(x0, y0) * (256 - wx) + p(x1, y0) * wx;
                    let bot = p(x0, y1) * (256 - wx) + p(x1, y1) * wx;
                    *out_ch = ((top * (256 - wy) + bot * wy) >> 16) as u8;
                }
                out.set(x, y, (rgb[0], rgb[1], rgb[2]));
            }
        }
        Ok(out)
    }

    /// Rescale with cost accounting: ~8 loads, 11 multiplies and 10 adds
    /// per output pixel — which is why the paper calls it costly.
    pub fn rescale_bilinear_counted(
        &self,
        new_w: usize,
        new_h: usize,
        prof: &mut cell_core::OpProfile,
    ) -> CellResult<ColorImage> {
        use cell_core::OpClass;
        let out_px = (new_w * new_h) as u64;
        prof.record(OpClass::Load, out_px * 8);
        prof.record(OpClass::IntMul, out_px * 11);
        prof.record(OpClass::IntAlu, out_px * 10);
        prof.record(OpClass::Store, out_px * 3);
        self.rescale_bilinear(new_w, new_h)
    }

    /// Encode as binary PPM (P6).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.data);
        out
    }

    /// Decode a binary PPM (P6), tolerating comments.
    pub fn from_ppm(bytes: &[u8]) -> CellResult<Self> {
        let mut pos = 0usize;
        fn token(bytes: &[u8], pos: &mut usize) -> CellResult<Vec<u8>> {
            // Skip whitespace and comments.
            loop {
                while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
                    *pos += 1;
                }
                if *pos < bytes.len() && bytes[*pos] == b'#' {
                    while *pos < bytes.len() && bytes[*pos] != b'\n' {
                        *pos += 1;
                    }
                } else {
                    break;
                }
            }
            let start = *pos;
            while *pos < bytes.len() && !bytes[*pos].is_ascii_whitespace() {
                *pos += 1;
            }
            if start == *pos {
                return Err(CellError::BadData {
                    message: "truncated PPM header".to_string(),
                });
            }
            Ok(bytes[start..*pos].to_vec())
        }
        let magic = token(bytes, &mut pos)?;
        if magic != b"P6" {
            return Err(CellError::BadData {
                message: "not a P6 PPM".to_string(),
            });
        }
        let parse = |t: Vec<u8>| -> CellResult<usize> {
            std::str::from_utf8(&t)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| CellError::BadData {
                    message: "bad PPM number".to_string(),
                })
        };
        let width = parse(token(bytes, &mut pos)?)?;
        let height = parse(token(bytes, &mut pos)?)?;
        let maxval = parse(token(bytes, &mut pos)?)?;
        if maxval != 255 {
            return Err(CellError::BadData {
                message: format!("unsupported PPM maxval {maxval}"),
            });
        }
        pos += 1; // single whitespace after maxval
        let need = width * height * 3;
        if bytes.len() < pos + need {
            return Err(CellError::BadData {
                message: "truncated PPM payload".to_string(),
            });
        }
        Self::from_data(width, height, bytes[pos..pos + need].to_vec())
    }
}

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl GrayImage {
    pub fn new(width: usize, height: usize) -> CellResult<Self> {
        if width == 0 || height == 0 {
            return Err(CellError::BadData {
                message: format!("bad image geometry {width}x{height}"),
            });
        }
        Ok(GrayImage {
            width,
            height,
            data: vec![0; width * height],
        })
    }

    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> CellResult<Self> {
        if data.len() != width * height {
            return Err(CellError::BadData {
                message: format!("{} bytes for {width}x{height} gray", data.len()),
            });
        }
        Ok(GrayImage {
            width,
            height,
            data,
        })
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn data(&self) -> &[u8] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    pub fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width..(y + 1) * self.width]
    }
}

#[inline]
fn clamp_u8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Quick HSV-ish color ramp for scene generation (not the analysis-grade
/// conversion — that lives in [`crate::color`]).
fn hsv_ish(h: u32, s: u8, v: u8) -> (u8, u8, u8) {
    let h = h % 360;
    let region = h / 60;
    let f = h % 60;
    let s32 = s as u32;
    let v32 = v as u32;
    let p = v32 * (255 - s32) / 255;
    let q = v32 * (255 * 60 - s32 * f) / (255 * 60);
    let t = v32 * (255 * 60 - s32 * (60 - f)) / (255 * 60);
    let (r, g, b) = match region {
        0 => (v32, t, p),
        1 => (q, v32, p),
        2 => (p, v32, t),
        3 => (p, q, v32),
        4 => (t, p, v32),
        _ => (v32, p, q),
    };
    (r as u8, g as u8, b as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation() {
        assert!(ColorImage::new(0, 10).is_err());
        assert!(ColorImage::new(10, 0).is_err());
        assert!(GrayImage::new(0, 1).is_err());
        assert!(ColorImage::from_data(2, 2, vec![0; 11]).is_err());
        assert!(GrayImage::from_data(2, 2, vec![0; 3]).is_err());
    }

    #[test]
    fn pixel_accessors_roundtrip() {
        let mut img = ColorImage::new(4, 3).unwrap();
        img.set(2, 1, (10, 20, 30));
        assert_eq!(img.get(2, 1), (10, 20, 30));
        assert_eq!(img.get(0, 0), (0, 0, 0));
        assert_eq!(img.row(1).len(), 12);
        assert_eq!(img.row_bytes(), 12);
    }

    #[test]
    fn gray_conversion_weights() {
        let mut img = ColorImage::new(3, 1).unwrap();
        img.set(0, 0, (255, 0, 0));
        img.set(1, 0, (0, 255, 0));
        img.set(2, 0, (0, 0, 255));
        let g = img.to_gray();
        // Green contributes most, blue least.
        assert!(g.get(1, 0) > g.get(0, 0));
        assert!(g.get(0, 0) > g.get(2, 0));
        // White maps to ~255, black to 0.
        let mut wb = ColorImage::new(2, 1).unwrap();
        wb.set(0, 0, (255, 255, 255));
        let gw = wb.to_gray();
        assert!(gw.get(0, 0) >= 254);
        assert_eq!(gw.get(1, 0), 0);
    }

    #[test]
    fn synthetic_is_deterministic_and_diverse() {
        let a = ColorImage::synthetic(64, 48, 7).unwrap();
        let b = ColorImage::synthetic(64, 48, 7).unwrap();
        let c = ColorImage::synthetic(64, 48, 8).unwrap();
        assert_eq!(a, b, "same seed must give the same scene");
        assert_ne!(a, c, "different seeds must differ");
        // Should contain some color variety (not a flat image).
        let distinct: std::collections::HashSet<(u8, u8, u8)> = (0..48)
            .flat_map(|y| (0..64).map(move |x| (x, y)))
            .map(|(x, y)| a.get(x, y))
            .collect();
        assert!(
            distinct.len() > 50,
            "only {} distinct colors",
            distinct.len()
        );
    }

    #[test]
    fn paper_set_has_paper_geometry() {
        let set = ColorImage::paper_set(3);
        assert_eq!(set.len(), 3);
        for img in &set {
            assert_eq!(img.width(), 352);
            assert_eq!(img.height(), 240);
        }
        assert_ne!(set[0], set[1]);
    }

    #[test]
    fn ppm_roundtrip() {
        let img = ColorImage::synthetic(31, 17, 5).unwrap();
        let ppm = img.to_ppm();
        let back = ColorImage::from_ppm(&ppm).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn ppm_with_comments() {
        let img = ColorImage::synthetic(4, 4, 1).unwrap();
        let mut ppm = b"P6\n# a comment\n4 4\n# another\n255\n".to_vec();
        ppm.extend_from_slice(img.data());
        let back = ColorImage::from_ppm(&ppm).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn ppm_rejects_garbage() {
        assert!(ColorImage::from_ppm(b"P5\n1 1\n255\nx").is_err());
        assert!(
            ColorImage::from_ppm(b"P6\n4 4\n255\n").is_err(),
            "truncated payload"
        );
        assert!(
            ColorImage::from_ppm(b"P6\n4 4\n65535\n").is_err(),
            "wide maxval"
        );
        assert!(ColorImage::from_ppm(b"").is_err());
    }

    #[test]
    fn rescale_identity_is_near_lossless() {
        let img = ColorImage::synthetic(40, 30, 9).unwrap();
        let same = img.rescale_bilinear(40, 30).unwrap();
        // Fixed-point identity sampling may differ by rounding only.
        let max_err = img
            .data()
            .iter()
            .zip(same.data())
            .map(|(a, b)| (*a as i32 - *b as i32).unsigned_abs())
            .max()
            .unwrap();
        assert!(max_err <= 2, "identity rescale max error {max_err}");
    }

    #[test]
    fn rescale_changes_dimensions() {
        let img = ColorImage::synthetic(64, 48, 10).unwrap();
        let down = img.rescale_bilinear(32, 24).unwrap();
        assert_eq!((down.width(), down.height()), (32, 24));
        let up = img.rescale_bilinear(100, 70).unwrap();
        assert_eq!((up.width(), up.height()), (100, 70));
    }

    #[test]
    fn rescale_preserves_mean_brightness() {
        let img = ColorImage::synthetic(80, 60, 11).unwrap();
        let mean = |i: &ColorImage| {
            i.data().iter().map(|&b| b as f64).sum::<f64>() / i.data().len() as f64
        };
        let down = img.rescale_bilinear(40, 30).unwrap();
        let (m1, m2) = (mean(&img), mean(&down));
        assert!((m1 - m2).abs() < 8.0, "mean drifted {m1:.1} -> {m2:.1}");
    }

    #[test]
    fn rescale_flat_image_stays_flat() {
        let mut flat = ColorImage::new(17, 13).unwrap();
        for y in 0..13 {
            for x in 0..17 {
                flat.set(x, y, (90, 120, 150));
            }
        }
        let r = flat.rescale_bilinear(23, 31).unwrap();
        for y in 0..31 {
            for x in 0..23 {
                assert_eq!(r.get(x, y), (90, 120, 150));
            }
        }
    }

    #[test]
    fn rescale_counted_matches_and_counts() {
        let img = ColorImage::synthetic(48, 32, 12).unwrap();
        let mut prof = cell_core::OpProfile::new();
        let a = img.rescale_bilinear(24, 16).unwrap();
        let b = img.rescale_bilinear_counted(24, 16, &mut prof).unwrap();
        assert_eq!(a, b);
        assert!(prof.total_ops() as usize > 24 * 16 * 20);
    }

    #[test]
    fn gray_row_access() {
        let mut g = GrayImage::new(5, 2).unwrap();
        g.set(3, 1, 99);
        assert_eq!(g.row(1)[3], 99);
        assert_eq!(g.row(0), &[0, 0, 0, 0, 0]);
    }
}
