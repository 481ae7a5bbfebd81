//! A DCT block codec — the "image reading and decompressing" substrate.
//!
//! MARVEL's preprocessing step "includes (1) image reading, decompressing
//! and storing it in the main memory as an RGB image" (paper §5.1). The
//! paper's images arrive as compressed keyframes; ours arrive through this
//! codec: a JPEG-shaped (but much simpler) lossy pipeline —
//!
//! `RGB → YCbCr → per-plane 8×8 DCT → uniform quantization → zigzag →
//! run-length encoding` — and back.
//!
//! The decoder is the per-image preprocessing cost in the pipeline's
//! profile (2 % of per-image time in the paper), so it is implemented and
//! costed for real, not stubbed.

use cell_core::{CellError, CellResult, OpClass, OpProfile};

use crate::image::ColorImage;

const BLOCK: usize = 8;

/// Quantization step per coefficient index (flat-ish luma-style table;
/// coarser for high frequencies).
fn quant_step(u: usize, v: usize, quality: u8) -> f32 {
    let base = 4.0 + (u + v) as f32 * 2.5;
    let q = (quality.clamp(1, 100)) as f32;
    // quality 100 → ~1/4 of base step; quality 1 → ~4× base.
    base * (50.0 / q).max(0.25)
}

/// Zigzag scan order for an 8×8 block.
fn zigzag_order() -> [usize; 64] {
    let mut order = [0usize; 64];
    let (mut x, mut y) = (0i32, 0i32);
    let mut up = true;
    for slot in &mut order {
        *slot = (y * 8 + x) as usize;
        if up {
            if x == 7 {
                y += 1;
                up = false;
            } else if y == 0 {
                x += 1;
                up = false;
            } else {
                x += 1;
                y -= 1;
            }
        } else if y == 7 {
            x += 1;
            up = true;
        } else if x == 0 {
            y += 1;
            up = true;
        } else {
            x -= 1;
            y += 1;
        }
    }
    order
}

fn dct_1d(input: &[f32; 8], output: &mut [f32; 8]) {
    for (k, out) in output.iter_mut().enumerate() {
        let mut sum = 0.0f32;
        for (n, &v) in input.iter().enumerate() {
            sum += v * (std::f32::consts::PI / 8.0 * (n as f32 + 0.5) * k as f32).cos();
        }
        let scale = if k == 0 {
            (1.0f32 / 8.0).sqrt()
        } else {
            (2.0f32 / 8.0).sqrt()
        };
        *out = sum * scale;
    }
}

/// Forward 8×8 DCT in place: rows, then columns.
fn fdct_2d(block: &mut [f32; 64]) {
    let mut tmp = [0.0f32; 64];
    for y in 0..BLOCK {
        let mut row = [0.0f32; 8];
        let mut out = [0.0f32; 8];
        row.copy_from_slice(&block[y * 8..y * 8 + 8]);
        dct_1d(&row, &mut out);
        tmp[y * 8..y * 8 + 8].copy_from_slice(&out);
    }
    for x in 0..BLOCK {
        let mut col = [0.0f32; 8];
        let mut out = [0.0f32; 8];
        for y in 0..BLOCK {
            col[y] = tmp[y * 8 + x];
        }
        dct_1d(&col, &mut out);
        for y in 0..BLOCK {
            block[y * 8 + x] = out[y];
        }
    }
}

/// The inverse 8×8 DCT with its cosines tabulated once per decode.
///
/// Output sample `n` of a 1-D pass is
/// `in[0]·√(1/8) + Σₖ₌₁..₇ in[k]·√(2/8)·cos(π/8·(n+½)·k)`, evaluated with the
/// forward transform's f32 expressions and summed in ascending `k`; the
/// row pass runs first, then the column pass.
///
/// [`Idct::block`] skips the coefficient rows that are all zero, both in
/// the row pass and as terms of the column pass, and still gives the
/// output of the full transform bit for bit. A zero row's row-pass
/// outputs are `+0` (`+0·√(1/8)` plus terms of `±0`), so each of its
/// column-pass terms is `±0`, and adding `±0` changes a sum only when the
/// sum is `−0`. No sum here ever is. Each starts from `in[0]·√(1/8)`,
/// which is `+0` or nonzero: dequantized levels are `+0` or at least 1 in
/// magnitude, and row-pass outputs are never `−0`. Under round-to-nearest
/// an addition gives `−0` only from two `−0` operands.
struct Idct {
    /// `√(1/8)`, the DC weight.
    dc: f32,
    /// `√(2/8)`, the AC weight.
    ac: f32,
    /// `basis[k][n]` = `cos(π/8·(n+½)·k)`.
    basis: [[f32; 8]; 8],
}

impl Idct {
    fn new() -> Self {
        let mut basis = [[0.0f32; 8]; 8];
        for (k, row) in basis.iter_mut().enumerate() {
            for (n, b) in row.iter_mut().enumerate() {
                *b = (std::f32::consts::PI / 8.0 * (n as f32 + 0.5) * k as f32).cos();
            }
        }
        Idct {
            dc: (1.0f32 / 8.0).sqrt(),
            ac: (2.0f32 / 8.0).sqrt(),
            basis,
        }
    }

    /// Inverse-transform `coeffs` (row-major; bit `y` of `live_rows` is set
    /// when row `y` may hold a nonzero coefficient) and write output row
    /// `n` to `out[n * stride..][..8]`.
    fn block(&self, coeffs: &[f32; 64], live_rows: u8, out: &mut [f32], stride: usize) {
        let live = |y: usize| live_rows & (1 << y) != 0;
        // Row pass: `rows[y][x]` is output `x` of coefficient row `y`.
        let mut rows = [[0.0f32; 8]; 8];
        for (y, row) in rows.iter_mut().enumerate().filter(|&(y, _)| live(y)) {
            let c = &coeffs[y * 8..y * 8 + 8];
            *row = [c[0] * self.dc; 8];
            for (&v, basis) in c.iter().zip(&self.basis).skip(1) {
                let v = v * self.ac;
                for (s, &b) in row.iter_mut().zip(basis) {
                    *s += v * b;
                }
            }
        }
        // Column pass, one output row at a time, across all 8 columns.
        for n in 0..BLOCK {
            let mut acc = rows[0].map(|v| v * self.dc);
            for k in (1..BLOCK).filter(|&k| live(k)) {
                let b = self.basis[k][n];
                for (s, &v) in acc.iter_mut().zip(&rows[k]) {
                    *s += v * self.ac * b;
                }
            }
            out[n * stride..n * stride + BLOCK].copy_from_slice(&acc);
        }
    }
}

/// RGB → YCbCr (JFIF-style, integer-friendly f32 math).
fn rgb_to_ycbcr(r: u8, g: u8, b: u8) -> (f32, f32, f32) {
    let (r, g, b) = (r as f32, g as f32, b as f32);
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
    let cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    (y, cb, cr)
}

#[inline]
fn ycbcr_to_rgb(y: f32, cb: f32, cr: f32) -> (u8, u8, u8) {
    let r = y + 1.402 * (cr - 128.0);
    let g = y - 0.344_136 * (cb - 128.0) - 0.714_136 * (cr - 128.0);
    let b = y + 1.772 * (cb - 128.0);
    (to_byte(r), to_byte(g), to_byte(b))
}

/// `v.round().clamp(0.0, 255.0) as u8` without `round`, which on an x86-64
/// baseline without SSE4.1 is a libm call. On `[0, 255]` both the
/// truncation and `c - t` are exact, so adding 1 when the fraction is at
/// least ½ rounds half away from zero exactly as `round` does.
#[inline]
fn to_byte(v: f32) -> u8 {
    let c = v.clamp(0.0, 255.0);
    let t = c as i32;
    (t + i32::from(c - t as f32 >= 0.5)) as u8
}

/// A compressed image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compressed {
    pub width: u32,
    pub height: u32,
    pub quality: u8,
    /// RLE symbols: `(zero_run, level)` pairs per block, all planes.
    payload: Vec<(u8, i16)>,
}

impl Compressed {
    /// Compressed size in bytes (3 bytes per RLE symbol + header).
    pub fn size_bytes(&self) -> usize {
        9 + self.payload.len() * 3
    }
}

/// Encode an image at `quality` (1..=100).
pub fn encode(img: &ColorImage, quality: u8) -> Compressed {
    let (w, h) = (img.width(), img.height());
    let bw = w.div_ceil(BLOCK);
    let bh = h.div_ceil(BLOCK);
    let order = zigzag_order();
    let mut payload = Vec::new();

    // Planar YCbCr (edge-replicated to block multiples).
    let mut planes = vec![vec![0.0f32; bw * BLOCK * bh * BLOCK]; 3];
    for y in 0..bh * BLOCK {
        for x in 0..bw * BLOCK {
            let (r, g, b) = img.get(x.min(w - 1), y.min(h - 1));
            let (yy, cb, cr) = rgb_to_ycbcr(r, g, b);
            let i = y * bw * BLOCK + x;
            planes[0][i] = yy - 128.0;
            planes[1][i] = cb - 128.0;
            planes[2][i] = cr - 128.0;
        }
    }

    for plane in &planes {
        for by in 0..bh {
            for bx in 0..bw {
                let mut block = [0.0f32; 64];
                for y in 0..BLOCK {
                    for x in 0..BLOCK {
                        block[y * 8 + x] = plane[(by * 8 + y) * bw * BLOCK + bx * 8 + x];
                    }
                }
                fdct_2d(&mut block);
                // Quantize + zigzag + RLE.
                let mut run = 0u8;
                for (zi, &pos) in order.iter().enumerate() {
                    let (u, v) = (pos % 8, pos / 8);
                    let q = (block[pos] / quant_step(u, v, quality)).round() as i32;
                    let q = q.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
                    if q == 0 && zi != 63 {
                        run = run.saturating_add(1);
                    } else {
                        payload.push((run, q));
                        run = 0;
                    }
                }
            }
        }
    }

    Compressed {
        width: w as u32,
        height: h as u32,
        quality,
        payload,
    }
}

/// Decode a compressed image.
pub fn decode(c: &Compressed) -> CellResult<ColorImage> {
    decode_internal(c, None)
}

/// Decode while recording the operation profile of the work (the
/// preprocessing cost the pipeline charges to the PPE).
pub fn decode_counted(c: &Compressed, prof: &mut OpProfile) -> CellResult<ColorImage> {
    decode_internal(c, Some(prof))
}

fn decode_internal(c: &Compressed, mut prof: Option<&mut OpProfile>) -> CellResult<ColorImage> {
    let (w, h) = (c.width as usize, c.height as usize);
    if w == 0 || h == 0 {
        return Err(CellError::BadData {
            message: "empty compressed image".to_string(),
        });
    }
    let bw = w.div_ceil(BLOCK);
    let bh = h.div_ceil(BLOCK);
    let stride = bw * BLOCK;
    let order = zigzag_order();
    let blocks_per_plane = bw * bh;
    // Dequantization step per zigzag index.
    let steps = order.map(|pos| quant_step(pos % 8, pos / 8, c.quality));
    let idct = Idct::new();

    let mut planes = vec![vec![0.0f32; stride * bh * BLOCK]; 3];
    let mut sym = c.payload.iter();

    for plane in &mut planes {
        for bi in 0..blocks_per_plane {
            let (by, bx) = (bi / bw, bi % bw);
            let mut block = [0.0f32; 64];
            let mut live_rows = 0u8;
            let mut nonzero_ac = 0u32;
            let mut zi = 0usize;
            while zi < 64 {
                let &(run, level) = sym.next().ok_or_else(|| CellError::BadData {
                    message: "truncated codec payload".to_string(),
                })?;
                zi += run as usize;
                if zi >= 64 {
                    return Err(CellError::BadData {
                        message: "RLE run overflows block".to_string(),
                    });
                }
                let pos = order[zi];
                block[pos] = level as f32 * steps[zi];
                zi += 1;
                // A zero level only appears as the final-position marker.
                if level == 0 {
                    break;
                }
                live_rows |= 1 << (pos / 8);
                if pos != 0 {
                    nonzero_ac += 1;
                }
            }
            let origin = by * BLOCK * stride + bx * BLOCK;
            idct.block(&block, live_rows, &mut plane[origin..], stride);
            if let Some(p) = prof.as_deref_mut() {
                // Production decoders use a fast integer 8×8 IDCT
                // (AAN-style, ~40 multiplies + ~230 adds) *and* a DC-only
                // fast path (a block with no AC coefficients is a constant
                // fill — one scale plus 64 stores). Our straightforward
                // float IDCT above is only the functional stand-in; the
                // reference machines are charged what their decoder pays.
                if nonzero_ac == 0 {
                    p.record(OpClass::IntMul, 1);
                    p.record(OpClass::IntAlu, 16);
                    p.record(OpClass::Store, 16); // quadword fills
                } else {
                    p.record(OpClass::IntMul, 40);
                    p.record(OpClass::IntAlu, 230);
                    p.record(OpClass::Load, 64);
                    p.record(OpClass::Store, 64);
                }
            }
        }
    }

    let mut img = ColorImage::new(w, h)?;
    let (luma, blue, red) = (&planes[0], &planes[1], &planes[2]);
    for (y, row) in img.data_mut().chunks_exact_mut(w * 3).enumerate() {
        let at = y * stride..y * stride + w;
        let samples = luma[at.clone()].iter().zip(&blue[at.clone()]).zip(&red[at]);
        for (px, ((&l, &cb), &cr)) in row.chunks_exact_mut(3).zip(samples) {
            let (r, g, b) = ycbcr_to_rgb(l + 128.0, cb + 128.0, cr + 128.0);
            px.copy_from_slice(&[r, g, b]);
        }
    }
    if let Some(p) = prof {
        // Integer fixed-point YCbCr→RGB with clamping, the way decoders
        // actually do it (~12 integer ops per pixel amortized).
        p.record(OpClass::IntMul, (w * h * 3) as u64);
        p.record(OpClass::IntAlu, (w * h * 6) as u64);
        p.record(OpClass::Store, (w * h * 3) as u64);
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{PAPER_HEIGHT, PAPER_WIDTH};
    use cell_core::{checksum32, SplitMix64};

    /// `checksum32` of the q90 decodes of four 352×240 synthetic frames.
    const PINNED_PAPER_FRAME_SUMS: [u32; 4] =
        [161_359_356, 3_261_324_966, 2_461_399_643, 4_033_747_131];

    fn psnr(a: &ColorImage, b: &ColorImage) -> f64 {
        let mut se = 0.0f64;
        for (x, y) in a.data().iter().zip(b.data()) {
            let d = *x as f64 - *y as f64;
            se += d * d;
        }
        let mse = se / a.data().len() as f64;
        if mse == 0.0 {
            return f64::INFINITY;
        }
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let order = zigzag_order();
        let mut seen = [false; 64];
        for &o in &order {
            assert!(!seen[o], "duplicate {o}");
            seen[o] = true;
        }
        assert_eq!(order[0], 0);
        assert_eq!(order[63], 63);
        assert_eq!(order[1], 1, "zigzag starts rightward");
    }

    #[test]
    fn dct_roundtrip_is_near_exact() {
        let mut block = [0.0f32; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i * 37) % 255) as f32 - 128.0;
        }
        let orig = block;
        fdct_2d(&mut block);
        let coeffs = block;
        Idct::new().block(&coeffs, 0xFF, &mut block, 8);
        for (a, b) in orig.iter().zip(block.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn ycbcr_roundtrip() {
        for (r, g, b) in [
            (0u8, 0u8, 0u8),
            (255, 255, 255),
            (200, 30, 90),
            (12, 250, 128),
        ] {
            let (y, cb, cr) = rgb_to_ycbcr(r, g, b);
            let (r2, g2, b2) = ycbcr_to_rgb(y, cb, cr);
            assert!((r as i32 - r2 as i32).abs() <= 1);
            assert!((g as i32 - g2 as i32).abs() <= 1);
            assert!((b as i32 - b2 as i32).abs() <= 1);
        }
    }

    #[test]
    fn codec_roundtrip_high_quality_is_faithful() {
        let img = ColorImage::synthetic(72, 48, 11).unwrap();
        let c = encode(&img, 95);
        let back = decode(&c).unwrap();
        assert_eq!(back.width(), img.width());
        assert_eq!(back.height(), img.height());
        let q = psnr(&img, &back);
        assert!(q > 30.0, "PSNR {q:.1} dB too low at quality 95");
    }

    #[test]
    fn lower_quality_is_smaller_and_worse() {
        let img = ColorImage::synthetic(72, 48, 12).unwrap();
        let hi = encode(&img, 90);
        let lo = encode(&img, 10);
        assert!(
            lo.size_bytes() < hi.size_bytes(),
            "{} !< {}",
            lo.size_bytes(),
            hi.size_bytes()
        );
        let psnr_hi = psnr(&img, &decode(&hi).unwrap());
        let psnr_lo = psnr(&img, &decode(&lo).unwrap());
        assert!(psnr_hi > psnr_lo);
        // Lossy but recognizable even at low quality.
        assert!(psnr_lo > 15.0, "PSNR {psnr_lo:.1} dB");
    }

    #[test]
    fn compression_actually_compresses() {
        let img = ColorImage::synthetic(96, 64, 13).unwrap();
        let c = encode(&img, 60);
        let raw = img.data().len();
        assert!(
            c.size_bytes() < raw,
            "compressed {} bytes vs raw {raw}",
            c.size_bytes()
        );
    }

    #[test]
    fn non_block_multiple_sizes_roundtrip() {
        let img = ColorImage::synthetic(35, 21, 14).unwrap();
        let back = decode(&encode(&img, 90)).unwrap();
        assert_eq!(back.width(), 35);
        assert_eq!(back.height(), 21);
        assert!(psnr(&img, &back) > 28.0);
    }

    #[test]
    fn truncated_payload_is_detected() {
        let img = ColorImage::synthetic(16, 16, 15).unwrap();
        let mut c = encode(&img, 80);
        c.payload.truncate(c.payload.len() / 2);
        assert!(decode(&c).is_err());
    }

    #[test]
    fn counted_decode_matches_and_counts() {
        let img = ColorImage::synthetic(24, 16, 16).unwrap();
        let c = encode(&img, 85);
        let plain = decode(&c).unwrap();
        let mut prof = OpProfile::new();
        let counted = decode_counted(&c, &mut prof).unwrap();
        assert_eq!(plain, counted);
        assert!(prof.count(OpClass::IntMul) > 0);
        assert!(prof.total_ops() > 10_000);
    }

    #[test]
    fn empty_geometry_rejected() {
        let c = Compressed {
            width: 0,
            height: 8,
            quality: 50,
            payload: vec![],
        };
        assert!(decode(&c).is_err());
    }

    /// The straightforward decoder: full float IDCT on every block, then
    /// a per-pixel `round` through `ColorImage::set`. Kept as the oracle
    /// the production decoder must match byte for byte and op for op.
    mod reference {
        use super::super::{quant_step, zigzag_order, Compressed, BLOCK};
        use crate::image::ColorImage;
        use cell_core::{CellError, CellResult, OpClass, OpProfile};

        pub fn idct_1d(input: &[f32; 8], output: &mut [f32; 8]) {
            for (n, out) in output.iter_mut().enumerate() {
                let mut sum = input[0] * (1.0f32 / 8.0).sqrt();
                for (k, &v) in input.iter().enumerate().skip(1) {
                    sum += v
                        * (2.0f32 / 8.0).sqrt()
                        * (std::f32::consts::PI / 8.0 * (n as f32 + 0.5) * k as f32).cos();
                }
                *out = sum;
            }
        }

        pub fn idct_2d(block: &mut [f32; 64]) {
            let mut tmp = [0.0f32; 64];
            for y in 0..BLOCK {
                let mut row = [0.0f32; 8];
                let mut out = [0.0f32; 8];
                row.copy_from_slice(&block[y * 8..y * 8 + 8]);
                idct_1d(&row, &mut out);
                tmp[y * 8..y * 8 + 8].copy_from_slice(&out);
            }
            for x in 0..BLOCK {
                let mut col = [0.0f32; 8];
                let mut out = [0.0f32; 8];
                for y in 0..BLOCK {
                    col[y] = tmp[y * 8 + x];
                }
                idct_1d(&col, &mut out);
                for y in 0..BLOCK {
                    block[y * 8 + x] = out[y];
                }
            }
        }

        fn ycbcr_to_rgb(y: f32, cb: f32, cr: f32) -> (u8, u8, u8) {
            let r = y + 1.402 * (cr - 128.0);
            let g = y - 0.344_136 * (cb - 128.0) - 0.714_136 * (cr - 128.0);
            let b = y + 1.772 * (cb - 128.0);
            (clamp(r), clamp(g), clamp(b))
        }

        fn clamp(v: f32) -> u8 {
            v.round().clamp(0.0, 255.0) as u8
        }

        pub fn decode(c: &Compressed, p: &mut OpProfile) -> CellResult<ColorImage> {
            let (w, h) = (c.width as usize, c.height as usize);
            if w == 0 || h == 0 {
                return Err(CellError::BadData {
                    message: "empty compressed image".to_string(),
                });
            }
            let bw = w.div_ceil(BLOCK);
            let bh = h.div_ceil(BLOCK);
            let order = zigzag_order();
            let blocks_per_plane = bw * bh;

            let mut planes = vec![vec![0.0f32; bw * BLOCK * bh * BLOCK]; 3];
            let mut sym = c.payload.iter();

            for plane in &mut planes {
                for bi in 0..blocks_per_plane {
                    let (by, bx) = (bi / bw, bi % bw);
                    let mut block = [0.0f32; 64];
                    let mut nonzero_ac = 0u32;
                    let mut zi = 0usize;
                    while zi < 64 {
                        let Some(&(run, level)) = sym.next() else {
                            return Err(CellError::BadData {
                                message: "truncated codec payload".to_string(),
                            });
                        };
                        zi += run as usize;
                        if zi >= 64 {
                            return Err(CellError::BadData {
                                message: "RLE run overflows block".to_string(),
                            });
                        }
                        let pos = order[zi];
                        let (u, v) = (pos % 8, pos / 8);
                        block[pos] = level as f32 * quant_step(u, v, c.quality);
                        if pos != 0 && level != 0 {
                            nonzero_ac += 1;
                        }
                        zi += 1;
                        if level == 0 {
                            break;
                        }
                    }
                    idct_2d(&mut block);
                    if nonzero_ac == 0 {
                        p.record(OpClass::IntMul, 1);
                        p.record(OpClass::IntAlu, 16);
                        p.record(OpClass::Store, 16);
                    } else {
                        p.record(OpClass::IntMul, 40);
                        p.record(OpClass::IntAlu, 230);
                        p.record(OpClass::Load, 64);
                        p.record(OpClass::Store, 64);
                    }
                    for y in 0..BLOCK {
                        for x in 0..BLOCK {
                            plane[(by * 8 + y) * bw * BLOCK + bx * 8 + x] = block[y * 8 + x];
                        }
                    }
                }
            }

            let mut img = ColorImage::new(w, h)?;
            for y in 0..h {
                for x in 0..w {
                    let i = y * bw * BLOCK + x;
                    let (r, g, b) = ycbcr_to_rgb(
                        planes[0][i] + 128.0,
                        planes[1][i] + 128.0,
                        planes[2][i] + 128.0,
                    );
                    img.set(x, y, (r, g, b));
                }
            }
            p.record(OpClass::IntMul, (w * h * 3) as u64);
            p.record(OpClass::IntAlu, (w * h * 6) as u64);
            p.record(OpClass::Store, (w * h * 3) as u64);
            Ok(img)
        }
    }

    #[test]
    fn decode_matches_the_reference_decoder_bit_for_bit() {
        let sizes = [
            (1, 1),
            (8, 8),
            (17, 9),
            (35, 21),
            (PAPER_WIDTH, PAPER_HEIGHT),
        ];
        for quality in [1u8, 10, 50, 90, 100] {
            for (w, h) in sizes {
                for seed in [5u64, 2007, 90210] {
                    let c = encode(&ColorImage::synthetic(w, h, seed).unwrap(), quality);
                    let mut want_prof = OpProfile::new();
                    let want = reference::decode(&c, &mut want_prof).unwrap();
                    let mut got_prof = OpProfile::new();
                    let got = decode_counted(&c, &mut got_prof).unwrap();
                    let case = format!("q{quality} {w}x{h} seed {seed}");
                    assert!(got == want, "{case}: decoded bytes differ");
                    assert_eq!(got_prof, want_prof, "{case}: op profile differs");
                    assert!(
                        decode(&c).unwrap() == want,
                        "{case}: uncounted decode differs"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_frame_decodes_are_pinned() {
        let sums: Vec<u32> = [2007u64, 90210, 1000, 1015]
            .into_iter()
            .map(|seed| {
                let img = ColorImage::synthetic(PAPER_WIDTH, PAPER_HEIGHT, seed).unwrap();
                checksum32(decode(&encode(&img, 90)).unwrap().data())
            })
            .collect();
        assert_eq!(sums, PINNED_PAPER_FRAME_SUMS);
    }

    #[test]
    fn rle_run_past_the_block_is_detected() {
        // The second run steps from index 4 to 65, past the block's end.
        let c = Compressed {
            width: 8,
            height: 8,
            quality: 50,
            payload: vec![(3, 7), (61, 2)],
        };
        match decode(&c) {
            Err(CellError::BadData { message }) => {
                assert!(message.contains("overflows"), "{message}");
            }
            other => panic!("expected BadData, got {other:?}"),
        }
    }

    #[test]
    fn byte_rounding_matches_round_then_clamp() {
        let want = |v: f32| v.round().clamp(0.0, 255.0) as u8;
        // ±64 ulps around every integer and half-integer in [-1, 256].
        for i in -2..=512 {
            let (mut up, mut down) = (i as f32 * 0.5, i as f32 * 0.5);
            for _ in 0..=64 {
                assert_eq!(to_byte(up), want(up), "{up:e}");
                assert_eq!(to_byte(down), want(down), "{down:e}");
                up = up.next_up();
                down = down.next_down();
            }
        }
        let mut rng = SplitMix64::new(0x0B17_0E5D);
        for _ in 0..1_000_000 {
            let v = (-300.0 + 900.0 * rng.next_f64()) as f32;
            assert_eq!(to_byte(v), want(v), "{v:e}");
        }
    }
}
