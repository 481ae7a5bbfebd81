//! The grid and the Jacobi relaxation in scalar and SIMD forms.
//!
//! Both forms compute `out = ((left + right) + (up + down)) * 0.25` with
//! that exact association, so the 4-lane SIMD path is bit-identical to
//! the scalar reference — the same discipline the MARVEL kernels follow.

use cell_core::{CellError, CellResult, OpClass, OpProfile};
use cell_spu::{Spu, V128};

/// A 2D f32 grid with fixed (Dirichlet) boundary values.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Grid {
    pub fn new(width: usize, height: usize) -> CellResult<Self> {
        if width < 3 || height < 3 {
            return Err(CellError::BadData {
                message: format!("grid {width}x{height} too small for a 5-point stencil"),
            });
        }
        Ok(Grid {
            width,
            height,
            data: vec![0.0; width * height],
        })
    }

    /// A standard test problem: zero interior, hot west edge, cold east
    /// edge, linear north/south ramps.
    pub fn heat_problem(width: usize, height: usize) -> CellResult<Self> {
        let mut g = Self::new(width, height)?;
        for y in 0..height {
            *g.at_mut(0, y) = 100.0;
            *g.at_mut(width - 1, y) = 0.0;
        }
        for x in 0..width {
            let ramp = 100.0 * (1.0 - x as f32 / (width - 1) as f32);
            *g.at_mut(x, 0) = ramp;
            *g.at_mut(x, height - 1) = ramp;
        }
        Ok(g)
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn at(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize) -> &mut f32 {
        &mut self.data[y * self.width + x]
    }

    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Bytes of one row when uploaded (f32s, quadword-padded).
    pub fn row_stride_bytes(width: usize) -> usize {
        cell_core::align_up(width * 4, 16)
    }

    /// Serialize to little-endian bytes with padded rows.
    pub fn to_strided_bytes(&self) -> Vec<u8> {
        let stride = Self::row_stride_bytes(self.width);
        let mut out = vec![0u8; stride * self.height];
        for y in 0..self.height {
            for x in 0..self.width {
                let b = self.at(x, y).to_le_bytes();
                out[y * stride + x * 4..y * stride + x * 4 + 4].copy_from_slice(&b);
            }
        }
        out
    }

    /// Deserialize from padded-row bytes.
    pub fn from_strided_bytes(width: usize, height: usize, bytes: &[u8]) -> CellResult<Self> {
        let stride = Self::row_stride_bytes(width);
        if bytes.len() < stride * height {
            return Err(CellError::BadData {
                message: "short grid payload".to_string(),
            });
        }
        let mut g = Self::new(width, height)?;
        for y in 0..height {
            for x in 0..width {
                let o = y * stride + x * 4;
                *g.at_mut(x, y) = f32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
            }
        }
        Ok(g)
    }

    /// Mean absolute difference against another grid (convergence metric).
    pub fn mean_abs_diff(&self, other: &Grid) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs() as f64)
            .sum::<f64>()
            / self.data.len() as f64
    }
}

/// One scalar Jacobi sweep: `dst` gets the relaxed interior of `src`;
/// boundaries copy through.
pub fn jacobi_step(src: &Grid, dst: &mut Grid) {
    debug_assert_eq!((src.width, src.height), (dst.width, dst.height));
    let w = src.width;
    dst.data.copy_from_slice(&src.data);
    for y in 1..src.height - 1 {
        for x in 1..w - 1 {
            let l = src.data[y * w + x - 1];
            let r = src.data[y * w + x + 1];
            let u = src.data[(y - 1) * w + x];
            let d = src.data[(y + 1) * w + x];
            dst.data[y * w + x] = ((l + r) + (u + d)) * 0.25;
        }
    }
}

/// Scalar sweep with reference-machine cost accounting: 4 loads, 3 float
/// adds, 1 multiply, 1 store per interior point.
pub fn jacobi_step_counted(src: &Grid, dst: &mut Grid, prof: &mut OpProfile) {
    let interior = ((src.width - 2) * (src.height - 2)) as u64;
    prof.record(OpClass::Load, interior * 4);
    prof.record(OpClass::FpAdd, interior * 3);
    prof.record(OpClass::FpMul, interior);
    prof.record(OpClass::Store, interior);
    prof.record(OpClass::Branch, interior);
    jacobi_step(src, dst);
}

/// Relax the interior of one row band, SIMD, operating on strided byte
/// buffers (the in-LS representation). `rows` are the band's row count
/// including a 1-row halo above and below; rows `1..rows-1` are written.
///
/// `src`/`dst` hold `rows * stride` bytes. Columns `1..width-1` are
/// relaxed; column 0 and `width-1` copy through.
pub fn jacobi_band_simd(
    spu: &mut Spu,
    src: &[u8],
    dst: &mut [u8],
    width: usize,
    stride: usize,
    rows: usize,
) {
    debug_assert!(rows >= 3);
    let quarter = V128::splat_f32(0.25);
    // Copy boundary columns + start from a copy of the centre rows (the
    // boundary columns must pass through).
    dst[stride..(rows - 1) * stride].copy_from_slice(&src[stride..(rows - 1) * stride]);
    for r in 1..rows - 1 {
        let row = r * stride;
        let up = (r - 1) * stride;
        let down = (r + 1) * stride;
        // Vector interior in steps of 4 floats; the final block is
        // re-anchored at width-5 to overlap its neighbour (same trick as
        // the EH kernel), so writes end at column width-2 and the copied
        // boundary column width-1 stays.
        let mut x = 1usize;
        if width >= 6 {
            let last_anchor = width - 5;
            loop {
                let xa = x.min(last_anchor);
                let off = xa * 4;
                let l = spu.load(src, row + off - 4);
                let rr = spu.load(src, row + off + 4);
                let u = spu.load(src, up + off);
                let d = spu.load(src, down + off);
                let lr = spu.add_f32(l, rr);
                let ud = spu.add_f32(u, d);
                let sum = spu.add_f32(lr, ud);
                let out = spu.mul_f32(sum, quarter);
                spu.store(out, dst, row + off);
                if xa == last_anchor {
                    break;
                }
                x = xa + 4;
            }
        } else {
            // Narrow grids: scalar.
            for xi in 1..width - 1 {
                let f = |buf: &[u8], o: usize| -> f32 {
                    f32::from_le_bytes(buf[o..o + 4].try_into().unwrap())
                };
                let l = f(src, row + (xi - 1) * 4);
                let rr = f(src, row + (xi + 1) * 4);
                let u = f(src, up + xi * 4);
                let d = f(src, down + xi * 4);
                spu.scalar_op(9);
                let v = ((l + rr) + (u + d)) * 0.25;
                dst[row + xi * 4..row + xi * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_problem_boundaries() {
        let g = Grid::heat_problem(16, 12).unwrap();
        assert_eq!(g.at(0, 5), 100.0);
        assert_eq!(g.at(15, 5), 0.0);
        assert_eq!(g.at(0, 0), 100.0);
        assert!(g.at(8, 0) > 0.0 && g.at(8, 0) < 100.0);
        assert_eq!(g.at(7, 5), 0.0, "interior starts cold");
    }

    #[test]
    fn tiny_grids_rejected() {
        assert!(Grid::new(2, 10).is_err());
        assert!(Grid::new(10, 2).is_err());
    }

    #[test]
    fn jacobi_averages_neighbours() {
        let mut g = Grid::new(5, 5).unwrap();
        *g.at_mut(2, 1) = 4.0;
        *g.at_mut(2, 3) = 8.0;
        *g.at_mut(1, 2) = 12.0;
        *g.at_mut(3, 2) = 16.0;
        let mut out = Grid::new(5, 5).unwrap();
        jacobi_step(&g, &mut out);
        assert_eq!(out.at(2, 2), (4.0 + 8.0 + 12.0 + 16.0) / 4.0);
        // Boundaries pass through.
        assert_eq!(out.at(0, 0), 0.0);
    }

    #[test]
    fn jacobi_converges_toward_laplace_solution() {
        let mut a = Grid::heat_problem(24, 18).unwrap();
        let mut b = a.clone();
        for _ in 0..400 {
            jacobi_step(&a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        // Interior near the hot edge is hot, near the cold edge cold,
        // and the update is nearly a fixed point.
        assert!(a.at(1, 9) > 80.0);
        assert!(a.at(22, 9) < 20.0);
        jacobi_step(&a, &mut b);
        assert!(
            a.mean_abs_diff(&b) < 0.05,
            "not converged: {}",
            a.mean_abs_diff(&b)
        );
    }

    #[test]
    fn counted_matches_plain() {
        let g = Grid::heat_problem(20, 16).unwrap();
        let mut a = Grid::new(20, 16).unwrap();
        let mut b = Grid::new(20, 16).unwrap();
        let mut prof = OpProfile::new();
        jacobi_step(&g, &mut a);
        jacobi_step_counted(&g, &mut b, &mut prof);
        assert_eq!(a, b);
        assert_eq!(prof.count(OpClass::FpAdd), (18 * 14 * 3) as u64);
    }

    #[test]
    fn strided_bytes_roundtrip() {
        let g = Grid::heat_problem(13, 7).unwrap(); // odd width → padding
        let bytes = g.to_strided_bytes();
        assert_eq!(bytes.len() % 16, 0);
        let back = Grid::from_strided_bytes(13, 7, &bytes).unwrap();
        assert_eq!(g, back);
        assert!(Grid::from_strided_bytes(13, 7, &bytes[..32]).is_err());
    }

    #[test]
    fn simd_band_matches_scalar_sweep() {
        for width in [6usize, 13, 16, 33] {
            let g = Grid::heat_problem(width, 9).unwrap();
            let mut want = Grid::new(width, 9).unwrap();
            jacobi_step(&g, &mut want);

            let stride = Grid::row_stride_bytes(width);
            let src = g.to_strided_bytes();
            let mut dst = src.clone();
            let mut spu = Spu::new();
            jacobi_band_simd(&mut spu, &src, &mut dst, width, stride, 9);
            let got = Grid::from_strided_bytes(width, 9, &dst).unwrap();
            // Interior rows must match the reference exactly; the outer
            // rows are the caller's halo responsibility.
            for y in 1..8 {
                for x in 0..width {
                    assert_eq!(got.at(x, y), want.at(x, y), "({x},{y}) w={width}");
                }
            }
        }
    }

    #[test]
    fn simd_band_issue_counts_are_pinned() {
        // 128 wide: 32 anchored blocks per relaxed row (the last overlaps
        // its neighbour), each 3 adds + 1 multiply on the even pipe and
        // 4 loads + 1 store on the odd, over 16 rows. 5 wide is too narrow
        // for a block: its 3×4 interior points take the scalar path at 9
        // scalar ops each.
        for (width, rows, want) in [(128, 18, [2_048, 2_560, 0]), (5, 6, [0, 0, 108])] {
            let g = Grid::heat_problem(width, rows).unwrap();
            let stride = Grid::row_stride_bytes(width);
            let src = g.to_strided_bytes();
            let mut dst = src.clone();
            let mut spu = Spu::new();
            jacobi_band_simd(&mut spu, &src, &mut dst, width, stride, rows);
            let c = spu.counters();
            assert_eq!([c.even, c.odd, c.scalar], want, "{width}x{rows}");
        }
    }
}
