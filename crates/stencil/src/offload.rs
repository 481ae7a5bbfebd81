//! The ported stencil application: SPE kernel + PPE driver.
//!
//! Exactly the paper's §3 recipe, applied to an iterative solver:
//! a wrapper struct carries the grid geometry, iteration count and the
//! two ping-pong buffers' effective addresses; the kernel picks its
//! regime (LS-resident vs banded) from the §3.2 sizing rule; the PPE
//! side is a single-lane [`cell_engine::Engine`].

use cell_core::{CellError, CellResult, OpProfile, VirtualDuration};
#[cfg(test)]
use cell_core::{CostModel, MachineProfile};
use cell_engine::Engine;
use cell_mem::StructLayout;
use cell_sys::machine::{CellMachine, SpeHandle};
use cell_sys::ppe::Ppe;
use cell_sys::spe::SpeEnv;
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::ReplyMode;
use portkit::wrapper::MsgWrapper;

use crate::grid::{jacobi_band_simd, jacobi_step, jacobi_step_counted, Grid};

/// Result word: the relaxed grid ended up in the `in` buffer.
const RESULT_IN_A: u32 = 0;
/// Result word: the relaxed grid ended up in the `out` buffer.
const RESULT_IN_B: u32 = 1;

/// The stencil wrapper's layout alone, for static analysis of the port
/// (the PPE stub and SPE kernel both build theirs via `wrapper_layout`,
/// so a checker seeing this sees the real ABI).
pub fn stencil_wrapper_layout() -> CellResult<StructLayout> {
    Ok(wrapper_layout()?.0)
}

fn wrapper_layout() -> CellResult<(StructLayout, [cell_mem::FieldId; 6])> {
    let mut l = StructLayout::new();
    let w = l.field_u32("width")?;
    let h = l.field_u32("height")?;
    let stride = l.field_u32("stride")?;
    let iters = l.field_u32("iters")?;
    let a = l.field_addr("buf_a_ea")?;
    let b = l.field_addr("buf_b_ea")?;
    Ok((l, [w, h, stride, iters, a, b]))
}

/// The SPE kernel body.
fn stencil_body(env: &mut SpeEnv, addr: u32) -> CellResult<u32> {
    let (layout, [fw, fh, fstride, fiters, fa, fb]) = wrapper_layout()?;
    let hdr = env.ls.alloc(layout.size(), 16)?;
    env.dma_get_sync(hdr, addr as u64, layout.size(), 0)?;
    let rd32 = |env: &SpeEnv, f| env.ls.read_u32(hdr + layout.offset(f) as u32);
    let rd64 = |env: &SpeEnv, f| -> CellResult<u64> {
        let lo = env.ls.read_u32(hdr + layout.offset(f) as u32)? as u64;
        let hi = env.ls.read_u32(hdr + layout.offset(f) as u32 + 4)? as u64;
        Ok(lo | (hi << 32))
    };
    let w = rd32(env, fw)? as usize;
    let h = rd32(env, fh)? as usize;
    let stride = rd32(env, fstride)? as usize;
    let iters = rd32(env, fiters)?;
    let ea_a = rd64(env, fa)?;
    let ea_b = rd64(env, fb)?;
    if w < 3 || h < 3 || stride < w * 4 || !stride.is_multiple_of(16) {
        return Err(CellError::BadData {
            message: format!("bad stencil header {w}x{h}/{stride}"),
        });
    }

    let grid_bytes = stride * h;
    let resident_fits = env.ls.remaining() >= 2 * grid_bytes + 4096;
    if resident_fits {
        // --- LS-resident regime: fetch once, iterate locally ------------
        let la_a = env.ls.alloc(grid_bytes, 128)?;
        let la_b = env.ls.alloc(grid_bytes, 128)?;
        env.dma_get_large_sync(la_a, ea_a, grid_bytes, 0)?;
        // Seed the ping-pong partner (boundary rows settle permanently).
        let src = env.ls.slice(la_a, grid_bytes)?.to_vec();
        env.ls.write(la_b, &src)?;
        let (mut cur, mut nxt) = (la_a, la_b);
        for _ in 0..iters {
            let src = env.ls.slice(cur, grid_bytes)?.to_vec();
            let mut dst = env.ls.slice(nxt, grid_bytes)?.to_vec();
            jacobi_band_simd(&mut env.spu, &src, &mut dst, w, stride, h);
            env.ls.write(nxt, &dst)?;
            std::mem::swap(&mut cur, &mut nxt);
            env.charge_compute();
        }
        env.dma_put_large_sync(cur, ea_b, grid_bytes, 0)?;
        env.ls.reset();
        return Ok(RESULT_IN_B);
    }

    // --- Banded regime: per sweep, halo bands through the LS ------------
    // Seed buffer B with the full initial grid (boundary rows included),
    // so interior-only writes leave correct boundaries behind.
    {
        let chunk_rows = (env.ls.remaining() / 2 / stride).clamp(1, 32);
        let la = env.ls.alloc(chunk_rows * stride, 128)?;
        let mut y = 0usize;
        while y < h {
            let rows = chunk_rows.min(h - y);
            env.dma_get_large_sync(la, ea_a + (y * stride) as u64, rows * stride, 0)?;
            env.dma_put_large_sync(la, ea_b + (y * stride) as u64, rows * stride, 0)?;
            y += rows;
        }
        env.ls.reset();
        // Re-read the header region (reset rewound the allocator).
        let hdr2 = env.ls.alloc(layout.size(), 16)?;
        env.dma_get_sync(hdr2, addr as u64, layout.size(), 0)?;
    }
    let band_rows = ((env.ls.remaining() / 3 / stride).saturating_sub(2)).clamp(1, 48);
    let max_band = band_rows + 2;
    let la_src = env.ls.alloc(max_band * stride, 128)?;
    let la_dst = env.ls.alloc(max_band * stride, 128)?;
    let (mut src_ea, mut dst_ea) = (ea_a, ea_b);
    for _ in 0..iters {
        let mut y0 = 1usize;
        while y0 < h - 1 {
            let y1 = (y0 + band_rows).min(h - 1);
            let top = y0 - 1;
            let bot = y1 + 1;
            let rows = bot - top;
            env.dma_get_large_sync(la_src, src_ea + (top * stride) as u64, rows * stride, 1)?;
            let band = env.ls.slice(la_src, rows * stride)?.to_vec();
            let mut out = band.clone();
            jacobi_band_simd(&mut env.spu, &band, &mut out, w, stride, rows);
            env.ls.write(la_dst, &out)?;
            env.charge_compute();
            // Write back only the relaxed interior rows y0..y1.
            env.mfc.put_large(
                &mut env.ls,
                la_dst + stride as u32,
                dst_ea + (y0 * stride) as u64,
                (y1 - y0) * stride,
                2,
                &mut env.clock,
            )?;
            env.mfc.wait_tag(2, &mut env.clock)?;
            y0 = y1;
        }
        std::mem::swap(&mut src_ea, &mut dst_ea);
    }
    env.ls.reset();
    // After the final swap, `src_ea` holds the latest sweep's output.
    Ok(if src_ea == ea_a {
        RESULT_IN_A
    } else {
        RESULT_IN_B
    })
}

/// The SPE hosting the stencil dispatcher.
const STENCIL_SPE: usize = 0;

/// Canonical dispatcher function name of the Jacobi kernel — the one
/// spelling shared by registration, the PPE dispatch script, and the
/// lint models.
pub const JACOBI_FN: &str = "jacobi";

/// The PPE-side application.
pub struct StencilApp {
    machine: CellMachine,
    ppe: Ppe,
    engine: Engine,
    opcode: u32,
    handle: Option<SpeHandle>,
}

impl StencilApp {
    pub fn new() -> CellResult<Self> {
        let mut machine = CellMachine::cell_be();
        let ppe = machine.ppe();
        let mut d = KernelDispatcher::new("stencil", ReplyMode::Polling);
        d.register(JACOBI_FN, stencil_body);
        let opcode = d.opcode_table().require(JACOBI_FN);
        let handle = machine.spawn(STENCIL_SPE, Box::new(d))?;
        Ok(StencilApp {
            machine,
            ppe,
            engine: Engine::new(STENCIL_SPE + 1),
            opcode,
            handle: Some(handle),
        })
    }

    /// The opcode the PPE sends to invoke the Jacobi kernel.
    pub fn opcode(&self) -> u32 {
        self.opcode
    }

    /// The SPE hosting the stencil dispatcher.
    pub fn spe(&self) -> usize {
        STENCIL_SPE
    }

    /// The engine's in-flight window (1: each solve is one round trip).
    pub fn engine_window(&self) -> usize {
        self.engine.window()
    }

    /// Run `iters` Jacobi sweeps on the SPE; returns the relaxed grid and
    /// the PPE-observed kernel time.
    pub fn solve(&mut self, grid: &Grid, iters: u32) -> CellResult<(Grid, VirtualDuration)> {
        let mem = std::sync::Arc::clone(self.ppe.mem());
        let stride = Grid::row_stride_bytes(grid.width());
        let bytes = grid.to_strided_bytes();
        let ea_a = mem.alloc(bytes.len(), 128)?;
        let ea_b = mem.alloc_zeroed(bytes.len(), 128)?;
        mem.write(ea_a, &bytes)?;

        let (layout, [fw, fh, fstride, fiters, fa, fb]) = wrapper_layout()?;
        let wrapper = MsgWrapper::alloc(&mem, layout)?;
        wrapper.set_u32(fw, grid.width() as u32)?;
        wrapper.set_u32(fh, grid.height() as u32)?;
        wrapper.set_u32(fstride, stride as u32)?;
        wrapper.set_u32(fiters, iters)?;
        wrapper.set_u64(fa, ea_a)?;
        wrapper.set_u64(fb, ea_b)?;

        let t0 = self.ppe.elapsed();
        let ticket = self.engine.submit_to_spe(
            &mut self.ppe,
            STENCIL_SPE,
            JACOBI_FN,
            self.opcode,
            wrapper.addr_word()?,
        )?;
        let where_result = self.engine.complete(&mut self.ppe, ticket)?;
        let elapsed = self.ppe.elapsed() - t0;

        let result_ea = if where_result == RESULT_IN_A {
            ea_a
        } else {
            ea_b
        };
        let mut out = vec![0u8; bytes.len()];
        mem.read(result_ea, &mut out)?;
        let result = Grid::from_strided_bytes(grid.width(), grid.height(), &out)?;

        wrapper.free()?;
        mem.free(ea_a)?;
        mem.free(ea_b)?;
        Ok((result, elapsed))
    }

    /// Shut the kernel down and return the machine's reports.
    pub fn finish(mut self) -> CellResult<Vec<cell_sys::machine::SpeReport>> {
        self.engine.close(&mut self.ppe)?;
        let mut reports = Vec::new();
        if let Some(h) = self.handle.take() {
            reports.push(h.join()?);
        }
        self.machine.shutdown();
        Ok(reports)
    }
}

/// The reference (scalar) solver with cost accounting.
pub fn reference_solve(grid: &Grid, iters: u32) -> (Grid, OpProfile) {
    let mut prof = OpProfile::new();
    let mut a = grid.clone();
    let mut b = grid.clone();
    for _ in 0..iters {
        jacobi_step_counted(&a, &mut b, &mut prof);
        std::mem::swap(&mut a, &mut b);
    }
    (a, prof)
}

/// Reference solver without accounting (tests).
pub fn plain_solve(grid: &Grid, iters: u32) -> Grid {
    let mut a = grid.clone();
    let mut b = grid.clone();
    for _ in 0..iters {
        jacobi_step(&a, &mut b);
        std::mem::swap(&mut a, &mut b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ls_resident_regime_matches_reference() {
        // 96x64 f32 with padding ≈ 25 KB per buffer — resident.
        let grid = Grid::heat_problem(96, 64).unwrap();
        let mut app = StencilApp::new().unwrap();
        for iters in [0u32, 1, 7] {
            let (got, t) = app.solve(&grid, iters).unwrap();
            let want = plain_solve(&grid, iters);
            assert_eq!(got, want, "iters={iters}");
            assert!(t.seconds() >= 0.0);
        }
        let reports = app.finish().unwrap();
        assert!(reports[0].mfc.bytes_in > 0);
    }

    #[test]
    fn banded_regime_matches_reference() {
        // 512x256 f32 = 512 KB per buffer — must band.
        let grid = Grid::heat_problem(512, 256).unwrap();
        let mut app = StencilApp::new().unwrap();
        for iters in [1u32, 2, 3] {
            let (got, _t) = app.solve(&grid, iters).unwrap();
            let want = plain_solve(&grid, iters);
            assert_eq!(got, want, "iters={iters}");
        }
        // Banded sweeps re-fetch halos every iteration: DMA traffic must
        // exceed the resident regime's one-shot traffic.
        let reports = app.finish().unwrap();
        assert!(reports[0].mfc.bytes_in as usize > 3 * 512 * 256 * 4);
    }

    #[test]
    fn kernel_beats_ppe_by_an_order_of_magnitude() {
        let grid = Grid::heat_problem(128, 96).unwrap();
        let iters = 10;
        let mut app = StencilApp::new().unwrap();
        let (_got, spe_time) = app.solve(&grid, iters).unwrap();
        app.finish().unwrap();
        let (_ref, prof) = reference_solve(&grid, iters);
        let ppe_time = MachineProfile::ppe().time(&prof);
        let speedup = ppe_time.seconds() / spe_time.seconds();
        assert!(
            speedup > 8.0,
            "stencil speedup {speedup:.1} — expected an order of magnitude"
        );
    }

    #[test]
    fn solve_virtual_time_and_spu_tally_are_pinned() {
        // One SPE behind a one-lane engine: the PPE clock around a solve
        // is a pure function of the grid and the sweep count.
        let run = |width, height, iters| {
            let grid = Grid::heat_problem(width, height).unwrap();
            let mut app = StencilApp::new().unwrap();
            let start = app.ppe.clock.now();
            app.solve(&grid, iters).unwrap();
            let end = app.ppe.clock.now();
            let c = app.finish().unwrap()[0].counters;
            (
                start,
                end,
                [c.even, c.odd, c.scalar, c.branches, c.branches_hard],
            )
        };
        // LS-resident: 24 blocks per row, 62 rows, 7 sweeps; each block
        // is 4 even and 5 odd issues.
        assert_eq!(run(96, 64, 7), (0, 79_032, [41_664, 52_080, 0, 0, 0]));
        // Banded: 128 blocks per row, 254 rows, one sweep.
        assert_eq!(run(512, 256, 1), (0, 455_036, [130_048, 162_560, 0, 0, 0]));
    }

    #[test]
    fn zero_iterations_is_identity() {
        let grid = Grid::heat_problem(64, 48).unwrap();
        let mut app = StencilApp::new().unwrap();
        let (got, _) = app.solve(&grid, 0).unwrap();
        assert_eq!(got, grid);
        app.finish().unwrap();
    }

    #[test]
    fn amdahl_arithmetic_applies_to_the_stencil_too() {
        // The §4.2 sanity check the paper recommends, on this app: with
        // the solve loop at ~99% coverage and a measured order-of-
        // magnitude kernel gain, the app speed-up approaches the kernel's.
        let s = portkit::amdahl::estimate_single(0.99, 20.0).unwrap();
        assert!(s > 16.0);
    }
}
