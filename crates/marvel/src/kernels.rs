//! The five SPE kernel programs and their PPE-side invocation helpers.
//!
//! Each kernel follows paper Listing 1 exactly: a [`KernelDispatcher`]
//! idle loop reads `(opcode, wrapper address)` pairs from the inbound
//! mailbox, DMAs the wrapper header, streams the bulk data through the
//! local store in halo-padded bands (paper §3.4), computes in host code
//! while charging the SIMD issue sequence it models to `cell-spu`, DMAs
//! results back into the wrapper's output buffer, and reports through
//! the outbound mailbox.
//!
//! Every extraction kernel also has an **unoptimized** body — the state
//! right after the C++ → C port, before §4.1's optimizations: scalar
//! math in vector registers, unhinted branches, single-buffered DMA. The
//! paper measures CH/CC/EH in that state (26.41× / 0.43× / 3.85× vs the
//! PPE); the experiment harness reproduces the comparison.

use cell_core::{CellError, CellResult, MachineProfile, QUADWORD};
use cell_mem::LsAddr;
use cell_spu::Spu;
use cell_sys::spe::SpeEnv;
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::ReplyMode;
use portkit::opcodes::{OpcodeTable, SPU_OK};

use crate::classify::svm::{score_record_simd, SvmKernel, SvmModel};
use crate::features::correlogram::{self, CorrelogramAcc, RADIUS};
use crate::features::edge::{self, EdgeAcc};
use crate::features::histogram::{self, SlicedHistogram};
use crate::features::texture::TextureAcc;
use crate::features::KernelKind;
use crate::wire::{DetectWire, ExtractWire};

/// Feature dimensionality per kernel kind.
pub fn feature_dim(kind: KernelKind) -> usize {
    match kind {
        KernelKind::Ch | KernelKind::Cc => crate::color::NUM_BINS,
        KernelKind::Tx => crate::features::texture::TX_DIM,
        KernelKind::Eh => crate::features::edge::EH_DIM,
        KernelKind::Cd => 0,
    }
}

// =========================================================================
// Gray conversion (RGB → luma) in both SPE forms
// =========================================================================

/// SIMD RGB→gray over one row. Identical to `ColorImage::to_gray`:
/// `(77 r + 150 g + 29 b) >> 8`. The SPU pays per 16 pixels 3 loads,
/// 6 deinterleave shuffles, 4 widening multiply/add pairs, a shift, a
/// pack and a store; each pixel of a ragged tail pays 3 scalar loads,
/// 5 scalar ops and a scalar store.
pub fn gray_row_simd(spu: &mut Spu, rgb: &[u8], out: &mut [u8]) {
    for (o, p) in out.iter_mut().zip(rgb.chunks_exact(3)) {
        *o = ((77 * p[0] as u32 + 150 * p[1] as u32 + 29 * p[2] as u32) >> 8) as u8;
    }
    let blocks = (out.len() / 16) as u64;
    spu.charge_even(10 * blocks);
    spu.charge_odd(10 * blocks);
    spu.scalar_op(9 * (out.len() % 16) as u64);
}

/// Unoptimized RGB→gray: scalar-in-vector per pixel.
pub fn gray_row_unoptimized(spu: &mut Spu, rgb: &[u8], out: &mut [u8]) {
    for (i, o) in out.iter_mut().enumerate() {
        let r = spu.scalar_load_u8(rgb, i * 3);
        let g = spu.scalar_load_u8(rgb, i * 3 + 1);
        let b = spu.scalar_load_u8(rgb, i * 3 + 2);
        spu.scalar_op(6);
        *o = ((77 * r as u32 + 150 * g as u32 + 29 * b as u32) >> 8) as u8;
    }
}

// =========================================================================
// Halo-band streaming
// =========================================================================

/// One band's geometry: centre rows `[y0, y1)`, fetched rows `[top, bot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandPlan {
    pub y0: usize,
    pub y1: usize,
    pub top: usize,
    pub bot: usize,
}

/// Split `height` rows into bands of `band_rows` with `halo` extra rows
/// fetched on each side (clipped at the image edges).
pub fn band_plans(height: usize, band_rows: usize, halo: usize) -> Vec<BandPlan> {
    assert!(band_rows > 0);
    let mut plans = Vec::new();
    let mut y = 0usize;
    while y < height {
        let y1 = (y + band_rows).min(height);
        plans.push(BandPlan {
            y0: y,
            y1,
            top: y.saturating_sub(halo),
            bot: (y1 + halo).min(height),
        });
        y = y1;
    }
    plans
}

/// Double-buffered reader of halo bands from a strided image in main
/// memory — the multibuffering of §4.1 applied to §3.4's sliced,
/// border-aware transfers (plain [`cell_mfc::StreamReader`] cannot
/// overlap fetch regions, halo bands must).
pub struct HaloBandReader {
    plans: Vec<BandPlan>,
    bufs: Vec<LsAddr>,
    stride: usize,
    image_ea: u64,
    fetch_idx: usize,
    consume_idx: usize,
    tags: Vec<u32>,
}

impl HaloBandReader {
    pub fn new(
        env: &mut SpeEnv,
        image_ea: u64,
        stride: usize,
        plans: Vec<BandPlan>,
        depth: usize,
        tag_base: u32,
    ) -> CellResult<Self> {
        assert!((1..=4).contains(&depth));
        let max_rows = plans.iter().map(|p| p.bot - p.top).max().unwrap_or(0);
        let mut bufs = Vec::with_capacity(depth);
        for _ in 0..depth {
            bufs.push(env.ls.alloc(max_rows * stride, 128)?);
        }
        let tags = (0..depth as u32).map(|t| tag_base + t).collect();
        let mut r = HaloBandReader {
            plans,
            bufs,
            stride,
            image_ea,
            fetch_idx: 0,
            consume_idx: 0,
            tags,
        };
        for _ in 0..depth {
            r.issue_next(env)?;
        }
        Ok(r)
    }

    fn depth(&self) -> usize {
        self.bufs.len()
    }

    fn issue_next(&mut self, env: &mut SpeEnv) -> CellResult<()> {
        if self.fetch_idx >= self.plans.len() {
            return Ok(());
        }
        let p = self.plans[self.fetch_idx];
        let slot = self.fetch_idx % self.depth();
        let bytes = (p.bot - p.top) * self.stride;
        env.mfc.get_large(
            &mut env.ls,
            self.bufs[slot],
            self.image_ea + (p.top * self.stride) as u64,
            bytes,
            self.tags[slot],
            &mut env.clock,
        )?;
        self.fetch_idx += 1;
        Ok(())
    }

    /// Wait for the oldest band; returns its LS address and plan.
    pub fn acquire(&mut self, env: &mut SpeEnv) -> CellResult<Option<(LsAddr, BandPlan)>> {
        if self.consume_idx >= self.plans.len() {
            return Ok(None);
        }
        let slot = self.consume_idx % self.depth();
        env.mfc.wait_tag(self.tags[slot], &mut env.clock)?;
        Ok(Some((self.bufs[slot], self.plans[self.consume_idx])))
    }

    /// Release the oldest band and prefetch the next into its buffer.
    pub fn release(&mut self, env: &mut SpeEnv) -> CellResult<()> {
        self.consume_idx += 1;
        self.issue_next(env)
    }
}

// =========================================================================
// Kernel bodies
// =========================================================================

struct ExtractHeader {
    width: usize,
    height: usize,
    stride: usize,
    image_ea: u64,
    out_ea: u64,
    sum_ea: u64,
}

fn read_extract_header(
    env: &mut SpeEnv,
    addr: u32,
    wire: &ExtractWire,
) -> CellResult<ExtractHeader> {
    let hdr = wire.header_bytes();
    let la = env.ls.alloc(hdr, 16)?;
    env.dma_get_sync(la, addr as u64, hdr, 0)?;
    // Verify the stub's request checksum before trusting any field: a
    // mismatch is a retryable transfer fault, not a bad request.
    let expected = env
        .ls
        .read_u32(la + wire.layout.offset(wire.in_sum) as u32)?;
    cell_core::verify_checksum(
        env.ls.slice(la, wire.in_sum_bytes())?,
        expected,
        "extract wrapper header",
    )?;
    let width = env
        .ls
        .read_u32(la + wire.layout.offset(wire.width) as u32)? as usize;
    let height = env
        .ls
        .read_u32(la + wire.layout.offset(wire.height) as u32)? as usize;
    let stride = env
        .ls
        .read_u32(la + wire.layout.offset(wire.stride) as u32)? as usize;
    let off = wire.layout.offset(wire.image_ea) as u32;
    let lo = env.ls.read_u32(la + off)? as u64;
    let hi = env.ls.read_u32(la + off + 4)? as u64;
    if width == 0 || height == 0 || stride < width * 3 || !stride.is_multiple_of(QUADWORD) {
        return Err(CellError::BadData {
            message: format!("bad extract header {width}x{height} stride {stride}"),
        });
    }
    Ok(ExtractHeader {
        width,
        height,
        stride,
        image_ea: lo | (hi << 32),
        out_ea: addr as u64 + wire.layout.offset(wire.out) as u64,
        sum_ea: addr as u64 + wire.layout.offset(wire.out_sum) as u64,
    })
}

/// Write `values` as f32s to `out_ea` (quadword-padded), then stamp their
/// checksum into the wrapper's `out_sum` field at `sum_ea` so the PPE can
/// verify the result survived the DMA back.
fn write_feature(env: &mut SpeEnv, out_ea: u64, sum_ea: u64, values: &[f32]) -> CellResult<()> {
    let bytes = cell_core::align_up(values.len() * 4, QUADWORD);
    let la = env.ls.alloc(bytes, 16)?;
    for (i, &v) in values.iter().enumerate() {
        env.ls.write_f32(la + (i * 4) as u32, v)?;
    }
    // The LS bytes just written are exactly the codec's wire form, so the
    // shared codec computes the same checksum the PPE will verify with.
    let sum = cell_engine::codec::f32s_checksum(values);
    env.dma_put_sync(la, out_ea, bytes, 1)?;
    let sla = env.ls.alloc(16, 16)?;
    env.ls.write(sla, &[0u8; 16])?;
    env.ls.write_u32(sla, sum)?;
    env.dma_put_sync(sla, sum_ea, 16, 1)
}

/// Rows per band so a fetched band (with halo) stays well under both the
/// LS data budget and sensible DMA sizes.
fn pick_band_rows(env: &SpeEnv, stride: usize, halo: usize, buffers: usize) -> usize {
    let budget = env.ls.remaining() / 2; // leave room for bins/gray/out
    let per_buf = budget / buffers.max(1);
    let rows = per_buf / stride;
    rows.saturating_sub(2 * halo).clamp(2, 64) & !1 // even, for TX
}

fn ch_body(env: &mut SpeEnv, addr: u32, optimized: bool) -> CellResult<u32> {
    if !optimized {
        env.set_compute_model(MachineProfile::spe_unoptimized());
    }
    let wire = ExtractWire::new(feature_dim(KernelKind::Ch)).map_err(to_fault(env))?;
    let h = read_extract_header(env, addr, &wire)?;
    let depth = if optimized { 2 } else { 1 };
    let band_rows = pick_band_rows(env, h.stride, 0, depth);
    let plans = band_plans(h.height, band_rows, 0);
    let mut reader = HaloBandReader::new(env, h.image_ea, h.stride, plans, depth, 2)?;
    let mut acc = SlicedHistogram::new();
    let mut unopt_counts = [0u32; crate::color::NUM_BINS];
    let mut scratch = vec![0u8; h.width];
    while let Some((la, plan)) = reader.acquire(env)? {
        for r in 0..plan.bot - plan.top {
            let row_la = la + (r * h.stride) as u32;
            let row = env.ls.slice(row_la, h.width * 3)?.to_vec();
            if optimized {
                acc.update_simd(&mut env.spu, &row, &mut scratch);
            } else {
                histogram::update_ported_spu(&mut env.spu, &mut unopt_counts, &row, &mut scratch);
            }
        }
        env.charge_compute();
        reader.release(env)?;
    }
    let feature = if optimized {
        acc.finish()
    } else {
        crate::features::normalize_l1(&unopt_counts)
    };
    env.spu.scalar_op(feature.len() as u64); // normalization divides
    write_feature(env, h.out_ea, h.sum_ea, &feature)?;
    env.ls.reset();
    Ok(SPU_OK)
}

fn cc_body(env: &mut SpeEnv, addr: u32, optimized: bool) -> CellResult<u32> {
    if !optimized {
        env.set_compute_model(MachineProfile::spe_unoptimized());
    }
    let wire = ExtractWire::new(feature_dim(KernelKind::Cc)).map_err(to_fault(env))?;
    let h = read_extract_header(env, addr, &wire)?;
    let depth = if optimized { 2 } else { 1 };
    let band_rows = pick_band_rows(env, h.stride, RADIUS, depth);
    let plans = band_plans(h.height, band_rows, RADIUS);
    let max_band = plans.iter().map(|p| p.bot - p.top).max().unwrap_or(0);
    let mut reader = HaloBandReader::new(env, h.image_ea, h.stride, plans, depth, 2)?;
    let bins_la = env.ls.alloc(max_band * h.width, 16)?;
    let mut acc = CorrelogramAcc::new(h.width, h.height);
    while let Some((la, plan)) = reader.acquire(env)? {
        let rows = plan.bot - plan.top;
        // Quantize the fetched rows (including halos) into the bins plane.
        for r in 0..rows {
            let row = env
                .ls
                .slice(la + (r * h.stride) as u32, h.width * 3)?
                .to_vec();
            let mut bins_row = vec![0u8; h.width];
            if optimized {
                crate::color::quantize_row_simd(&mut env.spu, &row, &mut bins_row);
            } else {
                for (i, px) in row.chunks_exact(3).enumerate() {
                    let r8 = env.spu.scalar_load_u8(&row, i * 3);
                    let _ = (px, r8);
                    env.spu.scalar_op(22);
                    env.spu.branch_hard();
                }
                crate::color::quantize_row(&row, &mut bins_row);
            }
            env.ls.write(bins_la + (r * h.width) as u32, &bins_row)?;
        }
        let bins = env.ls.slice(bins_la, rows * h.width)?.to_vec();
        if optimized {
            acc.update_rows_simd(&mut env.spu, &bins, plan.y0, plan.y1);
        } else {
            correlogram::update_rows_unoptimized_spu(
                &mut acc,
                &mut env.spu,
                &bins,
                plan.y0,
                plan.y1,
            );
        }
        env.charge_compute();
        reader.release(env)?;
    }
    let feature = acc.finish();
    env.spu.scalar_op(feature.len() as u64);
    write_feature(env, h.out_ea, h.sum_ea, &feature)?;
    env.ls.reset();
    Ok(SPU_OK)
}

fn eh_body(env: &mut SpeEnv, addr: u32, optimized: bool) -> CellResult<u32> {
    if !optimized {
        env.set_compute_model(MachineProfile::spe_unoptimized());
    }
    let wire = ExtractWire::new(feature_dim(KernelKind::Eh)).map_err(to_fault(env))?;
    let h = read_extract_header(env, addr, &wire)?;
    let depth = if optimized { 2 } else { 1 };
    let band_rows = pick_band_rows(env, h.stride, 1, depth);
    let plans = band_plans(h.height, band_rows, 1);
    let max_band = plans.iter().map(|p| p.bot - p.top).max().unwrap_or(0);
    let mut reader = HaloBandReader::new(env, h.image_ea, h.stride, plans, depth, 2)?;
    let gray_la = env.ls.alloc(max_band * h.width, 16)?;
    let mut acc = EdgeAcc::new(h.width, h.height);
    while let Some((la, plan)) = reader.acquire(env)? {
        let rows = plan.bot - plan.top;
        for r in 0..rows {
            let row = env
                .ls
                .slice(la + (r * h.stride) as u32, h.width * 3)?
                .to_vec();
            let mut gray_row = vec![0u8; h.width];
            if optimized {
                gray_row_simd(&mut env.spu, &row, &mut gray_row);
            } else {
                gray_row_unoptimized(&mut env.spu, &row, &mut gray_row);
            }
            env.ls.write(gray_la + (r * h.width) as u32, &gray_row)?;
        }
        let gray = env.ls.slice(gray_la, rows * h.width)?.to_vec();
        if optimized {
            acc.update_rows_simd(&mut env.spu, &gray, plan.y0, plan.y1);
        } else {
            edge::update_rows_unoptimized_spu(&mut acc, &mut env.spu, &gray, plan.y0, plan.y1);
        }
        env.charge_compute();
        reader.release(env)?;
    }
    let feature = acc.finish();
    env.spu.scalar_op(feature.len() as u64);
    write_feature(env, h.out_ea, h.sum_ea, &feature)?;
    env.ls.reset();
    Ok(SPU_OK)
}

fn tx_body(env: &mut SpeEnv, addr: u32, optimized: bool) -> CellResult<u32> {
    if !optimized {
        env.set_compute_model(MachineProfile::spe_unoptimized());
    }
    let wire = ExtractWire::new(feature_dim(KernelKind::Tx)).map_err(to_fault(env))?;
    let h = read_extract_header(env, addr, &wire)?;
    let depth = if optimized { 2 } else { 1 };
    let band_rows = pick_band_rows(env, h.stride, 0, depth);
    // Texture consumes whole row pairs.
    let band_rows = (band_rows & !1).max(2);
    let plans = band_plans(h.height & !1, band_rows, 0);
    let mut reader = HaloBandReader::new(env, h.image_ea, h.stride, plans, depth, 2)?;
    let mut acc = TextureAcc::new(h.width);
    while let Some((la, plan)) = reader.acquire(env)? {
        let rows = plan.bot - plan.top;
        let mut gray = vec![0u8; rows * h.width];
        for r in 0..rows {
            let row = env
                .ls
                .slice(la + (r * h.stride) as u32, h.width * 3)?
                .to_vec();
            if optimized {
                gray_row_simd(
                    &mut env.spu,
                    &row,
                    &mut gray[r * h.width..(r + 1) * h.width],
                );
            } else {
                gray_row_unoptimized(
                    &mut env.spu,
                    &row,
                    &mut gray[r * h.width..(r + 1) * h.width],
                );
            }
        }
        if optimized {
            acc.update_band_simd(&mut env.spu, &gray);
        } else {
            env.spu.scalar_op((rows * h.width) as u64 * 4);
            acc.update_band(&gray);
        }
        env.charge_compute();
        reader.release(env)?;
    }
    let feature = acc.finish();
    env.spu.scalar_op(feature.len() as u64);
    write_feature(env, h.out_ea, h.sum_ea, &feature)?;
    env.ls.reset();
    Ok(SPU_OK)
}

fn cd_body(env: &mut SpeEnv, addr: u32) -> CellResult<u32> {
    // Read the header first (dim), then the whole input block including
    // the feature buffer.
    let la16 = env.ls.alloc(16, 16)?;
    env.dma_get_sync(la16, addr as u64, 16, 0)?;
    let dim = env.ls.read_u32(la16)? as usize;
    if dim == 0 || dim > 4096 {
        return Err(CellError::BadData {
            message: format!("bad CD feature dim {dim}"),
        });
    }
    let wire = DetectWire::new(dim).map_err(to_fault(env))?;
    let in_bytes = wire.in_bytes();
    let la = env.ls.alloc(in_bytes, 16)?;
    env.dma_get_sync(la, addr as u64, in_bytes, 0)?;
    // Verify the stub's request checksum (header + feature) before
    // scoring: a mismatch is a retryable transfer fault.
    let expected = env
        .ls
        .read_u32(la + wire.layout.offset(wire.in_sum) as u32)?;
    cell_core::verify_checksum(
        env.ls.slice(la, wire.in_sum_bytes())?,
        expected,
        "detect wrapper input",
    )?;
    let model_bytes = env
        .ls
        .read_u32(la + wire.layout.offset(wire.model_bytes) as u32)? as usize;
    let ea_off = wire.layout.offset(wire.model_ea) as u32;
    let model_ea =
        env.ls.read_u32(la + ea_off)? as u64 | ((env.ls.read_u32(la + ea_off + 4)? as u64) << 32);
    let mut x = vec![0.0f32; dim];
    let feat_off = wire.layout.offset(wire.feature) as u32;
    for (i, xi) in x.iter_mut().enumerate() {
        *xi = env.ls.read_f32(la + feat_off + (i * 4) as u32)?;
    }

    // Model header.
    let mh = env.ls.alloc(SvmModel::HEADER_BYTES, 16)?;
    env.dma_get_sync(mh, model_ea, SvmModel::HEADER_BYTES, 0)?;
    let n = env.ls.read_u32(mh)? as usize;
    let mdim = env.ls.read_u32(mh + 4)? as usize;
    let kcode = env.ls.read_u32(mh + 8)?;
    let gamma = env.ls.read_f32(mh + 12)?;
    let bias = env.ls.read_f32(mh + 16)?;
    if mdim != dim {
        return Err(CellError::BadData {
            message: format!("model dim {mdim} != feature dim {dim}"),
        });
    }
    let kernel = match kcode {
        0 => SvmKernel::Linear,
        1 => SvmKernel::Rbf { gamma },
        k => {
            return Err(CellError::BadData {
                message: format!("unknown kernel code {k}"),
            })
        }
    };
    let rec = SvmModel::record_bytes(dim);
    let total = n * rec;
    if SvmModel::HEADER_BYTES + total != model_bytes {
        return Err(CellError::BadData {
            message: format!(
                "model wire size mismatch: {} != {}",
                SvmModel::HEADER_BYTES + total,
                model_bytes
            ),
        });
    }
    // Stream records: whole multiples of the record size per chunk.
    let recs_per_chunk = (8 * 1024 / rec).max(1);
    let chunk = recs_per_chunk * rec;
    let mut stream = cell_mfc::StreamReader::new(
        &mut env.mfc,
        &mut env.ls,
        &mut env.clock,
        model_ea + SvmModel::HEADER_BYTES as u64,
        total,
        chunk,
        2,
        4,
    )?;
    let mut score = bias;
    while let Some((cla, len)) = stream.acquire(&mut env.mfc, &mut env.clock)? {
        let data = env.ls.slice(cla, len)?.to_vec();
        for record in data.chunks_exact(rec) {
            score += score_record_simd(&mut env.spu, kernel, &x, record);
        }
        env.charge_compute();
        stream.release(&mut env.mfc, &mut env.ls, &mut env.clock)?;
    }
    // Write the score into the wrapper's out field.
    let out_ea = addr as u64 + wire.layout.offset(wire.out) as u64;
    let sum_ea = addr as u64 + wire.layout.offset(wire.out_sum) as u64;
    write_feature(env, out_ea, sum_ea, &[score])?;
    env.ls.reset();
    Ok(SPU_OK)
}

fn to_fault(env: &SpeEnv) -> impl Fn(CellError) -> CellError + '_ {
    let spe = env.spe_id();
    move |e| CellError::SpeFault {
        spe,
        message: e.to_string(),
    }
}

// =========================================================================
// Dispatcher construction
// =========================================================================

/// The canonical dispatcher function name for each kernel.
///
/// Every registration, wire codec, and static model spells a kernel's
/// dispatch-slot name through this one function — the string literals
/// live nowhere else, so the PPE scripts, the SPE dispatchers, and the
/// lint models cannot drift apart.
#[must_use]
pub fn kernel_fn_name(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Ch => "ch_extract",
        KernelKind::Cc => "cc_extract",
        KernelKind::Tx => "tx_extract",
        KernelKind::Eh => "eh_extract",
        KernelKind::Cd => "concept_detect",
    }
}

/// Opcodes of the functions registered on an extraction SPE.
#[derive(Debug, Clone, Copy)]
pub struct ExtractOpcodes {
    pub extract: u32,
    /// Present when the dispatcher also carries a replicated detection
    /// function (paper §5.5 scenario 3).
    pub detect: Option<u32>,
}

impl ExtractOpcodes {
    /// Derive the codec from a dispatcher's [`OpcodeTable`] — looked up
    /// by [`kernel_fn_name`], never hand-copied from registration
    /// returns.
    #[must_use]
    pub fn from_table(table: &OpcodeTable, kind: KernelKind) -> Self {
        ExtractOpcodes {
            extract: table.require(kernel_fn_name(kind)),
            detect: table.opcode(kernel_fn_name(KernelKind::Cd)),
        }
    }
}

/// Build the dispatcher for one extraction kernel.
pub fn extract_dispatcher(
    kind: KernelKind,
    optimized: bool,
    with_detect: bool,
    reply_mode: ReplyMode,
) -> (KernelDispatcher, ExtractOpcodes) {
    let mut d = KernelDispatcher::new(kind.name(), reply_mode);
    let name = kernel_fn_name(kind);
    match kind {
        KernelKind::Ch => d.register(name, move |env, a| ch_body(env, a, optimized)),
        KernelKind::Cc => d.register(name, move |env, a| cc_body(env, a, optimized)),
        KernelKind::Tx => d.register(name, move |env, a| tx_body(env, a, optimized)),
        KernelKind::Eh => d.register(name, move |env, a| eh_body(env, a, optimized)),
        KernelKind::Cd => panic!("use detect_dispatcher for ConceptDet"),
    };
    if with_detect {
        d.register(kernel_fn_name(KernelKind::Cd), cd_body);
    }
    let ops = ExtractOpcodes::from_table(&d.opcode_table(), kind);
    (d, ops)
}

/// Build the concept-detection dispatcher.
pub fn detect_dispatcher(reply_mode: ReplyMode) -> (KernelDispatcher, u32) {
    let mut d = KernelDispatcher::new("ConceptDet", reply_mode);
    d.register(kernel_fn_name(KernelKind::Cd), cd_body);
    let op = d.opcode_table().require(kernel_fn_name(KernelKind::Cd));
    (d, op)
}

/// Opcodes of a [`universal_dispatcher`]. Registration order is fixed, so
/// every SPE running a universal dispatcher answers to the *same* opcodes
/// — the precondition for re-dispatching a kernel on any survivor after
/// an SPE failure ([`portkit::schedule::Schedule::replan`]).
#[derive(Debug, Clone, Copy)]
pub struct UniversalOpcodes {
    extract: [u32; 4],
    /// Concept detection.
    pub detect: u32,
}

impl UniversalOpcodes {
    /// The opcode serving `kind` (detection for [`KernelKind::Cd`]).
    pub fn opcode(&self, kind: KernelKind) -> u32 {
        match kind {
            KernelKind::Ch => self.extract[0],
            KernelKind::Cc => self.extract[1],
            KernelKind::Tx => self.extract[2],
            KernelKind::Eh => self.extract[3],
            KernelKind::Cd => self.detect,
        }
    }

    /// Derive the codec from a dispatcher's [`OpcodeTable`] — looked up
    /// by [`kernel_fn_name`], never hand-copied from registration
    /// returns.
    #[must_use]
    pub fn from_table(table: &OpcodeTable) -> Self {
        UniversalOpcodes {
            extract: [
                table.require(kernel_fn_name(KernelKind::Ch)),
                table.require(kernel_fn_name(KernelKind::Cc)),
                table.require(kernel_fn_name(KernelKind::Tx)),
                table.require(kernel_fn_name(KernelKind::Eh)),
            ],
            detect: table.require(kernel_fn_name(KernelKind::Cd)),
        }
    }
}

/// Build a dispatcher that serves *every* MARVEL kernel: the four
/// extractions plus concept detection, registered in a fixed order.
pub fn universal_dispatcher(
    optimized: bool,
    reply_mode: ReplyMode,
) -> (KernelDispatcher, UniversalOpcodes) {
    let mut d = KernelDispatcher::new("universal", reply_mode);
    d.register(kernel_fn_name(KernelKind::Ch), move |env, a| {
        ch_body(env, a, optimized)
    });
    d.register(kernel_fn_name(KernelKind::Cc), move |env, a| {
        cc_body(env, a, optimized)
    });
    d.register(kernel_fn_name(KernelKind::Tx), move |env, a| {
        tx_body(env, a, optimized)
    });
    d.register(kernel_fn_name(KernelKind::Eh), move |env, a| {
        eh_body(env, a, optimized)
    });
    d.register(kernel_fn_name(KernelKind::Cd), cd_body);
    let ops = UniversalOpcodes::from_table(&d.opcode_table());
    (d, ops)
}

// =========================================================================
// PPE-side wrapper helpers
// =========================================================================

/// Build and fill an extraction wrapper for an uploaded image.
pub fn prepare_extract<'m>(
    mem: &'m cell_mem::MainMemory,
    kind: KernelKind,
    image_ea: u64,
    width: usize,
    height: usize,
) -> CellResult<(portkit::wrapper::MsgWrapper<'m>, ExtractWire)> {
    let wire = ExtractWire::new(feature_dim(kind))?;
    let w = portkit::wrapper::MsgWrapper::alloc(mem, wire.layout.clone())?;
    w.set_u32(wire.width, width as u32)?;
    w.set_u32(wire.height, height as u32)?;
    w.set_u32(wire.stride, crate::wire::image_stride(width) as u32)?;
    w.set_u64(wire.image_ea, image_ea)?;
    w.set_u32(wire.in_sum, w.checksum_prefix(wire.in_sum_bytes())?)?;
    Ok((w, wire))
}

/// Read the finished feature out of an extraction wrapper, verifying the
/// kernel's response checksum.
pub fn collect_extract(
    wrapper: &portkit::wrapper::MsgWrapper<'_>,
    wire: &ExtractWire,
) -> CellResult<Vec<f32>> {
    let bytes = wrapper.get_bytes(wire.out, wire.out_dim * 4)?;
    let expected = wrapper.get_u32s(wire.out_sum, 1)?[0];
    cell_engine::codec::parse_f32s(&bytes, wire.out_dim, expected, "extract feature")
}

/// Build and fill a detection wrapper for a feature + uploaded model.
pub fn prepare_detect<'m>(
    mem: &'m cell_mem::MainMemory,
    feature: &[f32],
    model_ea: u64,
    model_bytes: usize,
) -> CellResult<(portkit::wrapper::MsgWrapper<'m>, DetectWire)> {
    let wire = DetectWire::new(feature.len())?;
    let w = portkit::wrapper::MsgWrapper::alloc(mem, wire.layout.clone())?;
    w.set_u32(wire.dim, feature.len() as u32)?;
    w.set_u32(wire.model_bytes, model_bytes as u32)?;
    w.set_u64(wire.model_ea, model_ea)?;
    w.set_f32s(wire.feature, feature)?;
    w.set_u32(wire.in_sum, w.checksum_prefix(wire.in_sum_bytes())?)?;
    Ok((w, wire))
}

/// Read the decision value out of a detection wrapper, verifying the
/// kernel's response checksum.
pub fn collect_detect(
    wrapper: &portkit::wrapper::MsgWrapper<'_>,
    wire: &DetectWire,
) -> CellResult<f32> {
    let bytes = wrapper.get_bytes(wire.out, 4)?;
    let expected = wrapper.get_u32s(wire.out_sum, 1)?[0];
    Ok(cell_engine::codec::parse_f32s(&bytes, 1, expected, "detect score")?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ColorImage;
    use crate::wire::{upload_image, upload_model};
    use cell_core::MachineConfig;
    use cell_sys::machine::CellMachine;
    use portkit::interface::SpeInterface;

    fn machine() -> CellMachine {
        CellMachine::new(MachineConfig::default()).unwrap()
    }

    fn run_extract(kind: KernelKind, optimized: bool, img: &ColorImage) -> Vec<f32> {
        let mut m = machine();
        let mut ppe = m.ppe();
        let (d, ops) = extract_dispatcher(kind, optimized, false, ReplyMode::Polling);
        let h = m.spawn(0, Box::new(d)).unwrap();
        let mut iface = SpeInterface::new(kind.name(), 0, ReplyMode::Polling);

        let mem = std::sync::Arc::clone(ppe.mem());
        let image_ea = upload_image(&mem, img).unwrap();
        let (wrapper, wire) =
            prepare_extract(&mem, kind, image_ea, img.width(), img.height()).unwrap();
        let status = iface
            .send_and_wait(&mut ppe, ops.extract, wrapper.addr_word().unwrap())
            .unwrap();
        assert_eq!(status, SPU_OK);
        let feature = collect_extract(&wrapper, &wire).unwrap();
        wrapper.free().unwrap();
        mem.free(image_ea).unwrap();
        iface.close(&mut ppe).unwrap();
        let report = h.join().unwrap();
        assert!(report.mfc.bytes_in > 0, "kernel must have DMAed the image");
        assert!(report.cycles > 0);
        feature
    }

    #[test]
    fn ch_kernel_matches_reference() {
        let img = ColorImage::synthetic(64, 48, 61).unwrap();
        let got = run_extract(KernelKind::Ch, true, &img);
        assert_eq!(got, crate::features::histogram::extract(&img));
    }

    #[test]
    fn ch_kernel_unoptimized_matches_reference() {
        let img = ColorImage::synthetic(64, 48, 61).unwrap();
        let got = run_extract(KernelKind::Ch, false, &img);
        assert_eq!(got, crate::features::histogram::extract(&img));
    }

    #[test]
    fn cc_kernel_matches_reference() {
        let img = ColorImage::synthetic(48, 40, 62).unwrap();
        let got = run_extract(KernelKind::Cc, true, &img);
        assert_eq!(got, crate::features::correlogram::extract(&img));
    }

    #[test]
    fn cc_kernel_unoptimized_matches_reference() {
        let img = ColorImage::synthetic(48, 32, 63).unwrap();
        let got = run_extract(KernelKind::Cc, false, &img);
        assert_eq!(got, crate::features::correlogram::extract(&img));
    }

    #[test]
    fn eh_kernel_matches_reference() {
        let img = ColorImage::synthetic(64, 48, 64).unwrap();
        let got = run_extract(KernelKind::Eh, true, &img);
        assert_eq!(got, crate::features::edge::extract(&img));
    }

    #[test]
    fn tx_kernel_matches_reference() {
        let img = ColorImage::synthetic(64, 48, 65).unwrap();
        let got = run_extract(KernelKind::Tx, true, &img);
        assert_eq!(got, crate::features::texture::extract(&img));
    }

    #[test]
    fn cd_kernel_matches_reference() {
        let mut m = machine();
        let mut ppe = m.ppe();
        let (d, op) = detect_dispatcher(ReplyMode::Polling);
        let h = m.spawn(0, Box::new(d)).unwrap();
        let mut iface = SpeInterface::new("cd", 0, ReplyMode::Polling);

        let model = SvmModel::synthetic("concept", 166, 30, 9);
        let mem = std::sync::Arc::clone(ppe.mem());
        let (model_ea, model_bytes) = upload_model(&mem, &model).unwrap();
        let feature: Vec<f32> = (0..166).map(|i| (i as f32) * 0.001).collect();
        let (wrapper, wire) = prepare_detect(&mem, &feature, model_ea, model_bytes).unwrap();
        let status = iface
            .send_and_wait(&mut ppe, op, wrapper.addr_word().unwrap())
            .unwrap();
        assert_eq!(status, SPU_OK);
        let got = collect_detect(&wrapper, &wire).unwrap();
        let want = model.score(&feature).unwrap();
        assert!(
            (got - want).abs() < 1e-3 * want.abs().max(1.0),
            "SPE score {got} vs reference {want}"
        );
        wrapper.free().unwrap();
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn replicated_dispatcher_serves_both_functions() {
        let mut m = machine();
        let mut ppe = m.ppe();
        let (d, ops) = extract_dispatcher(KernelKind::Ch, true, true, ReplyMode::Polling);
        assert!(ops.detect.is_some());
        let h = m.spawn(0, Box::new(d)).unwrap();
        let mut iface = SpeInterface::new("ch+cd", 0, ReplyMode::Polling);
        let mem = std::sync::Arc::clone(ppe.mem());

        let img = ColorImage::synthetic(48, 32, 66).unwrap();
        let image_ea = upload_image(&mem, &img).unwrap();
        let (wrapper, wire) =
            prepare_extract(&mem, KernelKind::Ch, image_ea, img.width(), img.height()).unwrap();
        iface
            .send_and_wait(&mut ppe, ops.extract, wrapper.addr_word().unwrap())
            .unwrap();
        let feature = collect_extract(&wrapper, &wire).unwrap();

        let model = SvmModel::synthetic("c", 166, 12, 3);
        let (model_ea, model_bytes) = upload_model(&mem, &model).unwrap();
        let (dw, dwire) = prepare_detect(&mem, &feature, model_ea, model_bytes).unwrap();
        iface
            .send_and_wait(&mut ppe, ops.detect.unwrap(), dw.addr_word().unwrap())
            .unwrap();
        let score = collect_detect(&dw, &dwire).unwrap();
        let want = model.score(&feature).unwrap();
        assert!((score - want).abs() < 1e-3 * want.abs().max(1.0));

        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn halo_band_reader_streams_with_halos() {
        // Drive the reader directly through a raw SPE program: fetch a
        // strided "image" in halo bands and check every band's bytes.
        fn reader_kernel(env: &mut SpeEnv) -> cell_core::CellResult<()> {
            let ea = env.read_in_mbox()? as u64;
            let stride = 48usize;
            let height = 20usize;
            let plans = band_plans(height, 6, 2);
            let mut r = HaloBandReader::new(env, ea, stride, plans.clone(), 2, 2)?;
            let mut seen = 0usize;
            while let Some((la, plan)) = r.acquire(env)? {
                let rows = plan.bot - plan.top;
                let band = env.ls.slice(la, rows * stride)?.to_vec();
                for (ri, row) in band.chunks(stride).enumerate() {
                    let image_row = plan.top + ri;
                    if row.iter().any(|&b| b != image_row as u8) {
                        return Err(cell_sys::spe::spe_fault(
                            env.spe_id(),
                            format!("band row {image_row} corrupted"),
                        ));
                    }
                }
                seen += 1;
                r.release(env)?;
            }
            env.write_out_mbox(seen as u32)?;
            Ok(())
        }

        let mut m = machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(reader_kernel)).unwrap();
        let mem = std::sync::Arc::clone(ppe.mem());
        let ea = mem.alloc(48 * 20, 128).unwrap();
        for y in 0..20u64 {
            mem.fill(ea + y * 48, y as u8, 48).unwrap();
        }
        ppe.write_in_mbox(0, ea as u32).unwrap();
        let bands = ppe.read_out_mbox(0).unwrap();
        assert_eq!(bands as usize, band_plans(20, 6, 2).len());
        h.join().unwrap();
    }

    #[test]
    fn halo_band_reader_double_buffering_saves_time() {
        fn run(depth: usize) -> u64 {
            fn body(env: &mut SpeEnv, depth: usize) -> cell_core::CellResult<()> {
                let ea = env.read_in_mbox()? as u64;
                let stride = 1024usize;
                let plans = band_plans(128, 8, 1);
                let mut r = HaloBandReader::new(env, ea, stride, plans, depth, 2)?;
                while let Some((_la, _plan)) = r.acquire(env)? {
                    env.charge_cycles(20_000); // simulated compute per band
                    r.release(env)?;
                }
                env.write_out_mbox(0)?;
                Ok(())
            }
            let mut m = machine();
            let mut ppe = m.ppe();
            let h = m
                .spawn(0, Box::new(move |env: &mut SpeEnv| body(env, depth)))
                .unwrap();
            let mem = std::sync::Arc::clone(ppe.mem());
            let ea = mem.alloc(1024 * 128, 128).unwrap();
            ppe.write_in_mbox(0, ea as u32).unwrap();
            ppe.read_out_mbox(0).unwrap();
            let report = h.join().unwrap();
            report.cycles
        }
        let t1 = run(1);
        let t2 = run(2);
        assert!(
            t2 < t1,
            "double-buffered bands ({t2}) should beat single ({t1})"
        );
    }

    #[test]
    fn band_plans_cover_all_rows_with_halos() {
        let plans = band_plans(100, 32, 8);
        assert_eq!(plans.first().unwrap().y0, 0);
        assert_eq!(plans.last().unwrap().y1, 100);
        for w in plans.windows(2) {
            assert_eq!(w[0].y1, w[1].y0, "bands must tile");
        }
        for p in &plans {
            assert!(p.top <= p.y0 && p.bot >= p.y1);
            assert!(p.y0.saturating_sub(p.top) <= 8);
            assert!(p.bot - p.y1 <= 8);
        }
    }

    #[test]
    fn gray_row_simd_matches_reference() {
        let img = ColorImage::synthetic(37, 1, 67).unwrap();
        let reference = img.to_gray();
        let mut spu = Spu::new();
        let mut out = vec![0u8; 37];
        gray_row_simd(&mut spu, img.row(0), &mut out);
        assert_eq!(out, reference.data());
        let mut out2 = vec![0u8; 37];
        gray_row_unoptimized(&mut spu, img.row(0), &mut out2);
        assert_eq!(out2, reference.data());
    }

    #[test]
    fn optimized_kernel_is_faster_than_unoptimized() {
        // Same image, same kernel, optimized vs unoptimized virtual time.
        let img = ColorImage::synthetic(64, 48, 68).unwrap();
        let time = |optimized: bool| {
            let mut m = machine();
            let mut ppe = m.ppe();
            let (d, ops) = extract_dispatcher(KernelKind::Ch, optimized, false, ReplyMode::Polling);
            let h = m.spawn(0, Box::new(d)).unwrap();
            let mut iface = SpeInterface::new("ch", 0, ReplyMode::Polling);
            let mem = std::sync::Arc::clone(ppe.mem());
            let image_ea = upload_image(&mem, &img).unwrap();
            let (wrapper, _wire) =
                prepare_extract(&mem, KernelKind::Ch, image_ea, img.width(), img.height()).unwrap();
            iface
                .send_and_wait(&mut ppe, ops.extract, wrapper.addr_word().unwrap())
                .unwrap();
            iface.close(&mut ppe).unwrap();
            h.join().unwrap().cycles
        };
        let t_opt = time(true);
        let t_unopt = time(false);
        // CH's ported-but-unoptimized form keeps the auto-vectorized inner
        // loop (paper: 26.41 → 53.67, only ~2×), so the gap is modest.
        assert!(
            t_unopt > 3 * t_opt / 2,
            "unoptimized ({t_unopt} cyc) should be clearly slower than optimized ({t_opt} cyc)"
        );
    }
}
