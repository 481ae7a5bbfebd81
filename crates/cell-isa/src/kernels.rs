//! Hand-assembled SPU kernels and their native Rust counterparts.
//!
//! Three kernels cross-validate the interpreter against native
//! execution, byte for byte:
//!
//! * **gray** — the MARVEL color-convert inner loop: packed
//!   `r | g<<8 | b<<16` pixels to luma `(77r + 150g + 29b) >> 8`,
//!   SIMDized four pixels per iteration;
//! * **hist** — the MARVEL CH histogram: pre-quantized bin indices
//!   (one byte each, `< 166`) accumulated into 168 u32 bins with the
//!   classic `lqd`/`rotqby`/`cwx`/`shufb`/`stqd` scalar
//!   read-modify-write sequence;
//! * **jacobi** — the stencil 5-point sweep: interior
//!   `((l + r) + (u + d)) * 0.25` in f32, boundary rows and columns
//!   copied, misaligned neighbor vectors built with `shufb` patterns.
//!
//! Both backends speak the same wire contract: the dispatch argument is
//! the effective address of a 16-byte header quadword
//! `[in_ea, out_ea, count, param]` (u32 little-endian words, EAs
//! 16-byte aligned, sizes DMA-legal multiples of 16). The kernel DMAs
//! the header, then its input, computes, DMAs the output back, and
//! replies with `count`.
//!
//! The floating-point kernel stays byte-identical because the native
//! counterpart performs *the same operations in the same order* on the
//! same f32 lanes — `fa`, `fa`, `fa`, `fm` maps exactly onto
//! `((l + r) + (u + d)) * 0.25`.

use cell_core::CellResult;
use cell_mem::MainMemory;
use cell_sys::spe::spe_fault;
use cell_sys::SpeEnv;

use crate::asm::{Assembler, IsaImage};
use crate::interp::{channel, MFC_CMD_GET, MFC_CMD_PUT};

/// LS address the header quadword is DMAed to.
pub const HDR_LS: u32 = 0x2000;
/// LS address of the input region.
pub const IN_LS: u32 = 0x2400;
/// LS address of the output region (gives the input 24 KB).
pub const OUT_LS: u32 = 0x8400;
/// Histogram bins: marvel's 166 padded to a DMA-legal 672 bytes.
pub const HIST_BINS: usize = 168;

/// The header quadword both backends read: `[in_ea, out_ea, count,
/// param]` as little-endian u32 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelHeader {
    pub in_ea: u32,
    pub out_ea: u32,
    /// Element count: u32 pixels (gray, multiple of 4), index bytes
    /// (hist, multiple of 16), or `w*h` f32 cells (jacobi).
    pub count: u32,
    /// Kernel-specific parameter; jacobi packs `w | h << 16`.
    pub param: u32,
}

impl KernelHeader {
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[0..4].copy_from_slice(&self.in_ea.to_le_bytes());
        b[4..8].copy_from_slice(&self.out_ea.to_le_bytes());
        b[8..12].copy_from_slice(&self.count.to_le_bytes());
        b[12..16].copy_from_slice(&self.param.to_le_bytes());
        b
    }
}

/// Write a header quadword into main memory at `addr` (16-aligned).
pub fn write_header(mem: &MainMemory, addr: u64, header: KernelHeader) -> CellResult<()> {
    mem.write(addr, &header.to_bytes())
}

// ---------------------------------------------------------------------------
// Shared assembly fragments
// ---------------------------------------------------------------------------
//
// Register conventions for all three kernels:
//   r0        never written — the zero quadword (EAH, tag id, cwx base)
//   r3        dispatch argument (header EA) in, reply value out
//   r12/r16   MFC GET / PUT command codes
//   r13       tag mask (tag 0)
//   r17       constant 16 (header DMA size)
//   r20..r24  header quad and its four extracted words
//   r30       output DMA size in bytes

/// Emit a synchronous DMA: parameter writes, command, tag wait.
fn emit_dma(a: &mut Assembler, lsa: u8, eal: u8, size: u8, cmd: u8) {
    a.wrch(channel::MFC_LSA, lsa);
    a.wrch(channel::MFC_EAH, 0);
    a.wrch(channel::MFC_EAL, eal);
    a.wrch(channel::MFC_SIZE, size);
    a.wrch(channel::MFC_TAG_ID, 0);
    a.wrch(channel::MFC_CMD, cmd);
    a.wrch(channel::MFC_WR_TAG_MASK, 13);
    a.wrch(channel::MFC_WR_TAG_UPDATE, 0);
    a.rdch(14, channel::MFC_RD_TAG_STAT);
}

/// Emit the common prologue: DMA the header quadword in and extract
/// its four words into r21..r24.
fn emit_header_fetch(a: &mut Assembler) {
    a.il(12, MFC_CMD_GET as i32);
    a.il(16, MFC_CMD_PUT as i32);
    a.il(13, 1);
    a.il(17, 16);
    a.ila(10, HDR_LS as i32);
    emit_dma(a, 10, 3, 17, 12);
    a.lqd(20, 10, 0);
    a.rotqbyi(21, 20, 0); // in_ea
    a.rotqbyi(22, 20, 4); // out_ea
    a.rotqbyi(23, 20, 8); // count
    a.rotqbyi(24, 20, 12); // param
}

// ---------------------------------------------------------------------------
// gray — color-convert inner loop
// ---------------------------------------------------------------------------

/// Assemble the gray (luma) kernel. `count` u32 pixels, `count % 4 == 0`.
pub fn build_gray_kernel() -> CellResult<IsaImage> {
    let mut a = Assembler::new();
    emit_header_fetch(&mut a);
    a.shli(30, 23, 2); // bytes = count * 4
    a.ila(31, IN_LS as i32);
    emit_dma(&mut a, 31, 21, 30, 12);
    a.rotmi(32, 23, 2); // quads = count / 4
    a.ila(33, IN_LS as i32);
    a.ila(34, OUT_LS as i32);
    a.label("loop");
    a.lqd(40, 33, 0);
    a.andi(41, 40, 0xFF); // r
    a.rotmi(42, 40, 8);
    a.andi(42, 42, 0xFF); // g
    a.rotmi(43, 40, 16);
    a.andi(43, 43, 0xFF); // b
    a.mpyui(41, 41, 77);
    a.mpyui(42, 42, 150);
    a.mpyui(43, 43, 29);
    a.a(44, 41, 42);
    a.a(44, 44, 43);
    a.rotmi(44, 44, 8); // >> 8
    a.stqd(44, 34, 0);
    a.ai(33, 33, 16);
    a.ai(34, 34, 16);
    a.ai(32, 32, -1);
    a.brnz(32, "loop");
    a.ila(35, OUT_LS as i32);
    emit_dma(&mut a, 35, 22, 30, 16);
    a.ai(3, 23, 0); // reply = count
    a.stop(0);
    a.assemble()
}

/// Native counterpart of the gray kernel, same wire contract.
pub fn native_gray(env: &mut SpeEnv, arg: u32) -> CellResult<u32> {
    let h = fetch_header(env, arg)?;
    let n = h.count as usize;
    env.dma_get_sync(IN_LS, u64::from(h.in_ea), n * 4, 0)?;
    for i in 0..n {
        let px = env.ls.read_u32(IN_LS + (i * 4) as u32)?;
        let (r, g, b) = (px & 0xFF, (px >> 8) & 0xFF, (px >> 16) & 0xFF);
        let y = (77 * r + 150 * g + 29 * b) >> 8;
        env.ls.write_u32(OUT_LS + (i * 4) as u32, y)?;
    }
    env.dma_put_sync(OUT_LS, u64::from(h.out_ea), n * 4, 0)?;
    Ok(h.count)
}

// ---------------------------------------------------------------------------
// hist — CH histogram accumulation
// ---------------------------------------------------------------------------

/// Assemble the histogram kernel. `count` index bytes (`< 166` each,
/// `count % 16 == 0`); output is [`HIST_BINS`] u32 bins.
pub fn build_hist_kernel() -> CellResult<IsaImage> {
    let mut a = Assembler::new();
    emit_header_fetch(&mut a);
    a.ila(31, IN_LS as i32);
    emit_dma(&mut a, 31, 21, 23, 12); // size = count bytes
                                      // Zero the 42 bin quadwords (r0 is the zero quad).
    a.ila(34, OUT_LS as i32);
    a.il(32, (HIST_BINS / 4) as i32);
    a.label("zero");
    a.stqd(0, 34, 0);
    a.ai(34, 34, 16);
    a.ai(32, 32, -1);
    a.brnz(32, "zero");
    // Scalar read-modify-write per index byte.
    a.ila(33, IN_LS as i32); // byte pointer
    a.ila(35, OUT_LS as i32); // bins base
    a.ai(36, 23, 0); // remaining
    a.label("loop");
    a.lqd(50, 33, 0); // containing quad
    a.rotqby(51, 50, 33); // index byte → byte 0
    a.andi(52, 51, 0xFF);
    a.shli(53, 52, 2); // bin byte offset
    a.a(54, 53, 35); // bin word address
    a.lqd(55, 54, 0);
    a.rotqby(56, 55, 54); // bin word → preferred slot
    a.ai(57, 56, 1);
    a.cwx(58, 54, 0); // insertion pattern for the slot
    a.shufb(59, 57, 55, 58);
    a.stqd(59, 54, 0);
    a.ai(33, 33, 1);
    a.ai(36, 36, -1);
    a.brnz(36, "loop");
    a.il(30, (HIST_BINS * 4) as i32);
    a.ila(37, OUT_LS as i32);
    emit_dma(&mut a, 37, 22, 30, 16);
    a.ai(3, 23, 0);
    a.stop(0);
    a.assemble()
}

/// Native counterpart of the histogram kernel.
pub fn native_hist(env: &mut SpeEnv, arg: u32) -> CellResult<u32> {
    let h = fetch_header(env, arg)?;
    let n = h.count as usize;
    env.dma_get_sync(IN_LS, u64::from(h.in_ea), n, 0)?;
    let mut bins = [0u32; HIST_BINS];
    for i in 0..n {
        let mut byte = [0u8; 1];
        env.ls.read(IN_LS + i as u32, &mut byte)?;
        let bin = usize::from(byte[0]);
        if bin >= HIST_BINS {
            return Err(spe_fault(env.spe_id(), "hist: bin index out of range"));
        }
        bins[bin] += 1;
    }
    for (i, b) in bins.iter().enumerate() {
        env.ls.write_u32(OUT_LS + (i * 4) as u32, *b)?;
    }
    env.dma_put_sync(OUT_LS, u64::from(h.out_ea), HIST_BINS * 4, 0)?;
    Ok(h.count)
}

// ---------------------------------------------------------------------------
// jacobi — 5-point stencil sweep
// ---------------------------------------------------------------------------

// Shuffle patterns for the misaligned neighbor vectors. Lane i of the
// result occupies bytes 4i..4i+4; pattern byte `0x00+k` selects byte k
// of the first operand, `0x10+k` byte k of the second.

/// `shufb(prevq, cur, PATL)` = `[prev[3], cur[0], cur[1], cur[2]]`.
const PATL: [u8; 16] = [
    0x0C, 0x0D, 0x0E, 0x0F, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B,
];
/// `shufb(cur, nextq, PATR)` = `[cur[1], cur[2], cur[3], next[0]]`.
const PATR: [u8; 16] = [
    0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10, 0x11, 0x12, 0x13,
];
/// `shufb(cur, computed, FIX0)` = `[cur[0], comp[1], comp[2], comp[3]]`.
const FIX0: [u8; 16] = [
    0x00, 0x01, 0x02, 0x03, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B, 0x1C, 0x1D, 0x1E, 0x1F,
];
/// `shufb(cur, computed, FIXL)` = `[comp[0], comp[1], comp[2], cur[3]]`.
const FIXL: [u8; 16] = [
    0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B, 0x0C, 0x0D, 0x0E, 0x0F,
];

/// Assemble the jacobi stencil kernel. Grid `w × h` f32, `w % 4 == 0`,
/// `w ≥ 8`, `h ≥ 3`, `w*h*4 ≤ 16 KB`; header `count = w*h`,
/// `param = w | h << 16`.
pub fn build_jacobi_kernel() -> CellResult<IsaImage> {
    let mut a = Assembler::new();
    emit_header_fetch(&mut a);
    a.rotmi(26, 24, 16); // h
    a.shli(27, 26, 16);
    a.sf(25, 27, 24); // w = param - (h << 16)
    a.shli(28, 25, 2); // rowbytes
    a.shli(30, 23, 2); // grid bytes
    a.ila(31, IN_LS as i32);
    emit_dma(&mut a, 31, 21, 30, 12);
    a.rotmi(40, 25, 2); // quads per row
                        // Copy boundary row 0.
    a.ila(41, IN_LS as i32);
    a.ila(42, OUT_LS as i32);
    a.ai(43, 40, 0);
    a.label("copy0");
    a.lqd(44, 41, 0);
    a.stqd(44, 42, 0);
    a.ai(41, 41, 16);
    a.ai(42, 42, 16);
    a.ai(43, 43, -1);
    a.brnz(43, "copy0");
    // Copy boundary row h-1.
    a.ai(46, 26, -1);
    a.mpyu(45, 46, 28); // (h-1) * rowbytes
    a.ila(41, IN_LS as i32);
    a.a(41, 41, 45);
    a.ila(42, OUT_LS as i32);
    a.a(42, 42, 45);
    a.ai(43, 40, 0);
    a.label("copyl");
    a.lqd(44, 41, 0);
    a.stqd(44, 42, 0);
    a.ai(41, 41, 16);
    a.ai(42, 42, 16);
    a.ai(43, 43, -1);
    a.brnz(43, "copyl");
    // Load the shuffle patterns and the 0.25 splat.
    a.lqr(60, "patl");
    a.lqr(61, "patr");
    a.lqr(62, "fix0");
    a.lqr(63, "fixl");
    a.ilhu(64, 0x3E80); // 0.25f32 in every lane
                        // Row pointers: up, cur, down in the input; out in the output.
    a.ila(70, IN_LS as i32);
    a.a(71, 70, 28);
    a.a(72, 71, 28);
    a.ila(73, OUT_LS as i32);
    a.a(73, 73, 28);
    a.ai(74, 26, -2); // interior row count
    a.label("row");
    // First block: lane 0 is the left boundary, fixed after compute.
    a.lqd(80, 71, 0);
    a.lqd(81, 71, 1);
    a.shufb(82, 80, 80, 60); // L (lane 0 garbage)
    a.shufb(83, 80, 81, 61); // R
    a.lqd(84, 70, 0);
    a.lqd(85, 72, 0);
    a.fa(86, 82, 83);
    a.fa(87, 84, 85);
    a.fa(88, 86, 87);
    a.fm(88, 88, 64);
    a.shufb(88, 80, 88, 62);
    a.stqd(88, 73, 0);
    // Middle blocks: w/4 - 2 of them (may be zero).
    a.ai(75, 40, -2);
    a.ai(76, 71, 16);
    a.ai(77, 70, 16);
    a.ai(78, 72, 16);
    a.ai(79, 73, 16);
    a.brz(75, "last");
    a.label("mid");
    a.lqd(89, 76, -1);
    a.lqd(80, 76, 0);
    a.lqd(81, 76, 1);
    a.shufb(82, 89, 80, 60);
    a.shufb(83, 80, 81, 61);
    a.lqd(84, 77, 0);
    a.lqd(85, 78, 0);
    a.fa(86, 82, 83);
    a.fa(87, 84, 85);
    a.fa(88, 86, 87);
    a.fm(88, 88, 64);
    a.stqd(88, 79, 0);
    a.ai(76, 76, 16);
    a.ai(77, 77, 16);
    a.ai(78, 78, 16);
    a.ai(79, 79, 16);
    a.ai(75, 75, -1);
    a.brnz(75, "mid");
    a.label("last");
    // Last block: lane 3 is the right boundary, fixed after compute.
    a.lqd(89, 76, -1);
    a.lqd(80, 76, 0);
    a.shufb(82, 89, 80, 60);
    a.shufb(83, 80, 80, 61); // R (lane 3 garbage)
    a.lqd(84, 77, 0);
    a.lqd(85, 78, 0);
    a.fa(86, 82, 83);
    a.fa(87, 84, 85);
    a.fa(88, 86, 87);
    a.fm(88, 88, 64);
    a.shufb(88, 80, 88, 63);
    a.stqd(88, 79, 0);
    // Advance one row.
    a.a(70, 70, 28);
    a.a(71, 71, 28);
    a.a(72, 72, 28);
    a.a(73, 73, 28);
    a.ai(74, 74, -1);
    a.brnz(74, "row");
    a.ila(35, OUT_LS as i32);
    emit_dma(&mut a, 35, 22, 30, 16);
    a.ai(3, 23, 0);
    a.stop(0);
    a.align16();
    a.label("patl");
    a.quad(PATL);
    a.label("patr");
    a.quad(PATR);
    a.label("fix0");
    a.quad(FIX0);
    a.label("fixl");
    a.quad(FIXL);
    a.assemble()
}

/// Native counterpart of the jacobi kernel: same per-element f32
/// operation order as the SPU image, so outputs match bit for bit.
pub fn native_jacobi(env: &mut SpeEnv, arg: u32) -> CellResult<u32> {
    let h = fetch_header(env, arg)?;
    let w = (h.param & 0xFFFF) as usize;
    let rows = (h.param >> 16) as usize;
    if w * rows != h.count as usize || w < 8 || !w.is_multiple_of(4) || rows < 3 {
        return Err(spe_fault(env.spe_id(), "jacobi: bad grid dimensions"));
    }
    let bytes = h.count as usize * 4;
    env.dma_get_sync(IN_LS, u64::from(h.in_ea), bytes, 0)?;
    let at = |x: usize, y: usize| IN_LS + ((y * w + x) * 4) as u32;
    for y in 0..rows {
        for x in 0..w {
            let v = if y == 0 || y == rows - 1 || x == 0 || x == w - 1 {
                env.ls.read_f32(at(x, y))?
            } else {
                let l = env.ls.read_f32(at(x - 1, y))?;
                let r = env.ls.read_f32(at(x + 1, y))?;
                let u = env.ls.read_f32(at(x, y - 1))?;
                let d = env.ls.read_f32(at(x, y + 1))?;
                ((l + r) + (u + d)) * 0.25
            };
            env.ls.write_f32(OUT_LS + ((y * w + x) * 4) as u32, v)?;
        }
    }
    env.dma_put_sync(OUT_LS, u64::from(h.out_ea), bytes, 0)?;
    Ok(h.count)
}

// ---------------------------------------------------------------------------

fn fetch_header(env: &mut SpeEnv, arg: u32) -> CellResult<KernelHeader> {
    env.dma_get_sync(HDR_LS, u64::from(arg), 16, 0)?;
    Ok(KernelHeader {
        in_ea: env.ls.read_u32(HDR_LS)?,
        out_ea: env.ls.read_u32(HDR_LS + 4)?,
        count: env.ls.read_u32(HDR_LS + 8)?,
        param: env.ls.read_u32(HDR_LS + 12)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::decode;

    fn assert_all_words_decode(image: &IsaImage, code_end: usize) {
        for (i, chunk) in image.bytes[..code_end].chunks_exact(4).enumerate() {
            let word = u32::from_be_bytes(chunk.try_into().unwrap());
            assert!(
                decode(word).is_some(),
                "word {i} ({word:#010x}) undecodable"
            );
        }
    }

    #[test]
    fn all_three_kernels_assemble() {
        let gray = build_gray_kernel().unwrap();
        let hist = build_hist_kernel().unwrap();
        let jacobi = build_jacobi_kernel().unwrap();
        // Every code word decodes (jacobi's last 64 bytes are data).
        assert_all_words_decode(&gray, gray.len());
        assert_all_words_decode(&hist, hist.len());
        assert_all_words_decode(&jacobi, jacobi.len() - 64);
        // All fit the small-machine 8 KB code reservation together.
        assert!(gray.len() + hist.len() + jacobi.len() <= 8192);
    }

    #[test]
    fn header_round_trips_through_bytes() {
        let h = KernelHeader {
            in_ea: 0x1000,
            out_ea: 0x2000,
            count: 64,
            param: 8 | (4 << 16),
        };
        let b = h.to_bytes();
        assert_eq!(u32::from_le_bytes(b[0..4].try_into().unwrap()), 0x1000);
        assert_eq!(u32::from_le_bytes(b[8..12].try_into().unwrap()), 64);
    }
}
