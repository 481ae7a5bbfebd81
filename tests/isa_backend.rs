//! Interpreter-vs-native byte-identity across seeded inputs: every
//! assembled SPU kernel must produce exactly the bytes its native Rust
//! twin produces, for arbitrary (legal) input shapes — including while
//! a fault-injected MARVEL run exercises the failover machinery on the
//! same machine model. Sweeps follow the seeded-case idiom of
//! `tests/properties.rs`. `interpreted_counts_are_pinned` holds the
//! interpreter's simulated counts and SPE clock to exact values.

use std::sync::{Arc, Mutex};

use cell_core::{CellResult, MachineConfig, SplitMix64};
use cell_fault::FaultPlan;
use cell_isa::{
    build_gray_kernel, build_hist_kernel, build_jacobi_kernel, native_gray, native_hist,
    native_jacobi, write_header, ExecTrace, IsaImage, IsaProgram, KernelHeader, TraceSink, HDR_LS,
    HIST_BINS, IN_LS, OUT_LS,
};
use cell_sys::{CellMachine, SpeEnv};
use cell_trace::TraceConfig;
use marvel::app::CellMarvel;
use marvel::color::quantize_rgb;
use marvel::image::ColorImage;
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::{ReplyMode, SpeInterface};

/// What one backend run leaves behind.
struct Run {
    /// The output region.
    out: Vec<u8>,
    /// The interpreter's trace; `None` for the native backend.
    trace: Option<ExecTrace>,
    /// The SPE's virtual clock at exit.
    spe_clock: u64,
}

/// Run one backend over `input` on SPE 0 of a small machine.
fn run_backend(
    image: Option<&IsaImage>,
    native: fn(&mut SpeEnv, u32) -> CellResult<u32>,
    input: &[u8],
    out_len: usize,
    count: u32,
    param: u32,
) -> Run {
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mem = Arc::clone(m.mem());
    let in_ea = mem.alloc(input.len().max(16), 16).unwrap();
    mem.write(in_ea, input).unwrap();
    let out_ea = mem.alloc(out_len.max(16), 16).unwrap();
    let hdr_ea = mem.alloc(16, 16).unwrap();
    write_header(
        &mem,
        hdr_ea,
        KernelHeader {
            in_ea: in_ea as u32,
            out_ea: out_ea as u32,
            count,
            param,
        },
    )
    .unwrap();
    let sink: TraceSink = Arc::new(Mutex::new(None));
    let handle = if let Some(image) = image {
        m.spawn(
            0,
            Box::new(
                IsaProgram::new(image.clone())
                    .with_arg(hdr_ea as u32)
                    .with_trace_sink(Arc::clone(&sink)),
            ),
        )
        .unwrap()
    } else {
        let arg = hdr_ea as u32;
        m.spawn(
            0,
            Box::new(move |env: &mut SpeEnv| native(env, arg).map(|_| ())),
        )
        .unwrap()
    };
    let report = handle.join().unwrap();
    assert!(report.fault.is_none(), "{:?}", report.fault);
    let mut out = vec![0u8; out_len];
    mem.read(out_ea, &mut out).unwrap();
    let trace = sink.lock().unwrap().take();
    Run {
        out,
        trace,
        spe_clock: report.cycles,
    }
}

fn assert_identical(
    image: &IsaImage,
    native: fn(&mut SpeEnv, u32) -> CellResult<u32>,
    input: &[u8],
    out_len: usize,
    count: u32,
    param: u32,
    label: &str,
) {
    let isa = run_backend(Some(image), native, input, out_len, count, param).out;
    let nat = run_backend(None, native, input, out_len, count, param).out;
    assert_eq!(isa, nat, "{label}: backends diverge");
}

/// Run `body` over `cases` seeded cases, labelling failures by index.
fn sweep(name: &str, cases: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(0x15A_0000 ^ (case.wrapping_mul(0x9E37_79B9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            panic!("{name}: case {case} failed: {e:?}");
        }
    }
}

/// `n` f32 grid cells as little-endian bytes, the jacobi input shape.
fn grid(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n)
        .flat_map(|_| ((rng.next_u64() % 10_000) as f32 / 100.0).to_le_bytes())
        .collect()
}

#[test]
fn gray_backends_agree_on_arbitrary_pixel_counts() {
    let image = build_gray_kernel().unwrap();
    sweep("gray", 8, |rng| {
        // count must be a multiple of 4 (the kernel does 4 px/quad).
        let count = (rng.next_in(1, 128) * 4) as u32;
        let input: Vec<u8> = (0..count * 4).map(|_| rng.next_u64() as u8).collect();
        assert_identical(
            &image,
            native_gray,
            &input,
            count as usize * 4,
            count,
            0,
            "gray",
        );
    });
}

#[test]
fn hist_backends_agree_on_arbitrary_index_streams() {
    let image = build_hist_kernel().unwrap();
    sweep("hist", 8, |rng| {
        // count must be a multiple of 16 (the index DMA is count bytes).
        let count = (rng.next_in(1, 64) * 16) as u32;
        let input: Vec<u8> = (0..count)
            .map(|_| (rng.next_u64() % HIST_BINS as u64) as u8)
            .collect();
        assert_identical(&image, native_hist, &input, HIST_BINS * 4, count, 0, "hist");
    });
}

#[test]
fn jacobi_backends_agree_on_arbitrary_grids() {
    let image = build_jacobi_kernel().unwrap();
    sweep("jacobi", 8, |rng| {
        // w ≥ 8 and a multiple of 4; the grid must fit the LS window.
        let w = (rng.next_in(2, 12) * 4) as u32;
        let h = rng.next_in(3, 24) as u32;
        let count = w * h;
        let input = grid(rng, count as usize);
        assert_identical(
            &image,
            native_jacobi,
            &input,
            count as usize * 4,
            count,
            w | (h << 16),
            "jacobi",
        );
    });
}

#[test]
fn jacobi_image_matches_native_at_a_nonzero_code_base() {
    // Registered second, the jacobi image is uploaded above the gray
    // one, so its shuffle-pattern loads must be PC-relative to find
    // their quadwords.
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mut ppe = m.ppe();
    let mem = Arc::clone(m.mem());
    let mut d = KernelDispatcher::new("isa", ReplyMode::Polling);
    d.register_image("gray", build_gray_kernel().unwrap());
    let op = d.register_image("jacobi", build_jacobi_kernel().unwrap());
    let handle = m.spawn(0, Box::new(d)).unwrap();
    let mut stub = SpeInterface::new("isa", 0, ReplyMode::Polling);
    sweep("jacobi@base", 4, |rng| {
        let w = (rng.next_in(2, 12) * 4) as u32;
        let h = rng.next_in(3, 24) as u32;
        let count = w * h;
        let input = grid(rng, count as usize);
        let in_ea = mem.alloc(input.len(), 16).unwrap();
        mem.write(in_ea, &input).unwrap();
        let out_ea = mem.alloc(input.len(), 16).unwrap();
        let hdr_ea = mem.alloc(16, 16).unwrap();
        let header = KernelHeader {
            in_ea: in_ea as u32,
            out_ea: out_ea as u32,
            count,
            param: w | (h << 16),
        };
        write_header(&mem, hdr_ea, header).unwrap();
        assert_eq!(
            stub.send_and_wait(&mut ppe, op, hdr_ea as u32).unwrap(),
            count
        );
        let mut isa = vec![0u8; input.len()];
        mem.read(out_ea, &mut isa).unwrap();
        let native = run_backend(
            None,
            native_jacobi,
            &input,
            input.len(),
            count,
            header.param,
        )
        .out;
        assert_eq!(isa, native, "jacobi at a nonzero code base diverges");
    });
    stub.close(&mut ppe).unwrap();
    assert!(handle.join().unwrap().fault.is_none());
}

#[test]
fn hist_backends_agree_during_a_fault_injected_marvel_run() {
    // A failover-layout MARVEL run loses an SPE mid-analysis and fails
    // over; the interpreted backend must stay byte-identical to native on
    // the very pixels that run quantized. Fault injection perturbs timing
    // and placement, never data — this pins that down at the ISA level.
    let img = ColorImage::synthetic(64, 48, 0x5EED_F417).unwrap();
    let mut app = CellMarvel::resilient(
        true,
        0xF417,
        FaultPlan::new().crash_spe(1, 1),
        TraceConfig::Off,
    )
    .unwrap();
    let analysis = app.analyze_decoded(&img).unwrap();
    assert!(!analysis
        .feature(marvel::features::KernelKind::Ch)
        .is_empty());
    assert!(app.failovers() > 0, "the injected crash must fail over");
    app.finish().unwrap();

    // The same image's quantized indices through both hist backends,
    // padded to the kernel's 16-byte granularity with index 0.
    let mut indices: Vec<u8> = img
        .data()
        .chunks_exact(3)
        .map(|px| quantize_rgb(px[0], px[1], px[2]))
        .collect();
    indices.resize(indices.len().next_multiple_of(16), 0);
    let image = build_hist_kernel().unwrap();
    assert_identical(
        &image,
        native_hist,
        &indices,
        HIST_BINS * 4,
        indices.len() as u32,
        0,
        "hist-under-faults",
    );
}

/// Every simulated quantity one interpreted run produces.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    instructions: u64,
    cycles: u64,
    even_issues: u64,
    odd_issues: u64,
    dual_issues: u64,
    cond_branches: u64,
    uncond_branches: u64,
    taken_branches: u64,
    branch_penalty_cycles: u64,
    ls_high_water: u32,
    channel_ops: usize,
    /// `(get, lsa, ea, size, tag)` per MFC command, in issue order.
    dma_ops: Vec<(bool, u32, u64, u32, u32)>,
    spe_clock: u64,
}

/// Interpret `image` once on SPE 0 and collect what it did.
fn pinned(
    image: CellResult<IsaImage>,
    native: fn(&mut SpeEnv, u32) -> CellResult<u32>,
    input: &[u8],
    out_len: usize,
    count: u32,
    param: u32,
) -> Pinned {
    let run = run_backend(Some(&image.unwrap()), native, input, out_len, count, param);
    let t = run.trace.expect("the interpreted backend deposits a trace");
    assert!(t.ls_oob.is_empty() && t.unknown_ops.is_empty() && !t.channel_ops_truncated);
    Pinned {
        instructions: t.instructions,
        cycles: t.cycles,
        even_issues: t.even_issues,
        odd_issues: t.odd_issues,
        dual_issues: t.dual_issues,
        cond_branches: t.cond_branches,
        uncond_branches: t.uncond_branches,
        taken_branches: t.taken_branches,
        branch_penalty_cycles: t.branch_penalty_cycles,
        ls_high_water: t.ls_high_water,
        channel_ops: t.channel_ops.len(),
        dma_ops: t
            .dma_ops
            .iter()
            .map(|d| (d.get, d.lsa, d.ea, d.size, d.tag))
            .collect(),
        spe_clock: run.spe_clock,
    }
}

#[test]
fn interpreted_counts_are_pinned() {
    // perfbench `isa_jobs`'s job shapes, plus an 8-wide jacobi grid
    // whose rows take the forward `brz` past the empty middle loop (the
    // only forward branch any kernel takes). Each runs alone on one SPE,
    // so the EIB books in one order: a change that only speeds up the
    // host must leave every count and the SPE clock exactly here.
    let mut rng = SplitMix64::new(0x15A_9147);
    let gray: Vec<u8> = (0..4096 * 4).map(|_| rng.next_u64() as u8).collect();
    let hist: Vec<u8> = (0..16384)
        .map(|_| (rng.next_u64() % HIST_BINS as u64) as u8)
        .collect();
    let jacobi = grid(&mut rng, 64 * 48);
    let narrow = grid(&mut rng, 8 * 24);

    assert_eq!(
        pinned(build_gray_kernel(), native_gray, &gray, 4096 * 4, 4096, 0),
        Pinned {
            instructions: 17_453,
            cycles: 16_423,
            even_issues: 14_348,
            odd_issues: 3_105,
            dual_issues: 2_053,
            cond_branches: 1_024,
            uncond_branches: 0,
            taken_branches: 1_023,
            branch_penalty_cycles: 1_023,
            ls_high_water: 50_176,
            channel_ops: 27,
            dma_ops: vec![
                (true, HDR_LS, 0x1_8000, 16, 0),
                (true, IN_LS, 0x1_0000, 16_384, 0),
                (false, OUT_LS, 0x1_4000, 16_384, 0),
            ],
            spe_clock: 41_137,
        },
        "gray"
    );
    assert_eq!(
        pinned(
            build_hist_kernel(),
            native_hist,
            &hist,
            HIST_BINS * 4,
            16384,
            0
        ),
        Pinned {
            instructions: 229_591,
            cycles: 196_815,
            even_issues: 98_402,
            odd_issues: 131_189,
            dual_issues: 49_200,
            cond_branches: 16_426,
            uncond_branches: 0,
            taken_branches: 16_424,
            branch_penalty_cycles: 16_424,
            ls_high_water: 34_464,
            channel_ops: 27,
            dma_ops: vec![
                (true, HDR_LS, 0x1_42A0, 16, 0),
                (true, IN_LS, 0x1_0000, 16_384, 0),
                (false, OUT_LS, 0x1_4000, 672, 0),
            ],
            spe_clock: 219_565,
        },
        "hist"
    );
    assert_eq!(
        pinned(
            build_jacobi_kernel(),
            native_jacobi,
            &jacobi,
            64 * 48 * 4,
            64 * 48,
            64 | (48 << 16)
        ),
        Pinned {
            instructions: 13_508,
            cycles: 12_670,
            even_issues: 6_751,
            odd_issues: 6_757,
            dual_issues: 1_511,
            cond_branches: 768,
            uncond_branches: 0,
            taken_branches: 673,
            branch_penalty_cycles: 673,
            ls_high_water: 46_080,
            channel_ops: 27,
            dma_ops: vec![
                (true, HDR_LS, 0x1_6000, 16, 0),
                (true, IN_LS, 0x1_0000, 12_288, 0),
                (false, OUT_LS, 0x1_3000, 12_288, 0),
            ],
            spe_clock: 36_359,
        },
        "jacobi 64x48"
    );
    assert_eq!(
        pinned(
            build_jacobi_kernel(),
            native_jacobi,
            &narrow,
            8 * 24 * 4,
            8 * 24,
            8 | (24 << 16)
        ),
        Pinned {
            instructions: 884,
            cycles: 1_204,
            even_issues: 439,
            odd_issues: 445,
            dual_issues: 99,
            cond_branches: 48,
            uncond_branches: 0,
            taken_branches: 45,
            // 22 interior rows × 18 forward + 23 hinted loop edges.
            branch_penalty_cycles: 419,
            ls_high_water: 34_560,
            channel_ops: 27,
            dma_ops: vec![
                (true, HDR_LS, 0x1_0600, 16, 0),
                (true, IN_LS, 0x1_0000, 768, 0),
                (false, OUT_LS, 0x1_0300, 768, 0),
            ],
            spe_clock: 22_013,
        },
        "jacobi 8x24"
    );
}
