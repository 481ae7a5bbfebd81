//! Interpreter-vs-native byte-identity across seeded inputs: every
//! assembled SPU kernel must produce exactly the bytes its native Rust
//! twin produces, for arbitrary (legal) input shapes — including while
//! a fault-injected MARVEL run exercises the failover machinery on the
//! same machine model. Sweeps follow the seeded-case idiom of
//! `tests/properties.rs`.

use std::sync::{Arc, Mutex};

use cell_core::{CellResult, MachineConfig, SplitMix64};
use cell_fault::FaultPlan;
use cell_isa::{
    build_gray_kernel, build_hist_kernel, build_jacobi_kernel, native_gray, native_hist,
    native_jacobi, write_header, IsaImage, IsaProgram, KernelHeader, TraceSink, HIST_BINS,
};
use cell_sys::{CellMachine, SpeEnv};
use marvel::color::quantize_rgb;
use marvel::image::ColorImage;
use marvel::resilient::ResilientMarvel;
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::{ReplyMode, SpeInterface};

/// Run one backend over `input` and return the output region.
fn run_backend(
    image: Option<&IsaImage>,
    native: fn(&mut SpeEnv, u32) -> CellResult<u32>,
    input: &[u8],
    out_len: usize,
    count: u32,
    param: u32,
) -> Vec<u8> {
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
    let handle = if let Some(image) = image {
        let sink: TraceSink = Arc::new(Mutex::new(None));
        m.spawn(
            0,
            Box::new(
                IsaProgram::new(image.clone())
                    .with_arg(hdr_ea as u32)
                    .with_trace_sink(sink),
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
    out
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
    let isa = run_backend(Some(image), native, input, out_len, count, param);
    let nat = run_backend(None, native, input, out_len, count, param);
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
        let input: Vec<u8> = (0..count)
            .flat_map(|_| {
                let v = (rng.next_u64() % 10_000) as f32 / 100.0;
                v.to_le_bytes()
            })
            .collect();
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
        let input: Vec<u8> = (0..count)
            .flat_map(|_| ((rng.next_u64() % 10_000) as f32 / 100.0).to_le_bytes())
            .collect();
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
        );
        assert_eq!(isa, native, "jacobi at a nonzero code base diverges");
    });
    stub.close(&mut ppe).unwrap();
    assert!(handle.join().unwrap().fault.is_none());
}

#[test]
fn hist_backends_agree_during_a_fault_injected_marvel_run() {
    // A resilient MARVEL run loses an SPE mid-analysis and fails over;
    // the interpreted backend must stay byte-identical to native on the
    // very pixels that run quantized. Fault injection perturbs timing
    // and placement, never data — this pins that down at the ISA level.
    let img = ColorImage::synthetic(64, 48, 0x5EED_F417).unwrap();
    let mut app = ResilientMarvel::new(true, 0xF417, FaultPlan::new().crash_spe(1, 1)).unwrap();
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
