//! Cross-validation: each hand-assembled SPU kernel must produce
//! byte-identical output to its native Rust counterpart on seeded
//! inputs, and the interpreter's instruction-derived cycle count must
//! land within a sane band of the analytic model's estimate.

use std::sync::{Arc, Mutex};

use cell_core::{CellResult, MachineConfig, MachineProfile, SplitMix64};
use cell_isa::{
    build_gray_kernel, build_hist_kernel, build_jacobi_kernel, kernels, native_gray, native_hist,
    native_jacobi, write_header, IsaImage, IsaProgram, KernelHeader,
};
use cell_sys::{CellMachine, SpeEnv};

/// Run one kernel backend over `input`, returning the output region.
fn run_backend(
    image: Option<&IsaImage>,
    native: fn(&mut SpeEnv, u32) -> CellResult<u32>,
    input: &[u8],
    out_len: usize,
    count: u32,
    param: u32,
) -> (Vec<u8>, cell_isa::ExecTrace) {
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

    let sink: cell_isa::TraceSink = Arc::new(Mutex::new(None));
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
    let trace = sink.lock().unwrap().take().unwrap_or_default();
    (out, trace)
}

fn assert_calibrated(trace: &cell_isa::ExecTrace, label: &str) {
    assert!(trace.instructions > 0, "{label}: no instructions executed");
    let analytic = MachineProfile::spe_optimized()
        .compute_cycles(&trace.to_profile())
        .0;
    let interpreted = trace.cycles;
    let ratio = interpreted as f64 / analytic.max(1) as f64;
    assert!(
        (0.4..=2.5).contains(&ratio),
        "{label}: interpreted {interpreted} vs analytic {analytic} (ratio {ratio:.2})"
    );
}

#[test]
fn gray_isa_matches_native_byte_for_byte() {
    let image = build_gray_kernel().unwrap();
    let mut rng = SplitMix64::new(0x5EED_0101);
    let count = 256u32;
    let input: Vec<u8> = (0..count * 4).map(|_| rng.next_u64() as u8).collect();
    let out_len = count as usize * 4;
    let (isa, trace) = run_backend(Some(&image), native_gray, &input, out_len, count, 0);
    let (native, _) = run_backend(None, native_gray, &input, out_len, count, 0);
    assert_eq!(isa, native, "gray outputs diverge");
    assert_calibrated(&trace, "gray");
}

#[test]
fn hist_isa_matches_native_byte_for_byte() {
    let image = build_hist_kernel().unwrap();
    let mut rng = SplitMix64::new(0x5EED_0202);
    let count = 512u32;
    let input: Vec<u8> = (0..count).map(|_| (rng.next_u64() % 166) as u8).collect();
    let out_len = kernels::HIST_BINS * 4;
    let (isa, trace) = run_backend(Some(&image), native_hist, &input, out_len, count, 0);
    let (native, _) = run_backend(None, native_hist, &input, out_len, count, 0);
    assert_eq!(isa, native, "hist outputs diverge");
    // Sanity: the bins must sum to the input count.
    let total: u32 = isa
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .sum();
    assert_eq!(total, count);
    assert_calibrated(&trace, "hist");
}

#[test]
fn jacobi_isa_matches_native_byte_for_byte() {
    let image = build_jacobi_kernel().unwrap();
    let mut rng = SplitMix64::new(0x5EED_0303);
    let (w, h) = (16u32, 12u32);
    let count = w * h;
    let input: Vec<u8> = (0..count)
        .flat_map(|_| {
            let v = (rng.next_u64() % 10_000) as f32 / 100.0;
            v.to_le_bytes()
        })
        .collect();
    let out_len = count as usize * 4;
    let param = w | (h << 16);
    let (isa, trace) = run_backend(Some(&image), native_jacobi, &input, out_len, count, param);
    let (native, _) = run_backend(None, native_jacobi, &input, out_len, count, param);
    assert_eq!(isa, native, "jacobi outputs diverge");
    assert_calibrated(&trace, "jacobi");
}

#[test]
fn jacobi_handles_the_minimum_width_grid() {
    // w = 8 means zero middle blocks per row: the brz path.
    let image = build_jacobi_kernel().unwrap();
    let (w, h) = (8u32, 3u32);
    let count = w * h;
    let input: Vec<u8> = (0..count).flat_map(|i| (i as f32).to_le_bytes()).collect();
    let out_len = count as usize * 4;
    let param = w | (h << 16);
    let (isa, _) = run_backend(Some(&image), native_jacobi, &input, out_len, count, param);
    let (native, _) = run_backend(None, native_jacobi, &input, out_len, count, param);
    assert_eq!(isa, native);
}

#[test]
fn echo_program_speaks_the_mailbox_protocol() {
    let image = cell_isa::echo_image().unwrap();
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mut ppe = m.ppe();
    let sink: cell_isa::TraceSink = Arc::new(Mutex::new(None));
    let h = m
        .spawn(
            0,
            Box::new(IsaProgram::new(image).with_trace_sink(Arc::clone(&sink))),
        )
        .unwrap();
    ppe.write_in_mbox(0, 41).unwrap();
    assert_eq!(ppe.read_out_mbox(0).unwrap(), 41);
    ppe.write_in_mbox(0, 7).unwrap();
    assert_eq!(ppe.read_out_mbox(0).unwrap(), 7);
    ppe.write_in_mbox(0, 0).unwrap();
    h.join().unwrap();
    let trace = sink.lock().unwrap().take().unwrap();
    assert_eq!(trace.channel_ops.iter().filter(|c| c.write).count(), 2);
    assert_eq!(trace.channel_ops.iter().filter(|c| !c.write).count(), 3);
}

#[test]
fn runaway_kernel_faults_with_trace_preserved() {
    // An infinite loop: `loop: br loop`.
    let mut a = cell_isa::Assembler::new();
    a.label("spin");
    a.br("spin");
    let image = a.assemble().unwrap();
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let sink: cell_isa::TraceSink = Arc::new(Mutex::new(None));
    let h = m
        .spawn(
            0,
            Box::new(
                IsaProgram::new(image)
                    .with_max_steps(10_000)
                    .with_trace_sink(Arc::clone(&sink)),
            ),
        )
        .unwrap();
    assert!(h.join().is_err());
    let trace = sink.lock().unwrap().take().unwrap();
    assert!(trace.instructions > 0);
}

#[test]
fn branch_to_the_top_of_the_address_space_faults_with_trace_preserved() {
    // `bi` to 0xFFFF_FFFC: the next fetch's bounds check must report the
    // pc, not overflow computing `pc + 4`.
    let mut a = cell_isa::Assembler::new();
    a.il(5, -4);
    a.rr(cell_isa::Op::Bi, 0, 5, 0);
    let image = a.assemble().unwrap();
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let sink: cell_isa::TraceSink = Arc::new(Mutex::new(None));
    let h = m
        .spawn(
            0,
            Box::new(IsaProgram::new(image).with_trace_sink(Arc::clone(&sink))),
        )
        .unwrap();
    let report = h.join_report().unwrap();
    let fault = report.fault.expect("the fetch at 0xfffffffc must fault");
    assert!(
        fault.contains("pc 0xfffffffc outside local store"),
        "{fault}"
    );
    let trace = sink.lock().unwrap().take().unwrap();
    assert_eq!(trace.instructions, 2);
    assert_eq!(trace.taken_branches, 1);
}
