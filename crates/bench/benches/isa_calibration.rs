//! BENCH_10 — ISA-interpreter cycle calibration.
//!
//! Each hand-assembled SPU kernel runs through the `cell-isa`
//! interpreter on a seeded input; the interpreter's instruction-derived
//! cycle count (even/odd issue, dual-issue pairing, branch penalties)
//! is compared against what the analytic `MachineProfile` cost tables
//! predict for the same instruction mix. The ratio is asserted inside
//! [`TOLERANCE`] — the cross-model agreement that justifies trusting
//! the analytic charges on native kernels. Results land in
//! `target/bench/BENCH_10.json` for the CI artifact.

use std::sync::{Arc, Mutex};

use cell_bench::write_artifact;
use cell_core::{MachineConfig, MachineProfile, SplitMix64};
use cell_isa::{
    build_gray_kernel, build_hist_kernel, build_jacobi_kernel, write_header, ExecTrace, IsaImage,
    IsaProgram, KernelHeader, TraceSink, HIST_BINS,
};
use cell_sys::CellMachine;
use cell_trace::json::JsonWriter;

const SEED: u64 = 0xB10_CA1B;

/// Interpreted-vs-analytic cycle ratio band: outside it, either the
/// interpreter's pipeline model or the cost tables have drifted.
const TOLERANCE: (f64, f64) = (0.4, 2.5);

/// Run `image` over `input` and return its execution trace.
fn run_interpreted(
    image: &IsaImage,
    input: &[u8],
    out_len: usize,
    count: u32,
    param: u32,
) -> ExecTrace {
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
    let h = m
        .spawn(
            0,
            Box::new(
                IsaProgram::new(image.clone())
                    .with_arg(hdr_ea as u32)
                    .with_trace_sink(Arc::clone(&sink)),
            ),
        )
        .unwrap();
    h.join().unwrap();
    let trace = sink.lock().unwrap().take().unwrap();
    trace
}

struct Calibration {
    kernel: &'static str,
    instructions: u64,
    interpreted: u64,
    analytic: u64,
    ratio: f64,
    dual_issue_rate: f64,
}

fn calibrate(kernel: &'static str, trace: &ExecTrace) -> Calibration {
    let analytic = MachineProfile::spe_optimized()
        .compute_cycles(&trace.to_profile())
        .0;
    let ratio = trace.cycles as f64 / analytic.max(1) as f64;
    assert!(
        ratio >= TOLERANCE.0 && ratio <= TOLERANCE.1,
        "{kernel}: interpreted {} vs analytic {analytic} cycles (ratio {ratio:.3}) outside {TOLERANCE:?}",
        trace.cycles,
    );
    Calibration {
        kernel,
        instructions: trace.instructions,
        interpreted: trace.cycles,
        analytic,
        ratio,
        dual_issue_rate: trace.dual_issues as f64 / trace.instructions.max(1) as f64,
    }
}

fn seeded_traces() -> Vec<(&'static str, ExecTrace)> {
    let mut rng = SplitMix64::new(SEED);

    let gray_count = 512u32;
    let gray_in: Vec<u8> = (0..gray_count * 4).map(|_| rng.next_u64() as u8).collect();
    let gray = run_interpreted(
        &build_gray_kernel().unwrap(),
        &gray_in,
        gray_count as usize * 4,
        gray_count,
        0,
    );

    let hist_count = 1024u32;
    let hist_in: Vec<u8> = (0..hist_count)
        .map(|_| (rng.next_u64() % HIST_BINS as u64) as u8)
        .collect();
    let hist = run_interpreted(
        &build_hist_kernel().unwrap(),
        &hist_in,
        HIST_BINS * 4,
        hist_count,
        0,
    );

    let (w, h) = (32u32, 24u32);
    let jac_in: Vec<u8> = (0..w * h)
        .flat_map(|_| ((rng.next_u64() % 10_000) as f32 / 100.0).to_le_bytes())
        .collect();
    let jacobi = run_interpreted(
        &build_jacobi_kernel().unwrap(),
        &jac_in,
        (w * h) as usize * 4,
        w * h,
        w | (h << 16),
    );

    vec![("gray", gray), ("hist", hist), ("jacobi", jacobi)]
}

fn write_bench_json(cals: &[Calibration]) -> std::io::Result<String> {
    let mut w = JsonWriter::default();
    w.begin_object().key("bench").str("BENCH_10");
    w.key("seed").u64(SEED).key("tolerance").begin_array();
    w.f64(TOLERANCE.0).f64(TOLERANCE.1).end_array();
    w.key("kernels").begin_array();
    for c in cals {
        w.begin_object().key("kernel").str(c.kernel);
        w.key("instructions").u64(c.instructions);
        w.key("interpreted_cycles").u64(c.interpreted);
        w.key("analytic_cycles").u64(c.analytic);
        w.key("ratio").fixed(c.ratio, 4);
        w.key("dual_issue_rate").fixed(c.dual_issue_rate, 4);
        w.end_object();
    }
    w.end_array().end_object();
    write_artifact("BENCH_10", &w.finish())
}

fn main() {
    let traces = seeded_traces();
    println!("ISA cycle calibration (seed {SEED:#x}, band {TOLERANCE:?}):");
    let cals: Vec<Calibration> = traces
        .iter()
        .map(|(name, trace)| {
            let cal = calibrate(name, trace);
            println!(
                "  {:<7} {:>6} insts  interpreted {:>7} cyc  analytic {:>7} cyc  ratio {:.3}  dual-issue {:.1}%",
                cal.kernel,
                cal.instructions,
                cal.interpreted,
                cal.analytic,
                cal.ratio,
                cal.dual_issue_rate * 100.0,
            );
            cal
        })
        .collect();
    let path = write_bench_json(&cals).unwrap();
    println!("report: {path}\n");
}
