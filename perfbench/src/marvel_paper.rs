//! `marvel_paper`: the paper's own workload. Seeded synthetic 352×240
//! frames, encoded at q=90, run through `CellMarvel::analyze_batch_engine`
//! (parallel extraction, optimized kernels) on the default Cell B.E.
//!
//! A 253 KB frame does not fit the 224 KB local-store data area, so
//! every extractor streams it in row slices: host time goes to kernel
//! bodies and DMA copies, with about six mailbox round trips per frame.

use std::sync::Arc;
use std::time::Instant;

use cell_core::CellResult;
use cell_engine::Engine;
use cell_sys::CellMachine;
use cell_trace::TraceConfig;
use marvel::app::{
    CellMarvel, ImageAnalysis, MarvelModels, ReferenceMarvel, Scenario, EXTRACT_KINDS,
};
use marvel::codec::{self, Compressed};
use marvel::features::KernelKind;
use marvel::image::{ColorImage, PAPER_HEIGHT, PAPER_WIDTH};
use marvel::kernels::{
    collect_detect, collect_extract, detect_dispatcher, extract_dispatcher, prepare_detect,
    prepare_extract,
};
use marvel::wire::{image_stride, upload_image, upload_model};
use portkit::interface::ReplyMode;

use crate::layers::{
    copy_host_us_per_mib, finish_attribution, machine_counters, roundtrip_host_us, setup_seconds,
};
use crate::report::{Outcome, Phase, SpanId, Spans};
use crate::stats::{median, Call, Failures};
use crate::Args;

/// Distinct frames per seed; the timed loop cycles through them.
const POOL: usize = 16;
/// Frames per `analyze_batch_engine` call: deep enough for the window-2
/// pipeline to reach steady state between drains.
const BATCH: usize = 8;
const QUALITY: u8 = 90;
/// Score tolerance of the pipeline's end-to-end test (relative).
const SCORE_TOL: f32 = 1e-3;

struct Inputs {
    frames: Vec<Compressed>,
    reference: Vec<ImageAnalysis>,
}

fn inputs(seed: u64) -> CellResult<Inputs> {
    let mut frames = Vec::with_capacity(POOL);
    for i in 0..POOL as u64 {
        let img = ColorImage::synthetic(PAPER_WIDTH, PAPER_HEIGHT, seed.wrapping_mul(1_000) + i)?;
        frames.push(codec::encode(&img, QUALITY));
    }
    let mut host = ReferenceMarvel::new(seed);
    let reference = frames
        .iter()
        .map(|f| host.analyze(f))
        .collect::<CellResult<Vec<_>>>()?;
    Ok(Inputs { frames, reference })
}

/// Features equal to the host reference, scores within tolerance.
fn matches(got: &ImageAnalysis, want: &ImageAnalysis) -> bool {
    EXTRACT_KINDS.iter().all(|&kind| {
        let (g, w) = (got.score(kind), want.score(kind));
        got.feature(kind) == want.feature(kind) && (g - w).abs() < SCORE_TOL * w.abs().max(1.0)
    })
}

fn build(seed: u64, trace: TraceConfig) -> CellResult<CellMarvel> {
    CellMarvel::with_trace(Scenario::ParallelExtract, true, seed, trace)
}

/// Drive batches through `app` for `seconds`, checking every frame
/// against the reference between calls (outside the timer).
fn drive(
    app: &mut CellMarvel,
    inputs: &Inputs,
    seconds: f64,
    spans: &mut Spans,
    parent: SpanId,
    failures: &mut Failures,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut next = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let first = next % POOL;
        let batch = &inputs.frames[first..first + BATCH];
        let span = spans.open("call.analyze_batch_engine", parent, Some(next as u64));
        let sim0 = app.elapsed();
        let t0 = Instant::now();
        let result = app.analyze_batch_engine(batch);
        let host_s = t0.elapsed().as_secs_f64();
        spans.close(span);
        let results = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("marvel_paper: analyze_batch_engine failed: {e}");
                failures.errors += BATCH as u64;
                phase.calls.push(Call {
                    items: BATCH as u64,
                    host_s,
                    sim_s: 0.0,
                });
                break;
            }
        };
        phase.calls.push(Call {
            items: BATCH as u64,
            host_s,
            sim_s: (app.elapsed() - sim0).seconds(),
        });
        phase.latencies_s.push(host_s);
        spans.scope("verify", parent, Some(next as u64), |_| {
            let wrong = (0..BATCH)
                .filter(|&j| {
                    results
                        .get(j)
                        .is_none_or(|got| !matches(got, &inputs.reference[first + j]))
                })
                .count();
            failures.mismatches += wrong as u64;
        });
        next += BATCH;
    }
    phase
}

pub fn run(args: &Args, spans: &mut Spans) -> CellResult<Outcome> {
    let inputs = inputs(args.seed)?;
    let mut out = Outcome::default();
    let root = spans.open("marvel_paper", None, None);
    // The system under test: machine, five dispatcher spawns, model uploads.
    let setup_s = setup_seconds(
        spans,
        root,
        || build(args.seed, TraceConfig::Off),
        |app| app.finish().map(drop),
    )?;
    if !args.trace {
        let mut app = build(args.seed, TraceConfig::Off)?;
        let phase = drive(
            &mut app,
            &inputs,
            args.seconds,
            spans,
            root,
            &mut out.failures,
        );
        app.finish()?;
        out.attempted = phase.items();
        phase.report(&mut out);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::report::peak_rss_mb());
        spans.close(root);
        return Ok(out);
    }

    // Traced run: an untraced half, then a counters-only half whose
    // trace attributes the work; the difference is the tracing cost.
    let half = args.seconds / 2.0;
    let untraced_span = spans.open("phase.untraced", root, None);
    let mut app = build(args.seed, TraceConfig::Off)?;
    let untraced = drive(
        &mut app,
        &inputs,
        half,
        spans,
        untraced_span,
        &mut out.failures,
    );
    spans.scope("finish", untraced_span, None, |_| app.finish())?;
    spans.close(untraced_span);
    let traced_span = spans.open("phase.traced", root, None);
    let mut app = build(args.seed, TraceConfig::Counters)?;
    let traced = drive(
        &mut app,
        &inputs,
        half,
        spans,
        traced_span,
        &mut out.failures,
    );
    let (_, _, trace) = spans.scope("finish", traced_span, None, |_| app.finish_traced())?;
    spans.close(traced_span);
    let items = traced.items();
    out.attempted = untraced.items() + items;
    machine_counters(&trace, items, &mut out);

    let replay = spans.open("replay", root, None);
    let decode_us = replay_decode(&inputs, spans, replay)?;
    let kernels = replay_kernels(args.seed, &inputs, spans, replay)?;
    let images: Vec<Vec<u8>> = inputs
        .frames
        .iter()
        .map(|f| codec::decode(f).map(|img| padded_upload(&img)))
        .collect::<CellResult<_>>()?;
    let payloads: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    let copy_us_per_mib = copy_host_us_per_mib(&payloads, 20, spans, replay)?;
    let roundtrip_us = roundtrip_host_us(200, spans, replay)?;
    spans.close(replay);

    out.set("marvel.decode_host_us", decode_us);
    for (kind, us) in &kernels {
        out.set(kernel_metric(*kind), *us);
    }
    out.set("cell-mem.copy_host_us_per_mib", copy_us_per_mib);
    out.set("cell-engine.roundtrip_host_us", roundtrip_us);

    // Per frame: one decode, one dispatch of each extractor, one detect
    // per feature, and the frame's upload copy.
    let frame_mib = payloads[0].len() as f64 / (1024.0 * 1024.0);
    let attributed_us = decode_us
        + kernels
            .iter()
            .map(|(kind, us)| {
                if *kind == KernelKind::Cd {
                    us * 4.0
                } else {
                    *us
                }
            })
            .sum::<f64>()
        + copy_us_per_mib * frame_mib;
    finish_attribution(&untraced, &traced, attributed_us, &mut out);
    spans.close(root);
    Ok(out)
}

/// The bytes `upload_image` places in main memory: rows padded to the
/// quadword stride.
pub(crate) fn padded_upload(img: &ColorImage) -> Vec<u8> {
    let stride = image_stride(img.width());
    let mut bytes = vec![0u8; stride * img.height()];
    for y in 0..img.height() {
        bytes[y * stride..y * stride + img.row_bytes()].copy_from_slice(img.row(y));
    }
    bytes
}

fn kernel_metric(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Ch => "marvel.ch_host_us",
        KernelKind::Cc => "marvel.cc_host_us",
        KernelKind::Tx => "marvel.tx_host_us",
        KernelKind::Eh => "marvel.eh_host_us",
        KernelKind::Cd => "marvel.cd_host_us",
    }
}

/// Median host microseconds of `codec::decode` per frame.
fn replay_decode(inputs: &Inputs, spans: &mut Spans, parent: SpanId) -> CellResult<f64> {
    let mut samples = Vec::new();
    for _ in 0..3 {
        for (i, frame) in inputs.frames.iter().enumerate() {
            let span = spans.open("replay.decode", parent, Some(i as u64));
            let t0 = Instant::now();
            let img = codec::decode(frame)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            spans.close(span);
            std::hint::black_box(img);
        }
    }
    Ok(median(&samples))
}

/// Median host microseconds of one dispatch of each kernel, every kernel
/// resident on its own SPE of a fresh machine, on the workload's frames.
/// Detection is one dispatch per feature.
fn replay_kernels(
    seed: u64,
    inputs: &Inputs,
    spans: &mut Spans,
    parent: SpanId,
) -> CellResult<Vec<(KernelKind, f64)>> {
    let mut m = CellMachine::cell_be();
    let mut ppe = m.ppe();
    let mem = Arc::clone(ppe.mem());
    let mut handles = Vec::new();
    let mut ops = Vec::new();
    for (spe, kind) in EXTRACT_KINDS.into_iter().enumerate() {
        let (d, opcodes) = extract_dispatcher(kind, true, false, ReplyMode::Polling);
        handles.push(m.spawn(spe, Box::new(d))?);
        ops.push((kind, spe, opcodes.extract));
    }
    let cd_spe = EXTRACT_KINDS.len();
    let (cd, cd_op) = detect_dispatcher(ReplyMode::Polling);
    handles.push(m.spawn(cd_spe, Box::new(cd))?);
    let models = MarvelModels::synthetic(seed);
    let mut model_eas = Vec::new();
    for kind in EXTRACT_KINDS {
        model_eas.push(upload_model(&mem, models.get(kind))?);
    }
    let mut engine = Engine::new(cd_spe + 1);

    let mut samples: Vec<(KernelKind, Vec<f64>)> = EXTRACT_KINDS
        .iter()
        .chain(std::iter::once(&KernelKind::Cd))
        .map(|&k| (k, Vec::new()))
        .collect();
    for (i, frame) in inputs.frames.iter().enumerate() {
        let img = codec::decode(frame)?;
        let image_ea = upload_image(&mem, &img)?;
        let mut features = Vec::new();
        for (slot, &(kind, spe, op)) in ops.iter().enumerate() {
            let (wrapper, wire) = prepare_extract(&mem, kind, image_ea, img.width(), img.height())?;
            let span = spans.open("replay.kernel", parent, Some(i as u64));
            let t0 = Instant::now();
            let ticket =
                engine.submit_to_spe(&mut ppe, spe, kind.name(), op, wrapper.addr_word()?)?;
            engine.complete(&mut ppe, ticket)?;
            samples[slot].1.push(t0.elapsed().as_secs_f64() * 1e6);
            spans.close(span);
            features.push(collect_extract(&wrapper, &wire)?);
            wrapper.free()?;
        }
        for (feature, &(model_ea, model_bytes)) in features.iter().zip(&model_eas) {
            let (dw, dwire) = prepare_detect(&mem, feature, model_ea, model_bytes)?;
            let span = spans.open("replay.kernel", parent, Some(i as u64));
            let t0 = Instant::now();
            let ticket =
                engine.submit_to_spe(&mut ppe, cd_spe, "ConceptDet", cd_op, dw.addr_word()?)?;
            engine.complete(&mut ppe, ticket)?;
            samples[cd_spe].1.push(t0.elapsed().as_secs_f64() * 1e6);
            spans.close(span);
            std::hint::black_box(collect_detect(&dw, &dwire)?);
            dw.free()?;
        }
        mem.free(image_ea)?;
    }
    engine.close(&mut ppe)?;
    for h in handles {
        h.join()?;
    }
    Ok(samples.into_iter().map(|(k, s)| (k, median(&s))).collect())
}
