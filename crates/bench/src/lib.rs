//! Shared experiment machinery for the paper-reproduction harness.
//!
//! Every table and figure of the paper's evaluation maps to a function
//! here (see DESIGN.md's experiment index). The `experiments` binary
//! prints them; the `benches/` programs assert the engine, telemetry,
//! cluster, durability and ISA-calibration claims and write them to
//! `target/bench/BENCH_*.json` with [`write_artifact`].

use std::sync::Arc;

use cell_core::{
    CellResult, Cycles, EibConfig, Frequency, MachineConfig, MachineProfile, VirtualClock,
    VirtualDuration,
};
use cell_eib::{Eib, Element};
use cell_fault::FaultPlan;
use cell_mem::{LocalStore, MainMemory};
use cell_mfc::{Mfc, StreamReader};
use cell_sys::machine::CellMachine;
use cell_trace::TraceConfig;
use marvel::app::{CellMarvel, ReferenceMarvel, Scenario, EXTRACT_KINDS};
use marvel::codec::{self, Compressed};
use marvel::features::KernelKind;
use marvel::image::ColorImage;
use marvel::kernels::{
    collect_detect, detect_dispatcher, extract_dispatcher, prepare_detect, prepare_extract,
};
use marvel::wire::{upload_image, upload_model};
use portkit::amdahl::{estimate_grouped, estimate_sequential, KernelSpec};
use portkit::interface::{ReplyMode, SpeInterface};

/// Default seed for every synthetic artifact in the harness.
pub const SEED: u64 = 2007;

/// Paper-sized workload: `n` encoded 352×240 images.
pub fn paper_workload(n: usize) -> Vec<Compressed> {
    ColorImage::paper_set(n)
        .iter()
        .map(|img| codec::encode(img, 90))
        .collect()
}

/// Smaller workload for fast benches.
pub fn small_workload(n: usize, w: usize, h: usize) -> Vec<Compressed> {
    (0..n)
        .map(|i| codec::encode(&ColorImage::synthetic(w, h, SEED + i as u64).unwrap(), 90))
        .collect()
}

/// Write a bench artifact to the workspace's `target/bench/<name>.json`,
/// whatever cwd cargo runs the bench from, and return its path.
pub fn write_artifact(name: &str, json: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}

// =========================================================================
// Per-kernel measurements (Table 1, Fig. 6, §5.3)
// =========================================================================

/// Virtual time of one extraction kernel on a dedicated SPE.
pub fn measure_spe_extract(
    kind: KernelKind,
    optimized: bool,
    img: &ColorImage,
) -> CellResult<VirtualDuration> {
    let mut m = CellMachine::cell_be();
    let mut ppe = m.ppe();
    let (d, ops) = extract_dispatcher(kind, optimized, false, ReplyMode::Polling);
    let h = m.spawn(0, Box::new(d))?;
    let mut iface = SpeInterface::new(kind.name(), 0, ReplyMode::Polling);
    let mem = std::sync::Arc::clone(ppe.mem());
    let image_ea = upload_image(&mem, img)?;
    let (wrapper, _wire) = prepare_extract(&mem, kind, image_ea, img.width(), img.height())?;
    let t0 = ppe.elapsed();
    iface.send_and_wait(&mut ppe, ops.extract, wrapper.addr_word()?)?;
    let t1 = ppe.elapsed();
    wrapper.free()?;
    mem.free(image_ea)?;
    iface.close(&mut ppe)?;
    h.join()?;
    Ok(t1 - t0)
}

/// Virtual time of the full concept-detection step (all four features) on
/// a dedicated SPE.
pub fn measure_spe_detect(
    features: &[(KernelKind, Vec<f32>)],
    models: &marvel::app::MarvelModels,
) -> CellResult<VirtualDuration> {
    let mut m = CellMachine::cell_be();
    let mut ppe = m.ppe();
    let (d, op) = detect_dispatcher(ReplyMode::Polling);
    let h = m.spawn(0, Box::new(d))?;
    let mut iface = SpeInterface::new("cd", 0, ReplyMode::Polling);
    let mem = std::sync::Arc::clone(ppe.mem());
    let mut total = VirtualDuration::ZERO;
    for (kind, feature) in features {
        let (model_ea, model_bytes) = upload_model(&mem, models.get(*kind))?;
        let (dw, dwire) = prepare_detect(&mem, feature, model_ea, model_bytes)?;
        let t0 = ppe.elapsed();
        iface.send_and_wait(&mut ppe, op, dw.addr_word()?)?;
        total += ppe.elapsed() - t0;
        let _ = collect_detect(&dw, &dwire)?;
        dw.free()?;
        mem.free(model_ea)?;
    }
    iface.close(&mut ppe)?;
    h.join()?;
    Ok(total)
}

/// One kernel's cross-machine measurement.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub kind: KernelKind,
    pub laptop: VirtualDuration,
    pub desktop: VirtualDuration,
    pub ppe: VirtualDuration,
    pub spe: VirtualDuration,
    pub spe_unoptimized: Option<VirtualDuration>,
    /// Measured coverage of per-image compute time on the PPE.
    pub coverage_ppe: f64,
}

impl KernelRow {
    pub fn speedup_spe_vs_ppe(&self) -> f64 {
        self.ppe.seconds() / self.spe.seconds()
    }

    pub fn speedup_unopt_vs_ppe(&self) -> Option<f64> {
        self.spe_unoptimized
            .map(|t| self.ppe.seconds() / t.seconds())
    }

    pub fn speedup_spe_vs_desktop(&self) -> f64 {
        self.desktop.seconds() / self.spe.seconds()
    }
}

/// Everything measured for one image: the five kernel rows plus the
/// PPE-resident preprocessing times per reference machine.
#[derive(Debug, Clone)]
pub struct KernelMeasurements {
    pub rows: Vec<KernelRow>,
    /// Preprocess (decode) time on laptop / desktop / ppe.
    pub preprocess: [VirtualDuration; 3],
}

/// Measure all five kernels across all machines for one image — the data
/// behind Table 1, Figure 6 and the §5.3 unoptimized comparison.
pub fn measure_kernels(img: &ColorImage) -> CellResult<KernelMeasurements> {
    // Reference profiles for the Laptop/Desktop/PPE columns.
    let input = codec::encode(img, 90);
    let mut reference = ReferenceMarvel::new(SEED);
    let analysis = reference.analyze(&input)?;
    let coverage = reference.coverage(&MachineProfile::ppe())?;
    let cov = |name: &str| {
        coverage
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.fraction)
    };

    let mut rows = Vec::new();
    for kind in EXTRACT_KINDS {
        let spe = measure_spe_extract(kind, true, img)?;
        let spe_unoptimized = if kind != KernelKind::Tx {
            Some(measure_spe_extract(kind, false, img)?)
        } else {
            None
        };
        rows.push(KernelRow {
            kind,
            laptop: reference.phase_time(&MachineProfile::laptop(), kind.name())?,
            desktop: reference.phase_time(&MachineProfile::desktop(), kind.name())?,
            ppe: reference.phase_time(&MachineProfile::ppe(), kind.name())?,
            spe,
            spe_unoptimized,
            coverage_ppe: cov(kind.name()),
        });
    }
    // Concept detection.
    let spe_cd = measure_spe_detect(&analysis.features, reference.models())?;
    rows.push(KernelRow {
        kind: KernelKind::Cd,
        laptop: reference.phase_time(&MachineProfile::laptop(), KernelKind::Cd.name())?,
        desktop: reference.phase_time(&MachineProfile::desktop(), KernelKind::Cd.name())?,
        ppe: reference.phase_time(&MachineProfile::ppe(), KernelKind::Cd.name())?,
        spe: spe_cd,
        spe_unoptimized: None,
        coverage_ppe: cov(KernelKind::Cd.name()),
    });
    let preprocess = [
        reference.phase_time(&MachineProfile::laptop(), "Preprocess")?,
        reference.phase_time(&MachineProfile::desktop(), "Preprocess")?,
        reference.phase_time(&MachineProfile::ppe(), "Preprocess")?,
    ];
    Ok(KernelMeasurements { rows, preprocess })
}

// =========================================================================
// Application-level measurements (Fig. 7, §5.5)
// =========================================================================

/// One full-application measurement.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub scenario: Scenario,
    pub images: usize,
    /// Cell wall time (one-time overhead + per-image work).
    pub cell: VirtualDuration,
    /// Reference wall times: laptop, desktop, ppe.
    pub laptop: VirtualDuration,
    pub desktop: VirtualDuration,
    pub ppe: VirtualDuration,
}

impl AppRun {
    pub fn speedup_vs(&self, reference: VirtualDuration) -> f64 {
        reference.seconds() / self.cell.seconds()
    }
}

/// Run the ported application on `inputs` under `scenario` and the
/// reference application over the same inputs; returns both *processing*
/// times (the one-time overhead is excluded on both sides, like the
/// paper's Fig. 7 comparison).
pub fn measure_app(inputs: &[Compressed], scenario: Scenario) -> CellResult<AppRun> {
    measure_app_inner(inputs, scenario, false)
}

/// Like [`measure_app`] but with the pipelined batch mode (PPE decodes
/// image *i+1* while the SPEs process image *i*) — the Fig. 4(c)
/// PPE+SPE-concurrency extension.
pub fn measure_app_pipelined(inputs: &[Compressed]) -> CellResult<AppRun> {
    measure_app_inner(inputs, Scenario::ParallelExtract, true)
}

fn measure_app_inner(
    inputs: &[Compressed],
    scenario: Scenario,
    pipelined: bool,
) -> CellResult<AppRun> {
    let mut cell = CellMarvel::new(scenario, true, SEED)?;
    if pipelined {
        cell.analyze_batch_pipelined(inputs)?;
    } else {
        for input in inputs {
            cell.analyze(input)?;
        }
    }
    let (cell_time, _reports) = cell.finish()?;

    let mut reference = ReferenceMarvel::new(SEED);
    for input in inputs {
        reference.analyze(input)?;
    }
    Ok(AppRun {
        scenario,
        images: inputs.len(),
        cell: cell_time,
        laptop: reference.processing_time(&MachineProfile::laptop())?,
        desktop: reference.processing_time(&MachineProfile::desktop())?,
        ppe: reference.processing_time(&MachineProfile::ppe())?,
    })
}

// =========================================================================
// Engine pipelining and batching (BENCH_05)
// =========================================================================

/// Virtual wall time of an `inputs.len()`-frame MARVEL run, per-image
/// (submit-all / wait-all each frame, the pre-engine driver shape) vs
/// engine-pipelined (frames stream through the window-deep in-flight
/// lanes, the PPE decoding frame *i+1* while the SPEs work on *i*).
/// Returns `(serial, pipelined)`.
pub fn measure_engine_pipelining(
    inputs: &[Compressed],
) -> CellResult<(VirtualDuration, VirtualDuration)> {
    let mut serial = CellMarvel::new(Scenario::ParallelExtract, true, SEED)?;
    for input in inputs {
        serial.analyze(input)?;
    }
    let (serial_t, _) = serial.finish()?;

    let mut pipelined = CellMarvel::new(Scenario::ParallelExtract, true, SEED)?;
    pipelined.analyze_batch_engine(inputs)?;
    let (pipelined_t, _) = pipelined.finish()?;
    Ok((serial_t, pipelined_t))
}

/// Virtual time of `n` tiny kernel calls dispatched one mailbox
/// round-trip each vs packed into `SPU_BATCH` frames of up to
/// [`portkit::opcodes::MAX_BATCH`] members (one round-trip per frame).
/// Returns `(unbatched, batched)`.
pub fn measure_engine_batching(n: usize) -> CellResult<(VirtualDuration, VirtualDuration)> {
    use cell_engine::Engine;
    use portkit::dispatcher::KernelDispatcher;
    use portkit::opcodes::MAX_BATCH;

    let run = |batched: bool| -> CellResult<VirtualDuration> {
        let mut m = CellMachine::new(MachineConfig::small())?;
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("micro", ReplyMode::Polling);
        let op = d.register("micro", |env, v| {
            // A kernel small enough that the mailbox round-trip dominates
            // — the regime batching exists for.
            env.spu.scalar_op(64 + (v & 0xF) as u64);
            Ok(0)
        });
        let h = m.spawn(0, Box::new(d))?;
        let mut eng = Engine::new(1);
        let t0 = ppe.elapsed();
        if batched {
            let calls: Vec<(u32, u32)> = (0..n as u32).map(|i| (op, i)).collect();
            for frame in calls.chunks(MAX_BATCH) {
                let t = eng.submit_batch_to_spe(&mut ppe, 0, "micro", frame)?;
                let failures = eng.complete(&mut ppe, t)?;
                debug_assert_eq!(failures, 0);
            }
        } else {
            for i in 0..n as u32 {
                let t = eng.submit_to_spe(&mut ppe, 0, "micro", op, i)?;
                eng.complete(&mut ppe, t)?;
            }
        }
        let dt = ppe.elapsed() - t0;
        eng.close(&mut ppe)?;
        h.join()?;
        Ok(dt)
    };
    Ok((run(false)?, run(true)?))
}

// =========================================================================
// Ablations (E13) and degraded mode (E14)
// =========================================================================

/// Total and DMA-stall cycles of one SPE streaming 512 KiB from main
/// memory in 16 KiB chunks through a `depth`-deep [`StreamReader`],
/// computing 10,000 cycles per chunk: the §4.1 multibuffering knob.
pub fn measure_multibuffer(depth: usize) -> CellResult<(u64, u64)> {
    const TOTAL: usize = 512 * 1024;
    let cfg = MachineConfig::default();
    let mem = Arc::new(MainMemory::new(8 << 20));
    let eib = Arc::new(Eib::new(EibConfig::default()));
    let mut mfc = Mfc::new(0, Arc::clone(&mem), eib, cfg.dma);
    let mut ls = LocalStore::new(cfg.local_store_size, cfg.code_reserved);
    let mut clock = VirtualClock::new(Frequency::ghz(3.2));
    let ea = mem.alloc(TOTAL, 128)?;
    let mut reader = StreamReader::new(
        &mut mfc,
        &mut ls,
        &mut clock,
        ea,
        TOTAL,
        16 * 1024,
        depth,
        0,
    )?;
    while reader.acquire(&mut mfc, &mut clock)?.is_some() {
        clock.advance(Cycles(10_000));
        reader.release(&mut mfc, &mut ls, &mut clock)?;
    }
    Ok((clock.now(), mfc.stats().stall_cycles))
}

/// EIB contention when `spes` SPEs each issue 64 gets of 16 KiB from
/// main memory at cycle 0: returns the bus horizon, the summed queueing
/// cycles and the achieved bandwidth in bytes per second.
pub fn measure_eib_contention(spes: usize) -> (u64, u64, f64) {
    let eib = Eib::new(EibConfig::default());
    for s in 0..spes {
        for _ in 0..64 {
            eib.transfer(Element::Memory, Element::Spe(s), 16 * 1024, 0);
        }
    }
    let stats = eib.stats();
    (stats.horizon, stats.queued_cycles, eib.achieved_bandwidth())
}

/// PPE virtual time of 200 echo round trips to one SPE whose
/// dispatcher replies in `mode` (§3.5 step 6: polling vs interrupt).
pub fn measure_reply_mode(mode: ReplyMode) -> CellResult<VirtualDuration> {
    use portkit::dispatcher::KernelDispatcher;
    let mut m = CellMachine::new(MachineConfig::small())?;
    let mut ppe = m.ppe();
    let mut d = KernelDispatcher::new("echo", mode);
    let op = d.register("echo", |_, v| Ok(v));
    let h = m.spawn(0, Box::new(d))?;
    let mut iface = SpeInterface::new("echo", 0, mode);
    for i in 0..200 {
        iface.send_and_wait(&mut ppe, op, i)?;
    }
    iface.close(&mut ppe)?;
    h.join()?;
    Ok(ppe.elapsed())
}

/// The SPEs E14 crashes, one set per row: none, one, and four of the
/// five SPEs the grouped schedule dispatches to.
pub const DEGRADED_CRASHES: [&[usize]; 3] = [&[], &[1], &[1, 2, 3, 4]];

/// One degraded-mode run of the resilient MARVEL port.
#[derive(Debug, Clone, Copy)]
pub struct DegradedRun {
    /// SPEs still alive at the end, out of 8.
    pub survivors: usize,
    /// Failovers the engine performed, one per crashed SPE.
    pub failovers: u64,
    /// Eq. 3 estimate vs the Desktop on the surviving SPEs.
    pub estimate: f64,
    /// PPE virtual time of the whole run.
    pub elapsed: VirtualDuration,
}

/// Run `inputs` through [`CellMarvel::resilient`] with every SPE in
/// `crashed` crashing on its first dispatch, so its work fails over to
/// the survivors.
pub fn measure_degraded(inputs: &[Compressed], crashed: &[usize]) -> CellResult<DegradedRun> {
    let plan = crashed
        .iter()
        .fold(FaultPlan::new(), |p, &s| p.crash_spe(s, 1));
    let mut cell = CellMarvel::resilient(true, SEED, plan, TraceConfig::Off)?;
    for input in inputs {
        cell.analyze(input)?;
    }
    let survivors = cell.survivors();
    let failovers = cell.failovers();
    let estimate = cell.degraded_estimate()?;
    let (elapsed, _reports) = cell.finish()?;
    Ok(DegradedRun {
        survivors,
        failovers,
        estimate,
        elapsed,
    })
}

// =========================================================================
// Analytic estimates (§4.2, §5.5)
// =========================================================================

/// Kernel specs (coverage + speed-up vs the Desktop) derived from the
/// measured kernel rows, for the Eq. 2/3 estimates. Coverage fractions
/// are shares of per-image Desktop compute time (kernels + preprocess).
pub fn kernel_specs_vs_desktop(m: &KernelMeasurements) -> Vec<KernelSpec> {
    let total: f64 =
        m.rows.iter().map(|r| r.desktop.seconds()).sum::<f64>() + m.preprocess[1].seconds();
    m.rows
        .iter()
        .map(|r| {
            KernelSpec::new(
                r.kind.name(),
                (r.desktop.seconds() / total).min(0.999),
                r.speedup_spe_vs_desktop(),
            )
        })
        .collect()
}

/// The three §5.5 scenario estimates from kernel specs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioEstimates {
    pub single_spe: f64,
    pub multi_spe: f64,
    pub multi_spe2: f64,
}

pub fn scenario_estimates(specs: &[KernelSpec]) -> CellResult<ScenarioEstimates> {
    // Kernel order: CH, CC, TX, EH, CD.
    Ok(ScenarioEstimates {
        single_spe: estimate_sequential(specs)?,
        multi_spe: estimate_grouped(specs, &[vec![0, 1, 2, 3], vec![4]])?,
        multi_spe2: estimate_grouped(specs, &[vec![0, 1, 2, 3, 4]])?,
    })
}

// =========================================================================
// Small helpers for the binary
// =========================================================================

/// `paper vs measured` formatting with a ratio.
pub fn fmt_vs(paper: f64, measured: f64) -> String {
    format!(
        "{paper:>8.2} | {measured:>8.2} | {:>5.2}x",
        measured / paper
    )
}

/// Format a duration in ms.
pub fn ms(d: VirtualDuration) -> String {
    format!("{:.3}", d.millis())
}

// ---------------------------------------------------------------------
// BENCH_06: telemetry-plane overhead and wall-clock throughput
// ---------------------------------------------------------------------

/// Host wall-clock of the same pipelined batch-engine MARVEL run under
/// `TraceConfig::Off` vs `TraceConfig::Full` with per-frame spans — the
/// telemetry plane's overhead measurement. Takes the best of `reps`
/// runs per config to damp host noise; the simulated cycle counts are
/// unaffected by tracing, so only wall time is interesting here.
/// Returns `(off, full)`.
pub fn measure_trace_overhead(
    inputs: &[Compressed],
    reps: usize,
) -> CellResult<(std::time::Duration, std::time::Duration)> {
    let run = |trace: TraceConfig| -> CellResult<std::time::Duration> {
        let mut best: Option<std::time::Duration> = None;
        for _ in 0..reps.max(1) {
            let t0 = std::time::Instant::now();
            let mut app = CellMarvel::with_trace(Scenario::ParallelExtract, true, SEED, trace)?;
            if trace.events() {
                app.enable_frame_spans();
            }
            app.analyze_batch_engine(inputs)?;
            let _ = app.finish_traced()?;
            let dt = t0.elapsed();
            best = Some(best.map_or(dt, |b| b.min(dt)));
        }
        Ok(best.expect("reps clamped to >= 1"))
    };
    Ok((run(TraceConfig::Off)?, run(TraceConfig::Full)?))
}

/// Wall-clock requests/sec of a fully telemetered serve soak: request
/// spans on the wire, `Counters` tracing (flight recorder armed) and
/// the metrics registry live. Returns `(served, wall)`.
pub fn measure_serve_throughput(requests: usize) -> CellResult<(u64, std::time::Duration)> {
    use cell_serve::{generate, CellServer, ServeConfig, WorkloadSpec};
    let cfg = ServeConfig {
        seed: SEED,
        queue_capacity: 1_024,
        degrade_high: 1_024,
        degrade_critical: 1_024,
        trace: TraceConfig::Counters,
        request_spans: true,
        ..ServeConfig::default()
    };
    let stream = generate(&WorkloadSpec {
        requests,
        seed: SEED,
        width: 48,
        height: 32,
        ..WorkloadSpec::default()
    })?;
    let t0 = std::time::Instant::now();
    let mut server = CellServer::new(cfg, FaultPlan::new())?;
    server.run(stream)?;
    let output = server.finish()?;
    Ok((output.report.served, t0.elapsed()))
}

/// Tracer-level cost of recording `events` span events with and without
/// pre-reserved event storage (the PR's `EVENT_PREALLOC` optimization).
/// Returns `(cold, prereserved)` wall times for the same push loop.
#[must_use]
pub fn measure_event_prealloc(events: usize) -> (std::time::Duration, std::time::Duration) {
    use cell_trace::{EventKind, Tracer, Track};
    let run = |capacity: usize| {
        let mut t = Tracer::with_event_capacity(TraceConfig::Full, Track::Ppe, 3.2e9, capacity);
        let t0 = std::time::Instant::now();
        for i in 0..events {
            t.span(EventKind::Kernel, "bench", i as u64, 1, 0, 0);
        }
        let dt = t0.elapsed();
        assert_eq!(t.events().len(), events);
        dt
    };
    (run(0), run(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = small_workload(2, 32, 32);
        let b = small_workload(2, 32, 32);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn measure_small_kernel_roundtrip() {
        let img = ColorImage::synthetic(48, 32, 1).unwrap();
        let t = measure_spe_extract(KernelKind::Ch, true, &img).unwrap();
        assert!(t.seconds() > 0.0);
    }

    #[test]
    fn app_measurement_produces_speedups() {
        let inputs = small_workload(1, 48, 32);
        let run = measure_app(&inputs, Scenario::Sequential).unwrap();
        assert!(run.cell.seconds() > 0.0);
        assert!(run.ppe.seconds() > run.desktop.seconds());
    }

    #[test]
    fn engine_pipelining_beats_send_and_wait() {
        // The BENCH_05 headline on a small fixed-seed workload: a 4-frame
        // pipeline through the window-2 engine must finish sooner on
        // simulated cycles than the frame-at-a-time driver.
        let inputs = small_workload(4, 48, 32);
        let (serial, pipelined) = measure_engine_pipelining(&inputs).unwrap();
        assert!(
            pipelined.seconds() < serial.seconds(),
            "pipelined {pipelined:?} must beat send-and-wait {serial:?}"
        );
    }

    // E13 and E14 pins. The ablations run on one thread, or causally
    // ordered through one mailbox pair, so their cycles repeat exactly.

    #[test]
    fn multibuffer_ablation_is_pinned() {
        let runs = [1, 2, 3].map(|depth| measure_multibuffer(depth).unwrap());
        assert_eq!(
            runs,
            [(392_192, 72_000), (322_436, 2_244), (322_430, 2_238)]
        );
    }

    #[test]
    fn eib_contention_is_pinned() {
        let runs = [1, 2, 4, 8].map(measure_eib_contention);
        assert_eq!(
            runs.map(|(horizon, queued, _)| (horizon, queued)),
            [
                (65_537, 2_064_384),
                (131_073, 8_323_072),
                (262_145, 33_423_360),
                (524_289, 133_955_584),
            ]
        );
        // Every count runs at the XDR port's cap.
        for (_, _, bandwidth) in runs {
            assert_eq!(format!("{:.1}", bandwidth / 1e9), "25.6");
        }
    }

    #[test]
    fn reply_mode_ppe_times_are_pinned() {
        let cycles = |mode| {
            Frequency::ghz(3.2)
                .cycles_in(measure_reply_mode(mode).unwrap())
                .0
        };
        assert_eq!(cycles(ReplyMode::Polling), 93_860);
        assert_eq!(cycles(ReplyMode::Interrupt), 203_860);
    }

    #[test]
    fn degraded_mode_keeps_the_eq3_estimate_down_to_four_survivors() {
        // Survivors, failovers and Eq. 3 only: the run's cycles move with
        // the host order of DMA requests that tie in virtual time.
        let inputs = small_workload(2, 96, 64);
        let runs = DEGRADED_CRASHES.map(|crashed| measure_degraded(&inputs, crashed).unwrap());
        assert_eq!(
            runs.map(|r| (r.survivors, r.failovers)),
            [(8, 0), (7, 1), (4, 4)]
        );
        for r in runs {
            assert_eq!(r.estimate, 16.946_176_862_900_604);
        }
    }

    #[test]
    fn engine_batching_beats_per_call_roundtrips() {
        let (unbatched, batched) = measure_engine_batching(64).unwrap();
        assert!(
            batched.seconds() < unbatched.seconds(),
            "batched {batched:?} must beat unbatched {unbatched:?}"
        );
    }
}
