//! The assembled MARVEL pipeline — reference, PPE, and Cell runs.
//!
//! Mirrors the processing flow of paper Fig. 5: preprocessing (image
//! decode + one-time model loading), four feature extractions, and
//! SVM-based concept detection. Three execution modes exist:
//!
//! * [`ReferenceMarvel`] — the sequential application, functionally
//!   executed with per-phase operation accounting; its profiles are
//!   costed on the Laptop / Desktop / PPE machine models (that *is* the
//!   paper's §5.2 profiling step);
//! * [`CellMarvel`] — the ported application on the simulated machine:
//!   a PPE thread drives SPE-resident kernels through one offload engine
//!   along the static schedule of any of the §5.5 scheduling
//!   [`Scenario`]s. Its failover layout ([`CellMarvel::resilient`]) puts
//!   a universal dispatcher on every SPE and re-plans the same schedule
//!   over the survivors when an SPE dies;
//! * the unoptimized Cell variant (a `CellMarvel` flag) for the §5.3
//!   before-optimization measurements.

use std::sync::Arc;

use cell_core::{
    CellError, CellResult, CostModel, MachineConfig, MachineProfile, OpProfile, VirtualDuration,
};
use cell_engine::{Engine, FailoverMode, Ticket};
use cell_fault::FaultPlan;
use cell_mem::MainMemory;
use cell_sys::machine::{CellMachine, SpeHandle, SpeReport};
use cell_sys::ppe::Ppe;
use cell_trace::{TraceConfig, TraceReport};
use portkit::amdahl::KernelSpec;
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::ReplyMode;
use portkit::opcodes::{OpcodeTable, SPU_OK};
use portkit::profile::CoverageProfiler;
use portkit::recovery::RetryPolicy;
use portkit::schedule::{KernelId, Schedule};
use portkit::wrapper::MsgWrapper;

use crate::classify::paper_model_size;
use crate::classify::svm::SvmModel;
use crate::codec::{self, Compressed};
use crate::features::{correlogram, edge, histogram, texture, Feature, KernelKind};
use crate::image::ColorImage;
use crate::kernels::{
    collect_detect, collect_extract, detect_dispatcher, extract_dispatcher, feature_dim,
    kernel_fn_name, prepare_detect, prepare_extract, universal_dispatcher, ExtractOpcodes,
};
use crate::wire::{upload_image, upload_model, ExtractWire};

/// One-time application overhead (model loading, startup I/O). The paper
/// measures it as disk-bound and therefore roughly machine-independent:
/// ~60 % of the 1-image total on the PPE (§5.2).
pub const ONE_TIME_OVERHEAD: f64 = 0.100; // seconds

/// Per-image input I/O (reading the compressed file) — also disk-bound,
/// hence machine-independent. Together with the decoder's compute this
/// reproduces the paper's observation that preprocessing slowed only
/// 1.2–1.4× on the PPE while the kernels slowed 2.5–3.2×.
pub const DISK_READ_PER_IMAGE: f64 = 0.0006; // seconds

/// The extraction kernels in pipeline order.
pub const EXTRACT_KINDS: [KernelKind; 4] = [
    KernelKind::Ch,
    KernelKind::Cc,
    KernelKind::Tx,
    KernelKind::Eh,
];

/// The per-concept model set (one SVM per feature kind, paper §5.5
/// collection sizes).
#[derive(Debug, Clone)]
pub struct MarvelModels {
    models: Vec<(KernelKind, SvmModel)>,
}

impl MarvelModels {
    /// Synthetic "precomputed" models with the paper's vector counts.
    pub fn synthetic(seed: u64) -> Self {
        let models = EXTRACT_KINDS
            .iter()
            .map(|&k| {
                let m = SvmModel::synthetic(
                    format!("{}-concept", k.name()),
                    feature_dim(k),
                    paper_model_size(k),
                    seed ^ (k as u64).wrapping_mul(0x9E37_79B9),
                );
                (k, m)
            })
            .collect();
        MarvelModels { models }
    }

    pub fn get(&self, kind: KernelKind) -> &SvmModel {
        &self
            .models
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("extraction kind")
            .1
    }

    /// Total wire bytes of the collection.
    pub fn wire_bytes(&self) -> usize {
        self.models.iter().map(|(_, m)| m.wire_bytes()).sum()
    }
}

/// The analysis result for one image.
#[derive(Debug, Clone)]
pub struct ImageAnalysis {
    pub features: Vec<(KernelKind, Feature)>,
    /// SVM decision values per feature kind.
    pub scores: Vec<(KernelKind, f32)>,
}

impl ImageAnalysis {
    pub fn feature(&self, kind: KernelKind) -> &Feature {
        &self
            .features
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("feature")
            .1
    }

    pub fn score(&self, kind: KernelKind) -> f32 {
        self.scores
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("score")
            .1
    }
}

// =========================================================================
// Reference (sequential) application
// =========================================================================

/// The original sequential application with per-phase op accounting.
#[derive(Debug)]
pub struct ReferenceMarvel {
    models: MarvelModels,
    profiler: CoverageProfiler,
    images: usize,
}

impl ReferenceMarvel {
    pub fn new(seed: u64) -> Self {
        ReferenceMarvel {
            models: MarvelModels::synthetic(seed),
            profiler: CoverageProfiler::new(),
            images: 0,
        }
    }

    pub fn models(&self) -> &MarvelModels {
        &self.models
    }

    /// The accumulated phase profiler (feeds
    /// [`portkit::report::PlanBuilder`]).
    pub fn profiler(&self) -> &CoverageProfiler {
        &self.profiler
    }

    /// Concept detection with the kNN alternative (paper §5.1 lists kNN
    /// next to SVMs among MARVEL's classifiers): vote over labelled
    /// exemplar features instead of scoring support vectors. Returns the
    /// per-kind boolean decisions and accumulates the kNN cost under its
    /// own phase (`ConceptDetKnn`), so the two classifiers' costs can be
    /// compared from the same profiler.
    pub fn detect_with_knn(
        &mut self,
        analysis: &ImageAnalysis,
        exemplars: &[(KernelKind, crate::classify::knn::KnnClassifier)],
    ) -> CellResult<Vec<(KernelKind, bool)>> {
        let mut prof = OpProfile::new();
        let mut out = Vec::new();
        for (kind, knn) in exemplars {
            let decision = knn.classify_counted(analysis.feature(*kind), &mut prof)?;
            out.push((*kind, decision));
        }
        self.profiler.record("ConceptDetKnn", &prof);
        Ok(out)
    }

    /// Analyze one compressed image, accumulating phase profiles.
    pub fn analyze(&mut self, input: &Compressed) -> CellResult<ImageAnalysis> {
        let mut pre = OpProfile::new();
        let img = codec::decode_counted(input, &mut pre)?;
        self.profiler.record("Preprocess", &pre);

        let mut features = Vec::with_capacity(4);
        for kind in EXTRACT_KINDS {
            let mut prof = OpProfile::new();
            let f = match kind {
                KernelKind::Ch => histogram::extract_counted(&img, &mut prof),
                KernelKind::Cc => correlogram::extract_counted(&img, &mut prof),
                KernelKind::Tx => texture::extract_counted(&img, &mut prof),
                KernelKind::Eh => edge::extract_counted(&img, &mut prof),
                KernelKind::Cd => unreachable!(),
            };
            self.profiler.record(kind.name(), &prof);
            features.push((kind, f));
        }

        let mut scores = Vec::with_capacity(4);
        let mut cd_prof = OpProfile::new();
        for (kind, f) in &features {
            let s = self.models.get(*kind).score_counted(f, &mut cd_prof)?;
            scores.push((*kind, s));
        }
        self.profiler.record(KernelKind::Cd.name(), &cd_prof);

        self.images += 1;
        Ok(ImageAnalysis { features, scores })
    }

    /// Images analyzed so far.
    pub fn images(&self) -> usize {
        self.images
    }

    /// The §3.2 profiling step: per-phase coverage on `model`.
    pub fn coverage(
        &self,
        model: &MachineProfile,
    ) -> CellResult<Vec<portkit::profile::CoverageRow>> {
        self.profiler.report(model)
    }

    /// Combined kernel coverage (extraction + detection) — the paper's
    /// 87 % (1 image) / 96 % (50 images) numbers.
    pub fn kernel_coverage(&self, model: &MachineProfile) -> CellResult<f64> {
        self.profiler.combined_fraction(
            model,
            &[
                KernelKind::Ch.name(),
                KernelKind::Cc.name(),
                KernelKind::Tx.name(),
                KernelKind::Eh.name(),
                KernelKind::Cd.name(),
            ],
        )
    }

    /// Compute-only time of the run on `model` (no I/O constants).
    pub fn compute_time(&self, model: &MachineProfile) -> CellResult<VirtualDuration> {
        Ok(self
            .coverage(model)?
            .iter()
            .map(|r| r.time)
            .fold(VirtualDuration::ZERO, |a, b| a + b))
    }

    /// Processing time on `model`: compute plus the per-image input I/O,
    /// without the one-time overhead — what the paper's Fig. 7 speed-ups
    /// compare.
    pub fn processing_time(&self, model: &MachineProfile) -> CellResult<VirtualDuration> {
        Ok(self.compute_time(model)?
            + VirtualDuration::from_seconds(DISK_READ_PER_IMAGE * self.images as f64))
    }

    /// Full wall time on `model`: processing + the one-time overhead.
    pub fn total_time(&self, model: &MachineProfile) -> CellResult<VirtualDuration> {
        Ok(self.processing_time(model)? + VirtualDuration::from_seconds(ONE_TIME_OVERHEAD))
    }

    /// Time of one named phase on `model`.
    pub fn phase_time(&self, model: &MachineProfile, phase: &str) -> CellResult<VirtualDuration> {
        let prof = self
            .profiler
            .phase_profile(phase)
            .ok_or_else(|| CellError::BadData {
                message: format!("no phase `{phase}`"),
            })?;
        Ok(model.time(prof))
    }
}

// =========================================================================
// The ported application on the simulated Cell
// =========================================================================

/// Kernel id of concept detection in every MARVEL schedule (extractions
/// are kernels `0..=3` in [`EXTRACT_KINDS`] order).
pub const CD_KERNEL: KernelId = 4;

/// The extraction kernels' schedule slots, in [`EXTRACT_KINDS`] order.
const EXTRACTIONS: [KernelId; 4] = [0, 1, 2, 3];

/// The paper's Table 1 kernels as [`KernelSpec`]s vs the Desktop (each
/// SPE-vs-PPE speed-up divided by the 3.2× PPE slowdown) — the inputs the
/// §5.5 scenario estimates and the degraded-mode Eq. 3 share. Indexed by
/// [`KernelId`]: `0..=3` the extractions, [`CD_KERNEL`] detection.
pub fn paper_kernel_specs() -> Vec<KernelSpec> {
    let f = 3.2;
    vec![
        KernelSpec::new("CHExtract", 0.08, 53.67 / f),
        KernelSpec::new("CCExtract", 0.54, 52.23 / f),
        KernelSpec::new("TXExtract", 0.06, 15.99 / f),
        KernelSpec::new("EHExtract", 0.28, 65.94 / f),
        KernelSpec::new("ConceptDet", 0.02, 10.80 / f),
    ]
}

/// The §5.5 scheduling scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Scenario 1: every kernel invocation is `SendAndWait` — sequential
    /// use of the SPEs (Fig. 4b).
    Sequential,
    /// Scenario 2: the four extractions run in parallel; detection runs
    /// sequentially on its own SPE (Fig. 4c).
    ParallelExtract,
    /// Scenario 3: detection code replicated on the extraction SPEs; each
    /// extraction is immediately followed by its own detection.
    ParallelReplicated,
}

/// Fig. 4(c) over `num_spes` SPEs: the four extractions together, then
/// detection.
fn extract_then_detect(num_spes: usize) -> CellResult<Schedule> {
    Schedule::grouped(vec![EXTRACTIONS.to_vec(), vec![CD_KERNEL]], num_spes)
}

/// An extraction in flight: its schedule slot, engine ticket and wrapper.
type PendingExtract<'m> = (KernelId, Ticket, MsgWrapper<'m>, ExtractWire);

/// The ported application: a PPE main loop driving the SPE-resident
/// kernels through one [`cell_engine::Engine`] along the scenario's
/// static [`Schedule`] (§3.3): kernel *k* of [`EXTRACT_KINDS`] is
/// schedule slot *k*, detection is [`CD_KERNEL`], and every submission is
/// routed by slot. One driver therefore serves two layouts:
///
/// * **static** ([`CellMarvel::new`]) — the paper's one kernel per SPE
///   (extractions on SPEs 0..=3, detection on SPE 4) with blocking
///   dispatch; a failed SPE surfaces as an error;
/// * **failover** ([`CellMarvel::resilient`]) — a universal dispatcher on
///   every SPE and the engine in [`FailoverMode::Replan`], so the run
///   survives SPE failures.
pub struct CellMarvel {
    // Field order matters: handles are joined in `finish`, machine last.
    ppe: Ppe,
    machine: CellMachine,
    handles: Vec<SpeHandle>,
    engine: Engine,
    /// Opcodes of extraction slot *k*, read from its dispatcher's table.
    ops: Vec<ExtractOpcodes>,
    cd_opcode: u32,
    models: MarvelModels,
    model_eas: Vec<(KernelKind, u64, usize)>,
    scenario: Scenario,
    images: usize,
    /// Stamp one trace id per frame onto the wire in the batch-engine
    /// path. Opt-in: the `SPU_SPAN` prefix costs two mailbox words per
    /// dispatch, which shifts the virtual-time trajectory.
    frame_spans: bool,
}

impl CellMarvel {
    /// Build the machine, spawn the kernels, upload the models.
    ///
    /// `optimized = false` runs the freshly ported kernels of §5.3.
    pub fn new(scenario: Scenario, optimized: bool, seed: u64) -> CellResult<Self> {
        Self::with_trace(scenario, optimized, seed, TraceConfig::Off)
    }

    /// As [`CellMarvel::new`], but with tracing armed on every layer
    /// (PPE, SPEs, MFCs, EIB) before any thread spawns, so the resulting
    /// [`TraceReport`] from [`CellMarvel::finish_traced`] covers the whole
    /// run.
    pub fn with_trace(
        scenario: Scenario,
        optimized: bool,
        seed: u64,
        trace: TraceConfig,
    ) -> CellResult<Self> {
        // The static one-kernel-per-SPE layout: both schedule shapes put
        // kernel k on SPE k.
        let with_detect = scenario == Scenario::ParallelReplicated;
        let mut dispatchers: Vec<KernelDispatcher> = EXTRACT_KINDS
            .into_iter()
            .map(|kind| extract_dispatcher(kind, optimized, with_detect, ReplyMode::Polling).0)
            .collect();
        dispatchers.push(detect_dispatcher(ReplyMode::Polling).0);
        let n = dispatchers.len();
        let schedule = match scenario {
            Scenario::Sequential => Schedule::sequential(n, n)?,
            Scenario::ParallelExtract | Scenario::ParallelReplicated => extract_then_detect(n)?,
        };
        // Window 2: the per-image scenarios never keep more than one
        // request per lane outstanding (so their timing is untouched),
        // while the pipelined batch path queues frame N+1 behind frame N.
        let engine = Engine::new(n).with_window(2).with_schedule(schedule);
        Self::boot(scenario, seed, FaultPlan::new(), trace, dispatchers, engine)
    }

    /// The failover layout: scenario 2's schedule over every SPE of the
    /// machine, able to survive the SPE failures `plan` injects (or, on
    /// real hardware, anything that kills a resident kernel). Three
    /// ingredients make the recovery work:
    ///
    /// * **universal dispatchers** — every SPE runs
    ///   [`crate::kernels::universal_dispatcher`], so any kernel can be
    ///   re-dispatched on any survivor with the same opcode;
    /// * **supervised round trips** — the engine runs in
    ///   [`FailoverMode::Replan`] with one request per lane, so every wait
    ///   goes through [`portkit::recovery`]'s timeout/retry/dead-SPE
    ///   machinery;
    /// * **re-planning** — on a detected failure the schedule is
    ///   recomputed over the survivors with [`Schedule::replan`], and
    ///   [`CellMarvel::degraded_estimate`] reprices the run for the
    ///   reduced SPE count.
    ///
    /// Because the kernels are pure functions over wrapped inputs, a
    /// failover re-dispatch recomputes *exactly* the same feature bytes: a
    /// chaos run that kills one of eight SPEs mid-pipeline still produces
    /// results byte-identical to the fault-free run. `trace` is armed as
    /// in [`CellMarvel::with_trace`], so injected faults and recoveries
    /// land in the final [`TraceReport`].
    pub fn resilient(
        optimized: bool,
        seed: u64,
        plan: FaultPlan,
        trace: TraceConfig,
    ) -> CellResult<Self> {
        let num_spes = MachineConfig::default().num_spes;
        let dispatchers = (0..num_spes)
            .map(|_| universal_dispatcher(optimized, ReplyMode::Polling).0)
            .collect();
        let engine = Engine::new(num_spes)
            .with_schedule(extract_then_detect(num_spes)?)
            .with_mode(FailoverMode::Replan);
        Self::boot(
            Scenario::ParallelExtract,
            seed,
            plan,
            trace,
            dispatchers,
            engine,
        )
    }

    /// Arm tracing and `plan`, upload the models, then spawn
    /// `dispatchers[i]` on SPE *i*. The models go up before any SPE
    /// spawns, so their addresses (and every DMA) match in both layouts.
    fn boot(
        scenario: Scenario,
        seed: u64,
        plan: FaultPlan,
        trace: TraceConfig,
        dispatchers: Vec<KernelDispatcher>,
        engine: Engine,
    ) -> CellResult<Self> {
        let mut machine = CellMachine::cell_be();
        machine.set_trace_config(trace);
        machine.set_fault_plan(plan);
        let ppe = machine.ppe();
        let models = MarvelModels::synthetic(seed);

        let mem = Arc::clone(ppe.mem());
        let mut model_eas = Vec::new();
        for kind in EXTRACT_KINDS {
            let (ea, bytes) = upload_model(&mem, models.get(kind))?;
            model_eas.push((kind, ea, bytes));
        }

        // Opcodes come from the dispatcher each slot is scheduled on.
        let table = |slot: KernelId| -> CellResult<OpcodeTable> {
            Ok(dispatchers[engine.spe_of(slot)?].opcode_table())
        };
        let mut ops = Vec::new();
        for (k, kind) in EXTRACT_KINDS.into_iter().enumerate() {
            ops.push(ExtractOpcodes::from_table(&table(k)?, kind));
        }
        let cd_opcode = table(CD_KERNEL)?.require(kernel_fn_name(KernelKind::Cd));

        let mut handles = Vec::new();
        for (spe, d) in dispatchers.into_iter().enumerate() {
            handles.push(machine.spawn(spe, Box::new(d))?);
        }

        Ok(CellMarvel {
            ppe,
            machine,
            handles,
            engine,
            ops,
            cd_opcode,
            models,
            model_eas,
            scenario,
            images: 0,
            frame_spans: false,
        })
    }

    /// Thread a per-frame trace id through every batch-engine dispatch
    /// (`SPU_SPAN` wire prefix + a `Request` root event per frame), so
    /// `cell_telemetry::build_span_forest` can reconstruct one span tree
    /// per frame from the finished trace. Costs two mailbox words per
    /// dispatch, so timing differs from an untelemetered run.
    pub fn enable_frame_spans(&mut self) {
        self.frame_spans = true;
    }

    /// Start recording PPE-observed dispatch spans; render them with
    /// [`CellMarvel::timeline`] after a run. Spans are what the PPE sees
    /// (send → reply), which is exactly the Fig. 4 view. For whole-machine
    /// tracing (SPEs, MFCs, EIB) build with [`CellMarvel::with_trace`]
    /// instead — the SPE threads are already running by the time this can
    /// be called, so only the PPE track is affected here.
    pub fn enable_tracing(&mut self) {
        self.ppe.tracer_mut().set_config(TraceConfig::Full);
    }

    /// The Fig. 4 timeline, reconstructed from the PPE's recorded dispatch
    /// spans. `None` unless event tracing is on (via
    /// [`CellMarvel::enable_tracing`] or a [`CellMarvel::with_trace`]
    /// config of [`TraceConfig::Full`]).
    pub fn timeline(&self) -> Option<portkit::trace::Timeline> {
        if !self.ppe.tracer().config().events() {
            return None;
        }
        let hz = self.ppe.clock.frequency().hertz();
        Some(portkit::trace::Timeline::from_dispatch_events(
            self.ppe.tracer().events(),
            hz,
        ))
    }

    /// Bus statistics so far (utilization reporting).
    pub fn eib_stats(&self) -> cell_eib::EibStats {
        self.machine.eib().stats()
    }

    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The extraction kernels' SPE placement and opcode tables:
    /// `(kind, spe id, opcodes)` per extraction slot. Feeds the
    /// `cell-lint` port models.
    pub fn kernel_bindings(&self) -> Vec<(KernelKind, usize, ExtractOpcodes)> {
        EXTRACT_KINDS
            .into_iter()
            .zip(&self.ops)
            .enumerate()
            .map(|(k, (kind, &ops))| (kind, self.schedule().spe_of(k), ops))
            .collect()
    }

    /// Concept detection's `(spe id, opcode)` binding.
    pub fn cd_binding(&self) -> (usize, u32) {
        (self.schedule().spe_of(CD_KERNEL), self.cd_opcode)
    }

    /// The offload engine's in-flight window per lane: 2 in the static
    /// layout (the pipelined depth the batch path runs at), 1 in the
    /// failover layout (serial lanes keep every timeout attributable).
    pub fn engine_window(&self) -> usize {
        self.engine.window()
    }

    /// Number of SPEs carrying a dispatcher.
    pub fn num_spes(&self) -> usize {
        self.engine.num_spes()
    }

    /// The current schedule — re-planned over the survivors after a
    /// failover in the failover layout.
    pub fn schedule(&self) -> &Schedule {
        self.engine
            .schedule()
            .expect("engine built with a schedule")
    }

    /// Replace the retry/timeout policy (e.g. shorter deadlines for hang
    /// detection in tests).
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.engine.set_policy(policy);
    }

    /// The engine's recovery decision stream (retries and failovers in
    /// the order they were taken) — what the driver-equivalence tests
    /// compare against cell-serve on the same seed and fault plan.
    pub fn recovery_log(&self) -> &[cell_engine::RecoveryEvent] {
        self.engine.recovery_log()
    }

    /// Liveness per SPE, as observed so far.
    pub fn alive(&self) -> &[bool] {
        self.engine.alive()
    }

    /// SPEs still believed alive.
    pub fn survivors(&self) -> usize {
        self.alive().iter().filter(|&&a| a).count()
    }

    /// Failovers performed so far (each one marks an SPE dead and
    /// re-plans the schedule).
    pub fn failovers(&self) -> u64 {
        self.engine.failovers() as u64
    }

    /// Degraded-mode Eq. 3: the application speed-up estimate for the
    /// paper's kernels on the *current* survivor count (wide groups
    /// serialized into chunks, exactly as the re-planned schedule runs
    /// them).
    pub fn degraded_estimate(&self) -> CellResult<f64> {
        self.schedule()
            .estimate_degraded(&paper_kernel_specs(), self.survivors())
    }

    /// Charge the one-time startup overhead (model loading etc.) to the
    /// PPE clock. Separate from `new` so experiments can measure
    /// processing time and wall time independently, exactly like the
    /// paper's gprof-vs-wall distinction in §5.2.
    pub fn charge_one_time(&mut self) {
        self.ppe
            .charge_cycles((ONE_TIME_OVERHEAD * self.ppe.clock.frequency().hertz()) as u64);
    }

    pub fn models(&self) -> &MarvelModels {
        &self.models
    }

    fn model_ea(&self, kind: KernelKind) -> (u64, usize) {
        let (_, ea, bytes) = self
            .model_eas
            .iter()
            .find(|(k, _, _)| *k == kind)
            .expect("model");
        (*ea, *bytes)
    }

    /// Analyze one compressed image on the Cell.
    pub fn analyze(&mut self, input: &Compressed) -> CellResult<ImageAnalysis> {
        let img = self.decode(input)?;
        self.analyze_decoded(&img)
    }

    /// Analyze an already-decoded image (used by kernel-level tests).
    pub fn analyze_decoded(&mut self, img: &ColorImage) -> CellResult<ImageAnalysis> {
        let mem = Arc::clone(self.ppe.mem());
        let image = self.upload(&mem, img)?;
        let result = match self.scenario {
            Scenario::Sequential | Scenario::ParallelExtract => self.run_schedule(&mem, image),
            Scenario::ParallelReplicated => self.run_replicated(&mem, image),
        };
        mem.free(image.0)?;
        self.images += 1;
        result
    }

    /// Pipelined batch processing (an extension the paper's Fig. 4(c)
    /// points toward: "the execution model should increase concurrency by
    /// using several SPEs and the PPE in parallel"): while the SPEs crunch
    /// image *i*, the PPE decodes and uploads image *i+1*, hiding the
    /// PPE-resident preprocessing behind kernel execution.
    ///
    /// Uses parallel extraction regardless of the configured scenario;
    /// detection runs on the CD slot's SPE.
    pub fn analyze_batch_pipelined(
        &mut self,
        inputs: &[Compressed],
    ) -> CellResult<Vec<ImageAnalysis>> {
        let mem = Arc::clone(self.ppe.mem());
        let mut results = Vec::new();
        let mut rest = inputs.iter();
        let mut staged = rest.next().map(|c| self.stage(&mem, c)).transpose()?;
        while let Some(image) = staged.take() {
            let pending = self.submit_extractions(&mem, &EXTRACTIONS, image)?;
            // Overlap: decode + upload the next image on the PPE.
            staged = rest.next().map(|c| self.stage(&mem, c)).transpose()?;
            // Collect this image's features and run its detections.
            let features = self.collect_extractions(pending)?;
            let scores = self.detect_sequential(&mem, &features)?;
            mem.free(image.0)?;
            self.images += 1;
            results.push(ImageAnalysis { features, scores });
        }
        Ok(results)
    }

    /// Fully engine-pipelined batch processing — the next step past
    /// [`CellMarvel::analyze_batch_pipelined`]: besides overlapping the
    /// PPE's decode of image *i+1* with the SPEs' work on image *i*, the
    /// extraction requests for *i+1* are **submitted** before *i*'s
    /// replies are redeemed, so they sit in each lane's inbound mailbox
    /// and the SPE rolls from one image straight into the next without a
    /// PPE round-trip in between. Detections for an image are packed
    /// into a single `SPU_BATCH` round-trip on the CD SPE (one reply
    /// latency instead of four).
    pub fn analyze_batch_engine(
        &mut self,
        inputs: &[Compressed],
    ) -> CellResult<Vec<ImageAnalysis>> {
        struct Frame<'m> {
            image_ea: u64,
            /// Per-frame trace id (frame index + 1) and PPE start cycle:
            /// the span root covers stage→retire for this frame.
            span: u64,
            started: u64,
            pending: Vec<PendingExtract<'m>>,
        }
        let mem = Arc::clone(self.ppe.mem());
        let mut results = Vec::new();
        let mut frames: std::collections::VecDeque<Frame<'_>> = std::collections::VecDeque::new();
        let depth = self.engine.window();
        for (n, input) in inputs.iter().enumerate() {
            // One trace id per frame, threaded through every extraction
            // submit so SPE-side kernel and DMA events attribute back to
            // the frame that caused them.
            let span = n as u64 + 1;
            let started = self.ppe.clock.now();
            if self.frame_spans {
                self.engine.set_span_context(span)?;
            }
            let image = self.stage(&mem, input)?;
            let pending = self.submit_extractions(&mem, &EXTRACTIONS, image)?;
            frames.push_back(Frame {
                image_ea: image.0,
                span,
                started,
                pending,
            });
            // Keep at most `window` frames in flight per lane; retire the
            // oldest once the pipeline is full (or the input is done).
            while frames.len() > depth || (n + 1 == inputs.len() && !frames.is_empty()) {
                let frame = frames.pop_front().expect("nonempty");
                // Retirement work (the batched detect submit) belongs to
                // the retiring frame's span, not the one just staged.
                if self.frame_spans {
                    self.engine.set_span_context(frame.span)?;
                }
                let features = self.collect_extractions(frame.pending)?;
                let scores = self.detect_batched(&mem, &features)?;
                mem.free(frame.image_ea)?;
                if self.frame_spans {
                    let done = self.ppe.clock.now();
                    self.ppe.tracer_mut().span_tagged(
                        cell_trace::EventKind::Request,
                        "frame",
                        frame.started,
                        done.saturating_sub(frame.started),
                        frame.span - 1,
                        0,
                        frame.span,
                    );
                }
                self.images += 1;
                results.push(ImageAnalysis { features, scores });
            }
        }
        self.engine.clear_span_context();
        Ok(results)
    }

    /// Preprocessing on the PPE: decode (costed with the PPE model) plus
    /// the disk read constant.
    fn decode(&mut self, input: &Compressed) -> CellResult<ColorImage> {
        let mut pre = OpProfile::new();
        let img = codec::decode_counted(input, &mut pre)?;
        self.ppe.charge(&pre);
        self.ppe
            .charge_cycles((DISK_READ_PER_IMAGE * self.ppe.clock.frequency().hertz()) as u64);
        Ok(img)
    }

    /// Upload a decoded image to main memory and charge the PPE's wrapper
    /// fill (Listing 4's FILL_MSG…); returns `(image_ea, width, height)`.
    fn upload(&mut self, mem: &MainMemory, img: &ColorImage) -> CellResult<(u64, usize, usize)> {
        let ea = upload_image(mem, img)?;
        self.ppe.charge_cycles(2_000);
        Ok((ea, img.width(), img.height()))
    }

    /// [`CellMarvel::decode`] then [`CellMarvel::upload`].
    fn stage(&mut self, mem: &MainMemory, input: &Compressed) -> CellResult<(u64, usize, usize)> {
        let img = self.decode(input)?;
        self.upload(mem, &img)
    }

    /// Walk the schedule: its groups run one after another, and a group's
    /// extractions are all submitted before any is waited on (Fig. 4b is
    /// one kernel per group, Fig. 4c groups the extractions).
    fn run_schedule(
        &mut self,
        mem: &MainMemory,
        image: (u64, usize, usize),
    ) -> CellResult<ImageAnalysis> {
        let mut features = Vec::new();
        let mut scores = Vec::new();
        // Snapshot: a mid-image re-plan changes assignments (the engine
        // re-routes per slot) but this image keeps the snapshot's group
        // shape.
        let groups = self.schedule().groups().to_vec();
        for group in groups {
            let extractions: Vec<KernelId> =
                group.iter().copied().filter(|&k| k != CD_KERNEL).collect();
            // The engine routes each slot to its assigned SPE and, in the
            // failover layout, retries lost replies in place and fails a
            // dead or hung lane over to a survivor (the wrapper is
            // untouched input, so a re-dispatch recomputes identical
            // bytes).
            let pending = self.submit_extractions(mem, &extractions, image)?;
            features.extend(self.collect_extractions(pending)?);
            if group.contains(&CD_KERNEL) {
                scores = self.detect_sequential(mem, &features)?;
            }
        }
        Ok(ImageAnalysis { features, scores })
    }

    /// Scenario 3: extractions in parallel; as each finishes, its own SPE
    /// runs the detection for that feature (detection code is replicated).
    fn run_replicated(
        &mut self,
        mem: &MainMemory,
        image: (u64, usize, usize),
    ) -> CellResult<ImageAnalysis> {
        let pending = self.submit_extractions(mem, &EXTRACTIONS, image)?;
        let mut features = Vec::new();
        let mut detections = Vec::new();
        for extraction in pending {
            let k = extraction.0;
            let (kind, feature) = self.collect_extraction(extraction)?;
            let (model_ea, model_bytes) = self.model_ea(kind);
            let (dw, dwire) = prepare_detect(mem, &feature, model_ea, model_bytes)?;
            let detect_op = self.ops[k].detect.ok_or_else(|| CellError::BadKernelSpec {
                message: "replicated scenario needs detect-capable dispatchers".to_string(),
            })?;
            let dt =
                self.engine
                    .submit(&mut self.ppe, k, kind.name(), detect_op, dw.addr_word()?)?;
            features.push((kind, feature));
            detections.push((kind, dt, dw, dwire));
        }
        let mut scores = Vec::new();
        for (kind, dt, dw, dwire) in detections {
            self.engine.complete(&mut self.ppe, dt)?;
            scores.push((kind, collect_detect(&dw, &dwire)?));
            dw.free()?;
        }
        Ok(ImageAnalysis { features, scores })
    }

    /// Fill a wrapper for each extraction slot in `slots` and submit them
    /// all before waiting on any; the engine routes each slot to its SPE.
    fn submit_extractions<'m>(
        &mut self,
        mem: &'m MainMemory,
        slots: &[KernelId],
        (image_ea, width, height): (u64, usize, usize),
    ) -> CellResult<Vec<PendingExtract<'m>>> {
        let mut pending = Vec::with_capacity(slots.len());
        for &k in slots {
            let kind = EXTRACT_KINDS[k];
            let (wrapper, wire) = prepare_extract(mem, kind, image_ea, width, height)?;
            let ticket = self.engine.submit(
                &mut self.ppe,
                k,
                kind.name(),
                self.ops[k].extract,
                wrapper.addr_word()?,
            )?;
            pending.push((k, ticket, wrapper, wire));
        }
        Ok(pending)
    }

    /// Redeem submitted extractions in submission order.
    fn collect_extractions(
        &mut self,
        pending: Vec<PendingExtract<'_>>,
    ) -> CellResult<Vec<(KernelKind, Feature)>> {
        pending
            .into_iter()
            .map(|extraction| self.collect_extraction(extraction))
            .collect()
    }

    /// Wait for one extraction's reply, read its feature out of the
    /// wrapper, and free the wrapper.
    fn collect_extraction(
        &mut self,
        (k, ticket, wrapper, wire): PendingExtract<'_>,
    ) -> CellResult<(KernelKind, Feature)> {
        self.engine.complete(&mut self.ppe, ticket)?;
        let feature = collect_extract(&wrapper, &wire)?;
        wrapper.free()?;
        Ok((EXTRACT_KINDS[k], feature))
    }

    /// Score each feature with one round trip on the CD slot's SPE.
    fn detect_sequential(
        &mut self,
        mem: &MainMemory,
        features: &[(KernelKind, Feature)],
    ) -> CellResult<Vec<(KernelKind, f32)>> {
        let mut scores = Vec::new();
        for (kind, feature) in features {
            let (model_ea, model_bytes) = self.model_ea(*kind);
            let (dw, dwire) = prepare_detect(mem, feature, model_ea, model_bytes)?;
            let t = self.engine.submit(
                &mut self.ppe,
                CD_KERNEL,
                "ConceptDet",
                self.cd_opcode,
                dw.addr_word()?,
            )?;
            self.engine.complete(&mut self.ppe, t)?;
            scores.push((*kind, collect_detect(&dw, &dwire)?));
            dw.free()?;
        }
        Ok(scores)
    }

    /// Score all four features in one `SPU_BATCH` round-trip on the CD
    /// SPE. The scores travel back by DMA into the wrappers as usual;
    /// the single reply word only acknowledges the batch.
    fn detect_batched(
        &mut self,
        mem: &MainMemory,
        features: &[(KernelKind, Feature)],
    ) -> CellResult<Vec<(KernelKind, f32)>> {
        let mut wrappers = Vec::new();
        let mut calls = Vec::new();
        for (kind, feature) in features {
            let (model_ea, model_bytes) = self.model_ea(*kind);
            let (dw, dwire) = prepare_detect(mem, feature, model_ea, model_bytes)?;
            calls.push((self.cd_opcode, dw.addr_word()?));
            wrappers.push((*kind, dw, dwire));
        }
        let t = self
            .engine
            .submit_batch(&mut self.ppe, CD_KERNEL, "ConceptDet", &calls)?;
        let status = self.engine.complete(&mut self.ppe, t)?;
        if status != SPU_OK {
            return Err(CellError::SpeFault {
                spe: self.schedule().spe_of(CD_KERNEL),
                message: format!("detect batch members failed (mask {status:#b})"),
            });
        }
        let mut scores = Vec::new();
        for (kind, dw, dwire) in wrappers {
            scores.push((kind, collect_detect(&dw, &dwire)?));
            dw.free()?;
        }
        Ok(scores)
    }

    /// Images analyzed so far.
    pub fn images(&self) -> usize {
        self.images
    }

    /// Virtual wall time on the Cell so far (PPE clock, which synchronizes
    /// with every kernel completion it waits on).
    pub fn elapsed(&self) -> VirtualDuration {
        self.ppe.elapsed()
    }

    /// Shut the kernels down and collect their reports.
    pub fn finish(self) -> CellResult<(VirtualDuration, Vec<SpeReport>)> {
        let (elapsed, reports, _) = self.finish_traced()?;
        Ok((elapsed, reports))
    }

    /// As [`CellMarvel::finish`], but also assemble the whole-machine
    /// [`TraceReport`]: the PPE track, one track per joined SPE (its
    /// mailbox/DMA/compute events merged by `into_report`), and the EIB
    /// track. Empty tracks result when tracing was off. Every SPE comes
    /// back as a report, a crashed or hung one with its fault set (and its
    /// injected-fault spans in its track).
    pub fn finish_traced(mut self) -> CellResult<(VirtualDuration, Vec<SpeReport>, TraceReport)> {
        // Politely close the survivors; dead SPEs refuse, which is fine.
        self.engine.close(&mut self.ppe)?;
        let elapsed = self.ppe.elapsed();
        let mut tracks = vec![self.ppe.take_trace()];
        // Shutdown *before* joining: a hung dispatcher discards SPU_EXIT,
        // so only closing its mailboxes can wake it; a healthy one still
        // reads its queued SPU_EXIT from the closed mailbox.
        self.machine.shutdown();
        let mut reports = Vec::new();
        for h in self.handles {
            reports.push(h.join_report()?);
        }
        tracks.extend(reports.iter().map(|r| r.trace.clone()));
        tracks.push(self.machine.take_eib_trace());
        Ok((elapsed, reports, TraceReport { tracks }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;

    fn tiny_input(seed: u64) -> Compressed {
        encode(&ColorImage::synthetic(48, 32, seed).unwrap(), 90)
    }

    #[test]
    fn reference_pipeline_produces_features_and_scores() {
        let mut app = ReferenceMarvel::new(1);
        let analysis = app.analyze(&tiny_input(1)).unwrap();
        assert_eq!(analysis.features.len(), 4);
        assert_eq!(analysis.scores.len(), 4);
        assert_eq!(analysis.feature(KernelKind::Ch).len(), 166);
        assert_eq!(analysis.feature(KernelKind::Eh).len(), 80);
        assert!(analysis.score(KernelKind::Ch).is_finite());
        assert_eq!(app.images(), 1);
    }

    #[test]
    fn reference_coverage_is_cc_dominated() {
        // Needs a realistically sized image: concept detection's cost is
        // per-model, not per-pixel, so on thumbnails it would dominate.
        let input = encode(&ColorImage::synthetic(176, 120, 2).unwrap(), 90);
        let mut app = ReferenceMarvel::new(2);
        app.analyze(&input).unwrap();
        let rows = app.coverage(&MachineProfile::ppe()).unwrap();
        assert_eq!(
            rows[0].name,
            KernelKind::Cc.name(),
            "CC must dominate: {rows:?}"
        );
        let combined = app.kernel_coverage(&MachineProfile::ppe()).unwrap();
        assert!(combined > 0.8, "kernels cover {combined:.2} of compute");
    }

    #[test]
    fn reference_times_order_like_the_paper() {
        let mut app = ReferenceMarvel::new(3);
        app.analyze(&tiny_input(3)).unwrap();
        let t_lap = app.compute_time(&MachineProfile::laptop()).unwrap();
        let t_desk = app.compute_time(&MachineProfile::desktop()).unwrap();
        let t_ppe = app.compute_time(&MachineProfile::ppe()).unwrap();
        assert!(t_ppe.seconds() > t_lap.seconds());
        assert!(t_lap.seconds() > t_desk.seconds());
        let slow = t_ppe.seconds() / t_lap.seconds();
        assert!(
            (1.8..3.5).contains(&slow),
            "PPE/Laptop kernel slowdown {slow:.2}"
        );
    }

    #[test]
    fn cell_matches_reference_functionally_all_scenarios() {
        let input = tiny_input(4);
        let mut reference = ReferenceMarvel::new(4);
        let want = reference.analyze(&input).unwrap();
        for scenario in [
            Scenario::Sequential,
            Scenario::ParallelExtract,
            Scenario::ParallelReplicated,
        ] {
            let mut cell = CellMarvel::new(scenario, true, 4).unwrap();
            let got = cell.analyze(&input).unwrap();
            for kind in EXTRACT_KINDS {
                assert_eq!(
                    got.feature(kind),
                    want.feature(kind),
                    "{scenario:?} {} feature diverged",
                    kind.name()
                );
                let (gs, ws) = (got.score(kind), want.score(kind));
                assert!(
                    (gs - ws).abs() < 1e-3 * ws.abs().max(1.0),
                    "{scenario:?} {} score {gs} vs {ws}",
                    kind.name()
                );
            }
            let (elapsed, reports) = cell.finish().unwrap();
            assert!(elapsed.seconds() > 0.0);
            assert_eq!(reports.len(), 5);
        }
    }

    #[test]
    fn parallel_beats_sequential_on_the_cell() {
        let input = tiny_input(5);
        let time = |scenario| {
            let mut cell = CellMarvel::new(scenario, true, 5).unwrap();
            let t0 = cell.elapsed();
            cell.analyze(&input).unwrap();
            let dt = cell.elapsed() - t0;
            cell.finish().unwrap();
            dt
        };
        let seq = time(Scenario::Sequential);
        let par = time(Scenario::ParallelExtract);
        assert!(
            par.seconds() < seq.seconds(),
            "parallel {par} should beat sequential {seq}"
        );
    }

    #[test]
    fn sequential_scenario_virtual_time_is_pinned() {
        // Scenario 1 runs one SPE at a time, so its PPE clock is a pure
        // function of the inputs: pin it to the cycle.
        let mut cell = CellMarvel::new(Scenario::Sequential, true, 5).unwrap();
        cell.analyze(&tiny_input(5)).unwrap();
        cell.analyze(&tiny_input(6)).unwrap();
        assert_eq!(cell.ppe.clock.now(), 4_570_488);
        cell.finish().unwrap();
    }

    #[test]
    fn unoptimized_cell_is_slower() {
        let input = tiny_input(6);
        let time = |optimized| {
            let mut cell = CellMarvel::new(Scenario::Sequential, optimized, 6).unwrap();
            let t0 = cell.elapsed();
            cell.analyze(&input).unwrap();
            let dt = cell.elapsed() - t0;
            cell.finish().unwrap();
            dt
        };
        let opt = time(true);
        let unopt = time(false);
        assert!(
            unopt.seconds() > 2.0 * opt.seconds(),
            "unopt {unopt} vs opt {opt}"
        );
    }

    #[test]
    fn knn_detection_alternative_works_and_is_costed() {
        use crate::classify::knn::KnnClassifier;
        // Exemplars: features of a few analyzed images, labelled by their
        // SVM decision — the kNN path should then broadly agree with the
        // SVM path on those same images.
        let mut app = ReferenceMarvel::new(9);
        let train: Vec<ImageAnalysis> = (0..6)
            .map(|i| app.analyze(&tiny_input(30 + i)).unwrap())
            .collect();
        let mut exemplars = Vec::new();
        for kind in EXTRACT_KINDS {
            let mut knn = KnnClassifier::new(crate::kernels::feature_dim(kind), 3).unwrap();
            for a in &train {
                let label = if a.score(kind) > 0.0 { 1 } else { -1 };
                knn.insert(a.feature(kind), label).unwrap();
            }
            exemplars.push((kind, knn));
        }
        let probe = app.analyze(&tiny_input(31)).unwrap(); // seen distribution
        let decisions = app.detect_with_knn(&probe, &exemplars).unwrap();
        assert_eq!(decisions.len(), 4);
        // The kNN phase is profiled under its own name.
        let rows = app.coverage(&MachineProfile::ppe()).unwrap();
        assert!(rows.iter().any(|r| r.name == "ConceptDetKnn"));
        // On a training member, kNN (k=3, exemplar included) must agree
        // with the SVM labels.
        let member = app.analyze(&tiny_input(32)).unwrap();
        let _ = member;
        let self_check = app.detect_with_knn(&train[0], &exemplars).unwrap();
        for (kind, decision) in self_check {
            assert_eq!(
                decision,
                train[0].score(kind) > 0.0,
                "{} disagreed",
                kind.name()
            );
        }
    }

    #[test]
    fn timeline_shows_the_fig4_shapes() {
        let input = tiny_input(8);
        let concurrency = |scenario| {
            let mut cell = CellMarvel::new(scenario, true, 8).unwrap();
            cell.enable_tracing();
            cell.analyze(&input).unwrap();
            let tl = cell.timeline().unwrap().clone();
            cell.finish().unwrap();
            (tl.peak_concurrency(), tl.len())
        };
        let (peak_seq, n_seq) = concurrency(Scenario::Sequential);
        let (peak_par, n_par) = concurrency(Scenario::ParallelExtract);
        assert_eq!(n_seq, 8, "four extraction + four detection spans recorded");
        assert_eq!(n_par, 8);
        assert_eq!(peak_seq, 1, "Fig. 4(b): staircase");
        assert!(
            peak_par >= 3,
            "Fig. 4(c): stacked bars, got peak {peak_par}"
        );
    }

    #[test]
    fn engine_pipelined_batch_matches_reference_and_beats_per_image() {
        let inputs: Vec<Compressed> = (0..3).map(|i| tiny_input(40 + i)).collect();
        let mut reference = ReferenceMarvel::new(40);
        let want: Vec<ImageAnalysis> = inputs
            .iter()
            .map(|c| reference.analyze(c).unwrap())
            .collect();

        let mut per_image = CellMarvel::new(Scenario::ParallelExtract, true, 40).unwrap();
        let t0 = per_image.elapsed();
        for c in &inputs {
            per_image.analyze(c).unwrap();
        }
        let serial = per_image.elapsed() - t0;
        per_image.finish().unwrap();

        let mut pipelined = CellMarvel::new(Scenario::ParallelExtract, true, 40).unwrap();
        assert!(pipelined.engine_window() >= 2);
        let t0 = pipelined.elapsed();
        let got = pipelined.analyze_batch_engine(&inputs).unwrap();
        let dt = pipelined.elapsed() - t0;
        pipelined.finish().unwrap();

        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            for kind in EXTRACT_KINDS {
                assert_eq!(g.feature(kind), w.feature(kind), "{} diverged", kind.name());
                let (gs, ws) = (g.score(kind), w.score(kind));
                assert!((gs - ws).abs() < 1e-3 * ws.abs().max(1.0), "{gs} vs {ws}");
            }
        }
        assert!(
            dt.seconds() < serial.seconds(),
            "pipelined {dt} should beat per-image {serial}"
        );
    }

    #[test]
    fn models_are_deterministic_and_sized() {
        let m = MarvelModels::synthetic(7);
        assert_eq!(m.get(KernelKind::Ch).num_vectors(), 186);
        assert_eq!(m.get(KernelKind::Cc).num_vectors(), 225);
        assert_eq!(m.get(KernelKind::Eh).num_vectors(), 210);
        assert_eq!(m.get(KernelKind::Tx).num_vectors(), 255);
        assert!(m.wire_bytes() > 100_000);
    }

    // ---- the failover layout ------------------------------------------

    #[test]
    fn fault_free_resilient_run_matches_reference() {
        let input = tiny_input(11);
        let mut reference = ReferenceMarvel::new(11);
        let want = reference.analyze(&input).unwrap();
        let mut cell = CellMarvel::resilient(true, 11, FaultPlan::new(), TraceConfig::Off).unwrap();
        let got = cell.analyze(&input).unwrap();
        for kind in EXTRACT_KINDS {
            assert_eq!(got.feature(kind), want.feature(kind), "{}", kind.name());
            let (gs, ws) = (got.score(kind), want.score(kind));
            assert!((gs - ws).abs() < 1e-3 * ws.abs().max(1.0), "{gs} vs {ws}");
        }
        assert_eq!(cell.failovers(), 0);
        assert_eq!(cell.survivors(), 8);
        let (elapsed, reports) = cell.finish().unwrap();
        assert!(elapsed.seconds() > 0.0);
        assert_eq!(reports.len(), 8);
        assert!(reports.iter().all(|r| r.fault.is_none()));
    }

    #[test]
    fn crashed_spe_fails_over_and_results_are_identical() {
        let input = tiny_input(12);
        let mut clean =
            CellMarvel::resilient(true, 12, FaultPlan::new(), TraceConfig::Off).unwrap();
        let want = clean.analyze(&input).unwrap();
        clean.finish().unwrap();

        // SPE 1 (CCExtract's home) dies on its very first dispatch.
        let plan = FaultPlan::new().crash_spe(1, 1);
        let mut cell = CellMarvel::resilient(true, 12, plan, TraceConfig::Full).unwrap();
        let got = cell.analyze(&input).unwrap();
        assert_eq!(cell.failovers(), 1);
        assert_eq!(cell.survivors(), 7);
        assert!(!cell.alive()[1]);
        assert_ne!(cell.schedule().spe_of(1), 1, "CC must have moved");
        for kind in EXTRACT_KINDS {
            assert_eq!(got.feature(kind), want.feature(kind), "{}", kind.name());
            assert_eq!(got.score(kind), want.score(kind), "{}", kind.name());
        }
        let (_, reports, trace) = cell.finish_traced().unwrap();
        assert!(reports[1]
            .fault
            .as_deref()
            .unwrap()
            .contains("injected fault"));
        let failovers: u64 = trace
            .tracks
            .iter()
            .map(|t| t.counters.get(cell_trace::Counter::Failovers))
            .sum();
        assert_eq!(failovers, 1);
    }

    #[test]
    fn hung_spe_times_out_and_fails_over() {
        let input = tiny_input(13);
        let mut clean =
            CellMarvel::resilient(true, 13, FaultPlan::new(), TraceConfig::Off).unwrap();
        let want = clean.analyze(&input).unwrap();
        clean.finish().unwrap();

        // SPE 3 (EHExtract's home) hangs on its first dispatch.
        let plan = FaultPlan::new().hang_spe(3, 1);
        let mut cell = CellMarvel::resilient(true, 13, plan, TraceConfig::Off).unwrap();
        cell.set_policy(RetryPolicy {
            max_attempts: 2,
            timeout_cycles: 300_000,
            ..RetryPolicy::default()
        });
        let got = cell.analyze(&input).unwrap();
        assert_eq!(cell.failovers(), 1);
        assert!(!cell.alive()[3]);
        for kind in EXTRACT_KINDS {
            assert_eq!(got.feature(kind), want.feature(kind), "{}", kind.name());
        }
        let (_, reports) = cell.finish().unwrap();
        // The hung SPE was woken by shutdown, not SPU_EXIT.
        assert!(reports[3].fault.is_some());
    }

    #[test]
    fn degraded_estimate_tracks_survivor_count() {
        let cell = CellMarvel::resilient(true, 14, FaultPlan::new(), TraceConfig::Off).unwrap();
        let full = cell.degraded_estimate().unwrap();
        assert!(
            (13.0..=18.0).contains(&full),
            "8-SPE estimate {full:.2} should sit in the paper's ~15.3 band"
        );
        // Squeeze to 2 survivors: the wide group serializes, Eq. 3 drops.
        let specs = paper_kernel_specs();
        let s2 = cell.schedule().estimate_degraded(&specs, 2).unwrap();
        assert!(s2 < full, "2 survivors {s2:.2} must be below {full:.2}");
    }

    #[test]
    fn universal_opcodes_are_spe_invariant() {
        // Two independently built universal dispatchers must agree on
        // every opcode — that is what makes failover re-dispatch legal.
        let (_d1, o1) = universal_dispatcher(true, ReplyMode::Polling);
        let (_d2, o2) = universal_dispatcher(false, ReplyMode::Polling);
        for kind in EXTRACT_KINDS {
            assert_eq!(o1.opcode(kind), o2.opcode(kind));
        }
        assert_eq!(o1.detect, o2.detect);
        assert_eq!(o1.opcode(KernelKind::Cd), o1.detect);
    }
}
