//! The supervised serving runtime.
//!
//! [`CellServer`] pushes MARVEL feature-extraction requests through the
//! simulated machine under sustained load and injected faults. It layers
//! four defenses on top of the failover layout of
//! [`marvel::app::CellMarvel::resilient`]:
//!
//! * **admission control** — a bounded [`AdmissionQueue`]; a full queue
//!   rejects with [`CellError::Overloaded`], and requests whose deadline
//!   passed while queued are shed instead of served late;
//! * **per-SPE supervision** — a virtual-time heartbeat watchdog probes
//!   idle SPEs end to end (mailbox → DMA → checksum → reply), and a
//!   consecutive-failure [`CircuitBreaker`] paces recovery attempts;
//! * **SPE respawn** — a failed SPE is retired, its context recreated
//!   and the dispatcher code re-uploaded ([`CellMachine::respawn`]
//!   charges the spawn cost), then probed before the schedule is
//!   re-expanded back to full width from the pristine original;
//! * **end-to-end integrity** — MFC checksum-verify-retransmit
//!   ([`cell_core::DmaConfig::integrity`]) plus wrapper-level request
//!   (`in_sum`) and response (`out_sum`) checksums; a kernel that sees a
//!   corrupt payload replies [`SPU_CORRUPT`] and the server retransmits
//!   the request under its retry policy.
//!
//! Under overload the server degrades gracefully: the cheapest kernels
//! are shed first (TX, then EH — CH/CC/CD always run) and every response
//! carries its degradation level. Everything runs in virtual time from
//! seeded inputs, so a chaos soak is exactly reproducible.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use cell_core::{CellError, CellResult, MachineConfig, VirtualDuration};
use cell_engine::{codec, Engine, EngineObserver, FailoverMode, RecoveryEvent};
use cell_fault::FaultPlan;
use cell_sys::machine::{CellMachine, SpeHandle, SpeReport};
use cell_sys::ppe::Ppe;
use cell_sys::spe::SpeEnv;
use cell_telemetry::{FlightDump, MetricsRegistry};
use cell_trace::json::JsonWriter;
use cell_trace::{Counter, EventKind, LogHistogram, TraceConfig, TraceReport};
use marvel::app::{MarvelModels, CD_KERNEL, EXTRACT_KINDS};
use marvel::features::{Feature, KernelKind};
use marvel::image::ColorImage;
use marvel::kernels::{
    collect_detect, collect_extract, prepare_detect, prepare_extract, universal_dispatcher,
    UniversalOpcodes,
};
use marvel::wire::{upload_image, upload_model};
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::ReplyMode;
use portkit::opcodes::{SPU_CORRUPT, SPU_OK};
use portkit::recovery::RetryPolicy;
use portkit::schedule::{KernelId, Schedule};
use portkit::supervise::Heartbeats;

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::queue::AdmissionQueue;

/// One feature-extraction request: an image with an arrival time and an
/// absolute deadline, both in PPE cycles.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub arrival: u64,
    pub deadline: u64,
    pub image: ColorImage,
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Rejected at admission: the queue was full.
    Overloaded,
    /// Expired in the queue: its deadline passed before an SPE was free.
    DeadlineExpired,
}

/// A served request: features, scores, and how degraded the service was.
#[derive(Debug, Clone)]
pub struct Response {
    pub id: u64,
    /// 0 = full service, 1 = TX shed, 2 = TX and EH shed.
    pub degradation: u8,
    pub features: Vec<(KernelKind, Feature)>,
    pub scores: Vec<(KernelKind, f32)>,
    pub arrival: u64,
    pub completed_at: u64,
}

impl Response {
    /// Arrival-to-completion latency in PPE cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at.saturating_sub(self.arrival)
    }

    /// Stable 32-bit digest of the served *content*: degradation level,
    /// then features and scores in kernel order, bit-exact over the f32
    /// payloads. Timing fields are excluded on purpose — a replayed
    /// request recomputed after recovery lands at different cycles but
    /// must produce the same digest, which is what the durable commit
    /// record stores and the exactly-once argument compares.
    pub fn digest(&self) -> u32 {
        let mut bytes = Vec::with_capacity(
            16 + self
                .features
                .iter()
                .map(|(_, f)| 8 + f.len() * 4)
                .sum::<usize>()
                + self.scores.len() * 8,
        );
        bytes.push(self.degradation);
        for (kind, feature) in &self.features {
            bytes.extend_from_slice(kind.name().as_bytes());
            bytes.extend_from_slice(&(feature.len() as u32).to_le_bytes());
            for v in feature {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for (kind, score) in &self.scores {
            bytes.extend_from_slice(kind.name().as_bytes());
            bytes.extend_from_slice(&score.to_bits().to_le_bytes());
        }
        cell_core::checksum32(&bytes)
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone)]
pub enum Outcome {
    Served(Box<Response>),
    Shed { id: u64, reason: ShedReason },
}

/// An alive SPE silent longer than this many PPE cycles gets a watchdog
/// probe.
const HEARTBEAT_TIMEOUT: u64 = 100_000_000;

/// Cap on automatic [`FlightDump`]s per run (breaker trips, respawns and
/// retransmits past the cap still count, but stop dumping). Each dump
/// holds the PPE tracer's last [`cell_trace::FLIGHT_CAPACITY`] events.
const MAX_FLIGHT_DUMPS: usize = 4;

/// Serving-runtime knobs. All times are PPE cycles (3.2 GHz virtual).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub optimized: bool,
    pub seed: u64,
    /// Admission queue capacity; a full queue rejects with `Overloaded`.
    pub queue_capacity: usize,
    /// Queue depth at which TX is shed (degradation level 1).
    pub degrade_high: usize,
    /// Queue depth at which EH is also shed (degradation level 2).
    pub degrade_critical: usize,
    /// Consecutive failures before an SPE's breaker trips open.
    pub breaker_threshold: u32,
    /// Cycles an open breaker waits before allowing a respawn probe.
    pub breaker_cooldown: u64,
    /// Reply deadline for one probe dispatch.
    pub probe_timeout: u64,
    /// Arm MFC checksum-verify-retransmit on every DMA transfer.
    pub mfc_integrity: bool,
    pub policy: RetryPolicy,
    pub trace: TraceConfig,
    /// Propagate a per-request trace id through the engine onto the
    /// mailbox wire (`SPU_SPAN`) and emit request/stage span events.
    /// Off by default: the prefix costs two mailbox words per dispatch,
    /// which shifts the virtual-time trajectory relative to an
    /// untelemetered run (results stay byte-identical; recovery timing
    /// may differ).
    pub request_spans: bool,
    /// Memory domain for trace-epoch stamping: 0 for a standalone server;
    /// a cluster assigns each blade incarnation a distinct domain so
    /// merged cross-blade traces keep their machines' events apart.
    pub epoch_domain: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            optimized: true,
            seed: 7,
            queue_capacity: 8,
            degrade_high: 3,
            degrade_critical: 6,
            breaker_threshold: 2,
            breaker_cooldown: 10_000_000,
            probe_timeout: 2_000_000,
            mfc_integrity: true,
            policy: RetryPolicy::default(),
            trace: TraceConfig::Off,
            request_spans: false,
            epoch_domain: 0,
        }
    }
}

/// Aggregate result of a serve run.
#[derive(Debug)]
pub struct ServeReport {
    pub outcomes: Vec<Outcome>,
    pub served: u64,
    pub degraded_served: u64,
    pub shed_overload: u64,
    pub shed_deadline: u64,
    pub respawns: u64,
    pub breaker_trips: u64,
    /// PPE-side request retransmits after a corrupt payload was detected
    /// (the MFC's silent in-flight retransmits are counted in the trace).
    pub retransmits: u64,
    pub survivors: usize,
    pub max_queue_depth: usize,
    pub elapsed: VirtualDuration,
    /// Arrival-to-completion latency of served requests.
    pub latency: LogHistogram,
}

impl ServeReport {
    /// Machine-readable one-line summary for CI artifacts.
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("served").u64(self.served);
        w.key("degraded").u64(self.degraded_served);
        w.key("shed_overload").u64(self.shed_overload);
        w.key("shed_deadline").u64(self.shed_deadline);
        w.key("respawns").u64(self.respawns);
        w.key("breaker_trips").u64(self.breaker_trips);
        w.key("retransmits").u64(self.retransmits);
        w.key("survivors").u64(self.survivors as u64);
        w.key("max_queue_depth").u64(self.max_queue_depth as u64);
        w.key("elapsed_ms").fixed(self.elapsed.seconds() * 1e3, 3);
        let latency = &self.latency;
        w.key("latency_p50_cycles").u64(latency.percentile(0.50));
        w.key("latency_p95_cycles").u64(latency.percentile(0.95));
        w.key("latency_p99_cycles").u64(latency.percentile(0.99));
        w.end_object();
        w.finish()
    }
}

/// Everything a finished server hands back: the serving report, every
/// SPE's report (including retired occupants), and the machine trace.
#[derive(Debug)]
pub struct ServeOutput {
    pub report: ServeReport,
    pub spe_reports: Vec<SpeReport>,
    pub trace: TraceReport,
    /// SLO metrics accumulated over the run (latency quantiles, shed and
    /// recovery rates, per-SPE utilization).
    pub metrics: MetricsRegistry,
    /// Automatic flight-recorder dumps, in trigger order.
    pub flight_dumps: Vec<FlightDump>,
}

const PROBE_PAYLOAD: usize = 12;
const PROBE_BYTES: usize = 16;

/// SPE-side integrity probe: DMA a 16-byte sealed block, verify its
/// stamped checksum, reply `SPU_OK`. A corrupt transfer surfaces as
/// `ChecksumMismatch`, which the dispatcher converts to [`SPU_CORRUPT`].
fn probe_body(env: &mut SpeEnv, addr: u32) -> CellResult<u32> {
    let la = env.ls.alloc(PROBE_BYTES, 16)?;
    env.dma_get_sync(la, addr as u64, PROBE_BYTES, 0)?;
    codec::open_block(env.ls.slice(la, PROBE_BYTES)?, PROBE_PAYLOAD, "probe block")?;
    env.ls.reset();
    Ok(SPU_OK)
}

/// Canonical dispatcher function name of the integrity probe — the one
/// spelling shared by registration, the supervisor's probe script, and
/// the lint models.
pub const PROBE_FN: &str = "integrity_probe";

/// The serving dispatcher: every MARVEL kernel plus the integrity probe,
/// in a fixed registration order on every SPE (the respawn/failover
/// precondition).
pub fn serve_dispatcher(optimized: bool) -> (KernelDispatcher, UniversalOpcodes, u32) {
    let (mut d, ops) = universal_dispatcher(optimized, ReplyMode::Polling);
    d.register(PROBE_FN, probe_body);
    let probe_op = d.opcode_table().require(PROBE_FN);
    (d, ops, probe_op)
}

/// Bridges engine lane outcomes into the server's supervision state:
/// a completed dispatch feeds the SPE's heartbeat and closes its
/// breaker, a lane failover feeds the breaker. Breaker trips are
/// buffered (the tracer is busy inside the engine call) and flushed to
/// `breaker_open` spans by [`CellServer::supervised`].
struct Supervision<'a> {
    heartbeats: &'a mut Heartbeats,
    breakers: &'a mut [CircuitBreaker],
    /// Per-SPE completed-dispatch tally (feeds utilization gauges).
    completions: &'a mut [u64],
    /// `(at, spe, consecutive_failures)` per breaker trip.
    trips: Vec<(u64, usize, u32)>,
}

impl EngineObserver for Supervision<'_> {
    fn on_success(&mut self, spe: usize, _kernel: &'static str, at: u64) {
        self.heartbeats.beat(spe, at);
        self.breakers[spe].record_success();
        self.completions[spe] += 1;
    }

    fn on_failure(&mut self, spe: usize, _kernel: &'static str, at: u64) {
        if self.breakers[spe].record_failure(at) {
            self.trips
                .push((at, spe, self.breakers[spe].consecutive_failures()));
        }
    }
}

/// The supervised serving runtime over one simulated Cell machine.
pub struct CellServer {
    ppe: Ppe,
    machine: CellMachine,
    handles: Vec<Option<SpeHandle>>,
    retired_reports: Vec<SpeReport>,
    /// The shared offload executor: lanes, windows, retry/failover and
    /// schedule replanning all live here; the server keeps only the
    /// supervision state the engine observes into (breakers, heartbeats).
    engine: Engine,
    opcodes: UniversalOpcodes,
    probe_op: u32,
    probe_word: u32,
    breakers: Vec<CircuitBreaker>,
    heartbeats: Heartbeats,
    queue: AdmissionQueue,
    cfg: ServeConfig,
    models: MarvelModels,
    model_eas: Vec<(KernelKind, u64, usize)>,
    outcomes: Vec<Outcome>,
    latency: LogHistogram,
    served: u64,
    degraded_served: u64,
    shed_overload: u64,
    shed_deadline: u64,
    respawns: u64,
    retransmits: u64,
    metrics: MetricsRegistry,
    flight_dumps: Vec<FlightDump>,
    spe_completions: Vec<u64>,
    /// Host wall clock at construction: the second clock of the
    /// telemetry plane's dual-clock reporting (virtual cycles + wall µs).
    wall_start: Instant,
}

impl CellServer {
    /// Build the machine (integrity mode per the config), arm `plan`,
    /// spawn a serve dispatcher on every SPE and upload the models.
    pub fn new(cfg: ServeConfig, plan: FaultPlan) -> CellResult<Self> {
        let mut machine_cfg = MachineConfig::default();
        machine_cfg.dma.integrity = cfg.mfc_integrity;
        let mut machine = CellMachine::new(machine_cfg)?;
        machine.set_trace_config(cfg.trace);
        machine.set_epoch_domain(cfg.epoch_domain);
        machine.set_fault_plan(plan);
        let ppe = machine.ppe();
        let models = MarvelModels::synthetic(cfg.seed);

        let mem = Arc::clone(ppe.mem());
        let mut model_eas = Vec::new();
        for kind in EXTRACT_KINDS {
            let (ea, bytes) = upload_model(&mem, models.get(kind))?;
            model_eas.push((kind, ea, bytes));
        }

        // The probe block: a seeded 12-byte payload sealed with its
        // checksum. Every watchdog/respawn probe DMAs this.
        let probe_ea = mem.alloc(PROBE_BYTES, 128)?;
        let payload: Vec<u8> = (0..PROBE_PAYLOAD)
            .map(|i| (cfg.seed >> ((i % 8) * 8)) as u8 ^ i as u8)
            .collect();
        mem.write(probe_ea, &codec::seal_block(&payload))?;
        let probe_word = u32::try_from(probe_ea).map_err(|_| CellError::BadData {
            message: "probe block above the mailbox address space".to_string(),
        })?;

        let num_spes = machine.config().num_spes;
        let mut handles = Vec::new();
        let mut opcodes = None;
        let mut probe_op = 0;
        for spe in 0..num_spes {
            let (d, ops, probe) = serve_dispatcher(cfg.optimized);
            handles.push(Some(machine.spawn(spe, Box::new(d))?));
            opcodes = Some(ops);
            probe_op = probe;
        }
        let opcodes = opcodes.ok_or(CellError::NoSpeAvailable {
            requested: 1,
            available: 0,
        })?;
        let full_schedule = Schedule::grouped(vec![vec![0, 1, 2, 3], vec![CD_KERNEL]], num_spes)?;
        let engine = Engine::new(num_spes)
            .with_schedule(full_schedule)
            .with_mode(FailoverMode::Replan)
            .with_policy(cfg.policy);

        Ok(CellServer {
            ppe,
            machine,
            handles,
            retired_reports: Vec::new(),
            engine,
            opcodes,
            probe_op,
            probe_word,
            breakers: vec![
                CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown);
                num_spes
            ],
            heartbeats: Heartbeats::new(num_spes),
            queue: AdmissionQueue::new(cfg.queue_capacity),
            models,
            model_eas,
            cfg,
            outcomes: Vec::new(),
            latency: LogHistogram::new(),
            served: 0,
            degraded_served: 0,
            shed_overload: 0,
            shed_deadline: 0,
            respawns: 0,
            retransmits: 0,
            metrics: MetricsRegistry::new(),
            flight_dumps: Vec::new(),
            spe_completions: vec![0; num_spes],
            wall_start: Instant::now(),
        })
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    pub fn alive(&self) -> &[bool] {
        self.engine.alive()
    }

    pub fn survivors(&self) -> usize {
        self.engine.alive().iter().filter(|&&a| a).count()
    }

    pub fn schedule(&self) -> &Schedule {
        self.engine
            .schedule()
            .expect("engine built with a schedule")
    }

    pub fn full_schedule(&self) -> &Schedule {
        self.engine
            .full_schedule()
            .expect("engine built with a schedule")
    }

    /// The engine's recovery decision stream (retries and failovers, in
    /// order). The divergence regression tests compare this against the
    /// resilient driver's stream for the same seed and fault plan.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        self.engine.recovery_log()
    }

    pub fn breaker(&self, spe: usize) -> &CircuitBreaker {
        &self.breakers[spe]
    }

    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// The live SLO metrics registry (finalized copies ship in
    /// [`ServeOutput::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Flight-recorder dumps captured so far, in trigger order.
    pub fn flight_dumps(&self) -> &[FlightDump] {
        &self.flight_dumps
    }

    /// Host wall-clock µs since the server was built (the second clock
    /// of dual-clock telemetry; the first is the PPE virtual clock).
    pub fn wall_elapsed_us(&self) -> u64 {
        u64::try_from(self.wall_start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    pub fn models(&self) -> &MarvelModels {
        &self.models
    }

    pub fn opcodes(&self) -> UniversalOpcodes {
        self.opcodes
    }

    /// The serving configuration this server was built with (lint model
    /// builders read the supervision knobs from here).
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Opcode of the `integrity_probe` kernel on every serve dispatcher.
    pub fn probe_opcode(&self) -> u32 {
        self.probe_op
    }

    /// The engine's in-flight window per lane (1: supervised dispatch
    /// keeps lanes serial so breaker decisions stay attributable).
    pub fn engine_window(&self) -> usize {
        self.engine.window()
    }

    pub fn elapsed(&self) -> VirtualDuration {
        self.ppe.elapsed()
    }

    /// Degradation level the next dispatch would run at.
    pub fn degradation_level(&self) -> u8 {
        let depth = self.queue.depth();
        if depth >= self.cfg.degrade_critical {
            2
        } else if depth >= self.cfg.degrade_high {
            1
        } else {
            0
        }
    }

    /// Kernel ids shed at `level` (cheapest first: TX, then EH).
    pub fn dropped_kernels(level: u8) -> &'static [KernelId] {
        match level {
            0 => &[],
            1 => &[2],
            _ => &[2, 3],
        }
    }

    // ---------------------------------------------------------------
    // Admission
    // ---------------------------------------------------------------

    /// Offer one request for admission; a full queue rejects with
    /// [`CellError::Overloaded`] (the backpressure signal a caller feeds
    /// back to its client).
    pub fn try_submit(&mut self, request: Request) -> CellResult<()> {
        self.metrics.inc("requests_total", 1);
        match self.queue.admit(request) {
            Ok(depth) => {
                self.ppe
                    .tracer_mut()
                    .count_max(Counter::QueueDepth, depth as u64);
                self.metrics.set_gauge("queue_depth", depth as f64);
                Ok(())
            }
            Err((_, err)) => Err(err),
        }
    }

    fn admit_or_shed(&mut self, request: Request) {
        let id = request.id;
        self.metrics.inc("requests_total", 1);
        match self.queue.admit(request) {
            Ok(depth) => {
                self.ppe
                    .tracer_mut()
                    .count_max(Counter::QueueDepth, depth as u64);
                self.metrics.set_gauge("queue_depth", depth as f64);
            }
            Err((_, _)) => self.record_shed(id, ShedReason::Overloaded),
        }
    }

    fn record_shed(&mut self, id: u64, reason: ShedReason) {
        let now = self.ppe.clock.now();
        let (label, arg1) = match reason {
            ShedReason::Overloaded => {
                self.shed_overload += 1;
                ("shed_overload", 0)
            }
            ShedReason::DeadlineExpired => {
                self.shed_deadline += 1;
                ("shed_deadline", 1)
            }
        };
        self.ppe
            .tracer_mut()
            .span(EventKind::Recovery, label, now, 0, id, arg1);
        self.ppe.tracer_mut().count(Counter::Shed, 1);
        self.metrics.inc("shed_total", 1);
        self.metrics.inc(
            match reason {
                ShedReason::Overloaded => "shed_overload_total",
                ShedReason::DeadlineExpired => "shed_deadline_total",
            },
            1,
        );
        self.outcomes.push(Outcome::Shed { id, reason });
    }

    /// Snapshot the PPE flight recorder plus the metrics registry into a
    /// [`FlightDump`], up to the configured cap.
    fn maybe_dump(&mut self, reason: &str) {
        if self.flight_dumps.len() >= MAX_FLIGHT_DUMPS {
            return;
        }
        let at_cycles = self.ppe.clock.now();
        let at_wall_us = self.wall_elapsed_us();
        self.flight_dumps.push(FlightDump::capture(
            reason,
            at_cycles,
            at_wall_us,
            self.ppe.tracer().flight_events(),
            &self.metrics,
        ));
    }

    /// Emit a recovery span on the PPE track. The durable runtime stamps
    /// every journal replay through this, so a recovered run's trace
    /// carries its provenance (`arg0` = request id, `arg1` = epoch).
    pub fn record_recovery(&mut self, label: &'static str, arg0: u64, arg1: u64) {
        let now = self.ppe.clock.now();
        self.ppe
            .tracer_mut()
            .span(EventKind::Recovery, label, now, 0, arg0, arg1);
    }

    /// Snapshot the flight recorder under an external trigger. The
    /// durable runtime arms a dump on every recovery replay; the same
    /// `MAX_FLIGHT_DUMPS` cap as the internal triggers applies.
    pub fn capture_flight_dump(&mut self, reason: &str) {
        self.maybe_dump(reason);
    }

    // ---------------------------------------------------------------
    // Supervision: watchdog, breaker, respawn
    // ---------------------------------------------------------------

    /// One supervision tick: watchdog-probe silent SPEs, then try to
    /// respawn dead ones whose breaker cooled down.
    pub fn supervise(&mut self) -> CellResult<()> {
        let now = self.ppe.clock.now();
        for spe in 0..self.engine.num_spes() {
            if self.engine.alive()[spe] && self.heartbeats.silent(spe, now, HEARTBEAT_TIMEOUT) {
                if self.probe_spe(spe)? {
                    continue;
                }
                let t = self.ppe.clock.now();
                self.ppe.tracer_mut().span(
                    EventKind::Fault,
                    "watchdog_expired",
                    t,
                    0,
                    spe as u64,
                    0,
                );
                self.mark_failed(spe)?;
            }
        }
        for spe in 0..self.engine.num_spes() {
            if !self.engine.alive()[spe] && self.breakers[spe].ready(self.ppe.clock.now()) {
                self.try_respawn(spe)?;
            }
        }
        Ok(())
    }

    /// One end-to-end probe round trip: mailbox dispatch, 16-byte DMA,
    /// checksum verification, mailbox reply. `Ok(false)` on any failure
    /// that indicts the SPE (closed mailbox, fault, timeout, corruption).
    fn probe_spe(&mut self, spe: usize) -> CellResult<bool> {
        let policy = RetryPolicy::no_retry(self.cfg.probe_timeout);
        match self.engine.probe(
            &mut self.ppe,
            spe,
            PROBE_FN,
            self.probe_op,
            self.probe_word,
            &policy,
        ) {
            Ok(status) if status == SPU_OK => {
                let now = self.ppe.clock.now();
                self.heartbeats.beat(spe, now);
                self.breakers[spe].record_success();
                Ok(true)
            }
            Ok(_) => Ok(false),
            Err(
                CellError::SpeFault { .. } | CellError::Timeout { .. } | CellError::MailboxClosed,
            ) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Record an SPE failure detected outside the dispatch path (the
    /// watchdog): breaker bookkeeping, then hand the engine the failover
    /// (mark dead, re-plan over the survivors).
    fn mark_failed(&mut self, spe: usize) -> CellResult<()> {
        let now = self.ppe.clock.now();
        if self.breakers[spe].record_failure(now) {
            self.ppe.tracer_mut().span(
                EventKind::Recovery,
                "breaker_open",
                now,
                0,
                spe as u64,
                u64::from(self.breakers[spe].consecutive_failures()),
            );
            self.ppe.tracer_mut().count(Counter::BreakerTrips, 1);
            self.metrics.inc("breaker_trips_total", 1);
            self.maybe_dump("breaker_open");
        }
        if self.engine.alive()[spe] {
            self.engine.fail_over(&mut self.ppe, spe)?;
        }
        Ok(())
    }

    /// Attempt to bring a dead SPE back: retire what's left of the old
    /// occupant, respawn a fresh dispatcher (context recreation + code
    /// re-upload), probe it end to end, and only then re-expand the
    /// schedule from the pristine full-width original.
    fn try_respawn(&mut self, spe: usize) -> CellResult<()> {
        if self.breakers[spe].state() == BreakerState::Open {
            self.breakers[spe].begin_probe();
        }
        // Tear down: close the slot's fabric (wakes a wedged thread) and
        // collect the old occupant's report for the final trace.
        self.machine.retire(spe)?;
        if let Some(handle) = self.handles[spe].take() {
            self.retired_reports.push(handle.join_report()?);
        }
        let (d, _ops, _probe) = serve_dispatcher(self.cfg.optimized);
        self.handles[spe] = Some(self.machine.respawn(spe, Box::new(d))?);
        if self.probe_spe(spe)? {
            let now = self.ppe.clock.now();
            self.heartbeats.beat(spe, now);
            // Restore from the original, not the degraded schedule:
            // replan over all-alive is idempotent, so a full recovery is
            // byte-identical to the schedule the server started with.
            self.engine.revive(spe)?;
            self.respawns += 1;
            self.ppe
                .tracer_mut()
                .span(EventKind::Recovery, "respawn", now, 0, spe as u64, 0);
            self.ppe.tracer_mut().count(Counter::Respawns, 1);
            self.metrics.inc("respawns_total", 1);
            self.maybe_dump("respawn");
        } else {
            let now = self.ppe.clock.now();
            if self.breakers[spe].record_failure(now) {
                self.ppe.tracer_mut().span(
                    EventKind::Recovery,
                    "breaker_open",
                    now,
                    0,
                    spe as u64,
                    u64::from(self.breakers[spe].consecutive_failures()),
                );
                self.ppe.tracer_mut().count(Counter::BreakerTrips, 1);
                self.metrics.inc("breaker_trips_total", 1);
                self.maybe_dump("breaker_open");
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Kernel round trips through the shared engine (with breaker
    // accounting and corrupt-reply retransmission layered on top)
    // ---------------------------------------------------------------

    fn model_ea(&self, kind: KernelKind) -> (u64, usize) {
        let (_, ea, bytes) = self
            .model_eas
            .iter()
            .find(|(k, _, _)| *k == kind)
            .expect("model uploaded in new()");
        (*ea, *bytes)
    }

    /// Run one engine operation under the supervision observer, then
    /// flush any breaker trips it buffered into `breaker_open` spans.
    fn supervised<T>(
        &mut self,
        f: impl FnOnce(&mut Engine, &mut Ppe, &mut dyn EngineObserver) -> CellResult<T>,
    ) -> CellResult<T> {
        let mut obs = Supervision {
            heartbeats: &mut self.heartbeats,
            breakers: &mut self.breakers,
            completions: &mut self.spe_completions,
            trips: Vec::new(),
        };
        let result = f(&mut self.engine, &mut self.ppe, &mut obs);
        let trips = obs.trips;
        for (at, spe, consecutive) in trips {
            self.ppe.tracer_mut().span(
                EventKind::Recovery,
                "breaker_open",
                at,
                0,
                spe as u64,
                u64::from(consecutive),
            );
            self.ppe.tracer_mut().count(Counter::BreakerTrips, 1);
            self.metrics.inc("breaker_trips_total", 1);
            self.maybe_dump("breaker_open");
        }
        result
    }

    fn submit_kernel(
        &mut self,
        k: KernelId,
        label: &'static str,
        op: u32,
        arg: u32,
    ) -> CellResult<cell_engine::Ticket> {
        self.supervised(|eng, ppe, obs| eng.submit_with(ppe, k, label, op, arg, obs))
    }

    fn complete_kernel(&mut self, ticket: cell_engine::Ticket) -> CellResult<u32> {
        self.supervised(|eng, ppe, obs| eng.complete_with(ppe, ticket, obs))
    }

    fn call_kernel(
        &mut self,
        k: KernelId,
        label: &'static str,
        op: u32,
        arg: u32,
    ) -> CellResult<u32> {
        let ticket = self.submit_kernel(k, label, op, arg)?;
        self.complete_kernel(ticket)
    }

    fn note_retransmit(&mut self, k: KernelId, attempt: u32) {
        let now = self.ppe.clock.now();
        let backoff = self.engine.policy().backoff(attempt);
        self.ppe.tracer_mut().span(
            EventKind::Recovery,
            "request_retransmit",
            now,
            backoff,
            k as u64,
            u64::from(attempt),
        );
        self.ppe.tracer_mut().count(Counter::ChecksumRetransmits, 1);
        self.ppe.charge_cycles(backoff);
        self.retransmits += 1;
        self.metrics.inc("request_retransmits_total", 1);
        self.maybe_dump("checksum_retransmit");
    }

    /// Drive `collect` after a kernel round trip, retransmitting the
    /// request while the kernel reports [`SPU_CORRUPT`] or the collected
    /// payload fails its response checksum.
    #[allow(clippy::too_many_arguments)]
    fn verified<T>(
        &mut self,
        k: KernelId,
        label: &'static str,
        op: u32,
        arg: u32,
        mut status: u32,
        collect: impl Fn() -> CellResult<T>,
    ) -> CellResult<T> {
        let budget = self.engine.policy().max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            if status == SPU_CORRUPT {
                attempts += 1;
                if attempts >= budget {
                    return Err(CellError::ChecksumMismatch {
                        what: "kernel payload after retransmit budget",
                        expected: SPU_OK,
                        got: SPU_CORRUPT,
                    });
                }
                self.note_retransmit(k, attempts);
                status = self.call_kernel(k, label, op, arg)?;
                continue;
            }
            match collect() {
                Ok(v) => {
                    if self.cfg.request_spans {
                        // Integrity-verify stage marker: instantaneous
                        // in virtual time (checksum opening is PPE-side
                        // work), stamped with the current request span.
                        let now = self.ppe.clock.now();
                        self.ppe
                            .tracer_mut()
                            .span(EventKind::Stage, "verify", now, 0, k as u64, 0);
                    }
                    return Ok(v);
                }
                Err(CellError::ChecksumMismatch { .. }) => {
                    attempts += 1;
                    if attempts >= budget {
                        return Err(CellError::ChecksumMismatch {
                            what: "collected payload after retransmit budget",
                            expected: SPU_OK,
                            got: SPU_CORRUPT,
                        });
                    }
                    self.note_retransmit(k, attempts);
                    status = self.call_kernel(k, label, op, arg)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ---------------------------------------------------------------
    // Request processing
    // ---------------------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn process(
        &mut self,
        request: &Request,
        level: u8,
    ) -> CellResult<(Vec<(KernelKind, Feature)>, Vec<(KernelKind, f32)>)> {
        let mem = Arc::clone(self.ppe.mem());
        let image_ea = upload_image(&mem, &request.image)?;
        self.ppe.charge_cycles(2_000);
        let result = self.run_kernels(&mem, image_ea, &request.image, level);
        mem.free(image_ea)?;
        result
    }

    #[allow(clippy::type_complexity)]
    fn run_kernels(
        &mut self,
        mem: &cell_mem::MainMemory,
        image_ea: u64,
        img: &ColorImage,
        level: u8,
    ) -> CellResult<(Vec<(KernelKind, Feature)>, Vec<(KernelKind, f32)>)> {
        let mut features: Vec<(KernelKind, Feature)> = Vec::new();
        let mut scores: Vec<(KernelKind, f32)> = Vec::new();
        let dropped = Self::dropped_kernels(level);
        let groups = self.schedule().groups().to_vec();
        for group in groups {
            let extract_ids: Vec<KernelId> = group
                .iter()
                .copied()
                .filter(|&k| k != CD_KERNEL && !dropped.contains(&k))
                .collect();
            if !extract_ids.is_empty() {
                let mut pending = Vec::new();
                for &k in &extract_ids {
                    let kind = EXTRACT_KINDS[k];
                    let (wrapper, wire) =
                        prepare_extract(mem, kind, image_ea, img.width(), img.height())?;
                    let arg = wrapper.addr_word()?;
                    let ticket =
                        self.submit_kernel(k, kind.name(), self.opcodes.opcode(kind), arg)?;
                    pending.push((k, ticket, wrapper, wire));
                }
                for (k, ticket, wrapper, wire) in pending {
                    let kind = EXTRACT_KINDS[k];
                    let op = self.opcodes.opcode(kind);
                    let arg = wrapper.addr_word()?;
                    let status = self.complete_kernel(ticket)?;
                    let feature = self.verified(k, kind.name(), op, arg, status, || {
                        collect_extract(&wrapper, &wire)
                    })?;
                    features.push((kind, feature));
                    wrapper.free()?;
                }
            }
            if group.contains(&CD_KERNEL) {
                for (kind, feature) in &features.clone() {
                    let (model_ea, model_bytes) = self.model_ea(*kind);
                    let (dw, dwire) = prepare_detect(mem, feature, model_ea, model_bytes)?;
                    let arg = dw.addr_word()?;
                    let status =
                        self.call_kernel(CD_KERNEL, "ConceptDet", self.opcodes.detect, arg)?;
                    let score = self.verified(
                        CD_KERNEL,
                        "ConceptDet",
                        self.opcodes.detect,
                        arg,
                        status,
                        || collect_detect(&dw, &dwire),
                    )?;
                    scores.push((*kind, score));
                    dw.free()?;
                }
            }
        }
        Ok((features, scores))
    }

    // ---------------------------------------------------------------
    // The serving loop
    // ---------------------------------------------------------------

    /// Serve a request stream to completion: admit arrivals, shed under
    /// overload and past deadlines, supervise/heal between dispatches.
    pub fn run(&mut self, mut requests: Vec<Request>) -> CellResult<()> {
        requests.sort_by_key(|r| (r.arrival, r.id));
        let mut pending: VecDeque<Request> = requests.into();
        loop {
            let now = self.ppe.clock.now();
            while pending.front().is_some_and(|r| r.arrival <= now) {
                let request = pending.pop_front().expect("front checked");
                self.admit_or_shed(request);
            }
            if self.queue.is_empty() {
                let Some(next_arrival) = pending.front().map(|r| r.arrival) else {
                    break;
                };
                // Idle until the next arrival — supervision gets the gap.
                self.supervise()?;
                self.ppe.clock.advance_to(next_arrival);
                continue;
            }
            self.step()?;
        }
        Ok(())
    }

    /// One blade-embeddable serving step: supervise, shed expired
    /// deadlines, serve the first still-serviceable queued request.
    /// Returns `false` when the queue was empty (nothing to do). A
    /// cluster router drives this directly instead of [`run`](Self::run):
    /// arrivals come from the router via [`try_submit`](Self::try_submit),
    /// not from an arrival-sorted stream.
    pub fn step(&mut self) -> CellResult<bool> {
        if self.queue.is_empty() {
            return Ok(false);
        }
        self.supervise()?;
        let now = self.ppe.clock.now();
        let (expired, next) = self.queue.pop_ready(now);
        for request in expired {
            self.record_shed(request.id, ShedReason::DeadlineExpired);
        }
        let Some(request) = next else {
            return Ok(true);
        };
        self.serve_request(request)?;
        Ok(true)
    }

    /// Serve everything currently queued — the blade *drain* hook: the
    /// caller stops admitting (e.g. removes the blade from the cluster
    /// ring), then this lets the backlog finish or shed on its deadlines.
    /// Returns the number of steps taken.
    pub fn drain(&mut self) -> CellResult<usize> {
        let mut steps = 0;
        while self.step()? {
            steps += 1;
        }
        Ok(steps)
    }

    fn serve_request(&mut self, request: Request) -> CellResult<()> {
        let level = self.degradation_level();
        let started_at = self.ppe.clock.now();
        let wall_t0 = self.wall_start.elapsed();
        // Request-scoped span context: trace id = request id + 1
        // (0 means "unattributed"). The engine resends the id over
        // the wire (`SPU_SPAN`) on every dispatch — retries and
        // failovers included — so one trace id survives retransmits.
        let span = request.id + 1;
        let queue_wait = started_at.saturating_sub(request.arrival);
        if self.cfg.request_spans {
            self.engine.set_span_context(span)?;
            self.ppe.tracer_mut().set_span_context(span);
            self.ppe.tracer_mut().span(
                EventKind::Stage,
                "queue_wait",
                request.arrival,
                queue_wait,
                request.id,
                0,
            );
        }
        let result = self.process(&request, level);
        if self.cfg.request_spans {
            self.engine.clear_span_context();
            self.ppe.tracer_mut().clear_span_context();
        }
        let (features, scores) = result?;
        let completed_at = self.ppe.clock.now();
        let e2e = completed_at.saturating_sub(request.arrival);
        if self.cfg.request_spans {
            // The request root spans arrival→completion, so
            // queue-wait, dispatch, SPE execution and verify all
            // nest inside it.
            self.ppe.tracer_mut().span_tagged(
                EventKind::Request,
                "request",
                request.arrival,
                e2e,
                request.id,
                u64::from(level),
                span,
            );
        }
        self.latency.record(e2e);
        self.metrics.observe("e2e_latency_cycles", e2e);
        self.metrics.observe("queue_wait_cycles", queue_wait);
        let wall_us = self
            .wall_start
            .elapsed()
            .saturating_sub(wall_t0)
            .as_micros();
        self.metrics.observe(
            "request_wall_us",
            u64::try_from(wall_us).unwrap_or(u64::MAX),
        );
        self.metrics.inc("served_total", 1);
        self.served += 1;
        if level > 0 {
            self.degraded_served += 1;
            self.metrics.inc("degraded_served_total", 1);
            self.ppe.tracer_mut().span(
                EventKind::Recovery,
                "degraded_service",
                completed_at,
                0,
                request.id,
                u64::from(level),
            );
        }
        self.outcomes.push(Outcome::Served(Box::new(Response {
            id: request.id,
            degradation: level,
            features,
            scores,
            arrival: request.arrival,
            completed_at,
        })));
        Ok(())
    }

    /// Take every queued-but-unserved request, leaving the queue empty.
    /// The cluster failover path extracts a dead blade's backlog this
    /// way to replay it on survivors.
    pub fn take_queued(&mut self) -> Vec<Request> {
        let taken = self.queue.drain_all();
        self.metrics.set_gauge("queue_depth", 0.0);
        taken
    }

    /// Take the terminal outcomes recorded since the last call (served
    /// responses and sheds, in completion order). A cluster router
    /// collects outcomes per step; outcomes taken here no longer appear
    /// in the final [`ServeReport::outcomes`] (the counters still do).
    pub fn take_outcomes(&mut self) -> Vec<Outcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Advance this machine's PPE clock to at least `at` (monotonic; a
    /// stale `at` is a no-op). The cluster router aligns a blade's
    /// virtual clock with a request's global arrival time before serving
    /// it, so latency and deadline semantics match the single-machine
    /// serving path.
    pub fn advance_to(&mut self, at: u64) {
        self.ppe.clock.advance_to(at);
    }

    /// One end-to-end blade health probe: an `integrity_probe` dispatch
    /// (mailbox → DMA → checksum → mailbox reply) through the engine on
    /// the first alive SPE. `Ok(false)` when no SPE is alive or the
    /// probe failed — the blade-level watchdog's failure signal.
    pub fn integrity_probe(&mut self) -> CellResult<bool> {
        let Some(spe) = self.engine.alive().iter().position(|&a| a) else {
            return Ok(false);
        };
        self.probe_spe(spe)
    }

    /// Shut the machine down and assemble the final report, every SPE
    /// report (retired occupants included) and the whole-machine trace.
    pub fn finish(mut self) -> CellResult<ServeOutput> {
        for spe in 0..self.engine.num_spes() {
            let _ = self.engine.close_spe(&mut self.ppe, spe);
        }
        let elapsed = self.ppe.elapsed();
        let survivors = self.survivors();
        let breaker_trips: u64 = self.breakers.iter().map(CircuitBreaker::trips).sum();

        // Final SLO gauges: per-SPE utilization (share of completed
        // dispatches), queue high-water, and the dual clocks.
        let total_completions: u64 = self.spe_completions.iter().sum();
        for (spe, &done) in self.spe_completions.iter().enumerate() {
            self.metrics
                .set_gauge(&format!("spe{spe}_completions"), done as f64);
            let share = if total_completions == 0 {
                0.0
            } else {
                done as f64 / total_completions as f64
            };
            self.metrics
                .set_gauge(&format!("spe{spe}_utilization"), share);
        }
        self.metrics
            .set_gauge("queue_depth_max", self.queue.max_depth() as f64);
        self.metrics.set_gauge("survivors", survivors as f64);
        self.metrics
            .set_gauge("elapsed_virtual_ms", elapsed.seconds() * 1e3);
        let wall_us = self.wall_elapsed_us();
        self.metrics.set_gauge("elapsed_wall_us", wall_us as f64);
        if wall_us > 0 {
            self.metrics.set_gauge(
                "requests_per_sec_wall",
                self.served as f64 / (wall_us as f64 / 1e6),
            );
        }

        let mut tracks = vec![self.ppe.take_trace()];
        // Shutdown before joining: only closing the fabric can wake a
        // hung dispatcher.
        self.machine.shutdown();
        let mut spe_reports = self.retired_reports;
        for handle in self.handles.into_iter().flatten() {
            spe_reports.push(handle.join_report()?);
        }
        tracks.extend(spe_reports.iter().map(|r| r.trace.clone()));
        tracks.push(self.machine.take_eib_trace());
        let report = ServeReport {
            outcomes: self.outcomes,
            served: self.served,
            degraded_served: self.degraded_served,
            shed_overload: self.shed_overload,
            shed_deadline: self.shed_deadline,
            respawns: self.respawns,
            breaker_trips,
            retransmits: self.retransmits,
            survivors,
            max_queue_depth: self.queue.max_depth(),
            elapsed,
            latency: self.latency,
        };
        Ok(ServeOutput {
            report,
            spe_reports,
            trace: TraceReport { tracks },
            metrics: self.metrics,
            flight_dumps: self.flight_dumps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_json_is_pinned() {
        let mut latency = LogHistogram::new();
        for cycles in [900, 5_000, 70_000] {
            latency.record(cycles);
        }
        let report = ServeReport {
            outcomes: Vec::new(),
            served: 6,
            degraded_served: 1,
            shed_overload: 2,
            shed_deadline: 0,
            respawns: 1,
            breaker_trips: 0,
            retransmits: 3,
            survivors: 8,
            max_queue_depth: 5,
            elapsed: VirtualDuration::from_seconds(0.004_321_5),
            latency,
        };
        assert_eq!(report.summary_json(), "{\"served\":6,\"degraded\":1,\"shed_overload\":2,\"shed_deadline\":0,\"respawns\":1,\"breaker_trips\":0,\"retransmits\":3,\"survivors\":8,\"max_queue_depth\":5,\"elapsed_ms\":4.321,\"latency_p50_cycles\":8191,\"latency_p95_cycles\":131071,\"latency_p99_cycles\":131071}");
    }
}
