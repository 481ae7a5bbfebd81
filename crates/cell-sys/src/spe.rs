//! The SPE-side execution environment.
//!
//! An SPE kernel in this workspace is a type implementing [`SpeProgram`];
//! its `run` method is the `main(speid, argp)` of paper Listing 1. The
//! [`SpeEnv`] handed to it holds exactly what real SPE code can touch:
//!
//! * its own 256 KB [`LocalStore`];
//! * its [`Mfc`] (the only road to main memory);
//! * an [`Spu`] SIMD context whose issue counts, together with DMA and
//!   mailbox traffic, drive the SPE's [`VirtualClock`];
//! * the inbound/outbound/interrupt mailboxes and two signal registers.
//!
//! Virtual-time bookkeeping: SIMD work accumulates in the [`Spu`] counters
//! and is folded into the clock by [`SpeEnv::charge_compute`] — called
//! automatically at every synchronization point (mailbox access, DMA
//! wait), so kernels only call it explicitly when they want slice-level
//! timing.

use std::sync::Arc;

use cell_core::{CellError, CellResult, Cycles, MachineProfile, OpProfile, VirtualClock};
use cell_fault::{FaultKind, FaultLine};
use cell_mem::LocalStore;
use cell_mfc::Mfc;
use cell_spu::{Spu, SpuCounters};
use cell_trace::{Counter, EventKind, TraceConfig, Tracer, Track};

use crate::mailbox::{Mailbox, MailboxPair};
use crate::signal::SignalRegister;

/// Extra virtual latency (core cycles) for a mailbox word to cross between
/// the PPE and an SPE.
pub const MAILBOX_LATENCY: u64 = 100;

/// A kernel that runs on an SPE.
///
/// Programs are long-running dispatchers: they loop on the inbound mailbox
/// until they receive their exit opcode (paper Listing 1's `SPU_EXIT`),
/// then return. Returning `Err` marks the SPE as faulted; the machine
/// surfaces it on join.
pub trait SpeProgram: Send + 'static {
    /// Name used in reports and panics.
    fn name(&self) -> &'static str {
        "spe-kernel"
    }

    /// The kernel body.
    fn run(&mut self, env: &mut SpeEnv) -> CellResult<()>;
}

impl<F> SpeProgram for F
where
    F: FnMut(&mut SpeEnv) -> CellResult<()> + Send + 'static,
{
    fn run(&mut self, env: &mut SpeEnv) -> CellResult<()> {
        self(env)
    }
}

/// Everything an SPE kernel can see.
pub struct SpeEnv {
    spe_id: usize,
    /// The 256 KB local store.
    pub ls: LocalStore,
    /// The DMA engine.
    pub mfc: Mfc,
    /// The SIMD execution context.
    pub spu: Spu,
    /// This SPE's virtual clock (core frequency).
    pub clock: VirtualClock,
    mailboxes: MailboxPair,
    signal1: Arc<SignalRegister>,
    signal2: Arc<SignalRegister>,
    /// Signal-1 registers of every SPE on the machine, for SPE→SPE
    /// notification (real Cell SPEs signal each other with `sndsig`).
    peer_signals: Vec<Arc<SignalRegister>>,
    /// Cost model converting SIMD issue counts into cycles. Defaults to
    /// the optimized-SPE profile; unoptimized kernels switch it.
    compute_model: MachineProfile,
    /// Counters already folded into the clock.
    charged: SpuCounters,
    /// Mailbox words read or written (for the op profile).
    mailbox_ops: u64,
    /// Structured trace sink for this SPE (thread-local by ownership).
    tracer: Tracer,
    /// Fault schedule for dispatched ops (inbound mailbox reads). Empty
    /// by default: one branch on the hot path, nothing else.
    dispatch_faults: FaultLine,
    /// Fault schedule for reply words (outbound mailbox writes).
    reply_faults: FaultLine,
}

impl SpeEnv {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spe_id: usize,
        ls: LocalStore,
        mfc: Mfc,
        clock: VirtualClock,
        mailboxes: MailboxPair,
        signal1: Arc<SignalRegister>,
        signal2: Arc<SignalRegister>,
        peer_signals: Vec<Arc<SignalRegister>>,
        trace_config: TraceConfig,
    ) -> Self {
        let hz = clock.frequency().hertz();
        let mut mfc = mfc;
        mfc.set_tracer(Tracer::new(trace_config, Track::Spe(spe_id), hz));
        SpeEnv {
            spe_id,
            ls,
            mfc,
            spu: Spu::new(),
            clock,
            mailboxes,
            signal1,
            signal2,
            peer_signals,
            compute_model: MachineProfile::spe_optimized(),
            charged: SpuCounters::default(),
            mailbox_ops: 0,
            tracer: Tracer::new(trace_config, Track::Spe(spe_id), hz),
            dispatch_faults: FaultLine::off(),
            reply_faults: FaultLine::off(),
        }
    }

    /// Install the armed fault schedules for this SPE (dispatch reads,
    /// reply writes, DMA transfers). Called by the machine at spawn;
    /// defaults keep every line empty and the hot paths one-branch.
    pub(crate) fn set_fault_lines(
        &mut self,
        dispatch: FaultLine,
        reply: FaultLine,
        dma: FaultLine,
    ) {
        self.dispatch_faults = dispatch;
        self.reply_faults = reply;
        self.mfc.set_fault_line(dma);
    }

    /// This SPE's tracer (for kernels that want custom events).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Set the ambient request span context on *both* the environment's
    /// tracer and the MFC's: the dispatcher calls this on an `SPU_SPAN`
    /// prefix so kernel spans, mailbox events and the DMA traffic they
    /// trigger all carry the request's trace id.
    pub fn set_span_context(&mut self, span: u64) {
        self.tracer.set_span_context(span);
        self.mfc.tracer_mut().set_span_context(span);
    }

    /// Clear the ambient request span context on both tracers.
    pub fn clear_span_context(&mut self) {
        self.tracer.clear_span_context();
        self.mfc.tracer_mut().clear_span_context();
    }

    /// Stamp this incarnation's epoch (FIFO generation + memory domain)
    /// into both tracers. The machine calls this at spawn with the slot's
    /// inbound mailbox generation, so every event an SPE program records
    /// — mailbox traffic, DMA, compute slices — names the incarnation
    /// that produced it.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.tracer.set_epoch(epoch);
        self.mfc.tracer_mut().set_epoch(epoch);
    }

    pub fn spe_id(&self) -> usize {
        self.spe_id
    }

    /// Swap the compute cost model (e.g. to the unoptimized-SPE profile
    /// when simulating a freshly ported kernel).
    pub fn set_compute_model(&mut self, model: MachineProfile) {
        // Fold outstanding work under the old model first.
        self.charge_compute();
        self.compute_model = model;
    }

    pub fn compute_model(&self) -> &MachineProfile {
        &self.compute_model
    }

    /// Fold un-charged SIMD work into the virtual clock.
    pub fn charge_compute(&mut self) {
        let now = self.spu.counters();
        let delta = now.since(&self.charged);
        if delta.total() > 0 {
            let cycles = self.compute_model.compute_cycles(&delta.to_profile());
            let start = self.clock.now();
            self.clock.advance(cycles);
            self.tracer.span(
                EventKind::SpuSlice,
                "spu",
                start,
                self.clock.now() - start,
                delta.total(),
                0,
            );
            self.tracer.count(Counter::SpuSlices, 1);
            self.tracer.count(Counter::SpuIssues, delta.total());
            self.charged = now;
        }
    }

    /// Charge `n` generic scalar control-flow cycles (loop bookkeeping the
    /// SIMD counters do not see).
    pub fn charge_cycles(&mut self, n: u64) {
        self.clock.advance(Cycles(n));
    }

    // ---- mailboxes ------------------------------------------------------

    /// Apply a scheduled dispatch fault, if one is due for this inbound
    /// read. `Ok(())` means no terminal fault fired; `Err` kills the
    /// kernel (the machine closes the SPE's mailboxes on the way out).
    #[cold]
    fn inject_dispatch_fault(&mut self, kind: FaultKind) -> CellResult<()> {
        match kind {
            FaultKind::SpeCrash => {
                self.tracer.span(
                    EventKind::Fault,
                    "spe_crash",
                    self.clock.now(),
                    0,
                    self.spe_id as u64,
                    0,
                );
                self.tracer.count(Counter::FaultsInjected, 1);
                Err(CellError::FaultInjected {
                    what: "SPE crash on dispatch",
                })
            }
            FaultKind::SpeHang => {
                self.tracer.span(
                    EventKind::Fault,
                    "spe_hang",
                    self.clock.now(),
                    0,
                    self.spe_id as u64,
                    0,
                );
                self.tracer.count(Counter::FaultsInjected, 1);
                // Wedge: silently discard every further inbound word
                // (including SPU_EXIT). Only machine shutdown closes the
                // mailbox and wakes us — with the closure error, so the
                // SPE still reports a fault on join.
                loop {
                    self.mailboxes.inbound.read()?;
                }
            }
            // Faults of other sites never reach this line.
            _ => Ok(()),
        }
    }

    /// Blocking read from the inbound mailbox (`spu_read_in_mbox`).
    ///
    /// This is the *dispatched op* injection point: the Nth call on an
    /// SPE is where `FaultPlan::crash_spe` / `hang_spe` faults fire
    /// (the dispatcher performs two reads per kernel call — opcode,
    /// then argument).
    pub fn read_in_mbox(&mut self) -> CellResult<u32> {
        self.charge_compute();
        if let Some(kind) = self.dispatch_faults.tick() {
            self.inject_dispatch_fault(kind)?;
        }
        let t0 = self.clock.now();
        let s = self.mailboxes.inbound.read()?;
        self.clock.advance_to(s.stamp + MAILBOX_LATENCY);
        let blocked = self.clock.now() - t0;
        self.clock.advance(Cycles(10));
        self.mailbox_ops += 1;
        self.tracer.span(
            EventKind::MailboxRecv,
            "mbox_recv",
            t0,
            blocked,
            s.value as u64,
            0,
        );
        self.tracer.count(Counter::MailboxRecvs, 1);
        self.tracer.count(Counter::MailboxStallCycles, blocked);
        self.tracer.record_mailbox_stall(blocked);
        Ok(s.value)
    }

    /// Apply a scheduled reply fault, if one is due for this outbound
    /// write. Returns `true` when the word must be dropped.
    #[cold]
    fn inject_reply_fault(&mut self, kind: FaultKind, value: u32) -> bool {
        match kind {
            FaultKind::ReplyDrop => {
                self.tracer.span(
                    EventKind::Fault,
                    "reply_drop",
                    self.clock.now(),
                    0,
                    self.spe_id as u64,
                    value as u64,
                );
                self.tracer.count(Counter::FaultsInjected, 1);
                true
            }
            FaultKind::ReplyStall { cycles } => {
                self.tracer.span(
                    EventKind::Fault,
                    "reply_stall",
                    self.clock.now(),
                    cycles,
                    self.spe_id as u64,
                    value as u64,
                );
                self.tracer.count(Counter::FaultsInjected, 1);
                // The reply leaves later in virtual time; the PPE's
                // `advance_to` on the stamped word observes the delay.
                self.clock.advance(Cycles(cycles));
                false
            }
            _ => false,
        }
    }

    /// Blocking write to the outbound mailbox (`spu_write_out_mbox`).
    ///
    /// Reply-site injection point: the Nth outbound write on an SPE is
    /// where `FaultPlan::drop_reply` / `stall_reply` faults fire.
    pub fn write_out_mbox(&mut self, value: u32) -> CellResult<()> {
        self.write_out(value, |m| &m.outbound)
    }

    /// Blocking write to the interrupting outbound mailbox
    /// (`spu_write_out_intr_mbox`). Shares the reply fault line with
    /// [`write_out_mbox`](Self::write_out_mbox).
    pub fn write_out_intr_mbox(&mut self, value: u32) -> CellResult<()> {
        self.write_out(value, |m| &m.outbound_intr)
    }

    /// One reply word onto the outbound mailbox `mailbox` picks: fold
    /// compute, fire a due reply fault, charge the channel write, stamp.
    fn write_out(&mut self, value: u32, mailbox: fn(&MailboxPair) -> &Mailbox) -> CellResult<()> {
        self.charge_compute();
        if let Some(kind) = self.reply_faults.tick() {
            if self.inject_reply_fault(kind, value) {
                return Ok(());
            }
        }
        self.clock.advance(Cycles(10));
        self.mailbox_ops += 1;
        self.tracer.span(
            EventKind::MailboxSend,
            "mbox_send",
            self.clock.now(),
            0,
            value as u64,
            0,
        );
        self.tracer.count(Counter::MailboxSends, 1);
        mailbox(&self.mailboxes).write(value, self.clock.now())
    }

    // ---- signals --------------------------------------------------------

    /// Blocking read-and-clear of signal register 1.
    pub fn wait_signal1(&mut self) -> CellResult<u32> {
        self.charge_compute();
        let v = self.signal1.wait()?;
        self.clock.advance(Cycles(10));
        Ok(v)
    }

    /// Blocking read-and-clear of signal register 2.
    pub fn wait_signal2(&mut self) -> CellResult<u32> {
        self.charge_compute();
        let v = self.signal2.wait()?;
        self.clock.advance(Cycles(10));
        Ok(v)
    }

    /// Poll signal register 1.
    pub fn poll_signal1(&mut self) -> CellResult<Option<u32>> {
        self.signal1.poll()
    }

    /// Raise bits in *another* SPE's signal register 1 (`sndsig`): the
    /// SPE-to-SPE notification path that lets kernels chain without a
    /// PPE round-trip. Signalling yourself is refused — use local state.
    pub fn signal_peer(&mut self, spe: usize, bits: u32) -> CellResult<()> {
        if spe == self.spe_id {
            return Err(CellError::BadConfig {
                message: "an SPE cannot signal itself".to_string(),
            });
        }
        let reg = Arc::clone(
            self.peer_signals
                .get(spe)
                .ok_or(CellError::NoSpeAvailable {
                    requested: spe + 1,
                    available: self.peer_signals.len(),
                })?,
        );
        self.charge_compute();
        // A signalling write travels the EIB like a tiny DMA: charge the
        // channel write plus crossing latency.
        self.clock.advance(Cycles(10 + MAILBOX_LATENCY));
        reg.send(bits)
    }

    // ---- DMA convenience (charges compute before waiting) ---------------

    /// `mfc_get` + tag wait in one call, for simple kernels.
    pub fn dma_get_sync(
        &mut self,
        la: cell_mem::LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
    ) -> CellResult<()> {
        self.charge_compute();
        self.mfc
            .get(&mut self.ls, la, ea, size, tag, &mut self.clock)?;
        self.mfc.wait_tag(tag, &mut self.clock)
    }

    /// `mfc_put` + tag wait in one call.
    pub fn dma_put_sync(
        &mut self,
        la: cell_mem::LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
    ) -> CellResult<()> {
        self.charge_compute();
        self.mfc
            .put(&mut self.ls, la, ea, size, tag, &mut self.clock)?;
        self.mfc.wait_tag(tag, &mut self.clock)
    }

    /// Large synchronous get (splits at the 16 KB cap).
    pub fn dma_get_large_sync(
        &mut self,
        la: cell_mem::LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
    ) -> CellResult<()> {
        self.charge_compute();
        self.mfc
            .get_large(&mut self.ls, la, ea, size, tag, &mut self.clock)?;
        self.mfc.wait_tag(tag, &mut self.clock)
    }

    /// Large synchronous put.
    pub fn dma_put_large_sync(
        &mut self,
        la: cell_mem::LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
    ) -> CellResult<()> {
        self.charge_compute();
        self.mfc
            .put_large(&mut self.ls, la, ea, size, tag, &mut self.clock)?;
        self.mfc.wait_tag(tag, &mut self.clock)
    }

    // ---- reporting ------------------------------------------------------

    /// The full operation profile of the kernel so far: SIMD counters plus
    /// DMA traffic and mailbox words.
    pub fn profile(&self) -> OpProfile {
        let mut p = self.spu.counters().to_profile();
        let m = self.mfc.stats();
        p.dma_bytes_in = m.bytes_in;
        p.dma_bytes_out = m.bytes_out;
        p.dma_transfers = m.transfers;
        p.mailbox_ops = self.mailbox_ops;
        p
    }

    /// Elapsed virtual time on this SPE.
    pub fn elapsed(&self) -> cell_core::VirtualDuration {
        self.clock.elapsed()
    }

    pub(crate) fn into_report(mut self, fault: Option<String>) -> super::machine::SpeReport {
        self.charge_compute();
        self.tracer
            .count_max(Counter::LsHighWater, self.ls.high_water() as u64);
        self.tracer
            .count_max(Counter::TotalCycles, self.clock.now());
        let profile = self.profile();
        let mut trace = self.tracer.snapshot();
        trace.merge(self.mfc.take_tracer());
        super::machine::SpeReport {
            spe_id: self.spe_id,
            counters: self.spu.counters(),
            mfc: self.mfc.stats(),
            profile,
            cycles: self.clock.now(),
            elapsed: self.clock.elapsed(),
            ls_high_water: self.ls.high_water(),
            fault,
            trace,
        }
    }
}

impl std::fmt::Debug for SpeEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeEnv")
            .field("spe_id", &self.spe_id)
            .field("clock_cycles", &self.clock.now())
            .field("counters", &self.spu.counters())
            .finish()
    }
}

/// A helper error constructor for kernels.
pub fn spe_fault(spe: usize, message: impl Into<String>) -> CellError {
    CellError::SpeFault {
        spe,
        message: message.into(),
    }
}
