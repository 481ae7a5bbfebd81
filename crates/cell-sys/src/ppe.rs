//! The PPE-side handle: what the "main application" of the porting
//! strategy runs against.
//!
//! Paper §2: the PPE's "main role is to run the operating system and
//! coordinate the SPEs". Here [`Ppe`] owns a virtual clock, direct access
//! to main memory, and the PPE ends of every SPE's mailboxes and signal
//! registers (`spe_write_in_mbox`, `spe_stat_out_mbox`,
//! `spe_read_out_mbox` from paper Listing 3).
//!
//! PPE *compute* — the un-offloaded part of the application — is costed
//! through [`Ppe::charge`] with the PPE machine profile, so Amdahl effects
//! (the serial fraction staying on the slow core) appear in the virtual
//! timeline exactly as the paper analyses them.

use std::sync::Arc;

use cell_core::{
    CellError, CellResult, CostModel, Cycles, MachineProfile, OpProfile, VirtualClock,
    VirtualDuration,
};
use cell_mem::MainMemory;
use cell_trace::{Counter, EventKind, TraceConfig, Tracer, Track, TrackData};

use crate::mailbox::{MailboxPair, Stamped};
use crate::signal::SignalRegister;
use crate::spe::MAILBOX_LATENCY;

/// The PPE context: one per machine, owned by the application thread.
pub struct Ppe {
    mem: Arc<MainMemory>,
    /// Virtual clock at the core frequency.
    pub clock: VirtualClock,
    model: MachineProfile,
    mailboxes: Vec<MailboxPair>,
    signals1: Vec<Arc<SignalRegister>>,
    signals2: Vec<Arc<SignalRegister>>,
    profile: OpProfile,
    tracer: Tracer,
}

impl Ppe {
    pub(crate) fn new(
        mem: Arc<MainMemory>,
        clock: VirtualClock,
        mailboxes: Vec<MailboxPair>,
        signals1: Vec<Arc<SignalRegister>>,
        signals2: Vec<Arc<SignalRegister>>,
        trace_config: TraceConfig,
    ) -> Self {
        let hz = clock.frequency().hertz();
        Ppe {
            mem,
            clock,
            model: MachineProfile::ppe(),
            mailboxes,
            signals1,
            signals2,
            profile: OpProfile::new(),
            tracer: Tracer::new(trace_config, Track::Ppe, hz),
        }
    }

    /// The PPE's tracer (read-only view).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The PPE's tracer, for callers recording their own spans (e.g.
    /// `portkit` dispatch round-trips).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Take the PPE trace, stamping the run's total cycles first. Leaves
    /// a fresh same-config tracer behind.
    pub fn take_trace(&mut self) -> TrackData {
        self.tracer
            .count_max(Counter::TotalCycles, self.clock.now());
        let mut fresh = Tracer::new(
            self.tracer.config(),
            Track::Ppe,
            self.clock.frequency().hertz(),
        );
        fresh.set_epoch(self.tracer.epoch());
        std::mem::replace(&mut self.tracer, fresh).finish()
    }

    /// Shared main memory.
    pub fn mem(&self) -> &Arc<MainMemory> {
        &self.mem
    }

    /// The PPE cost model in use.
    pub fn model(&self) -> &MachineProfile {
        &self.model
    }

    /// Number of SPEs this PPE can talk to.
    pub fn num_spes(&self) -> usize {
        self.mailboxes.len()
    }

    fn check_spe(&self, spe: usize) -> CellResult<()> {
        if spe >= self.mailboxes.len() {
            return Err(CellError::NoSpeAvailable {
                requested: spe + 1,
                available: self.mailboxes.len(),
            });
        }
        Ok(())
    }

    /// Account PPE-side computation: advances the PPE clock by the profile
    /// costed with the PPE model, and accumulates into the PPE's total.
    pub fn charge(&mut self, work: &OpProfile) {
        let cycles = self.model.cycles(work);
        self.clock.advance(cycles);
        self.profile.merge(work);
    }

    /// Advance the PPE clock by raw cycles (I/O waits, OS overhead).
    pub fn charge_cycles(&mut self, n: u64) {
        self.clock.advance(Cycles(n));
    }

    /// Total work charged to the PPE so far.
    pub fn total_profile(&self) -> &OpProfile {
        &self.profile
    }

    /// Elapsed virtual time.
    pub fn elapsed(&self) -> VirtualDuration {
        self.clock.elapsed()
    }

    // ---- mailbox endpoints (paper Listing 3) -----------------------------

    /// `spe_write_in_mbox`: blocking write into an SPE's inbound mailbox.
    pub fn write_in_mbox(&mut self, spe: usize, value: u32) -> CellResult<()> {
        self.check_spe(spe)?;
        self.clock.advance(Cycles(50));
        self.profile.mailbox_ops += 1;
        self.tracer.span_epoch(
            EventKind::MailboxSend,
            "mbox_send",
            self.clock.now(),
            0,
            value as u64,
            spe as u64,
            self.mailboxes[spe].inbound.generation(),
        );
        self.tracer.count(Counter::MailboxSends, 1);
        self.mailboxes[spe].inbound.write(value, self.clock.now())
    }

    /// `spe_stat_out_mbox`: words waiting in the SPE's outbound mailbox.
    pub fn stat_out_mbox(&self, spe: usize) -> CellResult<usize> {
        self.check_spe(spe)?;
        Ok(self.mailboxes[spe].outbound.count())
    }

    /// Is the SPE's mailbox fabric still open? A program closes its
    /// mailboxes on the way out however it stops (return, crash, injected
    /// fault, panic, machine shutdown), so this is the PPE's cheap
    /// liveness probe — resilience layers poll it instead of waiting for
    /// a full virtual-time timeout.
    pub fn spe_alive(&self, spe: usize) -> CellResult<bool> {
        self.check_spe(spe)?;
        Ok(!self.mailboxes[spe].inbound.is_closed())
    }

    /// Is the SPE idle — its program parked on an empty inbound mailbox?
    /// An idle SPE cannot reply without new input, so a reply wait may
    /// give up on it; a busy one (however slow its host thread) is still
    /// computing a reply and is waited for.
    pub fn spe_idle(&self, spe: usize) -> CellResult<bool> {
        self.check_spe(spe)?;
        Ok(self.mailboxes[spe].inbound.reader_parked())
    }

    /// `spe_read_out_mbox` after a successful poll: blocking read from the
    /// SPE's outbound mailbox. The PPE clock advances to the message's
    /// send time plus crossing latency — this is the virtual-time "stall"
    /// of Fig. 4(b).
    pub fn read_out_mbox(&mut self, spe: usize) -> CellResult<u32> {
        self.check_spe(spe)?;
        let s = self.mailboxes[spe].outbound.read()?;
        Ok(self.received(spe, s, 50))
    }

    /// Non-blocking read from the outbound mailbox.
    pub fn try_read_out_mbox(&mut self, spe: usize) -> CellResult<u32> {
        self.check_spe(spe)?;
        let s = self.mailboxes[spe].outbound.try_read()?;
        Ok(self.received(spe, s, 50))
    }

    /// Blocking read from the interrupting outbound mailbox. Interrupt
    /// delivery costs more PPE cycles than a poll hit but requires no
    /// spinning — the trade paper §3.5 step 6 describes.
    pub fn read_out_intr_mbox(&mut self, spe: usize) -> CellResult<u32> {
        self.check_spe(spe)?;
        let s = self.mailboxes[spe].outbound_intr.read()?;
        Ok(self.received(spe, s, 600)) // interrupt entry/exit
    }

    /// Account one word taken off an outbound mailbox: stall the PPE
    /// clock until the word's stamp plus crossing latency, then charge
    /// `exit_cycles` for the read itself.
    fn received(&mut self, spe: usize, s: Stamped, exit_cycles: u64) -> u32 {
        let t0 = self.clock.now();
        self.clock.advance_to(s.stamp + MAILBOX_LATENCY);
        let blocked = self.clock.now() - t0;
        self.clock.advance(Cycles(exit_cycles));
        self.profile.mailbox_ops += 1;
        self.tracer.span_epoch(
            EventKind::MailboxRecv,
            "mbox_recv",
            t0,
            blocked,
            s.value as u64,
            spe as u64,
            self.mailboxes[spe].inbound.generation(),
        );
        self.tracer.count(Counter::MailboxRecvs, 1);
        self.tracer.count(Counter::MailboxStallCycles, blocked);
        self.tracer.record_mailbox_stall(blocked);
        s.value
    }

    // ---- signals ---------------------------------------------------------

    /// Raise bits in an SPE's signal register 1.
    pub fn signal1(&mut self, spe: usize, bits: u32) -> CellResult<()> {
        self.check_spe(spe)?;
        self.clock.advance(Cycles(50));
        self.signals1[spe].send(bits)
    }

    /// Raise bits in an SPE's signal register 2.
    pub fn signal2(&mut self, spe: usize, bits: u32) -> CellResult<()> {
        self.check_spe(spe)?;
        self.clock.advance(Cycles(50));
        self.signals2[spe].send(bits)
    }

    /// Synchronize the PPE clock with a set of worker completion stamps
    /// (used by group scheduling: the PPE resumes when the *latest* group
    /// member finishes).
    pub fn join_at(&mut self, stamps: impl IntoIterator<Item = u64>) {
        if let Some(max) = stamps.into_iter().max() {
            self.clock.advance_to(max + MAILBOX_LATENCY);
        }
    }
}

impl std::fmt::Debug for Ppe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ppe")
            .field("clock_cycles", &self.clock.now())
            .field("num_spes", &self.num_spes())
            .finish()
    }
}
