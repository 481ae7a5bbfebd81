//! The assembled Cell machine.
//!
//! [`CellMachine`] owns the shared substrates (main memory, EIB) and one
//! slot per SPE (mailboxes + signal registers). SPE programs run on real
//! host threads — the machine is genuinely concurrent, which is what makes
//! the mailbox protocol and the grouped-parallel scheduling of the paper
//! observable rather than merely modelled.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cell_core::{CellError, CellResult, Cycles, MachineConfig, VirtualClock, VirtualDuration};
use cell_eib::Eib;
use cell_fault::{FaultPlan, FaultSite};
use cell_mem::{LocalStore, MainMemory};
use cell_mfc::{Mfc, MfcStats};
use cell_spu::SpuCounters;
use cell_trace::{TraceConfig, TrackData};

use crate::mailbox::MailboxPair;
use crate::ppe::Ppe;
use crate::signal::{SignalMode, SignalRegister};
use crate::spe::{SpeEnv, SpeProgram};

/// What an SPE reports when its program finishes.
#[derive(Debug, Clone)]
pub struct SpeReport {
    pub spe_id: usize,
    /// SIMD issue tally.
    pub counters: SpuCounters,
    /// DMA traffic tally.
    pub mfc: MfcStats,
    /// Combined operation profile (SIMD + DMA + mailbox).
    pub profile: cell_core::OpProfile,
    /// Final virtual clock in core cycles.
    pub cycles: u64,
    /// Final virtual elapsed time.
    pub elapsed: VirtualDuration,
    /// Peak local-store data footprint.
    pub ls_high_water: usize,
    /// Fault message if the program returned an error.
    pub fault: Option<String>,
    /// Structured trace of this SPE (env + MFC streams merged). Empty
    /// unless the machine had tracing enabled before the spawn.
    pub trace: TrackData,
}

/// Handle to a running SPE program.
#[must_use = "an unjoined SPE handle leaks a host thread; call join() or join_report()"]
pub struct SpeHandle {
    spe_id: usize,
    join: JoinHandle<SpeReport>,
}

impl SpeHandle {
    pub fn spe_id(&self) -> usize {
        self.spe_id
    }

    /// Wait for the SPE program to return and collect its report.
    /// A faulted program yields `Err(CellError::SpeFault)`.
    pub fn join(self) -> CellResult<SpeReport> {
        let report = self.join_report()?;
        if let Some(msg) = &report.fault {
            return Err(CellError::SpeFault {
                spe: report.spe_id,
                message: msg.clone(),
            });
        }
        Ok(report)
    }

    /// Wait for the SPE program and return its report even when the program
    /// faulted — the fault message stays in [`SpeReport::fault`] and the
    /// trace (with any injected-fault events) is preserved. Only a panicked
    /// thread still yields `Err(CellError::SpeFault)`. This is what
    /// resilience layers use to harvest traces from SPEs they gave up on.
    pub fn join_report(self) -> CellResult<SpeReport> {
        self.join.join().map_err(|_| CellError::SpeFault {
            spe: self.spe_id,
            message: "SPE thread panicked".into(),
        })
    }
}

/// Closes an SPE's mailboxes when its host thread leaves the program,
/// by return or by unwinding from a panic.
struct CloseOnExit(MailboxPair);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close_all();
    }
}

struct SpeSlot {
    mailboxes: MailboxPair,
    signal1: Arc<SignalRegister>,
    signal2: Arc<SignalRegister>,
    occupied: bool,
}

/// The machine: shared memory + EIB + per-SPE communication fabric.
pub struct CellMachine {
    config: MachineConfig,
    mem: Arc<MainMemory>,
    eib: Arc<Eib>,
    slots: Vec<SpeSlot>,
    trace_config: TraceConfig,
    /// Memory domain for epoch stamping: which machine incarnation this
    /// is within a larger topology (cluster blade × blade generation).
    /// 0 for a standalone machine. Stored in the high bits of every
    /// trace-event epoch word (see [`cell_trace::epoch_domain`]).
    epoch_domain: u64,
    /// Seeded fault-injection plan; empty by default. Copied into each SPE
    /// environment at spawn, like the trace configuration.
    fault_plan: FaultPlan,
    /// Set once [`CellMachine::shutdown`] has run; later spawns are refused
    /// (their mailboxes are already closed, they could never be driven).
    shut_down: AtomicBool,
}

impl CellMachine {
    /// Build a machine from a validated configuration.
    pub fn new(config: MachineConfig) -> CellResult<Self> {
        let config = config.validate()?;
        let mem = Arc::new(MainMemory::new(config.main_memory_size));
        let eib = Arc::new(Eib::new(config.eib));
        let slots = (0..config.num_spes)
            .map(|_| SpeSlot {
                mailboxes: MailboxPair::new(),
                signal1: SignalRegister::new(SignalMode::Or),
                signal2: SignalRegister::new(SignalMode::Overwrite),
                occupied: false,
            })
            .collect();
        Ok(CellMachine {
            config,
            mem,
            eib,
            slots,
            trace_config: TraceConfig::Off,
            epoch_domain: 0,
            fault_plan: FaultPlan::new(),
            shut_down: AtomicBool::new(false),
        })
    }

    /// Enable (or disable) tracing machine-wide. Must be called before
    /// [`CellMachine::ppe`] and [`CellMachine::spawn`] — components copy
    /// the configuration when they are created.
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.trace_config = config;
        self.eib.enable_trace(config);
    }

    pub fn trace_config(&self) -> TraceConfig {
        self.trace_config
    }

    /// Assign this machine a memory domain for epoch stamping. Rebases
    /// every slot's inbound FIFO generation to the domain's base, so all
    /// subsequent trace events — and the bumps from later respawns —
    /// carry globally distinct epoch words. Must be called before
    /// [`CellMachine::ppe`] and [`CellMachine::spawn`], like
    /// [`CellMachine::set_trace_config`]. Domain 0 (the default) is the
    /// standalone-machine identity: generations stay 0, 1, 2, …
    pub fn set_epoch_domain(&mut self, domain: u64) {
        self.epoch_domain = domain;
        for slot in &self.slots {
            slot.mailboxes
                .inbound
                .set_generation(cell_trace::domain_base(domain));
        }
    }

    pub fn epoch_domain(&self) -> u64 {
        self.epoch_domain
    }

    /// Install a deterministic fault-injection plan (chaos testing). Must
    /// be called before [`CellMachine::spawn`] — each SPE arms its fault
    /// lines when it is created. With the default empty plan every
    /// injection point stays on its zero-cost fast path.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Take the EIB's trace stream (bus-cycle stamps).
    pub fn take_eib_trace(&self) -> TrackData {
        self.eib.take_trace()
    }

    /// A default Cell B.E. (8 SPEs, 256 KB local stores).
    pub fn cell_be() -> Self {
        Self::new(MachineConfig::default()).expect("default config is valid")
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    pub fn mem(&self) -> &Arc<MainMemory> {
        &self.mem
    }

    pub fn eib(&self) -> &Arc<Eib> {
        &self.eib
    }

    /// The PPE handle (create once; it owns the PPE virtual clock).
    pub fn ppe(&self) -> Ppe {
        let mut ppe = Ppe::new(
            Arc::clone(&self.mem),
            VirtualClock::new(self.config.core_frequency),
            self.slots.iter().map(|s| s.mailboxes.clone()).collect(),
            self.slots.iter().map(|s| Arc::clone(&s.signal1)).collect(),
            self.slots.iter().map(|s| Arc::clone(&s.signal2)).collect(),
            self.trace_config,
        );
        // The PPE outlives every SPE incarnation; its ambient epoch is the
        // machine's domain base, and its mailbox sites stamp the live
        // per-slot generation themselves.
        ppe.tracer_mut()
            .set_epoch(cell_trace::domain_base(self.epoch_domain));
        ppe
    }

    /// Spawn `program` on SPE `spe_id`. The program runs on a host thread
    /// until it returns (normally after receiving its exit opcode).
    pub fn spawn(
        &mut self,
        spe_id: usize,
        mut program: Box<dyn SpeProgram>,
    ) -> CellResult<SpeHandle> {
        if self.shut_down.load(Ordering::SeqCst) {
            // The fabric is torn down; a fresh program could only ever see
            // closed mailboxes, so fail the spawn itself, cleanly.
            return Err(CellError::MailboxClosed);
        }
        let slot = self
            .slots
            .get_mut(spe_id)
            .ok_or(CellError::NoSpeAvailable {
                requested: spe_id + 1,
                available: self.config.num_spes,
            })?;
        if slot.occupied {
            return Err(CellError::BadConfig {
                message: format!("SPE {spe_id} already runs a program"),
            });
        }
        slot.occupied = true;

        let ls = LocalStore::new(self.config.local_store_size, self.config.code_reserved);
        let mfc = Mfc::new(
            spe_id,
            Arc::clone(&self.mem),
            Arc::clone(&self.eib),
            self.config.dma,
        );
        let clock = VirtualClock::new(self.config.core_frequency);
        let peer_signals = self.slots.iter().map(|s| Arc::clone(&s.signal1)).collect();
        let slot = &mut self.slots[spe_id];
        let mut env = SpeEnv::new(
            spe_id,
            ls,
            mfc,
            clock,
            slot.mailboxes.clone(),
            Arc::clone(&slot.signal1),
            Arc::clone(&slot.signal2),
            peer_signals,
            self.trace_config,
        );
        // Stamp the incarnation's epoch into the SPE tracers: the slot's
        // inbound FIFO generation already encodes domain base + respawn
        // count (reopen_all bumped it during a respawn).
        env.set_epoch(slot.mailboxes.inbound.generation());
        if !self.fault_plan.is_empty() {
            env.set_fault_lines(
                self.fault_plan.arm(FaultSite::SpeDispatch, spe_id),
                self.fault_plan.arm(FaultSite::MailboxReply, spe_id),
                self.fault_plan.arm(FaultSite::Dma, spe_id),
            );
        }

        // Thread-creation cost on the PPE side is what the paper's static
        // scheduling avoids paying per call; model it once at spawn.
        env.charge_cycles(Cycles(20_000).get());

        let name = program.name();
        // However the program stops — an Err (injected crash, unknown
        // opcode), a panic in the kernel body, or a plain return — close
        // its mailboxes on the way out, so the PPE side observes a dead SPE
        // at once instead of waiting on a thread that can no longer reply.
        let exit_guard = CloseOnExit(slot.mailboxes.clone());
        let join = std::thread::Builder::new()
            .name(format!("spe{spe_id}-{name}"))
            .spawn(move || {
                let _exit_guard = exit_guard;
                let result = program.run(&mut env);
                env.into_report(result.err().map(|e| e.to_string()))
            })
            .map_err(|e| CellError::SpeFault {
                spe: spe_id,
                message: format!("spawn failed: {e}"),
            })?;

        Ok(SpeHandle { spe_id, join })
    }

    /// Retire SPE `spe_id`: close its mailboxes and signals, waking its
    /// program (even one wedged in a blocking read) so the thread exits
    /// and its handle can be joined. The rest of the machine keeps
    /// running — this is the single-SPE counterpart of
    /// [`CellMachine::shutdown`], and the first step of a respawn.
    pub fn retire(&self, spe_id: usize) -> CellResult<()> {
        let slot = self.slots.get(spe_id).ok_or(CellError::NoSpeAvailable {
            requested: spe_id + 1,
            available: self.config.num_spes,
        })?;
        slot.mailboxes.close_all();
        slot.signal1.close();
        slot.signal2.close();
        Ok(())
    }

    /// Respawn SPE `spe_id` with a fresh program: the slot's communication
    /// fabric is reopened in place (the PPE's existing clones of the
    /// mailboxes and signal registers stay valid) and the program spawns
    /// through the normal path — a new local store, a new MFC, fault
    /// lines re-armed from the plan, and the spawn cost charged again.
    ///
    /// The caller must have joined the previous occupant's [`SpeHandle`]
    /// first (after [`CellMachine::retire`] if it was hung): reopening
    /// mailboxes under a live thread would let the old program steal the
    /// new one's words.
    pub fn respawn(
        &mut self,
        spe_id: usize,
        program: Box<dyn SpeProgram>,
    ) -> CellResult<SpeHandle> {
        if self.shut_down.load(Ordering::SeqCst) {
            return Err(CellError::MailboxClosed);
        }
        let slot = self
            .slots
            .get_mut(spe_id)
            .ok_or(CellError::NoSpeAvailable {
                requested: spe_id + 1,
                available: self.config.num_spes,
            })?;
        slot.mailboxes.reopen_all();
        slot.signal1.reopen();
        slot.signal2.reopen();
        slot.occupied = false;
        self.spawn(spe_id, program)
    }

    /// Spawn on the lowest-numbered free SPE.
    pub fn spawn_any(&mut self, program: Box<dyn SpeProgram>) -> CellResult<SpeHandle> {
        let free =
            self.slots
                .iter()
                .position(|s| !s.occupied)
                .ok_or(CellError::NoSpeAvailable {
                    requested: 1,
                    available: 0,
                })?;
        self.spawn(free, program)
    }

    /// Close every SPE's mailboxes and signals, waking any blocked kernel
    /// so it can observe the shutdown and return. Idempotent; after it,
    /// [`CellMachine::spawn`] refuses with [`CellError::MailboxClosed`] and
    /// joining an already-woken SPE completes promptly with a clean
    /// `SpeFault` instead of hanging.
    pub fn shutdown(&self) {
        self.shut_down.store(true, Ordering::SeqCst);
        for slot in &self.slots {
            slot.mailboxes.close_all();
            slot.signal1.close();
            slot.signal2.close();
        }
    }

    /// Has [`CellMachine::shutdown`] run?
    pub fn is_shut_down(&self) -> bool {
        self.shut_down.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for CellMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellMachine")
            .field("num_spes", &self.config.num_spes)
            .field(
                "occupied",
                &self.slots.iter().filter(|s| s.occupied).count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_core::CellResult;

    const OP_EXIT: u32 = 0;
    const OP_ECHO: u32 = 1;
    const OP_SUM: u32 = 2;

    /// A miniature Listing-1-style dispatcher used by the machine tests.
    fn echo_kernel(env: &mut SpeEnv) -> CellResult<()> {
        loop {
            let op = env.read_in_mbox()?;
            match op {
                OP_EXIT => return Ok(()),
                OP_ECHO => {
                    let v = env.read_in_mbox()?;
                    env.write_out_mbox(v.wrapping_mul(2))?;
                }
                OP_SUM => {
                    // Read a wrapper address, DMA the block, sum it, put the
                    // result into the first 4 bytes, signal completion.
                    let addr = env.read_in_mbox()? as u64;
                    let la = env.ls.alloc(4096, 16)?;
                    env.dma_get_sync(la, addr, 4096, 0)?;
                    let mut sum = 0u32;
                    {
                        let buf = env.ls.slice(la, 4096)?;
                        for &b in buf {
                            sum = sum.wrapping_add(b as u32);
                        }
                    }
                    env.spu.scalar_op(4096);
                    env.ls.write_u32(la, sum)?;
                    env.dma_put_sync(la, addr, 16, 0)?;
                    env.ls.reset();
                    env.write_out_mbox(1)?;
                }
                other => return Err(CellError::UnknownOpcode { opcode: other }),
            }
        }
    }

    fn small_machine() -> CellMachine {
        CellMachine::new(cell_core::MachineConfig::small()).unwrap()
    }

    #[test]
    fn spawn_echo_roundtrip() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 21).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 42);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        let report = h.join().unwrap();
        assert!(report.fault.is_none());
        assert!(report.cycles > 0);
    }

    #[test]
    fn dma_kernel_computes_over_wrapper() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();

        let addr = ppe.mem().alloc(4096, 128).unwrap();
        let data = vec![3u8; 4096];
        ppe.mem().write(addr, &data).unwrap();

        ppe.write_in_mbox(0, OP_SUM).unwrap();
        ppe.write_in_mbox(0, addr as u32).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 1);
        assert_eq!(ppe.mem().read_u32(addr).unwrap(), 3 * 4096);

        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        let report = h.join().unwrap();
        assert_eq!(report.mfc.bytes_in, 4096);
        assert_eq!(report.mfc.bytes_out, 16);
        assert!(report.counters.scalar >= 4096);
        assert!(report.ls_high_water > 0);
    }

    #[test]
    fn virtual_time_flows_ppe_to_spe_and_back() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();

        // Pretend the PPE did a lot of preprocessing first.
        ppe.charge_cycles(10_000_000);
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 1).unwrap();
        let _ = ppe.read_out_mbox(0).unwrap();
        // The reply was produced after our send, so the PPE clock is past
        // the preprocessing time plus the round trip.
        assert!(ppe.clock.now() > 10_000_000);

        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        let report = h.join().unwrap();
        // The SPE observed the send stamp, so its clock is comparable.
        assert!(report.cycles > 10_000_000);
    }

    #[test]
    fn two_spes_run_concurrently() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h0 = m.spawn(0, Box::new(echo_kernel)).unwrap();
        let h1 = m.spawn(1, Box::new(echo_kernel)).unwrap();
        for spe in [0, 1] {
            ppe.write_in_mbox(spe, OP_ECHO).unwrap();
            ppe.write_in_mbox(spe, spe as u32 + 10).unwrap();
        }
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 20);
        assert_eq!(ppe.read_out_mbox(1).unwrap(), 22);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        ppe.write_in_mbox(1, OP_EXIT).unwrap();
        h0.join().unwrap();
        h1.join().unwrap();
    }

    #[test]
    fn spawn_rejects_bad_ids_and_double_occupancy() {
        let mut m = small_machine();
        assert!(m.spawn(99, Box::new(echo_kernel)).is_err());
        let _h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        assert!(m.spawn(0, Box::new(echo_kernel)).is_err());
        m.shutdown();
    }

    #[test]
    fn spawn_any_finds_free_slot() {
        let mut m = small_machine();
        let h0 = m.spawn_any(Box::new(echo_kernel)).unwrap();
        let h1 = m.spawn_any(Box::new(echo_kernel)).unwrap();
        assert_eq!(h0.spe_id(), 0);
        assert_eq!(h1.spe_id(), 1);
        assert!(
            m.spawn_any(Box::new(echo_kernel)).is_err(),
            "small config has 2 SPEs"
        );
        m.shutdown();
        h0.join().unwrap_err(); // woken by shutdown → MailboxClosed fault
        h1.join().unwrap_err();
    }

    #[test]
    fn faulting_kernel_reports_on_join() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, 0xDEAD).unwrap(); // unknown opcode
        let err = h.join().unwrap_err();
        assert!(matches!(err, CellError::SpeFault { spe: 0, .. }), "{err}");
    }

    #[test]
    fn shutdown_unblocks_idle_kernels() {
        let mut m = small_machine();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        // Kernel is blocked in read_in_mbox; shutdown must wake it.
        m.shutdown();
        let err = h.join().unwrap_err();
        assert!(matches!(err, CellError::SpeFault { .. }));
    }

    #[test]
    fn panicking_kernel_converts_to_spe_fault() {
        fn bomb(_env: &mut SpeEnv) -> CellResult<()> {
            panic!("kernel bug");
        }
        let mut m = small_machine();
        let h = m.spawn(0, Box::new(bomb)).unwrap();
        let err = h.join().unwrap_err();
        assert!(
            matches!(
                &err,
                CellError::SpeFault { spe: 0, message } if message.contains("panicked")
            ),
            "{err}"
        );
    }

    #[test]
    fn a_stopped_program_reads_as_dead_however_it_stopped() {
        fn bomb(_env: &mut SpeEnv) -> CellResult<()> {
            panic!("kernel bug");
        }
        fn quits(_env: &mut SpeEnv) -> CellResult<()> {
            Ok(())
        }
        let mut m = small_machine();
        let ppe = m.ppe();
        let panicked = m.spawn(0, Box::new(bomb)).unwrap();
        let returned = m.spawn(1, Box::new(quits)).unwrap();
        panicked.join().unwrap_err();
        returned.join().unwrap();
        assert!(!ppe.spe_alive(0).unwrap(), "a panic closes the mailboxes");
        assert!(!ppe.spe_alive(1).unwrap(), "a plain return closes them too");
    }

    #[test]
    fn join_after_shutdown_is_clean_and_prompt() {
        let mut m = small_machine();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        m.shutdown();
        m.shutdown(); // idempotent
        let err = h.join().unwrap_err();
        assert!(
            matches!(&err, CellError::SpeFault { spe: 0, message }
                if message.contains("mailbox peer has shut down")),
            "{err}"
        );
    }

    #[test]
    fn spawn_after_shutdown_is_refused() {
        let mut m = small_machine();
        assert!(!m.is_shut_down());
        m.shutdown();
        assert!(m.is_shut_down());
        assert_eq!(
            m.spawn(0, Box::new(echo_kernel)).map(|_| ()).unwrap_err(),
            CellError::MailboxClosed
        );
    }

    #[test]
    fn faulted_kernel_closes_its_mailboxes() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        assert!(ppe.spe_alive(0).unwrap());
        ppe.write_in_mbox(0, 0xDEAD).unwrap(); // unknown opcode → kernel dies
        let report = h.join_report().unwrap();
        assert!(report.fault.is_some());
        assert!(
            !ppe.spe_alive(0).unwrap(),
            "dead SPE must close its mailboxes"
        );
        assert_eq!(
            ppe.write_in_mbox(0, OP_ECHO).unwrap_err(),
            CellError::MailboxClosed
        );
    }

    #[test]
    fn injected_crash_kills_the_nth_dispatch() {
        use cell_fault::FaultPlan;
        let mut m = small_machine();
        // Each OP_ECHO costs two inbound reads (opcode + value); the third
        // read is the second request's opcode.
        m.set_fault_plan(FaultPlan::new().crash_spe(0, 3));
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 21).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 42, "first call survives");
        // The crash fires as soon as the SPE *attempts* its 3rd read — no
        // further stimulus needed (a write here would race the closure).
        let report = h.join_report().unwrap();
        let fault = report.fault.expect("crash fault recorded");
        assert!(fault.contains("injected fault"), "{fault}");
        assert!(!ppe.spe_alive(0).unwrap());
    }

    #[test]
    fn respawn_revives_a_crashed_spe() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, 0xDEAD).unwrap(); // unknown opcode → kernel dies
        let report = h.join_report().unwrap();
        assert!(report.fault.is_some());
        assert!(!ppe.spe_alive(0).unwrap());

        // Same slot, same PPE handle: the fabric reopens in place.
        let h = m.respawn(0, Box::new(echo_kernel)).unwrap();
        assert!(ppe.spe_alive(0).unwrap());
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 21).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 42);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        assert!(h.join().unwrap().fault.is_none());
        m.shutdown();
    }

    #[test]
    fn retire_wakes_a_wedged_spe_for_respawn() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        // The kernel blocks in read_in_mbox with nothing to read — the
        // shape of a hung SPE. retire() must wake it so join completes.
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        m.retire(0).unwrap();
        let report = h.join_report().unwrap();
        assert!(report.fault.is_some(), "woken by closure, not clean exit");

        let h = m.respawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 5).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 10);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        h.join().unwrap();
        m.shutdown();
    }

    #[test]
    fn respawn_discards_stale_mailbox_words() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        // Leave an unread inbound word behind, then kill the SPE with a
        // second (unknown) opcode read.
        ppe.write_in_mbox(0, 0xDEAD).unwrap();
        h.join_report().unwrap();
        // A stale word in the *inbound* queue would desynchronise the new
        // program's opcode stream; reopen clears it.
        let h = m.respawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 3).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 6);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        h.join().unwrap();
        m.shutdown();
    }

    #[test]
    fn respawn_after_shutdown_is_refused() {
        let mut m = small_machine();
        m.shutdown();
        assert_eq!(
            m.respawn(0, Box::new(echo_kernel)).map(|_| ()).unwrap_err(),
            CellError::MailboxClosed
        );
    }

    #[test]
    fn interrupt_mailbox_path() {
        fn intr_kernel(env: &mut SpeEnv) -> CellResult<()> {
            let v = env.read_in_mbox()?;
            env.write_out_intr_mbox(v + 1)?;
            Ok(())
        }
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(intr_kernel)).unwrap();
        ppe.write_in_mbox(0, 7).unwrap();
        assert_eq!(ppe.read_out_intr_mbox(0).unwrap(), 8);
        h.join().unwrap();
    }

    #[test]
    fn spe_to_spe_signal_chains_kernels() {
        // SPE 0 doubles its input and signals SPE 1 with the result; SPE 1
        // waits on its signal register and reports to the PPE — a two-stage
        // pipeline with no PPE involvement in the hand-off.
        fn stage1(env: &mut SpeEnv) -> CellResult<()> {
            let v = env.read_in_mbox()?;
            env.spu.scalar_op(1);
            env.signal_peer(1, v * 2)?;
            Ok(())
        }
        fn stage2(env: &mut SpeEnv) -> CellResult<()> {
            let v = env.wait_signal1()?;
            env.write_out_mbox(v + 1)?;
            Ok(())
        }
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h0 = m.spawn(0, Box::new(stage1)).unwrap();
        let h1 = m.spawn(1, Box::new(stage2)).unwrap();
        ppe.write_in_mbox(0, 21).unwrap();
        assert_eq!(ppe.read_out_mbox(1).unwrap(), 43);
        let r0 = h0.join().unwrap();
        let r1 = h1.join().unwrap();
        // Causality in virtual time: stage 2 finished after stage 1 signalled.
        assert!(
            r1.cycles > r0.cycles - 200,
            "{} vs {}",
            r1.cycles,
            r0.cycles
        );
    }

    #[test]
    fn self_signal_is_refused() {
        fn selfish(env: &mut SpeEnv) -> CellResult<()> {
            match env.signal_peer(0, 1) {
                Err(CellError::BadConfig { .. }) => Ok(()),
                other => Err(CellError::SpeFault {
                    spe: env.spe_id(),
                    message: format!("expected BadConfig, got {other:?}"),
                }),
            }
        }
        let mut m = small_machine();
        let h = m.spawn(0, Box::new(selfish)).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn machine_trace_captures_every_layer() {
        use cell_trace::{Counter, EventKind, TraceConfig};
        let mut m = small_machine();
        m.set_trace_config(TraceConfig::Full);
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();

        let addr = ppe.mem().alloc(4096, 128).unwrap();
        ppe.mem().write(addr, &vec![1u8; 4096]).unwrap();
        ppe.write_in_mbox(0, OP_SUM).unwrap();
        ppe.write_in_mbox(0, addr as u32).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 1);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        let report = h.join().unwrap();

        // PPE track: sends + the blocking receive.
        let ppe_trace = ppe.take_trace();
        assert_eq!(ppe_trace.counters.get(Counter::MailboxSends), 3);
        assert_eq!(ppe_trace.counters.get(Counter::MailboxRecvs), 1);
        assert!(ppe_trace.counters.get(Counter::TotalCycles) > 0);
        // Mailbox events carry the target SPE in arg1.
        assert!(ppe_trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::MailboxSend)
            .all(|e| e.arg1 == 0));

        // SPE track: mailbox traffic, DMA both ways, compute slices.
        let t = &report.trace;
        assert_eq!(t.counters.get(Counter::MailboxRecvs), 3);
        assert_eq!(t.counters.get(Counter::MailboxSends), 1);
        assert_eq!(t.counters.get(Counter::DmaBytesIn), 4096);
        assert_eq!(t.counters.get(Counter::DmaBytesOut), 16);
        assert!(t.counters.get(Counter::SpuIssues) >= 4096);
        assert_eq!(
            t.counters.get(Counter::LsHighWater),
            report.ls_high_water as u64
        );
        assert_eq!(t.counters.get(Counter::TotalCycles), report.cycles);
        assert!(t.events.iter().any(|e| e.kind == EventKind::DmaGet));
        assert!(t.events.iter().any(|e| e.kind == EventKind::SpuSlice));

        // EIB track: the two DMAs crossed the bus.
        let eib = m.take_eib_trace();
        assert_eq!(eib.counters.get(Counter::EibTransfers), 2);
        assert_eq!(eib.counters.get(Counter::EibBytes), 4096 + 16);
    }

    #[test]
    fn tracing_off_leaves_reports_empty() {
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(echo_kernel)).unwrap();
        ppe.write_in_mbox(0, OP_ECHO).unwrap();
        ppe.write_in_mbox(0, 5).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 10);
        ppe.write_in_mbox(0, OP_EXIT).unwrap();
        let report = h.join().unwrap();
        assert!(report.trace.events.is_empty());
        assert!(report.trace.counters.is_empty());
        assert!(ppe.take_trace().events.is_empty());
    }

    #[test]
    fn signals_reach_kernels() {
        fn signal_kernel(env: &mut SpeEnv) -> CellResult<()> {
            let bits = env.wait_signal1()?;
            env.write_out_mbox(bits)?;
            Ok(())
        }
        let mut m = small_machine();
        let mut ppe = m.ppe();
        let h = m.spawn(0, Box::new(signal_kernel)).unwrap();
        ppe.signal1(0, 0b1010).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 0b1010);
        h.join().unwrap();
    }
}
