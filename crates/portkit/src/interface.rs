//! `SPEInterface` — the PPE-side stub of paper Listings 2 and 3.
//!
//! One [`SpeInterface`] object fronts one kernel statically scheduled on
//! one SPE. The main application never talks mailboxes directly; it calls
//! `send` / `send_and_wait` on the stub, which implements the 2-way
//! protocol of Listing 3:
//!
//! ```text
//! spe_write_in_mbox(spuid, functionCall);   // the opcode
//! spe_write_in_mbox(spuid, value);          // the wrapper address
//! while (spe_stat_out_mbox(spuid) == 0);    // poll (or take the interrupt)
//! retVal = spe_read_out_mbox(spuid);        // completion / result word
//! ```

use cell_core::{CellError, CellResult};
use cell_sys::ppe::Ppe;
use cell_trace::{Counter, EventKind};

use crate::opcodes::SPU_EXIT;
use crate::recovery::poll_reply;

/// How the PPE learns about kernel completion (paper §3.5 step 6: "either
/// by polling or by an interrupt").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyMode {
    /// The PPE spins on `spe_stat_out_mbox` until a word appears. Lowest
    /// latency, burns PPE cycles.
    Polling,
    /// The SPE writes the interrupting mailbox; the PPE sleeps until the
    /// interrupt. Frees the PPE, costs interrupt entry/exit.
    Interrupt,
}

/// The PPE-side stub for one SPE-resident kernel.
#[derive(Debug, Clone)]
pub struct SpeInterface {
    /// Stub label (diagnostics; typically the kernel name).
    pub name: &'static str,
    spe_id: usize,
    reply_mode: ReplyMode,
    /// Calls issued through this stub.
    calls: u64,
    /// PPE clock at the in-flight call's `send`; cleared on completion.
    /// Drives the dispatch span on the PPE trace (send → reply).
    inflight: Option<u64>,
}

impl SpeInterface {
    /// Create a stub bound to SPE `spe_id` (`thread_open` in Listing 2 —
    /// the actual thread is spawned by the machine; static scheduling
    /// keeps it resident and idle between calls, §3.3).
    pub fn new(name: &'static str, spe_id: usize, reply_mode: ReplyMode) -> Self {
        SpeInterface {
            name,
            spe_id,
            reply_mode,
            calls: 0,
            inflight: None,
        }
    }

    /// Record the completed send→reply round trip on the PPE trace.
    pub(crate) fn record_dispatch(&mut self, ppe: &mut Ppe) {
        if let Some(t0) = self.inflight.take() {
            let dur = ppe.clock.now().saturating_sub(t0);
            ppe.tracer_mut().span(
                EventKind::Dispatch,
                self.name,
                t0,
                dur,
                self.spe_id as u64,
                0,
            );
            ppe.tracer_mut().count(Counter::Dispatches, 1);
        }
    }

    pub fn spe_id(&self) -> usize {
        self.spe_id
    }

    pub fn reply_mode(&self) -> ReplyMode {
        self.reply_mode
    }

    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// `Send`: fire the kernel without waiting — write the opcode and the
    /// argument (typically a wrapper address) into the inbound mailbox.
    pub fn send(&mut self, ppe: &mut Ppe, function_call: u32, value: u32) -> CellResult<()> {
        if function_call == SPU_EXIT {
            return Err(CellError::BadKernelSpec {
                message: "use close() to terminate the kernel, not send(SPU_EXIT)".to_string(),
            });
        }
        let t0 = ppe.clock.now();
        ppe.write_in_mbox(self.spe_id, function_call)?;
        ppe.write_in_mbox(self.spe_id, value)?;
        self.calls += 1;
        self.inflight = Some(t0);
        Ok(())
    }

    /// `Wait`: block until the kernel reports completion; returns its
    /// result word. Listing 2's `Wait(timeout)` is
    /// [`SpeInterface::wait_for`].
    pub fn wait(&mut self, ppe: &mut Ppe) -> CellResult<u32> {
        let result = match self.reply_mode {
            ReplyMode::Polling => {
                // Listing 3 polls spe_stat_out_mbox; the blocking read on
                // the simulated mailbox is its virtual-time equivalent
                // (the PPE clock advances to the reply's timestamp).
                ppe.read_out_mbox(self.spe_id)
            }
            ReplyMode::Interrupt => ppe.read_out_intr_mbox(self.spe_id),
        };
        if result.is_ok() {
            self.record_dispatch(ppe);
        }
        result
    }

    /// Non-blocking completion check: `Ok(Some(result))` if the kernel has
    /// replied, `Ok(None)` if it is still running.
    pub fn poll(&mut self, ppe: &mut Ppe) -> CellResult<Option<u32>> {
        if self.reply_mode != ReplyMode::Polling {
            return Err(CellError::BadKernelSpec {
                message: "poll() requires ReplyMode::Polling".to_string(),
            });
        }
        let reply = poll_reply(ppe, self.spe_id)?;
        if reply.is_some() {
            self.record_dispatch(ppe);
        }
        Ok(reply)
    }

    /// `SendAndWait`: the full Listing 3 protocol.
    pub fn send_and_wait(
        &mut self,
        ppe: &mut Ppe,
        function_call: u32,
        value: u32,
    ) -> CellResult<u32> {
        self.send(ppe, function_call, value)?;
        self.wait(ppe)
    }

    /// `thread_close`: command the dispatcher to exit its idle loop.
    pub fn close(&self, ppe: &mut Ppe) -> CellResult<()> {
        ppe.write_in_mbox(self.spe_id, SPU_EXIT)
    }
}

/// Fire a batch of stubs and wait for all of them — the grouped-parallel
/// execution of Fig. 4(c): all sends go out before any wait, so the SPEs
/// compute concurrently and the PPE resumes at the latest completion.
pub fn send_all_wait_all(
    ppe: &mut Ppe,
    calls: &mut [(&mut SpeInterface, u32, u32)],
) -> CellResult<Vec<u32>> {
    for (iface, op, val) in calls.iter_mut() {
        iface.send(ppe, *op, *val)?;
    }
    let mut results = Vec::with_capacity(calls.len());
    for (iface, _, _) in calls.iter_mut() {
        results.push(iface.wait(ppe)?);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::KernelDispatcher;
    use cell_core::MachineConfig;
    use cell_sys::machine::CellMachine;

    fn adder_machine(
        mode: ReplyMode,
    ) -> (
        CellMachine,
        Ppe,
        SpeInterface,
        u32,
        cell_sys::machine::SpeHandle,
    ) {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let ppe = m.ppe();
        let mut d = KernelDispatcher::new("adder", mode);
        let op = d.register("add_seven", |env, v| {
            env.spu.scalar_op(1);
            Ok(v + 7)
        });
        let h = m.spawn(0, Box::new(d)).unwrap();
        let iface = SpeInterface::new("adder", 0, mode);
        (m, ppe, iface, op, h)
    }

    #[test]
    fn send_and_wait_roundtrip_polling() {
        let (_m, mut ppe, mut iface, op, h) = adder_machine(ReplyMode::Polling);
        assert_eq!(iface.send_and_wait(&mut ppe, op, 10).unwrap(), 17);
        assert_eq!(iface.send_and_wait(&mut ppe, op, 100).unwrap(), 107);
        assert_eq!(iface.calls(), 2);
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn send_and_wait_roundtrip_interrupt() {
        let (_m, mut ppe, mut iface, op, h) = adder_machine(ReplyMode::Interrupt);
        assert_eq!(iface.send_and_wait(&mut ppe, op, 1).unwrap(), 8);
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn split_send_then_wait() {
        let (_m, mut ppe, mut iface, op, h) = adder_machine(ReplyMode::Polling);
        iface.send(&mut ppe, op, 5).unwrap();
        // PPE can do other work here (Fig. 4c) ...
        ppe.charge_cycles(1000);
        assert_eq!(iface.wait(&mut ppe).unwrap(), 12);
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn poll_reports_pending_then_result() {
        let (_m, mut ppe, mut iface, op, h) = adder_machine(ReplyMode::Polling);
        iface.send(&mut ppe, op, 2).unwrap();
        // Spin until the reply lands (host-concurrency wait, virtual time
        // is settled by the timestamp on the reply).
        loop {
            if let Some(r) = iface.poll(&mut ppe).unwrap() {
                assert_eq!(r, 9);
                break;
            }
            std::thread::yield_now();
        }
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn poll_in_interrupt_mode_is_an_error() {
        let (_m, mut ppe, mut iface, _op, h) = adder_machine(ReplyMode::Interrupt);
        assert!(iface.poll(&mut ppe).is_err());
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn send_rejects_exit_opcode() {
        let (_m, mut ppe, mut iface, _op, h) = adder_machine(ReplyMode::Polling);
        assert!(iface.send(&mut ppe, SPU_EXIT, 0).is_err());
        iface.close(&mut ppe).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn group_send_all_wait_all() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut ops = Vec::new();
        let mut handles = Vec::new();
        for spe in 0..2 {
            let mut d = KernelDispatcher::new("worker", ReplyMode::Polling);
            let op = d.register("mul3", |_, v| Ok(v * 3));
            ops.push(op);
            handles.push(m.spawn(spe, Box::new(d)).unwrap());
        }
        let mut a = SpeInterface::new("a", 0, ReplyMode::Polling);
        let mut b = SpeInterface::new("b", 1, ReplyMode::Polling);
        let results =
            send_all_wait_all(&mut ppe, &mut [(&mut a, ops[0], 10), (&mut b, ops[1], 20)]).unwrap();
        assert_eq!(results, vec![30, 60]);
        a.close(&mut ppe).unwrap();
        b.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }
}
