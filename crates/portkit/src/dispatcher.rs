//! The SPE-side function dispatcher — paper Listing 1 as a library type.
//!
//! A ported kernel is rarely one function: the paper clusters several
//! methods around a computation core, and each becomes a `case` in the SPE
//! main loop. [`KernelDispatcher`] owns that loop: register functions in
//! order, run, and the dispatcher reads `(opcode, argument)` pairs from
//! the inbound mailbox, invokes the matching function, and reports its
//! result through the outbound mailbox (polling mode) or the interrupting
//! mailbox (interrupt mode), exactly like the `POLLING`/`INTERRUPT` arms
//! of the listing.
//!
//! # The kernel-backend seam
//!
//! Each dispatch slot names either a **native** Rust kernel
//! ([`KernelDispatcher::register`]) or an **uploaded SPU program
//! image** ([`KernelDispatcher::register_image`]) interpreted by
//! [`cell_isa`]. Both share one opcode space, one wire contract, and
//! one reply path, so PPE-side dispatch scripts — and everything built
//! on them (cell-engine, the marvel/stencil drivers) — are oblivious
//! to which backend serves an opcode. Images are laid out in the local
//! store's code region (base 0, 16-byte aligned) and uploaded once, on
//! the first dispatch; every interpreted invocation runs on a fresh
//! interpreter and feeds its [`ExecTrace`] into the optional trace
//! sink for executed-behavior linting.

use std::sync::{Arc, Mutex};

use cell_core::{CellError, CellResult};
use cell_isa::{ExecTrace, Interpreter, IsaImage};
use cell_sys::spe::{SpeEnv, SpeProgram};
use cell_trace::{Counter, EventKind};

use crate::interface::ReplyMode;
use crate::opcodes::{run_opcode, OpcodeTable, MAX_BATCH, SPU_BATCH, SPU_EXIT, SPU_OK, SPU_SPAN};

/// A kernel function: receives the environment and the 32-bit argument the
/// stub sent (conventionally a main-memory wrapper address), returns the
/// 32-bit result word for the reply mailbox.
pub type KernelFn = Box<dyn FnMut(&mut SpeEnv, u32) -> CellResult<u32> + Send + 'static>;

/// Which execution backend serves a dispatch slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// A native Rust kernel charged by the analytic cost model.
    Native,
    /// An uploaded SPU program image run by the `cell_isa` interpreter.
    Isa,
}

impl KernelBackend {
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Native => "native",
            KernelBackend::Isa => "isa",
        }
    }
}

/// One dispatch slot: a native function or an interpreted image.
enum KernelEntry {
    Native(KernelFn),
    Isa(IsaKernel),
}

struct IsaKernel {
    image: IsaImage,
    /// LS byte address the image is uploaded to (16-aligned, inside
    /// the code region).
    code_base: u32,
}

/// Sink the dispatcher merges every interpreted invocation's
/// [`ExecTrace`] into, for executed-behavior linting.
pub type IsaTraceSink = Arc<Mutex<ExecTrace>>;

/// The SPE main loop of paper Listing 1.
pub struct KernelDispatcher {
    name: &'static str,
    functions: Vec<(&'static str, KernelEntry)>,
    reply_mode: ReplyMode,
    /// Next free offset in the LS code region for uploaded images.
    next_code_base: u32,
    /// Images are uploaded to the local store once, at first dispatch.
    images_uploaded: bool,
    isa_trace_sink: Option<IsaTraceSink>,
}

impl KernelDispatcher {
    pub fn new(name: &'static str, reply_mode: ReplyMode) -> Self {
        KernelDispatcher {
            name,
            functions: Vec::new(),
            reply_mode,
            next_code_base: 0,
            images_uploaded: false,
            isa_trace_sink: None,
        }
    }

    /// Register the next kernel function; returns the opcode the PPE stub
    /// must send to invoke it.
    pub fn register(
        &mut self,
        fn_name: &'static str,
        f: impl FnMut(&mut SpeEnv, u32) -> CellResult<u32> + Send + 'static,
    ) -> u32 {
        self.functions
            .push((fn_name, KernelEntry::Native(Box::new(f))));
        run_opcode(self.functions.len() as u32 - 1)
    }

    /// Register an assembled SPU program image in the next dispatch
    /// slot; returns its opcode. The image is assigned a 16-aligned
    /// base in the LS code region and uploaded on first dispatch; the
    /// dispatch argument arrives in the program's r3 preferred slot and
    /// its `stop`-time r3 becomes the reply word.
    pub fn register_image(&mut self, fn_name: &'static str, image: IsaImage) -> u32 {
        let code_base = self.next_code_base;
        self.next_code_base += ((image.bytes.len() as u32) + 15) & !15;
        self.functions
            .push((fn_name, KernelEntry::Isa(IsaKernel { image, code_base })));
        run_opcode(self.functions.len() as u32 - 1)
    }

    /// Accumulate every interpreted invocation's execution trace here.
    pub fn set_isa_trace_sink(&mut self, sink: IsaTraceSink) {
        self.isa_trace_sink = Some(sink);
    }

    /// The backend serving each slot, in registration order.
    #[must_use]
    pub fn backends(&self) -> Vec<(&'static str, KernelBackend)> {
        self.functions
            .iter()
            .map(|(name, entry)| {
                let backend = match entry {
                    KernelEntry::Native(_) => KernelBackend::Native,
                    KernelEntry::Isa(_) => KernelBackend::Isa,
                };
                (*name, backend)
            })
            .collect()
    }

    /// Upload every registered image into the LS code region (idempotent).
    fn ensure_images_uploaded(&mut self, env: &mut SpeEnv) -> CellResult<()> {
        if self.images_uploaded {
            return Ok(());
        }
        let reserved = env.ls.code_reserved() as u32;
        for (fn_name, entry) in &self.functions {
            if let KernelEntry::Isa(kernel) = entry {
                let end = kernel.code_base + kernel.image.bytes.len() as u32;
                if end > reserved {
                    return Err(CellError::BadKernelSpec {
                        message: format!(
                            "image `{fn_name}` ends at {end} bytes, beyond the \
                             {reserved} byte LS code region"
                        ),
                    });
                }
                env.ls.write(kernel.code_base, &kernel.image.bytes)?;
            }
        }
        self.images_uploaded = true;
        Ok(())
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// The dispatcher's wire codec: every registered function name and
    /// its opcode, in registration order. PPE-side codecs and static
    /// analyzers derive opcodes from this table by name — the single
    /// source that keeps dispatch scripts honest about what the SPE
    /// dispatcher actually serves.
    #[must_use]
    pub fn opcode_table(&self) -> OpcodeTable {
        OpcodeTable::from_names(self.functions.iter().map(|(name, _)| *name))
    }

    /// Reject an opcode with no registered function *before* the arg word
    /// is read, so a bad script faults immediately instead of blocking on
    /// a mailbox word that will never arrive.
    fn check_opcode(&self, opcode: u32) -> CellResult<()> {
        let idx = (opcode.wrapping_sub(run_opcode(0))) as usize;
        if self.functions.get(idx).is_none() {
            return Err(CellError::UnknownOpcode { opcode });
        }
        Ok(())
    }

    /// Run one registered function and reply-less-ly return its status
    /// word (the common core of single and batched dispatch). A checksum
    /// mismatch is a *retryable* data fault, not an SPE fault: the kernel
    /// saw a corrupted payload, but the SPE itself is healthy — report
    /// `SPU_CORRUPT` so the stub retransmits instead of tearing down.
    fn run_function(&mut self, env: &mut SpeEnv, opcode: u32, arg: u32) -> CellResult<u32> {
        self.ensure_images_uploaded(env)?;
        let idx = (opcode.wrapping_sub(run_opcode(0))) as usize;
        let Some((fn_name, entry)) = self.functions.get_mut(idx) else {
            return Err(CellError::UnknownOpcode { opcode });
        };
        let fn_name = *fn_name;
        let t0 = env.clock.now();
        let invoke = match entry {
            KernelEntry::Native(f) => f(env, arg),
            KernelEntry::Isa(kernel) => {
                // A fresh interpreter per invocation: registers carry no
                // state between dispatches, exactly like the LS reset on
                // the data side.
                let mut interp = Interpreter::new();
                let result = interp.run(env, kernel.code_base + kernel.image.entry, arg);
                let trace = interp.into_trace();
                env.tracer_mut()
                    .count(Counter::IsaInstructions, trace.instructions);
                if let Some(sink) = &self.isa_trace_sink {
                    sink.lock().unwrap().merge(&trace);
                }
                result
            }
        };
        let result = match invoke {
            Ok(r) => r,
            Err(CellError::ChecksumMismatch { .. }) => crate::opcodes::SPU_CORRUPT,
            Err(e) => return Err(e),
        };
        // Fold outstanding SIMD work into the clock so the kernel span
        // covers the invocation's full virtual duration.
        env.charge_compute();
        let dur = env.clock.now().saturating_sub(t0);
        env.tracer_mut()
            .span(EventKind::Kernel, fn_name, t0, dur, idx as u64, 0);
        env.tracer_mut().count(Counter::KernelInvocations, 1);
        // Idle-loop reset: the static scheduling of §3.3 keeps the SPE
        // resident; each invocation reuses the data region afresh.
        env.ls.reset();
        Ok(result)
    }

    /// `SPU_BATCH`: read a member count, then that many `(opcode, arg)`
    /// pairs, run them back to back, and fold the member statuses into
    /// one reply word — `SPU_OK`, or a bitmask of failed member indices.
    fn dispatch_batch(&mut self, env: &mut SpeEnv) -> CellResult<u32> {
        let count = env.read_in_mbox()? as usize;
        if count == 0 || count > MAX_BATCH {
            return Err(CellError::BadKernelSpec {
                message: format!("SPU_BATCH count {count} outside 1..={MAX_BATCH}"),
            });
        }
        let mut failed: u32 = 0;
        for member in 0..count {
            let opcode = env.read_in_mbox()?;
            self.check_opcode(opcode)?;
            let arg = env.read_in_mbox()?;
            if self.run_function(env, opcode, arg)? != SPU_OK {
                failed |= 1 << member;
            }
        }
        env.tracer_mut().count_max(Counter::BatchSize, count as u64);
        Ok(failed)
    }

    fn dispatch_once(&mut self, env: &mut SpeEnv) -> CellResult<bool> {
        let mut opcode = env.read_in_mbox()?;
        if opcode == SPU_SPAN {
            // Request span context: one extra word carries the trace id;
            // everything until the reply — kernel spans, DMA events —
            // is attributed to that request. Baseline requests omit the
            // prefix entirely.
            let span = env.read_in_mbox()?;
            env.set_span_context(u64::from(span));
            opcode = env.read_in_mbox()?;
        }
        let continue_ = self.dispatch_opcode(env, opcode);
        env.clear_span_context();
        continue_
    }

    /// Serve one already-read opcode: exit, batch, or a single function.
    fn dispatch_opcode(&mut self, env: &mut SpeEnv, opcode: u32) -> CellResult<bool> {
        if opcode == SPU_EXIT {
            return Ok(false);
        }
        if opcode == SPU_BATCH {
            let status = self.dispatch_batch(env)?;
            match self.reply_mode {
                ReplyMode::Polling => env.write_out_mbox(status)?,
                ReplyMode::Interrupt => env.write_out_intr_mbox(status)?,
            }
            return Ok(true);
        }
        self.check_opcode(opcode)?;
        let arg = env.read_in_mbox()?;
        let result = self.run_function(env, opcode, arg)?;
        match self.reply_mode {
            ReplyMode::Polling => env.write_out_mbox(result)?,
            ReplyMode::Interrupt => env.write_out_intr_mbox(result)?,
        }
        Ok(true)
    }
}

impl SpeProgram for KernelDispatcher {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&mut self, env: &mut SpeEnv) -> CellResult<()> {
        while self.dispatch_once(env)? {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_core::MachineConfig;
    use cell_sys::machine::CellMachine;

    #[test]
    fn register_assigns_sequential_opcodes() {
        let mut d = KernelDispatcher::new("k", ReplyMode::Polling);
        assert!(d.is_empty());
        let op1 = d.register("one", |_, v| Ok(v + 1));
        let op2 = d.register("two", |_, v| Ok(v + 2));
        assert_eq!(op1, 1);
        assert_eq!(op2, 2);
        assert_eq!(d.len(), 2);
        // The table agrees with the registration returns — codecs can
        // derive either way, but the table is the canonical source.
        let table = d.opcode_table();
        assert_eq!(table.require("one"), op1);
        assert_eq!(table.require("two"), op2);
    }

    #[test]
    fn dispatcher_runs_functions_and_exits() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("adder", ReplyMode::Polling);
        let op_inc = d.register("inc", |_, v| Ok(v + 1));
        let op_dbl = d.register("dbl", |_, v| Ok(v * 2));
        let h = m.spawn(0, Box::new(d)).unwrap();

        ppe.write_in_mbox(0, op_inc).unwrap();
        ppe.write_in_mbox(0, 10).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 11);

        ppe.write_in_mbox(0, op_dbl).unwrap();
        ppe.write_in_mbox(0, 10).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 20);

        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        let report = h.join().unwrap();
        assert!(report.fault.is_none());
    }

    #[test]
    fn interrupt_mode_replies_on_intr_mailbox() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("intr", ReplyMode::Interrupt);
        let op = d.register("id", |_, v| Ok(v));
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, op).unwrap();
        ppe.write_in_mbox(0, 77).unwrap();
        assert_eq!(ppe.read_out_intr_mbox(0).unwrap(), 77);
        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn unknown_opcode_faults_the_spe() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("strict", ReplyMode::Polling);
        d.register("only", |_, v| Ok(v));
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, 999).unwrap();
        let err = h.join().unwrap_err();
        assert!(matches!(err, CellError::SpeFault { .. }), "{err}");
    }

    #[test]
    fn kernel_error_propagates() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("fail", ReplyMode::Polling);
        let op = d.register("boom", |env, _| {
            Err(cell_sys::spe::spe_fault(env.spe_id(), "deliberate"))
        });
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, op).unwrap();
        ppe.write_in_mbox(0, 0).unwrap();
        assert!(h.join().is_err());
    }

    #[test]
    fn batch_runs_members_and_replies_one_status() {
        use crate::opcodes::{SPU_BATCH, SPU_OK};
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        m.set_trace_config(cell_trace::TraceConfig::Full);
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("batched", ReplyMode::Polling);
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let hits_in = hits.clone();
        let op = d.register("bump", move |_, v| {
            hits_in.fetch_add(v, std::sync::atomic::Ordering::SeqCst);
            Ok(SPU_OK)
        });
        let h = m.spawn(0, Box::new(d)).unwrap();
        // One round-trip carries three requests: 2 + 2·3 mailbox words in,
        // one status word back.
        ppe.write_in_mbox(0, SPU_BATCH).unwrap();
        ppe.write_in_mbox(0, 3).unwrap();
        for v in [10, 20, 30] {
            ppe.write_in_mbox(0, op).unwrap();
            ppe.write_in_mbox(0, v).unwrap();
        }
        assert_eq!(ppe.read_out_mbox(0).unwrap(), SPU_OK);
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 60);
        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        let report = h.join().unwrap();
        assert_eq!(report.trace.counters.get(Counter::KernelInvocations), 3);
        assert_eq!(report.trace.counters.get(Counter::BatchSize), 3);
    }

    #[test]
    fn batch_reports_failed_members_as_bitmask() {
        use crate::opcodes::{SPU_BATCH, SPU_OK};
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("batched", ReplyMode::Polling);
        // Status is the argument: non-zero args simulate per-member
        // checksum failures.
        let op = d.register("status", |_, v| Ok(v));
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, SPU_BATCH).unwrap();
        ppe.write_in_mbox(0, 3).unwrap();
        for status in [SPU_OK, 1, SPU_OK] {
            ppe.write_in_mbox(0, op).unwrap();
            ppe.write_in_mbox(0, status).unwrap();
        }
        // Member 1 failed → bit 1 set.
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 0b010);
        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn batch_rejects_zero_and_oversized_counts() {
        use crate::opcodes::SPU_BATCH;
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("batched", ReplyMode::Polling);
        d.register("noop", |_, _| Ok(0));
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, SPU_BATCH).unwrap();
        ppe.write_in_mbox(0, 0).unwrap();
        assert!(h.join().is_err());
    }

    #[test]
    fn span_prefix_tags_the_dispatch_and_clears_after_reply() {
        use crate::opcodes::SPU_SPAN;
        use cell_trace::EventKind;
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        m.set_trace_config(cell_trace::TraceConfig::Full);
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("spanned", ReplyMode::Polling);
        let op = d.register("inc", |_, v| Ok(v + 1));
        let h = m.spawn(0, Box::new(d)).unwrap();
        // First dispatch carries a span prefix, second does not.
        ppe.write_in_mbox(0, SPU_SPAN).unwrap();
        ppe.write_in_mbox(0, 42).unwrap();
        ppe.write_in_mbox(0, op).unwrap();
        ppe.write_in_mbox(0, 5).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 6);
        ppe.write_in_mbox(0, op).unwrap();
        ppe.write_in_mbox(0, 7).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), 8);
        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        let report = h.join().unwrap();
        let kernels: Vec<u64> = report
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Kernel)
            .map(|e| e.span)
            .collect();
        assert_eq!(kernels, vec![42, 0], "prefix tags one dispatch only");
        // The reply mailbox send of the tagged dispatch carries the span.
        assert!(report
            .trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::MailboxSend && e.span == 42));
    }

    #[test]
    fn span_prefix_composes_with_batch_framing() {
        use crate::opcodes::{SPU_BATCH, SPU_OK, SPU_SPAN};
        use cell_trace::EventKind;
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        m.set_trace_config(cell_trace::TraceConfig::Full);
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("spanbatch", ReplyMode::Polling);
        let op = d.register("ok", |_, _| Ok(SPU_OK));
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, SPU_SPAN).unwrap();
        ppe.write_in_mbox(0, 9).unwrap();
        ppe.write_in_mbox(0, SPU_BATCH).unwrap();
        ppe.write_in_mbox(0, 2).unwrap();
        for _ in 0..2 {
            ppe.write_in_mbox(0, op).unwrap();
            ppe.write_in_mbox(0, 0).unwrap();
        }
        assert_eq!(ppe.read_out_mbox(0).unwrap(), SPU_OK);
        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        let report = h.join().unwrap();
        let kernels: Vec<u64> = report
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Kernel)
            .map(|e| e.span)
            .collect();
        assert_eq!(kernels, vec![9, 9], "every batch member inherits the span");
    }

    #[test]
    fn ls_is_reset_between_invocations() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("alloc", ReplyMode::Polling);
        // Allocates half the LS per call: would overflow on the second call
        // without the dispatcher's reset.
        let op = d.register("hog", |env, _| {
            let _ = env.ls.alloc(24 * 1024, 16)?;
            Ok(0)
        });
        let h = m.spawn(0, Box::new(d)).unwrap();
        for _ in 0..4 {
            ppe.write_in_mbox(0, op).unwrap();
            ppe.write_in_mbox(0, 0).unwrap();
            assert_eq!(ppe.read_out_mbox(0).unwrap(), 0);
        }
        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn isa_and_native_kernels_share_one_dispatch_seam() {
        use cell_isa::{build_gray_kernel, native_gray, write_header, KernelHeader};

        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        m.set_trace_config(cell_trace::TraceConfig::Full);
        let mem = std::sync::Arc::clone(m.mem());
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("seam", ReplyMode::Polling);
        let op_native = d.register("gray_native", native_gray);
        let op_isa = d.register_image("gray_isa", build_gray_kernel().unwrap());
        let sink: IsaTraceSink = std::sync::Arc::default();
        d.set_isa_trace_sink(std::sync::Arc::clone(&sink));
        assert_eq!(
            d.backends(),
            vec![
                ("gray_native", KernelBackend::Native),
                ("gray_isa", KernelBackend::Isa)
            ]
        );

        let count = 16u32;
        let input: Vec<u8> = (0..count * 4).map(|i| (i * 7) as u8).collect();
        let in_ea = mem.alloc(input.len(), 16).unwrap();
        mem.write(in_ea, &input).unwrap();
        let out_ea = mem.alloc(count as usize * 4, 16).unwrap();
        let hdr_ea = mem.alloc(16, 16).unwrap();
        let header = KernelHeader {
            in_ea: in_ea as u32,
            out_ea: out_ea as u32,
            count,
            param: 0,
        };
        write_header(&mem, hdr_ea, header).unwrap();

        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, op_native).unwrap();
        ppe.write_in_mbox(0, hdr_ea as u32).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), count);
        let mut native_out = vec![0u8; count as usize * 4];
        mem.read(out_ea, &mut native_out).unwrap();

        mem.fill(out_ea, 0, count as usize * 4).unwrap();
        ppe.write_in_mbox(0, op_isa).unwrap();
        ppe.write_in_mbox(0, hdr_ea as u32).unwrap();
        assert_eq!(ppe.read_out_mbox(0).unwrap(), count);
        let mut isa_out = vec![0u8; count as usize * 4];
        mem.read(out_ea, &mut isa_out).unwrap();

        ppe.write_in_mbox(0, SPU_EXIT).unwrap();
        let report = h.join().unwrap();
        assert_eq!(isa_out, native_out, "backends diverge through the seam");
        let trace = sink.lock().unwrap();
        assert!(trace.instructions > 0, "trace sink never fed");
        assert_eq!(
            report.trace.counters.get(Counter::IsaInstructions),
            trace.instructions,
            "report counter must match the sink's instruction count"
        );
    }

    #[test]
    fn oversized_image_is_rejected_at_first_dispatch() {
        let mut a = cell_isa::Assembler::new();
        // 3000 words ≈ 12 KB of nops: larger than small()'s 8 KB code region.
        for _ in 0..3000 {
            a.nop();
        }
        a.stop(0);
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("fat", ReplyMode::Polling);
        let op = d.register_image("fat", a.assemble().unwrap());
        let h = m.spawn(0, Box::new(d)).unwrap();
        ppe.write_in_mbox(0, op).unwrap();
        ppe.write_in_mbox(0, 0).unwrap();
        assert!(h.join().is_err());
    }
}
