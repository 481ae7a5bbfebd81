//! DMA commands, tag groups, and the MFC command queue.
//!
//! Semantics reproduced from the Cell architecture documents the paper
//! relies on:
//!
//! * single transfers move 1, 2, 4, 8 or a multiple of 16 bytes, capped at
//!   16 KB, with naturally aligned addresses (quadword alignment for bulk
//!   transfers; 128-byte alignment is rewarded by the EIB model);
//! * each command carries a *tag group* 0..=31; completion is awaited per
//!   tag mask, never per command;
//! * the command queue holds 16 entries — issuing into a full queue stalls
//!   the SPU (that stall is visible in the virtual clock, which is exactly
//!   the effect multibuffering is meant to hide);
//! * DMA lists gather up to 2048 `(effective address, size)` elements
//!   under a single command / queue slot.

use std::collections::VecDeque;
use std::sync::Arc;

use cell_core::{dma_transfer_legal, CellError, CellResult, DmaConfig, VirtualClock, QUADWORD};
use cell_eib::{Eib, Element};
use cell_fault::{FaultKind, FaultLine};
use cell_mem::{LocalStore, LsAddr, MainMemory};
use cell_trace::{Counter, EventKind, Tracer, TrackData};

/// Number of DMA tag groups.
pub const MAX_TAGS: usize = 32;

/// A set of tag groups expressed as a 32-bit mask (bit *i* = tag *i*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagMask(pub u32);

impl TagMask {
    pub fn single(tag: u32) -> CellResult<TagMask> {
        if tag as usize >= MAX_TAGS {
            return Err(CellError::BadTagGroup { tag });
        }
        Ok(TagMask(1 << tag))
    }

    pub fn all() -> TagMask {
        TagMask(u32::MAX)
    }

    pub fn contains(self, tag: u32) -> bool {
        tag < 32 && self.0 & (1 << tag) != 0
    }
}

/// Counters the SPE runtime folds into its operation profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MfcStats {
    /// Bytes moved main memory → local store.
    pub bytes_in: u64,
    /// Bytes moved local store → main memory.
    pub bytes_out: u64,
    /// Discrete transfers issued (list elements count individually).
    pub transfers: u64,
    /// DMA-list commands issued.
    pub list_commands: u64,
    /// SPU cycles spent stalled waiting on tags or a full queue.
    pub stall_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    complete_at: u64, // SPU cycles
}

/// One SPE's DMA engine.
///
/// Owned by the SPE thread; `get`/`put` move real bytes between the shared
/// [`MainMemory`] and the caller's [`LocalStore`], and account virtual time
/// against the caller's [`VirtualClock`] using the shared EIB calendar.
#[derive(Debug)]
pub struct Mfc {
    spe_id: usize,
    mem: Arc<MainMemory>,
    eib: Arc<Eib>,
    cfg: DmaConfig,
    queue: VecDeque<Pending>,
    tag_complete: [u64; MAX_TAGS],
    stats: MfcStats,
    /// SPU cycles charged per channel command (issue overhead).
    issue_cost: u64,
    /// Completion floor set by `mfc_barrier`: no later command may
    /// complete before it.
    barrier_floor: u64,
    /// Structured trace sink; `Off` by default (the SPE runtime installs
    /// a configured tracer when the machine has tracing enabled).
    tracer: Tracer,
    /// Seeded fault plan for this SPE's transfers; empty by default, so the
    /// hot path pays a single `is_empty` branch (chaos testing only).
    fault_line: FaultLine,
}

/// Direction of a transfer, used internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Get,
    Put,
}

impl Mfc {
    pub fn new(spe_id: usize, mem: Arc<MainMemory>, eib: Arc<Eib>, cfg: DmaConfig) -> Self {
        Mfc {
            spe_id,
            mem,
            eib,
            cfg,
            queue: VecDeque::with_capacity(cfg.queue_depth),
            tag_complete: [0; MAX_TAGS],
            stats: MfcStats::default(),
            issue_cost: 6,
            barrier_floor: 0,
            tracer: Tracer::off(),
            fault_line: FaultLine::off(),
        }
    }

    /// Install a tracer (typically `Track::Spe(id)` at the core clock).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Install a fault line armed from a [`cell_fault::FaultPlan`] at
    /// [`cell_fault::FaultSite::Dma`] for this SPE.
    pub fn set_fault_line(&mut self, line: FaultLine) {
        self.fault_line = line;
    }

    /// Take the accumulated trace, leaving a disabled tracer behind.
    pub fn take_tracer(&mut self) -> TrackData {
        std::mem::replace(&mut self.tracer, Tracer::off()).finish()
    }

    /// The MFC's tracer, mutably — the SPE environment forwards request
    /// span context here so DMA events carry the same trace id as the
    /// kernel that issued them.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    pub fn spe_id(&self) -> usize {
        self.spe_id
    }

    pub fn stats(&self) -> MfcStats {
        self.stats
    }

    /// Shared main memory handle (for the SPE runtime).
    pub fn memory(&self) -> &Arc<MainMemory> {
        &self.mem
    }

    fn validate(&self, ea: u64, la: LsAddr, size: usize) -> CellResult<()> {
        if size == 0
            || size > self.cfg.max_transfer
            || !matches!(size, 1 | 2 | 4 | 8) && !size.is_multiple_of(QUADWORD)
        {
            return Err(CellError::BadDmaSize { size });
        }
        if !dma_transfer_legal(ea, size) {
            return Err(CellError::Misaligned {
                what: "DMA effective address",
                addr: ea,
                required: QUADWORD,
            });
        }
        if !dma_transfer_legal(la as u64, size) {
            return Err(CellError::Misaligned {
                what: "DMA local-store address",
                addr: la as u64,
                required: QUADWORD,
            });
        }
        Ok(())
    }

    /// Drop queue entries that have completed by `now`.
    fn drain_completed(&mut self, now: u64) {
        self.queue.retain(|p| p.complete_at > now);
    }

    /// Admit one command into the 16-entry queue, stalling the SPU if full.
    fn admit(&mut self, clock: &mut VirtualClock) {
        self.drain_completed(clock.now());
        if self.queue.len() >= self.cfg.queue_depth {
            // Stall until the earliest entry retires.
            let earliest = self
                .queue
                .iter()
                .map(|p| p.complete_at)
                .min()
                .unwrap_or_else(|| clock.now());
            let stall = earliest.saturating_sub(clock.now());
            self.stats.stall_cycles += stall;
            self.tracer.count(Counter::DmaStallCycles, stall);
            clock.advance_to(earliest);
            self.drain_completed(clock.now());
        }
    }

    /// Schedule the bus work for one transfer; returns SPU-cycle completion.
    fn schedule(&mut self, dir: Dir, size: usize, clock: &VirtualClock) -> u64 {
        let bus_freq = self.eib.bus_frequency();
        let bus_now = clock.translate_to(bus_freq) + self.cfg.startup_bus_cycles;
        let (src, dst) = match dir {
            Dir::Get => (Element::Memory, Element::Spe(self.spe_id)),
            Dir::Put => (Element::Spe(self.spe_id), Element::Memory),
        };
        let grant = self.eib.transfer(src, dst, size, bus_now);
        clock.stamp_from(grant.complete, bus_freq)
    }

    /// Apply an injected DMA fault to one transfer's completion time.
    ///
    /// * `DmaDelay` pushes completion out by the given bus-congestion
    ///   penalty — the transfer still succeeds, just late.
    /// * `DmaFault` models a transient failure the MFC retries internally:
    ///   completion slips by the retry penalty and a retry is counted.
    /// * `DmaCorrupt` is traced here, but its functional effect (the bit
    ///   flip, and the checksum-triggered retransmission when
    ///   `DmaConfig::integrity` is set) happens in [`Mfc::issue_one`],
    ///   which owns the payload.
    ///
    /// Delay and retry are visible only through the virtual clock (and
    /// the trace); their functional byte movement already happened, so
    /// data integrity is untouched — exactly the property the chaos
    /// tests assert.
    #[cold]
    fn inject_dma_fault(&mut self, kind: FaultKind, complete_at: u64, now: u64) -> u64 {
        match kind {
            FaultKind::DmaDelay { cycles } => {
                self.tracer.count(Counter::FaultsInjected, 1);
                self.tracer.span(
                    EventKind::Fault,
                    "dma_delay",
                    now,
                    cycles,
                    self.spe_id as u64,
                    0,
                );
                complete_at + cycles
            }
            FaultKind::DmaFault { retry_penalty } => {
                self.tracer.count(Counter::FaultsInjected, 1);
                self.tracer.count(Counter::Retries, 1);
                self.tracer.span(
                    EventKind::Fault,
                    "dma_retry",
                    now,
                    retry_penalty,
                    self.spe_id as u64,
                    1,
                );
                complete_at + retry_penalty
            }
            FaultKind::DmaCorrupt => {
                self.tracer.count(Counter::FaultsInjected, 1);
                self.tracer.span(
                    EventKind::Fault,
                    "dma_corrupt",
                    now,
                    0,
                    self.spe_id as u64,
                    2,
                );
                complete_at
            }
            // SPE-dispatch and mailbox fault kinds never reach the DMA
            // line; `FaultPlan::arm` filters by site.
            _ => complete_at,
        }
    }

    /// Flip one bit mid-payload at the transfer's *destination* — local
    /// store for a get, main memory for a put — modelling in-flight
    /// corruption the source never sees.
    #[cold]
    fn corrupt_payload(&mut self, dir: Dir, ls: &mut LocalStore, la: LsAddr, ea: u64, size: usize) {
        let off = size / 2;
        let flipped = match dir {
            Dir::Get => ls.slice_mut(la, size).map(|buf| {
                buf[off] ^= 0x01;
            }),
            Dir::Put => {
                let mut b = [0u8; 1];
                self.mem.read(ea + off as u64, &mut b).and_then(|()| {
                    b[0] ^= 0x01;
                    self.mem.write(ea + off as u64, &b)
                })
            }
        };
        debug_assert!(flipped.is_ok(), "corruption targets the validated range");
    }

    /// Checksummed-DMA mode: compare the destination payload against the
    /// source checksum computed before corruption could strike; on
    /// mismatch redo the byte move from the (intact) source, charge the
    /// configured retransmission penalty, and count the event.
    #[allow(clippy::too_many_arguments)] // one verification per channel command
    fn verify_or_retransmit(
        &mut self,
        dir: Dir,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        expected: u32,
        complete_at: u64,
        now: u64,
    ) -> CellResult<u64> {
        let got = match dir {
            Dir::Get => cell_core::checksum32(ls.slice(la, size)?),
            Dir::Put => {
                let mut buf = vec![0u8; size];
                self.mem.read(ea, &mut buf)?;
                cell_core::checksum32(&buf)
            }
        };
        if got == expected {
            return Ok(complete_at);
        }
        match dir {
            Dir::Get => {
                let buf = ls.slice_mut(la, size)?;
                self.mem.read(ea, buf)?;
            }
            Dir::Put => {
                let buf = ls.slice(la, size)?;
                self.mem.write(ea, buf)?;
            }
        }
        self.tracer.count(Counter::ChecksumRetransmits, 1);
        self.tracer.span(
            EventKind::Recovery,
            "dma_retransmit",
            now,
            self.cfg.retransmit_penalty_cycles,
            self.spe_id as u64,
            u64::from(expected ^ got),
        );
        Ok(complete_at + self.cfg.retransmit_penalty_cycles)
    }

    fn record(&mut self, dir: Dir, size: usize) {
        self.stats.transfers += 1;
        match dir {
            Dir::Get => {
                self.stats.bytes_in += size as u64;
                self.tracer.count(Counter::DmaGets, 1);
                self.tracer.count(Counter::DmaBytesIn, size as u64);
            }
            Dir::Put => {
                self.stats.bytes_out += size as u64;
                self.tracer.count(Counter::DmaPuts, 1);
                self.tracer.count(Counter::DmaBytesOut, size as u64);
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MFC channel-command signature
    fn issue_one(
        &mut self,
        dir: Dir,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        if tag as usize >= MAX_TAGS {
            return Err(CellError::BadTagGroup { tag });
        }
        self.validate(ea, la, size)?;
        self.admit(clock);
        clock.advance(cell_core::Cycles(self.issue_cost));

        // Functional effect: move the bytes now (the virtual completion
        // time gates when the SPU may *observe* them via wait_tag). In
        // checksummed-DMA mode the source payload is stamped here, before
        // any injected corruption can touch the destination.
        let src_sum = match dir {
            Dir::Get => {
                let buf = ls.slice_mut(la, size)?;
                self.mem.read(ea, buf)?;
                self.cfg.integrity.then(|| cell_core::checksum32(buf))
            }
            Dir::Put => {
                let buf = ls.slice(la, size)?;
                let sum = self.cfg.integrity.then(|| cell_core::checksum32(buf));
                self.mem.write(ea, buf)?;
                sum
            }
        };

        let mut complete_at = self.schedule(dir, size, clock).max(self.barrier_floor);
        let fault = self.fault_line.tick();
        if fault == Some(FaultKind::DmaCorrupt) {
            self.corrupt_payload(dir, ls, la, ea, size);
        }
        if let Some(expected) = src_sum {
            complete_at = self.verify_or_retransmit(
                dir,
                ls,
                la,
                ea,
                size,
                expected,
                complete_at,
                clock.now(),
            )?;
        }
        if let Some(kind) = fault {
            complete_at = self.inject_dma_fault(kind, complete_at, clock.now());
        }
        let ts_issue = clock.now();
        let latency = complete_at.saturating_sub(ts_issue);
        let (kind, label) = match dir {
            Dir::Get => (EventKind::DmaGet, "dma_get"),
            Dir::Put => (EventKind::DmaPut, "dma_put"),
        };
        self.tracer
            .span_mem(kind, label, ts_issue, latency, size as u64, tag as u64, ea);
        self.tracer.record_dma_latency(latency);
        self.queue.push_back(Pending { complete_at });
        self.tag_complete[tag as usize] = self.tag_complete[tag as usize].max(complete_at);
        self.record(dir, size);
        Ok(())
    }

    /// `mfc_get`: main memory → local store.
    pub fn get(
        &mut self,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        self.issue_one(Dir::Get, ls, la, ea, size, tag, clock)
    }

    /// `mfc_put`: local store → main memory.
    pub fn put(
        &mut self,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        self.issue_one(Dir::Put, ls, la, ea, size, tag, clock)
    }

    /// Fenced variant of a command: the transfer is ordered *after* every
    /// previously issued command **of the same tag group** (`mfc_getf` /
    /// `mfc_putf`). In the model: the new command's completion cannot
    /// precede the tag's current completion horizon.
    #[allow(clippy::too_many_arguments)] // mirrors the MFC channel-command signature
    fn issue_fenced(
        &mut self,
        dir: Dir,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        if tag as usize >= MAX_TAGS {
            return Err(CellError::BadTagGroup { tag });
        }
        let horizon = self.tag_complete[tag as usize];
        self.issue_one(dir, ls, la, ea, size, tag, clock)?;
        // The fenced command may not complete before its predecessors in
        // the same group: push the tag horizon if the EIB happened to
        // schedule it earlier.
        let t = &mut self.tag_complete[tag as usize];
        if *t < horizon {
            *t = horizon;
        }
        if let Some(last) = self.queue.back_mut() {
            last.complete_at = last.complete_at.max(horizon);
        }
        Ok(())
    }

    /// `mfc_getf`: get, fenced against earlier same-tag commands.
    #[allow(clippy::too_many_arguments)]
    pub fn get_fenced(
        &mut self,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        self.issue_fenced(Dir::Get, ls, la, ea, size, tag, clock)
    }

    /// `mfc_putf`: put, fenced against earlier same-tag commands — the
    /// classic use is "write the results, *then* write the completion
    /// flag" without an intervening tag wait.
    #[allow(clippy::too_many_arguments)]
    pub fn put_fenced(
        &mut self,
        ls: &mut LocalStore,
        la: LsAddr,
        ea: u64,
        size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        self.issue_fenced(Dir::Put, ls, la, ea, size, tag, clock)
    }

    /// `mfc_barrier`: order every subsequent command (any tag) after every
    /// previously issued command. Modeled by lifting all tag horizons to
    /// the current global completion horizon.
    pub fn barrier(&mut self, clock: &mut VirtualClock) {
        clock.advance(cell_core::Cycles(self.issue_cost));
        let horizon = self.tag_complete.iter().copied().max().unwrap_or(0);
        for t in &mut self.tag_complete {
            *t = (*t).max(horizon);
        }
        self.barrier_floor = horizon;
    }

    /// A `get` larger than the 16 KB cap, split into maximal legal chunks
    /// under one tag (the "iterative DMA transfers" of paper §3.4).
    pub fn get_large(
        &mut self,
        ls: &mut LocalStore,
        mut la: LsAddr,
        mut ea: u64,
        mut size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        if !size.is_multiple_of(QUADWORD) {
            return Err(CellError::BadDmaSize { size });
        }
        while size > 0 {
            let chunk = size.min(self.cfg.max_transfer);
            self.get(ls, la, ea, chunk, tag, clock)?;
            la += chunk as u32;
            ea += chunk as u64;
            size -= chunk;
        }
        Ok(())
    }

    /// A `put` larger than the 16 KB cap, split like [`Mfc::get_large`].
    pub fn put_large(
        &mut self,
        ls: &mut LocalStore,
        mut la: LsAddr,
        mut ea: u64,
        mut size: usize,
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        if !size.is_multiple_of(QUADWORD) {
            return Err(CellError::BadDmaSize { size });
        }
        while size > 0 {
            let chunk = size.min(self.cfg.max_transfer);
            self.put(ls, la, ea, chunk, tag, clock)?;
            la += chunk as u32;
            ea += chunk as u64;
            size -= chunk;
        }
        Ok(())
    }

    /// `mfc_getl`: a DMA list — scattered main-memory regions gathered into
    /// consecutive local-store locations, one command-queue slot.
    pub fn get_list(
        &mut self,
        ls: &mut LocalStore,
        la: LsAddr,
        list: &[(u64, usize)],
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        self.list_command(Dir::Get, ls, la, list, tag, clock)
    }

    /// `mfc_putl`: consecutive local-store data scattered to main memory.
    pub fn put_list(
        &mut self,
        ls: &mut LocalStore,
        la: LsAddr,
        list: &[(u64, usize)],
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        self.list_command(Dir::Put, ls, la, list, tag, clock)
    }

    fn list_command(
        &mut self,
        dir: Dir,
        ls: &mut LocalStore,
        la: LsAddr,
        list: &[(u64, usize)],
        tag: u32,
        clock: &mut VirtualClock,
    ) -> CellResult<()> {
        if tag as usize >= MAX_TAGS {
            return Err(CellError::BadTagGroup { tag });
        }
        if list.is_empty() || list.len() > self.cfg.list_max_elements {
            return Err(CellError::DmaListTooLong {
                elements: list.len(),
            });
        }
        // Validate every element before moving any byte: a half-applied
        // list would be a simulator artifact real hardware cannot produce
        // (the MFC validates the element when it dequeues it, but our
        // functional copy is atomic per command).
        let mut cursor = la;
        for &(ea, size) in list {
            self.validate(ea, cursor, size)?;
            if size > self.cfg.max_transfer {
                return Err(CellError::BadDmaSize { size });
            }
            cursor = cursor
                .checked_add(cell_core::align_up(size, QUADWORD) as u32)
                .ok_or_else(|| CellError::LocalStoreOverflow {
                    offset: cursor,
                    len: size,
                    capacity: ls.capacity(),
                })?;
        }

        self.admit(clock);
        clock.advance(cell_core::Cycles(self.issue_cost * 2)); // list setup

        let mut cursor = la;
        let mut latest = clock.now();
        for &(ea, size) in list {
            match dir {
                Dir::Get => {
                    let buf = ls.slice_mut(cursor, size)?;
                    self.mem.read(ea, buf)?;
                }
                Dir::Put => {
                    let buf = ls.slice(cursor, size)?;
                    self.mem.write(ea, buf)?;
                }
            }
            let done = self.schedule(dir, size, clock);
            latest = latest.max(done);
            self.record(dir, size);
            // Per-element span under its own label so the race detector
            // sees each scattered range (the aggregate span below keeps
            // the existing byte-total semantics).
            let elem_label = match dir {
                Dir::Get => "dma_list_elem_get",
                Dir::Put => "dma_list_elem_put",
            };
            let elem_kind = match dir {
                Dir::Get => EventKind::DmaGet,
                Dir::Put => EventKind::DmaPut,
            };
            let now = clock.now();
            self.tracer.span_mem(
                elem_kind,
                elem_label,
                now,
                done.saturating_sub(now),
                size as u64,
                tag as u64,
                ea,
            );
            cursor += cell_core::align_up(size, QUADWORD) as u32;
        }
        self.queue.push_back(Pending {
            complete_at: latest,
        });
        self.tag_complete[tag as usize] = self.tag_complete[tag as usize].max(latest);
        self.stats.list_commands += 1;
        self.tracer.count(Counter::DmaListCommands, 1);
        let total: u64 = list.iter().map(|&(_, s)| s as u64).sum();
        let ts = clock.now();
        let (kind, label) = match dir {
            Dir::Get => (EventKind::DmaGet, "dma_list_get"),
            Dir::Put => (EventKind::DmaPut, "dma_list_put"),
        };
        self.tracer.span(
            kind,
            label,
            ts,
            latest.saturating_sub(ts),
            total,
            tag as u64,
        );
        Ok(())
    }

    /// Block (in virtual time) until every command in the tag mask has
    /// completed — `mfc_write_tag_mask` + `mfc_read_tag_status_all`.
    pub fn wait_tags(&mut self, mask: TagMask, clock: &mut VirtualClock) {
        let target = self
            .tag_complete
            .iter()
            .enumerate()
            .filter(|(i, _)| mask.contains(*i as u32))
            .map(|(_, &t)| t)
            .max()
            .unwrap_or(0);
        let stall = target.saturating_sub(clock.now());
        self.stats.stall_cycles += stall;
        if stall > 0 {
            self.tracer.count(Counter::DmaStallCycles, stall);
            self.tracer.span(
                EventKind::DmaWait,
                "tag_wait",
                clock.now(),
                stall,
                mask.0 as u64,
                0,
            );
        }
        clock.advance_to(target);
        self.drain_completed(clock.now());
    }

    /// Wait for a single tag group.
    pub fn wait_tag(&mut self, tag: u32, clock: &mut VirtualClock) -> CellResult<()> {
        self.wait_tags(TagMask::single(tag)?, clock);
        Ok(())
    }

    /// Wait for everything in flight.
    pub fn wait_all(&mut self, clock: &mut VirtualClock) {
        self.wait_tags(TagMask::all(), clock);
    }

    /// Non-blocking check: has the tag group completed by the clock's now?
    pub fn tag_done(&self, tag: u32, clock: &VirtualClock) -> CellResult<bool> {
        if tag as usize >= MAX_TAGS {
            return Err(CellError::BadTagGroup { tag });
        }
        Ok(self.tag_complete[tag as usize] <= clock.now())
    }

    /// Commands currently occupying queue slots (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_core::{EibConfig, Frequency, MachineConfig};

    fn rig() -> (Mfc, LocalStore, VirtualClock, Arc<MainMemory>) {
        let cfg = MachineConfig::small();
        let mem = Arc::new(MainMemory::new(cfg.main_memory_size));
        let eib = Arc::new(Eib::new(EibConfig::default()));
        let mfc = Mfc::new(0, Arc::clone(&mem), eib, cfg.dma);
        let ls = LocalStore::new(cfg.local_store_size, cfg.code_reserved);
        let clock = VirtualClock::new(Frequency::ghz(3.2));
        (mfc, ls, clock, mem)
    }

    #[test]
    fn get_moves_bytes_and_time() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(4096, 128).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        mem.write(ea, &data).unwrap();

        let la = ls.alloc(4096, 16).unwrap();
        mfc.get(&mut ls, la, ea, 4096, 5, &mut clock).unwrap();
        let t_issue = clock.now();
        mfc.wait_tag(5, &mut clock).unwrap();
        assert!(clock.now() > t_issue, "waiting must consume virtual time");
        assert_eq!(ls.slice(la, 4096).unwrap(), &data[..]);
        let st = mfc.stats();
        assert_eq!(st.bytes_in, 4096);
        assert_eq!(st.transfers, 1);
        assert!(st.stall_cycles > 0);
    }

    #[test]
    fn put_roundtrip() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(256, 16).unwrap();
        let la = ls.alloc(256, 16).unwrap();
        ls.write(la, &[0x5Au8; 256]).unwrap();
        mfc.put(&mut ls, la, ea, 256, 0, &mut clock).unwrap();
        mfc.wait_all(&mut clock);
        let mut out = [0u8; 256];
        mem.read(ea, &mut out).unwrap();
        assert_eq!(out, [0x5Au8; 256]);
        assert_eq!(mfc.stats().bytes_out, 256);
    }

    #[test]
    fn size_and_alignment_validation() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(64 * 1024, 128).unwrap();
        let la = ls.alloc(32 * 1024, 16).unwrap();
        // Over the 16 KB cap.
        assert_eq!(
            mfc.get(&mut ls, la, ea, 32 * 1024, 0, &mut clock),
            Err(CellError::BadDmaSize { size: 32 * 1024 })
        );
        // Not a multiple of 16.
        assert_eq!(
            mfc.get(&mut ls, la, ea, 24, 0, &mut clock),
            Err(CellError::BadDmaSize { size: 24 })
        );
        // Misaligned EA.
        assert!(matches!(
            mfc.get(&mut ls, la, ea + 8, 64, 0, &mut clock),
            Err(CellError::Misaligned { .. })
        ));
        // Misaligned LS address.
        assert!(matches!(
            mfc.get(&mut ls, la + 8, ea, 64, 0, &mut clock),
            Err(CellError::Misaligned { .. })
        ));
        // Bad tag.
        assert_eq!(
            mfc.get(&mut ls, la, ea, 64, 32, &mut clock),
            Err(CellError::BadTagGroup { tag: 32 })
        );
    }

    #[test]
    fn small_naturally_aligned_transfers_are_legal() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(64, 16).unwrap();
        let la = ls.alloc(64, 16).unwrap();
        for size in [1usize, 2, 4, 8] {
            mfc.get(&mut ls, la, ea, size, 1, &mut clock).unwrap();
        }
        mfc.wait_all(&mut clock);
        assert_eq!(mfc.stats().transfers, 4);
    }

    #[test]
    fn get_large_splits_at_16k() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let total = 48 * 1024;
        let ea = mem.alloc(total, 128).unwrap();
        let data: Vec<u8> = (0..total).map(|i| (i / 64) as u8).collect();
        mem.write(ea, &data).unwrap();
        let la = ls.alloc(total, 16).unwrap();
        mfc.get_large(&mut ls, la, ea, total, 2, &mut clock)
            .unwrap();
        mfc.wait_tag(2, &mut clock).unwrap();
        assert_eq!(mfc.stats().transfers, 3);
        assert_eq!(ls.slice(la, total).unwrap(), &data[..]);
    }

    #[test]
    fn queue_fills_and_stalls() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(16 * 1024 * 20, 128).unwrap();
        let la = ls.alloc(16 * 1024, 16).unwrap();
        for i in 0..20u64 {
            mfc.get(&mut ls, la, ea + i * 16 * 1024, 16 * 1024, 0, &mut clock)
                .unwrap();
        }
        // The queue never exceeds its depth, and admitting past 16 stalls.
        assert!(mfc.queue_len() <= 16);
        assert!(
            mfc.stats().stall_cycles > 0,
            "full queue should have stalled the SPU"
        );
    }

    #[test]
    fn dma_list_gathers_scattered_regions() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let a = mem.alloc(64, 16).unwrap();
        let b = mem.alloc(128, 16).unwrap();
        let c = mem.alloc(32, 16).unwrap();
        mem.fill(a, 1, 64).unwrap();
        mem.fill(b, 2, 128).unwrap();
        mem.fill(c, 3, 32).unwrap();
        let la = ls.alloc(64 + 128 + 32, 16).unwrap();
        mfc.get_list(&mut ls, la, &[(a, 64), (b, 128), (c, 32)], 7, &mut clock)
            .unwrap();
        mfc.wait_tag(7, &mut clock).unwrap();
        assert!(ls.slice(la, 64).unwrap().iter().all(|&x| x == 1));
        assert!(ls.slice(la + 64, 128).unwrap().iter().all(|&x| x == 2));
        assert!(ls.slice(la + 192, 32).unwrap().iter().all(|&x| x == 3));
        let st = mfc.stats();
        assert_eq!(st.list_commands, 1);
        assert_eq!(st.transfers, 3);
    }

    #[test]
    fn put_list_scatters() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let a = mem.alloc(64, 16).unwrap();
        let b = mem.alloc(64, 16).unwrap();
        let la = ls.alloc(128, 16).unwrap();
        ls.write(la, &[9u8; 128]).unwrap();
        mfc.put_list(&mut ls, la, &[(a, 64), (b, 64)], 3, &mut clock)
            .unwrap();
        mfc.wait_tag(3, &mut clock).unwrap();
        let mut out = [0u8; 64];
        mem.read(a, &mut out).unwrap();
        assert_eq!(out, [9u8; 64]);
        mem.read(b, &mut out).unwrap();
        assert_eq!(out, [9u8; 64]);
    }

    #[test]
    fn list_length_limits() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(16, 16).unwrap();
        let la = ls.alloc(16, 16).unwrap();
        assert!(matches!(
            mfc.get_list(&mut ls, la, &[], 0, &mut clock),
            Err(CellError::DmaListTooLong { elements: 0 })
        ));
        let long: Vec<(u64, usize)> = vec![(ea, 16); 2049];
        assert!(matches!(
            mfc.get_list(&mut ls, la, &long, 0, &mut clock),
            Err(CellError::DmaListTooLong { elements: 2049 })
        ));
    }

    #[test]
    fn bad_list_element_moves_nothing() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let good = mem.alloc(64, 16).unwrap();
        mem.fill(good, 7, 64).unwrap();
        let la = ls.alloc(128, 16).unwrap();
        // Second element misaligned — the whole command must be rejected
        // before any byte moved.
        let err = mfc.get_list(&mut ls, la, &[(good, 64), (good + 8, 16)], 0, &mut clock);
        assert!(err.is_err());
        assert!(ls.slice(la, 64).unwrap().iter().all(|&x| x == 0));
        assert_eq!(mfc.stats().transfers, 0);
    }

    #[test]
    fn tag_done_tracks_clock() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(16 * 1024, 128).unwrap();
        let la = ls.alloc(16 * 1024, 16).unwrap();
        mfc.get(&mut ls, la, ea, 16 * 1024, 4, &mut clock).unwrap();
        assert!(!mfc.tag_done(4, &clock).unwrap());
        mfc.wait_tag(4, &mut clock).unwrap();
        assert!(mfc.tag_done(4, &clock).unwrap());
        assert!(mfc.tag_done(31, &clock).unwrap(), "idle tags are complete");
        assert!(mfc.tag_done(32, &clock).is_err());
    }

    #[test]
    fn waiting_on_idle_tag_is_free() {
        let (mut mfc, _ls, mut clock, _mem) = rig();
        let before = clock.now();
        mfc.wait_tag(9, &mut clock).unwrap();
        assert_eq!(clock.now(), before);
    }

    #[test]
    fn fenced_put_orders_after_same_tag_predecessors() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let data_ea = mem.alloc(16 * 1024, 128).unwrap();
        let flag_ea = mem.alloc(16, 16).unwrap();
        let la = ls.alloc(16 * 1024, 16).unwrap();
        let flag_la = ls.alloc(16, 16).unwrap();
        ls.write_u32(flag_la, 1).unwrap();
        // Big result write, then the fenced completion flag: the flag's
        // completion must not precede the data's, even though it is tiny.
        mfc.put(&mut ls, la, data_ea, 16 * 1024, 3, &mut clock)
            .unwrap();
        let data_done = mfc.tag_complete[3];
        mfc.put_fenced(&mut ls, flag_la, flag_ea, 16, 3, &mut clock)
            .unwrap();
        assert!(mfc.tag_complete[3] >= data_done);
        let flag_entry = mfc.queue.back().unwrap().complete_at;
        assert!(
            flag_entry >= data_done,
            "fenced flag completes at {flag_entry}, data at {data_done}"
        );
    }

    #[test]
    fn unfenced_opposite_direction_transfer_can_overtake() {
        // The control case for the fence test: the element ports are
        // per-direction, so without a fence a tiny GET (inbound) finishes
        // before a big PUT (outbound) issued earlier — exactly the kind
        // of ordering hazard the fenced commands exist to close. (Two
        // same-direction transfers cannot overtake: they serialize at the
        // SPE's outbound port.)
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let data_ea = mem.alloc(16 * 1024, 128).unwrap();
        let flag_ea = mem.alloc(16, 16).unwrap();
        let la = ls.alloc(16 * 1024, 16).unwrap();
        let flag_la = ls.alloc(16, 16).unwrap();
        mfc.put(&mut ls, la, data_ea, 16 * 1024, 3, &mut clock)
            .unwrap();
        let data_done = mfc.queue.back().unwrap().complete_at;
        mfc.get(&mut ls, flag_la, flag_ea, 16, 4, &mut clock)
            .unwrap();
        let flag_done = mfc.queue.back().unwrap().complete_at;
        assert!(flag_done < data_done, "{flag_done} vs {data_done}");
    }

    #[test]
    fn fenced_get_works_and_moves_data() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(64, 16).unwrap();
        mem.fill(ea, 9, 64).unwrap();
        let la = ls.alloc(64, 16).unwrap();
        mfc.get_fenced(&mut ls, la, ea, 64, 0, &mut clock).unwrap();
        mfc.wait_tag(0, &mut clock).unwrap();
        assert!(ls.slice(la, 64).unwrap().iter().all(|&b| b == 9));
        assert!(mfc.get_fenced(&mut ls, la, ea, 64, 99, &mut clock).is_err());
    }

    #[test]
    fn barrier_orders_across_tags() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let big_ea = mem.alloc(16 * 1024, 128).unwrap();
        let small_ea = mem.alloc(16, 16).unwrap();
        let la = ls.alloc(16 * 1024, 16).unwrap();
        // Big transfer on tag 0, then a barrier, then a tiny transfer on a
        // *different* tag: the tiny one must complete after the big one.
        mfc.get(&mut ls, la, big_ea, 16 * 1024, 0, &mut clock)
            .unwrap();
        let big_done = mfc.tag_complete[0];
        mfc.barrier(&mut clock);
        mfc.get(&mut ls, la, small_ea, 16, 7, &mut clock).unwrap();
        assert!(
            mfc.tag_complete[7] >= big_done,
            "post-barrier command finished at {} before the barrier's {big_done}",
            mfc.tag_complete[7]
        );
    }

    #[test]
    fn trace_records_transfers_and_waits() {
        use cell_trace::{TraceConfig, Track};
        let (mut mfc, mut ls, mut clock, mem) = rig();
        mfc.set_tracer(Tracer::new(TraceConfig::Full, Track::Spe(0), 3.2e9));
        let ea = mem.alloc(8192, 128).unwrap();
        let la = ls.alloc(4096, 16).unwrap();
        mfc.get(&mut ls, la, ea, 4096, 1, &mut clock).unwrap();
        mfc.wait_tag(1, &mut clock).unwrap();
        mfc.put(&mut ls, la, ea + 4096, 4096, 2, &mut clock)
            .unwrap();
        mfc.wait_tag(2, &mut clock).unwrap();
        let trace = mfc.take_tracer();
        assert_eq!(trace.counters.get(Counter::DmaGets), 1);
        assert_eq!(trace.counters.get(Counter::DmaPuts), 1);
        assert_eq!(trace.counters.get(Counter::DmaBytesIn), 4096);
        assert_eq!(trace.counters.get(Counter::DmaBytesOut), 4096);
        assert_eq!(
            trace.counters.get(Counter::DmaStallCycles),
            mfc.stats().stall_cycles
        );
        assert_eq!(trace.dma_latency.count(), 2);
        let kinds: Vec<EventKind> = trace.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::DmaGet));
        assert!(kinds.contains(&EventKind::DmaPut));
        assert!(kinds.contains(&EventKind::DmaWait));
        // The get span's latency equals the stall the wait observed plus
        // nothing else (single transfer, idle bus): issue→complete.
        let get = trace
            .events
            .iter()
            .find(|e| e.kind == EventKind::DmaGet)
            .unwrap();
        assert!(get.dur > 0);
        assert_eq!(get.arg0, 4096);
        assert_eq!(get.ea, ea, "DMA span carries the effective address");
        // take_tracer leaves tracing off.
        mfc.get(&mut ls, la, ea, 16, 1, &mut clock).unwrap();
        assert!(mfc.take_tracer().events.is_empty());
    }

    #[test]
    fn trace_counts_list_commands() {
        use cell_trace::{TraceConfig, Track};
        let (mut mfc, mut ls, mut clock, mem) = rig();
        mfc.set_tracer(Tracer::new(TraceConfig::Full, Track::Spe(0), 3.2e9));
        let a = mem.alloc(64, 16).unwrap();
        let b = mem.alloc(64, 16).unwrap();
        let la = ls.alloc(128, 16).unwrap();
        mfc.get_list(&mut ls, la, &[(a, 64), (b, 64)], 0, &mut clock)
            .unwrap();
        let trace = mfc.take_tracer();
        assert_eq!(trace.counters.get(Counter::DmaListCommands), 1);
        assert_eq!(trace.counters.get(Counter::DmaGets), 2);
        let list_ev = trace
            .events
            .iter()
            .find(|e| e.label == "dma_list_get")
            .expect("list command span recorded");
        assert_eq!(list_ev.arg0, 128);
        let elems: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.label == "dma_list_elem_get")
            .collect();
        assert_eq!(elems.len(), 2, "one span per list element");
        assert_eq!(elems[0].ea, a);
        assert_eq!(elems[1].ea, b);
    }

    #[test]
    fn injected_dma_delay_slows_completion_without_corrupting_data() {
        use cell_fault::{FaultPlan, FaultSite};
        use cell_trace::{TraceConfig, Track};
        let (mut mfc, mut ls, mut clock, mem) = rig();
        mfc.set_tracer(Tracer::new(TraceConfig::Full, Track::Spe(0), 3.2e9));
        let plan = FaultPlan::new().delay_dma(0, 2, 50_000);
        mfc.set_fault_line(plan.arm(FaultSite::Dma, 0));

        let ea = mem.alloc(8192, 128).unwrap();
        let data: Vec<u8> = (0..8192).map(|i| (i % 253) as u8).collect();
        mem.write(ea, &data).unwrap();
        let la = ls.alloc(8192, 16).unwrap();

        // First transfer unaffected, second one delayed by 50k cycles.
        mfc.get(&mut ls, la, ea, 4096, 1, &mut clock).unwrap();
        let clean_done = mfc.tag_complete[1];
        mfc.get(&mut ls, la + 4096, ea + 4096, 4096, 2, &mut clock)
            .unwrap();
        let faulted_done = mfc.tag_complete[2];
        assert!(
            faulted_done >= clean_done + 50_000,
            "delayed transfer completes at {faulted_done}, clean at {clean_done}"
        );
        mfc.wait_all(&mut clock);
        assert_eq!(ls.slice(la, 8192).unwrap(), &data[..]);

        let trace = mfc.take_tracer();
        assert_eq!(trace.counters.get(Counter::FaultsInjected), 1);
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::Fault && e.label == "dma_delay"));
    }

    #[test]
    fn injected_dma_transient_failure_counts_a_retry() {
        use cell_fault::{FaultPlan, FaultSite};
        use cell_trace::{TraceConfig, Track};
        let (mut mfc, mut ls, mut clock, mem) = rig();
        mfc.set_tracer(Tracer::new(TraceConfig::Full, Track::Spe(0), 3.2e9));
        let plan = FaultPlan::new().fail_dma(0, 1, 10_000);
        mfc.set_fault_line(plan.arm(FaultSite::Dma, 0));

        let ea = mem.alloc(256, 16).unwrap();
        let la = ls.alloc(256, 16).unwrap();
        ls.write(la, &[0xA5u8; 256]).unwrap();
        mfc.put(&mut ls, la, ea, 256, 0, &mut clock).unwrap();
        mfc.wait_all(&mut clock);

        let mut out = [0u8; 256];
        mem.read(ea, &mut out).unwrap();
        assert_eq!(out, [0xA5u8; 256], "retried transfer still lands");

        let trace = mfc.take_tracer();
        assert_eq!(trace.counters.get(Counter::FaultsInjected), 1);
        assert_eq!(trace.counters.get(Counter::Retries), 1);
        assert!(mfc.fault_line.is_exhausted());
    }

    #[test]
    fn two_tags_complete_independently() {
        let (mut mfc, mut ls, mut clock, mem) = rig();
        let ea = mem.alloc(32 * 1024, 128).unwrap();
        let la1 = ls.alloc(16, 16).unwrap();
        let la2 = ls.alloc(16 * 1024, 16).unwrap();
        mfc.get(&mut ls, la1, ea, 16, 1, &mut clock).unwrap();
        mfc.get(&mut ls, la2, ea + 16 * 1024, 16 * 1024, 2, &mut clock)
            .unwrap();
        // The small transfer on tag 1 finishes long before tag 2.
        let mut c1 = clock.clone();
        mfc.wait_tags(TagMask::single(1).unwrap(), &mut c1);
        let mut c2 = clock.clone();
        mfc.wait_tags(TagMask::single(2).unwrap(), &mut c2);
        assert!(c1.now() < c2.now());
    }
}
