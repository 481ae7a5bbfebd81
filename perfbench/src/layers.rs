//! Per-layer attribution shared by the workloads: counters the program
//! already exposes, and host-time replays of single layers' public
//! functions, timed from outside.

use std::time::Instant;

use cell_core::{CellResult, MachineConfig};
use cell_engine::Engine;
use cell_mem::MainMemory;
use cell_sys::CellMachine;
use cell_trace::{Counter, TraceReport};
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::ReplyMode;

use crate::report::{Outcome, Phase, SpanId, Spans};
use crate::stats::{fail_frac, median, per_item};

/// The largest single MFC transfer; host copies are replayed in chunks
/// of this size, the granularity DMA moves frames through main memory.
const DMA_CHUNK: usize = 16 * 1024;

const MIB: f64 = 1024.0 * 1024.0;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Machine-layer counts of a traced run, normalised per item.
pub fn machine_counters(trace: &TraceReport, items: u64, out: &mut Outcome) {
    let c = |counter| trace.counter(counter) as f64;
    out.set(
        "cell-sys.mailbox_words_per_item",
        per_item(c(Counter::MailboxSends), items),
    );
    out.set(
        "cell-sys.mailbox_stall_cycles_per_item",
        per_item(c(Counter::MailboxStallCycles), items),
    );
    out.set(
        "cell-mfc.dma_bytes_per_item",
        per_item(c(Counter::DmaBytesIn) + c(Counter::DmaBytesOut), items),
    );
    out.set(
        "cell-mfc.dma_stall_cycles_per_item",
        per_item(c(Counter::DmaStallCycles), items),
    );
    out.set(
        "cell-mfc.dma_list_cmds_per_item",
        per_item(c(Counter::DmaListCommands), items),
    );
    out.set(
        "cell-eib.transfers_per_item",
        per_item(c(Counter::EibTransfers), items),
    );
    out.set(
        "cell-eib.queued_cycles_per_transfer",
        per_item(
            c(Counter::EibQueuedCycles),
            trace.counter(Counter::EibTransfers),
        ),
    );
    out.set(
        "cell-engine.dispatches_per_item",
        per_item(c(Counter::Dispatches), items),
    );
    out.set("cell-engine.retries", c(Counter::Retries));
    out.set("cell-engine.inflight_max", c(Counter::InFlight));
}

/// Median host seconds of `SETUP_REPS` builds of a workload's system
/// under test; each one is torn down outside the timer.
pub fn setup_seconds<T>(
    spans: &mut Spans,
    parent: SpanId,
    mut build: impl FnMut() -> CellResult<T>,
    mut teardown: impl FnMut(T) -> CellResult<()>,
) -> CellResult<f64> {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let span = spans.open("setup", parent, None);
        let t0 = Instant::now();
        let system = build()?;
        samples.push(t0.elapsed().as_secs_f64());
        spans.close(span);
        teardown(system)?;
    }
    Ok(median(&samples))
}

/// `bench.unattributed_frac`, `cell-trace.overhead_ratio` and
/// `bench.fail_frac` of a traced run: its untraced and traced halves,
/// and the replayed unit costs of one item. Host work that overlaps on
/// the two cores can make the attributed sum exceed the item's wall
/// time, and the fraction negative.
pub fn finish_attribution(
    untraced: &Phase,
    traced: &Phase,
    attributed_us_per_item: f64,
    out: &mut Outcome,
) {
    let (off, on) = (untraced.host_rate(), traced.host_rate());
    if on > 0.0 {
        let item_us = 1e6 / on;
        out.set(
            "bench.unattributed_frac",
            1.0 - attributed_us_per_item / item_us,
        );
        out.note(format!(
            "attribution: replayed unit costs sum to {attributed_us_per_item:.1} us of {item_us:.1} us per item (traced half)"
        ));
    }
    if on > 0.0 && off > 0.0 {
        out.set("cell-trace.overhead_ratio", off / on);
    }
    out.set("bench.fail_frac", fail_frac(out.attempted, &out.failures));
}

/// Median host microseconds of one engine round trip to a registered
/// kernel that does no DMA and no compute: the mailbox handoff alone.
pub fn roundtrip_host_us(calls: u32, spans: &mut Spans, parent: SpanId) -> CellResult<f64> {
    let mut m = CellMachine::new(MachineConfig::small())?;
    let mut ppe = m.ppe();
    let mut d = KernelDispatcher::new("roundtrip", ReplyMode::Polling);
    let op = d.register("noop", |_, v| Ok(v));
    let h = m.spawn(0, Box::new(d))?;
    let mut engine = Engine::new(1);
    let mut samples = Vec::with_capacity(calls as usize);
    for i in 0..calls {
        let span = spans.open("replay.roundtrip", parent, Some(u64::from(i)));
        let t0 = Instant::now();
        let ticket = engine.submit_to_spe(&mut ppe, 0, "noop", op, i)?;
        let reply = engine.complete(&mut ppe, ticket)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        spans.close(span);
        assert_eq!(reply, i, "noop kernel must echo its argument");
    }
    engine.close(&mut ppe)?;
    h.join()?;
    Ok(median(&samples))
}

/// Median host microseconds per MiB to write and read back `payloads`
/// through `MainMemory`, in DMA-sized chunks; one sample per pass over
/// all payloads.
pub fn copy_host_us_per_mib(
    payloads: &[&[u8]],
    passes: u32,
    spans: &mut Spans,
    parent: SpanId,
) -> CellResult<f64> {
    let largest = payloads.iter().map(|p| p.len()).max().unwrap_or(0).max(16);
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let mem = MainMemory::new(largest.next_power_of_two() * 2);
    let ea = mem.alloc(largest, 128)?;
    let mut back = vec![0u8; DMA_CHUNK];
    let mut samples = Vec::with_capacity(passes as usize);
    for pass in 0..passes {
        let span = spans.open("replay.copy", parent, Some(u64::from(pass)));
        let t0 = Instant::now();
        for payload in payloads {
            for (i, chunk) in payload.chunks(DMA_CHUNK).enumerate() {
                let at = ea + (i * DMA_CHUNK) as u64;
                mem.write(at, chunk)?;
                mem.read(at, &mut back[..chunk.len()])?;
                std::hint::black_box(&back);
            }
        }
        let us = t0.elapsed().as_secs_f64() * 1e6;
        spans.close(span);
        samples.push(us / (bytes as f64 / MIB));
    }
    mem.free(ea)?;
    Ok(median(&samples))
}
