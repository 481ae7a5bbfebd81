//! BENCH_05 — the engine performance trajectory.
//!
//! Quantifies the two dispatch optimizations the shared `cell-engine`
//! runtime adds over the original frame-at-a-time drivers:
//!
//! * **pipelined vs send-and-wait** — a multi-frame MARVEL run through
//!   the window-2 in-flight lanes vs the same frames dispatched one at a
//!   time (submit-all / wait-all per frame);
//! * **batched vs unbatched** — many tiny kernel calls packed into
//!   `SPU_BATCH` frames (one mailbox round-trip per frame) vs one
//!   round-trip per call.
//!
//! Both comparisons are on *simulated* cycles (fixed seeds, deterministic
//! virtual clock), so the numbers are exactly reproducible; host time is
//! benched separately below. Results are written to
//! `target/bench/BENCH_05.json` for the CI artifact.

use cell_bench::harness::{write_artifact, BenchmarkId, Criterion};
use cell_bench::{
    criterion_group, criterion_main, measure_engine_batching, measure_engine_pipelining,
    small_workload, SEED,
};
use cell_core::{Frequency, VirtualDuration};
use cell_trace::json::JsonWriter;

const FRAMES: usize = 8;
const MICRO_CALLS: usize = 64;

fn cycles(d: VirtualDuration) -> u64 {
    Frequency::ghz(3.2).cycles_in(d).0
}

fn write_bench_json(
    serial: VirtualDuration,
    pipelined: VirtualDuration,
    unbatched: VirtualDuration,
    batched: VirtualDuration,
) -> std::io::Result<String> {
    let mut w = JsonWriter::default();
    w.begin_object().key("bench").str("BENCH_05");
    w.key("seed").u64(SEED).key("clock_ghz").f64(3.2);
    w.key("pipeline").begin_object();
    w.key("frames").u64(FRAMES as u64).key("window").u64(2);
    w.key("send_and_wait_cycles").u64(cycles(serial));
    w.key("pipelined_cycles").u64(cycles(pipelined));
    let speedup = serial.seconds() / pipelined.seconds();
    w.key("speedup").fixed(speedup, 4).end_object();
    w.key("batching").begin_object();
    w.key("calls").u64(MICRO_CALLS as u64);
    w.key("max_batch").u64(portkit::opcodes::MAX_BATCH as u64);
    w.key("unbatched_cycles").u64(cycles(unbatched));
    w.key("batched_cycles").u64(cycles(batched));
    let speedup = unbatched.seconds() / batched.seconds();
    w.key("speedup").fixed(speedup, 4).end_object().end_object();
    write_artifact("BENCH_05", &w.finish())
}

fn bench_engine(c: &mut Criterion) {
    let inputs = small_workload(FRAMES, 96, 64);

    let (serial, pipelined) = measure_engine_pipelining(&inputs).unwrap();
    println!("Engine pipelining ({FRAMES}-frame MARVEL run, fixed seed {SEED}):");
    println!(
        "  send-and-wait {} cyc, pipelined (window 2) {} cyc -> {:.2}x",
        cycles(serial),
        cycles(pipelined),
        serial.seconds() / pipelined.seconds()
    );
    assert!(
        pipelined.seconds() < serial.seconds(),
        "pipelined dispatch must beat send-and-wait"
    );

    let (unbatched, batched) = measure_engine_batching(MICRO_CALLS).unwrap();
    println!("Engine batching ({MICRO_CALLS} micro-calls, SPU_BATCH frames):");
    println!(
        "  unbatched {} cyc, batched {} cyc -> {:.2}x",
        cycles(unbatched),
        cycles(batched),
        unbatched.seconds() / batched.seconds()
    );
    assert!(
        batched.seconds() < unbatched.seconds(),
        "batched dispatch must beat per-call round-trips"
    );

    let path = write_bench_json(serial, pipelined, unbatched, batched).unwrap();
    println!("report: {path}\n");

    // Host cost of the two dispatch strategies (simulation throughput).
    let mut g = c.benchmark_group("engine_dispatch_host_cost");
    g.sample_size(10);
    let small = small_workload(2, 48, 32);
    g.bench_with_input(BenchmarkId::new("pipelined", 2), &small, |b, inputs| {
        b.iter(|| measure_engine_pipelining(inputs).unwrap());
    });
    g.bench_function("batched/64", |b| {
        b.iter(|| measure_engine_batching(64).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
