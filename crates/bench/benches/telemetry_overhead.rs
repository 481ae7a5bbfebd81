//! BENCH_06 — the telemetry plane's wall-clock trajectory.
//!
//! Three measurements, all on the host clock (simulated cycles are
//! invariant under tracing, so the interesting cost is real time):
//!
//! * **Full-trace overhead** — the same pipelined batch-engine MARVEL
//!   run under `TraceConfig::Off` vs `TraceConfig::Full` with per-frame
//!   spans. Asserted under a budget: pre-reserved event storage keeps
//!   whole-machine tracing affordable enough to leave on.
//! * **Serve throughput** — wall-clock requests/sec of a fully
//!   telemetered soak (request spans on the wire, flight recorder
//!   armed, metrics live).
//! * **Event pre-reservation** — the tracer-level before/after of this
//!   PR's `EVENT_PREALLOC` change: the same push loop against a cold
//!   event vec vs a pre-reserved one.
//!
//! Results land in `target/bench/BENCH_06.json` for the CI artifact.

use std::time::Duration;

use cell_bench::{
    measure_event_prealloc, measure_serve_throughput, measure_trace_overhead, small_workload,
    write_artifact, SEED,
};
use cell_trace::json::JsonWriter;

const FRAMES: usize = 8;
const REQUESTS: usize = 6;
const PREALLOC_EVENTS: usize = 200_000;
/// Full tracing may cost at most this multiple of an untraced run.
/// Generous (the real ratio is near 1) because CI hosts are noisy.
const FULL_TRACE_BUDGET: f64 = 2.5;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    off: Duration,
    full: Duration,
    served: u64,
    serve_wall: Duration,
    cold: Duration,
    prereserved: Duration,
) -> std::io::Result<String> {
    let ratio = secs(full) / secs(off).max(1e-12);
    let frames = FRAMES as f64;
    let mut w = JsonWriter::default();
    w.begin_object().key("bench").str("BENCH_06");
    w.key("seed").u64(SEED).key("clock_ghz").f64(3.2);
    w.key("full_trace_overhead").begin_object();
    w.key("frames").u64(FRAMES as u64);
    w.key("off_wall_ms").fixed(secs(off) * 1e3, 3);
    w.key("full_wall_ms").fixed(secs(full) * 1e3, 3);
    w.key("ratio").fixed(ratio, 4);
    w.key("budget").f64(FULL_TRACE_BUDGET);
    w.key("frames_per_sec_off").fixed(frames / secs(off), 1);
    w.key("frames_per_sec_full").fixed(frames / secs(full), 1);
    w.end_object().key("serve_throughput").begin_object();
    w.key("requests").u64(REQUESTS as u64);
    w.key("served").u64(served);
    w.key("wall_ms").fixed(secs(serve_wall) * 1e3, 3);
    let rps = served as f64 / secs(serve_wall);
    w.key("requests_per_sec_wall").fixed(rps, 1).end_object();
    w.key("event_prealloc").begin_object();
    w.key("events").u64(PREALLOC_EVENTS as u64);
    w.key("cold_ms").fixed(secs(cold) * 1e3, 3);
    w.key("prereserved_ms").fixed(secs(prereserved) * 1e3, 3);
    w.end_object().end_object();
    write_artifact("BENCH_06", &w.finish())
}

fn main() {
    let inputs = small_workload(FRAMES, 96, 64);

    let (off, full) = measure_trace_overhead(&inputs, 3).unwrap();
    let ratio = secs(full) / secs(off).max(1e-12);
    println!("Full-trace overhead ({FRAMES}-frame MARVEL run, fixed seed {SEED}):");
    println!(
        "  off {:.3} ms ({:.1} frames/s), full {:.3} ms ({:.1} frames/s) -> {ratio:.2}x",
        secs(off) * 1e3,
        FRAMES as f64 / secs(off),
        secs(full) * 1e3,
        FRAMES as f64 / secs(full),
    );
    assert!(
        ratio < FULL_TRACE_BUDGET,
        "Full tracing cost {ratio:.2}x an untraced run, budget is {FULL_TRACE_BUDGET}x"
    );

    let (served, serve_wall) = measure_serve_throughput(REQUESTS).unwrap();
    println!("Telemetered serve soak ({REQUESTS} requests):");
    println!(
        "  served {served} in {:.3} ms -> {:.1} requests/s wall",
        secs(serve_wall) * 1e3,
        served as f64 / secs(serve_wall),
    );
    assert!(served > 0, "the fault-free soak must serve requests");

    let (cold, prereserved) = measure_event_prealloc(PREALLOC_EVENTS);
    println!("Event storage pre-reservation ({PREALLOC_EVENTS} pushes):");
    println!(
        "  cold {:.3} ms, pre-reserved {:.3} ms",
        secs(cold) * 1e3,
        secs(prereserved) * 1e3,
    );

    let path = write_bench_json(off, full, served, serve_wall, cold, prereserved).unwrap();
    println!("report: {path}\n");
}
