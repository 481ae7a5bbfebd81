//! BENCH_09 — what durability costs, and what recovery costs.
//!
//! Two questions, both on the host clock (simulated cycles are
//! invariant under journaling — the journal is not part of the machine
//! model):
//!
//! * **Journal overhead** — the same durable serve soak with the
//!   write-ahead journal on (group commit + checkpoints) vs off.
//!   Asserted under a budget: appending checksummed frames to stable
//!   storage must stay a rounding error next to serving the request.
//! * **Recovery time vs tail length** — crash the same workload at its
//!   last journal append and measure `DurableServer::recover` wall time
//!   as the journal tail grows, then show a checkpoint bounding the
//!   scanned tail for the longest run.
//!
//! Results land in `target/bench/BENCH_09.json` for the CI artifact.

use std::time::{Duration, Instant};

use cell_bench::write_artifact;
use cell_durable::{DurableConfig, DurableDisks, DurableServer, RunStatus};
use cell_fault::FaultPlan;
use cell_serve::{generate, Request, ServeConfig, WorkloadSpec};
use cell_trace::json::JsonWriter;

const SEED: u64 = 90_209;
const REQUESTS: usize = 10;
/// Journaling may cost at most this multiple of a journal-off run.
/// Generous (the real ratio is near 1 — serving dominates) because CI
/// hosts are noisy.
const OVERHEAD_BUDGET: f64 = 1.5;

fn config(journal: bool, checkpoint_every: u64) -> DurableConfig {
    DurableConfig {
        serve: ServeConfig {
            seed: SEED,
            queue_capacity: 1_024,
            degrade_high: 1_024,
            degrade_critical: 1_024,
            ..ServeConfig::default()
        },
        journal,
        group_commit: 4,
        checkpoint_every,
    }
}

fn workload(requests: usize) -> Vec<Request> {
    generate(&WorkloadSpec {
        requests,
        seed: SEED,
        mean_gap: 2_000_000,
        deadline: 100_000_000_000,
        width: 16,
        height: 16,
        burst: None,
    })
    .unwrap()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Wall time and served count of one durable soak; best of `rounds`.
fn measure_soak(journal: bool, rounds: usize) -> (Duration, u64, u64) {
    let requests = workload(REQUESTS);
    let mut best = Duration::MAX;
    let mut served = 0;
    let mut journal_bytes = 0;
    for _ in 0..rounds {
        let start = Instant::now();
        let mut srv = DurableServer::boot(config(journal, 8), &FaultPlan::new()).unwrap();
        srv.run_stream(&requests).unwrap();
        let output = srv.finish().unwrap();
        let wall = start.elapsed();
        served = output.report.appends.max(output.delivered.len() as u64);
        journal_bytes = output.report.journal_bytes;
        best = best.min(wall);
    }
    (best, served, journal_bytes)
}

struct RecoveryPoint {
    requests: usize,
    tail_records: u64,
    replayed: usize,
    recovery_ms: f64,
}

/// Crash a `n`-request run at its final *admit* append (the admit is
/// durable, the commit never happens, so recovery replays exactly that
/// request) and measure recovery wall time. `checkpoint_every = 0`
/// scans the whole journal; a nonzero value bounds the tail.
fn measure_recovery(n: usize, checkpoint_every: u64) -> RecoveryPoint {
    let requests = workload(n);
    // Appends alternate Admit/Commit, plus one Checkpoint marker per
    // `checkpoint_every` commits before the final admit.
    let markers = (n as u64 - 1).checked_div(checkpoint_every).unwrap_or(0);
    let crash_at = 2 * n as u64 - 1 + markers;
    let cfg = config(true, checkpoint_every);
    let mut srv =
        DurableServer::boot(cfg.clone(), &FaultPlan::new().crash_process(crash_at)).unwrap();
    let status = srv.run_stream(&requests).unwrap();
    assert_eq!(status, RunStatus::Crashed, "crash point must fire");
    let disks: DurableDisks = srv.into_disks().unwrap();

    let start = Instant::now();
    let (recovered, report) = DurableServer::recover(cfg, disks, &FaultPlan::new()).unwrap();
    let wall = start.elapsed();
    drop(recovered.into_disks());
    RecoveryPoint {
        requests: n,
        tail_records: report.tail_records,
        replayed: report.replayed.len(),
        recovery_ms: secs(wall) * 1e3,
    }
}

fn write_point(w: &mut JsonWriter, p: &RecoveryPoint) {
    w.begin_object().key("requests").u64(p.requests as u64);
    w.key("tail_records").u64(p.tail_records);
    w.key("replayed").u64(p.replayed as u64);
    w.key("recovery_ms").fixed(p.recovery_ms, 3).end_object();
}

fn write_bench_json(
    off: Duration,
    on: Duration,
    journal_bytes: u64,
    points: &[RecoveryPoint],
    checkpointed: &RecoveryPoint,
) -> std::io::Result<String> {
    let ratio = secs(on) / secs(off).max(1e-12);
    let mut w = JsonWriter::default();
    let requests = REQUESTS as f64;
    w.begin_object().key("bench").str("BENCH_09");
    w.key("seed").u64(SEED);
    w.key("durability_overhead").begin_object();
    w.key("requests").u64(REQUESTS as u64);
    w.key("off_wall_ms").fixed(secs(off) * 1e3, 3);
    w.key("on_wall_ms").fixed(secs(on) * 1e3, 3);
    w.key("requests_per_sec_off").fixed(requests / secs(off), 1);
    w.key("requests_per_sec_on").fixed(requests / secs(on), 1);
    w.key("ratio").fixed(ratio, 4);
    w.key("budget").f64(OVERHEAD_BUDGET);
    w.key("journal_bytes").u64(journal_bytes);
    w.end_object().key("recovery").begin_object();
    w.key("full_replay").begin_array();
    for p in points {
        write_point(&mut w, p);
    }
    w.end_array().key("checkpointed");
    write_point(&mut w, checkpointed);
    w.end_object().end_object();
    write_artifact("BENCH_09", &w.finish())
}

fn main() {
    let (off, _, _) = measure_soak(false, 3);
    let (on, _, journal_bytes) = measure_soak(true, 3);
    let ratio = secs(on) / secs(off).max(1e-12);
    println!("Durability overhead ({REQUESTS}-request soak, fixed seed {SEED}):");
    println!(
        "  journal off {:.3} ms ({:.1} req/s), on {:.3} ms ({:.1} req/s) -> {ratio:.2}x, {journal_bytes} journal bytes",
        secs(off) * 1e3,
        REQUESTS as f64 / secs(off),
        secs(on) * 1e3,
        REQUESTS as f64 / secs(on),
    );
    assert!(
        ratio < OVERHEAD_BUDGET,
        "journaling cost {ratio:.2}x a journal-off run, budget is {OVERHEAD_BUDGET}x"
    );

    let points: Vec<RecoveryPoint> = [4usize, 8, 12]
        .iter()
        .map(|&n| measure_recovery(n, 0))
        .collect();
    let checkpointed = measure_recovery(12, 4);
    println!("Recovery time vs journal tail length (crash at last admit):");
    for p in &points {
        println!(
            "  {:>2} requests, {:>3} tail records, {} replayed -> {:.3} ms",
            p.requests, p.tail_records, p.replayed, p.recovery_ms
        );
    }
    println!(
        "  12 requests, checkpoint every 4 commits: {:>3} tail records, {} replayed -> {:.3} ms",
        checkpointed.tail_records, checkpointed.replayed, checkpointed.recovery_ms
    );
    assert!(
        checkpointed.tail_records < points.last().unwrap().tail_records,
        "a checkpoint must bound the scanned tail"
    );

    let path = write_bench_json(off, on, journal_bytes, &points, &checkpointed).unwrap();
    println!("report: {path}\n");
}
