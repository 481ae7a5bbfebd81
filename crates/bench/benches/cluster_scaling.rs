//! BENCH_07 — cluster scaling and cache-hit throughput.
//!
//! Two measurements over the `cell-cluster` sharded serving runtime:
//!
//! * **Blade scaling** — the same near-simultaneous burst served by 1,
//!   2 and 4 blades. Wall-clock requests/sec is reported for the
//!   curious; the *asserted* axis is simulated throughput (served
//!   requests per simulated second, where cluster elapsed = the max
//!   over blades), because blades serve their shards in independent
//!   virtual time: 4 blades must be at least as fast as 1 in simulated
//!   time, and typically several times faster.
//! * **Cache-hit throughput** — a repeat-heavy workload (4 unique
//!   payloads, 16 requests) with the content-addressed router cache on
//!   vs off: the cache must answer every repeat without touching a
//!   blade, so cache-on simulated elapsed can only shrink.
//!
//! Results land in `target/bench/BENCH_07.json` for the CI artifact.

use std::time::{Duration, Instant};

use cell_bench::harness::{write_artifact, Criterion};
use cell_bench::{criterion_group, criterion_main, SEED};
use cell_cluster::{CellCluster, ClusterConfig, ClusterOutput};
use cell_fault::FaultPlan;
use cell_serve::{generate, Request, ServeConfig, WorkloadSpec};
use cell_trace::json::JsonWriter;

const REQUESTS: usize = 16;
const UNIQUES: usize = 4;

fn cluster_config(blades: usize, cache: bool) -> ClusterConfig {
    ClusterConfig {
        blades,
        cache,
        serve: ServeConfig {
            seed: SEED,
            queue_capacity: 1_024,
            degrade_high: 1_024,
            degrade_critical: 1_024,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// A near-simultaneous burst: arrivals packed tight so per-blade
/// serving time, not the arrival span, dominates simulated elapsed.
fn burst_workload(requests: usize) -> Vec<Request> {
    generate(&WorkloadSpec {
        requests,
        seed: SEED,
        mean_gap: 1_000,
        deadline: 100_000_000_000,
        width: 24,
        height: 24,
        burst: None,
    })
    .unwrap()
}

/// The scaling burst with every payload drawn from `UNIQUES` images:
/// request *i* repeats the payload of request *i mod UNIQUES*.
fn repeat_heavy_workload(requests: usize) -> Vec<Request> {
    let base = burst_workload(requests);
    base.iter()
        .map(|r| Request {
            id: r.id,
            arrival: r.arrival,
            deadline: r.deadline,
            image: base[r.id as usize % UNIQUES].image.clone(),
        })
        .collect()
}

struct Run {
    output: ClusterOutput,
    wall: Duration,
}

fn run(blades: usize, cache: bool, requests: Vec<Request>) -> Run {
    let t0 = Instant::now();
    let mut cluster = CellCluster::new(cluster_config(blades, cache), &FaultPlan::new()).unwrap();
    cluster.run(requests).unwrap();
    let output = cluster.finish().unwrap();
    Run {
        output,
        wall: t0.elapsed(),
    }
}

fn sim_rps(r: &Run) -> f64 {
    r.output.report.served as f64 / r.output.report.elapsed.seconds().max(1e-12)
}

fn wall_rps(r: &Run) -> f64 {
    r.output.report.served as f64 / r.wall.as_secs_f64().max(1e-12)
}

fn write_scaling(w: &mut JsonWriter, blades: usize, r: &Run) {
    w.begin_object().key("blades").u64(blades as u64);
    w.key("served").u64(r.output.report.served);
    w.key("wall_ms").fixed(r.wall.as_secs_f64() * 1e3, 3);
    w.key("requests_per_sec_wall").fixed(wall_rps(r), 1);
    let sim_ms = r.output.report.elapsed.millis();
    w.key("elapsed_virtual_ms").fixed(sim_ms, 3);
    w.key("requests_per_sec_sim").fixed(sim_rps(r), 1);
    w.end_object();
}

fn bench_cluster(c: &mut Criterion) {
    // --- Blade scaling: 1 vs 2 vs 4 blades on the same burst. ---
    let runs: Vec<(usize, Run)> = [1usize, 2, 4]
        .into_iter()
        .map(|blades| (blades, run(blades, false, burst_workload(REQUESTS))))
        .collect();
    println!("Blade scaling ({REQUESTS}-request burst, fixed seed {SEED}):");
    for (blades, r) in &runs {
        println!(
            "  {blades} blade(s): served {} in {:.3} sim ms ({:.1} req/s sim, {:.1} req/s wall)",
            r.output.report.served,
            r.output.report.elapsed.millis(),
            sim_rps(r),
            wall_rps(r),
        );
        assert_eq!(
            r.output.report.served, REQUESTS as u64,
            "every burst request must be served at {blades} blade(s)"
        );
    }
    let one = &runs[0].1;
    let four = &runs[2].1;
    let speedup = sim_rps(four) / sim_rps(one).max(1e-12);
    println!("  4-blade vs 1-blade simulated speedup: {speedup:.2}x");
    assert!(
        sim_rps(four) >= sim_rps(one),
        "4 blades must not serve slower than 1 in simulated time \
         ({:.1} vs {:.1} req/s)",
        sim_rps(four),
        sim_rps(one)
    );

    // --- Cache-hit throughput on a repeat-heavy workload. ---
    let off = run(2, false, repeat_heavy_workload(REQUESTS));
    let on = run(2, true, repeat_heavy_workload(REQUESTS));
    let expected_hits = (REQUESTS - UNIQUES) as u64;
    println!("Cache-hit throughput ({UNIQUES} uniques over {REQUESTS} requests, 2 blades):");
    println!(
        "  off: {:.3} sim ms ({:.1} req/s sim), on: {:.3} sim ms ({:.1} req/s sim), hits {}",
        off.output.report.elapsed.millis(),
        sim_rps(&off),
        on.output.report.elapsed.millis(),
        sim_rps(&on),
        on.output.report.cache_hits,
    );
    assert_eq!(on.output.report.served, REQUESTS as u64);
    assert_eq!(
        on.output.report.cache_hits, expected_hits,
        "every repeated payload must be answered from the cache"
    );
    assert!(
        on.output.report.elapsed.seconds() <= off.output.report.elapsed.seconds(),
        "cache hits never add simulated serving time"
    );

    let mut w = JsonWriter::default();
    w.begin_object().key("bench").str("BENCH_07");
    w.key("seed").u64(SEED).key("clock_ghz").f64(3.2);
    w.key("scaling").begin_array();
    for (blades, r) in &runs {
        write_scaling(&mut w, *blades, r);
    }
    w.end_array();
    w.key("scaling_sim_speedup_4_vs_1").fixed(speedup, 3);
    w.key("cache").begin_object();
    w.key("uniques").u64(UNIQUES as u64);
    w.key("requests").u64(REQUESTS as u64);
    w.key("hits").u64(on.output.report.cache_hits);
    let sim_ms = |r: &Run| r.output.report.elapsed.millis();
    w.key("off_sim_ms").fixed(sim_ms(&off), 3);
    w.key("on_sim_ms").fixed(sim_ms(&on), 3);
    w.key("off_wall_ms").fixed(off.wall.as_secs_f64() * 1e3, 3);
    w.key("on_wall_ms").fixed(on.wall.as_secs_f64() * 1e3, 3);
    w.key("on_requests_per_sec_sim").fixed(sim_rps(&on), 1);
    w.end_object().end_object();
    let path = write_artifact("BENCH_07", &w.finish()).unwrap();
    println!("report: {path}\n");

    // Host-clock samples for criterion's statistics (the JSON keeps the
    // single-run numbers).
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    g.bench_function("burst/2blades", |b| {
        b.iter(|| run(2, false, burst_workload(4)));
    });
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
