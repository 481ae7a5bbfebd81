//! Durability quickstart: crash a durable server mid-stream, recover
//! from the surviving disk images, and prove the recovered stream is
//! byte-identical.
//!
//! The run journals every request through the write-ahead protocol
//! (`Admit` → serve → deliver → `Commit`, group commit every 2 appends,
//! a checkpoint every 4 commits), kills the whole process at a seeded
//! journal append, then:
//!
//! * recovers from the surviving journal + checkpoint bytes
//!   (checkpoint-load + bounded tail replay, torn/corrupt suffix
//!   discarded),
//! * re-serves every admitted-but-uncommitted request exactly once —
//!   each replay emits a recovery span and arms a flight-recorder dump,
//! * lets the client retry what was never delivered, and
//! * verifies the durable commit log holds each `req_id` exactly once
//!   and every recovered response matches a crash-free run bit for bit.
//!
//! ```sh
//! cargo run --release --example durable_serve            # default seed 11
//! cargo run --release --example durable_serve -- 41      # pick a seed
//! cargo run --release --example durable_serve -- 41 torn # + torn write & lying flush
//! cargo run --release -p cell-telemetry --bin cell-top -- durable_metrics_11.prom
//! ```

use std::collections::BTreeSet;

use cell_durable::{durable_commit_log, DurableConfig, DurableServer, RunStatus};
use cell_fault::FaultPlan;
use cell_serve::{generate, Outcome, Request, ServeConfig, WorkloadSpec};
use cell_trace::json::JsonWriter;

const REQUESTS: usize = 12;

fn config(seed: u64) -> DurableConfig {
    DurableConfig {
        serve: ServeConfig {
            seed,
            queue_capacity: 1_024,
            degrade_high: 1_024,
            degrade_critical: 1_024,
            ..ServeConfig::default()
        },
        journal: true,
        group_commit: 2,
        checkpoint_every: 4,
    }
}

fn workload(seed: u64) -> Vec<Request> {
    generate(&WorkloadSpec {
        requests: REQUESTS,
        seed,
        mean_gap: 2_000_000,
        deadline: 100_000_000_000,
        width: 24,
        height: 24,
        burst: None,
    })
    .expect("workload generation")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(11);
    let torn = std::env::args().nth(2).is_some_and(|m| m == "torn");

    // Crash-free reference for the byte-identity check.
    let requests = workload(seed);
    let mut reference = DurableServer::boot(config(seed), &FaultPlan::new())?;
    reference.run_stream(&requests)?;
    let reference = reference.finish()?;
    let reference_digests: std::collections::BTreeMap<u64, u32> =
        durable_commit_log(&reference.disks.journal)
            .iter()
            .map(|&(id, digest, _, _)| (id, digest))
            .collect();

    // The crash: die at a mid-stream journal append. In `torn` mode the
    // 12th append is also torn mid-frame and the flush that would have
    // sealed it lies, so the crash image ends in garbage the recovery
    // scan must discard.
    let plan = if torn {
        FaultPlan::new()
            .torn_write(12, 4)
            .lose_flush(7)
            .crash_process(13)
    } else {
        FaultPlan::new().crash_process(14)
    };
    println!(
        "running {REQUESTS} requests under seed {seed}{} ...",
        if torn {
            " with a torn write and a lying flush"
        } else {
            ""
        }
    );
    let mut server = DurableServer::boot(config(seed), &plan)?;
    let status = server.run_stream(&requests)?;
    assert_eq!(status, RunStatus::Crashed, "the crash line must fire");

    let mut delivered = server.take_delivered();
    let pre_crash = delivered.len();
    let disks = server.into_disks()?;
    println!(
        "process lost after delivering {pre_crash} outcome(s); \
         {} journal bytes and {} checkpoint bytes survive",
        disks.journal.len(),
        disks.checkpoints.len()
    );

    // Recovery: checkpoint-load + bounded tail replay on a fresh epoch.
    let (mut recovered, report) = DurableServer::recover(config(seed), disks, &FaultPlan::new())?;
    println!(
        "recovered at epoch {}: checkpoint {:?}, watermark {}, {} tail record(s), \
         {} byte(s) discarded (corrupt suffix: {}), {} replay(s)",
        report.epoch,
        report.checkpoint_seq,
        report.watermark,
        report.tail_records,
        report.discarded_bytes,
        report.corrupt_suffix,
        report.replayed.len()
    );
    delivered.extend(recovered.take_delivered());

    // Client retry rule: anything neither delivered nor replayed was
    // lost with the crash; committed requests were always delivered, so
    // they are never retried.
    let seen: BTreeSet<u64> = delivered
        .iter()
        .map(|o| match o {
            Outcome::Served(r) => r.id,
            Outcome::Shed { id, .. } => *id,
        })
        .collect();
    let retries: Vec<Request> = requests
        .iter()
        .filter(|r| !seen.contains(&r.id) && !report.replayed.contains(&r.id))
        .cloned()
        .collect();
    println!("client retries {} undelivered request(s)", retries.len());
    recovered.run_stream(&retries)?;
    delivered.extend(recovered.take_delivered());
    let output = recovered.finish()?;

    // Exactly-once in the durable commit log, byte-identical responses.
    let log = durable_commit_log(&output.disks.journal);
    let mut ids = BTreeSet::new();
    for &(id, digest, _, _) in &log {
        assert!(ids.insert(id), "req {id} committed twice");
        if let Some(want) = reference_digests.get(&id) {
            assert_eq!(digest, *want, "req {id} digest differs from crash-free run");
        }
    }
    let replay_dumps = output
        .serve
        .flight_dumps
        .iter()
        .filter(|d| d.reason == "recovery_replay")
        .count();
    println!(
        "durable commit log: {} commit(s), every req_id exactly once, \
         digests byte-identical to the crash-free run",
        log.len()
    );
    println!(
        "epoch {} journaled {} append(s), {} flush(es), {} checkpoint(s); \
         {} flight dump(s) armed by recovery replays",
        output.report.epoch,
        output.report.appends,
        output.report.flushes,
        output.report.checkpoints,
        replay_dumps
    );

    // Artifacts: recovery + durability summary and the metrics the
    // cell-top durability row renders (serve SLO metrics + durable_*
    // gauges in one exposition).
    let summary_path = format!("durable_summary_{seed}.json");
    let mut w = JsonWriter::default();
    w.begin_object().key("seed").u64(seed);
    w.key("torn").bool(torn);
    w.key("recovery").raw(&report.summary_json());
    w.key("durable").raw(&output.report.summary_json());
    w.end_object();
    std::fs::write(&summary_path, w.finish())?;
    let prom_path = format!("durable_metrics_{seed}.prom");
    let mut prom = output.serve.metrics.to_prometheus_text();
    prom.push_str(&output.metrics.to_prometheus_text());
    std::fs::write(&prom_path, prom)?;
    println!("\nwrote {summary_path}, {prom_path} — render the .prom with cell-top");
    Ok(())
}
