//! Crash-restart soaks for the `cell-durable` durability plane.
//!
//! Every scenario follows the same shape: run a seeded request stream
//! against a durable server (or 4-blade cluster), kill the whole
//! process at a seeded point — including mid-group-commit with torn
//! writes and lying flushes — recover from the surviving disk images,
//! have the client retry what it never saw, and assert:
//!
//! * the combined outcome stream is **byte-identical** (feature bits,
//!   score bits, degradation) to a crash-free run of the same seed;
//! * any duplicate delivery (delivered pre-crash, commit lost) is
//!   byte-identical to the original and deduped by `req_id`;
//! * the final **durable commit log contains each `req_id` exactly
//!   once** (crash-free commits at their original epoch, replays at the
//!   recovery epoch).
//!
//! The torn-journal property test truncates a valid journal at *every*
//! byte boundary: the scan never panics, never yields a partial
//! record, and recovery never re-serves a committed request.

use std::collections::{BTreeMap, BTreeSet};

use cell_core::{checksum32, CellError};
use cell_durable::{
    durable_commit_log, journal::encode_frame, scan, DurableCluster, DurableClusterConfig,
    DurableClusterOutput, DurableConfig, DurableDisks, DurableOutput, DurableReport, DurableServer,
    Record, RecoveryReport, RunStatus, SHED_DEGRADATION,
};
use cell_fault::FaultPlan;
use cell_serve::{generate, Outcome, Request, Response, ServeConfig, WorkloadSpec};

/// Durable config for `seed`: queues deep and degradation disabled, so
/// a crash-free run serves everything at full service (the byte-identity
/// baseline).
fn durable_config(seed: u64) -> DurableConfig {
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

fn workload(requests: usize, seed: u64) -> Vec<Request> {
    generate(&WorkloadSpec {
        requests,
        seed,
        mean_gap: 2_000_000,
        deadline: 100_000_000_000,
        width: 16,
        height: 16,
        burst: None,
    })
    .unwrap()
}

/// Every feature and score must be bit-identical to the reference.
fn assert_bit_identical(got: &Response, want: &Response, context: &str) {
    assert_eq!(got.degradation, want.degradation, "{context}: degradation");
    assert_eq!(got.features.len(), want.features.len(), "{context}");
    for (kind, feature) in &got.features {
        let reference = &want
            .features
            .iter()
            .find(|(k, _)| k == kind)
            .unwrap_or_else(|| panic!("{context}: {} missing in reference", kind.name()))
            .1;
        assert_eq!(feature.len(), reference.len(), "{context}: {}", kind.name());
        for (i, (a, b)) in feature.iter().zip(reference.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: {}[{i}] {a} vs {b}",
                kind.name()
            );
        }
    }
    for (kind, score) in &got.scores {
        let reference = want
            .scores
            .iter()
            .find(|(k, _)| k == kind)
            .unwrap_or_else(|| panic!("{context}: {} score missing", kind.name()))
            .1;
        assert_eq!(
            score.to_bits(),
            reference.to_bits(),
            "{context}: {} score",
            kind.name()
        );
    }
}

/// The client's view of the outcome stream: dedup by `req_id`, but any
/// duplicate delivery must be byte-identical to the first.
#[derive(Default)]
struct Client {
    served: BTreeMap<u64, Response>,
    shed: BTreeSet<u64>,
    duplicates: u64,
}

impl Client {
    fn absorb(&mut self, outcomes: Vec<Outcome>) {
        for outcome in outcomes {
            match outcome {
                Outcome::Served(r) => {
                    if let Some(first) = self.served.get(&r.id) {
                        self.duplicates += 1;
                        assert_bit_identical(&r, first, "duplicate delivery");
                    } else {
                        self.served.insert(r.id, *r);
                    }
                }
                Outcome::Shed { id, .. } => {
                    self.shed.insert(id);
                }
            }
        }
    }

    fn seen_ids(&self) -> BTreeSet<u64> {
        self.served
            .keys()
            .chain(self.shed.iter())
            .copied()
            .collect()
    }

    fn assert_matches(&self, reference: &Client) {
        assert_eq!(self.shed, reference.shed, "shed sets differ");
        assert_eq!(
            self.served.keys().collect::<Vec<_>>(),
            reference.served.keys().collect::<Vec<_>>(),
            "served id sets differ"
        );
        for (id, got) in &self.served {
            assert_bit_identical(got, &reference.served[id], &format!("req {id}"));
        }
    }
}

/// Each `req_id` must appear exactly once among the journal's durable
/// `Commit` records; with `complete`, the log must cover every id.
fn assert_commit_log_exactly_once(journal: &[u8], all_ids: &BTreeSet<u64>, complete: bool) {
    let log = durable_commit_log(journal);
    let mut seen = BTreeSet::new();
    for (id, _, _, _) in &log {
        assert!(seen.insert(*id), "req {id} committed twice in durable log");
    }
    if complete {
        assert_eq!(
            &seen, all_ids,
            "durable commit log does not cover the stream"
        );
    } else {
        assert!(seen.is_subset(all_ids));
    }
}

/// Crash-free durable reference run: the byte-identity baseline.
fn reference_run(seed: u64, n: usize) -> (Client, Vec<u8>) {
    let mut srv = DurableServer::boot(durable_config(seed), &FaultPlan::new()).unwrap();
    let status = srv.run_stream(&workload(n, seed)).unwrap();
    assert_eq!(status, RunStatus::Completed);
    let mut client = Client::default();
    client.absorb(srv.take_delivered());
    let output = srv.finish().unwrap();
    assert_eq!(output.report.epoch, 0);
    (client, output.disks.journal)
}

/// Pin a disk image to its exact length and `checksum32`: the journal
/// and checkpoint bytes are an on-disk format, so any rework of the
/// write-ahead code must reproduce them exactly.
fn assert_image(bytes: &[u8], len: usize, sum: u32, what: &str) {
    assert_eq!((bytes.len(), checksum32(bytes)), (len, sum), "{what} image");
}

/// Pin a run's `(appends, flushes, checkpoints, replays)`.
fn assert_counts(report: &DurableReport, counts: (u64, u64, u64, u64)) {
    let got = (
        report.appends,
        report.flushes,
        report.checkpoints,
        report.replays,
    );
    assert_eq!(got, counts, "(appends, flushes, checkpoints, replays)");
}

/// The client retry rule: anything neither delivered nor replayed was
/// lost with the crash and gets resubmitted. (Pre-crash committed
/// requests were always delivered — see the exactly-once argument — so
/// clients never retry them.)
fn retries(requests: &[Request], client: &Client, report: &RecoveryReport) -> Vec<Request> {
    let seen = client.seen_ids();
    requests
        .iter()
        .filter(|r| !seen.contains(&r.id) && !report.replayed.contains(&r.id))
        .cloned()
        .collect()
}

/// Crash a durable run under `plan`, recover with a clean plan, retry
/// what the client never saw, and return the combined client view, the
/// final output and the recovery report (`None`: no crash happened).
fn crash_and_recover(
    seed: u64,
    n: usize,
    plan: &FaultPlan,
) -> (Client, DurableOutput, Option<RecoveryReport>) {
    let requests = workload(n, seed);
    let cfg = durable_config(seed);
    let mut srv = DurableServer::boot(cfg.clone(), plan).unwrap();
    let status = srv.run_stream(&requests).unwrap();
    let mut client = Client::default();
    client.absorb(srv.take_delivered());
    if status == RunStatus::Completed {
        return (client, srv.finish().unwrap(), None);
    }

    let disks = srv.into_disks().unwrap();
    let (mut srv2, report) = DurableServer::recover(cfg, disks, &FaultPlan::new()).unwrap();
    assert!(!srv2.crashed(), "clean recovery must not crash");
    assert!(report.epoch >= 1, "recovery bumps the epoch");
    client.absorb(srv2.take_delivered());
    let status = srv2
        .run_stream(&retries(&requests, &client, &report))
        .unwrap();
    assert_eq!(status, RunStatus::Completed);
    client.absorb(srv2.take_delivered());
    let output = srv2.finish().unwrap();
    assert_eq!(output.report.epoch, report.epoch);
    (client, output, Some(report))
}

// -------------------------------------------------------------------
// Single server
// -------------------------------------------------------------------

#[test]
fn crash_free_durable_run_matches_journal_off_baseline() {
    let seed = 2009;
    let n = 8;
    let (reference, journal) = reference_run(seed, n);
    let all_ids: BTreeSet<u64> = workload(n, seed).iter().map(|r| r.id).collect();
    assert_eq!(reference.served.len(), n, "deep queues serve everything");
    assert!(reference.shed.is_empty());
    assert_commit_log_exactly_once(&journal, &all_ids, true);

    let mut cfg = durable_config(seed);
    cfg.journal = false;
    let mut baseline = DurableServer::boot(cfg, &FaultPlan::new()).unwrap();
    baseline.run_stream(&workload(n, seed)).unwrap();
    let mut client = Client::default();
    client.absorb(baseline.take_delivered());
    let output = baseline.finish().unwrap();
    assert_eq!(output.report.appends, 0, "journal off appends nothing");
    assert!(output.disks.journal.is_empty());
    client.assert_matches(&reference);
}

#[test]
fn crash_recovery_is_byte_identical_across_seeded_crash_points() {
    let seed = 4242;
    let n = 8;
    let (reference, _) = reference_run(seed, n);
    let all_ids: BTreeSet<u64> = workload(n, seed).iter().map(|r| r.id).collect();

    // Appends alternate Admit/Commit (plus checkpoint markers), so
    // these points land on admits, commits and a marker.
    for crash_at in [1, 4, 7, 12] {
        let plan = FaultPlan::new().crash_process(crash_at);
        let (client, output, report) = crash_and_recover(seed, n, &plan);
        assert!(report.is_some(), "crash point {crash_at} must fire");
        client.assert_matches(&reference);
        assert_commit_log_exactly_once(&output.disks.journal, &all_ids, true);
    }

    // The 4-blade cluster: 12 requests make 39 appends, Admit/Commit/
    // CacheInsert triples plus a Checkpoint marker after every 4th
    // commit. These points land on an Admit (1), a Commit whose
    // CacheInsert is then never written (2), a CacheInsert (3), the
    // first marker (13), the first Admit after it (14), the Commit of
    // the first repeated payload (28) and the last marker (39).
    let seed = 77;
    let requests = cluster_workload(8, seed);
    let (reference, _) = cluster_reference_run(seed, &requests);
    let all_ids: BTreeSet<u64> = requests.iter().map(|r| r.id).collect();
    for crash_at in [1, 2, 3, 13, 14, 28, 39] {
        let plan = FaultPlan::new().crash_process(crash_at);
        let (client, output, report) = cluster_crash_and_recover(seed, &requests, &plan);
        assert!(report.is_some(), "cluster crash point {crash_at} must fire");
        client.assert_matches(&reference);
        assert_commit_log_exactly_once(&output.disks.journal, &all_ids, true);
    }
}

#[test]
fn mid_group_commit_torn_write_recovers_exactly_once() {
    let seed = 1977;
    let n = 8;
    let (reference, _) = reference_run(seed, n);
    let all_ids: BTreeSet<u64> = workload(n, seed).iter().map(|r| r.id).collect();

    // Appends alternate Admit/Commit, so append 6 is req 3's commit:
    // it is torn mid-frame, the group-commit flush right after it lies,
    // and the process dies at append 7. The crash image cuts at the
    // tear — req 3's admit survives, its commit does not, and the
    // client already saw the response. Recovery must discard the torn
    // suffix and re-serve req 3 byte-identically (a duplicate delivery,
    // deduped by id).
    let plan = FaultPlan::new()
        .torn_write(6, 3)
        .lose_flush(3)
        .crash_process(7);
    let (client, output, report) = crash_and_recover(seed, n, &plan);
    let report = report.expect("the crash line must fire");
    assert!(
        report.discarded_bytes > 0,
        "the torn frame must be discarded"
    );
    assert!(
        client.duplicates > 0,
        "lost commits imply duplicate deliveries"
    );
    client.assert_matches(&reference);
    assert_commit_log_exactly_once(&output.disks.journal, &all_ids, true);
}

#[test]
fn recovery_after_torn_crash_is_deterministic() {
    let seed = 31;
    let n = 6;
    let plan = FaultPlan::new()
        .torn_write(4, 2)
        .lose_flush(2)
        .crash_process(6);
    let (client_a, out_a, report_a) = crash_and_recover(seed, n, &plan);
    let (client_b, out_b, report_b) = crash_and_recover(seed, n, &plan);
    assert!(report_a.is_some() && report_b.is_some());
    client_a.assert_matches(&client_b);
    assert_eq!(
        out_a.disks.journal, out_b.disks.journal,
        "crash + recovery must be byte-reproducible end to end"
    );
    // The recovered incarnation's disk images and counters, pinned.
    assert_image(&out_a.disks.journal, 4_244, 0x8f7f_4f99, "journal");
    assert_image(&out_a.disks.checkpoints, 40, 0x14fc_2912, "checkpoints");
    assert_counts(&out_a.report, (8, 5, 1, 1));
}

#[test]
fn crash_on_the_final_checkpoint_fails_finish() {
    // Six requests make twelve Admit/Commit appends plus the marker of
    // the checkpoint after the 4th commit; `finish` writes the 14th
    // append, its final checkpoint's marker. A crash there must not
    // read as a graceful shutdown.
    let seed = 4242;
    let plan = FaultPlan::new().crash_process(14);
    let mut srv = DurableServer::boot(durable_config(seed), &plan).unwrap();
    let status = srv.run_stream(&workload(6, seed)).unwrap();
    assert_eq!(status, RunStatus::Completed);
    assert!(matches!(srv.finish(), Err(CellError::BadData { .. })));

    // The cluster's tail is the same: 9 requests make 29 appends in
    // the stream, and the 30th is `finish`'s checkpoint marker.
    let seed = 77;
    let plan = FaultPlan::new().crash_process(30);
    let mut cluster = DurableCluster::boot(cluster_config(seed), &plan).unwrap();
    let status = cluster.run_stream(&cluster_workload(6, seed)).unwrap();
    assert_eq!(status, RunStatus::Completed);
    assert!(matches!(cluster.finish(), Err(CellError::BadData { .. })));
}

#[test]
fn checkpoint_bounds_tail_replay() {
    let seed = 6060;
    let n = 12;
    let requests = workload(n, seed);
    let cfg = durable_config(seed); // checkpoint_every = 4
    let plan = FaultPlan::new().crash_process(23);
    let mut srv = DurableServer::boot(cfg.clone(), &plan).unwrap();
    let status = srv.run_stream(&requests).unwrap();
    assert_eq!(status, RunStatus::Crashed);
    let mut client = Client::default();
    client.absorb(srv.take_delivered());
    let disks = srv.into_disks().unwrap();
    let total_records = scan(&disks.journal).records.len() as u64;

    let (mut srv2, report) = DurableServer::recover(cfg, disks, &FaultPlan::new()).unwrap();
    let seq = report.checkpoint_seq.expect("checkpoints were written");
    assert!(seq >= 1);
    assert!(
        report.watermark > 0,
        "tail replay starts past the watermark"
    );
    assert!(
        report.tail_records < total_records,
        "checkpoint must bound the scanned tail ({} vs {total_records})",
        report.tail_records
    );
    client.absorb(srv2.take_delivered());

    let (reference, _) = reference_run(seed, n);
    srv2.run_stream(&retries(&requests, &client, &report))
        .unwrap();
    client.absorb(srv2.take_delivered());
    let output = srv2.finish().unwrap();
    client.assert_matches(&reference);
    let all_ids: BTreeSet<u64> = requests.iter().map(|r| r.id).collect();
    assert_commit_log_exactly_once(&output.disks.journal, &all_ids, true);
}

#[test]
fn bit_rot_is_detected_and_truncates_the_scan() {
    let seed = 505;
    let n = 8;
    let (reference, _) = reference_run(seed, n);
    let all_ids: BTreeSet<u64> = workload(n, seed).iter().map(|r| r.id).collect();

    // One bit of append 3 rots at rest; the process dies at append 9.
    // The frame checksum catches the rot, the scan truncates there, and
    // exactly-once degrades to at-least-once for the discarded suffix —
    // flagged, never silent. Checkpoints are disabled so the rotted
    // frame is inside the scanned window.
    let mut cfg = durable_config(seed);
    cfg.checkpoint_every = 0;
    let plan = FaultPlan::new().bit_rot(3, 17).crash_process(9);
    let requests = workload(n, seed);
    let mut srv = DurableServer::boot(cfg.clone(), &plan).unwrap();
    let status = srv.run_stream(&requests).unwrap();
    assert_eq!(status, RunStatus::Crashed);
    let mut client = Client::default();
    client.absorb(srv.take_delivered());
    let disks = srv.into_disks().unwrap();

    let (mut srv2, report) = DurableServer::recover(cfg, disks, &FaultPlan::new()).unwrap();
    assert!(report.corrupt_suffix, "bit rot must be flagged");
    assert!(report.discarded_bytes > 0);
    client.absorb(srv2.take_delivered());
    srv2.run_stream(&retries(&requests, &client, &report))
        .unwrap();
    client.absorb(srv2.take_delivered());
    let output = srv2.finish().unwrap();
    // The client still sees everything, byte-identically; the durable
    // log stays duplicate-free but may not cover ids whose commits were
    // lost to the rot (they were delivered, so never retried).
    client.assert_matches(&reference);
    assert_commit_log_exactly_once(&output.disks.journal, &all_ids, false);
}

// -------------------------------------------------------------------
// Torn-journal property test: every byte boundary
// -------------------------------------------------------------------

#[test]
fn journal_truncated_at_every_byte_boundary_never_panics_or_double_serves() {
    let seed = 909;
    let n = 4;
    let mut cfg = durable_config(seed);
    cfg.checkpoint_every = 0; // recovery = pure journal scan
    let requests = workload(n, seed);
    let mut srv = DurableServer::boot(cfg.clone(), &FaultPlan::new()).unwrap();
    srv.run_stream(&requests).unwrap();
    let output = srv.finish().unwrap();
    let journal = output.disks.journal;
    let reference: BTreeMap<u64, Response> = output
        .delivered
        .into_iter()
        .filter_map(|o| match o {
            Outcome::Served(r) => Some((r.id, *r)),
            Outcome::Shed { .. } => None,
        })
        .collect();
    let full = scan(&journal);
    assert!(!full.corrupt_suffix);

    // Scan every truncation: no panic, no partial record, commits
    // stay unique in every prefix.
    for cut in 0..=journal.len() {
        let scanned = scan(&journal[..cut]);
        assert!(scanned.valid_len as usize <= cut);
        let mut committed = BTreeSet::new();
        for rec in &scanned.records {
            if let Record::Commit { req_id, .. } = &rec.record {
                assert!(committed.insert(*req_id), "cut {cut}: duplicate commit");
            }
        }
    }

    // Full end-to-end recovery at every frame boundary and one byte
    // into every frame (a torn header): recovery must never re-serve a
    // committed request and the repaired log stays exactly-once.
    let mut cuts: Vec<usize> = full.records.iter().map(|r| r.offset as usize).collect();
    cuts.extend(full.records.iter().map(|r| r.offset as usize + 1));
    cuts.push(journal.len());
    cuts.retain(|&c| c <= journal.len());
    cuts.sort_unstable();
    cuts.dedup();
    let all_ids: BTreeSet<u64> = requests.iter().map(|r| r.id).collect();
    for cut in cuts {
        let truncated = journal[..cut].to_vec();
        let committed: BTreeSet<u64> = durable_commit_log(&truncated)
            .iter()
            .map(|(id, _, _, _)| *id)
            .collect();
        let disks = cell_durable::DurableDisks {
            journal: truncated,
            checkpoints: Vec::new(),
        };
        let (mut srv2, report) =
            DurableServer::recover(cfg.clone(), disks, &FaultPlan::new()).unwrap();
        for id in &report.replayed {
            assert!(
                !committed.contains(id),
                "cut {cut}: recovery re-served committed req {id}"
            );
        }
        // Byte-identity of every replayed outcome against the reference.
        let mut client = Client::default();
        client.absorb(srv2.take_delivered());
        for (id, got) in &client.served {
            assert_bit_identical(got, &reference[id], &format!("cut {cut} req {id}"));
        }
        // A client that saw exactly the committed prefix retries the
        // rest; the repaired log must be exactly-once and complete.
        let retries: Vec<Request> = requests
            .iter()
            .filter(|r| !committed.contains(&r.id) && !report.replayed.contains(&r.id))
            .cloned()
            .collect();
        srv2.run_stream(&retries).unwrap();
        let out = srv2.finish().unwrap();
        assert_commit_log_exactly_once(&out.disks.journal, &all_ids, true);
    }
}

// -------------------------------------------------------------------
// Whole-cluster loss
// -------------------------------------------------------------------

/// 4-blade durable cluster config with the cache on (repeat payloads
/// exercise cache checkpointing and restore).
fn cluster_config(seed: u64) -> DurableClusterConfig {
    DurableClusterConfig {
        cluster: cell_cluster::ClusterConfig {
            blades: 4,
            cache: true,
            serve: ServeConfig {
                seed,
                queue_capacity: 1_024,
                degrade_high: 1_024,
                degrade_critical: 1_024,
                ..ServeConfig::default()
            },
            ..cell_cluster::ClusterConfig::default()
        },
        journal: true,
        group_commit: 3,
        checkpoint_every: 4,
    }
}

/// A workload whose second half repeats the first half's payloads under
/// fresh ids, so the router cache actually fills and hits.
fn cluster_workload(n: usize, seed: u64) -> Vec<Request> {
    let mut requests = workload(n, seed);
    let repeats: Vec<Request> = requests
        .iter()
        .take(n / 2)
        .map(|r| Request {
            id: r.id + 1_000,
            arrival: r.arrival + 50_000_000,
            deadline: r.deadline,
            image: r.image.clone(),
        })
        .collect();
    requests.extend(repeats);
    requests
}

/// Crash-free durable cluster run over `requests`: the byte-identity
/// baseline.
fn cluster_reference_run(seed: u64, requests: &[Request]) -> (Client, DurableClusterOutput) {
    let mut cluster = DurableCluster::boot(cluster_config(seed), &FaultPlan::new()).unwrap();
    assert_eq!(cluster.run_stream(requests).unwrap(), RunStatus::Completed);
    let mut client = Client::default();
    client.absorb(cluster.take_delivered());
    (client, cluster.finish().unwrap())
}

/// [`crash_and_recover`] for the 4-blade cluster: whole-cluster loss
/// under `plan`, clean recovery, client retries.
fn cluster_crash_and_recover(
    seed: u64,
    requests: &[Request],
    plan: &FaultPlan,
) -> (Client, DurableClusterOutput, Option<RecoveryReport>) {
    let cfg = cluster_config(seed);
    let mut cluster = DurableCluster::boot(cfg.clone(), plan).unwrap();
    let status = cluster.run_stream(requests).unwrap();
    let mut client = Client::default();
    client.absorb(cluster.take_delivered());
    if status == RunStatus::Completed {
        return (client, cluster.finish().unwrap(), None);
    }

    let disks = cluster.into_disks().unwrap();
    let (mut recovered, report) = DurableCluster::recover(cfg, disks, &FaultPlan::new()).unwrap();
    assert!(!recovered.crashed(), "clean recovery must not crash");
    assert!(report.epoch >= 1, "recovery bumps the epoch");
    client.absorb(recovered.take_delivered());
    let status = recovered
        .run_stream(&retries(requests, &client, &report))
        .unwrap();
    assert_eq!(status, RunStatus::Completed);
    client.absorb(recovered.take_delivered());
    (client, recovered.finish().unwrap(), Some(report))
}

#[test]
fn whole_cluster_loss_recovers_byte_identically_with_cache_restore() {
    let seed = 77;
    let n = 8;
    let requests = cluster_workload(n, seed);
    let all_ids: BTreeSet<u64> = requests.iter().map(|r| r.id).collect();

    // Crash-free reference.
    let (reference, ref_out) = cluster_reference_run(seed, &requests);
    assert_eq!(reference.served.len(), requests.len());
    assert!(
        ref_out.cluster.report.cache_hits > 0,
        "repeat payloads must hit the cache"
    );
    assert_commit_log_exactly_once(&ref_out.disks.journal, &all_ids, true);
    assert_image(&ref_out.disks.journal, 31_287, 0xfaf6_7089, "journal");
    assert_image(
        &ref_out.disks.checkpoints,
        35_356,
        0xfa5a_2263,
        "checkpoints",
    );
    assert_counts(&ref_out.report, (39, 16, 3, 0));

    // Whole-cluster loss mid-stream (mid-group-commit, torn write).
    let plan = FaultPlan::new()
        .torn_write(14, 5)
        .lose_flush(5)
        .crash_process(16);
    let (client, output, report) = cluster_crash_and_recover(seed, &requests, &plan);
    let report = report.expect("the crash line must fire");
    let recovery = (
        report.checkpoint_seq,
        report.watermark,
        report.tail_records,
        report.cache_restored,
    );
    assert_eq!(
        recovery,
        (Some(1), 10_400, 4, 5),
        "(checkpoint_seq, watermark, tail_records, cache_restored)"
    );
    assert_image(&output.disks.journal, 31_287, 0x0067_8faa, "journal");
    assert_image(
        &output.disks.checkpoints,
        35_356,
        0x9e36_a44d,
        "checkpoints",
    );
    assert_counts(&output.report, (23, 11, 2, report.replayed.len() as u64));

    client.assert_matches(&reference);
    assert_commit_log_exactly_once(&output.disks.journal, &all_ids, true);
    // No shed decision is ever re-made: shed commits carry the marker.
    for (_, digest, degradation, _) in durable_commit_log(&output.disks.journal) {
        if degradation == SHED_DEGRADATION {
            assert_eq!(digest, 0);
        }
    }
}

// -------------------------------------------------------------------
// A checkpoint taken mid-replay
// -------------------------------------------------------------------

/// Recover `disks` under `plan` on a single server; return the report
/// and the disks it leaves (crash images, or the finished images).
fn recover_server(
    seed: u64,
    disks: DurableDisks,
    plan: &FaultPlan,
) -> (RecoveryReport, DurableDisks) {
    let (srv, report) = DurableServer::recover(durable_config(seed), disks, plan).unwrap();
    let disks = if srv.crashed() {
        srv.into_disks().unwrap()
    } else {
        srv.finish().unwrap().disks
    };
    (report, disks)
}

/// [`recover_server`] for the 4-blade cluster.
fn recover_cluster(
    seed: u64,
    disks: DurableDisks,
    plan: &FaultPlan,
) -> (RecoveryReport, DurableDisks) {
    let (cluster, report) = DurableCluster::recover(cluster_config(seed), disks, plan).unwrap();
    let disks = if cluster.crashed() {
        cluster.into_disks().unwrap()
    } else {
        cluster.finish().unwrap().disks
    };
    (report, disks)
}

/// Six journaled `Admit`s and nothing else. The first recovery crashes
/// on the marker of the first checkpoint it writes, after its 4th
/// replay has committed; that checkpoint must still hold the replays
/// not yet re-admitted, so a clean second recovery serves them.
fn assert_mid_replay_checkpoint_keeps_pending(
    recover: fn(u64, DurableDisks, &FaultPlan) -> (RecoveryReport, DurableDisks),
) {
    let seed = 4242;
    let requests = workload(6, seed);
    let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    let admits = DurableDisks {
        journal: requests
            .iter()
            .flat_map(|r| encode_frame(&Record::admit(r), 0))
            .collect(),
        checkpoints: Vec::new(),
    };

    // Where a clean recovery drops its first checkpoint marker, counted
    // in recovery's own appends.
    let (_, clean) = recover(seed, admits.clone(), &FaultPlan::new());
    let marker = scan(&clean.journal)
        .records
        .iter()
        .position(|s| matches!(s.record, Record::Checkpoint { .. }))
        .expect("recovery checkpoints")
        + 1
        - ids.len();

    let plan = FaultPlan::new().crash_process(marker as u64);
    let (first, crashed) = recover(seed, admits, &plan);
    assert_eq!(
        first.replayed,
        ids[..4],
        "crash on the 4th replay's checkpoint"
    );
    let (second, out) = recover(seed, crashed, &FaultPlan::new());
    assert_eq!(second.replayed, ids[4..], "the unreplayed admits survive");
    assert_commit_log_exactly_once(&out.journal, &ids.iter().copied().collect(), true);
}

#[test]
fn checkpoint_taken_mid_replay_keeps_the_unreplayed_admits() {
    assert_mid_replay_checkpoint_keeps_pending(recover_server);
    assert_mid_replay_checkpoint_keeps_pending(recover_cluster);
}
