//! The write-ahead core both durable front ends share.
//!
//! [`Wal`] implements the protocol in the crate docs once: it owns the
//! journal and checkpoint devices, the process crash line, the epoch,
//! the commit ledger, the pending and delivered sets, the group-commit
//! and checkpoint counters and the durability metrics.
//! [`crate::DurableServer`] and [`crate::DurableCluster`] each hold one
//! and keep only their backend.
//!
//! The crash line fires at journal-append boundaries. When it does, the
//! core keeps what the platters keep at that instant and reports
//! [`RunStatus::Crashed`]; the front end then tears its backend down.

use std::collections::BTreeMap;

use cell_cluster::{CachedResult, CellCluster, ContentKey};
use cell_core::{CellError, CellResult};
use cell_fault::{FaultKind, FaultLine, FaultPlan, FaultSite};
use cell_serve::{Outcome, Request};
use cell_telemetry::MetricsRegistry;
use portkit::CommitLedger;

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::journal::{encode_frame, scan_from, Record};
use crate::server::{DurableDisks, DurableReport, RecoveryReport, RunStatus};
use crate::storage::StableStorage;

/// One process incarnation's write-ahead state.
pub(crate) struct Wal {
    /// Append journal records (off = the measured-overhead baseline).
    journal_on: bool,
    group_commit: usize,
    checkpoint_every: u64,
    journal: StableStorage,
    checkpoints: CheckpointStore,
    crash_line: FaultLine,
    pub(crate) epoch: u32,
    pub(crate) ledger: CommitLedger,
    /// Admitted, not yet committed (what a checkpoint snapshots).
    pub(crate) pending: BTreeMap<u64, Request>,
    /// Outcomes delivered to the client and not yet taken.
    pub(crate) delivered: Vec<Outcome>,
    appends_since_flush: usize,
    commits_since_ckpt: u64,
    ckpt_seq: u64,
    ckpt_count: u64,
    replays: u64,
    /// What the platters kept when the crash line fired.
    crash_disks: Option<DurableDisks>,
    pub(crate) metrics: MetricsRegistry,
}

/// What recovery read off the surviving disks, for the front end to
/// act on once its backend is rebuilt.
pub(crate) struct Recovered {
    pub(crate) report: RecoveryReport,
    /// Admitted requests without a durable commit, in `(arrival, id)`
    /// order: each is re-admitted exactly once.
    pub(crate) replay: Vec<Request>,
    /// The loaded checkpoint's blade generations (empty without one).
    pub(crate) generations: Vec<u64>,
    /// The router cache to restore: the checkpoint's snapshot, then
    /// every committed `CacheInsert` in the tail.
    pub(crate) cache: Vec<(ContentKey, CachedResult)>,
}

impl Wal {
    /// First boot: fresh storage, epoch 0.
    pub(crate) fn boot(
        journal: bool,
        group_commit: usize,
        checkpoint_every: u64,
        plan: &FaultPlan,
    ) -> Wal {
        let disks = DurableDisks::default();
        Wal::adopt(journal, group_commit, checkpoint_every, disks, plan, 0)
    }

    /// Adopt `disks` as incarnation `epoch`. `plan` arms the durability
    /// sites ([`FaultSite::Process`], [`FaultSite::StorageWrite`],
    /// [`FaultSite::StorageFlush`]).
    fn adopt(
        journal_on: bool,
        group_commit: usize,
        checkpoint_every: u64,
        disks: DurableDisks,
        plan: &FaultPlan,
        epoch: u32,
    ) -> Wal {
        let mut metrics = MetricsRegistry::new();
        metrics.set_gauge("durable_epoch", f64::from(epoch));
        metrics.set_gauge("durable_journal_lag", 0.0);
        metrics.set_gauge("durable_checkpoint_age", 0.0);
        metrics.set_gauge("durable_replays", 0.0);
        Wal {
            journal_on,
            group_commit,
            checkpoint_every,
            journal: StableStorage::adopt(disks.journal, plan),
            checkpoints: CheckpointStore::adopt(disks.checkpoints, plan),
            crash_line: plan.arm(FaultSite::Process, 0),
            epoch,
            ledger: CommitLedger::new(),
            pending: BTreeMap::new(),
            delivered: Vec::new(),
            appends_since_flush: 0,
            commits_since_ckpt: 0,
            ckpt_seq: 0,
            ckpt_count: 0,
            replays: 0,
            crash_disks: None,
            metrics,
        }
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crash_disks.is_some()
    }

    fn status(&self) -> RunStatus {
        if self.crashed() {
            RunStatus::Crashed
        } else {
            RunStatus::Completed
        }
    }

    /// What a crash right now would leave on the two devices.
    fn disks_now(&self) -> DurableDisks {
        DurableDisks {
            journal: self.journal.crash(),
            checkpoints: self.checkpoints.crash(),
        }
    }

    /// Append one record; ticks the crash line (the "Nth journal
    /// append" site), then group-commits if due and still alive.
    fn append(&mut self, record: &Record) {
        let frame = encode_frame(record, self.epoch);
        self.journal.append(&frame);
        self.appends_since_flush += 1;
        self.metrics.inc("journal_appends_total", 1);
        self.metrics.inc("journal_bytes_total", frame.len() as u64);
        self.set_journal_lag();
        if self.crash_line.tick() == Some(FaultKind::ProcessCrash) {
            self.crash_disks = Some(self.disks_now());
        } else if self.appends_since_flush >= self.group_commit.max(1) {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.journal.flush();
        self.appends_since_flush = 0;
        self.metrics.inc("journal_flushes_total", 1);
        self.set_journal_lag();
    }

    fn set_journal_lag(&mut self) {
        let lag = self.journal.unflushed_records() as f64;
        self.metrics.set_gauge("durable_journal_lag", lag);
    }

    /// Write a checkpoint now: flush the journal (the watermark must not
    /// point past the durable frontier on an honest disk), snapshot the
    /// pending set — and `cluster`'s ring generations and cache — and
    /// drop a `Checkpoint` marker in the journal.
    fn checkpoint(&mut self, cluster: Option<&CellCluster>) {
        self.flush();
        let seq = self.ckpt_seq + 1;
        let watermark = self.journal.len() as u64;
        self.checkpoints.write(&Checkpoint {
            seq,
            epoch: self.epoch,
            watermark,
            generations: cluster.map(CellCluster::generations).unwrap_or_default(),
            pending: self.pending.values().cloned().collect(),
            cache: cluster.map(CellCluster::cache_snapshot).unwrap_or_default(),
        });
        self.ckpt_seq = seq;
        self.ckpt_count += 1;
        self.commits_since_ckpt = 0;
        self.metrics.inc("checkpoints_total", 1);
        self.metrics.set_gauge("durable_checkpoint_age", 0.0);
        self.append(&Record::Checkpoint { seq, watermark });
    }

    /// Journal `request`'s `Admit` before any backend sees it (the
    /// write-ahead rule) and hold it pending. A crashed core admits
    /// nothing.
    pub(crate) fn admit(&mut self, request: &Request) -> RunStatus {
        if self.crashed() {
            return RunStatus::Crashed;
        }
        if self.journal_on {
            self.append(&Record::admit(request));
        }
        self.pending.insert(request.id, request.clone());
        self.status()
    }

    /// Deliver `outcome`, then journal its `Commit` and `insert` (an
    /// insert follows its commit, so a surviving insert implies a
    /// surviving commit), then checkpoint if one is due, snapshotting
    /// `cluster`.
    pub(crate) fn commit(
        &mut self,
        outcome: Outcome,
        insert: Option<Record>,
        cluster: Option<&CellCluster>,
    ) -> RunStatus {
        let (id, record) = match &outcome {
            Outcome::Served(r) => (r.id, Record::commit(r)),
            Outcome::Shed { id, .. } => (*id, Record::shed(*id)),
        };
        let digest = match &record {
            Record::Commit {
                response_digest, ..
            } => *response_digest,
            _ => 0,
        };
        // Deliver before the commit append: see the crate docs for why
        // this ordering makes lost deliveries impossible.
        self.delivered.push(outcome);
        if self.journal_on {
            self.append(&record);
            if let Some(insert) = insert {
                if !self.crashed() {
                    self.append(&insert);
                }
            }
        }
        self.ledger.record(id, digest);
        self.pending.remove(&id);
        self.commits_since_ckpt += 1;
        self.metrics
            .set_gauge("durable_checkpoint_age", self.commits_since_ckpt as f64);
        if self.journal_on
            && !self.crashed()
            && self.checkpoint_every > 0
            && self.commits_since_ckpt >= self.checkpoint_every
        {
            self.checkpoint(cluster);
        }
        self.status()
    }

    /// Count one recovery re-admission. Its `Admit` is already durable
    /// and [`Wal::recover`] already holds it pending; its replay appends
    /// a fresh `Commit` at the new epoch.
    pub(crate) fn replay(&mut self) {
        self.replays += 1;
        self.metrics.inc("recovery_replays_total", 1);
        self.metrics
            .set_gauge("durable_replays", self.replays as f64);
    }

    /// The crash images after a crash, else what a crash right now
    /// would keep.
    pub(crate) fn into_disks(self) -> DurableDisks {
        match self.crash_disks {
            Some(disks) => disks,
            None => self.disks_now(),
        }
    }

    /// Graceful-shutdown tail: a final flush and, if anything committed
    /// since the last checkpoint, a final checkpoint of `cluster`; then
    /// the report and the final disk images. Finishing a crashed core is
    /// an error, including a crash on that final checkpoint's marker:
    /// only the crash images are meaningful then.
    pub(crate) fn finish(
        &mut self,
        cluster: Option<&CellCluster>,
    ) -> CellResult<(DurableReport, DurableDisks)> {
        if self.journal_on && !self.crashed() {
            self.flush();
            if self.checkpoint_every > 0 && self.commits_since_ckpt > 0 {
                self.checkpoint(cluster);
                self.flush();
            }
        }
        if self.crashed() {
            return Err(CellError::BadData {
                message: "finish() on a crashed durable front end; use into_disks()".to_string(),
            });
        }
        let report = DurableReport {
            epoch: self.epoch,
            appends: self.journal.appends(),
            flushes: self.journal.flushes(),
            lost_flushes: self.journal.lost_flushes(),
            torn_writes: self.journal.torn_writes(),
            checkpoints: self.ckpt_count,
            replays: self.replays,
            journal_bytes: self.journal.len() as u64,
        };
        let disks = DurableDisks {
            journal: self.journal.contents().to_vec(),
            checkpoints: self.checkpoints.storage().contents().to_vec(),
        };
        Ok((report, disks))
    }

    /// Rebuild the core from the surviving disks: load the newest intact
    /// checkpoint, scan the journal tail from its watermark, outrank
    /// every epoch the disks mention, rebuild the ledger and the pending
    /// set (checkpoint pending + tail admits − tail commits), and adopt
    /// only the valid journal prefix — the torn/corrupt suffix is
    /// discarded, never trusted, and the next append overwrites it.
    /// `plan` arms the new incarnation's fault lines.
    pub(crate) fn recover(
        journal: bool,
        group_commit: usize,
        checkpoint_every: u64,
        disks: DurableDisks,
        plan: &FaultPlan,
    ) -> CellResult<(Wal, Recovered)> {
        let ckpt = CheckpointStore::adopt(disks.checkpoints.clone(), plan).latest();
        let watermark = ckpt
            .as_ref()
            .map_or(0, |c| c.watermark)
            .min(disks.journal.len() as u64);
        let tail = scan_from(&disks.journal, watermark);
        let epoch = tail
            .records
            .iter()
            .fold(ckpt.as_ref().map_or(0, |c| c.epoch), |e, r| e.max(r.epoch))
            + 1;
        let checkpoint_seq = ckpt.as_ref().map(|c| c.seq);
        let Checkpoint {
            generations,
            pending,
            mut cache,
            ..
        } = ckpt.unwrap_or_default();

        let mut pending: BTreeMap<u64, Request> = pending.into_iter().map(|r| (r.id, r)).collect();
        let mut ledger = CommitLedger::new();
        let mut committed = 0u64;
        for scanned in &tail.records {
            match &scanned.record {
                Record::Admit { .. } => {
                    let request = scanned.record.to_request()?;
                    pending.entry(request.id).or_insert(request);
                }
                Record::Commit {
                    req_id,
                    response_digest,
                    ..
                } => {
                    committed += 1;
                    ledger.record(*req_id, *response_digest);
                    pending.remove(req_id);
                }
                Record::CacheInsert {
                    key_sum,
                    key_len,
                    features,
                    scores,
                } => cache.push((
                    (*key_sum, *key_len as usize),
                    CachedResult {
                        features: features.clone(),
                        scores: scores.clone(),
                    },
                )),
                Record::Checkpoint { .. } => {}
            }
        }

        let mut journal_image = disks.journal;
        journal_image.truncate(tail.valid_len as usize);
        let disks = DurableDisks {
            journal: journal_image,
            checkpoints: disks.checkpoints,
        };
        let mut wal = Wal::adopt(journal, group_commit, checkpoint_every, disks, plan, epoch);
        wal.ledger = ledger;
        wal.ckpt_seq = checkpoint_seq.unwrap_or(0);

        // Every replay is pending before the first one runs, so a
        // checkpoint written mid-replay still holds the rest.
        let mut replay: Vec<Request> = pending.values().cloned().collect();
        replay.sort_by_key(|r| (r.arrival, r.id));
        wal.pending = pending;
        let report = RecoveryReport {
            epoch,
            checkpoint_seq,
            watermark,
            tail_records: tail.records.len() as u64,
            discarded_bytes: tail.discarded_bytes,
            corrupt_suffix: tail.corrupt_suffix,
            committed,
            replayed: Vec::new(),
            cache_restored: 0,
        };
        let recovered = Recovered {
            report,
            replay,
            generations,
            cache,
        };
        Ok((wal, recovered))
    }
}
