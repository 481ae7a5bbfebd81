//! [`DurableServer`] — a crash-consistent front end over one
//! [`CellServer`].
//!
//! The write-ahead protocol, its recovery and the exactly-once argument
//! are in the crate docs; the crate's private `wal` module implements
//! them once for this front end and [`crate::DurableCluster`]. What this
//! front end adds is its backend: it hands each admitted request to the
//! server, drives the machine to every terminal outcome, commits a shed
//! at admission so recovery never re-makes it, and stamps each recovery
//! replay with a `journal_replay` span and a flight-recorder dump on the
//! fresh machine, whose trace-epoch domain is the new incarnation.

use cell_core::{CellError, CellResult};
use cell_fault::FaultPlan;
use cell_serve::{CellServer, Outcome, Request, ServeConfig, ServeOutput, ShedReason};
use cell_telemetry::MetricsRegistry;
use cell_trace::json::JsonWriter;
use portkit::CommitLedger;

use crate::journal::Record;
use crate::wal::Wal;

/// Durability knobs on top of a [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    pub serve: ServeConfig,
    /// Append journal records (off = the measured-overhead baseline:
    /// same code path, no durability).
    pub journal: bool,
    /// Appends per flush barrier (group commit). 1 = flush every
    /// record; larger values trade a wider duplicate-delivery window on
    /// crash for fewer barriers.
    pub group_commit: usize,
    /// Commits between checkpoints; 0 disables checkpointing (recovery
    /// replays the full journal).
    pub checkpoint_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            serve: ServeConfig::default(),
            journal: true,
            group_commit: 4,
            checkpoint_every: 8,
        }
    }
}

/// The bytes that survive a process loss: the two stable devices.
#[derive(Debug, Clone, Default)]
pub struct DurableDisks {
    pub journal: Vec<u8>,
    pub checkpoints: Vec<u8>,
}

/// How a stream run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    Completed,
    /// The process crash line fired; only [`DurableServer::into_disks`]
    /// is meaningful now.
    Crashed,
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The new process incarnation (max epoch seen + 1).
    pub epoch: u32,
    /// Sequence of the checkpoint loaded, if any survived intact.
    pub checkpoint_seq: Option<u64>,
    /// Journal byte offset tail replay started from.
    pub watermark: u64,
    /// Records parsed from the tail.
    pub tail_records: u64,
    /// Bytes discarded after the first torn/corrupt frame.
    pub discarded_bytes: u64,
    /// Whether the journal suffix was cut by corruption (vs clean end).
    pub corrupt_suffix: bool,
    /// Commits found durable (checkpoint window tail only).
    pub committed: u64,
    /// Request ids re-admitted exactly once, in replay order.
    pub replayed: Vec<u64>,
    /// Cache entries restored from committed inserts (cluster only).
    pub cache_restored: u64,
}

impl RecoveryReport {
    /// Machine-readable one-line summary for CI artifacts.
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("epoch").u64(u64::from(self.epoch));
        w.key("checkpoint_seq");
        match self.checkpoint_seq {
            Some(seq) => w.u64(seq),
            None => w.null(),
        };
        w.key("watermark").u64(self.watermark);
        w.key("tail_records").u64(self.tail_records);
        w.key("discarded_bytes").u64(self.discarded_bytes);
        w.key("corrupt_suffix").bool(self.corrupt_suffix);
        w.key("committed").u64(self.committed);
        w.key("replayed").u64(self.replayed.len() as u64);
        w.key("cache_restored").u64(self.cache_restored);
        w.end_object();
        w.finish()
    }
}

/// Durability counters for one incarnation.
#[derive(Debug, Clone, Default)]
pub struct DurableReport {
    pub epoch: u32,
    pub appends: u64,
    pub flushes: u64,
    pub lost_flushes: u64,
    pub torn_writes: u64,
    pub checkpoints: u64,
    pub replays: u64,
    pub journal_bytes: u64,
}

impl DurableReport {
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("epoch").u64(u64::from(self.epoch));
        w.key("appends").u64(self.appends);
        w.key("flushes").u64(self.flushes);
        w.key("lost_flushes").u64(self.lost_flushes);
        w.key("torn_writes").u64(self.torn_writes);
        w.key("checkpoints").u64(self.checkpoints);
        w.key("replays").u64(self.replays);
        w.key("journal_bytes").u64(self.journal_bytes).end_object();
        w.finish()
    }
}

/// Everything a gracefully finished durable server hands back.
#[derive(Debug)]
pub struct DurableOutput {
    pub serve: ServeOutput,
    /// Outcomes delivered to the client, in delivery order (taken
    /// outcomes included).
    pub delivered: Vec<Outcome>,
    pub report: DurableReport,
    /// Final disk images (graceful shutdown: everything, flushed).
    pub disks: DurableDisks,
    /// Durability metrics (`durable_*` gauges feed the cell-top row).
    pub metrics: MetricsRegistry,
}

/// A crash-consistent serving runtime over one simulated Cell machine.
pub struct DurableServer {
    server: Option<CellServer>,
    wal: Wal,
}

impl DurableServer {
    /// First boot: fresh storage, epoch 0. `plan` arms the machine's
    /// fault sites *and* the durability sites (`FaultSite::Process`,
    /// `StorageWrite`, `StorageFlush`).
    pub fn boot(cfg: DurableConfig, plan: &FaultPlan) -> CellResult<Self> {
        let wal = Wal::boot(cfg.journal, cfg.group_commit, cfg.checkpoint_every, plan);
        Self::build(&cfg.serve, wal, plan)
    }

    fn build(serve: &ServeConfig, wal: Wal, plan: &FaultPlan) -> CellResult<Self> {
        let mut serve = serve.clone();
        serve.epoch_domain = u64::from(wal.epoch);
        let server = CellServer::new(serve, plan.clone())?;
        Ok(DurableServer {
            server: Some(server),
            wal,
        })
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    pub fn crashed(&self) -> bool {
        self.wal.crashed()
    }

    pub fn epoch(&self) -> u32 {
        self.wal.epoch
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.wal.metrics
    }

    /// The durable commit ledger (recovered commits + this
    /// incarnation's).
    pub fn ledger(&self) -> &CommitLedger {
        &self.wal.ledger
    }

    /// The wrapped server, while alive.
    pub fn server(&self) -> Option<&CellServer> {
        self.server.as_ref()
    }

    // ---------------------------------------------------------------
    // Serving
    // ---------------------------------------------------------------

    /// Admit and serve one request to its terminal outcome. Returns
    /// `Crashed` the moment the process crash line fires.
    pub fn submit(&mut self, request: Request) -> CellResult<RunStatus> {
        if self.wal.admit(&request) == RunStatus::Crashed {
            return self.crash();
        }
        self.serve(request)
    }

    /// Hand an admitted request to the machine, serve everything queued
    /// and commit each outcome.
    fn serve(&mut self, request: Request) -> CellResult<RunStatus> {
        let id = request.id;
        let server = self.server.as_mut().expect("alive server");
        server.advance_to(request.arrival);
        match server.try_submit(request) {
            Ok(()) => {
                while server.step()? {}
                for outcome in server.take_outcomes() {
                    if self.commit(outcome)? == RunStatus::Crashed {
                        return Ok(RunStatus::Crashed);
                    }
                }
                Ok(RunStatus::Completed)
            }
            // Terminal at admission: deliver the shed, then commit it so
            // recovery never re-makes the decision.
            Err(CellError::Overloaded { .. }) => self.commit(Outcome::Shed {
                id,
                reason: ShedReason::Overloaded,
            }),
            Err(e) => Err(e),
        }
    }

    fn commit(&mut self, outcome: Outcome) -> CellResult<RunStatus> {
        match self.wal.commit(outcome, None, None) {
            RunStatus::Crashed => self.crash(),
            RunStatus::Completed => Ok(RunStatus::Completed),
        }
    }

    /// The crash line fired: tear the machine down. Everything volatile
    /// is discarded; the core kept the crash images.
    fn crash(&mut self) -> CellResult<RunStatus> {
        if let Some(server) = self.server.take() {
            let _ = server.finish()?;
        }
        Ok(RunStatus::Crashed)
    }

    /// Feed a whole stream through [`submit`](Self::submit) in arrival
    /// order, stopping early on a crash.
    pub fn run_stream(&mut self, requests: &[Request]) -> CellResult<RunStatus> {
        let mut sorted: Vec<Request> = requests.to_vec();
        sorted.sort_by_key(|r| (r.arrival, r.id));
        for request in sorted {
            if let RunStatus::Crashed = self.submit(request)? {
                return Ok(RunStatus::Crashed);
            }
        }
        Ok(RunStatus::Completed)
    }

    /// Outcomes delivered since the last call, in delivery order.
    pub fn take_delivered(&mut self) -> Vec<Outcome> {
        std::mem::take(&mut self.wal.delivered)
    }

    /// The surviving disk images after a crash (or the live images on a
    /// still-running server — what a crash *right now* would keep).
    pub fn into_disks(mut self) -> CellResult<DurableDisks> {
        self.crash()?;
        Ok(self.wal.into_disks())
    }

    /// Graceful shutdown: final flush (and checkpoint, if enabled),
    /// then collect everything.
    pub fn finish(mut self) -> CellResult<DurableOutput> {
        let (report, disks) = match self.wal.finish(None) {
            Ok(tail) => tail,
            Err(e) => {
                self.crash()?;
                return Err(e);
            }
        };
        let serve = self
            .server
            .take()
            .expect("alive server on graceful finish")
            .finish()?;
        Ok(DurableOutput {
            serve,
            delivered: self.wal.delivered,
            report,
            disks,
            metrics: self.wal.metrics,
        })
    }

    // ---------------------------------------------------------------
    // Recovery
    // ---------------------------------------------------------------

    /// Rebuild a server from the surviving disks: checkpoint-load +
    /// bounded tail replay. Every `Admit` without a matching `Commit`
    /// is re-admitted exactly once (dedup by `req_id`); committed
    /// requests are never recomputed. `plan` arms the *new*
    /// incarnation's fault lines (pass an empty plan for a clean
    /// recovery; a plan with a `Process` fault models a crash during
    /// recovery).
    pub fn recover(
        cfg: DurableConfig,
        disks: DurableDisks,
        plan: &FaultPlan,
    ) -> CellResult<(Self, RecoveryReport)> {
        let (wal, recovered) = Wal::recover(
            cfg.journal,
            cfg.group_commit,
            cfg.checkpoint_every,
            disks,
            plan,
        )?;
        let mut durable = Self::build(&cfg.serve, wal, plan)?;
        let mut report = recovered.report;
        for request in recovered.replay {
            report.replayed.push(request.id);
            durable.wal.replay();
            let server = durable.server.as_mut().expect("alive server");
            server.record_recovery("journal_replay", request.id, u64::from(durable.wal.epoch));
            server.capture_flight_dump("recovery_replay");
            durable.serve(request)?;
            if durable.wal.crashed() {
                break;
            }
        }
        Ok((durable, report))
    }
}

/// Parse the durable commit log from a journal image: every `Commit`
/// frame in the valid prefix, in append order. Test instrumentation for
/// the exactly-once assertion — recovery itself never needs a
/// full-history scan.
pub fn durable_commit_log(journal: &[u8]) -> Vec<(u64, u32, u8, u32)> {
    crate::journal::scan(journal)
        .records
        .into_iter()
        .filter_map(|s| match s.record {
            Record::Commit {
                req_id,
                response_digest,
                degradation,
            } => Some((req_id, response_digest, degradation, s.epoch)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_are_pinned() {
        let mut recovery = RecoveryReport {
            epoch: 2,
            checkpoint_seq: None,
            watermark: 0,
            tail_records: 9,
            discarded_bytes: 4,
            corrupt_suffix: true,
            committed: 3,
            replayed: vec![5, 6],
            cache_restored: 0,
        };
        assert_eq!(recovery.summary_json(), "{\"epoch\":2,\"checkpoint_seq\":null,\"watermark\":0,\"tail_records\":9,\"discarded_bytes\":4,\"corrupt_suffix\":true,\"committed\":3,\"replayed\":2,\"cache_restored\":0}");
        recovery.checkpoint_seq = Some(1);
        recovery.watermark = 10_400;
        recovery.corrupt_suffix = false;
        recovery.replayed.clear();
        assert_eq!(recovery.summary_json(), "{\"epoch\":2,\"checkpoint_seq\":1,\"watermark\":10400,\"tail_records\":9,\"discarded_bytes\":4,\"corrupt_suffix\":false,\"committed\":3,\"replayed\":0,\"cache_restored\":0}");

        let durable = DurableReport {
            epoch: 1,
            appends: 23,
            flushes: 11,
            lost_flushes: 1,
            torn_writes: 0,
            checkpoints: 2,
            replays: 2,
            journal_bytes: 31_287,
        };
        assert_eq!(durable.summary_json(), "{\"epoch\":1,\"appends\":23,\"flushes\":11,\"lost_flushes\":1,\"torn_writes\":0,\"checkpoints\":2,\"replays\":2,\"journal_bytes\":31287}");
    }
}
