//! [`DurableCluster`] — the durability plane under a whole
//! [`CellCluster`]. The write-ahead protocol is the crate's private
//! `wal` module, shared with [`crate::DurableServer`] (see the crate
//! docs for the Admit → serve → deliver → Commit ordering argument);
//! this front end adds its backend and two cluster-only concerns:
//!
//! * **cache durability** — every committed, undegraded response whose
//!   payload the router would cache gets a `CacheInsert` record appended
//!   *after* its `Commit`, so a surviving insert always implies a
//!   surviving commit. Recovery rebuilds the router cache only from the
//!   checkpointed snapshot plus committed tail inserts — a crash can
//!   never resurrect a poisoned or uncommitted entry;
//! * **generation floors** — checkpoints capture the per-blade ring
//!   generations; recovery re-bases every blade one past its
//!   checkpointed generation ([`ClusterConfig::base_generations`]) so
//!   trace-epoch domains stay distinct across process incarnations.
//!
//! Whole-cluster loss is simulated by [`CellCluster::abandon`]:
//! every blade machine is torn down with queues, cache and traces still
//! in volatile memory — only the journal and checkpoint devices survive.

use cell_cluster::{CellCluster, ClusterConfig, ClusterOutput, FeatureCache};
use cell_core::CellResult;
use cell_fault::FaultPlan;
use cell_serve::{Outcome, Request};
use cell_telemetry::MetricsRegistry;
use portkit::CommitLedger;

use crate::journal::Record;
use crate::server::{DurableDisks, DurableReport, RecoveryReport, RunStatus};
use crate::wal::Wal;

/// Durability knobs on top of a [`ClusterConfig`].
#[derive(Debug, Clone)]
pub struct DurableClusterConfig {
    pub cluster: ClusterConfig,
    /// Append journal records (off = measured-overhead baseline).
    pub journal: bool,
    /// Appends per flush barrier (group commit).
    pub group_commit: usize,
    /// Commits between checkpoints; 0 disables checkpointing.
    pub checkpoint_every: u64,
}

impl Default for DurableClusterConfig {
    fn default() -> Self {
        DurableClusterConfig {
            cluster: ClusterConfig::default(),
            journal: true,
            group_commit: 4,
            checkpoint_every: 8,
        }
    }
}

/// Everything a gracefully finished durable cluster hands back.
#[derive(Debug)]
pub struct DurableClusterOutput {
    pub cluster: ClusterOutput,
    /// Outcomes delivered to the client, in delivery order.
    pub delivered: Vec<Outcome>,
    pub report: DurableReport,
    pub disks: DurableDisks,
    pub metrics: MetricsRegistry,
}

/// Crash-consistent front end over a multi-blade cluster.
pub struct DurableCluster {
    /// The router cache is on: journal a `CacheInsert` per cacheable
    /// commit.
    cache: bool,
    cluster: Option<CellCluster>,
    wal: Wal,
}

impl DurableCluster {
    /// First boot: fresh storage, epoch 0.
    pub fn boot(cfg: DurableClusterConfig, plan: &FaultPlan) -> CellResult<Self> {
        let wal = Wal::boot(cfg.journal, cfg.group_commit, cfg.checkpoint_every, plan);
        Self::build(cfg.cluster, wal, plan)
    }

    fn build(cluster: ClusterConfig, wal: Wal, plan: &FaultPlan) -> CellResult<Self> {
        Ok(DurableCluster {
            cache: cluster.cache,
            cluster: Some(CellCluster::new(cluster, plan)?),
            wal,
        })
    }

    pub fn crashed(&self) -> bool {
        self.wal.crashed()
    }

    pub fn epoch(&self) -> u32 {
        self.wal.epoch
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.wal.metrics
    }

    pub fn ledger(&self) -> &CommitLedger {
        &self.wal.ledger
    }

    // ---------------------------------------------------------------
    // Serving
    // ---------------------------------------------------------------

    /// Admit and route one request; commit every outcome the router
    /// completed while absorbing it.
    pub fn submit(&mut self, request: Request) -> CellResult<RunStatus> {
        if self.wal.admit(&request) == RunStatus::Crashed {
            return self.crash();
        }
        self.cluster
            .as_mut()
            .expect("alive cluster")
            .submit(request)?;
        self.commit_outcomes()
    }

    /// Deliver-then-commit every outcome the cluster has produced.
    fn commit_outcomes(&mut self) -> CellResult<RunStatus> {
        let outcomes = self
            .cluster
            .as_mut()
            .expect("alive cluster")
            .take_outcomes();
        for outcome in outcomes {
            // Cache-durability record: only for responses the router
            // cache would admit (undegraded).
            let insert = match &outcome {
                Outcome::Served(r) if self.cache && r.degradation == 0 => {
                    self.wal.pending.get(&r.id).map(|req| {
                        let (key_sum, key_len) = FeatureCache::key_for(&req.image);
                        Record::CacheInsert {
                            key_sum,
                            key_len: key_len as u64,
                            features: r.features.clone(),
                            scores: r.scores.clone(),
                        }
                    })
                }
                _ => None,
            };
            if self.wal.commit(outcome, insert, self.cluster.as_ref()) == RunStatus::Crashed {
                return self.crash();
            }
        }
        Ok(RunStatus::Completed)
    }

    /// The crash line fired: abandon every blade (whole-cluster loss;
    /// the core kept the crash images).
    fn crash(&mut self) -> CellResult<RunStatus> {
        if let Some(cluster) = self.cluster.take() {
            cluster.abandon()?;
        }
        Ok(RunStatus::Crashed)
    }

    /// Feed a whole stream through the router in arrival order,
    /// stopping early on a crash.
    pub fn run_stream(&mut self, requests: &[Request]) -> CellResult<RunStatus> {
        let mut sorted: Vec<Request> = requests.to_vec();
        sorted.sort_by_key(|r| (r.arrival, r.id));
        for request in sorted {
            if let RunStatus::Crashed = self.submit(request)? {
                return Ok(RunStatus::Crashed);
            }
        }
        self.quiesce()
    }

    /// End-of-stream barrier: settle hung blades, drain every backlog,
    /// commit the resulting outcomes.
    pub fn quiesce(&mut self) -> CellResult<RunStatus> {
        if self.wal.crashed() {
            return Ok(RunStatus::Crashed);
        }
        self.cluster.as_mut().expect("alive cluster").quiesce()?;
        self.commit_outcomes()
    }

    pub fn take_delivered(&mut self) -> Vec<Outcome> {
        std::mem::take(&mut self.wal.delivered)
    }

    /// The surviving disk images (crash images after a crash, the
    /// would-survive images otherwise).
    pub fn into_disks(mut self) -> CellResult<DurableDisks> {
        self.crash()?;
        Ok(self.wal.into_disks())
    }

    /// Graceful shutdown: quiesce, final flush + checkpoint, collect.
    pub fn finish(mut self) -> CellResult<DurableClusterOutput> {
        // A crash while quiescing surfaces as the tail's error below.
        self.quiesce()?;
        let (report, disks) = match self.wal.finish(self.cluster.as_ref()) {
            Ok(tail) => tail,
            Err(e) => {
                self.crash()?;
                return Err(e);
            }
        };
        let cluster = self
            .cluster
            .take()
            .expect("alive cluster on graceful finish")
            .finish()?;
        Ok(DurableClusterOutput {
            cluster,
            delivered: self.wal.delivered,
            report,
            disks,
            metrics: self.wal.metrics,
        })
    }

    // ---------------------------------------------------------------
    // Recovery
    // ---------------------------------------------------------------

    /// Rebuild a cluster from the surviving disks after whole-cluster
    /// loss: checkpoint-load (cache contents, ring generations,
    /// watermark) + bounded tail replay. Blade generations are re-based
    /// one past the checkpointed values so trace-epoch domains never
    /// collide across incarnations.
    pub fn recover(
        cfg: DurableClusterConfig,
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
        let mut cluster = cfg.cluster;
        cluster.base_generations = recovered.generations.iter().map(|g| g + 1).collect();
        let mut durable = Self::build(cluster, wal, plan)?;
        let mut report = recovered.report;

        // Restore the router cache from the checkpoint snapshot plus
        // committed tail inserts (existing entries win, so the
        // checkpointed value takes precedence — they are byte-identical
        // anyway by determinism).
        report.cache_restored = recovered.cache.len() as u64;
        let cluster = durable.cluster.as_mut().expect("alive cluster");
        for (key, result) in recovered.cache {
            cluster.restore_cache(key, result);
        }

        for request in recovered.replay {
            report.replayed.push(request.id);
            durable.wal.replay();
            let cluster = durable.cluster.as_mut().expect("alive cluster");
            cluster.record_recovery("journal_replay", request.id, u64::from(durable.wal.epoch));
            cluster.submit(request)?;
            durable.commit_outcomes()?;
            if durable.wal.crashed() {
                break;
            }
        }
        durable.quiesce()?;
        Ok((durable, report))
    }
}
