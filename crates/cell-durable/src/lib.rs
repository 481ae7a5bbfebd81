//! **cell-durable** — the crash-consistent durability plane under
//! `cell-serve` and `cell-cluster`.
//!
//! Everything above this crate survives *component* failure: SPEs are
//! respawned, blades fail over, caches stay honest. None of it survives
//! *process* failure — kill the host and every queue, cache and trace
//! is gone. This crate closes that gap with the classic recipe, built
//! on the same determinism discipline as the rest of the simulator:
//!
//! * [`StableStorage`] — a deterministic in-memory block device with an
//!   explicit flush barrier and seeded, injectable disk faults
//!   (torn writes, lying flushes, bit rot);
//! * a **write-ahead journal** ([`journal`]) of checksummed,
//!   length-framed, epoch-stamped records — `Admit`, `Commit`,
//!   `CacheInsert`, `Checkpoint` — with configurable group commit;
//! * **checkpoints** ([`checkpoint`]) that snapshot the pending set,
//!   the router cache and the ring generations, so recovery is
//!   checkpoint-load + bounded tail replay instead of full-history
//!   replay;
//! * two front ends, [`DurableServer`] over one machine and
//!   [`DurableCluster`] over a multi-blade cluster, that run the
//!   protocol below through **one** private write-ahead core (the `wal`
//!   module: journal, checkpoints, crash line, ledger, counters and
//!   recovery read) and add only their backend.
//!
//! # The write-ahead protocol
//!
//! Per request (journal on):
//!
//! 1. **Admit**: append `Admit{req_id, payload}` to the journal (the
//!    request enters the durable world before the machine ever sees
//!    it), then hand it to the backend;
//! 2. **Serve**: drive the backend to the terminal outcome;
//! 3. **Deliver, then Commit**: push the outcome to the delivered
//!    stream, then append `Commit{req_id, digest, degradation}` (and,
//!    on a cluster, the result's `CacheInsert` after it);
//! 4. **Group commit**: every `group_commit` appends, one flush barrier;
//! 5. **Checkpoint**: every `checkpoint_every` commits, snapshot the
//!    pending set and the journal watermark so recovery replays a
//!    bounded tail.
//!
//! **Recovery** ([`DurableServer::recover`], [`DurableCluster::recover`])
//! loads the newest intact checkpoint, scans the journal tail from its
//! watermark, discards the torn/corrupt suffix, and re-admits every
//! `Admit` without a matching `Commit` exactly once (dedup via
//! [`portkit::CommitLedger`]) on a fresh backend at a new epoch. The
//! stream resumes **byte-identically** — the recovered outcome for a
//! request has the same feature bits, scores and degradation as a
//! crash-free run of the same seed.
//!
//! # The exactly-once argument (short form)
//!
//! Delivery happens *before* the `Commit` append, and the process crash
//! line fires at append boundaries. Hence a durable `Commit` implies
//! the response was delivered; a delivered response whose commit was
//! lost (crash, torn write, lying flush) is re-served after recovery as
//! a byte-identical duplicate, deduped by `req_id` at the client
//! boundary — at-least-once delivery, exactly-once in the *durable
//! commit log*, which contains each `req_id` exactly once: crash-free
//! commits at their original epoch, replayed commits at the recovery
//! epoch. `BitRot` inside the scanned window truncates the readable
//! journal at the corrupt frame; recovery then degrades to
//! at-least-once for the truncated suffix and says so
//! ([`RecoveryReport::corrupt_suffix`]). See `DESIGN.md` §14 for the
//! full state machine.

pub mod checkpoint;
pub mod cluster;
pub mod journal;
pub mod server;
pub mod storage;
mod wal;

pub use checkpoint::{Checkpoint, CheckpointStore};
pub use cluster::{DurableCluster, DurableClusterConfig, DurableClusterOutput};
pub use journal::{scan, scan_from, Record, ScanResult, ScannedRecord, SHED_DEGRADATION};
pub use server::{
    durable_commit_log, DurableConfig, DurableDisks, DurableOutput, DurableReport, DurableServer,
    RecoveryReport, RunStatus,
};
pub use storage::StableStorage;
