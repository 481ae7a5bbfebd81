//! **cell-fault** — deterministic, seeded fault injection for the
//! simulated Cell machine.
//!
//! Real Cell deployments live or die by how they handle *partial*
//! failures: an SPE that crashes or wedges mid-kernel, a DMA that stalls
//! under EIB contention, a mailbox reply that never arrives. This crate
//! provides the chaos half of that story: a [`FaultPlan`] describes, up
//! front and deterministically, which faults fire at which operation
//! indices on which SPE. The machine consults the plan at three
//! injection points:
//!
//! * **SPE dispatch** — the Nth inbound-mailbox read of an SPE
//!   (`cell-sys/src/spe.rs`): crash ([`FaultKind::SpeCrash`]) or hang
//!   until shutdown ([`FaultKind::SpeHang`]);
//! * **DMA** — the Nth transfer issued by an SPE's MFC
//!   (`cell-mfc/src/dma.rs`): extra latency ([`FaultKind::DmaDelay`]), a
//!   transient failure absorbed by an automatic retry
//!   ([`FaultKind::DmaFault`]), or a corrupted destination payload
//!   ([`FaultKind::DmaCorrupt`]);
//! * **mailbox reply** — the Nth outbound-mailbox write of an SPE:
//!   silently dropped ([`FaultKind::ReplyDrop`]) or stalled in virtual
//!   time ([`FaultKind::ReplyStall`]).
//!
//! # Determinism
//!
//! A plan is a pure value: same seed → same [`FaultSpec`]s → same faults
//! at the same per-SPE operation indices, independent of host thread
//! scheduling. Each injection point owns its own [`FaultLine`] (armed
//! from the plan with [`FaultPlan::arm`]), whose operation counter is
//! private to the owning SPE thread — no cross-thread state, so the
//! fault *schedule* is reproducible even though host interleaving is
//! not. [`FaultPlan::chaos`] derives a random-looking plan from the
//! in-tree `SplitMix64`; no wall-clock input anywhere.
//!
//! # Zero cost when disabled
//!
//! Mirroring `TraceConfig::Off`, a default (empty) plan arms empty
//! [`FaultLine`]s whose [`FaultLine::tick`] is a single
//! `is_empty()` branch — no allocation, no counter update, nothing else
//! on the hot path.

use cell_core::rng::SplitMix64;

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The SPE kernel dies with `CellError::FaultInjected` — its thread
    /// exits and its mailboxes close, like a crashed SPU program.
    SpeCrash,
    /// The SPE wedges: it silently discards every further inbound
    /// mailbox word (including `SPU_EXIT`) and only wakes — with an
    /// error — when the machine shuts its mailboxes.
    SpeHang,
    /// The DMA transfer completes `cycles` later than modeled — EIB
    /// congestion, a livelocked ring slot.
    DmaDelay {
        /// Extra SPU cycles added to the transfer's completion time.
        cycles: u64,
    },
    /// The DMA transfer fails once and the MFC retries it
    /// automatically; the retry costs `retry_penalty` extra cycles.
    DmaFault {
        /// SPU cycles the automatic retry adds to the completion time.
        retry_penalty: u64,
    },
    /// The DMA transfer's destination payload is corrupted in flight
    /// (one bit flipped mid-payload). Without checksummed-DMA mode the
    /// corruption is *silent* — the transfer completes normally and the
    /// consumer computes on bad bytes; with `DmaConfig::integrity` the
    /// MFC detects the mismatch and retransmits.
    DmaCorrupt,
    /// The outbound mailbox word is silently dropped — the PPE waits
    /// for a reply that never comes.
    ReplyDrop,
    /// The outbound mailbox word is written `cycles` later in virtual
    /// time.
    ReplyStall {
        /// SPU cycles the reply is delayed by.
        cycles: u64,
    },
    /// The whole blade (one `CellMachine` and everything on it) dies:
    /// the cluster router tears the machine down, fails its queued and
    /// in-flight requests over to surviving blades, and only a full
    /// blade respawn (machine recreation + code re-upload + probe)
    /// brings it back. Fired from the [`FaultSite::Blade`] line the
    /// router ticks once per request routed to the blade.
    BladeCrash,
    /// The whole blade wedges: it keeps accepting routed requests but
    /// never completes one, and fails its heartbeat probes. Unlike a
    /// crash the router only notices via the watchdog, so the backlog
    /// grows (and overflows onto other blades) until detection.
    BladeHang,
    /// The whole process dies — machine, queues, caches, everything in
    /// volatile memory. Only stable storage survives; recovery must
    /// rebuild the world from the journal and the latest checkpoint.
    /// Fired from the [`FaultSite::Process`] line, ticked once per
    /// journal append (durable server) or routed request (durable
    /// cluster).
    ProcessCrash,
    /// The Nth journal append is torn: only the first `keep` bytes of
    /// the record reach the platter; the rest — and everything appended
    /// after it — is lost if the process crashes before the record is
    /// rewritten. Models a sector-straddling write interrupted by power
    /// loss.
    TornWrite {
        /// Bytes of the record that survive a crash (may exceed the
        /// record length, in which case the whole record survives).
        keep: u32,
    },
    /// The Nth flush barrier silently fails: it reports success but
    /// does not advance the durable frontier, so writes it claimed to
    /// harden are dropped on crash. Models a lying disk cache.
    LostFlush,
    /// One stored byte of the Nth appended record has a bit flipped at
    /// rest. The frame checksum catches it on the next journal scan;
    /// recovery must truncate, not trust, the rotten suffix.
    BitRot {
        /// Bit index into the record; taken modulo the record length in
        /// bits, so any value is safe.
        bit: u32,
    },
}

/// Where in the machine a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `SpeEnv::read_in_mbox` — the dispatcher's opcode/argument reads.
    SpeDispatch,
    /// `Mfc::issue_one` — every DMA transfer the SPE issues.
    Dma,
    /// `SpeEnv::write_out_mbox` / `write_out_intr_mbox` — the kernel's
    /// reply word.
    MailboxReply,
    /// The cluster router's per-blade admission path — ticked once per
    /// request routed to the blade (`spe` doubles as the blade index).
    /// Carries whole-machine faults: [`FaultKind::BladeCrash`] and
    /// [`FaultKind::BladeHang`].
    Blade,
    /// The durable runtime's crash line — ticked once per journal
    /// append (server) or routed request (cluster), with `spe` = 0.
    /// Carries [`FaultKind::ProcessCrash`].
    Process,
    /// The stable-storage append path — ticked once per appended
    /// record. Carries [`FaultKind::TornWrite`] and
    /// [`FaultKind::BitRot`].
    StorageWrite,
    /// The stable-storage flush barrier — ticked once per flush.
    /// Carries [`FaultKind::LostFlush`].
    StorageFlush,
}

/// One planned fault: at the `at`-th operation (1-based) of `site` on
/// SPE `spe`, inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    pub site: FaultSite,
    pub spe: usize,
    /// 1-based operation index at the site (the 1st dispatch read, the
    /// 3rd DMA, …).
    pub at: u64,
    pub kind: FaultKind,
}

/// A deterministic fault schedule for one machine run.
///
/// Build one with the explicit methods ([`crash_spe`](Self::crash_spe),
/// [`delay_dma`](Self::delay_dma), …) or derive one from a seed with
/// [`chaos`](Self::chaos), then install it with
/// `CellMachine::set_fault_plan` before spawning SPEs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: no faults, zero-cost lines everywhere.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// All planned faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Add an arbitrary spec.
    #[must_use]
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Crash SPE `spe` on its `at`-th dispatched op (inbound read).
    #[must_use]
    pub fn crash_spe(self, spe: usize, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::SpeDispatch,
            spe,
            at,
            kind: FaultKind::SpeCrash,
        })
    }

    /// Hang SPE `spe` on its `at`-th dispatched op.
    #[must_use]
    pub fn hang_spe(self, spe: usize, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::SpeDispatch,
            spe,
            at,
            kind: FaultKind::SpeHang,
        })
    }

    /// Delay SPE `spe`'s `at`-th DMA transfer by `cycles`.
    #[must_use]
    pub fn delay_dma(self, spe: usize, at: u64, cycles: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::Dma,
            spe,
            at,
            kind: FaultKind::DmaDelay { cycles },
        })
    }

    /// Fail SPE `spe`'s `at`-th DMA transfer once; the MFC's automatic
    /// retry costs `retry_penalty` cycles.
    #[must_use]
    pub fn fail_dma(self, spe: usize, at: u64, retry_penalty: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::Dma,
            spe,
            at,
            kind: FaultKind::DmaFault { retry_penalty },
        })
    }

    /// Corrupt the payload of SPE `spe`'s `at`-th DMA transfer (one bit
    /// flipped at the destination).
    #[must_use]
    pub fn corrupt_dma(self, spe: usize, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::Dma,
            spe,
            at,
            kind: FaultKind::DmaCorrupt,
        })
    }

    /// Drop SPE `spe`'s `at`-th reply word.
    #[must_use]
    pub fn drop_reply(self, spe: usize, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::MailboxReply,
            spe,
            at,
            kind: FaultKind::ReplyDrop,
        })
    }

    /// Stall SPE `spe`'s `at`-th reply word by `cycles` of virtual time.
    #[must_use]
    pub fn stall_reply(self, spe: usize, at: u64, cycles: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::MailboxReply,
            spe,
            at,
            kind: FaultKind::ReplyStall { cycles },
        })
    }

    /// Crash blade `blade` (its whole `CellMachine`) on the `at`-th
    /// request the cluster router sends it.
    #[must_use]
    pub fn crash_blade(self, blade: usize, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::Blade,
            spe: blade,
            at,
            kind: FaultKind::BladeCrash,
        })
    }

    /// Hang blade `blade` on the `at`-th routed request: it keeps
    /// queueing work but stops completing it until the watchdog notices.
    #[must_use]
    pub fn hang_blade(self, blade: usize, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::Blade,
            spe: blade,
            at,
            kind: FaultKind::BladeHang,
        })
    }

    /// Kill the whole process on the `at`-th operation of the durable
    /// runtime's crash line (journal append for a server, routed
    /// request for a cluster).
    #[must_use]
    pub fn crash_process(self, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::Process,
            spe: 0,
            at,
            kind: FaultKind::ProcessCrash,
        })
    }

    /// Tear the `at`-th record appended to stable storage: only its
    /// first `keep` bytes survive a crash.
    #[must_use]
    pub fn torn_write(self, at: u64, keep: u32) -> Self {
        self.with(FaultSpec {
            site: FaultSite::StorageWrite,
            spe: 0,
            at,
            kind: FaultKind::TornWrite { keep },
        })
    }

    /// Make the `at`-th flush barrier lie: it reports success without
    /// hardening anything.
    #[must_use]
    pub fn lose_flush(self, at: u64) -> Self {
        self.with(FaultSpec {
            site: FaultSite::StorageFlush,
            spe: 0,
            at,
            kind: FaultKind::LostFlush,
        })
    }

    /// Flip bit `bit` (modulo record length in bits) of the `at`-th
    /// record appended to stable storage.
    #[must_use]
    pub fn bit_rot(self, at: u64, bit: u32) -> Self {
        self.with(FaultSpec {
            site: FaultSite::StorageWrite,
            spe: 0,
            at,
            kind: FaultKind::BitRot { bit },
        })
    }

    /// Derive a deterministic durability chaos plan from `seed`: one
    /// process crash within the first `ops_horizon` appends, plus
    /// `storage_faults` storage faults (torn writes, lost flushes and
    /// bit rot, roughly 2:1:1) in the same window. Same seed → same
    /// plan.
    #[must_use]
    pub fn chaos_durable(seed: u64, storage_faults: usize, ops_horizon: u64) -> Self {
        assert!(
            ops_horizon > 0,
            "durable chaos plan needs a positive horizon"
        );
        let mut rng = SplitMix64::new(seed ^ 0xD0_4AB1E);
        let mut plan = FaultPlan::new().crash_process(1 + rng.next_below(ops_horizon));
        for _ in 0..storage_faults {
            let at = 1 + rng.next_below(ops_horizon);
            plan = match rng.next_below(4) {
                0 => plan.lose_flush(at),
                1 => plan.bit_rot(at, rng.next_below(4096) as u32),
                _ => plan.torn_write(at, rng.next_below(64) as u32),
            };
        }
        plan
    }

    /// Derive a deterministic blade-scoped chaos plan from `seed`:
    /// `faults` whole-blade faults (crashes and hangs, roughly 2:1)
    /// spread over `num_blades` blades within the first `ops_horizon`
    /// routed requests of each blade. Same seed → same plan.
    #[must_use]
    pub fn chaos_blades(seed: u64, num_blades: usize, faults: usize, ops_horizon: u64) -> Self {
        assert!(num_blades > 0, "blade chaos plan needs at least one blade");
        assert!(ops_horizon > 0, "blade chaos plan needs a positive horizon");
        let mut rng = SplitMix64::new(seed ^ 0xB1_ADE5);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let blade = rng.next_below(num_blades as u64) as usize;
            let at = 1 + rng.next_below(ops_horizon);
            plan = match rng.next_below(3) {
                0 => plan.hang_blade(blade, at),
                _ => plan.crash_blade(blade, at),
            };
        }
        plan
    }

    /// Derive a deterministic random-looking plan from `seed`:
    /// `faults` faults spread over `num_spes` SPEs and the first
    /// `ops_horizon` operations of each site. Same seed → same plan.
    #[must_use]
    pub fn chaos(seed: u64, num_spes: usize, faults: usize, ops_horizon: u64) -> Self {
        assert!(num_spes > 0, "chaos plan needs at least one SPE");
        assert!(ops_horizon > 0, "chaos plan needs a positive op horizon");
        let mut rng = SplitMix64::new(seed ^ 0xFA_0175);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let spe = rng.next_below(num_spes as u64) as usize;
            let at = 1 + rng.next_below(ops_horizon);
            let cycles = 1_000 + rng.next_below(100_000);
            plan = match rng.next_below(6) {
                0 => plan.crash_spe(spe, at),
                1 => plan.hang_spe(spe, at),
                2 => plan.delay_dma(spe, at, cycles),
                3 => plan.fail_dma(spe, at, cycles),
                4 => plan.drop_reply(spe, at),
                _ => plan.stall_reply(spe, at, cycles),
            };
        }
        plan
    }

    /// Arm the plan for one injection point: the [`FaultLine`] the
    /// owning component consults on every operation. Arming is a pure
    /// function of `(plan, site, spe)`, so per-line op counting is
    /// deterministic regardless of thread interleaving.
    pub fn arm(&self, site: FaultSite, spe: usize) -> FaultLine {
        let mut specs: Vec<ArmedFault> = self
            .specs
            .iter()
            .filter(|s| s.site == site && s.spe == spe)
            .map(|s| ArmedFault {
                at: s.at,
                kind: s.kind,
            })
            .collect();
        specs.sort_by_key(|s| s.at);
        FaultLine { ops: 0, specs }
    }
}

#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    at: u64,
    kind: FaultKind,
}

/// The per-injection-point fault schedule, owned by the component that
/// consults it (one per SPE per site — never shared across threads).
///
/// `tick()` is called once per operation; it returns the fault to
/// inject, if any. When no faults are armed (the default), the call is
/// one `is_empty()` branch and nothing else.
#[derive(Debug, Clone)]
pub struct FaultLine {
    ops: u64,
    /// Remaining faults, sorted by `at` ascending; fired specs are
    /// drained from the front so an exhausted line is as cheap as an
    /// empty one.
    specs: Vec<ArmedFault>,
}

impl FaultLine {
    /// A line with no faults — the zero-cost default.
    pub const fn off() -> Self {
        FaultLine {
            ops: 0,
            specs: Vec::new(),
        }
    }

    /// `true` when no faults remain to fire.
    pub fn is_exhausted(&self) -> bool {
        self.specs.is_empty()
    }

    /// Count one operation; returns the fault scheduled for it, if any.
    #[inline]
    pub fn tick(&mut self) -> Option<FaultKind> {
        if self.specs.is_empty() {
            return None;
        }
        self.advance()
    }

    #[cold]
    fn advance(&mut self) -> Option<FaultKind> {
        self.ops += 1;
        // Drop specs the counter has already passed (possible when an
        // earlier fault killed the consumer before a later one fired).
        while let Some(first) = self.specs.first() {
            if first.at > self.ops {
                return None;
            }
            let fired = self.specs.remove(0);
            if fired.at == self.ops {
                return Some(fired.kind);
            }
        }
        None
    }
}

impl Default for FaultLine {
    fn default() -> Self {
        FaultLine::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_line_is_inert() {
        let mut line = FaultLine::off();
        for _ in 0..1000 {
            assert_eq!(line.tick(), None);
        }
        // The empty fast path must not even count ops (no state churn).
        assert_eq!(line.ops, 0);
        assert_eq!(line.specs.capacity(), 0, "no allocation when disabled");
    }

    #[test]
    fn faults_fire_at_their_op_index() {
        let plan = FaultPlan::new()
            .crash_spe(3, 2)
            .delay_dma(3, 1, 500)
            .drop_reply(3, 4);
        let mut dispatch = plan.arm(FaultSite::SpeDispatch, 3);
        assert_eq!(dispatch.tick(), None);
        assert_eq!(dispatch.tick(), Some(FaultKind::SpeCrash));
        assert_eq!(dispatch.tick(), None);
        assert!(dispatch.is_exhausted());

        let mut dma = plan.arm(FaultSite::Dma, 3);
        assert_eq!(dma.tick(), Some(FaultKind::DmaDelay { cycles: 500 }));

        let mut reply = plan.arm(FaultSite::MailboxReply, 3);
        for _ in 0..3 {
            assert_eq!(reply.tick(), None);
        }
        assert_eq!(reply.tick(), Some(FaultKind::ReplyDrop));
    }

    #[test]
    fn arming_filters_by_site_and_spe() {
        let plan = FaultPlan::new().crash_spe(1, 1).hang_spe(2, 1);
        assert!(plan.arm(FaultSite::SpeDispatch, 0).is_exhausted());
        assert!(plan.arm(FaultSite::Dma, 1).is_exhausted());
        assert_eq!(
            plan.arm(FaultSite::SpeDispatch, 1).tick(),
            Some(FaultKind::SpeCrash)
        );
        assert_eq!(
            plan.arm(FaultSite::SpeDispatch, 2).tick(),
            Some(FaultKind::SpeHang)
        );
    }

    #[test]
    fn multiple_faults_on_one_line_fire_in_order() {
        let plan = FaultPlan::new()
            .stall_reply(0, 3, 10)
            .drop_reply(0, 1)
            .stall_reply(0, 5, 20);
        let mut line = plan.arm(FaultSite::MailboxReply, 0);
        assert_eq!(line.tick(), Some(FaultKind::ReplyDrop));
        assert_eq!(line.tick(), None);
        assert_eq!(line.tick(), Some(FaultKind::ReplyStall { cycles: 10 }));
        assert_eq!(line.tick(), None);
        assert_eq!(line.tick(), Some(FaultKind::ReplyStall { cycles: 20 }));
        assert!(line.is_exhausted());
    }

    #[test]
    fn chaos_plans_are_deterministic() {
        let a = FaultPlan::chaos(41, 8, 6, 20);
        let b = FaultPlan::chaos(41, 8, 6, 20);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 6);
        let c = FaultPlan::chaos(42, 8, 6, 20);
        assert_ne!(a, c, "different seed should give a different plan");
        for s in a.specs() {
            assert!(s.spe < 8);
            assert!((1..=20).contains(&s.at));
        }
    }

    #[test]
    fn blade_faults_live_on_their_own_site() {
        let plan = FaultPlan::new()
            .crash_blade(1, 3)
            .hang_blade(0, 2)
            .crash_spe(1, 3);
        // The blade line only sees blade faults; SPE dispatch on the
        // same index is untouched and vice versa.
        let mut blade1 = plan.arm(FaultSite::Blade, 1);
        assert_eq!(blade1.tick(), None);
        assert_eq!(blade1.tick(), None);
        assert_eq!(blade1.tick(), Some(FaultKind::BladeCrash));
        let mut blade0 = plan.arm(FaultSite::Blade, 0);
        assert_eq!(blade0.tick(), None);
        assert_eq!(blade0.tick(), Some(FaultKind::BladeHang));
        assert_eq!(
            plan.arm(FaultSite::SpeDispatch, 1).specs.len(),
            1,
            "SPE faults must not leak onto the blade line"
        );
    }

    #[test]
    fn blade_chaos_plans_are_deterministic_and_blade_scoped() {
        let a = FaultPlan::chaos_blades(7, 3, 4, 50);
        let b = FaultPlan::chaos_blades(7, 3, 4, 50);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 4);
        assert_ne!(a, FaultPlan::chaos_blades(8, 3, 4, 50));
        for s in a.specs() {
            assert_eq!(s.site, FaultSite::Blade);
            assert!(s.spe < 3);
            assert!((1..=50).contains(&s.at));
            assert!(matches!(
                s.kind,
                FaultKind::BladeCrash | FaultKind::BladeHang
            ));
        }
    }

    #[test]
    fn durability_faults_live_on_their_own_sites() {
        let plan = FaultPlan::new()
            .crash_process(5)
            .torn_write(2, 11)
            .bit_rot(3, 40)
            .lose_flush(1)
            .crash_spe(0, 5);
        let mut process = plan.arm(FaultSite::Process, 0);
        for _ in 0..4 {
            assert_eq!(process.tick(), None);
        }
        assert_eq!(process.tick(), Some(FaultKind::ProcessCrash));
        let mut write = plan.arm(FaultSite::StorageWrite, 0);
        assert_eq!(write.tick(), None);
        assert_eq!(write.tick(), Some(FaultKind::TornWrite { keep: 11 }));
        assert_eq!(write.tick(), Some(FaultKind::BitRot { bit: 40 }));
        let mut flush = plan.arm(FaultSite::StorageFlush, 0);
        assert_eq!(flush.tick(), Some(FaultKind::LostFlush));
        assert_eq!(
            plan.arm(FaultSite::SpeDispatch, 0).specs.len(),
            1,
            "SPE faults must not leak onto the durability lines"
        );
    }

    #[test]
    fn durable_chaos_plans_are_deterministic_and_storage_scoped() {
        let a = FaultPlan::chaos_durable(7, 3, 40);
        let b = FaultPlan::chaos_durable(7, 3, 40);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 4, "one crash plus the storage faults");
        assert_ne!(a, FaultPlan::chaos_durable(8, 3, 40));
        let crashes = a
            .specs()
            .iter()
            .filter(|s| s.kind == FaultKind::ProcessCrash)
            .count();
        assert_eq!(crashes, 1);
        for s in a.specs() {
            assert!((1..=40).contains(&s.at));
            match s.kind {
                FaultKind::ProcessCrash => assert_eq!(s.site, FaultSite::Process),
                FaultKind::LostFlush => assert_eq!(s.site, FaultSite::StorageFlush),
                FaultKind::TornWrite { .. } | FaultKind::BitRot { .. } => {
                    assert_eq!(s.site, FaultSite::StorageWrite);
                }
                other => panic!("unexpected kind in durable chaos plan: {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_op_index_fires_first_spec_only() {
        // Two faults at the same index: the first (by insertion after
        // the stable sort) fires, the other is discarded — a line
        // injects at most one fault per op.
        let plan = FaultPlan::new().drop_reply(0, 2).stall_reply(0, 2, 9);
        let mut line = plan.arm(FaultSite::MailboxReply, 0);
        assert_eq!(line.tick(), None);
        assert_eq!(line.tick(), Some(FaultKind::ReplyDrop));
        assert_eq!(line.tick(), None);
        assert!(line.is_exhausted());
    }
}
