//! Engine policies: what happens when an SPE stops answering.
//!
//! The four shipped ports used to differ only in this layer — plain
//! MARVEL propagates errors, resilient MARVEL retries and fails over,
//! cell-serve additionally feeds circuit breakers and heartbeats. The
//! engine keeps one dispatch loop and turns those differences into a
//! [`FailoverMode`] plus an [`EngineObserver`], so a new port picks its
//! failure semantics instead of re-implementing them.

/// What the engine does when a lane's SPE is dead, hung, or out of retry
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailoverMode {
    /// Propagate the error to the caller (the paper's baseline ports:
    /// the SPE side is assumed healthy, determinism is paramount).
    #[default]
    Fail,
    /// Mark the SPE dead, re-plan the schedule over the survivors, and
    /// re-route every queued and in-flight request of that lane (the
    /// resilient/serving ports; kernels must be idempotent).
    Replan,
}

/// Why a recovery action fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// The request was re-sent to the same SPE after a reply timeout.
    Retry,
    /// The SPE was marked dead and the lane's requests were re-routed.
    Failover,
}

/// One recovery decision, in the order the engine took them. Drivers
/// with their own supervision (and the divergence regression tests)
/// compare these streams: same seed + same fault plan must yield the
/// same decisions regardless of which driver sits on top.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// PPE virtual clock when the decision was taken. It is set from
    /// mailbox stamps and whole-poll timeout charges, never from how many
    /// host polls a wait took. Any spread left between runs comes from
    /// DMA requests that overlap in virtual time, which the EIB still
    /// orders by host arrival, moving the stamps of kernels that share
    /// the bus; equality checks across parallel runs should compare
    /// kind/spe/kernel, not `at`.
    pub at: u64,
    /// The SPE the decision was about.
    pub spe: usize,
    /// Label of the request that triggered it.
    pub kernel: &'static str,
    pub kind: RecoveryKind,
}

/// Hooks a supervision layer implements to observe lane outcomes
/// without owning the dispatch loop. cell-serve's heartbeat/breaker
/// bookkeeping lives behind this trait.
pub trait EngineObserver {
    /// A request completed on `spe` at virtual time `at`.
    fn on_success(&mut self, spe: usize, kernel: &'static str, at: u64) {
        let _ = (spe, kernel, at);
    }
    /// The engine gave up on `spe` (dead or out of retry budget) while
    /// `kernel` was outstanding; in [`FailoverMode::Replan`] the lane is
    /// about to be re-routed.
    fn on_failure(&mut self, spe: usize, kernel: &'static str, at: u64) {
        let _ = (spe, kernel, at);
    }
}

/// The default observer: no supervision.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl EngineObserver for NoopObserver {}
