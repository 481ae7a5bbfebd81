//! Resilient dispatch: the one reply wait with a deadline, and dead-SPE
//! detection, on top of the Listing-2/3 stub.
//!
//! The paper's protocol assumes the SPE side never dies; chaos testing
//! (the `cell-fault` crate) breaks that assumption on purpose. This module
//! gives every PPE-side wait — the stub's `Wait(timeout)` here and the
//! `cell-engine` lanes and probes — one loop, [`await_reply`]. The loop
//! spins on the host until one of three things is true, and each sets
//! the PPE clock from virtual time alone, never from how many host polls
//! it took:
//!
//! * **a reply**: the clock moves exactly as
//!   [`cell_sys::ppe::Ppe::read_out_mbox`] moves it in Listing 3 — to
//!   the reply's stamp plus crossing latency, then the read itself;
//! * **a dead SPE**: a program closes its mailboxes on the way out,
//!   however it stops (a fault, a panic, a return without a reply), and
//!   [`cell_sys::ppe::Ppe::spe_alive`] sees that at once
//!   ([`Awaited::Dead`]). Detection costs nothing, so the caller can fail
//!   over (see [`crate::schedule::Schedule::replan`]) without waiting out
//!   the deadline;
//! * **an idle SPE**: its program is parked on an empty inbound mailbox
//!   ([`cell_sys::ppe::Ppe::spe_idle`]) with no reply queued, so it cannot
//!   reply without new input. A dropped reply, a swallowed opcode or a
//!   hung SPE all end parked and surface as [`Awaited::TimedOut`], charged
//!   the deadline rounded up to whole `poll_cost` polls of the
//!   `spe_stat_out_mbox` spin. A kernel whose host thread merely runs
//!   slowly is waited for. This assumes every SPE program blocks only on
//!   its inbound mailbox.
//!
//! Retrying a timed-out dispatch is the caller's business: `cell-engine`
//! holds the one retry/backoff ladder, driven by [`RetryPolicy`].

use cell_core::{CellError, CellResult};
use cell_sys::ppe::Ppe;

use crate::interface::{ReplyMode, SpeInterface};

/// Timeout and retry discipline for PPE-side dispatches: [`await_reply`]
/// waits under the deadline and poll cost, `cell-engine` retries under
/// the attempt and backoff budget.
///
/// All costs are in 3.2 GHz core cycles. The defaults suit MARVEL-sized
/// kernels: a 2 M-cycle (~0.6 ms virtual) reply deadline, three attempts,
/// and backoff doubling from 1 k cycles up to a 100 k-cycle ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first dispatch included. At least 1.
    pub max_attempts: u32,
    /// Backoff charged before retry `n` is `base_backoff << (n-1)` cycles…
    pub base_backoff: u64,
    /// …capped here.
    pub max_backoff: u64,
    /// Virtual-time reply deadline per attempt.
    pub timeout_cycles: u64,
    /// PPE cycles per poll of the `spe_stat_out_mbox` spin of Listing 3.
    /// Only a timeout is priced in polls: it costs `timeout_cycles`
    /// rounded up to whole polls. A reply is timed by its stamp.
    pub poll_cost: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 1_000,
            max_backoff: 100_000,
            timeout_cycles: 2_000_000,
            poll_cost: 200,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before attempt `attempt` (1-based over
    /// retries: the first retry is attempt 1). Saturates at
    /// `max_backoff` for any attempt count: `checked_shl` only rejects
    /// shifts of 64 or more, so a large-but-legal shift (say attempt 50
    /// on a 1000-cycle base) would silently wrap the high bits — the
    /// doubling is done with saturating arithmetic instead.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1);
        let factor = if shift >= 63 { u64::MAX } else { 1u64 << shift };
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// A policy that never retries (timeouts surface directly).
    pub fn no_retry(timeout_cycles: u64) -> Self {
        RetryPolicy {
            max_attempts: 1,
            timeout_cycles,
            ..RetryPolicy::default()
        }
    }
}

/// How one [`await_reply`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Awaited {
    /// The SPE's reply word.
    Reply(u32),
    /// The SPE's mailboxes closed with no reply queued.
    Dead,
    /// The SPE sat idle with no reply queued; the wait was charged the
    /// deadline.
    TimedOut,
}

impl Awaited {
    /// The reply word, or the error a caller without a retry ladder of
    /// its own reports: [`CellError::SpeFault`] for a dead SPE,
    /// [`CellError::Timeout`] for a silent one.
    pub fn into_reply(self, spe: usize) -> CellResult<u32> {
        match self {
            Awaited::Reply(v) => Ok(v),
            Awaited::Dead => Err(dead_spe(spe)),
            Awaited::TimedOut => Err(CellError::Timeout {
                what: "SPE kernel reply",
            }),
        }
    }
}

/// The error for a dispatch whose SPE died before replying.
pub fn dead_spe(spe: usize) -> CellError {
    CellError::SpeFault {
        spe,
        message: "SPE died (mailboxes closed) while a dispatch was in flight".to_string(),
    }
}

/// Wait for the next word on `spe`'s outbound mailbox under `policy`'s
/// deadline and the idle rule (see the module docs). Every
/// reply-with-deadline wait in the workspace goes through here.
pub fn await_reply(ppe: &mut Ppe, spe: usize, policy: &RetryPolicy) -> CellResult<Awaited> {
    loop {
        if let Some(v) = poll_reply(ppe, spe)? {
            return Ok(Awaited::Reply(v));
        }
        if !ppe.spe_alive(spe)? {
            // One last poll: the dying SPE may have replied before it
            // closed its mailboxes (queued words stay readable).
            return Ok(poll_reply(ppe, spe)?.map_or(Awaited::Dead, Awaited::Reply));
        }
        if ppe.spe_idle(spe)? {
            // One last poll closes the race with an SPE that replied
            // between the poll above and parking on its next read.
            if let Some(v) = poll_reply(ppe, spe)? {
                return Ok(Awaited::Reply(v));
            }
            // The deadline, rounded up to whole polls.
            let poll = policy.poll_cost.max(1);
            ppe.charge_cycles(policy.timeout_cycles.div_ceil(poll).saturating_mul(poll));
            return Ok(Awaited::TimedOut);
        }
        std::thread::yield_now();
    }
}

/// Take the outbound mailbox's next word, if one is queued. A closed,
/// empty mailbox reads as empty: liveness is `spe_alive`'s business.
/// Every non-blocking read of a reply in the workspace goes through here.
pub fn poll_reply(ppe: &mut Ppe, spe: usize) -> CellResult<Option<u32>> {
    if ppe.stat_out_mbox(spe)? == 0 {
        return Ok(None);
    }
    match ppe.try_read_out_mbox(spe) {
        Ok(v) => Ok(Some(v)),
        Err(CellError::MailboxEmpty | CellError::MailboxClosed) => Ok(None),
        Err(e) => Err(e),
    }
}

impl SpeInterface {
    /// `Wait(timeout)` from paper Listing 2: wait for the in-flight
    /// call's reply through [`await_reply`].
    ///
    /// Requires `ReplyMode::Polling`. An idle SPE with no reply past
    /// `policy.timeout_cycles` is [`CellError::Timeout`]; a dead SPE is
    /// [`CellError::SpeFault`] as soon as its closed mailboxes are
    /// observed. Never retries: re-dispatch is `cell-engine`'s job.
    pub fn wait_for(&mut self, ppe: &mut Ppe, policy: &RetryPolicy) -> CellResult<u32> {
        if self.reply_mode() != ReplyMode::Polling {
            return Err(CellError::BadKernelSpec {
                message: "wait_for() requires ReplyMode::Polling".to_string(),
            });
        }
        let v = await_reply(ppe, self.spe_id(), policy)?.into_reply(self.spe_id())?;
        self.record_dispatch(ppe);
        Ok(v)
    }
}

/// Exactly-once commit ledger: which request ids have a durable commit,
/// and with what content digest.
///
/// Retries, failovers and crash-restart replays all re-execute work; the
/// ledger is the dedup point that keeps re-execution from becoming
/// re-*delivery*. `cell-durable` records every parsed `Commit` journal
/// record here during recovery and consults it before re-admitting a
/// pending request: a request that committed must not be recomputed, one
/// that didn't must not be lost.
#[derive(Debug, Clone, Default)]
pub struct CommitLedger {
    commits: std::collections::BTreeMap<u64, u32>,
}

impl CommitLedger {
    pub fn new() -> Self {
        CommitLedger::default()
    }

    /// Record a durable commit of `id` with content `digest`. Returns
    /// `true` if the id was new; `false` (and leaves the first digest in
    /// place) on a duplicate — the caller decides whether a duplicate is
    /// a protocol bug or an expected at-least-once artifact.
    pub fn record(&mut self, id: u64, digest: u32) -> bool {
        match self.commits.entry(id) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(digest);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Has `id` committed?
    pub fn is_committed(&self, id: u64) -> bool {
        self.commits.contains_key(&id)
    }

    /// The digest `id` committed with, if it committed.
    pub fn digest(&self, id: u64) -> Option<u32> {
        self.commits.get(&id).copied()
    }

    pub fn len(&self) -> usize {
        self.commits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.commits.is_empty()
    }

    /// Committed ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.commits.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_ledger_dedups_by_id_and_keeps_first_digest() {
        let mut ledger = CommitLedger::new();
        assert!(ledger.record(7, 0xAB));
        assert!(ledger.record(3, 0xCD));
        assert!(!ledger.record(7, 0xEE), "second commit of id 7 is a dup");
        assert_eq!(ledger.digest(7), Some(0xAB), "first digest wins");
        assert!(ledger.is_committed(3));
        assert!(!ledger.is_committed(4));
        assert_eq!(ledger.ids().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(ledger.len(), 2);
    }
    use crate::dispatcher::KernelDispatcher;
    use cell_core::MachineConfig;
    use cell_fault::FaultPlan;
    use cell_sys::machine::{CellMachine, SpeHandle};
    use cell_sys::spe::spe_fault;
    use cell_trace::{Counter, TraceConfig};

    fn machine_with_plan(plan: FaultPlan) -> (CellMachine, Ppe, SpeInterface, u32, SpeHandle) {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        m.set_trace_config(TraceConfig::Full);
        m.set_fault_plan(plan);
        let ppe = m.ppe();
        let mut d = KernelDispatcher::new("adder", ReplyMode::Polling);
        let op = d.register("add_seven", |env, v| {
            env.spu.scalar_op(1);
            Ok(v + 7)
        });
        let h = m.spawn(0, Box::new(d)).unwrap();
        let iface = SpeInterface::new("adder", 0, ReplyMode::Polling);
        (m, ppe, iface, op, h)
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), 1_000);
        assert_eq!(p.backoff(2), 2_000);
        assert_eq!(p.backoff(3), 4_000);
        assert_eq!(p.backoff(60), p.max_backoff);
        assert_eq!(p.backoff(1_000_000), p.max_backoff);
        assert_eq!(RetryPolicy::no_retry(5).max_attempts, 1);
    }

    #[test]
    fn backoff_never_wraps_at_high_attempt_counts() {
        // Regression: `1000 << 61` wraps to 0 in plain shift arithmetic
        // (checked_shl only rejects shifts >= 64), which made backoff(62)
        // free. Every attempt past the doubling range must saturate.
        let p = RetryPolicy::default();
        for attempt in 1..=200 {
            let b = p.backoff(attempt);
            assert!(b >= 1, "attempt {attempt} got a zero backoff");
            assert!(b <= p.max_backoff);
            assert!(b >= p.backoff(attempt.saturating_sub(1)).min(p.max_backoff));
        }
        assert_eq!(p.backoff(62), p.max_backoff);
        assert_eq!(p.backoff(u32::MAX), p.max_backoff);
        // A pathological policy with a huge base still saturates.
        let big = RetryPolicy {
            base_backoff: u64::MAX / 2,
            max_backoff: u64::MAX,
            ..RetryPolicy::default()
        };
        assert_eq!(big.backoff(3), u64::MAX);
    }

    #[test]
    fn wait_for_returns_replies_and_times_out_on_a_dropped_one() {
        // The second reply out of SPE 0 is dropped: the dispatcher parks
        // on its next read, so the wait ends at the virtual deadline.
        let (_m, mut ppe, mut iface, op, h) = machine_with_plan(FaultPlan::new().drop_reply(0, 2));
        let policy = RetryPolicy::no_retry(200_000);
        iface.send(&mut ppe, op, 1).unwrap();
        assert_eq!(iface.wait_for(&mut ppe, &policy).unwrap(), 8);
        iface.send(&mut ppe, op, 2).unwrap();
        let t0 = ppe.clock.now();
        let err = iface.wait_for(&mut ppe, &policy).unwrap_err();
        assert!(matches!(err, CellError::Timeout { .. }), "{err}");
        assert!(ppe.clock.now() - t0 >= policy.timeout_cycles);
        iface.close(&mut ppe).unwrap();
        assert_eq!(
            h.join()
                .unwrap()
                .trace
                .counters
                .get(Counter::FaultsInjected),
            1
        );
        assert_eq!(ppe.take_trace().counters.get(Counter::Dispatches), 1);
    }

    #[test]
    fn wait_for_reports_a_dead_spe_as_a_fault_not_a_timeout() {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut d = KernelDispatcher::new("doomed", ReplyMode::Polling);
        let op = d.register("die", |env, _| Err(spe_fault(env.spe_id(), "kernel died")));
        let h = m.spawn(0, Box::new(d)).unwrap();
        let mut iface = SpeInterface::new("doomed", 0, ReplyMode::Polling);
        iface.send(&mut ppe, op, 0).unwrap();
        let t0 = ppe.clock.now();
        let err = iface
            .wait_for(&mut ppe, &RetryPolicy::default())
            .unwrap_err();
        assert!(matches!(err, CellError::SpeFault { spe: 0, .. }), "{err}");
        assert!(
            ppe.clock.now() - t0 < RetryPolicy::default().timeout_cycles,
            "a dead SPE must not wait out the deadline"
        );
        assert!(h.join_report().unwrap().fault.is_some());
    }
}
