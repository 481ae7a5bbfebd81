//! The pipelined offload executor.
//!
//! One [`Engine`] fronts every SPE of the machine. Each SPE gets a
//! *lane*: a software send queue plus a FIFO of in-flight requests
//! bounded by the engine's window. [`Engine::submit`] returns a
//! [`Ticket`] immediately; [`Engine::complete`] pumps the lane until
//! that ticket's reply arrives. Because each lane's mailbox is FIFO and
//! the dispatcher serves requests in arrival order, the n-th reply on a
//! lane always belongs to the n-th outstanding request — the protocol
//! needs no request ids, and the same FIFO edges order the trace for
//! the happens-before race detector.
//!
//! Both failover modes (see [`FailoverMode`]) send through one pump:
//! every word goes out with a blocking [`Ppe::write_in_mbox`], as in
//! Listing 3, and virtual time never advances while a write waits for
//! mailbox space. The modes differ only in how a lane waits for its reply
//! and in what a dead or silent SPE does:
//!
//! * **Fail** — the wait blocks in [`Ppe::read_out_mbox`] and errors
//!   propagate (the baseline ports and the benchmarks).
//! * **Replan** — the wait is [`portkit::recovery::await_reply`]: a dead
//!   or hung SPE surfaces as a retry, then a failover that re-plans the
//!   schedule and re-routes the lane (the resilient and serving ports;
//!   kernels must be idempotent). A wait times out only once the SPE
//!   sits idle on its inbound mailbox, so a slow host thread is never
//!   mistaken for a silent SPE.
//!
//! Both waits set the PPE clock from the reply's stamp, so a fault-free
//! lane ends on the same cycle in either mode, however the host schedules
//! the SPE threads.
//!
//! Retry-in-place is only attempted when the timed-out lane has a
//! *single* request in flight: a deeper lane cannot distinguish a late
//! reply to request *n* from the reply to request *n+1* on an id-less
//! FIFO channel, so it fails over wholesale instead of guessing.

use std::collections::{HashMap, VecDeque};

use cell_core::{CellError, CellResult};
use cell_sys::ppe::Ppe;
use cell_trace::{Counter, EventKind};
use portkit::opcodes::{MAX_BATCH, SPU_BATCH, SPU_EXIT, SPU_SPAN};
use portkit::recovery::{await_reply, dead_spe, poll_reply, Awaited};
use portkit::schedule::{KernelId, Schedule};
use portkit::RetryPolicy;

use crate::policy::{EngineObserver, FailoverMode, NoopObserver, RecoveryEvent, RecoveryKind};

/// Handle to one submitted request; redeem it with [`Engine::complete`].
pub type Ticket = u64;

/// One queued or in-flight request.
#[derive(Debug)]
struct Request {
    ticket: Ticket,
    label: &'static str,
    /// The exact mailbox words: `[op, arg]`, or the `SPU_BATCH` framing.
    words: Vec<u32>,
    /// PPE clock when the pump started sending the words; drives the
    /// dispatch span.
    t0: u64,
    /// Schedule slot for failover re-routing; `None` pins the request
    /// to its SPE (it dies with the lane).
    slot: Option<KernelId>,
    /// Timeout retries burned on this request since its last (re)route.
    attempts: u32,
    /// Member count: 1 for singles, n for a batch.
    batch: usize,
    /// Request span context captured at submit (0 = none). Rides the
    /// wire as an `SPU_SPAN` prefix and tags the PPE dispatch span, so
    /// retries and failovers keep one trace id per request.
    span: u64,
}

#[derive(Debug, Default)]
struct Lane {
    sendq: VecDeque<Request>,
    inflight: VecDeque<Request>,
}

impl Lane {
    fn outstanding(&self) -> usize {
        self.sendq.len() + self.inflight.len()
    }
}

/// The shared PPE-side offload executor. See the module docs.
pub struct Engine {
    lanes: Vec<Lane>,
    window: usize,
    policy: RetryPolicy,
    mode: FailoverMode,
    /// Current kernel-slot → SPE routing (replanned on failover).
    schedule: Option<Schedule>,
    /// The pristine full-width schedule; `revive` replans from it.
    full_schedule: Option<Schedule>,
    alive: Vec<bool>,
    done: HashMap<Ticket, u32>,
    failed: HashMap<Ticket, CellError>,
    route: HashMap<Ticket, usize>,
    next_ticket: Ticket,
    recovery: Vec<RecoveryEvent>,
    submissions: u64,
    /// Ambient span context stamped onto subsequent submissions.
    current_span: u64,
}

impl Engine {
    /// An engine over `num_spes` lanes: window 1, [`FailoverMode::Fail`],
    /// default [`RetryPolicy`], replies read from the polling outbound
    /// mailbox — exactly the Listing-3 protocol until the builder
    /// methods say otherwise.
    pub fn new(num_spes: usize) -> Self {
        Engine {
            lanes: (0..num_spes).map(|_| Lane::default()).collect(),
            window: 1,
            policy: RetryPolicy::default(),
            mode: FailoverMode::Fail,
            schedule: None,
            full_schedule: None,
            alive: vec![true; num_spes],
            done: HashMap::new(),
            failed: HashMap::new(),
            route: HashMap::new(),
            next_ticket: 1,
            recovery: Vec::new(),
            submissions: 0,
            current_span: 0,
        }
    }

    /// Route slot-addressed submissions through `schedule` and keep its
    /// pristine copy for [`Engine::revive`].
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.full_schedule = Some(schedule.clone());
        self.schedule = Some(schedule);
        self
    }

    /// Maximum requests in flight per SPE. 1 reproduces send-and-wait;
    /// 2 fills the 4-deep inbound mailbox (two `(opcode, arg)` pairs)
    /// so the SPE always finds its next request already queued.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        self.window = window;
        self
    }

    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the retry/timeout policy mid-run (e.g. shorter deadlines
    /// for hang detection in tests). Applies to subsequent waits.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    #[must_use]
    pub fn with_mode(mut self, mode: FailoverMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn num_spes(&self) -> usize {
        self.lanes.len()
    }

    pub fn window(&self) -> usize {
        self.window
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    pub fn mode(&self) -> FailoverMode {
        self.mode
    }

    /// The current (possibly replanned) schedule.
    pub fn schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// The pristine schedule the engine was built with (before any
    /// failover replans). [`Engine::revive`] replans from this.
    pub fn full_schedule(&self) -> Option<&Schedule> {
        self.full_schedule.as_ref()
    }

    /// Which SPEs the engine still routes to.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// SPE a schedule slot currently routes to.
    pub fn spe_of(&self, slot: KernelId) -> CellResult<usize> {
        let s = self
            .schedule
            .as_ref()
            .ok_or_else(|| CellError::BadKernelSpec {
                message: "slot-routed submit requires with_schedule()".to_string(),
            })?;
        Ok(s.spe_of(slot))
    }

    /// Requests submitted over the engine's lifetime.
    pub fn submissions(&self) -> u64 {
        self.submissions
    }

    // ---- request span context -------------------------------------------

    /// Set the ambient request span context: every submission until
    /// [`Engine::clear_span_context`] carries this trace id over the
    /// wire (an [`SPU_SPAN`] prefix before its mailbox words) and onto
    /// its PPE dispatch span. Trace ids must fit a mailbox word; ids
    /// above `u32::MAX` are rejected rather than silently truncated.
    pub fn set_span_context(&mut self, span: u64) -> CellResult<()> {
        if span > u64::from(u32::MAX) {
            return Err(CellError::BadKernelSpec {
                message: format!("span context {span} does not fit a mailbox word"),
            });
        }
        self.current_span = span;
        Ok(())
    }

    /// Drop the ambient span context; later submissions are untagged.
    pub fn clear_span_context(&mut self) {
        self.current_span = 0;
    }

    /// The ambient span context (0 when none is set).
    pub fn current_span(&self) -> u64 {
        self.current_span
    }

    /// Queued + in-flight requests on one lane.
    pub fn outstanding(&self, spe: usize) -> usize {
        self.lanes.get(spe).map_or(0, Lane::outstanding)
    }

    /// Every recovery decision taken so far, in order. Same seed + same
    /// fault plan must produce the same decision stream no matter which
    /// driver sits on the engine.
    pub fn recovery_log(&self) -> &[RecoveryEvent] {
        &self.recovery
    }

    /// Failovers taken so far (convenience over [`Engine::recovery_log`]).
    pub fn failovers(&self) -> usize {
        self.recovery
            .iter()
            .filter(|e| e.kind == RecoveryKind::Failover)
            .count()
    }

    fn alloc_ticket(&mut self, spe: usize) -> Ticket {
        let t = self.next_ticket;
        self.next_ticket += 1;
        self.route.insert(t, spe);
        self.submissions += 1;
        t
    }

    fn check_spe(&self, spe: usize) -> CellResult<()> {
        if spe >= self.lanes.len() {
            return Err(CellError::NoSpeAvailable {
                requested: spe + 1,
                available: self.lanes.len(),
            });
        }
        Ok(())
    }

    // ---- submission ------------------------------------------------------

    /// Queue one request for the SPE its schedule slot routes to and
    /// push sends as far as the window allows. Returns immediately.
    pub fn submit(
        &mut self,
        ppe: &mut Ppe,
        slot: KernelId,
        label: &'static str,
        op: u32,
        arg: u32,
    ) -> CellResult<Ticket> {
        self.submit_with(ppe, slot, label, op, arg, &mut NoopObserver)
    }

    /// [`Engine::submit`] with an observer: if the send itself runs the
    /// lane into failover (dead mailbox in [`FailoverMode::Replan`]),
    /// the observer sees it.
    pub fn submit_with(
        &mut self,
        ppe: &mut Ppe,
        slot: KernelId,
        label: &'static str,
        op: u32,
        arg: u32,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<Ticket> {
        let spe = self.spe_of(slot)?;
        self.enqueue(ppe, spe, label, vec![op, arg], Some(slot), 1, obs)
    }

    /// Queue one request pinned to `spe` (no failover re-routing).
    pub fn submit_to_spe(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        label: &'static str,
        op: u32,
        arg: u32,
    ) -> CellResult<Ticket> {
        self.enqueue(ppe, spe, label, vec![op, arg], None, 1, &mut NoopObserver)
    }

    /// Pack several small requests into one `SPU_BATCH` round-trip on
    /// the slot's SPE. The single reply word is `SPU_OK` when every
    /// member succeeded, else a bitmask of failed member indices.
    ///
    /// Batching requires [`FailoverMode::Fail`]: a hung SPE can consume
    /// a batch partially, and an id-less FIFO channel cannot re-send
    /// the remainder unambiguously — the resilient ports keep to
    /// single-request round trips instead.
    pub fn submit_batch(
        &mut self,
        ppe: &mut Ppe,
        slot: KernelId,
        label: &'static str,
        calls: &[(u32, u32)],
    ) -> CellResult<Ticket> {
        let spe = self.spe_of(slot)?;
        self.submit_batch_to_spe(ppe, spe, label, calls)
    }

    /// [`Engine::submit_batch`] pinned to an explicit SPE.
    pub fn submit_batch_to_spe(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        label: &'static str,
        calls: &[(u32, u32)],
    ) -> CellResult<Ticket> {
        if self.mode != FailoverMode::Fail {
            return Err(CellError::BadKernelSpec {
                message: "batching requires FailoverMode::Fail (partial batch \
                          consumption cannot be re-sent safely)"
                    .to_string(),
            });
        }
        if calls.is_empty() || calls.len() > MAX_BATCH {
            return Err(CellError::BadKernelSpec {
                message: format!("batch of {} outside 1..={MAX_BATCH}", calls.len()),
            });
        }
        let mut words = Vec::with_capacity(2 + 2 * calls.len());
        words.push(SPU_BATCH);
        words.push(calls.len() as u32);
        for &(op, arg) in calls {
            if op == SPU_EXIT || op == SPU_BATCH {
                return Err(CellError::BadKernelSpec {
                    message: format!("opcode {op:#x} is not dispatchable inside a batch"),
                });
            }
            words.push(op);
            words.push(arg);
        }
        self.enqueue(ppe, spe, label, words, None, calls.len(), &mut NoopObserver)
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        label: &'static str,
        words: Vec<u32>,
        slot: Option<KernelId>,
        batch: usize,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<Ticket> {
        self.check_spe(spe)?;
        if words.first() == Some(&SPU_EXIT) {
            return Err(CellError::BadKernelSpec {
                message: "use close_spe() to terminate the dispatcher, not submit(SPU_EXIT)"
                    .to_string(),
            });
        }
        if !self.alive[spe] && slot.is_none() {
            return Err(dead_spe(spe));
        }
        let span = self.current_span;
        let words = if span == 0 {
            words
        } else {
            // Prefix the span context on the wire; the dispatcher strips
            // it before decoding the real opcode (or batch framing).
            let mut prefixed = Vec::with_capacity(2 + words.len());
            prefixed.push(SPU_SPAN);
            prefixed.push(span as u32);
            prefixed.extend_from_slice(&words);
            prefixed
        };
        let ticket = self.alloc_ticket(spe);
        self.lanes[spe].sendq.push_back(Request {
            ticket,
            label,
            words,
            t0: 0,
            slot,
            attempts: 0,
            batch,
            span,
        });
        self.pump_lane(ppe, spe, obs)?;
        Ok(ticket)
    }

    // ---- send pump -------------------------------------------------------

    /// Send the lane's queued requests until its window is full: the one
    /// send path of both modes. Words go out with blocking
    /// [`Ppe::write_in_mbox`] writes, so virtual time never advances while
    /// a write waits for mailbox space. A mailbox that closes mid-send
    /// puts the request back at the head of the queue and fails the lane
    /// over ([`CellError::SpeFault`] in [`FailoverMode::Fail`]).
    fn pump_lane(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<()> {
        loop {
            if !self.alive[spe] {
                return self.fail_over_lane(ppe, spe, obs);
            }
            if self.lanes[spe].inflight.len() >= self.window {
                return Ok(());
            }
            let Some(mut req) = self.lanes[spe].sendq.pop_front() else {
                return Ok(());
            };
            // Fresh request on an idle lane: toss stale replies first,
            // so a reply a timed-out earlier request left queued cannot
            // be mistaken for this one's (Fail mode never leaves one).
            // With requests in flight the outbound words belong to them —
            // do NOT drain.
            if self.lanes[spe].inflight.is_empty() {
                self.drain_stale(ppe, spe)?;
            }
            req.t0 = ppe.clock.now();
            // Save/restore the caller's ambient span rather than
            // clearing: the serving layer keeps its own request span set
            // across a whole dispatch sequence.
            let prev = ppe.tracer().current_span();
            ppe.tracer_mut().set_span_context(req.span);
            let sent = req
                .words
                .iter()
                .try_for_each(|&w| ppe.write_in_mbox(spe, w));
            ppe.tracer_mut().set_span_context(prev);
            match sent {
                Ok(()) => {
                    self.lanes[spe].inflight.push_back(req);
                    let depth = self.lanes[spe].inflight.len() as u64;
                    ppe.tracer_mut().count_max(Counter::InFlight, depth);
                }
                Err(CellError::MailboxClosed) => {
                    self.lanes[spe].sendq.push_front(req);
                    return self.fail_over_lane(ppe, spe, obs);
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ---- completion ------------------------------------------------------

    /// Block until `ticket`'s reply arrives; returns its result word.
    /// Under [`FailoverMode::Replan`] the wait retries and fails over
    /// per policy; under [`FailoverMode::Fail`] errors propagate.
    pub fn complete(&mut self, ppe: &mut Ppe, ticket: Ticket) -> CellResult<u32> {
        self.complete_with(ppe, ticket, &mut NoopObserver)
    }

    /// [`Engine::complete`] with supervision hooks.
    pub fn complete_with(
        &mut self,
        ppe: &mut Ppe,
        ticket: Ticket,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<u32> {
        loop {
            if let Some(v) = self.done.remove(&ticket) {
                self.route.remove(&ticket);
                return Ok(v);
            }
            if let Some(e) = self.failed.remove(&ticket) {
                self.route.remove(&ticket);
                return Err(e);
            }
            let spe = *self
                .route
                .get(&ticket)
                .ok_or_else(|| CellError::BadKernelSpec {
                    message: format!("unknown or already-completed ticket {ticket}"),
                })?;
            self.step_lane(ppe, spe, obs)?;
        }
    }

    /// Retire the lane's front request with its reply word.
    fn finish_front(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        value: u32,
        obs: &mut dyn EngineObserver,
    ) {
        let Some(req) = self.lanes[spe].inflight.pop_front() else {
            return;
        };
        let now = ppe.clock.now();
        // Explicit span: under a pipelined window the completing request
        // is generally not the one the ambient context (if any) names.
        ppe.tracer_mut().span_tagged(
            EventKind::Dispatch,
            req.label,
            req.t0,
            now.saturating_sub(req.t0),
            spe as u64,
            0,
            req.span,
        );
        ppe.tracer_mut().count(Counter::Dispatches, 1);
        if req.batch > 1 {
            ppe.tracer_mut()
                .count_max(Counter::BatchSize, req.batch as u64);
        }
        self.done.insert(req.ticket, value);
        obs.on_success(spe, req.label, now);
    }

    /// One wait on a lane: completes the front request, retries it in
    /// place, or fails the lane over. Always makes progress; the caller
    /// loops until its ticket resolves.
    fn step_lane(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<()> {
        self.pump_lane(ppe, spe, obs)?;
        if self.lanes[spe].inflight.is_empty() {
            // Failover re-routed the lane; the caller re-resolves the
            // ticket's new lane.
            return Ok(());
        }
        let awaited = match self.mode {
            // Listing 3: block in `spe_read_out_mbox`; errors propagate.
            FailoverMode::Fail => Awaited::Reply(ppe.read_out_mbox(spe)?),
            FailoverMode::Replan => await_reply(ppe, spe, &self.policy)?,
        };
        match awaited {
            Awaited::Reply(v) => {
                self.finish_front(ppe, spe, v, obs);
                Ok(())
            }
            Awaited::Dead => self.fail_over_lane(ppe, spe, obs),
            Awaited::TimedOut => {
                // Retry in place only when the resend is unambiguous:
                // a single request in flight.
                let front = self.lanes[spe].inflight.front().expect("nonempty");
                if self.lanes[spe].inflight.len() == 1
                    && front.attempts + 1 < self.policy.max_attempts.max(1)
                {
                    self.retry_front(ppe, spe, obs)
                } else {
                    self.fail_over_lane(ppe, spe, obs)
                }
            }
        }
    }

    /// Re-send the lane's (single) timed-out front request to the same
    /// SPE under the retry budget, with backoff and trace.
    fn retry_front(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<()> {
        let now = ppe.clock.now();
        let mut req = self.lanes[spe].inflight.pop_front().expect("nonempty");
        req.attempts += 1;
        let backoff = self.policy.backoff(req.attempts);
        ppe.tracer_mut().span_tagged(
            EventKind::Recovery,
            "retry",
            now,
            backoff,
            spe as u64,
            u64::from(req.attempts),
            req.span,
        );
        ppe.tracer_mut().count(Counter::Retries, 1);
        ppe.charge_cycles(backoff);
        self.recovery.push(RecoveryEvent {
            at: now,
            spe,
            kernel: req.label,
            kind: RecoveryKind::Retry,
        });
        // Re-deliver the words through the send pump. Its drain finds
        // nothing: the wait timed out only after a last empty poll of an
        // idle SPE.
        self.lanes[spe].sendq.push_front(req);
        self.pump_lane(ppe, spe, obs)
    }

    // ---- failover --------------------------------------------------------

    /// Mark `spe` dead, re-plan the schedule over the survivors, and
    /// re-route the lane's queued and in-flight requests (idempotent
    /// kernels re-compute identical bytes elsewhere). Pinned requests
    /// (`submit_to_spe`) fail with `SpeFault` instead of moving.
    pub fn fail_over(&mut self, ppe: &mut Ppe, spe: usize) -> CellResult<()> {
        self.fail_over_lane(ppe, spe, &mut NoopObserver)
    }

    fn fail_over_lane(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        obs: &mut dyn EngineObserver,
    ) -> CellResult<()> {
        self.check_spe(spe)?;
        if self.mode == FailoverMode::Fail {
            return Err(dead_spe(spe));
        }
        let label = self.lanes[spe]
            .inflight
            .front()
            .or_else(|| self.lanes[spe].sendq.front())
            .map_or("lane", |r| r.label);
        let now = ppe.clock.now();
        obs.on_failure(spe, label, now);
        if self.alive[spe] {
            self.alive[spe] = false;
            ppe.tracer_mut()
                .span(EventKind::Recovery, "failover", now, 0, spe as u64, 0);
            ppe.tracer_mut().count(Counter::Failovers, 1);
            self.recovery.push(RecoveryEvent {
                at: now,
                spe,
                kernel: label,
                kind: RecoveryKind::Failover,
            });
            if let Some(s) = self.schedule.as_ref() {
                self.schedule = Some(s.replan(&self.alive)?);
            }
        }
        // Re-route the lane's requests in FIFO order (in-flight first:
        // they were submitted earlier).
        let lane = &mut self.lanes[spe];
        let mut orphans: Vec<Request> = lane.inflight.drain(..).collect();
        orphans.extend(lane.sendq.drain(..));
        let mut touched: Vec<usize> = Vec::new();
        for mut req in orphans {
            req.attempts = 0;
            match req.slot {
                Some(slot) => {
                    let new_spe = self.spe_of(slot)?;
                    self.route.insert(req.ticket, new_spe);
                    self.lanes[new_spe].sendq.push_back(req);
                    if !touched.contains(&new_spe) {
                        touched.push(new_spe);
                    }
                }
                None => {
                    self.route.remove(&req.ticket);
                    self.failed.insert(req.ticket, dead_spe(spe));
                }
            }
        }
        for new_spe in touched {
            self.pump_lane(ppe, new_spe, obs)?;
        }
        Ok(())
    }

    /// Bring a lane back after an external respawn: mark it alive again
    /// and re-plan from the pristine full-width schedule (replan over
    /// all-alive is idempotent, so a full recovery restores the exact
    /// schedule the engine started with).
    pub fn revive(&mut self, spe: usize) -> CellResult<()> {
        self.check_spe(spe)?;
        self.alive[spe] = true;
        if let Some(full) = self.full_schedule.as_ref() {
            self.schedule = Some(full.replan(&self.alive)?);
        }
        Ok(())
    }

    // ---- raw lane utilities ---------------------------------------------

    /// Toss queued replies on a lane's outbound mailbox. A closed,
    /// empty mailbox is drained: [`poll_reply`] decides how every
    /// outbound mailbox reads, and liveness is `spe_alive`'s business.
    pub fn drain_stale(&mut self, ppe: &mut Ppe, spe: usize) -> CellResult<()> {
        while poll_reply(ppe, spe)?.is_some() {}
        Ok(())
    }

    /// One raw supervised round trip outside the queues: drain, send,
    /// wait under `policy` with **no** retry or failover — the caller
    /// owns the verdict. Serving watchdogs probe idle lanes with this.
    pub fn probe(
        &mut self,
        ppe: &mut Ppe,
        spe: usize,
        label: &'static str,
        op: u32,
        arg: u32,
        policy: &RetryPolicy,
    ) -> CellResult<u32> {
        self.check_spe(spe)?;
        if self.lanes[spe].outstanding() > 0 {
            return Err(CellError::BadKernelSpec {
                message: format!("probe requires an idle lane; SPE {spe} has requests queued"),
            });
        }
        self.drain_stale(ppe, spe)?;
        let t0 = ppe.clock.now();
        ppe.write_in_mbox(spe, op)?;
        ppe.write_in_mbox(spe, arg)?;
        let v = await_reply(ppe, spe, policy)?.into_reply(spe)?;
        let now = ppe.clock.now();
        ppe.tracer_mut().span(
            EventKind::Dispatch,
            label,
            t0,
            now.saturating_sub(t0),
            spe as u64,
            0,
        );
        ppe.tracer_mut().count(Counter::Dispatches, 1);
        Ok(v)
    }

    /// `thread_close` for one lane: command its dispatcher to exit. A
    /// closed mailbox (already-dead SPE) is not an error.
    pub fn close_spe(&mut self, ppe: &mut Ppe, spe: usize) -> CellResult<()> {
        self.check_spe(spe)?;
        match ppe.write_in_mbox(spe, SPU_EXIT) {
            Ok(()) | Err(CellError::MailboxClosed) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Close every lane (best effort; dead lanes are skipped quietly).
    pub fn close(&mut self, ppe: &mut Ppe) -> CellResult<()> {
        for spe in 0..self.lanes.len() {
            self.close_spe(ppe, spe)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("num_spes", &self.lanes.len())
            .field("window", &self.window)
            .field("mode", &self.mode)
            .field(
                "outstanding",
                &self.lanes.iter().map(Lane::outstanding).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_core::MachineConfig;
    use cell_fault::FaultPlan;
    use cell_sys::machine::{CellMachine, SpeHandle};
    use cell_trace::TraceConfig;
    use portkit::dispatcher::KernelDispatcher;
    use portkit::interface::ReplyMode;
    use portkit::opcodes::SPU_OK;

    fn adder_machine(n_spes: usize, plan: FaultPlan) -> (CellMachine, Ppe, u32, Vec<SpeHandle>) {
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        m.set_trace_config(TraceConfig::Full);
        m.set_fault_plan(plan);
        let ppe = m.ppe();
        let mut op = 0;
        let mut handles = Vec::new();
        for spe in 0..n_spes {
            let mut d = KernelDispatcher::new("adder", ReplyMode::Polling);
            op = d.register("add_seven", |env, v| {
                env.spu.scalar_op(1);
                Ok(v + 7)
            });
            handles.push(m.spawn(spe, Box::new(d)).unwrap());
        }
        (m, ppe, op, handles)
    }

    #[test]
    fn submit_complete_roundtrip_matches_send_and_wait() {
        let (_m, mut ppe, op, handles) = adder_machine(1, FaultPlan::new());
        let mut eng = Engine::new(1);
        let t = eng.submit_to_spe(&mut ppe, 0, "add", op, 10).unwrap();
        assert_eq!(eng.complete(&mut ppe, t).unwrap(), 17);
        assert_eq!(eng.submissions(), 1);
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn window_two_keeps_two_requests_in_flight() {
        let (_m, mut ppe, op, handles) = adder_machine(1, FaultPlan::new());
        let mut eng = Engine::new(1).with_window(2);
        let t1 = eng.submit_to_spe(&mut ppe, 0, "add", op, 1).unwrap();
        let t2 = eng.submit_to_spe(&mut ppe, 0, "add", op, 2).unwrap();
        let t3 = eng.submit_to_spe(&mut ppe, 0, "add", op, 3).unwrap();
        assert_eq!(eng.outstanding(0), 3);
        // Completion in FIFO order, even when redeemed out of order.
        assert_eq!(eng.complete(&mut ppe, t2).unwrap(), 9);
        assert_eq!(eng.complete(&mut ppe, t1).unwrap(), 8);
        assert_eq!(eng.complete(&mut ppe, t3).unwrap(), 10);
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let trace = ppe.take_trace();
        assert_eq!(trace.counters.get(Counter::InFlight), 2);
        assert_eq!(trace.counters.get(Counter::Dispatches), 3);
    }

    #[test]
    fn batch_completes_as_one_roundtrip() {
        let (_m, mut ppe, op, handles) = adder_machine(1, FaultPlan::new());
        let mut eng = Engine::new(1);
        let t = eng
            .submit_batch_to_spe(&mut ppe, 0, "adds", &[(op, 1), (op, 2), (op, 3)])
            .unwrap();
        // Members reply through DMA-side effects in real kernels; the
        // adder returns v+7 (non-zero), so members 0..=2 "fail" -> 0b111.
        assert_eq!(eng.complete(&mut ppe, t).unwrap(), 0b111);
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let trace = ppe.take_trace();
        // One mailbox round trip: 8 sends (2 + 3 pairs), one recv.
        assert_eq!(trace.counters.get(Counter::MailboxRecvs), 1);
    }

    #[test]
    fn schedule_routing_and_failover_reroutes_queued_work() {
        // Two SPEs; slot 0 routed to SPE 0, which dies on its 2nd
        // dispatch. The queued request must fail over to SPE 1 and
        // still produce the right answer.
        let plan = FaultPlan::new().crash_spe(0, 3);
        let (_m, mut ppe, op, handles) = adder_machine(2, plan);
        let schedule = Schedule::grouped(vec![vec![0], vec![1]], 2).unwrap();
        let mut eng = Engine::new(2)
            .with_schedule(schedule)
            .with_mode(FailoverMode::Replan)
            .with_policy(RetryPolicy {
                timeout_cycles: 300_000,
                ..RetryPolicy::default()
            });
        assert_eq!(eng.spe_of(0).unwrap(), 0);
        let t1 = eng.submit(&mut ppe, 0, "add", op, 1).unwrap();
        assert_eq!(eng.complete(&mut ppe, t1).unwrap(), 8);
        let t2 = eng.submit(&mut ppe, 0, "add", op, 2).unwrap();
        assert_eq!(eng.complete(&mut ppe, t2).unwrap(), 9);
        assert_eq!(eng.failovers(), 1);
        assert!(!eng.alive()[0]);
        assert_eq!(eng.spe_of(0).unwrap(), 1, "slot 0 re-planned onto SPE 1");
        // Only the survivor gets a close.
        eng.close(&mut ppe).unwrap();
        let mut reports = handles.into_iter().map(SpeHandle::join_report);
        assert!(reports.next().unwrap().unwrap().fault.is_some());
        assert!(reports.next().unwrap().unwrap().fault.is_none());
    }

    #[test]
    fn dropped_reply_is_retried_in_place() {
        let plan = FaultPlan::new().drop_reply(0, 2);
        let (_m, mut ppe, op, handles) = adder_machine(1, plan);
        let mut eng = Engine::new(1)
            .with_mode(FailoverMode::Replan)
            .with_policy(RetryPolicy {
                timeout_cycles: 300_000,
                ..RetryPolicy::default()
            });
        let t1 = eng.submit_to_spe(&mut ppe, 0, "add", op, 1).unwrap();
        assert_eq!(eng.complete(&mut ppe, t1).unwrap(), 8);
        let t2 = eng.submit_to_spe(&mut ppe, 0, "add", op, 2).unwrap();
        assert_eq!(eng.complete(&mut ppe, t2).unwrap(), 9);
        assert!(eng
            .recovery_log()
            .iter()
            .any(|e| e.kind == RecoveryKind::Retry && e.spe == 0));
        assert_eq!(eng.failovers(), 0);
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let trace = ppe.take_trace();
        assert_eq!(trace.counters.get(Counter::Retries), 1);
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::Recovery && e.label == "retry"));
    }

    #[test]
    fn stalled_reply_is_late_in_virtual_time_but_not_retried() {
        // A stall only delays the reply on the virtual timeline; the host
        // delivery is immediate, so no retry fires and the stamp is late.
        let plan = FaultPlan::new().stall_reply(0, 1, 300_000);
        let (_m, mut ppe, op, handles) = adder_machine(1, plan);
        let mut eng = Engine::new(1).with_mode(FailoverMode::Replan);
        let t0 = ppe.clock.now();
        let t = eng.submit_to_spe(&mut ppe, 0, "add", op, 1).unwrap();
        assert_eq!(eng.complete(&mut ppe, t).unwrap(), 8);
        assert!(
            ppe.clock.now() - t0 >= 300_000,
            "stall must show up in virtual time"
        );
        assert!(eng.recovery_log().is_empty());
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ppe.take_trace().counters.get(Counter::Retries), 0);
    }

    #[test]
    fn exhausted_retries_fail_a_pinned_request() {
        // Every reply from SPE 0 is dropped: three attempts, then the
        // lane fails over and the pinned request fails with it.
        let plan = FaultPlan::new()
            .drop_reply(0, 1)
            .drop_reply(0, 2)
            .drop_reply(0, 3);
        let (_m, mut ppe, op, handles) = adder_machine(1, plan);
        let mut eng = Engine::new(1)
            .with_mode(FailoverMode::Replan)
            .with_policy(RetryPolicy {
                timeout_cycles: 200_000,
                ..RetryPolicy::default()
            });
        let t = eng.submit_to_spe(&mut ppe, 0, "add", op, 5).unwrap();
        let err = eng.complete(&mut ppe, t).unwrap_err();
        assert!(matches!(err, CellError::SpeFault { spe: 0, .. }), "{err}");
        let kinds: Vec<RecoveryKind> = eng.recovery_log().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                RecoveryKind::Retry,
                RecoveryKind::Retry,
                RecoveryKind::Failover
            ]
        );
        // The SPE itself is healthy (it only lost replies): it exits
        // cleanly on close.
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            ppe.take_trace().counters.get(Counter::Retries),
            2,
            "3 attempts = 2 retries"
        );
    }

    #[test]
    fn pinned_request_on_dead_lane_fails_not_reroutes() {
        let plan = FaultPlan::new().crash_spe(0, 1);
        let (_m, mut ppe, op, handles) = adder_machine(2, plan);
        let mut eng = Engine::new(2)
            .with_mode(FailoverMode::Replan)
            .with_policy(RetryPolicy {
                timeout_cycles: 200_000,
                ..RetryPolicy::default()
            });
        let t = eng.submit_to_spe(&mut ppe, 0, "add", op, 1).unwrap();
        let err = eng.complete(&mut ppe, t).unwrap_err();
        assert!(matches!(err, CellError::SpeFault { spe: 0, .. }), "{err}");
        eng.close_spe(&mut ppe, 1).unwrap();
        let mut it = handles.into_iter();
        let _ = it.next().unwrap().join_report().unwrap();
        it.next().unwrap().join().unwrap();
    }

    #[test]
    fn probe_roundtrips_and_times_out() {
        let (_m, mut ppe, op, handles) = adder_machine(1, FaultPlan::new().drop_reply(0, 2));
        let mut eng = Engine::new(1).with_mode(FailoverMode::Replan);
        let v = eng
            .probe(
                &mut ppe,
                0,
                "probe",
                op,
                35,
                &RetryPolicy::no_retry(2_000_000),
            )
            .unwrap();
        assert_eq!(v, 42);
        // The dropped reply times out under the probe's own policy, poll
        // cost included: a 10k-cycle deadline at 7k cycles per empty
        // poll is two polls after the two 50-cycle sends.
        let policy = RetryPolicy {
            poll_cost: 7_000,
            ..RetryPolicy::no_retry(10_000)
        };
        let t0 = ppe.clock.now();
        let err = eng.probe(&mut ppe, 0, "probe", op, 1, &policy).unwrap_err();
        assert!(matches!(err, CellError::Timeout { .. }), "{err}");
        assert_eq!(ppe.clock.now() - t0, 2 * 50 + 2 * 7_000);
        eng.close(&mut ppe).unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fail_mode_surfaces_dead_spe_errors() {
        let plan = FaultPlan::new().crash_spe(0, 1);
        let (_m, mut ppe, op, handles) = adder_machine(1, plan);
        let mut eng = Engine::new(1);
        // The crash can close the mailboxes during the submit's second
        // word or before the reply — either way the error propagates.
        let err = match eng.submit_to_spe(&mut ppe, 0, "add", op, 1) {
            Ok(t) => eng.complete(&mut ppe, t).unwrap_err(),
            Err(e) => e,
        };
        assert!(matches!(
            err,
            CellError::MailboxClosed | CellError::SpeFault { .. }
        ));
        for h in handles {
            let _ = h.join_report().unwrap();
        }
    }

    #[test]
    fn exit_opcode_is_rejected_in_submissions() {
        let m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut eng = Engine::new(1);
        assert!(eng.submit_to_spe(&mut ppe, 0, "x", SPU_EXIT, 0).is_err());
        assert!(eng
            .submit_batch_to_spe(&mut ppe, 0, "x", &[(SPU_EXIT, 0)])
            .is_err());
        assert!(eng.submit_batch_to_spe(&mut ppe, 0, "x", &[]).is_err());
        let _ = SPU_OK;
    }

    #[test]
    fn batching_is_rejected_in_replan_mode() {
        let m = CellMachine::new(MachineConfig::small()).unwrap();
        let mut ppe = m.ppe();
        let mut eng = Engine::new(1).with_mode(FailoverMode::Replan);
        let err = eng
            .submit_batch_to_spe(&mut ppe, 0, "x", &[(1, 0), (1, 1)])
            .unwrap_err();
        assert!(matches!(err, CellError::BadKernelSpec { .. }), "{err}");
    }

    #[test]
    fn span_context_propagates_to_both_sides_of_the_wire() {
        let (_m, mut ppe, op, handles) = adder_machine(1, FaultPlan::new());
        let mut eng = Engine::new(1);
        eng.set_span_context(11).unwrap();
        let t1 = eng.submit_to_spe(&mut ppe, 0, "add", op, 1).unwrap();
        eng.clear_span_context();
        let t2 = eng.submit_to_spe(&mut ppe, 0, "add", op, 2).unwrap();
        assert_eq!(eng.complete(&mut ppe, t1).unwrap(), 8);
        assert_eq!(eng.complete(&mut ppe, t2).unwrap(), 9);
        eng.close(&mut ppe).unwrap();
        let mut reports = Vec::new();
        for h in handles {
            reports.push(h.join().unwrap());
        }
        let trace = ppe.take_trace();
        let dispatch_spans: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Dispatch)
            .map(|e| e.span)
            .collect();
        assert_eq!(dispatch_spans, vec![11, 0]);
        // The PPE's sends for the tagged request carry the id too.
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == EventKind::MailboxSend && e.span == 11));
        // And the SPE-side kernel invocation inherited it over the wire.
        let kernel_spans: Vec<u64> = reports[0]
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Kernel)
            .map(|e| e.span)
            .collect();
        assert_eq!(kernel_spans, vec![11, 0]);
        // Oversized ids are rejected, not truncated.
        assert!(eng.set_span_context(u64::from(u32::MAX) + 1).is_err());
    }

    #[test]
    fn pipelined_lane_beats_send_and_wait_on_virtual_cycles() {
        // The tentpole claim at engine granularity: with the next
        // request already queued in the inbound mailbox, the SPE starts
        // it immediately instead of idling through the PPE's turnaround.
        let n = 16;
        let run = |window: usize| {
            let (_m, mut ppe, op, handles) = adder_machine(1, FaultPlan::new());
            let mut eng = Engine::new(1).with_window(window);
            let mut tickets = VecDeque::new();
            for i in 0..n {
                tickets.push_back(eng.submit_to_spe(&mut ppe, 0, "add", op, i).unwrap());
                // Model per-request PPE-side work (staging the next frame).
                ppe.charge_cycles(20_000);
                while tickets.len() >= window.max(1) {
                    let t = tickets.pop_front().unwrap();
                    eng.complete(&mut ppe, t).unwrap();
                }
            }
            while let Some(t) = tickets.pop_front() {
                eng.complete(&mut ppe, t).unwrap();
            }
            eng.close(&mut ppe).unwrap();
            for h in handles {
                h.join().unwrap();
            }
            ppe.clock.now()
        };
        let serial = run(1);
        let pipelined = run(2);
        assert!(
            pipelined < serial,
            "window=2 ({pipelined} cycles) must beat send-and-wait ({serial} cycles)"
        );
    }
}
