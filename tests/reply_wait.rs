//! The one reply wait with a deadline (`portkit::recovery::await_reply`)
//! times out only an *idle* SPE — one parked on its empty inbound
//! mailbox, which cannot reply without new input. A kernel whose host
//! thread is merely slow (a loaded host, an unoptimized build) is waited
//! for, through every path that waits against a deadline. The wait is
//! timed by stamps, not by host polls: how long the host takes to deliver
//! a reply, a death or a silence never moves the PPE clock.

use std::time::Duration;

use cell_core::{CellError, MachineConfig};
use cell_engine::{Engine, FailoverMode, RecoveryKind};
use cell_fault::FaultPlan;
use cell_sys::machine::CellMachine;
use cell_sys::spe::SpeEnv;
use cell_trace::{Counter, TraceConfig};
use portkit::dispatcher::KernelDispatcher;
use portkit::interface::{ReplyMode, SpeInterface};
use portkit::recovery::RetryPolicy;
use portkit::schedule::Schedule;

#[test]
fn slow_host_thread_is_waited_for_not_timed_out() {
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    m.set_trace_config(TraceConfig::Counters);
    let mut ppe = m.ppe();
    let mut d = KernelDispatcher::new("slow", ReplyMode::Polling);
    let op = d.register("slow_add", |env, v| {
        // Host time only: the virtual clock sees one scalar op. The wait
        // is timed by the reply's stamp, so the 10k-cycle deadline never
        // runs out while the SPE computes, however long that takes.
        std::thread::sleep(Duration::from_millis(150));
        env.spu.scalar_op(1);
        Ok(v + 7)
    });
    let h = m.spawn(0, Box::new(d)).unwrap();
    let policy = RetryPolicy {
        timeout_cycles: 10_000,
        ..RetryPolicy::default()
    };

    let mut eng = Engine::new(1)
        .with_mode(FailoverMode::Replan)
        .with_policy(policy);
    let t = eng.submit_to_spe(&mut ppe, 0, "slow_add", op, 1).unwrap();
    assert_eq!(eng.complete(&mut ppe, t).unwrap(), 8);
    assert_eq!(eng.probe(&mut ppe, 0, "probe", op, 2, &policy).unwrap(), 9);
    assert!(
        eng.recovery_log().is_empty(),
        "a busy SPE must not be retried or failed over: {:?}",
        eng.recovery_log()
    );

    let mut stub = SpeInterface::new("slow", 0, ReplyMode::Polling);
    stub.send(&mut ppe, op, 3).unwrap();
    assert_eq!(stub.wait_for(&mut ppe, &policy).unwrap(), 10);

    stub.close(&mut ppe).unwrap();
    assert!(h.join().unwrap().fault.is_none());
    let trace = ppe.take_trace();
    assert_eq!(trace.counters.get(Counter::Retries), 0);
    assert_eq!(trace.counters.get(Counter::Dispatches), 3);
}

/// A program that stops while a request is in flight — by a panic in a
/// kernel body or by returning without a reply — can never answer it. Its
/// mailboxes close as its thread exits, so every deadline wait sees a dead
/// SPE at once instead of waiting forever on a thread that is gone.
#[test]
fn stopped_program_is_dead_not_waited_for() {
    fn dispatcher(panics: bool) -> (KernelDispatcher, u32) {
        let mut d = KernelDispatcher::new("adder", ReplyMode::Polling);
        let op = d.register("add_seven", move |env, v| {
            assert!(!panics, "kernel bug");
            env.spu.scalar_op(1);
            Ok(v + 7)
        });
        (d, op)
    }
    let policy = RetryPolicy::default();

    // Engine lane in Replan mode: the panic fails the lane over and the
    // request re-routes to the survivor.
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mut ppe = m.ppe();
    let (bad, op) = dispatcher(true);
    let (good, _) = dispatcher(false);
    let h_bad = m.spawn(0, Box::new(bad)).unwrap();
    let h_good = m.spawn(1, Box::new(good)).unwrap();
    let mut eng = Engine::new(2)
        .with_schedule(Schedule::grouped(vec![vec![0], vec![1]], 2).unwrap())
        .with_mode(FailoverMode::Replan)
        .with_policy(policy);
    let t = eng.submit(&mut ppe, 0, "add", op, 1).unwrap();
    assert_eq!(eng.complete(&mut ppe, t).unwrap(), 8);
    let kinds: Vec<RecoveryKind> = eng.recovery_log().iter().map(|e| e.kind).collect();
    assert_eq!(kinds, [RecoveryKind::Failover]);
    assert_eq!(eng.spe_of(0).unwrap(), 1, "slot 0 re-planned onto SPE 1");
    eng.close(&mut ppe).unwrap();
    assert!(h_bad.join().is_err(), "the panic surfaces at join");
    h_good.join().unwrap();

    // Engine probe and the stub's `wait_for`: a panicked kernel and a
    // program that returns after reading its request both read as dead.
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mut ppe = m.ppe();
    let (bad, op) = dispatcher(true);
    let h_bad = m.spawn(0, Box::new(bad)).unwrap();
    let h_quit = m
        .spawn(
            1,
            Box::new(|env: &mut SpeEnv| {
                env.read_in_mbox()?;
                env.read_in_mbox()?;
                Ok(())
            }),
        )
        .unwrap();
    let mut eng = Engine::new(2).with_mode(FailoverMode::Replan);
    let err = eng.probe(&mut ppe, 0, "probe", op, 1, &policy).unwrap_err();
    assert!(matches!(err, CellError::SpeFault { spe: 0, .. }), "{err}");
    let mut stub = SpeInterface::new("quits", 1, ReplyMode::Polling);
    stub.send(&mut ppe, op, 2).unwrap();
    let err = stub.wait_for(&mut ppe, &policy).unwrap_err();
    assert!(matches!(err, CellError::SpeFault { spe: 1, .. }), "{err}");
    assert!(h_bad.join().is_err());
    h_quit.join().unwrap();
}

/// A one-kernel dispatcher whose kernel sleeps `sleep_ms` of host time,
/// then adds seven (or panics, for `panics`). Nothing but the sleep
/// differs between two runs, and the sleep is invisible to virtual time.
fn sleepy_adder(sleep_ms: u64, panics: bool) -> (KernelDispatcher, u32) {
    let mut d = KernelDispatcher::new("sleepy", ReplyMode::Polling);
    let op = d.register("add_seven", move |env, v| {
        std::thread::sleep(Duration::from_millis(sleep_ms));
        assert!(!panics, "kernel bug");
        env.spu.scalar_op(1);
        Ok(v + 7)
    });
    (d, op)
}

/// Six fault-free requests on a one-SPE lane with no DMA: the PPE clock
/// at the end of the run.
fn six_request_clock(mode: FailoverMode, sleep_ms: u64) -> u64 {
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mut ppe = m.ppe();
    let (d, op) = sleepy_adder(sleep_ms, false);
    let h = m.spawn(0, Box::new(d)).unwrap();
    let mut eng = Engine::new(1).with_mode(mode);
    for i in 0..6 {
        let t = eng.submit_to_spe(&mut ppe, 0, "add", op, i).unwrap();
        assert_eq!(eng.complete(&mut ppe, t).unwrap(), i + 7);
    }
    assert!(eng.recovery_log().is_empty(), "{:?}", eng.recovery_log());
    eng.close(&mut ppe).unwrap();
    h.join().unwrap();
    ppe.clock.now()
}

#[test]
fn fault_free_replan_lane_ends_on_the_fail_lane_clock() {
    let fail = six_request_clock(FailoverMode::Fail, 0);
    assert_eq!(six_request_clock(FailoverMode::Fail, 15), fail);
    for sleep_ms in [0, 15] {
        assert_eq!(
            six_request_clock(FailoverMode::Replan, sleep_ms),
            fail,
            "Replan lane with a {sleep_ms} ms host sleep"
        );
    }
}

/// A kernel on SPE 0 panics after its host sleep; the request fails over
/// to SPE 1. Returns the failover's `at` and the PPE clock at the end.
fn dead_spe_failover(sleep_ms: u64) -> (u64, u64) {
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    let mut ppe = m.ppe();
    let (bad, op) = sleepy_adder(sleep_ms, true);
    let (good, _) = sleepy_adder(0, false);
    let h_bad = m.spawn(0, Box::new(bad)).unwrap();
    let h_good = m.spawn(1, Box::new(good)).unwrap();
    let mut eng = Engine::new(2)
        .with_schedule(Schedule::grouped(vec![vec![0], vec![1]], 2).unwrap())
        .with_mode(FailoverMode::Replan);
    let t = eng.submit(&mut ppe, 0, "add", op, 1).unwrap();
    assert_eq!(eng.complete(&mut ppe, t).unwrap(), 8);
    let log = eng.recovery_log().to_vec();
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!((log[0].kind, log[0].spe), (RecoveryKind::Failover, 0));
    let end = ppe.clock.now();
    eng.close(&mut ppe).unwrap();
    assert!(h_bad.join().is_err(), "the panic surfaces at join");
    h_good.join().unwrap();
    (log[0].at, end)
}

#[test]
fn dead_spe_costs_the_wait_nothing() {
    let quick = dead_spe_failover(0);
    // The failover fires right after the two 50-cycle sends.
    assert_eq!(quick.0, 2 * 50);
    assert_eq!(dead_spe_failover(15), quick);
}

/// The second reply from SPE 0 is dropped; the lane times out and retries
/// in place. Returns the retry's `at` and the PPE clock at the end.
fn dropped_reply_retry(sleep_ms: u64) -> (u64, u64) {
    let mut m = CellMachine::new(MachineConfig::small()).unwrap();
    m.set_fault_plan(FaultPlan::new().drop_reply(0, 2));
    let mut ppe = m.ppe();
    let (d, op) = sleepy_adder(sleep_ms, false);
    let h = m.spawn(0, Box::new(d)).unwrap();
    let mut eng = Engine::new(1)
        .with_mode(FailoverMode::Replan)
        .with_policy(RetryPolicy {
            timeout_cycles: 300_000,
            ..RetryPolicy::default()
        });
    let t = eng.submit_to_spe(&mut ppe, 0, "add", op, 1).unwrap();
    assert_eq!(eng.complete(&mut ppe, t).unwrap(), 8);
    let first = ppe.clock.now();
    let t = eng.submit_to_spe(&mut ppe, 0, "add", op, 2).unwrap();
    assert_eq!(eng.complete(&mut ppe, t).unwrap(), 9);
    let log = eng.recovery_log().to_vec();
    assert_eq!(log.len(), 1, "{log:?}");
    assert_eq!(log[0].kind, RecoveryKind::Retry);
    // The silent SPE costs the deadline (1,500 polls of 200 cycles)
    // after the two 50-cycle sends, and not a cycle more.
    assert_eq!(log[0].at, first + 2 * 50 + 300_000);
    let end = ppe.clock.now();
    eng.close(&mut ppe).unwrap();
    h.join().unwrap();
    (log[0].at, end)
}

#[test]
fn timed_out_reply_is_retried_at_the_same_cycle_however_slow_the_host() {
    let quick = dropped_reply_retry(0);
    assert_eq!(dropped_reply_retry(15), quick);
}
