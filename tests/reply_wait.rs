//! The one reply wait with a deadline (`portkit::recovery::await_reply`)
//! times out only an *idle* SPE — one parked on its empty inbound
//! mailbox, which cannot reply without new input. A kernel whose host
//! thread is merely slow (a loaded host, an unoptimized build) is waited
//! for, through every path that waits against a deadline.

use std::time::Duration;

use cell_core::{CellError, MachineConfig};
use cell_engine::{Engine, FailoverMode, RecoveryKind};
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
        // Host time only: the virtual clock sees one scalar op, so the
        // PPE burns its whole 10k-cycle deadline long before the reply.
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
