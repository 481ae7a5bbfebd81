//! Negative fixtures for the `cell-lint` protocol model checker: each
//! seeded protocol defect must produce its specific stable rule id with
//! a counterexample path, and every shipped port model must explore
//! clean — deadlock-free at every window width, with all declared
//! recovery transitions reachable — well inside the state cap.

use cell_fault::FaultPlan;
use cell_lint::{
    check_port, DispatchScript, DmaPlan, KernelModel, McConfig, PortModel, ScriptOp,
    SupervisionModel,
};
use cell_serve::{CellServer, ServeConfig};
use cell_trace::TraceConfig;
use portkit::opcodes::run_opcode;

/// A minimal, clean one-kernel port the fixtures perturb one axis at a
/// time; the default roundtrip conversation explores deadlock-free.
fn base_model() -> PortModel {
    PortModel {
        name: "mc-fixture".to_string(),
        num_spes: 1,
        ls_capacity: 256 * 1024,
        kernels: vec![KernelModel {
            name: "k".to_string(),
            spe: 0,
            opcodes: vec![("f".to_string(), run_opcode(0))],
            wrapper: None,
            code_bytes: 16 * 1024,
            plans: vec![DmaPlan::Single { bytes: 4 * 1024 }],
        }],
        schedule: None,
        kernel_specs: Vec::new(),
        scripts: vec![PortModel::roundtrip_script(0, run_opcode(0))],
        supervision: None,
    }
}

#[test]
fn base_fixture_explores_clean() {
    let report = check_port(&base_model(), &McConfig::default());
    assert_eq!(report.error_count(), 0, "{}", report.render());
}

/// Window 5 needs ten mailbox words in flight; the 4-deep inbound box
/// plus the one-deep outbox sustain at most four dispatches, so the
/// blocking send-ahead pump wedges with both sides blocked — the checker
/// must find the deadlock and prove the narrower widths on the way up.
#[test]
fn window_past_mailbox_depth_deadlocks() {
    let mut m = base_model();
    m.scripts = vec![PortModel::engine_script(0, run_opcode(0), 6, 5)];
    let report = check_port(&m, &McConfig::default());
    assert!(report.has("mc-deadlock"), "{}", report.render());
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "mc-deadlock")
        .unwrap();
    assert!(
        f.message.contains("counterexample:"),
        "deadlock finding must carry a counterexample path: {}",
        f.message
    );
}

/// A conversation that never sends `SPU_EXIT` leaves the Listing-3
/// dispatcher loop spinning on its mailbox forever after the script
/// retires its last op: livelock, not deadlock — the PPE is done, the
/// SPE is not.
#[test]
fn missing_exit_is_a_livelock() {
    let mut m = base_model();
    m.scripts = vec![DispatchScript {
        kernel: 0,
        window: 1,
        ops: vec![
            ScriptOp::Send {
                opcode: run_opcode(0),
            },
            ScriptOp::WaitReply,
        ],
    }];
    let report = check_port(&m, &McConfig::default());
    assert!(report.has("mc-livelock-no-exit"), "{}", report.render());
    assert!(!report.has("mc-deadlock"), "{}", report.render());
}

/// A breaker with threshold 1, no cooldown and no failover declared:
/// the first detected fault opens it and nothing can ever half-open or
/// fail over — the supervisor parks in Open with the request undelivered.
#[test]
fn breaker_without_cooldown_or_failover_sticks_open() {
    let mut m = base_model();
    m.supervision = Some(SupervisionModel {
        breaker_threshold: 1,
        breaker_cooldown: None,
        watchdog: true,
        respawn: true,
        timeout: true,
        failover: false,
    });
    let report = check_port(&m, &McConfig::default());
    assert!(report.has("mc-breaker-stuck"), "{}", report.render());
}

/// Retire closes the slot's fabric; dispatching again without
/// `UploadCode` sends into a bare context that swallows the words — the
/// following `WaitReply` waits on a wakeup that can never arrive.
#[test]
fn respawn_without_upload_loses_the_wakeup() {
    let op = run_opcode(0);
    let mut m = base_model();
    m.scripts = vec![DispatchScript {
        kernel: 0,
        window: 1,
        ops: vec![
            ScriptOp::Send { opcode: op },
            ScriptOp::WaitReply,
            ScriptOp::Retire,
            ScriptOp::Send { opcode: op },
            ScriptOp::WaitReply,
            ScriptOp::Close,
        ],
    }];
    let report = check_port(&m, &McConfig::default());
    assert!(report.has("mc-lost-wakeup"), "{}", report.render());
}

/// Every shipped port model must explore deadlock-free, with every
/// declared recovery transition reachable, and stay far enough under
/// the state cap that the verdict is a proof rather than a sample.
#[test]
fn shipped_port_models_are_deadlock_free() {
    let cfg = McConfig::default();
    let mut models = Vec::new();

    let app =
        marvel::app::CellMarvel::new(marvel::app::Scenario::ParallelExtract, true, 7).unwrap();
    models.push(cell_lint::model_marvel(&app, 64, 48).unwrap());
    app.finish().unwrap();

    let app =
        marvel::app::CellMarvel::resilient(true, 7, FaultPlan::new(), TraceConfig::Off).unwrap();
    models.push(cell_lint::model_resilient(&app, 64, 48).unwrap());
    app.finish().unwrap();

    let server = CellServer::new(ServeConfig::default(), FaultPlan::new()).unwrap();
    models.push(cell_lint::model_serve(&server, 48, 32).unwrap());
    server.finish().unwrap();

    let app = cell_stencil::offload::StencilApp::new().unwrap();
    models.push(cell_lint::model_stencil(&app, 96, 64).unwrap());
    models.push(cell_lint::model_stencil(&app, 512, 256).unwrap());
    app.finish().unwrap();

    models.push(cell_lint::model_image_filter().unwrap());

    let engine = cell_engine::Engine::new(1).with_window(2);
    models.push(cell_lint::model_engine_pipelined(&engine).unwrap());
    drop(engine);

    let cluster = cell_cluster::CellCluster::new(
        cell_cluster::ClusterConfig {
            blades: 2,
            trace: TraceConfig::Off,
            ..cell_cluster::ClusterConfig::default()
        },
        &FaultPlan::new(),
    )
    .unwrap();
    models.push(cell_lint::model_cluster(&cluster, 24, 24).unwrap());
    cluster.finish().unwrap();

    for model in &models {
        let report = check_port(model, &cfg);
        assert_eq!(
            report.error_count(),
            0,
            "{}: {}",
            model.name,
            report.render()
        );
        assert!(!report.has("mc-state-cap"), "{}", report.render());
        assert!(
            !report.has("mc-unreachable-recovery"),
            "{}",
            report.render()
        );
        // The verdicts are exhaustive proofs only because the product
        // state space stays small; keep a wide margin under the cap so
        // model growth shows up as a test failure before CI flakiness.
        assert!(
            report.stats.states < 200_000,
            "{}: {} states is uncomfortably close to the {}-state cap",
            model.name,
            report.stats.states,
            cfg.max_states
        );
    }
}

/// An exploration that hits the state cap must say so — an incomplete
/// verdict reported as clean would be worse than no checker at all.
#[test]
fn state_cap_yields_an_incomplete_verdict_warning() {
    let m = base_model();
    let report = check_port(
        &m,
        &McConfig {
            max_states: 4,
            max_path: 40,
        },
    );
    assert!(report.has("mc-state-cap"), "{}", report.render());
}
