//! Lint every shipped port: static analysis over each example's
//! [`cell_lint::PortModel`], happens-before race detection over traced
//! runs (including crash/respawn and blade-failover runs that cross
//! trace-epoch boundaries), and — under `--mc` — exhaustive protocol
//! model checking of every dispatch script composed with the port's
//! supervision machinery. Writes one `lint_<port>.json` (and with
//! `--mc` one `mc_<port>.json`) per port into `target/lint/` and exits
//! nonzero when any Error-severity finding survives or any exploration
//! hits the state cap — which is what the CI `lint` job gates on.

use std::path::PathBuf;
use std::process::ExitCode;

use cell_cluster::{CellCluster, ClusterConfig};
use cell_core::{CellError, CellResult};
use cell_engine::Engine;
use cell_fault::FaultPlan;
use cell_lint::{analyze, check_port, detect_races, LintConfig, LintReport, McConfig, PortModel};
use cell_serve::{generate, CellServer, ServeConfig, WorkloadSpec};
use cell_stencil::grid::Grid;
use cell_stencil::offload::StencilApp;
use cell_trace::TraceConfig;
use marvel::app::{CellMarvel, Scenario};
use marvel::image::ColorImage;

/// Image geometry the lint models assume (CIF frames, like the paper's
/// MARVEL corpus).
const IMG_W: usize = 352;
const IMG_H: usize = 288;

/// One shipped port, ready for both report flavors: the model feeds the
/// static passes and (under `--mc`) the model checker; the report
/// already carries the static findings plus any race findings from the
/// port's traced run.
struct Port {
    model: PortModel,
    report: LintReport,
}

fn ports() -> CellResult<Vec<Port>> {
    let config = LintConfig::new();
    let mut out = Vec::new();

    // --- MARVEL, pipelined scenario: static model + traced run ----------
    let mut app = CellMarvel::with_trace(Scenario::ParallelExtract, true, 7, TraceConfig::Full)?;
    let model = cell_lint::model_marvel(&app, IMG_W, IMG_H)?;
    let mut report = analyze(&model, &config);
    // Drive two frames through the pipeline so the trace has concurrent
    // extraction DMA on every SPE, then race-check it.
    for seed in 0..2u64 {
        let img = ColorImage::synthetic(IMG_W, IMG_H, seed)?;
        app.analyze_decoded(&img)?;
    }
    let (_, _, trace) = app.finish_traced()?;
    report.findings.extend(detect_races(&trace));
    out.push(Port { model, report });

    // --- MARVEL with universal dispatchers (failover port) --------------
    let app = CellMarvel::resilient(true, 7, FaultPlan::new(), TraceConfig::Off)?;
    let model = cell_lint::model_resilient(&app, IMG_W, IMG_H)?;
    let report = analyze(&model, &config);
    out.push(Port { model, report });
    app.finish()?;

    // --- Supervised serving runtime: static model + traced crash run ----
    // The injected fault is a real SPE crash: SPE 1's occupant dies on
    // its fifth dispatch, the supervisor retires the context, re-uploads
    // the dispatcher and probes the respawn back into the schedule. The
    // respawn reopens the slot's mailbox FIFO mid-trace, bumping its
    // generation — exactly the epoch boundary the race detector's
    // per-epoch channel edges exist to absorb.
    let serve_w = 48;
    let serve_h = 32;
    let mut server = CellServer::new(
        ServeConfig {
            seed: 11,
            queue_capacity: 1_024,
            degrade_high: 1_024,
            degrade_critical: 1_024,
            trace: TraceConfig::Full,
            ..ServeConfig::default()
        },
        FaultPlan::new().crash_spe(1, 9),
    )?;
    let model = cell_lint::model_serve(&server, serve_w, serve_h)?;
    let mut report = analyze(&model, &config);
    let requests = generate(&WorkloadSpec {
        requests: 6,
        seed: 11,
        width: serve_w,
        height: serve_h,
        ..WorkloadSpec::default()
    })?;
    server.run(requests)?;
    if server.respawns() == 0 {
        return Err(CellError::BadConfig {
            message: "serve lint run expected a crash + respawn but the fault never fired"
                .to_string(),
        });
    }
    let output = server.finish()?;
    report.findings.extend(detect_races(&output.trace));
    out.push(Port { model, report });

    // --- Stencil, both regimes ------------------------------------------
    let app = StencilApp::new()?;
    let mut resident = cell_lint::model_stencil(&app, 96, 64)?;
    resident.name = "stencil-resident".to_string();
    let report = analyze(&resident, &config);
    out.push(Port {
        model: resident,
        report,
    });
    let mut banded = cell_lint::model_stencil(&app, 512, 256)?;
    banded.name = "stencil-banded".to_string();
    let report = analyze(&banded, &config);
    out.push(Port {
        model: banded,
        report,
    });
    // A real solve keeps the model honest about the machine being usable.
    let mut app = app;
    let grid = Grid::heat_problem(96, 64)?;
    app.solve(&grid, 1)?;
    app.finish()?;

    // --- Image-filter offload example ------------------------------------
    let model = cell_lint::model_image_filter()?;
    let report = analyze(&model, &config);
    out.push(Port { model, report });

    // --- The pipelined offload engine itself ------------------------------
    // Window 2 is the widest the 4-deep inbound mailbox sustains without
    // backpressure (two `(opcode, arg)` pairs); the checker's window
    // sweep also proves width 1 on the way up.
    let engine = Engine::new(1).with_window(2);
    let model = cell_lint::model_engine_pipelined(&engine)?;
    let report = analyze(&model, &config);
    out.push(Port { model, report });

    // --- Multi-blade cluster: static model + traced blade-kill run ------
    // Blade 0 is killed outright on its first operation; the router
    // fails its backlog over to blade 1, respawns a fresh machine and
    // rejoins it to the ring. The combined trace then carries two
    // blade-0 machine generations whose clocks are unrelated — distinct
    // epoch domains the race check must not order against each other.
    let cluster_w = 24;
    let cluster_h = 24;
    let mut cluster = CellCluster::new(
        ClusterConfig {
            blades: 2,
            cache: true,
            blade_breaker_threshold: 2,
            trace: TraceConfig::Full,
            serve: ServeConfig {
                seed: 7,
                queue_capacity: 1_024,
                degrade_high: 1_024,
                degrade_critical: 1_024,
                trace: TraceConfig::Full,
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        },
        &FaultPlan::new().crash_blade(0, 1),
    )?;
    let model = cell_lint::model_cluster(&cluster, cluster_w, cluster_h)?;
    let mut report = analyze(&model, &config);
    let requests = generate(&WorkloadSpec {
        requests: 16,
        seed: 7,
        mean_gap: 2_000_000,
        deadline: 100_000_000_000,
        width: cluster_w,
        height: cluster_h,
        burst: None,
    })?;
    cluster.run(requests)?;
    if cluster.blade_respawns() == 0 {
        return Err(CellError::BadConfig {
            message: "cluster lint run expected a blade kill + respawn but none happened"
                .to_string(),
        });
    }
    let output = cluster.finish()?;
    report.findings.extend(detect_races(&output.trace));
    out.push(Port { model, report });

    Ok(out)
}

fn main() -> ExitCode {
    let mc_mode = std::env::args().any(|a| a == "--mc");
    let ports = match ports() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cell-lint: failed to build port models: {e}");
            return ExitCode::FAILURE;
        }
    };

    let dir = PathBuf::from("target/lint");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cell-lint: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut errors = 0usize;
    for port in &ports {
        print!("{}", port.report.render());
        let path = dir.join(format!("lint_{}.json", port.report.port));
        if let Err(e) = std::fs::write(&path, port.report.to_json()) {
            eprintln!("cell-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  report: {}", path.display());
        errors += port.report.error_count();
    }

    if mc_mode {
        let cfg = McConfig::default();
        for port in &ports {
            let mc = check_port(&port.model, &cfg);
            print!("{}", mc.render());
            let path = dir.join(format!("mc_{}.json", mc.port));
            if let Err(e) = std::fs::write(&path, mc.to_json()) {
                eprintln!("cell-lint: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("  report: {}", path.display());
            errors += mc.error_count();
            // An exploration that hit the cap proved nothing about the
            // states beyond it; an incomplete verdict must not pass CI.
            if mc.has("mc-state-cap") {
                eprintln!(
                    "cell-lint: {}: exploration hit the {}-state cap; verdict incomplete",
                    mc.port, cfg.max_states
                );
                errors += 1;
            }
        }
    }

    if errors > 0 {
        eprintln!("cell-lint: {errors} error-severity finding(s)");
        return ExitCode::FAILURE;
    }
    println!(
        "cell-lint: clean ({} ports{})",
        ports.len(),
        if mc_mode { ", mc verified" } else { "" }
    );
    ExitCode::SUCCESS
}
