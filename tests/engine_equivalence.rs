//! Engine-equivalence suite: every PPE driver sits on the shared
//! `cell-engine` offload executor, and this file pins that contract for
//! the MARVEL driver (every scenario, both layouts, both batch paths) and
//! the serving runtime. Every run must reproduce the host reference
//! model's feature vectors byte for byte, and every ported run must be
//! **bit-identical** to every other, under no faults and under seeded
//! chaos. MARVEL's failover layout and the serving runtime must also take
//! the **same recovery decisions** for the same seed and fault plan (they
//! used to diverge in timeout/drain handling; the engine is the single
//! implementation now).

use cell_engine::{RecoveryEvent, RecoveryKind};
use cell_fault::FaultPlan;
use cell_serve::server::{CellServer, Outcome, Request, ServeConfig};
use cell_trace::TraceConfig;
use marvel::app::{CellMarvel, ReferenceMarvel, Scenario, EXTRACT_KINDS};
use marvel::codec::{decode, encode, Compressed};
use marvel::{ColorImage, ImageAnalysis};
use portkit::recovery::RetryPolicy;

fn tiny_input(seed: u64) -> Compressed {
    encode(&ColorImage::synthetic(48, 32, seed).unwrap(), 90)
}

/// Full bit-identity between two *ported* runs: every feature f32 and
/// every score compared by bit pattern. Any two drivers on the engine
/// run the same kernel bodies on the same bytes, so nothing may differ.
fn assert_bit_identical(got: &ImageAnalysis, want: &ImageAnalysis, context: &str) {
    for kind in EXTRACT_KINDS {
        let (g, w) = (got.feature(kind), want.feature(kind));
        assert_eq!(g.len(), w.len(), "{context}: {} dim", kind.name());
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: {}[{i}] {a} vs {b}",
                kind.name()
            );
        }
        assert_eq!(
            got.score(kind).to_bits(),
            want.score(kind).to_bits(),
            "{context}: {} score",
            kind.name()
        );
    }
}

/// A ported run against the host reference: feature vectors must be
/// bit-identical; detection scores get the repo's 1e-3 relative bound
/// (the optimized SVM kernel reorders float accumulation).
fn assert_matches_reference(got: &ImageAnalysis, want: &ImageAnalysis, context: &str) {
    for kind in EXTRACT_KINDS {
        let (g, w) = (got.feature(kind), want.feature(kind));
        assert_eq!(g.len(), w.len(), "{context}: {} dim", kind.name());
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: {}[{i}] {a} vs {b}",
                kind.name()
            );
        }
        let (gs, ws) = (got.score(kind), want.score(kind));
        assert!(
            (gs - ws).abs() < 1e-3 * ws.abs().max(1.0),
            "{context}: {} score {gs} vs {ws}",
            kind.name()
        );
    }
}

/// The decision fields that must be reproducible: `at` carries PPE poll
/// jitter between runs, so it is deliberately excluded.
fn decisions(log: &[RecoveryEvent]) -> Vec<(RecoveryKind, usize, &'static str)> {
    log.iter().map(|e| (e.kind, e.spe, e.kernel)).collect()
}

// ---------------------------------------------------------------------
// Byte-identity of every driver against the host reference
// ---------------------------------------------------------------------

#[test]
fn baseline_driver_on_the_engine_matches_the_reference_bytes() {
    let inputs: Vec<Compressed> = (0..3).map(|i| tiny_input(900 + i)).collect();
    let mut reference = ReferenceMarvel::new(7);
    let want: Vec<ImageAnalysis> = inputs
        .iter()
        .map(|input| reference.analyze(input).unwrap())
        .collect();

    // Per-image scenario-2 dispatch must reproduce the reference; every
    // other scenario, the failover layout, and the pipelined + batched
    // engine path must be bit-identical to it.
    let mut cell = CellMarvel::new(Scenario::ParallelExtract, true, 7).unwrap();
    let baseline: Vec<ImageAnalysis> = inputs
        .iter()
        .map(|input| cell.analyze(input).unwrap())
        .collect();
    for (i, got) in baseline.iter().enumerate() {
        assert_matches_reference(got, &want[i], &format!("per-image {i}"));
    }
    cell.finish().unwrap();

    // `None` is the fault-free failover layout.
    for scenario in [
        Some(Scenario::Sequential),
        Some(Scenario::ParallelReplicated),
        None,
    ] {
        let mut cell = match scenario {
            Some(scenario) => CellMarvel::new(scenario, true, 7),
            None => CellMarvel::resilient(true, 7, FaultPlan::new(), TraceConfig::Off),
        }
        .unwrap();
        let context = scenario.map_or_else(|| "failover layout".to_string(), |s| format!("{s:?}"));
        for (i, input) in inputs.iter().enumerate() {
            let got = cell.analyze(input).unwrap();
            assert_bit_identical(&got, &baseline[i], &format!("{context} {i}"));
        }
        cell.finish().unwrap();
    }

    let mut cell = CellMarvel::new(Scenario::ParallelExtract, true, 7).unwrap();
    let got = cell.analyze_batch_engine(&inputs).unwrap();
    for (i, g) in got.iter().enumerate() {
        assert_bit_identical(g, &baseline[i], &format!("pipelined {i}"));
    }
    cell.finish().unwrap();
}

#[test]
fn resilient_driver_matches_the_reference_under_no_fault_and_chaos() {
    let inputs: Vec<Compressed> = (0..2).map(|i| tiny_input(910 + i)).collect();
    let mut reference = ReferenceMarvel::new(11);
    let want: Vec<ImageAnalysis> = inputs
        .iter()
        .map(|input| reference.analyze(input).unwrap())
        .collect();

    // The fault-free failover run doubles as the ported baseline for
    // bit-level comparison: the faulty runs must not move a single bit.
    let mut clean = CellMarvel::resilient(true, 11, FaultPlan::new(), TraceConfig::Off).unwrap();
    let baseline: Vec<ImageAnalysis> = inputs
        .iter()
        .map(|input| clean.analyze(input).unwrap())
        .collect();
    for (i, got) in baseline.iter().enumerate() {
        assert_matches_reference(got, &want[i], &format!("no-fault image {i}"));
    }
    clean.finish().unwrap();

    for (context, plan) in [
        ("crash", FaultPlan::new().crash_spe(1, 3)),
        ("chaos", FaultPlan::chaos(2007, 8, 3, 12)),
    ] {
        let mut cell = CellMarvel::resilient(true, 11, plan, TraceConfig::Off).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            let got = cell.analyze(input).unwrap();
            assert_bit_identical(&got, &baseline[i], &format!("{context} image {i}"));
        }
        cell.finish().unwrap();
    }
}

#[test]
fn serving_driver_matches_the_reference_under_no_fault_and_chaos() {
    let seed = 13;
    let inputs: Vec<Compressed> = (0..2).map(|i| tiny_input(920 + i)).collect();
    let mut reference = ReferenceMarvel::new(seed);
    let want: Vec<ImageAnalysis> = inputs
        .iter()
        .map(|input| reference.analyze(input).unwrap())
        .collect();

    // The failover layout is the ported baseline: same universal
    // dispatcher kernels, same models, same decoded bytes — the served
    // responses must be bit-identical to it.
    let mut resilient =
        CellMarvel::resilient(true, seed, FaultPlan::new(), TraceConfig::Off).unwrap();
    let baseline: Vec<ImageAnalysis> = inputs
        .iter()
        .map(|input| resilient.analyze(input).unwrap())
        .collect();
    for (i, got) in baseline.iter().enumerate() {
        assert_matches_reference(got, &want[i], &format!("baseline image {i}"));
    }
    resilient.finish().unwrap();

    for (context, plan) in [
        ("no-fault", FaultPlan::new()),
        ("crash", FaultPlan::new().crash_spe(1, 3)),
    ] {
        let cfg = ServeConfig {
            seed,
            queue_capacity: 1_024,
            degrade_high: 1_024,
            degrade_critical: 1_024,
            ..ServeConfig::default()
        };
        let requests: Vec<Request> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| Request {
                id: i as u64,
                arrival: 0,
                deadline: u64::MAX,
                image: decode(input).unwrap(),
            })
            .collect();
        let mut server = CellServer::new(cfg, plan).unwrap();
        server.run(requests).unwrap();
        let output = server.finish().unwrap();
        assert_eq!(output.report.served, inputs.len() as u64, "{context}");
        for outcome in &output.report.outcomes {
            let Outcome::Served(response) = outcome else {
                panic!("{context}: request shed");
            };
            let reference = &baseline[response.id as usize];
            assert_eq!(response.features.len(), 4, "{context}: full service");
            for (kind, feature) in &response.features {
                let w = reference.feature(*kind);
                assert_eq!(feature.len(), w.len(), "{context}: {}", kind.name());
                for (i, (a, b)) in feature.iter().zip(w).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{context}: {}[{i}]", kind.name());
                }
            }
            for (kind, score) in &response.scores {
                assert_eq!(
                    score.to_bits(),
                    reference.score(*kind).to_bits(),
                    "{context}: {} score",
                    kind.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Divergence regression: same seed + plan → same recovery decisions
// ---------------------------------------------------------------------

/// The failover layout's decision stream for `plan` over two images.
fn resilient_decisions(plan: FaultPlan) -> Vec<(RecoveryKind, usize, &'static str)> {
    let inputs: Vec<Compressed> = (0..2).map(|i| tiny_input(930 + i)).collect();
    let mut cell = CellMarvel::resilient(true, 17, plan, TraceConfig::Off).unwrap();
    for input in &inputs {
        cell.analyze(input).unwrap();
    }
    let log = decisions(cell.recovery_log());
    cell.finish().unwrap();
    log
}

/// The serving driver's decision stream for `plan` over two requests.
/// The breaker trips on the first failure and never cools down, so no
/// respawn re-arms the fault line mid-comparison.
fn serve_decisions(plan: FaultPlan) -> Vec<(RecoveryKind, usize, &'static str)> {
    let inputs: Vec<Compressed> = (0..2).map(|i| tiny_input(930 + i)).collect();
    let cfg = ServeConfig {
        seed: 17,
        queue_capacity: 1_024,
        degrade_high: 1_024,
        degrade_critical: 1_024,
        breaker_threshold: 1,
        breaker_cooldown: u64::MAX,
        ..ServeConfig::default()
    };
    let requests: Vec<Request> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Request {
            id: i as u64,
            arrival: 0,
            deadline: u64::MAX,
            image: decode(input).unwrap(),
        })
        .collect();
    let mut server = CellServer::new(cfg, plan).unwrap();
    server.run(requests).unwrap();
    let log = decisions(server.recovery_log());
    let output = server.finish().unwrap();
    assert_eq!(output.report.served, 2, "both requests must be served");
    log
}

#[test]
fn resilient_and_serve_take_identical_recovery_decisions() {
    // A mid-pipeline crash (SPE 1's third inbound word is the second
    // image's CC dispatch) and a dropped detection reply: the two fault
    // classes whose handling used to diverge between the drivers.
    for (context, plan) in [
        ("crash", FaultPlan::new().crash_spe(1, 3)),
        ("dropped reply", FaultPlan::new().drop_reply(4, 2)),
    ] {
        let resilient = resilient_decisions(plan.clone());
        let serve = serve_decisions(plan);
        assert!(!resilient.is_empty(), "{context}: the fault must surface");
        assert_eq!(
            resilient, serve,
            "{context}: the two drivers diverged on recovery decisions"
        );
    }
}

#[test]
fn recovery_decisions_are_deterministic_per_seed_and_plan() {
    let plan = FaultPlan::new().crash_spe(1, 3).drop_reply(4, 2);
    let a = resilient_decisions(plan.clone());
    let b = resilient_decisions(plan.clone());
    assert_eq!(a, b, "same seed + plan must replay the same decisions");
    assert!(a.iter().any(|(k, _, _)| *k == RecoveryKind::Failover));
    assert!(a.iter().any(|(k, _, _)| *k == RecoveryKind::Retry));

    let c = serve_decisions(plan.clone());
    let d = serve_decisions(plan);
    assert_eq!(c, d, "serving runtime must replay the same decisions too");
}

#[test]
fn shortened_timeouts_do_not_change_the_decision_stream_shape() {
    // A tighter policy reaches the same verdicts faster: the decision
    // *sequence* is a property of the plan, not of the deadline length.
    let plan = FaultPlan::new().drop_reply(4, 2);
    let inputs: Vec<Compressed> = (0..2).map(|i| tiny_input(930 + i)).collect();
    let mut cell = CellMarvel::resilient(true, 17, plan, TraceConfig::Off).unwrap();
    cell.set_policy(RetryPolicy {
        timeout_cycles: 400_000,
        ..RetryPolicy::default()
    });
    for input in &inputs {
        cell.analyze(input).unwrap();
    }
    let fast = decisions(cell.recovery_log());
    cell.finish().unwrap();
    assert_eq!(fast, resilient_decisions(FaultPlan::new().drop_reply(4, 2)));
}
