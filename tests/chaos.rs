//! Chaos testing MARVEL's failover layout (`CellMarvel::resilient`):
//! seeded fault plans kill, hang, delay, and mute SPEs mid-run, and the
//! results must stay **byte-identical** to the fault-free run — the
//! kernels are pure, so retry and failover recompute exactly the same
//! feature vectors.

use cell_fault::FaultPlan;
use cell_trace::{Counter, EventKind, TraceConfig, TraceReport};
use marvel::app::{CellMarvel, EXTRACT_KINDS};
use marvel::codec::{encode, Compressed};
use marvel::{ColorImage, ImageAnalysis};

fn tiny_input(seed: u64) -> Compressed {
    encode(&ColorImage::synthetic(48, 32, seed).unwrap(), 90)
}

/// Run `images` through the failover layout with `plan` armed; returns
/// the per-image analyses, the machine-wide trace, and the per-SPE fault
/// strings.
fn chaos_run(
    plan: FaultPlan,
    seed: u64,
    images: &[Compressed],
) -> (Vec<ImageAnalysis>, TraceReport, Vec<Option<String>>, u64) {
    let mut cell = CellMarvel::resilient(true, seed, plan, TraceConfig::Full).unwrap();
    let analyses: Vec<ImageAnalysis> = images
        .iter()
        .map(|input| cell.analyze(input).unwrap())
        .collect();
    let failovers = cell.failovers();
    let (_, reports, trace) = cell.finish_traced().unwrap();
    let faults = reports.into_iter().map(|r| r.fault).collect();
    (analyses, trace, faults, failovers)
}

/// Byte-level equality of two analyses: every feature f32 and every score
/// compared by bit pattern, not tolerance.
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

fn counter_sum(trace: &TraceReport, counter: Counter) -> u64 {
    trace.tracks.iter().map(|t| t.counters.get(counter)).sum()
}

#[test]
fn killing_one_of_eight_spes_mid_pipeline_keeps_results_byte_identical() {
    let images: Vec<Compressed> = (0..2).map(|i| tiny_input(100 + i)).collect();
    let (want, clean_trace, clean_faults, clean_failovers) =
        chaos_run(FaultPlan::new(), 7, &images);
    assert_eq!(clean_failovers, 0);
    assert!(clean_faults.iter().all(Option::is_none));
    assert_eq!(counter_sum(&clean_trace, Counter::FaultsInjected), 0);

    // SPE 1 (CCExtract's home) crashes on its 3rd inbound read — the
    // opcode of the *second* image's dispatch, i.e. mid-pipeline.
    let (got, trace, faults, failovers) = chaos_run(FaultPlan::new().crash_spe(1, 3), 7, &images);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_bit_identical(g, w, &format!("image {i}"));
    }
    assert_eq!(failovers, 1, "one failover re-planned CC onto a survivor");
    assert_eq!(counter_sum(&trace, Counter::FaultsInjected), 1);
    assert_eq!(counter_sum(&trace, Counter::Failovers), 1);
    assert!(
        faults[1].as_deref().unwrap().contains("injected fault"),
        "{:?}",
        faults[1]
    );
    // The PPE track tells the recovery story.
    let ppe = &trace.tracks[0];
    assert!(ppe
        .events
        .iter()
        .any(|e| e.kind == EventKind::Recovery && e.label == "failover"));
    // And the dead SPE's own track records the injected crash.
    assert!(trace
        .tracks
        .iter()
        .any(|t| t.events.iter().any(|e| e.kind == EventKind::Fault)));
}

#[test]
fn dropped_replies_are_retried_without_changing_bytes() {
    let images = vec![tiny_input(200)];
    let (want, _, _, _) = chaos_run(FaultPlan::new(), 8, &images);

    // SPE 4 (ConceptDet's home) silently drops its 2nd reply — the CC
    // detection score word. The stub must time out, re-dispatch, recover.
    let (got, trace, faults, failovers) = chaos_run(FaultPlan::new().drop_reply(4, 2), 8, &images);
    assert_bit_identical(&got[0], &want[0], "dropped-reply run");
    assert_eq!(failovers, 0, "a lost reply is a retry, not a failover");
    assert_eq!(counter_sum(&trace, Counter::FaultsInjected), 1);
    assert!(counter_sum(&trace, Counter::Retries) >= 1);
    assert!(faults.iter().all(Option::is_none), "every SPE survived");
}

#[test]
fn dma_faults_slow_the_run_but_never_corrupt_it() {
    let images = vec![tiny_input(300)];
    let (want, _, _, _) = chaos_run(FaultPlan::new(), 9, &images);

    let plan = FaultPlan::new()
        .delay_dma(2, 1, 200_000) // TX's first header fetch crawls
        .fail_dma(0, 2, 50_000); // CH's second transfer fails + retries
    let (got, trace, faults, failovers) = chaos_run(plan, 9, &images);
    assert_bit_identical(&got[0], &want[0], "dma-fault run");
    assert_eq!(failovers, 0);
    assert_eq!(counter_sum(&trace, Counter::FaultsInjected), 2);
    assert!(faults.iter().all(Option::is_none));
}

#[test]
fn hung_spe_is_abandoned_and_the_pipeline_completes_degraded() {
    let images = vec![tiny_input(400)];
    let (want, _, _, _) = chaos_run(FaultPlan::new(), 10, &images);

    // SPE 0 wedges on its first dispatch; CH must fail over after the
    // retry budget burns out.
    let (got, trace, faults, failovers) = chaos_run(FaultPlan::new().hang_spe(0, 1), 10, &images);
    assert_bit_identical(&got[0], &want[0], "hung-spe run");
    assert_eq!(failovers, 1);
    assert!(counter_sum(&trace, Counter::Failovers) >= 1);
    assert!(
        faults[0].as_deref().unwrap().contains("shut down"),
        "the hung SPE only wakes at machine shutdown: {:?}",
        faults[0]
    );
}

#[test]
fn same_seed_produces_the_same_chaos_and_the_same_bytes() {
    let images = vec![tiny_input(500)];
    let plan_a = FaultPlan::chaos(2007, 8, 3, 12);
    let plan_b = FaultPlan::chaos(2007, 8, 3, 12);
    assert_eq!(plan_a, plan_b, "seeded plans are pure values");

    let (a, trace_a, _, _) = chaos_run(plan_a, 41, &images);
    let (b, trace_b, _, _) = chaos_run(plan_b, 41, &images);
    assert_bit_identical(&a[0], &b[0], "same-seed chaos runs");
    assert_eq!(
        counter_sum(&trace_a, Counter::FaultsInjected),
        counter_sum(&trace_b, Counter::FaultsInjected),
        "the fault schedule itself is deterministic"
    );
    // And chaos never bends the results away from the clean run either.
    let (clean, _, _, _) = chaos_run(FaultPlan::new(), 41, &images);
    assert_bit_identical(&a[0], &clean[0], "chaos vs clean");
}
