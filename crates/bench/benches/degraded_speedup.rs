//! Degraded-mode speed-up — what the resilience layer costs and saves.
//!
//! Prints the measured virtual time and the recomputed Eq. 3 estimate as
//! SPEs are retired (8 → 7 → 4 survivors), then benches a full resilient
//! application round per survivor count — the end-to-end host cost of
//! running with failover re-planning in the loop.

use cell_bench::harness::Criterion;
use cell_bench::{criterion_group, criterion_main, small_workload, SEED};
use cell_fault::FaultPlan;
use cell_trace::TraceConfig;
use marvel::app::CellMarvel;

/// Crash every SPE in `retired` on its first dispatched op. Only SPEs
/// that actually receive work die, so the retire set must name home SPEs
/// of scheduled kernels (0..=4 under the grouped schedule).
fn retire(retired: &[usize]) -> FaultPlan {
    retired
        .iter()
        .fold(FaultPlan::new(), |p, &s| p.crash_spe(s, 1))
}

/// (label, SPEs to kill): 8, 7 and 4 survivors out of 8.
const SCENARIOS: [(&str, &[usize]); 3] =
    [("8_spes", &[]), ("7_spes", &[1]), ("4_spes", &[1, 2, 3, 4])];

fn print_degraded() {
    println!("\nDegraded-mode runs (2 images, 96x64), survivors out of 8:");
    let inputs = small_workload(2, 96, 64);
    let mut full_run = None;
    for (label, retired) in SCENARIOS {
        let mut cell =
            CellMarvel::resilient(true, SEED, retire(retired), TraceConfig::Off).expect("spawn");
        for input in &inputs {
            cell.analyze(input).expect("analyze");
        }
        let survivors = cell.survivors();
        let failovers = cell.failovers();
        let estimate = cell.degraded_estimate().expect("estimate");
        let (elapsed, _reports) = cell.finish().expect("finish");
        let full = *full_run.get_or_insert(elapsed);
        println!(
            "  {label}: survivors {survivors}/8, {failovers} failovers, \
             {:.3} ms virtual ({:.2}x the 8-SPE run), Eq. 3 estimate {estimate:.2}x vs Desktop",
            elapsed.millis(),
            elapsed.seconds() / full.seconds(),
        );
    }
    println!();
}

fn bench_degraded(c: &mut Criterion) {
    print_degraded();
    let inputs = small_workload(1, 96, 64);

    let mut g = c.benchmark_group("degraded_round");
    g.sample_size(10);
    for (label, retired) in SCENARIOS {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut cell =
                    CellMarvel::resilient(true, SEED, retire(retired), TraceConfig::Off).unwrap();
                let analysis = cell.analyze(&inputs[0]).unwrap();
                cell.finish().unwrap();
                analysis.scores.len()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_degraded);
criterion_main!(benches);
