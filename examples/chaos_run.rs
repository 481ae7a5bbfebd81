//! Chaos run: a seeded fault plan against MARVEL's failover layout.
//!
//! Derives a deterministic fault schedule from a seed, runs a batch of
//! images through [`marvel::CellMarvel::resilient`], verifies the results
//! are byte-identical to the fault-free run, prints the recovery story,
//! and writes the full machine trace (faults + recoveries included) as
//! Chrome/Perfetto JSON.
//!
//! ```sh
//! cargo run --release --example chaos_run            # default seed 7
//! cargo run --release --example chaos_run -- 41      # or pick one
//! CHAOS_SEED=2007 cargo run --release --example chaos_run
//! # then load chaos_run_<seed>.json at https://ui.perfetto.dev
//! ```

use cell_fault::FaultPlan;
use cell_trace::{Counter, EventKind, TraceConfig};
use marvel::app::{CellMarvel, EXTRACT_KINDS};
use marvel::codec;
use marvel::image::ColorImage;
use marvel::ImageAnalysis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed: u64 = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("CHAOS_SEED").ok())
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(7);

    let images: Vec<_> = (0..3)
        .map(|i| codec::encode(&ColorImage::synthetic(96, 64, 500 + i).unwrap(), 90))
        .collect();

    // Baseline: the fault-free run these results must match bit-for-bit.
    let mut clean = CellMarvel::resilient(true, seed, FaultPlan::new(), TraceConfig::Off)?;
    let want: Vec<ImageAnalysis> = images
        .iter()
        .map(|c| clean.analyze(c))
        .collect::<Result<_, _>>()?;
    clean.finish()?;

    // Chaos: 4 seeded faults over 8 SPEs within the first 12 ops per site.
    let plan = FaultPlan::chaos(seed, 8, 4, 12);
    println!("seed {seed}: {} planned faults", plan.specs().len());
    for s in plan.specs() {
        println!(
            "  SPE {} op {:>2} @ {:?}: {:?}",
            s.spe, s.at, s.site, s.kind
        );
    }

    let mut cell = CellMarvel::resilient(true, seed, plan, TraceConfig::Full)?;
    let got: Vec<ImageAnalysis> = images
        .iter()
        .map(|c| cell.analyze(c))
        .collect::<Result<_, _>>()?;

    // Byte-identical results despite the chaos.
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        for kind in EXTRACT_KINDS {
            assert_eq!(
                g.feature(kind),
                w.feature(kind),
                "image {i} {} diverged under chaos",
                kind.name()
            );
            assert_eq!(g.score(kind).to_bits(), w.score(kind).to_bits());
        }
    }
    println!(
        "\n{} images analyzed, results byte-identical to the fault-free run",
        got.len()
    );
    println!(
        "survivors: {}/8 SPEs, {} failovers, degraded Eq. 3 estimate {:.2}x vs Desktop",
        cell.survivors(),
        cell.failovers(),
        cell.degraded_estimate()?
    );

    let (elapsed, reports, trace) = cell.finish_traced()?;
    let injected: u64 = trace
        .tracks
        .iter()
        .map(|t| t.counters.get(Counter::FaultsInjected))
        .sum();
    let retries: u64 = trace
        .tracks
        .iter()
        .map(|t| t.counters.get(Counter::Retries))
        .sum();
    println!(
        "virtual time {elapsed}; {injected} faults injected, {retries} retries, {} recovery events",
        trace.events_of(EventKind::Recovery).count()
    );
    for r in &reports {
        if let Some(fault) = &r.fault {
            println!("  SPE {} retired: {fault}", r.spe_id);
        }
    }

    let json = trace.to_chrome_json();
    let path = format!("chaos_run_{seed}.json");
    std::fs::write(&path, &json)?;
    println!(
        "\nwrote {path} ({} bytes) — load it at https://ui.perfetto.dev",
        json.len()
    );
    Ok(())
}
