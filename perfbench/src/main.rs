//! The repository benchmark: three seeded workloads against the
//! unmodified program, each reported in host and simulated time.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload marvel_paper --seed 2007 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs an untraced half, a counters-only traced half and
//! host-time replays of single layers, and reports the per-layer
//! metrics; its spans are written to `.bench_out/` when the run ends.
//! The last line of the output is one JSON object with the result.
//! The command exits nonzero when any output check fails.

mod isa_jobs;
mod layers;
mod marvel_paper;
mod report;
mod serve_durable;
mod stats;

use std::process::ExitCode;

use report::{Outcome, Spans};

/// Seed used when none is given; the held-out seed for later claims is
/// recorded in `perfbench/README.md`.
const DEFAULT_SEED: u64 = 2007;

const WORKLOADS: [&str; 3] = ["marvel_paper", "isa_jobs", "serve_durable"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| bad("seconds in (0, 120]"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn write_spans(args: &Args, spans: &Spans) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, spans.to_json())?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace);
    let result: cell_core::CellResult<Outcome> = match args.workload.as_str() {
        "marvel_paper" => marvel_paper::run(&args, &mut spans),
        "isa_jobs" => isa_jobs::run(&args, &mut spans),
        _ => serve_durable::run(&args, &mut spans),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match write_spans(&args, &spans) {
            Ok(path) => println!("# spans: {} written to {path}", spans.len()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    outcome.print(&args.workload, args.trace);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
