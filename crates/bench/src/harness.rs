//! A small self-contained micro-benchmark harness.
//!
//! The workspace must build and run fully offline, so the benches cannot
//! pull in `criterion`. This module reimplements the narrow slice of its
//! API the `benches/` files use — `Criterion::benchmark_group`,
//! `bench_function` / `bench_with_input`, `Bencher::iter` /
//! `iter_batched`, `BenchmarkId`, `BatchSize`, and the
//! `criterion_group!` / `criterion_main!` macros — over plain
//! `std::time::Instant` sampling. Reports mean, min and standard
//! deviation per benchmark on stdout.
//!
//! Methodology: each benchmark warms up for a fixed number of iterations,
//! then takes `sample_size` timed samples; each sample runs enough
//! iterations to last at least ~1 ms so timer granularity does not
//! dominate sub-microsecond bodies.

use std::hint::black_box as bb;
use std::time::Instant;

/// Re-export so bench bodies can `black_box` values exactly as with
/// criterion.
pub fn black_box<T>(x: T) -> T {
    bb(x)
}

/// Write a bench artifact to the workspace's `target/bench/<name>.json`,
/// whatever cwd cargo runs the bench from, and return its path.
pub fn write_artifact(name: &str, json: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path.display().to_string())
}

/// Mirror of `criterion::BatchSize`; only the variant the benches use.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
}

/// Identifier for a parameterized benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// The measurement driver handed to each benchmark closure.
pub struct Bencher {
    /// Collected per-iteration times in seconds, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            samples: Vec::with_capacity(sample_size),
            sample_size,
        }
    }

    /// Time `body` repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        // Warm-up and calibration: find an iteration count lasting >= ~1 ms.
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                bb(body());
            }
            let dt = t0.elapsed().as_secs_f64();
            if dt >= 1e-3 || iters >= 1 << 20 {
                break;
            }
            iters = (iters * 2).max((iters as f64 * 1.2e-3 / dt.max(1e-9)) as u64);
        }
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                bb(body());
            }
            self.samples.push(t0.elapsed().as_secs_f64() / iters as f64);
        }
    }

    /// Time `body` on fresh inputs produced (untimed) by `setup`.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut body: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        // Batched bodies are assumed non-trivial; time one call per sample
        // and take more samples instead of calibrating an inner loop.
        let rounds = self.sample_size.max(10);
        // Warm-up.
        for _ in 0..3 {
            let input = setup();
            bb(body(input));
        }
        for _ in 0..rounds {
            let input = setup();
            let t0 = Instant::now();
            bb(body(input));
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }
}

fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

fn report(name: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    println!(
        "{name:<40} mean {:>12}   min {:>12}   σ {:>12}   ({} samples)",
        fmt_time(mean),
        fmt_time(min),
        fmt_time(var.sqrt()),
        samples.len()
    );
}

/// A named group of benchmarks (mirrors `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(format!("{}/{}", self.name, id), f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(format!("{}/{}", self.name, id), |b| f(b, input));
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: String, mut f: F) {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        report(&label, &b.samples);
    }

    pub fn finish(&mut self) {}
}

/// Mirror of `criterion::Criterion`: the top-level driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup {
            name,
            sample_size: 20,
            _criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(20);
        let mut f = f;
        f(&mut b);
        report(&id.to_string(), &b.samples);
        self
    }
}

/// Mirror of `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Mirror of `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_collects_samples() {
        let mut b = Bencher::new(5);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(b.samples.len(), 5);
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn bencher_iter_batched_runs_setup_per_sample() {
        let mut b = Bencher::new(4);
        let mut setups = 0usize;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 64]
            },
            |v| v.iter().map(|&x| x as u64).sum::<u64>(),
            BatchSize::SmallInput,
        );
        assert!(setups >= b.samples.len(), "setup ran per timed sample");
        assert!(!b.samples.is_empty());
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("eq2", 5).to_string(), "eq2/5");
        assert_eq!(BenchmarkId::from_parameter(3).to_string(), "3");
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("harness_selftest");
        g.sample_size(3);
        let mut ran = false;
        g.bench_function("noop", |b| {
            ran = true;
            b.iter(|| 1 + 1);
        });
        g.finish();
        assert!(ran);
    }
}
