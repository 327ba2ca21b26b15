//! A minimal micro-benchmark runner exposing the subset of the `criterion`
//! crate's API this workspace uses (`Criterion::bench_function`, `Bencher::
//! iter`, `Bencher::iter_batched`, `criterion_group!`, `criterion_main!`). The build environment has
//! no registry access, so the workspace vendors this stand-in instead of
//! depending on crates.io.
//!
//! Measurement model: after a short warm-up, each sample times a batch of
//! iterations sized so one sample lasts roughly `measurement_time /
//! sample_size`; the report prints min / median / max per-iteration time.
//! No statistical outlier analysis, plots, or baselines.

// The bench harness is the one place wall-clock time is the point; both the
// deepsea-lint D2 rule and clippy.toml's disallowed lists exempt it here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::time::{Duration, Instant};

/// Benchmark runner configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(2),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Run one named benchmark. `f` receives a [`Bencher`] and is expected
    /// to call [`Bencher::iter`].
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        b.report(name);
        self
    }
}

/// How many inputs [`Bencher::iter_batched`] may prepare at once; accepted
/// for API compatibility — inputs are made one per call.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
}

/// Times closures handed to it by a benchmark function.
pub struct Bencher {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Mean per-iteration nanoseconds, one entry per sample.
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measure `f`, called repeatedly; its return value is passed through
    /// a black box so the computation cannot be optimised away.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        self.measure(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed()
        });
    }

    /// Measure `routine` on inputs made by `setup`, one per call; only
    /// `routine` is timed, and dropping its output is not.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.measure(|iters| {
            (0..iters)
                .map(|_| {
                    let input = setup();
                    let start = Instant::now();
                    let out = std::hint::black_box(routine(input));
                    let elapsed = start.elapsed();
                    drop(out);
                    elapsed
                })
                .sum()
        });
    }

    /// Fill the samples: `run(n)` performs `n` iterations and returns the
    /// time they took.
    fn measure(&mut self, mut run: impl FnMut(u64) -> Duration) {
        // Warm-up: run until the warm-up budget elapses, estimating cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            run(1);
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64;

        // Size each sample's batch so one sample ≈ measurement/sample_size.
        let sample_budget_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let batch = ((sample_budget_ns / per_iter.max(1.0)) as u64).max(1);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let ns = run(batch).as_nanos() as f64 / batch as f64;
            self.samples_ns.push(ns);
        }
    }

    fn report(&self, name: &str) {
        if self.samples_ns.is_empty() {
            println!("{name:<40} (no samples — Bencher::iter never called)");
            return;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let max = sorted[sorted.len() - 1];
        println!(
            "{name:<40} [{} {} {}]",
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(max)
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Group benchmark functions: plain `criterion_group!(name, targets...)` or
/// the configured `criterion_group!(name = ...; config = ...; targets = ...)`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $cfg;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn iter_batched_times_the_routine_on_fresh_inputs() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let (mut made, mut used) = (0u64, 0u64);
        c.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    made += 1;
                    vec![made; 4]
                },
                |v| {
                    used += 1;
                    v.len()
                },
                BatchSize::SmallInput,
            );
            assert!(!b.samples_ns.is_empty());
        });
        assert!(used > 0);
        assert_eq!(made, used, "one input per call");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_345.0), "12.35 µs");
        assert_eq!(fmt_ns(12_345_678.0), "12.35 ms");
    }
}
