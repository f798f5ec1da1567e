//! Offline shim for the `criterion` crate.
//!
//! A lightweight wall-clock benchmark harness implementing the subset of
//! the criterion API used by the `outran-bench` benches: `Criterion`,
//! benchmark groups, `BenchmarkId`, `Bencher::iter` / `iter_batched`,
//! and the `criterion_group!` / `criterion_main!` macros. It has no
//! statistical machinery — each benchmark is warmed up, then timed over
//! an adaptively chosen iteration count, and the mean time per iteration
//! is printed. Good enough to catch order-of-magnitude regressions and
//! to keep `cargo bench` runnable without crates.io access.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Batch sizing hint for [`Bencher::iter_batched`] (ignored; present for
/// API compatibility).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A function name plus a parameter value, rendered `name/param`.
    pub fn new(name: impl fmt::Display, param: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }

    /// Just a parameter value.
    pub fn from_parameter(param: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            label: param.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// Prevent the optimizer from discarding a value (re-export of the
/// standard hint).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Per-benchmark measurement driver handed to the closure.
pub struct Bencher {
    /// Mean time per iteration from the last measurement.
    elapsed_per_iter: Duration,
    /// Iterations used for the measurement.
    iters: u64,
}

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(200);

impl Bencher {
    fn new() -> Bencher {
        Bencher {
            elapsed_per_iter: Duration::ZERO,
            iters: 0,
        }
    }

    /// Time `routine`, calling it repeatedly until the target measurement
    /// time is filled.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: double the batch until it costs ~1/10
        // of the measurement target.
        let mut batch: u64 = 1;
        let per_iter = loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t.elapsed();
            if dt >= TARGET / 10 || batch >= 1 << 30 {
                break dt / (batch as u32).max(1);
            }
            batch *= 2;
        };
        let iters = (TARGET.as_nanos() / per_iter.as_nanos().max(1)).clamp(10, 1 << 30) as u64;
        let t = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.elapsed_per_iter = t.elapsed() / (iters as u32);
        self.iters = iters;
    }

    /// Time `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Calibrate with single runs (setup cost excluded from timing).
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        while total < TARGET / 2 && iters < 1 << 20 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total += t.elapsed();
            iters += 1;
        }
        self.elapsed_per_iter = total / (iters as u32).max(1);
        self.iters = iters;
    }
}

fn print_result(name: &str, b: &Bencher) {
    let ns = b.elapsed_per_iter.as_nanos();
    let human = if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    };
    println!("{name:<48} {human:>12}/iter  ({} iters)", b.iters);
}

/// Top-level benchmark registry/driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Run a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        print_result(name, &b);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one parameterized benchmark within the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new();
        f(&mut b, input);
        print_result(&format!("{}/{id}", self.name), &b);
        self
    }

    /// Run one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new();
        f(&mut b);
        print_result(&format!("{}/{name}", self.name), &b);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit a `main` that runs the given groups.
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
    fn ids_render() {
        assert_eq!(BenchmarkId::new("PF", 100).to_string(), "PF/100");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }
}
