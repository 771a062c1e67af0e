//! Minimal offline stand-in for the `criterion` crate.
//!
//! No network access is available to fetch the real crate, so this shim
//! implements the macro/API surface the workspace's benches use —
//! `Criterion::benchmark_group`, `bench_function`, `Bencher::iter`,
//! `criterion_group!`/`criterion_main!`, `black_box` — backed by a plain
//! wall-clock harness: a warm-up phase sizes the iteration count to a
//! fixed measurement window, then the median of several samples is
//! reported as ns/iter on stdout. No statistical analysis, no HTML
//! reports, but the numbers are real and stable enough for the
//! before/after comparisons in `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP: Duration = Duration::from_millis(150);
const MEASURE: Duration = Duration::from_millis(400);
const SAMPLES: usize = 7;

/// Entry point handed to each bench function by `criterion_group!`.
pub struct Criterion {
    /// Substring filter from argv (run a subset: `bench -- <filter>`).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .filter(|a| !a.is_empty());
        Criterion { filter }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.run(id, f);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        if let Some(filt) = &self.filter {
            if !id.contains(filt.as_str()) {
                return;
            }
        }
        let mut b = Bencher { ns_per_iter: None };
        f(&mut b);
        match b.ns_per_iter {
            Some(ns) => println!("{id:<40} time: {}", fmt_ns(ns)),
            None => println!("{id:<40} (no measurement: bencher never called iter)"),
        }
    }
}

/// Benchmark group: named prefix + optional knobs (accepted, ignored).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.c.run(&full, f);
        self
    }

    pub fn finish(self) {}
}

/// Passed to the closure given to `bench_function`.
pub struct Bencher {
    ns_per_iter: Option<f64>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run until the warm-up window elapses, counting calls to
        // size the measurement batches.
        let start = Instant::now();
        let mut warm_iters: u64 = 0;
        while start.elapsed() < WARMUP {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = WARMUP.as_nanos() as f64 / warm_iters.max(1) as f64;
        let batch = ((MEASURE.as_nanos() as f64 / SAMPLES as f64 / per_iter).ceil() as u64).max(1);

        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        self.ns_per_iter = Some(samples[SAMPLES / 2]);
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:.3} s/iter", ns / 1_000_000_000.0)
    }
}

/// Mirrors criterion's macro: defines a function running each target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Mirrors criterion's macro: defines `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
