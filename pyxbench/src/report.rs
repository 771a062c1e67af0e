//! Result assembly: latency samples, named metrics, provenance, and the
//! one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::time::Duration;

/// Latency samples in nanoseconds.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Mean in milliseconds; 0 when empty.
    pub fn mean_ms(&self) -> f64 {
        ratio(self.0.iter().sum::<u64>() as f64, self.0.len() as f64) / 1e6
    }

    /// Nearest-rank percentile `q` (0–100) in milliseconds; 0 when empty.
    pub fn pct_ms(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1] as f64 / 1e6
    }
}

/// Latency samples per request label (the per-label breakdown).
#[derive(Default)]
pub struct ByLabel(pub BTreeMap<&'static str, Samples>);

impl ByLabel {
    pub fn push(&mut self, label: &'static str, d: Duration) {
        self.0.entry(label).or_default().push(d);
    }

    /// Human-readable breakdown lines.
    pub fn print(&self, what: &str) {
        for (label, s) in &self.0 {
            println!(
                "  {what} {label:<18} n={:<7} p50={:.3} ms  p99={:.3} ms",
                s.len(),
                s.pct_ms(50.0),
                s.pct_ms(99.0)
            );
        }
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.0.iter().any(|(n, _, _)| n == name),
            "metric {name} set twice"
        );
        self.0.push((name.to_string(), value, unit));
    }

    /// Print every metric on its own line, by name with its unit.
    pub fn print(&self) {
        for (n, v, u) in &self.0 {
            println!("  {n:<32} {v:>14.4} {u}");
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with all its digits: `Debug` prints the shortest form
/// that reads back as the same `f64`.
fn num(v: f64) -> String {
    format!("{v:?}")
}

/// Facts about how a result was produced.
#[derive(Default)]
pub struct Provenance(Vec<(String, String)>);

impl Provenance {
    pub fn put(&mut self, key: &str, value: impl std::fmt::Display) {
        self.0.push((key.to_string(), value.to_string()));
    }

    pub fn print(&self) {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\":\"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        println!("provenance {{{}}}", body.join(","));
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The final result line.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics.json()
        )
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The source revision from `git rev-parse HEAD`, or `unknown` outside
/// a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for ms in 1..=100u64 {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.pct_ms(50.0), 50.0);
        assert_eq!(s.pct_ms(99.0), 99.0);
        assert_eq!(s.pct_ms(100.0), 100.0);
        assert_eq!(s.pct_ms(0.0), 1.0);
        assert_eq!(Samples::default().pct_ms(50.0), 0.0);
        assert_eq!(s.mean_ms(), 50.5);
    }

    #[test]
    fn medians_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut m = Metrics::default();
        m.put("a", 1.25, "ms");
        m.put("b", 3.0, "count");
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
        };
        assert_eq!(
            o.json_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.25,\"unit\":\"ms\"},\"b\":{\"value\":3.0,\"unit\":\"count\"}}}"
        );
    }
}
