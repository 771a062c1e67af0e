//! The repository benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics from a separate traced pass.
//!
//! ```sh
//! cargo run --release --manifest-path pyxbench/Cargo.toml -- \
//!     --workload tpcc-sharded --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, a provenance line, and as
//! its last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 1 when a correctness check fails and 2 on bad
//! arguments. Scratch files (logs, sockets) live under `.bench_out/` in
//! the working directory and are removed on exit; the traced pass
//! leaves its span file there. See `README.md`.

mod driver;
mod layers;
mod pipeline;
mod report;
mod tpcc_sharded;
mod tpcc_sim;
mod tpcw_socket;
mod trace;

use report::{Metrics, Outcome};
use std::path::PathBuf;
use std::time::Duration;

/// The end-to-end metrics every workload reports: name, unit, and
/// whether higher is better.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("txn_per_s", "1/s", true),
    ("mean_ms", "ms", false),
    ("setup_s", "s", false),
    ("peak_rss_mb", "MiB", false),
];

/// Spans kept in memory by the traced pass; later spans still count
/// toward the per-layer aggregates.
pub const SPAN_CAP: usize = 100_000;

const WORKLOADS: &[&str] = &["tpcc-sharded", "tpcw-socket", "tpcc-sim"];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for this run, removed on exit.
    pub dir: PathBuf,
}

/// The end-to-end metric set, in [`END_TO_END`] order.
pub fn end_to_end(f: driver::Figures, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    for ((name, unit, _), v) in
        END_TO_END
            .iter()
            .zip([f.txn_per_s, f.mean_ms, setup_s, peak_rss_mb])
    {
        m.put(name, v, unit);
    }
    m
}

/// The workload seed of episode or round `i` of a run seeded `seed`.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Fold a correctness verdict into the result.
pub fn outcome(
    checked: Result<(), String>,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
) -> Outcome {
    if let Err(e) = &checked {
        println!("CORRECTNESS CHECK FAILED: {e}");
    }
    Outcome {
        correct: checked.is_ok() && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Write the traced pass's spans next to the scratch directory, one
/// file per workload (the latest traced run's).
pub fn save_spans(ctx: &Ctx, t: &trace::Trace) {
    let path = ctx
        .dir
        .parent()
        .expect("scratch dir has a parent")
        .join(format!("spans-{}.jsonl", ctx.workload));
    match trace::write_spans(&path, t) {
        Ok(()) => println!("spans: {} written to {}", t.spans.len(), path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: pyxbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => usage(&format!("unknown workload {value}")),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let dir = PathBuf::from(".bench_out").join(format!("run-{}", std::process::id()));
    Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        dir,
    }
}

fn main() {
    let ctx = parse_args();
    std::fs::create_dir_all(&ctx.dir).expect("create scratch directory");
    let out = match ctx.workload.as_str() {
        "tpcc-sharded" => tpcc_sharded::run(&ctx),
        "tpcw-socket" => tpcw_socket::run(&ctx),
        "tpcc-sim" => tpcc_sim::run(&ctx),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);

    let mut prov = report::Provenance::default();
    prov.put("workload", &ctx.workload);
    prov.put("seed", ctx.seed);
    prov.put("seconds", ctx.seconds.as_secs());
    prov.put("trace", u8::from(ctx.trace));
    prov.put("nproc", report::nproc());
    prov.put("git_rev", report::git_rev());
    prov.print();
    println!(
        "{} metrics ({}):",
        ctx.workload,
        if ctx.trace { "per layer" } else { "end to end" }
    );
    out.metrics.print();
    println!("{}", out.json_line());
    if !out.correct {
        std::process::exit(1);
    }
}
