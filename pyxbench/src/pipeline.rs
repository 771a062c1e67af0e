//! The Pyxis pipeline with each stage timed: compile, analyze, profile,
//! build the partition graph, solve, deploy.

use pyx_core::{Pyxis, PyxisConfig};
use pyx_db::Engine;
use pyx_partition::Placement;
use pyx_pyxil::CompiledPartition;
use pyx_server::TxnRequest;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall time of each pipeline stage, plus database loading.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub compile: Duration,
    pub analyze: Duration,
    pub profile: Duration,
    pub graph: Duration,
    pub solve: Duration,
    pub deploy: Duration,
    /// Loading every engine the set-up builds (profiling scratch and
    /// serving engines).
    pub load: Duration,
}

/// A partitioned program ready to serve.
pub struct Built {
    pub pyxis: Pyxis,
    pub placement: Placement,
    pub part: Arc<CompiledPartition>,
    pub times: StageTimes,
}

/// Run `f` and add its wall time to `acc`.
pub fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Compile `src`, profile it on a freshly loaded scratch engine with the
/// requests `profile_reqs` draws from the compiled program, and deploy
/// the partition solved at `budget` (a fraction of the profiled load).
pub fn build(
    src: &str,
    mut load_scratch: impl FnMut() -> Engine,
    profile_reqs: impl FnOnce(&Pyxis) -> Vec<TxnRequest>,
    budget: f64,
) -> Built {
    let mut t = StageTimes::default();
    let config = PyxisConfig::default();
    let prog = timed(&mut t.compile, || pyx_lang::compile(src)).expect("benchmark source compiles");
    let analysis = timed(&mut t.analyze, || {
        pyx_analysis::analyze(&prog, config.analysis)
    });
    let pyxis = Pyxis {
        prog,
        analysis,
        config,
    };
    let reqs = profile_reqs(&pyxis);
    let mut scratch = timed(&mut t.load, &mut load_scratch);
    let profile = timed(&mut t.profile, || {
        pyxis.profile(&mut scratch, reqs.into_iter().map(|r| (r.entry, r.args)))
    })
    .expect("profiling run");
    let graph = timed(&mut t.graph, || pyxis.graph(&profile));
    let placement = timed(&mut t.solve, || pyxis.partition(&graph, budget));
    let part = Arc::new(timed(&mut t.deploy, || pyxis.deploy(placement.clone())));
    Built {
        pyxis,
        placement,
        part,
        times: t,
    }
}

impl StageTimes {
    /// Per-stage medians over several set-ups, in milliseconds, under
    /// the per-layer metric names.
    pub fn median_ms(all: &[StageTimes]) -> Vec<(&'static str, f64)> {
        let m = |f: fn(&StageTimes) -> Duration| {
            crate::report::median(
                &all.iter()
                    .map(|t| f(t).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        vec![
            ("lang.compile_ms", m(|t| t.compile)),
            ("analysis.analyze_ms", m(|t| t.analyze)),
            ("profile.profile_ms", m(|t| t.profile)),
            ("partition.graph_ms", m(|t| t.graph)),
            ("partition.solve_ms", m(|t| t.solve)),
            ("pyxil.deploy_ms", m(|t| t.deploy)),
            ("workloads.load_ms", m(|t| t.load)),
        ]
    }
}
