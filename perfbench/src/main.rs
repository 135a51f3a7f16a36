//! The SQE serving benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced run. See README.md.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bed full|small]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics that `BENCHMARK.json` lists
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`).

mod bed;
mod compose;
mod ingest;
mod layers;
mod longtail;
mod open_loop;
mod report;
mod stats;
mod trace;
mod warm;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bed::Scale;
use report::Report;

/// The end-to-end metrics every untraced run prints (BENCHMARK.json).
/// `latency_p99_ms` is printed in the report lines but not gated: on a
/// 2-vCPU virtual machine whole runs fall into stretches of scheduling
/// stalls that move it between about 4 and 12 ms.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "latency_p50_ms", "throughput_qps"];

/// The per-layer metrics every traced run prints (BENCHMARK.json): the
/// layers all four workloads pass through, then [`LAYER_SPECIFIC`].
pub const PER_LAYER: [&str; 29] = [
    "setup.generate_s",
    "setup.index_s",
    "setup.service_s",
    "cache.hit_rate",
    "cache.lookup_us.p50",
    "expand.build_ms.p50",
    "expand.build_ms.p99",
    "expand.builds",
    "expand.expansions_per_set",
    "query.build_us.p50",
    "query.features",
    "ql.rank_ms.p50",
    "ql.rank_ms.p99",
    "ql.calls",
    "ql.postings_touched",
    "combine.ids_ms.p50",
    "combine.ids_materialized",
    "serve.achieved_concurrency",
    "trace.overhead_ratio",
    "shard.score_ms.p50",
    "shard.merge_ms.p50",
    "entitylink.link_ms.p50",
    "admission.queue_wait_ms.p99",
    "ladder.rung_share.0",
    "gen.lag_ms.p99",
    "ingest.add_us.p50",
    "ingest.seal_ms.p50",
    "store.encode_ms",
    "store.decode_ms",
];

/// Per-layer metrics of layers only some workloads reach. A workload
/// that does not reach the layer reports 0 from 0 samples.
pub const LAYER_SPECIFIC: [(&str, &str); 10] = [
    ("shard.score_ms.p50", "ms"),
    ("shard.merge_ms.p50", "ms"),
    ("entitylink.link_ms.p50", "ms"),
    ("admission.queue_wait_ms.p99", "ms"),
    ("ladder.rung_share.0", "share"),
    ("gen.lag_ms.p99", "ms"),
    ("ingest.add_us.p50", "us"),
    ("ingest.seal_ms.p50", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
];

pub const WORKLOADS: [&str; 4] = [
    "sqe_c_warm",
    "sqe_c_sharded_longtail",
    "open_loop_ladder",
    "ingest_restart",
];

/// Threads a workload may use in total, dispatcher included.
pub const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Set-ups per run; the median is `setup_s`.
    pub setups: usize,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = Scale::Full;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_owned());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    })
                }
                "--bed" => scale = Scale::parse(&value).ok_or("--bed takes full or small")?,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let trace = trace.unwrap_or(false);
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            scale,
            setups: if trace { 1 } else { 5 },
        })
    }

    /// Seconds of the untraced phase: all of the run, or half of it when
    /// the traced phase follows.
    pub fn untraced_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.tsv",
            self.workload, self.seed
        ))
    }
}

/// Runs `op(state, request_number)` on `clients` threads until `seconds`
/// elapse. Request numbers count up across all clients, so the seeded
/// request sequence is shared. Returns every client's state and the
/// wall time in seconds.
pub fn closed_loop<S: Send>(
    clients: usize,
    seconds: f64,
    make: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, u64) + Sync,
) -> (Vec<S>, f64) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (next, make, op) = (&next, &make, &op);
                scope.spawn(move || {
                    let mut state = make(c);
                    while Instant::now() < stop {
                        op(&mut state, next.fetch_add(1, Ordering::Relaxed));
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (states, start.elapsed().as_secs_f64())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "sqe_c_warm" => warm::run(&args),
        "sqe_c_sharded_longtail" => longtail::run(&args),
        "open_loop_ladder" => open_loop::run(&args),
        _ => ingest::run(&args),
    };
    let attempted = report.attempted.max(1);
    let error_rate = report.failed as f64 / attempted as f64;
    report.add_n("error_rate", "share", error_rate, attempted as usize);
    if args.trace {
        for (name, unit) in LAYER_SPECIFIC {
            if report.get(name).is_none() {
                report.add_n(name, unit, 0.0, 0);
            }
        }
    }
    let envelope = report::envelope(
        &args.workload,
        args.seed,
        THREADS,
        args.scale.name(),
        args.trace,
    );
    let contract: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if report.print(&envelope, contract) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
