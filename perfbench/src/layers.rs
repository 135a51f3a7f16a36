//! Per-layer metrics of a traced run, from its spans and work counts,
//! plus the set-up metrics every run reports.

use std::time::Instant;

use crate::bed::{SetupTimes, Setups};
use crate::compose::{Counts, Scratch};
use crate::report::Report;
use crate::stats::{median_of, ChunkStats, Samples, Series};
use crate::trace::{Trace, Tracer};
use crate::Args;

/// `setup_s` (median over the run's set-ups) and, traced, its steps.
pub fn add_setup(report: &mut Report, setups: &Setups) {
    let setups = &setups.0;
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    report.add_n("setup_s", "s", median_of(&totals), setups.len());
    let step = |f: fn(&SetupTimes) -> f64| median_of(&setups.iter().map(f).collect::<Vec<_>>());
    report.add_n(
        "setup.generate_s",
        "s",
        step(|s| s.generate_s),
        setups.len(),
    );
    report.add_n("setup.index_s", "s", step(|s| s.index_s), setups.len());
    report.add_n("setup.service_s", "s", step(|s| s.service_s), setups.len());
}

/// `peak_rss_mb`, read when the untraced phase ends and before the
/// benchmark builds any reference structure of its own.
pub fn add_peak_rss(report: &mut Report) {
    report.add("peak_rss_mb", "MB", crate::bed::peak_rss_mb());
}

/// The state of one closed-loop client of an untraced phase.
#[derive(Default)]
pub struct Client {
    pub latency_ms: Series,
    /// `(request number, answer digest)` of the answers kept for the
    /// reference check after the run.
    pub digests: Vec<(u64, u64)>,
    pub failures: Vec<String>,
}

/// Samples per chunk of a run for the chunked medians.
pub const CHUNK: usize = 1_000;

/// `latency_p50_ms` and `latency_p99_ms` (medians over chunks of the
/// run), and the whole-run exact percentiles with their sample count.
/// Returns the chunk statistics.
pub fn add_latency(report: &mut Report, latency_ms: &Series) -> ChunkStats {
    let n = latency_ms.len();
    let c = latency_ms.chunked(CHUNK);
    report.add_n("latency_p50_ms", "ms", c.p50, c.chunks);
    report.add_n("latency_p99_ms", "ms", c.p99, c.chunks);
    let mut all = latency_ms.samples();
    report.add_n("latency.run_p50_ms", "ms", all.median(), n);
    let (label, tail) = all.tail();
    report.add_n(&format!("latency.run_{label}_ms"), "ms", tail, n);
    c
}

/// The closed-loop metrics: latency as above and `throughput_qps`, the
/// median over chunks of completions per second.
pub fn add_closed_loop(report: &mut Report, latency_ms: &Series, wall_s: f64) {
    let c = add_latency(report, latency_ms);
    report.add_n("throughput_qps", "req/s", c.rate, c.chunks);
    let n = latency_ms.len();
    report.add_n("throughput.run_qps", "req/s", n as f64 / wall_s, n);
}

/// What a traced run measured besides its spans.
pub struct TracedRun {
    pub trace: Trace,
    pub counts: Counts,
    /// Service cache hit rate over the traced phase (`metrics_snapshot`).
    pub cache_hit_rate: f64,
    pub cache_evictions: u64,
    /// Σ service busy time ÷ wall time of the untraced phase.
    pub achieved_concurrency: f64,
    /// Per-request latency of the service's own (untraced) calls and of
    /// the traced compositions of the same requests, taken side by side
    /// (ms).
    pub untraced_ms: Samples,
    pub traced_ms: Samples,
    /// Composed outputs that differed from the service's.
    pub mismatches: u64,
    pub compared: u64,
}

/// The state of one closed-loop client of a traced phase.
pub struct TracedClient {
    pub tracer: Tracer,
    pub counts: Counts,
    pub scratch: Scratch,
    /// Duration of each traced composition and of the service call
    /// answering the same request (ms).
    pub traced_ms: Samples,
    pub untraced_ms: Samples,
    pub compared: u64,
    pub mismatches: u64,
}

impl TracedClient {
    pub fn new(origin: Instant) -> TracedClient {
        TracedClient {
            tracer: Tracer::new(origin),
            counts: Counts::default(),
            scratch: Scratch::default(),
            traced_ms: Samples::new(),
            untraced_ms: Samples::new(),
            compared: 0,
            mismatches: 0,
        }
    }

    /// Records one comparison of a composed output with the service's.
    pub fn compare(&mut self, equal: bool) {
        self.compared += 1;
        self.mismatches += u64::from(!equal);
    }
}

impl TracedRun {
    /// Folds the traced clients into one run; the service-side fields
    /// start empty for the caller to fill.
    pub fn collect(trace: Trace, counts: Counts, clients: Vec<TracedClient>) -> TracedRun {
        let mut run = TracedRun {
            trace,
            counts,
            cache_hit_rate: 0.0,
            cache_evictions: 0,
            achieved_concurrency: 0.0,
            untraced_ms: Samples::new(),
            traced_ms: Samples::new(),
            mismatches: 0,
            compared: 0,
        };
        for c in clients {
            run.trace.add(c.tracer);
            run.counts.merge(c.counts);
            run.traced_ms.extend(&c.traced_ms);
            run.untraced_ms.extend(&c.untraced_ms);
            run.compared += c.compared;
            run.mismatches += c.mismatches;
        }
        run
    }
}

/// Adds every per-layer metric of a traced run and writes its spans.
pub fn add_traced(report: &mut Report, args: &Args, run: TracedRun) {
    let TracedRun {
        trace,
        counts,
        cache_hit_rate,
        cache_evictions,
        achieved_concurrency,
        mut untraced_ms,
        mut traced_ms,
        mismatches,
        compared,
    } = run;
    let (t, c) = (&trace, &counts);
    report.add("cache.hit_rate", "share", cache_hit_rate);
    report.add("cache.evictions", "count", cache_evictions as f64);
    let mut lookup = t.durations_ms("cache.get");
    report.add_n(
        "cache.lookup_us.p50",
        "us",
        lookup.median() * 1e3,
        lookup.len(),
    );

    let mut builds = Samples::new();
    for label in ["t", "ts", "s", "other"] {
        let span = crate::compose::build_span(label);
        let mut one = t.durations_ms(span);
        if one.len() > 0 {
            report.add_p50_p99(&format!("expand.build_ms.{label}"), "ms", &mut one);
        }
        builds.extend(&one);
    }
    report.add_p50_p99("expand.build_ms", "ms", &mut builds);
    let requests = c.requests.max(1) as f64;
    report.add("expand.builds", "count/req", c.builds as f64 / requests);
    let mut per_set = Samples::new();
    for (label, s) in &c.expansions {
        report.add_n(
            &format!("expand.expansions_per_set.{label}"),
            "count",
            s.mean(),
            s.len(),
        );
        per_set.extend(s);
    }
    report.add_n(
        "expand.expansions_per_set",
        "count",
        per_set.mean(),
        per_set.len(),
    );

    let mut qb = t.durations_ms("query.build");
    report.add_n("query.build_us.p50", "us", qb.median() * 1e3, qb.len());
    let runs = c.features_text.len().max(1) as f64;
    let total = c.features_text.sum() + c.features_titles.sum() + c.features_expansions.sum();
    report.add_n(
        "query.features",
        "count",
        total / runs,
        c.features_text.len(),
    );
    report.add("query.features.text", "count", c.features_text.sum() / runs);
    report.add(
        "query.features.titles",
        "count",
        c.features_titles.sum() / runs,
    );
    report.add(
        "query.features.expansions",
        "count",
        c.features_expansions.sum() / runs,
    );

    let mut rank = t.durations_ms("ql.rank");
    report.add_p50_p99("ql.rank_ms", "ms", &mut rank);
    report.add("ql.calls", "count/req", c.ql_calls as f64 / requests);
    let calls = c.ql_calls.max(1) as f64;
    report.add(
        "ql.postings_touched",
        "count",
        c.postings_touched as f64 / calls,
    );

    if t.count("shard.resolve") > 0 {
        let mut s = t.durations_ms("shard.resolve");
        report.add_n("shard.resolve_ms.p50", "ms", s.median(), s.len());
        let mut s = t.durations_ms("shard.gather");
        report.add_n("shard.gather_us.p50", "us", s.median() * 1e3, s.len());
        let mut s = t.durations_ms("shard.score");
        report.add_n("shard.score_ms.p50", "ms", s.median(), s.len());
        let mut s = t.slowest_child_ms("shard.score");
        report.add_n("shard.score_slowest_ms.p50", "ms", s.median(), s.len());
        let mut s = t.durations_ms("shard.merge");
        report.add_n("shard.merge_ms.p50", "ms", s.median(), s.len());
        report.add("shard.hits_merged", "count", c.hits_merged as f64 / calls);
    }

    let mut ids = t.durations_ms("combine.ids");
    report.add_n("combine.ids_ms.p50", "ms", ids.median(), ids.len());
    report.add(
        "combine.ids_materialized",
        "count",
        c.ids_materialized as f64 / calls,
    );
    let mut stitch = t.durations_ms("combine.stitch");
    if stitch.len() > 0 {
        report.add_n(
            "combine.stitch_us.p50",
            "us",
            stitch.median() * 1e3,
            stitch.len(),
        );
    }

    report.add("serve.achieved_concurrency", "ratio", achieved_concurrency);
    let (traced, untraced) = (traced_ms.median(), untraced_ms.median());
    report.add_n("trace.traced_p50_ms", "ms", traced, traced_ms.len());
    report.add_n("trace.untraced_p50_ms", "ms", untraced, untraced_ms.len());
    report.add("trace.overhead_ms", "ms", traced - untraced);
    report.add(
        "trace.overhead_ratio",
        "ratio",
        traced / untraced.max(1e-12),
    );
    report.add("trace.mismatches", "count", mismatches as f64);
    report.note(format!(
        "traced composition vs service: {} compared, {} mismatches",
        compared, mismatches
    ));
    for _ in 0..mismatches {
        report.fail("traced composition differs from the service output".to_owned());
    }
    for (name, n, dur, own) in t.summary() {
        report.note(format!(
            "span {name:<22} n={n:<8} p50={dur:.4} ms self_p50={own:.4} ms"
        ));
    }
    let path = args.spans_path();
    match t.write(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written ({}): {e}", path.display())),
    }
}
