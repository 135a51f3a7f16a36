//! `sqe_c_warm`: 2 closed-loop clients calling `QueryService::rank_sqe_c`
//! on one single-shard service per collection, replaying the 150 paper
//! queries (manual query nodes) in seeded order with the expansion cache
//! warmed first. Expansion is a cache hit, so the three QL runs, id
//! mapping and the stitch do nearly all the work.

use std::sync::Arc;
use std::time::Instant;

use ireval::precision::{mean_average_precision, mean_precision};
use ireval::{Qrels, Run};
use kbgraph::ArticleId;
use searchlite::Index;
use sqe::{Clock, MonotonicClock, QueryService, ServeConfig, SqePipeline};
use synthwiki::TestBed;

use crate::bed::{self, Rng, Scale, SetupTimes};
use crate::compose::{Composer, Counts, Scratch, View};
use crate::layers::{self, Client, TracedClient, TracedRun};
use crate::report::Report;
use crate::stats::{ns_since, Series};
use crate::trace::{Trace, Tracer};
use crate::{closed_loop, Args, THREADS};

/// P@10 and MAP of SQE_C (M) on the full bed, per dataset, as the
/// sequential `SqePipeline` gave them when this benchmark was written.
/// Rankings are byte-identical by contract, so any drift is a defect.
const GOLDEN_FULL: [(&str, f64, f64); 3] = [
    ("imageclef", 0.442, 0.130_092_409_247_789_34),
    ("chic2012", 0.13, 0.043_608_230_920_975_66),
    ("chic2013", 0.312, 0.079_138_585_799_431_93),
];

pub struct Request {
    pub coll: usize,
    pub dataset: usize,
    pub qid: String,
    pub text: String,
    pub nodes: Vec<ArticleId>,
}

fn setup(scale: Scale) -> ((TestBed, Vec<Index>), SetupTimes) {
    let (bed, generate_s) = bed::generate(scale);
    let (indexes, index_s) = bed::timed(|| {
        bed.collections
            .iter()
            .map(|c| bed::index_docs(&c.docs))
            .collect::<Vec<_>>()
    });
    let times = SetupTimes {
        generate_s,
        index_s,
        service_s: 0.0,
    };
    ((bed, indexes), times)
}

fn services<'a>(
    bed: &'a TestBed,
    indexes: &[Index],
    clock: &Arc<MonotonicClock>,
) -> Vec<QueryService<'a>> {
    indexes
        .iter()
        .map(|ix| {
            let cfg = ServeConfig::default();
            let clock = Arc::clone(clock) as Arc<dyn Clock>;
            QueryService::with_clock(&bed.kb.graph, ix, bed::sqe_config(), cfg, clock)
        })
        .collect()
}

/// The 150 paper queries with their manual query nodes.
pub fn paper_requests(bed: &TestBed) -> Vec<Request> {
    let mut out = Vec::new();
    for (d, ds) in bed.datasets.iter().enumerate() {
        for q in &ds.queries {
            out.push(Request {
                coll: ds.collection,
                dataset: d,
                qid: q.id.clone(),
                text: q.text.clone(),
                nodes: bed::manual_nodes(bed, q),
            });
        }
    }
    out
}

/// A seeded replay order: back-to-back shuffles of `0..n`.
pub fn replay_order(n: usize, seed: u64, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        let mut block: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            block.swap(i, rng.below(i + 1));
        }
        order.extend(block);
    }
    order
}

fn qrels(bed: &TestBed, dataset: usize) -> Qrels {
    let ds = &bed.datasets[dataset];
    let mut q = Qrels::new();
    for spec in &ds.queries {
        q.add_query(&spec.id);
        if let Some(docs) = ds.relevant.get(&spec.id) {
            for d in docs {
                q.add_judgment(&spec.id, d);
            }
        }
    }
    q
}

/// Checks P@10 and MAP of the service's answers against the reference
/// run, and on the full bed against the golden values.
pub fn check_quality(
    report: &mut Report,
    bed: &TestBed,
    reqs: &[Request],
    answers: &[Vec<String>],
    refs: &[Vec<String>],
    scale: Scale,
) {
    for (d, ds) in bed.datasets.iter().enumerate() {
        let (mut got, mut want) = (Run::new("service"), Run::new("reference"));
        for (i, r) in reqs.iter().enumerate().filter(|(_, r)| r.dataset == d) {
            got.set_ranking(&r.qid, answers[i].clone());
            want.set_ranking(&r.qid, refs[i].clone());
        }
        let qrels = qrels(bed, d);
        let (p10, map) = (
            mean_precision(&got, &qrels, 10),
            mean_average_precision(&got, &qrels),
        );
        let (rp10, rmap) = (
            mean_precision(&want, &qrels, 10),
            mean_average_precision(&want, &qrels),
        );
        report.note(format!("quality {}: P@10={p10:.6} MAP={map:.6}", ds.name));
        report.attempted += 1;
        if p10 != rp10 || map != rmap {
            report.fail(format!(
                "{}: P@10/MAP {p10}/{map} != reference {rp10}/{rmap}",
                ds.name
            ));
        }
        if scale == Scale::Full {
            if let Some(&(_, gp10, gmap)) = GOLDEN_FULL.iter().find(|g| g.0 == ds.name) {
                if (p10 - gp10).abs() > 1e-9 || (map - gmap).abs() > 1e-9 {
                    report.fail(format!(
                        "{}: P@10/MAP {p10}/{map} != golden {gp10}/{gmap}",
                        ds.name
                    ));
                }
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let clock = Arc::new(MonotonicClock::new());
    let ((bed, indexes), mut setups) = bed::set_up(
        args.setups,
        || setup(args.scale),
        |(bed, indexes)| bed::throwaway(|| (services(bed, indexes, &clock), 0.0)),
    );
    let svcs = setups.serve(|| (services(&bed, &indexes, &clock), 0.0));
    // The services hold their own copies of the indexes.
    drop(indexes);

    let reqs = paper_requests(&bed);
    let pipelines: Vec<SqePipeline<'_>> = svcs
        .iter()
        .map(|s| SqePipeline::new(&bed.kb.graph, s.searcher(), bed::sqe_config()))
        .collect();
    let refs: Vec<Vec<String>> = reqs
        .iter()
        .map(|r| pipelines[r.coll].rank_sqe_c(&r.text, &r.nodes))
        .collect();
    drop(pipelines);

    // Warm the caches; the warm-up answers are the quality run.
    let answers: Vec<Vec<String>> = reqs
        .iter()
        .map(|r| svcs[r.coll].rank_sqe_c(&r.text, &r.nodes))
        .collect();
    for (i, (a, want)) in answers.iter().zip(&refs).enumerate() {
        report.attempted += 1;
        if a != want {
            report.fail(format!("warm-up {}: service != SqePipeline", reqs[i].qid));
        }
    }
    check_quality(&mut report, &bed, &reqs, &answers, &refs, args.scale);
    let order = replay_order(reqs.len(), args.seed, 64);

    svcs.iter().for_each(QueryService::reset_metrics);
    let origin = Instant::now();
    let (clients, wall) = closed_loop(
        THREADS,
        args.untraced_s(),
        |_| Client::default(),
        |st, i| {
            let idx = order[i as usize % order.len()];
            let r = &reqs[idx];
            let t0 = Instant::now();
            let out = svcs[r.coll].rank_sqe_c(&r.text, &r.nodes);
            let t1 = Instant::now();
            st.latency_ms
                .push(ns_since(origin, t1), (t1 - t0).as_secs_f64() * 1e3);
            if out != refs[idx] {
                st.failures
                    .push(format!("request {i} ({}): service != SqePipeline", r.qid));
            }
        },
    );
    layers::add_peak_rss(&mut report);
    let mut latency = Series::new();
    for c in clients {
        latency.extend(&c.latency_ms);
        c.failures.into_iter().for_each(|f| report.fail(f));
    }
    let requests = latency.len();
    report.attempted += requests as u64;
    let (hits, lookups, busy) = svcs.iter().fold((0, 0, 0), |acc, s| {
        let m = s.metrics_snapshot();
        let busy = m.stages.last().map_or(0, |h| h.sum_nanos);
        (
            acc.0 + m.cache_hits,
            acc.1 + m.cache_hits + m.cache_misses,
            acc.2 + busy,
        )
    });
    let concurrency = busy as f64 / 1e9 / wall;
    report.note(format!(
        "untraced: {requests} requests in {wall:.3} s, cache hit rate {:.4}, achieved concurrency {concurrency:.3}",
        hits as f64 / lookups.max(1) as f64
    ));

    layers::add_setup(&mut report, &setups);
    layers::add_closed_loop(&mut report, &latency, wall);

    if args.trace {
        let traced = traced_phase(args, &bed, &svcs, &reqs, &order, &refs, &mut report);
        layers::add_traced(
            &mut report,
            args,
            TracedRun {
                achieved_concurrency: concurrency,
                ..traced
            },
        );
    }
    report
}

/// The traced run: the caches of the benchmark's own composition are
/// warmed through it (so motif-expansion builds are traced), then 2
/// clients compose each request from the layers and compare it with
/// the service's answer. Work counts are those of the timed requests;
/// only the expansion sizes come from the warm-up, where every build is.
fn traced_phase(
    args: &Args,
    bed: &TestBed,
    svcs: &[QueryService<'_>],
    reqs: &[Request],
    order: &[usize],
    refs: &[Vec<String>],
    report: &mut Report,
) -> TracedRun {
    let origin = Instant::now();
    let composers: Vec<Composer<'_>> = svcs
        .iter()
        .map(|s| {
            Composer::new(
                &bed.kb.graph,
                bed::sqe_config(),
                s.serve_config().cache_capacity,
            )
        })
        .collect();
    let mut trace = Trace::default();
    let mut warm_counts = Counts::default();
    let mut warm_tracer = Tracer::new(origin);
    let mut scratch = Scratch::default();
    for (i, r) in reqs.iter().enumerate() {
        let view = View::Mono(svcs[r.coll].searcher());
        let (out, _) = composers[r.coll].sqe_c(
            &mut warm_tracer,
            i as u64,
            &view,
            &r.text,
            &r.nodes,
            &mut scratch,
            &mut warm_counts,
        );
        report.attempted += 1;
        if out != refs[i] {
            report.fail(format!(
                "traced warm-up {}: composition != SqePipeline",
                r.qid
            ));
        }
    }
    trace.add(warm_tracer);

    svcs.iter().for_each(QueryService::reset_metrics);
    let (clients, _) = closed_loop(
        THREADS,
        args.seconds / 2.0,
        |_| TracedClient::new(origin),
        |st, i| {
            let r = &reqs[order[i as usize % order.len()]];
            let view = View::Mono(svcs[r.coll].searcher());
            let t0 = Instant::now();
            let (out, runs) = composers[r.coll].sqe_c(
                &mut st.tracer,
                i,
                &view,
                &r.text,
                &r.nodes,
                &mut st.scratch,
                &mut st.counts,
            );
            st.traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            composers[r.coll].count(&view, &r.text, &r.nodes, &runs, &mut st.counts);
            let t1 = Instant::now();
            let served = svcs[r.coll].rank_sqe_c(&r.text, &r.nodes);
            st.untraced_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            st.compare(served == out);
        },
    );
    let counts = Counts {
        expansions: warm_counts.expansions,
        ..Counts::default()
    };
    let mut run = TracedRun::collect(trace, counts, clients);
    report.attempted += run.compared;
    let (hits, lookups, evictions) = svcs.iter().fold((0, 0, 0), |acc, s| {
        let m = s.metrics_snapshot();
        (
            acc.0 + m.cache_hits,
            acc.1 + m.cache_hits + m.cache_misses,
            acc.2 + m.cache_evictions,
        )
    });
    run.cache_hit_rate = hits as f64 / lookups.max(1) as f64;
    run.cache_evictions = evictions;
    run
}
