//! `sqe_c_sharded_longtail`: 2 closed-loop clients calling
//! `ShardedService::rank_sqe_c` on 4 shards over the chic collection.
//! Each request pairs a seeded `perturb_query` variant of a chic paper
//! query with 1–3 reciprocally linked KB articles drawn from a pool of
//! node sets far larger than the 4096-entry expansion cache, so most
//! lookups miss and motif expansion runs on most requests. It is also
//! the only workload that scatters and gathers over shards.

use std::sync::Arc;
use std::time::Instant;

use entitylink::{perturb_query, PerturbationModel};
use kbgraph::ArticleId;
use searchlite::{Analyzer, ShardRouter};
use sqe::{Clock, MonotonicClock, ServeConfig, ShardedService, SqePipeline};
use synthwiki::TestBed;

use crate::bed::{self, chic, digest, Rng, SetupTimes};
use crate::compose::{Composer, Counts, View};
use crate::layers::{self, Client, TracedClient, TracedRun};
use crate::report::Report;
use crate::stats::{ns_since, Series};
use crate::trace::Trace;
use crate::{closed_loop, Args, THREADS};

const SHARDS: usize = 4;
/// Distinct query-node sets, drawn uniformly per request; × 3 motif
/// sets per request, this is twelve times the expansion cache's 4096
/// entries, so about one lookup in twelve hits.
const NODE_SETS: usize = 16_384;
/// Every `CHECK_EVERY`-th request keeps a digest of its answer for the
/// reference check after the run.
const CHECK_EVERY: u64 = 16;
/// Sampled answers checked against `SqePipeline` per run.
const CHECKS: usize = 192;

fn generate(args: &Args) -> (TestBed, SetupTimes) {
    let (bed, generate_s) = bed::generate(args.scale);
    let times = SetupTimes {
        generate_s,
        ..SetupTimes::default()
    };
    (bed, times)
}

/// The sharded service, indexed through its own `add_document` and
/// `seal_all`; returns it with the seconds that indexing took.
fn service<'a>(bed: &'a TestBed, clock: &Arc<MonotonicClock>) -> (ShardedService<'a>, f64) {
    let svc = ShardedService::with_clock(
        &bed.kb.graph,
        Analyzer::english(),
        ShardRouter::new(SHARDS),
        bed::sqe_config(),
        ServeConfig::default(),
        Arc::clone(clock) as Arc<dyn Clock>,
    );
    let ((), index_s) = bed::timed(|| {
        for d in chic(bed) {
            svc.add_document(&d.id, &d.text)
                .expect("generated collection ids are unique");
        }
        svc.seal_all();
    });
    (svc, index_s)
}

/// The seeded request stream: request `i` is a pure function of the
/// seed and `i`.
struct Requests {
    seed: u64,
    texts: Vec<String>,
    node_sets: Vec<Vec<ArticleId>>,
}

impl Requests {
    fn new(bed: &TestBed, seed: u64) -> Requests {
        let texts: Vec<String> = bed
            .datasets
            .iter()
            .filter(|d| d.name.starts_with("chic"))
            .flat_map(|d| d.queries.iter().map(|q| q.text.clone()))
            .collect();
        let graph = &bed.kb.graph;
        let linked: Vec<ArticleId> = graph
            .articles()
            .filter(|&a| !graph.mutual_links(a).is_empty())
            .collect();
        let mut rng = Rng::new(seed ^ 0x005e_ed0f_10ad);
        let node_sets = (0..NODE_SETS)
            .map(|_| {
                let k = 1 + rng.below(3);
                let mut nodes: Vec<ArticleId> = Vec::with_capacity(k);
                while nodes.len() < k {
                    let a = linked[rng.below(linked.len())];
                    if !nodes.contains(&a) {
                        nodes.push(a);
                    }
                }
                nodes
            })
            .collect();
        Requests {
            seed,
            texts,
            node_sets,
        }
    }

    /// Text and nodes of request `i`; the node set is drawn uniformly.
    fn get(&self, i: u64) -> (String, &[ArticleId]) {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i);
        let set = &self.node_sets[rng.below(self.node_sets.len())];
        let text = &self.texts[rng.below(self.texts.len())];
        let variant = 1 + rng.below(8) as u64;
        let text = perturb_query(text, variant, &PerturbationModel::light());
        (text, set)
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let clock = Arc::new(MonotonicClock::new());
    let (bed, mut setups) = bed::set_up(
        args.setups,
        || generate(args),
        |bed| bed::throwaway(|| service(bed, &clock)),
    );
    let svc = setups.serve(|| service(&bed, &clock));
    let reqs = Requests::new(&bed, args.seed);

    svc.reset_metrics();
    let origin = Instant::now();
    let (clients, wall) = closed_loop(
        THREADS,
        args.untraced_s(),
        |_| Client::default(),
        |st, i| {
            let (text, nodes) = reqs.get(i);
            let t0 = Instant::now();
            let out = svc.rank_sqe_c(&text, nodes);
            let t1 = Instant::now();
            st.latency_ms
                .push(ns_since(origin, t1), (t1 - t0).as_secs_f64() * 1e3);
            if i % CHECK_EVERY == 0 {
                st.digests.push((i, digest(&out)));
            }
        },
    );
    layers::add_peak_rss(&mut report);
    let m = svc.metrics_snapshot();
    let mut latency = Series::new();
    let mut digests = Vec::new();
    for c in clients {
        latency.extend(&c.latency_ms);
        digests.extend(c.digests);
    }
    let requests = latency.len();
    report.attempted += requests as u64;
    digests.sort_unstable();
    let mono = bed::index_docs(chic(&bed));
    let pipeline = SqePipeline::from_index(&bed.kb.graph, &mono, bed::sqe_config());
    let step = (digests.len() / CHECKS).max(1);
    for &(i, d) in digests.iter().step_by(step) {
        let (text, nodes) = reqs.get(i);
        if digest(pipeline.rank_sqe_c(&text, nodes)) != d {
            report.fail(format!("request {i}: sharded service != SqePipeline"));
        }
    }
    let busy = m.stages.last().map_or(0, |h| h.sum_nanos);
    let concurrency = busy as f64 / 1e9 / wall;
    report.note(format!(
        "untraced: {requests} requests in {wall:.3} s, cache hit rate {:.4}, evictions {}, \
         achieved concurrency {concurrency:.3}, {} answers checked against SqePipeline",
        m.cache_hit_rate,
        m.cache_evictions,
        digests.len().div_ceil(step)
    ));

    layers::add_setup(&mut report, &setups);
    layers::add_closed_loop(&mut report, &latency, wall);

    if args.trace {
        let origin = Instant::now();
        let composer = Composer::new(
            &bed.kb.graph,
            bed::sqe_config(),
            ServeConfig::default().cache_capacity,
        );
        let view = View::of_sharded(&svc);
        svc.reset_metrics();
        let (clients, _) = closed_loop(
            THREADS,
            args.seconds / 2.0,
            |_| TracedClient::new(origin),
            |st, i| {
                let (text, nodes) = reqs.get(i);
                let t0 = Instant::now();
                let (out, runs) = composer.sqe_c(
                    &mut st.tracer,
                    i,
                    &view,
                    &text,
                    nodes,
                    &mut st.scratch,
                    &mut st.counts,
                );
                st.traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                composer.count(&view, &text, nodes, &runs, &mut st.counts);
                let t1 = Instant::now();
                let served = svc.rank_sqe_c(&text, nodes);
                st.untraced_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                st.compare(served == out);
            },
        );
        let mut run = TracedRun::collect(Trace::default(), Counts::default(), clients);
        report.attempted += run.compared;
        let m = svc.metrics_snapshot();
        run.cache_hit_rate = m.cache_hit_rate;
        run.cache_evictions = m.cache_evictions;
        run.achieved_concurrency = concurrency;
        layers::add_traced(&mut report, args, run);
    }
    report
}
