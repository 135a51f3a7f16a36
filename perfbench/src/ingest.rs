//! `ingest_restart`: reads beside writes, then a restart. A chic
//! `QueryService` starts with the first three quarters of the collection
//! sealed. One writer streams the rest through `add_document` with a
//! `seal` every `SEAL_EVERY` documents (policy merges ride along); one
//! reader runs closed-loop `rank_sqe_c` over the chic paper queries
//! meanwhile. Then the restart: `force_merge`, `encode_snapshot` to
//! memory, `Snapshot::from_bytes`, `QueryService::from_snapshot` and one
//! query. Rounds repeat from the same sealed start until the run's time
//! is spent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use entitylink::Dictionary;
use searchlite::Index;
use sqe::{Clock, MonotonicClock, QueryService, ServeConfig, SqePipeline};
use sqe_store::{encode_snapshot, Snapshot, SnapshotContents};
use synthwiki::{Document, TestBed};

use crate::bed::{self, chic, Rng, SetupTimes};
use crate::compose::{Composer, Counts, View};
use crate::layers::{self, TracedClient, TracedRun};
use crate::report::Report;
use crate::stats::{median_of, Samples, Series};
use crate::trace::{maybe_span, Trace, Tracer};
use crate::warm::{paper_requests, replay_order, Request};
use crate::Args;

/// Documents between two seals.
const SEAL_EVERY: usize = 1_000;
/// Paper queries per round whose live answers are checked against
/// `SqePipeline` and the reopened service.
const CHECKS: usize = 20;

/// Where the sealed start ends and the streamed remainder begins.
fn split(docs: &[Document]) -> usize {
    docs.len() * 3 / 4
}

fn setup(args: &Args) -> ((TestBed, Index), SetupTimes) {
    let (bed, generate_s) = bed::generate(args.scale);
    let docs = chic(&bed);
    let (base, index_s) = bed::timed(|| bed::index_docs(&docs[..split(docs)]));
    let times = SetupTimes {
        generate_s,
        index_s,
        service_s: 0.0,
    };
    ((bed, base), times)
}

fn service<'a>(bed: &'a TestBed, base: &Index, clock: &Arc<MonotonicClock>) -> QueryService<'a> {
    let clock = Arc::clone(clock) as Arc<dyn Clock>;
    QueryService::with_clock(
        &bed.kb.graph,
        base,
        bed::sqe_config(),
        ServeConfig::default(),
        clock,
    )
}

/// What one round measured.
#[derive(Default)]
struct Round {
    /// `(start, end)` of every read and every seal, ns since `origin`.
    reads: Vec<(u64, u64)>,
    seals: Vec<(u64, u64)>,
    read_wall_s: f64,
    add_us: Samples,
    seal_ms: Samples,
    docs: usize,
    writer_s: f64,
    encode_ms: f64,
    decode_ms: f64,
    restart_ms: f64,
    bytes: usize,
    segments: Samples,
    merges: u64,
    invalidations: u64,
    cache_hits: u64,
    cache_lookups: u64,
    busy_s: f64,
    writer_trace: Option<Tracer>,
    restart_trace: Option<Tracer>,
    reader_trace: Option<TracedClient>,
}

struct World<'a> {
    bed: &'a TestBed,
    dict: &'a Dictionary,
    reqs: &'a [Request],
    order: &'a [usize],
    origin: Instant,
}

fn now(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One round: a fresh service from the sealed start, writer and reader
/// side by side, then the restart and its checks.
fn round(
    w: &World<'_>,
    svc: QueryService<'_>,
    k: usize,
    traced: bool,
    report: &mut Report,
) -> Round {
    let docs = chic(w.bed);
    let stream = &docs[split(docs)..];
    let queries: Vec<usize> = (0..w.reqs.len())
        .filter(|&i| w.reqs[i].coll == w.bed.dataset("chic2012").collection)
        .collect();
    let done = AtomicBool::new(false);
    let svc = &svc;
    let mut r = Round::default();
    let origin = w.origin;
    let composer = Composer::new(
        &w.bed.kb.graph,
        bed::sqe_config(),
        svc.serve_config().cache_capacity,
    );

    let (writer, reader) = std::thread::scope(|scope| {
        let (done, queries, composer) = (&done, &queries, &composer);
        let writer = scope.spawn(move || {
            let mut tr = traced.then(|| Tracer::new(origin));
            let (mut add_us, mut seal_ms, mut seals) = (Samples::new(), Samples::new(), Vec::new());
            let mut failures = Vec::new();
            let t0 = Instant::now();
            let seal =
                |tr: &mut Option<Tracer>, seals: &mut Vec<(u64, u64)>, seal_ms: &mut Samples| {
                    let s0 = now(origin);
                    let report = maybe_span(tr.as_mut(), "ingest.seal", 0, || svc.seal());
                    let s1 = now(origin);
                    if report.is_some() {
                        seals.push((s0, s1));
                        seal_ms.push((s1 - s0) as f64 / 1e6);
                    }
                };
            for (i, d) in stream.iter().enumerate() {
                let a0 = Instant::now();
                let added = maybe_span(tr.as_mut(), "ingest.add", i as u64, || {
                    svc.add_document(&d.id, &d.text)
                });
                add_us.push(a0.elapsed().as_secs_f64() * 1e6);
                if let Err(e) = added {
                    failures.push(format!("add_document {}: {e:?}", d.id));
                }
                if (i + 1) % SEAL_EVERY == 0 {
                    seal(&mut tr, &mut seals, &mut seal_ms);
                }
            }
            seal(&mut tr, &mut seals, &mut seal_ms);
            let writer_s = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (add_us, seal_ms, seals, writer_s, failures, tr)
        });
        let reader = scope.spawn(move || {
            let mut reads = Vec::new();
            let mut segments = Samples::new();
            let mut tracing = traced.then(|| TracedClient::new(origin));
            let mut epoch = svc.epoch();
            let t0 = Instant::now();
            let mut i = (k * 7919) as u64;
            while !done.load(Ordering::SeqCst) {
                let req = &w.reqs[queries[w.order[i as usize % w.order.len()] % queries.len()]];
                i += 1;
                let composed = tracing.as_mut().map(|st| {
                    let searcher = svc.searcher();
                    if searcher.epoch() != epoch {
                        epoch = searcher.epoch();
                        composer.cache().invalidate();
                    }
                    let view = View::Mono(searcher);
                    let c0 = Instant::now();
                    let (out, runs) = composer.sqe_c(
                        &mut st.tracer,
                        i,
                        &view,
                        &req.text,
                        &req.nodes,
                        &mut st.scratch,
                        &mut st.counts,
                    );
                    st.traced_ms.push(c0.elapsed().as_secs_f64() * 1e3);
                    composer.count(&view, &req.text, &req.nodes, &runs, &mut st.counts);
                    out
                });
                segments.push(svc.num_segments() as f64);
                let s0 = now(origin);
                let out = svc.rank_sqe_c(&req.text, &req.nodes);
                let s1 = now(origin);
                reads.push((s0, s1));
                // A seal between the two calls changes the corpus; only
                // answers from one view compare.
                if let (Some(st), Some(composed)) = (tracing.as_mut(), composed) {
                    st.untraced_ms.push((s1 - s0) as f64 / 1e6);
                    if svc.epoch() == epoch {
                        st.compare(composed == out);
                    }
                }
            }
            (reads, segments, t0.elapsed().as_secs_f64(), tracing)
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let (add_us, seal_ms, seals, writer_s, failures, wtr) = writer;
    for f in failures {
        report.fail(f);
    }
    r.docs = stream.len();
    report.attempted += stream.len() as u64 + seals.len() as u64;
    (r.add_us, r.seal_ms, r.seals, r.writer_s) = (add_us, seal_ms, seals, writer_s);
    let (reads, segments, read_wall_s, tracing) = reader;
    report.attempted += reads.len() as u64;
    (r.reads, r.segments, r.read_wall_s) = (reads, segments, read_wall_s);
    let m = svc.metrics_snapshot();
    (r.merges, r.invalidations) = (m.merges, m.invalidations);
    (r.cache_hits, r.cache_lookups) = (m.cache_hits, m.cache_hits + m.cache_misses);
    r.busy_s = m.stages.last().map_or(0, |h| h.sum_nanos) as f64 / 1e9;
    r.writer_trace = wtr;
    r.reader_trace = tracing;

    // Restart: compact, then reopen from an in-memory snapshot.
    let mut rtr = traced.then(|| Tracer::new(origin));
    maybe_span(rtr.as_mut(), "ingest.force_merge", 0, || svc.force_merge());
    let searcher = svc.searcher();
    let segs: Vec<&Index> = searcher.segments().iter().map(|s| s.index()).collect();
    let collections = [("chic", segs.as_slice())];
    let contents = SnapshotContents {
        graph: &w.bed.kb.graph,
        collections: &collections,
        dict: w.dict,
    };
    let e0 = Instant::now();
    let bytes = maybe_span(rtr.as_mut(), "store.encode", 0, || {
        encode_snapshot(&contents)
    });
    r.encode_ms = e0.elapsed().as_secs_f64() * 1e3;
    report.attempted += 1;
    let bytes = match bytes {
        Ok(b) => b,
        Err(e) => {
            report.fail(format!("encode_snapshot: {e:?}"));
            return r;
        }
    };
    r.bytes = bytes.len();
    let probe = &w.reqs[queries[k % queries.len()]];
    let t0 = Instant::now();
    let snapshot = maybe_span(rtr.as_mut(), "store.decode", 0, || {
        Snapshot::from_bytes(&bytes)
    });
    r.decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot = match snapshot {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("Snapshot::from_bytes: {e:?}"));
            return r;
        }
    };
    let reopened =
        QueryService::from_snapshot(&snapshot, "chic", bed::sqe_config(), ServeConfig::default());
    let reopened = match reopened {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("QueryService::from_snapshot: {e:?}"));
            return r;
        }
    };
    let first = reopened.rank_sqe_c(&probe.text, &probe.nodes);
    r.restart_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The live service must equal the sequential pipeline over its own
    // view, and the reopened service must answer as the live one does.
    let pipeline = SqePipeline::new(&w.bed.kb.graph, searcher.clone(), bed::sqe_config());
    if first != svc.rank_sqe_c(&probe.text, &probe.nodes) {
        report.fail(format!("round {k}: reopened first answer != live"));
    }
    if searcher.num_docs() != docs.len() {
        report.fail(format!(
            "round {k}: {} docs searchable, want {}",
            searcher.num_docs(),
            docs.len()
        ));
    }
    let mut rng = Rng::new(k as u64);
    for _ in 0..CHECKS {
        let req = &w.reqs[queries[rng.below(queries.len())]];
        let live = svc.rank_sqe_c(&req.text, &req.nodes);
        report.attempted += 1;
        if live != pipeline.rank_sqe_c(&req.text, &req.nodes) {
            report.fail(format!(
                "round {k} {}: live service != SqePipeline",
                req.qid
            ));
        } else if live != reopened.rank_sqe_c(&req.text, &req.nodes) {
            report.fail(format!("round {k} {}: reopened service != live", req.qid));
        }
    }
    r.restart_trace = rtr;
    r
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let clock = Arc::new(MonotonicClock::new());
    let ((bed, base), mut setups) = bed::set_up(
        args.setups,
        || setup(args),
        |(bed, base)| bed::throwaway(|| (service(bed, base, &clock), 0.0)),
    );
    let first = setups.serve(|| (service(&bed, &base, &clock), 0.0));
    let mut dict = Dictionary::new();
    dict.extend(bed.kb.linker_entries(&bed.space));
    let reqs = paper_requests(&bed);
    let order = replay_order(reqs.len(), args.seed, 16);
    let w = World {
        bed: &bed,
        reqs: &reqs,
        order: &order,
        dict: &dict,
        origin: Instant::now(),
    };

    // Untraced rounds, then (traced run) as many traced rounds. Every
    // round after the first starts from a fresh service over the same
    // sealed start.
    let start = Instant::now();
    let mut rounds = vec![round(&w, first, 0, false, &mut report)];
    // Peak memory of set-up and one round, the same work on every run.
    // Over all rounds it grew with how many rounds fit in the time, and
    // with the chance that one round's seals, merges and restart overlap
    // badly (283 against 310–330 MB).
    layers::add_peak_rss(&mut report);
    while start.elapsed().as_secs_f64() < args.untraced_s() {
        let svc = service(&bed, &base, &clock);
        rounds.push(round(&w, svc, rounds.len(), false, &mut report));
    }
    let mut traced_rounds = Vec::new();
    if args.trace {
        let start = Instant::now();
        while traced_rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
            let svc = service(&bed, &base, &clock);
            let k = rounds.len() + traced_rounds.len();
            traced_rounds.push(round(&w, svc, k, true, &mut report));
        }
    }

    let mut read = Series::new();
    let mut read_wall = 0.0;
    let mut read_rate = Vec::new();
    let mut seal = Samples::new();
    let mut docs_per_s = Vec::new();
    let mut restart = Vec::new();
    let mut busy = 0.0;
    for r in &rounds {
        busy += r.busy_s;
        for &(s0, s1) in &r.reads {
            read.push(s1, (s1 - s0) as f64 / 1e6);
        }
        read_wall += r.read_wall_s;
        read_rate.push(r.reads.len() as f64 / r.read_wall_s.max(1e-9));
        seal.extend(&r.seal_ms);
        docs_per_s.push(r.docs as f64 / r.writer_s.max(1e-9));
        restart.push(r.restart_ms);
    }
    let n = read.len();
    report.note(format!(
        "{} rounds, {n} reads during ingestion",
        rounds.len()
    ));
    layers::add_setup(&mut report, &setups);
    layers::add_latency(&mut report, &read);
    report.add_n(
        "throughput_qps",
        "req/s",
        median_of(&read_rate),
        rounds.len(),
    );
    report.add_n(
        "throughput.run_qps",
        "req/s",
        n as f64 / read_wall.max(1e-9),
        n,
    );
    report.add_n(
        "ingest_docs_per_s",
        "docs/s",
        median_of(&docs_per_s),
        rounds.len(),
    );
    report.add_n("seal_p50_ms", "ms", seal.median(), seal.len());
    report.add_n("restart_ms", "ms", median_of(&restart), rounds.len());

    if args.trace {
        let mut add = Samples::new();
        let mut seals = Samples::new();
        let mut during = Samples::new();
        let mut segments = Samples::new();
        let (mut merges, mut invalidations) = (0, 0);
        let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0);
        let mut trace = Trace::default();
        let mut readers = Vec::new();
        let (mut hits, mut lookups) = (0, 0);
        for r in traced_rounds {
            add.extend(&r.add_us);
            seals.extend(&r.seal_ms);
            segments.extend(&r.segments);
            merges += r.merges;
            invalidations += r.invalidations;
            hits += r.cache_hits;
            lookups += r.cache_lookups;
            encode.push(r.encode_ms);
            decode.push(r.decode_ms);
            bytes = r.bytes;
            for &(s0, s1) in &r.reads {
                if r.seals.iter().any(|&(a, b)| s0 < b && s1 > a) {
                    during.push((s1 - s0) as f64 / 1e6);
                }
            }
            // A round that failed its restart returns without that trace.
            r.writer_trace.into_iter().for_each(|t| trace.add(t));
            r.restart_trace.into_iter().for_each(|t| trace.add(t));
            readers.extend(r.reader_trace);
        }
        report.add_p50_p99("ingest.add_us", "us", &mut add);
        report.add_n("ingest.seal_ms.p50", "ms", seals.median(), seals.len());
        report.add("ingest.merges", "count", merges as f64);
        report.add("ingest.invalidations", "count", invalidations as f64);
        report.add_n(
            "ingest.segments_per_query",
            "count",
            segments.mean(),
            segments.len(),
        );
        report.add_n(
            "ingest.read_p99_during_seal_ms",
            "ms",
            during.quantile(0.99),
            during.len(),
        );
        report.add_n("store.encode_ms", "ms", median_of(&encode), encode.len());
        report.add_n("store.decode_ms", "ms", median_of(&decode), decode.len());
        report.add("store.bytes", "bytes", bytes as f64);
        let mut run = TracedRun::collect(trace, Counts::default(), readers);
        report.attempted += run.compared;
        run.cache_hit_rate = hits as f64 / lookups.max(1) as f64;
        run.achieved_concurrency = busy / read_wall.max(1e-9);
        layers::add_traced(&mut report, args, run);
    }
    report
}
