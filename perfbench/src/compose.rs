//! The traced request: one SQE request rebuilt from the layers' public
//! functions, in the order the services call them, with a span around
//! each call. Its output must equal the service's output.

use std::sync::Arc;

use kbgraph::{ArticleId, KbGraph};
use searchlite::ql::{self, QlScratch, SearchHit};
use searchlite::shard::{merge_top_k, ql_global_pcs, ql_rank_shard, ql_resolve_shard};
use searchlite::structured::Feature;
use searchlite::{Analyzer, DocId, Query, Searcher};
use sqe::cache::CachedExpansions;
use sqe::{
    combine, expand, CacheKey, ExpansionCache, MotifSet, QueryGraphBuilder, QueryGraphScratch,
    ShardedService, SqeConfig,
};

use crate::stats::Samples;
use crate::trace::Tracer;

/// The corpus view one request ranks against.
pub enum View {
    Mono(Searcher),
    /// Per shard: its searcher and its local → global ordinal table.
    Sharded(Vec<(Searcher, Arc<Vec<u32>>)>),
}

impl View {
    /// The current views of every shard of a sharded service.
    pub fn of_sharded(service: &ShardedService<'_>) -> View {
        View::Sharded(
            (0..service.num_shards())
                .map(|i| {
                    let s = service.shard_searcher(i).expect("shard index in range");
                    let o = service.shard_ordinals(i).expect("shard index in range");
                    (s, o)
                })
                .collect(),
        )
    }

    fn analyzer(&self) -> &Analyzer {
        match self {
            View::Mono(s) => s.analyzer(),
            View::Sharded(shards) => shards[0].0.analyzer(),
        }
    }

    fn searchers(&self) -> Vec<&Searcher> {
        match self {
            View::Mono(s) => vec![s],
            View::Sharded(shards) => shards.iter().map(|(s, _)| s).collect(),
        }
    }
}

/// Deterministic work counts of the traced requests of one thread.
#[derive(Debug, Default)]
pub struct Counts {
    /// Requests counted with [`Composer::count`].
    pub requests: u64,
    pub builds: u64,
    /// Expansions per build, by motif-set label.
    pub expansions: Vec<(&'static str, Samples)>,
    pub ql_calls: u64,
    pub postings_touched: u64,
    pub ids_materialized: u64,
    /// Candidate hits fed to the sharded merge.
    pub hits_merged: u64,
    pub features_text: Samples,
    pub features_titles: Samples,
    pub features_expansions: Samples,
}

impl Counts {
    pub fn merge(&mut self, other: Counts) {
        self.requests += other.requests;
        self.builds += other.builds;
        for (label, s) in other.expansions {
            self.expansions_of(label).extend(&s);
        }
        self.ql_calls += other.ql_calls;
        self.postings_touched += other.postings_touched;
        self.ids_materialized += other.ids_materialized;
        self.hits_merged += other.hits_merged;
        self.features_text.extend(&other.features_text);
        self.features_titles.extend(&other.features_titles);
        self.features_expansions.extend(&other.features_expansions);
    }

    fn expansions_of(&mut self, label: &'static str) -> &mut Samples {
        if let Some(i) = self.expansions.iter().position(|(l, _)| *l == label) {
            return &mut self.expansions[i].1;
        }
        self.expansions.push((label, Samples::new()));
        &mut self.expansions.last_mut().expect("just pushed").1
    }
}

/// One ranked run of a request, kept for counting after its span.
pub struct SetRun {
    pub hits: Vec<SearchHit>,
    query: Query,
    expansions: Option<CachedExpansions>,
}

/// Per-thread scratch buffers, as the services keep them.
#[derive(Debug, Default)]
pub struct Scratch {
    qg: QueryGraphScratch,
    ql: QlScratch,
}

/// The span name of a motif-expansion build for one motif set.
pub fn build_span(label: &str) -> &'static str {
    match label {
        "t" => "expand.build.t",
        "ts" => "expand.build.ts",
        "s" => "expand.build.s",
        _ => "expand.build.other",
    }
}

/// Short label of the three motif sets SQE_C combines.
pub fn set_label(motifs: &MotifSet) -> &'static str {
    let fp = motifs.fingerprint();
    if fp == MotifSet::triangular().fingerprint() {
        "t"
    } else if fp == MotifSet::t_and_s().fingerprint() {
        "ts"
    } else if fp == MotifSet::square().fingerprint() {
        "s"
    } else {
        "other"
    }
}

/// The layers a request passes through, with the benchmark's own
/// expansion cache (same capacity as the service's).
pub struct Composer<'a> {
    graph: &'a KbGraph,
    cfg: SqeConfig,
    cache: ExpansionCache,
}

impl<'a> Composer<'a> {
    pub fn new(graph: &'a KbGraph, cfg: SqeConfig, cache_capacity: usize) -> Composer<'a> {
        Composer {
            graph,
            cfg,
            cache: ExpansionCache::new(cache_capacity),
        }
    }

    pub fn cache(&self) -> &ExpansionCache {
        &self.cache
    }

    /// SQE_C: three expanded runs, id mapping, rank-range stitch. The
    /// runs are returned for [`Composer::count`], which the caller runs
    /// outside the timed request.
    #[allow(clippy::too_many_arguments)]
    pub fn sqe_c(
        &self,
        tr: &mut Tracer,
        req: u64,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        scratch: &mut Scratch,
        counts: &mut Counts,
    ) -> (Vec<String>, Vec<SetRun>) {
        let root = tr.begin("request", req);
        let mut runs = Vec::with_capacity(3);
        let mut ids: Vec<Vec<String>> = Vec::with_capacity(3);
        for motifs in [
            MotifSet::triangular(),
            MotifSet::t_and_s(),
            MotifSet::square(),
        ] {
            let run = self.rank_set(tr, req, view, text, nodes, &motifs, scratch, counts);
            ids.push(self.ids(tr, req, view, &run.hits));
            runs.push(run);
        }
        let depth = self.cfg.depth;
        let out = tr.span("combine.stitch", req, || {
            combine::sqe_c(&ids[0], &ids[1], &ids[2], depth)
        });
        tr.end(root);
        (out, runs)
    }

    /// One expanded run: cache lookup (motif expansion on a miss), query
    /// build, ranking.
    #[allow(clippy::too_many_arguments)]
    pub fn rank_set(
        &self,
        tr: &mut Tracer,
        req: u64,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut Scratch,
        counts: &mut Counts,
    ) -> SetRun {
        let expansions = self.expansions(tr, req, nodes, motifs, scratch, counts);
        let (graph, analyzer, cfg) = (self.graph, view.analyzer(), &self.cfg.expand);
        let query = tr.span("query.build", req, || {
            expand::build_query(graph, text, nodes, &expansions, analyzer, cfg)
        });
        let hits = self.rank(tr, req, view, &query, scratch, counts);
        SetRun {
            hits,
            query,
            expansions: Some(expansions),
        }
    }

    /// Counts the work of one finished request from its runs: features
    /// by query part, and the postings each ranking may touch.
    pub fn count(
        &self,
        view: &View,
        text: &str,
        nodes: &[ArticleId],
        runs: &[SetRun],
        counts: &mut Counts,
    ) {
        let analyzer = view.analyzer();
        counts.requests += 1;
        for run in runs {
            counts.ql_calls += 1;
            counts.postings_touched += postings_touched(view, &run.query);
            counts.ids_materialized += run.hits.len() as u64;
            let part = expand::user_part(text, analyzer);
            counts.features_text.push(part.len() as f64);
            if let Some(expansions) = &run.expansions {
                let part = expand::entities_part(self.graph, nodes, analyzer);
                counts.features_titles.push(part.len() as f64);
                let max = self.cfg.expand.max_expansions;
                let part = expand::expansion_part_from(self.graph, expansions, analyzer, max);
                counts.features_expansions.push(part.len() as f64);
            }
        }
    }

    /// The unexpanded ladder rung: the user's keywords only.
    pub fn rank_unexpanded(
        &self,
        tr: &mut Tracer,
        req: u64,
        view: &View,
        text: &str,
        scratch: &mut Scratch,
        counts: &mut Counts,
    ) -> SetRun {
        let analyzer = view.analyzer();
        let query = tr.span("query.build", req, || expand::user_part(text, analyzer));
        let hits = self.rank(tr, req, view, &query, scratch, counts);
        SetRun {
            hits,
            query,
            expansions: None,
        }
    }

    fn expansions(
        &self,
        tr: &mut Tracer,
        req: u64,
        nodes: &[ArticleId],
        motifs: &MotifSet,
        scratch: &mut Scratch,
        counts: &mut Counts,
    ) -> CachedExpansions {
        let key = CacheKey::new(nodes, motifs.fingerprint());
        if let Some(hit) = tr.span("cache.get", req, || self.cache.get(&key)) {
            return hit;
        }
        let label = set_label(motifs);
        let graph = self.graph;
        let qg = tr.span(build_span(label), req, || {
            QueryGraphBuilder::from_set(graph, motifs).build_with_scratch(nodes, &mut scratch.qg)
        });
        counts.builds += 1;
        counts.expansions_of(label).push(qg.expansions.len() as f64);
        let expansions: CachedExpansions = Arc::new(qg.expansions);
        let value = Arc::clone(&expansions);
        tr.span("cache.insert", req, || self.cache.insert(key, value));
        expansions
    }

    fn rank(
        &self,
        tr: &mut Tracer,
        req: u64,
        view: &View,
        query: &Query,
        scratch: &mut Scratch,
        counts: &mut Counts,
    ) -> Vec<SearchHit> {
        let (params, depth) = (self.cfg.ql, self.cfg.depth);
        match view {
            View::Mono(searcher) => tr.span("ql.rank", req, || {
                ql::rank_with_scratch(searcher, query, params, depth, &mut scratch.ql)
            }),
            View::Sharded(shards) => {
                let root = tr.begin("ql.rank", req);
                let pos = scratch.ql.positional();
                let partials: Vec<_> = tr.span("shard.resolve", req, || {
                    shards
                        .iter()
                        .map(|(s, _)| ql_resolve_shard(s, query, pos))
                        .collect()
                });
                let pcs = tr.span("shard.gather", req, || ql_global_pcs(&partials));
                let phase = tr.begin("shard.score", req);
                let mut all: Vec<(u32, f64)> = Vec::new();
                for ((s, ordinals), partial) in shards.iter().zip(&partials) {
                    let one = tr.begin("shard.score_one", req);
                    for (local, score) in ql_rank_shard(s, partial, &pcs, params, depth) {
                        let global = ordinals.get(local as usize).copied().unwrap_or(u32::MAX);
                        all.push((global, score));
                    }
                    tr.end(one);
                }
                tr.end(phase);
                counts.hits_merged += all.len() as u64;
                let hits = tr.span("shard.merge", req, || merge_top_k(all, depth));
                tr.end(root);
                hits
            }
        }
    }

    /// External ids of `hits`; an id no view holds maps to "" so the
    /// output comparison reports it.
    pub fn ids(&self, tr: &mut Tracer, req: u64, view: &View, hits: &[SearchHit]) -> Vec<String> {
        tr.span("combine.ids", req, || match view {
            View::Mono(s) => hits
                .iter()
                .map(|h| s.external_id(h.doc).to_owned())
                .collect(),
            View::Sharded(shards) => hits
                .iter()
                .map(|h| {
                    shards
                        .iter()
                        .find_map(|(s, ordinals)| {
                            let local = ordinals.binary_search(&h.doc.0).ok()?;
                            Some(s.external_id(DocId(u32::try_from(local).ok()?)).to_owned())
                        })
                        .unwrap_or_default()
                })
                .collect(),
        })
    }
}

/// Σ document frequency of every term of every feature of `query`, over
/// every shard: the postings the ranking may touch. A deterministic count.
pub fn postings_touched(view: &View, query: &Query) -> u64 {
    let searchers = view.searchers();
    let mut total = 0u64;
    for wf in query.features() {
        let tokens: &[String] = match &wf.feature {
            Feature::Term(t) => std::slice::from_ref(t),
            Feature::Phrase(ts) => ts,
            Feature::Unordered { tokens, .. } => tokens,
        };
        for tok in tokens {
            for s in &searchers {
                if let Some(t) = s.term_id(tok) {
                    total += s.doc_freq(t) as u64;
                }
            }
        }
    }
    total
}
