//! Sharded scatter-gather serving: N independent shards behind one
//! service, bit-identical to a single-shard build.
//!
//! [`ShardedService`] is the shared [`Service`] over the [`Sharded`]
//! corpus. It routes every document to one of N shards by a
//! deterministic hash of its external id ([`ShardRouter`]); each shard
//! is its own [`SegmentedIndex`] with its own seal/merge lifecycle and
//! its own published [`Searcher`] view. A query is *scattered*: each
//! shard resolves it locally and reports integer statistic
//! contributions; the *gather* step sums those integers into the exact
//! global statistics a monolithic index would hold, derives the f64
//! smoothing terms once, scores per shard, and merges the per-shard
//! top-k lists under the `scorecmp` total order (see
//! [`searchlite::shard`]). Run files written from the merged ranking
//! are therefore byte-identical for any shard count and any routing.
//!
//! # Identity of results
//!
//! Hits carry the **global ingest ordinal** as their [`DocId`]: the
//! position the document would occupy in a monolithic build ingesting
//! the same sequence. Per-shard local ids are monotone in that ordinal
//! (documents append in arrival order), so per-shard top-k lists mapped
//! through each shard's ordinal table merge into exactly the monolithic
//! top-k, ties and all.
//!
//! # Epoch vector
//!
//! Each shard publishes independently; [`ShardedService::epoch_vector`]
//! exposes the per-shard segment-set epochs. Sealing one shard bumps
//! exactly one vector entry and invalidates the shared expansion cache
//! exactly once — republishing an unchanged shard leaves the cache warm.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use kbgraph::KbGraph;
use searchlite::bm25::Bm25Params;
use searchlite::index::PositionalScratch;
use searchlite::ql::{QlParams, QlScratch, SearchHit};
use searchlite::shard::{
    bm25_global_stats, bm25_rank_shard, bm25_resolve_shard, merge_top_k, ql_global_pcs,
    ql_rank_shard, ql_resolve_shard, Bm25ShardResolve, QlShardResolve,
};
use searchlite::{Analyzer, DocId, IngestError, Query, SealReport, Searcher, SegmentedIndex, ShardRouter};

use crate::metrics::{Clock, NullClock};
use crate::pipeline::SqeConfig;
use crate::serve::{Corpus, ServeConfig, Service};

/// The sharded SQE query service: scatter-gather over N shards with
/// exact-integer global statistics, a shared expansion cache, the
/// work-stealing batch executor, and per-shard live ingestion.
pub type ShardedService<'a> = Service<'a, Sharded>;

/// The mutable side of a shard set: per-shard corpora plus the global
/// ordinal assignment.
struct ShardedLive {
    shards: Vec<SegmentedIndex>,
    /// Per shard: local doc id → global ingest ordinal. Strictly
    /// increasing per shard (documents append in global arrival order).
    ordinals: Vec<Vec<u32>>,
    next_ordinal: u32,
}

/// One shard's published immutable view: a pinned [`Searcher`] plus the
/// ordinal table snapshot that maps its local doc ids to global
/// ordinals.
#[derive(Clone)]
pub struct ShardView {
    searcher: Searcher,
    ordinals: Arc<Vec<u32>>,
}

/// The corpus of a [`ShardedService`]: N segmented shards, the router
/// that assigns documents to them, and the published shard-set view.
pub struct Sharded {
    router: ShardRouter,
    /// Serializes maintenance (seals/merges) across all shards. Lock
    /// order: `maint` → `live` → `views`, always.
    maint: Mutex<()>,
    live: Mutex<ShardedLive>,
    /// The published per-shard views, swapped as one `Arc` so a query
    /// (or batch) pins a consistent shard set for its whole lifetime.
    views: RwLock<Arc<Vec<ShardView>>>,
}

/// Why a caller-supplied ordinal table (see [`ShardedService::from_shards`])
/// was rejected. Every variant names the offending shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrdinalTableError {
    /// The table does not hold one ordinal per document of its shard
    /// (sealed and buffered alike).
    Length {
        /// The shard.
        shard: usize,
        /// Documents the shard holds.
        docs: usize,
        /// Entries in its table.
        len: usize,
    },
    /// The table is not strictly increasing at position `at`.
    NotIncreasing {
        /// The shard.
        shard: usize,
        /// First position whose ordinal is not above its predecessor's.
        at: usize,
    },
    /// Two shards claim the same global ordinal.
    Overlap {
        /// The shard.
        shard: usize,
        /// The other shard claiming `ordinal`.
        other: usize,
        /// The doubly claimed ordinal.
        ordinal: u32,
    },
}

impl OrdinalTableError {
    /// The shard whose table was rejected.
    pub fn shard(&self) -> usize {
        match self {
            OrdinalTableError::Length { shard, .. }
            | OrdinalTableError::NotIncreasing { shard, .. }
            | OrdinalTableError::Overlap { shard, .. } => *shard,
        }
    }
}

impl fmt::Display for OrdinalTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrdinalTableError::Length { shard, docs, len } => write!(
                f,
                "shard {shard} holds {docs} documents but its ordinal table has {len} entries"
            ),
            OrdinalTableError::NotIncreasing { shard, at } => write!(
                f,
                "ordinal table of shard {shard} is not strictly increasing at position {at}"
            ),
            OrdinalTableError::Overlap {
                shard,
                other,
                ordinal,
            } => write!(f, "shards {other} and {shard} both claim global ordinal {ordinal}"),
        }
    }
}

impl std::error::Error for OrdinalTableError {}

/// Checks caller-supplied ordinal tables against their shards: one
/// strictly increasing table per shard, one entry per document, no
/// ordinal claimed twice. A missing table counts as empty.
fn validate_ordinals(
    shards: &[SegmentedIndex],
    ordinals: &[Vec<u32>],
) -> Result<(), OrdinalTableError> {
    let mut owners: Vec<(u32, usize)> = Vec::new();
    for shard in 0..shards.len().max(ordinals.len()) {
        let docs = shards
            .get(shard)
            .map_or(0, |s| s.num_sealed_docs() + s.num_buffered_docs());
        let table = ordinals.get(shard).map(Vec::as_slice).unwrap_or_default();
        if table.len() != docs {
            return Err(OrdinalTableError::Length {
                shard,
                docs,
                len: table.len(),
            });
        }
        if let Some(at) = table.iter().zip(table.iter().skip(1)).position(|(a, b)| a >= b) {
            return Err(OrdinalTableError::NotIncreasing { shard, at: at + 1 });
        }
        owners.extend(table.iter().map(|&o| (o, shard)));
    }
    owners.sort_unstable();
    match owners
        .iter()
        .zip(owners.iter().skip(1))
        .find(|(a, b)| a.0 == b.0)
    {
        Some((&(ordinal, other), &(_, shard))) => Err(OrdinalTableError::Overlap {
            shard,
            other,
            ordinal,
        }),
        None => Ok(()),
    }
}

impl Sharded {
    /// Assembles the corpus. `shards` takes precedence over the router's
    /// count: the router is re-derived over `shards.len()` with the same
    /// salt, and an empty shard list becomes one empty shard.
    fn new(router: ShardRouter, mut shards: Vec<SegmentedIndex>, mut ordinals: Vec<Vec<u32>>) -> Sharded {
        if shards.is_empty() {
            // Degenerate input: serve an empty single-shard corpus
            // rather than a service that cannot answer anything.
            shards.push(SegmentedIndex::new(Analyzer::english()));
        }
        ordinals.resize(shards.len(), Vec::new());
        let next_ordinal = ordinals
            .iter()
            .flat_map(|o| o.iter().copied())
            .max()
            .map_or(0, |m| m.saturating_add(1));
        let views: Vec<ShardView> = shards
            .iter()
            .zip(&ordinals)
            .map(|(shard, ords)| ShardView {
                searcher: shard.searcher(),
                ordinals: Arc::new(ords.clone()),
            })
            .collect();
        Sharded {
            router: ShardRouter::with_salt(shards.len(), router.salt()),
            maint: Mutex::new(()),
            live: Mutex::new(ShardedLive {
                shards,
                ordinals,
                next_ordinal,
            }),
            views: RwLock::new(Arc::new(views)),
        }
    }

    fn maint_lock(&self) -> MutexGuard<'_, ()> {
        match self.maint.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn live_lock(&self) -> MutexGuard<'_, ShardedLive> {
        match self.live.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn views_read(&self) -> RwLockReadGuard<'_, Arc<Vec<ShardView>>> {
        match self.views.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Publishes a refreshed view for one shard; true when that shard's
    /// epoch advanced (the caller then invalidates the shared expansion
    /// cache, exactly once). Republishing the same epoch returns false.
    fn publish_shard(&self, shard: usize, searcher: Searcher, ordinals: Arc<Vec<u32>>) -> bool {
        // The successor vector is built outside the write lock; the
        // maintenance mutex (held by the only caller, `seal_shard`)
        // serializes publishes, so no concurrent publish can be lost.
        let current = self.pin();
        let mut next: Vec<ShardView> = current.as_ref().clone();
        let Some(slot) = next.get_mut(shard) else {
            return false;
        };
        let advanced = searcher.epoch() > slot.searcher.epoch();
        if advanced || searcher.epoch() == slot.searcher.epoch() {
            *slot = ShardView { searcher, ordinals };
            let next = Arc::new(next);
            let mut views = match self.views.write() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            *views = next;
        }
        advanced
    }
}

impl Corpus for Sharded {
    type View = Arc<Vec<ShardView>>;

    fn pin(&self) -> Arc<Vec<ShardView>> {
        Arc::clone(&self.views_read())
    }

    fn analyzer(view: &Arc<Vec<ShardView>>) -> &Analyzer {
        view.first()
            .map(|v| v.searcher.analyzer())
            .expect("invariant: a sharded service always has at least one shard")
    }

    fn rank(
        view: &Arc<Vec<ShardView>>,
        query: &Query,
        params: QlParams,
        k: usize,
        scratch: &mut QlScratch,
    ) -> Vec<SearchHit> {
        scatter_ql(view, query, params, k, scratch.positional())
    }

    /// Each shard's ordinal table is strictly increasing, so the owning
    /// shard of a global-ordinal hit is found by binary search.
    fn external_ids(view: &Arc<Vec<ShardView>>, hits: &[SearchHit]) -> Vec<String> {
        hits.iter()
            .map(|h| {
                view.iter()
                    .find_map(|v| {
                        v.ordinals.binary_search(&h.doc.0).ok().map(|local| {
                            let local = u32::try_from(local)
                                .expect("invariant: per-shard doc count fits in u32");
                            v.searcher.external_id(DocId(local)).to_owned()
                        })
                    })
                    .expect("invariant: hit ordinals originate from these views")
            })
            .collect()
    }

    /// The sum of the epoch vector — monotone under any seal or merge on
    /// any shard.
    fn epoch(&self) -> u64 {
        self.views_read().iter().map(|v| v.searcher.epoch()).sum()
    }

    fn searchers(view: &Arc<Vec<ShardView>>) -> Vec<&Searcher> {
        view.iter().map(|v| &v.searcher).collect()
    }
}

impl<'a> Service<'a, Sharded> {
    /// Creates an empty service with `router.shards()` empty shards and
    /// the no-op [`NullClock`].
    pub fn new(
        graph: &'a KbGraph,
        analyzer: Analyzer,
        router: ShardRouter,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Self {
        ShardedService::with_clock(graph, analyzer, router, cfg, serve_cfg, Arc::new(NullClock))
    }

    /// [`ShardedService::new`] with an injected clock.
    pub fn with_clock(
        graph: &'a KbGraph,
        analyzer: Analyzer,
        router: ShardRouter,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let shards: Vec<SegmentedIndex> = (0..router.shards())
            .map(|_| SegmentedIndex::new(analyzer.clone()))
            .collect();
        let ordinals = vec![Vec::new(); shards.len()];
        Service::assemble(graph, Sharded::new(router, shards, ordinals), cfg, serve_cfg, clock)
    }

    /// Creates a service over existing per-shard corpora — the reopen
    /// path after loading one snapshot per shard. `ordinals` must map
    /// each shard's local doc ids to the global ingest ordinals of the
    /// original run: one strictly increasing table per shard with one
    /// entry per document, no ordinal in two tables. The caller recovers
    /// them from its ingest manifest; a table breaking that contract is
    /// rejected here rather than panicking at query time. `shards` takes
    /// precedence over the router's count: the router is re-derived
    /// over `shards.len()` with the same salt.
    pub fn from_shards(
        graph: &'a KbGraph,
        router: ShardRouter,
        shards: Vec<SegmentedIndex>,
        ordinals: Vec<Vec<u32>>,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Result<Self, OrdinalTableError> {
        validate_ordinals(&shards, &ordinals)?;
        let corpus = Sharded::new(router, shards, ordinals);
        Ok(Service::assemble(graph, corpus, cfg, serve_cfg, Arc::new(NullClock)))
    }

    /// Reopens a sharded deployment from one store snapshot per shard
    /// (each holding the collection under `collection`); see
    /// [`ShardedService::from_shards`] for the `ordinals` contract. A
    /// rejected ordinal table surfaces as
    /// [`StoreError::AuditRejected`](sqe_store::StoreError::AuditRejected)
    /// naming the shard.
    pub fn from_shard_snapshots(
        graph: &'a KbGraph,
        snapshots: &[sqe_store::Snapshot],
        collection: &str,
        router: ShardRouter,
        ordinals: Vec<Vec<u32>>,
        cfg: SqeConfig,
        serve_cfg: ServeConfig,
    ) -> Result<Self, sqe_store::StoreError> {
        let mut shards = Vec::with_capacity(snapshots.len());
        for snap in snapshots {
            let searcher = snap.searcher(collection)?;
            shards.push(SegmentedIndex::from_segments(
                searcher.analyzer().clone(),
                searcher.segments().to_vec(),
            ));
        }
        ShardedService::from_shards(graph, router, shards, ordinals, cfg, serve_cfg).map_err(|e| {
            sqe_store::StoreError::AuditRejected {
                what: format!("ordinal table of shard {}", e.shard()),
                report: e.to_string(),
            }
        })
    }

    // ----------------------------------------------------- accessors --

    /// The document router.
    pub fn router(&self) -> ShardRouter {
        self.corpus.router
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.corpus.router.shards()
    }

    /// The per-shard segment-set epochs of the published views. Sealing
    /// shard `s` bumps exactly entry `s`.
    pub fn epoch_vector(&self) -> Vec<u64> {
        self.corpus.views_read().iter().map(|v| v.searcher.epoch()).collect()
    }

    /// A pinned clone of one shard's published searcher.
    pub fn shard_searcher(&self, shard: usize) -> Option<Searcher> {
        self.corpus.views_read().get(shard).map(|v| v.searcher.clone())
    }

    /// One shard's local-id → global-ordinal table (pinned snapshot).
    pub fn shard_ordinals(&self, shard: usize) -> Option<Arc<Vec<u32>>> {
        self.corpus.views_read().get(shard).map(|v| Arc::clone(&v.ordinals))
    }

    /// Documents waiting in shard buffers (invisible until sealed).
    pub fn num_buffered_docs(&self) -> usize {
        self.corpus.live_lock().shards.iter().map(SegmentedIndex::num_buffered_docs).sum()
    }

    /// Searchable documents across all shards.
    pub fn num_docs(&self) -> usize {
        self.corpus.views_read().iter().map(|v| v.searcher.num_docs()).sum()
    }

    // ----------------------------------------------------- ingestion --

    /// Routes the document to its shard and buffers it there; it becomes
    /// searchable when that shard seals. Returns the **global ingest
    /// ordinal** as the document id — the id a monolithic build would
    /// have assigned. Duplicate external ids are rejected across the
    /// *whole* deployment: the owning shard checks its own corpus, and
    /// every other shard is probed too, so an id that routed differently
    /// in a previous life (different shard count or salt) still cannot
    /// be ingested twice.
    pub fn add_document(&self, external_id: &str, text: &str) -> Result<DocId, IngestError> {
        self.timed_ingest(|corpus| {
            let mut live = corpus.live_lock();
            let target = corpus.router.route(external_id);
            let ShardedLive {
                shards,
                ordinals,
                next_ordinal,
            } = &mut *live;
            let duplicate_elsewhere = shards
                .iter()
                .enumerate()
                .any(|(s, shard)| s != target && shard.contains_external_id(external_id));
            if duplicate_elsewhere {
                return Err(IngestError::DuplicateExternalId {
                    external_id: external_id.to_owned(),
                });
            }
            let shard = shards
                .get_mut(target)
                .expect("invariant: router output bounded by shard count");
            shard.add_document(external_id, text).map(|_local| {
                let global = *next_ordinal;
                ordinals
                    .get_mut(target)
                    .expect("invariant: one ordinal table per shard")
                    .push(global);
                *next_ordinal = next_ordinal.saturating_add(1);
                DocId(global)
            })
        })
    }

    /// Seals one shard's ingest buffer into a new immutable segment,
    /// runs that shard's merge policy, and publishes its refreshed view.
    /// Returns `None` (and changes nothing) when the buffer is empty or
    /// the shard index is out of range. Exactly one epoch-vector entry
    /// advances and the shared cache is invalidated exactly once.
    ///
    /// Split-phase like [`QueryService::seal`](crate::serve::QueryService::seal): segment builds and
    /// merges run on detached state, so ingestion into *other* shards
    /// and all queries proceed concurrently.
    pub fn seal_shard(&self, shard: usize) -> Option<SealReport> {
        let t0 = self.clock.now_nanos();
        let _maint = self.corpus.maint_lock();
        let pending = self.corpus.live_lock().shards.get_mut(shard)?.begin_seal()?;
        // lint:allow(must-audit-after-mutation) — IndexAudit runs inside PendingSeal::build
        let built = pending.build();
        let (mut report, task) = {
            let mut live = self.corpus.live_lock();
            let s = live
                .shards
                .get_mut(shard)
                .expect("invariant: shard index validated by begin_seal above");
            let report = s.commit_seal(built);
            (report, s.merge_task())
        };
        let outcome = task.run_policy();
        let (searcher, ords) = {
            let mut live = self.corpus.live_lock();
            let ords = live.ordinals.get(shard).cloned().unwrap_or_default();
            let s = live
                .shards
                .get_mut(shard)
                .expect("invariant: shard index validated by begin_seal above");
            if let Some(merges) = s.install_merge(outcome) {
                report.merges = merges;
            }
            (s.searcher(), ords)
        };
        if self.corpus.publish_shard(shard, searcher, Arc::new(ords)) {
            self.invalidate_cache();
        }
        self.record_seal(t0, &report);
        Some(report)
    }

    /// Seals every shard with a non-empty buffer; returns how many
    /// sealed.
    pub fn seal_all(&self) -> usize {
        (0..self.num_shards())
            .filter(|&s| self.seal_shard(s).is_some())
            .count()
    }

    // ------------------------------------------------ scatter-gather --

    /// Scatter-gather QL over a raw structured query: phase-1 resolve on
    /// every shard, exact-integer gather, phase-2 scoring, ordinal
    /// mapping, `scorecmp` merge. Hit ids are global ingest ordinals.
    pub fn rank_ql(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        let views = self.corpus.pin();
        let mut pos = PositionalScratch::new();
        scatter_ql(&views, query, self.cfg.ql, k, &mut pos)
    }

    /// Scatter-gather BM25 over a raw structured query (global `N`, df
    /// and avgdl from exact integer sums). Hit ids are global ordinals.
    pub fn rank_bm25(&self, query: &Query, params: Bm25Params, k: usize) -> Vec<SearchHit> {
        let views = self.corpus.pin();
        let partials: Vec<Bm25ShardResolve> = views
            .iter()
            .map(|v| bm25_resolve_shard(&v.searcher, query))
            .collect();
        let globals = bm25_global_stats(&partials);
        let mut all: Vec<(u32, f64)> = Vec::new();
        for (view, partial) in views.iter().zip(&partials) {
            for (local, score) in bm25_rank_shard(&view.searcher, partial, &globals, params, k) {
                all.push((global_ordinal(view, local), score));
            }
        }
        merge_top_k(all, k)
    }
}

/// Maps a shard-local doc id to its global ingest ordinal.
fn global_ordinal(view: &ShardView, local: u32) -> u32 {
    view.ordinals
        .get(local as usize)
        .copied()
        .expect("invariant: every searchable doc has a recorded global ordinal")
}

/// The full sharded QL pipeline over a pinned shard set: resolve on
/// every shard, gather exact-integer global stats, score per shard, map
/// to global ordinals, merge under the `scorecmp` total order.
fn scatter_ql(
    views: &[ShardView],
    query: &Query,
    params: QlParams,
    k: usize,
    pos: &mut PositionalScratch,
) -> Vec<SearchHit> {
    let partials: Vec<QlShardResolve> = views
        .iter()
        .map(|v| ql_resolve_shard(&v.searcher, query, pos))
        .collect();
    let pcs = ql_global_pcs(&partials);
    let mut all: Vec<(u32, f64)> = Vec::new();
    for (view, partial) in views.iter().zip(&partials) {
        for (local, score) in ql_rank_shard(&view.searcher, partial, &pcs, params, k) {
            all.push((global_ordinal(view, local), score));
        }
    }
    merge_top_k(all, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::QueryService;
    use crate::spec::MotifSet;
    use kbgraph::{ArticleId, GraphBuilder};
    use searchlite::bm25;
    use searchlite::ql::QlParams;
    use sqe_admission::{Deadline, ServeOutcome};
    use searchlite::{Index, IndexBuilder};

    const DOCS: [(&str, &str); 8] = [
        ("d-cable-0", "cable car climbing the peak"),
        ("d-funi-0", "old funicular near the village"),
        ("d-funi-1", "the funicular station entrance"),
        ("d-noise-0", "a market square with fruit"),
        ("d-cable-1", "cable car cables over the gorge"),
        ("d-funi-2", "funicular rails in the fog"),
        ("d-noise-1", "street art on the plaza walls"),
        ("d-mixed-0", "cable car to the funicular museum"),
    ];

    fn world() -> (KbGraph, Index, ArticleId) {
        let mut b = GraphBuilder::new();
        let cable = b.add_article("cable car");
        let funi = b.add_article("funicular");
        let cat = b.add_category("mountain railways");
        b.add_mutual_link(cable, funi);
        b.add_membership(cable, cat);
        b.add_membership(funi, cat);
        let graph = b.build();

        let mut ib = IndexBuilder::new(Analyzer::plain());
        for (id, text) in DOCS {
            ib.add_document(id, text).expect("unique test ids");
        }
        (graph, ib.build(), cable)
    }

    fn queries(cable: ArticleId) -> Vec<(String, Vec<ArticleId>)> {
        vec![
            ("cable car".into(), vec![cable]),
            ("funicular station".into(), vec![cable]),
            ("market fruit".into(), vec![]),
            ("cable car".into(), vec![cable]), // repeat: cache hit
        ]
    }

    /// Builds a sharded service by routing DOCS and sealing every shard.
    fn sharded_service<'g>(
        graph: &'g KbGraph,
        shards: usize,
        salt: u64,
        workers: usize,
    ) -> ShardedService<'g> {
        let service = ShardedService::new(
            graph,
            Analyzer::plain(),
            ShardRouter::with_salt(shards, salt),
            SqeConfig::default(),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        for (id, text) in DOCS {
            service.add_document(id, text).expect("unique test ids");
        }
        service.seal_all();
        service
    }

    #[test]
    fn sharded_sqe_matches_single_shard_service_externally() {
        let (graph, index, cable) = world();
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 3, 5] {
            let service = sharded_service(&graph, shards, 0, 1);
            for motifs in [MotifSet::triangular(), MotifSet::square(), MotifSet::t_and_s()] {
                for (text, nodes) in queries(cable) {
                    let want = mono.rank_sqe(&text, &nodes, &motifs);
                    let want_ids = mono.external_ids(&want);
                    let got = service.rank_sqe(&text, &nodes, &motifs);
                    let got_ids = service.external_ids(&got);
                    assert_eq!(got_ids, want_ids, "shards={shards} motifs={}", motifs.name());
                    let want_scores: Vec<f64> = want.iter().map(|h| h.score).collect();
                    let got_scores: Vec<f64> = got.iter().map(|h| h.score).collect();
                    assert_eq!(got_scores, want_scores, "scores must be bit-identical");
                    // Global-ordinal ids equal the monolithic doc ids.
                    let want_docs: Vec<u32> = want.iter().map(|h| h.doc.0).collect();
                    let got_docs: Vec<u32> = got.iter().map(|h| h.doc.0).collect();
                    assert_eq!(got_docs, want_docs, "ordinals must match monolithic ids");
                }
            }
        }
    }

    #[test]
    fn sharded_sqe_c_matches_single_shard_service() {
        let (graph, index, cable) = world();
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 4] {
            let service = sharded_service(&graph, shards, 0xfeed, 1);
            for (text, nodes) in queries(cable) {
                let want = mono.rank_sqe_c(&text, &nodes);
                assert_eq!(service.rank_sqe_c(&text, &nodes), want, "shards={shards}");
                assert_eq!(service.rank_sqe_c(&text, &nodes), want, "warm");
            }
        }
    }

    #[test]
    fn batches_are_order_stable_at_any_worker_count() {
        let (graph, _, cable) = world();
        let reference = sharded_service(&graph, 3, 0, 1);
        let qs = queries(cable);
        let want = reference.run_batch_sqe_c(&qs);
        for workers in [1usize, 2, 8] {
            let service = sharded_service(&graph, 3, 0, workers);
            assert_eq!(service.run_batch_sqe_c(&qs), want, "cold workers={workers}");
            assert_eq!(service.run_batch_sqe_c(&qs), want, "warm workers={workers}");
        }
    }

    #[test]
    fn raw_ql_and_bm25_match_monolithic() {
        let (graph, index, _) = world();
        let mono = Searcher::from_index(index);
        let service = sharded_service(&graph, 4, 0xabc, 1);
        let a = Analyzer::plain();
        for text in ["cable car", "funicular fog", "plaza", "zeppelin"] {
            let q = Query::parse_text(text, &a);
            let want = searchlite::ql::rank(&mono, &q, QlParams::default(), 5);
            assert_eq!(service.rank_ql(&q, 5), want, "QL {text:?}");
            let want = bm25::rank(&mono, &q, Bm25Params::default(), 5);
            assert_eq!(service.rank_bm25(&q, Bm25Params::default(), 5), want, "BM25 {text:?}");
        }
    }

    #[test]
    fn seal_bumps_exactly_one_epoch_entry_and_invalidates_once() {
        let (graph, _, cable) = world();
        let service = sharded_service(&graph, 3, 0, 1);
        let before = service.epoch_vector();
        let warm = service.rank_sqe("funicular", &[cable], &MotifSet::triangular());

        // Route a new doc, find its shard, seal only that shard.
        let id = "d-late-0";
        let shard = service.router().route(id);
        service.add_document(id, "a late funicular arrival").expect("fresh id");
        assert_eq!(service.num_buffered_docs(), 1);
        assert_eq!(
            service.rank_sqe("funicular", &[cable], &MotifSet::triangular()),
            warm,
            "buffered documents must stay invisible"
        );
        let invalidations_before = service.metrics_snapshot().invalidations;
        service.seal_shard(shard).expect("non-empty buffer seals");
        let after = service.epoch_vector();
        let bumped: Vec<usize> = (0..after.len())
            .filter(|&i| after[i] != before[i])
            .collect();
        assert_eq!(bumped, vec![shard], "exactly the sealed shard's epoch advances");
        assert_eq!(
            service.metrics_snapshot().invalidations,
            invalidations_before + 1,
            "exactly one invalidation per seal"
        );
        // Sealing an empty buffer changes nothing.
        assert!(service.seal_shard(shard).is_none());
        assert_eq!(service.epoch_vector(), after);
        assert_eq!(service.metrics_snapshot().invalidations, invalidations_before + 1);
    }

    #[test]
    fn duplicate_ids_rejected_across_shards() {
        let (graph, _, _) = world();
        // Same-shard duplicate: caught by the owning shard.
        let service = sharded_service(&graph, 4, 0, 1);
        assert!(matches!(
            service.add_document("d-cable-0", "again"),
            Err(IngestError::DuplicateExternalId { .. })
        ));

        // Cross-shard duplicate: the doc sits in a shard the router no
        // longer maps its id to (a re-routed corpus — e.g. restored with
        // a different salt). The probe across all shards must still
        // reject it.
        let mut wrong = ShardRouter::with_salt(4, 0);
        let id = "d-cable-0";
        let home = wrong.route(id);
        // Find a salt under which the id routes elsewhere.
        for salt in 1..u64::MAX {
            wrong = ShardRouter::with_salt(4, salt);
            if wrong.route(id) != home {
                break;
            }
        }
        let mut shards: Vec<SegmentedIndex> =
            (0..4).map(|_| SegmentedIndex::new(Analyzer::plain())).collect();
        let mut ordinals: Vec<Vec<u32>> = vec![Vec::new(); 4];
        shards[home].add_document(id, "the original").expect("fresh id");
        shards[home].seal().expect("seals");
        ordinals[home].push(0);
        let service = ShardedService::from_shards(
            &graph,
            wrong,
            shards,
            ordinals,
            SqeConfig::default(),
            ServeConfig::default(),
        )
        .expect("one ordinal per document");
        assert_ne!(service.router().route(id), home, "test needs a re-routed id");
        assert!(
            matches!(
                service.add_document(id, "a doppelganger"),
                Err(IngestError::DuplicateExternalId { .. })
            ),
            "duplicate in a non-owning shard must still be rejected"
        );
        assert_eq!(service.metrics_snapshot().docs_ingested, 0);
    }

    #[test]
    fn batch_pins_shard_set_across_concurrent_seal() {
        let (graph, _, cable) = world();
        let service = sharded_service(&graph, 2, 0, 2);
        let qs = queries(cable);
        let want = service.run_batch(&qs, &MotifSet::triangular());
        service.add_document("d-late-1", "late cable car news").expect("fresh id");
        let pinned = service.corpus.pin();
        service.seal_all();
        let docs: usize = pinned.iter().map(|v| v.searcher.num_docs()).sum();
        assert_eq!(docs, DOCS.len(), "pinned views are immutable");
        assert_eq!(service.num_docs(), DOCS.len() + 1);
        let again = service.run_batch(&qs, &MotifSet::triangular());
        let top_before = want[0].first().map(|h| h.doc);
        let top_after = again[0].first().map(|h| h.doc);
        assert_eq!(top_before, top_after, "top hit survives the seal");
    }

    #[test]
    fn sharded_serve_matches_mono_and_degrades_identically() {
        let (graph, index, cable) = world();
        let mono = QueryService::new(&graph, &index, SqeConfig::default(), ServeConfig::default());
        for shards in [1usize, 2, 4] {
            let service = sharded_service(&graph, shards, 0, 1);
            // Unbounded deadline serves full quality, matching rank_sqe.
            let want = service.rank_sqe("cable car", &[cable], &MotifSet::t_and_s());
            match service.serve("cable car", &[cable], Deadline::NONE) {
                ServeOutcome::Ok(hits) => {
                    assert_eq!(hits, want, "shards={shards}");
                    assert_eq!(
                        service.external_ids(&hits),
                        mono.external_ids(&mono.rank_sqe("cable car", &[cable], &MotifSet::t_and_s())),
                        "shards={shards}"
                    );
                }
                other => panic!("expected Ok, got {}", other.label()),
            }
            // Primed costs + tight budget degrade to the unexpanded rung,
            // whose output matches the mono service's unexpanded rung.
            service.record_ladder_cost(0, 10_000);
            service.record_ladder_cost(1, 4_000);
            service.record_ladder_cost(2, 1_000);
            match service.serve("cable car", &[cable], Deadline::within(0, 2_000)) {
                ServeOutcome::Degraded(rung, hits) => {
                    assert_eq!(rung.name(), "unexpanded", "shards={shards}");
                    let mono_hits = mono.serve_at_rung(2, "cable car", &[cable]);
                    assert_eq!(
                        service.external_ids(&hits),
                        mono.external_ids(&mono_hits),
                        "shards={shards}: unexpanded rung must match mono"
                    );
                }
                other => panic!("expected degraded:unexpanded, got {}", other.label()),
            }
            let snap = service.metrics_snapshot();
            assert_eq!(snap.ladder_served, [1, 0, 1], "shards={shards}");
        }
    }

    #[test]
    fn empty_service_serves_empty_results() {
        let (graph, _, cable) = world();
        let service = ShardedService::new(
            &graph,
            Analyzer::plain(),
            ShardRouter::new(3),
            SqeConfig::default(),
            ServeConfig::default(),
        );
        assert!(service.rank_sqe("cable car", &[cable], &MotifSet::triangular()).is_empty());
        assert!(service.rank_sqe_c("cable car", &[cable]).is_empty());
        assert_eq!(service.epoch_vector(), vec![0, 0, 0]);
    }

    /// `ShardedService::from_shards` over two sealed shards holding
    /// DOCS[..3] and DOCS[3..5] (valid tables: `[[0, 1, 2], [3, 4]]`).
    fn from_tables(graph: &KbGraph, ordinals: Vec<Vec<u32>>) -> Result<(), OrdinalTableError> {
        let mut shards: Vec<SegmentedIndex> =
            (0..2).map(|_| SegmentedIndex::new(Analyzer::plain())).collect();
        for (i, (id, text)) in DOCS.iter().take(5).enumerate() {
            shards[usize::from(i >= 3)].add_document(id, text).expect("unique test ids");
        }
        for shard in &mut shards {
            shard.seal().expect("seals");
        }
        let router = ShardRouter::new(2);
        ShardedService::from_shards(graph, router, shards, ordinals, SqeConfig::default(), ServeConfig::default())
            .map(|_| ())
    }

    #[test]
    fn ordinal_table_shorter_than_its_shard_is_rejected() {
        let (graph, _, _) = world();
        assert_eq!(
            from_tables(&graph, vec![vec![0, 1, 2], vec![3]]),
            Err(OrdinalTableError::Length { shard: 1, docs: 2, len: 1 })
        );
        // A table for a shard that does not exist is a length mismatch too.
        assert_eq!(
            from_tables(&graph, vec![vec![0, 1, 2], vec![3, 4], vec![5]]),
            Err(OrdinalTableError::Length { shard: 2, docs: 0, len: 1 })
        );
    }

    #[test]
    fn ordinal_table_not_increasing_is_rejected() {
        let (graph, _, _) = world();
        assert_eq!(
            from_tables(&graph, vec![vec![0, 1, 2], vec![5, 3]]),
            Err(OrdinalTableError::NotIncreasing { shard: 1, at: 1 })
        );
    }

    #[test]
    fn ordinal_tables_that_overlap_are_rejected() {
        let (graph, _, _) = world();
        let err = from_tables(&graph, vec![vec![0, 1, 2], vec![2, 4]]).expect_err("overlap");
        assert_eq!(err, OrdinalTableError::Overlap { shard: 1, other: 0, ordinal: 2 });
        assert_eq!(err.shard(), 1);
    }

    #[test]
    fn snapshot_reopen_rejects_a_bad_ordinal_table_naming_the_shard() {
        let (graph, _, _) = world();
        let snaps: Vec<sqe_store::Snapshot> = [&DOCS[..3], &DOCS[3..5]]
            .iter()
            .map(|docs| {
                let mut ib = IndexBuilder::new(Analyzer::plain());
                for (id, text) in docs.iter() {
                    ib.add_document(id, text).expect("unique test ids");
                }
                let index = ib.build();
                let segments = [&index];
                let collections: [(&str, &[&Index]); 1] = [("c", &segments)];
                let bytes = sqe_store::encode_snapshot(&sqe_store::SnapshotContents {
                    graph: &graph,
                    collections: &collections,
                    dict: &entitylink::Dictionary::new(),
                })
                .expect("encodes");
                sqe_store::Snapshot::from_bytes(&bytes).expect("decodes")
            })
            .collect();
        let reopen = |ordinals: Vec<Vec<u32>>| {
            ShardedService::from_shard_snapshots(
                &graph,
                &snaps,
                "c",
                ShardRouter::new(2),
                ordinals,
                SqeConfig::default(),
                ServeConfig::default(),
            )
        };
        assert!(reopen(vec![vec![0, 1, 2], vec![3, 4]]).is_ok());
        match reopen(vec![vec![0, 1, 2], vec![4, 3]]) {
            Err(sqe_store::StoreError::AuditRejected { what, .. }) => {
                assert_eq!(what, "ordinal table of shard 1");
            }
            Err(other) => panic!("expected AuditRejected, got {other}"),
            Ok(_) => panic!("a decreasing ordinal table must be rejected"),
        }
    }
}
