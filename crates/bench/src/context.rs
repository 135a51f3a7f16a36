//! Shared experiment state: the generated world, its indexes, the linker.

use entitylink::{Dictionary, EntityLinker, LinkerConfig};
use ireval::Qrels;
use std::sync::Arc;

use searchlite::{Analyzer, Index, IndexBuilder, ShardRouter};
use sqe::{Clock, ExpandConfig, ServeConfig, ShardedService, SqeConfig};
use synthwiki::{GroundTruth, TestBed, TestBedConfig};

use crate::runs::DatasetRunner;

/// Everything the experiments need, built once.
pub struct ExperimentContext {
    /// The generated world.
    pub bed: TestBed,
    /// One index per collection (same order as `bed.collections`).
    pub indexes: Vec<Index>,
    /// The Dexter/Alchemy-style entity linker over the KB titles+aliases.
    pub linker: EntityLinker,
    /// Pipeline configuration shared by all runs.
    pub sqe_config: SqeConfig,
}

impl ExperimentContext {
    /// Builds the full-scale context (the paper-calibrated preset).
    pub fn full() -> Self {
        Self::from_config(&TestBedConfig::full())
    }

    /// Builds the reduced context used by integration tests.
    pub fn small() -> Self {
        Self::from_config(&TestBedConfig::small())
    }

    /// Builds a context from an arbitrary generator config.
    pub fn from_config(cfg: &TestBedConfig) -> Self {
        let bed = TestBed::generate(cfg);
        let indexes = bed
            .collections
            .iter()
            .map(|coll| {
                let mut b = IndexBuilder::new(Analyzer::english());
                for d in &coll.docs {
                    b.add_document(&d.id, &d.text)
                        .expect("generated collection ids are unique");
                }
                b.build()
            })
            .collect();
        let mut dict = Dictionary::new();
        dict.extend(bed.kb.linker_entries(&bed.space));
        let linker = EntityLinker::new(dict, LinkerConfig::default());
        ExperimentContext {
            bed,
            indexes,
            linker,
            sqe_config: SqeConfig {
                expand: ExpandConfig::default(),
                ql: searchlite::QlParams { mu: 15.0 },
                depth: 1000,
            },
        }
    }

    /// A runner for one dataset by name.
    pub fn runner(&self, dataset: &str) -> DatasetRunner<'_> {
        let ds = self.bed.dataset(dataset);
        let index = &self.indexes[ds.collection];
        DatasetRunner::new(self, ds, index)
    }

    /// A sharded service over one collection, filled by routing every
    /// document through the ingestion path and sealing once at the end;
    /// its metrics start from zero (the ingest-phase counters dropped).
    pub fn sharded_service(
        &self,
        collection: usize,
        shards: usize,
        serve_cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> ShardedService<'_> {
        let service = ShardedService::with_clock(
            &self.bed.kb.graph,
            Analyzer::english(),
            ShardRouter::new(shards),
            self.sqe_config,
            serve_cfg,
            clock,
        );
        if let Some(coll) = self.bed.collections.get(collection) {
            for doc in &coll.docs {
                service
                    .add_document(&doc.id, &doc.text)
                    .expect("invariant: test-bed document ids are unique");
            }
        }
        service.seal_all();
        service.reset_metrics();
        service
    }

    /// trec_eval-style qrels of a dataset.
    pub fn qrels(&self, dataset: &str) -> Qrels {
        let ds = self.bed.dataset(dataset);
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

    /// Ground-truth optimal query graphs of a dataset.
    pub fn ground_truth(&self, dataset: &str) -> GroundTruth {
        let ds = self.bed.dataset(dataset);
        GroundTruth::derive(&self.bed.kb, &self.bed.space, &ds.queries)
    }

    /// Fraction of queries whose automatically linked entities contain at
    /// least one true target (the paper reports >80% for Dexter+Alchemy).
    pub fn linker_precision(&self, dataset: &str) -> f64 {
        let ds = self.bed.dataset(dataset);
        if ds.queries.is_empty() {
            return 0.0;
        }
        let mut hit = 0usize;
        for q in &ds.queries {
            let links = self.linker.link(&q.text);
            let targets: Vec<_> = q
                .targets
                .iter()
                .map(|&e| self.bed.kb.article_of[e])
                .collect();
            if links.iter().any(|l| targets.contains(&l.article)) {
                hit += 1;
            }
        }
        hit as f64 / ds.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_context_builds() {
        let ctx = ExperimentContext::small();
        assert_eq!(ctx.indexes.len(), 2);
        assert!(ctx.indexes[0].num_docs() > 0);
        let qrels = ctx.qrels("imageclef");
        assert_eq!(qrels.num_queries(), 12);
        assert!(ctx.ground_truth("imageclef").len() == 12);
    }

    #[test]
    fn linker_finds_most_targets() {
        let ctx = ExperimentContext::small();
        let p = ctx.linker_precision("imageclef");
        assert!(p > 0.5, "linker precision too low: {p}");
    }
}
