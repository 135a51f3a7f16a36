//! Set-up shared by every workload: the generated test bed, its indexes,
//! the entity linker, and the pipeline configuration of the paper runs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use entitylink::{Dictionary, EntityLinker, LinkerConfig};
use kbgraph::ArticleId;
use searchlite::{Analyzer, Index, IndexBuilder};
use sqe::{ExpandConfig, SqeConfig};
use synthwiki::{Document, QuerySpec, TestBed, TestBedConfig};

/// Which test bed a run generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper-calibrated bed: 40k imageclef docs, 80k chic docs,
    /// 5,820 KB articles. Every benchmark run uses it.
    Full,
    /// The reduced bed of the integration tests; only the smoke test
    /// uses it.
    Small,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }

    fn config(self) -> TestBedConfig {
        match self {
            Scale::Full => TestBedConfig::full(),
            Scale::Small => TestBedConfig::small(),
        }
    }
}

/// The pipeline configuration of the paper runs (same as the
/// experiment harness: Dirichlet μ = 15, depth 1000).
pub fn sqe_config() -> SqeConfig {
    SqeConfig {
        expand: ExpandConfig::default(),
        ql: searchlite::QlParams { mu: 15.0 },
        depth: 1000,
    }
}

/// Seconds spent in each set-up step of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub index_s: f64,
    pub service_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.index_s + self.service_s
    }
}

/// The set-ups of one run. Set-up is repeated and `setup_s` is the
/// median, so one slow set-up does not set the figure.
#[derive(Debug, Default)]
pub struct Setups(pub Vec<SetupTimes>);

impl Setups {
    /// Builds the kept set-up's service and records its time. `serve`
    /// returns the service with the seconds of it that went to indexing
    /// (0 when `prepare` built the index).
    pub fn serve<S>(&mut self, serve: impl FnOnce() -> (S, f64)) -> S {
        let ((service, index_s), s) = timed(serve);
        if let Some(t) = self.0.last_mut() {
            t.index_s += index_s;
            t.service_s = s - index_s;
        }
        service
    }
}

/// Times a throwaway service build as [`Setups::serve`] does and drops
/// the service untimed; returns the indexing and the total seconds.
pub fn throwaway<S>(serve: impl FnOnce() -> (S, f64)) -> (f64, f64) {
    let ((service, index_s), s) = timed(serve);
    drop(service);
    (index_s, s)
}

/// Runs `n - 1` throwaway set-ups, each `prepare` (generate, index) then
/// `serve` over its output (timed with [`throwaway`]), and prepares the
/// one the run keeps; the caller builds its service with
/// [`Setups::serve`].
pub fn set_up<P>(
    n: usize,
    prepare: impl Fn() -> (P, SetupTimes),
    serve: impl Fn(&P) -> (f64, f64),
) -> (P, Setups) {
    let mut times = Vec::with_capacity(n);
    for _ in 1..n {
        let (prepared, mut t) = prepare();
        let (index_s, s) = serve(&prepared);
        t.index_s += index_s;
        t.service_s = s - index_s;
        times.push(t);
    }
    let (prepared, t) = prepare();
    times.push(t);
    (prepared, Setups(times))
}

/// Runs `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Generates the test bed.
pub fn generate(scale: Scale) -> (TestBed, f64) {
    timed(|| TestBed::generate(&scale.config()))
}

/// The chic collection, which both chic query sets run over.
pub fn chic(bed: &TestBed) -> &[Document] {
    &bed.collection_of(bed.dataset("chic2012")).docs
}

/// Builds a monolithic index over `docs`.
pub fn index_docs(docs: &[Document]) -> Index {
    let mut b = IndexBuilder::new(Analyzer::english());
    for d in docs {
        b.add_document(&d.id, &d.text)
            .expect("generated collection ids are unique");
    }
    b.build()
}

/// The automatic entity linker over the KB titles and aliases.
pub fn linker(bed: &TestBed) -> EntityLinker {
    let mut dict = Dictionary::new();
    dict.extend(bed.kb.linker_entries(&bed.space));
    EntityLinker::new(dict, LinkerConfig::default())
}

/// The paper's manual entity selection: the query's target articles.
pub fn manual_nodes(bed: &TestBed, q: &QuerySpec) -> Vec<ArticleId> {
    q.targets.iter().map(|&e| bed.kb.article_of[e]).collect()
}

/// The paper's automatic entity selection: the first three links.
pub fn auto_nodes(linker: &EntityLinker, text: &str) -> Vec<ArticleId> {
    linker
        .link(text)
        .into_iter()
        .take(3)
        .map(|l| l.article)
        .collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A digest of an answer, for checking it later against a reference.
pub fn digest<T: Hash>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut h = DefaultHasher::new();
    for item in items {
        item.hash(&mut h);
    }
    h.finish()
}

/// A small deterministic generator (splitmix64) for request streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}
