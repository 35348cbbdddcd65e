//! The benchmark's inputs: the knowledge graph, the corpus, the query set
//! and the seeded operation sequences. Everything here is a function of
//! the seed alone.

use crate::rng::{Rng, Zipf};
use ncx_core::ConceptQuery;
use ncx_datagen::{generate_corpus, generate_kg, CorpusConfig, GeneratedCorpus, KgGenConfig};
use ncx_kg::KnowledgeGraph;
use std::sync::Arc;

/// Results per query, as an analyst's first page.
pub const TOP_K: usize = 10;

/// Articles in every workload's corpus.
pub const CORPUS_ARTICLES: usize = 3000;

/// The medium knowledge graph of the repository's scale harness: the 26
/// concepts of the seed taxonomy, about 3k instances. It does not depend
/// on the seed, so every seed explores the same concept space.
pub fn medium_kg() -> Arc<KnowledgeGraph> {
    Arc::new(generate_kg(&KgGenConfig {
        synth_per_group: 200,
        orphan_entities: 500,
        ..KgGenConfig::default()
    }))
}

/// The corpus: `articles` generated news articles with the generator's
/// ground truth. Like the graph it does not depend on the seed: corpora
/// drawn from different seeds differ in query cost by several percent,
/// which would read as noise. The seed orders the articles and draws the
/// operations instead.
pub fn corpus(kg: &KnowledgeGraph, articles: usize) -> GeneratedCorpus {
    generate_corpus(
        kg,
        &CorpusConfig {
            articles,
            ..CorpusConfig::default()
        },
    )
}

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream).shuffle(&mut order);
    order
}

/// Every 1-, 2- and 3-concept conjunction of the graph's concepts, each
/// with its concepts in ascending id order (2,951 queries over 26
/// concepts).
pub fn query_set(kg: &KnowledgeGraph) -> Vec<ConceptQuery> {
    let cs: Vec<_> = kg.concepts().collect();
    let mut out = Vec::new();
    for i in 0..cs.len() {
        out.push(ConceptQuery::new([cs[i]]));
        for j in i + 1..cs.len() {
            out.push(ConceptQuery::new([cs[i], cs[j]]));
            for l in j + 1..cs.len() {
                out.push(ConceptQuery::new([cs[i], cs[j], cs[l]]));
            }
        }
    }
    out
}

/// The two exploration operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Rollup,
    Drilldown,
}

/// One query operation: an operator applied to `query` (an index into
/// the query set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    pub kind: OpKind,
    pub query: usize,
}

/// How queries are drawn.
#[derive(Debug, Clone)]
enum Popularity {
    /// Every query equally likely.
    Uniform,
    /// Zipf(s = 1) over a seeded permutation of the query set.
    Zipf { zipf: Zipf, order: Vec<usize> },
}

/// An endless, seeded stream of operations: queries by `popularity`,
/// operators in a mix of `rollups_per_drilldown` roll-ups to one
/// drill-down (drawn independently per operation).
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    popularity: Popularity,
    queries: usize,
    rollup_share: f64,
}

impl OpStream {
    pub fn uniform(seed: u64, stream: u64, queries: usize, rollups_per_drilldown: u32) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            popularity: Popularity::Uniform,
            queries,
            rollup_share: share(rollups_per_drilldown),
        }
    }

    pub fn zipf(seed: u64, stream: u64, queries: usize, rollups_per_drilldown: u32) -> Self {
        let order = permutation(seed, stream ^ 0xa11ce, queries);
        Self {
            rng: Rng::new(seed, stream),
            popularity: Popularity::Zipf {
                zipf: Zipf::new(queries, 1.0),
                order,
            },
            queries,
            rollup_share: share(rollups_per_drilldown),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let query = match &self.popularity {
            Popularity::Uniform => self.rng.below(self.queries),
            Popularity::Zipf { zipf, order } => order[zipf.sample(&mut self.rng)],
        };
        let kind = if self.rng.unit() < self.rollup_share {
            OpKind::Rollup
        } else {
            OpKind::Drilldown
        };
        Op { kind, query }
    }
}

fn share(rollups_per_drilldown: u32) -> f64 {
    let r = f64::from(rollups_per_drilldown);
    r / (r + 1.0)
}
