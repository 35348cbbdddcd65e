//! Property checks on whole indexes, snapshots and rankings: bit-exact
//! equality, the Eq. 2 score decomposition, the per-document concept cap,
//! and ranking quality against the generator's ground truth.

use ncx_core::indexer::NcxIndex;
use ncx_core::{NcExplorer, NcxConfig};
use ncx_datagen::GeneratedCorpus;
use ncx_eval::ndcg::ndcg_at_k_with_ideal;
use ncx_index::{DocumentStore, LuceneEngine};
use ncx_kg::{DocId, KnowledgeGraph};

/// Bit-for-bit equality of two indexes over the same graph: every posting
/// (doc, the three score components' bits, pivot), every per-document
/// concept list, every per-document entity list.
pub fn same_index(kg: &KnowledgeGraph, a: &NcxIndex, b: &NcxIndex) -> Result<(), String> {
    if a.num_docs() != b.num_docs() || a.num_postings() != b.num_postings() {
        return Err(format!(
            "{} docs / {} postings vs {} docs / {} postings",
            a.num_docs(),
            a.num_postings(),
            b.num_docs(),
            b.num_postings()
        ));
    }
    for c in kg.concepts() {
        let (pa, pb) = (a.postings(c), b.postings(c));
        let same = pa.len() == pb.len()
            && pa.iter().zip(pb).all(|(x, y)| {
                x.doc == y.doc
                    && x.pivot == y.pivot
                    && x.cdr.to_bits() == y.cdr.to_bits()
                    && x.cdro.to_bits() == y.cdro.to_bits()
                    && x.cdrc.to_bits() == y.cdrc.to_bits()
            });
        if !same {
            return Err(format!(
                "postings of concept {} differ",
                kg.concept_label(c)
            ));
        }
    }
    for i in 0..a.num_docs() {
        let d = DocId::from_index(i);
        let (ca, cb) = (a.concepts_of_doc(d), b.concepts_of_doc(d));
        let same = ca.len() == cb.len()
            && ca
                .iter()
                .zip(cb)
                .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
        if !same || a.entity_index.entities_of(d) != b.entity_index.entities_of(d) {
            return Err(format!("document {i} differs"));
        }
    }
    Ok(())
}

/// A 64-bit FNV-1a digest of everything [`same_index`] compares: equal
/// indexes over one graph have equal digests.
pub fn index_digest(kg: &KnowledgeGraph, index: &NcxIndex) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    put(index.num_docs() as u64);
    for c in kg.concepts() {
        let postings = index.postings(c);
        put(postings.len() as u64);
        for p in postings {
            put(u64::from(p.doc.raw()));
            put(u64::from(p.pivot.raw()));
            put(p.cdr.to_bits());
            put(p.cdro.to_bits());
            put(p.cdrc.to_bits());
        }
    }
    for i in 0..index.num_docs() {
        let d = DocId::from_index(i);
        for &(c, cdr) in index.concepts_of_doc(d) {
            put(u64::from(c.raw()));
            put(cdr.to_bits());
        }
        for &(v, n) in index.entity_index.entities_of(d) {
            put(u64::from(v.raw()));
            put(u64::from(n));
        }
        put(u64::MAX);
    }
    h
}

/// Article-for-article equality of two stores.
pub fn same_store(a: &DocumentStore, b: &DocumentStore) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} articles vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b.iter()) {
        if x.id != y.id
            || x.source != y.source
            || x.title != y.title
            || x.body != y.body
            || x.published != y.published
        {
            return Err(format!("article {} differs", x.id.raw()));
        }
    }
    Ok(())
}

/// Eq. 2 (`cdr = cdro · cdrc`, within rounding) on every posting, and at
/// most `max_concepts_per_doc` postings per document.
pub fn postings_well_formed(
    kg: &KnowledgeGraph,
    index: &NcxIndex,
    config: &NcxConfig,
) -> Result<(), String> {
    for c in kg.concepts() {
        for p in index.postings(c) {
            let product = p.cdro * p.cdrc;
            if (p.cdr - product).abs() > 1e-12 * product.abs().max(1.0) {
                return Err(format!(
                    "doc {} concept {}: cdr {} != {} x {}",
                    p.doc.raw(),
                    kg.concept_label(c),
                    p.cdr,
                    p.cdro,
                    p.cdrc
                ));
            }
        }
    }
    for i in 0..index.num_docs() {
        let n = index.concepts_of_doc(DocId::from_index(i)).len();
        if n > config.max_concepts_per_doc {
            return Err(format!(
                "doc {i} has {n} postings, cap {}",
                config.max_concepts_per_doc
            ));
        }
    }
    Ok(())
}

/// The six topic × entity-group queries of the paper's Table I.
pub const TABLE1_QUERIES: [(&str, &str); 6] = [
    ("International Trade", "Asian Country"),
    ("Lawsuits", "Technology Company"),
    ("Elections", "African Country"),
    ("Mergers & Acquisitions", "Biotechnology Company"),
    ("International Relations", "European Country"),
    ("Labor Dispute", "Technology Company"),
];

/// Free text for a Table I query as a keyword engine receives it: the
/// topic and group names plus their first member entities.
fn query_text(kg: &KnowledgeGraph, topic: &str, group: &str) -> String {
    let names = |label: &str, n: usize| -> String {
        let c = kg.concept_by_name(label).expect("Table I concept");
        kg.members(c)
            .iter()
            .take(n)
            .map(|&v| kg.instance_label(v))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!("{topic} {} {group} {}", names(topic, 2), names(group, 4))
}

/// Mean strict NDCG@10 of the engine's roll-up and of BM25 keyword search
/// over the Table I queries, graded by the generator's ground truth
/// (`true_grade_strict`) against the best ten documents of the corpus.
pub fn table1_ndcg(engine: &NcExplorer, corpus: &GeneratedCorpus) -> (f64, f64) {
    let kg = engine.kg();
    let mut lucene = LuceneEngine::new();
    lucene.index_store(&corpus.store);
    let (mut ncx, mut bm25) = (0.0, 0.0);
    for (topic, group) in TABLE1_QUERIES {
        let q = engine.query(&[topic, group]).expect("Table I query");
        let grade = |d: DocId| corpus.true_grade_strict(kg, q.concepts(), d);
        let all: Vec<f64> = (0..corpus.store.len())
            .map(|i| grade(DocId::from_index(i)))
            .collect();
        let ours: Vec<f64> = engine.rollup(&q, 10).iter().map(|h| grade(h.doc)).collect();
        let theirs: Vec<f64> = lucene
            .search(&query_text(kg, topic, group), 10)
            .iter()
            .map(|&(d, _)| grade(d))
            .collect();
        ncx += ndcg_at_k_with_ideal(&ours, &all, 10);
        bm25 += ndcg_at_k_with_ideal(&theirs, &all, 10);
    }
    let n = TABLE1_QUERIES.len() as f64;
    (ncx / n, bm25 / n)
}
