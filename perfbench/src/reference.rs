//! Reference roll-up and drill-down, computed apart from the engine from
//! public accessors only: the index's postings, per-document concept
//! lists and entity lists, the ontology's descendants and ancestors, and
//! the graph's memberships and specificity. Engine answers are checked
//! against these; a mismatch makes the operation count as failed.

use ncx_core::drilldown::Subtopic;
use ncx_core::indexer::NcxIndex;
use ncx_core::rollup::RollupHit;
use ncx_core::{ConceptQuery, NcxConfig};
use ncx_kg::{ontology, ConceptId, DocId, InstanceId, KnowledgeGraph};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Relative tolerance on scores: parallel drill-down folds coverage sums
/// in batches, so its scores may differ from a sequential sum by
/// rounding.
pub const SCORE_TOLERANCE: f64 = 1e-9;

/// Whether `a` and `b` agree within [`SCORE_TOLERANCE`] (relative).
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= SCORE_TOLERANCE * a.abs().max(b.abs())
}

/// Reference answers over one state of an index. Per-concept match maps
/// are computed on first use and kept, so build one `Reference` per
/// index state.
pub struct Reference<'a> {
    index: &'a NcxIndex,
    kg: &'a KnowledgeGraph,
    config: &'a NcxConfig,
    best: RefCell<HashMap<ConceptId, Rc<HashMap<DocId, f64>>>>,
}

/// One reference drill-down candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RefSubtopic {
    pub concept: ConceptId,
    pub score: f64,
    pub coverage: f64,
    pub specificity: f64,
    pub diversity: f64,
    pub matching_docs: usize,
    pub distinct_entities: usize,
}

impl<'a> Reference<'a> {
    pub fn new(index: &'a NcxIndex, kg: &'a KnowledgeGraph, config: &'a NcxConfig) -> Self {
        Self {
            index,
            kg,
            config,
            best: RefCell::new(HashMap::new()),
        }
    }

    /// The concepts whose postings stand for `c`: `c` itself and, with
    /// the edge-concept fallback on, its descendants.
    fn vias(&self, c: ConceptId) -> Vec<ConceptId> {
        let mut v = vec![c];
        if self.config.edge_concept_fallback {
            v.extend(ontology::descendants(self.kg, c));
        }
        v
    }

    /// Best `cdr` per document over `c` and its descendants.
    fn best_of(&self, c: ConceptId) -> Rc<HashMap<DocId, f64>> {
        if let Some(m) = self.best.borrow().get(&c) {
            return Rc::clone(m);
        }
        let mut m: HashMap<DocId, f64> = HashMap::new();
        for via in self.vias(c) {
            for p in self.index.postings(via) {
                let e = m.entry(p.doc).or_insert(p.cdr);
                if p.cdr > *e {
                    *e = p.cdr;
                }
            }
        }
        let m = Rc::new(m);
        self.best.borrow_mut().insert(c, Rc::clone(&m));
        m
    }

    /// `D(Q)`: every document matching all of the query's concepts, in
    /// ascending id order, with its best `cdr` per query concept (in
    /// query order).
    pub fn matched(&self, q: &ConceptQuery) -> Vec<(DocId, Vec<f64>)> {
        if q.is_empty() {
            return Vec::new();
        }
        let maps: Vec<Rc<HashMap<DocId, f64>>> =
            q.concepts().iter().map(|&c| self.best_of(c)).collect();
        let mut out: Vec<(DocId, Vec<f64>)> = maps[0]
            .keys()
            .filter(|d| maps[1..].iter().all(|m| m.contains_key(d)))
            .map(|&d| (d, maps.iter().map(|m| m[&d]).collect()))
            .collect();
        out.sort_unstable_by_key(|(d, _)| *d);
        out
    }

    /// Every matched document ranked by `Σ cdr` (query order), ties by
    /// ascending doc id.
    pub fn rollup(&self, q: &ConceptQuery) -> Vec<(DocId, f64)> {
        ranked(&self.matched(q))
    }

    /// Every drill-down candidate ranked by coverage × specificity ×
    /// diversity over `D(Q)` (capped at `drilldown_doc_cap` documents,
    /// lowest ids first), ties by ascending concept id.
    pub fn drilldown(&self, q: &ConceptQuery) -> Vec<RefSubtopic> {
        let mut docs: Vec<DocId> = self.matched(q).into_iter().map(|(d, _)| d).collect();
        docs.truncate(self.config.drilldown_doc_cap);
        let mut excluded: HashSet<ConceptId> = HashSet::new();
        for &c in q.concepts() {
            excluded.insert(c);
            excluded.extend(ontology::ancestors(self.kg, c));
        }
        let mut coverage: HashMap<ConceptId, (f64, usize)> = HashMap::new();
        for &d in &docs {
            for &(c, cdr) in self.index.concepts_of_doc(d) {
                if !excluded.contains(&c) {
                    let e = coverage.entry(c).or_insert((0.0, 0));
                    e.0 += cdr;
                    e.1 += 1;
                }
            }
        }
        let mut entities: HashMap<ConceptId, HashSet<InstanceId>> = HashMap::new();
        for &d in &docs {
            for &(v, _) in self.index.entity_index.entities_of(d) {
                for &c in self.kg.concepts_of(v) {
                    if coverage.contains_key(&c) {
                        entities.entry(c).or_default().insert(v);
                    }
                }
            }
        }
        let mut out: Vec<RefSubtopic> = coverage
            .into_iter()
            .map(|(c, (cov, matching))| {
                let distinct = entities.get(&c).map_or(0, HashSet::len);
                let specificity = self.kg.specificity(c);
                let diversity = distinct as f64 / matching as f64;
                RefSubtopic {
                    concept: c,
                    score: cov * specificity * diversity,
                    coverage: cov,
                    specificity,
                    diversity,
                    matching_docs: matching,
                    distinct_entities: distinct,
                }
            })
            .filter(|s| s.score.is_finite())
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.concept.cmp(&b.concept)));
        out
    }

    /// Checks an engine roll-up answer against the reference.
    pub fn check_rollup(
        &self,
        q: &ConceptQuery,
        k: usize,
        hits: &[RollupHit],
    ) -> Result<(), String> {
        let matched = self.matched(q);
        let got: Vec<(DocId, f64)> = hits.iter().map(|h| (h.doc, h.score)).collect();
        check_ranking(&got, &ranked(&matched), k)?;
        let matched: HashMap<DocId, Vec<f64>> = matched.into_iter().collect();
        for h in hits {
            let best = &matched[&h.doc];
            if h.matches.len() != q.len() {
                return Err(format!(
                    "doc {}: {} matches for {} concepts",
                    h.doc.raw(),
                    h.matches.len(),
                    q.len()
                ));
            }
            for ((m, &c), &cdr) in h.matches.iter().zip(q.concepts()).zip(best) {
                let posting = self.index.posting(m.via, h.doc);
                let via_ok = self.vias(c).contains(&m.via);
                let posting_ok = posting.is_some_and(|p| p.cdr == m.cdr && p.pivot == m.pivot);
                if m.concept != c || !via_ok || !posting_ok || m.cdr != cdr {
                    return Err(format!(
                        "doc {}: match for concept {} does not hold (via {}, cdr {} vs best {})",
                        h.doc.raw(),
                        c.raw(),
                        m.via.raw(),
                        m.cdr,
                        cdr
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks an engine drill-down answer against the reference.
    pub fn check_drilldown(
        &self,
        q: &ConceptQuery,
        k: usize,
        subs: &[Subtopic],
    ) -> Result<(), String> {
        let reference = self.drilldown(q);
        let got: Vec<(ConceptId, f64)> = subs.iter().map(|s| (s.concept, s.score)).collect();
        let ranked: Vec<(ConceptId, f64)> =
            reference.iter().map(|s| (s.concept, s.score)).collect();
        check_ranking(&got, &ranked, k)?;
        let by_concept: HashMap<ConceptId, &RefSubtopic> =
            reference.iter().map(|s| (s.concept, s)).collect();
        for s in subs {
            let r = by_concept[&s.concept];
            let counts_ok =
                s.matching_docs == r.matching_docs && s.distinct_entities == r.distinct_entities;
            let parts_ok = close(s.coverage, r.coverage)
                && close(s.specificity, r.specificity)
                && close(s.diversity, r.diversity);
            if !counts_ok || !parts_ok {
                return Err(format!(
                    "subtopic {}: {s:?} differs from reference {r:?}",
                    s.concept.raw()
                ));
            }
        }
        Ok(())
    }
}

/// Matched documents ranked by `Σ cdr` (query order), ties by ascending
/// doc id.
fn ranked(matched: &[(DocId, Vec<f64>)]) -> Vec<(DocId, f64)> {
    let mut ranked: Vec<(DocId, f64)> = matched
        .iter()
        .map(|(d, cdrs)| (*d, cdrs.iter().sum()))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Checks a top-`k` answer against the full reference ranking (sorted by
/// score descending, key ascending). Keys must be the reference's and
/// scores must agree within tolerance. Where every score is bit-identical
/// to the reference, ranks must match exactly; otherwise an answer may
/// order two keys differently only if their reference scores tie within
/// tolerance.
pub fn check_ranking<K: Copy + Eq + std::hash::Hash + std::fmt::Debug>(
    got: &[(K, f64)],
    reference: &[(K, f64)],
    k: usize,
) -> Result<(), String> {
    let want = k.min(reference.len());
    if got.len() != want {
        return Err(format!("{} results, reference has {want}", got.len()));
    }
    let scores: HashMap<K, f64> = reference.iter().copied().collect();
    let mut seen = HashSet::new();
    let mut exact = true;
    for (i, &(key, score)) in got.iter().enumerate() {
        if !seen.insert(key) {
            return Err(format!("{key:?} returned twice"));
        }
        let Some(&r) = scores.get(&key) else {
            return Err(format!("rank {i}: {key:?} is not in the reference answer"));
        };
        if !close(score, r) {
            return Err(format!("rank {i}: {key:?} scored {score}, reference {r}"));
        }
        if !close(reference[i].1, r) {
            return Err(format!(
                "rank {i}: {key:?} (reference {r}) where the reference ranks {:?} ({})",
                reference[i].0, reference[i].1
            ));
        }
        exact &= score.to_bits() == r.to_bits();
    }
    if exact {
        if let Some(i) = (0..got.len()).find(|&i| got[i].0 != reference[i].0) {
            return Err(format!(
                "rank {i}: {:?}, reference ranks {:?} at equal scores",
                got[i].0, reference[i].0
            ));
        }
    }
    Ok(())
}
