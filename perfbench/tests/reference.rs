//! The reference roll-up and drill-down agree with the engine on a tiny
//! hand-built graph, and a perturbed answer is caught.

use ncx_core::{ConceptQuery, NcExplorer, NcxConfig, Parallelism};
use ncx_index::{DocumentStore, NewsSource};
use ncx_kg::{GraphBuilder, KnowledgeGraph};
use ncx_perfbench::reference::{check_ranking, Reference};
use std::sync::Arc;

/// Organization <- {Exchange, Bank}; Crime, Regulator and Person beside.
fn engine(parallelism: Parallelism) -> NcExplorer {
    let mut b = GraphBuilder::new();
    let org = b.concept("Organization");
    let exch = b.concept("Exchange");
    let bank = b.concept("Bank");
    let crime = b.concept("Crime");
    let regulator = b.concept("Regulator");
    let person = b.concept("Person");
    b.broader(exch, org);
    b.broader(bank, org);
    let ftx = b.instance("FTX");
    let binance = b.instance("Binance");
    let dbs = b.instance("DBS");
    let fraud = b.instance("fraud");
    let laundering = b.instance("laundering");
    let sec = b.instance("SEC");
    let cftc = b.instance("CFTC");
    let sbf = b.instance("Sam Bankman-Fried");
    b.member(exch, ftx);
    b.member(exch, binance);
    b.member(bank, dbs);
    b.member(crime, fraud);
    b.member(crime, laundering);
    b.member(regulator, sec);
    b.member(regulator, cftc);
    b.member(person, sbf);
    b.fact(ftx, "accusedOf", fraud);
    b.fact(binance, "accusedOf", laundering);
    b.fact(dbs, "flagged", laundering);
    b.fact(sec, "sued", ftx);
    b.fact(cftc, "sued", binance);
    b.fact(sbf, "founded", ftx);
    b.fact(ftx, "clientOf", dbs);
    let kg: Arc<KnowledgeGraph> = Arc::new(b.build());

    let mut store = DocumentStore::new();
    let articles = [
        (
            "FTX fraud",
            "SEC sued FTX over fraud. Sam Bankman-Fried responded.",
        ),
        ("Binance probe", "CFTC probed Binance for laundering."),
        (
            "DBS screening",
            "DBS screens for laundering risks after the FTX collapse.",
        ),
        ("FTX banks with DBS", "FTX opened accounts at DBS."),
        (
            "Fraud charges",
            "Sam Bankman-Fried charged with fraud; FTX and Binance named.",
        ),
        (
            "Regulators",
            "SEC and CFTC coordinate on exchange oversight of Binance.",
        ),
    ];
    for (i, (title, body)) in articles.iter().enumerate() {
        store.add(
            NewsSource::Reuters,
            title.to_string(),
            body.to_string(),
            i as u32,
        );
    }
    NcExplorer::build(
        kg,
        store,
        NcxConfig {
            parallelism,
            samples: 200,
            max_member_fraction: 1.0,
            ..NcxConfig::default()
        },
    )
}

fn all_queries(kg: &KnowledgeGraph) -> Vec<ConceptQuery> {
    let cs: Vec<_> = kg.concepts().collect();
    let mut out = Vec::new();
    for i in 0..cs.len() {
        out.push(ConceptQuery::new([cs[i]]));
        for j in i + 1..cs.len() {
            out.push(ConceptQuery::new([cs[i], cs[j]]));
        }
    }
    out
}

#[test]
fn reference_agrees_with_the_engine() {
    for parallelism in [Parallelism::Fixed(1), Parallelism::Fixed(2)] {
        let e = engine(parallelism);
        let r = Reference::new(e.index(), e.kg(), e.config());
        let mut nonempty = 0;
        for q in all_queries(e.kg()) {
            for k in [1, 3, 10] {
                let hits = e.rollup(&q, k);
                r.check_rollup(&q, k, &hits)
                    .unwrap_or_else(|m| panic!("{}: {m}", q.describe(e.kg())));
                let subs = e.drilldown(&q, k);
                r.check_drilldown(&q, k, &subs)
                    .unwrap_or_else(|m| panic!("{}: {m}", q.describe(e.kg())));
                nonempty += usize::from(!hits.is_empty()) + usize::from(!subs.is_empty());
            }
        }
        assert!(
            nonempty > 20,
            "the fixture must produce answers to compare ({nonempty})"
        );
    }
}

#[test]
fn swapped_rollup_documents_are_caught() {
    let e = engine(Parallelism::Fixed(1));
    let r = Reference::new(e.index(), e.kg(), e.config());
    let q = e.query(&["Organization"]).unwrap();
    let mut hits = e.rollup(&q, 10);
    assert!(hits.len() >= 2);
    r.check_rollup(&q, 10, &hits).unwrap();
    hits.swap(0, 1);
    assert!(r.check_rollup(&q, 10, &hits).is_err());
}

#[test]
fn perturbed_scores_are_caught() {
    let e = engine(Parallelism::Fixed(1));
    let r = Reference::new(e.index(), e.kg(), e.config());
    let q = e.query(&["Organization"]).unwrap();
    let mut hits = e.rollup(&q, 10);
    hits[0].score += 1e-6;
    assert!(r.check_rollup(&q, 10, &hits).is_err());

    let q = e.query(&["Exchange"]).unwrap();
    let mut subs = e.drilldown(&q, 10);
    assert!(!subs.is_empty());
    r.check_drilldown(&q, 10, &subs).unwrap();
    subs[0].score += 1e-6;
    assert!(r.check_drilldown(&q, 10, &subs).is_err());
}

#[test]
fn ranking_tolerates_only_ties_within_rounding() {
    let reference: [(u32, f64); 3] = [(1, 2.0), (2, 2.0 + 1e-13), (3, 1.0)];
    let mut sorted = reference;
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    // Keys 1 and 2 tie within tolerance: either order passes when the
    // scores are not bit-identical to the reference.
    assert!(check_ranking(&[(1, 2.0 + 1e-13), (2, 2.0)], &sorted, 2).is_ok());
    // Bit-identical scores must come in the reference's exact order.
    assert!(check_ranking(&[(1, 2.0), (2, 2.0 + 1e-13)], &sorted, 2).is_err());
    // A real rank inversion fails.
    assert!(check_ranking(&[(3, 1.0), (2, 2.0 + 1e-13)], &sorted, 2).is_err());
    // A missing result fails.
    assert!(check_ranking(&[(2, 2.0 + 1e-13)], &sorted, 2).is_err());
}
