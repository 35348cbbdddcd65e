//! The traced run's layer measurements. Each times one public entry point
//! of one layer around the same calls the workloads make, on the state the
//! workload left behind, and reads the counters the program already
//! exposes. Every workload reports every layer metric by the same
//! definition; a layer the workload does not exercise is still measured
//! here, on that workload's engine.

use crate::inputs::TOP_K;
use crate::measure::{process_cpu_secs, timed, Metrics, Samples};
use crate::reference::Reference;
use crate::rng::Rng;
use crate::tally::Tally;
use ncx_core::persist::LoadedSnapshot;
use ncx_core::{drilldown, rollup, ConceptQuery, NcExplorer, NcxConfig, Parallelism};
use ncx_kg::{DocId, InstanceId};
use ncx_obs::Phase;
use ncx_serve::{NcxServe, ServeConfig};
use std::path::Path;

/// Articles run through the text pipeline.
const TEXT_SAMPLE: usize = 300;
/// Targets of the bounded BFS.
const BFS_SAMPLE: usize = 300;
/// Distinct queries in the query-layer measurements.
const QUERY_SAMPLE: usize = 300;
/// Repetitions of save, load and decode.
const STORE_REPEATS: usize = 3;
/// Single-article delta flushes per compaction, and compactions.
const FLUSHES_PER_COMPACTION: usize = 5;
const COMPACTIONS: usize = 3;

fn us(s: f64) -> f64 {
    s * 1e6
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Measures every layer on `engine`, drawing samples with `seed` from
/// `queries` and the engine's articles; `dir` is a scratch directory the
/// probe owns and removes.
pub fn run(
    engine: &NcExplorer,
    queries: &[ConceptQuery],
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Metrics {
    let kg = engine.kg();
    let config = engine.config();
    let mut rng = Rng::new(seed, 5);
    let mut m = Metrics::default();

    // ---- ncx-text ----
    let mut process = Samples::default();
    let mut entities = 0usize;
    for _ in 0..TEXT_SAMPLE {
        let d = DocId::from_index(rng.below(engine.store().len()));
        let text = engine.document(d).full_text();
        let (doc, t) = timed(|| engine.nlp().process(&text));
        process.push(t);
        entities += doc.entity_counts.len();
    }
    m.put("text.process_us", us(process.median()), "us");
    m.put(
        "text.entities_per_doc",
        entities as f64 / TEXT_SAMPLE as f64,
        "count",
    );

    // ---- ncx-reach ----
    let mut bfs = Samples::default();
    for _ in 0..BFS_SAMPLE {
        let target = InstanceId::from_index(rng.below(kg.num_instances()));
        let (dist, t) =
            timed(|| ncx_reach::oracle::compute_target_distances(kg, target, config.tau));
        bfs.push(t);
        std::hint::black_box(dist);
    }
    m.put("reach.bfs_us", us(bfs.median()), "us");
    let diag = engine.diagnostics();
    m.put("reach.oracle_hits", diag.oracle.hits as f64, "count");
    m.put("reach.oracle_misses", diag.oracle.misses as f64, "count");

    // ---- ncx-core relevance and indexer ----
    let walks = diag.walk_stats;
    m.put("walks.count", walks.walks as f64, "count");
    m.put("walks.per_estimate", diag.avg_walks_per_estimate(), "count");
    m.put(
        "walks.early_stop_fraction",
        diag.early_stop_fraction(),
        "ratio",
    );
    m.put(
        "walks.per_s",
        walks.walks as f64 / diag.timing.relevance_scoring.as_secs_f64(),
        "1/s",
    );
    m.put(
        "index.linking_s",
        diag.timing.entity_linking.as_secs_f64(),
        "s",
    );
    m.put(
        "index.scoring_s",
        diag.timing.relevance_scoring.as_secs_f64(),
        "s",
    );
    m.put(
        "index.postings",
        engine.index().num_postings() as f64,
        "count",
    );

    // ---- ncx-store: save, read and verify, decode ----
    let snap = dir.join("snapshot");
    let (mut save, mut load, mut decode) =
        (Samples::default(), Samples::default(), Samples::default());
    for _ in 0..STORE_REPEATS {
        let _ = std::fs::remove_dir_all(&snap);
        let (saved, t) = timed(|| engine.save(&snap));
        save.push(t);
        tally.record("probe save", 1, saved.map_err(|e| e.to_string()));
        let (loaded, t) = timed(|| LoadedSnapshot::load(&snap, kg));
        load.push(t);
        match loaded {
            Ok(loaded) => {
                let (decoded, t) = timed(|| loaded.decode());
                decode.push(t);
                tally.record(
                    "probe decode",
                    1,
                    decoded.map(|_| ()).map_err(|e| e.to_string()),
                );
            }
            Err(e) => tally.record("probe load", 1, Err(e.to_string())),
        }
    }
    m.put("store.save_ms", ms(save.median()), "ms");
    m.put("store.read_verify_ms", ms(load.median()), "ms");
    m.put("store.decode_ms", ms(decode.median()), "ms");
    let bytes =
        ncx_store::Snapshot::open(&snap).map_or(f64::NAN, |s| s.manifest().total_bytes() as f64);
    m.put(
        "store.bytes_per_doc",
        bytes / engine.index().num_docs() as f64,
        "bytes",
    );

    // ---- ncx-core query layer and ncx-serve, on a cold open of the snapshot ----
    let probe_engine = match NcExplorer::open(&snap, engine.kg_handle(), config.clone()) {
        Ok(e) => e,
        Err(e) => {
            tally.record("probe open", 1, Err(e.to_string()));
            return m;
        }
    };
    let serve = NcxServe::new(probe_engine, ServeConfig::default());
    let session = serve.session();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    rng.shuffle(&mut order);
    let sequential = NcxConfig {
        parallelism: Parallelism::Fixed(1),
        ..config.clone()
    };
    let mut matching = Samples::default();
    let (mut roll, mut drill) = (Samples::default(), Samples::default());
    let (mut seq_roll, mut seq_drill) = (Samples::default(), Samples::default());
    let mut lookup = Samples::default();
    // Per-query differences: roll-up minus matching, drill-down minus
    // matching, served roll-up minus direct roll-up.
    let (mut rank, mut sweeps, mut overhead) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut matched_docs = 0usize;
    let mut inexact = 0usize;
    let mut cpu = 0.0;
    serve.with_engine(|e| {
        let reference = Reference::new(e.index(), e.kg(), e.config());
        for &qi in order.iter().take(QUERY_SAMPLE) {
            let q = &queries[qi];
            let (docs, t_match) =
                timed(|| rollup::matched_docs(e.index(), e.kg(), q, e.config(), e.pool()));
            matching.push(t_match);
            matched_docs += docs.len();

            let cpu0 = process_cpu_secs();
            let (hits, t_roll) = timed(|| e.rollup(q, TOP_K));
            roll.push(t_roll);
            let (subs, t) = timed(|| e.drilldown(q, TOP_K));
            drill.push(t);
            rank.push_secs(t_roll.as_secs_f64() - t_match.as_secs_f64());
            sweeps.push_secs(t.as_secs_f64() - t_match.as_secs_f64());
            cpu += process_cpu_secs() - cpu0;

            let (seq_hits, t) =
                timed(|| rollup::rollup(e.index(), e.kg(), q, TOP_K, &sequential, e.pool()));
            seq_roll.push(t);
            let (seq_subs, t) =
                timed(|| drilldown::drilldown(e.index(), e.kg(), q, TOP_K, &sequential, e.pool()));
            seq_drill.push(t);
            let bits = |s: &[ncx_core::drilldown::Subtopic]| {
                s.iter()
                    .map(|x| (x.concept, x.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            if bits(&subs) != bits(&seq_subs) {
                inexact += 1;
            }

            let (via_serve, t) = timed(|| session.rollup(q, TOP_K));
            overhead.push_secs(t.as_secs_f64() - t_roll.as_secs_f64());
            if let Some(trace) = session.last_trace() {
                lookup.push(trace.phase(Phase::CacheLookup));
            }
            let outcome = reference
                .check_rollup(q, TOP_K, &hits)
                .and_then(|_| reference.check_drilldown(q, TOP_K, &subs))
                .and_then(|_| reference.check_rollup(q, TOP_K, &seq_hits))
                .and_then(|_| reference.check_drilldown(q, TOP_K, &seq_subs))
                .and_then(|_| match via_serve {
                    Ok(v) if *v == hits => Ok(()),
                    Ok(_) => Err("served roll-up differs from the engine's".into()),
                    Err(e) => Err(e.to_string()),
                });
            tally.record("probe query", 1, outcome);
        }
    });
    let n = matching.len().max(1) as f64;
    m.put("query.matching_us", us(matching.median()), "us");
    m.put("query.rank_us", us(rank.median()), "us");
    m.put("query.sweeps_us", us(sweeps.median()), "us");
    m.put("query.matched_docs", matched_docs as f64 / n, "count");
    m.put("query.cpu_us", us(cpu / (2.0 * n)), "us");
    m.put("query.rollup_p50_us", us(roll.median()), "us");
    m.put("query.drilldown_p50_us", us(drill.median()), "us");
    m.put("query.seq_rollup_p50_us", us(seq_roll.median()), "us");
    m.put("query.seq_drilldown_p50_us", us(seq_drill.median()), "us");
    m.put("query.drilldown_inexact", inexact as f64, "count");
    m.put("serve.cache_lookup_us", us(lookup.median()), "us");
    m.put("serve.overhead_us", us(overhead.median()), "us");

    // ---- ncx-store: delta flushes and compaction ----
    let (mut flush, mut compact) = (Samples::default(), Samples::default());
    let mut next_article = 0usize;
    for _ in 0..COMPACTIONS {
        for _ in 0..FLUSHES_PER_COMPACTION {
            let a = engine.document(DocId::from_index(next_article % engine.store().len()));
            next_article += 1;
            serve.ingest_article(a.source, &a.title, &a.body, a.published);
            let (flushed, t) = serve.with_engine(|e| timed(|| e.flush_delta(&snap)));
            flush.push(t);
            tally.record(
                "probe flush",
                1,
                flushed.map(|_| ()).map_err(|e| e.to_string()),
            );
        }
        let (compacted, t) = timed(|| NcExplorer::compact(&snap, kg));
        compact.push(t);
        tally.record(
            "probe compaction",
            1,
            compacted.map(|_| ()).map_err(|e| e.to_string()),
        );
    }
    m.put("store.flush_p50_us", us(flush.median()), "us");
    m.put("store.compact_ms", ms(compact.median()), "ms");
    let _ = std::fs::remove_dir_all(dir);
    m
}
