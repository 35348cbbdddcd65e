//! The four workloads. Load comes from one thread issuing a seeded,
//! fixed sequence of operations (a closed loop with one session); the
//! engine runs at its production default width, `Parallelism::Auto`.

use crate::checks;
use crate::inputs::{self, Op, OpKind, OpStream, TOP_K};
use crate::measure::{rss_peak_mib, steal_ticks, timed, Metrics, Samples};
use crate::probe;
use crate::reference::Reference;
use crate::rng::Rng;
use crate::tally::Tally;
use ncx_core::drilldown::Subtopic;
use ncx_core::rollup::RollupHit;
use ncx_core::{ConceptQuery, NcExplorer, NcxConfig, Parallelism, QueryError};
use ncx_datagen::GeneratedCorpus;
use ncx_index::DocumentStore;
use ncx_kg::DocId;
use ncx_serve::{NcxServe, ServeConfig, ServeSession, ServeStats};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and reported as the median.
const SETUP_REPEATS: usize = 5;
/// Untimed operations before the timed loop (fills the cache on
/// `explore-zipf`, warms the processor's caches on both).
const WARMUP_OPS: usize = 1000;
/// The timed exploration loop runs whole rounds of this many operations;
/// steal is tallied per round.
const ROUND_OPS: usize = 250;
/// `news-stream`: articles indexed before the stream starts.
const STREAM_BASE_ARTICLES: usize = 2000;
/// `news-stream`: roll-ups after each ingest.
const READS_PER_INGEST: usize = 2;
/// `news-stream`: a checkpoint after every this many articles.
const CHECKPOINT_EVERY: usize = 100;
/// `news-stream`: one read in this many is checked against the index as
/// it stands right after the read.
const STREAM_CHECK_EVERY: usize = 4;
/// `index-build`: cold opens of the saved snapshot per build.
const OPENS_PER_BUILD: usize = 40;
/// The share of rounds, least steal first, that the exploration and
/// stream figures are taken over. Against taking every round, it cut the
/// interquartile spread of `explore-uncached`'s p95 over six seeds from
/// 0.26 to 0.15, and a half cut it to 0.20.
const STOLEN_SHARE_KEPT: f64 = 0.25;
/// Queries replayed on a reopened snapshot to compare with the live server.
const REOPEN_SAMPLE: usize = 100;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Whether the answers were checked: every one on the exploration
    /// workloads and `index-build`, a seeded sample on `news-stream`.
    pub answers_checked: bool,
    pub end_to_end: Metrics,
    pub per_layer: Option<Metrics>,
}

pub const WORKLOADS: [&str; 4] = [
    "explore-uncached",
    "explore-zipf",
    "news-stream",
    "index-build",
];

pub fn run(args: &Args, work: &Path) -> Outcome {
    match args.workload.as_str() {
        "explore-uncached" => explore(args, work, false),
        "explore-zipf" => explore(args, work, true),
        "news-stream" => news_stream(args, work),
        "index-build" => index_build(args, work),
        other => panic!("unknown workload {other}"),
    }
}

/// One operator's answer as the server returned it.
enum Answer {
    Rollup(Arc<Vec<RollupHit>>),
    Drilldown(Arc<Vec<Subtopic>>),
}

fn issue(session: &ServeSession<'_>, q: &ConceptQuery, kind: OpKind) -> Result<Answer, QueryError> {
    match kind {
        OpKind::Rollup => session.rollup(q, TOP_K).map(Answer::Rollup),
        OpKind::Drilldown => session.drilldown(q, TOP_K).map(Answer::Drilldown),
    }
}

fn check_answer(r: &Reference<'_>, q: &ConceptQuery, answer: &Answer) -> Result<(), String> {
    match answer {
        Answer::Rollup(hits) => r.check_rollup(q, TOP_K, hits),
        Answer::Drilldown(subs) => r.check_drilldown(q, TOP_K, subs),
    }
}

/// The rounds of a timed loop, each with the CPU time the hypervisor
/// stole from the machine while it ran. Steal comes in bursts of seconds
/// and only ever slows a round down, so the figures are taken over the
/// rounds with the least steal: throughput as work per second of calls
/// into the program, latency percentiles over their pooled samples.
/// Rounds of unlike work (the streamed block that compacts, say) carry
/// different strata, and the share is kept within each stratum, so the
/// selection keeps the mix of work the loop ran.
struct Rounds {
    /// The share of the rounds the figures are taken over.
    kept_share: f64,
    rounds: Vec<Round>,
    steal_at_start: u64,
}

struct Round {
    stratum: usize,
    steal: u64,
    work: f64,
    busy_secs: f64,
    latency: Samples,
}

impl Rounds {
    fn keeping(kept_share: f64) -> Self {
        Self {
            kept_share,
            rounds: Vec::new(),
            steal_at_start: 0,
        }
    }

    /// Marks the start of a round.
    fn start(&mut self) {
        self.steal_at_start = steal_ticks();
    }

    /// Ends a round of `stratum` that did `work` units of work
    /// (operations, articles, documents) in `busy_secs` of calls into the
    /// program, with `latency` the samples its percentiles cover.
    fn end(&mut self, stratum: usize, work: f64, busy_secs: f64, latency: Samples) {
        let steal = steal_ticks().saturating_sub(self.steal_at_start);
        self.rounds.push(Round {
            stratum,
            steal,
            work,
            busy_secs,
            latency,
        });
    }

    /// Throughput, p50 and p95 over the least-stolen rounds.
    fn figures(&self) -> (f64, f64, f64) {
        let mut kept: Vec<&Round> = Vec::new();
        let strata = self
            .rounds
            .iter()
            .map(|r| r.stratum)
            .max()
            .map_or(0, |s| s + 1);
        for stratum in 0..strata {
            let mut of: Vec<&Round> = self
                .rounds
                .iter()
                .filter(|r| r.stratum == stratum)
                .collect();
            of.sort_by_key(|r| r.steal);
            of.truncate(((of.len() as f64 * self.kept_share).ceil() as usize).max(1));
            kept.extend(of);
        }
        let work: f64 = kept.iter().map(|r| r.work).sum();
        let busy: f64 = kept.iter().map(|r| r.busy_secs).sum();
        let mut pooled = Samples::default();
        for r in &kept {
            pooled.extend(&r.latency);
        }
        (work / busy, pooled.median(), pooled.quantile(0.95))
    }
}

fn end_to_end(setup: &Samples, rounds: &Rounds) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", setup.median(), "s");
    let (throughput, p50, p95) = rounds.figures();
    m.put("throughput_per_s", throughput, "1/s");
    m.put("latency_p50_us", p50 * 1e6, "us");
    m.put("latency_p95_us", p95 * 1e6, "us");
    m.put("rss_peak_mb", rss_peak_mib(), "MiB");
    m
}

fn summary(name: &str, s: &Samples) -> String {
    format!(
        "{name}: n={} total={:.3}s p50={:.1}us p95={:.1}us p99={:.1}us",
        s.len(),
        s.total_secs(),
        s.median() * 1e6,
        s.quantile(0.95) * 1e6,
        s.quantile(0.99) * 1e6
    )
}

fn serve_deltas(m: &mut Metrics, before: ServeStats, after: ServeStats) {
    m.put(
        "serve.cache_hits",
        (after.cache_hits - before.cache_hits) as f64,
        "count",
    );
    m.put(
        "serve.cache_misses",
        (after.cache_misses - before.cache_misses) as f64,
        "count",
    );
    m.put(
        "serve.cache_evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
        "count",
    );
    m.put(
        "serve.cache_invalidations",
        (after.cache_invalidations - before.cache_invalidations) as f64,
        "count",
    );
}

/// `explore-uncached` and `explore-zipf`.
///
/// On `explore-zipf` the latency percentiles are over cache misses: with
/// about half the queries hitting, the median of all queries falls on the
/// gap between a hit (a few microseconds) and a miss (hundreds) and jumps
/// across it from seed to seed. Hits show in the throughput.
fn explore(args: &Args, work: &Path, cached: bool) -> Outcome {
    let kg = inputs::medium_kg();
    let corpus = inputs::corpus(&kg, inputs::CORPUS_ARTICLES);
    let queries = inputs::query_set(&kg);
    let serve_config = ServeConfig {
        cache_capacity: if cached {
            ServeConfig::default().cache_capacity
        } else {
            0
        },
        ..ServeConfig::default()
    };
    let mut setup = Samples::default();
    let mut serve = None;
    for _ in 0..SETUP_REPEATS {
        drop(serve.take());
        let store = corpus.store.clone();
        let (s, d) = timed(|| {
            NcxServe::new(
                NcExplorer::build(kg.clone(), store, NcxConfig::default()),
                serve_config.clone(),
            )
        });
        setup.push(d);
        serve = Some(s);
    }
    let serve = serve.expect("set up at least once");
    let session = serve.session();
    let mut ops = if cached {
        OpStream::zipf(args.seed, 2, queries.len(), 3)
    } else {
        OpStream::uniform(args.seed, 2, queries.len(), 3)
    };

    let mut tally = Tally::default();
    // The first answer per (operation, cache outcome), with the number of
    // operations that returned it; all are checked after the timed loop.
    let mut answers: HashMap<(Op, bool), (u64, Answer)> = HashMap::new();
    let mut step = |op: Op, tally: &mut Tally| -> Option<(Duration, bool)> {
        let hits_before = serve.stats().cache_hits;
        let (result, d) = timed(|| issue(&session, &queries[op.query], op.kind));
        let hit = serve.stats().cache_hits > hits_before;
        match result {
            Ok(answer) => {
                answers.entry((op, hit)).or_insert((0, answer)).0 += 1;
                Some((d, hit))
            }
            Err(e) => {
                tally.record("query", 1, Err(e.to_string()));
                None
            }
        }
    };
    for _ in 0..WARMUP_OPS {
        step(ops.next_op(), &mut tally);
    }

    let before = serve.stats();
    let mut rounds = Rounds::keeping(STOLEN_SHARE_KEPT);
    let mut all = Samples::default();
    let mut by_kind = [Samples::default(), Samples::default()];
    let (mut hits, mut misses) = (Samples::default(), Samples::default());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let (mut round, mut round_misses) = (Samples::default(), Samples::default());
        rounds.start();
        for _ in 0..ROUND_OPS {
            let op = ops.next_op();
            if let Some((d, hit)) = step(op, &mut tally) {
                round.push(d);
                all.push(d);
                by_kind[op.kind as usize].push(d);
                if hit {
                    hits.push(d);
                } else {
                    misses.push(d);
                    round_misses.push(d);
                }
            }
        }
        let busy = round.total_secs();
        rounds.end(
            0,
            round.len() as f64,
            busy,
            if cached { round_misses } else { round },
        );
    }
    let after = serve.stats();
    // Read before checking, so the peak is the program's own.
    let end_to_end = end_to_end(&setup, &rounds);

    // Two checking threads, each with its own reference over the index.
    let checking = Instant::now();
    let answers: Vec<_> = answers.into_iter().collect();
    let outcomes: Vec<Result<(), String>> = serve.with_engine(|e| {
        let half = answers.len().div_ceil(2);
        std::thread::scope(|scope| {
            let parts: Vec<_> = answers
                .chunks(half.max(1))
                .map(|part| {
                    scope.spawn(|| {
                        let r = Reference::new(e.index(), e.kg(), e.config());
                        part.iter()
                            .map(|((op, _), (_, answer))| {
                                check_answer(&r, &queries[op.query], answer)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("checking thread"))
                .collect()
        })
    });
    for (((_, hit), (count, _)), outcome) in answers.iter().zip(outcomes) {
        tally.record(
            if *hit { "cached answer" } else { "answer" },
            *count,
            outcome,
        );
    }
    eprintln!(
        "checked {} distinct answers in {:.1}s",
        answers.len(),
        checking.elapsed().as_secs_f64()
    );
    eprintln!("{}", summary("queries", &all));
    eprintln!("{}", summary("roll-ups", &by_kind[0]));
    eprintln!("{}", summary("drill-downs", &by_kind[1]));
    eprintln!("{}", summary("cache hits", &hits));
    eprintln!("{}", summary("cache misses", &misses));

    let per_layer = args.trace.then(|| {
        let mut m = serve
            .with_engine(|e| probe::run(e, &queries, args.seed, &work.join("probe"), &mut tally));
        serve_deltas(&mut m, before, after);
        m
    });
    Outcome {
        answers_checked: true,
        tally,
        end_to_end,
        per_layer,
    }
}

fn same_digest(want: u64, got: u64) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!("index digest {got:016x}, first build {want:016x}"))
    }
}

fn clean_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    clean_dir(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn store_of<'a>(articles: impl Iterator<Item = &'a ncx_index::NewsArticle>) -> DocumentStore {
    let mut store = DocumentStore::new();
    for a in articles {
        store.add(a.source, a.title.clone(), a.body.clone(), a.published);
    }
    store
}

/// `news-stream`.
fn news_stream(args: &Args, work: &Path) -> Outcome {
    let kg = inputs::medium_kg();
    let corpus = inputs::corpus(&kg, inputs::CORPUS_ARTICLES);
    let queries = inputs::query_set(&kg);
    let base_store = store_of(corpus.store.iter().take(STREAM_BASE_ARTICLES));
    let stream_articles: Vec<_> = corpus.store.iter().skip(STREAM_BASE_ARTICLES).collect();
    let arrivals: Vec<_> = inputs::permutation(args.seed, 6, stream_articles.len())
        .into_iter()
        .map(|i| stream_articles[i])
        .collect();
    let base_dir = work.join("base");
    let round_dir = work.join("stream");
    let config = NcxConfig::default();
    let mut tally = Tally::default();

    let mut setup = Samples::default();
    for _ in 0..SETUP_REPEATS {
        clean_dir(&base_dir);
        let store = base_store.clone();
        let (saved, d) =
            timed(|| NcExplorer::build(kg.clone(), store, config.clone()).save(&base_dir));
        setup.push(d);
        tally.record("base snapshot", 1, saved.map_err(|e| e.to_string()));
    }

    let mut reads_rng = Rng::new(args.seed, 3);
    let mut ingest = Samples::default();
    let mut checkpoint = Samples::default();
    let mut reads = Samples::default();
    let mut checked_reads = 0u64;
    let mut compactions = 0u64;
    let mut rounds = 0u32;
    let mut stream_time = Duration::ZERO;
    // Steal is tallied per block of CHECKPOINT_EVERY articles (ending with
    // its checkpoint), a finer grain than the 1,000-article round.
    let mut blocks = Rounds::keeping(STOLEN_SHARE_KEPT);
    let mut last: Option<(NcxServe, ServeStats)> = None;
    while stream_time.as_secs_f64() < args.seconds {
        drop(last.take());
        copy_dir(&base_dir, &round_dir).expect("copy the base snapshot");
        let engine = NcExplorer::open(&base_dir, kg.clone(), config.clone())
            .expect("open the base snapshot");
        let serve = NcxServe::new(engine, ServeConfig::default());
        let session = serve.session();
        let before = serve.stats();
        let round_start = Instant::now();
        let mut block_ingest = Samples::default();
        blocks.start();
        for (i, a) in arrivals.iter().enumerate() {
            let (doc, d) = timed(|| serve.ingest_article(a.source, &a.title, &a.body, a.published));
            ingest.push(d);
            block_ingest.push(d);
            let expected = STREAM_BASE_ARTICLES + i;
            tally.record(
                "ingest",
                1,
                if doc.index() == expected {
                    Ok(())
                } else {
                    Err(format!("doc id {}, expected {expected}", doc.raw()))
                },
            );
            for _ in 0..READS_PER_INGEST {
                let q = &queries[reads_rng.below(queries.len())];
                let check = reads_rng.below(STREAM_CHECK_EVERY) == 0;
                let (result, d) = timed(|| session.rollup(q, TOP_K));
                let outcome = match result {
                    Ok(hits) => {
                        reads.push(d);
                        if check {
                            checked_reads += 1;
                            serve.with_engine(|e| {
                                Reference::new(e.index(), e.kg(), e.config())
                                    .check_rollup(q, TOP_K, &hits)
                            })
                        } else {
                            Ok(())
                        }
                    }
                    Err(e) => Err(e.to_string()),
                };
                tally.record("stream read", 1, outcome);
            }
            if (i + 1) % CHECKPOINT_EVERY == 0 || i + 1 == arrivals.len() {
                let (outcome, d) = timed(|| serve.checkpoint(&round_dir));
                checkpoint.push(d);
                let block = std::mem::take(&mut block_ingest);
                blocks.end(
                    i / CHECKPOINT_EVERY,
                    block.len() as f64,
                    block.total_secs() + d.as_secs_f64(),
                    block,
                );
                blocks.start();
                if outcome.as_ref().is_ok_and(|o| o.compacted) {
                    compactions += 1;
                }
                tally.record(
                    "checkpoint",
                    1,
                    outcome.map(|_| ()).map_err(|e| e.to_string()),
                );
            }
        }
        stream_time += round_start.elapsed();
        rounds += 1;
        drop(session);
        last = Some((serve, before));
    }
    let (serve, before) = last.expect("at least one round");
    let end_to_end = end_to_end(&setup, &blocks);
    let streamed = store_of(base_store.iter().chain(arrivals.iter().copied()));
    stream_properties(
        &serve, &kg, streamed, &queries, &round_dir, &config, args.seed, &mut tally,
    );
    eprintln!(
        "rounds: {rounds} of {} articles, {compactions} compactions",
        arrivals.len()
    );
    eprintln!("{}", summary("ingest", &ingest));
    eprintln!("{}", summary("checkpoint", &checkpoint));
    eprintln!("{}", summary("reads", &reads));

    let per_layer = args.trace.then(|| {
        let after = serve.stats();
        let mut m = serve
            .with_engine(|e| probe::run(e, &queries, args.seed, &work.join("probe"), &mut tally));
        serve_deltas(&mut m, before, after);
        m
    });
    Outcome {
        answers_checked: checked_reads > 0,
        tally,
        end_to_end,
        per_layer,
    }
}

/// After the last round: a cold open of the checkpointed directory answers a
/// query sample exactly as the live server does, and the streamed posting
/// document sets equal a batch build's over the same articles.
#[allow(clippy::too_many_arguments)]
fn stream_properties(
    serve: &NcxServe,
    kg: &Arc<ncx_kg::KnowledgeGraph>,
    streamed: DocumentStore,
    queries: &[ConceptQuery],
    dir: &Path,
    config: &NcxConfig,
    seed: u64,
    tally: &mut Tally,
) {
    let reopened = NcExplorer::open(dir, kg.clone(), config.clone());
    let mut rng = Rng::new(seed, 4);
    let sample: Vec<&ConceptQuery> = (0..REOPEN_SAMPLE)
        .map(|_| &queries[rng.below(queries.len())])
        .collect();
    serve.with_engine(|live| {
        let outcome = match &reopened {
            Err(e) => Err(format!("reopen failed: {e}")),
            Ok(cold) => sample
                .iter()
                .try_for_each(|q| {
                    if cold.rollup(q, TOP_K) != live.rollup(q, TOP_K)
                        || cold.drilldown(q, TOP_K) != live.drilldown(q, TOP_K)
                    {
                        Err(format!(
                            "reopened snapshot answers {} differently",
                            q.describe(kg)
                        ))
                    } else {
                        Ok(())
                    }
                })
                .and_then(|_| checks::same_index(kg, cold.index(), live.index())),
        };
        tally.record("reopened snapshot", 1, outcome);

        let batch = NcExplorer::build(kg.clone(), streamed, config.clone());
        let outcome = kg.concepts().try_for_each(|c| {
            let docs = |e: &NcExplorer| {
                e.index()
                    .postings(c)
                    .iter()
                    .map(|p| p.doc)
                    .collect::<Vec<_>>()
            };
            if docs(live) == docs(&batch) {
                Ok(())
            } else {
                Err(format!(
                    "streamed postings of {} differ from a batch build",
                    kg.concept_label(c)
                ))
            }
        });
        tally.record("stream vs batch postings", 1, outcome);
    });
}

/// `index-build`.
fn index_build(args: &Args, work: &Path) -> Outcome {
    let kg = inputs::medium_kg();
    let generated = inputs::corpus(&kg, inputs::CORPUS_ARTICLES);
    // The articles in a seeded order, ground truth alongside.
    let order = inputs::permutation(args.seed, 7, generated.store.len());
    let corpus = GeneratedCorpus {
        store: store_of(
            order
                .iter()
                .map(|&i| generated.store.get(DocId::from_index(i))),
        ),
        truth: order.iter().map(|&i| generated.truth[i].clone()).collect(),
    };
    let queries = inputs::query_set(&kg);
    let config = NcxConfig::default();
    let docs = corpus.store.len() as f64;
    let mut tally = Tally::default();

    // Repeated builds must be bit-identical; they are compared by digest
    // so that no second engine stays alive through the timed loop.
    let mut setup = Samples::default();
    let mut digest = None;
    for _ in 0..SETUP_REPEATS {
        let store = corpus.store.clone();
        let (engine, d) = timed(|| NcExplorer::build(kg.clone(), store, config.clone()));
        setup.push(d);
        let this = checks::index_digest(&kg, engine.index());
        let first = *digest.get_or_insert(this);
        tally.record("repeated build", 1, same_digest(first, this));
    }
    let digest = digest.expect("set up at least once");

    let snap: PathBuf = work.join("snapshot");
    let mut builds = Samples::default();
    let mut saves = Samples::default();
    let mut opens = Samples::default();
    // About twelve rounds of 40 opens: a quarter would leave too few opens
    // for a p95.
    let mut rounds = Rounds::keeping(0.5);
    let mut last = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        drop(last.take());
        rounds.start();
        let mut round_opens = Samples::default();
        let store = corpus.store.clone();
        let (engine, d) = timed(|| NcExplorer::build(kg.clone(), store, config.clone()));
        builds.push(d);
        tally.record(
            "build",
            1,
            same_digest(digest, checks::index_digest(&kg, engine.index())),
        );
        clean_dir(&snap);
        let (saved, d) = timed(|| engine.save(&snap));
        saves.push(d);
        tally.record("save", 1, saved.map_err(|e| e.to_string()));
        for _ in 0..OPENS_PER_BUILD {
            let (opened, d) = timed(|| NcExplorer::open(&snap, kg.clone(), config.clone()));
            opens.push(d);
            round_opens.push(d);
            let outcome = opened.map_err(|e| e.to_string()).and_then(|o| {
                checks::same_index(&kg, engine.index(), o.index())?;
                checks::same_store(engine.store(), o.store())
            });
            tally.record("open", 1, outcome);
        }
        rounds.end(0, docs, builds.last_secs(), round_opens);
        last = Some(engine);
    }
    let engine = last.expect("at least one build");
    eprintln!("{}", summary("builds", &builds));
    eprintln!("{}", summary("saves", &saves));
    eprintln!("{}", summary("opens", &opens));

    let end_to_end = end_to_end(&setup, &rounds);

    tally.record(
        "postings",
        1,
        checks::postings_well_formed(&kg, engine.index(), &config),
    );
    let sequential = NcExplorer::build(
        kg.clone(),
        corpus.store.clone(),
        NcxConfig {
            parallelism: Parallelism::Fixed(1),
            ..config.clone()
        },
    );
    tally.record(
        "Fixed(1) build",
        1,
        checks::same_index(&kg, engine.index(), sequential.index()),
    );
    drop(sequential);
    let (ncx, bm25) = checks::table1_ndcg(&engine, &corpus);
    eprintln!("table I NDCG@10: roll-up {ncx:.3}, BM25 {bm25:.3}");
    tally.record(
        "table I NDCG@10",
        1,
        if ncx >= bm25 {
            Ok(())
        } else {
            Err(format!("roll-up {ncx} below BM25 {bm25}"))
        },
    );

    let per_layer = args.trace.then(|| {
        let mut m = probe::run(
            &engine,
            &queries,
            args.seed,
            &work.join("probe"),
            &mut tally,
        );
        serve_deltas(&mut m, ServeStats::default(), ServeStats::default());
        m
    });
    Outcome {
        answers_checked: true,
        tally,
        end_to_end,
        per_layer,
    }
}
