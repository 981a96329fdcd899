//! `live-epochs`: an epoch-sharded `ShardedLive` on file devices, fed
//! per-tick observation records in time order (disorder inside the
//! lateness slack), with inline seals every eighth of the stream and query
//! batches between append chunks.
//!
//! One round is one whole life of the index: create it, ingest the first
//! half of the stream (set-up), then alternate append chunks with query
//! batches over the second half. Rounds are identical, so counted IO and
//! answers repeat exactly from round to round.

use crate::archive::{overhead_pct, reach_agrees, same_answer};
use crate::reference::{per_tick_records, Record, Sweep};
use crate::report::{dir_bytes, least, peak_rss_mb, whole_rounds, Lap, Report, Samples, Stopwatch};
use crate::workload::{
    contacts_path, datasets, random_query, read_contacts, ASKS, HORIZON, OBJECTS, PAGE,
};
use crate::{Ctx, Layers};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reach_contact::DnGraph;
use reach_core::{
    Answer, Contact, DecayModel, IndexError, ObjectId, Query, ReachIndex, ReachRequest,
    TimeInterval,
};
use reach_ext::DecayOracle;
use reach_graph::GraphParams;
use reach_live::{LiveConfig, ShardedLive};
use reach_obs::Tracer;
use reach_storage::{BuildBudget, CacheStats, StorageConfig};
use std::path::Path;
use std::time::Duration;

/// Ticks a record may arrive behind the newest one without being late.
const LATENESS: u32 = 16;
/// Arrival disorder in ticks; below `LATENESS`, so nothing is clamped.
const JITTER: u32 = 8;
/// Seals per round: one after every eighth of the stream.
const EIGHTHS: usize = 8;
/// Append chunks (each followed by a query batch) per measured eighth.
const CHUNKS: usize = 8;
/// Queries per batch: 6/8 `Reach`, 1/8 `Decay`, 1/8 `TopK`.
const BATCH: [Kind; 32] = {
    use Kind::{Decay as D, Reach as R, TopK as T};
    [
        R, R, R, D, R, R, R, T, R, R, R, D, R, R, R, T, //
        R, R, R, D, R, R, R, T, R, R, R, D, R, R, R, T,
    ]
};
/// Shared page-cache capacity per sealed epoch, below the working set.
const CACHE_PAGES: usize = 512;
/// Readahead window of the shared caches.
const READAHEAD: usize = 4;
/// Resident budget of each seal's build.
const SEAL_BUDGET: usize = 256 << 10;
/// Decay threshold of the `Decay` queries.
const THETA: f64 = 0.02;
/// Ranking length of the `TopK` queries.
const TOP_K: usize = 5;

fn model() -> DecayModel {
    DecayModel::new(0.7, 0.99).expect("factors lie in (0, 1]")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Reach,
    Decay,
    TopK,
}

impl Kind {
    fn op(self) -> &'static str {
        match self {
            Kind::Reach => "reach",
            Kind::Decay => "decay",
            Kind::TopK => "topk",
        }
    }
}

/// One query of the round, asked after the first `prefix` records.
struct LiveQuery {
    kind: Kind,
    query: Query,
    prefix: usize,
}

impl LiveQuery {
    fn request(&self) -> ReachRequest {
        let q = self.query;
        match self.kind {
            Kind::Reach => ReachRequest::from(q),
            Kind::Decay => ReachRequest::decay(q.source, q.interval, q.dest, THETA, model()),
            Kind::TopK => ReachRequest::top_k_reachable(q.source, q.interval, TOP_K, model()),
        }
    }
}

/// The round's schedule, fixed by the seed.
struct Plan {
    records: Vec<Record>,
    /// Record index where each eighth starts (and the stream's end).
    eighths: Vec<usize>,
    /// Query batches of the measured half, eight chunks per eighth.
    batches: Vec<(usize, Vec<LiveQuery>)>,
}

/// The per-tick feed of `contacts`: one record per contact tick, in
/// arrival order. Records arrive by tick, each delayed by a random
/// `0..JITTER` ticks, so arrivals are disordered inside the lateness slack
/// and none is ever late.
pub fn per_tick_feed(seed: u64, contacts: &[Contact]) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_EEDD);
    let mut keyed: Vec<(u32, Record)> = per_tick_records(contacts)
        .into_iter()
        .map(|r| (r.tick + rng.gen_range(0..JITTER), r))
        .collect();
    keyed.sort_by_key(|&(key, r)| (key, r.tick, r.a, r.b));
    keyed.into_iter().map(|(_, r)| r).collect()
}

impl Plan {
    fn new(seed: u64, contacts: &[Contact]) -> Self {
        let records = per_tick_feed(seed, contacts);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0BA7_C4E5);
        let n = records.len();
        let eighths: Vec<usize> = (0..=EIGHTHS).map(|e| n * e / EIGHTHS).collect();
        let mut now_after = Vec::with_capacity(n + 1);
        now_after.push(0u32);
        for r in &records {
            let last = *now_after.last().expect("seeded above");
            now_after.push(last.max(r.tick + 1));
        }
        let mut batches = Vec::new();
        for e in EIGHTHS / 2..EIGHTHS {
            let (lo, hi) = (eighths[e], eighths[e + 1]);
            for c in 1..=CHUNKS {
                let prefix = lo + (hi - lo) * c / CHUNKS;
                let now = now_after[prefix];
                let batch = BATCH
                    .iter()
                    .map(|&kind| LiveQuery {
                        kind,
                        query: random_query(&mut rng, OBJECTS, now),
                        prefix,
                    })
                    .collect();
                batches.push((prefix, batch));
            }
        }
        Self {
            records,
            eighths,
            batches,
        }
    }

    fn queries(&self) -> impl Iterator<Item = &LiveQuery> {
        self.batches.iter().flat_map(|(_, b)| b.iter())
    }
}

/// What one round over one dataset measured. Times are wall clock
/// unless named `cpu`.
#[derive(Default)]
struct Round {
    setup: Lap,
    answers: Vec<Result<Answer, IndexError>>,
    query: Vec<Lap>,
    /// Per-append time (traced rounds only).
    append: Samples,
    /// Records appended, and time in `append` plus seals, measured half.
    appended: u64,
    ingest: Duration,
    seals: Vec<reach_live::CompactionStats>,
    append_failed: u64,
    seal_failed: u64,
    stats: reach_live::LiveStats,
    cache: CacheStats,
    shards: usize,
    index_bytes: u64,
    /// Per query: (spans, sealed legs, handoff seeds) when traced.
    spans: Vec<(u64, u64, u64)>,
}

fn open(dir: &Path) -> ShardedLive {
    LiveConfig::graph(
        GraphParams {
            partition_depth: 8,
            page_size: PAGE,
            ..GraphParams::default()
        },
        BuildBudget::bytes(SEAL_BUDGET),
    )
    .strict()
    .manual_compaction()
    .with_lateness(LATENESS)
    .with_shared_cache(CACHE_PAGES)
    .with_readahead(READAHEAD)
    .builder()
    .backend(StorageConfig::file(dir, PAGE))
    .build_sharded(OBJECTS)
    .expect("sharded index creates in the work directory")
}

/// Appends one record; it must be logged unclamped.
fn append_ok(live: &ShardedLive, r: &Record) -> bool {
    let c = Contact::new(ObjectId(r.a), ObjectId(r.b), TimeInterval::instant(r.tick));
    live.append(c).is_ok_and(|o| o.logged && !o.clamped)
}

/// Appends `records`; with `per_record`, also times every append alone.
fn append_chunk(live: &ShardedLive, records: &[Record], out: &mut Round, per_record: bool) {
    let watch = Stopwatch::start();
    for r in records {
        if per_record {
            let one = Stopwatch::start();
            out.append_failed += u64::from(!append_ok(live, r));
            out.append.push(one.stop().wall);
        } else {
            out.append_failed += u64::from(!append_ok(live, r));
        }
    }
    out.ingest += watch.stop().wall;
    out.appended += records.len() as u64;
}

/// Seals up to `now - lateness`, returning the time it took.
fn seal(live: &ShardedLive, out: &mut Round) -> Duration {
    let watch = Stopwatch::start();
    let sealed = live.seal_now();
    let took = watch.stop().wall;
    match sealed {
        Ok(stats) => out.seals.extend(stats),
        Err(_) => out.seal_failed += 1,
    }
    took
}

fn run_round(plan: &Plan, dir: &Path, traced: bool) -> Round {
    let mut out = Round::default();
    let _ = std::fs::remove_dir_all(dir);
    let watch = Stopwatch::start();
    let live = open(dir);
    for e in 0..EIGHTHS / 2 {
        for r in &plan.records[plan.eighths[e]..plan.eighths[e + 1]] {
            out.append_failed += u64::from(!append_ok(&live, r));
        }
        seal(&live, &mut out);
    }
    out.setup = watch.stop();
    let mut at = plan.eighths[EIGHTHS / 2];
    for (b, (prefix, batch)) in plan.batches.iter().enumerate() {
        append_chunk(&live, &plan.records[at..*prefix], &mut out, traced);
        at = *prefix;
        for lq in batch {
            let tracer = if traced {
                Tracer::enabled(out.answers.len() as u64 + 1)
            } else {
                Tracer::off()
            };
            let request = lq.request().with_trace(tracer.clone());
            let watch = Stopwatch::start();
            let answer = live.answer(&request);
            let lap = watch.stop();
            out.query.push(lap);
            out.answers.push(answer);
            if traced {
                let events = tracer.take_events();
                let legs: Vec<_> = events
                    .iter()
                    .filter(|e| e.name == "shard/leg" || e.name == "shard/decay-leg")
                    .collect();
                let seeds = legs.iter().map(|e| e.seeds).sum();
                out.spans
                    .push((events.len() as u64, legs.len() as u64, seeds));
            }
        }
        if (b + 1) % CHUNKS == 0 {
            let took = seal(&live, &mut out);
            out.ingest += took;
        }
    }
    out.stats = live.stats();
    out.cache = live.cache_stats().unwrap_or_default();
    out.shards = live.shard_count();
    drop(live);
    out.index_bytes = dir_bytes(dir);
    out
}

/// Checks one round-0 answer against the sweep (and, for decay and top-k
/// windows wholly inside the fully appended history, the decay oracle).
struct Checker<'a> {
    sweep: Sweep,
    /// `complete[p]`: every tick below it has all its records among the
    /// first `p` records.
    complete: Vec<u32>,
    oracle: DecayOracle<'a>,
    oracle_checked: u64,
}

impl Checker<'_> {
    fn check(&mut self, lq: &LiveQuery, a: &Answer) -> bool {
        let q = lq.query;
        let (t1, t2) = (q.interval.start, q.interval.end);
        if lq.kind == Kind::Reach {
            return reach_agrees(&self.sweep, &q, a, lq.prefix);
        }
        let holders = self.sweep.holders(q.source.0, t1, t2, lq.prefix);
        let weight_ok = |w: f64| w > 0.0 && w <= 1.0;
        let settled = t2 < self.complete[lq.prefix];
        let model = model();
        match lq.kind {
            Kind::Decay => {
                let hold = holders[q.dest.index()];
                let props = match a.ranking.as_slice() {
                    [] => !a.reachable(),
                    [w] => {
                        a.reachable()
                            && w.object == q.dest
                            && weight_ok(w.weight)
                            && w.weight >= THETA
                            && hold.is_some_and(|h| h <= w.arrival && w.arrival <= t2)
                    }
                    _ => false,
                };
                if !props || !settled {
                    return props;
                }
                self.oracle_checked += 1;
                let want = self
                    .oracle
                    .decay_reachable(q.source, q.dest, q.interval, &model, THETA);
                want == a.ranking.first().map(|r| (r.weight, r.arrival))
            }
            Kind::TopK => {
                let reachable = holders
                    .iter()
                    .enumerate()
                    .filter(|&(o, h)| h.is_some() && o != q.source.index())
                    .count();
                let ranked = &a.ranking;
                let props = ranked.len() == reachable.min(TOP_K)
                    && ranked.iter().all(|r| {
                        r.object != q.source
                            && weight_ok(r.weight)
                            && holders[r.object.index()].is_some_and(|h| h <= r.arrival)
                    })
                    && ranked.windows(2).all(|w| w[1].weight <= w[0].weight);
                if !props || !settled {
                    return props;
                }
                self.oracle_checked += 1;
                let want = self
                    .oracle
                    .top_k_reachable(q.source, q.interval, TOP_K, &model);
                want == *ranked
            }
            Kind::Reach => unreachable!("handled above"),
        }
    }
}

/// Runs whole rounds for `budget` and at least `min_rounds`; a round runs
/// every plan once. Returns the rounds of each plan.
fn rounds(
    plans: &[Plan],
    dir: &Path,
    budget: Duration,
    min_rounds: usize,
    traced: bool,
) -> Vec<Vec<Round>> {
    let mut out: Vec<Vec<Round>> = plans.iter().map(|_| Vec::new()).collect();
    whole_rounds(budget, min_rounds, |_| {
        for (k, plan) in plans.iter().enumerate() {
            out[k].push(run_round(plan, dir, traced));
        }
    });
    out
}

/// Counts operations and checks answers of `runs` (all of one plan).
fn account(report: &mut Report, plan: &Plan, runs: &[Round], checker: &mut Checker) {
    let first = &runs[0];
    for (i, lq) in plan.queries().enumerate() {
        let right = first.answers[i]
            .as_ref()
            .is_ok_and(|a| checker.check(lq, a));
        let drift = runs[1..]
            .iter()
            .filter(|r| !same_answer(&first.answers[i], &r.answers[i]))
            .count() as u64;
        let n = runs.len() as u64;
        report
            .ops
            .add(lq.kind.op(), n, if right { drift } else { n });
    }
    for r in runs {
        report
            .ops
            .add("append", plan.records.len() as u64, r.append_failed);
        report.ops.add(
            "seal",
            (r.seals.len() as u64) + r.seal_failed,
            r.seal_failed,
        );
        report.check(r.index_bytes == first.index_bytes, || {
            "index size differs between identical rounds".into()
        });
    }
}

/// `live-epochs`: see the module docs.
pub fn live_epochs(ctx: &Ctx, report: &mut Report, layers: &mut Layers) {
    let mut plans = Vec::new();
    let mut contacts = Vec::new();
    for (k, seed) in datasets(ctx.seed).enumerate() {
        let c = read_contacts(&contacts_path(&ctx.work, k));
        plans.push(Plan::new(seed, &c));
        contacts.push(c);
    }
    let dir = ctx.work.join("live");

    let (runs, base) = if ctx.trace {
        let half = ctx.budget() / 2;
        let base = rounds(&plans, &dir, half, 1, false);
        (rounds(&plans, &dir, half, 1, true), Some(base))
    } else {
        // Rounds are identical, so each query is asked `ASKS` times and
        // each dataset set up as often.
        (rounds(&plans, &dir, ctx.budget(), ASKS, false), None)
    };
    let rss = peak_rss_mb();
    let _ = std::fs::remove_dir_all(&dir);

    // Reference checks: after the memory reading, so they do not count.
    let mut oracle_checked = 0;
    for (k, plan) in plans.iter().enumerate() {
        let mut complete = vec![u32::MAX; plan.records.len() + 1];
        for p in (0..plan.records.len()).rev() {
            complete[p] = complete[p + 1].min(plan.records[p].tick);
        }
        let dn = DnGraph::from_contacts(OBJECTS, HORIZON, &contacts[k]);
        let mut checker = Checker {
            sweep: Sweep::new(OBJECTS, HORIZON, &plan.records),
            complete,
            oracle: DecayOracle::new(&dn),
            oracle_checked: 0,
        };
        account(report, plan, &runs[k], &mut checker);
        if let Some(base) = &base {
            account(report, plan, &base[k], &mut checker);
        }
        oracle_checked += checker.oracle_checked;
    }

    // Every figure below pools all datasets; `first` holds each one's
    // round 0 (later rounds repeat it exactly).
    let all: Vec<&Round> = runs.iter().flatten().collect();
    let first: Vec<&Round> = runs.iter().map(|r| &r[0]).collect();
    let ok: Vec<(&LiveQuery, &Answer)> = plans
        .iter()
        .zip(&first)
        .flat_map(|(plan, r)| plan.queries().zip(&r.answers))
        .filter_map(|(lq, a)| a.as_ref().ok().map(|a| (lq, a)))
        .collect();
    let mean_io = |kind: Option<Kind>| {
        let sel: Vec<f64> = ok
            .iter()
            .filter(|(lq, _)| kind.is_none_or(|k| lq.kind == k))
            .map(|(_, a)| a.stats.normalized_io())
            .collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let index_bytes: u64 = first.iter().map(|r| r.index_bytes).sum();
    report.notes.push(format!(
        "rounds {} x {} datasets; decay/top-k answers also matched to the decay oracle: \
         {oracle_checked}",
        runs[0].len(),
        plans.len(),
    ));

    if !ctx.trace {
        let setups: Vec<Lap> = runs
            .iter()
            .filter_map(|rs| least(rs[..ASKS].iter().map(|r| r.setup)))
            .collect();
        let (mut best_wall, mut best_cpu) = (Samples::default(), Samples::default());
        for rs in &runs {
            for (i, answer) in rs[0].answers.iter().enumerate() {
                let laps = rs[..ASKS].iter().map(|r| r.query[i]);
                if let (Some(best), Ok(_)) = (least(laps), answer) {
                    best_wall.push(best.wall);
                    best_cpu.push(best.cpu);
                }
            }
        }
        report.times(&setups, &best_wall, &best_cpu);
        report.metric("query_io_pages", mean_io(None), "pages");
        report.metric(
            "index_mb",
            index_bytes as f64 / plans.len() as f64 / 1e6,
            "MB",
        );
        report.metric("peak_rss_mb", rss, "MB");
        return;
    }

    let mut cpu = Samples::default();
    let mut wall = Samples::default();
    for r in &all {
        for lap in &r.query {
            cpu.push(lap.cpu);
            wall.push(lap.wall);
        }
    }
    let kind_p50 = |kind: Kind| {
        let mut s = Samples::default();
        for (plan, rs) in plans.iter().zip(&runs) {
            for r in rs {
                for (lq, lap) in plan.queries().zip(&r.query) {
                    if lq.kind == kind {
                        s.push(lap.wall);
                    }
                }
            }
        }
        s.quantile(0.5)
    };
    let per_query = |f: &dyn Fn(&Answer) -> f64| {
        ok.iter().map(|(_, a)| f(a)).sum::<f64>() / ok.len().max(1) as f64
    };
    let n_all = all.len() as f64;
    let n_first = first.len() as f64;
    let seals: Vec<&reach_live::CompactionStats> = all.iter().flat_map(|r| &r.seals).collect();
    let spans: (u64, u64, u64) = all
        .iter()
        .flat_map(|r| &r.spans)
        .fold((0, 0, 0), |a, s| (a.0 + s.0, a.1 + s.1, a.2 + s.2));
    let traced_queries = cpu.len().max(1) as f64;
    let mut appends = Samples::default();
    for r in &all {
        appends.extend(&r.append);
    }
    let records: usize = plans.iter().map(|p| p.records.len()).sum();
    let log_writes: u64 = first.iter().map(|r| r.stats.append_io.total_writes()).sum();
    let mut cache = CacheStats::default();
    for r in &first {
        cache.hits += r.cache.hits;
        cache.misses += r.cache.misses;
        cache.prefetched += r.cache.prefetched;
        cache.prefetch_hits += r.cache.prefetch_hits;
        cache.evictions += r.cache.evictions;
    }
    layers.set(
        "storage.read_pages",
        per_query(&|a| (a.stats.random_ios + a.stats.seq_ios) as f64),
    );
    layers.set(
        "storage.random_reads",
        per_query(&|a| a.stats.random_ios as f64),
    );
    layers.set("storage.cache_hit_rate", cache.hit_rate());
    layers.set("storage.cache_evictions", cache.evictions as f64 / n_first);
    layers.set(
        "storage.prefetch_accuracy",
        cache.prefetch_hits as f64 / cache.prefetched.max(1) as f64,
    );
    layers.set(
        "storage.spill_read_pages",
        seals.iter().map(|s| s.spill.io.total_reads()).sum::<u64>() as f64 / n_all,
    );
    layers.set(
        "storage.spill_write_pages",
        seals.iter().map(|s| s.spill.io.total_writes()).sum::<u64>() as f64 / n_all,
    );
    layers.set(
        "storage.build_peak_resident_kb",
        seals
            .iter()
            .map(|s| s.spill.peak_resident_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1024.0,
    );
    layers.set("reachgraph.visited", per_query(&|a| a.stats.visited as f64));
    layers.set(
        "reachgraph.cpu_us",
        per_query(&|a| a.stats.cpu.as_secs_f64() * 1e6),
    );
    // The sharded index creates its devices itself, so device time is not
    // separable from outside: software time here is the whole latency.
    layers.set("reachgraph.software_us", wall.mean());
    let appended: u64 = all.iter().map(|r| r.appended).sum();
    let ingest: f64 = all.iter().map(|r| r.ingest.as_secs_f64()).sum();
    layers.set("live.append_rps", appended as f64 / ingest);
    layers.set("live.append_p50_us", appends.quantile(0.5));
    layers.set("live.seals", seals.len() as f64 / n_all);
    layers.set(
        "live.seal_ms",
        seals
            .iter()
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .sum::<f64>()
            / seals.len().max(1) as f64,
    );
    layers.set("live.log_write_pages", log_writes as f64 / n_first);
    layers.set(
        "live.write_pages_per_record",
        log_writes as f64 / records as f64,
    );
    layers.set(
        "live.delta_peak_kb",
        first
            .iter()
            .map(|r| r.stats.delta_peak_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1024.0,
    );
    layers.set(
        "live.shards",
        first.iter().map(|r| r.shards).sum::<usize>() as f64 / n_first,
    );
    layers.set("live.legs_per_query", spans.1 as f64 / traced_queries);
    layers.set(
        "live.handoff_seeds_per_query",
        spans.2 as f64 / traced_queries,
    );
    layers.set("live.reach_p50_us", kind_p50(Kind::Reach));
    layers.set("live.decay_p50_us", kind_p50(Kind::Decay));
    layers.set("live.topk_p50_us", kind_p50(Kind::TopK));
    layers.set("live.reach_io_pages", mean_io(Some(Kind::Reach)));
    layers.set("live.decay_io_pages", mean_io(Some(Kind::Decay)));
    layers.set("live.topk_io_pages", mean_io(Some(Kind::TopK)));
    layers.set("obs.spans_per_query", spans.0 as f64 / traced_queries);
    let mut untraced = Samples::default();
    for r in base.iter().flatten().flatten() {
        r.query.iter().for_each(|lap| untraced.push(lap.cpu));
    }
    layers.set("obs.overhead_pct", overhead_pct(&untraced, &cpu));
}
