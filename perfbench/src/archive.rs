//! The two archive workloads: a disk-resident ReachGraph built out of core
//! and served through the serve queue, and a ReachGrid over the same
//! trajectories queried directly. Both answer cold `Reach` queries (fresh
//! per-query buffers, the paper's cost model) on file devices.
//!
//! Each run builds one index per dataset of [`datasets`] and asks every
//! dataset's queries in each round.

use crate::probe::{DeviceProbe, TimedDevice};
use crate::reference::{per_tick_records, Sweep};
use crate::report::{
    least, peak_rss_mb, refresh_threads, whole_rounds, Lap, Report, Samples, Stopwatch,
};
use crate::workload::{
    contacts_path, datasets, events_path, read_contacts, rwp_store, window_queries, ASKS, HORIZON,
    OBJECTS, PAGE, THRESHOLD,
};
use crate::{Ctx, Layers};
use reach_contact::ingest::{ContactTrace, IngestOptions};
use reach_contact::{MultiRes, StreamedDn, DEFAULT_LEVELS};
use reach_core::{
    Answer, Coord, IndexError, Query, ReachIndex, ReachRequest, ReachabilityIndex, Serial,
};
use reach_graph::{GraphParams, ReachGraph};
use reach_grid::{GridParams, ReachGrid};
use reach_obs::Tracer;
use reach_serve::{ServeConfig, Server};
use reach_storage::{BlockDevice, BuildBudget, FileDevice, SpillStats};
use reach_traj::TrajectoryStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct queries per dataset of `graph-archive`. The 99th percentile
/// rests on the slowest distinct queries, so there are many of them.
const GRAPH_QUERIES: usize = 2000;
/// Distinct queries per dataset of `grid-archive` (each costs ≈ 10 ms):
/// 1002 in all, so the 99th percentile has ten beyond it.
const GRID_QUERIES: usize = 334;
/// Grid builds per dataset in an untraced run (each takes ≈ 0.3 s).
const GRID_SETUPS: usize = 5;
/// Resident budget of the out-of-core DN build.
const GRAPH_BUDGET: usize = 1 << 20;
/// Partition depth `d_p` of the ReachGraph.
const PARTITION_DEPTH: u32 = 8;

fn file_device(path: &Path) -> Box<dyn BlockDevice> {
    Box::new(FileDevice::create(path, PAGE).expect("benchmark work directory is writable"))
}

/// Wraps `device` in the timing decorator when `timed`.
fn maybe_timed(
    device: Box<dyn BlockDevice>,
    timed: bool,
) -> (Box<dyn BlockDevice>, Option<Arc<DeviceProbe>>) {
    if timed {
        let (d, p) = TimedDevice::wrap(device);
        (d, Some(p))
    } else {
        (device, None)
    }
}

/// Something the measured phase asks queries of.
trait Target {
    /// Called, untimed, before the queries of dataset `k` in every round.
    fn enter(&mut self, _k: usize) {}
    /// Asks `q` of dataset `k`'s index, traced or not.
    fn ask(&mut self, k: usize, q: &Query, traced: bool) -> Result<Answer, IndexError>;
}

/// What the measured phase saw: each answered query's least latency over
/// its first `asks` rounds ([`ASKS`] in an untraced run), round-0 answers
/// (all datasets, in order), and how many later asks differed from them.
///
/// A query's latency is the least over those asks, in wall-clock time
/// and, apart, in CPU time: the host's interference (steal, a neighbour's
/// burst) only ever adds time to an ask, while the work and the waits the
/// program makes recur on every ask. Always the same number of asks, so
/// a faster host does not also get more tries.
struct Measured {
    best: Vec<Option<Lap>>,
    /// CPU time of every answered ask (the traced ones when paired).
    cpu_all: Samples,
    /// CPU time of the untraced asks of a paired pass.
    cpu_untraced: Samples,
    answers: Vec<Result<Answer, IndexError>>,
    drift: Vec<u64>,
    rounds: usize,
    /// Asks of each query per round: 2 when paired, else 1.
    per_round: usize,
}

impl Measured {
    fn mean_stat(&self, f: impl Fn(&Answer) -> f64) -> f64 {
        let ok: Vec<&Answer> = self
            .answers
            .iter()
            .filter_map(|a| a.as_ref().ok())
            .collect();
        ok.iter().map(|a| f(a)).sum::<f64>() / ok.len().max(1) as f64
    }

    /// The least latencies in microseconds, wall clock and CPU time.
    fn latencies(&self) -> (Samples, Samples) {
        let (mut wall, mut cpu) = (Samples::default(), Samples::default());
        for lap in self.best.iter().flatten() {
            wall.push(lap.wall);
            cpu.push(lap.cpu);
        }
        (wall, cpu)
    }

    /// Mean normalized device IO per query (random + seq/20), round 0.
    fn io_pages(&self) -> f64 {
        self.mean_stat(|a| a.stats.normalized_io())
    }

    /// Device page reads the answers of all rounds counted (the traced
    /// asks' when paired).
    fn counted_reads(&self) -> u64 {
        let per_round: u64 = self
            .answers
            .iter()
            .filter_map(|a| a.as_ref().ok())
            .map(|a| a.stats.random_ios + a.stats.seq_ios)
            .sum();
        per_round * self.rounds as u64
    }

    /// Counts every ask as `op`, failing those of a query whose answer
    /// errored or disagreed with the reference (`ok`), and every ask whose
    /// answer differed from the query's round-0 answer.
    fn account(&self, report: &mut Report, op: &'static str, ok: impl Fn(usize, &Answer) -> bool) {
        let asked = (self.rounds * self.per_round) as u64;
        for (i, a) in self.answers.iter().enumerate() {
            let right = a.as_ref().is_ok_and(|a| ok(i, a));
            report
                .ops
                .add(op, asked, if right { self.drift[i] } else { asked });
        }
    }
}

/// Asks every dataset's queries in whole rounds for at least `budget` and
/// at least `asks` rounds. A `paired` pass asks each query twice in a
/// row, untraced and traced, in turns of which goes first, so the host's
/// drift falls on both alike; its answers and latencies are the traced
/// asks'.
fn measure(
    parts: &[Vec<Query>],
    budget: Duration,
    asks: usize,
    paired: bool,
    target: &mut dyn Target,
) -> Measured {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut m = Measured {
        best: vec![None; total],
        cpu_all: Samples::default(),
        cpu_untraced: Samples::default(),
        answers: Vec::with_capacity(total),
        drift: vec![0; total],
        rounds: 0,
        per_round: 1 + usize::from(paired),
    };
    m.rounds = whole_rounds(budget, asks, |round| {
        let mut i = 0;
        for (k, queries) in parts.iter().enumerate() {
            target.enter(k);
            for q in queries {
                let order: &[bool] = match (paired, i % 2) {
                    (false, _) => &[false],
                    (true, 0) => &[false, true],
                    (true, _) => &[true, false],
                };
                let mut main = None;
                let mut untraced = None;
                for &traced in order {
                    let watch = Stopwatch::start();
                    let answer = target.ask(k, q, traced);
                    let lap = watch.stop();
                    if paired && !traced {
                        if answer.is_ok() {
                            m.cpu_untraced.push(lap.cpu);
                        }
                        untraced = Some(answer);
                        continue;
                    }
                    if answer.is_ok() {
                        m.cpu_all.push(lap.cpu);
                        if round < asks {
                            m.best[i] = least(m.best[i].into_iter().chain([lap]));
                        }
                    }
                    main = Some(answer);
                }
                let answer = main.expect("every order asks once as recorded");
                if untraced.is_some_and(|u| !same_answer(&answer, &u)) {
                    m.drift[i] += 1;
                }
                if round == 0 {
                    m.answers.push(answer);
                } else if !same_answer(&m.answers[i], &answer) {
                    m.drift[i] += 1;
                }
                i += 1;
            }
        }
    });
    m
}

/// Whether a repeat answer equals the first: same verdict, arrival,
/// ranking, and counted IO (a cold query costs the same every time).
pub fn same_answer(a: &Result<Answer, IndexError>, b: &Result<Answer, IndexError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.outcome == b.outcome
                && a.ranking == b.ranking
                && (a.stats.random_ios, a.stats.seq_ios, a.stats.visited)
                    == (b.stats.random_ios, b.stats.seq_ios, b.stats.visited)
        }
        _ => false,
    }
}

/// A `Reach` answer agrees with the sweep: same verdict, and the same
/// earliest arrival whenever the index reports one.
pub fn reach_agrees(sweep: &Sweep, q: &Query, a: &Answer, prefix: usize) -> bool {
    let want = sweep.arrival(
        q.source.0,
        q.dest.0,
        q.interval.start,
        q.interval.end,
        prefix,
    );
    a.reachable() == want.is_some() && a.outcome.earliest.is_none_or(|t| Some(t) == want)
}

/// Each dataset's queries, `n` of them.
fn queries(ctx: &Ctx, n: usize) -> Vec<Vec<Query>> {
    datasets(ctx.seed)
        .map(|seed| window_queries(OBJECTS, HORIZON, n, seed))
        .collect()
}

/// Each dataset's reference sweep, from the contacts file the input
/// generator wrote. Built after the memory reading, so it does not count.
fn sweeps(ctx: &Ctx) -> Vec<Sweep> {
    (0..datasets(ctx.seed).count())
        .map(|k| {
            let contacts = read_contacts(&contacts_path(&ctx.work, k));
            Sweep::new(OBJECTS, HORIZON, &per_tick_records(&contacts))
        })
        .collect()
}

/// Counts and checks `m`'s answers against each dataset's sweep.
fn account(report: &mut Report, m: &Measured, parts: &[Vec<Query>], sweeps: &[Sweep]) {
    let flat: Vec<(&Sweep, &Query)> = parts
        .iter()
        .zip(sweeps)
        .flat_map(|(queries, sweep)| queries.iter().map(move |q| (sweep, q)))
        .collect();
    m.account(report, "reach", |i, a| {
        reach_agrees(flat[i].0, flat[i].1, a, usize::MAX)
    });
}

/// Queries of each dataset the decorator check asks of undecorated
/// readers in a traced run.
const PLAIN_SAMPLE: usize = 200;

/// Checks that the first [`PLAIN_SAMPLE`] queries of each dataset got the
/// same answers and counted IO over undecorated devices (`plain`) as over
/// the timing decorator (`timed`, one round of all of `parts`).
fn check_plain(report: &mut Report, parts: &[Vec<Query>], plain: &Measured, timed: &Measured) {
    let mut at = 0;
    let mut i = 0;
    let mut same = true;
    for queries in parts {
        for j in 0..PLAIN_SAMPLE.min(queries.len()) {
            same &= same_answer(&plain.answers[i], &timed.answers[at + j]);
            i += 1;
        }
        at += queries.len();
    }
    report.check(same, || {
        "the timing decorator changed an answer or its counted IO".into()
    });
}

/// The first [`PLAIN_SAMPLE`] queries of each dataset.
fn sample(parts: &[Vec<Query>]) -> Vec<Vec<Query>> {
    parts
        .iter()
        .map(|q| q[..PLAIN_SAMPLE.min(q.len())].to_vec())
        .collect()
}

/// One ReachGraph set-up with the time of each phase.
struct GraphSetup {
    graph: ReachGraph,
    path: PathBuf,
    ingest: Lap,
    dn: Lap,
    multires: Lap,
    build: Lap,
    spill: SpillStats,
    probe: Option<Arc<DeviceProbe>>,
}

impl GraphSetup {
    fn lap(&self) -> Lap {
        self.ingest + self.dn + self.multires + self.build
    }
}

/// Load the trace file, stream the DN under the budget onto a file
/// scratch device, build the long-edge bundles, lay out the ReachGraph.
fn build_graph(work: &Path, k: usize, timed: bool) -> GraphSetup {
    let watch = Stopwatch::start();
    let trace = ContactTrace::load_path(events_path(work, k), &IngestOptions::default())
        .expect("the benchmark's own trace file loads");
    let ingest = watch.stop();
    let scratch_path = work.join(format!("graph-scratch-{k}.pages"));
    let watch = Stopwatch::start();
    let mut sdn = StreamedDn::from_contacts(
        trace.num_objects(),
        trace.horizon(),
        trace.contacts(),
        BuildBudget::bytes(GRAPH_BUDGET),
        file_device(&scratch_path),
    );
    let dn = watch.stop();
    let watch = Stopwatch::start();
    let mr = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
    let multires = watch.stop();
    let path = work.join(format!("graph-index-{k}.pages"));
    let (device, probe) = maybe_timed(file_device(&path), timed);
    let params = GraphParams {
        partition_depth: PARTITION_DEPTH,
        page_size: PAGE,
        ..GraphParams::default()
    };
    let watch = Stopwatch::start();
    let graph = ReachGraph::build_on(device, &mut sdn, &mr, params).expect("ReachGraph builds");
    let build = watch.stop();
    let spill = sdn.spill_stats();
    drop(sdn);
    let _ = std::fs::remove_file(&scratch_path);
    GraphSetup {
        graph,
        path,
        ingest,
        dn,
        multires,
        build,
        spill,
        probe,
    }
}

/// One closed-loop client over a one-worker server per dataset; the
/// server over the current dataset's graph is started, untimed, when the
/// round reaches that dataset. A traced ask reads dataset `k`'s device
/// probe, `probes[k]`, to split its wall-clock latency into device,
/// serve-handoff, and software time.
struct Served {
    graphs: Vec<Arc<Serial<ReachGraph>>>,
    current: Option<Server>,
    probes: Vec<Arc<DeviceProbe>>,
    /// Device pages read during traced asks.
    probe_reads: u64,
    traces: u64,
    spans: u64,
    device_us: Samples,
    handoff_us: Samples,
    software_us: Samples,
}

impl Served {
    fn new(graphs: Vec<ReachGraph>) -> Self {
        Self {
            graphs: graphs
                .into_iter()
                .map(|g| Arc::new(Serial::new(g)))
                .collect(),
            current: None,
            probes: Vec::new(),
            probe_reads: 0,
            traces: 0,
            spans: 0,
            device_us: Samples::default(),
            handoff_us: Samples::default(),
            software_us: Samples::default(),
        }
    }
}

impl Target for Served {
    fn enter(&mut self, k: usize) {
        drop(self.current.take());
        let index: Arc<dyn ReachIndex> = Arc::clone(&self.graphs[k]) as Arc<dyn ReachIndex>;
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch: 1,
        };
        self.current = Some(Server::start(index, config).expect("one serve worker starts"));
        refresh_threads();
    }

    fn ask(&mut self, k: usize, q: &Query, traced: bool) -> Result<Answer, IndexError> {
        let server = self.current.as_ref().expect("entered before asking");
        if !traced {
            return server.submit(ReachRequest::from(*q))?.wait();
        }
        let probe = &self.probes[k];
        self.traces += 1;
        let tracer = Tracer::enabled(self.traces);
        let (read_ns, reads) = (probe.read_ns(), probe.reads());
        let started = Instant::now();
        let answer = server
            .submit(ReachRequest::from(*q).with_trace(tracer.clone()))
            .map_err(IndexError::from)
            .and_then(|ticket| ticket.wait());
        let latency = started.elapsed().as_secs_f64() * 1e6;
        let events = tracer.take_events();
        self.spans += events.len() as u64;
        let device = (probe.read_ns() - read_ns) as f64 / 1e3;
        self.probe_reads += probe.reads() - reads;
        let service = events
            .iter()
            .find(|e| e.name == "serve/serve")
            .map_or(latency, |e| e.ticks() as f64 / 1e3);
        let handoff = (latency - service).max(0.0);
        self.device_us.push_us(device);
        self.handoff_us.push_us(handoff);
        self.software_us.push_us(latency - device - handoff);
        answer
    }
}

/// `graph-archive`: see the crate docs.
pub fn graph_archive(ctx: &Ctx, report: &mut Report, layers: &mut Layers) {
    let parts = queries(ctx, GRAPH_QUERIES);
    let setups: Vec<GraphSetup> = (0..parts.len())
        .map(|k| build_graph(&ctx.work, k, ctx.trace))
        .collect();
    report.ops.add("setup", setups.len() as u64, 0);
    let index_bytes: u64 = setups.iter().map(|s| s.graph.size_bytes()).sum();
    let laps: Vec<Lap> = setups.iter().map(GraphSetup::lap).collect();

    if !ctx.trace {
        let mut served = Served::new(setups.into_iter().map(|s| s.graph).collect());
        let m = measure(&parts, ctx.budget(), ASKS, false, &mut served);
        drop(served);
        let rss = peak_rss_mb();
        account(report, &m, &parts, &sweeps(ctx));
        report_e2e(report, &m, &laps, index_bytes, rss);
        return;
    }

    // Traced run: one paired pass over the timed devices the indexes were
    // built on; the gap between the untraced and the traced asks' mean CPU
    // time is the tracing overhead.
    let n = setups.len() as f64;
    let mean_lap =
        |f: fn(&GraphSetup) -> Lap| setups.iter().map(|s| f(s).wall.as_secs_f64()).sum::<f64>() / n;
    layers.set("contact.ingest_s", mean_lap(|s| s.ingest));
    layers.set("contact.dn_stream_s", mean_lap(|s| s.dn));
    layers.set("contact.multires_s", mean_lap(|s| s.multires));
    layers.set("reachgraph.build_s", mean_lap(|s| s.build));
    let spill_mean =
        |f: fn(&SpillStats) -> u64| setups.iter().map(|s| f(&s.spill)).sum::<u64>() as f64 / n;
    layers.set(
        "storage.spill_read_pages",
        spill_mean(|s| s.io.total_reads()),
    );
    layers.set(
        "storage.spill_write_pages",
        spill_mean(|s| s.io.total_writes()),
    );
    layers.set(
        "storage.build_peak_resident_kb",
        spill_mean(|s| s.peak_resident_bytes) / 1024.0,
    );
    let probes: Vec<Arc<DeviceProbe>> = setups
        .iter()
        .map(|s| s.probe.clone().expect("traced set-up is timed"))
        .collect();
    let build_writes: u64 = probes.iter().map(|p| p.writes()).sum();
    layers.set("reachgraph.build_write_pages", build_writes as f64 / n);
    let plain: Vec<ReachGraph> = setups
        .iter()
        .map(|s| {
            let device = FileDevice::open(&s.path, PAGE).expect("built index reopens");
            s.graph.reader(Box::new(device))
        })
        .collect();

    let mut served = Served::new(setups.into_iter().map(|s| s.graph).collect());
    served.probes = probes;
    let traced = measure(&parts, ctx.budget(), 1, true, &mut served);
    // The server of the round's last dataset: its histograms cover that
    // dataset's queries of the final round.
    let metrics = served
        .current
        .take()
        .as_ref()
        .map(Server::metrics)
        .unwrap_or_default();
    let plain_pass = measure(
        &sample(&parts),
        Duration::ZERO,
        1,
        false,
        &mut Served::new(plain),
    );
    account(report, &traced, &parts, &sweeps(ctx));
    check_plain(report, &parts, &plain_pass, &traced);
    report.check(served.probe_reads == traced.counted_reads(), || {
        "device time does not cover exactly the counted reads".into()
    });

    layers.set(
        "storage.read_pages",
        traced.mean_stat(|a| (a.stats.random_ios + a.stats.seq_ios) as f64),
    );
    layers.set(
        "storage.random_reads",
        traced.mean_stat(|a| a.stats.random_ios as f64),
    );
    layers.set("storage.device_read_us", served.device_us.mean());
    layers.set(
        "reachgraph.visited",
        traced.mean_stat(|a| a.stats.visited as f64),
    );
    layers.set(
        "reachgraph.cpu_us",
        traced.mean_stat(|a| a.stats.cpu.as_secs_f64() * 1e6),
    );
    layers.set("reachgraph.software_us", served.software_us.mean());
    layers.set("serve.handoff_us", served.handoff_us.mean());
    layers.set(
        "obs.spans_per_query",
        served.spans as f64 / served.traces.max(1) as f64,
    );
    layers.set(
        "obs.overhead_pct",
        overhead_pct(&traced.cpu_untraced, &traced.cpu_all),
    );
    layers.set("serve.queue_wait_p50_us", metrics.p50_queue_wait_us as f64);
    layers.set("serve.service_p50_us", metrics.p50_service_time_us as f64);
}

/// Direct queries over one ReachGrid per dataset. ReachGrid has no
/// spans: a traced ask only reads dataset `k`'s device probe,
/// `probes[k]`, to split its device time off.
struct Grids {
    grids: Vec<ReachGrid>,
    probes: Vec<Arc<DeviceProbe>>,
    /// Device pages read during traced asks.
    probe_reads: u64,
    device_us: Samples,
    software_us: Samples,
}

impl Grids {
    fn new(grids: Vec<ReachGrid>) -> Self {
        Self {
            grids,
            probes: Vec::new(),
            probe_reads: 0,
            device_us: Samples::default(),
            software_us: Samples::default(),
        }
    }
}

impl Target for Grids {
    fn ask(&mut self, k: usize, q: &Query, traced: bool) -> Result<Answer, IndexError> {
        if !traced {
            return self.grids[k].evaluate(q).map(Answer::from);
        }
        let probe = &self.probes[k];
        let (read_ns, reads) = (probe.read_ns(), probe.reads());
        let started = Instant::now();
        let answer = self.grids[k].evaluate(q).map(Answer::from);
        let latency = started.elapsed().as_secs_f64() * 1e6;
        let device = (probe.read_ns() - read_ns) as f64 / 1e3;
        self.probe_reads += probe.reads() - reads;
        self.device_us.push_us(device);
        self.software_us.push_us(latency - device);
        answer
    }
}

/// Builds dataset `k`'s ReachGrid into the file `<name>-<k>.pages`.
fn build_grid(
    work: &Path,
    name: &str,
    k: usize,
    store: &TrajectoryStore,
    side: Coord,
    timed: bool,
) -> (ReachGrid, Lap, Option<Arc<DeviceProbe>>) {
    let params = GridParams {
        temporal: 20,
        cell_size: side / 10.0,
        threshold: THRESHOLD,
        page_size: PAGE,
        ..GridParams::default()
    };
    let path = work.join(format!("{name}-{k}.pages"));
    let (device, probe) = maybe_timed(file_device(&path), timed);
    let watch = Stopwatch::start();
    let grid = ReachGrid::build_on(device, store, params).expect("ReachGrid builds");
    (grid, watch.stop(), probe)
}

/// `grid-archive`: see the crate docs.
pub fn grid_archive(ctx: &Ctx, report: &mut Report, layers: &mut Layers) {
    let parts = queries(ctx, GRID_QUERIES);
    // One dataset's trajectories at a time: generated, indexed, dropped.
    // A traced run builds each grid once on the timing decorator and once
    // without it, to compare their sizes.
    // A dataset's set-up time is the least of its builds.
    let reps = if ctx.trace { 1 } else { GRID_SETUPS };
    let mut laps = Vec::new();
    let mut grids = Vec::new();
    let mut probes = Vec::new();
    let mut plain = Vec::new();
    for (k, seed) in datasets(ctx.seed).enumerate() {
        let (store, side) = rwp_store(OBJECTS, HORIZON, seed);
        let mut built = Vec::new();
        for rep in 0..reps {
            let (grid, lap, probe) =
                build_grid(&ctx.work, "grid-index", k, &store, side, ctx.trace);
            built.push(lap);
            if rep + 1 == reps {
                grids.push(grid);
                probes.extend(probe);
            }
        }
        laps.extend(least(built));
        if ctx.trace {
            plain.push(build_grid(&ctx.work, "grid-plain", k, &store, side, false).0);
        }
    }
    report
        .ops
        .add("setup", (reps * laps.len() + plain.len()) as u64, 0);
    let index_bytes: u64 = grids.iter().map(ReachGrid::size_bytes).sum();

    if !ctx.trace {
        let mut target = Grids::new(grids);
        let m = measure(&parts, ctx.budget(), ASKS, false, &mut target);
        drop(target);
        let rss = peak_rss_mb();
        account(report, &m, &parts, &sweeps(ctx));
        report_e2e(report, &m, &laps, index_bytes, rss);
        return;
    }

    let plain_bytes: u64 = plain.iter().map(ReachGrid::size_bytes).sum();
    let mut target = Grids::new(grids);
    target.probes = probes;
    let traced = measure(&parts, ctx.budget(), 1, true, &mut target);
    let plain_pass = measure(
        &sample(&parts),
        Duration::ZERO,
        1,
        false,
        &mut Grids::new(plain),
    );
    account(report, &traced, &parts, &sweeps(ctx));
    check_plain(report, &parts, &plain_pass, &traced);
    report.check(plain_bytes == index_bytes, || {
        "the timing decorator changed index_mb".into()
    });
    report.check(target.probe_reads == traced.counted_reads(), || {
        "device time does not cover exactly the counted reads".into()
    });
    layers.set(
        "storage.read_pages",
        traced.mean_stat(|a| (a.stats.random_ios + a.stats.seq_ios) as f64),
    );
    layers.set(
        "storage.random_reads",
        traced.mean_stat(|a| a.stats.random_ios as f64),
    );
    layers.set("storage.device_read_us", target.device_us.mean());
    layers.set(
        "reachgrid.build_s",
        laps.iter().map(|l| l.wall.as_secs_f64()).sum::<f64>() / laps.len() as f64,
    );
    layers.set(
        "reachgrid.cells",
        traced.mean_stat(|a| a.stats.visited as f64),
    );
    layers.set(
        "reachgrid.examined",
        traced.mean_stat(|a| a.stats.examined as f64),
    );
    layers.set("reachgrid.software_us", target.software_us.mean());
    layers.set(
        "obs.overhead_pct",
        overhead_pct(&traced.cpu_untraced, &traced.cpu_all),
    );
}

/// Percent by which the traced asks' mean exceeds the untraced asks'.
pub fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    (traced.mean() / untraced.mean() - 1.0) * 100.0
}

/// `setups` holds each dataset's set-up time.
fn report_e2e(report: &mut Report, m: &Measured, setups: &[Lap], index_bytes: u64, rss_mb: f64) {
    let datasets = datasets(0).count() as f64;
    let (wall, cpu) = m.latencies();
    report.times(setups, &wall, &cpu);
    report.metric("query_io_pages", m.io_pages(), "pages");
    report.metric("index_mb", index_bytes as f64 / datasets / 1e6, "MB");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.notes.push(format!(
        "queries {} in {} rounds",
        m.cpu_all.len(),
        m.rounds
    ));
}
