//! Measures the reference figures and findings `perfbench/README.md`
//! records beside the benchmark: `graph-archive`'s query phase on the
//! `sim`, `file` and `mmap` devices, and four measured findings about the
//! program (spill-page reuse, two clients over `Serial`, cross-shard
//! reads, and record loss of a multi-tick feed).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml \
//!     --bin findings
//! ```
//!
//! Files go to `.bench_work/` under the current directory and are removed
//! on exit. The spill finding writes ≈ 2 GB of scratch pages there.

use perfbench::live::per_tick_feed;
use perfbench::report::{Samples, Stopwatch};
use perfbench::workload::{rwp_dataset, window_queries, Dataset, HORIZON, OBJECTS, PAGE};
use reach_contact::{DnGraph, ErrorMode, MultiRes, StreamedDn, DEFAULT_LEVELS};
use reach_core::{
    Contact, ObjectId, Query, ReachIndex, ReachRequest, ReachabilityIndex, Serial, TimeInterval,
};
use reach_graph::{GraphParams, ReachGraph};
use reach_live::{LiveConfig, ShardedLive};
use reach_serve::{ServeConfig, Server};
use reach_storage::{BlockDevice, BuildBudget, FileDevice, MmapDevice, SimDevice, StorageConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

fn params() -> GraphParams {
    GraphParams {
        partition_depth: 8,
        page_size: PAGE,
        ..GraphParams::default()
    }
}

/// A resident build of the dataset's ReachGraph onto `device`.
fn resident_graph(data: &Dataset, device: Box<dyn BlockDevice>) -> ReachGraph {
    let dn = DnGraph::from_contacts(OBJECTS, HORIZON, &data.contacts);
    let mr = MultiRes::build(&dn, &DEFAULT_LEVELS);
    ReachGraph::build_on(device, &dn, &mr, params()).expect("ReachGraph builds")
}

/// `graph-archive`'s queries, asked directly three times over, on each
/// device backend: per-query CPU time, wall time, and counted IO.
fn backends(work: &Path, data: &Dataset, queries: &[Query]) {
    println!("## graph-archive queries by device backend\n");
    println!("| device | cpu p50 us | cpu p99 us | cpu queries/s | wall p50 us | io pages/query |");
    println!("|---|---|---|---|---|---|");
    let path = work.join("backend.pages");
    for name in ["sim", "file", "mmap"] {
        let device: Box<dyn BlockDevice> = match name {
            "sim" => Box::new(SimDevice::new(PAGE)),
            "file" => Box::new(FileDevice::create(&path, PAGE).expect("work dir")),
            _ => Box::new(MmapDevice::create(&path, PAGE).expect("work dir")),
        };
        let mut graph = resident_graph(data, device);
        let (mut cpu, mut wall, mut io) = (Samples::default(), Samples::default(), 0.0);
        for round in 0..3 {
            for q in queries {
                let watch = Stopwatch::start();
                let r = graph.evaluate(q).expect("query evaluates");
                let lap = watch.stop();
                cpu.push(lap.cpu);
                wall.push(lap.wall);
                if round == 0 {
                    io += r.stats.normalized_io();
                }
            }
        }
        println!(
            "| {name} | {:.1} | {:.1} | {:.1} | {:.1} | {:.3} |",
            cpu.quantile(0.5),
            cpu.quantile(0.99),
            cpu.len() as f64 / (cpu.sum() / 1e6),
            wall.quantile(0.5),
            io / queries.len() as f64
        );
    }
    let _ = std::fs::remove_file(&path);
    println!();
}

/// (a) Scratch pages of the out-of-core DN build at several budgets,
/// against the resident build.
fn spill_reuse(work: &Path, data: &Dataset) {
    println!("## (a) spill scratch pages of the out-of-core build\n");
    println!("| budget | build cpu s | spill writes | spill reads | scratch file MB | index MB |");
    println!("|---|---|---|---|---|---|");
    let watch = Stopwatch::start();
    let graph = resident_graph(data, Box::new(SimDevice::new(PAGE)));
    println!(
        "| resident | {:.2} | 0 | 0 | 0 | {:.1} |",
        watch.stop().cpu.as_secs_f64(),
        graph.size_bytes() as f64 / 1e6
    );
    let scratch = work.join("spill.pages");
    for budget in [1usize << 20, 256 << 10] {
        let watch = Stopwatch::start();
        let mut sdn = StreamedDn::from_contacts(
            OBJECTS,
            HORIZON,
            &data.contacts,
            BuildBudget::bytes(budget),
            Box::new(FileDevice::create(&scratch, PAGE).expect("work dir")),
        );
        let mr = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
        let graph = ReachGraph::build_on(Box::new(SimDevice::new(PAGE)), &mut sdn, &mr, params())
            .expect("ReachGraph builds");
        let cpu = watch.stop().cpu.as_secs_f64();
        let spill = sdn.spill_stats();
        drop(sdn);
        let file_mb = std::fs::metadata(&scratch).map_or(0, |m| m.len()) as f64 / 1e6;
        let _ = std::fs::remove_file(&scratch);
        println!(
            "| {} KiB | {cpu:.2} | {} | {} | {file_mb:.1} | {:.1} |",
            budget >> 10,
            spill.io.total_writes(),
            spill.io.total_reads(),
            graph.size_bytes() as f64 / 1e6
        );
    }
    println!();
}

/// (b) Wall-clock tail of one client against two clients over the same
/// `Serial<ReachGraph>`, three runs each.
fn two_clients(work: &Path, data: &Dataset, queries: &[Query]) {
    println!("## (b) clients over Serial<ReachGraph> (wall clock)\n");
    println!("| clients | run | queries | p50 us | p99 us |");
    println!("|---|---|---|---|---|");
    let path = work.join("clients.pages");
    let graph = resident_graph(
        data,
        Box::new(FileDevice::create(&path, PAGE).expect("work dir")),
    );
    let index: Arc<dyn ReachIndex> = Arc::new(Serial::new(graph));
    for clients in [1usize, 2] {
        for run in 1..=3 {
            let server = Server::start(
                Arc::clone(&index),
                ServeConfig {
                    workers: clients,
                    queue_capacity: clients,
                    max_batch: 1,
                },
            )
            .expect("serve workers start");
            let lat = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let server = &server;
                        s.spawn(move || {
                            let mut lat = Samples::default();
                            for q in queries.iter().skip(c).step_by(clients) {
                                let t = Instant::now();
                                server
                                    .submit(ReachRequest::from(*q))
                                    .expect("queue has room for each client")
                                    .wait()
                                    .expect("query answers");
                                lat.push(t.elapsed());
                            }
                            lat
                        })
                    })
                    .collect();
                let mut all = Samples::default();
                for h in handles {
                    all.extend(&h.join().expect("client thread finishes"));
                }
                all
            });
            println!(
                "| {clients} | {run} | {} | {:.1} | {:.1} |",
                lat.len(),
                lat.quantile(0.5),
                lat.quantile(0.99)
            );
        }
    }
    drop(index);
    let _ = std::fs::remove_file(&path);
    println!();
}

fn sharded(dir: &Path, mode: ErrorMode, cache_pages: usize) -> ShardedLive {
    let _ = std::fs::remove_dir_all(dir);
    LiveConfig::graph(params(), BuildBudget::bytes(256 << 10))
        .manual_compaction()
        .with_lateness(16)
        .with_shared_cache(cache_pages)
        .builder()
        .error_mode(mode)
        .backend(StorageConfig::file(dir, PAGE))
        .build_sharded(OBJECTS)
        .expect("sharded index creates")
}

/// (c) Reads per cross-shard `Reach` query with no cache, against the
/// monolithic ReachGraph over the same data.
fn cross_shard(work: &Path, data: &Dataset, seed: u64) {
    println!("## (c) cross-shard reads\n");
    let dir = work.join("shards");
    let live = sharded(&dir, ErrorMode::Strict, 0);
    let feed = per_tick_feed(seed, &data.contacts);
    for (i, r) in feed.iter().enumerate() {
        let c = Contact::new(ObjectId(r.a), ObjectId(r.b), TimeInterval::instant(r.tick));
        live.append(c).expect("per-tick records are never late");
        if (i + 1) % (feed.len() / 8) == 0 && live.shard_count() < 7 {
            live.seal_now().expect("seal succeeds");
        }
    }
    let queries = window_queries(OBJECTS, live.now(), 500, seed ^ 0xC5);
    let mut monolithic = resident_graph(data, Box::new(SimDevice::new(PAGE)));
    let (mut shard_io, mut mono_io) = (0.0, 0.0);
    for q in &queries {
        shard_io += live
            .answer(&ReachRequest::from(*q))
            .expect("sharded query answers")
            .stats
            .normalized_io();
        mono_io += monolithic
            .evaluate(q)
            .expect("monolithic query answers")
            .stats
            .normalized_io();
    }
    let n = queries.len() as f64;
    println!(
        "{} queries over {} shards + delta, no cache: {:.1} pages/query; monolithic ReachGraph: {:.1} pages/query\n",
        queries.len(),
        live.shard_count(),
        shard_io / n,
        mono_io / n
    );
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d) Records a start-ordered multi-tick feed loses under lateness 16,
/// against the per-tick feed the benchmark uses.
fn multi_tick_feed(work: &Path, data: &Dataset, seed: u64) {
    println!("## (d) records lost by the feed order\n");
    let dir = work.join("feed");
    // The arrival order `exp_shard` and `exp_obs` use: ascending start,
    // disjoint swaps two positions apart.
    let mut contacts = data.contacts.clone();
    contacts.sort_by_key(|c| (c.interval.start, c.a, c.b));
    for i in (4..contacts.len()).step_by(4) {
        contacts.swap(i, i - 2);
    }
    let live = sharded(&dir, ErrorMode::Lossy, 0);
    for (i, &c) in contacts.iter().enumerate() {
        live.append(c).expect("lossy appends never error");
        if (i + 1) % (contacts.len() / 8) == 0 {
            live.seal_now().expect("seal succeeds");
        }
    }
    let stats = live.stats();
    println!(
        "multi-tick feed: {} records, {} dropped late, {} clamped",
        contacts.len(),
        stats.dropped_late,
        stats.clamped
    );
    let live = sharded(&dir, ErrorMode::Lossy, 0);
    let feed = per_tick_feed(seed, &data.contacts);
    for (i, r) in feed.iter().enumerate() {
        let c = Contact::new(ObjectId(r.a), ObjectId(r.b), TimeInterval::instant(r.tick));
        live.append(c).expect("lossy appends never error");
        if (i + 1) % (feed.len() / 8) == 0 {
            live.seal_now().expect("seal succeeds");
        }
    }
    let stats = live.stats();
    println!(
        "per-tick feed:   {} records, {} dropped late, {} clamped\n",
        feed.len(),
        stats.dropped_late,
        stats.clamped
    );
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seed of the one dataset every finding is measured on.
const SEED: u64 = 1;

fn main() {
    let seed = SEED;
    let work = PathBuf::from(".bench_work").join(format!("findings-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("work directory under the current directory");
    let data = rwp_dataset(OBJECTS, HORIZON, seed);
    let queries = window_queries(OBJECTS, HORIZON, 700, seed);
    println!(
        "dataset seed {seed}: {OBJECTS} objects, {HORIZON} ticks, {} contacts\n",
        data.contacts.len()
    );
    backends(&work, &data, &queries);
    spill_reuse(&work, &data);
    two_clients(&work, &data, &queries);
    cross_shard(&work, &data, seed);
    multi_tick_feed(&work, &data, seed);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
}
