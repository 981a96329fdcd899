//! Benchmark of the streach indexes: cold archives and a live feed, timed
//! from outside the program, layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `README.md` beside this package for why each exists):
//!
//! * `graph-archive` — a ReachGraph built out of core from an events-format
//!   trace file, served to one closed-loop client through a one-worker
//!   `reach_serve::Server`;
//! * `grid-archive` — a ReachGrid over the same trajectories, queried
//!   directly with the same query stream;
//! * `live-epochs` — an epoch-sharded `ShardedLive` fed per-tick records,
//!   with inline seals and mixed `Reach`/`Decay`/`TopK` query batches.
//!
//! Every device is a 512-byte-page `FileDevice` under `.bench_work/` in
//! the current directory, removed on exit. Inputs derive from `--seed` and
//! are written there by a child process;
//! every answer is checked against an independent per-tick sweep.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is the JSON result.

pub mod archive;
pub mod live;
pub mod probe;
pub mod reference;
pub mod report;
pub mod workload;

use report::{steal_seconds, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, with their units.
/// Times are wall clock.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "1/s"),
    ("query_io_pages", "pages"),
    ("index_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("storage.read_pages", "pages"),
    ("storage.random_reads", "pages"),
    ("storage.device_read_us", "us"),
    ("storage.cache_hit_rate", "ratio"),
    ("storage.cache_evictions", "count"),
    ("storage.prefetch_accuracy", "ratio"),
    ("storage.spill_read_pages", "pages"),
    ("storage.spill_write_pages", "pages"),
    ("storage.build_peak_resident_kb", "KiB"),
    ("contact.ingest_s", "s"),
    ("contact.dn_stream_s", "s"),
    ("contact.multires_s", "s"),
    ("reachgraph.build_s", "s"),
    ("reachgraph.build_write_pages", "pages"),
    ("reachgraph.visited", "count"),
    ("reachgraph.cpu_us", "us"),
    ("reachgraph.software_us", "us"),
    ("reachgrid.build_s", "s"),
    ("reachgrid.cells", "count"),
    ("reachgrid.examined", "count"),
    ("reachgrid.software_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.handoff_us", "us"),
    ("live.append_rps", "1/s"),
    ("live.append_p50_us", "us"),
    ("live.seals", "count"),
    ("live.seal_ms", "ms"),
    ("live.log_write_pages", "pages"),
    ("live.write_pages_per_record", "pages"),
    ("live.delta_peak_kb", "KiB"),
    ("live.shards", "count"),
    ("live.legs_per_query", "count"),
    ("live.handoff_seeds_per_query", "count"),
    ("live.reach_p50_us", "us"),
    ("live.decay_p50_us", "us"),
    ("live.topk_p50_us", "us"),
    ("live.reach_io_pages", "pages"),
    ("live.decay_io_pages", "pages"),
    ("live.topk_io_pages", "pages"),
    ("obs.spans_per_query", "count"),
    ("obs.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 3] = ["graph-archive", "grid-archive", "live-epochs"];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory for every device and file the run creates.
    pub work: PathBuf,
}

impl Ctx {
    /// How long the measured phase lasts.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Per-layer readings of a traced run, keyed by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// Runs `workload` (one of [`WORKLOADS`]) and returns its report: the
/// end-to-end metrics when untraced, every per-layer metric when traced.
pub fn run(workload: &str, ctx: &Ctx) -> Report {
    std::fs::create_dir_all(&ctx.work).expect("work directory under the current directory");
    workload::generate_inputs(ctx);
    report::refresh_threads();
    let steal_before = steal_seconds();
    let mut report = Report::default();
    let mut layers = Layers::default();
    match workload {
        "graph-archive" => archive::graph_archive(ctx, &mut report, &mut layers),
        "grid-archive" => archive::grid_archive(ctx, &mut report, &mut layers),
        "live-epochs" => live::live_epochs(ctx, &mut report, &mut layers),
        other => panic!("unknown workload {other}"),
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    report.notes.push(format!(
        "workload {workload} seed {} seconds {} trace {}; host steal {:.2} s over the run",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        steal_seconds() - steal_before
    ));
    if ctx.trace {
        for (name, unit) in PER_LAYER {
            let value = layers.0.get(name).copied().unwrap_or(0.0);
            report.metric(name, value, unit);
        }
    } else {
        let printed: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(
            printed, END_TO_END,
            "every end-to-end metric is reported, in order, with its unit"
        );
    }
    report
}
