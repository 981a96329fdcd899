//! A timing decorator for [`BlockDevice`]: the benchmark wraps the devices
//! it hands to the builders, so device time is measured from outside the
//! program, around the trait's public calls.
//!
//! The decorator forwards every call unchanged and only adds counters, so
//! counted IO and index size are identical with and without it (checked by
//! the tests below and again by every traced run).

use reach_core::IndexError;
use reach_storage::{BlockDevice, IoStats, PageCache, PageId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters one [`TimedDevice`] accumulates. They survive the device's
/// `reset_stats` calls, so build writes stay visible after the builder
/// wipes the device counters.
#[derive(Debug, Default)]
pub struct DeviceProbe {
    read_ns: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl DeviceProbe {
    /// Nanoseconds spent inside `read_page_into`.
    pub fn read_ns(&self) -> u64 {
        self.read_ns.load(Ordering::Relaxed)
    }

    /// Pages read through `read_page_into`.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Pages written through `write_page`.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

/// A [`BlockDevice`] that times and counts the calls it forwards.
#[derive(Debug)]
pub struct TimedDevice {
    inner: Box<dyn BlockDevice>,
    probe: Arc<DeviceProbe>,
}

impl TimedDevice {
    /// Wraps `inner`; the returned probe reads the counters.
    pub fn wrap(inner: Box<dyn BlockDevice>) -> (Box<dyn BlockDevice>, Arc<DeviceProbe>) {
        let probe = Arc::new(DeviceProbe::default());
        let device = Self {
            inner,
            probe: Arc::clone(&probe),
        };
        (Box::new(device), probe)
    }
}

impl BlockDevice for TimedDevice {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn len_pages(&self) -> u64 {
        self.inner.len_pages()
    }

    fn allocate(&mut self, n: usize) -> Result<PageId, IndexError> {
        self.inner.allocate(n)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<(), IndexError> {
        self.probe.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(id, data)
    }

    fn read_page_into(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), IndexError> {
        let started = Instant::now();
        let result = self.inner.read_page_into(id, buf);
        let ns = started.elapsed().as_nanos() as u64;
        self.probe.read_ns.fetch_add(ns, Ordering::Relaxed);
        self.probe.reads.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn break_sequence(&mut self) {
        self.inner.break_sequence();
    }

    fn note_cache_hit(&mut self) {
        self.inner.note_cache_hit();
    }

    fn note_prefetched(&mut self) {
        self.inner.note_prefetched();
    }

    fn note_prefetch_hit(&mut self) {
        self.inner.note_prefetch_hit();
    }

    fn shared_cache(&self) -> Option<Arc<PageCache>> {
        self.inner.shared_cache()
    }

    fn sync(&mut self) -> Result<(), IndexError> {
        self.inner.sync()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{rwp_dataset, window_queries};
    use reach_contact::{MultiRes, StreamedDn, DEFAULT_LEVELS};
    use reach_core::ReachabilityIndex;
    use reach_graph::{GraphParams, ReachGraph};
    use reach_grid::{GridParams, ReachGrid};
    use reach_storage::{BuildBudget, FileDevice};

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test scratch directory");
        dir
    }

    fn file(dir: &std::path::Path, name: &str) -> Box<dyn BlockDevice> {
        Box::new(FileDevice::create(dir.join(name), 512).expect("file device"))
    }

    /// Normalized query IO (x20, exact), index bytes, and (when timed) the
    /// gap between the probe's query-phase reads and the counted reads.
    fn graph_run(dir: &std::path::Path, timed: bool) -> (Vec<u64>, u64, u64) {
        let data = rwp_dataset(80, 400, 7);
        let queries = window_queries(80, 400, 40, 3);
        let mut sdn = StreamedDn::from_contacts(
            80,
            400,
            &data.contacts,
            BuildBudget::bytes(16 * 1024),
            file(dir, "scratch.pages"),
        );
        let mr = MultiRes::build(&mut sdn, &DEFAULT_LEVELS);
        let (device, probe) = if timed {
            let (d, p) = TimedDevice::wrap(file(dir, "graph.pages"));
            (d, Some(p))
        } else {
            (file(dir, "graph.pages"), None)
        };
        let params = GraphParams {
            partition_depth: 8,
            page_size: 512,
            ..GraphParams::default()
        };
        let mut graph = ReachGraph::build_on(device, &mut sdn, &mr, params).expect("graph builds");
        let built_reads = probe.as_ref().map_or(0, |p| p.reads());
        let mut io = Vec::new();
        let mut counted = 0;
        for q in &queries {
            let r = graph.evaluate(q).expect("query evaluates");
            io.push(r.stats.random_ios * 20 + r.stats.seq_ios);
            counted += r.stats.random_ios + r.stats.seq_ios;
        }
        let probed = probe.map_or(counted, |p| p.reads() - built_reads);
        (io, graph.size_bytes(), probed.abs_diff(counted))
    }

    #[test]
    fn decorator_is_transparent_on_reachgraph() {
        let dir = scratch_dir("graph");
        let (plain_io, plain_size, _) = graph_run(&dir, false);
        let (timed_io, timed_size, probe_gap) = graph_run(&dir, true);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(plain_io, timed_io, "query_io_pages must not move");
        assert_eq!(plain_size, timed_size, "index_mb must not move");
        assert_eq!(probe_gap, 0, "the probe sees exactly the counted reads");
    }

    #[test]
    fn decorator_is_transparent_on_reachgrid() {
        let dir = scratch_dir("grid");
        let data = rwp_dataset(80, 400, 7);
        let queries = window_queries(80, 400, 40, 3);
        let params = GridParams {
            temporal: 20,
            cell_size: data.side / 10.0,
            threshold: 25.0,
            page_size: 512,
            ..GridParams::default()
        };
        let run = |device: Box<dyn BlockDevice>| {
            let mut grid = ReachGrid::build_on(device, &data.store, params).expect("grid builds");
            let io: Vec<u64> = queries
                .iter()
                .map(|q| {
                    let r = grid.evaluate(q).expect("query evaluates");
                    r.stats.random_ios * 20 + r.stats.seq_ios
                })
                .collect();
            (io, grid.size_bytes())
        };
        let plain = run(file(&dir, "grid.pages"));
        let (device, probe) = TimedDevice::wrap(file(&dir, "grid.pages"));
        let timed = run(device);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(plain, timed);
        assert!(probe.writes() > 0 && probe.reads() > 0);
    }
}
