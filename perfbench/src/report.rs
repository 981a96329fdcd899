//! Run accounting and output: latency samples, per-operation attempted and
//! failed counts, process readings, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Latency samples in microseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_us(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Samples per second of their summed time.
    pub fn rate(&self) -> f64 {
        self.len() as f64 / (self.sum() / 1e6)
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank quantile (`q` in `(0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }
}

/// Attempted and failed counts per operation type.
#[derive(Clone, Debug, Default)]
pub struct Ops(BTreeMap<&'static str, (u64, u64)>);

impl Ops {
    /// Adds `attempted` operations of type `op`, `failed` of them failed.
    pub fn add(&mut self, op: &'static str, attempted: u64, failed: u64) {
        let e = self.0.entry(op).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    pub fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), &(oa, of)| (a + oa, f + of))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&&'static str, &(u64, u64))> {
        self.0.iter()
    }
}

/// Everything one run prints.
#[derive(Debug)]
pub struct Report {
    /// False once a check that is not itself an operation fails (counted IO
    /// that does not repeat, a decorator that changes what it wraps).
    pub correct: bool,
    pub ops: Ops,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Diagnostic lines printed before the result (not metrics).
    pub notes: Vec<String>,
}

impl Default for Report {
    fn default() -> Self {
        Self {
            correct: true,
            ops: Ops::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Report {
    /// Records a failed run-level check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Reports the time metrics, in wall-clock time: set-up (the median
    /// over datasets of `setups`, one per dataset) and query latency, which is what a client waits, waits
    /// inside the program (syncs, locks, the serve queue's handoff)
    /// included. The same figures in CPU time, summed over the process's
    /// threads, follow as a note.
    pub fn times(&mut self, setups: &[Lap], wall_us: &Samples, cpu_us: &Samples) {
        let secs = |f: fn(&Lap) -> Duration| {
            median(
                &setups
                    .iter()
                    .map(|l| f(l).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        self.metric("setup_s", secs(|l| l.wall), "s");
        self.metric("query_p50_us", wall_us.quantile(0.50), "us");
        self.metric("query_p99_us", wall_us.quantile(0.99), "us");
        self.metric("query_qps", wall_us.rate(), "1/s");
        self.notes.push(format!(
            "CPU time: setup {:.4} s, query p50 {:.1} us, p99 {:.1} us, {:.1} queries/s",
            secs(|l| l.cpu),
            cpu_us.quantile(0.50),
            cpu_us.quantile(0.99),
            cpu_us.rate()
        ));
    }

    /// Prints the human-readable lines, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (op, (attempted, failed)) in self.ops.iter() {
            println!("op {op:<16} attempted {attempted:>9} failed {failed:>6}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<34} {value:>16.4} {unit}");
        }
        let (attempted, failed) = self.ops.totals();
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            self.correct
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Thread ids of this process, as of the last [`refresh_threads`].
static THREADS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Re-reads the threads of this process. Call it, outside any timed
/// interval, after starting or stopping a thread.
pub fn refresh_threads() {
    let tids = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    *THREADS.lock().expect("thread list lock") = tids;
}

/// CPU time consumed so far by the threads [`refresh_threads`] saw, each
/// read from its own clock. (The process-wide clock adds a thread that is
/// running on another CPU only at its next tick or switch, so a serve
/// worker's time would land in the wrong query.) A thread that has ended
/// contributes nothing.
pub fn process_cpu() -> Duration {
    threads_cpu(&THREADS.lock().expect("thread list lock"))
}

/// Summed CPU clocks of the threads `tids`; ended threads count 0.
fn threads_cpu(tids: &[u32]) -> Duration {
    // Linux `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`: the inverted tid
    // shifted past the per-thread flag (4) and the clock kind (2).
    const PER_THREAD_SCHED: u32 = 4 | 2;
    let mut total = Duration::ZERO;
    for &tid in tids {
        let clock = ((!tid) << 3 | PER_THREAD_SCHED) as i32;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) that outlives the call; a clock id for a
        // thread that no longer exists makes the call fail, never write.
        if unsafe { clock_gettime(clock, &mut ts) } == 0 {
            total += Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32);
        }
    }
    total
}

/// A stopwatch reading process CPU time ([`process_cpu`]) and wall-clock
/// time together.
pub struct Stopwatch {
    cpu: Duration,
    wall: Instant,
}

/// What a [`Stopwatch`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    pub cpu: Duration,
    pub wall: Duration,
}

impl std::ops::Add for Lap {
    type Output = Lap;

    fn add(self, other: Lap) -> Lap {
        Lap {
            cpu: self.cpu + other.cpu,
            wall: self.wall + other.wall,
        }
    }
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    pub fn stop(&self) -> Lap {
        Lap {
            cpu: process_cpu().saturating_sub(self.cpu),
            wall: self.wall.elapsed(),
        }
    }
}

/// The least of `laps`, each clock apart; `None` when there are none.
pub fn least(laps: impl IntoIterator<Item = Lap>) -> Option<Lap> {
    laps.into_iter().reduce(|a, b| Lap {
        cpu: a.cpu.min(b.cpu),
        wall: a.wall.min(b.wall),
    })
}

/// Peak resident memory of this process (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Host steal time so far, in seconds (the `steal` column of the `cpu`
/// line of `/proc/stat`, in the kernel's 100 Hz user ticks).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Repeats `round` until `budget` has elapsed and at least `min_rounds`
/// (and one) rounds have run, always finishing a round, so every run
/// attempts whole rounds of the same operations. Returns the rounds run.
pub fn whole_rounds(budget: Duration, min_rounds: usize, mut round: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut r = 0;
    while r < min_rounds.max(1) || started.elapsed() < budget {
        round(r);
        r += 1;
    }
    r
}

/// Median of a list of set-up seconds; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=200 {
            s.push_us(v as f64);
        }
        assert_eq!(s.quantile(0.5), 100.0);
        assert_eq!(s.quantile(0.99), 198.0);
        assert_eq!(s.quantile(1.0), 200.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
    }

    #[test]
    fn ops_count_failures_per_type() {
        let mut ops = Ops::default();
        ops.add("reach", 2, 1);
        ops.add("append", 4, 1);
        ops.add("reach", 3, 0);
        assert_eq!(ops.totals(), (9, 2));
        assert_eq!(ops.iter().count(), 2);
    }

    /// Another thread's clock includes the time it is spending on its CPU
    /// right now, not only what it had run at its last switch.
    #[test]
    fn thread_clocks_count_a_running_thread_at_once() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (tx, rx) = std::sync::mpsc::channel();
        let go = std::sync::Barrier::new(2);
        let (spun, quit) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                let me = std::fs::read_link("/proc/thread-self").expect("procfs");
                let tid: u32 = me
                    .file_name()
                    .and_then(|n| n.to_str()?.parse().ok())
                    .expect("thread-self names a tid");
                tx.send(tid).expect("main thread listens");
                go.wait();
                let start = threads_cpu(&[tid]);
                while threads_cpu(&[tid]) - start < Duration::from_millis(50) {}
                spun.store(true, Ordering::SeqCst);
                while !quit.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
            let tid = rx.recv().expect("spinner reports its tid");
            let before = threads_cpu(&[tid]);
            go.wait();
            while !spun.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let spent = threads_cpu(&[tid]) - before;
            quit.store(true, Ordering::SeqCst);
            assert!(spent >= Duration::from_millis(50), "{spent:?}");
        });
    }

    #[test]
    fn whole_rounds_runs_at_least_one_round() {
        let mut seen = Vec::new();
        let n = whole_rounds(Duration::ZERO, 0, |r| seen.push(r));
        assert_eq!((n, seen), (1, vec![0]));
        let n = whole_rounds(Duration::ZERO, 3, |_| {});
        assert_eq!(n, 3);
    }

    #[test]
    fn least_takes_each_clock_apart() {
        let lap = |cpu, wall| Lap {
            cpu: Duration::from_millis(cpu),
            wall: Duration::from_millis(wall),
        };
        let l = least([lap(3, 5), lap(4, 4), lap(5, 6)]).expect("three laps");
        assert_eq!((l.cpu, l.wall), (lap(3, 4).cpu, lap(3, 4).wall));
        assert!(least([]).is_none());
    }
}
