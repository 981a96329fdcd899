//! Seeded inputs shared by the workloads: one random-waypoint dataset and
//! the query streams asked of it. Nothing here is timed.
//!
//! A run writes its datasets' contacts to files from a child process
//! ([`generate_inputs`]), so generating the trajectories and extracting
//! their contacts leaves no mark on the measuring process's peak memory.

use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reach_contact::extract_contacts;
use reach_contact::ingest::{write_events, ContactTrace};
use reach_core::{Contact, Coord, Environment, ObjectId, Query, Time, TimeInterval};
use reach_mobility::RwpConfig;
use reach_traj::TrajectoryStore;
use std::io::{BufRead, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Objects in every workload's dataset.
pub const OBJECTS: usize = 1000;
/// Ticks in every workload's dataset.
pub const HORIZON: Time = 2000;
/// Contact threshold `d_T` in metres (the paper's Bluetooth range).
pub const THRESHOLD: Coord = 25.0;
/// Device page size of every index and log.
pub const PAGE: usize = 512;

/// Datasets every run generates and pools its figures over, so that one
/// unusual dataset moves a run's figures less.
pub const DATASETS: u64 = 3;

/// Rounds an untraced run makes at least: every query is asked this many
/// times, one ask per round, and its latency is the least of the first
/// this many asks. The host's interference (steal, a neighbour's burst)
/// only ever adds time to an ask; the work and the waits of the program
/// recur on every ask.
pub const ASKS: usize = 2;

/// The dataset seeds of run seed `seed` (disjoint across run seeds).
pub fn datasets(seed: u64) -> impl Iterator<Item = u64> {
    (0..DATASETS).map(move |k| seed.wrapping_mul(DATASETS).wrapping_add(k))
}

/// Trajectories plus the maximal contacts they induce.
pub struct Dataset {
    pub store: TrajectoryStore,
    pub contacts: Vec<Contact>,
    /// Side of the square environment in metres.
    pub side: Coord,
}

/// Random-waypoint individuals at 6·10⁻⁵ objects/m², walking 0.5–1.5 m/s
/// with 6-second ticks: the scaling `reach_bench`'s RWP presets use, so a
/// 100–300 tick window reaches a small part of the environment.
pub fn rwp_dataset(num_objects: usize, horizon: Time, seed: u64) -> Dataset {
    let (store, side) = rwp_store(num_objects, horizon, seed);
    let contacts = extract_contacts(&store, store.horizon_interval(), THRESHOLD);
    Dataset {
        store,
        contacts,
        side,
    }
}

/// The trajectories of [`rwp_dataset`] alone, with the environment's side.
pub fn rwp_store(num_objects: usize, horizon: Time, seed: u64) -> (TrajectoryStore, Coord) {
    let side = (num_objects as f64 / 6.0e-5).sqrt() as Coord;
    let store = RwpConfig {
        env: Environment::square(side),
        num_objects,
        horizon,
        tick_seconds: 6.0,
        speed_min: 0.5,
        speed_max: 1.5,
        pause_ticks_max: 4,
    }
    .generate(seed);
    (store, side)
}

/// Dataset `k`'s contacts under `dir`, one `a b start end` line each.
pub fn contacts_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("contacts-{k}.txt"))
}

/// Dataset `k`'s events-format trace file under `dir`.
pub fn events_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("trace-{k}.events"))
}

/// Writes both files of every dataset of run seed `seed` under `dir`.
pub fn write_inputs(seed: u64, dir: &Path) {
    for (k, dataset_seed) in datasets(seed).enumerate() {
        let data = rwp_dataset(OBJECTS, HORIZON, dataset_seed);
        let create = |path: PathBuf| {
            BufWriter::new(std::fs::File::create(path).expect("input directory is writable"))
        };
        let mut w = create(contacts_path(dir, k));
        for c in &data.contacts {
            writeln!(
                w,
                "{} {} {} {}",
                c.a.0, c.b.0, c.interval.start, c.interval.end
            )
            .expect("contacts file writes");
        }
        w.flush().expect("contacts file flushes");
        let trace = ContactTrace::from_parts(OBJECTS, HORIZON, data.contacts.iter().copied())
            .expect("generated contacts fit the universe");
        let mut w = create(events_path(dir, k));
        write_events(&trace, &mut w).expect("trace file writes");
        w.flush().expect("trace file flushes");
    }
}

/// Runs `perfbench generate` in a child process to write the run's inputs
/// under its work directory, and waits for it.
pub fn generate_inputs(ctx: &Ctx) {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let status = std::process::Command::new(exe)
        .arg("generate")
        .arg(ctx.seed.to_string())
        .arg(&ctx.work)
        .status()
        .expect("the input generator starts");
    assert!(status.success(), "the input generator failed: {status}");
}

/// Reads a contacts file [`write_inputs`] wrote.
pub fn read_contacts(path: &Path) -> Vec<Contact> {
    let file = std::fs::File::open(path).expect("contacts file opens");
    std::io::BufReader::new(file)
        .lines()
        .map(|line| {
            let line = line.expect("contacts file reads");
            let f: Vec<u32> = line
                .split_whitespace()
                .map(|v| v.parse().expect("contacts file holds integers"))
                .collect();
            Contact::new(
                ObjectId(f[0]),
                ObjectId(f[1]),
                TimeInterval::new(f[2], f[3]),
            )
        })
        .collect()
}

/// `n` reachability queries between distinct random objects, over
/// windows of 100–300 ticks placed anywhere inside `[0, horizon)`.
pub fn window_queries(num_objects: usize, horizon: Time, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51AB_1E00);
    (0..n)
        .map(|_| random_query(&mut rng, num_objects, horizon))
        .collect()
}

/// One query with a 100–300 tick window inside `[0, horizon)` (shorter
/// when the horizon is shorter), source and destination distinct.
pub fn random_query(rng: &mut StdRng, num_objects: usize, horizon: Time) -> Query {
    let source = rng.gen_range(0..num_objects as u32);
    let dest = loop {
        let d = rng.gen_range(0..num_objects as u32);
        if d != source {
            break d;
        }
    };
    let len = rng.gen_range(100..=300u32).min(horizon);
    let start = rng.gen_range(0..=horizon - len);
    Query::new(
        ObjectId(source),
        ObjectId(dest),
        TimeInterval::new(start, start + len - 1),
    )
}
