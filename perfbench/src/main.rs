//! The benchmark command:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See the library docs for the workloads. The last line of standard
//! output is the run's JSON result. A run writes its inputs by calling
//! itself as `perfbench generate <seed> <dir>`.

use perfbench::{run, Ctx, WORKLOADS};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        work: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    };
    (workload, ctx)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, cmd, seed, dir] = args.as_slice() {
        if cmd == "generate" {
            let seed = seed
                .parse()
                .unwrap_or_else(|_| usage("generate needs a seed"));
            perfbench::workload::write_inputs(seed, std::path::Path::new(dir));
            return;
        }
    }
    let (workload, ctx) = parse_args();
    let report = run(&workload, &ctx);
    let _ = std::fs::remove_dir(".bench_work");
    report.print();
}
