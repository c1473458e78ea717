//! `xar_benchmark` — the repository's gating benchmark.
//!
//! ```text
//! xar_benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one workload, one process
//! xar_benchmark [--seed N] [--seconds S] [--runs K] [--quick] [--no-trace] [--out FILE]
//!                                                                         every workload, each in a fresh child
//! xar_benchmark compare A.json B.json                                     regression verdict per workload x metric
//! xar_benchmark spec                                                      the contract, as BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for what each workload and
//! metric means and which layer should move which number.

mod affinity;
mod blocks;
mod daemon;
mod envinfo;
mod harness;
mod json;
mod layers;
mod report;
mod spans;
mod spec;
mod util;
mod workloads;

use harness::Args;
use std::process::ExitCode;

/// The driver's `run_seconds`.
const DEFAULT_SECONDS: f64 = 18.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: xar_benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--runs K] [--no-trace] [--out FILE]\n       xar_benchmark compare A.json B.json\n       xar_benchmark spec\nworkloads: {}",
        spec::WORKLOADS.iter().map(|(w, _)| *w).collect::<Vec<_>>().join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return usage();
            };
            return report::compare(a, b);
        }
        Some("spec") => {
            println!("{}", report::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let (mut both_passes, mut runs, mut out_path) = (true, 1usize, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--workload" => value().map(|v| args.workload = v.to_string()).is_some(),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| args.seed = v).is_some(),
            "--seconds" => value().and_then(|v| v.parse().ok()).map(|v| args.seconds = v).is_some(),
            "--trace" => value().map(|v| args.trace = v != "0").is_some(),
            "--runs" => value().and_then(|v| v.parse().ok()).map(|v| runs = v).is_some(),
            "--out" => value().map(|v| out_path = Some(v.to_string())).is_some(),
            "--quick" => {
                args.quick = true;
                true
            }
            "--no-trace" => {
                both_passes = false;
                true
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    if args.quick {
        args.seconds /= 20.0;
    }

    // Two load-generator threads against two daemon workers: on fewer
    // than two CPUs every number measures the host scheduler instead.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        eprintln!("undersized_machine: nproc = {nproc}, the benchmark needs at least 2");
        return ExitCode::from(3);
    }

    if args.workload.is_empty() {
        return report::run_all(&args, both_passes, runs, out_path.as_deref());
    }
    if !spec::workload_known(&args.workload) {
        return usage();
    }
    let outcome = workloads::run(&args);
    outcome.print(&args, if args.trace { spec::PER_LAYER } else { spec::END_TO_END });
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
