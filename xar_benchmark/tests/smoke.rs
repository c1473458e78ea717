//! Keeps the benchmark building and correct: `--quick` (op counts ÷ 20,
//! every oracle check, no result files) on two seeds, and the shape of
//! the result line the driver reads.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_xar_benchmark");
const WORKLOADS: [&str; 6] = [
    "decide-rtt",
    "decide-batch",
    "call-cycle-durable",
    "crash-recovery",
    "cluster-sim",
    "migrate-exec",
];
const END_TO_END: [&str; 5] = ["ops_per_s", "op_p50_us", "op_tail_us", "peak_rss_mb", "setup_s"];

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE).args(args).output().expect("benchmark binary runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn quick_pass_is_correct_on_two_seeds() {
    for seed in ["1", "2"] {
        let (ok, stdout) = run(&["--quick", "--seed", seed]);
        assert!(ok, "seed {seed} failed:\n{stdout}");
        assert!(!stdout.contains("ORACLE FAILED"), "seed {seed}:\n{stdout}");
        for w in WORKLOADS {
            assert!(stdout.contains(&format!("## {w}:")), "seed {seed}: {w} did not run");
            // Untraced and traced pass each.
            assert_eq!(stdout.matches(&format!("# workload={w} seed={seed}")).count(), 2, "{w}");
        }
    }
}

#[test]
fn result_line_carries_every_end_to_end_metric() {
    let (ok, stdout) = run(&[
        "--workload",
        "migrate-exec",
        "--seed",
        "3",
        "--seconds",
        "8",
        "--trace",
        "0",
        "--quick",
    ]);
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for m in END_TO_END {
        let at =
            last.find(&format!("\"{m}\": {{\"value\": ")).unwrap_or_else(|| panic!("{m}: {last}"));
        let value: f64 = last[at..]
            .split("\"value\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{m} has no number: {last}"));
        assert!(value > 0.0, "{m} must never be 0: {last}");
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let (ok, stdout) =
        run(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
}
