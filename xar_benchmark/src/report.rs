//! The human-facing modes: run every workload (each in a fresh child
//! process, so memory, allocator state and thread placement do not leak
//! from one to the next), keep the results, and compare two result
//! files against the regression bounds.

use crate::envinfo;
use crate::harness::Args;
use crate::json::Json;
use crate::spec::{self, Better, Metric};
use crate::util::{iqr_share, median, output_root};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// `BENCHMARK.json`, generated from [`spec`] so the two cannot drift.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric, bounded: bool| {
        let bound = if bounded { format!(", \"bound\": {}", m.bound) } else { String::new() };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let join = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"xar_benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"xar_benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        crate::DEFAULT_SECONDS,
        join(spec::WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
            .collect()),
        join(spec::END_TO_END.iter().map(|m| metric(m, true)).collect()),
        join(spec::PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value)` in table order.
    values: Vec<(String, f64)>,
    /// `name -> (samples, rep_spread)` from the text lines.
    detail: Vec<(String, f64, f64)>,
}

/// Runs one workload in a child process, echoing what it prints.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    // The child divides --seconds by 20 itself under --quick.
    let seconds = if args.quick { args.seconds * 20.0 } else { args.seconds };
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines.pop().ok_or_else(|| format!("{workload}: no output ({})", output.status))?;
    let mut detail = Vec::new();
    for line in &lines {
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [name, _value, _unit, n, spread] = f.as_slice() {
            let num = |s: &str, key: &str| s.strip_prefix(key).and_then(|v| v.parse::<f64>().ok());
            if let (Some(n), Some(spread)) = (num(n, "n="), num(spread, "rep_spread=")) {
                detail.push((name.to_string(), n, spread));
            }
        }
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}\n{last}"))?;
    let field = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let values = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").and_then(Json::as_f64).unwrap_or(0.0)))
        .collect();
    let correct = doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
    if !output.status.success() && correct {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(ChildRun { correct, attempted: field("attempted"), failed: field("failed"), values, detail })
}

/// The metrics of `table` this workload measures, folded over `runs`.
fn fold_metrics(table: &[Metric], workload: &str, runs: &[ChildRun]) -> Json {
    let mut out = Vec::new();
    for m in table.iter().filter(|m| m.home.contains(&workload)) {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.values.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
            .collect();
        if values.is_empty() {
            continue;
        }
        let (samples, spread) = runs[0]
            .detail
            .iter()
            .find(|(n, _, _)| n == m.name)
            .map_or((1.0, 0.0), |(_, n, s)| (*n, *s));
        out.push((
            m.name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(median(&values))),
                ("unit", Json::str(m.unit)),
                ("runs", Json::Arr(values.into_iter().map(Json::Num).collect())),
                ("samples", Json::Num(samples)),
                ("rep_spread", Json::Num(spread)),
            ]),
        ));
    }
    Json::Obj(out)
}

/// One workload's runs: `runs` untraced, then one traced if asked.
fn run_workload(
    args: &Args,
    workload: &str,
    runs: usize,
    traced: bool,
) -> Result<(Vec<ChildRun>, Vec<ChildRun>), String> {
    let untraced =
        (0..runs.max(1)).map(|_| run_child(args, workload, false)).collect::<Result<_, _>>()?;
    let traced = if traced { vec![run_child(args, workload, true)?] } else { Vec::new() };
    Ok((untraced, traced))
}

/// Every workload, untraced then (unless `--no-trace`) traced, each run
/// in a fresh child. Writes the result file and appends it to the
/// history unless `--quick`.
pub fn run_all(args: &Args, both_passes: bool, runs: usize, out_path: Option<&str>) -> ExitCode {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (workload, why) in spec::WORKLOADS {
        println!("## {workload}: {why}");
        let (untraced, traced) = match run_workload(args, workload, runs, both_passes) {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("FAILED {e}");
                return ExitCode::FAILURE;
            }
        };
        let correct = untraced.iter().chain(&traced).all(|r| r.correct);
        all_correct &= correct;
        workloads.push((
            workload.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(untraced.iter().map(|r| r.attempted).sum())),
                ("failed", Json::Num(untraced.iter().chain(&traced).map(|r| r.failed).sum())),
                ("end_to_end", fold_metrics(spec::END_TO_END, workload, &untraced)),
                ("per_layer", fold_metrics(spec::PER_LAYER, workload, &traced)),
            ]),
        ));
    }
    let root = output_root();
    let env = envinfo::collect(&root);
    let doc = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("env", env),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("runs", Json::Num(runs.max(1) as f64)),
        ("workloads", Json::Obj(workloads)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
    ]);
    println!("## environment: {}", doc.get("env").map(Json::render).unwrap_or_default());
    if !args.quick {
        let path = out_path
            .map_or_else(|| root.join(format!("result-seed{}.json", args.seed)), Into::into);
        let line = doc.render();
        let written = std::fs::create_dir_all(&root)
            .and_then(|()| std::fs::write(&path, format!("{line}\n")))
            .and_then(|()| {
                let mut history = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(root.join("history.jsonl"))?;
                writeln!(history, "{line}")
            });
        match written {
            Ok(()) => {
                println!("## result written to {} and appended to history.jsonl", path.display())
            }
            Err(e) => {
                eprintln!("FAILED writing results: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an oracle check failed (see the ORACLE FAILED lines above)");
        ExitCode::FAILURE
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One metric's verdict: B (the change) against A (the parent).
fn judge(m: &Metric, a: &[f64], b: &[f64]) -> (f64, Option<f64>, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    // Run-to-run spread is only known with enough runs on both sides.
    let spread = (a.len() >= 4 && b.len() >= 4).then(|| iqr_share(a).max(iqr_share(b)));
    let b_always_better = match m.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    let verdict = match spread {
        Some(s) if s > m.bound && !b_always_better => Verdict::Unresolved,
        _ if worse_by > m.bound => Verdict::Regressed,
        _ => Verdict::Ok,
    };
    (worse_by, spread, verdict)
}

fn runs_of(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc.get("workloads")?.get(workload)?.get(section)?.get(metric)?;
    let runs: Vec<f64> = m.get("runs")?.as_array()?.iter().filter_map(Json::as_f64).collect();
    (!runs.is_empty()).then_some(runs)
}

/// `compare A.json B.json`: per workload × end-to-end metric, both
/// medians, how much worse B is, the bound, and the verdict. Exit code
/// 0 = all ok, 1 = something regressed (or is incorrect), 2 = nothing
/// regressed but something is unresolved.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(t.trim()))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for (label, doc) in [("A", &a), ("B", &b)] {
        println!("# {label}: {}", doc.get("env").map(Json::render).unwrap_or_default());
    }
    println!(
        "{:<20} {:<12} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "worse_by", "bound", "spread"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, _) in spec::WORKLOADS {
        let correct = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("correct"))
                .and_then(Json::as_bool)
        };
        if correct(&a) != Some(true) || correct(&b) != Some(true) {
            println!("{workload:<20} missing or failed its oracle in one file  regressed");
            regressed += 1;
            continue;
        }
        for m in spec::END_TO_END {
            let runs = |doc| runs_of(doc, workload, "end_to_end", m.name);
            let (Some(ra), Some(rb)) = (runs(&a), runs(&b)) else {
                println!("{workload:<20} {:<12} missing in one file  unresolved", m.name);
                unresolved += 1;
                continue;
            };
            let (worse_by, spread, verdict) = judge(m, &ra, &rb);
            println!(
                "{workload:<20} {:<12} {:>16.4} {:>16.4} {:>+8.1}% {:>6.0}% {:>8}  {}",
                m.name,
                median(&ra),
                median(&rb),
                worse_by * 100.0,
                m.bound * 100.0,
                spread.map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
        // Counts repeat exactly for one seed; a difference is worth a
        // line even though no bound applies.
        for m in spec::PER_LAYER.iter().filter(|m| m.unit == "count") {
            let runs = |doc| runs_of(doc, workload, "per_layer", m.name);
            if let (Some(ra), Some(rb)) = (runs(&a), runs(&b)) {
                if ra[0] != rb[0] {
                    println!("{workload:<20} {:<28} count {} -> {}  differs", m.name, ra[0], rb[0]);
                }
            }
        }
    }
    println!("# {regressed} regressed, {unresolved} unresolved (spread needs >= 4 runs per side: --runs 4)");
    match (regressed, unresolved) {
        (0, 0) => ExitCode::SUCCESS,
        (0, _) => ExitCode::from(2),
        _ => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tput = spec::end_to_end("ops_per_s").expect("ops_per_s is end-to-end");
        let lat = spec::end_to_end("op_p50_us").expect("op_p50_us is end-to-end");
        // One run per side: the bound alone decides.
        assert_eq!(judge(tput, &[100.0], &[95.0]).2, Verdict::Ok);
        assert_eq!(judge(tput, &[100.0], &[70.0]).2, Verdict::Regressed);
        assert_eq!(judge(lat, &[10.0], &[13.0]).2, Verdict::Regressed);
        assert_eq!(judge(lat, &[10.0], &[8.0]).2, Verdict::Ok);
        // Spread wider than the bound: unresolved, unless B always wins.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(judge(lat, &noisy, &[85.0, 105.0, 125.0, 145.0]).2, Verdict::Unresolved);
        assert_eq!(judge(lat, &noisy, &[10.0, 20.0, 30.0, 40.0]).2, Verdict::Ok);
    }

    #[test]
    fn generated_benchmark_json_parses() {
        let doc = Json::parse(&benchmark_json()).expect("generated BENCHMARK.json parses");
        assert_eq!(doc.get("paths").and_then(Json::as_array).map(<[Json]>::len), Some(1));
    }
}
