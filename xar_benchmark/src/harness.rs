//! One workload run: its arguments, what it returns, and the result
//! line the driver reads.

use crate::blocks::Summary;
use crate::json::Json;
use crate::spec::Metric;
use crate::util::{median, peak_rss_mib};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Op counts ÷ 20, every check, no result/trace/history files.
    pub quick: bool,
}

impl Args {
    /// A block or warm-up size, scaled down by `--quick`.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }

    /// `(seconds, least number of blocks)` of the main timed section.
    /// Untraced: the whole budget, and at least three blocks so a median
    /// block exists. Traced: half the budget (the layer probes and
    /// secondary passes take the rest), and at least two blocks of each
    /// kind, since traced and untraced blocks alternate.
    pub fn timed(&self) -> (f64, usize) {
        if self.trace {
            (self.seconds * 0.5, 4)
        } else {
            (self.seconds, 3)
        }
    }
}

/// Collects oracle verdicts; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Oracle {
    pub checks: u64,
    pub failed: u64,
    /// The first few failures, spelled out.
    pub messages: Vec<String>,
}

impl Oracle {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(what());
            }
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        self.check(got == want, || format!("{what}: got {got:?}, want {want:?}"));
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub oracle: Oracle,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind a metric, and its repetition spread.
    pub detail: BTreeMap<&'static str, (u64, f64)>,
    /// Informational lines (`# ...`) for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64, spread: f64) {
        self.metrics.insert(name, value);
        self.detail.insert(name, (samples, spread));
    }

    /// The five end-to-end metrics from a block summary.
    pub fn set_end_to_end(&mut self, s: &Summary, setup_s: f64, setups: u64) {
        self.attempted += s.samples;
        self.set_n("ops_per_s", s.ops_per_s, s.blocks as u64, s.ops_spread);
        self.set_n("op_p50_us", s.p50_us, s.samples, s.p50_spread);
        self.set_n("op_tail_us", s.tail_us, s.samples, s.tail_spread);
        self.set_n("peak_rss_mb", peak_rss_mib(), 1, 0.0);
        self.set_n("setup_s", setup_s, setups, 0.0);
    }

    pub fn correct(&self) -> bool {
        self.oracle.failed == 0
    }

    /// Prints `name value unit n=<samples> rep_spread=<x>` for each of
    /// `table`'s metrics, then the one-line JSON result the driver
    /// parses. Metrics a workload does not measure print as 0.
    pub fn print(&self, args: &Args, table: &[Metric]) {
        println!(
            "# workload={} seed={} seconds={} trace={} quick={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.quick
        );
        for note in &self.notes {
            println!("# {note}");
        }
        let mut metrics = Vec::new();
        for m in table {
            let v = self.metrics.get(m.name).copied().unwrap_or(0.0);
            let measured = m.home.contains(&args.workload.as_str());
            if measured {
                let (n, spread) = self.detail.get(m.name).copied().unwrap_or((1, 0.0));
                println!(
                    "{} {} {} n={} rep_spread={:.4}",
                    m.name,
                    Json::Num(v).render(),
                    m.unit,
                    n,
                    spread
                );
            }
            metrics.push((
                m.name.to_string(),
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            ));
        }
        for f in &self.oracle.messages {
            println!("# ORACLE FAILED: {f}");
        }
        println!(
            "# oracle: {} checks, {} failed; failed_frac {} of {} attempted",
            self.oracle.checks, self.oracle.failed, self.failed, self.attempted
        );
        let line = Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", line.render());
    }
}

/// Runs `setup` `reps` times and keeps the last rig; the reported
/// set-up time is the median repetition (the first pays the process's
/// cold start, which a later change could otherwise hide work in).
/// Each workload picks `reps` so that cheap set-ups are repeated often
/// enough for a steady median.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let start = Instant::now();
        let rig = setup(rep);
        times.push(start.elapsed().as_secs_f64());
        last = Some(rig);
    }
    (last.expect("at least one set-up"), median(&times))
}
