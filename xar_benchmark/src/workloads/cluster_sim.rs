//! `cluster-sim`: the experiment drivers' path. A `ClusterSim` over the
//! §4.3 periodic pattern, scaled up, with the daemon's engine behind
//! the `ShardedPolicy` adapter as its policy. No sockets: only `desim`,
//! `core::policy` and `sched::{adapter, engine}` run, so a transport
//! change must not move this workload and a simulator or policy change
//! must.
//!
//! Host time is what is measured; *simulated* statistics are checked,
//! not timed: every draw must repeat digest for digest and equal the
//! plain `XarTrekPolicy` simulation.

use super::common::{finish_trace, set_probe, trace_summaries};
use crate::blocks::{drive, summarize, BlockOut, TAILS_P90};
use crate::daemon::{self, Names, ENGINE};
use crate::harness::{median_setup, Args, Outcome};
use crate::layers::{self, probe};
use crate::spans::{SpanLog, Trace};
use crate::util::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xar_core::pipeline::build_all;
use xar_core::server::sharded_engine;
use xar_core::XarTrekPolicy;
use xar_desim::cluster::SimResult;
use xar_desim::{
    AlwaysX86, Arrival, ClusterConfig, ClusterSim, CompletionReport, DecideCtx, Decision, JobSpec,
    Policy,
};
use xar_hls::Xclbin;
use xar_sched::ShardedPolicy;
use xar_workloads::all_profiles;

/// A set-up of tens of milliseconds: repeated often for a steady median.
const SETUP_REPS: usize = 31;
/// Distinct arrival draws a run cycles through; each must repeat its
/// digest every time it comes round again.
const DRAWS: usize = 8;
/// Simulation runs per block.
const BLOCK_RUNS: usize = 4;

struct Shape {
    waves: usize,
    per_wave: usize,
    background: usize,
}

impl Shape {
    fn jobs(&self) -> usize {
        self.waves * self.per_wave + self.background
    }
}

struct Rig {
    cfg: ClusterConfig,
    xclbins: Vec<Xclbin>,
    policy: XarTrekPolicy,
    specs: Vec<JobSpec>,
    /// The seed's arrival draws; a simulation consumes a clone.
    draws: Vec<Vec<Arrival>>,
}

/// The compiler pipeline for all five benchmarks (steps A–G), the
/// threshold estimation behind the policy, and the seed's inputs.
fn build_rig(shape: &Shape, seed: u64) -> Rig {
    let cfg = ClusterConfig::default();
    let (_, xclbins) = build_all(&cfg).expect("pipeline builds");
    let specs: Vec<JobSpec> = all_profiles().iter().map(|p| p.job()).collect();
    let policy = XarTrekPolicy::from_specs(&specs, &cfg);
    let draws = (0..DRAWS).map(|draw| arrivals(&specs, shape, seed, draw)).collect();
    Rig { cfg, xclbins, policy, specs, draws }
}

/// Waves of applications drawn from the five profiles, one wave every
/// 30 s, over a bed of long background jobs.
fn arrivals(specs: &[JobSpec], shape: &Shape, seed: u64, draw: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64::stream(seed, 0xC5, draw as u64);
    let mut out = Vec::with_capacity(shape.jobs());
    for i in 0..shape.background {
        out.push(Arrival { at_ns: 0.0, spec: JobSpec::background(format!("bg-{i}"), 2e5) });
    }
    for wave in 0..shape.waves {
        for _ in 0..shape.per_wave {
            let spec = specs[rng.below(specs.len() as u64) as usize].clone();
            out.push(Arrival { at_ns: wave as f64 * 30e9, spec });
        }
    }
    out
}

/// One simulation; only `ClusterSim::run` is on the clock (its start
/// and duration are returned). The finished simulator comes back so a
/// caller can read its policy.
fn simulate<P: Policy>(
    rig: &Rig,
    policy: P,
    arrivals: Vec<Arrival>,
) -> (SimResult, (Instant, Duration), ClusterSim<P>) {
    let mut sim = ClusterSim::new(rig.cfg.clone(), policy);
    for x in &rig.xclbins {
        sim.preload_xclbin(x.clone());
    }
    let start = Instant::now();
    let result = sim.run(arrivals);
    (result, (start, start.elapsed()), sim)
}

fn sharded(rig: &Rig) -> ShardedPolicy<XarTrekPolicy> {
    ShardedPolicy::new(Arc::new(sharded_engine(&rig.policy, ENGINE)))
}

/// FNV-1a over every simulated statistic a figure could be drawn from.
fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x100_0000_01B3);
        }
    };
    eat(&r.end_ns.to_bits().to_le_bytes());
    for rec in &r.records {
        eat(rec.name.as_bytes());
        eat(&rec.arrival_ns.to_bits().to_le_bytes());
        eat(&rec.end_ns.to_bits().to_le_bytes());
        eat(&rec.calls_completed.to_le_bytes());
        eat(&rec.arm_calls.to_le_bytes());
        eat(&rec.fpga_calls.to_le_bytes());
    }
    h
}

/// A `Policy` wrapper that times its inner policy's callbacks: the
/// adapter's share of a simulation's host time.
struct Timed<P> {
    inner: P,
    decide: Duration,
    on_complete: Duration,
    decides: u64,
    completes: u64,
}

impl<P: Policy> Timed<P> {
    fn new(inner: P) -> Self {
        Timed {
            inner,
            decide: Duration::ZERO,
            on_complete: Duration::ZERO,
            decides: 0,
            completes: 0,
        }
    }
}

impl<P: Policy> Policy for Timed<P> {
    fn on_launch(&mut self, ctx: &DecideCtx<'_>) -> bool {
        self.inner.on_launch(ctx)
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Decision {
        let start = Instant::now();
        let d = self.inner.decide(ctx);
        self.decide += start.elapsed();
        self.decides += 1;
        d
    }

    fn on_complete(&mut self, report: &CompletionReport<'_>) {
        let start = Instant::now();
        self.inner.on_complete(report);
        self.on_complete += start.elapsed();
        self.completes += 1;
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

pub fn run(args: &Args) -> Outcome {
    let shape = Shape {
        waves: args.scaled(100).max(2),
        per_wave: args.scaled(50).max(5),
        background: args.scaled(100),
    };
    let (rig, setup_s) = median_setup(SETUP_REPS, |_| build_rig(&shape, args.seed));
    let mut out = Outcome::default();
    let mut digests: [Option<u64>; DRAWS] = [None; DRAWS];
    let mut first: Option<SimResult> = None;
    let mut samples = Vec::new();
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut policy_time = (Duration::ZERO, Duration::ZERO);

    let body = |b: u64| {
        let traced = args.trace && b % 2 == 1;
        let (mut failed, mut busy) = (0u64, Duration::ZERO);
        samples.clear();
        for i in 0..BLOCK_RUNS {
            let draw = (b as usize * BLOCK_RUNS + i) % DRAWS;
            let jobs = rig.draws[draw].clone();
            let (result, took) = if traced {
                let (result, (start, took), sim) = simulate(&rig, Timed::new(sharded(&rig)), jobs);
                let timed = sim.policy();
                let id = log.record("desim.run", 0, draw as u64, start, start + took);
                // Aggregated child spans: the policy's callbacks are
                // thousands of ~100 ns calls, recorded as their totals.
                log.record("policy.decide", id, draw as u64, start, start + timed.decide);
                log.record("policy.on_complete", id, draw as u64, start, start + timed.on_complete);
                log.count("policy.decide", timed.decides);
                log.count("policy.on_complete", timed.completes);
                policy_time.0 += timed.decide + timed.on_complete;
                policy_time.1 += took;
                (result, took)
            } else {
                let (result, (_, took), _) = simulate(&rig, sharded(&rig), jobs);
                (result, took)
            };
            samples.push(took.as_nanos().min(u32::MAX as u128) as u32);
            busy += took;
            let d = digest(&result);
            failed += u64::from(*digests[draw].get_or_insert(d) != d);
            if draw == 0 && first.is_none() {
                first = Some(result);
            }
        }
        BlockOut::fold(&mut samples, TAILS_P90, (BLOCK_RUNS * shape.jobs()) as u64, failed, busy)
    };
    let (seconds, min_blocks) = args.timed();
    let blocks = drive(vec![body], seconds, min_blocks);
    let all = summarize(&blocks);
    out.failed = all.failed;
    out.oracle.eq(all.failed, 0, "simulations whose digest did not repeat");

    // The adapter must reproduce the plain policy's simulation exactly.
    for (draw, want) in digests.iter().enumerate().take(2) {
        let (plain, _, _) = simulate(&rig, rig.policy.clone(), rig.draws[draw].clone());
        out.oracle.eq(Some(digest(&plain)), *want, "ShardedPolicy vs plain XarTrekPolicy digest");
    }

    if args.trace {
        out.attempted = all.samples;
        let trace = Trace::from_logs([log]);
        let (p, t) = trace_summaries(&mut out, blocks, &trace);
        out.set_n(
            "desim.host_us_per_job_sharded",
            1e6 / p.ops_per_s,
            p.blocks as u64,
            p.ops_spread,
        );
        out.set_n(
            "adapter.policy_share",
            policy_time.0.as_secs_f64() / policy_time.1.as_secs_f64(),
            t.samples,
            0.0,
        );
        let first = first.expect("draw 0 ran");
        out.set("desim.sim_mean_exec_ms", first.mean_exec_ms());
        out.set("desim.sim_end_s", first.end_ns / 1e9);
        out.set("desim.total_calls", first.total_calls() as f64);
        layer_metrics(args, &rig, &shape, &mut out);
        finish_trace(args, &mut out, &trace);
    } else {
        out.set_end_to_end(&all, setup_s, SETUP_REPS as u64);
    }
    out
}

fn layer_metrics(args: &Args, rig: &Rig, shape: &Shape, out: &mut Outcome) {
    // The simulator alone: the same arrivals under a policy that does
    // nothing.
    let mut null_us = Vec::new();
    for draw in 0..3 {
        let (_, (_, took), _) = simulate(rig, AlwaysX86, rig.draws[draw].clone());
        null_us.push(took.as_secs_f64() * 1e6 / shape.jobs() as f64);
    }
    out.set_n("desim.host_us_per_job_null_policy", crate::util::median(&null_us), 3, 0.0);

    let start = Instant::now();
    build_all(&rig.cfg).expect("pipeline builds");
    out.set("core.build_all_ms", start.elapsed().as_secs_f64() * 1e3);
    let n = args.scaled(2_000);
    let estimate = probe(n / 4 + 1, 1, |i| {
        let spec = &rig.specs[i % rig.specs.len()];
        std::hint::black_box(xar_core::estimate_thresholds(spec, &rig.cfg));
    });
    out.set_n("core.estimate_thresholds_us", estimate.ns / 1e3, estimate.samples, 0.0);
    let names = Names::new();
    let qs = layers::queries(args.seed, 4096, 0, daemon::ROWS);
    set_probe(out, "core.algorithm2_ns", layers::core_algorithm2(&qs, n));
    set_probe(out, "core.algorithm1_ns", layers::core_algorithm1(&names, &qs, n));
}
