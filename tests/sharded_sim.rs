//! Cluster simulations driven through the sharded engine: the
//! `ShardedPolicy` adapter must reproduce the plain `XarTrekPolicy`
//! simulation bit-for-bit (batch = 1), at 1000+ concurrent apps, while
//! the engine's telemetry observes every decision the simulator made.

mod common;

use common::paper_policy;
use std::sync::Arc;
use xar_trek::core::server::sharded_engine;
use xar_trek::core::XarTrekPolicy;
use xar_trek::desim::workload::batch_arrivals;
use xar_trek::desim::{ClusterConfig, ClusterSim, JobSpec};
use xar_trek::sched::{EngineConfig, ShardedPolicy};

/// 1000+ apps: the five profiled benchmarks replicated, plus
/// background load.
fn big_arrivals() -> Vec<xar_trek::desim::Arrival> {
    let profiles = xar_trek::workloads::all_profiles();
    let mut apps: Vec<JobSpec> = Vec::new();
    for i in 0..210 {
        // Replicas share the profile name (and so the threshold row) —
        // exactly how many instances of one binary hit one daemon.
        apps.push(profiles[i % profiles.len()].job());
    }
    for i in 0..800 {
        apps.push(JobSpec::background(format!("bg{i}"), 2e5));
    }
    apps.truncate(1010);
    batch_arrivals(&apps)
}

#[test]
fn sharded_sim_equals_plain_policy_sim_at_1k_apps() {
    let cfg = ClusterConfig::default();
    let (_, shared) = xar_trek::core::pipeline::build_all(&cfg).unwrap();
    let arrivals = big_arrivals();

    let run = |use_sharded: bool| {
        let mut sim = if use_sharded {
            let engine =
                Arc::new(sharded_engine(&paper_policy(), EngineConfig { shards: 8, batch: 1 }));
            ClusterSim::new(cfg.clone(), PolicyKind::Sharded(ShardedPolicy::new(engine)))
        } else {
            ClusterSim::new(cfg.clone(), PolicyKind::Plain(paper_policy()))
        };
        for x in &shared {
            sim.preload_xclbin(x.clone());
        }
        sim.run(arrivals.clone())
    };

    let plain = run(false);
    let sharded = run(true);
    assert_eq!(plain.total_calls(), sharded.total_calls());
    assert!(
        (plain.mean_exec_ms() - sharded.mean_exec_ms()).abs() < 1e-9,
        "identical schedules: {} vs {}",
        plain.mean_exec_ms(),
        sharded.mean_exec_ms()
    );
    assert!((plain.end_ns - sharded.end_ns).abs() < 1e-9, "identical makespan");
}

/// Either policy backend can be slotted into the simulator.
enum PolicyKind {
    Plain(XarTrekPolicy),
    Sharded(ShardedPolicy<XarTrekPolicy>),
}

impl xar_trek::desim::Policy for PolicyKind {
    fn on_launch(&mut self, ctx: &xar_trek::desim::DecideCtx<'_>) -> bool {
        match self {
            PolicyKind::Plain(p) => p.on_launch(ctx),
            PolicyKind::Sharded(p) => p.on_launch(ctx),
        }
    }

    fn decide(&mut self, ctx: &xar_trek::desim::DecideCtx<'_>) -> xar_trek::desim::Decision {
        match self {
            PolicyKind::Plain(p) => p.decide(ctx),
            PolicyKind::Sharded(p) => p.decide(ctx),
        }
    }

    fn on_complete(&mut self, report: &xar_trek::desim::CompletionReport<'_>) {
        match self {
            PolicyKind::Plain(p) => p.on_complete(report),
            PolicyKind::Sharded(p) => p.on_complete(report),
        }
    }

    fn name(&self) -> &str {
        match self {
            PolicyKind::Plain(p) => p.name(),
            PolicyKind::Sharded(p) => p.name(),
        }
    }
}

/// The engine's telemetry must observe exactly the simulator's
/// decide/report traffic, and batching must actually defer applies.
#[test]
fn sharded_sim_telemetry_counts_simulator_traffic() {
    let cfg = ClusterConfig::default();
    let (_, shared) = xar_trek::core::pipeline::build_all(&cfg).unwrap();
    let engine = Arc::new(sharded_engine(&paper_policy(), EngineConfig { shards: 4, batch: 32 }));
    let mut sim = ClusterSim::new(cfg, ShardedPolicy::new(engine.clone()));
    for x in &shared {
        sim.preload_xclbin(x.clone());
    }
    let result = sim.run(big_arrivals());
    engine.flush();
    let m = engine.metrics_total();
    assert!(m.decides > 0);
    assert_eq!(
        m.reports, m.decides,
        "the simulator reports every selected-function call it decided"
    );
    assert!(m.batches < m.reports, "batch=32 amortizes applies");
    assert!(result.total_calls() >= m.decides, "calls include background jobs");
}

/// The adapter's batch door: deciding a query set through
/// `ShardedPolicy::decide_batch` (the daemon's `DecideBatch` engine
/// path — grouped, once-per-batch snapshot revalidation) must be
/// bit-identical to the per-call `Policy::decide` door the figure
/// drivers use, against the same live engine.
#[test]
fn adapter_batch_door_matches_per_call_decides() {
    use xar_trek::desim::Policy as _;
    use xar_trek::sched::WireQuery;
    let engine = Arc::new(sharded_engine(&paper_policy(), EngineConfig { shards: 8, batch: 1 }));
    let mut adapter = ShardedPolicy::new(engine.clone());
    let profiles = xar_trek::workloads::all_profiles();
    let queries: Vec<WireQuery<'_>> = profiles
        .iter()
        .cycle()
        .take(64)
        .enumerate()
        .flat_map(|(i, p)| {
            [2u32, 200].map(move |load| WireQuery {
                app: p.name,
                kernel: "k",
                x86_load: load + i as u32 % 7,
                arm_load: 0,
                kernel_resident: true,
                device_ready: true,
            })
        })
        .collect();
    let per_call: Vec<_> = queries.iter().map(|q| adapter.decide(&q.ctx())).collect();
    let batched = adapter.decide_batch(&queries);
    assert_eq!(batched, per_call, "batch door diverged from the per-call door");
    // And a report in between is observed by both doors identically.
    adapter.on_complete(&xar_trek::desim::CompletionReport {
        app: profiles[0].name,
        target: xar_trek::desim::Target::Fpga,
        func_ms: 1e9,
        x86_load: 2,
    });
    let per_call: Vec<_> = queries.iter().map(|q| adapter.decide(&q.ctx())).collect();
    assert_eq!(adapter.decide_batch(&queries), per_call, "doors diverged after a publish");
}

/// Cloned `ShardedPolicy` handles let many sims share one policy
/// state: the second simulation must start from (and keep mutating)
/// the table the first one left behind, like consecutive client
/// sessions against one daemon.
#[test]
fn shared_policy_accumulates_across_sims() {
    let cfg = ClusterConfig::default();
    let (_, xclbins) = xar_trek::core::pipeline::build_all(&cfg).unwrap();
    let engine = Arc::new(sharded_engine(&paper_policy(), EngineConfig { shards: 8, batch: 1 }));
    let shared = ShardedPolicy::new(engine.clone());
    let mut per_sim = Vec::new();
    for _ in 0..2 {
        let mut sim = ClusterSim::new(cfg.clone(), shared.clone());
        for x in &xclbins {
            sim.preload_xclbin(x.clone());
        }
        sim.run(big_arrivals());
        per_sim.push(engine.metrics_total().decides);
    }
    assert!(per_sim[0] > 0, "first sim drove the shared policy");
    assert!(per_sim[1] > per_sim[0], "second sim accumulated onto the same instance: {per_sim:?}");
}
