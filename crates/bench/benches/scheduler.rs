//! Benchmarks of the run-time scheduler: Algorithm 2 decision latency,
//! Algorithm 1 update latency, the TCP client/server round trip, and
//! full simulated experiments (one per evaluation regime).

use criterion::{criterion_group, criterion_main, Criterion};
use xar_core::XarTrekPolicy;
use xar_desim::workload::{batch_arrivals, wave_arrivals};
use xar_desim::{ClusterConfig, ClusterSim, CompletionReport, DecideCtx, Policy, Target};

fn policy() -> XarTrekPolicy {
    let specs: Vec<_> = xar_workloads::all_profiles().iter().map(|p| p.job()).collect();
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

fn bench_decision(c: &mut Criterion) {
    let mut p = policy();
    let ctx = DecideCtx {
        app: "Digit2000",
        kernel: "KNL_HW_DR200",
        x86_load: 42,
        arm_load: 3,
        kernel_resident: true,
        device_ready: true,
        now_ns: 0.0,
    };
    c.bench_function("algorithm2-decide", |b| b.iter(|| p.decide(std::hint::black_box(&ctx))));
    let report =
        CompletionReport { app: "Digit2000", target: Target::Fpga, func_ms: 1300.0, x86_load: 42 };
    c.bench_function("algorithm1-update", |b| {
        b.iter(|| p.on_complete(std::hint::black_box(&report)))
    });
}

fn bench_tcp_roundtrip(c: &mut Criterion) {
    let server = xar_core::server::SchedulerServer::spawn(policy()).unwrap();
    let mut client = xar_core::server::SchedulerClient::connect(server.addr()).unwrap();
    c.bench_function("scheduler-tcp-decide", |b| {
        b.iter(|| client.decide("Digit2000", "KNL_HW_DR200", 42, true).unwrap())
    });
    // Server shuts down on drop.
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let specs: Vec<_> = xar_workloads::all_profiles().iter().map(|p| p.job()).collect();
    let cfg = ClusterConfig::default();
    let (_, shared) = xar_core::pipeline::build_all(&cfg).unwrap();
    g.bench_function("25-apps-high-load", |b| {
        b.iter(|| {
            let mut arrivals = batch_arrivals(&specs);
            for i in 0..95 {
                arrivals.push(xar_desim::Arrival {
                    at_ns: 0.0,
                    spec: xar_desim::JobSpec::background(format!("bg{i}"), 1e7),
                });
            }
            let mut sim = ClusterSim::new(cfg.clone(), policy());
            for x in &shared {
                sim.preload_xclbin(x.clone());
            }
            sim.run(arrivals).mean_exec_ms()
        })
    });
    // Many live jobs: the gating benchmark's `cluster-sim` shape at a
    // fifth of its length. Most jobs wait on the FPGA queue or the ARM
    // server at any moment, which is what the small row above never
    // shows: the cost of an event must not depend on them.
    let mut many = wave_arrivals(&specs, 20, 50, 30.0);
    for i in 0..100 {
        many.push(xar_desim::Arrival {
            at_ns: 0.0,
            spec: xar_desim::JobSpec::background(format!("bg{i}"), 2e5),
        });
    }
    g.bench_function(format!("waves-{}-jobs", many.len()), |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(cfg.clone(), policy());
            for x in &shared {
                sim.preload_xclbin(x.clone());
            }
            sim.run(many.clone()).mean_exec_ms()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_decision, bench_tcp_roundtrip, bench_simulation);
criterion_main!(benches);
