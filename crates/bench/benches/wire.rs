//! Throughput benchmark pitting the two scheduler wire protocols
//! against each other over real localhost TCP:
//!
//! * **decide round trip** — the hot path every instrumented call
//!   takes: v1 text line against the one-shard `SchedulerServer` vs
//!   v2 binary frame against the sharded daemon (one server, two
//!   protocols and configurations);
//! * **report ingestion** — Algorithm 1 telemetry: v1's one-RTT-per-
//!   REPORT vs v2's BatchReport frame carrying 256 reports at once;
//! * **framing only** — encode+decode cost of one decide
//!   request/response pair in both framings, no sockets.

use criterion::{criterion_group, criterion_main, Criterion};
use xar_core::server::{
    sharded_engine, spawn_sharded, EngineConfig, SchedulerClient, SchedulerServer, ServerConfig,
    V2Client,
};
use xar_core::XarTrekPolicy;
use xar_desim::{ClusterConfig, Target};
use xar_sched::wire;
use xar_sched::ReportOwned;

fn policy() -> XarTrekPolicy {
    let specs: Vec<_> = xar_workloads::all_profiles().iter().map(|p| p.job()).collect();
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

fn bench_decide_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("decide-roundtrip");
    {
        let v1 = SchedulerServer::spawn(policy()).unwrap();
        let mut client = SchedulerClient::connect(v1.addr()).unwrap();
        g.bench_function("v1-text", |b| {
            b.iter(|| client.decide("Digit2000", "KNL_HW_DR200", 42, true).unwrap())
        });
    }
    {
        let v2 = spawn_sharded(
            &policy(),
            EngineConfig::default(),
            ServerConfig { workers: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = V2Client::connect(v2.addr()).unwrap();
        g.bench_function("v2-binary", |b| {
            b.iter(|| client.decide("Digit2000", "KNL_HW_DR200", 42, true).unwrap())
        });
    }
    g.finish();
}

fn bench_report_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("report-ingest-256");
    {
        let v1 = SchedulerServer::spawn(policy()).unwrap();
        let mut client = SchedulerClient::connect(v1.addr()).unwrap();
        g.bench_function("v1-sequential", |b| {
            b.iter(|| {
                for _ in 0..256 {
                    client.report("Digit2000", Target::Fpga, 1300.0, 42).unwrap();
                }
            })
        });
    }
    {
        let v2 = spawn_sharded(
            &policy(),
            EngineConfig { shards: 8, batch: 64 },
            ServerConfig { workers: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = V2Client::connect(v2.addr()).unwrap();
        let reports: Vec<ReportOwned> = (0..256)
            .map(|_| ReportOwned {
                app: "Digit2000".into(),
                target: Target::Fpga,
                func_ms: 1300.0,
                x86_load: 42,
            })
            .collect();
        g.bench_function("v2-batch-frame", |b| {
            b.iter(|| assert_eq!(client.report_batch(&reports).unwrap(), 256))
        });
    }
    g.finish();
}

fn bench_framing_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("framing");
    g.bench_function("v1-text-encode-parse", |b| {
        b.iter(|| {
            let req = format!("DECIDE {} {} {} {}\n", "Digit2000", "KNL_HW_DR200", 42, 1);
            let parts: Vec<&str> = req.split_whitespace().collect();
            let ["DECIDE", app, _kernel, load, resident] = parts.as_slice() else { unreachable!() };
            let reply = format!("TARGET {} {}\n", "fpga", 0);
            (
                app.len(),
                load.parse::<usize>().unwrap(),
                resident.parse::<u8>().unwrap(),
                reply.len(),
            )
        })
    });
    g.bench_function("v2-binary-encode-decode", |b| {
        let mut buf = Vec::with_capacity(128);
        b.iter(|| {
            buf.clear();
            wire::encode_request(
                &wire::Request::Decide {
                    app: "Digit2000",
                    kernel: "KNL_HW_DR200",
                    x86_load: 42,
                    arm_load: 0,
                    kernel_resident: true,
                    device_ready: true,
                },
                &mut buf,
            );
            let (_, range) = wire::frame_in(&buf).unwrap().unwrap();
            let decide_ok = matches!(
                wire::decode_request(&buf[range]).unwrap(),
                wire::Request::Decide { x86_load: 42, .. }
            );
            let at = buf.len();
            wire::encode_response(
                &wire::Response::Decide { target: Target::Fpga, reconfigure: false },
                &mut buf,
            );
            let fpga = matches!(
                wire::decode_response(&buf[at + 4..]).unwrap(),
                wire::Response::Decide { target: Target::Fpga, reconfigure: false }
            );
            (decide_ok, fpga)
        })
    });
    g.finish();
}

/// Prints the decide-path engine metrics after a burst, as a smoke
/// check that telemetry is wired through the daemon.
fn bench_engine_decide(c: &mut Criterion) {
    let engine = std::sync::Arc::new(sharded_engine(&policy(), EngineConfig::default()));
    let mut handle = engine.handle();
    let ctx = xar_desim::DecideCtx {
        app: "Digit2000",
        kernel: "KNL_HW_DR200",
        x86_load: 42,
        arm_load: 3,
        kernel_resident: true,
        device_ready: true,
        now_ns: 0.0,
    };
    c.bench_function("engine-decide-lock-free", |b| {
        b.iter(|| handle.decide(std::hint::black_box(&ctx)))
    });
    println!("engine telemetry: {}", engine.metrics_total());
}

criterion_group!(
    benches,
    bench_decide_roundtrip,
    bench_report_ingest,
    bench_framing_only,
    bench_engine_decide
);
criterion_main!(benches);
