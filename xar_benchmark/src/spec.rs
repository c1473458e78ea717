//! The benchmark's contract in one place: workload names and reasons,
//! every metric's name, unit, direction and (for end-to-end metrics)
//! regression bound. `BENCHMARK.json` at the repository root states the
//! same thing for the driver; `tests::matches_benchmark_json` keeps the
//! two from drifting.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer ones).
    pub bound: f64,
    /// Workloads that measure it; the others report 0 (the layer did
    /// no work there, or the probe belongs to another workload).
    pub home: &'static [&'static str],
}

pub const DECIDE_RTT: &str = "decide-rtt";
pub const DECIDE_BATCH: &str = "decide-batch";
pub const CALL_CYCLE: &str = "call-cycle-durable";
pub const CRASH_RECOVERY: &str = "crash-recovery";
pub const CLUSTER_SIM: &str = "cluster-sim";
pub const MIGRATE_EXEC: &str = "migrate-exec";

/// `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        DECIDE_RTT,
        "2 closed-loop V2Clients, one Decide per round trip over 10k rows: ~98% protocol, so a transport win shows here and an engine win does not",
    ),
    (
        DECIDE_BATCH,
        "same daemon, DecideBatch of 256 per frame: one wake-up per 256 decides puts engine::decide_batch and the wire codec on the blocking path",
    ),
    (
        CALL_CYCLE,
        "the paper's traffic: 16 decides then one exactly-once report batch per cycle, WAL armed (fsync off): writes beside reads, ingest lock shared by 2 clients",
    ),
    (
        CRASH_RECOVERY,
        "kill -> respawn on a fixed seeded WAL -> first answered hello_session: only snapshot-less replay through dur+engine, no steady-state traffic",
    ),
    (
        CLUSTER_SIM,
        "ClusterSim<ShardedPolicy> on the periodic wave pattern, no sockets: desim + core::policy + sched adapter only, so a transport change must not move it",
    ),
    (
        MIGRATE_EXEC,
        "FaceDet320 run on the VMs as x86, migrated to ARM, and FPGA: isa/popcorn/hls/core::handler only, bypassing every daemon layer",
    ),
];

const ALL: &[&str] =
    &[DECIDE_RTT, DECIDE_BATCH, CALL_CYCLE, CRASH_RECOVERY, CLUSTER_SIM, MIGRATE_EXEC];
const DAEMON: &[&str] = &[DECIDE_RTT, DECIDE_BATCH, CALL_CYCLE];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound, home: ALL }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    home: &'static [&'static str],
) -> Metric {
    Metric { name, unit, better, bound: 0.0, home }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all five; a
/// workload's *operation* is what its `why` names (a decide, a 256-query
/// frame, a 16-call cycle, a recovery, a simulation run, an iteration)
/// and `ops_per_s` counts its unit of work (decides, decides, calls,
/// WAL records, simulated jobs, guest instructions).
pub const END_TO_END: &[Metric] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_tail_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: &[Metric] = &[
    // wire
    layer("wire.decide_codec_ns", "ns", Lower, &[DECIDE_RTT]),
    layer("wire.batch256_codec_ns_per_query", "ns", Lower, &[DECIDE_BATCH]),
    layer("wire.report16_codec_ns_per_report", "ns", Lower, &[CALL_CYCLE]),
    layer("wire.v1_parse_ns", "ns", Lower, &[DECIDE_RTT]),
    // engine (+ snapshot, metrics)
    layer("engine.decide_ns", "ns", Lower, &[DECIDE_RTT, CALL_CYCLE]),
    layer("engine.decide_batch_ns_per_query", "ns", Lower, &[DECIDE_BATCH]),
    layer("engine.ingest_ns_per_report", "ns", Lower, &[CALL_CYCLE]),
    layer("engine.snap_refresh_ns", "ns", Lower, &[CALL_CYCLE]),
    layer("engine.flush_publish_p50_ns", "ns", Lower, &[CALL_CYCLE]),
    layer("engine.flush_publishes", "count", Lower, &[CALL_CYCLE]),
    layer("engine.flush_rows", "count", Lower, &[CALL_CYCLE]),
    // core
    layer("core.algorithm2_ns", "ns", Lower, &[CLUSTER_SIM]),
    layer("core.algorithm1_ns", "ns", Lower, &[CLUSTER_SIM]),
    layer("core.build_all_ms", "ms", Lower, &[CLUSTER_SIM]),
    layer("core.estimate_thresholds_us", "us", Lower, &[CLUSTER_SIM]),
    layer("core.build_app_ms", "ms", Lower, &[MIGRATE_EXEC]),
    // server + reactor
    layer("server.ping_rtt_p50_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.transport_residual_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.v1_decide_rtt_p50_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.poll_backend_rtt_p50_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.stats_v2_rtt_p50_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.decide_rtt_p999_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.batch_rtt_p99_us", "us", Lower, &[DECIDE_BATCH]),
    layer("server.cycle_p99_us", "us", Lower, &[CALL_CYCLE]),
    layer("server.open20k_p50_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.open20k_p99_us", "us", Lower, &[DECIDE_RTT]),
    layer("bench.open20k_gen_late_p99_us", "us", Lower, &[DECIDE_RTT]),
    layer("server.backpressure_pauses", "count", Lower, DAEMON),
    layer("server.protocol_errors", "count", Lower, DAEMON),
    layer("server.shed_busy", "count", Lower, DAEMON),
    layer("server.accepted_conns", "count", Lower, DAEMON),
    // client
    layer("client.encode_ns", "ns", Lower, DAEMON),
    layer("client.write_syscall_us", "us", Lower, DAEMON),
    layer("client.read_wait_us", "us", Lower, DAEMON),
    layer("client.decode_ns", "ns", Lower, DAEMON),
    layer("client.resilient_over_v2_ratio", "ratio", Lower, &[CALL_CYCLE]),
    // session
    layer("session.advance_ns", "ns", Lower, &[CALL_CYCLE]),
    layer("session.replayed_batches", "count", Lower, &[CALL_CYCLE]),
    layer("session.opened", "count", Lower, &[CALL_CYCLE, CRASH_RECOVERY]),
    // dur
    layer("dur.ingest_seq_batch_us_off", "us", Lower, &[CALL_CYCLE]),
    layer("dur.ingest_seq_batch_us_always", "us", Lower, &[CALL_CYCLE]),
    layer("dur.wal_bytes_per_report", "B", Lower, &[CALL_CYCLE]),
    layer("dur.wal_appends_per_batch", "count", Lower, &[CALL_CYCLE]),
    layer("dur.calls_per_s_fsync_interval5", "1/s", Higher, &[CALL_CYCLE]),
    layer("dur.calls_per_s_fsync_always", "1/s", Higher, &[CALL_CYCLE]),
    layer("dur.recovery_ms", "ms", Lower, &[CALL_CYCLE, CRASH_RECOVERY]),
    layer("dur.recovery_records_per_s", "1/s", Higher, &[CRASH_RECOVERY]),
    layer("dur.replayed_records", "count", Lower, &[CRASH_RECOVERY]),
    layer("dur.snapshot_ms", "ms", Lower, &[CRASH_RECOVERY]),
    layer("dur.restart_from_snapshot_ms", "ms", Lower, &[CRASH_RECOVERY]),
    // obs
    layer("obs.hist_record_ns", "ns", Lower, &[DECIDE_RTT]),
    layer("obs.trace_emit_ns", "ns", Lower, &[DECIDE_RTT]),
    layer("obs.trace_on_over_off_rtt", "ratio", Lower, &[DECIDE_RTT]),
    // desim + adapter
    layer("desim.host_us_per_job_null_policy", "us", Lower, &[CLUSTER_SIM]),
    layer("desim.host_us_per_job_sharded", "us", Lower, &[CLUSTER_SIM]),
    layer("adapter.policy_share", "ratio", Lower, &[CLUSTER_SIM]),
    layer("desim.sim_mean_exec_ms", "ms", Lower, &[CLUSTER_SIM]),
    layer("desim.sim_end_s", "s", Lower, &[CLUSTER_SIM]),
    layer("desim.total_calls", "count", Higher, &[CLUSTER_SIM]),
    // isa / popcorn / hls / workloads
    layer("isa.minstr_per_s_xar86", "M/s", Higher, &[MIGRATE_EXEC]),
    layer("isa.minstr_per_s_arm64e", "M/s", Higher, &[MIGRATE_EXEC]),
    layer("popcorn.compile_ms", "ms", Lower, &[MIGRATE_EXEC]),
    layer("popcorn.migrated_over_native_run", "ratio", Lower, &[MIGRATE_EXEC]),
    layer("popcorn.migrations", "count", Lower, &[MIGRATE_EXEC]),
    layer("hls.compile_kernel_us", "us", Lower, &[MIGRATE_EXEC]),
    layer("hls.partition_ffd_us", "us", Lower, &[MIGRATE_EXEC]),
    layer("workloads.facedet_golden_ms", "ms", Lower, &[MIGRATE_EXEC]),
    // the benchmark's own tracing
    layer("bench.trace_overhead_ops", "ratio", Lower, ALL),
    layer("bench.trace_overhead_p50", "ratio", Lower, ALL),
    layer("bench.spans", "spans", Higher, ALL),
];

pub fn workload_known(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must agree name for name.
    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
                        m.get("better").and_then(Json::as_str).unwrap_or("").to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let want = |ms: &[Metric], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        bounded.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), want(END_TO_END, true));
        assert_eq!(names("per_layer"), want(PER_LAYER, false));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap_or("").to_string(),
                    w.get("why").and_then(Json::as_str).unwrap_or("").to_string(),
                )
            })
            .collect();
        let want_w: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, want_w);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(PER_LAYER.len() <= 128);
    }
}
