//! Simulated results are pinned: the simulator may get faster, the
//! numbers the figures are drawn from may not move.
//!
//! Each case below runs one `ClusterSim` and digests (FNV-1a) every
//! field of every `JobRecord`, the simulation's `end_ns` and the FPGA's
//! `DeviceStats`, `f64`s by their bits. The constants were generated at
//! the commit *before* completion detection moved into `PsMachine`, the
//! processor-sharing state became dense vectors and the job table a
//! slab (print them again with `GOLDEN_PRINT=1 cargo test --test
//! sim_golden -- --nocapture`); a change that moves one has changed
//! what the simulator computes, not how fast.
//!
//! Coverage, chosen so every event kind and every branch of
//! `do_decision` runs: the gating benchmark's wave shape (20 waves x 50
//! apps over 100 background jobs) under the plain and the sharded
//! Xar-Trek policy on two seeds; mass ARM migration with the Ethernet
//! link shared and private; `AlwaysFpga` with per-kernel XCLBINs
//! registered but not preloaded (reconfiguration) and one kernel left
//! unregistered (the not-resident x86 fallback); a throughput-mode job (1000 calls,
//! per-call x86 work, a deadline) on a loaded host; and two `run`s on
//! one simulator, the second's arrivals joining a background bed the
//! first left running.

use std::sync::Arc;
use xar_trek::core::pipeline::build_all;
use xar_trek::core::server::sharded_engine;
use xar_trek::core::XarTrekPolicy;
// The `cluster::` path also resolves at the commit the digests were
// generated on, which did not re-export `SimResult` from the root.
use xar_trek::desim::cluster::SimResult;
use xar_trek::desim::{AlwaysArm, AlwaysFpga, Arrival, ClusterConfig, ClusterSim, JobSpec, Policy};
use xar_trek::hls::Xclbin;
use xar_trek::sched::{EngineConfig, ShardedPolicy};
use xar_trek::workloads::{all_profiles, profiles};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest(r: &SimResult) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325;
    fnv1a(&mut h, &r.end_ns.to_bits().to_le_bytes());
    fnv1a(&mut h, &(r.records.len() as u64).to_le_bytes());
    for rec in &r.records {
        fnv1a(&mut h, rec.name.as_bytes());
        fnv1a(&mut h, &rec.arrival_ns.to_bits().to_le_bytes());
        fnv1a(&mut h, &rec.end_ns.to_bits().to_le_bytes());
        for n in [rec.calls_completed, rec.x86_calls, rec.arm_calls, rec.fpga_calls] {
            fnv1a(&mut h, &n.to_le_bytes());
        }
    }
    let s = &r.fpga_stats;
    for n in [s.reconfigurations, s.invocations, s.h2d_bytes, s.d2h_bytes, s.busy_ns.to_bits()] {
        fnv1a(&mut h, &n.to_le_bytes());
    }
    h
}

/// A local splitmix64, so the arrival draws depend on nothing outside
/// this file.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn specs() -> Vec<JobSpec> {
    all_profiles().iter().map(|p| p.job()).collect()
}

fn xar_policy(cfg: &ClusterConfig) -> XarTrekPolicy {
    XarTrekPolicy::from_specs(&specs(), cfg)
}

fn sharded(cfg: &ClusterConfig) -> ShardedPolicy<XarTrekPolicy> {
    let engine = sharded_engine(&xar_policy(cfg), EngineConfig { shards: 8, batch: 1 });
    ShardedPolicy::new(Arc::new(engine))
}

/// The gating benchmark's `cluster-sim` shape: `waves` waves of
/// `per_wave` apps drawn from the five profiles, one wave every 30 s,
/// over a bed of long background jobs.
fn wave_arrivals(seed: u64, waves: usize, per_wave: usize, background: usize) -> Vec<Arrival> {
    let specs = specs();
    let mut rng = SplitMix64(seed);
    let mut out = Vec::new();
    for i in 0..background {
        out.push(Arrival { at_ns: 0.0, spec: JobSpec::background(format!("bg-{i}"), 2e5) });
    }
    for wave in 0..waves {
        for _ in 0..per_wave {
            let spec = specs[rng.below(specs.len())].clone();
            out.push(Arrival { at_ns: wave as f64 * 30e9, spec });
        }
    }
    out
}

/// Two waves of every profile, the second arriving while the first is
/// still migrating.
fn two_waves() -> Vec<Arrival> {
    let specs = specs();
    let mut out = Vec::new();
    for wave in 0..2 {
        for rep in 0..4 {
            for s in &specs {
                out.push(Arrival { at_ns: wave as f64 * 2e9 + rep as f64 * 1e6, spec: s.clone() });
            }
        }
    }
    out
}

fn run<P: Policy>(
    cfg: ClusterConfig,
    policy: P,
    xclbins: &[Xclbin],
    preload: bool,
    arrivals: Vec<Arrival>,
) -> SimResult {
    let mut sim = ClusterSim::new(cfg, policy);
    for x in xclbins {
        if preload {
            sim.preload_xclbin(x.clone());
        } else {
            sim.register_xclbin(x.clone());
        }
    }
    sim.run(arrivals)
}

fn cases() -> Vec<(&'static str, SimResult)> {
    let cfg = ClusterConfig::default();
    let (apps, xclbins) = build_all(&cfg).expect("pipeline builds");
    let mut out = Vec::new();

    for (seed, plain, shard) in [
        (1, "waves-xartrek-seed1", "waves-sharded-seed1"),
        (7, "waves-xartrek-seed7", "waves-sharded-seed7"),
    ] {
        let arrivals = wave_arrivals(seed, 20, 50, 100);
        out.push((plain, run(cfg.clone(), xar_policy(&cfg), &xclbins, true, arrivals.clone())));
        out.push((shard, run(cfg.clone(), sharded(&cfg), &xclbins, true, arrivals)));
    }

    let private = ClusterConfig { serialize_ethernet: false, ..cfg.clone() };
    out.push(("arm-shared-ethernet", run(cfg.clone(), AlwaysArm, &xclbins, true, two_waves())));
    out.push(("arm-private-ethernet", run(private, AlwaysArm, &xclbins, true, two_waves())));

    // One single-kernel XCLBIN per app, registered but not loaded, so
    // the device reconfigures whenever the kernel asked for changes; the
    // first app's is withheld, so its kernel is never resident and its
    // calls fall back to x86.
    let per_kernel: Vec<Xclbin> = apps[1..].iter().flat_map(|a| a.xclbins.clone()).collect();
    let fpga = run(cfg.clone(), AlwaysFpga, &per_kernel, false, two_waves());
    assert!(fpga.fpga_stats.reconfigurations > 1, "the reconfiguration path ran");
    assert!(fpga.records.iter().any(|r| r.x86_calls > 0), "the x86 fallback ran");
    assert!(fpga.records.iter().any(|r| r.fpga_calls > 0));
    out.push(("fpga-reconfigure-and-fallback", fpga));

    let mut arrivals = vec![Arrival {
        at_ns: 0.0,
        spec: profiles::facedet320().throughput_job(1000, 60_000.0, 1.0),
    }];
    for i in 0..30 {
        arrivals.push(Arrival { at_ns: 0.0, spec: JobSpec::background(format!("bg-{i}"), 1e7) });
    }
    let throughput = run(cfg.clone(), xar_policy(&cfg), &xclbins, true, arrivals);
    let calls = throughput.records[0].calls_completed;
    assert!(calls > 1 && calls < 1000, "the deadline, not the call count, ended the job: {calls}");
    out.push(("throughput-deadline", throughput));

    // Two `run`s on one simulator: the first wave's background bed is
    // still running when the first run ends, so the second batch of
    // arrivals lands beside it and is appended to the first's.
    let mut sim = ClusterSim::new(cfg.clone(), sharded(&cfg));
    for x in &xclbins {
        sim.preload_xclbin(x.clone());
    }
    let first = sim.run(wave_arrivals(3, 2, 20, 40));
    let mut second = wave_arrivals(5, 2, 20, 0);
    for a in &mut second {
        a.at_ns += first.end_ns + 1e6;
    }
    let second = sim.run(second);
    assert!(second.records.iter().all(|r| r.arrival_ns > first.end_ns));
    out.push(("two-runs-first", first));
    out.push(("two-runs-second", second));
    out
}

/// Generated at the parent commit; see the module docs. The two-run
/// pair was added later and generated before the simulator adopted its
/// first run's arrivals instead of copying them.
const GOLDEN: [(&str, u64); 10] = [
    ("waves-xartrek-seed1", 0xa83c0abbd8ee2a75),
    ("waves-sharded-seed1", 0xa83c0abbd8ee2a75),
    ("waves-xartrek-seed7", 0x72fcca3f5ca9ed0d),
    ("waves-sharded-seed7", 0x72fcca3f5ca9ed0d),
    ("arm-shared-ethernet", 0xfee9955568ce3111),
    ("arm-private-ethernet", 0xdf0eeeb78f0f77a1),
    ("fpga-reconfigure-and-fallback", 0x5feec600df08c173),
    ("throughput-deadline", 0xbd10be307609bfc2),
    ("two-runs-first", 0x9393a0f6e456afb3),
    ("two-runs-second", 0xa51a7f903396a261),
];

#[test]
fn every_simulation_matches_its_pinned_digest() {
    let got: Vec<_> = cases().iter().map(|(name, r)| (*name, digest(r))).collect();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for (name, d) in &got {
            println!("    ({name:?}, {d:#018x}),");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len(), "a case was added without a pin");
    for (g, want) in got.iter().zip(GOLDEN.iter()) {
        assert_eq!(g, want, "{} moved", g.0);
    }
}
