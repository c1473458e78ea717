//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (§4). The `xar_experiments` binary (`src/bin/`) prints
//! their output.

use crate::policy::XarTrekPolicy;
use rand::prelude::*;
use rand::rngs::StdRng;
use xar_desim::workload::{batch_arrivals, wave_arrivals};
use xar_desim::{
    AlwaysArm, AlwaysFpga, AlwaysX86, Arrival, ClusterConfig, ClusterSim, JobSpec, Policy,
};
use xar_hls::Xclbin;
use xar_workloads::{all_profiles, mg_b_background};

/// A labelled series of (x, value) points — one bar group / line.
#[derive(Debug, Clone)]
pub struct Series {
    /// Policy or configuration label.
    pub label: String,
    /// `(x-label, value)` points.
    pub points: Vec<(String, f64)>,
}

/// A complete experiment result: title, unit, series.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Table/figure id (e.g. `"Figure 4"`).
    pub id: String,
    /// What is being measured.
    pub metric: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Experiment {
    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut s = format!("== {} — {} ==\n", self.id, self.metric);
        if self.series.is_empty() {
            return s;
        }
        let xs: Vec<&String> = self.series[0].points.iter().map(|(x, _)| x).collect();
        s.push_str(&format!("{:<22}", ""));
        for x in &xs {
            s.push_str(&format!("{x:>14}"));
        }
        s.push('\n');
        for ser in &self.series {
            s.push_str(&format!("{:<22}", ser.label));
            for (_, v) in &ser.points {
                s.push_str(&format!("{v:>14.1}"));
            }
            s.push('\n');
        }
        s
    }
}

fn shared_xclbins() -> Vec<Xclbin> {
    let cfg = ClusterConfig::default();
    let (_, shared) = crate::pipeline::build_all(&cfg).expect("pipeline");
    shared
}

fn profile_specs() -> Vec<JobSpec> {
    all_profiles().iter().map(|p| p.job()).collect()
}

fn xar_policy(cfg: &ClusterConfig) -> XarTrekPolicy {
    XarTrekPolicy::from_specs(&profile_specs(), cfg)
}

/// The default Xar-Trek policy for figure generation: the production
/// sharded engine behind the daemon's [`xar_sched::ShardedPolicy`]
/// adapter, so every regenerated table exercises the snapshot decide
/// path and batched report ingestion the daemon serves. With `batch =
/// 1` it is report-for-report identical to the plain policy, keeping
/// the figures deterministic. (The ablations keep the plain policy:
/// they flip its flags directly.)
fn xar_sharded(cfg: &ClusterConfig) -> xar_sched::ShardedPolicy<XarTrekPolicy> {
    let engine = crate::server::sharded_engine(
        &xar_policy(cfg),
        crate::server::EngineConfig { shards: 8, batch: 1 },
    );
    xar_sched::ShardedPolicy::new(std::sync::Arc::new(engine))
}

/// Runs one simulation with a fresh cluster: `preload` controls whether
/// kernels are resident at t=0 (step-F download) or must be configured
/// at run-time.
fn run_sim<P: Policy>(
    policy: P,
    arrivals: Vec<Arrival>,
    xclbins: &[Xclbin],
    preload: bool,
) -> xar_desim::cluster::SimResult {
    let mut sim = ClusterSim::new(ClusterConfig::default(), policy);
    for x in xclbins {
        if preload {
            sim.preload_xclbin(x.clone());
        } else {
            sim.register_xclbin(x.clone());
        }
    }
    sim.run(arrivals)
}

/// **Table 1** — per-benchmark execution times (ms) in isolation:
/// vanilla x86, Xar-Trek x86/FPGA, Xar-Trek x86/ARM. Each app's own
/// XCLBIN is pre-downloaded (step F precedes measurement).
pub fn table1() -> Experiment {
    let cfg = ClusterConfig::default();
    let (apps, _) = crate::pipeline::build_all(&cfg).expect("pipeline");
    let mut series = vec![
        Series { label: "vanilla-x86".into(), points: vec![] },
        Series { label: "xar-trek x86/FPGA".into(), points: vec![] },
        Series { label: "xar-trek x86/ARM".into(), points: vec![] },
    ];
    for a in &apps {
        let arrivals = batch_arrivals(std::slice::from_ref(&a.job));
        let x86 = run_sim(AlwaysX86, arrivals.clone(), &a.xclbins, true).mean_exec_ms();
        let fpga = run_sim(AlwaysFpga, arrivals.clone(), &a.xclbins, true).mean_exec_ms();
        let arm = run_sim(AlwaysArm, arrivals, &a.xclbins, true).mean_exec_ms();
        series[0].points.push((a.name.clone(), x86));
        series[1].points.push((a.name.clone(), fpga));
        series[2].points.push((a.name.clone(), arm));
    }
    Experiment { id: "Table 1".into(), metric: "execution time (ms)".into(), series }
}

/// **Table 2** — the threshold-estimation output.
pub fn table2() -> Experiment {
    let cfg = ClusterConfig::default();
    let mut fpga = Series { label: "FPGA_THR".into(), points: vec![] };
    let mut arm = Series { label: "ARM_THR".into(), points: vec![] };
    for p in all_profiles() {
        let e = crate::thresholds::estimate_thresholds(&p.job(), &cfg);
        fpga.points.push((p.name.into(), e.fpga_thr as f64));
        arm.points.push((p.name.into(), e.arm_thr as f64));
    }
    Experiment {
        id: "Table 2".into(),
        metric: "threshold (x86 processes)".into(),
        series: vec![fpga, arm],
    }
}

/// **Table 3** — the CPU-load class definition (printed for
/// completeness; it is a definition, not a measurement).
pub fn table3() -> String {
    let cfg = ClusterConfig::default();
    format!(
        "== Table 3 — CPU load definition ==\n\
         Low:    #processes < {x}\n\
         Medium: {x} < #processes < {t}\n\
         High:   #processes > {t}\n",
        x = cfg.x86_cores,
        t = cfg.x86_cores + cfg.arm_cores
    )
}

/// **Table 4** — BFS on x86 vs FPGA across graph sizes.
pub fn table4() -> Experiment {
    let mut x86 = Series { label: "x86".into(), points: vec![] };
    let mut fpga = Series { label: "FPGA".into(), points: vec![] };
    let xclbins = {
        let xo = xar_hls::compile_kernel(&xar_workloads::bfs::kernel("KNL_HW_BFS", 5_000, 25_000))
            .expect("bfs kernel");
        xar_hls::partition_ffd(&[xo], &xar_hls::Platform::alveo_u50(), "bfs").unwrap()
    };
    for nodes in [1_000u64, 2_000, 3_000, 4_000, 5_000] {
        let p = xar_workloads::bfs_profile(nodes);
        let arrivals = batch_arrivals(&[p.job()]);
        let tx = run_sim(AlwaysX86, arrivals.clone(), &xclbins, true).mean_exec_ms();
        let tf = run_sim(AlwaysFpga, arrivals, &xclbins, true).mean_exec_ms();
        x86.points.push((nodes.to_string(), tx));
        fpga.points.push((nodes.to_string(), tf));
    }
    Experiment {
        id: "Table 4".into(),
        metric: "BFS execution time (ms)".into(),
        series: vec![x86, fpga],
    }
}

fn random_apps(n: usize, rng: &mut StdRng) -> Vec<JobSpec> {
    let profiles = all_profiles();
    (0..n).map(|_| profiles[rng.gen_range(0..profiles.len())].job()).collect()
}

fn with_background(mut apps: Vec<JobSpec>, total_procs: usize) -> Vec<Arrival> {
    let n_bg = total_procs.saturating_sub(apps.len());
    for i in 0..n_bg {
        apps.push(JobSpec::background(format!("MG-B-{i}"), mg_b_background().pre_ms));
    }
    batch_arrivals(&apps)
}

/// Shared driver for Figures 3–5: randomized application sets at a
/// fixed background load, averaged over `runs` seeds.
pub fn fixed_load(
    id: &str,
    set_sizes: &[usize],
    total_procs: Option<usize>,
    runs: u64,
) -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    let labels: [&str; 4] = ["vanilla-x86", "vanilla-fpga", "vanilla-arm", "xar-trek"];
    let mut series: Vec<Series> =
        labels.iter().map(|l| Series { label: l.to_string(), points: vec![] }).collect();
    for &size in set_sizes {
        let mut sums = [0.0f64; 4];
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(run * 1000 + size as u64);
            let apps = random_apps(size, &mut rng);
            let total = total_procs.unwrap_or(size);
            let arrivals = with_background(apps, total);
            sums[0] += run_sim(AlwaysX86, arrivals.clone(), &xclbins, true).mean_exec_ms();
            sums[1] += run_sim(AlwaysFpga, arrivals.clone(), &xclbins, true).mean_exec_ms();
            sums[2] += run_sim(AlwaysArm, arrivals.clone(), &xclbins, true).mean_exec_ms();
            sums[3] += run_sim(xar_sharded(&cfg), arrivals, &xclbins, true).mean_exec_ms();
        }
        for (s, sum) in series.iter_mut().zip(sums) {
            s.points.push((size.to_string(), sum / runs as f64));
        }
    }
    Experiment { id: id.into(), metric: "avg execution time (ms)".into(), series }
}

/// **Figure 3** — low load: 1–5 applications, no background.
pub fn fig3(runs: u64) -> Experiment {
    fixed_load("Figure 3", &[1, 2, 3, 4, 5], None, runs)
}

/// **Figure 4** — medium load: sets of 5–25 apps, 60 total processes.
pub fn fig4(runs: u64) -> Experiment {
    fixed_load("Figure 4", &[5, 10, 15, 20, 25], Some(60), runs)
}

/// **Figure 5** — high load: sets of 5–25 apps, 120 total processes.
pub fn fig5(runs: u64) -> Experiment {
    fixed_load("Figure 5", &[5, 10, 15, 20, 25], Some(120), runs)
}

/// **Figure 6** — multi-image face-detection throughput (images/s) as
/// background load grows (0–100 processes). 1000 images, 60 s budget.
pub fn fig6() -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    let labels = ["vanilla-x86", "vanilla-fpga", "xar-trek"];
    let mut series: Vec<Series> =
        labels.iter().map(|l| Series { label: l.to_string(), points: vec![] }).collect();
    // Kernels are *not* preloaded here: the §4.2 result that Xar-Trek
    // beats always-FPGA comes from configuring at application start.
    for n_bg in [0usize, 25, 50, 75, 100] {
        let job = xar_workloads::profiles::facedet320().throughput_job(1000, 60_000.0, 1.0);
        let arrivals = with_background(vec![job], n_bg + 1);
        let tp = |r: xar_desim::cluster::SimResult| r.total_calls() as f64 / 60.0;
        series[0]
            .points
            .push((n_bg.to_string(), tp(run_sim(AlwaysX86, arrivals.clone(), &xclbins, false))));
        series[1]
            .points
            .push((n_bg.to_string(), tp(run_sim(AlwaysFpga, arrivals.clone(), &xclbins, false))));
        series[2]
            .points
            .push((n_bg.to_string(), tp(run_sim(xar_sharded(&cfg), arrivals, &xclbins, false))));
    }
    Experiment { id: "Figure 6".into(), metric: "throughput (images/s)".into(), series }
}

/// **Figure 7** — periodic workload: 30 waves of 20 applications, one
/// wave every 30 s (43-minute trace); average execution time. Each
/// wave also carries a surge of finite MG-B load generators so the x86
/// process count swings between ~20 (medium) and ~160 (high), the
/// paper's stated range.
pub fn fig7() -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    let specs = profile_specs();
    let mut arrivals = wave_arrivals(&specs, 30, 20, 30.0);
    for wave in 0..30 {
        // Alternating surge height: 20 → 160 → 20 process swings.
        let surge = if wave % 2 == 0 { 60 } else { 20 };
        for i in 0..surge {
            arrivals.push(Arrival {
                at_ns: wave as f64 * 30e9,
                spec: JobSpec::background(format!("MG-B-w{wave}-{i}"), 25_000.0),
            });
        }
    }
    let mut series = Vec::new();
    for (label, mean) in [
        ("vanilla-x86", run_sim(AlwaysX86, arrivals.clone(), &xclbins, true).mean_exec_ms()),
        ("vanilla-fpga", run_sim(AlwaysFpga, arrivals.clone(), &xclbins, true).mean_exec_ms()),
        ("xar-trek", run_sim(xar_sharded(&cfg), arrivals.clone(), &xclbins, true).mean_exec_ms()),
    ] {
        series.push(Series { label: label.into(), points: vec![("mean".into(), mean)] });
    }
    Experiment { id: "Figure 7".into(), metric: "avg execution time (ms)".into(), series }
}

/// **Figure 8** — face-detection throughput under a periodic background
/// load varying 10→120 processes (35-minute trace), 10 runs.
pub fn fig8() -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    // Triangular wave of finite background jobs: counts per 30 s step.
    let wave_counts = [10usize, 40, 80, 120, 80, 40, 10, 40, 80, 120, 80, 40, 10];
    let mut arrivals: Vec<Arrival> = Vec::new();
    for (step, &count) in wave_counts.iter().enumerate() {
        for i in 0..count {
            arrivals.push(Arrival {
                at_ns: step as f64 * 30e9,
                spec: JobSpec {
                    // 30 s of x86 work each: sustained load per step.
                    name: format!("bg-{step}-{i}"),
                    ..JobSpec::background("bg", 30_000.0)
                },
            });
        }
    }
    // Ten throughput runs spaced across the trace.
    for r in 0..10 {
        arrivals.push(Arrival {
            at_ns: r as f64 * 35e9,
            spec: xar_workloads::profiles::facedet320().throughput_job(1000, 60_000.0, 1.0),
        });
    }
    let tp = |r: xar_desim::cluster::SimResult| {
        let calls: u64 = r
            .records
            .iter()
            .filter(|x| x.name == "FaceDet320")
            .map(|x| x.calls_completed as u64)
            .sum();
        calls as f64 / (10.0 * 60.0)
    };
    let mut series = Vec::new();
    for (label, v) in [
        ("vanilla-x86", tp(run_sim(AlwaysX86, arrivals.clone(), &xclbins, true))),
        ("vanilla-fpga", tp(run_sim(AlwaysFpga, arrivals.clone(), &xclbins, true))),
        ("xar-trek", tp(run_sim(xar_sharded(&cfg), arrivals.clone(), &xclbins, true))),
    ] {
        series.push(Series { label: label.into(), points: vec![("mean".into(), v)] });
    }
    Experiment { id: "Figure 8".into(), metric: "throughput (images/s)".into(), series }
}

/// **Figure 9** — profitability: 10-application mixes of CG-A
/// (non-compute-intensive for the FPGA) and Digit2000
/// (compute-intensive) at 120 processes.
pub fn fig9() -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    let mut series = vec![
        Series { label: "vanilla-x86".into(), points: vec![] },
        Series { label: "xar-trek".into(), points: vec![] },
    ];
    for cg_count in [0usize, 2, 3, 5, 7, 8, 10] {
        let mut apps = Vec::new();
        for _ in 0..cg_count {
            apps.push(xar_workloads::profiles::cg_a().job());
        }
        for _ in cg_count..10 {
            apps.push(xar_workloads::profiles::digit2000().job());
        }
        let arrivals = with_background(apps, 120);
        let pct = format!("{}%", cg_count * 10);
        series[0].points.push((
            pct.clone(),
            run_sim(AlwaysX86, arrivals.clone(), &xclbins, true).mean_exec_ms(),
        ));
        series[1]
            .points
            .push((pct, run_sim(xar_sharded(&cfg), arrivals, &xclbins, true).mean_exec_ms()));
    }
    Experiment {
        id: "Figure 9".into(),
        metric: "avg execution time (ms), CG-A share on x-axis".into(),
        series,
    }
}

/// **Figure 10** — artifact sizes (KiB) per benchmark for the three
/// development processes: traditional x86+FPGA, Popcorn (x86+ARM), and
/// Xar-Trek (both). Xar-Trek subsumes both baselines, so it is always
/// the largest (§4.5).
pub fn fig10() -> Experiment {
    let cfg = ClusterConfig::default();
    let (apps, _) = crate::pipeline::build_all(&cfg).expect("pipeline");
    let kib = |b: usize| b as f64 / 1024.0;
    let mut trad = Series { label: "x86+FPGA".into(), points: vec![] };
    let mut popcorn = Series { label: "popcorn x86+ARM".into(), points: vec![] };
    let mut xar = Series { label: "xar-trek".into(), points: vec![] };
    for a in &apps {
        let xclbin_bytes: usize = a.xclbins.iter().map(|x| x.size_bytes as usize).sum();
        let t = kib(a.binary.single_isa_size(xar_isa::Isa::Xar86) + xclbin_bytes);
        let p = kib(a.binary.total_size() + a.binary.metadata_size());
        let x = kib(a.binary.total_size() + a.binary.metadata_size() + xclbin_bytes);
        trad.points.push((a.name.clone(), t));
        popcorn.points.push((a.name.clone(), p));
        xar.points.push((a.name.clone(), x));
    }
    Experiment {
        id: "Figure 10".into(),
        metric: "artifact size (KiB)".into(),
        series: vec![trad, popcorn, xar],
    }
}

/// Ablation: early FPGA configuration on/off (the §4.2 design point)
/// under the Figure 6 setting at 50 background processes.
pub fn ablation_early_config() -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    let job = xar_workloads::profiles::facedet320().throughput_job(1000, 60_000.0, 1.0);
    let arrivals = with_background(vec![job], 51);
    let mut series = Vec::new();
    for (label, early) in [("early-config", true), ("config-on-first-call", false)] {
        let mut p = xar_policy(&cfg);
        p.early_config = early;
        // Kernels must *not* be preloaded for this ablation to bite.
        let r = run_sim(p, arrivals.clone(), &xclbins, false);
        series.push(Series {
            label: label.into(),
            points: vec![("images/s".into(), r.total_calls() as f64 / 60.0)],
        });
    }
    Experiment {
        id: "Ablation A".into(),
        metric: "early FPGA configuration (throughput)".into(),
        series,
    }
}

/// Ablation: Algorithm 1 (dynamic threshold update) on/off under the
/// Figure 5 high-load setting.
pub fn ablation_dynamic_update(runs: u64) -> Experiment {
    let xclbins = shared_xclbins();
    let cfg = ClusterConfig::default();
    let mut series = Vec::new();
    for (label, dynamic) in [("dynamic-thresholds", true), ("static-thresholds", false)] {
        let mut sum = 0.0;
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(run + 7);
            let arrivals = with_background(random_apps(20, &mut rng), 120);
            let mut p = xar_policy(&cfg);
            p.dynamic_update = dynamic;
            sum += run_sim(p, arrivals, &xclbins, true).mean_exec_ms();
        }
        series.push(Series {
            label: label.into(),
            points: vec![("mean ms".into(), sum / runs as f64)],
        });
    }
    Experiment { id: "Ablation B".into(), metric: "Algorithm 1 on/off".into(), series }
}

/// Ablation: XCLBIN partitioning strategy — shared FFD bins vs one
/// kernel per XCLBIN — under a kernel-mix workload that forces
/// reconfigurations (kernels *not* preloaded). One-per-bin means every
/// kernel switch is a full reconfiguration; packing kernels together
/// amortizes them.
pub fn ablation_partitioning(runs: u64) -> Experiment {
    let cfg = ClusterConfig::default();
    let (apps, shared) = crate::pipeline::build_all(&cfg).expect("pipeline");
    let solo: Vec<Xclbin> = apps.iter().flat_map(|a| a.xclbins.clone()).collect();
    let mut series = Vec::new();
    for (label, bins) in [("ffd-shared", &shared), ("one-per-kernel", &solo)] {
        let mut sum = 0.0;
        let mut reconfigs = 0u64;
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(run + 99);
            let arrivals = with_background(random_apps(15, &mut rng), 60);
            let r = run_sim(xar_policy(&cfg), arrivals, bins, false);
            sum += r.mean_exec_ms();
            reconfigs += r.fpga_stats.reconfigurations;
        }
        series.push(Series {
            label: label.to_string(),
            points: vec![
                ("mean ms".into(), sum / runs as f64),
                ("reconfigs".into(), reconfigs as f64 / runs as f64),
            ],
        });
    }
    Experiment { id: "Ablation C".into(), metric: "XCLBIN partitioning strategy".into(), series }
}

/// Ablation: shared-Ethernet serialization on/off under an
/// ARM-migration-heavy workload (many concurrent CG-A jobs at high
/// load). Serialization is what makes mass software migration pay.
pub fn ablation_ethernet(runs: u64) -> Experiment {
    let base = ClusterConfig::default();
    let (_, shared) = crate::pipeline::build_all(&base).expect("pipeline");
    let mut series = Vec::new();
    for (label, serialize) in [("shared-link", true), ("private-links", false)] {
        let mut cfg = base.clone();
        cfg.serialize_ethernet = serialize;
        let mut sum = 0.0;
        for run in 0..runs {
            let _ = run;
            let apps: Vec<JobSpec> =
                (0..12).map(|_| xar_workloads::profiles::cg_a().job()).collect();
            let arrivals = with_background(apps, 120);
            let mut sim = ClusterSim::new(cfg.clone(), xar_policy(&cfg));
            for x in &shared {
                sim.preload_xclbin(x.clone());
            }
            sum += sim.run(arrivals).mean_exec_ms();
        }
        series.push(Series {
            label: label.into(),
            points: vec![("mean ms".into(), sum / runs as f64)],
        });
    }
    Experiment {
        id: "Ablation D".into(),
        metric: "Ethernet serialization (12 CG-A migrations)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(e: &Experiment, series: &str, x: &str) -> f64 {
        e.series
            .iter()
            .find(|s| s.label == series)
            .and_then(|s| s.points.iter().find(|(px, _)| px == x))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{}: missing {series}@{x}", e.id))
    }

    #[test]
    fn table1_matches_paper_within_five_percent() {
        let e = table1();
        let paper = [
            ("CG-A", 2182.0, 10597.0, 8406.0),
            ("FaceDet320", 175.0, 332.0, 642.0),
            ("FaceDet640", 885.0, 832.0, 2991.0),
            ("Digit500", 883.0, 470.0, 2281.0),
            ("Digit2000", 3521.0, 1229.0, 8963.0),
        ];
        for (name, x86, fpga, arm) in paper {
            assert!((val(&e, "vanilla-x86", name) - x86).abs() / x86 < 0.05, "{name} x86");
            assert!((val(&e, "xar-trek x86/FPGA", name) - fpga).abs() / fpga < 0.05, "{name} fpga");
            assert!((val(&e, "xar-trek x86/ARM", name) - arm).abs() / arm < 0.05, "{name} arm");
        }
    }

    #[test]
    fn fig5_xar_trek_beats_vanilla_x86_at_high_load() {
        let e = fig5(2);
        for x in ["5", "10", "15", "20", "25"] {
            let vx = val(&e, "vanilla-x86", x);
            let xt = val(&e, "xar-trek", x);
            assert!(xt < vx, "high load, set {x}: xar-trek {xt} must beat vanilla {vx}");
        }
    }

    #[test]
    fn fig6_shows_fpga_crossover() {
        let e = fig6();
        // Unloaded: x86 is competitive (FPGA threshold for FD320 > 0).
        let x0 = val(&e, "vanilla-x86", "0");
        let xt0 = val(&e, "xar-trek", "0");
        assert!(xt0 >= x0 * 0.8, "no-load: {xt0} vs {x0}");
        // At 50+ background processes Xar-Trek migrates and wins big
        // (paper: ≈4× average gain beyond 25 processes).
        for x in ["50", "75", "100"] {
            let vx = val(&e, "vanilla-x86", x);
            let xt = val(&e, "xar-trek", x);
            assert!(xt > 2.0 * vx, "bg {x}: expected >2x, got {xt} vs {vx}");
        }
    }

    #[test]
    fn fig9_gains_shrink_as_cg_share_grows() {
        let e = fig9();
        // All Digit2000: Xar-Trek wins clearly.
        let gain0 = val(&e, "vanilla-x86", "0%") / val(&e, "xar-trek", "0%");
        assert!(gain0 > 1.2, "0% CG gain {gain0}");
        // The paper's message: profitability erodes as the share of
        // non-compute-intensive applications grows. (Our ARM path does
        // not charge per-access DSM overheads during CG's execution, so
        // unlike the paper's last point Xar-Trek does not fall *below*
        // vanilla.)
        let gain100 = val(&e, "vanilla-x86", "100%") / val(&e, "xar-trek", "100%");
        assert!(gain100 < gain0, "gain must shrink: 0% → {gain0}, 100% → {gain100}");
    }

    #[test]
    fn fig10_xar_trek_is_largest() {
        let e = fig10();
        for p in all_profiles() {
            let t = val(&e, "x86+FPGA", p.name);
            let pc = val(&e, "popcorn x86+ARM", p.name);
            let x = val(&e, "xar-trek", p.name);
            assert!(x > t && x > pc, "{}: xar-trek must subsume both", p.name);
        }
    }

    #[test]
    fn render_produces_aligned_rows() {
        let e = table2();
        let text = e.render();
        assert!(text.contains("Table 2"));
        assert!(text.lines().count() >= 4);
    }
}
