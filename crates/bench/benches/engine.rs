//! Engine/daemon rows the gating benchmark (`xar_benchmark/`,
//! `BENCHMARK.json`) does not measure, printed to stdout. Everything it
//! does measure with an oracle — uncontended decide, flush-publish and
//! ingest cost, daemon decide RTT, the `DecideBatch` sweep, tracing
//! overhead, durable ingest throughput — lives there and only there.
//!
//! * **contended decides/sec at 1/4/8 threads on one hot shard** —
//!   every thread hammers apps living in the same shard through its own
//!   [`xar_sched::DecideHandle`] while a flusher keeps publishing
//!   threshold updates (batch = 1 reports), so decides race in-place
//!   cell stores, not an idle table.
//! * **scrape cost** — decide p50 with a periodic `StatsV2` + `HistDump`
//!   scraper (what `xar-obsd` is) attached vs detached. `--quick`
//!   asserts the attached scraper perturbs decide p50 by ≤ 5%.
//! * **WAL-armed decide** — decide RTT p50 on an in-memory daemon vs one
//!   journaling with `fsync` off. Decides never touch the WAL; `--quick`
//!   asserts the armed daemon stays within 5%.
//!
//! `--quick` (the CI smoke run) and `--test` (what `cargo test` passes)
//! shrink every measurement.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xar_core::server::{
    sharded_engine, spawn_sharded, EngineConfig, ServerConfig, ShardedSchedulerServer, V2Client,
};
use xar_core::thresholds::{ScenarioTimes, ThresholdEntry, ThresholdTable};
use xar_core::XarTrekPolicy;
use xar_desim::DecideCtx;
use xar_sched::{shard_of, DurabilityConfig, FsyncPolicy, ShardedEngine};

const APPS: usize = 10_000;
const SHARDS: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let (samples, window, rounds) = if quick {
        (2_000, Duration::from_millis(40), 5)
    } else {
        (20_000, Duration::from_millis(500), 3)
    };

    let policy = big_policy(APPS);
    let hot = hot_shard_apps();

    // Contended aggregate throughput on one hot shard, publishes live.
    let engine = Arc::new(sharded_engine(&policy, EngineConfig { shards: SHARDS, batch: 1 }));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("{:<34} {:>12}   ({cores} core(s))", "hot-shard decides/sec", "handles");
    for threads in [1usize, 4, 8] {
        let rate = contended_rate(&engine, &hot, threads, window);
        println!("{:<34} {:>12}", format!("{threads} thread(s)"), rate);
    }

    // Full mode runs the aggregator's nominal 1 Hz cadence; --quick
    // speeds the scraper up so scrapes still land inside the short
    // smoke window.
    let scrape_interval = if quick { Duration::from_millis(25) } else { Duration::from_secs(1) };
    let (detached, attached) = scrape_cost(&policy, &hot, samples, rounds, scrape_interval);
    println!("\ndecide p50: scraper detached {}   attached {}", ns(detached), ns(attached));
    if quick {
        assert_within_5pct("attached scraper", detached, attached);
    }

    let (in_memory, wal_off) = wal_armed_decide(&policy, &hot, samples, rounds);
    println!("\ndecide p50: in-memory {}   wal, fsync off {}", ns(in_memory), ns(wal_off));
    if quick {
        assert_within_5pct("WAL-armed daemon", in_memory, wal_off);
    }
}

/// The `--quick` bar: `got` within 5% of `base`, with a 20 ns absolute
/// floor — below ~400 ns a single timer quantum exceeds 5%.
fn assert_within_5pct(what: &str, base: u64, got: u64) {
    assert!(got <= base + (base / 20).max(20), "{what} moved decide p50 >5%: {base}ns -> {got}ns");
    println!("  quick bar: {what} within 5% — ok");
}

/// A 10k-row policy: synthetic apps with plausible thresholds and
/// reference times, sized like the table a large fleet would carry.
fn big_policy(apps: usize) -> XarTrekPolicy {
    let mut table = ThresholdTable::new();
    let mut ref_times = HashMap::new();
    for i in 0..apps {
        let name = format!("app-{i:06}");
        table.insert(ThresholdEntry {
            app: name.clone(),
            kernel: format!("KNL_{i:06}"),
            fpga_thr: (i % 50) as u32,
            arm_thr: (i % 70) as u32,
        });
        ref_times.insert(
            name.as_str().into(),
            ScenarioTimes { x86_ms: 100.0, fpga_ms: 20.0, arm_ms: 60.0 },
        );
    }
    XarTrekPolicy::new(table, ref_times)
}

/// App names all living in shard 0 — the hot shard every contended
/// thread hammers.
fn hot_shard_apps() -> Vec<String> {
    let mut hot = Vec::new();
    let mut i = 0usize;
    while hot.len() < 16 {
        let name = format!("app-{i:06}");
        if shard_of(&name, SHARDS) == 0 {
            hot.push(name);
        }
        i += 1;
    }
    hot
}

fn ctx<'a>(app: &'a str, load: usize) -> DecideCtx<'a> {
    DecideCtx {
        app,
        kernel: "k",
        x86_load: load,
        arm_load: 0,
        kernel_resident: true,
        device_ready: true,
        now_ns: 0.0,
    }
}

/// Aggregate decides/sec with `threads` workers, one handle each, on
/// the hot shard while a flusher publishes a threshold update every
/// 200 µs.
fn contended_rate(
    engine: &Arc<ShardedEngine<XarTrekPolicy>>,
    hot: &[String],
    threads: usize,
    window: Duration,
) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let flusher = {
        let (engine, stop) = (engine.clone(), stop.clone());
        let app = hot[0].clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // batch = 1: applies one Algorithm 1 update and
                // publishes the row immediately.
                engine.ingest(&app, xar_desim::Target::Fpga, 1.0, 3);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let (engine, stop) = (engine.clone(), stop.clone());
            let hot = hot.to_vec();
            std::thread::spawn(move || {
                let mut handle = engine.handle();
                let mut n = 0u64;
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(handle.decide(&ctx(&hot[i % hot.len()], i % 80)));
                    n += 1;
                    i += 1;
                }
                n
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    flusher.join().unwrap();
    (total as f64 / window.as_secs_f64()) as u64
}

fn spawn_daemon(
    policy: &XarTrekPolicy,
    durability: Option<DurabilityConfig>,
) -> ShardedSchedulerServer {
    spawn_sharded(
        policy,
        EngineConfig { shards: SHARDS, batch: 1 },
        ServerConfig { durability, ..ServerConfig::default() },
    )
    .unwrap()
}

/// Decide RTT p50 on `client`, best of `rounds` rounds (squeezes out
/// scheduler noise far better than one long run).
fn decide_p50(client: &mut V2Client, hot: &[String], samples: usize, rounds: usize) -> u64 {
    let mut round = || {
        let mut lat = Vec::with_capacity(samples);
        for i in 0..samples {
            let start = Instant::now();
            client.decide(&hot[i % hot.len()], "k", 42, true).unwrap();
            lat.push(start.elapsed().as_nanos() as u64);
        }
        lat.sort_unstable();
        lat[(lat.len() - 1) / 2]
    };
    round(); // warmup
    (0..rounds).map(|_| round()).min().unwrap()
}

/// What a fleet aggregator costs the decide path: decide p50 with the
/// scraper `(detached, attached)`.
fn scrape_cost(
    policy: &XarTrekPolicy,
    hot: &[String],
    samples: usize,
    rounds: usize,
    interval: Duration,
) -> (u64, u64) {
    let daemon = spawn_daemon(policy, None);
    let addr = daemon.addr();
    let mut client = V2Client::connect(addr).unwrap();
    let detached = decide_p50(&mut client, hot, samples, rounds);

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let mut sc = V2Client::connect(addr).unwrap();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                sc.stats_v2().unwrap();
                sc.hist_dump().unwrap();
                let deadline = Instant::now() + interval;
                while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
    };
    let attached = decide_p50(&mut client, hot, samples, rounds);
    stop.store(true, Ordering::Relaxed);
    scraper.join().unwrap();
    daemon.shutdown();
    (detached, attached)
}

/// Decide RTT p50 `(in_memory, wal_fsync_off)`: each on its own daemon,
/// the durable one over a fresh WAL dir under the system tmpdir.
fn wal_armed_decide(
    policy: &XarTrekPolicy,
    hot: &[String],
    samples: usize,
    rounds: usize,
) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!("xar-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let armed = DurabilityConfig { fsync: FsyncPolicy::Off, ..DurabilityConfig::at(&dir) };
    let [in_memory, wal_off] = [None, Some(armed)].map(|durability| {
        let daemon = spawn_daemon(policy, durability);
        let mut client = V2Client::connect(daemon.addr()).unwrap();
        let p50 = decide_p50(&mut client, hot, samples, rounds);
        daemon.shutdown();
        p50
    });
    let _ = std::fs::remove_dir_all(&dir);
    (in_memory, wal_off)
}

fn ns(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.2}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}
