//! The decide-path acceptance bench for the lock-free engine rework:
//!
//! * **uncontended decide p50/p99** — one thread against a 10k-app
//!   table, measured on both read paths: the worker-owned
//!   [`xar_sched::DecideHandle`] (generation-gated cached snapshot,
//!   zero RMWs steady-state) and the shared `ShardedEngine::decide`
//!   (reader lock + `Arc` refcount bump — the pre-rework behavior,
//!   kept as the compatibility path and measured as the baseline).
//! * **contended decides/sec at 1/4/8 threads on one hot shard** —
//!   every thread hammers apps living in the same shard while a
//!   flusher keeps publishing threshold updates (batch = 1 reports),
//!   so decides race in-place cell stores, not an idle table. The
//!   acceptance bar: ≥ 2× aggregate throughput at 8 threads over the
//!   locked baseline.
//! * **flush-publish cost at 10k apps, 1 row touched** — one `ingest`
//!   with batch = 1: queue, apply one Algorithm 1 update, publish the
//!   touched row in place (one store into its threshold cell; the
//!   10k-row index is neither cloned nor swapped).
//! * **tracing overhead** — decide p50 on the cached handle measured
//!   three ways: the plain `decide()` path (no `Tracer` parameter at
//!   all — the compile-time-disabled baseline), `decide_obs` with a
//!   runtime-disabled tracer (one branch on the hot path), and
//!   `decide_obs` with an enabled tracer emitting slow-decide events
//!   into its ring. Best-of-N rounds against scheduler noise; the
//!   `--quick` CI smoke asserts the disabled path stays within 5% of
//!   the baseline, and the enabled figure lands in the JSON so the
//!   within-10% acceptance bar is tracked PR over PR.
//! * **daemon decide RTT** — the same engine served end to end
//!   through the reactor daemon and a `V2Client`, so the numbers
//!   cover the path a real scheduler client pays.
//! * **batched decide pipeline** — the `DecideBatch` amortization
//!   sweep (batch = 1/16/64/256 queries per frame) plus the pipelined
//!   submit/drain path at depth 1/8, measured end to end against the
//!   daemon and recorded as amortized ns/decide and decides/sec. On a
//!   1-core box the frame/syscall amortization is fully measurable
//!   (unlike the cache-line contention rows), and the sweep asserts
//!   the batched decisions are bit-identical to the unbatched path.
//! * **scrape cost** — what a fleet aggregator (`xar-obsd`) costs the
//!   daemon: `StatsV2` and `HistDump` RTT p50s, and the decide p50
//!   with a periodic scraper attached vs detached. The `--quick`
//!   smoke asserts the attached scraper perturbs decide p50 by ≤ 5%.
//! * **durability cost** — report-ingest throughput and decide RTT
//!   p50 across the durability modes: fully in-memory, WAL with
//!   `fsync` off, interval(5ms), and always. Reports pay the journal
//!   (bounded by the fsync policy); decides never touch the WAL, and
//!   the `--quick` smoke asserts a WAL-armed (fsync-off) daemon's
//!   decide p50 stays within 5% of the in-memory daemon's.
//!
//! In full mode the results land in `BENCH_sched.json` at the
//! workspace root — machine-readable so the perf trajectory is
//! tracked PR over PR. `--quick` (the CI smoke run) and `--test`
//! (what `cargo test` passes) shrink every measurement and skip the
//! JSON write.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xar_core::server::{sharded_engine, spawn_sharded, EngineConfig, ServerConfig, V2Client};
use xar_core::thresholds::{ScenarioTimes, ThresholdEntry, ThresholdTable};
use xar_core::XarTrekPolicy;
use xar_desim::DecideCtx;
use xar_desim::Target;
use xar_sched::obs::{ring, EventCounters, Tracer};
use xar_sched::{shard_of, DurabilityConfig, FsyncPolicy, ReportOwned, ShardedEngine, WireQuery};

const APPS: usize = 10_000;
const SHARDS: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--test");
    let cfg = if quick {
        Config { samples: 2_000, window: Duration::from_millis(40), flush_iters: 2_000 }
    } else {
        Config { samples: 200_000, window: Duration::from_millis(500), flush_iters: 50_000 }
    };

    let policy = big_policy(APPS);
    let engine = Arc::new(sharded_engine(&policy, EngineConfig { shards: SHARDS, batch: 1 }));
    let hot = hot_shard_apps();

    // Uncontended single-thread latency, both paths.
    let (cached_p50, cached_p99) = uncontended(&engine, &hot, cfg.samples, true);
    let (locked_p50, locked_p99) = uncontended(&engine, &hot, cfg.samples, false);
    println!("{:<34} {:>10} {:>10}", "uncontended decide (10k apps)", "p50", "p99");
    println!("{:<34} {:>10} {:>10}", "cached handle", ns(cached_p50), ns(cached_p99));
    println!("{:<34} {:>10} {:>10}", "locked baseline", ns(locked_p50), ns(locked_p99));

    // Contended aggregate throughput on one hot shard, publishes live.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("\n{:<34} {:>12} {:>12} {:>7}", "hot-shard decides/sec", "cached", "locked", "ratio");
    if cores < 8 {
        println!(
            "  (machine has {cores} core(s): threads timeshare, so shared-cache-line \
             contention — the cached path's target — cannot manifest; the ≥2× \
             aggregate bar applies on multicore hardware)"
        );
    }
    let mut contended = Vec::new();
    for threads in [1usize, 4, 8] {
        let cached = contended_rate(&engine, &hot, threads, cfg.window, true);
        let locked = contended_rate(&engine, &hot, threads, cfg.window, false);
        println!(
            "{:<34} {:>12} {:>12} {:>6.2}x",
            format!("{threads} thread(s)"),
            cached,
            locked,
            cached as f64 / locked as f64
        );
        contended.push((threads, cached, locked));
    }

    // Tracing overhead: the same uncontended decide, three ways.
    let rounds = if quick { 5 } else { 3 };
    let (base_p50, off_p50, on_p50) = tracing_overhead(&engine, &hot, cfg.samples, rounds);
    println!("\n{:<34} {:>10}", "tracing overhead (decide p50)", "p50");
    println!("{:<34} {:>10}", "compile-time baseline", ns(base_p50));
    println!(
        "{:<34} {:>10}   ({:+.1}%)",
        "obs disabled",
        ns(off_p50),
        (off_p50 as f64 / base_p50 as f64 - 1.0) * 100.0
    );
    println!(
        "{:<34} {:>10}   ({:+.1}%)",
        "obs enabled",
        ns(on_p50),
        (on_p50 as f64 / base_p50 as f64 - 1.0) * 100.0
    );
    if quick {
        // CI smoke bar: a runtime-disabled tracer must cost < 5% over
        // the plain decide path. Best-of-N p50s are stable, but below
        // ~400ns a single timer quantum exceeds 5%, so allow a 20ns
        // absolute floor on top of the relative bar.
        let bar = off_p50 <= base_p50 + (base_p50 / 20).max(20);
        assert!(
            bar,
            "disabled-tracer decide p50 regressed >5%: baseline {base_p50}ns, disabled {off_p50}ns"
        );
        println!("  quick bar: disabled path within 5% of baseline — ok");
    }

    // Flush-publish: one touched row against the 10k-row table.
    let flush_ns = flush_cost(&policy, cfg.flush_iters);
    println!("\nflush-publish at {APPS} apps, 1 row touched, in place: {}", ns(flush_ns));

    // End-to-end through the daemon.
    let (rtt_p50, rtt_p99) = daemon_rtt(&policy, &hot, cfg.samples.min(20_000));
    println!("\ndaemon decide RTT: p50 {}  p99 {}", ns(rtt_p50), ns(rtt_p99));

    // Batched decide pipeline: per-frame and pipelined amortization of
    // that RTT, checked bit-identical to the unbatched path.
    let (batched, pipelined) = batched_decide_sweep(&policy, cfg.samples.min(40_000));
    println!("\n{:<34} {:>14} {:>14}", "batched decide (e2e daemon)", "ns/decide", "decides/sec");
    for (batch, ns_per, rate) in &batched {
        println!("{:<34} {:>14} {:>14}", format!("batch = {batch}"), ns(*ns_per), rate);
    }
    for (depth, ns_per, rate) in &pipelined {
        println!("{:<34} {:>14} {:>14}", format!("pipeline depth = {depth}"), ns(*ns_per), rate);
    }
    let b64 = batched.iter().find(|(b, _, _)| *b == 64).expect("batch=64 row");
    println!(
        "  amortization at batch=64: {:.1}x over the single-decide RTT p50",
        rtt_p50 as f64 / b64.1 as f64
    );

    // Scrape cost: the observability wire ops' RTT and the decide-p50
    // perturbation of an attached periodic scraper. Full mode runs the
    // aggregator's nominal 1 Hz cadence over a long enough decide
    // window to span several scrapes; --quick speeds the scraper up so
    // scrapes still land inside the short smoke window.
    let scrape_interval = if quick { Duration::from_millis(25) } else { Duration::from_secs(1) };
    let scrape = scrape_cost(&policy, &hot, cfg.samples, rounds, scrape_interval);
    println!(
        "\nscrape cost: stats_v2 RTT p50 {}   hist_dump RTT p50 {}",
        ns(scrape.stats_p50),
        ns(scrape.hist_p50)
    );
    println!(
        "decide p50: scraper detached {}   attached {}   ({:+.1}%)",
        ns(scrape.detached_p50),
        ns(scrape.attached_p50),
        (scrape.attached_p50 as f64 / scrape.detached_p50 as f64 - 1.0) * 100.0
    );
    if quick {
        // Same shape as the tracing bar: 5% relative with a small
        // absolute floor against timer-quantum noise.
        let bar = scrape.attached_p50 <= scrape.detached_p50 + (scrape.detached_p50 / 20).max(20);
        assert!(
            bar,
            "attached scraper perturbed decide p50 >5%: detached {}ns, attached {}ns",
            scrape.detached_p50, scrape.attached_p50
        );
        println!("  quick bar: attached scraper within 5% of detached — ok");
    }

    // Durability cost: report-ingest throughput under each WAL/fsync
    // mode, and decide RTT p50 per mode (the decide path never touches
    // the journal, so arming durability must not move it).
    let dur = durability_cost(&policy, &hot, cfg.samples, rounds);
    println!("\n{:<34} {:>14} {:>12}", "durability mode", "reports/sec", "decide p50");
    for row in &dur {
        println!("{:<34} {:>14} {:>12}", row.mode, row.ingest_per_sec, ns(row.decide_p50));
    }
    if quick {
        // CI smoke bar: the decide path is WAL-free, so a WAL-armed
        // daemon (fsync off — the journaling itself, no disk-flush
        // noise) must hold decide p50 within 5% of in-memory, with
        // the usual small absolute floor against timer quanta.
        let base = dur[0].decide_p50;
        let wal_off = dur[1].decide_p50;
        let bar = wal_off <= base + (base / 20).max(20);
        assert!(
            bar,
            "WAL-armed decide p50 regressed >5%: in-memory {base}ns, wal+fsync-off {wal_off}ns"
        );
        println!("  quick bar: WAL-armed decide p50 within 5% of in-memory — ok");
    }

    if !quick {
        let json = render_json(
            cores, cached_p50, cached_p99, locked_p50, locked_p99, &contended, flush_ns, rtt_p50,
            rtt_p99, &batched, &pipelined, base_p50, off_p50, on_p50, &scrape, &dur,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
        std::fs::write(path, json).expect("write BENCH_sched.json");
        println!("\nresults written to BENCH_sched.json");
    }
}

struct Config {
    samples: usize,
    window: Duration,
    flush_iters: usize,
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

/// Per-call latency distribution of one path; returns (p50, p99) ns.
fn uncontended(
    engine: &Arc<ShardedEngine<XarTrekPolicy>>,
    hot: &[String],
    samples: usize,
    cached: bool,
) -> (u64, u64) {
    let mut handle = engine.handle();
    let mut lat = Vec::with_capacity(samples);
    for i in 0..samples {
        let c = ctx(&hot[i % hot.len()], i % 80);
        let start = Instant::now();
        let d = if cached { handle.decide(&c) } else { engine.decide(&c) };
        lat.push(start.elapsed().as_nanos() as u64);
        std::hint::black_box(d);
    }
    percentiles(&mut lat)
}

/// Aggregate decides/sec with `threads` workers on the hot shard while
/// a flusher publishes a fresh snapshot every few hundred decides.
fn contended_rate(
    engine: &Arc<ShardedEngine<XarTrekPolicy>>,
    hot: &[String],
    threads: usize,
    window: Duration,
    cached: bool,
) -> u64 {
    let stop = Arc::new(AtomicBool::new(false));
    let flusher = {
        let (engine, stop) = (engine.clone(), stop.clone());
        let app = hot[0].clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // batch = 1: applies one Algorithm 1 update and
                // publishes a fresh snapshot immediately.
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
                    let c = ctx(&hot[i % hot.len()], i % 80);
                    let d = if cached { handle.decide(&c) } else { engine.decide(&c) };
                    std::hint::black_box(d);
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

/// Decide p50 on the cached handle, three instrumentation states:
/// `(compile_baseline, obs_disabled, obs_enabled)` ns.
///
/// * **compile-time baseline** — the plain [`DecideHandle::decide`],
///   whose body carries no tracer parameter at all.
/// * **obs disabled** — `decide_obs` with [`Tracer::disabled`]: the
///   hot path pays exactly one branch per emit site.
/// * **obs enabled** — `decide_obs` with an enabled tracer at
///   slow-threshold 0, so every latency-sampled decide publishes a
///   `slow_decide` event into the ring (the worst realistic cadence);
///   the ring is drained periodically the way the maintenance timer
///   does, so drop-on-full doesn't turn emits into no-ops.
///
/// Each state takes the best p50 of `rounds` independent runs, which
/// squeezes out scheduler noise far better than one long run.
fn tracing_overhead(
    engine: &Arc<ShardedEngine<XarTrekPolicy>>,
    hot: &[String],
    samples: usize,
    rounds: usize,
) -> (u64, u64, u64) {
    let run = |mode: u8| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..rounds {
            let mut handle = engine.handle();
            let (writer, mut reader) = ring(4096);
            let mut on = Tracer::new(writer, 0, true, 0, Arc::new(EventCounters::default()));
            let mut off = Tracer::disabled();
            let mut lat = Vec::with_capacity(samples);
            for i in 0..samples {
                let c = ctx(&hot[i % hot.len()], i % 80);
                let start = Instant::now();
                let d = match mode {
                    0 => handle.decide(&c),
                    1 => handle.decide_obs(&c, Some(&mut off)),
                    _ => handle.decide_obs(&c, Some(&mut on)),
                };
                lat.push(start.elapsed().as_nanos() as u64);
                std::hint::black_box(d);
                if mode == 2 && i % 1024 == 0 {
                    while reader.pop().is_some() {}
                }
            }
            best = best.min(percentiles(&mut lat).0);
        }
        best
    };
    (run(0), run(1), run(2))
}

/// Mean cost of the engine's flush-publish: one report at batch = 1
/// queues, applies Algorithm 1 to one row of a 10k-row shard and
/// publishes that row in place.
fn flush_cost(policy: &XarTrekPolicy, iters: usize) -> u64 {
    // One shard so the published index carries all 10k rows.
    let engine = sharded_engine(policy, EngineConfig { shards: 1, batch: 1 });
    let app = "app-000000";
    let start = Instant::now();
    for _ in 0..iters {
        engine.ingest(app, xar_desim::Target::Fpga, 1.0, 3);
    }
    start.elapsed().as_nanos() as u64 / iters as u64
}

/// Decide RTT against the daemon end to end; returns (p50, p99) ns.
fn daemon_rtt(policy: &XarTrekPolicy, hot: &[String], samples: usize) -> (u64, u64) {
    let daemon =
        spawn_sharded(policy, EngineConfig { shards: SHARDS, batch: 1 }, ServerConfig::default())
            .unwrap();
    let mut client = V2Client::connect(daemon.addr()).unwrap();
    for _ in 0..samples / 10 {
        client.decide(&hot[0], "k", 42, true).unwrap();
    }
    let mut lat = Vec::with_capacity(samples);
    for i in 0..samples {
        let start = Instant::now();
        client.decide(&hot[i % hot.len()], "k", 42, true).unwrap();
        lat.push(start.elapsed().as_nanos() as u64);
    }
    daemon.shutdown();
    percentiles(&mut lat)
}

/// One amortization row: `(size, amortized_ns_per_decide,
/// decides_per_sec)`, where size is the batch length or the pipeline
/// depth.
type SweepRow = (usize, u64, u64);

/// The `DecideBatch` / pipelined-decide amortization sweep against a
/// live daemon. Returns `(batch_rows, pipeline_rows)`.
///
/// Before timing, every configuration's first round is checked
/// bit-identical against the one-at-a-time `decide_with` path on the
/// same connection — the amortization must not change a single
/// decision.
fn batched_decide_sweep(policy: &XarTrekPolicy, samples: usize) -> (Vec<SweepRow>, Vec<SweepRow>) {
    let daemon =
        spawn_sharded(policy, EngineConfig { shards: SHARDS, batch: 1 }, ServerConfig::default())
            .unwrap();
    let mut client = V2Client::connect(daemon.addr()).unwrap();
    // Queries spread across the whole table (all shards), cycling
    // loads, so the batch path exercises real shard grouping.
    let apps: Vec<String> = (0..512).map(|i| format!("app-{:06}", (i * 37) % APPS)).collect();
    let query = |i: usize| WireQuery {
        app: &apps[i % apps.len()],
        kernel: "k",
        x86_load: (i % 80) as u32,
        arm_load: 0,
        kernel_resident: true,
        device_ready: true,
    };

    let mut batched = Vec::new();
    for batch in [1usize, 16, 64, 256] {
        let queries: Vec<WireQuery<'_>> = (0..batch).map(query).collect();
        // Bit-identity gate: the batched decisions must equal the
        // sequential ones, query for query.
        let got = client.decide_batch(&queries).unwrap();
        for (q, d) in queries.iter().zip(&got) {
            let want = client
                .decide_with(
                    q.app,
                    q.kernel,
                    q.x86_load,
                    q.arm_load,
                    q.kernel_resident,
                    q.device_ready,
                )
                .unwrap();
            assert_eq!(*d, want, "batch={batch}: batched decision diverged for {}", q.app);
        }
        let iters = (samples / batch).max(10);
        for _ in 0..iters / 10 {
            client.decide_batch(&queries).unwrap(); // warmup
        }
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(client.decide_batch(&queries).unwrap());
        }
        let total = start.elapsed().as_nanos() as u64;
        let decides = (iters * batch) as u64;
        let ns_per = total / decides;
        batched.push((batch, ns_per, (decides as f64 / (total as f64 / 1e9)) as u64));
    }

    let mut pipelined = Vec::new();
    for depth in [1usize, 8] {
        let mut out = Vec::with_capacity(depth);
        // Bit-identity gate for the pipelined path too.
        for i in 0..depth {
            let q = query(i);
            client.submit_decide(
                q.app,
                q.kernel,
                q.x86_load,
                q.arm_load,
                q.kernel_resident,
                q.device_ready,
            );
        }
        client.drain_decisions(&mut out).unwrap();
        for (i, d) in out.drain(..).enumerate() {
            let q = query(i);
            let want = client
                .decide_with(
                    q.app,
                    q.kernel,
                    q.x86_load,
                    q.arm_load,
                    q.kernel_resident,
                    q.device_ready,
                )
                .unwrap();
            assert_eq!(d, want, "depth={depth}: pipelined decision diverged for {}", q.app);
        }
        let rounds = (samples / depth).max(10);
        let start = Instant::now();
        for r in 0..rounds {
            for i in 0..depth {
                let q = query(r * depth + i);
                client.submit_decide(
                    q.app,
                    q.kernel,
                    q.x86_load,
                    q.arm_load,
                    q.kernel_resident,
                    q.device_ready,
                );
            }
            out.clear();
            assert_eq!(client.drain_decisions(&mut out).unwrap(), depth);
            std::hint::black_box(&out);
        }
        let total = start.elapsed().as_nanos() as u64;
        let decides = (rounds * depth) as u64;
        pipelined.push((depth, total / decides, (decides as f64 / (total as f64 / 1e9)) as u64));
    }
    daemon.shutdown();
    (batched, pipelined)
}

/// Results of the scrape-cost measurement.
struct ScrapeCost {
    /// `StatsV2` request→reply RTT p50.
    stats_p50: u64,
    /// `HistDump` request→reply RTT p50.
    hist_p50: u64,
    /// Decide RTT p50 with no scraper connected (best of N rounds).
    detached_p50: u64,
    /// Decide RTT p50 with a scraper thread hammering `StatsV2` +
    /// `HistDump` every `interval` (best of N rounds).
    attached_p50: u64,
}

/// One durability-mode measurement row.
struct DurRow {
    mode: &'static str,
    /// JSON key for the mode.
    key: &'static str,
    /// Report-ingest throughput (16-report frames, engine batch = 1).
    ingest_per_sec: u64,
    /// Decide RTT p50 on the same daemon, best of N rounds.
    decide_p50: u64,
}

/// Ingest throughput + decide RTT p50 per durability mode. Each mode
/// gets its own daemon (and, when durable, its own fresh WAL dir under
/// the system tmpdir, removed afterwards). Row order is fixed:
/// in-memory first, then WAL with fsync off / interval(5ms) / always —
/// the `--quick` bar indexes rows 0 and 1.
fn durability_cost(
    policy: &XarTrekPolicy,
    hot: &[String],
    samples: usize,
    rounds: usize,
) -> Vec<DurRow> {
    const BATCH: usize = 16;
    let modes: [(&str, &str, Option<FsyncPolicy>); 4] = [
        ("in-memory (durability off)", "off", None),
        ("wal, fsync off", "wal_fsync_off", Some(FsyncPolicy::Off)),
        ("wal, fsync interval 5ms", "wal_fsync_interval_5ms", Some(FsyncPolicy::IntervalMs(5))),
        ("wal, fsync always", "wal_fsync_always", Some(FsyncPolicy::Always)),
    ];
    let mut rows = Vec::new();
    for (mode, key, fsync) in modes {
        let dir = std::env::temp_dir().join(format!(
            "xar-bench-dur-{}-{}",
            std::process::id(),
            rows.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = fsync.map(|f| DurabilityConfig { fsync: f, ..DurabilityConfig::at(&dir) });
        let daemon = spawn_sharded(
            policy,
            EngineConfig { shards: SHARDS, batch: 1 },
            ServerConfig { durability, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = V2Client::connect(daemon.addr()).unwrap();

        let reports: Vec<ReportOwned> = (0..BATCH)
            .map(|i| ReportOwned {
                app: hot[i % hot.len()].as_str().into(),
                target: Target::Fpga,
                func_ms: 1e9,
                x86_load: 2,
            })
            .collect();
        let batches = (samples / BATCH).clamp(50, 4_000);
        for _ in 0..batches / 10 + 1 {
            client.report_batch(&reports).unwrap(); // warmup
        }
        let start = Instant::now();
        for _ in 0..batches {
            assert_eq!(client.report_batch(&reports).unwrap(), BATCH as u32);
        }
        let ingest_per_sec = ((batches * BATCH) as f64 / start.elapsed().as_secs_f64()) as u64;

        let decide_iters = samples.min(20_000);
        let decide_p50 = (0..rounds)
            .map(|_| {
                op_p50(&mut client, decide_iters, |c| {
                    c.decide(&hot[0], "k", 42, true).unwrap();
                })
            })
            .min()
            .unwrap();
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(DurRow { mode, key, ingest_per_sec, decide_p50 });
    }
    rows
}

/// p50 RTT of one request op measured back-to-back on `client`.
fn op_p50(client: &mut V2Client, iters: usize, mut op: impl FnMut(&mut V2Client)) -> u64 {
    for _ in 0..iters / 10 {
        op(client);
    }
    let mut lat = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        op(client);
        lat.push(start.elapsed().as_nanos() as u64);
    }
    percentiles(&mut lat).0
}

/// The cost a fleet aggregator imposes: scrape-op RTTs, then decide
/// p50 with the scraper detached and attached. Each decide figure is
/// the best of `rounds` rounds (scheduler-noise control, same as the
/// tracing measurement).
fn scrape_cost(
    policy: &XarTrekPolicy,
    hot: &[String],
    samples: usize,
    rounds: usize,
    interval: Duration,
) -> ScrapeCost {
    let daemon =
        spawn_sharded(policy, EngineConfig { shards: SHARDS, batch: 1 }, ServerConfig::default())
            .unwrap();
    let addr = daemon.addr();
    let mut client = V2Client::connect(addr).unwrap();
    let scrape_iters = (samples / 10).clamp(100, 20_000);
    let stats_p50 = op_p50(&mut client, scrape_iters, |c| {
        std::hint::black_box(c.stats_v2().unwrap());
    });
    let hist_p50 = op_p50(&mut client, scrape_iters, |c| {
        std::hint::black_box(c.hist_dump().unwrap());
    });

    let decide_samples = samples.min(20_000);
    let decide_round = |client: &mut V2Client| -> u64 {
        let mut lat = Vec::with_capacity(decide_samples);
        for i in 0..decide_samples {
            let start = Instant::now();
            client.decide(&hot[i % hot.len()], "k", 42, true).unwrap();
            lat.push(start.elapsed().as_nanos() as u64);
        }
        percentiles(&mut lat).0
    };
    for _ in 0..decide_samples / 10 {
        client.decide(&hot[0], "k", 42, true).unwrap(); // warmup
    }
    let detached_p50 = (0..rounds).map(|_| decide_round(&mut client)).min().unwrap();

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
    let attached_p50 = (0..rounds).map(|_| decide_round(&mut client)).min().unwrap();
    stop.store(true, Ordering::Relaxed);
    scraper.join().unwrap();
    daemon.shutdown();
    ScrapeCost { stats_p50, hist_p50, detached_p50, attached_p50 }
}

fn percentiles(lat: &mut [u64]) -> (u64, u64) {
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
    (pct(0.50), pct(0.99))
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

#[allow(clippy::too_many_arguments)]
fn render_json(
    cores: usize,
    cached_p50: u64,
    cached_p99: u64,
    locked_p50: u64,
    locked_p99: u64,
    contended: &[(usize, u64, u64)],
    flush_ns: u64,
    rtt_p50: u64,
    rtt_p99: u64,
    batched: &[SweepRow],
    pipelined: &[SweepRow],
    trace_base_p50: u64,
    trace_off_p50: u64,
    trace_on_p50: u64,
    scrape: &ScrapeCost,
    dur: &[DurRow],
) -> String {
    let dur_modes = dur
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"ingest_reports_per_sec\": {}, \"decide_rtt_p50_ns\": {}}}",
                r.key, r.ingest_per_sec, r.decide_p50
            )
        })
        .collect::<Vec<_>>()
        .join(",\n      ");
    let threads = |path: fn(&(usize, u64, u64)) -> u64| {
        contended
            .iter()
            .map(|row| format!("\"t{}\": {}", row.0, path(row)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let sweep = |rows: &[(usize, u64, u64)], key: &str| {
        rows.iter()
            .map(|(size, ns_per, rate)| {
                format!(
                    "\"{key}{size}\": {{\"ns_per_decide\": {ns_per}, \"decides_per_sec\": {rate}}}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let b64 = batched.iter().find(|(b, _, _)| *b == 64).expect("batch=64 row");
    format!(
        r#"{{
  "bench": "engine",
  "apps": {APPS},
  "shards": {SHARDS},
  "machine_cores": {cores},
  "note": "with machine_cores = 1 the thread rows timeshare one core, so shared-cache-line contention (the cached path's headroom) cannot manifest; compare the thread rows on multicore hardware",
  "uncontended_decide_ns": {{
    "cached": {{"p50": {cached_p50}, "p99": {cached_p99}}},
    "locked_baseline": {{"p50": {locked_p50}, "p99": {locked_p99}}}
  }},
  "hot_shard_decides_per_sec": {{
    "cached": {{{}}},
    "locked_baseline": {{{}}}
  }},
  "flush_publish_ns_10k_apps_1_row": {{
    "note": "one batch = 1 ingest: queue, Algorithm 1 on one row, one in-place cell store; the 10k-row index is not cloned or swapped",
    "in_place": {flush_ns}
  }},
  "tracing_overhead_decide_p50_ns": {{
    "note": "cached-handle decide p50, best-of-N rounds; obs_enabled must stay within 10% of the compile-time baseline, obs_disabled within 5% (the --quick CI bar)",
    "compile_time_baseline": {trace_base_p50},
    "obs_disabled": {trace_off_p50},
    "obs_enabled": {trace_on_p50},
    "disabled_over_baseline": {:.3},
    "enabled_over_baseline": {:.3}
  }},
  "daemon_decide_rtt_ns": {{"p50": {rtt_p50}, "p99": {rtt_p99}}},
  "batched_decide": {{
    "note": "end-to-end against the daemon; amortized ns/decide, decisions asserted bit-identical to the unbatched path",
    "single_rtt_p50_ns": {rtt_p50},
    "batch": {{{}}},
    "pipeline": {{{}}},
    "amortization_b64_vs_single_rtt": {:.1}
  }},
  "scrape_cost": {{
    "note": "what a fleet aggregator costs: StatsV2/HistDump RTT p50s, and decide p50 best-of-N with a 1 Hz scraper thread attached vs detached; the --quick bar asserts attached within 5% of detached",
    "stats_v2_rtt_p50_ns": {},
    "hist_dump_rtt_p50_ns": {},
    "decide_p50_ns_scraper_detached": {},
    "decide_p50_ns_scraper_attached_1hz": {},
    "attached_over_detached": {:.3}
  }},
  "durability": {{
    "note": "per-mode daemons: report-ingest throughput (16-report frames, engine batch = 1) pays the WAL + fsync policy; decide RTT p50 is WAL-free by construction and the --quick bar asserts the wal_fsync_off daemon stays within 5% of the in-memory one",
    "modes": {{
      {dur_modes}
    }},
    "wal_off_decide_over_in_memory": {:.3},
    "ingest_always_over_in_memory": {:.3}
  }}
}}
"#,
        threads(|r| r.1),
        threads(|r| r.2),
        trace_off_p50 as f64 / trace_base_p50 as f64,
        trace_on_p50 as f64 / trace_base_p50 as f64,
        sweep(batched, "b"),
        sweep(pipelined, "d"),
        rtt_p50 as f64 / b64.1 as f64,
        scrape.stats_p50,
        scrape.hist_p50,
        scrape.detached_p50,
        scrape.attached_p50,
        scrape.attached_p50 as f64 / scrape.detached_p50 as f64,
        dur[1].decide_p50 as f64 / dur[0].decide_p50 as f64,
        dur[0].ingest_per_sec as f64 / dur[3].ingest_per_sec.max(1) as f64,
    )
}
