//! Fleet telemetry end-to-end: the in-daemon series surface
//! (`SERIES`/`RATE` on the v1 port), `TRACE n` edge cases over a real
//! socket, a trace log that one-report batches do not flood, and the
//! `xar-obsd` aggregator — three live daemons scraped over the v2 wire,
//! the folded fleet histogram equal to the sum of per-daemon
//! `HistDump`s bucket-for-bucket, and the fold surviving a member's
//! death and restart without corruption.

mod common;

use common::{paper_policy, spawn, stat, text_query, wait_until};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;
use xar_trek::core::server::{spawn_sharded_at, EngineConfig, ServerConfig, V2Client};
use xar_trek::desim::Target;
use xar_trek::sched::obs::tags;
use xar_trek::sched::obsd::{Obsd, ObsdConfig};
use xar_trek::sched::wire::{hist_class, HistDump};
use xar_trek::sched::{ReportOwned, LATENCY_SAMPLE};

fn engine_config() -> EngineConfig {
    EngineConfig { shards: 4, batch: 4 }
}

/// The reference fold: scrape every daemon directly and sum the raw
/// bucket rows — what the aggregator's fold must equal exactly.
fn direct_fold(addrs: &[SocketAddr]) -> HistDump {
    let mut classes: Vec<(u16, Vec<u64>)> = Vec::new();
    for &a in addrs {
        let dump = V2Client::connect(a).unwrap().hist_dump().unwrap();
        for (class, buckets) in dump.classes {
            match classes.iter_mut().find(|(c, _)| *c == class) {
                Some((_, acc)) => {
                    for (x, y) in acc.iter_mut().zip(&buckets) {
                        *x += *y;
                    }
                }
                None => classes.push((class, buckets)),
            }
        }
    }
    classes.sort_by_key(|&(c, _)| c);
    HistDump { classes }
}

/// `SERIES <name> <secs>` and `RATE <name>` answer over the v1 text
/// port: windowed per-tick deltas and quantile series render as
/// `tick value` rows, rates as a single gauge line, and unknown names
/// get `ERR` — all after real traffic on a fast series tick.
#[test]
fn series_and_rate_answer_over_the_v1_port() {
    let daemon = spawn(
        engine_config(),
        ServerConfig {
            workers: 2,
            flush_interval: Duration::from_millis(5),
            series_tick: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    );
    let addr = daemon.addr();
    let mut cl = V2Client::connect(addr).unwrap();
    // Drive decides until the ring has enough samples that both the
    // delta series and the rate answer with real data.
    wait_until("SERIES decides rows to appear", || {
        for _ in 0..50 {
            cl.decide("Digit2000", "k", 2, true).unwrap();
        }
        let text = text_query(addr, "SERIES decides 60\n");
        let rows: Vec<&str> = text.lines().take_while(|&l| l != "END").collect();
        for row in &rows {
            let mut parts = row.split_whitespace();
            let _tick: u64 = parts.next().unwrap().parse().unwrap();
            let _delta: u64 = parts.next().unwrap().parse().unwrap();
            assert_eq!(parts.next(), None, "a series row is exactly `tick value`");
        }
        !rows.is_empty() && rows.iter().any(|r| !r.ends_with(" 0"))
    });
    wait_until("RATE decides to go positive", || {
        for _ in 0..50 {
            cl.decide("Digit2000", "k", 2, true).unwrap();
        }
        let text = text_query(addr, "RATE decides\n");
        let line = text.lines().next().unwrap();
        let value: f64 = line.strip_prefix("xar_rate_decides ").unwrap().parse().unwrap();
        assert!(text.ends_with("END\n"));
        value > 0.0
    });
    // Every latency class answers both quantile series with rows, not
    // ERR: the rings hold one histogram per CLASSES row.
    wait_until("every class's windowed quantile series to appear", || {
        hist_class::CLASSES.iter().all(|(_, class)| {
            ["p50", "p99"].iter().all(|q| {
                let text = text_query(addr, &format!("SERIES {class}_{q}_ns 60\n"));
                assert!(text.ends_with("END\n"), "{class}_{q}_ns: {text:?}");
                text.lines().take_while(|&l| l != "END").count() >= 1
            })
        })
    });
    // Unknown names and malformed windows answer ERR, not a hang.
    assert_eq!(text_query(addr, "SERIES bogus 60\n"), "ERR\n");
    assert_eq!(text_query(addr, "SERIES decides sixty\n"), "ERR\n");
    assert_eq!(text_query(addr, "RATE bogus\n"), "ERR\n");
    assert_eq!(text_query(addr, "RATE\n"), "ERR\n");
}

/// `TRACE n` edge cases over a real socket: `TRACE 0` returns just
/// `END`, an `n` too big for `usize` clamps to the ring instead of
/// erroring, and non-numeric arguments still get `ERR`.
#[test]
fn trace_edge_cases_over_a_real_socket() {
    let daemon = spawn(
        engine_config(),
        ServerConfig {
            workers: 2,
            flush_interval: Duration::from_millis(5),
            trace_log_capacity: 1 << 12,
            ..ServerConfig::default()
        },
    );
    let addr = daemon.addr();
    let mut cl = V2Client::connect(addr).unwrap();
    for _ in 0..8 {
        cl.decide("Digit2000", "k", 2, true).unwrap();
    }
    assert_eq!(text_query(addr, "TRACE 0\n"), "END\n", "n=0 is a valid empty query");
    // 2^64 overflows even u64: the grammar clamps all-digit counts
    // instead of rejecting them, so "give me everything" always works.
    let text = text_query(addr, "TRACE 18446744073709551616\n");
    assert!(text.ends_with("END\n"), "oversized n clamps, got {text:?}");
    assert_eq!(text_query(addr, "TRACE x\n"), "ERR\n");
    assert_eq!(text_query(addr, "TRACE -1\n"), "ERR\n");
}

/// At the default `batch = 1` every report is a flush. Only the flushes
/// elected for timing (1 in `LATENCY_SAMPLE`) push a `flush_publish`
/// event, so a default daemon fed one-report batches keeps its ring
/// from overflowing and its `TRACE` log from losing the connection's
/// `accept`, while `flush_publishes` and `flush_rows` still count every
/// flush.
#[test]
fn one_report_batches_do_not_flood_the_trace_log() {
    const BATCHES: u64 = 30_000;
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let addr = daemon.addr();
    let mut cl = V2Client::connect(addr).unwrap();
    let report =
        [ReportOwned { app: "Digit2000".into(), target: Target::Fpga, func_ms: 1.0, x86_load: 3 }];
    for _ in 0..BATCHES {
        assert_eq!(cl.report_batch(&report).unwrap(), 1);
    }
    assert_eq!(stat(&mut cl, tags::TRACE_DROPPED), 0, "no trace event was dropped");
    assert_eq!(stat(&mut cl, tags::FLUSH_PUBLISHES), BATCHES, "every flush is counted");
    assert_eq!(stat(&mut cl, tags::FLUSH_ROWS), BATCHES);
    // The client's worker drains its ring on its 100 ms maintenance tick.
    let elected = BATCHES.div_ceil(LATENCY_SAMPLE);
    let mut lines = Vec::new();
    let mut publishes = 0;
    wait_until("the elected flushes to reach the trace log", || {
        let text = text_query(addr, "TRACE 4096\n");
        lines = text.lines().take_while(|&l| l != "END").map(str::to_owned).collect();
        publishes = lines.iter().filter(|l| l.contains(" flush_publish ")).count() as u64;
        publishes >= elected
    });
    // `<seq> daemon=<id> worker=<w> <event>`: the client's accept came
    // first on the worker that applied its reports.
    let fields = |l: &str| -> (u64, String) {
        let mut parts = l.split_whitespace();
        (parts.next().unwrap().parse().unwrap(), parts.nth(1).unwrap().to_string())
    };
    let flush = lines.iter().find(|l| l.contains(" flush_publish ")).unwrap();
    let (first_flush, worker) = fields(flush);
    assert!(
        lines.iter().any(|l| {
            let (seq, w) = fields(l);
            l.contains(" accept ") && w == worker && seq < first_flush
        }),
        "the client's accept was pushed out of the trace log: {:?}",
        &lines[..lines.len().min(4)]
    );
    assert_eq!(publishes, elected, "one event per elected flush");
    daemon.shutdown();
}

/// The tentpole end-to-end: obsd scrapes three live daemons, its fold
/// equals the sum of per-daemon `HistDump`s bucket-for-bucket, the
/// `DUMP`/`HEALTH` text port serves the fleet, and killing + restarting
/// one member flips its `up` gauge and never corrupts the fold.
#[test]
fn obsd_folds_three_daemons_exactly_and_survives_member_restart() {
    let pol = paper_policy();
    let server_config = |daemon_id: u16| ServerConfig {
        workers: 2,
        daemon_id,
        flush_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let d1 = spawn(engine_config(), server_config(1));
    let d2 = spawn(engine_config(), server_config(2));
    // The third daemon lives on a fixed port so it can come back at
    // the address the aggregator keeps scraping.
    let fixed = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let mut d3 = Some(spawn_sharded_at(&pol, engine_config(), server_config(3), fixed).unwrap());
    let addrs = [d1.addr(), d2.addr(), fixed];
    // Distinct per-daemon traffic so the fold visibly sums unequal
    // distributions; stop before comparing so the histograms quiesce.
    for (i, &a) in addrs.iter().enumerate() {
        let mut cl = V2Client::connect(a).unwrap();
        // Enough decides that 1-in-LATENCY_SAMPLE histogram sampling
        // still lands several per daemon.
        for _ in 0..200 * (i + 1) {
            cl.decide("Digit2000", "k", 2, true).unwrap();
        }
        cl.report("Digit2000", Target::Fpga, 5.0, 2).unwrap();
    }
    let obsd = Obsd::spawn(ObsdConfig {
        targets: addrs.to_vec(),
        scrape_interval: Duration::from_millis(40),
        backoff: Duration::from_millis(40),
        backoff_max: Duration::from_millis(200),
        ..ObsdConfig::default()
    })
    .unwrap();

    // Phase 1: all three up, fold bucket-exact against direct scrapes.
    let expected = direct_fold(&addrs);
    assert!(
        expected.get(hist_class::DECIDE).unwrap().iter().sum::<u64>() >= 3,
        "the three daemons sampled decide latencies into their histograms"
    );
    wait_until("all members up with the exact 3-daemon fold", || {
        let snap = obsd.snapshot();
        snap.members.iter().all(|m| m.up) && snap.fold == expected
    });
    let snap = obsd.snapshot();
    let member_sum = {
        let mut decide = vec![0u64; expected.get(hist_class::DECIDE).unwrap().len()];
        for m in &snap.members {
            let d = m.hist.as_ref().unwrap();
            for (x, y) in decide.iter_mut().zip(d.get(hist_class::DECIDE).unwrap()) {
                *x += *y;
            }
        }
        decide
    };
    assert_eq!(
        snap.fold.get(hist_class::DECIDE).unwrap(),
        &member_sum[..],
        "fold is the bucket-for-bucket sum of the member dumps it serves"
    );
    assert!(
        snap.counters.iter().any(|&(t, v)| t == xar_trek::sched::obs::tags::DECIDES && v >= 1200),
        "fleet counter fold sums per-daemon decides: {:?}",
        snap.counters
    );
    let dump = text_query(obsd.addr(), "DUMP\n");
    for needle in [
        "# TYPE xar_fleet_members gauge",
        "xar_fleet_members 3",
        "xar_fleet_members_up 3",
        "xar_fleet_member_up{addr=",
        "# TYPE xar_fleet_decides counter",
        "# TYPE xar_fleet_decide_latency_ns histogram",
        "xar_fleet_decide_latency_ns_count",
    ] {
        assert!(dump.contains(needle), "fleet DUMP missing {needle:?}:\n{dump}");
    }
    assert!(dump.ends_with("END\n"));
    assert_eq!(text_query(obsd.addr(), "HEALTH\n"), "HEALTH ok\nEND\n");
    assert_eq!(text_query(obsd.addr(), "NONSENSE\n"), "ERR\n");

    // Phase 2: kill the fixed-port member. Its gauge flips down, the
    // verdict names it, and the fold drops to the surviving two — the
    // dead member's buckets vanish rather than corrupting the sum.
    d3.take().unwrap().shutdown();
    wait_until("member 3 to flip down", || !obsd.snapshot().members[2].up);
    wait_until("HEALTH to name the down member", || {
        let h = obsd.health();
        h.degraded && h.reasons.iter().any(|r| r.contains(&fixed.to_string()) && r.contains("down"))
    });
    let survivors = direct_fold(&addrs[..2]);
    wait_until("fold to shrink to the two survivors", || obsd.snapshot().fold == survivors);
    let health_text = text_query(obsd.addr(), "HEALTH\n");
    assert!(health_text.starts_with("HEALTH degraded\n"), "{health_text}");
    assert!(health_text.contains("reason member"), "{health_text}");

    // Phase 3: restart at the same address with fresh (reset) state.
    // The scraper's backoff reconnect finds it, the gauge flips back
    // up, and the fold is exact again — restart never corrupts it.
    let d3b = spawn_sharded_at(&pol, engine_config(), server_config(3), fixed).unwrap();
    {
        let mut cl = V2Client::connect(fixed).unwrap();
        for _ in 0..7 {
            cl.decide("Digit2000", "k", 2, true).unwrap();
        }
    }
    let expected_after = direct_fold(&addrs);
    wait_until("restarted member up with an exact fold again", || {
        let snap = obsd.snapshot();
        snap.members.iter().all(|m| m.up) && snap.fold == expected_after
    });
    assert!(!obsd.health().degraded, "{:?}", obsd.health().reasons);
    drop(d3b);
}

/// `HEALTH` flips degraded when a member's *windowed* decide p99
/// crosses the configured SLO — and an aggregator with the check
/// disabled stays ok on the identical traffic.
#[test]
fn health_flips_degraded_on_decide_p99_slo_breach() {
    let daemon = spawn(
        engine_config(),
        ServerConfig { workers: 2, flush_interval: Duration::from_millis(5), ..Default::default() },
    );
    let addr = daemon.addr();
    let member_config = || ObsdConfig {
        targets: vec![addr],
        scrape_interval: Duration::from_millis(30),
        backoff: Duration::from_millis(30),
        ..ObsdConfig::default()
    };
    // 1ns SLO: every real decide breaches it.
    let strict = Obsd::spawn(ObsdConfig { slo_decide_p99_ns: 1, ..member_config() }).unwrap();
    let lax = Obsd::spawn(member_config()).unwrap();
    let mut cl = V2Client::connect(addr).unwrap();
    wait_until("strict aggregator to flag the SLO breach", || {
        for _ in 0..20 {
            cl.decide("Digit2000", "k", 2, true).unwrap();
        }
        let h = strict.health();
        h.degraded && h.reasons.iter().any(|r| r.contains("decide p99") && r.contains("over SLO"))
    });
    let text = text_query(strict.addr(), "HEALTH\n");
    assert!(text.starts_with("HEALTH degraded\n"), "{text}");
    // The lax aggregator watched the same daemon the whole time.
    wait_until("lax aggregator to have scraped twice", || {
        let snap = lax.snapshot();
        snap.members[0].up && snap.members[0].scrapes_ok >= 2
    });
    assert!(!lax.health().degraded, "{:?}", lax.health().reasons);
}
