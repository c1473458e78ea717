//! Reactor-backed connection layer vs the old polled worker pool:
//!
//! * **decide round-trip p50/p99, per transport** — the same daemon
//!   and the same frames over its two listeners: `local` is what a
//!   [`V2Client`] given a loopback address gets (the abstract Unix
//!   socket), `tcp` is a raw `TcpStream` speaking the public `wire`
//!   functions (what a remote caller, a proxied one or the gating
//!   benchmark's staged client pays). Their ratio is the share of a
//!   same-host decide that was the kernel's TCP stack — the A/B behind
//!   the `decide-rtt` workload, reproducible outside it. Left to the
//!   host scheduler every hop is a cross-vCPU wake-up (~35 µs) that
//!   buries the difference; run under `taskset -c 0` for the placement
//!   the gating benchmark pins (client beside its worker). The
//!   portable `poll(2)` backend is measured too.
//! * **idle-CPU proxy** — process CPU time burned across an idle
//!   window with 32 connected-but-silent clients. The polled worker
//!   pool charged a sleep-quantum wakeup per worker per 500 µs, or
//!   `workers` full cores when it busy-yielded instead. The reactor
//!   blocks in the kernel: the burn should be ~0 regardless of worker
//!   count — measured twice, once with the maintenance layer disabled
//!   and once fully armed (recurring per-worker flush timers, a
//!   per-connection idle deadline for each of the 32 clients, and an
//!   admission cap), to show the timer-driven maintenance keeps the
//!   idle cost at ~0 too.
//!
//! Custom harness (`harness = false`): percentiles need raw samples,
//! which the criterion shim's mean-only report cannot provide. With
//! `--test` (what `cargo test` passes) everything runs once, tiny.

use std::io::{Read, Write};
use std::time::{Duration, Instant};
use xar_core::server::{spawn_sharded, BackendKind, EngineConfig, ServerConfig, V2Client};
use xar_core::XarTrekPolicy;
use xar_desim::ClusterConfig;
use xar_sched::wire;

fn policy() -> XarTrekPolicy {
    let specs: Vec<_> = xar_workloads::all_profiles().iter().map(|p| p.job()).collect();
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (iters, idle) = if test_mode {
        (200usize, Duration::from_millis(100))
    } else {
        (20_000usize, Duration::from_secs(2))
    };
    println!("{:<28} {:>10} {:>10} {:>10}", "decide RTT", "p50", "p99", "mean");
    let local_p50 = rtt("local (V2Client)", ServerConfig::default(), iters, Dial::Client);
    let tcp_p50 = rtt("tcp (raw TcpStream)", ServerConfig::default(), iters, Dial::RawTcp);
    rtt(
        "poll2-fallback-backend",
        ServerConfig { backend: BackendKind::Poll, ..ServerConfig::default() },
        iters,
        Dial::Client,
    );
    println!(
        "local-vs-tcp p50 ratio: {:.2} (the rest was the kernel's TCP stack)",
        local_p50 as f64 / tcp_p50 as f64
    );
    idle_cpu(
        idle,
        "no maintenance timers",
        // Nothing left to ride the tick, so none is armed.
        ServerConfig {
            flush_interval: Duration::ZERO,
            trace: false,
            series_tick: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    // Fully armed maintenance: the recurring flush tick per worker,
    // one idle deadline per connection (long enough that nothing is
    // reaped mid-window), and the admission cap. Timers park in the
    // kernel wait like everything else, so the burn must stay ~0.
    idle_cpu(
        idle,
        "flush+idle+cap armed",
        ServerConfig {
            idle_timeout: Some(Duration::from_secs(60)),
            max_connections: 1024,
            ..ServerConfig::default()
        },
    );
}

/// How a round-trip row reaches the daemon.
enum Dial {
    /// `V2Client::connect`: the local socket for a loopback daemon.
    Client,
    /// A raw `TcpStream` and the `wire` functions: always TCP.
    RawTcp,
}

/// One decide round trip per call, over the transport `dial` selects.
fn decider(addr: std::net::SocketAddr, dial: Dial) -> Box<dyn FnMut()> {
    match dial {
        Dial::Client => {
            let mut client = V2Client::connect(addr).unwrap();
            Box::new(move || {
                std::hint::black_box(client.decide("Digit2000", "KNL_HW_DR200", 42, true).unwrap());
            })
        }
        Dial::RawTcp => {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            s.write_all(&wire::handshake(wire::VERSION)).unwrap();
            s.read_exact(&mut [0u8; wire::HANDSHAKE_LEN]).unwrap();
            let mut send = Vec::new();
            wire::encode_request(
                &wire::Request::Decide {
                    app: "Digit2000",
                    kernel: "KNL_HW_DR200",
                    x86_load: 42,
                    arm_load: 0,
                    kernel_resident: true,
                    device_ready: true,
                },
                &mut send,
            );
            let (mut recv, mut scratch) = (Vec::new(), [0u8; 256]);
            Box::new(move || {
                s.write_all(&send).unwrap();
                recv.clear();
                let range = loop {
                    if let Some((_, range)) = wire::frame_in(&recv).unwrap() {
                        break range;
                    }
                    let n = s.read(&mut scratch).unwrap();
                    assert!(n > 0, "daemon closed mid-reply");
                    recv.extend_from_slice(&scratch[..n]);
                };
                assert!(matches!(
                    wire::decode_response(&recv[range]).unwrap(),
                    wire::Response::Decide { .. }
                ));
            })
        }
    }
}

/// Measures `iters` decide round trips against a fresh daemon; prints
/// p50/p99/mean and returns the p50 in nanoseconds.
fn rtt(label: &str, config: ServerConfig, iters: usize, dial: Dial) -> u64 {
    let daemon = spawn_sharded(&policy(), EngineConfig::default(), config).unwrap();
    let mut decide = decider(daemon.addr(), dial);
    for _ in 0..iters / 10 {
        decide();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        decide();
        samples.push(start.elapsed().as_nanos() as u64);
    }
    drop(decide);
    samples.sort_unstable();
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    let mean = samples.iter().sum::<u64>() / samples.len() as u64;
    let (p50, p99) = (pct(0.50), pct(0.99));
    println!("{label:<28} {:>10} {:>10} {:>10}", ns(p50), ns(p99), ns(mean));
    daemon.shutdown();
    p50
}

/// Process CPU time burned while the daemon idles with 32 connected,
/// silent clients — the cost of *waiting* for traffic under the given
/// maintenance configuration.
fn idle_cpu(window: Duration, label: &str, config: ServerConfig) {
    let daemon = spawn_sharded(&policy(), EngineConfig::default(), config).unwrap();
    let idle: Vec<V2Client> = (0..32).map(|_| V2Client::connect(daemon.addr()).unwrap()).collect();
    // Let adoption and registration settle before sampling.
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu();
    std::thread::sleep(window);
    let burned = process_cpu().saturating_sub(before);
    let busy_yield_baseline = 4 * window; // polled pool, busy-yielding: one core per worker
    println!(
        "idle CPU over {:?} with {} silent clients [{label}]: {:?} \
         (old busy-yield baseline ≈ {:?}; old default ≈ one wakeup per worker per 500 µs)",
        window,
        idle.len(),
        burned,
        busy_yield_baseline,
    );
    daemon.shutdown();
}

/// Process CPU time (utime + stime) from `/proc/self/stat`, using the
/// standard 100 Hz tick. A coarse proxy, plenty for "a few ticks" vs
/// "cores × seconds".
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized comm (which may contain spaces):
    // utime and stime are the 12th and 13th from there.
    let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
        .saturating_add(fields.get(12).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0));
    Duration::from_millis(ticks * 10)
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
