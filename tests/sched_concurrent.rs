//! Concurrency tests of the `xar-sched` daemon: ≥ 32 simultaneous
//! clients (a mix of v2 binary and legacy v1 text), decision
//! consistency against the single-threaded reference policy, identical
//! threshold-table convergence, and graceful shutdown under load —
//! exercised on both reactor backends (epoll and the portable `poll(2)`
//! fallback) and, where the socket kind matters (connection lifecycle,
//! admission, quarantine), over both of the daemon's transports: TCP
//! and the local socket a `V2Client` picks for a loopback address.

mod common;

use common::{
    assert_conserved, assert_refused, fleet, offend, paper_policy, read_replies, spawn, stat,
    table_requests, text_query, wait_until, Reference, Tally, APPS,
};
use std::io::{Read, Write};
use std::sync::Arc;
use xar_trek::core::server::{
    BackendKind, EngineConfig, SchedulerClient, ServerConfig, ShardedPolicy, V2Client,
};
use xar_trek::desim::{CompletionReport, DecideCtx, Decision, Policy, Target};
use xar_trek::sched::{obs, wire, ReportOwned};

const CLIENTS: usize = 32;
const OPS_PER_CLIENT: usize = 20;

/// How a raw (client-library-free) peer reaches the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Transport {
    Tcp,
    /// The abstract Unix socket named after the daemon's port.
    Local,
}

impl Transport {
    #[cfg(target_os = "linux")]
    const ALL: [Transport; 2] = [Transport::Tcp, Transport::Local];
    #[cfg(not(target_os = "linux"))]
    const ALL: [Transport; 1] = [Transport::Tcp];
}

/// A raw connection on either transport: the one dial helper the
/// per-socket-kind lifecycle tests share.
enum RawConn {
    Tcp(std::net::TcpStream),
    Local(std::os::unix::net::UnixStream),
}

fn dial(addr: std::net::SocketAddr, transport: Transport) -> RawConn {
    match transport {
        Transport::Tcp => RawConn::Tcp(std::net::TcpStream::connect(addr).unwrap()),
        #[cfg(target_os = "linux")]
        Transport::Local => {
            use std::os::linux::net::SocketAddrExt;
            let name = xar_trek::sched::local_name(addr.port());
            let name = std::os::unix::net::SocketAddr::from_abstract_name(name).unwrap();
            RawConn::Local(std::os::unix::net::UnixStream::connect_addr(&name).unwrap())
        }
        #[cfg(not(target_os = "linux"))]
        Transport::Local => unreachable!("no local transport on this platform"),
    }
}

impl RawConn {
    fn set_read_timeout(&self, t: std::time::Duration) {
        match self {
            RawConn::Tcp(s) => s.set_read_timeout(Some(t)).unwrap(),
            RawConn::Local(s) => s.set_read_timeout(Some(t)).unwrap(),
        }
    }

    /// Half-close: FIN our side, keep reading.
    fn shutdown_write(&self) {
        match self {
            RawConn::Tcp(s) => s.shutdown(std::net::Shutdown::Write).unwrap(),
            RawConn::Local(s) => s.shutdown(std::net::Shutdown::Write).unwrap(),
        }
    }
}

impl std::io::Read for RawConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            RawConn::Tcp(s) => s.read(buf),
            RawConn::Local(s) => s.read(buf),
        }
    }
}

impl std::io::Write for RawConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            RawConn::Tcp(s) => s.write(buf),
            RawConn::Local(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One client's slice of the workload: `decides` round trips (protocol
/// chosen by client index parity), then `reports` slow-FPGA reports.
fn run_client(
    c: usize,
    addr: std::net::SocketAddr,
    decides: usize,
    reports: usize,
) -> Vec<(Decision, Decision)> {
    let app = APPS[c % APPS.len()];
    let mut out = Vec::with_capacity(decides);
    if c.is_multiple_of(2) {
        let mut cl = V2Client::connect(addr).unwrap();
        for _ in 0..decides {
            out.push((
                cl.decide(app, "k", 2, true).unwrap(),
                cl.decide(app, "k", 200, true).unwrap(),
            ));
        }
        for _ in 0..reports {
            // Slow FPGA runs: Algorithm 1 bumps fpga_thr by +1 each —
            // commutative, so any interleaving converges identically.
            cl.report(app, Target::Fpga, 1e9, 2).unwrap();
        }
    } else {
        // Legacy v1 text client against the same port.
        let mut cl = SchedulerClient::connect(addr).unwrap();
        for _ in 0..decides {
            out.push((
                cl.decide(app, "k", 2, true).unwrap(),
                cl.decide(app, "k", 200, true).unwrap(),
            ));
        }
        for _ in 0..reports {
            cl.report(app, Target::Fpga, 1e9, 2).unwrap();
        }
    }
    out
}

fn spawn_fleet(
    addr: std::net::SocketAddr,
    decides: usize,
    reports: usize,
) -> Vec<Vec<(Decision, Decision)>> {
    fleet(CLIENTS, |c| run_client(c, addr, decides, reports))
}

/// 32 concurrent clients decide against a quiescent table (identical
/// decisions to the sequential policy), then storm it with 32×20
/// commutative reports (identical table convergence to the sequential
/// path), and post-convergence decisions agree again.
#[test]
fn thirty_two_concurrent_clients_match_single_threaded_path() {
    fleet_matches_single_threaded_path(BackendKind::default());
}

/// The identical fleet workload through the portable `poll(2)` backend:
/// both reactor backends must pass the same suite.
#[test]
fn thirty_two_concurrent_clients_match_on_poll_backend() {
    fleet_matches_single_threaded_path(BackendKind::Poll);
}

fn fleet_matches_single_threaded_path(backend: BackendKind) {
    let daemon = spawn(
        EngineConfig { shards: 8, batch: 4 },
        ServerConfig { workers: 4, backend, ..ServerConfig::default() },
    );
    let addr = daemon.addr();
    let mut reference = Reference::new();

    // Phase 1 — decide-only storm: no state changes, so every client
    // must see exactly the sequential policy's decisions.
    let expected =
        APPS.map(|app| (reference.decide(app, 2, true), reference.decide(app, 200, true)));
    for (c, decisions) in spawn_fleet(addr, OPS_PER_CLIENT, 0).into_iter().enumerate() {
        let want = expected[c % APPS.len()];
        for got in decisions {
            assert_eq!(got, want, "client {c} ({})", APPS[c % APPS.len()]);
        }
    }

    // Phase 2 — report storm: 32 clients × 20 slow-FPGA reports.
    let mut clients_per_app = [0usize; APPS.len()];
    for c in 0..CLIENTS {
        clients_per_app[c % APPS.len()] += 1;
    }
    spawn_fleet(addr, 0, OPS_PER_CLIENT);

    // Sequential reference: the same reports, one after another.
    for (app, &clients) in APPS.iter().zip(&clients_per_app) {
        reference.report_n(clients * OPS_PER_CLIENT, app, Target::Fpga, 1e9, 2);
    }
    reference.assert_table_eq(daemon.engine().table(), "identical convergence");

    // Phase 3 — decisions on the converged table agree again.
    let mut cl = V2Client::connect(addr).unwrap();
    for app in APPS {
        for load in [2usize, 50, 200] {
            assert_eq!(
                cl.decide(app, "k", load as u32, true).unwrap(),
                reference.decide(app, load, true),
                "{app} at load {load} after convergence"
            );
        }
    }

    let tally = Tally {
        decides: (CLIENTS * OPS_PER_CLIENT * 2 + APPS.len() * 3) as u64,
        reports: (CLIENTS * OPS_PER_CLIENT) as u64,
        ..Tally::default()
    };
    assert_conserved(&daemon, tally, &format!("{backend:?}"));
    let m = daemon.engine().metrics_total();
    assert!(m.batches < m.reports, "batching amortized at least some applies");
    daemon.shutdown();
}

/// A v2 batch-report frame must be equivalent to the same reports sent
/// one by one.
#[test]
fn batch_report_equals_sequential_reports() {
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let mut cl = V2Client::connect(daemon.addr()).unwrap();
    let reports: Vec<ReportOwned> = (0..100)
        .map(|i| ReportOwned {
            app: if i % 2 == 0 { "Digit2000" } else { "CG-A" }.into(),
            target: if i % 2 == 0 { Target::Fpga } else { Target::Arm },
            func_ms: 1e9,
            x86_load: 3,
        })
        .collect();
    assert_eq!(cl.report_batch(&reports).unwrap(), 100);

    let mut reference = Reference::new();
    for r in &reports {
        reference.report(&r.app, r.target, r.func_ms, r.x86_load as usize);
    }
    reference.assert_table_eq(cl.fetch_table().unwrap(), "one BatchReport frame");
    daemon.shutdown();
}

/// In-place threshold publish under fire: one writer drives a hot row
/// up and down a staircase while other
/// writers storm the remaining rows and readers hammer the hot row —
/// one through fresh snapshot loads, one through a snapshot it took
/// *before* the storm. Every `(fpga_thr, arm_thr)` pair a reader sees
/// must be a pair the sequential reference produced (never half of one
/// update and half of another), the pre-storm snapshot must end on the
/// final pair without ever being swapped, and the final table must
/// equal the reference bit for bit.
#[test]
fn hot_row_readers_only_see_reference_pairs_during_a_report_storm() {
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xar_trek::core::server::sharded_engine;

    const HOT: &str = "FaceDet320";
    const HOT_REPORTS: usize = 4_000;
    // Slow offloads climb a staircase one threshold at a time (FPGA
    // twice as fast as ARM); each sixteenth pair of steps two slow x86
    // runs pull first one threshold, then the other, down to a load
    // that differs from cycle to cycle.
    let hot_report = |i: usize| match i % 16 {
        14 | 15 => (Target::X86, 1e9, 1 + (i / 16) % 23),
        k if k % 3 == 0 => (Target::Arm, 1e9, 50),
        _ => (Target::Fpga, 1e9, 50),
    };
    let cold_report = |i: usize| match i % 3 {
        0 => (Target::Fpga, 1e9, 40),
        1 => (Target::Arm, 1e9, 40),
        _ => (Target::X86, 1e9, 2),
    };
    let cold_apps: [&[&str]; 2] = [&["Digit2000", "CG-A"], &["Digit500", "FaceDet640"]];

    // The sequential reference, and every pair the hot row passes through.
    let mut reference = Reference::new();
    let mut legal = HashSet::from([reference.thresholds(HOT)]);
    for i in 0..HOT_REPORTS {
        let (target, func_ms, x86_load) = hot_report(i);
        reference.report(HOT, target, func_ms, x86_load);
        legal.insert(reference.thresholds(HOT));
    }
    for apps in cold_apps {
        for i in 0..HOT_REPORTS {
            let (target, func_ms, x86_load) = cold_report(i);
            reference.report(apps[i % apps.len()], target, func_ms, x86_load);
        }
    }
    let last = reference.thresholds(HOT);
    // The trace must sweep many pairs yet stay far from the full
    // product, so a pair stitched from two updates is not legal.
    let fpgas: HashSet<u32> = legal.iter().map(|p| p.0).collect();
    let arms: HashSet<u32> = legal.iter().map(|p| p.1).collect();
    assert!(legal.len() > 100, "only {} distinct pairs", legal.len());
    assert!(legal.len() * 4 < fpgas.len() * arms.len(), "legal pairs cover the product");

    // One shard: every writer contends for the same state lock and the
    // readers' row shares its published index with the stormed rows.
    let engine = Arc::new(sharded_engine(&paper_policy(), EngineConfig { shards: 1, batch: 1 }));
    let pre_storm = engine.snapshot_of(HOT);
    // Clients 0 and 1 read (0 through the pre-storm snapshot, 1 through
    // fresh loads); 2 writes the hot row, 3 and 4 storm the cold ones.
    let writing = AtomicUsize::new(3);
    /// Counts its writer out, even one that panics: the readers wait
    /// on the count.
    struct Done<'a>(&'a AtomicUsize);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Release);
        }
    }
    let finals = fleet(5, |c| {
        if c >= 2 {
            let _done = Done(&writing);
            let cold = cold_apps.get(c.wrapping_sub(3));
            for i in 0..HOT_REPORTS {
                let (app, (target, func_ms, x86_load)) = match cold {
                    None => (HOT, hot_report(i)),
                    Some(apps) => (apps[i % apps.len()], cold_report(i)),
                };
                engine.ingest(app, target, func_ms, x86_load as u32);
            }
            return None;
        }
        let held = (c == 0).then(|| pre_storm.clone());
        let mut seen = 0u64;
        loop {
            // Read the count first: the pass after the last writer
            // finished must observe the final pair.
            let done = writing.load(Ordering::Acquire) == 0;
            let snap = held.clone().unwrap_or_else(|| engine.snapshot_of(HOT));
            let got = snap.thresholds(HOT).expect("hot row is indexed");
            assert!(legal.contains(&got), "pair {got:?} was never produced");
            seen += 1;
            if done {
                return Some((got, seen));
            }
        }
    });
    for (final_pair, seen) in finals.into_iter().flatten() {
        assert_eq!(final_pair, last, "a reader ended on a stale pair after {seen} reads");
    }
    assert!(
        Arc::ptr_eq(&pre_storm, &engine.snapshot_of(HOT)),
        "a threshold-only storm swapped the published snapshot"
    );
    reference.assert_table_eq(engine.table(), "after the storm");
}

/// A mixed fleet of batched (`decide_batch`), pipelined (every decide
/// frame in one write on a raw connection, replies read back in
/// order), and single-decide clients on one daemon: every client,
/// whatever its transport shape, must see decisions bit-identical to
/// the sequential reference policy — on both reactor backends.
#[test]
fn mixed_batched_pipelined_and_single_fleet_matches_reference() {
    const LOADS: [u32; 4] = [2, 20, 50, 200];
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon = spawn(
            EngineConfig { shards: 8, batch: 4 },
            ServerConfig { workers: 4, backend, ..ServerConfig::default() },
        );
        let addr = daemon.addr();
        let mut reference = Reference::new();
        let expected: Vec<Decision> = APPS
            .iter()
            .flat_map(|app| LOADS.map(|load| reference.decide(app, load as usize, true)))
            .collect();
        let decisions = fleet(CLIENTS, |c| {
            let mut got: Vec<Decision> = Vec::new();
            match c % 3 {
                0 => {
                    // Single decides, one round trip each.
                    let mut cl = V2Client::connect(addr).unwrap();
                    for app in APPS {
                        for load in LOADS {
                            got.push(cl.decide(app, "k", load, true).unwrap());
                        }
                    }
                }
                1 => {
                    // One DecideBatch frame for the whole set.
                    let queries: Vec<wire::WireQuery<'_>> = APPS
                        .iter()
                        .flat_map(|app| {
                            LOADS.map(|load| wire::WireQuery {
                                app,
                                kernel: "k",
                                x86_load: load,
                                arm_load: 0,
                                kernel_resident: true,
                                device_ready: true,
                            })
                        })
                        .collect();
                    got = V2Client::connect(addr).unwrap().decide_batch(&queries).unwrap();
                }
                _ => {
                    // Pipelined: every frame in flight in one write,
                    // so the daemon decodes several frames per read;
                    // the replies come back in order.
                    let mut frames = wire::handshake(wire::VERSION).to_vec();
                    for app in APPS {
                        for x86_load in LOADS {
                            let req = wire::Request::Decide {
                                app,
                                kernel: "k",
                                x86_load,
                                arm_load: 0,
                                kernel_resident: true,
                                device_ready: true,
                            };
                            wire::encode_request(&req, &mut frames);
                        }
                    }
                    let mut s = dial(addr, Transport::Tcp);
                    s.set_read_timeout(std::time::Duration::from_secs(10));
                    s.write_all(&frames).unwrap();
                    read_replies(&mut s, APPS.len() * LOADS.len(), |i, reply| match reply {
                        wire::Response::Decide { target, reconfigure } => {
                            got.push(Decision { target, reconfigure })
                        }
                        other => panic!("client {c}: reply {i}: {other:?}"),
                    });
                }
            }
            got
        });
        for (c, got) in decisions.into_iter().enumerate() {
            assert_eq!(
                got,
                expected,
                "{backend:?}: client {c} (mode {}) diverged from the sequential reference",
                c % 3
            );
        }
        // Every mode's decides landed in the shared metrics, and the
        // batch frames were counted separately.
        let tally =
            Tally { decides: (CLIENTS * APPS.len() * LOADS.len()) as u64, ..Tally::default() };
        let stats = assert_conserved(&daemon, tally, &format!("{backend:?}"));
        let batch_clients = (0..CLIENTS).filter(|c| c % 3 == 1).count() as u64;
        assert_eq!(
            stats.get(obs::tags::DECIDE_BATCH_FRAMES),
            Some(batch_clients),
            "{backend:?}: one frame per batch client"
        );
        daemon.shutdown();
    }
}

/// An oversized `DecideBatch` (announcing more queries than
/// `MAX_DECIDE_BATCH`) must be refused with `R_ERR` *atomically*:
/// no query processed, no decision made, and the connection still
/// serves well-formed traffic afterwards.
#[test]
fn oversized_decide_batch_is_refused_before_processing_anything() {
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
    s.write_all(&wire::handshake(wire::VERSION)).unwrap();
    // Hand-crafted frame (the client-side encoder asserts the cap, so
    // only a non-conforming peer can send this): an announced count of
    // MAX_DECIDE_BATCH + 1 with a first query that WOULD be decidable
    // if the server parsed before checking.
    let mut payload = vec![wire::op::DECIDE_BATCH];
    payload.extend_from_slice(&((wire::MAX_DECIDE_BATCH + 1) as u16).to_le_bytes());
    payload.extend_from_slice(&2u16.to_le_bytes());
    payload.extend_from_slice(b"ap");
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // A well-formed ping pipelined behind the poisoned frame: the
    // refusal must not take the connection down.
    wire::encode_request(&wire::Request::Ping(9), &mut frame);
    s.write_all(&frame).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut replies = Vec::new();
    read_replies(&mut s, 2, |_, reply| match reply {
        wire::Response::Err(msg) => replies.push(format!("ERR {msg}")),
        wire::Response::Pong(n) => replies.push(format!("PONG {n}")),
        other => panic!("unexpected reply {other:?}"),
    });
    assert!(
        replies[0].starts_with("ERR") && replies[0].contains("MAX_DECIDE_BATCH"),
        "{replies:?}"
    );
    assert_eq!(replies[1], "PONG 9", "connection did not survive the refusal");
    let m = daemon.engine().metrics_total();
    assert_eq!(m.decides, 0, "a query from the refused batch was processed");
    assert_eq!(m.decide_batches, 0, "the refused frame was counted as handled");
    daemon.shutdown();
}

/// The retired v2 ops — `REPORT` (0x02, a one-report `BATCH_REPORT`)
/// and `STATS` (0x06, a subset of `STATS_V2`) — are unknown opcodes
/// now: each well-formed frame an older client would send gets
/// `R_ERR` and counts as a protocol error, nothing is ingested or
/// decided, and the connection serves the `PING` written behind it.
#[test]
fn retired_report_and_stats_ops_get_err_and_the_connection_survives() {
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let mut s = dial(daemon.addr(), Transport::Tcp);
    s.set_read_timeout(std::time::Duration::from_secs(10));
    // The retired REPORT body: app, target byte, f64 ms, u32 load.
    let mut report = vec![wire::op::REPORT];
    report.extend_from_slice(&9u16.to_le_bytes());
    report.extend_from_slice(b"Digit2000");
    report.push(wire::target_to_byte(Target::Fpga));
    report.extend_from_slice(&1e9f64.to_bits().to_le_bytes());
    report.extend_from_slice(&2u32.to_le_bytes());
    let mut out = wire::handshake(wire::VERSION).to_vec();
    for (nonce, payload) in [report, vec![wire::op::STATS]].into_iter().enumerate() {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        wire::encode_request(&wire::Request::Ping(nonce as u64), &mut out);
    }
    s.write_all(&out).unwrap();
    read_replies(&mut s, 4, |i, reply| match (i % 2, reply) {
        (0, wire::Response::Err(msg)) => assert!(msg.contains("unknown opcode"), "{msg}"),
        (1, wire::Response::Pong(nonce)) => assert_eq!(nonce, i as u64 / 2),
        (_, other) => panic!("reply {i}: {other:?}"),
    });
    let mut cl = V2Client::connect(daemon.addr()).unwrap();
    assert_eq!(stat(&mut cl, obs::tags::PROTOCOL_ERRORS), 2);
    assert_eq!(stat(&mut cl, obs::tags::REPORTS), 0, "a retired REPORT was ingested");
    assert_eq!(stat(&mut cl, obs::tags::DECIDES), 0);
    daemon.shutdown();
}

/// Shutdown must complete promptly even with idle clients still
/// connected (the v1 seed server's accept loop could hang instead) —
/// on both reactor backends, where "promptly" now means a waker-driven
/// exit from a blocked kernel wait, not a poll-interval expiry.
#[test]
fn graceful_shutdown_with_connected_clients() {
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon =
            spawn(EngineConfig::default(), ServerConfig { backend, ..ServerConfig::default() });
        let addr = daemon.addr();
        let _idle: Vec<V2Client> = (0..8).map(|_| V2Client::connect(addr).unwrap()).collect();
        let started = std::time::Instant::now();
        daemon.shutdown();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "{backend:?} shutdown hung: {:?}",
            started.elapsed()
        );
        // And the port is actually gone.
        assert!(V2Client::connect(addr).is_err(), "{backend:?}");
    }
}

/// A client that pipelines a burst past the outbuf high-water cap and
/// then half-closes (FIN) must still receive every reply: the reap may
/// only fire once the connection is closed, flushed, AND drained of
/// complete buffered requests.
#[test]
fn half_close_after_capped_burst_loses_no_replies() {
    let daemon = spawn(
        EngineConfig::default(),
        ServerConfig { outbuf_high_water: 64, ..ServerConfig::default() },
    );
    for transport in Transport::ALL {
        let mut s = dial(daemon.addr(), transport);
        s.write_all(&wire::handshake(wire::VERSION)).unwrap();
        const BURST: usize = 64;
        s.write_all(&table_requests(BURST)).unwrap();
        s.shutdown_write();
        s.set_read_timeout(std::time::Duration::from_secs(10));
        // Every reply (a close before the last one is "replies dropped
        // at half-close"), then the EOF.
        read_replies(&mut s, BURST, |i, reply| {
            assert!(matches!(reply, wire::Response::Table(_)), "{transport:?}: reply {i}");
        });
        match s.read(&mut [0u8; 64]) {
            Ok(0) => {}
            other => panic!("{transport:?}: read after the half-closed burst: {other:?}"),
        }
    }
    daemon.shutdown();
}

/// Resizes a socket's kernel receive buffer (std exposes no SO_RCVBUF
/// setter). The write-stall test needs it twice: shrunk to the floor
/// so the reply stream overflows kernel buffering deterministically,
/// then enlarged before draining so the reopened window is announced
/// in one update instead of trickling behind the sender's
/// exponentially backed-off zero-window probes.
fn set_rcvbuf(s: &std::net::TcpStream, bytes: i32) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    #[cfg(target_os = "linux")]
    let (sol_socket, so_rcvbuf) = (1i32, 8i32);
    #[cfg(not(target_os = "linux"))]
    let (sol_socket, so_rcvbuf) = (0xffffi32, 0x1002i32);
    // SAFETY: `bytes` is a live i32 on the stack and the length
    // argument matches its size; setsockopt only reads the value.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            sol_socket,
            so_rcvbuf,
            (&raw const bytes).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// A peer that half-closes while its replies are backed up is
/// invisible to the read-gated pump (reads are off for backpressure,
/// so the FIN is never seen) — the write-stall deadline must reap it
/// anyway on both backends, instead of pinning the fd and buffers
/// forever (and, on epoll, instead of busy-spinning a worker on an
/// always-armed EPOLLRDHUP).
#[test]
fn write_stalled_half_closed_client_is_reaped() {
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon = spawn(
            EngineConfig::default(),
            ServerConfig {
                backend,
                outbuf_high_water: 64,
                close_linger: std::time::Duration::from_millis(300),
                ..ServerConfig::default()
            },
        );
        let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
        // Shrink our receive buffer to its floor so the reply stream
        // overflows the kernel buffering deterministically (receive
        // autotuning would otherwise swallow megabytes unread): the
        // server must actually write-block for this test to mean
        // anything.
        set_rcvbuf(&s, 4096);
        s.set_write_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        s.write_all(&wire::handshake(wire::VERSION)).unwrap();
        // ~20× reply amplification, sized so the replies (~8 MB)
        // overflow even a fully autotuned server send buffer
        // (tcp_wmem caps at 4 MB) on top of our shrunken receive
        // buffer: the server must ingest the whole burst but
        // write-block mid-flush.
        s.write_all(&table_requests(64 * 1024)).unwrap();
        // Let the pump hit the write-block, then FIN without ever
        // having read a byte. We drain nothing, so a reap can only be
        // the write-stall deadline: watch for it from a second
        // connection (the one live connection left once it fires).
        std::thread::sleep(std::time::Duration::from_millis(400));
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut watcher = V2Client::connect(daemon.addr()).unwrap();
        wait_until(&format!("{backend:?}: the stalled half-closed peer to be reaped"), || {
            let stats = watcher.stats_v2().unwrap();
            stats.get(obs::tags::REAPED_CONNS) == Some(1)
                && stats.get(obs::tags::LIVE_CONNS) == Some(1)
        });
        drop(s);
        daemon.shutdown();
    }
}

/// The stranded-report regression: a single report below the batch
/// size must become visible — applied to the table and the decision
/// snapshot — within one `flush_interval`, with no manual `flush()`
/// and no TABLE request (whose snapshot path flushes as a side
/// effect). Before the maintenance timer, it sat in the shard queue
/// forever and the daemon kept deciding on stale profiles. Exercised
/// on both reactor backends and through the `ShardedPolicy` simulator
/// adapter over the same daemon-maintained engine.
#[test]
fn below_batch_report_is_applied_within_one_flush_interval() {
    let wait_for_reports =
        |daemon: &xar_trek::core::server::ShardedSchedulerServer, want: u64, what: &str| {
            wait_until(&format!("{what}: report {want}, stranded below batch size"), || {
                daemon.engine().metrics_total().reports == want
            });
            assert!(daemon.engine().metrics_total().batches >= 1, "{what}: applied, no batch?");
        };
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon = spawn(
            EngineConfig { shards: 8, batch: 64 },
            ServerConfig {
                backend,
                flush_interval: std::time::Duration::from_millis(50),
                ..ServerConfig::default()
            },
        );
        let mut cl = V2Client::connect(daemon.addr()).unwrap();
        cl.report("Digit2000", Target::Fpga, 1e9, 2).unwrap();
        wait_for_reports(&daemon, 1, &format!("{backend:?}"));
        // And the published decision snapshot reflects it: the row's
        // fpga_thr was bumped by Algorithm 1.
        let mut reference = Reference::new();
        reference.report("Digit2000", Target::Fpga, 1e9, 2);
        reference.assert_table_eq(daemon.engine().table(), format_args!("{backend:?}"));

        // The simulator adapter rides the same maintenance timer: a
        // report entering through `Policy::on_complete` is applied
        // within one interval too.
        let mut adapter = ShardedPolicy::new(daemon.engine().clone());
        adapter.on_complete(&CompletionReport {
            app: "CG-A",
            target: Target::Fpga,
            func_ms: 1e9,
            x86_load: 2,
        });
        wait_for_reports(&daemon, 2, &format!("{backend:?} via ShardedPolicy"));
        daemon.shutdown();
    }
}

/// The daemon's statistics (`StatsV2`) round-trip on both backends and
/// carry live telemetry: engine metric totals plus connection-lifecycle
/// counters that track a peer's reap.
#[test]
fn stats_round_trips_on_both_backends() {
    use obs::tags;
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon =
            spawn(EngineConfig::default(), ServerConfig { backend, ..ServerConfig::default() });
        let mut cl = V2Client::connect(daemon.addr()).unwrap();
        for _ in 0..3 {
            cl.decide("Digit2000", "k", 2, true).unwrap();
        }
        for _ in 0..2 {
            cl.report("Digit2000", Target::Fpga, 1e9, 2).unwrap();
        }
        assert_eq!(stat(&mut cl, tags::DECIDES), 3, "{backend:?}");
        assert_eq!(stat(&mut cl, tags::REPORTS), 2, "{backend:?}");
        assert_eq!(stat(&mut cl, tags::LIVE_CONNS), 1, "{backend:?}");
        assert_eq!(stat(&mut cl, tags::REAPED_CONNS), 0, "{backend:?}");
        assert_eq!(stat(&mut cl, tags::REJECTED_CONNS), 0, "{backend:?}");
        assert!(
            stat(&mut cl, tags::DECIDE_P50_NS) > 0,
            "{backend:?}: decide latency histogram empty"
        );

        // A dropped peer shows up as reaped; the counters are shared
        // across workers, so any connection observes it.
        let mut cl2 = V2Client::connect(daemon.addr()).unwrap();
        drop(cl);
        wait_until(&format!("{backend:?}: the reap to be counted"), || {
            stat(&mut cl2, tags::REAPED_CONNS) == 1
        });
        assert_eq!(stat(&mut cl2, tags::LIVE_CONNS), 1, "{backend:?}");
        daemon.shutdown();
    }
}

/// Admission control: an at-cap daemon parks its listeners (the third
/// peer's handshake goes unanswered — it waits in the kernel backlog,
/// consuming no daemon fd) and resumes accepting as soon as a reap
/// frees a slot — on both backends, whichever transport the waiting
/// peer came in on: one cap counts both, and both are parked and
/// re-armed together.
#[test]
fn at_cap_daemon_stops_accepting_and_resumes_after_reap() {
    for backend in [BackendKind::default(), BackendKind::Poll] {
        for transport in Transport::ALL {
            let what = format!("{backend:?}/{transport:?}");
            let daemon = spawn(
                EngineConfig::default(),
                ServerConfig { backend, max_connections: 2, ..ServerConfig::default() },
            );
            let addr = daemon.addr();
            let cl1 = V2Client::connect(addr).unwrap();
            let mut cl2 = V2Client::connect(addr).unwrap();
            // Third peer: the connect completes against the kernel
            // backlog, but the daemon must not accept (and so never
            // answers the v2 handshake) while at the cap.
            let mut third = dial(addr, transport);
            third.write_all(&wire::handshake(wire::VERSION)).unwrap();
            third.set_read_timeout(std::time::Duration::from_millis(600));
            let mut hs = [0u8; wire::HANDSHAKE_LEN];
            match third.read(&mut hs) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                other => panic!("{what}: daemon served a peer beyond the cap: {other:?}"),
            }
            // A reap frees a slot: the parked listeners re-arm and the
            // queued peer is admitted and served.
            drop(cl1);
            third.set_read_timeout(std::time::Duration::from_secs(10));
            third
                .read_exact(&mut hs)
                .unwrap_or_else(|e| panic!("{what}: listener never resumed after the reap: {e}"));
            assert_eq!(wire::parse_handshake(&hs).unwrap(), wire::VERSION, "{what}");
            // The still-admitted client kept working throughout.
            assert_eq!(cl2.ping(7).unwrap(), 7, "{what}");
            daemon.shutdown();
        }
    }
}

/// Idle timeouts: a connection that goes silent for a full window is
/// reaped (the immortal-idle-connection fix), while one with inbound
/// traffic slides its deadline indefinitely — on both backends.
#[test]
fn idle_connection_is_reaped_while_an_active_one_slides() {
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon = spawn(
            EngineConfig::default(),
            ServerConfig {
                backend,
                idle_timeout: Some(std::time::Duration::from_millis(300)),
                ..ServerConfig::default()
            },
        );
        let addr = daemon.addr();
        let mut active = V2Client::connect(addr).unwrap();
        // The idle peers, one per transport: each completes the
        // handshake, then never sends another byte.
        let mut idle: Vec<(Transport, RawConn)> = Transport::ALL
            .into_iter()
            .map(|transport| {
                let mut s = dial(addr, transport);
                s.write_all(&wire::handshake(wire::VERSION)).unwrap();
                let mut hs = [0u8; wire::HANDSHAKE_LEN];
                s.read_exact(&mut hs).unwrap();
                // Ping on the active connection every 100 ms (well
                // under the window) while waiting for the peers' EOFs.
                s.set_read_timeout(std::time::Duration::from_millis(100));
                (transport, s)
            })
            .collect();
        let connected = std::time::Instant::now();
        let mut buf = [0u8; 64];
        while !idle.is_empty() {
            assert_eq!(active.ping(1).unwrap(), 1, "{backend:?}: active client reaped");
            idle.retain_mut(|(transport, s)| match s.read(&mut buf) {
                Ok(0) => {
                    let reaped_after = connected.elapsed();
                    assert!(
                        reaped_after >= std::time::Duration::from_millis(300),
                        "{backend:?}/{transport:?}: reaped after {reaped_after:?}, \
                         before a full idle window"
                    );
                    false
                }
                Ok(_) => panic!("{backend:?}/{transport:?}: unsolicited bytes when idle"),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    true
                }
                Err(e) => panic!("{backend:?}/{transport:?}: {e}"),
            });
            assert!(
                connected.elapsed() < std::time::Duration::from_secs(10),
                "{backend:?}: idle connection never reaped"
            );
        }
        // The active client outlived several windows and still works.
        while connected.elapsed() < std::time::Duration::from_millis(1200) {
            assert_eq!(active.ping(2).unwrap(), 2, "{backend:?}");
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        daemon.shutdown();
    }
}

/// `decide_with` carries the full decision context end-to-end: a
/// policy that distinguishes "FPGA mid-reconfiguration" and ARM load
/// sees exactly what the client sent, while the `decide` convenience
/// keeps its documented ready-device default. (`V2Client::decide`
/// used to fabricate `device_ready: true, arm_load: 0` with no way
/// around it.)
#[test]
fn decide_with_carries_device_context_end_to_end() {
    struct ReadyPolicy;
    impl xar_trek::sched::PolicyCore for ReadyPolicy {
        type Snap = ();
        fn snapshot(&self) -> Self::Snap {}
        fn decide(_snap: &Self::Snap, ctx: &DecideCtx<'_>, _hash: u64) -> Decision {
            if !ctx.device_ready {
                return Decision::to(Target::X86);
            }
            if ctx.arm_load > ctx.x86_load {
                Decision::to(Target::Arm)
            } else {
                Decision::to(Target::Fpga)
            }
        }
        fn apply(&mut self, _report: &CompletionReport<'_>, _hash: u64) {}
        fn entries(&self) -> Vec<xar_trek::sched::TableEntry> {
            Vec::new()
        }
    }
    let daemon = xar_trek::sched::Server::spawn(
        xar_trek::sched::ShardedEngine::from_shards(vec![ReadyPolicy], 1),
        ServerConfig::default(),
    )
    .unwrap();
    let mut cl = V2Client::connect(daemon.addr()).unwrap();
    let d = cl.decide_with("app", "k", 0, 5, true, false).unwrap();
    assert_eq!(d.target, Target::X86, "device_ready: false must reach the policy");
    let d = cl.decide_with("app", "k", 0, 5, true, true).unwrap();
    assert_eq!(d.target, Target::Arm, "arm_load must reach the policy");
    let d = cl.decide_with("app", "k", 5, 0, true, true).unwrap();
    assert_eq!(d.target, Target::Fpga);
    // The convenience keeps its documented defaults (ready, no ARM load).
    let d = cl.decide("app", "k", 0, true).unwrap();
    assert_eq!(d.target, Target::Fpga);
    daemon.shutdown();
}

/// Lines a v1 client pipelines after QUIT must be discarded, not
/// executed: the client ended the session, so a trailing REPORT must
/// not mutate the table and a trailing TABLE must get no reply (the
/// seed server dropped them too).
#[test]
fn v1_lines_pipelined_after_quit_are_discarded() {
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
    s.write_all(b"QUIT\nREPORT Digit2000 fpga 1000000000 2\nTABLE\n").unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut scratch = [0u8; 1024];
    loop {
        match s.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e) => panic!("read after QUIT: {e}"),
        }
    }
    assert!(buf.is_empty(), "post-QUIT lines were answered: {:?}", String::from_utf8_lossy(&buf));
    assert_eq!(daemon.engine().metrics_total().reports, 0, "post-QUIT REPORT was applied");
    daemon.shutdown();
}

/// A pipelined burst of TABLE requests far above the outbuf high-water
/// cap: every reply must still arrive, in order, while the cap paces
/// processing against the socket drain (no reply may be dropped when
/// processing pauses and resumes).
#[test]
fn outbuf_cap_preserves_every_reply_under_pipelined_table_burst() {
    let daemon = spawn(
        EngineConfig::default(),
        // Tiny cap: a single TABLE reply (5 rows) overshoots it, so
        // the burst exercises pause/resume on every frame.
        ServerConfig { outbuf_high_water: 64, ..ServerConfig::default() },
    );
    let mut control = V2Client::connect(daemon.addr()).unwrap();
    for transport in Transport::ALL {
        let pauses_before = stat(&mut control, obs::tags::BACKPRESSURE_PAUSES);
        let mut s = dial(daemon.addr(), transport);
        s.write_all(&wire::handshake(wire::VERSION)).unwrap();
        // Big enough that the replies (~200 B each) overflow the kernel
        // send buffer: the pump must pause at the cap, park on write
        // interest, and resume processing as this client drains — with
        // unprocessed frames still buffered after the backlog flushes.
        const BURST: usize = 16 * 1024;
        s.write_all(&table_requests(BURST)).unwrap();
        // A Unix socket buffers a fraction of what autotuned TCP does,
        // so there the 3 MB of replies back up for certain: hold off
        // reading until the daemon has paused, then drain. (Loopback
        // TCP may swallow the lot; it is the burst's order and count
        // that are checked there.)
        if transport == Transport::Local {
            wait_until("the local socket to back up", || {
                stat(&mut control, obs::tags::BACKPRESSURE_PAUSES) != pauses_before
            });
        }
        // Read the handshake echo, then exactly BURST table replies.
        s.set_read_timeout(std::time::Duration::from_secs(10));
        read_replies(&mut s, BURST, |i, reply| match reply {
            wire::Response::Table(entries) => {
                assert_eq!(entries.len(), 5, "{transport:?}: reply {i}");
            }
            other => panic!("{transport:?}: reply {i}: unexpected {other:?}"),
        });
        if transport == Transport::Local {
            // Every pause was released again: the connection ended
            // flushed, not parked on write interest.
            wait_until("every pause to be resumed", || {
                stat(&mut control, obs::tags::BACKPRESSURE_RESUMES)
                    >= stat(&mut control, obs::tags::BACKPRESSURE_PAUSES)
            });
        }
    }
    daemon.shutdown();
}

/// A single wire frame several orders larger than the server's read
/// chunk, delivered in one client write: the server's
/// direct-into-inbuf reads must cross many spare-capacity boundaries
/// (where a read returns exactly the offered spare) without treating
/// an exact fill as socket-drained — a regression there strands the
/// frame's tail until an unrelated readiness event. Exercised on both
/// backends.
#[test]
fn oversized_frame_straddles_read_chunk_boundary_on_both_backends() {
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon = spawn(
            EngineConfig { shards: 4, batch: 1 },
            ServerConfig { backend, ..ServerConfig::default() },
        );
        let mut cl = V2Client::connect(daemon.addr()).unwrap();
        // ~40-byte encoded reports; 4000 of them make one ~160 KiB
        // BatchReport frame — dozens of read chunks even after the
        // buffer's growth doubling, so several reads return a full
        // buffer before the short read that ends the drain.
        let reports: Vec<ReportOwned> = (0..4000)
            .map(|i| ReportOwned {
                app: format!("straddle-app-{:06}", i % 7).into(),
                target: Target::Fpga,
                func_ms: 1.0,
                x86_load: 3,
            })
            .collect();
        assert_eq!(
            cl.report_batch(&reports).unwrap(),
            4000,
            "{backend:?}: batch straddling the read-chunk boundary was not fully ingested"
        );
        daemon.engine().flush();
        assert_eq!(daemon.engine().metrics_total().reports, 4000, "{backend:?}");
        // The connection still works for ordinary traffic afterwards.
        assert_eq!(cl.ping(5).unwrap(), 5, "{backend:?}");
        daemon.shutdown();
    }
}

/// `DUMP` must expose every counter `StatsV2` ships (the counter lines
/// are rendered from the same tagged pairs, so this pins the
/// by-construction guarantee end to end over real sockets), all
/// `BUCKETS` cumulative buckets of all four latency histograms, and a
/// gauge per shard.
#[test]
fn dump_covers_every_stats_v2_counter_and_all_histogram_buckets() {
    let daemon = spawn(
        // batch = 1: the report below applies inline, so its counter
        // is already visible to the immediately following queries.
        EngineConfig { shards: 4, batch: 1 },
        ServerConfig::default(),
    );
    let addr = daemon.addr();
    let mut cl = V2Client::connect(addr).unwrap();
    for _ in 0..100 {
        cl.decide("Digit2000", "k", 2, true).unwrap();
    }
    cl.report("Digit2000", Target::Fpga, 1e9, 2).unwrap();
    let stats = cl.stats_v2().unwrap();
    assert_eq!(stats.pairs.len(), obs::TAGS.len(), "every registered tag is shipped");
    let dump = text_query(addr, "DUMP\n");
    for &(tag, _) in &stats.pairs {
        let name = obs::tag_name(tag).expect("server shipped a tag the registry does not know");
        let prefix = format!("xar_{name} ");
        assert!(
            dump.lines().any(|l| l.starts_with(&prefix)),
            "StatsV2 tag {tag} ({name}) missing from DUMP"
        );
    }
    // Counters that cannot have moved between the two queries agree.
    assert!(dump.lines().any(|l| l == "xar_decides 100"), "decide count drifted");
    assert!(dump.lines().any(|l| l == "xar_reports 1"));
    for class in [
        "xar_decide_latency_ns",
        "xar_decide_batch_latency_ns",
        "xar_report_batch_latency_ns",
        "xar_flush_publish_latency_ns",
    ] {
        let bucket_prefix = format!("{class}_bucket{{le=");
        let buckets = dump.lines().filter(|l| l.starts_with(&bucket_prefix)).count();
        assert_eq!(buckets, obs::BUCKETS, "{class}: full distribution, every bucket");
        assert!(
            dump.lines().any(|l| l.starts_with(&format!("{class}_count "))),
            "{class}: missing _count"
        );
        assert!(
            dump.lines().any(|l| l.starts_with(&format!("{class}_bucket{{le=\"+Inf\"}} "))),
            "{class}: missing the open +Inf bucket"
        );
    }
    let shards = stats.get(obs::tags::SHARDS).expect("SHARDS tag") as usize;
    assert_eq!(shards, 4);
    for i in 0..shards {
        assert!(
            dump.lines().any(|l| l.starts_with(&format!("xar_shard_decides{{shard=\"{i}\"}} "))),
            "missing decide gauge for shard {i}"
        );
        assert!(
            dump.lines().any(|l| l.starts_with(&format!("xar_shard_reports{{shard=\"{i}\"}} "))),
            "missing report gauge for shard {i}"
        );
    }
    assert!(dump.ends_with("END\n"));
    daemon.shutdown();
}

/// The 32-client fleet leaves a coherent trace: `TRACE n` over the v1
/// port returns accept, flush-publish and reap events; per-worker
/// sequence numbers are strictly increasing in log order; and within
/// any (worker, slot) stream the lifecycle alternates accept → reap —
/// an accept never follows another accept of the same slot without a
/// reap in between, and no slot is reaped before it was accepted.
#[test]
fn fleet_trace_records_lifecycle_events_in_per_worker_order() {
    use std::collections::HashMap;
    let daemon = spawn(
        EngineConfig { shards: 8, batch: 4 },
        ServerConfig {
            workers: 4,
            flush_interval: std::time::Duration::from_millis(5),
            trace_log_capacity: 1 << 16,
            ..ServerConfig::default()
        },
    );
    let addr = daemon.addr();
    spawn_fleet(addr, 4, 4);
    // Every fleet connection is dropped once spawn_fleet returns; wait
    // until all 32 reaps are counted, then give the workers'
    // maintenance ticks (5 ms) a beat to drain their rings into the
    // shared log.
    let mut cl = V2Client::connect(addr).unwrap();
    wait_until("the fleet's reaps to complete", || {
        stat(&mut cl, obs::tags::REAPED_CONNS) == CLIENTS as u64
    });
    assert!(
        stat(&mut cl, obs::tags::TRACE_EVENTS) >= 2 * CLIENTS as u64,
        "at least one accept and one reap per fleet client was emitted"
    );
    std::thread::sleep(std::time::Duration::from_millis(100));
    let text = text_query(addr, "TRACE 100000\n");
    let mut last_seq: HashMap<u64, u64> = HashMap::new();
    let mut open_slots: HashMap<(u64, u64), bool> = HashMap::new();
    let (mut accepts, mut reaps, mut publishes) = (0u64, 0u64, 0u64);
    for line in text.lines() {
        if line == "END" {
            break;
        }
        let mut parts = line.split_whitespace();
        let seq: u64 = parts.next().unwrap().parse().unwrap_or_else(|_| panic!("bad line {line}"));
        let daemon_id: u64 =
            parts.next().unwrap().strip_prefix("daemon=").unwrap().parse().unwrap();
        assert_eq!(daemon_id, 0, "default daemon_id is stamped on every trace line");
        let worker: u64 = parts.next().unwrap().strip_prefix("worker=").unwrap().parse().unwrap();
        let kind = parts.next().unwrap();
        if let Some(&prev) = last_seq.get(&worker) {
            assert!(
                seq > prev,
                "worker {worker}: seq {seq} arrived after {prev} — per-worker order lost"
            );
        }
        last_seq.insert(worker, seq);
        match kind {
            "accept" | "reap" => {
                let conn: u64 =
                    parts.next().unwrap().strip_prefix("conn=").unwrap().parse().unwrap();
                let open = open_slots.entry((worker, conn)).or_insert(false);
                if kind == "accept" {
                    assert!(!*open, "worker {worker} slot {conn}: accept while already open");
                    *open = true;
                    accepts += 1;
                } else {
                    assert!(*open, "worker {worker} slot {conn}: reap before accept");
                    *open = false;
                    reaps += 1;
                }
            }
            "flush_publish" => publishes += 1,
            _ => {}
        }
    }
    assert!(accepts >= CLIENTS as u64, "only {accepts} accepts traced");
    assert!(reaps >= CLIENTS as u64, "only {reaps} reaps traced");
    assert!(publishes >= 1, "no flush_publish event traced despite 128 reports");
    daemon.shutdown();
}

/// A hand-rolled v2 peer over a [`RawConn`]: the public `wire`
/// functions and nothing else, so it is on TCP for certain (a
/// `V2Client` given a loopback address is not).
struct RawV2 {
    conn: RawConn,
    send: Vec<u8>,
    recv: Vec<u8>,
}

impl RawV2 {
    fn connect(addr: std::net::SocketAddr, transport: Transport) -> RawV2 {
        let mut conn = dial(addr, transport);
        conn.set_read_timeout(std::time::Duration::from_secs(10));
        conn.write_all(&wire::handshake(wire::VERSION)).unwrap();
        let mut hs = [0u8; wire::HANDSHAKE_LEN];
        conn.read_exact(&mut hs).unwrap();
        assert_eq!(wire::parse_handshake(&hs).unwrap(), wire::VERSION);
        RawV2 { conn, send: Vec::new(), recv: Vec::new() }
    }

    /// One request, one reply frame; the reply's payload is in
    /// `self.recv[range]`.
    fn roundtrip(&mut self, req: &wire::Request<'_>) -> std::ops::Range<usize> {
        self.send.clear();
        wire::encode_request(req, &mut self.send);
        self.conn.write_all(&self.send).unwrap();
        self.recv.clear();
        let mut scratch = [0u8; 1024];
        loop {
            if let Some((_, range)) = wire::frame_in(&self.recv).unwrap() {
                return range;
            }
            let n = self.conn.read(&mut scratch).unwrap();
            assert!(n > 0, "daemon closed mid-reply");
            self.recv.extend_from_slice(&scratch[..n]);
        }
    }

    fn decide(&mut self, app: &str, x86_load: u32) -> Decision {
        let range = self.roundtrip(&wire::Request::Decide {
            app,
            kernel: "k",
            x86_load,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
        });
        match wire::decode_response(&self.recv[range]).unwrap() {
            wire::Response::Decide { target, reconfigure } => Decision { target, reconfigure },
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn report(&mut self, app: &str, target: Target, func_ms: f64, x86_load: u32) {
        let report = wire::WireReport { app, target, func_ms, x86_load };
        let range = self.roundtrip(&wire::Request::BatchReport(vec![report]));
        assert_eq!(wire::decode_response(&self.recv[range]).unwrap(), wire::Response::Ack(1));
    }
}

/// A mixed fleet — N `V2Client`s, which a loopback address puts on the
/// local socket, and N raw TCP peers — runs one decide/report trace
/// against one daemon: every decision and the final table equal the
/// sequential reference, and the daemon counted 2N accepts, N of them
/// local. No switch forces either transport: the caller named the
/// server, the client picked the socket. On both reactor backends.
#[test]
fn mixed_transport_fleet_matches_reference() {
    const PER_KIND: usize = 8;
    const ROUNDS: usize = 10;
    for backend in [BackendKind::default(), BackendKind::Poll] {
        let daemon = spawn(
            EngineConfig { shards: 8, batch: 4 },
            ServerConfig { workers: 4, backend, ..ServerConfig::default() },
        );
        let addr = daemon.addr();
        let engine = daemon.engine().clone();
        let mut reference = Reference::new();
        let expected =
            APPS.map(|app| (reference.decide(app, 2, true), reference.decide(app, 200, true)));
        // Everyone decides against the quiescent table, then (all
        // decides done) reports; the connections stay open until the
        // counters were read, so `accepted` is exact. Reading them is
        // the last client's job, and itself a connection: a legacy
        // text one, so TCP.
        let decided = std::sync::Barrier::new(2 * PER_KIND);
        let counted = std::sync::Barrier::new(2 * PER_KIND + 1);
        let mut results = fleet(2 * PER_KIND + 1, |c| {
            if c == 2 * PER_KIND {
                wait_until(&format!("{backend:?}: the fleet to finish its decides"), || {
                    engine.metrics_total().decides >= (2 * PER_KIND * ROUNDS * 2) as u64
                });
                let dump = text_query(addr, "DUMP\n");
                counted.wait();
                return (Vec::new(), dump);
            }
            let app = APPS[c % APPS.len()];
            let mut got = Vec::with_capacity(ROUNDS);
            if c < PER_KIND {
                let mut cl = V2Client::connect(addr).unwrap();
                for _ in 0..ROUNDS {
                    got.push((
                        cl.decide(app, "k", 2, true).unwrap(),
                        cl.decide(app, "k", 200, true).unwrap(),
                    ));
                }
                decided.wait();
                for _ in 0..ROUNDS {
                    cl.report(app, Target::Fpga, 1e9, 2).unwrap();
                }
                counted.wait();
            } else {
                let mut cl = RawV2::connect(addr, Transport::Tcp);
                for _ in 0..ROUNDS {
                    got.push((cl.decide(app, 2), cl.decide(app, 200)));
                }
                decided.wait();
                for _ in 0..ROUNDS {
                    cl.report(app, Target::Fpga, 1e9, 2);
                }
                counted.wait();
            }
            (got, String::new())
        });
        let (_, dump) = results.pop().unwrap();
        for (c, (got, _)) in results.into_iter().enumerate() {
            for pair in got {
                assert_eq!(pair, expected[c % APPS.len()], "{backend:?}: client {c}");
            }
        }
        let line = |tag: u16| {
            let prefix = format!("xar_{} ", obs::tag_name(tag).unwrap());
            let l = dump.lines().find(|l| l.starts_with(&prefix)).expect("counter in DUMP");
            l[prefix.len()..].parse::<u64>().unwrap()
        };
        let local_kind = if Transport::ALL.contains(&Transport::Local) { PER_KIND } else { 0 };
        assert_eq!(line(obs::tags::ACCEPTED_CONNS), 2 * PER_KIND as u64 + 1, "{backend:?}");
        assert_eq!(line(obs::tags::ACCEPTED_LOCAL_CONNS), local_kind as u64, "{backend:?}");

        // The same reports, one after another.
        for c in 0..2 * PER_KIND {
            reference.report_n(ROUNDS, APPS[c % APPS.len()], Target::Fpga, 1e9, 2);
        }
        daemon.engine().flush();
        reference.assert_table_eq(
            daemon.engine().table(),
            format_args!("{backend:?}: identical convergence"),
        );
        daemon.shutdown();
    }
}

/// Fallback: a loopback port with only a TCP listener behind it — the
/// `xar-chaos` proxy, or any TCP-only peer — is reached over TCP by the
/// very same `V2Client::connect`, and `connect_with`'s deadlines still
/// fire on that path.
#[test]
fn loopback_dial_falls_back_to_tcp_without_a_local_listener() {
    use xar_chaos::{ChaosProxy, FaultPlan};
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let proxy = ChaosProxy::spawn(daemon.addr(), FaultPlan::passthrough()).unwrap();
    let mut via_proxy = V2Client::connect(proxy.addr()).unwrap();
    assert_eq!(via_proxy.ping(11).unwrap(), 11);
    assert_eq!(proxy.connections(), 1, "the client bypassed the proxy");
    // The daemon saw the proxy's upstream TCP connection, nothing local.
    assert_eq!(stat(&mut via_proxy, obs::tags::ACCEPTED_CONNS), 1);
    assert_eq!(stat(&mut via_proxy, obs::tags::ACCEPTED_LOCAL_CONNS), 0);
    drop(via_proxy);

    // A TCP-only peer that accepts and then says nothing: the local
    // dial fails at once, TCP connects, and the handshake read gives up
    // at the deadline instead of hanging.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let started = std::time::Instant::now();
    let timeout = std::time::Duration::from_millis(200);
    let err = V2Client::connect_with(mute.local_addr().unwrap(), Some(timeout), Some(timeout))
        .unwrap_err();
    assert!(err.to_string().contains("no v2 handshake"), "{err}");
    assert!(started.elapsed() >= timeout, "gave up before the deadline");
    assert!(started.elapsed() < std::time::Duration::from_secs(5), "deadline did not fire");
    assert!(mute.accept().is_ok(), "the fallback never reached the TCP listener");
    daemon.shutdown();
}

/// A quarantine earned over the local socket bans the loopback
/// address: the offender's next connect is refused on the local socket
/// *and* over TCP, while a connection admitted earlier keeps working.
#[cfg(target_os = "linux")]
#[test]
fn quarantine_earned_on_the_local_socket_refuses_both_transports() {
    let daemon = spawn(
        EngineConfig::default(),
        ServerConfig { quarantine_errors: 2, quarantine_secs: 60, ..ServerConfig::default() },
    );
    let addr = daemon.addr();
    let mut innocent = V2Client::connect(addr).unwrap();

    let mut offender = dial(addr, Transport::Local);
    offender.set_read_timeout(std::time::Duration::from_secs(10));
    offend(&mut offender, 2);
    assert_eq!(stat(&mut innocent, obs::tags::QUARANTINES), 1);

    for transport in Transport::ALL {
        let mut again = dial(addr, transport);
        again.set_read_timeout(std::time::Duration::from_secs(10));
        assert_refused(&mut again, transport);
    }
    assert!(V2Client::connect(addr).is_err(), "the client library got past the ban");
    assert_eq!(innocent.ping(3).unwrap(), 3, "established connection killed by the quarantine");
    assert_eq!(stat(&mut innocent, obs::tags::REJECTED_CONNS), 3, "one per refused connect");
    daemon.shutdown();
}

/// The local name is part of the daemon's address: with
/// `xar-sched:<port>` squatted a spawn on that port fails `AddrInUse`
/// like a taken TCP port — before any thread exists, leaving the TCP
/// port free — and a killed daemon's name is free for its successor at
/// once.
#[cfg(target_os = "linux")]
#[test]
fn squatted_local_name_fails_spawn_and_a_kill_frees_it_at_once() {
    use std::os::linux::net::SocketAddrExt;
    use std::sync::atomic::{AtomicBool, Ordering};
    use xar_trek::core::server::spawn_sharded_at;

    /// Sets its flag when dropped: the engine (hence every thread that
    /// would hold it) is gone.
    struct Tracked(Arc<AtomicBool>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    impl xar_trek::sched::PolicyCore for Tracked {
        type Snap = ();
        fn snapshot(&self) -> Self::Snap {}
        fn decide(_snap: &Self::Snap, _ctx: &DecideCtx<'_>, _hash: u64) -> Decision {
            Decision::to(Target::X86)
        }
        fn apply(&mut self, _report: &CompletionReport<'_>, _hash: u64) {}
        fn entries(&self) -> Vec<xar_trek::sched::TableEntry> {
            Vec::new()
        }
    }

    // A port below the ephemeral range (32768 up, by default): while
    // its name is squatted no concurrently running test's daemon can be
    // dealt it by a `bind(0)`.
    let addr = (20_000 + std::process::id() as u16 % 8_000..28_000)
        .map(|port| std::net::SocketAddr::from(([127, 0, 0, 1], port)))
        .find(|addr| std::net::TcpListener::bind(addr).is_ok())
        .expect("a free port below the ephemeral range");
    let name = xar_trek::sched::local_name(addr.port());
    let squatter = std::os::unix::net::UnixListener::bind_addr(
        &std::os::unix::net::SocketAddr::from_abstract_name(&name).unwrap(),
    )
    .unwrap();

    let dropped = Arc::new(AtomicBool::new(false));
    let engine = xar_trek::sched::ShardedEngine::from_shards(vec![Tracked(dropped.clone())], 1);
    let err = match xar_trek::sched::Server::spawn_at(engine, ServerConfig::default(), addr) {
        Err(e) => e,
        Ok(_) => panic!("spawned over a squatted local name"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert!(dropped.load(Ordering::SeqCst), "a thread outlived the failed spawn");
    let err =
        spawn_sharded_at(&paper_policy(), EngineConfig::default(), ServerConfig::default(), addr)
            .err()
            .expect("spawned over a squatted local name");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The failed spawns left the TCP port free.
    drop(std::net::TcpListener::bind(addr).expect("TCP port leaked by the failed spawn"));

    // Name released: the spawn goes through, and a kill (no drain, no
    // snapshot) hands both the port and the name to the next daemon.
    drop(squatter);
    let first =
        spawn_sharded_at(&paper_policy(), EngineConfig::default(), ServerConfig::default(), addr)
            .unwrap();
    let mut cl = V2Client::connect(addr).unwrap();
    assert_eq!(stat(&mut cl, obs::tags::ACCEPTED_LOCAL_CONNS), 1);
    drop(cl);
    first.kill();
    let second =
        spawn_sharded_at(&paper_policy(), EngineConfig::default(), ServerConfig::default(), addr)
            .expect("a killed daemon's port or name was still held");
    let mut cl = V2Client::connect(addr).unwrap();
    assert_eq!(stat(&mut cl, obs::tags::ACCEPTED_LOCAL_CONNS), 1, "reconnected over TCP");
    second.shutdown();
}

/// The one answer a too-long name gets from a client door.
fn assert_invalid_input<T: std::fmt::Debug>(r: std::io::Result<T>, door: &str) {
    let err = r.expect_err(door);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{door}: {err}");
}

/// A name the wire's u16 length prefix cannot carry is refused by
/// every client door that sends one, before a byte is written. Sent,
/// its length would wrap and the daemon would mis-frame the request:
/// an `R_ERR`, a protocol error counted toward quarantining the peer's
/// address (127.0.0.1 for every local client). Refused, the daemon sees
/// nothing and the same connection keeps answering.
#[test]
fn a_name_over_u16_is_refused_before_a_byte_is_written() {
    let daemon = spawn(EngineConfig::default(), ServerConfig::default());
    let long = "A".repeat(65_540);
    let query = |app, kernel| wire::WireQuery {
        app,
        kernel,
        x86_load: 3,
        arm_load: 0,
        kernel_resident: true,
        device_ready: true,
    };
    let report = wire::WireReport { app: &long, target: Target::X86, func_ms: 1.0, x86_load: 1 };
    let owned = [common::slow_fpga("Digit2000"), common::slow_fpga(&long)];

    let mut c = V2Client::connect(daemon.addr()).unwrap();
    let before = (stat(&mut c, obs::tags::PROTOCOL_ERRORS), stat(&mut c, obs::tags::DECIDES));
    assert_invalid_input(c.decide(&long, "k", 1, true), "decide");
    assert_invalid_input(c.decide_with("Digit2000", &long, 1, 0, true, true), "decide_with");
    let batch = [query("Digit2000", "k"), query(&long, "k")];
    assert_invalid_input(c.decide_batch(&batch), "decide_batch");
    assert_invalid_input(c.report(&long, Target::X86, 1.0, 1), "report");
    assert_invalid_input(c.report_batch(&owned), "report_batch");
    assert_eq!(c.hello_session(5).unwrap(), 0);
    assert_invalid_input(c.report_batch_seq(5, 1, &[report]), "report_batch_seq");
    assert_eq!(c.ping(7).unwrap(), 7, "the connection is still in step");

    let mut r = common::resilient(daemon.addr(), 9, 1);
    assert_invalid_input(r.decide(&long, "k", 1, true), "resilient decide");
    assert_invalid_input(r.report_batch(&owned), "resilient report_batch");
    assert_eq!(r.ping(8).unwrap(), 8);

    daemon.engine().flush();
    let after = (stat(&mut c, obs::tags::PROTOCOL_ERRORS), stat(&mut c, obs::tags::DECIDES));
    assert_eq!(after, before, "(protocol errors, decides): the daemon saw none of it");
    Reference::new().assert_table_eq(daemon.engine().table(), "nothing was ingested");
}

/// A v1 line over `MAX_V1_LINE` gets `ERR`, a protocol error and a
/// close even when its newline comes in the same write as the bytes
/// over the cap. Parsed, this one's name (one byte over u16) would
/// reach the WAL encoder's assert and take a durable daemon's only
/// worker down.
#[test]
fn a_v1_line_over_the_cap_answers_err_and_the_worker_survives() {
    use xar_trek::sched::FsyncPolicy;
    let dir = common::scratch_dir("v1-cap");
    let config = ServerConfig { workers: 1, ..common::durable(&dir, FsyncPolicy::Off, 0) };
    let daemon = spawn(EngineConfig::default(), config);
    let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let line = format!("REPORT {} x86 1 1\n", "A".repeat(wire::MAX_NAME + 1));
    assert!(line.len() - 1 > wire::MAX_V1_LINE);
    s.write_all(line.as_bytes()).unwrap();
    let mut reply = Vec::new();
    let _ = s.read_to_end(&mut reply); // EOF, or a reset: the rest went unread
    assert_eq!(String::from_utf8_lossy(&reply), "ERR\n");
    let mut c = V2Client::connect(daemon.addr()).unwrap();
    assert_eq!(c.ping(1).unwrap(), 1, "a fresh connection is served");
    assert_eq!(stat(&mut c, obs::tags::PROTOCOL_ERRORS), 1);
    assert_eq!(stat(&mut c, obs::tags::REPORTS), 0, "the line was parsed");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// TABLE on a table over one frame's u16 row count answers `R_ERR`:
/// encoding it would trip the encoder's assert inside the worker, and
/// with one worker nobody would serve again.
#[test]
fn a_table_over_one_frame_answers_err_and_the_worker_survives() {
    use xar_trek::core::server::spawn_sharded;
    use xar_trek::core::thresholds::{ThresholdEntry, ThresholdTable};
    use xar_trek::core::XarTrekPolicy;
    let mut table = ThresholdTable::new();
    for i in 0..70_000 {
        let app = format!("app-{i:06}");
        table.insert(ThresholdEntry { app, kernel: "K".into(), fpga_thr: 1, arm_thr: 2 });
    }
    let policy = XarTrekPolicy::new(table, Default::default());
    let one_worker = ServerConfig { workers: 1, ..ServerConfig::default() };
    let daemon = spawn_sharded(&policy, EngineConfig::default(), one_worker).unwrap();

    let mut c = V2Client::connect(daemon.addr()).unwrap();
    let err = c.fetch_table().unwrap_err().to_string();
    assert!(err.contains("table of 70000 rows exceeds one TABLE frame"), "{err}");
    assert_eq!(c.ping(1).unwrap(), 1, "the connection survives");
    assert_eq!(V2Client::connect(daemon.addr()).unwrap().ping(2).unwrap(), 2, "so does the worker");
    assert_eq!(stat(&mut c, obs::tags::PROTOCOL_ERRORS), 0, "a refusal, not a protocol error");
}
