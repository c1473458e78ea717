//! End-to-end resilience under deterministic chaos.
//!
//! A 32-client fleet reports through an `xar-chaos` fault-injection
//! proxy — connections cut mid-handshake and mid-frame, replies lost
//! or black-holed, streams split and slow-dripped — and must converge
//! to a threshold table **bit-identical** to the fault-free sequential
//! reference, with every report ingested exactly once. Every failure
//! message carries the plan's `xchaos1:` token, so a red run is
//! replayed with `XCHAOS_SEED=<token> cargo test ...`.
//!
//! Two daemon-side degradation paths ride along: overload shedding
//! (`R_BUSY` for workload ops while the control plane stays served)
//! and quarantine of repeat protocol offenders.

mod common;

use common::{
    assert_conserved, assert_refused, offend, read_replies, reference_reporters, reporter_fleet,
    spawn, table_requests, Reference,
};
use std::io::Write;
use std::time::Duration;
use xar_chaos::{ChaosProxy, FaultPlan};
use xar_trek::core::server::{EngineConfig, ServerConfig, V2Client};
use xar_trek::sched::{obs, wire};

const CLIENTS: usize = 32;
const REPORTS: usize = 8;

/// The tentpole invariant: a chaos-battered fleet converges to the
/// fault-free table, ingests nothing twice, and the daemon's replay
/// counter balances the fleet's dedup counters exactly.
#[test]
fn fleet_converges_bit_identically_under_chaos() {
    for plan in common::chaos_plans() {
        fleet_run(plan);
    }
}

fn fleet_run(plan: FaultPlan) {
    let tok = plan.token();
    let daemon = spawn(
        EngineConfig { shards: 8, batch: 4 },
        ServerConfig { workers: 4, ..ServerConfig::default() },
    );
    let proxy = ChaosProxy::spawn(daemon.addr(), plan).unwrap();
    // Unique nonzero session (and jitter stream) per logical reporter;
    // nothing lost is checked per client inside the fleet.
    let tally = reporter_fleet(proxy.addr(), &tok, CLIENTS, REPORTS, 1);

    // The plan injects faults on roughly half of all connections, so a
    // 32-client fleet that never reconnected means the proxy was not
    // actually in the path.
    assert!(tally.reconnects > 0, "[replay {tok}] no chaos engaged across {CLIENTS} clients");

    // The fault-free reference: the same reports applied sequentially.
    let mut reference = Reference::new();
    reference_reporters(&mut reference, CLIENTS, REPORTS);
    daemon.engine().flush();
    reference.assert_table_eq(
        daemon.engine().table(),
        format_args!("[replay {tok}] chaos table diverged from the fault-free reference"),
    );

    // Exactly-once, both ways — nothing lost, nothing double-ingested —
    // and the ledger balanced over the whole fleet: every server-side
    // replay is one client-side dedup.
    assert_eq!(tally.reports, (CLIENTS * REPORTS) as u64);
    let stats = assert_conserved(&daemon, tally, &format!("[replay {tok}]"));
    assert_eq!(
        stats.get(obs::tags::SESSIONS_OPENED),
        Some(CLIENTS as u64),
        "[replay {tok}] every client opens exactly one session"
    );
    drop(proxy);
    daemon.shutdown();
}

/// Overload shedding: workload requests processed behind an outbuf
/// backlog get `R_BUSY` with the configured retry hint, the control
/// plane is never shed, and the daemon serves workload again the
/// moment the backlog drains.
#[test]
fn shedding_turns_workload_away_but_never_the_control_plane() {
    const TABLES: usize = 64;
    const DECIDES: usize = 64;
    let daemon = spawn(
        EngineConfig::default(),
        ServerConfig {
            // Any decide processed with >64 reply bytes still pending
            // is shed; one table reply (5 rows) is several times that.
            shed_outbuf_bytes: 64,
            shed_retry_after_ms: 7,
            ..ServerConfig::default()
        },
    );
    let mut s = std::net::TcpStream::connect(daemon.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    // One write, so the whole burst lands in one processing drain:
    // table replies pile up in the outbuf (no flush between frames of
    // a drain), and the decides behind them must see the backlog.
    let mut reqs = wire::handshake(wire::VERSION).to_vec();
    reqs.extend(table_requests(TABLES));
    for _ in 0..DECIDES {
        wire::encode_request(
            &wire::Request::Decide {
                app: "Digit2000",
                kernel: "k",
                x86_load: 2,
                arm_load: 0,
                kernel_resident: true,
                device_ready: true,
            },
            &mut reqs,
        );
    }
    // Control plane rides at the very back of the same burst: it must
    // be answered, not shed, whatever the backlog.
    wire::encode_request(&wire::Request::Ping(42), &mut reqs);
    s.write_all(&reqs).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut replies = Vec::new();
    read_replies(&mut s, TABLES + DECIDES + 1, |_, reply| {
        replies.push(match reply {
            wire::Response::Table(e) => format!("TABLE {}", e.len()),
            wire::Response::Decide { .. } => "DECIDE".into(),
            wire::Response::Busy { retry_after_ms } => format!("BUSY {retry_after_ms}"),
            wire::Response::Pong(n) => format!("PONG {n}"),
            other => format!("{other:?}"),
        })
    });
    let tables = replies.iter().filter(|r| r.starts_with("TABLE")).count();
    let decided = replies.iter().filter(|r| *r == "DECIDE").count();
    let busy = replies.iter().filter(|r| r.starts_with("BUSY")).count();
    assert_eq!(tables, TABLES, "control-plane reads must never be shed: {replies:?}");
    assert_eq!(replies.last().unwrap(), "PONG 42", "ping behind the backlog was shed");
    assert_eq!(decided + busy, DECIDES);
    assert!(busy > 0, "no decide saw the {TABLES}-table backlog");
    assert!(replies.iter().any(|r| r == "BUSY 7"), "retry hint not forwarded: {replies:?}");
    // Backlog drained (we read everything): workload is served again.
    let mut cl = V2Client::connect(daemon.addr()).unwrap();
    cl.decide("Digit2000", "k", 2, true).expect("shed state leaked past the backlog");
    let stats = cl.stats_v2().unwrap();
    assert_eq!(stats.get(obs::tags::SHED_BUSY), Some(busy as u64));
    daemon.shutdown();
}

/// Quarantine: a peer that keeps sending malformed frames is cut off
/// at the configured threshold and its address refused at accept,
/// while established connections keep working.
#[test]
fn repeat_protocol_offenders_are_quarantined() {
    let daemon = spawn(
        EngineConfig::default(),
        ServerConfig { quarantine_errors: 2, ..ServerConfig::default() },
    );
    // Admitted before the offense: the quarantine gate is at accept,
    // so this connection must keep being served throughout.
    let mut innocent = V2Client::connect(daemon.addr()).unwrap();

    // The offender is cut off once the threshold trips.
    let mut offender = std::net::TcpStream::connect(daemon.addr()).unwrap();
    offender.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    offend(&mut offender, 2);

    let mut again = std::net::TcpStream::connect(daemon.addr()).unwrap();
    again.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_refused(&mut again, "tcp");

    assert_eq!(innocent.ping(3).unwrap(), 3, "established connection killed by the quarantine");
    let stats = innocent.stats_v2().unwrap();
    assert_eq!(stats.get(obs::tags::QUARANTINES), Some(1));
    assert!(stats.get(obs::tags::PROTOCOL_ERRORS).unwrap() >= 2);
    assert!(stats.get(obs::tags::REJECTED_CONNS).unwrap() >= 1, "the re-connect was not counted");
    daemon.shutdown();
}
