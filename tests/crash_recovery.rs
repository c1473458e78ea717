//! Durable daemon crash recovery, end to end.
//!
//! A durable daemon (`ServerConfig::durability`) journals every acked
//! report batch to a WAL and checkpoints threshold rows + session
//! marks in snapshots. These tests kill it abruptly (`Server::kill`,
//! the in-process `kill -9`: threads stop, nothing flushes, nothing
//! snapshots), restart on the same directory, and hold the durability
//! contract to the same bar the live chaos suite holds the network
//! path:
//!
//! * the recovered threshold table is **bit-identical** to a
//!   fault-free sequential reference;
//! * every acked report is ingested **exactly once** across the crash
//!   (recovery replay counts as the one ingestion);
//! * the `REPLAYED_BATCHES == Σ client dedups` conservation law keeps
//!   balancing across the restart boundary;
//! * a WAL whose tail is torn at **any byte offset** recovers the
//!   longest valid prefix.
//!
//! Chaos-driven tests carry the plan's `xchaos1:` token in every
//! failure message (replay with `XCHAOS_SEED=<token>`), and red
//! assertions print the durability directory layout — the exact
//! on-disk state recovery had to work with.

mod common;

use common::{
    assert_conserved, paper_policy, reference_reporters, reporter_fleet, resilient, scratch_dir,
    slow_fpga, spawn, stat, wait_until, Reference, Tally,
};
use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;
use xar_chaos::{ChaosProxy, FaultPlan};
use xar_trek::core::server::{
    spawn_sharded, spawn_sharded_at, EngineConfig, ServerConfig, ShardedSchedulerServer, V2Client,
};
use xar_trek::desim::Target;
use xar_trek::sched::client::Served;
use xar_trek::sched::{obs, wire, FsyncPolicy};

const CLIENTS: usize = 32;
/// Reports per client before the kill / after the restart.
const PHASE1: usize = 4;
const PHASE2: usize = 4;

/// The on-disk layout for failure messages: what recovery actually
/// had to work with (segment and snapshot names + sizes).
fn dir_layout(dir: &Path) -> String {
    let mut rows = vec![format!("durability dir {}:", dir.display())];
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            let mut names: Vec<String> = entries
                .flatten()
                .map(|e| {
                    let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                    format!("  {} ({len} bytes)", e.file_name().to_string_lossy())
                })
                .collect();
            names.sort();
            rows.extend(names);
        }
        Err(e) => rows.push(format!("  <unreadable: {e}>")),
    }
    rows.join("\n")
}

/// A durable server config: WAL fsync on every append (the crash tests
/// assert that every *acked* report survives, which needs `Always`).
fn durable(dir: &Path, snapshot_every: u64) -> ServerConfig {
    common::durable(dir, FsyncPolicy::Always, snapshot_every)
}

/// The tentpole invariant: a chaos-battered fleet whose daemon is
/// killed mid-campaign and restarted on the same directory converges
/// to the never-crashed sequential reference, bit-identically, with
/// zero double-ingest and the replay ledger still balanced.
#[test]
fn chaos_fleet_survives_abrupt_kill_bit_identically() {
    for plan in common::chaos_plans() {
        kill_run(plan);
    }
}

fn kill_run(plan: FaultPlan) {
    let tok = plan.token();
    let dir = scratch_dir("fleet");
    // snapshot_every well below the phase-1 record count, so a
    // maintenance tick usually checkpoints mid-campaign and recovery
    // exercises snapshot + WAL-suffix (not just cold replay).
    let daemon = spawn(
        EngineConfig { shards: 8, batch: 4 },
        ServerConfig { workers: 4, ..durable(&dir, 48) },
    );
    // Sessions are keyed by client index, so a phase-2 client resumes
    // the session its phase-1 predecessor opened (hello fast-forwards
    // its seq past the recovered high-water mark).
    let proxy = ChaosProxy::spawn(daemon.addr(), plan).unwrap();
    let phase1 = reporter_fleet(proxy.addr(), &tok, CLIENTS, PHASE1, 1);
    drop(proxy);

    // Abrupt kill: no flush, no final snapshot. The disk holds only
    // what the WAL (and any mid-campaign checkpoint) already has.
    daemon.kill();

    // Restart from a *fresh* policy on the same directory: every
    // threshold row and session mark must come back from disk.
    let daemon = spawn_sharded(
        &paper_policy(),
        EngineConfig { shards: 8, batch: 4 },
        ServerConfig { workers: 4, ..durable(&dir, 48) },
    )
    .unwrap_or_else(|e| {
        panic!("[replay {tok}] restart on {} failed: {e}\n{}", dir.display(), dir_layout(&dir))
    });
    let rec = daemon.recovery();
    // Per-boot metrics right after recovery: snapshot-restored rows
    // don't re-count, WAL-suffix replays do — so this is at most the
    // phase-1 total, and the phase-2 delta below must be exact.
    daemon.engine().flush();
    let recovered_reports = daemon.engine().metrics_total().reports;
    assert!(
        recovered_reports <= (CLIENTS * PHASE1) as u64,
        "[replay {tok}] recovery replayed more reports than were ever acked\n{}",
        dir_layout(&dir)
    );
    let proxy = ChaosProxy::spawn(daemon.addr(), plan).unwrap();
    let phase2 = reporter_fleet(proxy.addr(), &tok, CLIENTS, PHASE2, 101);
    drop(proxy);

    // Bit-identity against the never-crashed reference: the same
    // reports applied sequentially to one policy instance.
    let mut reference = Reference::new();
    reference_reporters(&mut reference, CLIENTS, PHASE1 + PHASE2);
    daemon.engine().flush();
    reference.assert_table_eq(
        daemon.engine().table(),
        format_args!(
            "[replay {tok}] recovered table diverged from the never-crashed reference \
             (recovery: snapshot@{} +{} records, {} torn repairs)\n{}",
            rec.snapshot_watermark,
            rec.replayed_records,
            rec.torn_truncations,
            dir_layout(&dir)
        ),
    );

    // Exactly-once across the crash. Phase-1 exactness is the
    // bit-identity above (each report is a commutative +1: a loss or
    // a double-ingest would miss the reference). Phase 2 must have
    // ingested exactly its own reports on top of the recovered state —
    // chaos-driven retry replays deduped, nothing counted twice. And
    // conservation across the boundary: the daemon's replay counter
    // (recovered from the snapshot + ReplayNote records, then advanced
    // live) still equals the fleet's client-side dedup count.
    let tally = Tally {
        decides: 0,
        reports: recovered_reports + phase2.reports,
        deduped_batches: phase1.deduped_batches + phase2.deduped_batches,
        reconnects: phase1.reconnects + phase2.reconnects,
    };
    assert_conserved(
        &daemon,
        tally,
        &format!(
            "[replay {tok}] across the restart (recovered {recovered_reports}, \
             phase1 dedups {} + phase2 dedups {})\n{}",
            phase1.deduped_batches,
            phase2.deduped_batches,
            dir_layout(&dir)
        ),
    );
    // And every session's high-water mark advanced by exactly its
    // batch count: no stamp lost, none burned twice.
    let mut direct = V2Client::connect(daemon.addr()).unwrap();
    for c in 0..CLIENTS {
        assert_eq!(
            direct.hello_session(c as u64 + 1).unwrap(),
            (PHASE1 + PHASE2) as u64,
            "[replay {tok}] session {} mark drifted across the restart\n{}",
            c + 1,
            dir_layout(&dir)
        );
    }
    assert!(tally.reconnects > 0, "[replay {tok}] no chaos engaged across {CLIENTS} clients");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart-safe exactly-once, distilled: a seq-stamped batch whose ack
/// the client lost is re-sent across a kill + restart on the same
/// directory and counts **once** — and a live `ResilientClient`
/// rides through the restart at the same address transparently.
///
/// The flip side is documented too: restarting on a **fresh**
/// directory resets the session universe. Dedup marks live in the
/// durability dir; a new dir is a new daemon identity, and a replayed
/// stamp against it is (correctly) ingested fresh.
#[test]
fn replayed_seq_batch_across_restart_counts_once() {
    let dir = scratch_dir("replay");
    let daemon = spawn(EngineConfig::default(), durable(&dir, 4096));
    let addr = daemon.addr();

    // A resilient reporter ships seq 1 and gets its ack.
    let mut rc = resilient(addr, 7, 7);
    assert_eq!(rc.report_batch(std::slice::from_ref(&slow_fpga("Digit2000"))).unwrap(), 1);

    daemon.kill();
    let daemon = respawn_at(&dir, addr);

    // The recovered session mark is visible to a fresh connection…
    let mut raw = V2Client::connect(addr).unwrap();
    assert_eq!(
        raw.hello_session(7).unwrap(),
        1,
        "session high-water mark not recovered\n{}",
        dir_layout(&dir)
    );
    // …and re-sending the same stamp (the ack-was-lost retry) is acked
    // as a replay, not re-ingested.
    let wire_report =
        wire::WireReport { app: "Digit2000", target: Target::Fpga, func_ms: 1e9, x86_load: 2 };
    match raw.report_batch_seq(7, 1, std::slice::from_ref(&wire_report)).unwrap() {
        Served::Done(n) => {
            assert_eq!(n, 0, "replayed stamp re-ingested after restart\n{}", dir_layout(&dir))
        }
        other => panic!("unexpected answer to replayed stamp: {other:?}"),
    }

    // The original client object survives the restart: its connection
    // died with the old daemon, so the next batch reconnects, resyncs
    // the session, and lands fresh as seq 2.
    assert_eq!(rc.report_batch(std::slice::from_ref(&slow_fpga("Digit2000"))).unwrap(), 1);

    // Exactly once, end to end: seq 1 was ingested by recovery replay,
    // seq 2 live; the cross-restart retry added nothing.
    let tally = Tally { reports: 2, deduped_batches: 1, ..Tally::default() };
    assert_conserved(&daemon, tally, &dir_layout(&dir));

    // Fresh-dir session reset: same address, new directory — the
    // session universe starts over and the old stamp is fresh again.
    daemon.kill();
    let fresh = scratch_dir("replay-fresh");
    let daemon = respawn_at(&fresh, addr);
    let mut raw = V2Client::connect(addr).unwrap();
    assert_eq!(raw.hello_session(7).unwrap(), 0, "fresh dir must reset session marks");
    match raw.report_batch_seq(7, 1, std::slice::from_ref(&wire_report)).unwrap() {
        Served::Done(n) => assert_eq!(n, 1, "fresh dir: old stamp is a new batch"),
        other => panic!("unexpected answer on fresh dir: {other:?}"),
    }
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

/// Graceful drain: `shutdown()` flushes the engine and writes a final
/// snapshot, so reopening the directory replays **zero** WAL records,
/// restores the identical table and session marks, and any socket
/// still open against the old daemon reads EOF (drained, not wedged).
#[test]
fn clean_shutdown_snapshot_leaves_nothing_to_replay() {
    let dir = scratch_dir("drain");
    let daemon = spawn(EngineConfig::default(), durable(&dir, 4096));

    let mut rc = resilient(daemon.addr(), 3, 3);
    for _ in 0..8 {
        assert_eq!(rc.report_batch(std::slice::from_ref(&slow_fpga("FaceDet320"))).unwrap(), 1);
    }
    daemon.engine().flush();
    let mut reference = Reference::new();
    reference.report_n(8, "FaceDet320", Target::Fpga, 1e9, 2);
    reference.assert_table_eq(daemon.engine().table(), "before the drain");

    // A connection left open across the drain: the daemon must close
    // it out (EOF/reset), not leave it hanging on a dead socket.
    let mut idle = std::net::TcpStream::connect(daemon.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    daemon.shutdown();
    let mut scratch = [0u8; 256];
    loop {
        match idle.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {} // handshake echo bytes before the close
        }
    }

    let daemon = spawn(EngineConfig::default(), durable(&dir, 4096));
    let rec = daemon.recovery();
    assert_eq!(
        rec.replayed_records,
        0,
        "clean shutdown must leave the WAL fully covered by the snapshot\n{}",
        dir_layout(&dir)
    );
    assert!(rec.snapshot_watermark > 0, "no final snapshot written\n{}", dir_layout(&dir));
    reference.assert_table_eq(
        daemon.engine().table(),
        format_args!("snapshot-recovered table differs\n{}", dir_layout(&dir)),
    );
    let mut raw = V2Client::connect(daemon.addr()).unwrap();
    assert_eq!(raw.hello_session(3).unwrap(), 8, "session mark lost across clean shutdown");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `flush_interval = 0` takes the stranded-report sweep off the
/// maintenance tick and nothing else: the durability heartbeat — the
/// only fsync under `FsyncPolicy::IntervalMs`, and `snapshot_every` —
/// keeps ticking. (It used to disarm the timer, silently turning both
/// off.)
#[test]
fn zero_flush_interval_keeps_the_durability_heartbeat() {
    let dir = scratch_dir("heartbeat");
    let config = ServerConfig {
        flush_interval: Duration::ZERO,
        ..common::durable(&dir, FsyncPolicy::IntervalMs(5), 1)
    };
    let daemon = spawn(EngineConfig::default(), config);
    let mut cl = V2Client::connect(daemon.addr()).unwrap();
    cl.hello_session(5).unwrap();
    let report =
        wire::WireReport { app: "Digit500", target: Target::Fpga, func_ms: 1e9, x86_load: 2 };
    assert_eq!(cl.report_batch_seq(5, 1, &[report]).unwrap(), Served::Done(1));
    assert!(stat(&mut cl, obs::tags::WAL_APPENDS) >= 1, "the acked batch was not journaled");
    // One record is past `snapshot_every`, and no further report will
    // come: only the tick can write the snapshot.
    wait_until("the maintenance tick to write the due snapshot", || {
        stat(&mut cl, obs::tags::SNAPSHOTS_WRITTEN) >= 1
    });
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The torn-log tests' trace: session 9 ships `batches` seq-stamped
/// one-report batches (a slow FPGA run of Digit500 each).
fn seq_trace(daemon: &ShardedSchedulerServer, batches: u64) {
    let mut raw = V2Client::connect(daemon.addr()).unwrap();
    raw.hello_session(9).unwrap();
    let wire_report =
        wire::WireReport { app: "Digit500", target: Target::Fpga, func_ms: 1e9, x86_load: 2 };
    for seq in 1..=batches {
        match raw.report_batch_seq(9, seq, std::slice::from_ref(&wire_report)).unwrap() {
            Served::Done(1) => {}
            other => panic!("batch {seq} not ingested: {other:?}"),
        }
    }
}

/// What a log holding the first `batches` records of [`seq_trace`]
/// must recover to.
fn seq_reference(batches: u64) -> Reference {
    let mut reference = Reference::new();
    reference.report_n(batches as usize, "Digit500", Target::Fpga, 1e9, 2);
    reference
}

/// Torn-tail recovery against the full daemon: the WAL of a killed
/// daemon is truncated at a sweep of byte offsets (simulating a crash
/// torn mid-write at that point), and every cut must recover exactly
/// the longest valid record prefix — threshold bump and session
/// high-water mark both equal to the number of complete seq batches
/// before the cut.
#[test]
fn torn_wal_tail_recovers_longest_valid_prefix() {
    const BATCHES: u64 = 6;
    let dir = scratch_dir("torn");
    // Huge snapshot_every: recovery must come from the WAL alone.
    let daemon = spawn(EngineConfig::default(), durable(&dir, u64::MAX / 2));
    seq_trace(&daemon, BATCHES);
    daemon.kill();

    // The single WAL segment, parsed into frame boundaries so each cut
    // knows how many *complete* seq-batch records precede it (engine
    // flush may interleave RowDeltas records; those are journaled but
    // skipped on recovery).
    let wal_name = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .unwrap_or_else(|| panic!("no WAL segment\n{}", dir_layout(&dir)));
    let wal = std::fs::read(dir.join(&wal_name)).unwrap();
    // (end offset, is_seq_batch) per complete frame, in order.
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off + 8 <= wal.len() {
        let len = u32::from_le_bytes(wal[off..off + 4].try_into().unwrap()) as usize;
        if off + 8 + len > wal.len() {
            break;
        }
        frames.push((off + 8 + len, wal[off + 8] == 2));
        off += 8 + len;
    }
    assert_eq!(frames.iter().filter(|(_, seq)| *seq).count() as u64, BATCHES);

    // Cut offsets: a stride sweep plus every frame boundary ±1 (the
    // dur crate's proptests cover literally-every-offset at the WAL
    // layer; this sweep drives the same cuts through full daemon
    // recovery).
    let mut cuts: Vec<usize> = (0..=wal.len()).step_by(13).collect();
    for &(end, _) in &frames {
        for c in [end.saturating_sub(1), end, end + 1] {
            if c <= wal.len() {
                cuts.push(c);
            }
        }
    }
    cuts.push(wal.len());
    cuts.sort_unstable();
    cuts.dedup();

    let mut last_recovered = 0u64;
    for cut in cuts {
        let want: u64 = frames.iter().filter(|&&(end, seq)| seq && end <= cut).count() as u64;
        let dir2 = scratch_dir("torn-cut");
        std::fs::create_dir_all(&dir2).unwrap();
        std::fs::write(dir2.join(&wal_name), &wal[..cut]).unwrap();
        let daemon =
            spawn_sharded(&paper_policy(), EngineConfig::default(), durable(&dir2, u64::MAX / 2))
                .unwrap_or_else(|e| {
                    panic!("cut at byte {cut}: recovery failed: {e}\n{}", dir_layout(&dir2))
                });
        daemon.engine().flush();
        seq_reference(want).assert_table_eq(
            daemon.engine().table(),
            format_args!(
                "cut at byte {cut} of {}: wrong prefix recovered\n{}",
                wal.len(),
                dir_layout(&dir2)
            ),
        );
        let mut raw = V2Client::connect(daemon.addr()).unwrap();
        assert_eq!(
            raw.hello_session(9).unwrap(),
            want,
            "cut at byte {cut}: session mark disagrees with recovered prefix"
        );
        assert!(want >= last_recovered, "recovered prefix shrank as the cut grew");
        last_recovered = want;
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir2);
    }
    assert_eq!(last_recovered, BATCHES, "full-length cut must recover everything");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tear in a *middle* segment, through the full daemon: recovery
/// validates and delivers in one pass over the log, so it must stop
/// delivering at the flipped record — the rest of that segment and
/// every later segment, all intact on disk, are discarded unreplayed,
/// exactly as if the log had been validated whole before any replay.
#[test]
fn tear_in_a_middle_segment_recovers_nothing_beyond_it() {
    const BATCHES: u64 = 24;
    let dir = scratch_dir("mid-tear");
    let small_segments = |dir: &Path| {
        let mut cfg = durable(dir, u64::MAX / 2);
        cfg.durability.as_mut().unwrap().segment_bytes = 256;
        cfg
    };
    let daemon = spawn(EngineConfig::default(), small_segments(&dir));
    seq_trace(&daemon, BATCHES);
    daemon.kill();

    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 4, "the trace must span several segments\n{}", dir_layout(&dir));
    // Seq-batch records (tag 2) per segment, and within the victim the
    // frame the flip lands in.
    let victim = segments.len() / 2;
    let mut want = 0u64;
    for (i, path) in segments.iter().enumerate().take(victim + 1) {
        let mut bytes = std::fs::read(path).unwrap();
        let flip_at = if i == victim { bytes.len() / 2 } else { usize::MAX };
        let mut off = 0usize;
        while off + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            if flip_at < off + 8 + len {
                break; // this frame takes the flip: nothing from here on
            }
            want += u64::from(bytes[off + 8] == 2);
            off += 8 + len;
        }
        if i == victim {
            bytes[flip_at] ^= 0x40;
            std::fs::write(path, &bytes).unwrap();
        }
    }
    assert!(want > 0 && want < BATCHES, "the tear must fall strictly inside the trace: {want}");

    let daemon = spawn_sharded(&paper_policy(), EngineConfig::default(), small_segments(&dir))
        .unwrap_or_else(|e| panic!("recovery failed: {e}\n{}", dir_layout(&dir)));
    let later = (segments.len() - victim - 1) as u64;
    assert_eq!(
        daemon.recovery().torn_truncations,
        1 + later,
        "one tear plus every later segment discarded\n{}",
        dir_layout(&dir)
    );
    for gone in &segments[victim + 1..] {
        assert!(!gone.exists(), "{} survived the tear before it", gone.display());
    }
    seq_reference(want).assert_table_eq(
        daemon.engine().table(),
        format_args!("records beyond the tear were applied\n{}", dir_layout(&dir)),
    );
    let mut raw = V2Client::connect(daemon.addr()).unwrap();
    assert_eq!(raw.hello_session(9).unwrap(), want, "session mark ran past the tear");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `respawn_at` with a short retry: the killed daemon's listener is
/// closed by join, but the kernel may briefly hold the port.
fn respawn_at(dir: &Path, addr: SocketAddr) -> ShardedSchedulerServer {
    let mut last = None;
    for _ in 0..50 {
        match spawn_sharded_at(&paper_policy(), EngineConfig::default(), durable(dir, 4096), addr) {
            Ok(s) => return s,
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    panic!("could not rebind {addr}: {last:?}\n{}", dir_layout(dir));
}
