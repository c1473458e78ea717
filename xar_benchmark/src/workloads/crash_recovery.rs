//! `crash-recovery`: how long a killed daemon takes to answer again.
//!
//! Set-up writes a WAL of fixed, seed-determined size through a real
//! durable daemon (two sessions, exactly-once report batches) and kills
//! it — no final flush, no snapshot. Each timed operation then respawns
//! a daemon on that directory (table build, full-WAL replay through the
//! engine's ingest path) and waits for the first answered
//! `hello_session`. Recovery appends nothing, so every operation replays
//! the same records and the directory is reused as is.

use super::common::{finish_trace, trace_summaries};
use crate::blocks::{drive, summarize, BlockOut, Summary, TAILS_P90};
use crate::daemon::{self, report_ms, target_of, Counters, Names, QueryIn, CLIENTS, ROWS};
use crate::harness::{median_setup, Args, Outcome};
use crate::spans::{SpanLog, Trace};
use crate::util::{Scratch, SplitMix64};
use std::path::{Path, PathBuf};
use std::time::Instant;
use xar_core::server::ShardedSchedulerServer;
use xar_sched::client::Served;
use xar_sched::wire::WireReport;
use xar_sched::{Durability, FsyncPolicy, SessionTable, TableEntry, V2Client};

const SETUP_REPS: usize = 5;
/// Reports per batch, as in `call-cycle-durable`.
const BATCH: usize = 16;

/// The killed daemon's directory and what recovery must restore.
struct Rig {
    names: Names,
    dir: PathBuf,
    /// Batches each session acked: its high-water mark.
    batches: u64,
    /// WAL records the killed daemon had appended.
    records: u64,
    table: Vec<TableEntry>,
}

fn config(dir: &Path) -> xar_core::server::ServerConfig {
    daemon::server_config(Some(daemon::durability(dir.to_path_buf(), FsyncPolicy::Off)))
}

/// Writes the WAL: `batches` report batches per session through a
/// durable daemon, which is then killed. The reference table is the
/// same reports applied sequentially to a `batch = 1` engine.
fn build_rig(args: &Args, dir: PathBuf, batches: u64) -> Rig {
    let names = Names::new();
    let _ = std::fs::remove_dir_all(&dir);
    let server = daemon::spawn(&names, config(&dir)).expect("durable daemon spawns");
    let reference = daemon::reference_engine(&names);
    for c in 0..CLIENTS {
        let (session, half) = (1 + c as u64, ROWS / CLIENTS);
        let mut client = V2Client::connect(server.addr()).expect("client connects");
        assert_eq!(client.hello_session(session).expect("session opens"), 0, "fresh directory");
        let mut rng = SplitMix64::stream(args.seed, c as u64, 0);
        for seq in 1..=batches {
            let calls: Vec<(QueryIn, f64)> = (0..BATCH)
                .map(|_| (QueryIn::draw(&mut rng, c * half, (c + 1) * half), report_ms(&mut rng)))
                .collect();
            let reports: Vec<WireReport<'_>> = calls
                .iter()
                .map(|(q, ms)| WireReport {
                    app: &names.apps[q.row],
                    target: target_of((q.load % 3) as u8),
                    func_ms: *ms,
                    x86_load: q.load,
                })
                .collect();
            let ack = client.report_batch_seq(session, seq, &reports).expect("batch ships");
            assert_eq!(ack, Served::Done(BATCH as u32), "fresh batch is ingested whole");
            for r in &reports {
                reference.ingest(r.app, r.target, r.func_ms, r.x86_load);
            }
        }
    }
    let mut control = V2Client::connect(server.addr()).expect("control connects");
    let records = Counters::read(&mut control).expect("StatsV2").wal_appends;
    drop(control);
    server.kill();
    Rig { names, dir, batches, records, table: reference.table() }
}

/// One recovery, kill to first answer. Returns the daemon (for the
/// oracle), the answer, and the three stage boundaries.
fn recover(rig: &Rig) -> (ShardedSchedulerServer, V2Client, Option<u64>, [Instant; 4]) {
    let t0 = Instant::now();
    let server = daemon::spawn(&rig.names, config(&rig.dir)).expect("daemon respawns");
    let t1 = Instant::now();
    let mut client = V2Client::connect(server.addr()).expect("connects after recovery");
    let t2 = Instant::now();
    let mark = client.hello_session(1).ok();
    let t3 = Instant::now();
    (server, client, mark, [t0, t1, t2, t3])
}

/// Everything a recovered daemon must hold: both marks, the replayed
/// record count, and the reference table.
fn recovered_ok(
    rig: &Rig,
    server: &ShardedSchedulerServer,
    client: &mut V2Client,
    first_mark: Option<u64>,
    replayed: u64,
) -> bool {
    first_mark == Some(rig.batches)
        && (2..=CLIENTS as u64).all(|s| client.hello_session(s).ok() == Some(rig.batches))
        && server.recovery().replayed_records == replayed
        && client.fetch_table().is_ok_and(|t| t == rig.table)
}

/// A block of `ops` recoveries; every other block records spans when a
/// log is given.
fn block(rig: &Rig, ops: usize, samples: &mut Vec<u32>, mut log: Option<&mut SpanLog>) -> BlockOut {
    let mut failed = 0u64;
    let mut busy = std::time::Duration::ZERO;
    samples.clear();
    for i in 0..ops {
        let (server, mut client, mark, t) = recover(rig);
        samples.push((t[3] - t[0]).as_nanos().min(u32::MAX as u128) as u32);
        busy += t[3] - t[0];
        if let Some(log) = log.as_deref_mut() {
            let stages = ["daemon.spawn_recover", "client.connect", "client.hello_session"];
            log.record_staged("recovery", &stages, i as u64, &t);
        }
        failed += u64::from(!recovered_ok(rig, &server, &mut client, mark, rig.records));
        drop(client);
        server.kill();
    }
    BlockOut::fold(samples, TAILS_P90, rig.records * ops as u64, failed, busy)
}

pub fn run(args: &Args) -> Outcome {
    let batches = args.scaled(160) as u64;
    let ops = 4;
    let scratch = Scratch::new().expect("scratch directory");
    let (rig, setup_s) = median_setup(SETUP_REPS, |rep| {
        build_rig(args, scratch.sub(&format!("wal-{rep}")), batches)
    });
    let mut out = Outcome::default();
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut samples = Vec::new();
    let (seconds, min_blocks) = args.timed();
    let blocks = drive(
        vec![|b: u64| {
            let traced = args.trace && b % 2 == 1;
            block(&rig, ops, &mut samples, traced.then_some(&mut log))
        }],
        seconds,
        min_blocks,
    );
    let all = summarize(&blocks);
    out.failed = all.failed;
    out.oracle.eq(all.failed, 0, "recoveries that lost a mark, a record, or a table row");

    if args.trace {
        out.attempted = all.samples;
        let trace = Trace::from_logs([log]);
        let (plain, _) = trace_summaries(&mut out, blocks, &trace);
        layer_metrics(&rig, &mut out, &plain, &scratch);
        finish_trace(args, &mut out, &trace);
    } else {
        out.set_end_to_end(&all, setup_s, SETUP_REPS as u64);
    }
    out
}

fn layer_metrics(rig: &Rig, out: &mut Outcome, plain: &Summary, scratch: &Scratch) {
    out.set_n("dur.recovery_ms", plain.p50_us / 1e3, plain.samples, plain.p50_spread);
    out.set_n("dur.recovery_records_per_s", plain.ops_per_s, plain.blocks as u64, plain.ops_spread);
    out.set("dur.replayed_records", rig.records as f64);
    out.set("session.opened", CLIENTS as f64);

    // Checkpoint the recovered state in process, then boot from the
    // snapshot: nothing is left to replay. Works on a copy so the WAL
    // the timed operations used stays as the daemon left it.
    let dir = scratch.sub("snapshot");
    copy_dir(&rig.dir, &dir).expect("WAL directory copies");
    let engine = daemon::reference_engine(&rig.names);
    let sessions = SessionTable::new(1024);
    let cfg = daemon::durability(dir.clone(), FsyncPolicy::Off);
    let (dur, _) = Durability::open(cfg, &engine, &sessions).expect("directory opens");
    let start = Instant::now();
    let wrote = dur.snapshot(&engine, &sessions);
    out.set("dur.snapshot_ms", start.elapsed().as_secs_f64() * 1e3);
    out.oracle.check(matches!(wrote, Ok(true)), || format!("snapshot: {wrote:?}"));
    drop(dur);
    let from_snapshot = Rig { dir, names: Names::new(), table: rig.table.clone(), ..*rig };
    let (server, mut client, mark, t) = recover(&from_snapshot);
    out.set("dur.restart_from_snapshot_ms", (t[3] - t[0]).as_secs_f64() * 1e3);
    out.oracle.check(recovered_ok(&from_snapshot, &server, &mut client, mark, 0), || {
        format!(
            "restart from snapshot replayed {} records or lost state",
            server.recovery().replayed_records
        )
    });
    drop(client);
    server.kill();
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}
