//! `call-cycle-durable`: the paper's real traffic against a durable
//! daemon. Each of two sessions owns half the table and loops: sixteen
//! `decide`s, then one exactly-once `report_batch` of those sixteen
//! calls. Reports run Algorithm 1 and publish copy-on-write snapshots
//! that invalidate the decide handles' caches, every batch is journaled
//! before its ack (`FsyncPolicy::Off`), and both sessions serialise on
//! the durable ingest lock.
//!
//! The oracle replays every block on a sequential `batch = 1` reference
//! engine as soon as the block's clock stops: each decision must match
//! the reference's, and the daemon's table must equal the reference's
//! bit for bit — before the kill and after recovery.

use super::common::{
    closed_loop_p50, finish_trace, set_client_spans, set_pass, set_probe, set_server_counters,
    trace_summaries,
};
use crate::affinity::Homed;
use crate::blocks::{drive, summarize, time_ops, BlockOut, TAILS_P95};
use crate::daemon::{
    self, encode_decision, report_ms, target_of, Counters, Killable, Names, QueryIn, StagedClient,
    CLIENTS, ROWS, WORKERS,
};
use crate::harness::{median_setup, Args, Outcome};
use crate::layers::{self, probe, Probe};
use crate::spans::{SpanLog, Trace};
use crate::util::{Scratch, SplitMix64};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use xar_core::XarTrekPolicy;
use xar_desim::Decision;
use xar_sched::client::Served;
use xar_sched::wire::WireReport;
use xar_sched::{
    BatchScratch, DecideHandle, Durability, FsyncPolicy, ReportOwned, ResilientClient,
    ResilientConfig, SessionTable, ShardedEngine, V2Client,
};

/// Calls per cycle.
pub const CYCLE: usize = 16;
const SETUP_REPS: usize = 3;
const WARMUP: u64 = u64::MAX;
/// The block whose `StatsV2` deltas are reported as exact counts: its
/// inputs depend on the seed alone, not on how many blocks the run fit.
const COUNTED: u64 = u64::MAX - 1;
/// Session ids: the shipping client's are `1 + c`, the staged client's
/// `101 + c`, so their sequence spaces never meet.
const STAGED_SESSION: u64 = 101;

type Reference = Arc<ShardedEngine<XarTrekPolicy>>;

/// One call's inputs: the query, and the time the call will report.
fn draw_call(rng: &mut SplitMix64, client: usize) -> (QueryIn, f64) {
    let half = ROWS / CLIENTS;
    let q = QueryIn::draw(rng, client * half, (client + 1) * half);
    (q, report_ms(rng))
}

/// One load-generator thread: its buffers, its handle on the shared
/// reference engine (each thread touches only its own half of the rows,
/// so the reference stays sequential per row), and its batch count.
struct Lane {
    client: usize,
    samples: Vec<u32>,
    answers: Vec<u8>,
    reference: DecideHandle<XarTrekPolicy>,
    /// Report batches sent per session: the expected high-water marks.
    batches: [u64; 2],
}

impl Lane {
    fn new(client: usize, reference: &Reference) -> Lane {
        Lane {
            client,
            samples: Vec::new(),
            answers: Vec::new(),
            reference: reference.handle(),
            batches: [0; 2],
        }
    }

    /// One block of `cycles` cycles through `cycle`, which performs the
    /// sixteen decides and the report batch and logs the decisions; then
    /// the reference replay.
    fn run_block(
        &mut self,
        (seed, block): (u64, u64),
        cycles: usize,
        names: &Names,
        mut cycle: impl FnMut(&[(QueryIn, f64)], &mut Vec<u8>) -> std::io::Result<()>,
    ) -> BlockOut {
        let c = self.client;
        let mut rng = SplitMix64::stream(seed, c as u64, block);
        let mut calls = Vec::with_capacity(CYCLE);
        let answers = &mut self.answers;
        answers.clear();
        let wall = time_ops(&mut self.samples, cycles, |_| {
            calls.clear();
            calls.extend((0..CYCLE).map(|_| draw_call(&mut rng, c)));
            let before = answers.len();
            if cycle(&calls, answers).is_err() {
                answers.truncate(before);
            }
            answers.resize(before + CYCLE, 0xFF);
        });

        // Clock stopped: replay on the reference. A cycle fails if any
        // of its decisions differs from the reference's.
        let mut rng = SplitMix64::stream(seed, c as u64, block);
        let engine = self.reference.engine().clone();
        let mut failed = 0u64;
        for got in answers.chunks(CYCLE) {
            let calls: Vec<(QueryIn, f64)> = (0..CYCLE).map(|_| draw_call(&mut rng, c)).collect();
            let want: Vec<Decision> =
                calls.iter().map(|(q, _)| self.reference.decide(&q.wire(names).ctx())).collect();
            failed +=
                u64::from(want.iter().zip(got).any(|(want, &got)| encode_decision(*want) != got));
            for ((q, ms), want) in calls.iter().zip(&want) {
                engine.ingest(&names.apps[q.row], want.target, *ms, q.load);
            }
        }
        BlockOut::fold(&mut self.samples, TAILS_P95, (cycles * CYCLE) as u64, failed, wall)
    }

    fn plain_block(
        &mut self,
        stream: (u64, u64),
        cycles: usize,
        names: &Names,
        client: &mut ResilientClient,
    ) -> BlockOut {
        let mut reports: Vec<ReportOwned> = Vec::with_capacity(CYCLE);
        self.batches[0] += cycles as u64;
        self.run_block(stream, cycles, names, |calls, answers| {
            reports.clear();
            for (q, ms) in calls {
                let d =
                    client.decide(&names.apps[q.row], &names.kernels[q.row], q.load, q.resident)?;
                answers.push(encode_decision(d));
                reports.push(ReportOwned {
                    app: names.arcs[q.row].clone(),
                    target: d.target,
                    func_ms: *ms,
                    x86_load: q.load,
                });
            }
            match client.report_batch(&reports)? {
                n if n as usize == CYCLE => Ok(()),
                n => Err(std::io::Error::other(format!("batch acked {n} of {CYCLE} reports"))),
            }
        })
    }

    fn staged_block(
        &mut self,
        stream: (u64, u64),
        cycles: usize,
        names: &Names,
        client: &mut StagedClient,
    ) -> BlockOut {
        let session = STAGED_SESSION + self.client as u64;
        let mut seq = self.batches[1];
        self.batches[1] += cycles as u64;
        let mut reports: Vec<WireReport<'_>> = Vec::with_capacity(CYCLE);
        self.run_block(stream, cycles, names, |calls, answers| {
            reports.clear();
            for (q, ms) in calls {
                let d = client.decide(&q.wire(names))?;
                answers.push(encode_decision(d));
                reports.push(WireReport {
                    app: &names.apps[q.row],
                    target: d.target,
                    func_ms: *ms,
                    x86_load: q.load,
                });
            }
            seq += 1;
            match client.report_batch_seq(session, seq, &reports)? {
                n if n as usize == CYCLE => Ok(()),
                n => Err(std::io::Error::other(format!("batch acked {n} of {CYCLE} reports"))),
            }
        })
    }
}

fn resilient(server: &Killable, client: usize) -> Homed<ResilientClient> {
    let config = ResilientConfig {
        session: 1 + client as u64,
        backoff_seed: client as u64,
        ..ResilientConfig::default()
    };
    // The first ping connects (the client is lazy) and opens the session.
    let client = ResilientClient::new(server.addr(), config);
    Homed::find(client, WORKERS, |c| drop(c.ping(0)))
}

struct Rig {
    names: Names,
    dir: PathBuf,
    server: Killable,
    clients: Vec<Homed<ResilientClient>>,
    control: V2Client,
    reference: Reference,
    lanes: Vec<Lane>,
}

/// Table build, durable daemon spawn on a fresh directory, connects,
/// and one warm-up block (replayed on the reference like any other).
fn build_rig(args: &Args, dir: PathBuf, fsync: FsyncPolicy, cycles: usize) -> Rig {
    let names = Names::new();
    let _ = std::fs::remove_dir_all(&dir);
    let config = daemon::server_config(Some(daemon::durability(dir.clone(), fsync)));
    let server = Killable::spawn(&names, config).expect("durable daemon spawns");
    let mut clients: Vec<_> = (0..CLIENTS).map(|c| resilient(&server, c)).collect();
    let control = V2Client::connect(server.addr()).expect("control client connects");
    let reference = daemon::reference_engine(&names);
    let mut lanes: Vec<Lane> = (0..CLIENTS).map(|c| Lane::new(c, &reference)).collect();
    let bodies: Vec<_> = clients
        .iter_mut()
        .zip(lanes.iter_mut())
        .map(|(client, lane)| {
            let names = &names;
            move |_b: u64| lane.plain_block((args.seed, WARMUP), cycles, names, client.enter())
        })
        .collect();
    drive(bodies, 0.0, 1);
    Rig { names, dir, server, clients, control, reference, lanes }
}

/// Plain blocks on every lane for `seconds` (at least `min_blocks`).
fn plain_blocks(
    args: &Args,
    rig: &mut Rig,
    cycles: usize,
    (seconds, min_blocks): (f64, usize),
    first_block: u64,
) -> Vec<Vec<BlockOut>> {
    let bodies: Vec<_> = rig
        .clients
        .iter_mut()
        .zip(rig.lanes.iter_mut())
        .map(|(client, lane)| {
            let names = &rig.names;
            move |b: u64| {
                lane.plain_block((args.seed, first_block + b), cycles, names, client.enter())
            }
        })
        .collect();
    drive(bodies, seconds, min_blocks)
}

pub fn run(args: &Args) -> Outcome {
    let cycles = args.scaled(250);
    let scratch = Scratch::new().expect("scratch directory");
    let (mut rig, setup_s) = median_setup(SETUP_REPS, |rep| {
        build_rig(args, scratch.sub(&format!("wal-{rep}")), FsyncPolicy::Off, cycles)
    });
    let mut out = Outcome::default();
    let before = Counters::read(&mut rig.control).expect("StatsV2 before");

    let mut staged: Vec<Homed<StagedClient>> = Vec::new();
    let per_client = if args.trace {
        traced_blocks(args, &mut rig, cycles, &mut staged)
    } else {
        plain_blocks(args, &mut rig, cycles, args.timed(), 0)
    };
    let after = Counters::read(&mut rig.control).expect("StatsV2 after");
    let all = summarize(&per_client);
    out.failed = all.failed;
    out.oracle.eq(all.failed, 0, "cycles that erred or whose decisions differ from the reference");
    out.oracle.eq(after.decides - before.decides, all.work, "StatsV2 decides delta");
    out.oracle.eq(after.reports - before.reports, all.work, "StatsV2 reports delta");
    out.oracle.eq(after.protocol_errors, 0, "StatsV2 protocol_errors");
    out.oracle.eq(after.shed_busy, 0, "StatsV2 shed_busy");
    out.oracle.eq(after.replayed_batches, 0, "replayed batches in a fault-free run");
    out.set("session.replayed_batches", after.replayed_batches as f64);

    if args.trace {
        out.attempted = all.samples;
        let trace = Trace::from_logs(staged.drain(..).map(|s| s.client.log));
        let (plain, _) = trace_summaries(&mut out, per_client, &trace);
        set_client_spans(&mut out, &trace);
        set_server_counters(&mut out, &after, &before);
        out.set_n("server.cycle_p99_us", plain.top_us, plain.samples, 0.0);
        counted_block(args, &mut rig, &mut out, cycles);
        layer_metrics(args, &mut rig, &mut out, &scratch);
        finish_trace(args, &mut out, &trace);
    } else {
        out.set_end_to_end(&all, setup_s, SETUP_REPS as u64);
    }

    let recovery_ms = settle_and_recover(rig, &mut out, args.trace);
    if args.trace {
        out.set("dur.recovery_ms", recovery_ms);
    }
    out
}

/// Even blocks through `ResilientClient`, odd blocks through the staged
/// client (its own sessions), alternating on the same daemon.
fn traced_blocks(
    args: &Args,
    rig: &mut Rig,
    cycles: usize,
    staged: &mut Vec<Homed<StagedClient>>,
) -> Vec<Vec<BlockOut>> {
    let epoch = Instant::now();
    for c in 0..CLIENTS {
        let sampler = SplitMix64::stream(args.seed, 0x5A3, c as u64);
        let mut client =
            daemon::homed_staged(rig.server.addr(), sampler, SpanLog::new(epoch, c as u32))
                .expect("staged client connects");
        let session = STAGED_SESSION + c as u64;
        let mark = client.client.hello_session(session).expect("staged session opens");
        assert_eq!(mark, 0, "fresh durability directory, fresh session");
        staged.push(client);
    }
    let bodies: Vec<_> = rig
        .clients
        .iter_mut()
        .zip(staged.iter_mut())
        .zip(rig.lanes.iter_mut())
        .map(|((plain, staged), lane)| {
            let names = &rig.names;
            move |b: u64| {
                if b.is_multiple_of(2) {
                    lane.plain_block((args.seed, b), cycles, names, plain.enter())
                } else {
                    lane.staged_block((args.seed, b), cycles, names, staged.enter())
                }
            }
        })
        .collect();
    let (seconds, min_blocks) = args.timed();
    drive(bodies, seconds, min_blocks)
}

/// One more block, bracketed by `StatsV2` reads: the exact counts.
fn counted_block(args: &Args, rig: &mut Rig, out: &mut Outcome, cycles: usize) {
    let before = Counters::read(&mut rig.control).expect("StatsV2 before the counted block");
    let blocks = plain_blocks(args, rig, cycles, (0.0, 1), COUNTED);
    let after = Counters::read(&mut rig.control).expect("StatsV2 after the counted block");
    let s = summarize(&blocks);
    out.attempted += s.samples;
    out.failed += s.failed;
    out.oracle.eq(s.failed, 0, "counted block failures");
    let (reports, batches) = (s.work, s.samples);
    out.oracle.eq(after.reports - before.reports, reports, "counted block reports");
    out.set_n(
        "engine.flush_publishes",
        (after.flush_publishes - before.flush_publishes) as f64,
        batches,
        0.0,
    );
    out.set_n("engine.flush_rows", (after.flush_rows - before.flush_rows) as f64, reports, 0.0);
    out.set("engine.flush_publish_p50_ns", after.flush_publish_p50_ns as f64);
    let appends = (after.wal_appends - before.wal_appends) as f64;
    out.set_n("dur.wal_appends_per_batch", appends / batches as f64, batches, 0.0);
    let bytes = (after.wal_bytes - before.wal_bytes) as f64;
    out.set_n("dur.wal_bytes_per_report", bytes / reports as f64, reports, 0.0);
}

fn layer_metrics(args: &Args, rig: &mut Rig, out: &mut Outcome, scratch: &Scratch) {
    let n = args.scaled(2_000);
    let names = &rig.names;
    let qs = layers::queries(args.seed, 4096, 0, ROWS);
    set_probe(
        out,
        "wire.report16_codec_ns_per_report",
        layers::wire_report_codec(names, &qs, CYCLE, n),
    );
    set_probe(out, "engine.decide_ns", layers::engine_decide(names, &qs, n));
    set_probe(out, "engine.ingest_ns_per_report", layers::engine_ingest(names, &qs, n));
    set_probe(out, "engine.snap_refresh_ns", layers::engine_snap_refresh(names, &qs, n));
    set_probe(out, "session.advance_ns", session_advance(n));
    for (name, fsync, samples) in [
        ("dur.ingest_seq_batch_us_off", FsyncPolicy::Off, n),
        ("dur.ingest_seq_batch_us_always", FsyncPolicy::Always, n / 20 + 1),
    ] {
        let p = dur_ingest(names, &qs, &scratch.sub(name), fsync, samples);
        out.set_n(name, p.ns / 1e3, p.samples, 0.0);
    }

    // What the resilience wrapper costs a decide, on the same daemon.
    let pn = args.scaled(10_000);
    let (resilient_p50, _, failed) = closed_loop_p50(&mut rig.clients, pn, |c, i| {
        let q = QueryIn::nth(args.seed, i);
        c.decide(&names.apps[q.row], &names.kernels[q.row], q.load, q.resident).is_ok()
    });
    out.oracle.eq(failed, 0, "ResilientClient decide failures");
    let addr = rig.server.addr();
    let mut v2: Vec<Homed<V2Client>> =
        (0..CLIENTS).map(|_| daemon::homed_v2(addr).expect("v2 client connects")).collect();
    let (v2_p50, samples, failed) = closed_loop_p50(&mut v2, pn, |c, i| {
        let q = QueryIn::nth(args.seed, i);
        c.decide(&names.apps[q.row], &names.kernels[q.row], q.load, q.resident).is_ok()
    });
    set_pass(out, "client.resilient_over_v2_ratio", (resilient_p50 / v2_p50, samples, failed));
    drop(v2);

    // The other two fsync modes, on the sandbox's disk: short passes,
    // never gated.
    for (name, fsync, short) in [
        ("dur.calls_per_s_fsync_interval5", FsyncPolicy::IntervalMs(5), args.scaled(250)),
        ("dur.calls_per_s_fsync_always", FsyncPolicy::Always, args.scaled(25)),
    ] {
        let mut side = build_rig(args, scratch.sub(name), fsync, short);
        let blocks = plain_blocks(args, &mut side, short, (args.seconds / 16.0, 3), 0);
        let s = summarize(&blocks);
        out.set_n(name, s.ops_per_s, s.blocks as u64, s.ops_spread);
        out.oracle.eq(s.failed, 0, name);
        out.attempted += s.samples;
        drop(side.clients);
        side.server.kill();
    }
}

/// `SessionTable::advance` on a fresh mark — what every report batch
/// pays for exactly-once.
fn session_advance(samples: usize) -> Probe {
    let table = SessionTable::new(1024);
    table.hello(9).expect("session opens");
    let mut seq = 0u64;
    probe(samples, 64, |_| {
        seq += 1;
        std::hint::black_box(table.advance(9, seq));
    })
}

/// `Durability::ingest_seq_batch` with sixteen reports: journal the
/// batch, advance the session, apply to the engine.
fn dur_ingest(
    names: &Names,
    qs: &[QueryIn],
    dir: &Path,
    fsync: FsyncPolicy,
    samples: usize,
) -> Probe {
    let _ = std::fs::remove_dir_all(dir);
    let engine = daemon::reference_engine(names);
    let sessions = SessionTable::new(1024);
    let (dur, _) =
        Durability::open(daemon::durability(dir.to_path_buf(), fsync), &engine, &sessions)
            .expect("durability directory opens");
    sessions.hello(9).expect("session opens");
    let batches: Vec<Vec<WireReport<'_>>> = qs
        .chunks_exact(CYCLE)
        .map(|c| {
            c.iter()
                .map(|q| WireReport {
                    app: &names.apps[q.row],
                    target: target_of((q.load % 3) as u8),
                    func_ms: 10.0 + q.load as f64,
                    x86_load: q.load,
                })
                .collect()
        })
        .collect();
    let mut scratch = BatchScratch::default();
    let mut seq = 0u64;
    probe(samples, 1, |i| {
        seq += 1;
        let reports = &batches[i % batches.len()];
        dur.ingest_seq_batch(&engine, &sessions, 9, seq, &mut scratch, reports, None)
            .expect("batch journals");
    })
}

/// The end-of-run oracle: table bit-identity, exact high-water marks,
/// a deliberate replay answered `Ack(0)`, then kill, recover on the same
/// directory, and hold the same state again. Returns the time from kill
/// to the first answered `hello_session`, ms.
fn settle_and_recover(mut rig: Rig, out: &mut Outcome, traced: bool) -> f64 {
    let want_table = rig.reference.table();
    let table = rig.control.fetch_table().expect("table fetch");
    out.oracle
        .check(table == want_table, || "live table differs from the batch=1 reference".into());

    let mut marks: Vec<(u64, u64)> = Vec::new();
    for lane in &rig.lanes {
        marks.push((1 + lane.client as u64, lane.batches[0]));
        if traced {
            marks.push((STAGED_SESSION + lane.client as u64, lane.batches[1]));
        }
    }
    let replayed =
        WireReport { app: &rig.names.apps[0], target: target_of(0), func_ms: 1.0, x86_load: 1 };
    for &(session, mark) in &marks {
        out.oracle.eq(
            rig.control.hello_session(session).ok(),
            Some(mark),
            "session high-water mark",
        );
        let ack = rig.control.report_batch_seq(session, mark, std::slice::from_ref(&replayed));
        out.oracle.check(matches!(ack, Ok(Served::Done(0))), || {
            format!("replayed stamp ({session}, {mark}) answered {ack:?}, want Ack(0)")
        });
    }
    let stats = Counters::read(&mut rig.control).expect("StatsV2 after the replays");
    out.oracle.eq(stats.replayed_batches, marks.len() as u64, "deliberately replayed batches");
    out.oracle.eq(stats.sessions_opened, marks.len() as u64, "sessions opened");
    if traced {
        out.set("session.opened", stats.sessions_opened as f64);
    }

    let Rig { names, dir, server, clients, control, .. } = rig;
    drop((clients, control));
    let killed = Instant::now();
    server.kill();
    let config = daemon::server_config(Some(daemon::durability(dir, FsyncPolicy::Off)));
    let server = Killable::spawn(&names, config).expect("daemon respawns on its directory");
    let mut control = V2Client::connect(server.addr()).expect("connects after recovery");
    let first = control.hello_session(marks[0].0);
    let recovery_ms = killed.elapsed().as_secs_f64() * 1e3;
    out.oracle.eq(first.ok(), Some(marks[0].1), "first session's mark after recovery");
    for &(session, mark) in &marks[1..] {
        out.oracle.eq(control.hello_session(session).ok(), Some(mark), "mark after recovery");
    }
    out.oracle.eq(server.recovery().replayed_records, stats.wal_appends, "WAL records replayed");
    let table = control.fetch_table().expect("table fetch after recovery");
    out.oracle.check(table == want_table, || "recovered table differs from the reference".into());
    drop(control);
    server.kill();
    recovery_ms
}
