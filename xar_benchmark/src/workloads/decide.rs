//! `decide-rtt` and `decide-batch`: two closed-loop clients reading
//! placement decisions from a daemon whose table never changes. The two
//! differ only in how many queries ride one round trip (1 or 256), which
//! is exactly what moves the blocking path from the transport to the
//! engine and codec.

use super::common::{
    closed_loop_p50, finish_trace, set_client_spans, set_pass, set_probe, set_server_counters,
    trace_summaries,
};
use crate::affinity::Homed;
use crate::blocks::{drive, summarize, time_ops, BlockOut, Summary, Tails, TAILS_P99, TAILS_P995};
use crate::daemon::{
    self, encode_decision, Counters, Names, QueryIn, StagedClient, CLIENTS, ROWS, WORKERS,
};
use crate::harness::{median_setup, Args, Outcome};
use crate::layers;
use crate::spans::{SpanLog, Trace};
use crate::spec;
use crate::util::{quantile_sorted, SplitMix64};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use xar_core::server::{ServerConfig, ShardedSchedulerServer};
use xar_sched::wire::WireQuery;
use xar_sched::{BackendKind, V2Client};

/// Queries per `DecideBatch` frame in `decide-batch`.
pub const BATCH: usize = 256;
/// Five, not three: a set-up's warm-up block sometimes lands in the slow
/// client/worker placement and takes twice as long.
const SETUP_REPS: usize = 5;
/// Stream id of the discarded warm-up block.
const WARMUP: u64 = u64::MAX;

struct Shape {
    /// Queries per round trip.
    frame: usize,
    /// Round trips per client per block.
    block_ops: usize,
    tails: Tails,
}

fn shape(args: &Args) -> Shape {
    if args.workload == spec::DECIDE_RTT {
        Shape { frame: 1, block_ops: args.scaled(5_000), tails: TAILS_P995 }
    } else {
        Shape { frame: BATCH, block_ops: args.scaled(1_000), tails: TAILS_P99 }
    }
}

struct Rig {
    names: Names,
    server: ShardedSchedulerServer,
    clients: Vec<Homed<V2Client>>,
    control: V2Client,
}

/// Table build, daemon spawn, connects, and one discarded warm-up block.
fn rig(args: &Args, shape: &Shape, config: ServerConfig) -> Rig {
    let names = Names::new();
    let server = daemon::spawn(&names, config).expect("daemon spawns");
    let connect = || daemon::homed_v2(server.addr()).expect("client connects");
    let mut clients: Vec<Homed<V2Client>> = (0..CLIENTS).map(|_| connect()).collect();
    let control = V2Client::connect(server.addr()).expect("control connects");
    let bodies: Vec<_> = clients
        .iter_mut()
        .enumerate()
        .map(|(c, client)| {
            let (names, mut lane) = (&names, Lane::default());
            move |_b: u64| {
                let stream = (args.seed, c as u64, WARMUP);
                plain_block(&mut lane, stream, shape, names, client.enter())
            }
        })
        .collect();
    drive(bodies, 0.0, 1);
    Rig { names, server, clients, control }
}

/// The block's inputs, regenerable by the oracle.
fn block_queries(seed: u64, client: u64, block: u64, n: usize) -> impl Iterator<Item = QueryIn> {
    let mut rng = SplitMix64::stream(seed, client, block);
    (0..n).map(move |_| QueryIn::draw(&mut rng, 0, ROWS))
}

/// One load-generator thread's reusable buffers.
#[derive(Default)]
struct Lane {
    samples: Vec<u32>,
    answers: Vec<u8>,
}

fn plain_block(
    lane: &mut Lane,
    (seed, c, block): (u64, u64, u64),
    shape: &Shape,
    names: &Names,
    client: &mut V2Client,
) -> BlockOut {
    run_block(lane, (seed, c, block), shape, names, |qs, answers| {
        if let [q] = qs {
            let d = client.decide_with(q.app, q.kernel, q.x86_load, 0, q.kernel_resident, true)?;
            answers.push(encode_decision(d));
        } else {
            answers.extend(client.decide_batch(qs)?.into_iter().map(encode_decision));
        }
        Ok(())
    })
}

fn staged_block(
    lane: &mut Lane,
    (seed, c, block): (u64, u64, u64),
    shape: &Shape,
    names: &Names,
    client: &mut StagedClient,
) -> BlockOut {
    run_block(lane, (seed, c, block), shape, names, |qs, answers| {
        if let [q] = qs {
            answers.push(encode_decision(client.decide(q)?));
        } else {
            answers.extend(client.decide_batch(qs)?.into_iter().map(encode_decision));
        }
        Ok(())
    })
}

/// One block: `block_ops` round trips of `frame` queries each, then —
/// with the clock stopped — the oracle: every decision must equal
/// Algorithm 2 on the inputs the block drew. A round trip that errored
/// or carried a wrong decision counts as failed.
fn run_block<'n>(
    lane: &mut Lane,
    (seed, c, block): (u64, u64, u64),
    shape: &Shape,
    names: &'n Names,
    mut roundtrip: impl FnMut(&[WireQuery<'n>], &mut Vec<u8>) -> std::io::Result<()>,
) -> BlockOut {
    let decisions = shape.block_ops * shape.frame;
    let mut inputs = block_queries(seed, c, block, decisions);
    let mut frame: Vec<WireQuery<'n>> = Vec::with_capacity(shape.frame);
    let answers = &mut lane.answers;
    answers.clear();
    let wall = time_ops(&mut lane.samples, shape.block_ops, |_| {
        frame.clear();
        frame.extend(inputs.by_ref().take(shape.frame).map(|q| q.wire(names)));
        let before = answers.len();
        if roundtrip(&frame, answers).is_err() {
            answers.truncate(before);
        }
        answers.resize(before + shape.frame, 0xFF);
    });
    let mut expected =
        block_queries(seed, c, block, decisions).map(|q| encode_decision(q.expected_static()));
    // Every answer is compared, also past a chunk's first mismatch, so
    // `expected` stays in step with `answers`.
    let mut failed = 0u64;
    for chunk in answers.chunks(shape.frame) {
        let wrong = chunk.iter().filter(|&&got| Some(got) != expected.next()).count();
        failed += u64::from(wrong > 0);
    }
    BlockOut::fold(&mut lane.samples, shape.tails, decisions as u64, failed, wall)
}

pub fn run(args: &Args) -> Outcome {
    let shape = shape(args);
    let (mut rig, setup_s) =
        median_setup(SETUP_REPS, |_| rig(args, &shape, daemon::server_config(None)));
    let mut out = Outcome::default();
    let before = Counters::read(&mut rig.control).expect("StatsV2 before");

    let mut trace = Trace::default();
    let per_client = if args.trace {
        traced_blocks(args, &shape, &mut rig, &mut trace)
    } else {
        let bodies: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (names, shape, mut lane) = (&rig.names, &shape, Lane::default());
                move |b: u64| {
                    plain_block(&mut lane, (args.seed, c as u64, b), shape, names, client.enter())
                }
            })
            .collect();
        let (seconds, min_blocks) = args.timed();
        drive(bodies, seconds, min_blocks)
    };

    let after = Counters::read(&mut rig.control).expect("StatsV2 after");
    let all = summarize(&per_client);
    out.oracle.eq(all.failed, 0, "round trips that erred or differ from XarTrekPolicy::algorithm2");
    out.oracle.eq(after.decides - before.decides, all.work, "StatsV2 decides delta");
    out.oracle.eq(after.protocol_errors - before.protocol_errors, 0, "StatsV2 protocol_errors");
    out.oracle.eq(after.shed_busy - before.shed_busy, 0, "StatsV2 shed_busy");

    out.failed = all.failed;
    if args.trace {
        out.attempted = all.samples;
        let (plain, _) = trace_summaries(&mut out, per_client, &trace);
        set_client_spans(&mut out, &trace);
        set_server_counters(&mut out, &after, &before);
        layer_metrics(args, &shape, &mut rig, &mut out, &plain, &trace);
        finish_trace(args, &mut out, &trace);
    } else {
        out.set_end_to_end(&all, setup_s, SETUP_REPS as u64);
    }
    drop(rig.clients);
    rig.server.shutdown();
    out
}

/// The traced pass: each thread owns a `V2Client` and a `StagedClient`
/// on the same daemon and alternates them block by block (even blocks
/// plain, odd blocks staged), so drift cancels out of the overhead ratio.
fn traced_blocks(
    args: &Args,
    shape: &Shape,
    rig: &mut Rig,
    trace: &mut Trace,
) -> Vec<Vec<BlockOut>> {
    let (addr, epoch) = (rig.server.addr(), Instant::now());
    let mut staged: Vec<Homed<StagedClient>> = (0..CLIENTS)
        .map(|c| {
            let sampler = SplitMix64::stream(args.seed, 0x5A3, c as u64);
            daemon::homed_staged(addr, sampler, SpanLog::new(epoch, c as u32))
                .expect("staged client connects")
        })
        .collect();
    let bodies: Vec<_> = rig
        .clients
        .iter_mut()
        .zip(staged.iter_mut())
        .enumerate()
        .map(|(c, (plain, staged))| {
            let (names, mut lane) = (&rig.names, Lane::default());
            move |b: u64| {
                let stream = (args.seed, c as u64, b);
                if b.is_multiple_of(2) {
                    plain_block(&mut lane, stream, shape, names, plain.enter())
                } else {
                    staged_block(&mut lane, stream, shape, names, staged.enter())
                }
            }
        })
        .collect();
    let (seconds, min_blocks) = args.timed();
    let outs = drive(bodies, seconds, min_blocks);
    *trace = Trace::from_logs(staged.into_iter().map(|s| s.client.log));
    outs
}

fn layer_metrics(
    args: &Args,
    shape: &Shape,
    rig: &mut Rig,
    out: &mut Outcome,
    plain: &Summary,
    trace: &Trace,
) {
    let n = args.scaled(2_000);
    let qs = layers::queries(args.seed, 8 * BATCH, 0, ROWS);
    let names = &rig.names;
    let spans = trace.sampled("client.request");

    if shape.frame > 1 {
        set_probe(
            out,
            "wire.batch256_codec_ns_per_query",
            layers::wire_batch_codec(names, &qs, BATCH, n),
        );
        set_probe(
            out,
            "engine.decide_batch_ns_per_query",
            layers::engine_decide_batch(names, &qs, BATCH, n),
        );
        out.set_n("server.batch_rtt_p99_us", plain.tail_us, plain.samples, plain.tail_spread);
        return;
    }

    let codec = layers::wire_decide_codec(names, &qs, n);
    let decide = layers::engine_decide(names, &qs, n);
    set_probe(out, "wire.decide_codec_ns", codec);
    set_probe(out, "wire.v1_parse_ns", layers::wire_v1_parse(names, &qs, n));
    set_probe(out, "engine.decide_ns", decide);
    set_probe(out, "obs.hist_record_ns", layers::obs_hist_record(n));
    set_probe(out, "obs.trace_emit_ns", layers::obs_trace_emit(n));
    out.set_n("server.decide_rtt_p999_us", plain.top_us, plain.samples, 0.0);

    // The budget: client code + daemon code + everything else (syscalls,
    // wake-ups, the reactor) must add up to the round trip.
    let wire_time_us = (trace.p50_ns("sock.write") + trace.p50_ns("sock.wait_read")) / 1e3;
    let daemon_code_us = (codec.ns + decide.ns) / 1e3;
    let residual = wire_time_us - daemon_code_us;
    out.set_n("server.transport_residual_us", residual, spans, 0.0);
    let client_code_us = (trace.p50_ns("client.encode") + trace.p50_ns("client.decode")) / 1e3;
    let budget = client_code_us + daemon_code_us + residual;
    out.notes.push(format!(
        "budget: client {client_code_us:.3} us + daemon code {daemon_code_us:.3} us + transport residual {residual:.3} us = {budget:.3} us vs untraced decide_rtt_p50 {:.3} us ({:+.1}%)",
        plain.p50_us,
        (budget / plain.p50_us - 1.0) * 100.0
    ));

    secondary_passes(args, rig, out, plain.p50_us);
}

/// Short passes that put one number each beside the main result: the
/// transport floor (ping), the stats scrape, the v1 text path, the
/// `poll(2)` backend, tracing off, and an informational open loop.
fn secondary_passes(args: &Args, rig: &mut Rig, out: &mut Outcome, rtt_p50_us: f64) {
    let n = args.scaled(10_000);
    let seed = args.seed;
    let names = &rig.names;
    let decide = |client: &mut V2Client, i: usize| {
        let q = QueryIn::nth(seed, i);
        client
            .decide(&names.apps[q.row], &names.kernels[q.row], q.load, q.resident)
            .is_ok_and(|d| d == q.expected_static())
    };
    let ping =
        closed_loop_p50(&mut rig.clients, n, |c, i| c.ping(i as u64).is_ok_and(|e| e == i as u64));
    set_pass(out, "server.ping_rtt_p50_us", ping);
    let stats = closed_loop_p50(&mut rig.clients, n / 4, |c, _| c.stats_v2().is_ok());
    set_pass(out, "server.stats_v2_rtt_p50_us", stats);

    let addr = rig.server.addr();
    let v1_decide = |c: &mut BufReader<TcpStream>, i: usize| {
        let q = QueryIn::nth(seed, i);
        let line = format!(
            "DECIDE {} {} {} {}\n",
            names.apps[q.row],
            names.kernels[q.row],
            q.load,
            u8::from(q.resident)
        );
        let mut want = Vec::new();
        xar_sched::wire::v1_decide_reply_into(&q.expected_static(), &mut want);
        let mut reply = String::new();
        c.get_mut().write_all(line.as_bytes()).is_ok()
            && c.read_line(&mut reply).is_ok()
            && reply.as_bytes() == want
    };
    let mut v1: Vec<Homed<BufReader<TcpStream>>> = (0..CLIENTS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("v1 client connects");
            s.set_nodelay(true).expect("nodelay");
            Homed::find(BufReader::new(s), WORKERS, |c| {
                v1_decide(c, 0);
            })
        })
        .collect();
    let v1_rtt = closed_loop_p50(&mut v1, n, v1_decide);
    set_pass(out, "server.v1_decide_rtt_p50_us", v1_rtt);
    drop(v1);

    for (name, config) in [
        (
            "server.poll_backend_rtt_p50_us",
            ServerConfig { backend: BackendKind::Poll, ..daemon::server_config(None) },
        ),
        ("obs.trace_on_over_off_rtt", ServerConfig { trace: false, ..daemon::server_config(None) }),
    ] {
        let server = daemon::spawn(names, config).expect("secondary daemon spawns");
        let mut clients: Vec<Homed<V2Client>> =
            (0..CLIENTS).map(|_| daemon::homed_v2(server.addr()).expect("connects")).collect();
        let (p50, samples, failed) = closed_loop_p50(&mut clients, n, decide);
        let value = if name.starts_with("obs.") { rtt_p50_us / p50 } else { p50 };
        set_pass(out, name, (value, samples, failed));
        drop(clients);
        server.shutdown();
    }

    open_loop(args, rig, out);
}

/// Informational open loop: 20 000 decides/s over the two connections
/// (10 000/s each), every request timed from when it was *due*. A
/// busy-polling generator sharing two vCPUs with the daemon's workers
/// cannot keep its schedule (identical runs read p99 25–64 µs), so these
/// rows are never gated; the generator's lateness is reported beside
/// them.
fn open_loop(args: &Args, rig: &mut Rig, out: &mut Outcome) {
    const INTERVAL: Duration = Duration::from_micros(100);
    let n = args.scaled(10_000);
    let (seed, names) = (args.seed, &rig.names);
    let results: Vec<(Vec<u32>, Vec<u32>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let client = client.enter();
                    let mut rng = SplitMix64::stream(seed, 0x0BE, c as u64);
                    let (mut lat, mut late) = (Vec::with_capacity(n), Vec::with_capacity(n));
                    let mut failed = 0u64;
                    let start = Instant::now();
                    for k in 0..n {
                        let due = start + INTERVAL * k as u32;
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let q = QueryIn::draw(&mut rng, 0, ROWS);
                        let ok = client
                            .decide(&names.apps[q.row], &names.kernels[q.row], q.load, q.resident)
                            .is_ok_and(|d| d == q.expected_static());
                        failed += u64::from(!ok);
                        lat.push((Instant::now() - due).as_nanos().min(u32::MAX as u128) as u32);
                        late.push((sent - due).as_nanos().min(u32::MAX as u128) as u32);
                    }
                    (lat, late, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("open-loop thread panicked")).collect()
    });
    let mut lat: Vec<u32> = results.iter().flat_map(|r| r.0.iter().copied()).collect();
    let mut late: Vec<u32> = results.iter().flat_map(|r| r.1.iter().copied()).collect();
    lat.sort_unstable();
    late.sort_unstable();
    let samples = lat.len() as u64;
    out.set_n("server.open20k_p50_us", quantile_sorted(&lat, 0.5) as f64 / 1e3, samples, 0.0);
    out.set_n("server.open20k_p99_us", quantile_sorted(&lat, 0.99) as f64 / 1e3, samples, 0.0);
    out.set_n(
        "bench.open20k_gen_late_p99_us",
        quantile_sorted(&late, 0.99) as f64 / 1e3,
        samples,
        0.0,
    );
    out.oracle.eq(results.iter().map(|r| r.2).sum::<u64>(), 0, "open-loop failures");
}
