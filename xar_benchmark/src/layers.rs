//! The "layer phase": short in-process probes that time calls into one
//! crate's public functions with the workload's own inputs. They are
//! measured from outside — nothing here reaches into a crate's
//! internals — and they run only in the traced pass.

use crate::daemon::{self, Names, QueryIn};
use crate::util::{quantile_sorted, SplitMix64};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use xar_core::XarTrekPolicy;
use xar_desim::{CompletionReport, Target};
use xar_sched::obs;
use xar_sched::wire::{self, Request, Response, WireQuery, WireReport};
use xar_sched::{BatchScratch, DecideScratch};

/// A probe's result: median ns per inner operation, and the number of
/// timed samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub ns: f64,
    pub samples: u64,
}

/// Times `samples` runs of `inner` back-to-back calls of `op` (after a
/// tenth as many warm-up runs) and returns the median per-call cost.
/// Batching `inner` calls per clock pair keeps the clock's own ~25 ns
/// out of a ~100 ns operation.
pub fn probe(samples: usize, inner: usize, op: impl FnMut(usize)) -> Probe {
    probe_between(samples, inner, op, || {})
}

/// [`probe`] with untimed work between samples.
pub fn probe_between(
    samples: usize,
    inner: usize,
    mut op: impl FnMut(usize),
    mut between: impl FnMut(),
) -> Probe {
    let mut per_call = Vec::with_capacity(samples);
    let mut i = 0usize;
    for s in 0..samples + samples / 10 {
        let start = Instant::now();
        for _ in 0..inner {
            op(i);
            i += 1;
        }
        let ns = start.elapsed().as_nanos() as u64;
        if s >= samples / 10 {
            per_call.push(ns);
        }
        between();
    }
    per_call.sort_unstable();
    Probe { ns: quantile_sorted(&per_call, 0.5) as f64 / inner as f64, samples: samples as u64 }
}

/// `n` placement queries drawn from the seed over rows `lo..hi`.
pub fn queries(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<QueryIn> {
    let mut rng = SplitMix64::stream(seed, 0xAB5, 0);
    (0..n).map(|_| QueryIn::draw(&mut rng, lo, hi)).collect()
}

/// encode_request + frame_in + decode_request + encode_response +
/// frame_in + decode_response for one `Decide`: all the codec work of
/// one round trip, both sides.
pub fn wire_decide_codec(names: &Names, qs: &[QueryIn], samples: usize) -> Probe {
    let (mut req_buf, mut resp_buf) = (Vec::with_capacity(256), Vec::with_capacity(64));
    probe(samples, 16, |i| {
        let q = qs[i % qs.len()].wire(names);
        req_buf.clear();
        wire::encode_request(
            &Request::Decide {
                app: q.app,
                kernel: q.kernel,
                x86_load: q.x86_load,
                arm_load: q.arm_load,
                kernel_resident: q.kernel_resident,
                device_ready: q.device_ready,
            },
            &mut req_buf,
        );
        let (_, range) = wire::frame_in(&req_buf).expect("frame").expect("whole frame");
        black_box(wire::decode_request(&req_buf[range]).expect("request decodes"));
        resp_buf.clear();
        wire::encode_response(
            &Response::Decide { target: Target::Fpga, reconfigure: false },
            &mut resp_buf,
        );
        let (_, range) = wire::frame_in(&resp_buf).expect("frame").expect("whole frame");
        black_box(wire::decode_response(&resp_buf[range]).expect("response decodes"));
    })
}

/// The same six steps for one 256-query `DecideBatch`, per query.
pub fn wire_batch_codec(names: &Names, qs: &[QueryIn], batch: usize, samples: usize) -> Probe {
    let frames: Vec<Vec<WireQuery<'_>>> =
        qs.chunks_exact(batch).map(|c| c.iter().map(|q| q.wire(names)).collect()).collect();
    let decisions = vec![xar_desim::Decision::to(Target::Arm); batch];
    let (mut req_buf, mut resp_buf) = (Vec::with_capacity(16 << 10), Vec::with_capacity(1024));
    let p = probe(samples, 1, |i| {
        req_buf.clear();
        wire::encode_decide_batch(&frames[i % frames.len()], &mut req_buf);
        let (_, range) = wire::frame_in(&req_buf).expect("frame").expect("whole frame");
        black_box(wire::decode_request(&req_buf[range]).expect("request decodes"));
        resp_buf.clear();
        let mut w = wire::DecideBatchReplyWriter::begin(&mut resp_buf, batch);
        for d in &decisions {
            w.push(d);
        }
        w.finish();
        let (_, range) = wire::frame_in(&resp_buf).expect("frame").expect("whole frame");
        black_box(wire::decode_response(&resp_buf[range]).expect("response decodes"));
    });
    Probe { ns: p.ns / batch as f64, ..p }
}

/// The codec work of one 16-report `BatchReportSeq` and its ack, per
/// report.
pub fn wire_report_codec(names: &Names, qs: &[QueryIn], batch: usize, samples: usize) -> Probe {
    let frames: Vec<Vec<WireReport<'_>>> = qs
        .chunks_exact(batch)
        .map(|c| {
            c.iter()
                .map(|q| WireReport {
                    app: &names.apps[q.row],
                    target: Target::X86,
                    func_ms: 42.5,
                    x86_load: q.load,
                })
                .collect()
        })
        .collect();
    let (mut req_buf, mut resp_buf) = (Vec::with_capacity(4096), Vec::with_capacity(64));
    let p = probe(samples, 4, |i| {
        req_buf.clear();
        wire::encode_batch_report_seq(7, i as u64 + 1, &frames[i % frames.len()], &mut req_buf);
        let (_, range) = wire::frame_in(&req_buf).expect("frame").expect("whole frame");
        black_box(wire::decode_request(&req_buf[range]).expect("request decodes"));
        resp_buf.clear();
        wire::encode_response(&Response::Ack(batch as u32), &mut resp_buf);
        let (_, range) = wire::frame_in(&resp_buf).expect("frame").expect("whole frame");
        black_box(wire::decode_response(&resp_buf[range]).expect("response decodes"));
    });
    Probe { ns: p.ns / batch as f64, ..p }
}

/// `parse_v1_line` on a `DECIDE` line plus the text reply.
pub fn wire_v1_parse(names: &Names, qs: &[QueryIn], samples: usize) -> Probe {
    let lines: Vec<String> = qs
        .iter()
        .take(1024)
        .map(|q| {
            format!(
                "DECIDE {} {} {} {}",
                names.apps[q.row],
                names.kernels[q.row],
                q.load,
                u8::from(q.resident)
            )
        })
        .collect();
    let mut out = Vec::with_capacity(64);
    probe(samples, 16, |i| {
        black_box(wire::parse_v1_line(&lines[i % lines.len()]).expect("line parses"));
        out.clear();
        wire::v1_decide_reply_into(&xar_desim::Decision::to(Target::Arm), &mut out);
        black_box(&out);
    })
}

/// `DecideHandle::decide` on the 10k-row table, steady state.
pub fn engine_decide(names: &Names, qs: &[QueryIn], samples: usize) -> Probe {
    let engine = daemon::reference_engine(names);
    let mut handle = engine.handle();
    let wires: Vec<WireQuery<'_>> = qs.iter().map(|q| q.wire(names)).collect();
    probe(samples, 64, |i| {
        black_box(handle.decide(&wires[i % wires.len()].ctx()));
    })
}

/// `DecideHandle::decide_batch` over 256-query frames, per query.
pub fn engine_decide_batch(names: &Names, qs: &[QueryIn], batch: usize, samples: usize) -> Probe {
    let engine = daemon::reference_engine(names);
    let mut handle = engine.handle();
    let mut scratch = DecideScratch::default();
    let frames: Vec<Vec<WireQuery<'_>>> =
        qs.chunks_exact(batch).map(|c| c.iter().map(|q| q.wire(names)).collect()).collect();
    let p = probe(samples, 1, |i| {
        black_box(handle.decide_batch(&frames[i % frames.len()], &mut scratch).len());
    });
    Probe { ns: p.ns / batch as f64, ..p }
}

/// `report_batch_wire` with one report (batch = 1: Algorithm 1 plus a
/// copy-on-write publish per call).
pub fn engine_ingest(names: &Names, qs: &[QueryIn], samples: usize) -> Probe {
    let engine = daemon::reference_engine(names);
    let mut scratch = BatchScratch::default();
    let mut rng = SplitMix64::new(1);
    probe(samples, 16, |i| {
        let q = qs[i % qs.len()];
        let report = WireReport {
            app: &names.apps[q.row],
            target: Target::X86,
            func_ms: daemon::report_ms(&mut rng),
            x86_load: q.load,
        };
        black_box(engine.report_batch_wire(&mut scratch, std::slice::from_ref(&report)));
    })
}

/// The first `decide` after a publish to the same shard: the handle's
/// cached snapshot is stale and must be refreshed. Only the decide is
/// timed; the publish that invalidates it is not.
pub fn engine_snap_refresh(names: &Names, qs: &[QueryIn], samples: usize) -> Probe {
    let engine = daemon::reference_engine(names);
    let mut handle = engine.handle();
    let mut ns = Vec::with_capacity(samples);
    for i in 0..samples + samples / 10 {
        let q = qs[i % qs.len()];
        engine.ingest(&names.apps[q.row], Target::Arm, 50.0, q.load);
        let wire = q.wire(names);
        let start = Instant::now();
        black_box(handle.decide(&wire.ctx()));
        let took = start.elapsed().as_nanos() as u64;
        if i >= samples / 10 {
            ns.push(took);
        }
    }
    ns.sort_unstable();
    Probe { ns: quantile_sorted(&ns, 0.5) as f64, samples: samples as u64 }
}

/// `XarTrekPolicy::algorithm2`, the pure decision.
pub fn core_algorithm2(qs: &[QueryIn], samples: usize) -> Probe {
    probe(samples, 256, |i| {
        let q = qs[i % qs.len()];
        let (fpga_thr, arm_thr) = daemon::initial_thresholds(q.row);
        black_box(XarTrekPolicy::algorithm2(black_box(q.load), fpga_thr, arm_thr, q.resident));
    })
}

/// `XarTrekPolicy::algorithm1` on the 10k-row table (row lookup, the
/// threshold update and the copy-on-write of the touched row).
pub fn core_algorithm1(names: &Names, qs: &[QueryIn], samples: usize) -> Probe {
    let mut policy = daemon::big_policy(names);
    let mut rng = SplitMix64::new(2);
    probe(samples, 64, |i| {
        let q = qs[i % qs.len()];
        policy.algorithm1(&CompletionReport {
            app: &names.apps[q.row],
            target: daemon::target_of((i % 3) as u8),
            func_ms: daemon::report_ms(&mut rng),
            x86_load: q.load as usize,
        });
    })
}

/// `Histogram::record`, the cost every sampled decide pays.
pub fn obs_hist_record(samples: usize) -> Probe {
    let hist = obs::Histogram::new();
    let p = probe(samples, 256, |i| hist.record(i % obs::LANES, 90 + (i as u64 & 1023)));
    black_box(hist.snapshot().count());
    p
}

/// `Tracer::emit` into a worker ring (drained between samples, so the
/// ring never overflows into its drop path).
pub fn obs_trace_emit(samples: usize) -> Probe {
    let (writer, mut reader) = obs::trace::ring(1024);
    let counters = Arc::new(obs::trace::EventCounters::default());
    let mut tracer = obs::trace::Tracer::new(writer, 0, true, u64::MAX, counters);
    probe_between(
        samples,
        256,
        |i| tracer.emit(obs::trace::Event::Accept { conn: i as u64 }),
        || while reader.pop().is_some() {},
    )
}
