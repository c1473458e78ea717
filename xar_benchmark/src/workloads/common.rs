//! Pieces the socket workloads share in the traced pass.

use crate::affinity::Homed;
use crate::blocks::{drive, summarize, time_ops, BlockOut, Summary, TAILS_P99};
use crate::daemon::Counters;
use crate::harness::{Args, Outcome};
use crate::layers::Probe;
use crate::spans::Trace;

/// Splits `[client][block]` into (even blocks, odd blocks).
fn split_parity(per_client: Vec<Vec<BlockOut>>) -> (Vec<Vec<BlockOut>>, Vec<Vec<BlockOut>>) {
    per_client
        .into_iter()
        .map(|blocks| {
            let (even, odd): (Vec<_>, Vec<_>) =
                blocks.into_iter().enumerate().partition(|(b, _)| b % 2 == 0);
            let strip = |v: Vec<(usize, BlockOut)>| v.into_iter().map(|(_, o)| o).collect();
            (strip(even), strip(odd))
        })
        .unzip()
}

/// p50 of `n` closed-loop operations on each client's own thread, after
/// a tenth as many discarded: `(p50 µs, samples, failed)`.
pub fn closed_loop_p50<C: Send>(
    clients: &mut [Homed<C>],
    n: usize,
    op: impl Fn(&mut C, usize) -> bool + Sync,
) -> (f64, u64, u64) {
    let bodies: Vec<_> = clients
        .iter_mut()
        .map(|client| {
            let (op, mut samples) = (&op, Vec::new());
            move |b: u64| {
                let client = client.enter();
                let count = if b == 0 { n / 10 + 1 } else { n };
                let mut failed = 0u64;
                let wall = time_ops(&mut samples, count, |i| failed += u64::from(!op(client, i)));
                BlockOut::fold(&mut samples, TAILS_P99, count as u64, failed, wall)
            }
        })
        .collect();
    let mut outs = drive(bodies, 0.0, 4);
    for blocks in &mut outs {
        blocks.remove(0);
    }
    let s = summarize(&outs);
    (s.p50_us, s.samples, s.failed)
}

pub fn set_probe(out: &mut Outcome, name: &'static str, p: Probe) {
    out.set_n(name, p.ns, p.samples, 0.0);
}

/// A secondary pass's p50, which must have had no failed operation.
pub fn set_pass(out: &mut Outcome, name: &'static str, (p50, samples, failed): (f64, u64, u64)) {
    out.set_n(name, p50, samples, 0.0);
    out.oracle.eq(failed, 0, name);
}

/// The traced pass alternates untraced (even) and traced (odd) blocks
/// on the same rig, so drift cancels out of the overhead ratio. Returns
/// the two kinds' summaries and records what tracing itself cost.
pub fn trace_summaries(
    out: &mut Outcome,
    per_client: Vec<Vec<BlockOut>>,
    trace: &Trace,
) -> (Summary, Summary) {
    let (plain, traced) = split_parity(per_client);
    let (plain, traced) = (summarize(&plain), summarize(&traced));
    let blocks = traced.blocks as u64;
    out.set_n("bench.trace_overhead_ops", plain.ops_per_s / traced.ops_per_s, blocks, 0.0);
    out.set_n("bench.trace_overhead_p50", traced.p50_us / plain.p50_us, traced.samples, 0.0);
    out.set("bench.spans", trace.span_count() as f64);
    (plain, traced)
}

/// The staged client's four stages of a round trip.
pub fn set_client_spans(out: &mut Outcome, trace: &Trace) {
    let spans = trace.sampled("client.request");
    out.set_n("client.encode_ns", trace.p50_ns("client.encode"), spans, 0.0);
    out.set_n("client.write_syscall_us", trace.p50_ns("sock.write") / 1e3, spans, 0.0);
    out.set_n("client.read_wait_us", trace.p50_ns("sock.wait_read") / 1e3, spans, 0.0);
    out.set_n("client.decode_ns", trace.p50_ns("client.decode"), spans, 0.0);
}

pub fn set_server_counters(out: &mut Outcome, after: &Counters, before: &Counters) {
    let pauses = after.backpressure_pauses - before.backpressure_pauses;
    out.set("server.backpressure_pauses", pauses as f64);
    out.set("server.protocol_errors", (after.protocol_errors - before.protocol_errors) as f64);
    out.set("server.shed_busy", (after.shed_busy - before.shed_busy) as f64);
    out.set("server.accepted_conns", after.accepted_conns as f64);
}

/// Ends a traced pass: the self-time table into the notes, the spans
/// into `trace-<workload>.jsonl` (not with `--quick`).
pub fn finish_trace(args: &Args, out: &mut Outcome, trace: &Trace) {
    out.notes.extend(trace.self_time_lines(&args.workload));
    if !args.quick {
        let path = crate::util::output_root().join(format!("trace-{}.jsonl", args.workload));
        match trace.write_jsonl(&path) {
            Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
            Err(e) => out.oracle.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
}
