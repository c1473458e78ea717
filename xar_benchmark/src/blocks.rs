//! The closed-loop block driver shared by every workload.
//!
//! A run is a sequence of equal **blocks**: every load-generator thread
//! performs a fixed number of operations per block, all threads start a
//! block together on a barrier, and blocks repeat until `--seconds` has
//! elapsed. Each block yields one throughput figure and one latency
//! distribution, and the run reports the **quiet-decile block**: the
//! block a tenth of the way down from the best (90th-percentile
//! throughput, 10th-percentile p50 and tail). The VM shares its host:
//! neighbours only ever slow a block down, by an amount that changes
//! from minute to minute, so the median block follows the host's load
//! (ten-run spreads of 15 % on throughput and 26 % on the tail in a busy
//! quarter of an hour, 3 % and 5 % in a quiet one) while the quiet
//! decile stays with the program (7 % and 10 %; 3 % and 5 %). A slower
//! program slows every block, the quiet ones too. Because a block's
//! size is fixed, counters read across one block repeat exactly whatever
//! the run length.

use crate::util::{quantile, quantile_sorted, rep_spread};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one load-generator thread reports for one block. Fixed size:
/// the latencies are folded into quantiles (and the program's answers
/// checked) as soon as the block's clock stops, so the benchmark's own
/// memory does not grow with how many blocks fit into the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockOut {
    /// Timed operations in the block.
    pub samples: u64,
    pub p50_ns: u32,
    pub tail_ns: u32,
    pub top_ns: u32,
    /// Units of work done (decides, calls, jobs, guest instructions):
    /// the numerator of `ops_per_s`.
    pub work: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Host time this thread spent on the block.
    pub wall: Duration,
}

impl BlockOut {
    /// Folds a block's latencies (sorted in place). `tails` are the
    /// gated tail percentile — the highest with about ten samples of a
    /// block beyond it — and a higher one for the per-layer table.
    pub fn fold(
        samples_ns: &mut [u32],
        tails: Tails,
        work: u64,
        failed: u64,
        wall: Duration,
    ) -> BlockOut {
        samples_ns.sort_unstable();
        BlockOut {
            samples: samples_ns.len() as u64,
            p50_ns: quantile_sorted(samples_ns, 0.5),
            tail_ns: quantile_sorted(samples_ns, tails.0),
            top_ns: quantile_sorted(samples_ns, tails.1),
            work,
            failed,
            wall,
        }
    }
}

/// How far down from the best block the reported one sits.
const QUIET: f64 = 0.10;

/// `(gated tail, per-layer top)` percentiles of a block.
pub type Tails = (f64, f64);
/// Blocks of a thousand or more round trips.
pub const TAILS_P99: Tails = (0.99, 0.999);
/// `decide-rtt`'s blocks of 5 000 round trips. About one round trip in
/// a hundred meets a timer tick or an interrupt and takes ~20 µs instead
/// of ~8: p99 sits on that cliff (12 µs or 20 µs as the share moves
/// across 1 %, which it does with the host's load), p99.5 stays beyond
/// it with 25 samples of a block to spare.
pub const TAILS_P995: Tails = (0.995, 0.999);
/// Blocks of a few hundred cycles.
pub const TAILS_P95: Tails = (0.95, 0.99);
/// Blocks of tens of long operations.
pub const TAILS_P90: Tails = (0.90, 0.99);

/// The quiet-decile-block summary of a run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub blocks: usize,
    pub samples: u64,
    pub work: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub tail_us: f64,
    /// Higher percentile, for the per-layer table only.
    pub top_us: f64,
    pub ops_spread: f64,
    pub p50_spread: f64,
    pub tail_spread: f64,
}

/// Runs `clients` in lock-step blocks for `seconds` (at least
/// `min_blocks`), one thread each. Returns `[client][block]`. A lone
/// client runs on the calling thread: a spawned thread allocates from an
/// arena of its own, which made the single-threaded workloads' peak RSS
/// differ by 10 % between identical runs.
pub fn drive<F>(mut clients: Vec<F>, seconds: f64, min_blocks: usize) -> Vec<Vec<BlockOut>>
where
    F: FnMut(u64) -> BlockOut + Send,
{
    let barrier = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let lane = |mut client: F| {
        let mut outs = Vec::new();
        for block in 0u64.. {
            // The leader's verdict on the previous block is ordered
            // before this wait returns.
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            outs.push(client(block));
            if barrier.wait().is_leader() && Instant::now() >= deadline && outs.len() >= min_blocks
            {
                stop.store(true, Ordering::SeqCst);
            }
        }
        outs
    };
    if clients.len() == 1 {
        return clients.drain(..).map(lane).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = clients.into_iter().map(|client| s.spawn(|| lane(client))).collect();
        handles.into_iter().map(|h| h.join().expect("load-generator thread panicked")).collect()
    })
}

/// Folds `[client][block]` outputs into the quiet-decile summary. A
/// block's throughput is all clients' work over the slowest client's
/// wall time; its quantiles are the mean of the clients' quantiles.
pub fn summarize(per_client: &[Vec<BlockOut>]) -> Summary {
    let blocks = per_client.iter().map(Vec::len).min().unwrap_or(0);
    assert!(blocks > 0, "no block completed");
    let (mut tput, mut p50, mut tail, mut top) = (vec![], vec![], vec![], vec![]);
    let mut sum = Summary { blocks, ..Summary::default() };
    let clients = per_client.len() as f64;
    for b in 0..blocks {
        let (mut work, mut wall) = (0u64, Duration::ZERO);
        let (mut q50, mut qt, mut qtop) = (0.0, 0.0, 0.0);
        for c in per_client {
            let o = &c[b];
            sum.samples += o.samples;
            sum.failed += o.failed;
            work += o.work;
            wall = wall.max(o.wall);
            q50 += o.p50_ns as f64;
            qt += o.tail_ns as f64;
            qtop += o.top_ns as f64;
        }
        sum.work += work;
        tput.push(work as f64 / wall.as_secs_f64());
        p50.push(q50 / clients / 1e3);
        tail.push(qt / clients / 1e3);
        top.push(qtop / clients / 1e3);
    }
    sum.ops_per_s = quantile(&tput, 1.0 - QUIET);
    sum.p50_us = quantile(&p50, QUIET);
    sum.tail_us = quantile(&tail, QUIET);
    sum.top_us = quantile(&top, QUIET);
    sum.ops_spread = rep_spread(&tput);
    sum.p50_spread = rep_spread(&p50);
    sum.tail_spread = rep_spread(&tail);
    sum
}

/// Times `op` `n` times back to back, one clock read per boundary,
/// into `samples` (cleared first, so one buffer serves every block).
pub fn time_ops(samples: &mut Vec<u32>, n: usize, mut op: impl FnMut(usize)) -> Duration {
    samples.clear();
    samples.reserve(n);
    let start = Instant::now();
    let mut prev = start;
    for i in 0..n {
        op(i);
        let now = Instant::now();
        samples.push((now - prev).as_nanos().min(u32::MAX as u128) as u32);
        prev = now;
    }
    prev - start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_run_in_lock_step_and_summarize() {
        let mk = |work: u64| {
            let mut samples = Vec::new();
            move |_b: u64| {
                let wall = time_ops(&mut samples, 10, |_| std::hint::black_box(()));
                BlockOut::fold(&mut samples, TAILS_P90, work, 0, wall)
            }
        };
        let outs = drive(vec![mk(10), mk(10)], 0.0, 3);
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].len(), 3, "min_blocks honoured past the deadline");
        assert_eq!(outs[0].len(), outs[1].len());
        let s = summarize(&outs);
        assert_eq!((s.blocks, s.samples, s.work, s.failed), (3, 60, 60, 0));
        assert!(s.ops_per_s > 0.0);
    }
}
