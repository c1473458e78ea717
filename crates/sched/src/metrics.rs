//! Per-shard telemetry: decision counters, migration counters, and
//! per-op-class latency histograms — a facade over the dependency-free
//! [`xar_obs`] primitives. All counters are relaxed atomics — the hot
//! path adds a handful of uncontended `fetch_add`s.
//!
//! Latency distributions are [`xar_obs::Histogram`]s, one per op class
//! (decide, decide-batch frame, report-batch apply, flush-publish):
//! full mergeable log₂-bucketed distributions, not just a p50/p99 pair.
//! The compact [`MetricsSnapshot`] view (engine totals plus a decide
//! p50/p99 pair) is derived from the decide histogram; the full
//! distributions surface through [`ObsSnapshot`] into `StatsV2` and
//! the v1 `DUMP` exposition.
//!
//! Decide latency is *sampled*: timing a decide costs two
//! `clock_gettime` calls, which at millions of decides per second is a
//! real tax on the path the histogram is supposed to observe.
//! [`ShardMetrics::note_decide`] elects 1 in [`LATENCY_SAMPLE`]
//! decides (always including a shard's first) for timing;
//! decide/migration/reconfig counters stay exact. Flushes are sampled
//! the same way: at the default `batch = 1` every report is a flush, so
//! [`ShardMetrics::record_batch`] elects 1 in [`LATENCY_SAMPLE`] flushes
//! (always a shard's first) for the report-batch and flush-publish
//! histograms, and the report and batch counters stay exact.

use xar_desim::Target;
use xar_obs::sync_abstraction::{AtomicU64, Ordering};
use xar_obs::{HistSnapshot, Histogram};

/// One decide in `LATENCY_SAMPLE` is latency-timed (each stripe's
/// exact decide counter drives the election, always sampling a
/// stripe's first decide).
pub const LATENCY_SAMPLE: u64 = 64;

/// Decide-counter stripes. A shard hammered by many worker threads
/// must not serialize them on one counter cache line, so the
/// decide/migration/reconfig counters are striped LongAdder-style:
/// each [`crate::engine::DecideHandle`] owns a stripe index, writes
/// land on distinct cache lines, and snapshots sum the stripes.
/// Counts stay exact — striping changes contention, not arithmetic.
pub const STRIPES: usize = 16;

/// One cache-line-isolated slice of the decide counters. 128-byte
/// alignment covers the common 64 B line and adjacent-line prefetchers.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe {
    decides: AtomicU64,
    to_arm: AtomicU64,
    to_fpga: AtomicU64,
    reconfigs: AtomicU64,
}

/// Live counters for one policy shard.
pub struct ShardMetrics {
    stripes: [Stripe; STRIPES],
    reports: AtomicU64,
    batches: AtomicU64,
    decide_batches: AtomicU64,
    /// Sampled decide latency (1 in [`LATENCY_SAMPLE`]); the source of
    /// the legacy p50/p99 pair and the `decide` distribution.
    decide_hist: Histogram,
    /// Whole-frame `DecideBatch` latency, recorded when a frame's
    /// election count is nonzero (same sampling economy as decides).
    decide_batch_hist: Histogram,
    /// Report-batch apply-loop latency (sampled flushes, 1 in
    /// [`LATENCY_SAMPLE`]).
    report_batch_hist: Histogram,
    /// Snapshot publication latency (the same sampled flushes).
    flush_publish_hist: Histogram,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        ShardMetrics {
            stripes: std::array::from_fn(|_| Stripe::default()),
            reports: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            decide_batches: AtomicU64::new(0),
            decide_hist: Histogram::new(),
            decide_batch_hist: Histogram::new(),
            report_batch_hist: Histogram::new(),
            flush_publish_hist: Histogram::new(),
        }
    }
}

impl ShardMetrics {
    /// Counts one decide on `stripe`; returns whether this decide was
    /// elected for latency sampling (1 in [`LATENCY_SAMPLE`], always
    /// including a stripe's first). Callers skip the clock reads
    /// entirely for unelected decides and pass `None` to
    /// [`ShardMetrics::note_outcome`].
    pub fn note_decide(&self, stripe: usize) -> bool {
        self.stripes[stripe % STRIPES]
            .decides
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(LATENCY_SAMPLE)
    }

    /// Records a decide's outcome on `stripe` (and its latency, when
    /// sampled). Pairs with [`ShardMetrics::note_decide`], which owns
    /// the decide count.
    pub fn note_outcome(
        &self,
        stripe_idx: usize,
        target: Target,
        reconfigure: bool,
        nanos: Option<u64>,
    ) {
        let stripe = &self.stripes[stripe_idx % STRIPES];
        match target {
            Target::X86 => {}
            Target::Arm => {
                stripe.to_arm.fetch_add(1, Ordering::Relaxed);
            }
            Target::Fpga => {
                stripe.to_fpga.fetch_add(1, Ordering::Relaxed);
            }
        }
        if reconfigure {
            stripe.reconfigs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(nanos) = nanos {
            // Sampled 1-in-LATENCY_SAMPLE: the histogram lane keyed by
            // the caller's stripe keeps concurrent samplers apart.
            self.decide_hist.record(stripe_idx, nanos);
        }
    }

    /// Records one decide with its handling latency, unconditionally
    /// sampled on stripe 0 — the convenience for tests and
    /// single-threaded callers measuring every event.
    pub fn record_decide(&self, target: Target, reconfigure: bool, nanos: u64) {
        self.stripes[0].decides.fetch_add(1, Ordering::Relaxed);
        self.note_outcome(0, target, reconfigure, Some(nanos));
    }

    /// Records `n` ingested completion reports forming one batch;
    /// returns whether this flush was elected for timing (1 in
    /// [`LATENCY_SAMPLE`], always including a shard's first). Callers
    /// read no clock for an unelected flush.
    pub fn record_batch(&self, n: usize) -> bool {
        self.reports.fetch_add(n as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed).is_multiple_of(LATENCY_SAMPLE)
    }

    /// Counts one `DecideBatch` frame. Frame-level (the batched
    /// queries themselves land in `decides` via
    /// [`ShardMetrics::note_decides`]), kept unstriped like `batches`:
    /// one relaxed RMW amortized over the whole frame.
    pub fn record_decide_batch_frame(&self) {
        self.decide_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` decides on `stripe` with a single add — the batched
    /// sibling of [`ShardMetrics::note_decide`] — and returns how many
    /// of them were elected for latency sampling (the multiples of
    /// [`LATENCY_SAMPLE`] falling inside the claimed count interval, so
    /// a stream of batches elects exactly as often as the same decides
    /// one by one). Callers time the batch once when any were elected
    /// and hand the amortized per-decide figure to
    /// [`ShardMetrics::note_outcomes`].
    pub fn note_decides(&self, stripe: usize, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        let prev = self.stripes[stripe % STRIPES].decides.fetch_add(n, Ordering::Relaxed);
        // Multiples of LATENCY_SAMPLE in [prev, prev + n).
        (prev + n).div_ceil(LATENCY_SAMPLE) - prev.div_ceil(LATENCY_SAMPLE)
    }

    /// Folds a whole batch's outcomes into `stripe` — one add per
    /// counter actually touched, not one per decide. `sampled` carries
    /// the election count from [`ShardMetrics::note_decides`] and the
    /// amortized per-decide latency; each elected sample lands in the
    /// histogram at that value.
    pub fn note_outcomes(
        &self,
        stripe_idx: usize,
        to_arm: u64,
        to_fpga: u64,
        reconfigs: u64,
        sampled: Option<(u64, u64)>,
    ) {
        let stripe = &self.stripes[stripe_idx % STRIPES];
        if to_arm > 0 {
            stripe.to_arm.fetch_add(to_arm, Ordering::Relaxed);
        }
        if to_fpga > 0 {
            stripe.to_fpga.fetch_add(to_fpga, Ordering::Relaxed);
        }
        if reconfigs > 0 {
            stripe.reconfigs.fetch_add(reconfigs, Ordering::Relaxed);
        }
        if let Some((count, nanos)) = sampled {
            if count > 0 {
                self.decide_hist.record_n(stripe_idx, nanos, count);
            }
        }
    }

    /// Records one `DecideBatch` frame's whole-frame handling latency.
    /// Recorded only for frames whose election count was nonzero — the
    /// same 1-in-[`LATENCY_SAMPLE`] economy as single decides, so the
    /// clock stays off most frames.
    pub fn record_decide_batch_ns(&self, stripe: usize, nanos: u64) {
        self.decide_batch_hist.record(stripe, nanos);
    }

    /// Records one elected shard flush (see
    /// [`ShardMetrics::record_batch`]): the apply-loop time over the
    /// drained batch and the snapshot publication time. At `batch = 1`
    /// every report is a flush, and timing each would cost three clock
    /// reads per report, so only sampled flushes get here.
    pub fn record_flush_ns(&self, apply_ns: u64, publish_ns: u64) {
        self.report_batch_hist.record(0, apply_ns);
        self.flush_publish_hist.record(0, publish_ns);
    }

    /// A consistent-enough copy of the counters for reporting (stripes
    /// summed). The histogram lanes are folded into a local snapshot
    /// exactly once; both quantiles query that owned array — no
    /// per-bucket atomic re-loads.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lat = self.decide_hist.snapshot();
        let sum = |field: fn(&Stripe) -> &AtomicU64| {
            self.stripes.iter().map(|s| field(s).load(Ordering::Relaxed)).sum()
        };
        MetricsSnapshot {
            decides: sum(|s| &s.decides),
            reports: self.reports.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            decide_batches: self.decide_batches.load(Ordering::Relaxed),
            to_arm: sum(|s| &s.to_arm),
            to_fpga: sum(|s| &s.to_fpga),
            reconfigs: sum(|s| &s.reconfigs),
            lat_samples: lat.count(),
            p50_ns: lat.percentile(0.50),
            p99_ns: lat.percentile(0.99),
        }
    }

    /// Full per-op-class latency distributions — the observability view
    /// the legacy [`MetricsSnapshot`] p50/p99 pair cannot carry.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            decide: self.decide_hist.snapshot(),
            decide_batch: self.decide_batch_hist.snapshot(),
            report_batch: self.report_batch_hist.snapshot(),
            flush_publish: self.flush_publish_hist.snapshot(),
        }
    }
}

/// Full latency distributions for one shard (or, merged, the whole
/// engine): one mergeable histogram snapshot per op class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Sampled single-decide handling latency.
    pub decide: HistSnapshot,
    /// Whole-frame `DecideBatch` handling latency (sampled frames).
    pub decide_batch: HistSnapshot,
    /// Report-batch apply-loop latency (sampled flushes).
    pub report_batch: HistSnapshot,
    /// Snapshot publication latency (sampled flushes).
    pub flush_publish: HistSnapshot,
}

impl ObsSnapshot {
    /// Bucket-exact element-wise merge (for whole-engine totals).
    pub fn merge(self, other: &ObsSnapshot) -> ObsSnapshot {
        ObsSnapshot {
            decide: self.decide.merge(&other.decide),
            decide_batch: self.decide_batch.merge(&other.decide_batch),
            report_batch: self.report_batch.merge(&other.report_batch),
            flush_publish: self.flush_publish.merge(&other.flush_publish),
        }
    }
}

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// DECIDE requests handled.
    pub decides: u64,
    /// Completion reports ingested.
    pub reports: u64,
    /// Report batches applied (reports / batches = amortization factor).
    pub batches: u64,
    /// `DecideBatch` frames handled (their queries count in `decides`,
    /// so decides-routed-through-batches / decide_batches is the decide
    /// amortization factor). Attributed to the shard of a frame's
    /// first query; totals are what monitoring reads.
    pub decide_batches: u64,
    /// Decisions that migrated to the ARM server.
    pub to_arm: u64,
    /// Decisions that migrated to the FPGA.
    pub to_fpga: u64,
    /// Decisions that started a background reconfiguration.
    pub reconfigs: u64,
    /// Latency samples in the histogram. With 1-in-[`LATENCY_SAMPLE`]
    /// sampling this trails `decides` by that factor; the quantiles
    /// below are computed over these samples.
    pub lat_samples: u64,
    /// Median decide latency upper bound (ns); [`u64::MAX`] means the
    /// quantile fell in the histogram's open-ended last bucket.
    pub p50_ns: u64,
    /// 99th-percentile decide latency upper bound (ns); [`u64::MAX`]
    /// means the quantile fell in the open-ended last bucket.
    pub p99_ns: u64,
}

impl MetricsSnapshot {
    /// Element-wise sum (for whole-engine totals).
    pub fn merge(self, other: MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            decides: self.decides + other.decides,
            reports: self.reports + other.reports,
            batches: self.batches + other.batches,
            decide_batches: self.decide_batches + other.decide_batches,
            to_arm: self.to_arm + other.to_arm,
            to_fpga: self.to_fpga + other.to_fpga,
            reconfigs: self.reconfigs + other.reconfigs,
            lat_samples: self.lat_samples + other.lat_samples,
            p50_ns: self.p50_ns.max(other.p50_ns),
            p99_ns: self.p99_ns.max(other.p99_ns),
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decides={} reports={} batches={} decide_batches={} to_arm={} to_fpga={} \
             reconfigs={} lat_samples={} p50<{}ns p99<{}ns",
            self.decides,
            self.reports,
            self.batches,
            self.decide_batches,
            self.to_arm,
            self.to_fpga,
            self.reconfigs,
            self.lat_samples,
            self.p50_ns,
            self.p99_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_migrations() {
        let m = ShardMetrics::default();
        m.record_decide(Target::X86, false, 100);
        m.record_decide(Target::Arm, true, 100);
        m.record_decide(Target::Fpga, false, 100);
        m.record_batch(5);
        m.record_batch(3);
        let s = m.snapshot();
        assert_eq!(s.decides, 3);
        assert_eq!(s.to_arm, 1);
        assert_eq!(s.to_fpga, 1);
        assert_eq!(s.reconfigs, 1);
        assert_eq!(s.reports, 8);
        assert_eq!(s.batches, 2);
    }

    #[test]
    fn percentiles_bound_the_samples() {
        let m = ShardMetrics::default();
        for _ in 0..99 {
            m.record_decide(Target::X86, false, 1_000); // ~2^10
        }
        m.record_decide(Target::X86, false, 1_000_000); // ~2^20
        let s = m.snapshot();
        assert!(s.p50_ns >= 1_000 && s.p50_ns <= 2_048, "{}", s.p50_ns);
        assert!(s.p99_ns <= 2_048, "99/100 samples are ~1us: {}", s.p99_ns);
        assert!(s.p50_ns <= s.p99_ns);
    }

    #[test]
    fn latency_sampling_keeps_counters_exact() {
        let m = ShardMetrics::default();
        for _ in 0..(2 * LATENCY_SAMPLE + 1) {
            let sampled = m.note_decide(0);
            m.note_outcome(0, Target::Fpga, true, sampled.then_some(100));
        }
        let s = m.snapshot();
        assert_eq!(s.decides, 2 * LATENCY_SAMPLE + 1, "decide count is exact, not sampled");
        assert_eq!(s.to_fpga, 2 * LATENCY_SAMPLE + 1, "target counters are exact");
        assert_eq!(s.reconfigs, 2 * LATENCY_SAMPLE + 1);
        assert_eq!(s.lat_samples, 3, "decides 0, 64 and 128 were elected");
        assert!(s.p50_ns >= 100, "quantiles come from the elected samples");
    }

    #[test]
    fn first_decide_is_always_sampled() {
        let m = ShardMetrics::default();
        assert!(m.note_decide(0), "an idle stripe's first decide must land in the histogram");
        assert!(!m.note_decide(0));
        assert!(m.note_decide(1), "stripes elect independently");
    }

    #[test]
    fn striped_counters_sum_exactly() {
        let m = ShardMetrics::default();
        for i in 0..100 {
            let sampled = m.note_decide(i);
            m.note_outcome(i, Target::Arm, false, sampled.then_some(50));
        }
        let s = m.snapshot();
        assert_eq!(s.decides, 100, "stripes must sum to the exact decide count");
        assert_eq!(s.to_arm, 100);
    }

    #[test]
    fn batched_decide_notes_elect_exactly_like_singles() {
        // Two metrics fed the same 1000 decides — one by one vs in
        // mixed-size batches — must agree on the decide count AND the
        // number of latency-sample elections.
        let singles = ShardMetrics::default();
        let mut elected_single = 0u64;
        for _ in 0..1000 {
            elected_single += u64::from(singles.note_decide(0));
        }
        let batched = ShardMetrics::default();
        let mut elected_batch = 0u64;
        let mut fed = 0u64;
        for n in [1u64, 63, 64, 65, 7, 300, 500] {
            elected_batch += batched.note_decides(0, n);
            fed += n;
        }
        assert_eq!(fed, 1000);
        assert_eq!(batched.snapshot().decides, singles.snapshot().decides);
        assert_eq!(elected_batch, elected_single, "batch election drifted from 1-in-64");
        assert_eq!(batched.note_decides(0, 0), 0, "empty batch elects nothing");
    }

    #[test]
    fn batched_outcomes_fold_with_one_add_per_counter() {
        let m = ShardMetrics::default();
        let elected = m.note_decides(0, 10);
        assert_eq!(elected, 1, "first decide of an idle stripe is elected");
        m.note_outcomes(0, 3, 4, 2, Some((elected, 500)));
        let s = m.snapshot();
        assert_eq!(s.decides, 10);
        assert_eq!(s.to_arm, 3);
        assert_eq!(s.to_fpga, 4);
        assert_eq!(s.reconfigs, 2);
        assert_eq!(s.lat_samples, 1);
        assert!(s.p50_ns >= 500, "amortized sample landed in the histogram");
    }

    #[test]
    fn decide_batch_frames_count_separately_from_decides() {
        let m = ShardMetrics::default();
        m.record_decide_batch_frame();
        m.note_decides(0, 64);
        m.record_decide_batch_frame();
        m.note_decides(0, 64);
        let s = m.snapshot();
        assert_eq!(s.decide_batches, 2);
        assert_eq!(s.decides, 128);
    }

    #[test]
    fn merge_sums_counts_and_maxes_percentiles() {
        let a = MetricsSnapshot { decides: 2, p99_ns: 10, ..Default::default() };
        let b = MetricsSnapshot { decides: 3, p99_ns: 20, ..Default::default() };
        let m = a.merge(b);
        assert_eq!(m.decides, 5);
        assert_eq!(m.p99_ns, 20);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        assert_eq!(ShardMetrics::default().snapshot().p50_ns, 0);
    }

    #[test]
    fn single_sample_lands_in_its_bucket_bound() {
        let m = ShardMetrics::default();
        m.record_decide(Target::X86, false, 1);
        let s = m.snapshot();
        assert_eq!(s.p50_ns, 2, "total = 1: both quantiles are the one sample's bucket");
        assert_eq!(s.p99_ns, 2);
    }

    #[test]
    fn open_ended_last_bucket_saturates_to_the_sentinel() {
        // One sample beyond the histogram's range: the last bucket has
        // no upper bound, so 2^40 ns would be a lie — the sentinel
        // says "off the scale".
        let m = ShardMetrics::default();
        m.record_decide(Target::X86, false, u64::MAX);
        let s = m.snapshot();
        assert_eq!(s.p50_ns, u64::MAX);
        assert_eq!(s.p99_ns, u64::MAX);
        // Mixed mass: the median is still bounded, the tail saturates.
        for _ in 0..98 {
            m.record_decide(Target::X86, false, 1_000);
        }
        m.record_decide(Target::X86, false, u64::MAX);
        let s = m.snapshot();
        assert!(s.p50_ns <= 2_048, "{}", s.p50_ns);
        assert_eq!(s.p99_ns, u64::MAX, "2/100 samples off the scale");
    }

    #[test]
    fn obs_snapshot_carries_all_four_op_classes() {
        let m = ShardMetrics::default();
        m.record_decide(Target::X86, false, 100);
        m.record_decide_batch_ns(3, 5_000);
        m.record_flush_ns(700, 90);
        let o = m.obs_snapshot();
        assert_eq!(o.decide.count(), 1);
        assert_eq!(o.decide_batch.count(), 1);
        assert_eq!(o.report_batch.count(), 1);
        assert_eq!(o.flush_publish.count(), 1);
        assert!(o.decide_batch.percentile(0.5) >= 5_000);
        assert!(o.flush_publish.percentile(0.5) <= 128);
    }

    /// Merging per-shard `ObsSnapshot`s must equal recording everything
    /// into one shard — the cross-worker aggregation the `DUMP` /
    /// `StatsV2` totals rely on.
    #[test]
    fn obs_snapshots_merge_exactly_across_shards() {
        let shards: Vec<ShardMetrics> = (0..4).map(|_| ShardMetrics::default()).collect();
        let one = ShardMetrics::default();
        for i in 0..200u64 {
            let ns = 1u64 << (i % 45); // spills into the open last bucket
            shards[(i % 4) as usize].record_decide(Target::Arm, false, ns);
            one.record_decide(Target::Arm, false, ns);
            shards[(i % 4) as usize].record_flush_ns(ns, ns / 2);
            one.record_flush_ns(ns, ns / 2);
        }
        let merged = shards
            .iter()
            .map(|s| s.obs_snapshot())
            .fold(ObsSnapshot::default(), |acc, s| acc.merge(&s));
        assert_eq!(merged, one.obs_snapshot());
        assert_eq!(merged.decide.count(), 200);
    }
}
