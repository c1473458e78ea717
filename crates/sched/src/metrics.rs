//! Per-shard telemetry: decision counters, migration counters, and
//! per-class latency histograms — a facade over the dependency-free
//! [`xar_obs`] primitives. All counters are relaxed atomics — the hot
//! path adds a handful of uncontended `fetch_add`s.
//!
//! A shard hands out one [`MetricsSnapshot`]: its exact counters plus
//! one mergeable log₂-bucketed [`HistSnapshot`] per latency class, in
//! the order of the class table [`hist_class::CLASSES`]. Every surface
//! that lists classes (`StatsV2`, `HistDump`, `DUMP`, the `SERIES`
//! rings) renders from one such snapshot, merged across shards, so a
//! scrape folds each shard once and its counters cannot disagree with
//! its distributions. A new class is one `CLASSES` row and one record
//! call here.
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

use crate::wire::hist_class::{self, CLASSES};
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
#[derive(Default)]
pub struct ShardMetrics {
    stripes: [Stripe; STRIPES],
    reports: AtomicU64,
    batches: AtomicU64,
    decide_batches: AtomicU64,
    /// One latency histogram per class, in [`hist_class::CLASSES`]
    /// order. Decides and flushes are sampled 1 in [`LATENCY_SAMPLE`];
    /// a `DecideBatch` frame is timed when it elected a decide.
    hists: [Histogram; CLASSES.len()],
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
            self.hists[const { hist_class::index(hist_class::DECIDE) }].record(stripe_idx, nanos);
        }
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
                self.hists[const { hist_class::index(hist_class::DECIDE) }]
                    .record_n(stripe_idx, nanos, count);
            }
        }
    }

    /// Records one `DecideBatch` frame's whole-frame handling latency.
    /// Recorded only for frames whose election count was nonzero — the
    /// same 1-in-[`LATENCY_SAMPLE`] economy as single decides, so the
    /// clock stays off most frames.
    pub fn record_decide_batch_ns(&self, stripe: usize, nanos: u64) {
        self.hists[const { hist_class::index(hist_class::DECIDE_BATCH) }].record(stripe, nanos);
    }

    /// Records one elected shard flush (see
    /// [`ShardMetrics::record_batch`]): the apply-loop time over the
    /// drained batch and the snapshot publication time. At `batch = 1`
    /// every report is a flush, and timing each would cost three clock
    /// reads per report, so only sampled flushes get here.
    pub fn record_flush_ns(&self, apply_ns: u64, publish_ns: u64) {
        self.hists[const { hist_class::index(hist_class::REPORT_BATCH) }].record(0, apply_ns);
        self.hists[const { hist_class::index(hist_class::FLUSH_PUBLISH) }].record(0, publish_ns);
    }

    /// The shard's one snapshot: counters (stripes summed) and every
    /// class's histogram, each lane folded exactly once, so every
    /// quantile then reads the owned arrays — no per-bucket atomic
    /// re-loads.
    pub fn snapshot(&self) -> MetricsSnapshot {
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
            hists: self.hists.each_ref().map(Histogram::snapshot),
        }
    }
}

/// A point-in-time copy of one shard (or, merged, the whole engine):
/// its exact counters and one latency distribution per class.
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
    /// One latency distribution per class, in [`hist_class::CLASSES`]
    /// order ([`MetricsSnapshot::hist`] looks one up by class id).
    /// Sampled: the decide histogram's count trails `decides` by about
    /// [`LATENCY_SAMPLE`].
    pub hists: [HistSnapshot; CLASSES.len()],
}

impl MetricsSnapshot {
    /// The distribution of a registered [`hist_class`] id.
    pub fn hist(&self, class: u16) -> &HistSnapshot {
        &self.hists[hist_class::index(class)]
    }

    /// Counters summed and distributions merged bucket-exactly, so the
    /// merge of per-shard snapshots equals one shard that recorded
    /// everything (whole-engine totals).
    pub fn merge(self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            decides: self.decides + other.decides,
            reports: self.reports + other.reports,
            batches: self.batches + other.batches,
            decide_batches: self.decide_batches + other.decide_batches,
            to_arm: self.to_arm + other.to_arm,
            to_fpga: self.to_fpga + other.to_fpga,
            reconfigs: self.reconfigs + other.reconfigs,
            hists: std::array::from_fn(|i| self.hists[i].merge(&other.hists[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::hist_class::{DECIDE, DECIDE_BATCH, FLUSH_PUBLISH, REPORT_BATCH};

    /// One decide on stripe 0 with its latency, timed whether or not
    /// the stripe elected it: a test measuring every event.
    fn decide(m: &ShardMetrics, target: Target, reconfigure: bool, nanos: u64) {
        m.note_decide(0);
        m.note_outcome(0, target, reconfigure, Some(nanos));
    }

    #[test]
    fn counters_and_migrations() {
        let m = ShardMetrics::default();
        decide(&m, Target::X86, false, 100);
        decide(&m, Target::Arm, true, 100);
        decide(&m, Target::Fpga, false, 100);
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
            decide(&m, Target::X86, false, 1_000); // ~2^10
        }
        decide(&m, Target::X86, false, 1_000_000); // ~2^20
        let s = m.snapshot();
        let (p50, p99) = (s.hist(DECIDE).percentile(0.50), s.hist(DECIDE).percentile(0.99));
        assert!((1_000..=2_048).contains(&p50), "{p50}");
        assert!(p99 <= 2_048, "99/100 samples are ~1us: {p99}");
        assert!(p50 <= p99);
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
        assert_eq!(s.hist(DECIDE).count(), 3, "decides 0, 64 and 128 were elected");
        assert!(s.hist(DECIDE).percentile(0.50) >= 100, "quantiles come from the elected samples");
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
        assert_eq!(s.hist(DECIDE).count(), 1);
        assert!(s.hist(DECIDE).percentile(0.50) >= 500, "amortized sample landed");
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
    fn empty_histogram_reports_zero() {
        let s = ShardMetrics::default().snapshot();
        assert!(s.hists.iter().all(|h| h.count() == 0 && h.percentile(0.50) == 0));
    }

    #[test]
    fn single_sample_lands_in_its_bucket_bound() {
        let m = ShardMetrics::default();
        decide(&m, Target::X86, false, 1);
        let d = *m.snapshot().hist(DECIDE);
        assert_eq!(d.percentile(0.50), 2, "total = 1: both quantiles are the one sample's bucket");
        assert_eq!(d.percentile(0.99), 2);
    }

    #[test]
    fn open_ended_last_bucket_saturates_to_the_sentinel() {
        // One sample beyond the histogram's range: the last bucket has
        // no upper bound, so 2^40 ns would be a lie — the sentinel
        // says "off the scale".
        let m = ShardMetrics::default();
        decide(&m, Target::X86, false, u64::MAX);
        let d = *m.snapshot().hist(DECIDE);
        assert_eq!(d.percentile(0.50), u64::MAX);
        assert_eq!(d.percentile(0.99), u64::MAX);
        // Mixed mass: the median is still bounded, the tail saturates.
        for _ in 0..98 {
            decide(&m, Target::X86, false, 1_000);
        }
        decide(&m, Target::X86, false, u64::MAX);
        let d = *m.snapshot().hist(DECIDE);
        assert!(d.percentile(0.50) <= 2_048, "{}", d.percentile(0.50));
        assert_eq!(d.percentile(0.99), u64::MAX, "2/100 samples off the scale");
    }

    #[test]
    fn each_record_call_lands_in_its_own_class() {
        let m = ShardMetrics::default();
        decide(&m, Target::X86, false, 100);
        m.record_decide_batch_ns(3, 5_000);
        m.record_flush_ns(700, 90);
        m.record_flush_ns(700, 90);
        let s = m.snapshot();
        let counts: Vec<u64> = CLASSES.iter().map(|&(id, _)| s.hist(id).count()).collect();
        assert_eq!(counts, [1, 1, 2, 2], "in CLASSES order");
        assert!(s.hist(DECIDE_BATCH).percentile(0.5) >= 5_000);
        assert!(s.hist(REPORT_BATCH).percentile(0.5) >= 700);
        assert!(s.hist(FLUSH_PUBLISH).percentile(0.5) <= 128);
    }

    /// Merging per-shard snapshots must equal recording everything
    /// into one shard — the cross-worker aggregation every scrape
    /// surface relies on: counters summed, histograms bucket-exact.
    #[test]
    fn snapshots_merge_exactly_across_shards() {
        let shards: Vec<ShardMetrics> = (0..4).map(|_| ShardMetrics::default()).collect();
        let one = ShardMetrics::default();
        for i in 0..200u64 {
            let ns = 1u64 << (i % 45); // spills into the open last bucket
            let shard = &shards[(i % 4) as usize];
            decide(shard, Target::Arm, i % 3 == 0, ns);
            decide(&one, Target::Arm, i % 3 == 0, ns);
            shard.record_flush_ns(ns, ns / 2);
            one.record_flush_ns(ns, ns / 2);
            shard.record_batch(2);
            one.record_batch(2);
        }
        let merged = shards
            .iter()
            .map(ShardMetrics::snapshot)
            .fold(MetricsSnapshot::default(), |acc, s| acc.merge(&s));
        assert_eq!(merged, one.snapshot());
        assert_eq!((merged.decides, merged.reports), (200, 400));
        assert_eq!(merged.hist(DECIDE).count(), 200);
    }
}
