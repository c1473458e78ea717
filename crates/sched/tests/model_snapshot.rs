//! Model-checked interleavings of the *shipping* snapshot publish
//! protocol, in-place threshold cells and striped metrics.
//!
//! Only built with `--features model`, which routes
//! `sync_abstraction` (here and transitively in xar-obs) to the
//! xar-check shims: the explorer drives the exact `ArcCell` /
//! `CachedSnap` / `ThrCell` / `ShardMetrics` code that production builds compile
//! against std atomics and locks — not a hand-written model.

use std::sync::Arc;
use xar_check::model::sync::{MAtomicU64, Ordering};
use xar_check::model::{thread, ExploreOpts, Explorer};
use xar_desim::Target;
use xar_sched::metrics::ShardMetrics;
use xar_sched::snapshot::{ArcCell, CachedSnap, ThrCell};

fn explorer(max_schedules: usize) -> Explorer {
    Explorer::new(ExploreOpts { max_schedules, ..ExploreOpts::default() })
}

/// The PR 4 invariant on the shipping type: a cached reader racing two
/// publishes never observes a regressed snapshot, and converges to the
/// final value once the publisher joins.
#[test]
fn real_cached_snap_never_regresses_under_publish_race() {
    let report = explorer(20_000)
        .explore(|| {
            let cell = Arc::new(ArcCell::new(0u64));
            let publisher = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    cell.store(1);
                    cell.store(2);
                })
            };
            let mut cached = CachedSnap::new();
            let mut last = 0u64;
            for _ in 0..3 {
                let v = *cached.get(&cell);
                assert!(v >= last, "regressed snapshot: {v} after {last}");
                last = v;
            }
            publisher.join();
            assert_eq!(*cached.get(&cell), 2, "cached reader converges after join");
            assert_eq!(cached.generation(), 2);
        })
        .unwrap_or_else(|v| panic!("shipping CachedSnap violated gen-before-load:\n{v}"));
    assert!(report.schedules >= 1000, "want >= 1000 schedules, got {}", report.schedules);
}

/// The in-place publish on the shipping type: a reader that observed a
/// report's ack loads that report's thresholds or newer ones, every
/// pair it loads is one the writer stored whole, and a snapshot `Arc`
/// cached before the updates serves them without being refreshed.
#[test]
fn real_thr_cell_serves_acked_updates_whole_through_a_cached_snapshot() {
    let report = explorer(20_000)
        .explore(|| {
            let snap = Arc::new(ArcCell::new(ThrCell::new(0, 100)));
            let acked = Arc::new(MAtomicU64::new(0));
            let mut cached = CachedSnap::new();
            cached.get(&snap);
            let writer = {
                let (snap, acked) = (Arc::clone(&snap), Arc::clone(&acked));
                thread::spawn(move || {
                    let cell = snap.load();
                    for k in 1..=3u32 {
                        cell.store(k, 100 + k);
                        acked.store(k as u64, Ordering::Release);
                    }
                })
            };
            for _ in 0..2 {
                let ack = acked.load(Ordering::Acquire);
                let (fpga, arm) = cached.get(&snap).load();
                assert_eq!(arm, 100 + fpga, "torn pair ({fpga}, {arm})");
                assert!(fpga as u64 >= ack, "acked update {ack} unseen: read update {fpga}");
            }
            writer.join();
            assert_eq!(cached.get(&snap).load(), (3, 103));
            assert_eq!(cached.generation(), 0, "in-place updates never move the generation");
        })
        .unwrap_or_else(|v| panic!("shipping ThrCell violated ack-then-fresh:\n{v}"));
    assert!(report.schedules >= 1000, "want >= 1000 schedules, got {}", report.schedules);
}

/// The PR 6 invariant on the shipping type: a metrics snapshot taken
/// while another stripe is being hammered never counts phantom decides
/// and is exact once the writer joins.
#[test]
fn real_shard_metrics_fold_is_exact_under_race() {
    let report = explorer(1_500)
        .explore(|| {
            let m = Arc::new(ShardMetrics::default());
            let writer = {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let sampled = m.note_decide(1);
                    m.note_outcome(1, Target::Arm, false, sampled.then_some(50));
                    m.note_decide(1);
                })
            };
            let mid = m.snapshot();
            assert!(mid.decides <= 2, "phantom decides: {}", mid.decides);
            assert!(mid.to_arm <= mid.decides, "outcome counted before its decide");
            writer.join();
            let done = m.snapshot();
            assert_eq!(done.decides, 2, "post-join stripe fold must be exact");
            assert_eq!(done.to_arm, 1);
            let decide = done.hist(xar_sched::wire::hist_class::DECIDE);
            assert_eq!(decide.count(), 1, "first decide of the stripe was elected");
        })
        .unwrap_or_else(|v| panic!("shipping ShardMetrics violated fold exactness:\n{v}"));
    assert!(report.schedules >= 1000, "want >= 1000 schedules, got {}", report.schedules);
}
