//! Exhaustive model checks of the workspace's publish-protocol
//! transcriptions, plus the mutation smoke tests that prove the
//! checker is not vacuously green.

use xar_check::model::{ExploreOpts, Explorer, Trace};
use xar_check::protocols::{
    cached_snap, gen_publish, spsc_ring, striped_fold, thr_cell, PublishOrders,
};

fn explorer(max_schedules: usize) -> Explorer {
    Explorer::new(ExploreOpts { max_schedules, ..ExploreOpts::default() })
}

// ------------------------------------------------------- ArcCell publish

#[test]
fn gen_publish_correct_orderings_hold() {
    let report = explorer(200_000)
        .explore(gen_publish(PublishOrders::CORRECT))
        .unwrap_or_else(|v| panic!("shipped orderings violated:\n{v}"));
    assert!(
        report.schedules >= 1000,
        "want >= 1000 schedules for exhaustiveness, explored {}",
        report.schedules
    );
}

/// The mutation smoke test: weakening the Release/Acquire publish pair
/// to Relaxed must be *detected* — a checker that passes the planted
/// bug would prove nothing about the shipped orderings.
#[test]
fn gen_publish_relaxed_mutation_is_detected() {
    let v = explorer(200_000)
        .explore(gen_publish(PublishOrders::WEAKENED))
        .expect_err("relaxed publish pair must yield a stale read");
    assert!(v.message.contains("stale read"), "unexpected failure: {}", v.message);
}

#[test]
fn gen_publish_violation_replays_by_seed() {
    let v = explorer(200_000)
        .explore(gen_publish(PublishOrders::WEAKENED))
        .expect_err("mutation must be detected");
    let seed = v.trace.seed();
    let replayed = explorer(200_000)
        .replay_seed(gen_publish(PublishOrders::WEAKENED), &seed)
        .expect_err("replaying the failing seed must reproduce the violation");
    assert_eq!(replayed.trace.seed(), seed, "replay walks the identical schedule");
    assert_eq!(replayed.schedules, 1, "replay is a single execution");
}

#[test]
fn exploration_is_deterministic() {
    let run = || {
        explorer(200_000)
            .explore(gen_publish(PublishOrders::WEAKENED))
            .expect_err("mutation must be detected")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.trace, b.trace, "same seed, same failing schedule");
    assert_eq!(a.schedules, b.schedules, "same seed, same search path");
    // A different DFS order finds *a* violation too (possibly another
    // schedule) — the bug exists regardless of walk order.
    let c = Explorer::new(ExploreOpts { max_schedules: 200_000, seed: 7, ..Default::default() })
        .explore(gen_publish(PublishOrders::WEAKENED))
        .expect_err("mutation must be detected from any corner of the tree");
    assert!(!c.trace.choices.is_empty());
}

// ------------------------------------------------ ThrCell in-place publish

#[test]
fn thr_cell_correct_orderings_hold() {
    let report = explorer(200_000)
        .explore(thr_cell(PublishOrders::CORRECT))
        .unwrap_or_else(|v| panic!("shipped cell orderings violated:\n{v}"));
    assert!(
        report.schedules >= 1000,
        "want >= 1000 schedules for exhaustiveness, explored {}",
        report.schedules
    );
}

#[test]
fn thr_cell_relaxed_mutation_is_detected() {
    let v = explorer(200_000)
        .explore(thr_cell(PublishOrders::WEAKENED))
        .expect_err("relaxed cell publish must let an acked update go unseen");
    assert!(v.message.contains("stale pair"), "unexpected failure: {}", v.message);
    // Even fully relaxed, one word is one word: the mutation loses
    // freshness, never atomicity.
    assert!(!v.message.contains("torn pair"));
    explorer(1)
        .replay_seed(thr_cell(PublishOrders::WEAKENED), &v.trace.seed())
        .expect_err("the failing seed must replay to the same violation");
}

// ------------------------------------------- CachedSnap (PR 4 regression)

#[test]
fn cached_snap_gen_before_load_holds() {
    explorer(200_000)
        .explore(cached_snap(true))
        .unwrap_or_else(|v| panic!("gen-before-load must be sound:\n{v}"));
}

#[test]
fn cached_snap_load_before_gen_regression() {
    // The exact bug PR 4 fixed, kept as a permanent schedule: reading
    // data before generation caches fresh gen with stale data.
    let v = explorer(200_000)
        .explore(cached_snap(false))
        .expect_err("load-before-gen must pair stale data with fresh generation");
    assert!(v.message.contains("pairs generation"), "unexpected failure: {}", v.message);
    // And it still reproduces from its own seed.
    explorer(1)
        .replay(cached_snap(false), &v.trace)
        .expect_err("recorded schedule must replay to the same violation");
}

// ----------------------------------------------------------- SPSC ring

#[test]
fn spsc_ring_correct_orderings_hold() {
    let report = explorer(30_000)
        .explore(spsc_ring(PublishOrders::CORRECT))
        .unwrap_or_else(|v| panic!("shipped ring orderings violated:\n{v}"));
    assert!(
        report.schedules >= 1000,
        "want >= 1000 schedules for exhaustiveness, explored {}",
        report.schedules
    );
}

#[test]
fn spsc_ring_relaxed_mutation_is_detected() {
    let v = explorer(30_000)
        .explore(spsc_ring(PublishOrders::WEAKENED))
        .expect_err("relaxed head/tail publishing must yield a stale slot read");
    assert!(
        v.message.contains("stale or torn slot") || v.message.contains("FIFO"),
        "unexpected failure: {}",
        v.message
    );
}

// --------------------------------------- striped fold (PR 6 regression)

#[test]
fn striped_fold_once_holds() {
    let report = explorer(30_000)
        .explore(striped_fold(true))
        .unwrap_or_else(|v| panic!("fold-once snapshotting violated:\n{v}"));
    assert!(
        report.schedules >= 1000,
        "want >= 1000 schedules for exhaustiveness, explored {}",
        report.schedules
    );
}

#[test]
fn striped_fold_twice_torn_read_regression() {
    // The exact bug PR 6 fixed: re-reading stripes for the cumulative
    // walk lets a concurrent writer push the walk past the total.
    let v = explorer(30_000)
        .explore(striped_fold(false))
        .expect_err("fold-twice must tear under a concurrent writer");
    assert!(v.message.contains("torn fold"), "unexpected failure: {}", v.message);
}

// ------------------------------------------------------- explorer basics

#[test]
fn trace_seed_survives_round_trip() {
    let v = explorer(200_000)
        .explore(gen_publish(PublishOrders::WEAKENED))
        .expect_err("mutation must be detected");
    let parsed = Trace::from_seed(&v.trace.seed()).expect("seed parses back");
    assert_eq!(parsed, v.trace);
}

#[test]
fn deadlock_is_reported_not_hung() {
    use xar_check::model::sync::{MArc, MRwLock};
    use xar_check::model::thread;
    let v = explorer(10_000)
        .explore(|| {
            let a = MArc::new(MRwLock::named(0u32, "a"));
            let a2 = MArc::clone(&a);
            let t = thread::spawn(move || {
                let _g = a2.write();
            });
            // Re-entrant write acquisition self-deadlocks; the checker
            // must report it rather than hang the test runner.
            let _g1 = a.write();
            let _g2 = a.write();
            t.join();
        })
        .expect_err("double write-acquire must deadlock");
    assert!(v.message.contains("deadlock"), "unexpected failure: {}", v.message);
}
