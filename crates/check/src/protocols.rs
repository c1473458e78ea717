//! Shim-term transcriptions of the workspace's cross-thread publish
//! protocols, small enough for the explorer to cover exhaustively.
//!
//! Each function returns a scenario body for
//! [`crate::model::Explorer::explore`]. The transcriptions keep the
//! *protocol* — the loads, stores and orderings that make the real
//! primitive correct — while shrinking everything incidental (capacity
//! 2 instead of 4096, two stripes instead of sixteen). Where the real
//! primitive's safety rests on an ordering pair, the pair is a
//! parameter, so tests can both prove the shipped orderings correct
//! and prove the checker *detects* a weakened mutation (a checker that
//! can't find a planted bug proves nothing).
//!
//! The scenarios encode, as permanent schedules, the two concurrency
//! bugs previously fixed by hand — the `CachedSnap` gen-before-load
//! ordering (PR 4) and the striped-lane fold-once torn read (PR 6) —
//! and the in-place threshold-cell publish that replaced the
//! per-report snapshot swap.

use crate::model::sync::{MArc, MAtomicU64, MAtomicUsize, Ordering};
use crate::model::thread;

/// The ordering pair a publish protocol hangs on: `publish` orders the
/// flag/generation/head store after the data it announces; `observe`
/// orders the data load after the flag load that justified it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishOrders {
    pub publish: Ordering,
    pub observe: Ordering,
}

impl PublishOrders {
    /// What the workspace primitives actually ship.
    pub const CORRECT: PublishOrders =
        PublishOrders { publish: Ordering::Release, observe: Ordering::Acquire };

    /// The mutation the smoke test plants: drop both sides to
    /// `Relaxed`, severing the synchronizes-with edge.
    pub const WEAKENED: PublishOrders =
        PublishOrders { publish: Ordering::Relaxed, observe: Ordering::Relaxed };
}

/// `ArcCell`-style generation publishing (`sched::snapshot`): a writer
/// stores data then bumps a generation counter; a reader that observed
/// generation `g` must never see data older than publish `g`.
pub fn gen_publish(o: PublishOrders) -> impl Fn() + Send + Sync + 'static {
    const PUBLISHES: u64 = 3;
    const READS: usize = 2;
    move || {
        let data = MArc::new(MAtomicU64::named(0, "data"));
        let generation = MArc::new(MAtomicU64::named(0, "gen"));
        let (d2, g2) = (MArc::clone(&data), MArc::clone(&generation));
        let w = thread::spawn(move || {
            for k in 1..=PUBLISHES {
                d2.store(k, Ordering::Relaxed);
                g2.fetch_add(1, o.publish);
            }
        });
        for _ in 0..READS {
            let g = generation.load(o.observe);
            let d = data.load(Ordering::Relaxed);
            assert!(d >= g, "observed generation {g} but data from publish {d}: stale read");
        }
        w.join();
        assert_eq!(generation.load(Ordering::Relaxed), PUBLISHES);
        assert_eq!(data.load(Ordering::Relaxed), PUBLISHES);
    }
}

/// `ThrCell` in-place publish (`sched::snapshot`): a flush overwrites
/// a row's packed `(fpga_thr, arm_thr)` word, then the report is acked.
/// A reader that observed ack `k` must load update `k` or a newer one,
/// and every word it ever loads must be one the writer stored whole.
/// Update `k` stores the pair `(k, PAIR_GAP + k)`, so a word assembled
/// from two different updates cannot pass for a stored one.
pub fn thr_cell(o: PublishOrders) -> impl Fn() + Send + Sync + 'static {
    const UPDATES: u64 = 3;
    const READS: usize = 2;
    const PAIR_GAP: u64 = 100;
    let pack = |k: u64| k << 32 | (PAIR_GAP + k);
    move || {
        let cell = MArc::new(MAtomicU64::named(pack(0), "cell"));
        let acked = MArc::new(MAtomicU64::named(0, "acked"));
        let (c2, a2) = (MArc::clone(&cell), MArc::clone(&acked));
        let w = thread::spawn(move || {
            for k in 1..=UPDATES {
                c2.store(pack(k), o.publish);
                a2.store(k, o.publish);
            }
        });
        for _ in 0..READS {
            let ack = acked.load(o.observe);
            let word = cell.load(o.observe);
            let (fpga, arm) = (word >> 32, word & 0xFFFF_FFFF);
            assert!(arm == PAIR_GAP + fpga, "torn pair ({fpga}, {arm}): never stored");
            assert!(
                fpga >= ack,
                "observed ack {ack} but thresholds from update {fpga}: stale pair"
            );
        }
        w.join();
        assert_eq!(cell.load(Ordering::Relaxed), pack(UPDATES));
    }
}

/// `CachedSnap::get` (PR 4): the cached `(generation, data)` pair is
/// only sound if the generation is read *before* the data — the pair
/// then under-claims and the next `get` re-checks. Read the other way
/// round, a publish landing between the two loads caches fresh
/// generation with stale data, which `get` then serves forever.
pub fn cached_snap(gen_before_load: bool) -> impl Fn() + Send + Sync + 'static {
    const PUBLISHES: u64 = 2;
    move || {
        let data = MArc::new(MAtomicU64::named(0, "data"));
        let generation = MArc::new(MAtomicU64::named(0, "gen"));
        let (d2, g2) = (MArc::clone(&data), MArc::clone(&generation));
        let w = thread::spawn(move || {
            for k in 1..=PUBLISHES {
                d2.store(k, Ordering::Relaxed);
                g2.fetch_add(1, Ordering::Release);
            }
        });
        let (g, d) = if gen_before_load {
            let g = generation.load(Ordering::Acquire);
            let d = data.load(Ordering::Relaxed);
            (g, d)
        } else {
            let d = data.load(Ordering::Relaxed);
            let g = generation.load(Ordering::Acquire);
            (g, d)
        };
        // The cache claims "this data is current as of generation g";
        // serving data older than g is exactly the PR 4 bug.
        assert!(d >= g, "cached pair pairs generation {g} with data from publish {d}");
        w.join();
    }
}

/// SPSC trace ring (`obs::trace`), capacity 2: producer pushes
/// sequence numbers (dropping on full), consumer pops. Checks FIFO
/// exactness (popped = exact prefix of accepted), conservation after
/// join, and drop-counter exactness at the full/empty boundaries.
pub fn spsc_ring(o: PublishOrders) -> impl Fn() + Send + Sync + 'static {
    const CAP: usize = 2;
    const PUSHES: u64 = 4;
    const POP_ATTEMPTS: usize = 5;
    move || {
        let head = MArc::new(MAtomicUsize::named(0, "head"));
        let tail = MArc::new(MAtomicUsize::named(0, "tail"));
        let slots = MArc::new([MAtomicU64::named(0, "slot0"), MAtomicU64::named(0, "slot1")]);
        let dropped = MArc::new(MAtomicU64::named(0, "dropped"));
        let accepted: MArc<Vec<MAtomicU64>> =
            MArc::new((0..PUSHES).map(|_| MAtomicU64::named(0, "accepted")).collect());
        let accepted_n = MArc::new(MAtomicU64::named(0, "accepted_n"));
        let popped: MArc<Vec<MAtomicU64>> =
            MArc::new((0..PUSHES).map(|_| MAtomicU64::named(0, "popped")).collect());
        let popped_n = MArc::new(MAtomicU64::named(0, "popped_n"));

        let producer = {
            let (head, tail, slots) = (MArc::clone(&head), MArc::clone(&tail), MArc::clone(&slots));
            let (dropped, accepted, accepted_n) =
                (MArc::clone(&dropped), MArc::clone(&accepted), MArc::clone(&accepted_n));
            thread::spawn(move || {
                let mut h = 0usize; // producer-owned head
                let mut acc = 0usize;
                for seq in 1..=PUSHES {
                    let t = tail.load(o.observe);
                    if h - t >= CAP {
                        // A stale tail only under-reports free space, so
                        // this can spuriously drop but never overwrite.
                        dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    slots[h % CAP].store(seq, Ordering::Relaxed);
                    h += 1;
                    head.store(h, o.publish);
                    accepted[acc].store(seq, Ordering::Relaxed);
                    acc += 1;
                }
                accepted_n.store(acc as u64, Ordering::Relaxed);
            })
        };
        let consumer = {
            let (head, tail, slots) = (MArc::clone(&head), MArc::clone(&tail), MArc::clone(&slots));
            let (popped, popped_n) = (MArc::clone(&popped), MArc::clone(&popped_n));
            thread::spawn(move || {
                let mut t = 0usize; // consumer-owned tail
                let mut last = 0u64;
                let mut n = 0usize;
                for _ in 0..POP_ATTEMPTS {
                    let h = head.load(o.observe);
                    if t == h {
                        continue; // empty (possibly spuriously, via a stale head)
                    }
                    let v = slots[t % CAP].load(Ordering::Relaxed);
                    assert!(v > last, "pop read {v} after {last}: stale or torn slot");
                    popped[n].store(v, Ordering::Relaxed);
                    n += 1;
                    last = v;
                    t += 1;
                    tail.store(t, o.publish);
                }
                popped_n.store(n as u64, Ordering::Relaxed);
            })
        };
        producer.join();
        consumer.join();
        // Joins ordered both threads before us: every load below is exact.
        let acc = accepted_n.load(Ordering::Relaxed) as usize;
        let pop = popped_n.load(Ordering::Relaxed) as usize;
        let (h, t) = (head.load(Ordering::Relaxed), tail.load(Ordering::Relaxed));
        assert_eq!(h, acc, "head counts accepted pushes");
        assert_eq!(t, pop, "tail counts pops");
        assert_eq!(
            dropped.load(Ordering::Relaxed) as usize + acc,
            PUSHES as usize,
            "drop counter exactness"
        );
        assert!(pop + (h - t) == acc, "conservation: popped + in-ring == accepted");
        for j in 0..pop {
            assert_eq!(
                popped[j].load(Ordering::Relaxed),
                accepted[j].load(Ordering::Relaxed),
                "FIFO: popped[{j}] must equal accepted[{j}]"
            );
        }
        for (j, pos) in (t..h).enumerate() {
            assert_eq!(
                slots[pos % CAP].load(Ordering::Relaxed),
                accepted[pop + j].load(Ordering::Relaxed),
                "residue: ring slot {pos} holds the next undelivered entry"
            );
        }
    }
}

/// Striped-lane fold-once (`sched::metrics::percentile`, PR 6): a
/// snapshot must read each stripe atomic exactly once and reuse the
/// folded values. `fold_once = false` re-reads the stripes for the
/// cumulative walk — the torn read PR 6 fixed — and a concurrent
/// writer makes the walk exceed the total.
pub fn striped_fold(fold_once: bool) -> impl Fn() + Send + Sync + 'static {
    const STRIPES: usize = 2;
    const INCREMENTS: usize = 4;
    const SNAPSHOTS: usize = 2;
    move || {
        let stripes: MArc<Vec<MAtomicU64>> =
            MArc::new((0..STRIPES).map(|_| MAtomicU64::named(0, "stripe")).collect());
        let s2 = MArc::clone(&stripes);
        let w = thread::spawn(move || {
            for i in 0..INCREMENTS {
                s2[i % STRIPES].fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut prev_total = 0u64;
        for _ in 0..SNAPSHOTS {
            let folded: Vec<u64> = stripes.iter().map(|s| s.load(Ordering::Relaxed)).collect();
            let total: u64 = folded.iter().sum();
            let walked: u64 = if fold_once {
                folded.iter().sum()
            } else {
                stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
            };
            assert!(
                walked <= total,
                "torn fold: cumulative walk {walked} exceeds folded total {total}"
            );
            assert!(total >= prev_total, "snapshot total regressed: {total} < {prev_total}");
            prev_total = total;
        }
        w.join();
        let exact: u64 = stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(exact, INCREMENTS as u64, "join makes the count exact");
    }
}
