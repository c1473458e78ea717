//! Model-checked interleavings of the *shipping* session dedup
//! protocol (`SessionTable`): slot claiming under racing hellos and
//! the fetch_max high-water mark that makes report replay exactly-once.
//!
//! Only built with `--features model`, which routes
//! `sync_abstraction` to the xar-check shims so the explorer drives
//! the exact CAS-claim / fetch_max code production compiles against
//! std atomics — not a hand-written model.

use std::sync::Arc;
use xar_check::model::{thread, ExploreOpts, Explorer};
use xar_sched::obs::sync_abstraction::{AtomicU64, Ordering};
use xar_sched::session::{SeqOutcome, SessionTable};

fn explorer(max_schedules: usize) -> Explorer {
    Explorer::new(ExploreOpts { max_schedules, ..ExploreOpts::default() })
}

/// The racer's result mailbox encoding (the model `join` carries no
/// return value): 0 = unset, 1 = `Fresh`, 2 = `Replay`.
fn code(o: SeqOutcome) -> u64 {
    match o {
        SeqOutcome::Fresh => 1,
        SeqOutcome::Replay => 2,
    }
}

/// The exactly-once invariant: three workers racing the *same*
/// retried `(session, seq)` stamp elect exactly one `Fresh` — however
/// the fetch_max calls interleave, a replayed batch can never
/// double-ingest.
#[test]
fn same_seq_race_elects_exactly_one_fresh() {
    let report = explorer(20_000)
        .explore(|| {
            let t = Arc::new(SessionTable::new(2));
            let mailboxes = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
            let racers: Vec<_> = mailboxes
                .iter()
                .map(|mailbox| {
                    let (t, mailbox) = (Arc::clone(&t), Arc::clone(mailbox));
                    thread::spawn(move || {
                        let o = t.advance(7, 1).expect("table has room");
                        mailbox.store(code(o), Ordering::Release);
                    })
                })
                .collect();
            let mine = code(t.advance(7, 1).expect("table has room"));
            for racer in racers {
                racer.join();
            }
            let votes =
                [mine, mailboxes[0].load(Ordering::Acquire), mailboxes[1].load(Ordering::Acquire)];
            let fresh = votes.iter().filter(|&&o| o == 1).count();
            assert_eq!(fresh, 1, "same seq stamped {fresh} times: {votes:?}");
            // Post-join the mark holds and any further replay dedups.
            assert_eq!(t.advance(7, 1), Some(SeqOutcome::Replay));
            assert_eq!(t.hello(7).expect("registered").last_seq, 1);
        })
        .unwrap_or_else(|v| panic!("session dedup double-ingested under race:\n{v}"));
    assert!(report.schedules >= 1000, "want >= 1000 schedules, got {}", report.schedules);
}

/// The high-water mark never regresses: stale stamps racing advancing
/// ones cannot pull the mark backwards, and every ordering leaves the
/// session at the maximum seq any thread stamped.
#[test]
fn high_water_mark_never_regresses_under_race() {
    let report = explorer(20_000)
        .explore(|| {
            let t = Arc::new(SessionTable::new(2));
            assert_eq!(t.advance(3, 5), Some(SeqOutcome::Fresh));
            let to6 = Arc::new(AtomicU64::new(0));
            let to7 = Arc::new(AtomicU64::new(0));
            let racers: Vec<_> = [(6u64, &to6), (7u64, &to7)]
                .into_iter()
                .map(|(seq, mailbox)| {
                    let (t, mailbox) = (Arc::clone(&t), Arc::clone(mailbox));
                    thread::spawn(move || {
                        let o = t.advance(3, seq).expect("table has room");
                        mailbox.store(code(o), Ordering::Release);
                    })
                })
                .collect();
            // A stale seq is a replay regardless of how it interleaves
            // with the concurrent advances.
            assert_eq!(t.advance(3, 4), Some(SeqOutcome::Replay), "stale seq ingested");
            for racer in racers {
                racer.join();
            }
            // Seq 7 is above everything else in flight: always fresh.
            // Seq 6 is fresh only if it beat 7 to the mark — but never
            // lost entirely (one of the two orderings must happen).
            assert_eq!(to7.load(Ordering::Acquire), 1, "the top stamp must win");
            assert!(to6.load(Ordering::Acquire) != 0, "racer result unset");
            assert_eq!(t.hello(3).expect("registered").last_seq, 7, "mark regressed");
        })
        .unwrap_or_else(|v| panic!("session high-water mark regressed:\n{v}"));
    assert!(report.schedules >= 1000, "want >= 1000 schedules, got {}", report.schedules);
}

/// Racing hellos for the same id (a client's old and new connection
/// overlapping during reconnect) land on ONE slot: exactly one claim
/// is `opened`, and a seq stamped through either connection dedups
/// against the same mark afterwards.
#[test]
fn racing_hellos_for_one_id_share_a_slot() {
    let report = explorer(20_000)
        .explore(|| {
            let t = Arc::new(SessionTable::new(2));
            // Mailbox encoding here: 1 = resumed, 2 = opened.
            let mailboxes = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
            let racers: Vec<_> = mailboxes
                .iter()
                .map(|mailbox| {
                    let (t, mailbox) = (Arc::clone(&t), Arc::clone(mailbox));
                    thread::spawn(move || {
                        let info = t.hello(9).expect("table has room");
                        mailbox.store(1 + info.opened as u64, Ordering::Release);
                    })
                })
                .collect();
            let mine = t.hello(9).expect("table has room");
            for racer in racers {
                racer.join();
            }
            let opened = mine.opened as usize
                + mailboxes.iter().filter(|m| m.load(Ordering::Acquire) == 2).count();
            assert_eq!(opened, 1, "one id claimed multiple slots (opened {opened} times)");
            // One shared mark: a stamp through "either connection"
            // dedups for both.
            assert_eq!(t.advance(9, 1), Some(SeqOutcome::Fresh));
            assert_eq!(t.advance(9, 1), Some(SeqOutcome::Replay));
            // The second slot is still free for another session.
            assert!(t.hello(4).expect("room for a second id").opened);
        })
        .unwrap_or_else(|v| panic!("racing hellos split one session across slots:\n{v}"));
    assert!(report.schedules >= 1000, "want >= 1000 schedules, got {}", report.schedules);
}
