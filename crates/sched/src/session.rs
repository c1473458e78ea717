//! Report-session registry: the exactly-once half of the resilience
//! contract.
//!
//! A client that wants replay-safe reporting presents a nonzero
//! session id (`HELLO_SESSION`) and stamps every report batch with a
//! strictly-increasing sequence number (`BATCH_REPORT_SEQ`). The
//! daemon keeps one high-water mark per session and ingests a batch
//! only when its seq advances the mark — a batch retried because the
//! *reply* was lost mid-flight (the client cannot tell a lost request
//! from a lost ack) hits the mark and is acknowledged without being
//! ingested again, so reports are counted exactly once no matter how
//! many times the connection dies.
//!
//! The table is a fixed array of lock-free slots. Dedup is a single
//! `fetch_max` on the slot's mark: the returned previous value decides
//! fresh-vs-replay, so two workers racing the same retried batch agree
//! — exactly one observes the advance. Atomics route through
//! [`xar_obs::sync_abstraction`], and `tests/model_session.rs` explores
//! the claim/advance interleavings under the xar-check model checker
//! (the PR 8 gate for new lock-free protocol state).

use xar_obs::sync_abstraction::{AtomicU64, Ordering};

/// Outcome of stamping one `(session, seq)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqOutcome {
    /// The seq advanced the session's high-water mark: ingest the
    /// batch and ack its length.
    Fresh,
    /// The seq was at or below the mark — a replayed batch the daemon
    /// already ingested. Ack without ingesting (the wire answer is
    /// `Ack(0)`).
    Replay,
}

/// What `hello` learned about a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// High-water mark of acked batch seqs (0 for a fresh session).
    pub last_seq: u64,
    /// Whether this call claimed the slot (first hello for this id).
    pub opened: bool,
}

struct Slot {
    /// Session id, 0 = empty. Claimed by CAS; once nonzero the id
    /// never changes, so readers that observed it can trust `hwm`.
    id: AtomicU64,
    /// Highest batch seq acknowledged for this session.
    hwm: AtomicU64,
    /// Highest seq already *counted* as a replay. A batch whose replay
    /// ack is lost too gets replayed again on the next retry; counting
    /// only the first replay of each seq keeps the `REPLAYED_BATCHES`
    /// counter equal to the one `Ack(0)` the client eventually
    /// observes — the fleet-wide conservation law chaos tests check.
    replayed_hwm: AtomicU64,
}

/// Fixed-capacity lock-free session registry.
pub struct SessionTable {
    slots: Box<[Slot]>,
    /// Slots claimed over the table's lifetime (`SESSIONS_OPENED`).
    opened: AtomicU64,
    /// Batches answered `Replay` — acked without ingesting
    /// (`REPLAYED_BATCHES`).
    replayed: AtomicU64,
}

impl SessionTable {
    /// A table with room for `capacity` concurrent session ids.
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                id: AtomicU64::new(0),
                hwm: AtomicU64::new(0),
                replayed_hwm: AtomicU64::new(0),
            })
            .collect();
        SessionTable { slots, opened: AtomicU64::new(0), replayed: AtomicU64::new(0) }
    }

    /// Sessions registered since the table was built.
    pub fn opened_total(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Distinct replayed (deduped) seqs since the table was built —
    /// each seq counts once however many times its replay was retried.
    pub fn replayed_total(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Finds the slot holding `id`, claiming an empty one if absent.
    /// Returns `(slot, claimed_here)`; `None` when the table is full.
    fn slot(&self, id: u64) -> Option<(&Slot, bool)> {
        debug_assert_ne!(id, 0, "session id 0 is the empty-slot sentinel");
        for slot in self.slots.iter() {
            let cur = slot.id.load(Ordering::Acquire);
            if cur == id {
                return Some((slot, false));
            }
            if cur == 0 {
                match slot.id.compare_exchange(0, id, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        self.opened.fetch_add(1, Ordering::Relaxed);
                        return Some((slot, true));
                    }
                    // Lost the claim race; the winner may have claimed
                    // it for the same id (two connections of one
                    // client racing their hellos).
                    Err(winner) if winner == id => return Some((slot, false)),
                    Err(_) => continue,
                }
            }
        }
        None
    }

    /// Registers (or resumes) session `id`, returning its acked
    /// high-water mark so a reconnecting client can resync. `None`
    /// when `id` is 0 (reserved) or the table is full.
    pub fn hello(&self, id: u64) -> Option<SessionInfo> {
        if id == 0 {
            return None;
        }
        let (slot, opened) = self.slot(id)?;
        Some(SessionInfo { last_seq: slot.hwm.load(Ordering::Acquire), opened })
    }

    /// Reinstates a recovered session: claims a slot for `id` (without
    /// counting a new open — the restored `opened` counter already
    /// includes it) and raises its marks to at least the given values.
    /// Returns `false` when `id` is 0 or the table is full. Recovery
    /// runs before traffic, but `fetch_max` keeps this safe even
    /// against a concurrent claim of the same id.
    pub fn restore(&self, id: u64, hwm: u64, replayed_hwm: u64) -> bool {
        if id == 0 {
            return false;
        }
        let Some((slot, claimed)) = self.slot(id) else {
            return false;
        };
        if claimed {
            // `slot` counted a fresh open; undo it — this id's open
            // was counted in the lifetime the snapshot captured.
            self.opened.fetch_sub(1, Ordering::Relaxed);
        }
        slot.hwm.fetch_max(hwm, Ordering::AcqRel);
        slot.replayed_hwm.fetch_max(replayed_hwm, Ordering::AcqRel);
        true
    }

    /// Restores the lifetime counters from a durability snapshot, so
    /// `SESSIONS_OPENED` / `REPLAYED_BATCHES` stay continuous across a
    /// daemon restart (the conservation law against client-side dedup
    /// counts spans restarts). Monotone: only raises.
    pub fn restore_counters(&self, opened: u64, replayed: u64) {
        self.opened.fetch_max(opened, Ordering::AcqRel);
        self.replayed.fetch_max(replayed, Ordering::AcqRel);
    }

    /// Every registered session as `(id, hwm, replayed_hwm)` — the
    /// durability snapshot's session section.
    pub fn entries(&self) -> Vec<(u64, u64, u64)> {
        self.slots
            .iter()
            .filter_map(|s| {
                let id = s.id.load(Ordering::Acquire);
                (id != 0).then(|| {
                    (id, s.hwm.load(Ordering::Acquire), s.replayed_hwm.load(Ordering::Acquire))
                })
            })
            .collect()
    }

    /// Stamps `(session, seq)`: one `fetch_max` against the session's
    /// high-water mark. The previous value decides fresh-vs-replay, so
    /// concurrent stampings of the same seq elect exactly one `Fresh`.
    /// Sessions are auto-registered (a batch may arrive on a fresh
    /// connection before its hello is processed elsewhere); `None`
    /// when `session` is 0 or the table is full.
    pub fn advance(&self, session: u64, seq: u64) -> Option<SeqOutcome> {
        if session == 0 {
            return None;
        }
        let (slot, _) = self.slot(session)?;
        let prev = slot.hwm.fetch_max(seq, Ordering::AcqRel);
        if prev >= seq {
            // Count each seq's replay once (its own fetch_max dedups
            // the counter), so the total matches the single `Ack(0)`
            // the retrying client eventually sees for that seq.
            if slot.replayed_hwm.fetch_max(seq, Ordering::AcqRel) < seq {
                self.replayed.fetch_add(1, Ordering::Relaxed);
            }
            Some(SeqOutcome::Replay)
        } else {
            Some(SeqOutcome::Fresh)
        }
    }
}

#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;

    #[test]
    fn fresh_session_starts_at_zero_and_advances() {
        let t = SessionTable::new(4);
        assert_eq!(t.hello(7), Some(SessionInfo { last_seq: 0, opened: true }));
        assert_eq!(t.advance(7, 1), Some(SeqOutcome::Fresh));
        assert_eq!(t.advance(7, 2), Some(SeqOutcome::Fresh));
        assert_eq!(t.hello(7), Some(SessionInfo { last_seq: 2, opened: false }));
    }

    #[test]
    fn replayed_and_stale_seqs_are_deduped() {
        let t = SessionTable::new(4);
        assert_eq!(t.advance(9, 5), Some(SeqOutcome::Fresh), "auto-registers");
        assert_eq!(t.advance(9, 5), Some(SeqOutcome::Replay), "exact replay");
        assert_eq!(t.advance(9, 3), Some(SeqOutcome::Replay), "stale seq");
        assert_eq!(t.advance(9, 6), Some(SeqOutcome::Fresh), "then advances again");
        // seq 0 can never be fresh: the mark starts there.
        assert_eq!(t.advance(9, 0), Some(SeqOutcome::Replay));
        // Only the first replay of seq 5 counts; the stale seq 3 and
        // seq 0 sit below the already-counted mark.
        assert_eq!(t.replayed_total(), 1, "one distinct seq was replayed");
        assert_eq!(t.advance(9, 5), Some(SeqOutcome::Replay), "replay retried");
        assert_eq!(t.replayed_total(), 1, "a re-replayed seq still counts once");
        assert_eq!(t.advance(9, 6), Some(SeqOutcome::Replay));
        assert_eq!(t.replayed_total(), 2, "each distinct replayed seq counts");
        assert_eq!(t.opened_total(), 1, "auto-registration claims count as opens");
    }

    #[test]
    fn restore_reinstates_marks_without_counting_opens() {
        let t = SessionTable::new(4);
        t.restore_counters(3, 2);
        assert!(t.restore(11, 7, 7));
        assert!(t.restore(12, 4, 3));
        assert!(!t.restore(0, 1, 1), "id 0 stays reserved");
        // Restored opens come from the persisted counter, not the
        // restore claims.
        assert_eq!(t.opened_total(), 3);
        assert_eq!(t.replayed_total(), 2);
        // A reconnecting client resyncs at the recovered mark...
        assert_eq!(t.hello(11), Some(SessionInfo { last_seq: 7, opened: false }));
        // ...a replay of an already-counted seq is deduped but NOT
        // recounted (its dedup was persisted)...
        assert_eq!(t.advance(11, 7), Some(SeqOutcome::Replay));
        assert_eq!(t.replayed_total(), 2);
        // ...while a replay of a seq whose dedup was never counted
        // counts now — exactly once.
        assert_eq!(t.advance(12, 4), Some(SeqOutcome::Replay));
        assert_eq!(t.replayed_total(), 3);
        // Entries expose the recovered marks for the next snapshot.
        let mut e = t.entries();
        e.sort_unstable();
        assert_eq!(e, vec![(11, 7, 7), (12, 4, 4)]);
    }

    #[test]
    fn sessions_are_independent() {
        let t = SessionTable::new(4);
        assert_eq!(t.advance(1, 10), Some(SeqOutcome::Fresh));
        assert_eq!(t.advance(2, 10), Some(SeqOutcome::Fresh), "own mark per session");
        assert_eq!(t.hello(1), Some(SessionInfo { last_seq: 10, opened: false }));
        assert_eq!(t.hello(2), Some(SessionInfo { last_seq: 10, opened: false }));
    }

    #[test]
    fn id_zero_is_refused_and_full_table_reports_none() {
        let t = SessionTable::new(2);
        assert_eq!(t.hello(0), None);
        assert_eq!(t.advance(0, 1), None);
        assert!(t.hello(1).unwrap().opened);
        assert!(t.hello(2).unwrap().opened);
        assert_eq!(t.hello(3), None, "table full");
        assert_eq!(t.advance(3, 1), None, "table full");
        // Existing sessions keep working at capacity.
        assert_eq!(t.advance(2, 1), Some(SeqOutcome::Fresh));
    }
}
