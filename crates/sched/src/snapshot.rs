//! Published decision state: generation-gated snapshots and in-place
//! threshold cells.
//!
//! The decide path must never contend with Algorithm 1 updates, so each
//! shard publishes its decision state behind an [`ArcCell`]: a *frozen
//! index* of the rows that exist, whose values are [`ThrCell`]s — one
//! atomic word per row that a flush overwrites in place. A threshold
//! update is one `Release` store (no allocation, no [`ArcCell::store`]);
//! the generation moves only when the index itself is rebuilt (boot,
//! `load_states`, a row the index does not hold).
//!
//! Two read paths exist:
//!
//! * [`ArcCell::load`] — an `Arc` clone under a reader lock. Simple,
//!   but every call performs two atomic RMWs (the lock word and the
//!   refcount) on cache lines *shared by every reader of the shard*.
//!   The engine uses it where a report is queued or flushed, never to
//!   decide.
//! * [`CachedSnap::get`] — the hot path. Each worker owns a
//!   `CachedSnap` per shard holding the last snapshot `Arc` it saw plus
//!   the generation it was read at. A get is one atomic *load* of the
//!   generation counter (a read-shared cache line — no RMW, no lock)
//!   and a pointer deref; the lock is touched only after a rebuild,
//!   which threshold updates never cause.
//!
//! A rebuild ([`ArcCell::store`]) swaps the `Arc` and bumps the
//! generation while holding the write lock, so a reader that observes
//! the new generation and then takes the read lock is guaranteed the
//! new (or an even newer) snapshot — never a torn or regressed one.
//!
//! This is the std-only equivalent of `arc_swap::ArcSwap` plus its
//! `Cache` helper: the external crate is unavailable offline, and a
//! seqlock/hazard-pointer scheme is not worth the unsafe surface when
//! the slow path is this rare.

use std::sync::Arc;
use xar_obs::sync_abstraction::{AtomicU64, Ordering, RwLock};

/// A cell holding an `Arc<T>` that can be atomically replaced while
/// readers keep older snapshots alive, with a monotonic generation
/// counter so cached readers ([`CachedSnap`]) can skip the lock.
#[derive(Debug)]
pub struct ArcCell<T> {
    inner: RwLock<Arc<T>>,
    /// Bumped (under the write lock) by every [`ArcCell::store`].
    generation: AtomicU64,
}

impl<T> ArcCell<T> {
    /// A cell initially holding `value`, at generation 0.
    pub fn new(value: T) -> Self {
        ArcCell { inner: RwLock::new(Arc::new(value)), generation: AtomicU64::new(0) }
    }

    /// The current snapshot. The returned `Arc` stays valid regardless
    /// of subsequent [`ArcCell::store`]s.
    pub fn load(&self) -> Arc<T> {
        self.inner.read().clone()
    }

    /// Publishes a new snapshot and advances the generation.
    pub fn store(&self, value: T) {
        let mut guard = self.inner.write();
        *guard = Arc::new(value);
        // Bumped while the write lock is held: any reader that sees the
        // new generation and then acquires the read lock must wait for
        // this store's unlock, so it can only load the new (or a newer)
        // snapshot.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The current publication generation (starts at 0, +1 per store).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

/// A worker-owned cached reader over one [`ArcCell`].
///
/// Holds the last-seen snapshot `Arc` and the generation it was read
/// at; [`CachedSnap::get`] revalidates with a single atomic load and
/// refreshes through the lock only when the generation moved. Each
/// `CachedSnap` must always be used against the *same* cell — pairing
/// it with a different cell returns that cell's data but defeats the
/// generation gate (and may serve one stale read after a swap).
///
/// Refreshing replaces the cached `Arc`, dropping the stale snapshot
/// immediately — a cached reader retains at most one old snapshot, and
/// only until the first `get` after its publication.
#[derive(Debug, Default)]
pub struct CachedSnap<T> {
    snap: Option<Arc<T>>,
    generation: u64,
}

impl<T> CachedSnap<T> {
    /// An empty cache; the first [`CachedSnap::get`] populates it.
    pub fn new() -> Self {
        CachedSnap { snap: None, generation: 0 }
    }

    /// The current snapshot of `cell`, served from the cache unless the
    /// cell's generation moved since the last get.
    ///
    /// The generation is read *before* the (possible) refresh: a store
    /// racing between the two can only make the cached snapshot newer
    /// than the recorded generation, which costs one spurious refresh
    /// on the next get — never a stale serve.
    pub fn get(&mut self, cell: &ArcCell<T>) -> &T {
        let generation = cell.generation();
        if self.generation != generation || self.snap.is_none() {
            self.snap = Some(cell.load());
            self.generation = generation;
        }
        self.snap.as_deref().expect("populated above")
    }

    /// The generation the cached snapshot was read at.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// One row's published `(fpga_thr, arm_thr)`, packed into a single
/// atomic word so the pair is replaced in place and never read torn.
///
/// [`ThrCell::store`] is `Release`, [`ThrCell::load`] `Acquire`: one
/// word needs no edge to stay whole, but a reader that learned of an
/// update some other way — the report's ack — must then load that
/// update or a newer one. The `xar-check` `thr_cell` scenario explores
/// exactly that, and detects the `Relaxed` mutation.
#[derive(Debug)]
pub struct ThrCell {
    packed: AtomicU64,
}

impl ThrCell {
    /// A cell holding `(fpga_thr, arm_thr)`.
    pub fn new(fpga_thr: u32, arm_thr: u32) -> Self {
        ThrCell { packed: AtomicU64::new(Self::pack(fpga_thr, arm_thr)) }
    }

    fn pack(fpga_thr: u32, arm_thr: u32) -> u64 {
        (fpga_thr as u64) << 32 | arm_thr as u64
    }

    /// The current `(fpga_thr, arm_thr)`.
    pub fn load(&self) -> (u32, u32) {
        let packed = self.packed.load(Ordering::Acquire);
        ((packed >> 32) as u32, packed as u32)
    }

    /// Replaces the pair in place. Callers serialize stores to one
    /// cell (the engine holds the shard's state lock).
    pub fn store(&self, fpga_thr: u32, arm_thr: u32) {
        self.packed.store(Self::pack(fpga_thr, arm_thr), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_survives_store() {
        let cell = ArcCell::new(1);
        let old = cell.load();
        cell.store(2);
        assert_eq!(*old, 1);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn store_advances_the_generation() {
        let cell = ArcCell::new(0u32);
        assert_eq!(cell.generation(), 0);
        cell.store(1);
        cell.store(2);
        assert_eq!(cell.generation(), 2);
    }

    #[test]
    fn cached_reader_refreshes_only_on_generation_change() {
        let cell = ArcCell::new(10u64);
        let mut cached = CachedSnap::new();
        let first = cached.get(&cell) as *const u64;
        // No store in between: the very same allocation is served, no
        // lock taken, no refcount touched.
        assert_eq!(cached.get(&cell) as *const u64, first);
        assert_eq!(cached.get(&cell) as *const u64, first);
        assert_eq!(cached.generation(), 0);
        cell.store(11);
        assert_eq!(*cached.get(&cell), 11, "publish invalidates the cache");
        assert_eq!(cached.generation(), 1);
    }

    #[test]
    fn cached_reader_drops_its_stale_snapshot_on_refresh() {
        let cell = ArcCell::new(0u64);
        let mut cached = CachedSnap::new();
        cached.get(&cell);
        let stale = Arc::downgrade(&cell.load());
        cell.store(1);
        cached.get(&cell);
        // The cell holds gen 1, the cache holds gen 1: nothing retains
        // the gen-0 snapshot anymore.
        assert!(stale.upgrade().is_none(), "stale snapshot retained past its refresh");
    }

    #[test]
    fn concurrent_readers_see_monotonic_values() {
        let cell = Arc::new(ArcCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (cell, stop) = (cell.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "snapshots move forward");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..=1000 {
            cell.store(v);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.load(), 1000);
    }

    /// Flush storm: writers hammer `store` while cached readers spin on
    /// `get`. Every observed value must be monotone (no torn or
    /// regressed snapshot), and a cached reader must converge on the
    /// final value once the storm ends.
    #[test]
    fn flush_storm_cached_readers_never_regress() {
        let cell = Arc::new(ArcCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (cell, stop) = (cell.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut cached = CachedSnap::new();
                    let mut last = 0;
                    let mut last_gen = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cached.get(&cell);
                        assert!(v >= last, "regressed snapshot: {v} after {last}");
                        assert!(
                            cached.generation() >= last_gen,
                            "generation moved backwards under the storm"
                        );
                        last = v;
                        last_gen = cached.generation();
                    }
                })
            })
            .collect();
        for v in 1..=5000u64 {
            cell.store(v);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let mut cached = CachedSnap::new();
        assert_eq!(*cached.get(&cell), 5000);
    }

    /// A publish-while-reading race may cache a snapshot newer than the
    /// recorded generation; the next get must refresh rather than serve
    /// a permanently mislabeled entry. Simulated deterministically: a
    /// reader that recorded generation g for the g+1 snapshot.
    #[test]
    fn conservative_generation_recording_self_heals() {
        let cell = ArcCell::new(0u64);
        let mut cached = CachedSnap::new();
        cached.get(&cell); // caches (gen 0, value 0)
        cell.store(1);
        // The racy interleaving: generation read (0) … store lands …
        // load returns the *new* snapshot. Reproduce its end state.
        cached.generation = 0;
        cached.snap = Some(cell.load());
        assert_eq!(*cached.get(&cell), 1, "refreshes: recorded gen is behind the cell");
        assert_eq!(cached.generation(), 1);
    }

    #[test]
    fn thr_cell_round_trips_extreme_pairs() {
        let cell = ThrCell::new(0, u32::MAX);
        assert_eq!(cell.load(), (0, u32::MAX));
        cell.store(u32::MAX, 7);
        assert_eq!(cell.load(), (u32::MAX, 7));
    }
}
