//! Drop-in stand-ins for the `std::sync` types the workspace's
//! lock-free primitives use. Outside a model execution every operation
//! passes straight through to the wrapped std type (identical codegen
//! in normal builds — the tier-1 bench guard depends on this); inside
//! one, each operation becomes a scheduling point and loads may
//! observe any store the memory model permits.
//!
//! The weak-memory semantics are operational, vector-clock based:
//!
//! * every store keeps the storing thread's clock (`prog`) and, for
//!   `Release`-or-stronger stores, a release clock (`rel`);
//! * a load may observe any store no older than its *floor* — the
//!   newest store it is coherence-bound to (this thread already saw
//!   it, or it happens-before the load); which store it observes is a
//!   DFS choice;
//! * an `Acquire`-or-stronger load joins the observed store's release
//!   clock, establishing synchronizes-with;
//! * RMWs always read the newest store (atomicity) and continue its
//!   release sequence.
//!
//! `SeqCst` is treated as `AcqRel` — the checked protocols only claim
//! acquire/release guarantees, so this is conservative for them.
//!
//! Two rules for model executions: create every primitive *inside* the
//! explored body (each execution must start from identical state), and
//! don't touch one primitive from model and non-model threads at once.

use super::clock::VClock;
use super::exec::{
    active_ctx, raise_abort, Aborted, Ctx, Inner, LocState, LockState, StoreRec, Wait, MAX_THREADS,
};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{MutexGuard, PoisonError};

pub use std::sync::atomic::Ordering;

/// Reference-counted sharing for model scenarios. The count itself is
/// `std`-verified territory, not a protocol under test, so this is a
/// plain re-export — what matters is that scenario code says `MArc`
/// and stays portable if that ever changes.
pub type MArc<T> = std::sync::Arc<T>;

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Tear the execution down from a shim operation that recorded a
/// failure: wake everyone so they observe the abort, then unwind.
fn abort_exec(c: &Ctx, g: MutexGuard<'_, Inner>) -> ! {
    drop(g);
    c.exec.cv.notify_all();
    raise_abort()
}

// -------------------------------------------------------- atomic model ops

fn model_load(g: &mut Inner, me: usize, loc: usize, ord: Ordering) -> Result<u64, Aborted> {
    let clock = g.threads[me].clock.clone();
    let (floor, hi) = {
        let st = &g.locations[loc];
        let hi = st.stores.len() - 1;
        let mut floor = st.seen[me].min(hi);
        // Happens-before floor: the newest store ordered before this
        // load; anything older is coherence-forbidden.
        for i in (floor + 1..=hi).rev() {
            if st.stores[i].prog.le(&clock) {
                floor = i;
                break;
            }
        }
        (floor, hi)
    };
    // Which permitted store the load observes is a DFS choice;
    // alternative 0 is the newest (the SC-like schedule comes first).
    let idx = if hi > floor { hi - g.decide(hi - floor + 1)? } else { hi };
    let st = &mut g.locations[loc];
    let val = st.stores[idx].value;
    let rel = st.stores[idx].rel.clone();
    if st.seen[me] < idx {
        st.seen[me] = idx;
    }
    let name = st.name;
    let stale = if idx < hi { " (stale)" } else { "" };
    if is_acquire(ord) {
        if let Some(rc) = rel {
            g.threads[me].clock.join(&rc);
        }
    }
    g.log(format!("t{me} load  {name} -> {val}{stale}"));
    Ok(val)
}

fn model_store(g: &mut Inner, me: usize, loc: usize, ord: Ordering, value: u64) {
    let clock = g.threads[me].clock.clone();
    let rel = if is_release(ord) { Some(clock.clone()) } else { None };
    let st = &mut g.locations[loc];
    st.stores.push(StoreRec { value, prog: clock, rel });
    st.seen[me] = st.stores.len() - 1;
    let name = st.name;
    g.log(format!("t{me} store {name} <- {value}"));
}

fn model_rmw(
    g: &mut Inner,
    me: usize,
    loc: usize,
    ord: Ordering,
    f: impl FnOnce(u64) -> u64,
) -> u64 {
    // An RMW reads the newest store — that is its atomicity — and its
    // own store continues the release sequence of what it read.
    let (old, read_rel) = {
        let st = &g.locations[loc];
        let last = st.stores.len() - 1;
        (st.stores[last].value, st.stores[last].rel.clone())
    };
    if is_acquire(ord) {
        if let Some(rc) = &read_rel {
            g.threads[me].clock.join(rc);
        }
    }
    let clock = g.threads[me].clock.clone();
    let mut rel = read_rel;
    if is_release(ord) {
        let mut r = rel.take().unwrap_or_default();
        r.join(&clock);
        rel = Some(r);
    }
    let value = f(old);
    let st = &mut g.locations[loc];
    st.stores.push(StoreRec { value, prog: clock, rel });
    st.seen[me] = st.stores.len() - 1;
    let name = st.name;
    g.log(format!("t{me} rmw   {name}: {old} -> {value}"));
    old
}

fn model_cas(
    g: &mut Inner,
    me: usize,
    loc: usize,
    success: Ordering,
    failure: Ordering,
    expected: u64,
    new: u64,
) -> Result<u64, u64> {
    let last = g.locations[loc].stores.len() - 1;
    let old = g.locations[loc].stores[last].value;
    if old == expected {
        model_rmw(g, me, loc, success, |_| new);
        Ok(old)
    } else {
        let rel = g.locations[loc].stores[last].rel.clone();
        if is_acquire(failure) {
            if let Some(rc) = rel {
                g.threads[me].clock.join(&rc);
            }
        }
        g.locations[loc].seen[me] = last;
        Err(old)
    }
}

// --------------------------------------------------------------- MAtomicU64

/// Model-checkable `AtomicU64`. Passthrough outside executions.
pub struct MAtomicU64 {
    real: StdAtomicU64,
    /// Execution epoch this primitive is registered under; a stale
    /// epoch means "register afresh" (primitives are re-registered per
    /// execution with their current real value as the initial store).
    reg_epoch: StdAtomicU64,
    reg_loc: StdAtomicU64,
    name: &'static str,
}

impl MAtomicU64 {
    pub const fn new(v: u64) -> Self {
        Self::named(v, "u64")
    }

    /// `name` labels this location in failure-trace logs.
    pub const fn named(v: u64, name: &'static str) -> Self {
        MAtomicU64 {
            real: StdAtomicU64::new(v),
            reg_epoch: StdAtomicU64::new(0),
            reg_loc: StdAtomicU64::new(0),
            name,
        }
    }

    fn loc(&self, g: &mut Inner, c: &Ctx) -> usize {
        if self.reg_epoch.load(StdOrdering::Acquire) == c.exec.epoch {
            return self.reg_loc.load(StdOrdering::Relaxed) as usize;
        }
        let id = g.locations.len();
        g.locations.push(LocState {
            name: self.name,
            stores: vec![StoreRec {
                value: self.real.load(StdOrdering::Relaxed),
                // The initial value happens-before everything.
                prog: VClock::new(),
                rel: Some(VClock::new()),
            }],
            seen: [0; MAX_THREADS],
        });
        self.reg_loc.store(id as u64, StdOrdering::Relaxed);
        self.reg_epoch.store(c.exec.epoch, StdOrdering::Release);
        id
    }

    pub fn load(&self, ord: Ordering) -> u64 {
        match active_ctx() {
            Some(c) => {
                let mut g = c.op_guard();
                let loc = self.loc(&mut g, &c);
                match model_load(&mut g, c.tid, loc, ord) {
                    Ok(v) => v,
                    Err(Aborted) => abort_exec(&c, g),
                }
            }
            None => self.real.load(ord),
        }
    }

    pub fn store(&self, v: u64, ord: Ordering) {
        match active_ctx() {
            Some(c) => {
                let mut g = c.op_guard();
                let loc = self.loc(&mut g, &c);
                model_store(&mut g, c.tid, loc, ord, v);
                drop(g);
                // Mirror so passthrough reads and the *next* execution's
                // registration see the current value.
                self.real.store(v, StdOrdering::Relaxed);
            }
            None => self.real.store(v, ord),
        }
    }

    pub fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |x| x.wrapping_add(v), move |real| real.fetch_add(v, ord))
    }

    pub fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |x| x.wrapping_sub(v), move |real| real.fetch_sub(v, ord))
    }

    pub fn fetch_max(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |x| x.max(v), move |real| real.fetch_max(v, ord))
    }

    pub fn swap(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |_| v, move |real| real.swap(v, ord))
    }

    fn rmw(
        &self,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
        passthrough: impl FnOnce(&StdAtomicU64) -> u64,
    ) -> u64 {
        match active_ctx() {
            Some(c) => {
                let mut g = c.op_guard();
                let loc = self.loc(&mut g, &c);
                let new = std::cell::Cell::new(0);
                let old = model_rmw(&mut g, c.tid, loc, ord, |x| {
                    let v = f(x);
                    new.set(v);
                    v
                });
                drop(g);
                self.real.store(new.get(), StdOrdering::Relaxed);
                old
            }
            None => passthrough(&self.real),
        }
    }

    pub fn compare_exchange(
        &self,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        match active_ctx() {
            Some(c) => {
                let mut g = c.op_guard();
                let loc = self.loc(&mut g, &c);
                let r = model_cas(&mut g, c.tid, loc, success, failure, expected, new);
                drop(g);
                if r.is_ok() {
                    self.real.store(new, StdOrdering::Relaxed);
                }
                r
            }
            None => self.real.compare_exchange(expected, new, success, failure),
        }
    }

    /// In the model, `compare_exchange_weak` never fails spuriously —
    /// spurious failure only widens the schedule space the caller's
    /// retry loop already covers.
    pub fn compare_exchange_weak(
        &self,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.compare_exchange(expected, new, success, failure)
    }
}

impl Default for MAtomicU64 {
    fn default() -> Self {
        MAtomicU64::new(0)
    }
}

impl std::fmt::Debug for MAtomicU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MAtomicU64").field(&self.real.load(StdOrdering::Relaxed)).finish()
    }
}

// ------------------------------------------------------------- MAtomicUsize

/// Model-checkable `AtomicUsize`, represented on the u64 machinery.
pub struct MAtomicUsize {
    inner: MAtomicU64,
}

impl MAtomicUsize {
    pub const fn new(v: usize) -> Self {
        Self::named(v, "usize")
    }

    pub const fn named(v: usize, name: &'static str) -> Self {
        MAtomicUsize { inner: MAtomicU64::named(v as u64, name) }
    }

    pub fn load(&self, ord: Ordering) -> usize {
        self.inner.load(ord) as usize
    }

    pub fn store(&self, v: usize, ord: Ordering) {
        self.inner.store(v as u64, ord)
    }

    pub fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
        self.inner.fetch_add(v as u64, ord) as usize
    }

    pub fn fetch_sub(&self, v: usize, ord: Ordering) -> usize {
        self.inner.fetch_sub(v as u64, ord) as usize
    }

    pub fn swap(&self, v: usize, ord: Ordering) -> usize {
        self.inner.swap(v as u64, ord) as usize
    }

    pub fn compare_exchange(
        &self,
        expected: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        self.inner
            .compare_exchange(expected as u64, new as u64, success, failure)
            .map(|v| v as usize)
            .map_err(|v| v as usize)
    }
}

impl Default for MAtomicUsize {
    fn default() -> Self {
        MAtomicUsize::new(0)
    }
}

impl std::fmt::Debug for MAtomicUsize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MAtomicUsize").field(&self.load(Ordering::Relaxed)).finish()
    }
}

// -------------------------------------------------------------- MAtomicBool

/// Model-checkable `AtomicBool`, represented as 0/1 on the u64
/// machinery.
pub struct MAtomicBool {
    inner: MAtomicU64,
}

impl MAtomicBool {
    pub const fn new(v: bool) -> Self {
        Self::named(v, "bool")
    }

    pub const fn named(v: bool, name: &'static str) -> Self {
        MAtomicBool { inner: MAtomicU64::named(v as u64, name) }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        self.inner.load(ord) != 0
    }

    pub fn store(&self, v: bool, ord: Ordering) {
        self.inner.store(v as u64, ord)
    }

    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        self.inner.swap(v as u64, ord) != 0
    }
}

impl Default for MAtomicBool {
    fn default() -> Self {
        MAtomicBool::new(false)
    }
}

impl std::fmt::Debug for MAtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MAtomicBool").field(&self.load(Ordering::Relaxed)).finish()
    }
}

// ------------------------------------------------------------------ MRwLock

/// Model-checkable reader-writer lock with the workspace's
/// non-poisoning lock API (guards straight from
/// `read`/`write`). Unlock-to-lock edges carry a release clock, so
/// lock-protected state is correctly ordered in the model.
pub struct MRwLock<T> {
    real: std::sync::RwLock<T>,
    reg_epoch: StdAtomicU64,
    reg_loc: StdAtomicU64,
    name: &'static str,
}

impl<T> MRwLock<T> {
    pub const fn new(t: T) -> Self {
        Self::named(t, "rwlock")
    }

    pub const fn named(t: T, name: &'static str) -> Self {
        MRwLock {
            real: std::sync::RwLock::new(t),
            reg_epoch: StdAtomicU64::new(0),
            reg_loc: StdAtomicU64::new(0),
            name,
        }
    }

    fn lid(&self, g: &mut Inner, c: &Ctx) -> usize {
        if self.reg_epoch.load(StdOrdering::Acquire) == c.exec.epoch {
            return self.reg_loc.load(StdOrdering::Relaxed) as usize;
        }
        let id = g.locks.len();
        g.locks.push(LockState { readers: 0, writer: false, rel: VClock::new() });
        self.reg_loc.store(id as u64, StdOrdering::Relaxed);
        self.reg_epoch.store(c.exec.epoch, StdOrdering::Release);
        id
    }

    pub fn read(&self) -> MRwLockReadGuard<'_, T> {
        let model = match active_ctx() {
            Some(c) => {
                let mut g = c.op_guard();
                let lid = self.lid(&mut g, &c);
                loop {
                    if !g.locks[lid].writer {
                        g.locks[lid].readers += 1;
                        let rel = g.locks[lid].rel.clone();
                        g.threads[c.tid].clock.join(&rel);
                        let name = self.name;
                        let tid = c.tid;
                        g.log(format!("t{tid} rlock {name}"));
                        break;
                    }
                    g = c.block_on(g, Wait::LockRead(lid));
                }
                drop(g);
                Some((c, lid))
            }
            None => None,
        };
        // The model grant guarantees no writer holds the real lock, and
        // we hold the run token until our next scheduling point — so
        // this acquisition cannot contend with another model thread.
        let real = self.real.read().unwrap_or_else(PoisonError::into_inner);
        MRwLockReadGuard { real, model }
    }

    pub fn write(&self) -> MRwLockWriteGuard<'_, T> {
        let model = match active_ctx() {
            Some(c) => {
                let mut g = c.op_guard();
                let lid = self.lid(&mut g, &c);
                loop {
                    if !g.locks[lid].writer && g.locks[lid].readers == 0 {
                        g.locks[lid].writer = true;
                        let rel = g.locks[lid].rel.clone();
                        g.threads[c.tid].clock.join(&rel);
                        let name = self.name;
                        let tid = c.tid;
                        g.log(format!("t{tid} wlock {name}"));
                        break;
                    }
                    g = c.block_on(g, Wait::LockWrite(lid));
                }
                drop(g);
                Some((c, lid))
            }
            None => None,
        };
        let real = self.real.write().unwrap_or_else(PoisonError::into_inner);
        MRwLockWriteGuard { real, model }
    }

    pub fn into_inner(self) -> T {
        self.real.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("MRwLock");
        match self.real.try_read() {
            Ok(g) => d.field("data", &&*g).finish(),
            Err(_) => d.field("data", &"<locked>").finish(),
        }
    }
}

impl<T: Default> Default for MRwLock<T> {
    fn default() -> Self {
        MRwLock::new(T::default())
    }
}

/// Release-side bookkeeping shared by both guards: join the holder's
/// clock into the lock's release clock and wake whichever waiters the
/// new state admits.
fn release_lock(c: &Ctx, lid: usize, write: bool) {
    // During abort teardown the thread is unwinding and the model state
    // is dead; touching it risks a double panic.
    if std::thread::panicking() {
        return;
    }
    let mut g = c.op_guard();
    let clock = g.threads[c.tid].clock.clone();
    let l = &mut g.locks[lid];
    if write {
        debug_assert!(l.writer);
        l.writer = false;
    } else {
        debug_assert!(l.readers > 0);
        l.readers -= 1;
    }
    l.rel.join(&clock);
    let admit_read = !l.writer;
    let admit_write = !l.writer && l.readers == 0;
    for t in 0..g.threads.len() {
        match g.threads[t].status {
            super::exec::Status::Blocked(Wait::LockRead(l2)) if l2 == lid && admit_read => {
                g.threads[t].status = super::exec::Status::Ready;
            }
            super::exec::Status::Blocked(Wait::LockWrite(l2)) if l2 == lid && admit_write => {
                g.threads[t].status = super::exec::Status::Ready;
            }
            _ => {}
        }
    }
    let tid = c.tid;
    let kind = if write { "wunlock" } else { "runlock" };
    g.log(format!("t{tid} {kind}"));
}

pub struct MRwLockReadGuard<'a, T> {
    real: std::sync::RwLockReadGuard<'a, T>,
    model: Option<(Ctx, usize)>,
}

impl<T> Deref for MRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.real
    }
}

impl<T> Drop for MRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((c, lid)) = self.model.take() {
            release_lock(&c, lid, false);
        }
    }
}

pub struct MRwLockWriteGuard<'a, T> {
    real: std::sync::RwLockWriteGuard<'a, T>,
    model: Option<(Ctx, usize)>,
}

impl<T> Deref for MRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.real
    }
}

impl<T> DerefMut for MRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.real
    }
}

impl<T> Drop for MRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((c, lid)) = self.model.take() {
            release_lock(&c, lid, true);
        }
    }
}
