//! The single import path for the synchronization primitives the
//! workspace's lock-free structures are built on: this crate's
//! `trace::ring` and `Histogram`, and `xar-sched`'s snapshot publish
//! protocol (`ArcCell`/`CachedSnap`, `ThrCell`), session ledger and
//! striped metrics counters.
//!
//! Normal builds re-export the `std::sync::atomic` types verbatim —
//! plain `pub use`s, so codegen is identical to importing std
//! directly — plus two non-poisoning lock wrappers over `std::sync`.
//! With the `model` feature the atomics and the `RwLock` resolve to
//! the `xar-check` deterministic model-checker shims instead, letting
//! the explorer exhaustively interleave the *shipping* implementations
//! rather than a parallel "model copy" that would drift from
//! production code. (`Mutex` guards state no explored protocol reads,
//! so it is `std`'s in both builds.)

use std::sync::{self, MutexGuard};
#[cfg(not(feature = "model"))]
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{AtomicU64, AtomicUsize};

#[cfg(feature = "model")]
pub use xar_check::model::sync::{
    MAtomicU64 as AtomicU64, MAtomicUsize as AtomicUsize, MRwLock as RwLock,
};

pub use std::sync::atomic::Ordering;

/// `std::sync::Mutex` without poisoning: a lock poisoned by a panic
/// while held is recovered into its inner guard.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// `std::sync::RwLock` without poisoning, as [`Mutex`].
#[cfg(not(feature = "model"))]
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

#[cfg(not(feature = "model"))]
impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

#[cfg(not(feature = "model"))]
impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_survive_a_panic_while_held() {
        let m = std::sync::Arc::new((Mutex::new(0), RwLock::new(vec![1, 2])));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let (_g, _w) = (m2.0.lock(), m2.1.write());
            panic!("poison attempt");
        })
        .join();
        *m.0.lock() += 1;
        assert_eq!(*m.0.lock(), 1);
        m.1.write().push(3);
        assert_eq!(m.1.read().len(), 3);
    }
}
