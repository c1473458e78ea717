//! Deterministic concurrency model checking.
//!
//! Three pieces:
//!
//! * [`sync`] — `MAtomicU64`/`MAtomicUsize`/`MAtomicBool`/`MRwLock`/
//!   `MArc`, drop-in stand-ins the workspace's lock-free primitives
//!   route through (via `xar_obs::sync_abstraction`);
//!   passthrough to `std` outside a model execution.
//! * [`thread`] — cooperative model threads for building scenarios.
//! * the explorer ([`Explorer`]) — runs a scenario body under every
//!   schedule (bounded DFS), including stale-load choices from the
//!   weak-memory model, and reports the first violating schedule with
//!   a seed that [`Explorer::replay`] reproduces exactly.
//!
//! ```
//! use xar_check::model::{self, sync::{MAtomicU64, MArc, Ordering}};
//!
//! let report = model::Explorer::default()
//!     .explore(|| {
//!         let flag = MArc::new(MAtomicU64::named(0, "flag"));
//!         let f2 = MArc::clone(&flag);
//!         let t = model::thread::spawn(move || {
//!             f2.store(1, Ordering::Release);
//!         });
//!         let _ = flag.load(Ordering::Acquire);
//!         t.join();
//!         assert_eq!(flag.load(Ordering::Relaxed), 1, "join orders the store");
//!     })
//!     .expect("no violation");
//! assert!(report.complete);
//! ```

mod clock;
mod exec;
pub mod sync;
pub mod thread;

pub use exec::{ExploreOpts, Explorer, Report, Trace, Violation, MAX_THREADS};
