//! `xar-dur` — the durability substrate under the scheduler daemon.
//!
//! Three small, dependency-free layers:
//!
//! - [`record`]: the on-disk framing shared by WAL segments and
//!   snapshots — `[u32 len][u32 crc32][payload]`, little-endian, with
//!   a table-driven (slicing-by-8) CRC-32 ([`crc`]) that detects any
//!   single-bit flip.
//! - [`wal`]: an append-only log of framed records across rotating
//!   segment files, a configurable fsync policy, and open-time
//!   torn-tail recovery that truncates at the first invalid record
//!   instead of refusing to start — and replays, in that same pass,
//!   whatever the caller asks for ([`Wal::open_replaying`]).
//! - [`snapshot`]: whole-state checkpoints written tmp-then-rename
//!   with a `MANIFEST` naming the active (snapshot, WAL-watermark)
//!   pair, so recovery is "load newest valid snapshot, replay the WAL
//!   suffix above its watermark".
//!
//! The crate knows nothing about the scheduler: payloads are opaque
//! bytes. `xar-sched`'s `dur` module defines what goes inside them
//! (report batches, session advances, row deltas) and drives recovery.

pub mod crc;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use record::{decode_record, encode_record, RecordError, FRAME_HEADER};
pub use snapshot::{load_latest_snapshot, prune_snapshots, write_snapshot};
pub use wal::{FsyncPolicy, Wal, WalConfig};
