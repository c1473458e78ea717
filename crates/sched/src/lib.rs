//! # xar-sched — the production scheduler daemon
//!
//! The paper's userspace scheduler (§3.2) is a TCP server speaking a
//! line-oriented text protocol in front of one scheduling policy.
//! This crate is that scheduler grown up for datacenter service — and
//! the only server in the workspace: `xar-core`'s `SchedulerServer` is
//! this daemon at one shard and report batch 1.
//!
//! * [`wire`] — **binary wire protocol v2**: length-prefixed frames
//!   (`Decide` / `DecideBatch` / `BatchReport` / `BatchReportSeq` /
//!   `HelloSession` / `TableSnapshot` / `Ping` / `StatsV2` /
//!   `HistDump`), a zero-copy decoder, and a versioned handshake.
//!   Legacy v1 text clients are detected from their first bytes and
//!   served on the same port.
//! * [`engine`] — the **sharded policy engine**: per-app-group shards,
//!   each owning a policy instance, with a generation-gated snapshot
//!   ([`snapshot::ArcCell`] + [`snapshot::CachedSnap`]) giving each
//!   worker's [`engine::DecideHandle`] a wait-free steady-state decide
//!   (one atomic load, no RMW, no shared refcount line), threshold
//!   updates published in place ([`snapshot::ThrCell`]: one store per
//!   touched row, no allocation, no generation bump), and batched
//!   ingestion amortizing Algorithm 1 updates across hundreds of
//!   clients.
//! * [`server`] — the **connection layer**: one readiness-driven
//!   acceptor plus a fixed worker pool, each worker blocking on its own
//!   [`xar_reactor::Reactor`] (epoll on Linux, portable `poll(2)`
//!   fallback) with per-connection buffers, interest re-arm
//!   backpressure, an outbuf high-water cap, graceful shutdown, and
//!   per-shard [`metrics`] (decides, migrations, batch amortization,
//!   p50/p99 decide latency). A **timer-driven maintenance layer**
//!   rides each reactor's wheel: a recurring per-worker flush applies
//!   below-batch reports within `flush_interval`, per-connection idle
//!   timeouts and write-stall deadlines reap dead peers, and
//!   `max_connections` admission control parks the listener at the
//!   cap instead of running into fd exhaustion — all observable via
//!   the v2 `StatsV2` command, the Prometheus-style v1
//!   `DUMP` exposition, and per-worker `xar-obs` trace rings served
//!   by v1 `TRACE n`.
//! * [`transport`] — the **same-host fast path**: beside TCP the
//!   daemon listens on an abstract Unix socket named after its port,
//!   and the client dials it transparently for loopback addresses
//!   (TCP fallback on any failure) — no knob on either side.
//! * [`client`] — the blocking v2 client for application binaries,
//!   one door per job: high-rate callers amortize the per-call
//!   frame/syscall/round-trip overhead that dominates a remote decide
//!   with `decide_batch` (up to 4096 queries per frame, once-per-batch
//!   snapshot revalidation server-side). [`client::ResilientClient`]
//!   wraps it with deadlines, seeded-backoff reconnect, and
//!   exactly-once report replay over the [`session`] layer.
//! * [`adapter`] — a [`xar_desim::Policy`] adapter so cluster
//!   simulations of 1000+ apps exercise the daemon's exact code path.
//! * [`obsd`] — the **fleet scrape aggregator** behind the `xar-obsd`
//!   binary: per-daemon scraper threads with backoff reconnect, an
//!   exact bucket-wise fold of every member's `HistDump`, and a text
//!   port serving fleet-wide exposition (`DUMP`) plus a windowed SLO
//!   verdict (`HEALTH`).
//!
//! The crate is policy-agnostic: anything implementing
//! [`engine::PolicyCore`] can be sharded and served. `xar-core`
//! implements it for `XarTrekPolicy` and re-exports the daemon as the
//! production face of its scheduler.

pub mod adapter;
pub mod backoff;
pub mod client;
pub mod dur;
pub mod engine;
pub mod metrics;
pub mod obsd;
pub mod server;
pub mod session;
pub mod signals;
pub mod snapshot;
pub mod transport;
pub mod wire;

pub use adapter::ShardedPolicy;
pub use backoff::Backoff;
pub use client::{ReportOwned, ResilientClient, ResilientConfig, V2Client};
pub use dur::{Durability, DurabilityConfig, DurableSeqOutcome, FsyncPolicy, RecoveryStats};
pub use engine::{
    name_hash, shard_of, shard_of_hash, BatchScratch, DecideHandle, DecideScratch, EngineConfig,
    PolicyCore, RowRef, ShardedEngine, TableEntry,
};
pub use metrics::{MetricsSnapshot, ShardMetrics, LATENCY_SAMPLE, STRIPES};
pub use obsd::{FleetSnapshot, Health, MemberView, Obsd, ObsdConfig};
pub use server::{Server, ServerConfig};
pub use session::{SeqOutcome, SessionInfo, SessionTable};
pub use snapshot::{ArcCell, CachedSnap, ThrCell};
pub use transport::local_name;
pub use wire::{HistDump, StatsV2, WireQuery};
/// The dependency-free observability toolkit (trace rings, mergeable
/// histograms, the `StatsV2` tag registry, text exposition) the daemon
/// is instrumented with, re-exported for clients and tools.
pub use xar_obs as obs;
pub use xar_reactor::BackendKind;
