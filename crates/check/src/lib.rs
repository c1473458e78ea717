//! xar-check — correctness tooling for the xar-trek workspace.
//!
//! Two engines, both dependency-free:
//!
//! * [`model`] — a loom-style deterministic interleaving explorer.
//!   The workspace's hand-rolled lock-free primitives (`ArcCell`
//!   generation publishing, SPSC trace rings, striped counter lanes)
//!   route their atomics through `xar_obs::sync_abstraction`;
//!   under the `model` feature those resolve to the shims here, and
//!   test scenarios exhaustively explore schedules — including
//!   relaxed-memory stale loads — with seed-replayable failure traces.
//! * [`lint`] — the `xar-lint` token-scanner enforcing repo invariants
//!   that previously lived only in prose: append-only tag/op-id
//!   registries (a retired wire op keeps its id, never reused),
//!   `// SAFETY:` comments on `unsafe` blocks, and no `Relaxed`
//!   stores to publish/generation atomics outside an audited
//!   allowlist.
//!
//! [`protocols`] holds transcriptions of the workspace's publish
//! protocols in shim terms — small enough to explore exhaustively,
//! faithful enough that the historical PR 4 / PR 6 concurrency bugs
//! (and a deliberately weakened mutation of the publish pair) show up
//! as violations.

pub mod lint;
pub mod model;
pub mod protocols;
