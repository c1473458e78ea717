//! Simulator adapter: drive a [`ShardedEngine`] as a
//! [`xar_desim::Policy`], so cluster simulations of 1000+ concurrent
//! applications exercise exactly the code path the daemon serves —
//! generation-gated cached snapshot reads, interned batched report
//! ingestion, per-shard metrics.

use crate::engine::{DecideHandle, DecideScratch, PolicyCore, ShardedEngine};
use crate::wire::WireQuery;
use std::sync::Arc;
use xar_desim::{CompletionReport, DecideCtx, Decision, Policy};

/// A `Policy` that routes every simulator callback through a shared
/// sharded engine. Clone handles freely — all of them hit the same
/// engine, like many scheduler clients hitting one daemon. Each clone
/// owns its own [`DecideHandle`] — the daemon's per-worker hot path,
/// and the engine's only decide path.
pub struct ShardedPolicy<P: PolicyCore> {
    handle: DecideHandle<P>,
    /// Reusable grouping/decision scratch for the batch door.
    scratch: DecideScratch,
}

impl<P: PolicyCore> Clone for ShardedPolicy<P> {
    fn clone(&self) -> Self {
        ShardedPolicy::new(self.handle.engine().clone())
    }
}

impl<P: PolicyCore> ShardedPolicy<P> {
    /// Wraps an engine.
    pub fn new(engine: Arc<ShardedEngine<P>>) -> Self {
        ShardedPolicy { handle: engine.handle(), scratch: DecideScratch::default() }
    }

    /// The engine behind this adapter.
    pub fn engine(&self) -> &Arc<ShardedEngine<P>> {
        self.handle.engine()
    }

    /// The batch door: decides `queries` through the same
    /// [`DecideHandle::decide_batch`] path the daemon's `DecideBatch`
    /// frames ride, so `xar_experiments` figure drivers can exercise
    /// the batched pipeline while staying bit-identical to the
    /// per-call [`Policy::decide`] door (both evaluate the pure
    /// decision against the same published snapshots).
    pub fn decide_batch(&mut self, queries: &[WireQuery<'_>]) -> Vec<Decision> {
        self.handle.decide_batch(queries, &mut self.scratch).to_vec()
    }
}

impl<P: PolicyCore> Policy for ShardedPolicy<P> {
    fn on_launch(&mut self, ctx: &DecideCtx<'_>) -> bool {
        self.handle.early_config(ctx)
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Decision {
        self.handle.decide(ctx)
    }

    fn on_complete(&mut self, report: &CompletionReport<'_>) {
        // The engine interns the app name, so a steady simulation
        // allocates no per-report strings.
        self.handle.engine().ingest(
            report.app,
            report.target,
            report.func_ms,
            report.x86_load as u32,
        );
    }

    fn name(&self) -> &str {
        "xar-sched"
    }
}
