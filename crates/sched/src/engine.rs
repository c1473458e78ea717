//! The sharded policy engine.
//!
//! State is partitioned into per-app-group shards (stable FNV-1a hash
//! of the application name, [`name_hash`]). Each shard owns one policy
//! instance and publishes its decision state behind an [`ArcCell`]:
//!
//! * **decide** (hot path) — evaluates the pure decision function
//!   against the shard's published snapshot. No policy lock is taken,
//!   so threshold lookups never contend with Algorithm 1 updates.
//! * **report** (warm path) — appends to the shard's pending queue;
//!   once `batch` reports accumulate (or on an explicit flush) they are
//!   applied in arrival order under the shard's state lock and the rows
//!   they touched are published. With `batch = 1` the engine is
//!   report-for-report identical to one sequential policy (the
//!   paper's server); larger batches amortize the lock across many
//!   clients.
//!
//! **What a publish is.** A flush asks the policy to refresh each
//! touched row *inside* the already-published snapshot
//! ([`PolicyCore::republish`] — for Xar-Trek one `Release` store into
//! the row's [`crate::snapshot::ThrCell`]): O(1), allocation-free, and
//! the [`ArcCell`] generation does not move, so no [`DecideHandle`]
//! refreshes on a threshold update. The snapshot is rebuilt
//! ([`PolicyCore::snapshot`] + [`ArcCell::store`], the one path that
//! bumps the generation) only at boot, in
//! [`ShardedEngine::load_states`] (a state restore hands every shard
//! its blob, borrowed, and publishes what it rebuilt), and when the
//! hook answers `false`.
//!
//! **One hash.** An application name is hashed one way everywhere on
//! this path, and once per query and once per report: its FNV-1a
//! [`name_hash`] is computed where the request enters the engine, picks
//! the shard ([`shard_of_hash`]), and is handed to every [`PolicyCore`]
//! method that looks the name up — `decide`, `apply`, `republish`,
//! `row`. A batch keeps its hashes in its scratch ([`DecideScratch`],
//! [`BatchScratch`]), and a queued report carries its hash to the
//! flush. The same value, cached per row, is what `xar-core`'s name →
//! row index tags and buckets a name by (finalised there so that names
//! which agree modulo the shard count do not pile into the same slots),
//! so a shard split or an index rebuild hashes no name again.
//! Hashing a bare name is left to callers that start from one:
//! [`shard_of`] (the name → shard format, for
//! [`DecideHandle::early_config`], [`ShardedEngine::snapshot_of`] and
//! tests) and, in `xar-core`, boot (building a policy, restoring a
//! state blob), the simulator's engine-less `Policy` impl, and tests.
//!
//! Because Algorithm 1 only ever touches the reporting application's
//! table row, sharding by app preserves the single-policy semantics
//! exactly: every report is applied to the same row state, in arrival
//! order per shard.
//!
//! **One path per job.** Every decide goes through a worker-owned
//! [`DecideHandle`] (body: [`DecideHandle::decide_obs`]), whose
//! per-shard [`CachedSnap`] makes a steady-state decide one atomic
//! *load* — no RMW, no lock. Every report — a v2 frame, a v1 `REPORT`
//! line, a record replayed from the WAL — enters through
//! [`ShardedEngine::report_batch_wire_obs`]. The untraced names
//! (`decide`, `decide_batch`, `ingest`, `report_batch_wire`) are one
//! line each over those bodies with no tracer.
//!
//! Steady-state ingest allocates nothing: a shard's pending queue keeps
//! each report's name as bytes in one buffer beside fixed-size records,
//! and the queue and the flush's batch buffer swap places at each flush,
//! both keeping their capacity. Ingest reads no snapshot and touches no
//! refcount.

use crate::metrics::{MetricsSnapshot, ObsSnapshot, ShardMetrics};
use crate::snapshot::{ArcCell, CachedSnap};
use crate::wire::{WireEntry, WireQuery, WireReport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use xar_desim::{CompletionReport, DecideCtx, Decision, Target};
use xar_obs::sync_abstraction::Mutex;
use xar_obs::{Event, Tracer};

/// A threshold-table row as the engine and wire protocol see it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TableEntry {
    /// Application name.
    pub app: String,
    /// Hardware kernel name.
    pub kernel: String,
    /// FPGA migration threshold.
    pub fpga_thr: u32,
    /// ARM migration threshold.
    pub arm_thr: u32,
}

impl TableEntry {
    /// This row, borrowed: how the wire and the WAL carry it.
    pub fn row(&self) -> RowRef<'_> {
        let (app, kernel) = (self.app.as_str(), self.kernel.as_str());
        RowRef { app, kernel, fpga_thr: self.fpga_thr, arm_thr: self.arm_thr }
    }
}

impl From<RowRef<'_>> for TableEntry {
    fn from(r: RowRef<'_>) -> Self {
        TableEntry {
            app: r.app.to_string(),
            kernel: r.kernel.to_string(),
            fpga_thr: r.fpga_thr,
            arm_thr: r.arm_thr,
        }
    }
}

/// A threshold row borrowed from the policy's table — the view
/// `xar-core`'s `ThresholdTable` lookups hand out, and what the flush
/// sink sees, so neither a lookup nor a journaled delta clones a string.
/// It is the wire's table row, so it encodes as one ([`Writer::entry`]).
///
/// [`Writer::entry`]: crate::wire::Writer::entry
pub type RowRef<'a> = WireEntry<'a>;

/// The policy state a shard manages. `xar-core` implements this for
/// `XarTrekPolicy`; the engine itself is policy-agnostic so it can be
/// reused (and tested) with toy policies.
pub trait PolicyCore: Send + 'static {
    /// The decision state published to the lock-free read path (for
    /// Xar-Trek: a frozen `app → threshold cell` index plus policy
    /// flags). Shared by every reader; [`PolicyCore::republish`]
    /// updates it through `&Snap`.
    type Snap: Send + Sync + 'static;

    /// Builds a decision snapshot from scratch — the rebuild path
    /// (boot, state restore, a row [`PolicyCore::republish`] cannot
    /// place).
    fn snapshot(&self) -> Self::Snap;

    /// Refreshes `app`'s row inside the published `snap`, in place.
    /// `true` means `snap` now answers for `app` as a fresh
    /// [`PolicyCore::snapshot`] would; `false` (the default) makes the
    /// engine rebuild the whole snapshot. Called under the shard's
    /// state lock, after [`PolicyCore::apply`]. `hash` is `app`'s
    /// [`name_hash`], as in every method that takes one: the engine
    /// hashed the name once, to route it, and hands that value down so
    /// a lookup keyed by it need not hash the name again.
    fn republish(&self, snap: &Self::Snap, app: &str, hash: u64) -> bool {
        let _ = (snap, app, hash);
        false
    }

    /// The pure placement decision against a snapshot (Algorithm 2);
    /// `hash` is `ctx.app`'s [`name_hash`].
    fn decide(snap: &Self::Snap, ctx: &DecideCtx<'_>, hash: u64) -> Decision;

    /// Whether an application launch should trigger an early FPGA
    /// configuration (paper §3.1). Default: never.
    fn early_config(snap: &Self::Snap, ctx: &DecideCtx<'_>) -> bool {
        let _ = (snap, ctx);
        false
    }

    /// Applies one completion report (Algorithm 1); `hash` is
    /// `report.app`'s [`name_hash`].
    fn apply(&mut self, report: &CompletionReport<'_>, hash: u64);

    /// The current threshold rows (for TABLE snapshots).
    fn entries(&self) -> Vec<TableEntry>;

    /// The current row for one app, borrowed — the flush sink's
    /// per-batch delta lookup; `hash` is `app`'s [`name_hash`].
    /// Default: none, i.e. the policy emits no flush deltas.
    fn row(&self, app: &str, hash: u64) -> Option<RowRef<'_>> {
        let _ = (app, hash);
        None
    }

    /// Serializes this shard's full mutable state (not just the
    /// decision rows — anything [`PolicyCore::apply`] can read or
    /// write) for a durability snapshot. `None` means the policy does
    /// not support state snapshots; the durability layer then keeps
    /// the WAL from genesis instead of checkpointing.
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state serialized by [`PolicyCore::save_state`],
    /// replacing this shard's current state.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let _ = bytes;
        Err("policy does not support state snapshots".into())
    }
}

/// Observer of flush-publish row deltas: called with the shard index
/// and the post-apply rows (sorted by app, one per app, never empty)
/// of every app a flushed batch touched, while the shard's state lock
/// is held (deltas for one shard are therefore emitted in apply
/// order). The durability layer registers one to journal deltas for
/// downstream replication.
pub type FlushSink = Box<dyn Fn(u32, &mut dyn Iterator<Item = RowRef<'_>>) + Send + Sync>;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of policy shards (app-name hash groups).
    pub shards: usize,
    /// Reports to accumulate per shard before applying them. `1`
    /// applies every report as it arrives, like one sequential policy.
    pub batch: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { shards: 8, batch: 1 }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// The one hash of an application name (FNV-1a, 64-bit): what routes
/// it to a shard and what the policy's name index tags and buckets it
/// by.
pub fn name_hash(app: &str) -> u64 {
    fnv1a(FNV_OFFSET, app.as_bytes())
}

/// Stable shard index for an application name: [`name_hash`] modulo
/// the shard count. Durability snapshots are per shard, so this is a
/// format — pinned by `tests/format_goldens.rs`.
pub fn shard_of(app: &str, shards: usize) -> usize {
    shard_of_hash(name_hash(app), shards)
}

/// [`shard_of`] from a name's already computed [`name_hash`].
pub fn shard_of_hash(hash: u64, shards: usize) -> usize {
    (hash % shards.max(1) as u64) as usize
}

/// A queued report: its app name's `(offset, len)` in the queue's name
/// bytes, the name's [`name_hash`] (computed once, to route the report;
/// the flush hands it to every policy lookup), and what Algorithm 1
/// reads.
#[derive(Debug, Clone, Copy)]
struct Queued {
    app: (u32, u32),
    hash: u64,
    target: Target,
    func_ms: f64,
    x86_load: u32,
}

impl Queued {
    /// The app name, in the bytes of the queue this report sits in.
    fn app<'a>(&self, names: &'a str) -> &'a str {
        &names[self.app.0 as usize..][..self.app.1 as usize]
    }
}

/// Reports in arrival order, their names as bytes in one buffer:
/// queueing a report copies its name, and allocates only while the
/// buffers are still growing to the shard's usual batch.
#[derive(Debug, Default)]
struct Queue {
    names: String,
    reports: Vec<Queued>,
}

impl Queue {
    fn push(&mut self, r: &WireReport<'_>, hash: u64) {
        let at = self.names.len();
        u32::try_from(at + r.app.len()).expect("a queue's names fit in 4 GiB");
        self.names.push_str(r.app);
        let app = (at as u32, r.app.len() as u32);
        self.reports.push(Queued {
            app,
            hash,
            target: r.target,
            func_ms: r.func_ms,
            x86_load: r.x86_load,
        });
    }

    fn clear(&mut self) {
        self.names.clear();
        self.reports.clear();
    }
}

/// What a shard's state lock guards: the policy, and the buffer the
/// flush drains the pending queue into (kept so steady-state flushes
/// swap two buffers instead of allocating one).
struct State<P> {
    policy: P,
    batch: Queue,
}

struct Shard<P: PolicyCore> {
    state: Mutex<State<P>>,
    snap: ArcCell<P::Snap>,
    /// Reports queued in arrival order, not yet applied.
    pending: Mutex<Queue>,
    /// Whether `pending` may hold unapplied reports — the maintenance
    /// flush's cheap gate, so periodically sweeping an idle engine
    /// costs one relaxed load per shard instead of two lock
    /// acquisitions. Set (under the `pending` lock) by every enqueue,
    /// cleared by `flush_shard` *before* it drains, so "pending
    /// nonempty ⇒ dirty" always holds; a spurious `true` on an empty
    /// queue merely costs one no-op flush.
    dirty: AtomicBool,
    metrics: ShardMetrics,
}

impl<P: PolicyCore> Shard<P> {
    /// Queues `reports`, each beside its name's hash, in order under
    /// one hold of the pending lock; returns whether the queue reached
    /// `batch`.
    fn enqueue<'r, 'a: 'r>(
        &self,
        reports: impl IntoIterator<Item = (&'r WireReport<'a>, u64)>,
        batch: usize,
    ) -> bool {
        let mut pending = self.pending.lock();
        for (r, hash) in reports {
            pending.push(r, hash);
        }
        self.dirty.store(true, Ordering::Release);
        pending.reports.len() >= batch
    }
}

/// The sharded scheduler state behind the daemon (and the simulator
/// adapter).
pub struct ShardedEngine<P: PolicyCore> {
    shards: Vec<Shard<P>>,
    batch: usize,
    /// Optional flush-delta observer, set once (by the durability
    /// layer) before traffic starts. Costs one `OnceLock` load per
    /// flush when unset — nothing on the decide path.
    sink: OnceLock<FlushSink>,
}

impl<P: PolicyCore> ShardedEngine<P> {
    /// Builds an engine from pre-split shard states. `states[i]` must
    /// hold exactly the rows whose app names map to shard `i` under
    /// [`shard_of`] — decides and reports route by that hash.
    pub fn from_shards(states: Vec<P>, batch: usize) -> Self {
        assert!(!states.is_empty(), "at least one shard");
        let shards = states
            .into_iter()
            .map(|p| Shard {
                snap: ArcCell::new(p.snapshot()),
                state: Mutex::new(State { policy: p, batch: Queue::default() }),
                pending: Mutex::new(Queue::default()),
                dirty: AtomicBool::new(false),
                metrics: ShardMetrics::default(),
            })
            .collect();
        ShardedEngine { shards, batch: batch.max(1), sink: OnceLock::new() }
    }

    /// Registers the flush-delta observer. At most one per engine, set
    /// before serving traffic; a second registration is ignored.
    pub fn set_flush_sink(&self, sink: FlushSink) {
        let _ = self.sink.set(sink);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The decision snapshot currently published for `app`'s shard.
    pub fn snapshot_of(&self, app: &str) -> Arc<P::Snap> {
        self.shards[shard_of(app, self.shards.len())].snap.load()
    }

    /// A worker-owned decide handle over this engine (per-shard
    /// snapshot caches plus a reusable batch scratch). One per thread;
    /// the handle is `Send` but deliberately not shared.
    pub fn handle(self: &Arc<Self>) -> DecideHandle<P> {
        // Round-robin stripe assignment: concurrent handles land on
        // distinct counter cache lines (up to STRIPES of them).
        static NEXT_STRIPE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        DecideHandle {
            caches: (0..self.shards.len()).map(|_| CachedSnap::new()).collect(),
            stripe: NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % crate::metrics::STRIPES,
            engine: self.clone(),
        }
    }

    /// Queues one completion report from borrowed parts, its name
    /// copied into the shard queue's bytes. Applies the shard's pending
    /// batch if it reached the configured size.
    pub fn ingest(&self, app: &str, target: Target, func_ms: f64, x86_load: u32) {
        self.ingest_obs(&WireReport { app, target, func_ms, x86_load }, None);
    }

    fn ingest_obs(&self, r: &WireReport<'_>, obs: Option<&mut Tracer>) {
        let hash = name_hash(r.app);
        let idx = shard_of_hash(hash, self.shards.len());
        let shard = &self.shards[idx];
        if shard.enqueue([(r, hash)], self.batch) {
            self.flush_shard(idx, shard, obs);
        }
    }

    /// Batched ingest straight off the wire: groups borrowed reports by
    /// shard through a caller-scoped [`BatchScratch`] (no per-call
    /// group allocation) and takes each shard's pending lock once. A
    /// 1-report batch takes the same single-shard path as
    /// [`ShardedEngine::ingest`].
    pub fn report_batch_wire(
        &self,
        scratch: &mut BatchScratch,
        reports: &[WireReport<'_>],
    ) -> usize {
        self.report_batch_wire_obs(scratch, reports, None)
    }

    /// [`ShardedEngine::report_batch_wire`] with an optional tracer for
    /// the `FlushPublish` events of any flushes the batch triggers —
    /// the one ingest body: the daemon's workers thread their
    /// per-worker tracer here, WAL recovery replays through it.
    pub fn report_batch_wire_obs(
        &self,
        scratch: &mut BatchScratch,
        reports: &[WireReport<'_>],
        mut obs: Option<&mut Tracer>,
    ) -> usize {
        if let [r] = reports {
            self.ingest_obs(r, obs);
            return 1;
        }
        let shards = self.shards.len();
        let BatchScratch { groups, hashes } = scratch;
        groups.resize_with(shards, Vec::new);
        hashes.clear();
        hashes.extend(reports.iter().map(|r| name_hash(r.app)));
        for (i, &hash) in hashes.iter().enumerate() {
            groups[shard_of_hash(hash, shards)].push(i as u32);
        }
        for (idx, (shard, group)) in self.shards.iter().zip(groups).enumerate() {
            if group.is_empty() {
                continue;
            }
            let queued = group.iter().map(|&i| (&reports[i as usize], hashes[i as usize]));
            let ready = shard.enqueue(queued, self.batch);
            group.clear();
            if ready {
                self.flush_shard(idx, shard, obs.as_deref_mut());
            }
        }
        reports.len()
    }

    fn flush_shard(&self, idx: usize, shard: &Shard<P>, obs: Option<&mut Tracer>) {
        // Acquire the state lock BEFORE draining the queue: two
        // concurrent flushes that drained first could then race for
        // the state lock and apply their batches out of arrival
        // order. With state held, drain-then-apply is atomic with
        // respect to other flushes, and producers only ever wait for
        // the O(1) queue swap, not for Algorithm 1. Lock order is
        // state → pending everywhere.
        let mut state = shard.state.lock();
        let State { policy, batch } = &mut *state;
        // Clear the hint BEFORE draining: an enqueue racing past the
        // drain re-sets it (its report stays pending), while one the
        // drain caught leaves at worst a spurious `true`.
        shard.dirty.store(false, Ordering::Release);
        // `batch` was left empty (capacity kept) by the previous flush.
        std::mem::swap(&mut *shard.pending.lock(), batch);
        let (names, reports) = (batch.names.as_str(), &mut batch.reports);
        if reports.is_empty() {
            return;
        }
        // The counts are exact, and bumped before the apply because the
        // bump elects; the timing is sampled like decides' (at batch = 1
        // every report is a flush). An elected flush times the
        // apply loop and the publication — the report_batch /
        // flush_publish op-class distributions — an unelected one reads
        // no clock.
        let applied = reports.len();
        let apply_start = shard.metrics.record_batch(applied).then(Instant::now);
        for r in reports.iter() {
            let report = CompletionReport {
                app: r.app(names),
                target: r.target,
                func_ms: r.func_ms,
                x86_load: r.x86_load as usize,
            };
            policy.apply(&report, r.hash);
        }
        // One clock read ends the apply phase and starts the publish.
        let phases = apply_start.map(|apply_start| (apply_start, Instant::now()));
        // Rebuilds run under the state lock too, so this is the live
        // snapshot for as long as we hold it. A row touched twice is
        // republished twice — the same value, cheaper than deduping.
        let snap = shard.snap.load();
        if !reports.iter().all(|r| policy.republish(&snap, r.app(names), r.hash)) {
            shard.snap.store(policy.snapshot());
        }
        if let Some((apply_start, publish_start)) = phases {
            let apply_ns = (publish_start - apply_start).as_nanos() as u64;
            let publish_ns = publish_start.elapsed().as_nanos() as u64;
            shard.metrics.record_flush_ns(apply_ns, publish_ns);
        }
        // Emit post-apply row deltas for the apps this batch touched,
        // still under the state lock so one shard's deltas reach the
        // sink in apply order. The batch is applied, so its order no
        // longer matters: sort and dedup its records in place, no
        // scratch list.
        if let Some(sink) = self.sink.get() {
            reports.sort_unstable_by(|a, b| a.app(names).cmp(b.app(names)));
            reports.dedup_by(|a, b| a.app(names) == b.app(names));
            let mut rows =
                reports.iter().filter_map(|r| policy.row(r.app(names), r.hash)).peekable();
            if rows.peek().is_some() {
                sink(idx as u32, &mut rows);
            }
        }
        batch.clear();
        if let Some(tr) = obs {
            tr.emit(Event::FlushPublish {
                shard: idx as u32,
                rows: applied.min(u32::MAX as usize) as u32,
            });
        }
    }

    /// Applies every pending report on every shard.
    pub fn flush(&self) {
        for (idx, shard) in self.shards.iter().enumerate() {
            self.flush_shard(idx, shard, None);
        }
    }

    /// Applies pending reports on the shards that have any — the
    /// periodic-maintenance entry point: on an idle engine every shard
    /// is clean and the sweep costs one atomic load each, no locks.
    /// Each shard flushed emits a `FlushPublish` event carrying its
    /// applied row count to `obs`, if given (the daemon's maintenance
    /// tick threads its per-worker tracer here).
    pub fn flush_dirty(&self, mut obs: Option<&mut Tracer>) {
        for (idx, shard) in self.shards.iter().enumerate() {
            if shard.dirty.load(Ordering::Acquire) {
                self.flush_shard(idx, shard, obs.as_deref_mut());
            }
        }
    }

    /// Serializes every shard's policy state for a durability
    /// snapshot, flushing pending reports first so the blobs reflect
    /// everything ingested. `None` if the policy does not implement
    /// [`PolicyCore::save_state`].
    pub fn save_states(&self) -> Option<Vec<Vec<u8>>> {
        self.flush();
        self.shards.iter().map(|s| s.state.lock().policy.save_state()).collect()
    }

    /// Restores per-shard policy states serialized by
    /// [`ShardedEngine::save_states`] — the blobs may be borrowed, e.g.
    /// slices of a durability snapshot's payload — and publishes a
    /// fresh decision snapshot per shard (the generation moves).
    /// Pending queues must be empty (recovery runs before traffic);
    /// blob count must match the shard count — a snapshot taken under a
    /// different sharding cannot be loaded.
    pub fn load_states<B: AsRef<[u8]>>(&self, blobs: &[B]) -> Result<(), String> {
        if blobs.len() != self.shards.len() {
            return Err(format!(
                "snapshot has {} shard states, engine has {} shards",
                blobs.len(),
                self.shards.len()
            ));
        }
        for (shard, blob) in self.shards.iter().zip(blobs) {
            let mut state = shard.state.lock();
            state.policy.load_state(blob.as_ref())?;
            shard.snap.store(state.policy.snapshot());
        }
        Ok(())
    }

    /// The merged threshold table (after a full flush), sorted by app.
    pub fn table(&self) -> Vec<TableEntry> {
        self.flush();
        let mut entries: Vec<TableEntry> =
            self.shards.iter().flat_map(|s| s.state.lock().policy.entries()).collect();
        entries.sort();
        entries
    }

    /// Per-shard metric snapshots.
    pub fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards.iter().map(|s| s.metrics.snapshot()).collect()
    }

    /// Whole-engine metric totals.
    pub fn metrics_total(&self) -> MetricsSnapshot {
        self.metrics().into_iter().fold(MetricsSnapshot::default(), MetricsSnapshot::merge)
    }

    /// Per-shard full latency distributions (one histogram snapshot per
    /// op class).
    pub fn obs(&self) -> Vec<ObsSnapshot> {
        self.shards.iter().map(|s| s.metrics.obs_snapshot()).collect()
    }

    /// Whole-engine latency distributions — per-shard snapshots merged
    /// bucket-exactly. This is what `StatsV2` quantiles and the `DUMP`
    /// histogram buckets are computed from.
    pub fn obs_total(&self) -> ObsSnapshot {
        self.shards
            .iter()
            .fold(ObsSnapshot::default(), |acc, s| acc.merge(&s.metrics.obs_snapshot()))
    }
}

/// Reusable grouping scratch for [`ShardedEngine::report_batch_wire`]:
/// per-shard index lists and the batch's name hashes (one per report,
/// in report order), all keeping their capacity across calls, so a
/// steady stream of batch frames allocates nothing per frame.
#[derive(Debug, Default)]
pub struct BatchScratch {
    groups: Vec<Vec<u32>>,
    hashes: Vec<u64>,
}

/// Reusable caller-scoped scratch for [`DecideHandle::decide_batch`],
/// mirroring [`BatchScratch`]: per-shard query-index groups, the
/// batch's name hashes in query order, and the decision buffer handed
/// back in query order. All keep their capacity across calls, so a
/// steady stream of `DecideBatch` frames allocates nothing per frame.
#[derive(Debug, Default)]
pub struct DecideScratch {
    groups: Vec<Vec<u32>>,
    hashes: Vec<u64>,
    decisions: Vec<Decision>,
}

/// A worker-owned fast decide path over a shared [`ShardedEngine`].
///
/// Holds one [`CachedSnap`] per shard: a steady-state
/// [`DecideHandle::decide`] revalidates the shard's snapshot with a
/// single atomic load of its generation and evaluates against the
/// handle's privately held `Arc` — zero atomic RMWs, no refcount
/// traffic on shared cache lines, no lock. Only a snapshot rebuild
/// (never a threshold update, which lands in place) touches the
/// snapshot cell's lock.
///
/// One handle per thread; cloning an adapter or spawning a worker
/// creates a fresh handle via [`ShardedEngine::handle`].
pub struct DecideHandle<P: PolicyCore> {
    engine: Arc<ShardedEngine<P>>,
    caches: Vec<CachedSnap<P::Snap>>,
    /// This handle's counter stripe (see [`crate::metrics::STRIPES`]).
    stripe: usize,
}

impl<P: PolicyCore> DecideHandle<P> {
    /// The engine behind this handle.
    pub fn engine(&self) -> &Arc<ShardedEngine<P>> {
        &self.engine
    }

    /// Placement decision (wait-free steady state + sampled latency
    /// metric).
    pub fn decide(&mut self, ctx: &DecideCtx<'_>) -> Decision {
        self.decide_obs(ctx, None)
    }

    /// [`DecideHandle::decide`] with an optional tracer — the one
    /// decide body: a sampled decide whose latency crosses the
    /// tracer's slow-decide threshold emits a `SlowDecide` event.
    /// Tracing observes, it never changes what is counted; unelected
    /// decides pay one branch on the `Option` and nothing else.
    pub fn decide_obs(&mut self, ctx: &DecideCtx<'_>, obs: Option<&mut Tracer>) -> Decision {
        self.decide_at(ctx, name_hash(ctx.app), obs)
    }

    /// [`DecideHandle::decide_obs`] for a query whose name `hash` the
    /// caller already holds.
    fn decide_at(&mut self, ctx: &DecideCtx<'_>, hash: u64, obs: Option<&mut Tracer>) -> Decision {
        let idx = shard_of_hash(hash, self.engine.shards.len());
        let shard = &self.engine.shards[idx];
        let sampled = shard.metrics.note_decide(self.stripe);
        let start = if sampled { Some(Instant::now()) } else { None };
        let snap = self.caches[idx].get(&shard.snap);
        let d = P::decide(snap, ctx, hash);
        let nanos = start.map(|s| s.elapsed().as_nanos() as u64);
        shard.metrics.note_outcome(self.stripe, d.target, d.reconfigure, nanos);
        if let (Some(tr), Some(ns)) = (obs, nanos) {
            tr.slow_decide(ns);
        }
        d
    }

    /// Whether `ctx`'s application launch should early-configure the
    /// FPGA (paper §3.1), evaluated against the cached snapshot.
    pub fn early_config(&mut self, ctx: &DecideCtx<'_>) -> bool {
        let idx = shard_of(ctx.app, self.engine.shards.len());
        let shard = &self.engine.shards[idx];
        P::early_config(self.caches[idx].get(&shard.snap), ctx)
    }

    /// Batched placement decisions — the whole-frame amortization of
    /// [`DecideHandle::decide`]: queries are grouped by shard through
    /// the caller-scoped [`DecideScratch`] (no per-call allocation),
    /// each *touched* shard's snapshot generation is revalidated
    /// **once per batch** instead of once per decide, and the metric
    /// counters take one add of N per lane touched. Latency sampling
    /// keeps its exact 1-in-[`crate::metrics::LATENCY_SAMPLE`]
    /// election cadence, recording the batch's amortized per-decide
    /// figure for each elected sample.
    ///
    /// Returns the decisions in query order, borrowed from the
    /// scratch. Decisions are bit-identical to issuing the same
    /// queries one by one through [`DecideHandle::decide`]: both
    /// evaluate the pure `P::decide` against the same published
    /// snapshots (a 1-query batch literally takes that path).
    pub fn decide_batch<'s>(
        &mut self,
        queries: &[WireQuery<'_>],
        scratch: &'s mut DecideScratch,
    ) -> &'s [Decision] {
        self.decide_batch_obs(queries, scratch, None)
    }

    /// [`DecideHandle::decide_batch`] with an optional tracer. Elected
    /// (timed) groups additionally record their whole-group latency in
    /// the decide-batch histogram and emit a `SlowDecide` event when
    /// the amortized per-decide figure crosses the tracer's threshold.
    /// Counting is identical to the plain path.
    pub fn decide_batch_obs<'s>(
        &mut self,
        queries: &[WireQuery<'_>],
        scratch: &'s mut DecideScratch,
        mut obs: Option<&mut Tracer>,
    ) -> &'s [Decision] {
        let DecideScratch { groups, hashes, decisions } = scratch;
        decisions.clear();
        if queries.is_empty() {
            return decisions; // empty frame: nothing to count
        }
        // Each name is hashed once: the value routes the query and is
        // the key its row probe starts from.
        hashes.clear();
        hashes.extend(queries.iter().map(|q| name_hash(q.app)));
        let shards = self.engine.shards.len();
        // Frame-level counter, attributed to the first query's shard.
        self.engine.shards[shard_of_hash(hashes[0], shards)].metrics.record_decide_batch_frame();
        if let [q] = queries {
            // Single-query batches ride the exact single-decide path
            // (same metrics election included) — pinned by test.
            let d = self.decide_at(&q.ctx(), hashes[0], obs);
            decisions.push(d);
            return decisions;
        }
        decisions.resize(queries.len(), Decision::to(Target::X86));
        groups.resize_with(shards, Vec::new);
        for (i, &hash) in hashes.iter().enumerate() {
            groups[shard_of_hash(hash, shards)].push(i as u32);
        }
        for (idx, group) in groups.iter_mut().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.engine.shards[idx];
            let n = group.len() as u64;
            let elected = shard.metrics.note_decides(self.stripe, n);
            let start = (elected > 0).then(Instant::now);
            // The once-per-batch generation gate: every query in this
            // group evaluates against the same revalidated snapshot.
            let snap = self.caches[idx].get(&shard.snap);
            let (mut to_arm, mut to_fpga, mut reconfigs) = (0u64, 0u64, 0u64);
            for &i in group.iter() {
                let d = P::decide(snap, &queries[i as usize].ctx(), hashes[i as usize]);
                match d.target {
                    Target::X86 => {}
                    Target::Arm => to_arm += 1,
                    Target::Fpga => to_fpga += 1,
                }
                reconfigs += u64::from(d.reconfigure);
                decisions[i as usize] = d;
            }
            let sampled = start.map(|s| {
                let group_ns = s.elapsed().as_nanos() as u64;
                shard.metrics.record_decide_batch_ns(self.stripe, group_ns);
                let per_decide_ns = group_ns / n;
                if let Some(tr) = obs.as_deref_mut() {
                    tr.slow_decide(per_decide_ns);
                }
                (elected, per_decide_ns)
            });
            shard.metrics.note_outcomes(self.stripe, to_arm, to_fpga, reconfigs, sampled);
            group.clear();
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ThrCell;

    /// Toy policy: per-app call counters; decides FPGA once an app has
    /// been reported `limit` times.
    #[derive(Debug, Clone, Default)]
    struct CountPolicy {
        counts: std::collections::BTreeMap<String, u32>,
        limit: u32,
    }

    impl PolicyCore for CountPolicy {
        type Snap = std::collections::BTreeMap<String, u32>;

        fn snapshot(&self) -> Self::Snap {
            self.counts.clone()
        }

        fn decide(snap: &Self::Snap, ctx: &DecideCtx<'_>, hash: u64) -> Decision {
            assert_eq!(hash, name_hash(ctx.app), "{}", ctx.app);
            let seen = snap.get(ctx.app).copied().unwrap_or(0);
            Decision::to(if seen >= 3 { Target::Fpga } else { Target::X86 })
        }

        fn apply(&mut self, report: &CompletionReport<'_>, hash: u64) {
            assert_eq!(hash, name_hash(report.app), "{}", report.app);
            *self.counts.entry(report.app.to_string()).or_default() += 1;
            self.limit = self.limit.max(1);
        }

        fn entries(&self) -> Vec<TableEntry> {
            self.counts
                .iter()
                .map(|(app, &n)| TableEntry {
                    app: app.clone(),
                    kernel: String::new(),
                    fpga_thr: n,
                    arm_thr: 0,
                })
                .collect()
        }

        fn row(&self, app: &str, hash: u64) -> Option<RowRef<'_>> {
            assert_eq!(hash, name_hash(app), "{app}");
            let (app, n) = self.counts.get_key_value(app)?;
            Some(RowRef { app, kernel: "", fpga_thr: *n, arm_thr: 0 })
        }
    }

    fn ctx(app: &str) -> DecideCtx<'_> {
        DecideCtx {
            app,
            kernel: "k",
            x86_load: 1,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
            now_ns: 0.0,
        }
    }

    fn engine(shards: usize, batch: usize) -> Arc<ShardedEngine<CountPolicy>> {
        Arc::new(ShardedEngine::from_shards(vec![CountPolicy::default(); shards], batch))
    }

    fn report(app: &str) -> WireReport<'_> {
        WireReport { app, target: Target::X86, func_ms: 1.0, x86_load: 1 }
    }

    /// One report through the one ingest door.
    fn ingest<P: PolicyCore>(e: &ShardedEngine<P>, app: &str) {
        e.ingest(app, Target::X86, 1.0, 1);
    }

    /// `n` reports `app0..app{n-1}` as one wire batch.
    fn ingest_apps<P: PolicyCore>(e: &ShardedEngine<P>, n: usize) -> usize {
        let apps: Vec<String> = (0..n).map(|i| format!("app{i}")).collect();
        let reports: Vec<WireReport<'_>> = apps.iter().map(|a| report(a)).collect();
        e.report_batch_wire(&mut BatchScratch::default(), &reports)
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for app in ["CG-A", "Digit2000", "FaceDet320", "x"] {
            let s = shard_of(app, 8);
            assert!(s < 8);
            assert_eq!(s, shard_of(app, 8), "stable");
        }
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn batch_one_applies_immediately() {
        let e = engine(4, 1);
        for _ in 0..3 {
            ingest(&e, "app");
        }
        // No explicit flush: snapshot already reflects all three.
        assert_eq!(e.handle().decide(&ctx("app")).target, Target::Fpga);
        let m = e.metrics_total();
        assert_eq!(m.reports, 3);
        assert_eq!(m.batches, 3, "batch=1: one batch per report");
    }

    #[test]
    fn larger_batches_defer_then_amortize() {
        let e = engine(2, 64);
        for _ in 0..3 {
            ingest(&e, "app");
        }
        // Deferred: the snapshot is stale until a flush.
        let mut h = e.handle();
        assert_eq!(h.decide(&ctx("app")).target, Target::X86);
        e.flush();
        assert_eq!(h.decide(&ctx("app")).target, Target::Fpga);
        let m = e.metrics_total();
        assert_eq!(m.reports, 3);
        assert_eq!(m.batches, 1, "one amortized application");
    }

    #[test]
    fn flush_dirty_applies_stranded_below_batch_reports() {
        let e = engine(4, 64);
        for _ in 0..3 {
            ingest(&e, "app");
        }
        // Below the batch size: the snapshot is stale — the stranded
        // state the maintenance flush exists to clear.
        let mut h = e.handle();
        assert_eq!(h.decide(&ctx("app")).target, Target::X86, "stranded below batch");
        e.flush_dirty(None);
        assert_eq!(h.decide(&ctx("app")).target, Target::Fpga);
        let m = e.metrics_total();
        assert_eq!(m.reports, 3);
        assert_eq!(m.batches, 1, "one maintenance batch");
        // Everything is clean now: another sweep applies nothing.
        e.flush_dirty(None);
        assert_eq!(e.metrics_total().batches, 1, "clean shards were re-flushed");
    }

    #[test]
    fn report_batch_marks_its_shards_dirty() {
        let e = engine(4, 64);
        ingest_apps(&e, 6);
        assert_eq!(e.metrics_total().reports, 0, "below batch: deferred");
        e.flush_dirty(None);
        assert_eq!(e.metrics_total().reports, 6, "dirty sweep missed a shard");
    }

    #[test]
    fn report_batch_groups_by_shard_and_counts() {
        let e = engine(4, 2);
        assert_eq!(ingest_apps(&e, 10), 10);
        e.flush();
        assert_eq!(e.metrics_total().reports, 10);
        assert_eq!(e.table().len(), 10);
    }

    #[test]
    fn table_merges_sorted_across_shards() {
        let e = engine(4, 1);
        for app in ["zeta", "alpha", "mid"] {
            ingest(&e, app);
        }
        let t = e.table();
        let apps: Vec<&str> = t.iter().map(|e| e.app.as_str()).collect();
        assert_eq!(apps, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn decide_counts_and_latency_metrics_land_in_app_shard() {
        let e = engine(4, 1);
        let mut h = e.handle();
        for _ in 0..5 {
            h.decide(&ctx("solo"));
        }
        let per_shard = e.metrics();
        let idx = shard_of("solo", 4);
        assert_eq!(per_shard[idx].decides, 5);
        assert!(per_shard[idx].p50_ns > 0);
        let other: u64 =
            per_shard.iter().enumerate().filter(|(i, _)| *i != idx).map(|(_, m)| m.decides).sum();
        assert_eq!(other, 0);
    }

    #[test]
    fn latency_sampling_pins_metric_counts() {
        use crate::metrics::LATENCY_SAMPLE;
        let e = engine(1, 1);
        let mut h = e.handle();
        for _ in 0..(2 * LATENCY_SAMPLE + 1) {
            h.decide(&ctx("app"));
        }
        let m = e.metrics_total();
        assert_eq!(m.decides, 2 * LATENCY_SAMPLE + 1, "decide count stays exact under sampling");
        assert_eq!(m.lat_samples, 3, "decides 0, 64 and 128 were latency-sampled");
        assert!(m.p50_ns > 0, "the sampled decides landed in the histogram");
    }

    #[test]
    fn one_report_batch_takes_the_report_path() {
        // Two engines fed the same single report through the two
        // ingest names must end bit-identical: same table, same metric
        // counts (one batch, one report), same deferred/dirty behavior.
        let single = engine(4, 1);
        ingest(&single, "app");
        let via_wire = engine(4, 1);
        let mut scratch = BatchScratch::default();
        assert_eq!(via_wire.report_batch_wire(&mut scratch, &[report("app")]), 1);
        assert!(scratch.groups.is_empty(), "1-report fast path never built groups");
        assert_eq!(via_wire.metrics_total().reports, single.metrics_total().reports);
        assert_eq!(via_wire.metrics_total().batches, single.metrics_total().batches);
        assert_eq!(via_wire.table(), single.table());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let e = engine(4, 1);
        let mut scratch = BatchScratch::default();
        assert_eq!(e.report_batch_wire(&mut scratch, &[]), 0);
        assert_eq!(e.metrics_total().reports, 0);
        assert_eq!(e.metrics_total().batches, 0);
    }

    #[test]
    fn decide_handle_observes_publishes_and_counts_in_the_shared_metrics() {
        let e = engine(4, 1);
        let mut h = e.handle();
        assert_eq!(h.decide(&ctx("app")).target, Target::X86);
        for _ in 0..3 {
            ingest(&e, "app");
        }
        // batch = 1: the third report published a new snapshot; the
        // cached handle must observe it on its next decide.
        assert_eq!(h.decide(&ctx("app")).target, Target::Fpga, "handle missed the publish");
        assert_eq!(h.decide(&ctx("app")), e.handle().decide(&ctx("app")), "a fresh handle agrees");
        let m = e.metrics_total();
        assert_eq!(m.decides, 4, "every handle's decides count in the shared shard metrics");
    }

    fn query(app: &str) -> WireQuery<'_> {
        WireQuery {
            app,
            kernel: "k",
            x86_load: 1,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
        }
    }

    #[test]
    fn decide_batch_is_bit_identical_to_sequential_decides() {
        let e = engine(4, 1);
        // Push some apps over the toy policy's FPGA limit so the batch
        // spans a mixed decision set across several shards.
        for i in 0..8 {
            if i % 2 == 0 {
                for _ in 0..3 {
                    ingest(&e, &format!("app{i}"));
                }
            }
        }
        let apps: Vec<String> = (0..8).map(|i| format!("app{i}")).collect();
        let queries: Vec<WireQuery<'_>> = apps.iter().map(|a| query(a)).collect();
        let mut sequential = e.handle();
        let want: Vec<Decision> = queries.iter().map(|q| sequential.decide(&q.ctx())).collect();
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let got = h.decide_batch(&queries, &mut scratch);
        assert_eq!(got, want.as_slice(), "batched decisions drifted from the sequential path");
    }

    #[test]
    fn decide_batch_observes_publishes_between_batches() {
        let e = engine(4, 1);
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let queries = [query("app"), query("other")];
        assert_eq!(h.decide_batch(&queries, &mut scratch)[0].target, Target::X86);
        for _ in 0..3 {
            ingest(&e, "app");
        }
        // batch = 1: the third report published; the next batch's
        // once-per-batch revalidation must observe it.
        assert_eq!(
            h.decide_batch(&queries, &mut scratch)[0].target,
            Target::Fpga,
            "batch missed the publish"
        );
    }

    #[test]
    fn decide_batch_metrics_match_single_decides_plus_frame_count() {
        let e1 = engine(4, 1);
        let mut h1 = e1.handle();
        let queries: Vec<String> = (0..10).map(|i| format!("app{i}")).collect();
        let wire: Vec<WireQuery<'_>> = queries.iter().map(|a| query(a)).collect();
        for q in &wire {
            h1.decide(&q.ctx());
        }
        let e2 = engine(4, 1);
        let mut h2 = e2.handle();
        let mut scratch = DecideScratch::default();
        h2.decide_batch(&wire, &mut scratch);
        let (m1, m2) = (e1.metrics_total(), e2.metrics_total());
        assert_eq!(m2.decides, m1.decides, "batched decides must count exactly");
        assert_eq!(m2.to_arm, m1.to_arm);
        assert_eq!(m2.to_fpga, m1.to_fpga);
        assert_eq!(m1.decide_batches, 0, "single decides are not batch frames");
        assert_eq!(m2.decide_batches, 1, "one frame, one decide_batches count");
    }

    #[test]
    fn one_query_batch_takes_the_single_decide_path() {
        let e = engine(4, 1);
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let ds = h.decide_batch(&[query("app")], &mut scratch);
        assert_eq!(ds.len(), 1);
        assert!(scratch.groups.is_empty(), "1-query fast path never built groups");
        let m = e.metrics_total();
        assert_eq!(m.decides, 1);
        assert_eq!(m.decide_batches, 1);
        assert_eq!(m.lat_samples, 1, "the single-decide election fired");
    }

    #[test]
    fn empty_decide_batch_is_a_no_op() {
        let e = engine(4, 1);
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        assert!(h.decide_batch(&[], &mut scratch).is_empty());
        let m = e.metrics_total();
        assert_eq!(m.decides, 0);
        assert_eq!(m.decide_batches, 0, "no shard to attribute an empty frame to");
    }

    /// Toy policy with an in-place publish: per-app report counts as
    /// `fpga_thr` (and twice that as `arm_thr`), published through
    /// [`ThrCell`]s in a frozen index. A report for an app the index
    /// does not hold inserts a row — the rebuild path.
    #[derive(Debug, Clone, Default)]
    struct CellPolicy {
        rows: std::collections::BTreeMap<String, u32>,
    }

    impl CellPolicy {
        fn with_apps(apps: &[&str]) -> CellPolicy {
            CellPolicy { rows: apps.iter().map(|a| (a.to_string(), 0)).collect() }
        }
    }

    impl PolicyCore for CellPolicy {
        type Snap = std::collections::HashMap<String, ThrCell>;

        fn snapshot(&self) -> Self::Snap {
            self.rows.iter().map(|(app, &n)| (app.clone(), ThrCell::new(n, 2 * n))).collect()
        }

        fn republish(&self, snap: &Self::Snap, app: &str, hash: u64) -> bool {
            assert_eq!(hash, name_hash(app), "{app}");
            let Some(cell) = snap.get(app) else { return false };
            let n = self.rows[app];
            cell.store(n, 2 * n);
            true
        }

        fn decide(snap: &Self::Snap, ctx: &DecideCtx<'_>, hash: u64) -> Decision {
            assert_eq!(hash, name_hash(ctx.app), "{}", ctx.app);
            let seen = snap.get(ctx.app).map_or(0, |cell| cell.load().0);
            Decision::to(if seen >= 3 { Target::Fpga } else { Target::X86 })
        }

        fn apply(&mut self, report: &CompletionReport<'_>, hash: u64) {
            assert_eq!(hash, name_hash(report.app), "{}", report.app);
            *self.rows.entry(report.app.to_string()).or_default() += 1;
        }

        fn entries(&self) -> Vec<TableEntry> {
            self.rows
                .iter()
                .map(|(app, &n)| TableEntry {
                    app: app.clone(),
                    kernel: String::new(),
                    fpga_thr: n,
                    arm_thr: 2 * n,
                })
                .collect()
        }

        fn save_state(&self) -> Option<Vec<u8>> {
            Some(
                self.rows.iter().flat_map(|(app, n)| format!("{app} {n}\n").into_bytes()).collect(),
            )
        }

        fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            self.rows = text
                .lines()
                .map(|l| l.split_once(' ').map(|(app, n)| (app.to_string(), n.parse().unwrap())))
                .collect::<Option<_>>()
                .ok_or("malformed row")?;
            Ok(())
        }
    }

    fn cell_engine(apps: &[&str]) -> Arc<ShardedEngine<CellPolicy>> {
        Arc::new(ShardedEngine::from_shards(vec![CellPolicy::with_apps(apps)], 1))
    }

    #[test]
    fn threshold_only_flush_keeps_the_generation_and_reaches_cached_handles() {
        let e = cell_engine(&["app", "other"]);
        let mut h = e.handle();
        assert_eq!(h.decide(&ctx("app")).target, Target::X86);
        let generation = e.shards[0].snap.generation();
        for _ in 0..3 {
            e.ingest("app", Target::X86, 1.0, 1);
        }
        assert_eq!(e.shards[0].snap.generation(), generation, "in-place publish bumped it");
        assert_eq!(h.caches[0].generation(), generation, "the handle never refreshed");
        assert_eq!(h.decide(&ctx("app")).target, Target::Fpga, "handle missed the update");
        assert_eq!(e.handle().decide(&ctx("app")).target, Target::Fpga, "a fresh handle agrees");
        assert_eq!(h.decide(&ctx("other")).target, Target::X86, "untouched row moved");
        // Three flushes, of which the shard's first is timed.
        assert_eq!(e.obs_total().flush_publish.count(), 1, "in-place publishes are still timed");
    }

    #[test]
    fn absent_row_and_load_states_take_the_rebuild_path() {
        let e = cell_engine(&["app"]);
        let mut h = e.handle();
        assert_eq!(h.decide(&ctx("new")).target, Target::X86);
        // "new" is not in the published index: the hook answers false,
        // the engine rebuilds, and the generation says so.
        for _ in 0..3 {
            e.ingest("new", Target::X86, 1.0, 1);
            assert_eq!(e.shards[0].snap.generation(), 1, "only the first report rebuilds");
        }
        assert_eq!(h.decide(&ctx("new")).target, Target::Fpga, "handle refreshed to the new index");
        assert_eq!(h.caches[0].generation(), 1);
        // A state restore always rebuilds.
        let blobs = e.save_states().unwrap();
        let restored = cell_engine(&["app"]);
        restored.load_states(&blobs).unwrap();
        assert_eq!(restored.shards[0].snap.generation(), 1);
        assert_eq!(restored.handle().decide(&ctx("new")).target, Target::Fpga);
        assert_eq!(restored.table(), e.table());
    }

    #[test]
    fn decide_batch_matches_sequential_decides_across_interleaved_reports() {
        let apps: Vec<String> = (0..8).map(|i| format!("app{i}")).collect();
        let names: Vec<&str> = apps.iter().map(String::as_str).collect();
        let e = cell_engine(&names);
        let queries: Vec<WireQuery<'_>> = names.iter().map(|a| query(a)).collect();
        let (mut batched, mut sequential) = (e.handle(), e.handle());
        let mut scratch = DecideScratch::default();
        for round in 0..12 {
            // Same long-lived handles throughout: neither may be left
            // behind by the in-place updates between rounds.
            e.ingest(names[round % 3], Target::X86, 1.0, 1);
            e.ingest(names[(round * 5) % 8], Target::X86, 1.0, 1);
            let want: Vec<Decision> = queries.iter().map(|q| sequential.decide(&q.ctx())).collect();
            let got = batched.decide_batch(&queries, &mut scratch);
            assert_eq!(got, want.as_slice(), "round {round}");
        }
        let fpga =
            queries.iter().filter(|q| sequential.decide(&q.ctx()).target == Target::Fpga).count();
        assert!(
            (1..8).contains(&fpga),
            "the trace must cross the limit for some apps only: {fpga}"
        );
    }

    #[test]
    fn queued_reports_carry_their_names_as_bytes() {
        let e = Arc::new(ShardedEngine::from_shards(vec![CellPolicy::with_apps(&["known"])], 64));
        let reports = [
            report("known"),
            WireReport { app: "known", target: Target::Fpga, func_ms: 2.0, x86_load: 2 },
            report("stranger"),
        ];
        e.ingest_obs(&reports[0], None);
        e.report_batch_wire(&mut BatchScratch::default(), &reports[1..]);
        fn queued(q: &Queue) -> Vec<WireReport<'_>> {
            let to_wire = |r: &Queued| WireReport {
                app: r.app(&q.names),
                target: r.target,
                func_ms: r.func_ms,
                x86_load: r.x86_load,
            };
            q.reports.iter().map(to_wire).collect()
        }
        {
            let pending = e.shards[0].pending.lock();
            assert_eq!(pending.names, "knownknownstranger", "one copy of each report's name");
            assert_eq!(queued(&pending), reports, "arrival order, every field");
        }
        // The flush drains the queue into the batch buffer, applies it,
        // and leaves both empty with their capacity kept.
        e.flush();
        let (pending, state) = (e.shards[0].pending.lock(), e.shards[0].state.lock());
        assert!(pending.reports.is_empty() && pending.names.is_empty());
        assert!(state.batch.reports.is_empty() && state.batch.names.capacity() >= 18);
        assert_eq!(state.policy.rows.get("known"), Some(&2));
    }

    #[test]
    fn flush_sink_sees_each_touched_row_once_sorted() {
        let e = Arc::new(ShardedEngine::from_shards(vec![CountPolicy::default()], 4));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        e.set_flush_sink(Box::new(move |shard, rows| {
            let rows: Vec<(String, u32)> = rows.map(|r| (r.app.to_string(), r.fpga_thr)).collect();
            sink_seen.lock().push((shard, rows));
        }));
        for app in ["zeta", "alpha", "zeta", "mid"] {
            ingest(&e, app);
        }
        let want = vec![("alpha".to_string(), 1), ("mid".to_string(), 1), ("zeta".to_string(), 2)];
        assert_eq!(*seen.lock(), vec![(0, want)]);
        assert_eq!(e.metrics_total().reports, 4, "dedup for the sink must not shrink the count");
    }

    fn tracer(threshold_ns: u64) -> (Tracer, xar_obs::TraceReader, Arc<xar_obs::EventCounters>) {
        let (writer, reader) = xar_obs::ring(256);
        let counters = Arc::new(xar_obs::EventCounters::default());
        (Tracer::new(writer, 0, true, threshold_ns, counters.clone()), reader, counters)
    }

    #[test]
    fn traced_flushes_emit_publish_events_with_row_counts() {
        let e = engine(4, 64);
        let (mut tr, mut reader, counters) = tracer(u64::MAX);
        for i in 0..6 {
            e.ingest_obs(&report(&format!("app{i}")), Some(&mut tr));
        }
        e.flush_dirty(Some(&mut tr));
        let (mut publishes, mut rows) = (0u64, 0u64);
        let mut shards_seen = std::collections::BTreeSet::new();
        while let Some(ev) = reader.pop() {
            if let Event::FlushPublish { shard, rows: r } = ev.event {
                publishes += 1;
                rows += r as u64;
                shards_seen.insert(shard);
            }
        }
        assert_eq!(rows, 6, "row counts must sum to the reports applied");
        assert!((1..=4).contains(&publishes), "one publish per dirty shard: {publishes}");
        assert_eq!(publishes, shards_seen.len() as u64, "one publish event per shard");
        assert_eq!(counters.flush_rows.load(Ordering::Relaxed), 6);
        // Each shard flushed once, and a shard's first flush is always
        // elected: both phases are in the op-class histograms.
        let o = e.obs_total();
        assert_eq!(o.report_batch.count(), publishes);
        assert_eq!(o.flush_publish.count(), publishes);
        // An untraced engine counts histograms but emits no events.
        e.flush_dirty(Some(&mut tr));
        assert_eq!(counters.flush_publishes.load(Ordering::Relaxed), publishes, "clean: no-op");
    }

    #[test]
    fn flush_timing_is_sampled_and_counts_stay_exact() {
        use crate::metrics::LATENCY_SAMPLE;
        let e = engine(1, 1);
        let (mut tr, mut reader, counters) = tracer(u64::MAX);
        let n = 2 * LATENCY_SAMPLE + 2;
        for _ in 0..n {
            e.ingest_obs(&report("app"), Some(&mut tr));
        }
        let m = e.metrics_total();
        assert_eq!((m.reports, m.batches), (n, n), "batch = 1: one exact batch per report");
        let mut events = 0;
        while let Some(ev) = reader.pop() {
            events += u64::from(matches!(ev.event, Event::FlushPublish { rows: 1, .. }));
        }
        assert_eq!(events, n, "every flush emits its publish event");
        assert_eq!(counters.flush_publishes.load(Ordering::Relaxed), n);
        assert_eq!(counters.flush_rows.load(Ordering::Relaxed), n);
        let o = e.obs_total();
        assert_eq!(o.report_batch.count(), 3, "flushes 0, 64 and 128 were timed");
        assert_eq!(o.flush_publish.count(), 3, "flushes 0, 64 and 128 were timed");
    }

    #[test]
    fn slow_sampled_decides_emit_events() {
        let e = engine(1, 1);
        let mut h = e.handle();
        // Threshold 0: every *sampled* decide is "slow". The first
        // decide of an idle stripe is always elected.
        let (mut tr, mut reader, counters) = tracer(0);
        h.decide_obs(&ctx("app"), Some(&mut tr));
        assert_eq!(counters.slow_decides.load(Ordering::Relaxed), 1);
        match reader.pop().map(|e| e.event) {
            Some(Event::SlowDecide { .. }) => {}
            other => panic!("expected SlowDecide, got {other:?}"),
        }
        // The next 63 decides are unelected: no clock, no event.
        for _ in 0..63 {
            h.decide_obs(&ctx("app"), Some(&mut tr));
        }
        assert_eq!(counters.slow_decides.load(Ordering::Relaxed), 1);
        // With an unreachable threshold nothing emits even when sampled.
        let (mut quiet, _qreader, qcounters) = tracer(u64::MAX);
        h.decide_obs(&ctx("app"), Some(&mut quiet)); // decide 64: elected
        assert_eq!(qcounters.slow_decides.load(Ordering::Relaxed), 0);
        let m = e.metrics_total();
        assert_eq!(m.decides, 65, "tracing never changes what is counted");
        assert_eq!(m.lat_samples, 2, "elections 0 and 64");
    }

    #[test]
    fn decide_obs_counts_exactly_like_decide() {
        let traced = engine(4, 1);
        let plain = engine(4, 1);
        let mut ht = traced.handle();
        let mut hp = plain.handle();
        let (mut tr, _reader, _counters) = tracer(u64::MAX);
        for i in 0..130 {
            let app = format!("app{}", i % 5);
            let want = hp.decide(&ctx(&app));
            let got = ht.decide_obs(&ctx(&app), Some(&mut tr));
            assert_eq!(got, want);
        }
        let (mt, mp) = (traced.metrics_total(), plain.metrics_total());
        assert_eq!(mt.decides, mp.decides);
        assert_eq!(mt.lat_samples, mp.lat_samples, "same election cadence");
        assert_eq!(mt.to_fpga, mp.to_fpga);
    }

    #[test]
    fn traced_decide_batch_records_frame_latency_when_elected() {
        let e = engine(4, 1);
        let mut h = e.handle();
        let mut scratch = DecideScratch::default();
        let apps: Vec<String> = (0..10).map(|i| format!("app{i}")).collect();
        let queries: Vec<WireQuery<'_>> = apps.iter().map(|a| query(a)).collect();
        let (mut tr, _reader, _counters) = tracer(u64::MAX);
        let plain = engine(4, 1);
        let mut hp = plain.handle();
        let mut pscratch = DecideScratch::default();
        let want = hp.decide_batch(&queries, &mut pscratch).to_vec();
        let got = h.decide_batch_obs(&queries, &mut scratch, Some(&mut tr)).to_vec();
        assert_eq!(got, want, "traced batch decisions drifted from the plain path");
        // Quantiles are wall-clock and may differ; every count must not.
        let zero_lat = |mut m: MetricsSnapshot| {
            m.p50_ns = 0;
            m.p99_ns = 0;
            m
        };
        assert_eq!(
            zero_lat(e.metrics_total()),
            zero_lat(plain.metrics_total()),
            "identical counting"
        );
        // First-touch groups all elected: each group recorded one
        // whole-frame figure.
        let o = e.obs_total();
        assert!(o.decide_batch.count() >= 1, "elected groups record frame latency");
        assert_eq!(plain.obs_total().decide_batch.count(), o.decide_batch.count());
    }

    #[test]
    fn concurrent_reports_all_land() {
        let e = engine(4, 8);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let e = e.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        ingest(&e, &format!("app{}", (t + i) % 5));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        e.flush();
        let total: u32 = e.table().iter().map(|en| en.fpga_thr).sum();
        assert_eq!(total, 800, "every report applied exactly once");
    }
}
