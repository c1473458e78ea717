//! One hash per name: the engine hashes an application name once per
//! query or report and hands that value down — to the shard pick, the
//! decision snapshot's row probe, Algorithm 1's row lookup, the
//! in-place republish and the flush sink's row lookup. These tests hold
//! the threaded hash to the paper's sequential scheduler
//! ([`common::Reference`]): no decision, row or published threshold
//! may differ, at any shard count or report batch, including for names
//! whose hashes share a slot tag in the row index.

mod common;

use common::Reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xar_trek::core::server::{sharded_engine, EngineConfig};
use xar_trek::core::XarTrekPolicy;
use xar_trek::desim::{ClusterConfig, CompletionReport, DecideCtx, Decision, Target};
use xar_trek::sched::wire::{WireQuery, WireReport};
use xar_trek::sched::{
    name_hash, BatchScratch, DecideScratch, PolicyCore, RowRef, ShardedEngine, TableEntry,
};

/// Pairs of `app-%06d` names whose [`name_hash`]es share their high 32
/// bits — the tag a row-index slot stores beside its row id — found the
/// way `xar-core`'s `table_model` finds them.
fn tag_twins() -> Vec<(String, String)> {
    let app = |i: u32| format!("app-{i:06}");
    let mut tags: Vec<(u32, u32)> =
        (0..1_000_000).map(|i| ((name_hash(&app(i)) >> 32) as u32, i)).collect();
    tags.sort_unstable();
    tags.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| (app(w[0].1), app(w[1].1))).collect()
}

/// The paper's five applications plus every tag twin, each twin a copy
/// of a paper profile under its own name (so Algorithm 1 moves its
/// thresholds like any other row's).
fn twin_policy(twins: &[(String, String)]) -> XarTrekPolicy {
    let paper: Vec<_> = xar_trek::workloads::all_profiles().iter().map(|p| p.job()).collect();
    let mut specs = paper.clone();
    for (i, name) in twins.iter().flat_map(|(a, b)| [a, b]).enumerate() {
        let mut spec = paper[i % paper.len()].clone();
        spec.name = name.clone();
        spec.kernel = format!("KNL_{name}");
        specs.push(spec);
    }
    XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
}

fn query(app: &str, x86_load: u32, kernel_resident: bool) -> WireQuery<'_> {
    WireQuery { app, kernel: "k", x86_load, arm_load: 0, kernel_resident, device_ready: true }
}

#[test]
fn hash_threading_changes_no_decision_or_row() {
    let twins = tag_twins();
    assert_eq!(twins.len(), 20, "the tag-sharing pairs of the first million names");
    let policy = twin_policy(&twins);
    // Every row, plus names with no row (one of them a twin-style name).
    let mut apps: Vec<String> = policy.table.iter().map(|r| r.app.to_string()).collect();
    apps.extend(["nobody".to_string(), "app-999999".to_string(), String::new()]);
    for shards in [1, 3, 8] {
        for batch in [1, 4] {
            let what = format!("{shards} shards, batch {batch}");
            let mut rng = StdRng::seed_from_u64(shards as u64 * 10 + batch as u64);
            let engine = Arc::new(sharded_engine(&policy, EngineConfig { shards, batch }));
            let mut handle = engine.handle();
            let (mut bscratch, mut dscratch) = (BatchScratch::default(), DecideScratch::default());
            let mut reference = Reference::of(policy.clone());
            for round in 0..40 {
                // Reports, in arrival order, through both ingest doors.
                let reports: Vec<WireReport<'_>> = (0..rng.gen_range(1..24))
                    .map(|_| WireReport {
                        app: &apps[rng.gen_range(0..apps.len())],
                        target: [Target::X86, Target::Arm, Target::Fpga][rng.gen_range(0..3)],
                        func_ms: if rng.gen_bool(0.3) { 1e9 } else { rng.gen_range(0.0..400.0) },
                        x86_load: rng.gen_range(0..80),
                    })
                    .collect();
                let mut rest = &reports[..];
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(rng.gen_range(1..6).min(rest.len()));
                    rest = tail;
                    if let [r] = chunk {
                        engine.ingest(r.app, r.target, r.func_ms, r.x86_load);
                    } else {
                        engine.report_batch_wire(&mut bscratch, chunk);
                    }
                }
                for r in &reports {
                    reference.report(r.app, r.target, r.func_ms, r.x86_load as usize);
                }
                engine.flush();

                // Decides, one by one and as batches of every size.
                let queries: Vec<WireQuery<'_>> = (0..rng.gen_range(1..40))
                    .map(|_| {
                        let app = &apps[rng.gen_range(0..apps.len())];
                        query(app, rng.gen_range(0..80), rng.gen_bool(0.5))
                    })
                    .collect();
                let want: Vec<Decision> = queries
                    .iter()
                    .map(|q| reference.decide(q.app, q.x86_load as usize, q.kernel_resident))
                    .collect();
                let one_by_one: Vec<Decision> =
                    queries.iter().map(|q| handle.decide(&q.ctx())).collect();
                assert_eq!(one_by_one, want, "{what}, round {round}: decide");
                let cut = rng.gen_range(0..queries.len() + 1);
                let mut batched = handle.decide_batch(&queries[..cut], &mut dscratch).to_vec();
                batched.extend_from_slice(handle.decide_batch(&queries[cut..], &mut dscratch));
                assert_eq!(batched, want, "{what}, round {round}: decide_batch");
                for q in &queries {
                    let want = reference.early_config(q.app, q.kernel_resident);
                    assert_eq!(handle.early_config(&q.ctx()), want, "{what}: early_config");
                }
            }
            // The table, and what each shard publishes for every name.
            reference.assert_table_eq(engine.table(), &what);
            for app in &apps {
                let published = engine.snapshot_of(app).thresholds(app);
                let want = reference.rows().into_iter().find(|r| r.0 == *app).map(|r| (r.1, r.2));
                assert_eq!(published, want, "{what}: snapshot row of {app:?}");
            }
        }
    }
}

/// Calls a [`HashCheck`] policy saw, per method.
static SEEN: [AtomicU64; 4] = [const { AtomicU64::new(0) }; 4];
const DECIDE: usize = 0;
const APPLY: usize = 1;
const REPUBLISH: usize = 2;
const ROW: usize = 3;

/// A toy policy that checks every hash the engine hands it against the
/// name it came with.
#[derive(Default)]
struct HashCheck(std::collections::BTreeMap<String, u32>);

fn check(method: usize, app: &str, hash: u64) {
    assert_eq!(hash, name_hash(app), "method {method} got a stale hash for {app:?}");
    SEEN[method].fetch_add(1, Ordering::Relaxed);
}

impl PolicyCore for HashCheck {
    type Snap = ();

    fn snapshot(&self) {}

    fn republish(&self, _: &(), app: &str, hash: u64) -> bool {
        check(REPUBLISH, app, hash);
        true
    }

    fn decide(_: &(), ctx: &DecideCtx<'_>, hash: u64) -> Decision {
        check(DECIDE, ctx.app, hash);
        Decision::to(Target::X86)
    }

    fn apply(&mut self, report: &CompletionReport<'_>, hash: u64) {
        check(APPLY, report.app, hash);
        *self.0.entry(report.app.to_string()).or_default() += 1;
    }

    fn entries(&self) -> Vec<TableEntry> {
        Vec::new()
    }

    fn row(&self, app: &str, hash: u64) -> Option<RowRef<'_>> {
        check(ROW, app, hash);
        let (app, n) = self.0.get_key_value(app)?;
        Some(RowRef { app, kernel: "", fpga_thr: *n, arm_thr: 0 })
    }
}

#[test]
fn every_hash_a_policy_receives_is_its_names_hash() {
    let twins = tag_twins();
    let mut names: Vec<&str> = twins.iter().flat_map(|(a, b)| [a.as_str(), b.as_str()]).collect();
    names.extend(common::APPS);
    names.extend(["", "é", "a b"]);
    let mut rng = StdRng::seed_from_u64(7);
    for (shards, batch) in [(1, 1), (3, 4), (8, 1), (8, 4)] {
        let states = (0..shards).map(|_| HashCheck::default()).collect();
        let engine = Arc::new(ShardedEngine::from_shards(states, batch));
        // A sink makes every flush look its touched rows up.
        let rows = Arc::new(AtomicU64::new(0));
        let sunk = rows.clone();
        engine.set_flush_sink(Box::new(move |_, rows| {
            sunk.fetch_add(rows.count() as u64, Ordering::Relaxed);
        }));
        let mut handle = engine.handle();
        let (mut bscratch, mut dscratch) = (BatchScratch::default(), DecideScratch::default());
        for _ in 0..200 {
            let pick = |rng: &mut StdRng| names[rng.gen_range(0..names.len())];
            let reports: Vec<WireReport<'_>> = (0..rng.gen_range(1..6))
                .map(|_| WireReport {
                    app: pick(&mut rng),
                    target: Target::Arm,
                    func_ms: 1.0,
                    x86_load: 1,
                })
                .collect();
            engine.report_batch_wire(&mut bscratch, &reports);
            engine.ingest(pick(&mut rng), Target::Fpga, 2.0, 3);
            let queries: Vec<WireQuery<'_>> =
                (0..rng.gen_range(1..6)).map(|_| query(pick(&mut rng), 1, false)).collect();
            handle.decide_batch(&queries, &mut dscratch);
            handle.decide(&queries[0].ctx());
            handle.early_config(&queries[0].ctx());
        }
        engine.flush();
        assert!(rows.load(Ordering::Relaxed) > 0, "the sink saw rows");
    }
    for (method, seen) in SEEN.iter().enumerate() {
        assert!(seen.load(Ordering::Relaxed) > 100, "method {method} was hardly called");
    }
}
