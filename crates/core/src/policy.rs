//! The Xar-Trek run-time scheduler: Algorithm 1 + Algorithm 2.
//!
//! * **Algorithm 2** (the scheduler server's heuristic policy) decides
//!   per selected-function call among x86, ARM, and FPGA based on the
//!   x86 CPU load, the application's thresholds, and hardware-kernel
//!   residency — reconfiguring the FPGA in the background when the
//!   kernel is absent but demand exists.
//! * **Algorithm 1** (the scheduler client's dynamic threshold update)
//!   refines the statically estimated thresholds from observed
//!   execution times after every call.

use crate::thresholds::{Keys, ScenarioTimes, ThresholdTable};
use std::collections::HashMap;
use std::sync::Arc;
use xar_desim::{CompletionReport, DecideCtx, Decision, Policy, Target};
use xar_sched::snapshot::ThrCell;
use xar_sched::wire::{encoded_entry_len, Reader, Writer};

/// The paper's heuristic policy with dynamic threshold refinement.
///
/// One row per application, as in the paper's server: the threshold
/// table is a row slab with one name index, and everything else kept
/// per application — the reference times here, the threshold cells of
/// a published [`PolicySnapshot`] — is a slab parallel to it, reached
/// by the row id a single index probe yields.
#[derive(Debug, Clone)]
pub struct XarTrekPolicy {
    /// The (mutable) threshold table. Insert into it and update its
    /// rows freely; assigning a *different* table would leave `times`
    /// addressed by the old table's row ids — build a new policy with
    /// [`XarTrekPolicy::new`] instead.
    pub table: ThresholdTable,
    /// Recorded per-app scenario times (x86exec/ARMexec/FPGAexec in
    /// Algorithm 1), by the table's row id. The x86 entry is updated by
    /// observation (line 10). A row the table gained after the policy
    /// was built lies past the end: like a `None` slot it has no
    /// recorded times, and Algorithm 1 leaves it alone.
    times: Vec<Option<ScenarioTimes>>,
    /// Configure the FPGA at application launch (paper §3.1; ablation
    /// knob for the §4.2 "faster than always-FPGA" effect).
    pub early_config: bool,
    /// Run Algorithm 1 after each call (ablation knob).
    pub dynamic_update: bool,
    /// Step used by Algorithm 1's "increase threshold" branches.
    pub thr_step: u32,
}

impl XarTrekPolicy {
    /// A policy over an estimated threshold table and the isolated
    /// scenario times recorded at estimation time. Times are folded
    /// into the table's rows; times for an application without a row
    /// could never be read (Algorithm 1 needs both) and are dropped.
    pub fn new(table: ThresholdTable, ref_times: HashMap<Arc<str>, ScenarioTimes>) -> Self {
        let mut times = vec![None; table.len()];
        for (app, t) in ref_times {
            if let Some(id) = table.row_id(&app) {
                times[id] = Some(t);
            }
        }
        XarTrekPolicy { table, times, early_config: true, dynamic_update: true, thr_step: 1 }
    }

    /// Builds the policy from job specs by running the step-G estimator
    /// on each.
    pub fn from_specs(specs: &[xar_desim::JobSpec], cfg: &xar_desim::ClusterConfig) -> Self {
        let mut policy = XarTrekPolicy::new(ThresholdTable::new(), HashMap::new());
        for s in specs {
            if !s.has_selected_function() {
                continue;
            }
            let id = policy.table.insert(crate::thresholds::estimate_thresholds(s, cfg));
            policy.times.resize(policy.table.len(), None);
            policy.times[id] = Some(crate::thresholds::scenario_times(s, cfg));
        }
        policy
    }

    /// Algorithm 2, as a pure decision function.
    pub fn algorithm2(load: u32, fpga_thr: u32, arm_thr: u32, hw_kernel_present: bool) -> Decision {
        if !hw_kernel_present {
            if load <= arm_thr && load > fpga_thr {
                // Lines 9–13: stay on x86, reconfigure meanwhile.
                return Decision { target: Target::X86, reconfigure: true };
            }
            if load > arm_thr && load > fpga_thr {
                // Lines 14–18: migrate to ARM, reconfigure meanwhile.
                return Decision { target: Target::Arm, reconfigure: true };
            }
        }
        if load <= arm_thr && load <= fpga_thr {
            // Lines 19–21.
            return Decision { target: Target::X86, reconfigure: false };
        }
        if load > arm_thr && load <= fpga_thr {
            // Lines 22–24.
            return Decision { target: Target::Arm, reconfigure: false };
        }
        if load > fpga_thr && hw_kernel_present {
            // Lines 25–31: the smaller threshold implies the smaller
            // execution time for this function.
            if fpga_thr < arm_thr {
                return Decision { target: Target::Fpga, reconfigure: false };
            }
            return Decision { target: Target::Arm, reconfigure: false };
        }
        // Unreachable given the cases above; stay local.
        Decision { target: Target::X86, reconfigure: false }
    }

    /// Algorithm 2 against an app's thresholds, if it has a row: the
    /// one decision path shared by the live [`Policy`] impl and the
    /// daemon's [`xar_sched::PolicyCore`] snapshot impl, so the two
    /// cannot drift.
    fn decide_against(thresholds: Option<(u32, u32)>, ctx: &DecideCtx<'_>) -> Decision {
        match thresholds {
            Some((fpga_thr, arm_thr)) => {
                Self::algorithm2(ctx.x86_load as u32, fpga_thr, arm_thr, ctx.kernel_resident)
            }
            None => Decision::to(Target::X86),
        }
    }

    /// Whether a launch should trigger an early FPGA configuration
    /// (paper §3.1) given the policy's flag — shared by both impls
    /// like [`Self::decide_against`].
    fn early_config_against(early_config: bool, ctx: &DecideCtx<'_>) -> bool {
        early_config && !ctx.kernel.is_empty() && !ctx.kernel_resident
    }

    /// Splits the policy into `n` per-app-group shard policies for
    /// [`xar_sched::ShardedEngine`]: each shard receives exactly the
    /// table rows and reference times of the apps that
    /// [`xar_sched::shard_of`] routes to it, plus this policy's flags.
    pub fn split_shards(&self, n: usize) -> Vec<XarTrekPolicy> {
        let count = n.max(1);
        let mut shards: Vec<XarTrekPolicy> = self
            .table
            .split(count)
            .into_iter()
            .map(|table| XarTrekPolicy {
                times: Vec::with_capacity(table.len()),
                table,
                early_config: self.early_config,
                dynamic_update: self.dynamic_update,
                thr_step: self.thr_step,
            })
            .collect();
        // A shard's table took its rows in id order; its times follow.
        let keys = self.table.keys();
        for id in 0..self.table.len() {
            let shard = &mut shards[xar_sched::shard_of_hash(keys.hash(id), count)];
            shard.times.push(self.times.get(id).copied().flatten());
        }
        shards
    }

    /// Algorithm 1: the scheduler client's threshold update after a
    /// call returns.
    pub fn algorithm1(&mut self, report: &CompletionReport<'_>) {
        self.algorithm1_at(self.table.row_id(report.app), report);
    }

    /// [`XarTrekPolicy::algorithm1`] on the row `id` the caller found
    /// for `report.app` (`None`: the app has no row, and nothing moves).
    fn algorithm1_at(&mut self, id: Option<usize>, report: &CompletionReport<'_>) {
        let Some(id) = id else {
            return;
        };
        let Some(times) = self.times.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let (fpga_thr, arm_thr) = self.table.row_mut(id);
        let load = report.x86_load as u32;
        match report.target {
            Target::X86 => {
                if report.func_ms > times.fpga_ms && load < *fpga_thr {
                    // Lines 4–5.
                    *fpga_thr = load;
                } else if report.func_ms > times.arm_ms && load < *arm_thr {
                    // Lines 7–8.
                    *arm_thr = load;
                } else {
                    // Line 10: record the fresh x86 execution time.
                    times.x86_ms = report.func_ms;
                }
            }
            Target::Arm => {
                // Lines 14–17.
                if report.func_ms > times.x86_ms {
                    *arm_thr += self.thr_step;
                }
            }
            Target::Fpga => {
                // Lines 19–23.
                if report.func_ms > times.x86_ms {
                    *fpga_thr += self.thr_step;
                }
            }
        }
    }
}

/// The decision state `xar-sched` publishes per shard: the table's own
/// name index (the same `Arc<Keys>`, not a copy) plus one [`ThrCell`]
/// per row id holding that row's current thresholds, and the policy
/// flag Algorithm 2 needs.
///
/// The key set is frozen: the index is copy-on-write, so a table that
/// gains a row leaves this snapshot's index untouched and parts ways
/// with it ([`xar_sched::PolicyCore::republish`] then answers `false`
/// and the engine publishes a rebuilt snapshot). The *values* are live
/// — Algorithm 1 updates land in place through `republish`, so a
/// reader holding this snapshot always decides on the current
/// thresholds without ever swapping snapshots.
#[derive(Debug)]
pub struct PolicySnapshot {
    keys: Arc<Keys>,
    /// By row id; every id in `keys` is in range.
    cells: Box<[ThrCell]>,
    early_config: bool,
}

impl PolicySnapshot {
    /// The thresholds `(fpga_thr, arm_thr)` currently published for
    /// `app`, if the index holds it. Hashes `app`: the decide path,
    /// which already holds the hash, probes with it instead.
    pub fn thresholds(&self, app: &str) -> Option<(u32, u32)> {
        self.thresholds_at(app, xar_sched::name_hash(app))
    }

    fn thresholds_at(&self, app: &str, hash: u64) -> Option<(u32, u32)> {
        self.keys.find_hashed(app, hash).map(|id| self.cells[id].load())
    }
}

impl xar_sched::PolicyCore for XarTrekPolicy {
    type Snap = PolicySnapshot;

    fn snapshot(&self) -> PolicySnapshot {
        // An `Arc` clone and one cell per row, no hashing. Runs at boot
        // and on state restore, never per report (Algorithm 1 moves
        // thresholds, not the key set).
        let cells = (0..self.table.len())
            .map(|id| self.table.thresholds(id))
            .map(|(fpga_thr, arm_thr)| ThrCell::new(fpga_thr, arm_thr))
            .collect();
        PolicySnapshot { keys: self.table.keys().clone(), cells, early_config: self.early_config }
    }

    fn republish(&self, snap: &PolicySnapshot, app: &str, hash: u64) -> bool {
        // Sharing the index means sharing the key set and the row ids;
        // a table whose index has moved on (it gained a row, or a state
        // restore replaced it) needs a rebuilt snapshot.
        if !Arc::ptr_eq(&snap.keys, self.table.keys()) {
            return false;
        }
        // A report for an app without a row changed nothing.
        if let Some(id) = snap.keys.find_hashed(app, hash) {
            let (fpga_thr, arm_thr) = self.table.thresholds(id);
            snap.cells[id].store(fpga_thr, arm_thr);
        }
        true
    }

    fn decide(snap: &PolicySnapshot, ctx: &DecideCtx<'_>, hash: u64) -> Decision {
        Self::decide_against(snap.thresholds_at(ctx.app, hash), ctx)
    }

    fn early_config(snap: &PolicySnapshot, ctx: &DecideCtx<'_>) -> bool {
        Self::early_config_against(snap.early_config, ctx)
    }

    fn apply(&mut self, report: &CompletionReport<'_>, hash: u64) {
        // `Policy::on_complete`, probing with the engine's hash.
        if self.dynamic_update {
            self.algorithm1_at(self.table.keys().find_hashed(report.app, hash), report);
        }
    }

    fn entries(&self) -> Vec<xar_sched::TableEntry> {
        self.table.iter().map(xar_sched::TableEntry::from).collect()
    }

    fn row(&self, app: &str, hash: u64) -> Option<xar_sched::RowRef<'_>> {
        self.table.keys().find_hashed(app, hash).map(|id| self.table.row(id))
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        // Everything Algorithm 1 reads or writes: the threshold rows
        // AND the per-app reference times (x86_ms moves on line 10 —
        // restoring rows alone would bend future updates), plus the
        // policy flags. Rows and times are emitted sorted by app so
        // equal states serialize to equal bytes (bit-identity checks
        // compare these blobs across daemon generations).
        let ids = self.table.sorted_ids();
        let mut out = Vec::with_capacity(64 + ids.len() * 80);
        let mut w = Writer::new(&mut out);
        w.u8(STATE_VERSION);
        w.u8(self.early_config as u8);
        w.u8(self.dynamic_update as u8);
        w.u32(self.thr_step);
        w.u32(ids.len() as u32);
        for &id in &ids {
            w.entry(&self.table.row(id));
        }
        let times: Vec<(usize, &ScenarioTimes)> =
            ids.iter().filter_map(|&id| Some((id, self.times.get(id)?.as_ref()?))).collect();
        w.u32(times.len() as u32);
        for (id, t) in times {
            w.str(self.table.row(id).app);
            w.f64(t.x86_ms);
            w.f64(t.fpga_ms);
            w.f64(t.arm_ms);
        }
        Some(out)
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut c = Reader::new(bytes);
        let version = c.u8()?;
        if version != STATE_VERSION {
            return Err(format!("unknown policy state version {version}"));
        }
        let early_config = c.u8()? != 0;
        let dynamic_update = c.u8()? != 0;
        let thr_step = c.u32()?;
        let n_rows = c.count(encoded_entry_len(0, 0))?;
        // One rebuild straight from the borrowed blob, built aside: a
        // blob that fails to parse leaves the policy as it was. A first
        // pass sums the row section's name bytes, so every buffer is
        // allocated once, at its final size.
        let (mut scan, mut name_bytes, mut kernel_bytes) = (c, 0, 0);
        for _ in 0..n_rows {
            let row = scan.entry()?;
            name_bytes += row.app.len();
            kernel_bytes += row.kernel.len();
        }
        let mut table = ThresholdTable::with_capacity(n_rows, name_bytes, kernel_bytes);
        for _ in 0..n_rows {
            let row = c.entry()?;
            table.insert_str(row.app, row.kernel, row.fpga_thr, row.arm_thr);
        }
        let n_times = c.count(TIMES_LEN)?;
        let mut times = vec![None; table.len()];
        for _ in 0..n_times {
            let app = c.str()?;
            let (x86_ms, fpga_ms, arm_ms) = (c.f64()?, c.f64()?, c.f64()?);
            if let Some(id) = table.row_id(app) {
                times[id] = Some(ScenarioTimes { x86_ms, fpga_ms, arm_ms });
            }
        }
        *self = XarTrekPolicy { table, times, early_config, dynamic_update, thr_step };
        Ok(())
    }
}

/// Version byte of [`XarTrekPolicy`]'s durability-state blob.
const STATE_VERSION: u8 = 1;

/// Least bytes of one reference-times row: an empty name, three `f64`s.
const TIMES_LEN: usize = 2 + 3 * 8;

impl Policy for XarTrekPolicy {
    fn on_launch(&mut self, ctx: &DecideCtx<'_>) -> bool {
        Self::early_config_against(self.early_config, ctx)
    }

    fn decide(&mut self, ctx: &DecideCtx<'_>) -> Decision {
        Self::decide_against(self.table.get(ctx.app).map(|e| (e.fpga_thr, e.arm_thr)), ctx)
    }

    fn on_complete(&mut self, report: &CompletionReport<'_>) {
        if self.dynamic_update {
            self.algorithm1(report);
        }
    }

    fn name(&self) -> &str {
        "xar-trek"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::ThresholdEntry;
    use xar_desim::ClusterConfig;
    use xar_workloads::all_profiles;

    fn policy() -> XarTrekPolicy {
        let specs: Vec<_> = all_profiles().iter().map(|p| p.job()).collect();
        XarTrekPolicy::from_specs(&specs, &ClusterConfig::default())
    }

    /// The reference times recorded in `app`'s row slot, if any.
    fn times_of(p: &XarTrekPolicy, app: &str) -> Option<ScenarioTimes> {
        p.times.get(p.table.row_id(app)?).copied().flatten()
    }

    #[test]
    fn algorithm2_decision_table() {
        // Thresholds: fpga 10, arm 20 (FPGA preferred at high load).
        let d = XarTrekPolicy::algorithm2;
        // Low load, kernel present: stay.
        assert_eq!(d(5, 10, 20, true).target, Target::X86);
        // Low load, kernel absent, below both: stay, no reconfig.
        assert_eq!(d(5, 10, 20, false), Decision { target: Target::X86, reconfigure: false });
        // Above FPGA thr, below ARM thr, no kernel: x86 + reconfigure.
        assert_eq!(d(15, 10, 20, false), Decision { target: Target::X86, reconfigure: true });
        // Above both, no kernel: ARM + reconfigure.
        assert_eq!(d(25, 10, 20, false), Decision { target: Target::Arm, reconfigure: true });
        // Above FPGA thr, kernel present, FPGA cheaper: FPGA.
        assert_eq!(d(15, 10, 20, true).target, Target::Fpga);
        // ARM cheaper than FPGA (arm_thr < fpga_thr): ARM wins at high
        // load with the kernel present (CG-A's situation).
        assert_eq!(d(40, 30, 24, true).target, Target::Arm);
        // Between thresholds with arm_thr < fpga_thr: load > arm only →
        // ARM without reconfiguration.
        assert_eq!(d(27, 30, 24, true), Decision { target: Target::Arm, reconfigure: false });
        assert_eq!(d(27, 30, 24, false), Decision { target: Target::Arm, reconfigure: false });
    }

    #[test]
    fn zero_threshold_apps_go_to_fpga_immediately() {
        let mut p = policy();
        let ctx = DecideCtx {
            app: "Digit2000",
            kernel: "KNL_HW_DR200",
            x86_load: 1,
            arm_load: 0,
            kernel_resident: true,
            device_ready: true,
            now_ns: 0.0,
        };
        assert_eq!(p.decide(&ctx).target, Target::Fpga);
    }

    #[test]
    fn cg_never_picks_fpga() {
        let mut p = policy();
        for load in [1, 10, 30, 60, 120] {
            let ctx = DecideCtx {
                app: "CG-A",
                kernel: "KNL_HW_CG_A",
                x86_load: load,
                arm_load: 0,
                kernel_resident: true,
                device_ready: true,
                now_ns: 0.0,
            };
            assert_ne!(p.decide(&ctx).target, Target::Fpga, "load {load}");
        }
    }

    #[test]
    fn algorithm1_lowers_fpga_threshold_on_slow_x86_run() {
        let mut p = policy();
        let before = p.table.get("FaceDet320").unwrap().fpga_thr;
        assert!(before > 0);
        // An x86 run slower than the recorded FPGA time at a load below
        // the threshold pulls the threshold down (lines 4–5).
        p.algorithm1(&CompletionReport {
            app: "FaceDet320",
            target: Target::X86,
            func_ms: 10_000.0,
            x86_load: (before - 1) as usize,
        });
        assert_eq!(p.table.get("FaceDet320").unwrap().fpga_thr, before - 1);
    }

    #[test]
    fn algorithm1_raises_threshold_on_slow_offload() {
        let mut p = policy();
        let before = p.table.get("Digit2000").unwrap().fpga_thr;
        // An FPGA run slower than the recorded x86 time raises the
        // threshold (lines 19–23).
        p.algorithm1(&CompletionReport {
            app: "Digit2000",
            target: Target::Fpga,
            func_ms: 100_000.0,
            x86_load: 50,
        });
        assert_eq!(p.table.get("Digit2000").unwrap().fpga_thr, before + 1);
        // And a slow ARM run raises the ARM threshold (lines 14–17).
        let arm_before = p.table.get("CG-A").unwrap().arm_thr;
        p.algorithm1(&CompletionReport {
            app: "CG-A",
            target: Target::Arm,
            func_ms: 100_000.0,
            x86_load: 50,
        });
        assert_eq!(p.table.get("CG-A").unwrap().arm_thr, arm_before + 1);
    }

    #[test]
    fn algorithm1_records_fresh_x86_time_otherwise() {
        let mut p = policy();
        p.algorithm1(&CompletionReport {
            app: "FaceDet320",
            target: Target::X86,
            func_ms: 1.0, // fast: no threshold movement
            x86_load: 2,
        });
        assert!((times_of(&p, "FaceDet320").unwrap().x86_ms - 1.0).abs() < 1e-9);
    }

    #[test]
    fn split_shards_partitions_table_and_ref_times() {
        let p = policy();
        let shards = p.split_shards(4);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(|s| s.table.len()).sum();
        assert_eq!(total, p.table.len(), "every row in exactly one shard");
        for (i, shard) in shards.iter().enumerate() {
            for r in shard.table.iter() {
                assert_eq!(xar_sched::shard_of(r.app, 4), i, "{} routed to {i}", r.app);
                assert!(times_of(shard, r.app).is_some());
            }
            assert_eq!(shard.early_config, p.early_config);
            assert_eq!(shard.thr_step, p.thr_step);
        }
    }

    #[test]
    fn the_snapshot_shares_the_tables_keys() {
        use xar_sched::PolicyCore;
        let shared = |p: &XarTrekPolicy| {
            let snap = p.snapshot();
            assert!(Arc::ptr_eq(&snap.keys, p.table.keys()), "the snapshot copied the index");
            for (id, row) in p.table.rows().enumerate() {
                // The borrowed view's name is the index's bytes, not a copy.
                assert_eq!(row.app.as_ptr(), p.table.keys().name(id).as_ptr(), "{}", row.app);
                // The times slot has no key of its own: it is the row's id.
                assert_eq!(p.table.row_id(row.app), Some(id));
                assert_eq!(snap.keys.find(row.app), Some(id));
                assert!(p.times[id].is_some(), "{}: no times in its row's slot", row.app);
            }
        };
        let p = policy();
        shared(&p);
        for shard in p.split_shards(2) {
            shared(&shard);
            // A split shard's rows are the seed's, under the seed's
            // cached hashes.
            let keys = shard.table.keys();
            for (id, row) in shard.table.rows().enumerate() {
                let seed = p.table.row_id(row.app).unwrap();
                assert_eq!(keys.hash(id), p.table.keys().hash(seed), "{}", row.app);
                assert_eq!(row, p.table.row(seed));
            }
            let mut restored = XarTrekPolicy::new(ThresholdTable::new(), HashMap::new());
            restored.load_state(&shard.save_state().unwrap()).unwrap();
            shared(&restored);
        }
    }

    #[test]
    fn a_row_gained_after_a_publish_forces_a_rebuild_that_sees_it() {
        use xar_sched::{name_hash, PolicyCore};
        let mut p = policy();
        let published = p.snapshot();
        assert!(
            p.republish(&published, "CG-A", name_hash("CG-A")),
            "same key set: in-place publish"
        );
        p.table.insert(ThresholdEntry {
            app: "latecomer".into(),
            kernel: "KNL_LATE".into(),
            fpga_thr: 3,
            arm_thr: 9,
        });
        // The index is copy-on-write: the insert built a new one aside,
        // the published snapshot still holds the old one, whole.
        assert!(!Arc::ptr_eq(&published.keys, p.table.keys()));
        assert_eq!(published.keys.len(), p.table.len() - 1);
        assert_eq!(published.thresholds("latecomer"), None);
        let cg = p.table.get("CG-A").map(|e| (e.fpga_thr, e.arm_thr));
        assert_eq!(published.thresholds("CG-A"), cg, "old rows still answer");
        // Every republish now asks for a rebuild, for old and new rows
        // alike, and the rebuilt snapshot sees the row.
        assert!(!p.republish(&published, "latecomer", name_hash("latecomer")));
        assert!(!p.republish(&published, "CG-A", name_hash("CG-A")));
        let rebuilt = p.snapshot();
        assert_eq!(rebuilt.thresholds("latecomer"), Some((3, 9)));
        assert!(p.republish(&rebuilt, "latecomer", name_hash("latecomer")));
        // Replacing a row moves no key: the snapshot stays current.
        p.table.insert(ThresholdEntry {
            app: "latecomer".into(),
            kernel: "KNL_LATE".into(),
            fpga_thr: 4,
            arm_thr: 9,
        });
        assert!(p.republish(&rebuilt, "latecomer", name_hash("latecomer")));
        assert_eq!(rebuilt.thresholds("latecomer"), Some((4, 9)));
    }

    #[test]
    fn sharded_engine_matches_sequential_policy() {
        use xar_desim::Target;
        // Drive the same decide/report trace through (a) the plain
        // policy under a mutex-style sequential loop and (b) the
        // sharded engine with batch=1; tables must converge
        // identically and every decision must match.
        let mut seq = policy();
        let engine = Arc::new(xar_sched::ShardedEngine::from_shards(policy().split_shards(4), 1));
        let mut handle = engine.handle();
        let apps = ["Digit2000", "CG-A", "FaceDet320", "Digit500", "FaceDet640"];
        for round in 0..50usize {
            let app = apps[round % apps.len()];
            let load = (round * 7) % 130;
            let ctx = DecideCtx {
                app,
                kernel: "k",
                x86_load: load,
                arm_load: 0,
                kernel_resident: round % 3 != 0,
                device_ready: true,
                now_ns: 0.0,
            };
            assert_eq!(handle.decide(&ctx), seq.decide(&ctx), "round {round}");
            let report = CompletionReport {
                app,
                target: if round % 2 == 0 { Target::Fpga } else { Target::X86 },
                func_ms: (round as f64) * 100.0,
                x86_load: load,
            };
            seq.on_complete(&report);
            engine.ingest(report.app, report.target, report.func_ms, report.x86_load as u32);
        }
        let seq_rows: Vec<_> =
            seq.table.iter().map(|r| (r.app.to_string(), r.fpga_thr, r.arm_thr)).collect();
        let eng_rows: Vec<_> =
            engine.table().into_iter().map(|e| (e.app, e.fpga_thr, e.arm_thr)).collect();
        assert_eq!(seq_rows, eng_rows);
    }

    #[test]
    fn state_blob_round_trips_bit_identically() {
        use xar_sched::{name_hash, PolicyCore};
        let mut p = policy();
        p.thr_step = 3;
        p.early_config = false;
        // Bend the state away from the estimator's defaults so the
        // round trip proves restoration, not re-derivation.
        p.algorithm1(&CompletionReport {
            app: "Digit2000",
            target: Target::Fpga,
            func_ms: 100_000.0,
            x86_load: 50,
        });
        p.algorithm1(&CompletionReport {
            app: "FaceDet320",
            target: Target::X86,
            func_ms: 0.25,
            x86_load: 2,
        });
        let blob = p.save_state().expect("xar-trek supports state snapshots");
        let mut q = policy();
        q.load_state(&blob).unwrap();
        assert_eq!(q.early_config, p.early_config);
        assert_eq!(q.dynamic_update, p.dynamic_update);
        assert_eq!(q.thr_step, p.thr_step);
        let rows = |x: &XarTrekPolicy| {
            let mut v: Vec<_> = x
                .table
                .iter()
                .map(|r| (r.app.to_string(), r.kernel.to_string(), r.fpga_thr, r.arm_thr))
                .collect();
            v.sort();
            v
        };
        assert_eq!(rows(&q), rows(&p));
        assert_eq!(
            times_of(&q, "FaceDet320").unwrap().x86_ms.to_bits(),
            times_of(&p, "FaceDet320").unwrap().x86_ms.to_bits(),
            "observed x86 time survives bit-exactly"
        );
        // Deterministic serialization: equal states, equal bytes.
        assert_eq!(q.save_state().unwrap(), blob);
        // Corruption and version skew are refused, not mangled: every
        // strict prefix of the blob is an error and leaves the policy
        // as it was.
        for cut in 0..blob.len() {
            assert!(q.load_state(&blob[..cut]).is_err(), "a {cut}-byte prefix loaded");
        }
        assert_eq!(q.save_state().unwrap(), blob);
        let mut bad = blob.clone();
        bad[0] = 99;
        assert!(q.load_state(&bad).is_err());
        // The borrowed row() lookup agrees with the entries() scan.
        let row = p.row("Digit2000", name_hash("Digit2000")).unwrap();
        let scan = p.entries().into_iter().find(|e| e.app == "Digit2000").unwrap();
        assert_eq!(
            (row.app, row.kernel, row.fpga_thr, row.arm_thr),
            (scan.app.as_str(), scan.kernel.as_str(), scan.fpga_thr, scan.arm_thr)
        );
    }

    #[test]
    fn load_state_ends_as_exactly_the_blobs_state_whatever_rows_it_had() {
        use xar_sched::PolicyCore;
        let mut p = policy();
        p.thr_step = 2;
        for (app, target) in [("Digit2000", Target::Fpga), ("CG-A", Target::Arm)] {
            p.algorithm1(&CompletionReport { app, target, func_ms: 1e9, x86_load: 50 });
        }
        let r = p.table.get("Digit500").unwrap();
        let renamed = ThresholdEntry {
            app: r.app.into(),
            kernel: "KNL_RENAMED".into(),
            fpga_thr: r.fpga_thr,
            arm_thr: r.arm_thr,
        };
        p.table.insert(renamed);
        let blob = p.save_state().unwrap();

        // The same rows, a row the blob does not hold, and a row only
        // the blob holds: all end as exactly the blob's state.
        let mut extra = policy();
        extra.table.insert(ThresholdEntry {
            app: "stale".into(),
            kernel: "K".into(),
            fpga_thr: 1,
            arm_thr: 1,
        });
        let specs: Vec<_> = all_profiles().iter().skip(1).map(|p| p.job()).collect();
        let missing = XarTrekPolicy::from_specs(&specs, &ClusterConfig::default());
        assert_eq!(missing.table.len(), p.table.len() - 1);
        for mut other in [policy(), extra, missing] {
            other.load_state(&blob).unwrap();
            assert!(other.table.get("stale").is_none());
            assert_eq!(other.table, p.table);
            assert_eq!(other.save_state().unwrap(), blob);
            // A blob that does not parse changes nothing.
            assert!(other.load_state(&blob[..blob.len() - 3]).is_err());
            assert_eq!(other.save_state().unwrap(), blob);
        }
    }

    #[test]
    fn unknown_apps_default_to_x86() {
        let mut p = policy();
        let ctx = DecideCtx {
            app: "mystery",
            kernel: "",
            x86_load: 100,
            arm_load: 0,
            kernel_resident: false,
            device_ready: true,
            now_ns: 0.0,
        };
        assert_eq!(p.decide(&ctx).target, Target::X86);
    }
}
