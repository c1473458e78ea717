//! Step G — threshold estimation, and the threshold-table format.
//!
//! "The estimation tool executes each application on the x86 CPU while
//! increasing the CPU load, until the application's execution time
//! exceeds the previously recorded execution times for the two
//! migration scenarios [...] The tool records these CPU loads as
//! 'threshold values' to trigger execution migration to ARM and FPGA,
//! respectively." (§3.1)
//!
//! The tool outputs a table with, per application: 1) the application
//! name, 2) the hardware kernel, 3) the FPGA threshold, 4) the ARM
//! threshold — exactly the columns of the paper's Table 2.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use xar_desim::{ClusterConfig, JobSpec};
use xar_sched::{NameHashBuilder, RowRef};

/// One row of the threshold table (Table 2), as built by the estimator,
/// a table file or a caller — what [`ThresholdTable::insert`] takes.
/// The table hands rows back as borrowed [`RowRef`] views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdEntry {
    /// Application name.
    pub app: String,
    /// Hardware kernel name.
    pub kernel: String,
    /// x86 CPU load (process count) above which FPGA migration wins.
    pub fpga_thr: u32,
    /// x86 CPU load above which ARM migration wins.
    pub arm_thr: u32,
}

/// Application name → row id: the one name-keyed map of a table, shared
/// (behind an `Arc`) with every decision snapshot published from it.
pub(crate) type NameIndex = HashMap<Arc<str>, u32, NameHashBuilder>;

/// A slab slot. `app` is the index key's allocation, so a row holds each
/// name once, and cloning a row — how a shard split copies one — bumps
/// two refcounts and allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub(crate) app: Arc<str>,
    pub(crate) kernel: Arc<str>,
    pub(crate) fpga_thr: u32,
    pub(crate) arm_thr: u32,
}

impl Row {
    fn view(&self) -> RowRef<'_> {
        RowRef {
            app: &self.app,
            kernel: &self.kernel,
            fpga_thr: self.fpga_thr,
            arm_thr: self.arm_thr,
        }
    }
}

/// The threshold table shared by the scheduler server and clients: a
/// slab of rows in insertion order plus one name → row-id index,
/// mutated in place under its owner's lock.
///
/// A row id is stable for the table's life (rows are never removed), so
/// anything kept *per row* — the policy's reference times, a published
/// snapshot's threshold cells — is a parallel slab addressed by the id
/// one index probe yields, not a second map keyed by name. Application
/// order (`iter`, `to_text`) is produced by sorting row ids when it is
/// asked for; inserting maintains no order.
///
/// The index is copy-on-write: a decision snapshot
/// ([`crate::policy::PolicySnapshot`]) holds the same `Arc`, and a
/// table that gains a row while one is published builds its new index
/// aside, so a reader never sees a half-built map. Keys are `Arc<str>`
/// so the index and the engine's queued reports all share each app
/// name's one allocation ([`ThresholdTable::key`]).
#[derive(Debug, Clone, Default)]
pub struct ThresholdTable {
    rows: Vec<Row>,
    index: Arc<NameIndex>,
}

/// Equal tables hold rows with equal contents; the order they were
/// inserted in, and which allocations hold their names, are not part of
/// a table's value.
impl PartialEq for ThresholdTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows.iter().all(|r| other.get(&r.app) == Some(r.view()))
    }
}

impl Eq for ThresholdTable {}

impl ThresholdTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `rows` rows.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        ThresholdTable {
            rows: Vec::with_capacity(rows),
            index: Arc::new(NameIndex::with_capacity_and_hasher(rows, NameHashBuilder)),
        }
    }

    /// Inserts or replaces an entry and hands back the row's shared
    /// name. Replacing keeps the row's id and its key allocation.
    pub fn insert(&mut self, e: ThresholdEntry) -> Arc<str> {
        self.insert_str(&e.app, &e.kernel, e.fpga_thr, e.arm_thr)
    }

    /// [`ThresholdTable::insert`] from borrowed names: each name a row
    /// takes is allocated once, straight into its `Arc<str>`.
    pub(crate) fn insert_str(
        &mut self,
        app: &str,
        kernel: &str,
        fpga_thr: u32,
        arm_thr: u32,
    ) -> Arc<str> {
        match self.row_id(app) {
            Some(id) => {
                let row = &mut self.rows[id];
                (row.kernel, row.fpga_thr, row.arm_thr) = (Arc::from(kernel), fpga_thr, arm_thr);
                row.app.clone()
            }
            None => {
                let app: Arc<str> = Arc::from(app);
                self.push(Row { app: app.clone(), kernel: Arc::from(kernel), fpga_thr, arm_thr });
                app
            }
        }
    }

    /// Appends a row known to be new, keeping its names' allocations —
    /// how [`crate::policy::XarTrekPolicy::split_shards`] lets a shard
    /// share the source table's names.
    pub(crate) fn push(&mut self, row: Row) {
        debug_assert!(!self.index.contains_key(&*row.app));
        let id = u32::try_from(self.rows.len()).expect("fewer than 2^32 rows");
        Arc::make_mut(&mut self.index).insert(row.app.clone(), id);
        self.rows.push(row);
    }

    /// The name index, for a snapshot to share.
    pub(crate) fn index(&self) -> &Arc<NameIndex> {
        &self.index
    }

    /// An application's row id: its position in insertion order.
    pub(crate) fn row_id(&self, app: &str) -> Option<usize> {
        self.index.get(app).map(|&id| id as usize)
    }

    /// The row with id `id` (see [`ThresholdTable::row_id`]); panics if
    /// this table has no such row.
    pub(crate) fn row(&self, id: usize) -> RowRef<'_> {
        self.rows[id].view()
    }

    /// Row `id`'s `(fpga_thr, arm_thr)`, in place (Algorithm 1 updates
    /// thresholds, never names).
    pub(crate) fn row_mut(&mut self, id: usize) -> (&mut u32, &mut u32) {
        let row = &mut self.rows[id];
        (&mut row.fpga_thr, &mut row.arm_thr)
    }

    /// Looks up an application's row. Its `app` borrows the index key.
    pub fn get(&self, app: &str) -> Option<RowRef<'_>> {
        self.row_id(app).map(|id| self.row(id))
    }

    /// The shared allocation of a row's application name.
    pub fn key(&self, app: &str) -> Option<&Arc<str>> {
        self.index.get_key_value(app).map(|(key, _)| key)
    }

    /// The rows in row-id (insertion) order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &Row> {
        self.rows.iter()
    }

    /// Row ids in application order: one sort per call (linear when the
    /// rows were inserted in order, as table files and estimators do).
    pub(crate) fn sorted_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.rows.len()).collect();
        ids.sort_unstable_by(|&a, &b| self.rows[a].app.cmp(&self.rows[b].app));
        ids
    }

    /// Iterates rows in application order.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        self.sorted_ids().into_iter().map(move |id| self.row(id))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes to the on-disk text format:
    ///
    /// ```text
    /// # app kernel fpga_thr arm_thr
    /// CG-A KNL_HW_CG_A 30 24
    /// ```
    pub fn to_text(&self) -> String {
        let mut s = String::from("# app kernel fpga_thr arm_thr\n");
        for e in self.iter() {
            s.push_str(&format!("{} {} {} {}\n", e.app, e.kernel, e.fpga_thr, e.arm_thr));
        }
        s
    }

    /// Parses the text format produced by [`ThresholdTable::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed line.
    pub fn from_text(text: &str) -> Result<ThresholdTable, ParseError> {
        let mut table = ThresholdTable::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let bad = || ParseError { line: lineno + 1 };
            let app = parts.next().ok_or_else(bad)?;
            let kernel = parts.next().ok_or_else(bad)?;
            let fpga_thr = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let arm_thr = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            if parts.next().is_some() {
                return Err(bad());
            }
            table.insert_str(app, kernel, fpga_thr, arm_thr);
        }
        Ok(table)
    }
}

/// A malformed threshold-table line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed threshold table at line {}", self.line)
    }
}

impl std::error::Error for ParseError {}

/// The two migration-scenario measurements the estimator compares
/// against (paper: "the total execution time of each application, in
/// isolation, is measured in two migration scenarios").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioTimes {
    /// Vanilla x86 time, ms.
    pub x86_ms: f64,
    /// x86-to-FPGA time, ms (kernel already resident — XCLBINs are
    /// downloaded at step F, before estimation).
    pub fpga_ms: f64,
    /// x86-to-ARM time, ms.
    pub arm_ms: f64,
}

/// Computes the isolated scenario times for a job under a cluster
/// configuration, using the same cost composition as the simulator.
pub fn scenario_times(spec: &JobSpec, cfg: &ClusterConfig) -> ScenarioTimes {
    let pcie = xar_hls::PcieLink::gen3x16();
    let rtt = cfg.sched_rtt_ms;
    let x86_ms = spec.pre_ms + spec.post_ms + spec.func_x86_ms + rtt;
    let fpga_ms = spec.pre_ms
        + spec.post_ms
        + rtt
        + (pcie.transfer_ns(spec.in_bytes) + pcie.transfer_ns(spec.out_bytes)) / 1e6
        + spec.fpga_setup_ms
        + spec.fpga_kernel_ms;
    let arm_ms = spec.pre_ms
        + spec.post_ms
        + rtt
        + cfg.state_xform_ms
        + (cfg.eth_ns(spec.state_bytes.max(4096)) + cfg.eth_ns(spec.out_bytes.max(4096))) / 1e6
        + spec.func_arm_ms;
    ScenarioTimes { x86_ms, fpga_ms, arm_ms }
}

/// Estimates an application's thresholds: increases the x86 CPU load
/// until the x86 execution time exceeds each migration scenario's time.
/// Under processor sharing, time at load `L` (processes, including the
/// application itself) is `x86_ms * max(1, L / cores)`.
pub fn estimate_thresholds(spec: &JobSpec, cfg: &ClusterConfig) -> ThresholdEntry {
    let t = scenario_times(spec, cfg);
    let cores = cfg.x86_cores as f64;
    let time_at = |l: u32| t.x86_ms * (l as f64 / cores).max(1.0);
    let find = |target: f64| -> u32 {
        if time_at(1) > target {
            return 0;
        }
        let mut l = 1u32;
        while time_at(l) <= target && l < 100_000 {
            l += 1;
        }
        l.saturating_sub(1)
    };
    ThresholdEntry {
        app: spec.name.clone(),
        kernel: spec.kernel.clone(),
        fpga_thr: find(t.fpga_ms),
        arm_thr: find(t.arm_ms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_workloads::all_profiles;

    #[test]
    fn table2_shape_reproduced() {
        // Paper Table 2: (app, fpga_thr, arm_thr).
        let paper = [
            ("CG-A", 31u32, 25u32),
            ("FaceDet320", 16, 31),
            ("FaceDet640", 0, 23),
            ("Digit500", 0, 18),
            ("Digit2000", 0, 17),
        ];
        let cfg = ClusterConfig::default();
        for (p, (name, fpga, arm)) in all_profiles().iter().zip(paper) {
            let e = estimate_thresholds(&p.job(), &cfg);
            assert_eq!(e.app, name);
            // Zero-threshold rows must be exactly zero (FPGA faster at
            // any load).
            if fpga == 0 {
                assert_eq!(e.fpga_thr, 0, "{name}");
            } else {
                // Non-zero thresholds within a reasonable band of the
                // paper's measured values (shape, not absolutes).
                assert!(
                    e.fpga_thr >= fpga / 2 && e.fpga_thr <= fpga * 2,
                    "{name}: fpga_thr {} vs paper {fpga}",
                    e.fpga_thr
                );
            }
            assert!(
                e.arm_thr >= arm / 2 && e.arm_thr <= arm * 2,
                "{name}: arm_thr {} vs paper {arm}",
                e.arm_thr
            );
        }
        // Relative ordering: CG-A is the only app whose ARM threshold is
        // below its FPGA threshold (ARM beats FPGA only for CG).
        let cg = estimate_thresholds(&all_profiles()[0].job(), &cfg);
        assert!(cg.arm_thr < cg.fpga_thr);
        let fd = estimate_thresholds(&all_profiles()[1].job(), &cfg);
        assert!(fd.arm_thr > fd.fpga_thr);
    }

    #[test]
    fn text_format_roundtrip() {
        let cfg = ClusterConfig::default();
        let mut table = ThresholdTable::new();
        for p in all_profiles() {
            table.insert(estimate_thresholds(&p.job(), &cfg));
        }
        let text = table.to_text();
        let back = ThresholdTable::from_text(&text).unwrap();
        assert_eq!(back, table);
        assert_eq!(back.len(), 5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ThresholdTable::from_text("a b c\n").is_err());
        assert!(ThresholdTable::from_text("a b 1 notanum\n").is_err());
        assert!(ThresholdTable::from_text("a b 1 2 extra\n").is_err());
        // Comments and blanks are fine.
        let t = ThresholdTable::from_text("# hi\n\nx k 1 2\n").unwrap();
        assert_eq!(t.get("x").unwrap().fpga_thr, 1);
    }

    #[test]
    fn bfs_never_profitable_on_fpga() {
        // §4.4: "Xar-Trek's threshold estimation algorithm will likely
        // not find a reasonable CPU load that would justify migrating
        // to the FPGA."
        let cfg = ClusterConfig::default();
        for nodes in [1_000, 3_000, 5_000] {
            let e = estimate_thresholds(&xar_workloads::bfs_profile(nodes).job(), &cfg);
            assert!(
                e.fpga_thr > 60,
                "BFS {nodes}: threshold {} should exceed any plausible load",
                e.fpga_thr
            );
        }
    }
}
