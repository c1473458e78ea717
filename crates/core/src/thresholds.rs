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

use std::fmt;
use std::sync::Arc;
use xar_desim::{ClusterConfig, JobSpec};
use xar_sched::wire::MAX_NAME;
use xar_sched::{name_hash, shard_of_hash, RowRef};

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

/// A string's `(offset, len)` in one of a table's byte buffers.
type Span = (u32, u32);

/// Appends `s` to `buf` and returns where it landed.
fn append(buf: &mut String, s: &str) -> Span {
    let at = buf.len();
    u32::try_from(at + s.len()).expect("a table's names fit in 4 GiB");
    buf.push_str(s);
    (at as u32, s.len() as u32)
}

/// The string `span` covers in `buf`.
fn slice(buf: &str, (at, len): Span) -> &str {
    &buf[at as usize..][..len as usize]
}

/// A slot's tag bits: the high half of the name's [`name_hash`]. The
/// low half holds `row id + 1`, so an empty slot is 0.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// Where a name's probe starts (before masking): its [`name_hash`],
/// finalised. The raw FNV value must not pick the slot: every name in a
/// shard agrees modulo the shard count, so at 8 shards its low three
/// bits — the slot bits — are one constant and the rows would pile eight
/// to a run. One odd multiply carries the low bits up, the fold brings
/// the well-mixed high half back down to where slots are chosen.
fn bucket(hash: u64) -> u64 {
    let h = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// The slot count that holds `rows` rows at load ≤ ½.
fn slots_for(rows: usize) -> usize {
    if rows == 0 {
        0
    } else {
        (2 * rows).next_power_of_two()
    }
}

/// Indexes row `id` under `hash` in the first free slot of its run.
fn place(slots: &mut [u64], hash: u64, id: usize) {
    let mask = slots.len() - 1;
    let mut at = bucket(hash) as usize & mask;
    while slots[at] != 0 {
        at = (at + 1) & mask;
    }
    slots[at] = (hash & TAG) | (id as u64 + 1);
}

/// Application names as bytes behind a row-id index: the one name-keyed
/// structure of a table, shared (behind an `Arc`) with every decision
/// snapshot published from it.
///
/// Names are appended to one buffer in row-id order; a row's name is a
/// span of it, its [`name_hash`] cached beside it, so re-indexing and
/// shard splits never hash a name again. The index is an open-addressing
/// slot array, probed linearly at load ≤ ½ with no tombstones (rows are
/// never removed). A slot is one `u64` — the name hash's high 32 bits
/// above `row id + 1`, 0 when empty — so a probe compares name bytes
/// only once a tag matches. These are the operator's table rows (table
/// file, estimator, durability snapshot), never names a network peer
/// chooses, which are only ever looked up: a crafted collision could
/// only lengthen the operator's own probe runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Keys {
    bytes: String,
    spans: Vec<Span>,
    hashes: Vec<u64>,
    slots: Vec<u64>,
}

impl Keys {
    fn with_capacity(rows: usize, bytes: usize) -> Keys {
        Keys {
            bytes: String::with_capacity(bytes),
            spans: Vec::with_capacity(rows),
            hashes: Vec::with_capacity(rows),
            slots: vec![0; slots_for(rows)],
        }
    }

    /// Number of names (= rows).
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Row `id`'s name.
    pub(crate) fn name(&self, id: usize) -> &str {
        slice(&self.bytes, self.spans[id])
    }

    /// Row `id`'s cached [`name_hash`].
    pub(crate) fn hash(&self, id: usize) -> u64 {
        self.hashes[id]
    }

    /// `app`'s row id, if it has a row — for a caller that starts from
    /// a bare name (boot, the table's own lookups, tests).
    pub(crate) fn find(&self, app: &str) -> Option<usize> {
        self.find_hashed(app, name_hash(app))
    }

    /// [`Keys::find`] under `app`'s already computed [`name_hash`]: the
    /// probe of every engine path, which hashed the name to route it.
    pub(crate) fn find_hashed(&self, app: &str, hash: u64) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let tag = hash & TAG;
        let mut at = bucket(hash) as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return None;
            }
            if slot & TAG == tag {
                let id = (slot as u32 - 1) as usize;
                let (offset, len) = self.spans[id];
                if self.bytes.as_bytes()[offset as usize..][..len as usize] == *app.as_bytes() {
                    return Some(id);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends a name known to be absent under its [`name_hash`] and
    /// indexes it; returns its row id. Outgrowing the slot array
    /// re-places every row from its cached hash.
    fn push(&mut self, app: &str, hash: u64) -> usize {
        debug_assert!(self.find_hashed(app, hash).is_none(), "{app} already has a row");
        let id = self.len();
        assert!(id < u32::MAX as usize, "fewer than 2^32 - 1 rows");
        if slots_for(id + 1) > self.slots.len() {
            self.slots = vec![0; slots_for(id + 1)];
            for (id, &hash) in self.hashes.iter().enumerate() {
                place(&mut self.slots, hash, id);
            }
        }
        self.spans.push(append(&mut self.bytes, app));
        self.hashes.push(hash);
        place(&mut self.slots, hash, id);
        id
    }
}

/// A slab slot: the kernel name's span in the table's kernel buffer and
/// the two thresholds. The app name is the row's entry in [`Keys`].
#[derive(Debug, Clone, Copy)]
struct Row {
    kernel: Span,
    fpga_thr: u32,
    arm_thr: u32,
}

/// The threshold table shared by the scheduler server and clients: a
/// slab of rows in insertion order plus one name → row-id index
/// ([`Keys`]), mutated in place under its owner's lock.
///
/// A row id is stable for the table's life (rows are never removed), so
/// anything kept *per row* — the policy's reference times, a published
/// snapshot's threshold cells — is a parallel slab addressed by the id
/// one index probe yields, not a second map keyed by name. Application
/// order (`iter`, `to_text`) is produced by sorting row ids when it is
/// asked for; inserting maintains no order.
///
/// Names are bytes, not heap objects: app names live in the index's one
/// buffer, kernel names in a table-private one, and `get`/`iter` hand
/// out [`RowRef`] views borrowing them. The index is copy-on-write: a
/// decision snapshot ([`crate::policy::PolicySnapshot`]) holds the same
/// `Arc`, and a table that gains a row while one is published builds
/// its new index aside, so a reader never sees a half-built one.
#[derive(Debug, Clone, Default)]
pub struct ThresholdTable {
    keys: Arc<Keys>,
    kernels: String,
    rows: Vec<Row>,
}

/// Equal tables hold rows with equal contents; the order they were
/// inserted in, and where their bytes sit, are not part of a table's
/// value.
impl PartialEq for ThresholdTable {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows().all(|r| other.get(r.app) == Some(r))
    }
}

impl Eq for ThresholdTable {}

impl ThresholdTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `rows` rows whose app and kernel
    /// names total `name_bytes` and `kernel_bytes`: filling it to that
    /// allocates nothing.
    pub(crate) fn with_capacity(rows: usize, name_bytes: usize, kernel_bytes: usize) -> Self {
        ThresholdTable {
            keys: Arc::new(Keys::with_capacity(rows, name_bytes)),
            kernels: String::with_capacity(kernel_bytes),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Inserts or replaces an entry and hands back its row id.
    /// Replacing keeps the row's id.
    ///
    /// # Panics
    ///
    /// If either name is longer than [`MAX_NAME`] bytes: the wire and
    /// the durability formats carry names behind a u16 length, so such
    /// a row could be neither served nor snapshotted. Rows are inserted
    /// at boot, never by a peer, so this fails a daemon before it
    /// serves; [`ThresholdTable::from_text`] refuses such a line.
    pub fn insert(&mut self, e: ThresholdEntry) -> usize {
        self.insert_str(&e.app, &e.kernel, e.fpga_thr, e.arm_thr)
    }

    /// [`ThresholdTable::insert`] from borrowed names, copied into the
    /// table's byte buffers.
    pub(crate) fn insert_str(
        &mut self,
        app: &str,
        kernel: &str,
        fpga_thr: u32,
        arm_thr: u32,
    ) -> usize {
        assert!(
            app.len() <= MAX_NAME && kernel.len() <= MAX_NAME,
            "a table name is at most {MAX_NAME} bytes (app {}, kernel {})",
            app.len(),
            kernel.len()
        );
        let hash = name_hash(app);
        match self.keys.find_hashed(app, hash) {
            Some(id) => {
                let row = &mut self.rows[id];
                // A changed kernel name is appended; the old bytes stay
                // behind until the table is rebuilt (a split, a restore).
                if slice(&self.kernels, row.kernel) != kernel {
                    row.kernel = append(&mut self.kernels, kernel);
                }
                (row.fpga_thr, row.arm_thr) = (fpga_thr, arm_thr);
                id
            }
            None => {
                let id = Arc::make_mut(&mut self.keys).push(app, hash);
                let kernel = append(&mut self.kernels, kernel);
                self.rows.push(Row { kernel, fpga_thr, arm_thr });
                id
            }
        }
    }

    /// Splits the rows into `count` tables by [`shard_of_hash`] of their
    /// cached name hashes, each keeping its rows in id order. A first
    /// pass counts each table's rows and name bytes, so every buffer is
    /// allocated once, at its final size; the second copies bytes and
    /// indexes each row under its cached hash — no name is hashed again.
    pub(crate) fn split(&self, count: usize) -> Vec<ThresholdTable> {
        let shard_of = |id: usize| shard_of_hash(self.keys.hashes[id], count);
        let mut sizes = vec![(0, 0, 0); count];
        for (id, row) in self.rows.iter().enumerate() {
            let (rows, names, kernels) = &mut sizes[shard_of(id)];
            *rows += 1;
            *names += self.keys.spans[id].1 as usize;
            *kernels += row.kernel.1 as usize;
        }
        let mut tables: Vec<ThresholdTable> = sizes
            .into_iter()
            .map(|(rows, names, kernels)| ThresholdTable::with_capacity(rows, names, kernels))
            .collect();
        let mut parts: Vec<_> = tables
            .iter_mut()
            .map(|t| {
                let keys = Arc::get_mut(&mut t.keys).expect("a new table owns its keys");
                (keys, &mut t.kernels, &mut t.rows)
            })
            .collect();
        for (id, &row) in self.rows.iter().enumerate() {
            let (keys, kernels, rows) = &mut parts[shard_of(id)];
            keys.push(self.keys.name(id), self.keys.hashes[id]);
            rows.push(Row { kernel: append(kernels, slice(&self.kernels, row.kernel)), ..row });
        }
        tables
    }

    /// The name index, for a snapshot to share.
    pub(crate) fn keys(&self) -> &Arc<Keys> {
        &self.keys
    }

    /// An application's row id: its position in insertion order.
    pub(crate) fn row_id(&self, app: &str) -> Option<usize> {
        self.keys.find(app)
    }

    /// The row with id `id` (see [`ThresholdTable::row_id`]); panics if
    /// this table has no such row.
    pub(crate) fn row(&self, id: usize) -> RowRef<'_> {
        let row = self.rows[id];
        RowRef {
            app: self.keys.name(id),
            kernel: slice(&self.kernels, row.kernel),
            fpga_thr: row.fpga_thr,
            arm_thr: row.arm_thr,
        }
    }

    /// Row `id`'s `(fpga_thr, arm_thr)`.
    pub(crate) fn thresholds(&self, id: usize) -> (u32, u32) {
        let row = &self.rows[id];
        (row.fpga_thr, row.arm_thr)
    }

    /// Row `id`'s `(fpga_thr, arm_thr)`, in place (Algorithm 1 updates
    /// thresholds, never names).
    pub(crate) fn row_mut(&mut self, id: usize) -> (&mut u32, &mut u32) {
        let row = &mut self.rows[id];
        (&mut row.fpga_thr, &mut row.arm_thr)
    }

    /// Looks up an application's row.
    pub fn get(&self, app: &str) -> Option<RowRef<'_>> {
        self.row_id(app).map(|id| self.row(id))
    }

    /// The rows in row-id (insertion) order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> {
        (0..self.rows.len()).map(|id| self.row(id))
    }

    /// Row ids in application order: one sort per call (linear when the
    /// rows were inserted in order, as table files and estimators do).
    pub(crate) fn sorted_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.rows.len()).collect();
        ids.sort_unstable_by(|&a, &b| self.keys.name(a).cmp(self.keys.name(b)));
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
    /// Returns a message naming the malformed line — one with too few
    /// or too many fields, a threshold that is not a `u32`, or a name
    /// longer than [`MAX_NAME`] bytes.
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
            if parts.next().is_some() || app.len() > MAX_NAME || kernel.len() > MAX_NAME {
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

    /// A name longer than a u16 length can carry is a malformed line: a
    /// daemon booted from it would write state snapshots it could not
    /// boot from again. At the limit, the table and its state blob
    /// round-trip.
    #[test]
    fn from_text_rejects_a_name_over_u16() {
        use crate::policy::XarTrekPolicy;
        use xar_sched::PolicyCore;
        let long = "A".repeat(70_000);
        for line in [format!("{long} K 1 2"), format!("app {long} 1 2")] {
            let text = format!("# app kernel fpga_thr arm_thr\nCG-A KNL 30 24\n{line}\n");
            assert_eq!(ThresholdTable::from_text(&text), Err(ParseError { line: 3 }));
        }
        let edge = "A".repeat(MAX_NAME);
        let table = ThresholdTable::from_text(&format!("{edge} {edge} 1 2\n")).unwrap();
        assert_eq!(table.get(&edge).map(|r| (r.kernel.len(), r.fpga_thr)), Some((MAX_NAME, 1)));
        let policy = XarTrekPolicy::new(table, Default::default());
        let mut restored = XarTrekPolicy::new(ThresholdTable::new(), Default::default());
        restored.load_state(&policy.save_state().unwrap()).unwrap();
        assert_eq!(restored.table, policy.table);
    }

    #[test]
    #[should_panic(expected = "a table name is at most 65535 bytes")]
    fn a_table_refuses_a_name_over_u16_at_insert() {
        let app = "A".repeat(MAX_NAME + 1);
        ThresholdTable::new().insert(ThresholdEntry {
            app,
            kernel: "K".into(),
            fpga_thr: 1,
            arm_thr: 2,
        });
    }

    #[test]
    fn name_map_hashes_do_not_cluster_within_a_shard() {
        use xar_sched::shard_of;
        // Every name of a shard agrees modulo the shard count, so at 8
        // shards the raw FNV value's low three bits are one constant
        // per shard. Sum of squared bucket loads over the low 10 bits
        // (what a shard of ~1 250 rows probes on) against its
        // expectation for uniform hashes, n + n(n-1)/m.
        let names: Vec<String> = (0..10_000).map(|i| format!("app-{i:06}")).collect();
        let spread = |hash: &dyn Fn(&str) -> u64, shard: usize| {
            let mut buckets = [0u64; 1024];
            for name in names.iter().filter(|n| shard_of(n, 8) == shard) {
                buckets[(hash(name) & 1023) as usize] += 1;
            }
            let n = buckets.iter().sum::<u64>() as f64;
            let sum_sq: u64 = buckets.iter().map(|c| c * c).sum();
            sum_sq as f64 / (n + n * (n - 1.0) / 1024.0)
        };
        for shard in 0..8 {
            let mixed = spread(&|n| bucket(name_hash(n)), shard);
            assert!(mixed <= 2.0, "shard {shard}: {mixed:.2}x the uniform collision load");
            // The bar has teeth: the unmixed value fails it.
            let raw = spread(&name_hash, shard);
            assert!(raw > 2.0, "shard {shard}: raw FNV spreads {raw:.2}x — test lost its bite");
        }
    }

    #[test]
    fn a_tag_match_still_compares_the_name_bytes() {
        // Three names under one hash: same tag, same first slot, so every
        // probe walks the one run and only the bytes tell the rows apart.
        let hash = 0xDEAD_BEEF_0000_0001;
        let mut keys = Keys::default();
        assert_eq!(keys.find_hashed("a", hash), None, "an empty index misses");
        assert_eq!(keys.push("a", hash), 0);
        assert_eq!(keys.find_hashed("b", hash), None, "a tag match is not a hit");
        assert_eq!(keys.push("b", hash), 1);
        assert_eq!(keys.push("ab", hash), 2);
        for (id, name) in ["a", "b", "ab"].into_iter().enumerate() {
            assert_eq!(keys.find_hashed(name, hash), Some(id), "{name}");
            assert_eq!((keys.name(id), keys.hash(id)), (name, hash));
        }
        assert_eq!(keys.find_hashed("ba", hash), None);
        // Growth re-places the run from the cached hashes.
        for i in 0..100 {
            let name = format!("row-{i}");
            keys.push(&name, name_hash(&name));
        }
        assert!(keys.slots.len() >= 2 * keys.len(), "load above one half");
        assert_eq!(keys.find_hashed("ab", hash), Some(2));
        assert_eq!(keys.find("row-42"), Some(45));
        assert_eq!(keys.find("row-100"), None);
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
