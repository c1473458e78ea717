//! The slab [`ThresholdTable`] against the table it replaced.
//!
//! `BTreeTable` below is the slab's predecessor: one ordered map keyed
//! by app name, holding owned entries. Random runs of
//! insert / replace / thresholds-only replace / `get` / `iter` / `len`
//! / `==` / `clone` are applied to both; every observable must agree —
//! the rows, the application order of `iter` and `to_text`, equality
//! between two tables (whatever order their rows arrived in), clones
//! that go their own way, and the row id `insert` hands back: a new
//! row's is its insertion position, and replacing a row keeps it. Rows
//! are compared as `(app, kernel, fpga_thr, arm_thr)` tuples: the slab
//! hands out borrowed views, the model owned entries.
//!
//! Below the model, names whose hashes share the tag a slot stores must
//! still resolve to their own rows.

use proptest::prelude::*;
use std::collections::btree_map::{BTreeMap, Entry};
use xar_core::thresholds::{ThresholdEntry, ThresholdTable};
use xar_sched::{name_hash, RowRef};

/// A row's observable contents.
type View<'a> = (&'a str, &'a str, u32, u32);

fn of_row(r: RowRef<'_>) -> View<'_> {
    (r.app, r.kernel, r.fpga_thr, r.arm_thr)
}

fn of_entry(e: &ThresholdEntry) -> View<'_> {
    (&e.app, &e.kernel, e.fpga_thr, e.arm_thr)
}

/// The slab's predecessor, its entries each beside the row id the slab
/// must have given them.
#[derive(Debug, Clone, Default)]
struct BTreeTable {
    rows: BTreeMap<String, (usize, ThresholdEntry)>,
}

/// Row ids are not part of a table's value.
impl PartialEq for BTreeTable {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl BTreeTable {
    fn insert(&mut self, e: ThresholdEntry) -> usize {
        let next = self.rows.len();
        match self.rows.entry(e.app.clone()) {
            Entry::Occupied(mut row) => {
                row.get_mut().1 = e;
                row.get().0
            }
            Entry::Vacant(slot) => slot.insert((next, e)).0,
        }
    }

    fn get(&self, app: &str) -> Option<&ThresholdEntry> {
        self.rows.get(app).map(|(_, e)| e)
    }

    /// A row and its id.
    fn get_mut(&mut self, app: &str) -> Option<&mut (usize, ThresholdEntry)> {
        self.rows.get_mut(app)
    }

    fn iter(&self) -> impl Iterator<Item = &ThresholdEntry> {
        self.rows.values().map(|(_, e)| e)
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn to_text(&self) -> String {
        let mut s = String::from("# app kernel fpga_thr arm_thr\n");
        for e in self.iter() {
            s.push_str(&format!("{} {} {} {}\n", e.app, e.kernel, e.fpga_thr, e.arm_thr));
        }
        s
    }
}

/// A table of each kind, driven in lockstep.
#[derive(Clone, Default)]
struct Pair {
    slab: ThresholdTable,
    model: BTreeTable,
}

/// Names that sort differently from how they are numbered, some sharing
/// prefixes, so application order is not insertion order by accident.
fn name(i: u8) -> String {
    let i = i % 24;
    match i % 4 {
        0 => format!("app-{i}"),
        1 => format!("App{:03}", 200 - i as u32),
        2 => format!("z{i}"),
        _ => format!("app-{i}-long-tail"),
    }
}

impl Pair {
    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.slab.len(), self.model.len());
        prop_assert_eq!(self.slab.is_empty(), self.model.is_empty());
        let (got, want): (Vec<_>, Vec<_>) =
            (self.slab.iter().map(of_row).collect(), self.model.iter().map(of_entry).collect());
        prop_assert_eq!(got, want, "iter: rows or application order");
        prop_assert_eq!(self.slab.to_text(), self.model.to_text());
        Ok(())
    }

    fn apply(&mut self, op: u8, who: u8, val: u32) -> Result<(), TestCaseError> {
        let app = name(who);
        match op % 4 {
            // Insert or replace. The row id, once given, is the one
            // every later insert of the name hands back.
            0 | 1 => {
                let e = ThresholdEntry {
                    app: app.clone(),
                    kernel: format!("KNL_{}", val % 7),
                    fpga_thr: val % 50,
                    arm_thr: val % 70,
                };
                let (got, want) = (self.slab.insert(e.clone()), self.model.insert(e));
                prop_assert_eq!(got, want, "row id of {}", app);
            }
            2 => {
                prop_assert_eq!(self.slab.get(&app).map(of_row), self.model.get(&app).map(of_entry))
            }
            // Thresholds-only replace: the slab through `insert` (which
            // keeps the row's id and names), the model in place.
            _ => {
                let got = self.slab.get(&app).map(|r| (r.kernel.to_string(), r.arm_thr));
                let want = self.model.get_mut(&app);
                prop_assert_eq!(got.is_some(), want.is_some());
                if let (Some((kernel, arm_thr)), Some((id, want))) = (got, want) {
                    prop_assert_eq!(
                        (kernel.as_str(), arm_thr),
                        (want.kernel.as_str(), want.arm_thr)
                    );
                    let e = ThresholdEntry {
                        app: app.clone(),
                        kernel,
                        fpga_thr: val,
                        arm_thr: arm_thr + 1,
                    };
                    prop_assert_eq!(self.slab.insert(e), *id, "replace moved {}'s row", app);
                    want.fpga_thr = val;
                    want.arm_thr += 1;
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_table_agrees_with_the_btree_table_on_every_observable(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u32..1000), 1..120),
    ) {
        let mut a = Pair::default();
        // A clone taken part-way, which then goes its own way.
        let mut b: Option<Pair> = None;
        for (i, &(op, who, val)) in ops.iter().enumerate() {
            if i == ops.len() / 3 {
                let fork = a.clone();
                prop_assert!(fork.slab == a.slab, "a clone equals its source");
                b = Some(fork);
            }
            // The top bit of `op` picks which of the two tables moves.
            match &mut b {
                Some(b) if op & 0x80 != 0 => b.apply(op, who, val)?,
                _ => a.apply(op, who, val)?,
            }
            a.check()?;
            if let Some(b) = &b {
                b.check()?;
                prop_assert_eq!(a.slab == b.slab, a.model == b.model, "== after step {}", i);
                prop_assert_eq!(b.slab == a.slab, a.model == b.model, "== is symmetric");
            }
        }
        // Equality is about the rows, not the order they arrived in:
        // the same rows inserted back to front make an equal table.
        let mut reversed = ThresholdTable::new();
        let rows: Vec<ThresholdEntry> = a
            .slab
            .iter()
            .map(|r| ThresholdEntry {
                app: r.app.to_string(),
                kernel: r.kernel.to_string(),
                fpga_thr: r.fpga_thr,
                arm_thr: r.arm_thr,
            })
            .collect();
        for e in rows.into_iter().rev() {
            reversed.insert(e);
        }
        prop_assert!(reversed == a.slab);
        prop_assert_eq!(reversed.to_text(), a.model.to_text());
    }
}

/// Pairs of `app-%06d` names whose [`name_hash`]es share their high 32
/// bits: the tag a slot stores beside its row id. FNV-1a spreads these
/// names' high bits more evenly than chance (the first 200 000 hold no
/// pair), so the search covers all million.
fn tag_twins() -> Vec<(String, String)> {
    let app = |i: u32| format!("app-{i:06}");
    let mut tags: Vec<(u32, u32)> =
        (0..1_000_000).map(|i| ((name_hash(&app(i)) >> 32) as u32, i)).collect();
    tags.sort_unstable();
    tags.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| (app(w[0].1), app(w[1].1))).collect()
}

#[test]
fn names_sharing_a_slot_tag_resolve_to_their_own_rows() {
    let twins = tag_twins();
    assert!(twins.len() >= 10, "{} tag-sharing pairs: the case lost its bite", twins.len());
    let entry = |app: &str, thr: usize| ThresholdEntry {
        app: app.into(),
        kernel: format!("KNL_{app}"),
        fpga_thr: thr as u32,
        arm_thr: thr as u32 + 1,
    };
    let fpga_thr = |t: &ThresholdTable, app: &str| t.get(app).map(|r| r.fpga_thr as usize);
    for (first, second) in &twins {
        // Two rows in four slots: a probe for one twin often meets the
        // other's tag.
        let mut pair = ThresholdTable::new();
        assert_eq!(pair.insert(entry(first, 1)), 0);
        assert_eq!(fpga_thr(&pair, second), None, "{second} hit {first}'s row");
        assert_eq!(pair.insert(entry(second, 2)), 1);
        assert_eq!((fpga_thr(&pair, first), fpga_thr(&pair, second)), (Some(1), Some(2)));
    }
    // Every first twin, then every second one, in one table.
    let n = twins.len();
    let mut all = ThresholdTable::new();
    for (i, (first, _)) in twins.iter().enumerate() {
        assert_eq!(all.insert(entry(first, i)), i);
    }
    for (_, second) in &twins {
        assert_eq!(fpga_thr(&all, second), None, "{second} hit its twin's row");
    }
    for (i, (_, second)) in twins.iter().enumerate() {
        assert_eq!(all.insert(entry(second, n + i)), n + i);
    }
    for (i, (first, second)) in twins.iter().enumerate() {
        assert_eq!(fpga_thr(&all, first), Some(i), "{first}");
        assert_eq!(fpga_thr(&all, second), Some(n + i), "{second}");
        assert_eq!(all.get(second).unwrap().kernel, format!("KNL_{second}"));
    }
    assert_eq!(fpga_thr(&all, "app-200000"), None);
}
