//! The slab [`ThresholdTable`] against the table it replaced.
//!
//! `BTreeTable` below is the slab's predecessor: one ordered map keyed
//! by the app name's `Arc<str>`, holding owned entries. Random runs of
//! insert / replace / thresholds-only replace / `get` / `iter` / `len`
//! / `==` / `clone` are applied to both; every observable must agree —
//! the rows, the application order of `iter` and `to_text`, equality
//! between two tables (whatever order their rows arrived in), clones
//! that go their own way, and that replacing a row keeps the `Arc<str>`
//! allocation its name was first given. Rows are compared as
//! `(app, kernel, fpga_thr, arm_thr)` tuples: the slab hands out
//! borrowed views, the model owned entries.

use proptest::prelude::*;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use xar_core::thresholds::{ThresholdEntry, ThresholdTable};
use xar_sched::RowRef;

/// A row's observable contents.
type View<'a> = (&'a str, &'a str, u32, u32);

fn of_row(r: RowRef<'_>) -> View<'_> {
    (r.app, r.kernel, r.fpga_thr, r.arm_thr)
}

fn of_entry(e: &ThresholdEntry) -> View<'_> {
    (&e.app, &e.kernel, e.fpga_thr, e.arm_thr)
}

/// The parent commit's `ThresholdTable`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BTreeTable {
    rows: BTreeMap<Arc<str>, ThresholdEntry>,
}

impl BTreeTable {
    fn insert(&mut self, e: ThresholdEntry) -> Arc<str> {
        match self.rows.entry(Arc::from(e.app.as_str())) {
            Entry::Occupied(mut row) => {
                row.insert(e);
                row.key().clone()
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                slot.insert(e);
                key
            }
        }
    }

    fn get(&self, app: &str) -> Option<&ThresholdEntry> {
        self.rows.get(app)
    }

    fn get_mut(&mut self, app: &str) -> Option<&mut ThresholdEntry> {
        self.rows.get_mut(app)
    }

    fn key(&self, app: &str) -> Option<&Arc<str>> {
        self.rows.get_key_value(app).map(|(key, _)| key)
    }

    fn iter(&self) -> impl Iterator<Item = &ThresholdEntry> {
        self.rows.values()
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
            // Insert or replace. The name's allocation, once given, is
            // the one every later insert hands back.
            0 | 1 => {
                let e = ThresholdEntry {
                    app: app.clone(),
                    kernel: format!("KNL_{}", val % 7),
                    fpga_thr: val % 50,
                    arm_thr: val % 70,
                };
                let before = (self.slab.key(&app).cloned(), self.model.key(&app).cloned());
                let (got, want) = (self.slab.insert(e.clone()), self.model.insert(e));
                prop_assert_eq!(&*got, &*want);
                prop_assert!(Arc::ptr_eq(&got, self.slab.key(&app).unwrap()), "handed out a copy");
                if let (Some(slab_key), Some(model_key)) = before {
                    prop_assert!(Arc::ptr_eq(&got, &slab_key), "replace reallocated {app}");
                    prop_assert!(Arc::ptr_eq(&want, &model_key));
                }
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
                if let (Some((kernel, arm_thr)), Some(want)) = (got, want) {
                    prop_assert_eq!(
                        (kernel.as_str(), arm_thr),
                        (want.kernel.as_str(), want.arm_thr)
                    );
                    let key = self.slab.key(&app).cloned().unwrap();
                    let e = ThresholdEntry {
                        app: app.clone(),
                        kernel,
                        fpga_thr: val,
                        arm_thr: arm_thr + 1,
                    };
                    prop_assert!(
                        Arc::ptr_eq(&self.slab.insert(e), &key),
                        "replace reallocated {app}"
                    );
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
