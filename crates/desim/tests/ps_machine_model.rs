//! `PsMachine` against the implementation it replaced: the `BTreeMap`
//! machine below is the previous `machine.rs`, method bodies verbatim
//! (renamed, doc comments and the `cores` getter dropped), and under any
//! interleaving of `add` / `remove` / `advance` the dense one must agree
//! with it **bit for bit** — the simulated results are made of these
//! numbers. `next_completion`'s job id is deliberately not
//! compared: the dense machine picks the lowest id among the *smallest
//! work*, the reference among the *earliest time*, and two different
//! works can round to one time; nothing in the simulator reads the id.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xar_desim::machine::{JobId, PsMachine, DONE_EPS_MS};

#[derive(Debug, Clone)]
struct RefMachine {
    name: &'static str,
    cores: f64,
    jobs: BTreeMap<JobId, f64>,
    last_ns: f64,
    generation: u64,
}

impl RefMachine {
    fn new(name: &'static str, cores: u32) -> RefMachine {
        assert!(cores > 0);
        RefMachine { name, cores: cores as f64, jobs: BTreeMap::new(), last_ns: 0.0, generation: 0 }
    }

    fn load(&self) -> usize {
        self.jobs.len()
    }

    fn rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            (self.cores / self.jobs.len() as f64).min(1.0)
        }
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn advance(&mut self, now_ns: f64) {
        if now_ns <= self.last_ns {
            return;
        }
        let progressed_ms = (now_ns - self.last_ns) / 1e6 * self.rate();
        if progressed_ms > 0.0 {
            for w in self.jobs.values_mut() {
                *w = (*w - progressed_ms).max(0.0);
            }
        }
        self.last_ns = now_ns;
    }

    fn add(&mut self, id: JobId, work_ms: f64, now_ns: f64) {
        self.advance(now_ns);
        let prev = self.jobs.insert(id, work_ms.max(0.0));
        assert!(prev.is_none(), "job {id:?} already on {}", self.name);
        self.generation += 1;
    }

    fn remove(&mut self, id: JobId, now_ns: f64) -> Option<f64> {
        self.advance(now_ns);
        let w = self.jobs.remove(&id);
        if w.is_some() {
            self.generation += 1;
        }
        w
    }

    fn remaining(&self, id: JobId) -> Option<f64> {
        self.jobs.get(&id).copied()
    }

    fn next_completion(&self) -> Option<(JobId, f64)> {
        let rate = self.rate();
        if rate == 0.0 {
            return None;
        }
        self.jobs
            .iter()
            .map(|(&id, &w)| (id, self.last_ns + w / rate * 1e6))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Add `id` unless it is present (a second add panics in both).
    Add {
        id: u64,
        work: f64,
    },
    Remove {
        id: u64,
    },
    Advance,
    /// Advance to the reference's next completion time: the only times
    /// the simulator ever advances a busy machine to, and where jobs
    /// land on and around the done threshold.
    AdvanceToNext,
}

/// Works that are ordinary (mostly: the next completion should be a real
/// division, not a zero), tie exactly, or sit around the done threshold.
fn arb_work() -> impl Strategy<Value = f64> {
    prop_oneof![
        1.0f64..500.0,
        1.0f64..500.0,
        1.0f64..500.0,
        Just(10.0),
        Just(DONE_EPS_MS),
        0.0f64..4e-9
    ]
}

/// Time steps: none (repeated equal times), below the clock's resolution,
/// ordinary.
fn arb_dt() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0f64..1e-3, 0.0f64..5e7, 0.0f64..5e7]
}

fn arb_op(ids: u64) -> impl Strategy<Value = (Op, f64)> {
    let op = prop_oneof![
        (0..ids, arb_work()).prop_map(|(id, work)| Op::Add { id, work }),
        (0..ids).prop_map(|id| Op::Remove { id }),
        Just(Op::Advance),
        Just(Op::AdvanceToNext),
    ];
    (op, arb_dt())
}

fn check_same(dense: &PsMachine, reference: &RefMachine, ids: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.load(), reference.load());
    prop_assert_eq!(dense.rate().to_bits(), reference.rate().to_bits());
    prop_assert_eq!(dense.generation(), reference.generation());
    for id in (0..ids).map(JobId) {
        prop_assert_eq!(
            dense.remaining(id).map(f64::to_bits),
            reference.remaining(id).map(f64::to_bits),
            "remaining({id:?})"
        );
    }
    prop_assert_eq!(
        dense.next_completion().map(|c| c.1.to_bits()),
        reference.next_completion().map(|c| c.1.to_bits())
    );
    let done: Vec<JobId> = dense.finished().collect();
    let want: Vec<JobId> =
        reference.jobs.iter().filter(|(_, w)| **w <= DONE_EPS_MS).map(|(id, _)| *id).collect();
    prop_assert_eq!(done, want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_machine_matches_the_btreemap_machine(
        cores in 1u32..97,
        // Early, where every bit of a completion time is live, or past
        // 2^44 ns, where a residue's completion time rounds to the
        // current one.
        start in prop_oneof![Just(0.0), Just(2e13)],
        initial in proptest::collection::vec(arb_work(), 1..201),
        ops in proptest::collection::vec(arb_op(220), 1..80),
    ) {
        let ids = 220;
        let mut dense = PsMachine::new("dense", cores);
        let mut reference = RefMachine::new("reference", cores);
        for (i, w) in initial.iter().enumerate() {
            dense.add(JobId(i as u64), *w, start);
            reference.add(JobId(i as u64), *w, start);
        }
        check_same(&dense, &reference, ids)?;
        let mut now: f64 = start;
        for (op, dt) in ops {
            now += dt;
            match op {
                Op::Add { id, work } => {
                    if reference.remaining(JobId(id)).is_none() {
                        dense.add(JobId(id), work, now);
                        reference.add(JobId(id), work, now);
                    }
                }
                Op::Remove { id } => {
                    let got = dense.remove(JobId(id), now).map(f64::to_bits);
                    prop_assert_eq!(got, reference.remove(JobId(id), now).map(f64::to_bits));
                }
                Op::Advance => {
                    dense.advance(now);
                    reference.advance(now);
                }
                Op::AdvanceToNext => {
                    if let Some((_, t)) = reference.next_completion() {
                        now = now.max(t);
                    }
                    dense.advance(now);
                    reference.advance(now);
                }
            }
            check_same(&dense, &reference, ids)?;
        }
    }
}
