//! `PsMachine` against the implementations it replaced, under any
//! interleaving of `add` / `remove` / `advance`, **bit for bit** — the
//! simulated results are made of these numbers:
//!
//! * the `BTreeMap` machine (`RefMachine`), method bodies verbatim from
//!   the first `machine.rs` (renamed, doc comments and the `cores` getter
//!   dropped): every remaining work, rate, generation and completion
//!   time. Its `next_completion` names the lowest id among the *earliest
//!   time*, and two different works can round to one time, so its id is
//!   not compared;
//! * the id-ordered dense machine (`IdOrderedMachine`), method bodies
//!   verbatim from the second `machine.rs` (renamed, doc comments and
//!   the getters not compared dropped): the id `next_completion` names,
//!   which `cluster`'s slack guard completes — the lowest id among the
//!   *smallest work* — and `finished` in ascending id order;
//! * the work-ordered dense machine (`WorkOrderedMachine`), method
//!   bodies verbatim from the third `machine.rs` (renamed, doc comments
//!   dropped): one flat `work` entry per job, largest first, ties
//!   appended — every observable above, ids included.
//!
//! Two strategies drive them: ordinary draws with the odd bed of equal
//! work, and draws made to tie — beds of a few round works, adds equal
//! to a job's current work, advances that clamp several works to zero
//! at once, and `-0.0` beside `+0.0`.

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
struct IdOrderedMachine {
    name: &'static str,
    cores: f64,
    ids: Vec<JobId>,
    work: Vec<f64>,
    last_ns: f64,
    generation: u64,
}

impl IdOrderedMachine {
    fn new(name: &'static str, cores: u32) -> IdOrderedMachine {
        assert!(cores > 0);
        IdOrderedMachine {
            name,
            cores: cores as f64,
            ids: Vec::new(),
            work: Vec::new(),
            last_ns: 0.0,
            generation: 0,
        }
    }

    fn rate(&self) -> f64 {
        if self.ids.is_empty() {
            0.0
        } else {
            (self.cores / self.ids.len() as f64).min(1.0)
        }
    }

    fn advance(&mut self, now_ns: f64) {
        if now_ns <= self.last_ns {
            return;
        }
        let progressed_ms = (now_ns - self.last_ns) / 1e6 * self.rate();
        if progressed_ms > 0.0 {
            for w in &mut self.work {
                *w = (*w - progressed_ms).max(0.0);
            }
        }
        self.last_ns = now_ns;
    }

    fn add(&mut self, id: JobId, work_ms: f64, now_ns: f64) {
        self.advance(now_ns);
        match self.ids.binary_search(&id) {
            Ok(_) => panic!("job {id:?} already on {}", self.name),
            Err(at) => {
                self.ids.insert(at, id);
                self.work.insert(at, work_ms.max(0.0));
            }
        }
        self.generation += 1;
    }

    fn remove(&mut self, id: JobId, now_ns: f64) -> Option<f64> {
        self.advance(now_ns);
        let at = self.ids.binary_search(&id).ok()?;
        self.ids.remove(at);
        self.generation += 1;
        Some(self.work.remove(at))
    }

    fn finished(&self) -> impl Iterator<Item = JobId> + '_ {
        self.ids.iter().zip(&self.work).filter(|(_, w)| **w <= DONE_EPS_MS).map(|(id, _)| *id)
    }

    fn next_completion(&self) -> Option<(JobId, f64)> {
        let rate = self.rate();
        if rate == 0.0 {
            return None;
        }
        let mut first = 0;
        for (i, w) in self.work.iter().enumerate() {
            if *w < self.work[first] {
                first = i;
            }
        }
        Some((self.ids[first], self.last_ns + self.work[first] / rate * 1e6))
    }
}

#[derive(Debug, Clone)]
struct WorkOrderedMachine {
    name: &'static str,
    cores: f64,
    ids: Vec<JobId>,
    work: Vec<f64>,
    present: Vec<u64>,
    last_ns: f64,
    generation: u64,
}

impl WorkOrderedMachine {
    fn new(name: &'static str, cores: u32) -> WorkOrderedMachine {
        assert!(cores > 0);
        WorkOrderedMachine {
            name,
            cores: cores as f64,
            ids: Vec::new(),
            work: Vec::new(),
            present: Vec::new(),
            last_ns: 0.0,
            generation: 0,
        }
    }

    fn load(&self) -> usize {
        self.ids.len()
    }

    fn rate(&self) -> f64 {
        if self.ids.is_empty() {
            0.0
        } else {
            (self.cores / self.ids.len() as f64).min(1.0)
        }
    }

    fn advance(&mut self, now_ns: f64) {
        if now_ns <= self.last_ns {
            return;
        }
        let progressed_ms = (now_ns - self.last_ns) / 1e6 * self.rate();
        if progressed_ms > 0.0 {
            for w in &mut self.work {
                *w = (*w - progressed_ms).max(0.0);
            }
        }
        self.last_ns = now_ns;
    }

    fn add(&mut self, id: JobId, work_ms: f64, now_ns: f64) {
        self.advance(now_ns);
        let (word, bit) = bit_of(id);
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
        assert!(self.present[word] & bit == 0, "job {id:?} already on {}", self.name);
        self.present[word] |= bit;
        let work = work_ms.max(0.0);
        // After any equal work: a bed of ties is appended to, not shifted.
        let at = self.work.partition_point(|&w| w >= work);
        self.ids.insert(at, id);
        self.work.insert(at, work);
        self.generation += 1;
    }

    fn position(&self, id: JobId) -> Option<usize> {
        let (word, bit) = bit_of(id);
        if self.present.get(word).is_none_or(|w| w & bit == 0) {
            return None;
        }
        self.ids.iter().rposition(|&j| j == id)
    }

    fn remove(&mut self, id: JobId, now_ns: f64) -> Option<f64> {
        self.advance(now_ns);
        let at = self.position(id)?;
        let (word, bit) = bit_of(id);
        self.present[word] &= !bit;
        self.ids.remove(at);
        self.generation += 1;
        Some(self.work.remove(at))
    }

    fn remaining(&self, id: JobId) -> Option<f64> {
        self.position(id).map(|at| self.work[at])
    }

    fn tail_start(&self, pred: impl Fn(f64) -> bool) -> usize {
        self.work.len() - self.work.iter().rev().take_while(|&&w| pred(w)).count()
    }

    fn finished(&self, done: &mut Vec<JobId>) {
        done.clear();
        done.extend_from_slice(&self.ids[self.tail_start(|w| w <= DONE_EPS_MS)..]);
        done.sort_unstable();
    }

    fn next_completion(&self) -> Option<(JobId, f64)> {
        let rate = self.rate();
        let &least = self.work.last()?;
        let id = self.ids[self.tail_start(|w| w == least)..].iter().min()?;
        Some((*id, self.last_ns + least / rate * 1e6))
    }
}

fn bit_of(id: JobId) -> (usize, u64) {
    let word = usize::try_from(id.0 / 64).expect("job ids are small integers");
    (word, 1 << (id.0 % 64))
}

#[derive(Debug, Clone)]
enum Op {
    /// Add `id` unless it is present (a second add panics in both).
    Add {
        id: u64,
        work: f64,
    },
    /// Add `id` with the current work of the `pick`-th present job (in
    /// id order), so it joins that job's run of equal work.
    AddLike {
        id: u64,
        pick: usize,
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

/// The machine under test and the three references, driven in
/// lockstep.
struct Machines {
    dense: PsMachine,
    reference: RefMachine,
    id_ordered: IdOrderedMachine,
    work_ordered: WorkOrderedMachine,
    /// `dense.finished`'s buffer, reused like the simulator's.
    done: Vec<JobId>,
    /// `work_ordered.finished`'s buffer.
    work_ordered_done: Vec<JobId>,
}

impl Machines {
    fn new(cores: u32) -> Machines {
        Machines {
            dense: PsMachine::new("dense", cores),
            reference: RefMachine::new("reference", cores),
            id_ordered: IdOrderedMachine::new("id-ordered", cores),
            work_ordered: WorkOrderedMachine::new("work-ordered", cores),
            done: Vec::new(),
            work_ordered_done: Vec::new(),
        }
    }

    fn add(&mut self, id: JobId, work: f64, now: f64) {
        self.dense.add(id, work, now);
        self.reference.add(id, work, now);
        self.id_ordered.add(id, work, now);
        self.work_ordered.add(id, work, now);
    }

    fn remove(&mut self, id: JobId, now: f64) -> Result<(), TestCaseError> {
        let got = self.dense.remove(id, now).map(f64::to_bits);
        prop_assert_eq!(got, self.reference.remove(id, now).map(f64::to_bits));
        prop_assert_eq!(got, self.id_ordered.remove(id, now).map(f64::to_bits));
        prop_assert_eq!(got, self.work_ordered.remove(id, now).map(f64::to_bits));
        Ok(())
    }

    fn advance(&mut self, now: f64) {
        self.dense.advance(now);
        self.reference.advance(now);
        self.id_ordered.advance(now);
        self.work_ordered.advance(now);
    }

    /// Applies `op` at `now` and returns the time it left the machines
    /// at (later than `now` only for `AdvanceToNext`).
    fn apply(&mut self, op: Op, now: f64) -> Result<f64, TestCaseError> {
        let mut now = now;
        match op {
            Op::Add { id, work } => {
                if self.reference.remaining(JobId(id)).is_none() {
                    self.add(JobId(id), work, now);
                }
            }
            Op::AddLike { id, pick } => {
                let load = self.reference.load();
                if self.reference.remaining(JobId(id)).is_none() && load > 0 {
                    // The work as it will be once `add` has advanced.
                    self.advance(now);
                    let work = *self.reference.jobs.values().nth(pick % load).unwrap();
                    self.add(JobId(id), work, now);
                }
            }
            Op::Remove { id } => self.remove(JobId(id), now)?,
            Op::Advance => self.advance(now),
            Op::AdvanceToNext => {
                if let Some((_, t)) = self.reference.next_completion() {
                    now = now.max(t);
                }
                self.advance(now);
            }
        }
        Ok(now)
    }

    fn check_same(&mut self, ids: u64) -> Result<(), TestCaseError> {
        let (dense, reference) = (&self.dense, &self.reference);
        prop_assert_eq!(dense.load(), reference.load());
        prop_assert_eq!(dense.rate().to_bits(), reference.rate().to_bits());
        prop_assert_eq!(dense.generation(), reference.generation());
        prop_assert_eq!(dense.generation(), self.id_ordered.generation);
        for id in (0..ids).map(JobId) {
            prop_assert_eq!(
                dense.remaining(id).map(f64::to_bits),
                reference.remaining(id).map(f64::to_bits),
                "remaining({:?})",
                id
            );
        }
        let next = dense.next_completion().map(|(id, t)| (id, t.to_bits()));
        prop_assert_eq!(next.map(|c| c.1), reference.next_completion().map(|c| c.1.to_bits()));
        prop_assert_eq!(
            next,
            self.id_ordered.next_completion().map(|(id, t)| (id, t.to_bits())),
            "the lowest id among the smallest work"
        );
        dense.finished(&mut self.done);
        let want: Vec<JobId> = self.id_ordered.finished().collect();
        prop_assert_eq!(&self.done, &want, "finished, in ascending id order");
        let by_map: Vec<JobId> =
            reference.jobs.iter().filter(|(_, w)| **w <= DONE_EPS_MS).map(|(id, _)| *id).collect();
        prop_assert_eq!(&self.done, &by_map);
        let flat = &self.work_ordered;
        prop_assert_eq!(dense.load(), flat.load());
        prop_assert_eq!(dense.rate().to_bits(), flat.rate().to_bits());
        prop_assert_eq!(dense.generation(), flat.generation);
        for id in (0..ids).map(JobId) {
            prop_assert_eq!(
                dense.remaining(id).map(f64::to_bits),
                flat.remaining(id).map(f64::to_bits),
                "remaining({:?}) against the flat machine",
                id
            );
        }
        prop_assert_eq!(next, flat.next_completion().map(|(id, t)| (id, t.to_bits())));
        flat.finished(&mut self.work_ordered_done);
        prop_assert_eq!(&self.done, &self.work_ordered_done);
        Ok(())
    }
}

/// Initial works: independent draws, or a bed of one work (like a
/// simulation's identical background jobs) scattered among them, so
/// exact ties are wide and their ids interleave with other jobs'
/// (`None` is a bed job, two draws in three).
fn arb_initial() -> impl Strategy<Value = Vec<f64>> {
    let bed_or_own = prop_oneof![Just(None), Just(None), arb_work().prop_map(Some)];
    prop_oneof![
        proptest::collection::vec(arb_work(), 1..201),
        (
            prop_oneof![Just(10.0), Just(2e5), arb_work()],
            proptest::collection::vec(bed_or_own, 1..201)
        )
            .prop_map(|(bed, works)| works.into_iter().map(|w| w.unwrap_or(bed)).collect()),
    ]
}

/// A handful of works, so independent draws tie: round values, the done
/// threshold and both zeros (`-0.0` and `+0.0` compare equal but are
/// different bits).
fn arb_tied_work() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0),
        Just(2.0),
        Just(3.0),
        Just(10.0),
        Just(DONE_EPS_MS),
        Just(0.0),
        Just(-0.0)
    ]
}

/// Ops that make and break ties: adds of a tied work or of a present
/// job's current work, removes, and steps from none to long enough
/// (up to 30 ms of wall time) to clamp several works to zero at once.
fn arb_tie_op(ids: u64) -> impl Strategy<Value = (Op, f64)> {
    let op = prop_oneof![
        (0..ids, arb_tied_work()).prop_map(|(id, work)| Op::Add { id, work }),
        (0..ids, 0..usize::MAX).prop_map(|(id, pick)| Op::AddLike { id, pick }),
        (0..ids, 0..usize::MAX).prop_map(|(id, pick)| Op::AddLike { id, pick }),
        (0..ids).prop_map(|id| Op::Remove { id }),
        (0..ids).prop_map(|id| Op::Remove { id }),
        Just(Op::Advance),
        Just(Op::AdvanceToNext),
    ];
    let dt = prop_oneof![Just(0.0), 0.0f64..1e-3, 0.0f64..2e6, 1e6f64..3e7];
    (op, dt)
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
        initial in arb_initial(),
        ops in proptest::collection::vec(arb_op(220), 1..80),
    ) {
        let ids = 220;
        let mut m = Machines::new(cores);
        for (i, w) in initial.iter().enumerate() {
            m.add(JobId(i as u64), *w, start);
        }
        m.check_same(ids)?;
        let mut now: f64 = start;
        for (op, dt) in ops {
            now = m.apply(op, now + dt)?;
            m.check_same(ids)?;
        }
    }

    #[test]
    fn tied_work_matches_every_reference(
        cores in 1u32..9,
        start in prop_oneof![Just(0.0), Just(2e13)],
        initial in proptest::collection::vec(arb_tied_work(), 1..120),
        ops in proptest::collection::vec(arb_tie_op(140), 1..120),
    ) {
        let ids = 140;
        let mut m = Machines::new(cores);
        for (i, w) in initial.iter().enumerate() {
            m.add(JobId(i as u64), *w, start);
        }
        m.check_same(ids)?;
        let mut now: f64 = start;
        for (op, dt) in ops {
            now = m.apply(op, now + dt)?;
            m.check_same(ids)?;
        }
    }
}
