//! Processor-sharing machine model.
//!
//! A compute-bound process set on a `C`-core time-sharing OS is well
//! approximated by processor sharing: with `N` runnable jobs, each runs
//! at rate `min(1, C/N)` of a dedicated core. This reproduces the load
//! behaviour the paper builds on — execution time is flat while
//! `#processes ≤ #cores` and degrades linearly beyond (Table 3's
//! low/medium/high classes).
//!
//! # Representation and cost
//!
//! The runnable set is ordered by remaining work, largest first, so the
//! next job to finish and the finished ones sit at the tail. It is two
//! vectors: `ids`, one entry per job, ties in the order they were
//! added; and their work, run-length encoded as `runs` of
//! `(work, jobs)` — one run per stretch of `ids` whose work has the
//! same bits. Jobs tie often: a bed of identical background jobs is one
//! run, and so is every job the same advance clamps to zero. On the
//! gating benchmark's wave shape (100 waves of 50 apps over 100
//! background jobs) the ~14 000 advance passes of one simulation cover
//! 0.90–0.99 M jobs but only 108–141 k runs (three draws).
//!
//! * [`PsMachine::advance`] — run on every event that touches the
//!   machine — maps each run once with `w = (w - p).max(0.0)`, and
//!   merges the runs it makes bit-equal into one. That map is monotone
//!   (IEEE subtraction rounds monotonically, and so does `max`), so it
//!   never reorders the set; it can only make neighbours equal. Every
//!   job's work still goes through exactly the operations it would as a
//!   flat entry of its own.
//! * Runs merge only on identical bits, so `-0.0` and `+0.0` stay apart
//!   (`add` can be handed either; `advance` only makes `+0.0`), and the
//!   tail scans below still compare values with `==` and `<=`.
//! * [`PsMachine::next_completion`] reads the last run, and the lowest
//!   id of each tail run equal to it: a run keeps its lowest id, so a
//!   bed of a hundred tied background jobs is not scanned for it. Only
//!   removing a run's lowest id scans that run.
//! * [`PsMachine::finished`] copies the ids of the tail runs within
//!   [`DONE_EPS_MS`] of zero into the caller's buffer and sorts them by
//!   id.
//! * `add` is a binary search on the runs, a sum of the run lengths
//!   after it (counted from the tail, where the small works are) for the
//!   id's position, and joins the equal run or inserts a new one. Its
//!   duplicate-id check reads a bitset of the ids present, one bit per
//!   id up to the largest added (the simulator hands ids out 0, 1, 2,
//!   …), rather than a pass over `ids`, which at a hundred-odd runnable
//!   jobs cost a tenth of a simulation's host time.
//! * `remove` and `remaining` search `ids` from the tail, where finished
//!   jobs are, so removing one moves nothing, and find its run by
//!   walking the runs from the tail; an absent id is answered by the
//!   bitset.
//! * The rate `min(1, cores / load)` is computed on every membership
//!   change and cached, so neither `advance` nor `next_completion`
//!   divides for it.
//!
//! Nothing allocates once the vectors (and the caller's buffer) have
//! grown to the machine's peak load and the bitset to the largest id.
//!
//! The machine, not its caller, says which jobs are done, so a
//! completion event costs the machine's own load, however many jobs the
//! simulation holds elsewhere.
//!
//! # The arithmetic is pinned
//!
//! Every `f64` operation here (the progress `(now - last) / 1e6 * rate`,
//! the clamped subtraction, the completion time
//! `last + w / rate * 1e6`) is what the simulated results are made of:
//! `tests/sim_golden.rs` pins digests of whole simulations, and
//! `tests/ps_machine_model.rs` checks this type bit for bit against the
//! `BTreeMap` implementation, the id-ordered vectors and the flat
//! work-ordered vectors it replaced, including the id `next_completion`
//! names (the lowest among the smallest work) and ties made on purpose.
//! `next_completion` divides once, on the smallest remaining work,
//! rather than once per job: `w / rate * 1e6` then `last + _` are
//! monotone in `w`, so the smallest work gives the smallest time and
//! the same bits.

/// Identifies a job in the simulation. A machine keeps one bit per id
/// up to the largest it has held, so ids are small integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Remaining work (ms) at or below which a job counts as finished: the
/// completion time is rounded to the clock's resolution, so a job can
/// reach its completion event with a few ulps of work left.
pub const DONE_EPS_MS: f64 = 1e-9;

/// A run of jobs with the same remaining work (bit for bit), adjacent
/// in `PsMachine::ids`.
#[derive(Debug, Clone, Copy)]
struct Run {
    work: f64,
    jobs: usize,
    /// The lowest id among the run's jobs.
    least: JobId,
}

/// A processor-sharing multi-core machine.
///
/// Work is measured in *milliseconds of dedicated-core time*; wall-clock
/// progress depends on instantaneous load.
#[derive(Debug, Clone)]
pub struct PsMachine {
    /// Human-readable name ("x86", "arm").
    pub name: &'static str,
    cores: f64,
    /// Runnable jobs, in work order, largest first; ties in the order
    /// they were added.
    ids: Vec<JobId>,
    /// The remaining work of `ids`, run-length encoded: the first run's
    /// `jobs` ids have its `work`, and so on. Non-increasing, and no
    /// two neighbours hold the same bits.
    runs: Vec<Run>,
    /// Bit `id % 64` of word `id / 64` is set while `id` is in `ids`.
    present: Vec<u64>,
    /// `min(1, cores / load)`, or 0 when idle; set on every membership
    /// change.
    rate: f64,
    last_ns: f64,
    generation: u64,
}

impl PsMachine {
    /// A machine with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(name: &'static str, cores: u32) -> PsMachine {
        assert!(cores > 0);
        PsMachine {
            name,
            cores: cores as f64,
            ids: Vec::new(),
            runs: Vec::new(),
            present: Vec::new(),
            rate: 0.0,
            last_ns: 0.0,
            generation: 0,
        }
    }

    /// Number of runnable jobs (the paper's CPU-load metric).
    pub fn load(&self) -> usize {
        self.ids.len()
    }

    /// Core count.
    pub fn cores(&self) -> u32 {
        self.cores as u32
    }

    /// Current per-job progress rate (fraction of a dedicated core).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Monotone counter bumped on every membership change; used to
    /// invalidate stale completion events.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records a membership change: a new generation and rate.
    fn changed(&mut self) {
        self.generation += 1;
        self.rate =
            if self.ids.is_empty() { 0.0 } else { (self.cores / self.ids.len() as f64).min(1.0) };
    }

    /// Advances all jobs' remaining work to `now_ns`.
    pub fn advance(&mut self, now_ns: f64) {
        if now_ns <= self.last_ns {
            return;
        }
        let progressed_ms = (now_ns - self.last_ns) / 1e6 * self.rate;
        if progressed_ms > 0.0 {
            // The map is monotone, so the runs stay in order; runs it
            // makes bit-equal merge into the first.
            let mut kept = 0;
            for i in 0..self.runs.len() {
                let Run { work, jobs, least } = self.runs[i];
                let work = (work - progressed_ms).max(0.0);
                if kept > 0 && self.runs[kept - 1].work.to_bits() == work.to_bits() {
                    let prev = &mut self.runs[kept - 1];
                    prev.jobs += jobs;
                    prev.least = prev.least.min(least);
                } else {
                    self.runs[kept] = Run { work, jobs, least };
                    kept += 1;
                }
            }
            self.runs.truncate(kept);
        }
        self.last_ns = now_ns;
    }

    /// Adds `work_ms` of dedicated-core work for `id` at `now_ns`.
    ///
    /// # Panics
    ///
    /// Panics if the job is already present.
    pub fn add(&mut self, id: JobId, work_ms: f64, now_ns: f64) {
        self.advance(now_ns);
        let (word, bit) = bit_of(id);
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
        assert!(self.present[word] & bit == 0, "job {id:?} already on {}", self.name);
        self.present[word] |= bit;
        let work = work_ms.max(0.0);
        // After any equal work: a bed of ties is appended to, not
        // shifted. The ids after it are counted from the tail, where
        // the small works are.
        let r = self.runs.partition_point(|run| run.work >= work);
        let after: usize = self.runs[r..].iter().map(|run| run.jobs).sum();
        self.ids.insert(self.ids.len() - after, id);
        match r.checked_sub(1).map(|k| &mut self.runs[k]) {
            Some(run) if run.work.to_bits() == work.to_bits() => {
                run.jobs += 1;
                run.least = run.least.min(id);
            }
            _ => self.runs.insert(r, Run { work, jobs: 1, least: id }),
        }
        self.changed();
    }

    /// Position of `id` in `ids`, the index of its run and where that
    /// run starts in `ids`, all searched from the tail, where the jobs
    /// about to be removed are.
    fn position(&self, id: JobId) -> Option<(usize, usize, usize)> {
        let (word, bit) = bit_of(id);
        if self.present.get(word).is_none_or(|w| w & bit == 0) {
            return None;
        }
        let at = self.ids.iter().rposition(|&j| j == id)?;
        let mut start = self.ids.len();
        for (r, run) in self.runs.iter().enumerate().rev() {
            start -= run.jobs;
            if start <= at {
                return Some((at, r, start));
            }
        }
        unreachable!("the runs cover every id")
    }

    /// Removes `id` (e.g. on completion or blocking), returning its
    /// remaining work.
    pub fn remove(&mut self, id: JobId, now_ns: f64) -> Option<f64> {
        self.advance(now_ns);
        let (at, r, start) = self.position(id)?;
        let (word, bit) = bit_of(id);
        self.present[word] &= !bit;
        self.ids.remove(at);
        let run = &mut self.runs[r];
        let work = run.work;
        run.jobs -= 1;
        if run.jobs == 0 {
            self.runs.remove(r);
            // Its neighbours can hold the same bits only if it was a
            // zero of the other sign between them.
            if r > 0
                && r < self.runs.len()
                && self.runs[r - 1].work.to_bits() == self.runs[r].work.to_bits()
            {
                let next = self.runs.remove(r);
                let prev = &mut self.runs[r - 1];
                prev.jobs += next.jobs;
                prev.least = prev.least.min(next.least);
            }
        } else if run.least == id {
            run.least = *self.ids[start..start + run.jobs].iter().min().expect("the run has jobs");
        }
        self.changed();
        Some(work)
    }

    /// Remaining dedicated-core work of `id`, if present.
    pub fn remaining(&self, id: JobId) -> Option<f64> {
        self.position(id).map(|(_, r, _)| self.runs[r].work)
    }

    /// Where the tail of `ids` whose work satisfies `pred` starts (a
    /// suffix, as the work is non-increasing and `pred` holds at and
    /// below some bound).
    fn tail_start(&self, pred: impl Fn(f64) -> bool) -> usize {
        let tail: usize =
            self.runs.iter().rev().take_while(|run| pred(run.work)).map(|run| run.jobs).sum();
        self.ids.len() - tail
    }

    /// Replaces the contents of `done` with the jobs with at most
    /// [`DONE_EPS_MS`] of work left, in ascending id order.
    pub fn finished(&self, done: &mut Vec<JobId>) {
        done.clear();
        done.extend_from_slice(&self.ids[self.tail_start(|w| w <= DONE_EPS_MS)..]);
        done.sort_unstable();
    }

    /// The next job to finish and its absolute completion time, given
    /// the current membership, or `None` if idle. Among jobs with equal
    /// remaining work the lowest id is named.
    pub fn next_completion(&self) -> Option<(JobId, f64)> {
        let least = self.runs.last()?.work;
        let tail = self.runs.iter().rev().take_while(|run| run.work == least);
        let id = tail.map(|run| run.least).min()?;
        Some((id, self.last_ns + least / self.rate * 1e6))
    }
}

/// The word of `PsMachine::present` holding `id`'s bit, and the bit.
fn bit_of(id: JobId) -> (usize, u64) {
    let word = usize::try_from(id.0 / 64).expect("job ids are small integers");
    (word, 1 << (id.0 % 64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_jobs_run_at_full_rate() {
        let mut m = PsMachine::new("x86", 6);
        m.add(JobId(1), 100.0, 0.0);
        m.add(JobId(2), 50.0, 0.0);
        assert_eq!(m.rate(), 1.0);
        let (id, t) = m.next_completion().unwrap();
        assert_eq!(id, JobId(2));
        assert!((t - 50e6).abs() < 1.0);
    }

    #[test]
    fn overload_slows_everyone() {
        let mut m = PsMachine::new("x86", 2);
        for i in 0..4 {
            m.add(JobId(i), 100.0, 0.0);
        }
        assert_eq!(m.rate(), 0.5);
        let (_, t) = m.next_completion().unwrap();
        assert!((t - 200e6).abs() < 1.0, "100ms at rate 0.5 = 200ms wall");
    }

    #[test]
    fn advance_accumulates_progress() {
        let mut m = PsMachine::new("x86", 1);
        m.add(JobId(1), 100.0, 0.0);
        m.add(JobId(2), 100.0, 0.0); // rate 0.5
        m.advance(100e6); // 100ms wall → 50ms progress each
        assert!((m.remaining(JobId(1)).unwrap() - 50.0).abs() < 1e-6);
        // Remove one: rate back to 1.0.
        m.remove(JobId(2), 100e6);
        let (_, t) = m.next_completion().unwrap();
        assert!((t - 150e6).abs() < 1.0);
    }

    #[test]
    fn generation_bumps_on_membership_change() {
        let mut m = PsMachine::new("x86", 1);
        let g0 = m.generation();
        m.add(JobId(1), 1.0, 0.0);
        assert!(m.generation() > g0);
        let g1 = m.generation();
        m.advance(0.5e6);
        assert_eq!(m.generation(), g1, "advance alone must not invalidate");
        m.remove(JobId(1), 0.5e6);
        assert!(m.generation() > g1);
    }

    #[test]
    fn removal_returns_remaining_work() {
        let mut m = PsMachine::new("x86", 1);
        m.add(JobId(7), 80.0, 0.0);
        let w = m.remove(JobId(7), 30e6).unwrap();
        assert!((w - 50.0).abs() < 1e-6);
        assert_eq!(m.remove(JobId(7), 30e6), None);
        assert_eq!(m.load(), 0);
    }

    #[test]
    fn finished_lists_jobs_within_epsilon_in_id_order() {
        let mut m = PsMachine::new("x86", 4);
        m.add(JobId(9), 10.0, 0.0);
        m.add(JobId(3), 10.0, 0.0);
        m.add(JobId(5), 20.0, 0.0);
        m.add(JobId(1), 10.0 + 0.5e-9, 0.0);
        let mut done = Vec::new();
        m.finished(&mut done);
        assert!(done.is_empty());
        m.advance(10e6);
        m.finished(&mut done);
        assert_eq!(done, [JobId(1), JobId(3), JobId(9)]);
        assert_eq!(m.next_completion().unwrap().0, JobId(3), "lowest id among equal work");
    }

    /// `advance` keeps the work order but can tie jobs it held apart;
    /// the tail is then not the lowest id, and the lowest id is named.
    #[test]
    fn ties_made_by_advance_still_name_the_lowest_id() {
        let mut m = PsMachine::new("x86", 1);
        m.add(JobId(2), 2.0, 0.0);
        m.add(JobId(8), 1.0, 0.0);
        m.add(JobId(5), 9.0, 0.0);
        assert_eq!(m.next_completion().unwrap().0, JobId(8));
        // Rate 1/3: 9 ms of wall time is 3 ms of work, past both.
        m.advance(9e6);
        assert_eq!(m.remaining(JobId(2)), Some(0.0));
        assert_eq!(m.remaining(JobId(8)), Some(0.0));
        assert_eq!(m.next_completion().unwrap().0, JobId(2));
        let mut done = Vec::new();
        m.finished(&mut done);
        assert_eq!(done, [JobId(2), JobId(8)]);
        assert_eq!(m.remove(JobId(8), 9e6), Some(0.0));
        assert_eq!(m.next_completion().unwrap().0, JobId(2));
    }

    #[test]
    #[should_panic(expected = "already on x86")]
    fn adding_a_present_job_panics() {
        let mut m = PsMachine::new("x86", 1);
        m.add(JobId(1), 5.0, 0.0);
        m.add(JobId(2), 1.0, 0.0);
        m.add(JobId(1), 3.0, 0.0);
    }

    /// What `cluster`'s slack guard exists for: late enough, a residue
    /// above the done threshold finishes at a time that rounds to the
    /// current one, so advancing to it changes nothing.
    #[test]
    fn completion_time_can_round_to_the_current_time() {
        let mut m = PsMachine::new("x86", 1);
        m.add(JobId(0), 1.5e-9, 2e13);
        let (_, t) = m.next_completion().unwrap();
        assert_eq!(t, 2e13);
        m.advance(t);
        assert_eq!(m.remaining(JobId(0)), Some(1.5e-9));
        let mut done = vec![JobId(7)];
        m.finished(&mut done);
        assert!(done.is_empty(), "the buffer is replaced, not appended to");
        // Early in the run the same residue is a representable wait.
        let mut early = PsMachine::new("x86", 1);
        early.add(JobId(0), 1.5e-9, 1e9);
        assert!(early.next_completion().unwrap().1 > 1e9);
    }
}
