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
//! The runnable set is two parallel vectors ordered by remaining work,
//! largest first: `ids` and the `work` of each. The next job to finish
//! and the finished ones therefore sit at the tail.
//!
//! * [`PsMachine::advance`] — run on every event that touches the
//!   machine — is one straight pass of `w = (w - p).max(0.0)` over
//!   `work`. That map is monotone (IEEE subtraction rounds
//!   monotonically, and so does `max`), so it never reorders the set; it
//!   can only make neighbours equal.
//! * [`PsMachine::next_completion`] reads the tail and scans only the
//!   run of equal work there, for its lowest id. The run is one job wide
//!   unless jobs tie exactly (a bed of identical background jobs does).
//! * [`PsMachine::finished`] copies the tail run within [`DONE_EPS_MS`]
//!   of zero into the caller's buffer and sorts it by id.
//! * `add` is a binary search on work. Its duplicate-id check reads a
//!   bitset of the ids present, one bit per id up to the largest added
//!   (the simulator hands ids out 0, 1, 2, …), rather than a pass over
//!   `ids`, which at a hundred-odd runnable jobs cost a tenth of a
//!   simulation's host time.
//! * `remove` and `remaining` search `ids` from the tail, where finished
//!   jobs are, so removing one moves nothing; an absent id is answered
//!   by the bitset.
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
//! `BTreeMap` implementation and the id-ordered vectors it replaced,
//! including the id `next_completion` names (the lowest among the
//! smallest work). `next_completion` divides once, on the smallest
//! remaining work, rather than once per job: `w / rate * 1e6` then
//! `last + _` are monotone in `w`, so the smallest work gives the
//! smallest time and the same bits.

/// Identifies a job in the simulation. A machine keeps one bit per id
/// up to the largest it has held, so ids are small integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Remaining work (ms) at or below which a job counts as finished: the
/// completion time is rounded to the clock's resolution, so a job can
/// reach its completion event with a few ulps of work left.
pub const DONE_EPS_MS: f64 = 1e-9;

/// A processor-sharing multi-core machine.
///
/// Work is measured in *milliseconds of dedicated-core time*; wall-clock
/// progress depends on instantaneous load.
#[derive(Debug, Clone)]
pub struct PsMachine {
    /// Human-readable name ("x86", "arm").
    pub name: &'static str,
    cores: f64,
    /// Runnable jobs, in `work` order; ties in no particular order.
    ids: Vec<JobId>,
    /// `work[i]` is the remaining work of `ids[i]`; non-increasing.
    work: Vec<f64>,
    /// Bit `id % 64` of word `id / 64` is set while `id` is in `ids`.
    present: Vec<u64>,
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
            work: Vec::new(),
            present: Vec::new(),
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
        if self.ids.is_empty() {
            0.0
        } else {
            (self.cores / self.ids.len() as f64).min(1.0)
        }
    }

    /// Monotone counter bumped on every membership change; used to
    /// invalidate stale completion events.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Advances all jobs' remaining work to `now_ns`.
    pub fn advance(&mut self, now_ns: f64) {
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
        // After any equal work: a bed of ties is appended to, not shifted.
        let at = self.work.partition_point(|&w| w >= work);
        self.ids.insert(at, id);
        self.work.insert(at, work);
        self.generation += 1;
    }

    /// Position of `id`, searched from the tail, where the jobs about to
    /// be removed are.
    fn position(&self, id: JobId) -> Option<usize> {
        let (word, bit) = bit_of(id);
        if self.present.get(word).is_none_or(|w| w & bit == 0) {
            return None;
        }
        self.ids.iter().rposition(|&j| j == id)
    }

    /// Removes `id` (e.g. on completion or blocking), returning its
    /// remaining work.
    pub fn remove(&mut self, id: JobId, now_ns: f64) -> Option<f64> {
        self.advance(now_ns);
        let at = self.position(id)?;
        let (word, bit) = bit_of(id);
        self.present[word] &= !bit;
        self.ids.remove(at);
        self.generation += 1;
        Some(self.work.remove(at))
    }

    /// Remaining dedicated-core work of `id`, if present.
    pub fn remaining(&self, id: JobId) -> Option<f64> {
        self.position(id).map(|at| self.work[at])
    }

    /// Where the tail run of work satisfying `pred` starts (a suffix, as
    /// `work` is non-increasing and `pred` holds at and below some bound).
    fn tail_start(&self, pred: impl Fn(f64) -> bool) -> usize {
        self.work.len() - self.work.iter().rev().take_while(|&&w| pred(w)).count()
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
        let rate = self.rate();
        let &least = self.work.last()?;
        let id = self.ids[self.tail_start(|w| w == least)..].iter().min()?;
        Some((*id, self.last_ns + least / rate * 1e6))
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
