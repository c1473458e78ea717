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
//! The runnable set is two parallel vectors sorted by [`JobId`]: `ids`
//! and the remaining `work` of each. [`PsMachine::advance`] — run on
//! every event that touches the machine — is one straight pass of
//! `w = (w - p).max(0.0)` over `work`; `add`, `remove` and `remaining`
//! are a binary search (plus a shift of the tail on a membership
//! change); [`PsMachine::next_completion`] and [`PsMachine::finished`]
//! are one pass each. Nothing allocates once the vectors have grown to
//! the machine's peak load.
//!
//! The machine, not its caller, says which jobs are done:
//! [`PsMachine::finished`] yields the jobs within [`DONE_EPS_MS`] of
//! zero in ascending id order, so a completion event costs the
//! machine's own load, however many jobs the simulation holds elsewhere.
//!
//! # The arithmetic is pinned
//!
//! Every `f64` operation here (the progress `(now - last) / 1e6 * rate`,
//! the clamped subtraction, the completion time
//! `last + w / rate * 1e6`) is what the simulated results are made of:
//! `tests/sim_golden.rs` pins digests of whole simulations, and
//! `tests/ps_machine_model.rs` checks this type bit for bit against the
//! `BTreeMap` implementation it replaced. `next_completion` divides once,
//! on the smallest remaining work, rather than once per job: `w / rate *
//! 1e6` then `last + _` are monotone in `w`, so the smallest work gives
//! the smallest time and the same bits.

/// Identifies a job in the simulation.
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
    /// Runnable jobs, ascending.
    ids: Vec<JobId>,
    /// `work[i]` is the remaining work of `ids[i]`.
    work: Vec<f64>,
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
        match self.ids.binary_search(&id) {
            Ok(_) => panic!("job {id:?} already on {}", self.name),
            Err(at) => {
                self.ids.insert(at, id);
                self.work.insert(at, work_ms.max(0.0));
            }
        }
        self.generation += 1;
    }

    /// Removes `id` (e.g. on completion or blocking), returning its
    /// remaining work.
    pub fn remove(&mut self, id: JobId, now_ns: f64) -> Option<f64> {
        self.advance(now_ns);
        let at = self.ids.binary_search(&id).ok()?;
        self.ids.remove(at);
        self.generation += 1;
        Some(self.work.remove(at))
    }

    /// Remaining dedicated-core work of `id`, if present.
    pub fn remaining(&self, id: JobId) -> Option<f64> {
        self.ids.binary_search(&id).ok().map(|at| self.work[at])
    }

    /// The jobs with at most [`DONE_EPS_MS`] of work left, in ascending
    /// id order.
    pub fn finished(&self) -> impl Iterator<Item = JobId> + '_ {
        self.ids.iter().zip(&self.work).filter(|(_, w)| **w <= DONE_EPS_MS).map(|(id, _)| *id)
    }

    /// The next job to finish and its absolute completion time, given
    /// the current membership, or `None` if idle. Among jobs with equal
    /// remaining work the lowest id is named.
    pub fn next_completion(&self) -> Option<(JobId, f64)> {
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
        assert_eq!(m.finished().count(), 0);
        m.advance(10e6);
        assert_eq!(m.finished().collect::<Vec<_>>(), [JobId(1), JobId(3), JobId(9)]);
        assert_eq!(m.next_completion().unwrap().0, JobId(3), "lowest id among equal work");
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
        assert_eq!(m.finished().count(), 0);
        // Early in the run the same residue is a representable wait.
        let mut early = PsMachine::new("x86", 1);
        early.add(JobId(0), 1.5e-9, 1e9);
        assert!(early.next_completion().unwrap().1 > 1e9);
    }
}
