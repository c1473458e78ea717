//! Thread placement. The socket workloads run two closed-loop clients
//! against two daemon workers on (typically) two vCPUs. When a client
//! shares a vCPU with the worker serving its connection, a round trip is
//! two context switches, ~7.5 µs; when it does not, every hop is a
//! cross-vCPU wake-up, ~47 µs. Left to the host scheduler the four
//! threads drift between the two for seconds at a time (250 k decides/s
//! and p99 18 µs fall to 160–180 k/s and 28–35 µs; a call cycle doubles
//! to 1.1 ms), so identical runs disagreed by a third on the tail.
//!
//! The benchmark therefore fixes the placement. Every worker of a daemon
//! it spawns gets a CPU of its own, of those this process is allowed;
//! every load-generator connection is [`Homed`]: once connected it times
//! a few pings from each of those CPUs, and the thread that drives it
//! pins itself to the fastest — the one its worker is on — whichever
//! way the acceptor dealt the connections out. The daemon's source is
//! untouched; its workers are found by thread name under
//! `/proc/self/task`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;
/// `xar-sched-worker-<w>`, as the kernel truncates it to 15 bytes.
const WORKER_COMM: &str = "xar-sched-worke";

/// The CPUs the calling thread may run on now.
fn current() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// The CPUs the process may run on: the first caller's, before anything
/// was pinned.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(current)
}

/// Restricts thread `tid` (0: the caller) to `cpus`. Best effort: where
/// the kernel refuses, the run goes on unpinned and says so.
fn restrict(tid: i32, cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let ok =
        !cpus.is_empty() && unsafe { sched_setaffinity(tid, MASK_WORDS * 8, mask.as_ptr()) == 0 };
    if !ok {
        static WARNED: OnceLock<()> = OnceLock::new();
        WARNED.get_or_init(|| eprintln!("# affinity: cannot pin threads; placement is the host's"));
    }
}

/// Thread ids of every live daemon worker in this process.
pub fn worker_tids() -> Vec<i32> {
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
    tasks
        .filter_map(|task| {
            let tid: i32 = task.file_name().to_str()?.parse().ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            comm.starts_with(WORKER_COMM).then_some(tid)
        })
        .collect()
}

/// Pins thread `tid` to the `index`-th allowed CPU, wrapping round.
fn pin(tid: i32, index: usize) {
    let cpus = allowed();
    let cpu = cpus.get(index % cpus.len().max(1)).copied();
    restrict(tid, cpu.as_slice());
}

/// Gives each of the `workers` workers a daemon spawn just added (those
/// not in `before`) a CPU of its own. Which worker gets which does not
/// matter: the clients find theirs. A thread names itself as it starts,
/// so the newest may take a moment to show up under its name.
pub fn pin_new_workers(before: &[i32], workers: usize) {
    let deadline = Instant::now() + Duration::from_millis(200);
    let new = loop {
        let new: Vec<i32> = worker_tids().into_iter().filter(|t| !before.contains(t)).collect();
        if new.len() >= workers || Instant::now() >= deadline {
            break new;
        }
        std::thread::yield_now();
    };
    if new.len() != workers {
        eprintln!("# affinity: found {} of {workers} daemon workers to pin", new.len());
    }
    for (index, tid) in new.into_iter().enumerate() {
        pin(tid, index);
    }
}

/// A load-generator connection and the CPU its daemon worker runs on.
pub struct Homed<C> {
    pub client: C,
    home: usize,
}

impl<C> Homed<C> {
    /// Round trips timed from each CPU, after as many discarded.
    const PROBES: usize = 48;

    /// Times `roundtrip` on `client` from each of the `workers` CPUs the
    /// daemon's workers were given and keeps the one with the lowest
    /// median (6x apart, so never a close call). Runs on the calling
    /// thread, which is left free to run anywhere again.
    pub fn find(mut client: C, workers: usize, mut roundtrip: impl FnMut(&mut C)) -> Homed<C> {
        let mut best = (u128::MAX, 0);
        for index in 0..workers.min(allowed().len()) {
            pin(0, index);
            let mut ns: Vec<u128> = (0..2 * Self::PROBES)
                .map(|_| {
                    let start = Instant::now();
                    roundtrip(&mut client);
                    start.elapsed().as_nanos()
                })
                .skip(Self::PROBES)
                .collect();
            ns.sort_unstable();
            best = best.min((ns[ns.len() / 2], index));
        }
        restrict(0, allowed());
        Homed { client, home: best.1 }
    }

    /// Pins the calling thread beside the connection's worker and hands
    /// the connection out; a load-generator thread calls it once a block.
    pub fn enter(&mut self) -> &mut C {
        pin(0, self.home);
        &mut self.client
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_leaves_the_thread_free_and_enter_pins_it() {
        let all = allowed();
        std::thread::spawn(move || {
            let mut calls = 0;
            let mut homed = Homed::find((), 2, |()| calls += 1);
            assert_eq!(calls, 2 * Homed::<()>::PROBES * all.len().min(2));
            assert_eq!(current(), all);
            homed.enter();
            assert_eq!(current(), [all[homed.home]]);
        })
        .join()
        .expect("pinning works in this sandbox");
    }
}
