//! The cluster simulator: x86 host + ARM server + FPGA card + policy.
//!
//! Reproduces the paper's run-time behaviour end to end: applications
//! launch on the x86 host, an instrumentation hook may pre-configure the
//! FPGA, and before every selected-function call the policy (scheduler
//! server) picks a target. x86/ARM execution contends under processor
//! sharing; ARM migration pays state transformation plus an Ethernet
//! round trip; FPGA execution pays PCIe transfers and queues on the
//! device; reconfigurations overlap CPU execution (Algorithm 2).
//!
//! # Cost per event
//!
//! An event costs what it touches, not what the simulation holds. A
//! thousand jobs parked on the FPGA queue or the ARM server cost an x86
//! completion nothing:
//!
//! * **Jobs** live in a slab indexed by [`JobId`] (ids are handed out
//!   0, 1, 2, …), and a job names its [`JobSpec`] by the index of its
//!   arrival — no hashing, and no spec or name is cloned per arrival,
//!   decision or call (a finished job's name is copied once, into its
//!   [`JobRecord`]).
//! * **Machine completions** ask the machine, which keeps its runnable
//!   set ordered by remaining work: [`PsMachine::finished`] copies the
//!   done end of that set into the `done` scratch, sorted by id, and
//!   [`PsMachine::next_completion`] reads the same end, so neither scans
//!   the machine's load. That set *is* the phase filter: a job is added to
//!   a machine right after its phase is set to one that runs there
//!   (`PreX86`/`PerCallPre`/`FuncX86`/`PostX86` on x86, `ArmRun` on ARM)
//!   and removed before the phase changes, so membership ⇔ phase, and
//!   `job_phase_done` still panics on a mismatch.
//! * **Simultaneous completions** are processed in ascending id order:
//!   each one reports to the policy and may re-enter the machine, so the
//!   order is part of the simulated result, and it has to be a property
//!   of the model rather than of a container's iteration order.
//! * **Arrivals** are adopted, not copied: the first `run` keeps the
//!   caller's vector as the simulator's own, and a later `run` appends
//!   to it (a background job can outlive the run that launched it).
//! * **Events** pop in `(time, sequence)` order out of five sources:
//!   the arrivals, sorted once per `run`; one slot per machine holding
//!   the latest completion event scheduled for it; and one queue of
//!   timers per serving resource, the Ethernet link (`ArmOutDone`,
//!   `ArmBackDone`) and the FPGA (`FpgaDone`). A machine's
//!   slot is overwritten on every reschedule, which drops nothing that
//!   would have acted: the event it replaces is either stale (the
//!   machine's generation has moved on, so it would have been ignored)
//!   or its own duplicate (same generation, hence same time, and the next
//!   sequence number — only the end of `on_machine_done` reschedules
//!   without a membership change, straight after the last `machine_add`).
//!   Every reschedule still takes a sequence number, so every event that
//!   remains keeps the one it would have had.
//! * **A timer leaves in the order its server finishes it.** A timer
//!   queue is a deque in key order, and a push is an append whenever its
//!   key is above the back's — which is always, for both servers as the
//!   paper has them: the FPGA is one serial device (a job starts no
//!   earlier than the busy-until time the one before it set, and that
//!   time only grows), and the shared 1 Gbps link serializes every
//!   transfer the same way; equal times are ordered by the sequence
//!   number, which only grows too. Only
//!   the `serialize_ethernet: false` ablation, where each transfer has a
//!   private link and a short one can finish before a long one, lands a
//!   push below the back; it is inserted at its key's place, so the
//!   queue is an exact priority queue for any push order.
//! * **A configuration is shared, not copied.** Each registered XCLBIN
//!   is one `Arc`, mapped from each of its kernels; a reconfiguration
//!   hands the device a clone of that `Arc`, a reference-count bump.
//! * **The order is one integer.** An event's `(time, sequence)` pair
//!   becomes a `u128` key once, when the event is made: the time's bits
//!   mapped to a total order (`-0.0` folded into `+0.0`, as `==` has
//!   it) above the sequence number. The arrival sort, the timer queues
//!   and the compare of the five heads then compare integers, not
//!   `f64::partial_cmp().unwrap()`, in exactly the old order; a NaN
//!   time panics where its event is made. The time is read back from
//!   the key when the event pops, so an entry a queue moves is 32
//!   bytes: the key and the event.
//!
//! # The slack guard
//!
//! A completion time is rounded to the clock's resolution, so a job can
//! meet its completion event with a residue of work above the done
//! threshold; the event is then simply scheduled again. Past 2^44 ns
//! (~4.9 simulated hours) the clock's ulp exceeds what a nanosecond-scale
//! residue needs, the rescheduled time equals `now`, and advancing to it
//! changes nothing. When nothing is done and the next completion is not
//! after `now`, `on_machine_done` therefore completes that next job
//! instead of waiting for a time that cannot be represented.
//!
//! # The arithmetic is pinned
//!
//! Every simulated statistic is a function of the `f64` operations here
//! and in [`crate::machine`] and of the `(time, sequence)` event order.
//! `tests/sim_golden.rs` (workspace root) pins digests of whole
//! simulations generated before this representation existed: a faster
//! simulator must leave them alone.

use crate::machine::{JobId, PsMachine};
use crate::policy::{CompletionReport, DecideCtx, Decision, Policy, Target};
use crate::workload::{Arrival, JobSpec};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use xar_hls::{FpgaDevice, Xclbin};

/// Cluster configuration (defaults to the paper's testbed).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// x86 host cores (Xeon Bronze 3104: 6).
    pub x86_cores: u32,
    /// ARM server cores (ThunderX: 96).
    pub arm_cores: u32,
    /// Ethernet bandwidth in bytes/ns (1 Gbps = 0.125).
    pub eth_bytes_per_ns: f64,
    /// Ethernet per-message latency in ns.
    pub eth_latency_ns: f64,
    /// Cross-ISA state transformation cost per migration, ms.
    pub state_xform_ms: f64,
    /// Scheduler client↔server round trip, ms (localhost sockets).
    pub sched_rtt_ms: f64,
    /// Serialize migration transfers on the shared Ethernet link
    /// (true models the paper's shared 1 Gbps channel; false gives each
    /// transfer a private link — an ablation knob).
    pub serialize_ethernet: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            x86_cores: 6,
            arm_cores: 96,
            eth_bytes_per_ns: 0.125,
            eth_latency_ns: 50_000.0,
            state_xform_ms: 0.4,
            sched_rtt_ms: 0.2,
            serialize_ethernet: true,
        }
    }
}

impl ClusterConfig {
    /// Ethernet transfer time for `bytes`, ns.
    pub fn eth_ns(&self, bytes: u64) -> f64 {
        self.eth_latency_ns + bytes as f64 / self.eth_bytes_per_ns
    }
}

/// Per-job outcome.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Benchmark name.
    pub name: String,
    /// Arrival time, ns.
    pub arrival_ns: f64,
    /// Completion time, ns.
    pub end_ns: f64,
    /// Selected-function calls completed (throughput metric).
    pub calls_completed: u32,
    /// Calls executed on x86.
    pub x86_calls: u32,
    /// Calls executed on ARM.
    pub arm_calls: u32,
    /// Calls executed on the FPGA.
    pub fpga_calls: u32,
}

impl JobRecord {
    /// Wall-clock execution time, ms.
    pub fn elapsed_ms(&self) -> f64 {
        (self.end_ns - self.arrival_ns) / 1e6
    }
}

/// Result of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completed (non-background) jobs, in completion order.
    pub records: Vec<JobRecord>,
    /// FPGA device statistics.
    pub fpga_stats: xar_hls::device::DeviceStats,
    /// Simulation end time, ns.
    pub end_ns: f64,
}

impl SimResult {
    /// Mean execution time of completed jobs, ms.
    pub fn mean_exec_ms(&self) -> f64 {
        crate::stats::mean(self.records.iter().map(|r| r.elapsed_ms()))
    }

    /// Total calls completed across jobs (throughput numerator).
    pub fn total_calls(&self) -> u64 {
        self.records.iter().map(|r| r.calls_completed as u64).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MKind {
    X86,
    Arm,
}

// The shared "Done" suffix is the point: each variant names which
// completion the timer signals.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy)]
enum TimerKind {
    ArmOutDone,
    ArmBackDone,
    FpgaDone,
}

impl TimerKind {
    /// The index of the queue this timer waits in: its serving resource,
    /// 0 for the Ethernet link, 1 for the FPGA.
    fn server(self) -> usize {
        match self {
            TimerKind::ArmOutDone | TimerKind::ArmBackDone => 0,
            TimerKind::FpgaDone => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(usize),
    MachineDone { m: MKind, gen: u64 },
    Timer { job: JobId, kind: TimerKind },
}

struct EvEntry {
    /// The event's time and sequence number: see [`event_key`].
    key: u128,
    ev: Ev,
}

/// An event time and sequence number as one integer that orders as
/// `t.partial_cmp(..)` then `seq` did: `t`'s bits mapped to a total
/// order (negative times' bits reversed, positive ones' above them),
/// with `-0.0` folded into `+0.0`, above `seq`. No key is `u128::MAX`:
/// that would be a NaN's.
///
/// # Panics
///
/// Panics if `t` is NaN.
fn event_key(t: f64, seq: u64) -> u128 {
    assert!(!t.is_nan(), "event time is NaN");
    let bits = if t == 0.0 { 0 } else { t.to_bits() };
    let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    u128::from(ordered) << 64 | u128::from(seq)
}

/// The time [`event_key`] was given, `-0.0` returned as `+0.0`.
fn event_time(key: u128) -> f64 {
    let ordered = (key >> 64) as u64;
    f64::from_bits(if ordered >> 63 == 1 { ordered & !(1 << 63) } else { !ordered })
}

/// Puts `e` into `queue`, which is in ascending key order, at its
/// key's place: an append when its key is above the back's (module
/// docs, "A timer leaves in the order its server finishes it").
fn push_in_key_order(queue: &mut VecDeque<EvEntry>, e: EvEntry) {
    if queue.back().is_none_or(|b| b.key < e.key) {
        queue.push_back(e);
    } else {
        let at = queue.partition_point(|x| x.key < e.key);
        queue.insert(at, e);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    PreX86,
    PerCallPre,
    FuncX86,
    ArmRun,
    PostX86,
}

struct Job {
    /// Index of the arrival whose spec this job runs.
    arrival: usize,
    arrival_ns: f64,
    phase: Phase,
    calls_done: u32,
    call_start_ns: f64,
    x86_calls: u32,
    arm_calls: u32,
    fpga_calls: u32,
    fpga_called: bool,
    deadline_ns: Option<f64>,
}

/// The simulator. Owns the machines, the FPGA, and the policy.
pub struct ClusterSim<P: Policy> {
    cfg: ClusterConfig,
    policy: P,
    fpga: FpgaDevice,
    xclbin_for_kernel: HashMap<String, Arc<Xclbin>>,
    x86: PsMachine,
    arm: PsMachine,
    /// Arrivals not yet due, latest first: the next one is `last()`.
    pending: Vec<EvEntry>,
    /// The latest completion event scheduled for each machine, by
    /// `MKind`.
    machine_ev: [Option<EvEntry>; 2],
    /// Timers in key order, one queue per serving resource: see
    /// [`TimerKind::server`].
    timers: [VecDeque<EvEntry>; 2],
    seq: u64,
    /// Every arrival of every `run` so far: `Ev::Arrival` and
    /// `Job::arrival` index it, and a background job can outlive the
    /// `run` that launched it.
    arrivals: Vec<Arrival>,
    /// Indexed by `JobId`; `None` once the job has finished.
    jobs: Vec<Option<Job>>,
    now: f64,
    /// The shared Ethernet link is busy until this time (migration
    /// state transfers serialize on the 1 Gbps link, §3.1: "since this
    /// channel is shared among all the running processes").
    eth_busy_until: f64,
    real_remaining: usize,
    records: Vec<JobRecord>,
    /// Scratch for `on_machine_done`, kept for its capacity.
    done: Vec<JobId>,
}

impl<P: Policy> ClusterSim<P> {
    /// Creates a simulator with the paper's FPGA (Alveo U50) and the
    /// given policy.
    pub fn new(cfg: ClusterConfig, policy: P) -> Self {
        Self::with_fpga(cfg, policy, FpgaDevice::alveo_u50())
    }

    /// Creates a simulator with a custom FPGA device.
    pub fn with_fpga(cfg: ClusterConfig, policy: P, fpga: FpgaDevice) -> Self {
        let x86 = PsMachine::new("x86", cfg.x86_cores);
        let arm = PsMachine::new("arm", cfg.arm_cores);
        ClusterSim {
            cfg,
            policy,
            fpga,
            xclbin_for_kernel: HashMap::new(),
            x86,
            arm,
            pending: Vec::new(),
            machine_ev: [None, None],
            timers: [VecDeque::new(), VecDeque::new()],
            seq: 0,
            arrivals: Vec::new(),
            jobs: Vec::new(),
            now: 0.0,
            eth_busy_until: 0.0,
            real_remaining: 0,
            records: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Registers an XCLBIN; all kernels it contains become loadable.
    pub fn register_xclbin(&mut self, xclbin: Xclbin) {
        self.register(xclbin);
    }

    /// Registers an XCLBIN and loads it before time zero, modelling the
    /// step-F download that precedes the experiments ("The XCLBIN(s)
    /// are then downloaded to the FPGA platform", §3.1).
    pub fn preload_xclbin(&mut self, xclbin: Xclbin) {
        let x = self.register(xclbin);
        self.fpga.preload(x);
    }

    /// Maps each of `xclbin`'s kernels to one shared copy of it, and
    /// returns that copy.
    fn register(&mut self, xclbin: Xclbin) -> Arc<Xclbin> {
        let x = Arc::new(xclbin);
        for k in &x.kernels {
            self.xclbin_for_kernel.insert(k.clone(), Arc::clone(&x));
        }
        x
    }

    /// The policy (e.g. to read its learned thresholds after a run).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    fn entry(&mut self, t: f64, ev: Ev) -> EvEntry {
        self.seq += 1;
        EvEntry { key: event_key(t, self.seq), ev }
    }

    fn push_timer(&mut self, t: f64, job: JobId, kind: TimerKind) {
        let e = self.entry(t, Ev::Timer { job, kind });
        push_in_key_order(&mut self.timers[kind.server()], e);
    }

    /// Removes and returns the earliest event, by `(t, seq)`, of the five
    /// sources.
    fn pop_event(&mut self) -> Option<EvEntry> {
        let [x86, arm] = &self.machine_ev;
        let [link, fpga] = &self.timers;
        let heads = [self.pending.last(), x86.as_ref(), arm.as_ref(), link.front(), fpga.front()];
        // An empty source reads as `u128::MAX`, which no event's key is.
        // Sequence numbers are unique, so there are no ties.
        let keys = heads.map(|e| e.map_or(u128::MAX, |e| e.key));
        let source = (1..keys.len()).fold(0, |min, i| if keys[i] < keys[min] { i } else { min });
        match source {
            _ if keys[source] == u128::MAX => None,
            0 => self.pending.pop(),
            1 => self.machine_ev[0].take(),
            2 => self.machine_ev[1].take(),
            timers => self.timers[timers - 3].pop_front(),
        }
    }

    fn machine(&mut self, m: MKind) -> &mut PsMachine {
        match m {
            MKind::X86 => &mut self.x86,
            MKind::Arm => &mut self.arm,
        }
    }

    fn job(&self, id: JobId) -> &Job {
        self.jobs[id.0 as usize].as_ref().expect("event for a finished job")
    }

    fn job_mut(&mut self, id: JobId) -> &mut Job {
        self.jobs[id.0 as usize].as_mut().expect("event for a finished job")
    }

    fn schedule_machine(&mut self, m: MKind) {
        let mach = self.machine(m);
        if let Some((_, t)) = mach.next_completion() {
            let gen = mach.generation();
            let e = self.entry(t.max(self.now), Ev::MachineDone { m, gen });
            self.machine_ev[m as usize] = Some(e);
        }
    }

    fn machine_add(&mut self, m: MKind, id: JobId, work_ms: f64) {
        let now = self.now;
        self.machine(m).add(id, work_ms, now);
        self.schedule_machine(m);
    }

    fn ctx<'a>(&self, spec: &'a JobSpec, include_self: bool) -> DecideCtx<'a> {
        DecideCtx {
            app: &spec.name,
            kernel: &spec.kernel,
            x86_load: self.x86.load() + usize::from(include_self),
            arm_load: self.arm.load(),
            kernel_resident: !spec.kernel.is_empty() && self.fpga.kernel_resident(&spec.kernel),
            device_ready: self.now >= self.fpga.busy_until_ns() - 1e-9,
            now_ns: self.now,
        }
    }

    /// Queues a transfer of `bytes` on the shared Ethernet link, ready
    /// to start at `ready_ns`; returns the completion time.
    fn eth_transfer(&mut self, bytes: u64, ready_ns: f64) -> f64 {
        if !self.cfg.serialize_ethernet {
            return ready_ns + self.cfg.eth_ns(bytes);
        }
        let start = ready_ns.max(self.eth_busy_until);
        let end = start + self.cfg.eth_ns(bytes);
        self.eth_busy_until = end;
        end
    }

    fn maybe_reconfigure(&mut self, kernel: &str) {
        if kernel.is_empty() {
            return;
        }
        if self.fpga.kernel_resident(kernel) {
            return;
        }
        if let Some(x) = self.xclbin_for_kernel.get(kernel) {
            self.fpga.reconfigure(Arc::clone(x), self.now);
        }
    }

    /// Runs the simulation until every non-background arrival has
    /// completed (or no event is left). Returns all records.
    pub fn run(&mut self, arrivals: Vec<Arrival>) -> SimResult {
        let first = self.arrivals.len();
        if first == 0 {
            self.arrivals = arrivals;
        } else {
            self.arrivals.extend(arrivals);
        }
        // The handlers read specs out of the arrivals while they mutate
        // the rest of `self`, so the vector steps outside for the run.
        let arrivals = std::mem::take(&mut self.arrivals);
        self.real_remaining = arrivals[first..]
            .iter()
            .filter(|a| a.spec.has_selected_function() || !a.spec.background)
            .count();
        for (i, a) in arrivals.iter().enumerate().skip(first) {
            let e = self.entry(a.at_ns, Ev::Arrival(i));
            self.pending.push(e);
        }
        self.pending.sort_unstable_by_key(|e| Reverse(e.key));
        while let Some(EvEntry { key, ev }) = self.pop_event() {
            // A time given as `-0.0` comes back `+0.0`, which `max`
            // against `now` (never below `+0.0`) cannot tell apart.
            self.now = self.now.max(event_time(key));
            match ev {
                Ev::Arrival(i) => self.on_arrival(&arrivals, i),
                Ev::MachineDone { m, gen } => self.on_machine_done(&arrivals, m, gen),
                Ev::Timer { job, kind } => self.on_timer(&arrivals, job, kind),
            }
            if self.real_remaining == 0 {
                break;
            }
        }
        self.arrivals = arrivals;
        SimResult {
            records: std::mem::take(&mut self.records),
            fpga_stats: self.fpga.stats(),
            end_ns: self.now,
        }
    }

    fn on_arrival(&mut self, arrivals: &[Arrival], arrival: usize) {
        let spec = &arrivals[arrival].spec;
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(Some(Job {
            arrival,
            arrival_ns: self.now,
            phase: Phase::PreX86,
            calls_done: 0,
            call_start_ns: 0.0,
            x86_calls: 0,
            arm_calls: 0,
            fpga_calls: 0,
            fpga_called: false,
            deadline_ns: spec.deadline_ms.map(|d| self.now + d * 1e6),
        }));
        // Instrumentation hook at main() start: early FPGA configuration.
        if spec.has_selected_function() {
            let ctx = self.ctx(spec, true);
            if self.policy.on_launch(&ctx) {
                self.maybe_reconfigure(&spec.kernel);
            }
        }
        self.machine_add(MKind::X86, id, spec.pre_ms);
    }

    fn on_machine_done(&mut self, arrivals: &[Arrival], m: MKind, gen: u64) {
        if self.machine(m).generation() != gen {
            return; // stale event
        }
        let now = self.now;
        let mut done = std::mem::take(&mut self.done);
        let mach = self.machine(m);
        mach.advance(now);
        // The set is fixed before any of it is processed: a job that
        // re-enters the machine with no work left is a new event.
        mach.finished(&mut done);
        if done.is_empty() {
            // Numerical slack: the event is scheduled again below —
            // unless its time cannot be waited for (the slack guard,
            // module docs), in which case the job is done now.
            if let Some((id, t)) = mach.next_completion() {
                if t <= now {
                    done.push(id);
                }
            }
        }
        for &id in &done {
            self.machine(m).remove(id, now);
            self.job_phase_done(arrivals, id, m);
        }
        self.done = done;
        self.schedule_machine(m);
    }

    fn job_phase_done(&mut self, arrivals: &[Arrival], id: JobId, m: MKind) {
        let job = self.job(id);
        let spec = &arrivals[job.arrival].spec;
        match (job.phase, m) {
            (Phase::PreX86, MKind::X86) => {
                if spec.has_selected_function() {
                    self.start_call(arrivals, id);
                } else {
                    self.finish(arrivals, id);
                }
            }
            (Phase::PerCallPre, MKind::X86) => self.do_decision(arrivals, id),
            (Phase::FuncX86, MKind::X86) => self.call_returned(arrivals, id, Target::X86),
            (Phase::ArmRun, MKind::Arm) => {
                // Transfer results back over the shared Ethernet link.
                let done = self.eth_transfer(spec.out_bytes.max(4096), self.now);
                self.push_timer(done, id, TimerKind::ArmBackDone);
            }
            (Phase::PostX86, MKind::X86) => self.finish(arrivals, id),
            other => unreachable!("phase/machine mismatch: {other:?}"),
        }
    }

    fn on_timer(&mut self, arrivals: &[Arrival], id: JobId, kind: TimerKind) {
        match kind {
            TimerKind::ArmOutDone => {
                let job = self.job_mut(id);
                job.phase = Phase::ArmRun;
                let work = arrivals[job.arrival].spec.func_arm_ms;
                self.machine_add(MKind::Arm, id, work);
            }
            TimerKind::ArmBackDone => self.call_returned(arrivals, id, Target::Arm),
            TimerKind::FpgaDone => self.call_returned(arrivals, id, Target::Fpga),
        }
    }

    fn start_call(&mut self, arrivals: &[Arrival], id: JobId) {
        // Deadline check before issuing another call.
        let now = self.now;
        let job = self.job_mut(id);
        if job.deadline_ns.is_some_and(|d| now >= d) {
            self.enter_post(arrivals, id);
            return;
        }
        let per_call = arrivals[job.arrival].spec.per_call_pre_ms;
        if per_call > 0.0 {
            job.phase = Phase::PerCallPre;
            self.machine_add(MKind::X86, id, per_call);
        } else {
            self.do_decision(arrivals, id);
        }
    }

    fn run_on_x86(&mut self, id: JobId, spec: &JobSpec) {
        self.job_mut(id).phase = Phase::FuncX86;
        let work = spec.func_x86_ms + self.cfg.sched_rtt_ms;
        self.machine_add(MKind::X86, id, work);
    }

    fn do_decision(&mut self, arrivals: &[Arrival], id: JobId) {
        let spec = &arrivals[self.job(id).arrival].spec;
        let ctx = self.ctx(spec, true);
        let decision: Decision = self.policy.decide(&ctx);
        if decision.reconfigure {
            self.maybe_reconfigure(&spec.kernel);
        }
        let rtt_ns = self.cfg.sched_rtt_ms * 1e6;
        self.job_mut(id).call_start_ns = self.now;
        match decision.target {
            Target::X86 => self.run_on_x86(id, spec),
            Target::Arm => {
                // State transformation, then the (shared) Ethernet out.
                let ready = self.now + rtt_ns + self.cfg.state_xform_ms * 1e6;
                let done = self.eth_transfer(spec.state_bytes.max(4096), ready);
                self.push_timer(done, id, TimerKind::ArmOutDone);
            }
            Target::Fpga => {
                let first = !std::mem::replace(&mut self.job_mut(id).fpga_called, true);
                let compute_ms = spec.fpga_kernel_ms + if first { spec.fpga_setup_ms } else { 0.0 };
                let run = self.fpga.invoke(
                    &spec.kernel,
                    self.now + rtt_ns,
                    spec.in_bytes,
                    spec.out_bytes,
                    compute_ms * 1e6,
                );
                match run {
                    Some(r) => self.push_timer(r.end_ns, id, TimerKind::FpgaDone),
                    // Kernel not resident: policy bug or race with
                    // reconfiguration — fall back to x86 like the real
                    // client would.
                    None => self.run_on_x86(id, spec),
                }
            }
        }
    }

    fn call_returned(&mut self, arrivals: &[Arrival], id: JobId, target: Target) {
        let now = self.now;
        let job = self.job_mut(id);
        let spec = &arrivals[job.arrival].spec;
        let func_ms = (now - job.call_start_ns) / 1e6;
        job.calls_done += 1;
        match target {
            Target::X86 => job.x86_calls += 1,
            Target::Arm => job.arm_calls += 1,
            Target::Fpga => job.fpga_calls += 1,
        }
        let more = job.calls_done < spec.calls && job.deadline_ns.is_none_or(|d| now < d);
        // Scheduler-client report (Algorithm 1 input).
        let report =
            CompletionReport { app: &spec.name, target, func_ms, x86_load: self.x86.load() + 1 };
        self.policy.on_complete(&report);
        if more {
            self.start_call(arrivals, id);
        } else {
            self.enter_post(arrivals, id);
        }
    }

    fn enter_post(&mut self, arrivals: &[Arrival], id: JobId) {
        let job = self.job_mut(id);
        job.phase = Phase::PostX86;
        let post = arrivals[job.arrival].spec.post_ms;
        self.machine_add(MKind::X86, id, post);
    }

    fn finish(&mut self, arrivals: &[Arrival], id: JobId) {
        let j = self.jobs[id.0 as usize].take().expect("event for a finished job");
        let spec = &arrivals[j.arrival].spec;
        if !spec.background {
            self.real_remaining = self.real_remaining.saturating_sub(1);
            self.records.push(JobRecord {
                name: spec.name.clone(),
                arrival_ns: j.arrival_ns,
                end_ns: self.now,
                calls_completed: j.calls_done,
                x86_calls: j.x86_calls,
                arm_calls: j.arm_calls,
                fpga_calls: j.fpga_calls,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysArm, AlwaysFpga, AlwaysX86};
    use crate::workload::batch_arrivals;
    use std::collections::BinaryHeap;
    use xar_hls::kernel::{compile_kernel, KOp, Kernel, KernelArg, LoopNest, TripCount};
    use xar_hls::partition_ffd;
    use xar_hls::Platform;

    fn test_spec() -> JobSpec {
        JobSpec {
            name: "T".into(),
            kernel: "KNL_T".into(),
            pre_ms: 10.0,
            post_ms: 5.0,
            per_call_pre_ms: 0.0,
            func_x86_ms: 100.0,
            func_arm_ms: 300.0,
            fpga_kernel_ms: 40.0,
            fpga_setup_ms: 0.0,
            in_bytes: 1 << 20,
            out_bytes: 1 << 10,
            state_bytes: 1 << 20,
            calls: 1,
            deadline_ms: None,
            background: false,
        }
    }

    fn test_xclbin() -> Xclbin {
        let k = Kernel {
            name: "KNL_T".into(),
            args: vec![KernelArg::Scalar { name: "n".into() }],
            body: LoopNest::leaf(TripCount::Arg(0), vec![(KOp::MulF, 1)]),
            local_buffer_bytes: 0,
        };
        let xo = compile_kernel(&k).unwrap();
        partition_ffd(&[xo], &Platform::alveo_u50(), "t").unwrap().remove(0)
    }

    #[test]
    fn single_job_on_x86_takes_nominal_time() {
        let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysX86);
        let res = sim.run(batch_arrivals(&[test_spec()]));
        assert_eq!(res.records.len(), 1);
        let t = res.records[0].elapsed_ms();
        // 10 + 100 + 5 + rtt ≈ 115.2
        assert!((t - 115.2).abs() < 1.0, "got {t}");
        assert_eq!(res.records[0].x86_calls, 1);
    }

    #[test]
    fn contention_slows_x86_jobs() {
        let cfg = ClusterConfig::default(); // 6 cores
        let specs: Vec<JobSpec> = (0..12).map(|_| test_spec()).collect();
        let mut sim = ClusterSim::new(cfg, AlwaysX86);
        let res = sim.run(batch_arrivals(&specs));
        // 12 jobs on 6 cores → ~2x slowdown.
        let t = res.mean_exec_ms();
        assert!(t > 200.0, "expected ~230ms, got {t}");
    }

    #[test]
    fn fpga_policy_uses_device_and_counts_calls() {
        let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysFpga);
        sim.register_xclbin(test_xclbin());
        let res = sim.run(batch_arrivals(&[test_spec()]));
        assert_eq!(res.records[0].fpga_calls, 1);
        assert_eq!(res.fpga_stats.invocations, 1);
        assert_eq!(res.fpga_stats.reconfigurations, 1);
        // Includes reconfiguration wait (configured at launch, ~180ms),
        // since the single call arrives right after pre_ms = 10ms.
        let t = res.records[0].elapsed_ms();
        assert!(t > 100.0, "reconfig not hidden for immediate call: {t}");
    }

    #[test]
    fn arm_policy_pays_transfer_but_offloads() {
        let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysArm);
        let res = sim.run(batch_arrivals(&[test_spec()]));
        assert_eq!(res.records[0].arm_calls, 1);
        let t = res.records[0].elapsed_ms();
        // 10 + (0.2 rtt + 0.4 xform + ~8.4 eth) + 300 + eth back + 5
        assert!(t > 315.0 && t < 340.0, "got {t}");
    }

    #[test]
    fn background_jobs_generate_persistent_load() {
        let mut arrivals = batch_arrivals(&[test_spec()]);
        for i in 0..18 {
            arrivals.push(Arrival { at_ns: 0.0, spec: JobSpec::background(format!("bg{i}"), 1e7) });
        }
        let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysX86);
        let res = sim.run(arrivals);
        assert_eq!(res.records.len(), 1, "background jobs excluded");
        // 19 runnable on 6 cores → rate ≈ 6/19; 115ms work → ~364ms.
        let t = res.records[0].elapsed_ms();
        assert!(t > 300.0, "load must slow the app: {t}");
    }

    /// The slack guard: at 2e13 ns the clock's ulp (2^-8 ns) exceeds the
    /// 1.5e-3 ns this job needs, so its completion time rounds to `now`
    /// with 1.5e-9 ms — above the done threshold — still to run. Without
    /// the guard the completion event is rescheduled at `now` forever.
    #[test]
    fn residue_below_the_clocks_resolution_completes() {
        let spec = JobSpec { background: false, ..JobSpec::background("j", 1.5e-9) };
        let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysX86);
        let res = sim.run(vec![Arrival { at_ns: 2e13, spec }]);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.records[0].end_ns, 2e13);
    }

    /// A background job outlives the run that launched it; the next run
    /// on the same simulator still finds its spec.
    #[test]
    fn a_second_run_continues_the_first() {
        let mut sim =
            ClusterSim::new(ClusterConfig { x86_cores: 1, ..Default::default() }, AlwaysX86);
        let mut arrivals = batch_arrivals(&[test_spec()]);
        arrivals.push(Arrival { at_ns: 0.0, spec: JobSpec::background("bg", 1e4) });
        let first = sim.run(arrivals);
        let second = sim.run(vec![Arrival { at_ns: first.end_ns, spec: test_spec() }]);
        assert_eq!(second.records.len(), 1);
        // Still sharing the one core with "bg": ~2x the nominal 115.2 ms.
        let t = second.records[0].elapsed_ms();
        assert!((t - 230.4).abs() < 1.0, "got {t}");
    }

    /// The integer key orders every pair of events exactly as the
    /// `(t.partial_cmp, seq)` compare it replaced: zeros of either sign,
    /// subnormals, times past 2^44 ns (where the clock's ulp exceeds a
    /// nanosecond), infinities, and equal times told apart by sequence.
    #[test]
    fn event_keys_order_as_time_then_sequence() {
        let mut times = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            1e-9,
            1.0,
            -1.0,
            30e9,
            2f64.powi(44),
            2f64.powi(44) + 2f64.powi(-8),
            2e13,
            1.8e19,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // And arbitrary bit patterns, NaNs skipped.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while times.len() < 64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = f64::from_bits(x);
            if !t.is_nan() {
                times.push(t);
            }
        }
        let seqs = [0, 1, 2, u64::MAX];
        for (&ta, &tb) in times.iter().flat_map(|a| times.iter().map(move |b| (a, b))) {
            for (sa, sb) in seqs.iter().flat_map(|a| seqs.iter().map(move |b| (*a, *b))) {
                let want = ta.partial_cmp(&tb).unwrap().then(sa.cmp(&sb));
                let got = event_key(ta, sa).cmp(&event_key(tb, sb));
                assert_eq!(got, want, "({ta:e}, {sa}) vs ({tb:e}, {sb})");
            }
        }
    }

    /// A key gives back the time it was made from, bit for bit, but for
    /// `-0.0`, which comes back `+0.0`.
    #[test]
    fn an_event_key_gives_back_its_time() {
        for t in [0.0, 5e-324, -5e-324, 1.0, -1.0, 2e13, f64::MAX, f64::INFINITY, f64::NEG_INFINITY]
        {
            assert_eq!(event_time(event_key(t, 7)).to_bits(), t.to_bits(), "{t:e}");
        }
        assert_eq!(event_time(event_key(-0.0, 7)).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "event time is NaN")]
    fn a_nan_event_time_panics_where_the_event_is_made() {
        event_key(f64::NAN, 1);
    }

    /// A timer queue pops exactly what a min-heap given the same pushes
    /// pops: keys pushed ascending (the order a serial server finishes
    /// its work), descending and shuffled, many of them tied in time,
    /// with pops in between — some of them of an empty queue.
    #[test]
    fn a_timer_queue_pops_in_key_order_for_any_push_order() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for order in ["ascending", "descending", "shuffled"] {
            let mut keys: Vec<u128> =
                (0..600).map(|seq| event_key((next() % 64) as f64 * 0.5, seq)).collect();
            match order {
                "ascending" => keys.sort_unstable(),
                "descending" => keys.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            let mut queue = VecDeque::new();
            let mut reference = BinaryHeap::new();
            let pop = |queue: &mut VecDeque<EvEntry>,
                       reference: &mut BinaryHeap<Reverse<(u128, usize)>>| {
                let got = queue.pop_front().map(|e| match e.ev {
                    Ev::Arrival(i) => (e.key, i),
                    other => unreachable!("{other:?}"),
                });
                assert_eq!(got, reference.pop().map(|Reverse(want)| want), "{order}");
                got.is_some()
            };
            let mut empty_pops = 0;
            for (i, &key) in keys.iter().enumerate() {
                push_in_key_order(&mut queue, EvEntry { key, ev: Ev::Arrival(i) });
                reference.push(Reverse((key, i)));
                for _ in 0..next() % 3 {
                    empty_pops += usize::from(!pop(&mut queue, &mut reference));
                }
            }
            while pop(&mut queue, &mut reference) {}
            assert!(empty_pops > 0, "{order}: no pop found the queue empty");
        }
    }

    #[test]
    fn simulator_is_send_when_its_policy_is() {
        fn assert_send<T: Send>() {}
        assert_send::<ClusterSim<AlwaysX86>>();
    }

    #[test]
    fn throughput_mode_respects_deadline() {
        let mut spec = test_spec();
        spec.calls = 1000;
        spec.per_call_pre_ms = 1.0;
        spec.deadline_ms = Some(1_000.0); // 1s budget
        let mut sim = ClusterSim::new(ClusterConfig::default(), AlwaysX86);
        let res = sim.run(batch_arrivals(&[spec]));
        let calls = res.records[0].calls_completed;
        // ~(1000 - 10) / 101.2 ≈ 9 calls.
        assert!((8..=11).contains(&calls), "got {calls}");
    }
}
