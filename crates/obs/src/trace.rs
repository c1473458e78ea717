//! Structured event tracing: per-worker lock-free SPSC rings.
//!
//! Each worker thread owns a [`TraceWriter`] (single producer) whose
//! matching [`TraceReader`] is drained by the same worker's maintenance
//! tick into a shared bounded [`TraceLog`]. The ring is a power-of-two
//! slot array with monotonically increasing head/tail counters: a push
//! is one slot store plus one `Release` head bump, a pop is one
//! `Acquire` head load (amortized by caching), one slot read and one
//! `Release` tail bump. When the ring is full events are dropped and
//! counted, never blocked on — tracing must not backpressure the data
//! path it observes.
//!
//! [`Tracer`] is the front door the daemon threads through its hot
//! paths: a disabled tracer costs a single predictable branch; an
//! enabled one also counts per-kind totals into the shared
//! [`EventCounters`] so `StatsV2`/`DUMP` can report event volume even
//! after ring slots have been overwritten by newer history.

use crate::sync_abstraction::{AtomicU64, AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::{Arc, Mutex};

/// A typed trace event. Variants carry only fixed-width payloads so a
/// [`TracedEvent`] stays `Copy` and ring slots never allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A worker adopted a newly accepted connection (slot id).
    Accept { conn: u64 },
    /// The acceptor turned a connection away (admission control).
    Reject,
    /// A connection was reaped (close, error, idle or write-stall).
    Reap { conn: u64 },
    /// A shard applied its pending batch and published a fresh
    /// snapshot; `rows` is the number of reports folded in.
    FlushPublish { shard: u32, rows: u32 },
    /// Backpressure: outbuf crossed the high-water mark, reads paused.
    PauseWrites { conn: u64 },
    /// Backpressure released: outbuf drained, reads re-armed.
    ResumeReads { conn: u64 },
    /// A malformed or oversized frame / runaway text line.
    ProtocolError { conn: u64 },
    /// A sampled decide exceeded the configured latency threshold.
    SlowDecide { nanos: u64 },
    /// The acceptor hit a persistent `accept()` failure (e.g. fd
    /// exhaustion) and throttled its retry loop.
    AcceptThrottle,
    /// Overload shedding refused a workload request with `R_BUSY`.
    ShedBusy { conn: u64 },
    /// A connection crossed the repeat-protocol-error threshold and
    /// its peer address was quarantined.
    Quarantine { conn: u64 },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Accept { conn } => write!(f, "accept conn={conn}"),
            Event::Reject => write!(f, "reject"),
            Event::Reap { conn } => write!(f, "reap conn={conn}"),
            Event::FlushPublish { shard, rows } => {
                write!(f, "flush_publish shard={shard} rows={rows}")
            }
            Event::PauseWrites { conn } => write!(f, "pause conn={conn}"),
            Event::ResumeReads { conn } => write!(f, "resume conn={conn}"),
            Event::ProtocolError { conn } => write!(f, "proto_error conn={conn}"),
            Event::SlowDecide { nanos } => write!(f, "slow_decide ns={nanos}"),
            Event::AcceptThrottle => write!(f, "accept_throttle"),
            Event::ShedBusy { conn } => write!(f, "shed_busy conn={conn}"),
            Event::Quarantine { conn } => write!(f, "quarantine conn={conn}"),
        }
    }
}

/// An [`Event`] stamped with its producing daemon and worker plus a
/// per-worker sequence number (monotonically increasing, gaps mark
/// drops). The daemon id makes lines from different fleet members
/// distinguishable once an aggregator interleaves them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracedEvent {
    pub daemon: u16,
    pub worker: u16,
    pub seq: u64,
    pub event: Event,
}

impl fmt::Display for TracedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} daemon={} worker={} {}", self.seq, self.daemon, self.worker, self.event)
    }
}

struct Shared {
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<TracedEvent>>]>,
    /// Total events ever pushed (producer-owned, consumer reads).
    head: AtomicUsize,
    /// Total events ever popped (consumer-owned, producer reads).
    tail: AtomicUsize,
}

// SAFETY: the SPSC protocol guarantees exclusive slot access — the
// producer only writes slots in `[tail, tail+cap)` before publishing
// them with a Release head store, and the consumer only reads slots in
// `[tail, head)` after an Acquire head load, releasing them with a
// Release tail store the producer Acquire-loads before reuse.
unsafe impl Sync for Shared {}

/// Producer half of a trace ring. Single-threaded by construction:
/// `push` takes `&mut self`.
pub struct TraceWriter {
    shared: Arc<Shared>,
    head: usize,
    cached_tail: usize,
}

/// Consumer half of a trace ring.
pub struct TraceReader {
    shared: Arc<Shared>,
    tail: usize,
    cached_head: usize,
}

/// Create an SPSC trace ring; `capacity` is rounded up to a power of
/// two (minimum 2).
pub fn ring(capacity: usize) -> (TraceWriter, TraceReader) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(Shared {
        mask: cap - 1,
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        TraceWriter { shared: Arc::clone(&shared), head: 0, cached_tail: 0 },
        TraceReader { shared, tail: 0, cached_head: 0 },
    )
}

impl TraceWriter {
    /// Push one event; returns `false` (dropping the event) when the
    /// ring is full. One slot store + one Release head bump.
    #[inline]
    pub fn push(&mut self, ev: TracedEvent) -> bool {
        let cap = self.shared.mask + 1;
        if self.head - self.cached_tail == cap {
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            if self.head - self.cached_tail == cap {
                return false;
            }
        }
        // SAFETY: `head - tail < cap` so this slot is not being read by
        // the consumer; we are the only producer (`&mut self`).
        unsafe {
            (*self.shared.slots[self.head & self.shared.mask].get()).write(ev);
        }
        self.shared.head.store(self.head + 1, Ordering::Release);
        self.head += 1;
        true
    }
}

impl TraceReader {
    /// Pop the oldest event, or `None` when the ring is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<TracedEvent> {
        if self.tail == self.cached_head {
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            if self.tail == self.cached_head {
                return None;
            }
        }
        // SAFETY: `tail < head` so the producer published this slot
        // with a Release store we Acquire-loaded above.
        let ev =
            unsafe { (*self.shared.slots[self.tail & self.shared.mask].get()).assume_init_read() };
        self.shared.tail.store(self.tail + 1, Ordering::Release);
        self.tail += 1;
        Some(ev)
    }
}

/// Per-kind event totals, shared across all workers. These count every
/// *emitted* event (tracing enabled), including ones later dropped by a
/// full ring — `dropped` tracks those separately. Flushes are the
/// exception: `flush_publishes` and `flush_rows` count every flush
/// [`Tracer::flush_publish`] is told of, `flush_events` only the
/// elected ones that pushed an event.
#[derive(Default)]
pub struct EventCounters {
    pub accepts: AtomicU64,
    pub rejects: AtomicU64,
    pub reaps: AtomicU64,
    pub flush_publishes: AtomicU64,
    pub flush_rows: AtomicU64,
    pub flush_events: AtomicU64,
    pub pauses: AtomicU64,
    pub resumes: AtomicU64,
    pub proto_errors: AtomicU64,
    pub slow_decides: AtomicU64,
    pub accept_throttles: AtomicU64,
    pub shed_busy: AtomicU64,
    pub quarantines: AtomicU64,
    pub dropped: AtomicU64,
}

impl EventCounters {
    /// Total events emitted across all kinds (excluding `flush_rows`,
    /// which is a payload sum, `flush_publishes`, which also counts the
    /// flushes that pushed no event, and `dropped`, which is a subset).
    pub fn emitted(&self) -> u64 {
        let r = Ordering::Relaxed;
        self.accepts.load(r)
            + self.rejects.load(r)
            + self.reaps.load(r)
            + self.flush_events.load(r)
            + self.pauses.load(r)
            + self.resumes.load(r)
            + self.proto_errors.load(r)
            + self.slow_decides.load(r)
            + self.accept_throttles.load(r)
            + self.shed_busy.load(r)
            + self.quarantines.load(r)
    }
}

/// The per-worker tracing front door: owns the writer half of the
/// worker's ring, the enable flag, the slow-decide threshold and a
/// handle on the shared per-kind counters.
pub struct Tracer {
    writer: TraceWriter,
    enabled: bool,
    slow_decide_ns: u64,
    seq: u64,
    daemon: u16,
    worker: u16,
    counters: Arc<EventCounters>,
}

impl Tracer {
    pub fn new(
        writer: TraceWriter,
        worker: u16,
        enabled: bool,
        slow_decide_ns: u64,
        counters: Arc<EventCounters>,
    ) -> Self {
        Tracer { writer, enabled, slow_decide_ns, seq: 0, daemon: 0, worker, counters }
    }

    /// Stamp subsequent events with this daemon identity (the server
    /// sets `ServerConfig::daemon_id` here; standalone tracers keep the
    /// default 0).
    pub fn set_daemon(&mut self, daemon: u16) {
        self.daemon = daemon;
    }

    /// A tracer that never records: for benchmarks and tests that want
    /// the disabled-branch cost without wiring a ring.
    pub fn disabled() -> Self {
        let (writer, _reader) = ring(2);
        Tracer::new(writer, u16::MAX, false, u64::MAX, Arc::new(EventCounters::default()))
    }

    pub fn counters(&self) -> &Arc<EventCounters> {
        &self.counters
    }

    /// Record an event. Disabled: one branch. Enabled: one per-kind
    /// counter bump plus the ring push.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        if !self.enabled {
            return;
        }
        self.record(event);
    }

    /// Record a sampled decide latency if it crosses the configured
    /// threshold. Disabled or fast: one branch.
    #[inline]
    pub fn slow_decide(&mut self, nanos: u64) {
        if self.enabled && nanos >= self.slow_decide_ns {
            self.record(Event::SlowDecide { nanos });
        }
    }

    /// Count a flush of `rows` reports on `shard`, and push its
    /// `FlushPublish` event only if the flush was `elected` (the
    /// engine's 1-in-`LATENCY_SAMPLE` timing election): at one report
    /// per flush an event each would fill the ring. Disabled: one
    /// branch.
    #[inline]
    pub fn flush_publish(&mut self, shard: u32, rows: u32, elected: bool) {
        if !self.enabled {
            return;
        }
        if elected {
            self.record(Event::FlushPublish { shard, rows });
        } else {
            self.count_flush(rows);
        }
    }

    fn count_flush(&self, rows: u32) {
        let r = Ordering::Relaxed;
        self.counters.flush_rows.fetch_add(rows as u64, r);
        self.counters.flush_publishes.fetch_add(1, r);
    }

    fn record(&mut self, event: Event) {
        let r = Ordering::Relaxed;
        match event {
            Event::Accept { .. } => self.counters.accepts.fetch_add(1, r),
            Event::Reject => self.counters.rejects.fetch_add(1, r),
            Event::Reap { .. } => self.counters.reaps.fetch_add(1, r),
            Event::FlushPublish { rows, .. } => {
                self.count_flush(rows);
                self.counters.flush_events.fetch_add(1, r)
            }
            Event::PauseWrites { .. } => self.counters.pauses.fetch_add(1, r),
            Event::ResumeReads { .. } => self.counters.resumes.fetch_add(1, r),
            Event::ProtocolError { .. } => self.counters.proto_errors.fetch_add(1, r),
            Event::SlowDecide { .. } => self.counters.slow_decides.fetch_add(1, r),
            Event::AcceptThrottle => self.counters.accept_throttles.fetch_add(1, r),
            Event::ShedBusy { .. } => self.counters.shed_busy.fetch_add(1, r),
            Event::Quarantine { .. } => self.counters.quarantines.fetch_add(1, r),
        };
        let traced = TracedEvent { daemon: self.daemon, worker: self.worker, seq: self.seq, event };
        self.seq += 1;
        if !self.writer.push(traced) {
            self.counters.dropped.fetch_add(1, r);
        }
    }
}

/// Shared bounded event log the per-worker rings drain into; serves
/// `TRACE n`. A plain mutex is fine here — it is touched only on
/// maintenance ticks and trace queries, never on the data path.
pub struct TraceLog {
    inner: Mutex<VecDeque<TracedEvent>>,
    cap: usize,
}

impl TraceLog {
    pub fn new(cap: usize) -> Self {
        TraceLog { inner: Mutex::new(VecDeque::with_capacity(cap.min(4096))), cap: cap.max(1) }
    }

    /// Drain everything currently in `reader` into the log, evicting
    /// oldest entries beyond capacity.
    pub fn drain_from(&self, reader: &mut TraceReader) {
        let mut ev = reader.pop();
        if ev.is_none() {
            return;
        }
        let mut log = self.inner.lock().unwrap();
        while let Some(e) = ev {
            if log.len() == self.cap {
                log.pop_front();
            }
            log.push_back(e);
            ev = reader.pop();
        }
    }

    /// The last `n` events, oldest first.
    pub fn last(&self, n: usize) -> Vec<TracedEvent> {
        let log = self.inner.lock().unwrap();
        let skip = log.len().saturating_sub(n);
        log.iter().skip(skip).copied().collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, conn: u64) -> TracedEvent {
        TracedEvent { daemon: 0, worker: 0, seq, event: Event::Accept { conn } }
    }

    #[test]
    fn spsc_roundtrip_in_order() {
        let (mut w, mut r) = ring(8);
        assert!(r.pop().is_none());
        for i in 0..5 {
            assert!(w.push(ev(i, i)));
        }
        for i in 0..5 {
            assert_eq!(r.pop().unwrap().seq, i);
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn full_ring_drops_and_reports() {
        let (mut w, mut r) = ring(4);
        for i in 0..4 {
            assert!(w.push(ev(i, 0)));
        }
        assert!(!w.push(ev(4, 0)), "5th push into cap-4 ring must fail");
        assert_eq!(r.pop().unwrap().seq, 0);
        assert!(w.push(ev(4, 0)), "space freed by pop is reusable");
    }

    #[test]
    fn spsc_cross_thread_preserves_order_and_values() {
        const N: u64 = 100_000;
        let (mut w, mut r) = ring(1024);
        let producer = std::thread::spawn(move || {
            let mut pushed = 0u64;
            for i in 0..N {
                // Spin until there is room: this test wants every event.
                loop {
                    if w.push(TracedEvent {
                        daemon: 0,
                        worker: 3,
                        seq: i,
                        event: Event::SlowDecide { nanos: i * 7 },
                    }) {
                        break;
                    }
                    std::hint::spin_loop();
                }
                pushed += 1;
            }
            pushed
        });
        let mut next = 0u64;
        while next < N {
            if let Some(e) = r.pop() {
                assert_eq!(e.seq, next, "events must arrive in push order");
                assert_eq!(e.worker, 3);
                assert_eq!(e.event, Event::SlowDecide { nanos: next * 7 });
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        assert_eq!(producer.join().unwrap(), N);
        assert!(r.pop().is_none());
    }

    #[test]
    fn tracer_disabled_is_invisible() {
        let (writer, mut reader) = ring(8);
        let counters = Arc::new(EventCounters::default());
        let mut t = Tracer::new(writer, 0, false, 0, Arc::clone(&counters));
        t.emit(Event::Reject);
        t.slow_decide(u64::MAX);
        assert!(reader.pop().is_none());
        assert_eq!(counters.emitted(), 0);
    }

    #[test]
    fn tracer_counts_kinds_and_drops() {
        let (writer, mut reader) = ring(2);
        let counters = Arc::new(EventCounters::default());
        let mut t = Tracer::new(writer, 1, true, 1000, Arc::clone(&counters));
        t.emit(Event::Accept { conn: 7 });
        t.emit(Event::FlushPublish { shard: 2, rows: 17 });
        t.emit(Event::Reap { conn: 7 }); // ring cap 2: dropped
        t.slow_decide(999); // below threshold: not an event
        t.slow_decide(1000); // at threshold: emitted (and dropped, ring full)
        let r = Ordering::Relaxed;
        assert_eq!(counters.accepts.load(r), 1);
        assert_eq!(counters.flush_publishes.load(r), 1);
        assert_eq!(counters.flush_rows.load(r), 17);
        assert_eq!(counters.reaps.load(r), 1);
        assert_eq!(counters.slow_decides.load(r), 1);
        assert_eq!(counters.dropped.load(r), 2);
        assert_eq!(counters.emitted(), 4);
        // Ring holds the first two; seqs are gapless per emission.
        assert_eq!(reader.pop().unwrap().seq, 0);
        assert_eq!(reader.pop().unwrap().seq, 1);
        assert!(reader.pop().is_none());
    }

    #[test]
    fn unelected_flushes_are_counted_but_not_pushed() {
        let (writer, mut reader) = ring(8);
        let counters = Arc::new(EventCounters::default());
        let mut t = Tracer::new(writer, 0, true, u64::MAX, Arc::clone(&counters));
        t.flush_publish(3, 5, true);
        t.flush_publish(3, 2, false);
        t.flush_publish(3, 1, false);
        let r = Ordering::Relaxed;
        assert_eq!(counters.flush_publishes.load(r), 3);
        assert_eq!(counters.flush_rows.load(r), 8);
        assert_eq!(counters.flush_events.load(r), 1);
        assert_eq!(counters.emitted(), 1, "emitted() counts what was pushed");
        assert_eq!(reader.pop().unwrap().event, Event::FlushPublish { shard: 3, rows: 5 });
        assert!(reader.pop().is_none());
        let mut off = Tracer::new(ring(2).0, 0, false, u64::MAX, Arc::clone(&counters));
        off.flush_publish(0, 9, false);
        assert_eq!(counters.flush_publishes.load(r), 3, "a disabled tracer counts nothing");
    }

    #[test]
    fn trace_log_drains_and_caps() {
        let (writer, mut reader) = ring(64);
        let counters = Arc::new(EventCounters::default());
        let mut t = Tracer::new(writer, 0, true, u64::MAX, counters);
        let log = TraceLog::new(4);
        for i in 0..10 {
            t.emit(Event::Accept { conn: i });
        }
        log.drain_from(&mut reader);
        assert_eq!(log.len(), 4, "log evicts oldest beyond cap");
        let last = log.last(2);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].event, Event::Accept { conn: 8 });
        assert_eq!(last[1].event, Event::Accept { conn: 9 });
        // last(n) with n > len returns everything, oldest first.
        let all = log.last(100);
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].event, Event::Accept { conn: 6 });
    }

    #[test]
    fn event_display_is_grep_friendly() {
        let e = TracedEvent {
            daemon: 5,
            worker: 2,
            seq: 41,
            event: Event::FlushPublish { shard: 3, rows: 9 },
        };
        assert_eq!(e.to_string(), "41 daemon=5 worker=2 flush_publish shard=3 rows=9");
        assert_eq!(
            TracedEvent { daemon: 0, worker: 0, seq: 0, event: Event::Reject }.to_string(),
            "0 daemon=0 worker=0 reject"
        );
        assert_eq!(Event::AcceptThrottle.to_string(), "accept_throttle");
        assert_eq!(Event::ShedBusy { conn: 4 }.to_string(), "shed_busy conn=4");
        assert_eq!(Event::Quarantine { conn: 5 }.to_string(), "quarantine conn=5");
    }

    #[test]
    fn resilience_events_count_into_their_own_kinds() {
        let (writer, _reader) = ring(16);
        let counters = Arc::new(EventCounters::default());
        let mut t = Tracer::new(writer, 0, true, u64::MAX, Arc::clone(&counters));
        t.emit(Event::AcceptThrottle);
        t.emit(Event::ShedBusy { conn: 1 });
        t.emit(Event::ShedBusy { conn: 2 });
        t.emit(Event::Quarantine { conn: 1 });
        let r = Ordering::Relaxed;
        assert_eq!(counters.accept_throttles.load(r), 1);
        assert_eq!(counters.shed_busy.load(r), 2);
        assert_eq!(counters.quarantines.load(r), 1);
        assert_eq!(counters.emitted(), 4, "new kinds participate in the emitted() total");
    }

    #[test]
    fn tracer_stamps_its_daemon_identity() {
        let (writer, mut reader) = ring(8);
        let mut t = Tracer::new(writer, 1, true, u64::MAX, Arc::new(EventCounters::default()));
        t.set_daemon(9);
        t.emit(Event::Reject);
        let e = reader.pop().unwrap();
        assert_eq!((e.daemon, e.worker), (9, 1));
        assert_eq!(e.to_string(), "0 daemon=9 worker=1 reject");
    }
}
