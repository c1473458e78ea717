//! In-memory spans recorded by the benchmark around its calls into each
//! layer (spans *inside* the daemon are a later change). One log per
//! thread, merged when the clock has stopped; written out as JSON lines
//! at exit. Counts are exact — every call bumps its name's counter
//! whether or not its span was sampled.

use crate::util::{median, quantile_sorted};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 = a root span.
    pub parent: u32,
    /// Spans of one request share this.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl SpanLog {
    /// `epoch` is shared by every thread's log so merged spans line up.
    pub fn new(epoch: Instant, thread: u32) -> SpanLog {
        SpanLog { epoch, thread, spans: Vec::new(), counts: BTreeMap::new() }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Records a finished span; returns its id for children to name as
    /// parent. Ids are unique per thread; `(thread, id)` is global.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Records a root span over consecutive stages: `stamps[i]..stamps[i+1]`
    /// is child `stages[i]`.
    pub fn record_staged(
        &mut self,
        root: &'static str,
        stages: &[&'static str],
        req: u64,
        stamps: &[Instant],
    ) {
        debug_assert_eq!(stamps.len(), stages.len() + 1);
        let id = self.record(root, 0, req, stamps[0], stamps[stages.len()]);
        for (i, stage) in stages.iter().enumerate() {
            self.record(stage, id, req, stamps[i], stamps[i + 1]);
        }
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    /// Exact number of calls (sampled or not).
    pub calls: u64,
    /// Spans recorded.
    pub sampled: u64,
    pub self_p50_ns: f64,
    pub self_total_ns: u64,
}

/// Every thread's log, merged.
#[derive(Debug, Default)]
pub struct Trace {
    logs: Vec<SpanLog>,
}

impl Trace {
    pub fn from_logs(logs: impl IntoIterator<Item = SpanLog>) -> Trace {
        Trace { logs: logs.into_iter().collect() }
    }

    /// Spans recorded under `name`.
    pub fn sampled(&self, name: &str) -> u64 {
        self.logs.iter().flat_map(|l| &l.spans).filter(|s| s.name == name).count() as u64
    }

    pub fn span_count(&self) -> usize {
        self.logs.iter().map(|l| l.spans.len()).sum()
    }

    /// Self time per span name: a span's duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut selfs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for log in &self.logs {
            let mut covered = vec![0u64; log.spans.len() + 1];
            for s in &log.spans {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
            for s in &log.spans {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered[s.id as usize]);
                selfs.entry(s.name).or_default().push(own);
            }
            for (&name, &n) in &log.counts {
                out.entry(name).or_default().calls += n;
            }
        }
        for (name, mut v) in selfs {
            v.sort_unstable();
            let row = out.entry(name).or_default();
            row.sampled = v.len() as u64;
            row.self_p50_ns = quantile_sorted(&v, 0.5) as f64;
            row.self_total_ns = v.iter().sum();
            row.calls = row.calls.max(row.sampled);
        }
        out
    }

    /// Median duration (not self time) of one span name, ns.
    pub fn p50_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// The self-time table, one line per span name.
    pub fn self_time_lines(&self, workload: &str) -> Vec<String> {
        let header =
            format!("self-time table ({workload}): span calls sampled self_p50_ns self_total_ms");
        let rows = self.self_times().into_iter().map(|(name, r)| {
            format!(
                "  {name:<22} {:>10} {:>8} {:>12.0} {:>10.3}",
                r.calls,
                r.sampled,
                r.self_p50_ns,
                r.self_total_ns as f64 / 1e6
            )
        });
        std::iter::once(header).chain(rows).collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for log in &self.logs {
            for s in &log.spans {
                writeln!(
                    w,
                    "{{\"thread\":{},\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    log.thread, s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut log = SpanLog::new(epoch, 0);
        log.record_staged("req", &["a", "b"], 1, &[at(0), at(3), at(10)]);
        log.count("req", 64);
        let trace = Trace::from_logs([log]);
        assert_eq!(trace.sampled("a"), 1);
        let t = trace.self_times();
        assert_eq!(t["req"].self_total_ns, 0, "children cover the whole root");
        assert_eq!(t["req"].calls, 64);
        assert_eq!(t["a"].self_total_ns, 3_000);
        assert_eq!(t["b"].self_p50_ns, 7_000.0);
        assert_eq!(trace.p50_ns("req"), 10_000.0);
    }
}
