//! The traced run's instrument: spans around the public calls the
//! benchmark makes, and deltas of the counters and timers the program
//! already exports through `scanft-obs`.
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. Nothing here reaches inside the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use scanft_obs::SnapshotValue;

/// Values of every exported metric at one instant: counters and gauges by
/// name, timers as `<name>` (total seconds) and `<name>#count`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    /// Reads the process-wide registry.
    #[must_use]
    pub fn take() -> Self {
        let mut values = BTreeMap::new();
        for metric in scanft_obs::global().snapshot() {
            match metric.value {
                SnapshotValue::Counter(v) | SnapshotValue::Gauge(v) => {
                    values.insert(metric.name, v as f64);
                }
                SnapshotValue::Timer {
                    count, total_secs, ..
                } => {
                    values.insert(format!("{}#count", metric.name), count as f64);
                    values.insert(metric.name, total_secs);
                }
            }
        }
        Snapshot(values)
    }

    /// What changed since `before`; metrics that did not move are left
    /// out.
    #[must_use]
    pub fn since(&self, before: &Snapshot) -> Delta {
        let mut moved = BTreeMap::new();
        for (name, &now) in &self.0 {
            let diff = now - before.0.get(name).copied().unwrap_or(0.0);
            if diff != 0.0 {
                moved.insert(name.clone(), diff);
            }
        }
        Delta(moved)
    }
}

/// Change of each exported metric over an interval.
#[derive(Debug, Clone, Default)]
pub struct Delta(BTreeMap<String, f64>);

impl Delta {
    /// A counter's increase, or a timer's added seconds; 0 when unmoved.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum over several metrics.
    #[must_use]
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Delta) {
        for (name, v) in &other.0 {
            *self.0.entry(name.clone()).or_insert(0.0) += v;
        }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    job: String,
    start: Instant,
    end: Instant,
    delta: Option<Delta>,
}

/// Span recorder; a disabled tracer runs the closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn next_id(&self) -> u64 {
        // Ids only need to be unique; they publish no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(record);
    }

    /// Runs `f` inside a span named `name` (its id is passed to `f`, to
    /// parent nested spans). With `counters`, the span also keeps the
    /// delta of the program's exported metrics over the call; only
    /// meaningful where nothing else runs concurrently.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: &str,
        counters: bool,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id();
        let before = counters.then(Snapshot::take);
        let start = Instant::now();
        let result = f(Some(id));
        let end = Instant::now();
        let delta = before.map(|b| Snapshot::take().since(&b));
        self.push(SpanRecord {
            id,
            parent,
            name,
            job: job.to_owned(),
            start,
            end,
            delta,
        });
        result
    }

    /// Records a span whose endpoints were measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: &str,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.next_id();
        self.push(SpanRecord {
            id,
            parent,
            name,
            job: job.to_owned(),
            start,
            end,
            delta: None,
        });
        Some(id)
    }

    /// Total seconds of every span named `name`.
    #[must_use]
    pub fn total_secs(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Sum of the metric deltas kept by spans named `name`.
    #[must_use]
    pub fn deltas(&self, name: &str) -> Delta {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut total = Delta::default();
        for span in spans.iter().filter(|s| s.name == name) {
            if let Some(delta) = &span.delta {
                total.add(delta);
            }
        }
        total
    }

    /// Per span name: count, total ms, and self ms (duration minus the
    /// part its child spans cover), sorted by self time, largest first.
    #[must_use]
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start, span.end));
            }
        }
        let mut by_name: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for span in spans.iter() {
            let total = (span.end - span.start).as_secs_f64();
            let covered = children
                .get(&span.id)
                .map_or(0.0, |kids| covered_secs(span.start, span.end, kids));
            let row = by_name.entry(span.name).or_default();
            row.0 += 1;
            row.1 += total * 1e3;
            row.2 += (total - covered) * 1e3;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (n, total, own))| (name, n, total, own))
            .collect();
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        rows
    }

    /// Every span as one JSON object per line: name, id, parent, job,
    /// start and end in microseconds since the tracer was made, and the
    /// metric deltas it kept.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"job\":\"{}\",\"start_us\":{},\"end_us\":{}",
                s.name,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                scanft_obs::escape_json_string(&s.job),
                (s.start - self.origin).as_micros(),
                (s.end - self.origin).as_micros(),
            );
            if let Some(delta) = &s.delta {
                out.push_str(",\"deltas\":{");
                for (i, (name, v)) in delta.0.iter().enumerate() {
                    let _ = write!(
                        out,
                        "{}\"{}\":{v}",
                        if i > 0 { "," } else { "" },
                        scanft_obs::escape_json_string(name)
                    );
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Seconds of `[start, end]` covered by the union of `intervals`.
fn covered_secs(start: Instant, end: Instant, intervals: &[(Instant, Instant)]) -> f64 {
    let mut clipped: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut covered = 0.0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += (e - from).as_secs_f64();
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer.record("root", None, "j", at(0), at(100));
        // Overlapping children cover [10, 50] and [60, 70]: 50 ms.
        tracer.record("child", root, "j", at(10), at(40));
        tracer.record("child", root, "j", at(30), at(50));
        tracer.record("child", root, "j", at(60), at(70));
        let rows = tracer.self_times();
        let root_row = rows.iter().find(|r| r.0 == "root").unwrap();
        assert_eq!(root_row.1, 1);
        assert!((root_row.2 - 100.0).abs() < 1e-6);
        assert!((root_row.3 - 50.0).abs() < 1e-6);
        let child_row = rows.iter().find(|r| r.0 == "child").unwrap();
        assert_eq!(child_row.1, 3);
        assert!((child_row.3 - 60.0).abs() < 1e-6);
    }

    #[test]
    fn spans_keep_counter_deltas() {
        let tracer = Tracer::new(true);
        let counter = scanft_obs::global().counter("perfbench.test.delta");
        tracer.span("work", None, "j", true, |_| counter.add(5));
        assert_eq!(tracer.deltas("work").get("perfbench.test.delta"), 5.0);
        assert!(tracer.to_jsonl().contains("\"perfbench.test.delta\":5"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("work", None, "j", true, |p| p), None);
        assert!(tracer.to_jsonl().is_empty());
    }
}
