//! In-memory span recorder for the traced runs.
//!
//! A span is one call into a layer's public function, recorded from the
//! benchmark's side of the boundary: layer name, start, end and the span
//! that caused it. Spans stay in memory until the run ends; a layer's
//! self time is its spans' durations minus the part of each interval its
//! child spans cover (children may run on other threads, so coverage is
//! an interval union, never a plain sum).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of a recorded span; `ROOT` is the parent of top-level spans.
pub type SpanId = u64;

/// The parent id of spans that have no recorded cause.
pub const ROOT: SpanId = 0;

#[derive(Clone, Copy, Debug)]
struct Record {
    id: SpanId,
    parent: SpanId,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Thread-safe span collector.
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    records: Mutex<Vec<Record>>,
}

/// Totals of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            records: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span of `layer` caused by `parent`; `f`
    /// receives the new span's id so it can parent its own calls.
    pub fn time<T>(&self, layer: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        self.records
            .lock()
            .expect("span recorder poisoned")
            .push(Record {
                id,
                parent,
                layer,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        out
    }

    /// Per-layer call counts, total and self times.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let records = self.records.lock().expect("span recorder poisoned");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for r in records.iter() {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.end_ns));
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for r in records.iter() {
            let dur = r.end_ns.saturating_sub(r.start_ns);
            let covered = children
                .get(&r.id)
                .map_or(0, |c| covered_ns(c, r.start_ns, r.end_ns));
            let t = out.entry(r.layer).or_default();
            t.calls += 1;
            t.total_s += dur as f64 * 1e-9;
            t.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// The "where the time goes" table of a traced run: self time per layer
/// and per crate (the layer prefix), with shares of all span self time.
pub fn where_table(
    workload: &str,
    totals: &BTreeMap<&'static str, LayerTotals>,
    wall_s: f64,
) -> Vec<String> {
    let all: f64 = totals.values().map(|t| t.self_s).sum::<f64>().max(1e-12);
    let mut rows: Vec<(&str, LayerTotals)> = totals.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = vec![
        format!(
            "where the time goes: {workload} (traced run, wall {wall_s:.3} s, \
             {all:.3} thread-s of span self time)"
        ),
        format!(
            "  {:<30} {:>9} {:>11} {:>11} {:>7}",
            "layer", "calls", "total_s", "self_s", "share"
        ),
    ];
    for (layer, t) in &rows {
        out.push(format!(
            "  {layer:<30} {:>9} {:>11.4} {:>11.4} {:>6.1}%",
            t.calls,
            t.total_s,
            t.self_s,
            100.0 * t.self_s / all
        ));
    }
    let mut crates: BTreeMap<&str, f64> = BTreeMap::new();
    for (layer, t) in &rows {
        *crates
            .entry(layer.split('.').next().unwrap_or(layer))
            .or_default() += t.self_s;
    }
    let by_crate: Vec<String> = crates
        .iter()
        .map(|(c, s)| format!("{c} {:.1}%", 100.0 * s / all))
        .collect();
    out.push(format!("  by layer: {}", by_crate.join(", ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_an_interval_union() {
        // Two overlapping children on different threads plus a disjoint one.
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 25)], 0, 30), 20);
        // Clipping to the parent.
        assert_eq!(covered_ns(&[(0, 10)], 5, 8), 3);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::default();
        spans.time("outer", ROOT, |id| {
            spans.time("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = spans.totals();
        assert_eq!(t["outer"].calls, 1);
        assert!(t["inner"].total_s >= 0.02);
        assert!(t["outer"].self_s < t["inner"].total_s);
        assert!((t["outer"].total_s - t["outer"].self_s - t["inner"].total_s).abs() < 1e-3);
    }
}
