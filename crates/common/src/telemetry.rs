//! Engine-wide observability: a lock-cheap [`MetricsRegistry`] of named
//! counters, gauges and log-scale histograms, plus the [`QueryProfile`]
//! tree of per-operator spans behind `EXPLAIN ANALYZE`.
//!
//! Design notes:
//!
//! * **Registry handles are the hot path.** Callers resolve a metric by
//!   name once (one short `RwLock` critical section) and keep the
//!   returned `Arc`; after that every update is a single relaxed atomic
//!   op, so instrumentation is safe to leave on in benchmarks.
//! * **Histograms are log₂-bucketed.** Sixty-five buckets cover the full
//!   `u64` range, which is plenty of resolution for latencies and row
//!   counts while keeping `record` branch-free. Quantiles report the
//!   *upper bound* of the bucket holding the q-th sample, so a reported
//!   p99 never understates the true p99 (conservative for alerting).
//! * **Metric names are `subsystem.metric`.** Every name is a dotted
//!   path of at least two non-empty `[a-z0-9_]` segments (`query.executed`,
//!   `repl.lag_bytes`); debug builds assert the convention at intern time
//!   so drift is caught by the test suite, not by a broken dashboard.
//! * **Profiles merge by plan node.** A [`ProfileBuilder`] span is keyed
//!   by the plan node's id; when the same node executes repeatedly (the
//!   body of an `ITERATE`, the build side probed per chunk) the
//!   executions fold into one [`OpSpan`] whose `calls` counts them.
//!
//! `hylite-common` is dependency-free, so everything here is built on
//! `std::sync` primitives only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Metric instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. live table rows).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v as u64, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed) as i64
    }
}

/// Number of log₂ buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `[2^(i-1), 2^i)`, with bucket 0 reserved for zero.
const HIST_BUCKETS: usize = 65;

/// A log₂-scale histogram of `u64` samples (microseconds, row counts…).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile_from_buckets(&buckets, count, 0.50),
            p95: quantile_from_buckets(&buckets, count, 0.95),
            p99: quantile_from_buckets(&buckets, count, 0.99),
        }
    }
}

/// Estimate a quantile as the *upper bound* of the bucket holding the
/// q-th sample. With log₂ buckets the estimate is within 2× of the true
/// quantile and never below it, so reported tail latencies are
/// conservative rather than flattering.
fn quantile_from_buckets(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64 * q).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            if i == 0 {
                return 0;
            }
            return if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
        }
    }
    0
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Estimated median (bucket upper bound).
    pub p50: u64,
    /// Estimated 95th percentile (bucket upper bound).
    pub p95: u64,
    /// Estimated 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A process-wide table of named metrics.
///
/// Lookup takes a short lock; updates through the returned handles are
/// lock-free. Names are conventionally dotted paths such as
/// `query.executed` or `kmeans.centroid_shift_milli`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Whether `name` follows the `subsystem.metric` convention: at least two
/// dot-separated segments, each a non-empty run of `[a-z0-9_]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut segments = 0;
    for segment in name.split('.') {
        if segment.is_empty()
            || !segment
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

/// Get-or-insert a named instrument in one of the registry's maps.
fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    debug_assert!(
        valid_metric_name(name),
        "metric name '{name}' violates the subsystem.metric convention"
    );
    if let Some(found) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(found);
    }
    let mut w = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Handle to the counter `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Handle to the gauge `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Handle to the histogram `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Consistent-enough point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of a [`MetricsRegistry`], renderable as aligned
/// text or JSON.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counters by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// All histograms by name, pre-summarized.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Human-readable dump, one metric per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter   {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name} count={} sum={} min={} p50~{} p95~{} p99~{} max={}",
                h.count, h.sum, h.min, h.p50, h.p95, h.p99, h.max
            );
        }
        out
    }

    /// JSON object with `counters`/`gauges`/`histograms` sections.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_json_entries(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_json_entries(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"histograms\":{");
        push_json_entries(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                (
                    k,
                    format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
                    ),
                )
            }),
        );
        out.push_str("}}");
        out
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4). Dotted names are prefixed with `hylite_` and
    /// mangled to `[a-zA-Z0-9_]` (`repl.lag_bytes` → `hylite_repl_lag_bytes`);
    /// histograms are exposed as summaries with `quantile` labels plus
    /// `_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        fn mangle(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 7);
            out.push_str("hylite_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let m = mangle(name);
            let _ = writeln!(out, "# TYPE {m} counter");
            let _ = writeln!(out, "{m} {v}");
        }
        for (name, v) in &self.gauges {
            let m = mangle(name);
            let _ = writeln!(out, "# TYPE {m} gauge");
            let _ = writeln!(out, "{m} {v}");
        }
        for (name, h) in &self.histograms {
            let m = mangle(name);
            let _ = writeln!(out, "# TYPE {m} summary");
            let _ = writeln!(out, "{m}{{quantile=\"0.5\"}} {}", h.p50);
            let _ = writeln!(out, "{m}{{quantile=\"0.95\"}} {}", h.p95);
            let _ = writeln!(out, "{m}{{quantile=\"0.99\"}} {}", h.p99);
            let _ = writeln!(out, "{m}_sum {}", h.sum);
            let _ = writeln!(out, "{m}_count {}", h.count);
        }
        out
    }
}

/// Append `"key":value` pairs (values pre-rendered) to a JSON object body.
fn push_json_entries<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{v}", k.replace('"', "\\\""));
    }
}

// ---------------------------------------------------------------------------
// Query profiles
// ---------------------------------------------------------------------------

/// Actual execution statistics for one operator of a query plan.
///
/// A span aggregates *every* execution of its plan node within one
/// statement: an operator inside an `ITERATE` body that ran 12 times
/// shows `calls = 12` and summed rows/time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpSpan {
    /// Identity of the plan node this span measured (the planner's node
    /// address; only used as an opaque key).
    pub node_id: usize,
    /// Operator name as printed by `EXPLAIN` (e.g. `HashJoin`).
    pub op_name: String,
    /// Number of times the operator ran.
    pub calls: u64,
    /// Total rows produced across all calls.
    pub rows_out: u64,
    /// Total chunks produced across all calls.
    pub chunks_out: u64,
    /// Total wall-clock time, inclusive of children.
    pub wall: Duration,
    /// Peak memory attributed to the operator (hash tables, sort
    /// buffers, generation working sets), in bytes.
    pub peak_mem_bytes: u64,
    /// Operator-specific annotations (`iterations`, `converged`, …).
    pub extras: BTreeMap<String, String>,
    /// Child operator spans.
    pub children: Vec<OpSpan>,
}

impl OpSpan {
    /// Total rows consumed: the sum of the children's output.
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.rows_out).sum()
    }

    /// Fold another execution of the same plan node into this span.
    fn merge(&mut self, other: OpSpan) {
        debug_assert_eq!(self.node_id, other.node_id);
        self.calls += other.calls;
        self.rows_out += other.rows_out;
        self.chunks_out += other.chunks_out;
        self.wall += other.wall;
        self.peak_mem_bytes = self.peak_mem_bytes.max(other.peak_mem_bytes);
        self.extras.extend(other.extras);
        for child in other.children {
            merge_into(&mut self.children, child);
        }
    }

    fn find(&self, node_id: usize) -> Option<&OpSpan> {
        if self.node_id == node_id {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(node_id))
    }

    fn find_mut(&mut self, node_id: usize) -> Option<&mut OpSpan> {
        if self.node_id == node_id {
            return Some(self);
        }
        self.children.iter_mut().find_map(|c| c.find_mut(node_id))
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = write!(
            out,
            "{indent}{} (actual rows={} chunks={} calls={} time={:.3}ms",
            self.op_name,
            self.rows_out,
            self.chunks_out,
            self.calls,
            self.wall.as_secs_f64() * 1e3,
        );
        if self.peak_mem_bytes > 0 {
            let _ = write!(out, " mem={}B", self.peak_mem_bytes);
        }
        out.push(')');
        for (k, v) in &self.extras {
            let _ = write!(out, " [{k}={v}]");
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Merge `span` into `siblings`, folding by node id.
fn merge_into(siblings: &mut Vec<OpSpan>, span: OpSpan) {
    if let Some(existing) = siblings.iter_mut().find(|s| s.node_id == span.node_id) {
        existing.merge(span);
    } else {
        siblings.push(span);
    }
}

/// The complete per-operator execution profile of one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Top-level spans (a single root for ordinary statements).
    pub roots: Vec<OpSpan>,
    /// End-to-end wall time of the statement.
    pub total_wall: Duration,
}

impl QueryProfile {
    /// Look up the span for a plan node anywhere in the tree.
    pub fn find(&self, node_id: usize) -> Option<&OpSpan> {
        self.roots.iter().find_map(|r| r.find(node_id))
    }

    /// Render the span tree as indented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            root.render_into(&mut out, 0);
        }
        let _ = writeln!(out, "total: {:.3}ms", self.total_wall.as_secs_f64() * 1e3);
        out
    }
}

/// Incremental builder used by the executor: `enter` when an operator
/// starts, annotate via `note`/`observe_mem`, `exit` with its output
/// totals when it finishes.
#[derive(Debug)]
pub struct ProfileBuilder {
    frames: Vec<Frame>,
    roots: Vec<OpSpan>,
    /// Annotations addressed to a plan node rather than to the innermost
    /// open span; applied when the profile is finished.
    node_notes: Vec<(usize, String, String)>,
    started: Instant,
}

#[derive(Debug)]
struct Frame {
    span: OpSpan,
    entered: Instant,
}

impl Default for ProfileBuilder {
    fn default() -> Self {
        ProfileBuilder::new()
    }
}

impl ProfileBuilder {
    /// Start profiling a statement.
    pub fn new() -> Self {
        ProfileBuilder {
            frames: Vec::new(),
            roots: Vec::new(),
            node_notes: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Open a span for the plan node `node_id`.
    pub fn enter(&mut self, node_id: usize, op_name: &str) {
        self.frames.push(Frame {
            span: OpSpan {
                node_id,
                op_name: op_name.to_string(),
                calls: 1,
                ..OpSpan::default()
            },
            entered: Instant::now(),
        });
    }

    /// Attach a key/value annotation to the innermost open span.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        if let Some(f) = self.frames.last_mut() {
            f.span.extras.insert(key.to_string(), value.to_string());
        }
    }

    /// Attach a key/value annotation to the span of plan node `node_id`,
    /// whether it is open, already closed, or (then the note is dropped)
    /// never executed — for facts learned after the node ran, such as how
    /// often its kept result was reused.
    pub fn note_node(&mut self, node_id: usize, key: &str, value: impl ToString) {
        self.node_notes
            .push((node_id, key.to_string(), value.to_string()));
    }

    /// Raise the innermost open span's peak memory to at least `bytes`.
    pub fn observe_mem(&mut self, bytes: u64) {
        if let Some(f) = self.frames.last_mut() {
            f.span.peak_mem_bytes = f.span.peak_mem_bytes.max(bytes);
        }
    }

    /// Close the innermost span, recording its output totals. Repeated
    /// executions of the same node under the same parent are folded
    /// together.
    pub fn exit(&mut self, rows_out: u64, chunks_out: u64) {
        let Some(mut frame) = self.frames.pop() else {
            debug_assert!(false, "ProfileBuilder::exit without matching enter");
            return;
        };
        frame.span.wall = frame.entered.elapsed();
        frame.span.rows_out = rows_out;
        frame.span.chunks_out = chunks_out;
        let siblings = match self.frames.last_mut() {
            Some(parent) => &mut parent.span.children,
            None => &mut self.roots,
        };
        merge_into(siblings, frame.span);
    }

    /// Finish the statement and return the assembled profile. Any spans
    /// left open (an operator returned early via `?`) are closed with
    /// zero output so the tree stays well-formed.
    pub fn finish(mut self) -> QueryProfile {
        while !self.frames.is_empty() {
            self.exit(0, 0);
        }
        for (node_id, key, value) in std::mem::take(&mut self.node_notes) {
            if let Some(span) = self.roots.iter_mut().find_map(|r| r.find_mut(node_id)) {
                span.extras.insert(key, value);
            }
        }
        QueryProfile {
            roots: self.roots,
            total_wall: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("q.executed");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("q.executed").get(), 5);
        let g = reg.gauge("rows.live");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.gauge("rows.live").get(), 7);
        // Same name returns the same instrument.
        assert!(Arc::ptr_eq(&c, &reg.counter("q.executed")));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000, 1000, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 3106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // Quantiles report the upper bound of the covering bucket: the
        // 4th sample (3) lives in bucket [2,3], the tail samples (1000)
        // in bucket [512,1023].
        assert_eq!(s.p50, 3);
        assert_eq!(s.p95, 1023);
        assert_eq!(s.p99, 1023);
        assert!((s.mean() - 3106.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_pin_known_distributions() {
        // All samples identical: every quantile is that bucket's bound.
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!((s.p50, s.p95, s.p99), (1023, 1023, 1023));

        // Uniform powers of two: each value its own bucket, so the
        // quantile walk is exact. 100 samples = 10 per bucket.
        let h = Histogram::default();
        for exp in 0..10u32 {
            for _ in 0..10 {
                h.record(1u64 << exp); // buckets [1,1], [2,3], ... [512,1023]
            }
        }
        let s = h.snapshot();
        // rank(p50) = 50 → 5th bucket (values 16..31) → upper bound 31.
        assert_eq!(s.p50, 31);
        // rank(p95) = 95 → 10th bucket (512..1023) → 1023.
        assert_eq!(s.p95, 1023);
        assert_eq!(s.p99, 1023);

        // A single zero sample sits in the dedicated zero bucket.
        let h = Histogram::default();
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));

        // Quantiles never under-report: skewed distribution, 99 fast
        // samples (true p50/p95/p99 = 10) and one slow outlier.
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.p50, 15, "bucket [8,15] upper bound, >= true 10");
        assert_eq!(s.p95, 15);
        assert_eq!(s.p99, 15, "rank 99 of 100 still in the fast bucket");
        assert_eq!(s.max, 1_000_000, "the outlier shows up as max");
    }

    #[test]
    fn metric_name_convention() {
        assert!(valid_metric_name("query.executed"));
        assert!(valid_metric_name("repl.lag_bytes"));
        assert!(valid_metric_name("a.b.c_2"));
        assert!(!valid_metric_name("single"));
        assert!(!valid_metric_name("Upper.case"));
        assert!(!valid_metric_name("trailing.dot."));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("spa ce.x"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn snapshot_renders_text_and_json() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").add(2);
        reg.gauge("pool.free").set(-1);
        reg.histogram("op.us").record(7);
        let snap = reg.snapshot();
        let text = snap.render_text();
        assert!(text.contains("counter   a.b = 2"));
        assert!(text.contains("gauge     pool.free = -1"));
        assert!(text.contains("histogram op.us count=1"));
        let json = snap.render_json();
        assert!(json.contains("\"a.b\":2"));
        assert!(json.contains("\"pool.free\":-1"));
        assert!(json.contains("\"count\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn snapshot_renders_prometheus_text() {
        let reg = MetricsRegistry::new();
        reg.counter("repl.connects").add(3);
        reg.gauge("repl.lag_bytes").set(0);
        reg.histogram("query.wall_us").record(100);
        let prom = reg.snapshot().render_prometheus();
        assert!(prom.contains("# TYPE hylite_repl_connects counter"));
        assert!(prom.contains("hylite_repl_connects 3"));
        assert!(prom.contains("# TYPE hylite_repl_lag_bytes gauge"));
        assert!(prom.contains("hylite_repl_lag_bytes 0"));
        assert!(prom.contains("# TYPE hylite_query_wall_us summary"));
        assert!(prom.contains("hylite_query_wall_us{quantile=\"0.95\"} 127"));
        assert!(prom.contains("hylite_query_wall_us_sum 100"));
        assert!(prom.contains("hylite_query_wall_us_count 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            assert!(parts.next().unwrap().starts_with("hylite_"), "{line}");
            assert!(parts.next().unwrap().parse::<i64>().is_ok(), "{line}");
            assert!(parts.next().is_none(), "{line}");
        }
    }

    #[test]
    fn profile_nesting_and_lookup() {
        let mut b = ProfileBuilder::new();
        b.enter(1, "Project");
        b.enter(2, "Filter");
        b.enter(3, "Scan");
        b.observe_mem(4096);
        b.exit(100, 1);
        b.exit(40, 1);
        b.exit(40, 1);
        let p = b.finish();
        assert_eq!(p.roots.len(), 1);
        let project = &p.roots[0];
        assert_eq!(project.op_name, "Project");
        assert_eq!(project.rows_in(), 40);
        let scan = p.find(3).unwrap();
        assert_eq!(scan.rows_out, 100);
        assert_eq!(scan.peak_mem_bytes, 4096);
        assert!(p.render().contains("Scan (actual rows=100"));
    }

    #[test]
    fn repeated_node_merges_with_call_count() {
        let mut b = ProfileBuilder::new();
        b.enter(10, "Iterate");
        for i in 0..5 {
            b.enter(11, "Step");
            b.enter(12, "Scan");
            b.exit(100, 1);
            b.exit(20 + i, 1);
        }
        b.note("iterations", 5);
        b.exit(24, 1);
        let p = b.finish();
        let step = p.find(11).unwrap();
        assert_eq!(step.calls, 5);
        assert_eq!(step.rows_out, 20 + 21 + 22 + 23 + 24);
        let scan = p.find(12).unwrap();
        assert_eq!(scan.calls, 5);
        assert_eq!(scan.rows_out, 500);
        assert_eq!(p.find(10).unwrap().extras.get("iterations").unwrap(), "5");
    }

    #[test]
    fn unbalanced_exit_is_closed_by_finish() {
        let mut b = ProfileBuilder::new();
        b.enter(1, "Root");
        b.enter(2, "Child");
        // Operator bailed with `?` — finish() must still produce a tree.
        let p = b.finish();
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].children.len(), 1);
    }
}
