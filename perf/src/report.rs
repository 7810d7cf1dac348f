//! What a run reports: the metric tables (the same names, units and bounds
//! as `BENCHMARK.json`, checked by the self-test), the per-workload report,
//! its rendering for people, for `--out` and for the driver's last line.

use std::collections::BTreeMap;

use crate::json::J;
use crate::stats::{self, Better};
use crate::trace::Tracer;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics every workload reports, with the share of the
/// parent's median by which each may worsen before it is a regression.
/// The bounds are as wide as the sandbox is noisy: over ten seeds the
/// quartile spread of `work_per_s` reached 11 % on `analytics.operator`
/// and on `wire.rw` (the host's speed drifts by a tenth over a minute),
/// and a bound has to stay clear of the spread. `perf compare` resolves
/// more: it has the per-kind medians and each run set's own spread.
pub const END_TO_END: [(MetricDef, f64); 3] = [
    (def("p50_geomean_ms", "ms", Better::Lower), P50_BOUND),
    (def("work_per_s", "1/s", Better::Higher), WORK_BOUND),
    (def("setup_s", "s", Better::Lower), SETUP_BOUND),
];

pub const P50_BOUND: f64 = 0.25;
pub const WORK_BOUND: f64 = 0.25;
pub const SETUP_BOUND: f64 = 0.25;

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// How a per-layer metric follows from what the traced statements
/// recorded under their measurement keys.
pub enum Formula {
    /// Mean over the statements that recorded the key.
    Mean(&'static str),
    /// Sum of one key over sum of another, times a scale.
    Ratio(&'static str, &'static str, f64),
    /// `a / (a + b)`.
    Share(&'static str, &'static str),
    Sum(&'static str),
    /// Mean execute time minus the kernels measured beside it.
    ExecuteSelf,
    /// Set once per workload, not per statement.
    Direct,
}

use Formula::{Direct, ExecuteSelf, Mean, Ratio, Share, Sum};

/// Per-layer metrics, one list for all workloads; a layer a workload does
/// not exercise reports 0 with 0 samples.
pub const PER_LAYER: [(MetricDef, Formula); 32] = [
    // sql
    (def("parse_us", "us", Better::Lower), Mean("parse_us")),
    // planner
    (def("bind_us", "us", Better::Lower), Mean("bind_us")),
    (def("optimize_us", "us", Better::Lower), Mean("optimize_us")),
    // exec (+ expr)
    (def("execute_self_us", "us", Better::Lower), ExecuteSelf),
    (def("rows_out", "count", Better::Lower), Mean("rows_out")),
    (
        def("peak_working_rows", "count", Better::Lower),
        Mean("peak_working_rows"),
    ),
    // analytics, graph
    (def("kernel_us", "us", Better::Lower), Mean("kernel_us")),
    (
        def("csr_build_us", "us", Better::Lower),
        Mean("csr_build_us"),
    ),
    (
        def("kernel_tuples_per_s", "1/s", Better::Higher),
        Ratio("kernel_tuples", "kernel_us", 1e6),
    ),
    (
        def("kernel_gb_per_s", "GB/s", Better::Higher),
        Ratio("kernel_bytes", "kernel_us", 1e-3),
    ),
    // storage, read side
    (
        def("pool_hit_ratio", "ratio", Better::Higher),
        Share("pool_hits", "pool_misses"),
    ),
    (
        def("pool_evictions", "count", Better::Lower),
        Mean("pool_evictions"),
    ),
    (
        def("blocks_scanned", "count", Better::Lower),
        Mean("blocks_scanned"),
    ),
    (
        def("blocks_pruned", "count", Better::Higher),
        Mean("blocks_pruned"),
    ),
    (
        def("prune_ratio", "ratio", Better::Higher),
        Share("blocks_pruned", "blocks_scanned"),
    ),
    // storage, write side, and core's commit path
    (def("commit_us", "us", Better::Lower), Mean("commit_us")),
    (
        def("wal_bytes_per_commit", "B", Better::Lower),
        Ratio("wal_bytes", "wal_commits", 1.0),
    ),
    (
        def("fsyncs_per_commit", "count", Better::Lower),
        Ratio("wal_fsyncs", "wal_commits", 1.0),
    ),
    (
        def("segment_bytes_per_raw_byte", "ratio", Better::Lower),
        Ratio("segment_bytes", "sealed_raw_bytes", 1.0),
    ),
    (
        def("segments_sealed", "count", Better::Lower),
        Sum("segments_sealed"),
    ),
    (
        def("checkpoint_us", "us", Better::Lower),
        Mean("checkpoint_us"),
    ),
    (
        def("wal_bytes_per_user_byte", "ratio", Better::Lower),
        Direct,
    ),
    (
        def("disk_bytes_per_user_byte", "ratio", Better::Lower),
        Direct,
    ),
    // common::wire
    (def("encode_us", "us", Better::Lower), Mean("encode_us")),
    (def("decode_us", "us", Better::Lower), Mean("decode_us")),
    (
        def("wire_bytes_per_row", "B", Better::Lower),
        Ratio("wire_bytes", "wire_rows", 1.0),
    ),
    // server, client
    (
        def("roundtrip_overhead_us", "us", Better::Lower),
        Mean("roundtrip_overhead_us"),
    ),
    (def("server_queue_wait_us", "us", Better::Lower), Direct),
    (def("server_statement_us", "us", Better::Lower), Direct),
    // the harness itself
    (def("traced_statements", "count", Better::Higher), Direct),
    (
        def("phase_sum_ratio", "ratio", Better::Higher),
        Ratio("phase_sum_us", "plain_us", 1.0),
    ),
    (def("trace_overhead_ratio", "ratio", Better::Lower), Direct),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }

    fn to_json(&self) -> J {
        J::obj(vec![
            ("value", J::Num(self.value)),
            ("unit", J::Str(self.unit.into())),
            ("samples", J::Num(self.samples as f64)),
        ])
    }
}

/// What one traced statement recorded: measurement key and value.
pub type Sample = Vec<(&'static str, f64)>;

/// Sums and counts of what traced statements recorded, per key.
#[derive(Default, Clone)]
pub struct Acc(BTreeMap<&'static str, (f64, u64)>);

impl Acc {
    pub fn add(&mut self, sample: &[(&'static str, f64)]) {
        for (key, value) in sample {
            let e = self.0.entry(key).or_insert((0.0, 0));
            e.0 += value;
            e.1 += 1;
        }
    }

    pub fn merge(&mut self, other: &Acc) {
        for (key, (sum, n)) in &other.0 {
            let e = self.0.entry(key).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += n;
        }
    }

    fn sum(&self, key: &str) -> (f64, u64) {
        self.0.get(key).copied().unwrap_or((0.0, 0))
    }

    fn mean(&self, key: &str) -> (f64, u64) {
        let (sum, n) = self.sum(key);
        (if n == 0 { 0.0 } else { sum / n as f64 }, n)
    }

    /// Evaluate the per-layer table over this accumulator; `direct` holds
    /// the workload-level values.
    pub fn layer_metrics(&self, direct: &[(&'static str, f64, u64)]) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(def, formula)| {
                let (value, samples) = match formula {
                    Mean(key) => self.mean(key),
                    Sum(key) => self.sum(key),
                    Ratio(num, den, scale) => {
                        let ((n, count), (d, _)) = (self.sum(num), self.sum(den));
                        (if d > 0.0 { n / d * scale } else { 0.0 }, count)
                    }
                    Share(a, b) => {
                        let ((a, count), (b, _)) = (self.sum(a), self.sum(b));
                        (if a + b > 0.0 { a / (a + b) } else { 0.0 }, count)
                    }
                    ExecuteSelf => {
                        let (execute, n) = self.sum("execute_us");
                        let beside = self.sum("kernel_us").0 + self.sum("csr_build_us").0;
                        (
                            if n == 0 {
                                0.0
                            } else {
                                (execute - beside).max(0.0) / n as f64
                            },
                            n,
                        )
                    }
                    Direct => direct
                        .iter()
                        .find(|(name, _, _)| *name == def.name)
                        .map_or((0.0, 0), |(_, v, n)| (*v, *n)),
                };
                Metric::new(def.name, def.unit, value, samples)
            })
            .collect()
    }
}

/// Latency summary of one statement kind.
#[derive(Debug, Clone)]
pub struct KindReport {
    pub name: String,
    pub samples: u64,
    pub p50_ms: f64,
    /// Highest percentile with at least ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
    pub max_ms: f64,
    /// Whether the kind's median enters `p50_geomean_ms`; kinds with a
    /// handful of samples per run (checkpoints) are printed but kept out.
    pub in_geomean: bool,
}

impl KindReport {
    pub fn from_ms(name: &str, latencies_ms: Vec<f64>, in_geomean: bool) -> Option<KindReport> {
        if latencies_ms.is_empty() {
            return None;
        }
        let sorted = stats::sorted(latencies_ms);
        Some(KindReport {
            name: name.to_string(),
            samples: sorted.len() as u64,
            p50_ms: stats::median(&sorted),
            tail: stats::tail(&sorted),
            max_ms: sorted[sorted.len() - 1],
            in_geomean,
        })
    }
}

pub struct WorkloadReport {
    pub name: &'static str,
    pub fingerprint: u32,
    /// Input sizes, stated in every output.
    pub sizes: Vec<(&'static str, f64)>,
    /// One sample per set-up made in the run.
    pub setup_s: Vec<f64>,
    pub kinds: Vec<KindReport>,
    /// What `work_per_s` counts on this workload (`tuples_per_s`, ...).
    pub work_name: &'static str,
    pub work_per_s: f64,
    /// Further end-to-end numbers one workload has and others lack
    /// (lateness of the open loop, bytes written per user byte, ...).
    pub extras: Vec<Metric>,
    pub tally: Tally,
    /// Of a traced run only.
    pub trace: Option<TraceReport>,
}

/// What a traced run adds to a report.
pub struct TraceReport {
    /// The per-layer table, over all traced statements of the workload.
    pub layers: Vec<Metric>,
    /// The same per statement kind.
    pub kind_layers: Vec<(String, Vec<Metric>)>,
    /// Mean self time per span name.
    pub span_self: Vec<Metric>,
    pub spans: J,
}

impl TraceReport {
    /// `per_kind` holds what the statements of each kind recorded,
    /// `workload` what was sampled once for the whole traced run (counter
    /// deltas), `direct` the workload-level values of the table.
    pub fn build(
        per_kind: &[(&str, &Acc)],
        workload: &[(&'static str, f64)],
        mut direct: Vec<(&'static str, f64, u64)>,
        tracer: &Tracer,
    ) -> TraceReport {
        let mut all = Acc::default();
        all.add(workload);
        for (_, acc) in per_kind {
            all.merge(acc);
        }
        let statements = tracer.statements();
        direct.push(("traced_statements", statements as f64, statements));
        TraceReport {
            layers: all.layer_metrics(&direct),
            kind_layers: per_kind
                .iter()
                .map(|(kind, acc)| (kind.to_string(), acc.layer_metrics(&[])))
                .collect(),
            span_self: tracer.self_time_metrics(),
            spans: tracer.to_json(),
        }
    }
}

/// Failure accounting shared by every workload: count, keep the first few
/// messages, never panic.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    pub fn record(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.pass(),
            Err(message) => self.fail(message),
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

impl WorkloadReport {
    pub fn new(
        name: &'static str,
        fingerprint: u32,
        setup_s: Vec<f64>,
        work_name: &'static str,
    ) -> WorkloadReport {
        WorkloadReport {
            name,
            fingerprint,
            sizes: Vec::new(),
            setup_s,
            kinds: Vec::new(),
            work_name,
            work_per_s: 0.0,
            extras: Vec::new(),
            tally: Tally::default(),
            trace: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    pub fn setup_median_s(&self) -> f64 {
        stats::median(&stats::sorted(self.setup_s.clone()))
    }

    pub fn p50_geomean_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .kinds
            .iter()
            .filter(|k| k.in_geomean)
            .map(|k| k.p50_ms)
            .collect();
        stats::geomean(&medians)
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let statements = self.kinds.iter().map(|k| k.samples).sum();
        vec![
            Metric::new("p50_geomean_ms", "ms", self.p50_geomean_ms(), statements),
            Metric::new("work_per_s", "1/s", self.work_per_s, statements),
            Metric::new(
                "setup_s",
                "s",
                self.setup_median_s(),
                self.setup_s.len() as u64,
            ),
        ]
    }

    pub fn fail_ratio(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// Every metric by name with unit and sample count, for people.
    pub fn print(&self) {
        println!("== {} ==", self.name);
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(k, v)| format!("{k}={}", J::Num(*v).render()))
            .collect();
        println!("  sizes: {}", sizes.join(" "));
        println!("  input fingerprint: {:08x}", self.fingerprint);
        for m in self.end_to_end() {
            print_metric(&m);
        }
        println!(
            "  {:<34} {:>14.4} {:<6} (same number as work_per_s)",
            self.work_name, self.work_per_s, "1/s"
        );
        for k in &self.kinds {
            let tail = match k.tail {
                Some((p, v)) => format!("p{p}={v:.4}"),
                None => "tail=n/a".to_string(),
            };
            println!(
                "  {:<34} {:>14.4} {:<6} n={} {tail} max={:.4}{}",
                format!("{}_p50_ms", k.name),
                k.p50_ms,
                "ms",
                k.samples,
                k.max_ms,
                if k.in_geomean { "" } else { " (diagnostic)" },
            );
        }
        for m in &self.extras {
            print_metric(m);
        }
        println!(
            "  {:<34} {:>14.6} {:<6} n={} failed={}",
            "fail_ratio",
            self.fail_ratio(),
            "ratio",
            self.tally.attempted,
            self.tally.failed
        );
        for f in &self.tally.failures {
            println!("  FAILURE: {f}");
        }
        if let Some(trace) = &self.trace {
            println!("  -- per layer, mean per traced statement --");
            for m in trace.layers.iter().filter(|m| m.samples > 0) {
                print_metric(m);
            }
            for m in &trace.span_self {
                print_metric(m);
            }
            for (kind, metrics) in &trace.kind_layers {
                let parts: Vec<String> = metrics
                    .iter()
                    .filter(|m| m.samples > 0 && m.value != 0.0)
                    .map(|m| format!("{}={:.4}", m.name, m.value))
                    .collect();
                println!("  [{kind}] {}", parts.join(" "));
            }
        }
    }

    pub fn to_json(&self) -> J {
        let mut end_to_end: Vec<(String, J)> = self
            .end_to_end()
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect();
        for k in &self.kinds {
            end_to_end.push((
                format!("{}_p50_ms", k.name),
                Metric::new("", "ms", k.p50_ms, k.samples).to_json(),
            ));
        }
        let kinds = self
            .kinds
            .iter()
            .map(|k| {
                (
                    k.name.clone(),
                    J::obj(vec![
                        ("samples", J::Num(k.samples as f64)),
                        ("p50_ms", J::Num(k.p50_ms)),
                        ("tail_percentile", k.tail.map_or(J::Null, |t| J::Num(t.0))),
                        ("tail_ms", k.tail.map_or(J::Null, |t| J::Num(t.1))),
                        ("max_ms", J::Num(k.max_ms)),
                        ("in_geomean", J::Bool(k.in_geomean)),
                    ]),
                )
            })
            .collect();
        let named = |metrics: &[Metric]| {
            J::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.to_json()))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Num(self.tally.attempted as f64)),
            ("failed", J::Num(self.tally.failed as f64)),
            ("fail_ratio", J::Num(self.fail_ratio())),
            ("fingerprint", J::Str(format!("{:08x}", self.fingerprint))),
            (
                "sizes",
                J::Obj(
                    self.sizes
                        .iter()
                        .map(|(k, v)| (k.to_string(), J::Num(*v)))
                        .collect(),
                ),
            ),
            ("work_name", J::Str(self.work_name.into())),
            (
                "setup_s_samples",
                J::Arr(self.setup_s.iter().map(|s| J::Num(*s)).collect()),
            ),
            ("end_to_end", J::Obj(end_to_end)),
            ("kinds", J::Obj(kinds)),
            ("diagnostic", named(&self.extras)),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("per_layer", named(&trace.layers)));
            fields.push((
                "per_layer_by_kind",
                J::Obj(
                    trace
                        .kind_layers
                        .iter()
                        .map(|(kind, metrics)| (kind.clone(), named(metrics)))
                        .collect(),
                ),
            ));
            fields.push(("span_self_times", named(&trace.span_self)));
            fields.push(("spans", trace.spans.clone()));
        }
        J::obj(fields)
    }

    /// The driver's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter every end-to-end metric of an untraced
    /// run or every per-layer metric of a traced one.
    pub fn driver_line(&self, traced: bool) -> String {
        let metrics = match &self.trace {
            Some(trace) if traced => trace.layers.clone(),
            _ => self.end_to_end(),
        };
        J::obj(vec![
            ("correct", J::Bool(self.correct())),
            ("attempted", J::Num(self.tally.attempted as f64)),
            ("failed", J::Num(self.tally.failed as f64)),
            (
                "metrics",
                J::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                J::obj(vec![
                                    ("value", J::Num(m.value)),
                                    ("unit", J::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<34} {:>14.4} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

/// `BENCHMARK.json`, when the harness is run from the repository root,
/// must declare exactly the metrics of the two tables above.
pub fn self_test() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = J::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = |section: &str| -> Vec<(String, String, String, Option<f64>)> {
        doc.get(section)
            .and_then(J::arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(J::str).unwrap_or("").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(J::num),
                )
            })
            .collect()
    };
    let row = |d: &MetricDef, bound: Option<f64>| {
        (
            d.name.to_string(),
            d.unit.to_string(),
            d.better.as_str().to_string(),
            bound,
        )
    };
    let want_e2e: Vec<_> = END_TO_END.iter().map(|(d, b)| row(d, Some(*b))).collect();
    let want_layers: Vec<_> = PER_LAYER.iter().map(|(d, _)| row(d, None)).collect();
    if declared("end_to_end") != want_e2e {
        return Err("BENCHMARK.json end_to_end differs from report::END_TO_END".into());
    }
    if declared("per_layer") != want_layers {
        return Err("BENCHMARK.json per_layer differs from report::PER_LAYER".into());
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(J::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(J::str))
        .collect();
    if workloads != crate::workloads::NAMES {
        return Err("BENCHMARK.json workloads differ from workloads::NAMES".into());
    }
    Ok(())
}
