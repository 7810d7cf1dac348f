//! `perf compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both medians, the relative change, the bound and a verdict. Used
//! for the A/A criterion of the issue that added the benchmark and for
//! every later change's before/after table.

use crate::json::J;
use crate::report::{END_TO_END, P50_BOUND};
use crate::stats::{self, Better, Verdict};

struct Doc {
    json: J,
    path: String,
}

impl Doc {
    fn read(path: &str) -> Result<Doc, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = J::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if json
            .get("runs")
            .and_then(J::arr)
            .is_none_or(<[J]>::is_empty)
        {
            return Err(format!("{path}: no runs (is this a perf --out document?)"));
        }
        Ok(Doc {
            json,
            path: path.to_string(),
        })
    }

    fn runs(&self) -> &[J] {
        self.json.get("runs").and_then(J::arr).unwrap_or(&[])
    }

    fn workload<'a>(&self, run: &'a J, name: &str) -> Option<&'a J> {
        run.get("workloads")?.get(name)
    }

    /// The metric's value in every run that has it.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs()
            .iter()
            .filter_map(|run| {
                self.workload(run, workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("value")?
                    .num()
            })
            .collect()
    }
}

/// Runs are comparable only when they measured the same thing.
fn same_conditions(a: &Doc, b: &Doc) -> Result<(), String> {
    for key in ["seed", "seconds", "smoke", "nproc"] {
        if a.json.get(key) != b.json.get(key) {
            return Err(format!(
                "{key} differs: {} has {}, {} has {}",
                a.path,
                a.json.get(key).map_or("nothing".into(), J::render),
                b.path,
                b.json.get(key).map_or("nothing".into(), J::render),
            ));
        }
    }
    for name in crate::workloads::NAMES {
        let sizes = |d: &Doc| {
            d.workload(&d.runs()[0], name)
                .and_then(|w| w.get("sizes"))
                .cloned()
        };
        if sizes(a) != sizes(b) {
            return Err(format!(
                "sizes of {name} differ between {} and {}",
                a.path, b.path
            ));
        }
    }
    Ok(())
}

/// Direction and bound of an end-to-end metric: the three of the table,
/// and the per-kind medians under the bound of their geomean.
fn rule(metric: &str) -> (Better, f64) {
    END_TO_END
        .iter()
        .find(|(def, _)| def.name == metric)
        .map_or((Better::Lower, P50_BOUND), |(def, bound)| {
            (def.better, *bound)
        })
}

struct Row {
    workload: String,
    metric: String,
    a: f64,
    b: f64,
    worsening: f64,
    bound: f64,
    spread: f64,
    verdict: Verdict,
}

fn rows(a: &Doc, b: &Doc) -> Vec<Row> {
    let mut out = Vec::new();
    for name in crate::workloads::NAMES {
        let Some(first) = a.workload(&a.runs()[0], name) else {
            continue;
        };
        let metrics = first.get("end_to_end").map_or(&[][..], J::fields);
        for (metric, _) in metrics {
            let (va, vb) = (
                stats::sorted(a.values(name, metric)),
                stats::sorted(b.values(name, metric)),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (better, bound) = rule(metric);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let spread = stats::range_spread(&va).max(stats::range_spread(&vb));
            out.push(Row {
                workload: name.to_string(),
                metric: metric.clone(),
                a: ma,
                b: mb,
                worsening: stats::worsening(ma, mb, better),
                bound,
                spread,
                verdict: stats::verdict(ma, mb, better, bound, spread),
            });
        }
    }
    out
}

/// Print the table; `Ok(false)` when any row is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (Doc::read(path_a)?, Doc::read(path_b)?);
    same_conditions(&a, &b)?;
    println!(
        "A = {} ({} runs, git {})\nB = {} ({} runs, git {})",
        a.path,
        a.runs().len(),
        a.json.get("git_sha").and_then(J::str).unwrap_or("unknown"),
        b.path,
        b.runs().len(),
        b.json.get("git_sha").and_then(J::str).unwrap_or("unknown"),
    );
    println!(
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    let rows = rows(&a, &b);
    for r in &rows {
        println!(
            "{:<20} {:<26} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}% {:>7.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worsening * 100.0,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved (spread within a set wider than the bound)",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

pub fn self_test() -> Result<(), String> {
    let doc = |seed: f64, p50: [f64; 3]| Doc {
        path: "mem".into(),
        json: J::obj(vec![
            ("seed", J::Num(seed)),
            (
                "runs",
                J::Arr(
                    p50.iter()
                        .map(|v| {
                            J::obj(vec![(
                                "workloads",
                                J::obj(vec![(
                                    "wire.read",
                                    J::obj(vec![(
                                        "end_to_end",
                                        J::obj(vec![
                                            ("p50_geomean_ms", J::obj(vec![("value", J::Num(*v))])),
                                            (
                                                "work_per_s",
                                                J::obj(vec![("value", J::Num(1e3 / v))]),
                                            ),
                                        ]),
                                    )]),
                                )]),
                            )])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    let base = doc(1.0, [10.0, 10.1, 10.2]);
    let verdicts = |b: &Doc| -> Vec<Verdict> { rows(&base, b).iter().map(|r| r.verdict).collect() };
    let fail = |what: &str| Err(format!("compare self-test failed: {what}"));
    if verdicts(&doc(1.0, [10.1, 10.2, 10.3])) != [Verdict::Ok, Verdict::Ok] {
        return fail("A/A must be ok");
    }
    if verdicts(&doc(1.0, [15.0, 15.1, 15.2])) != [Verdict::Worse, Verdict::Worse] {
        return fail("+50 % latency must be worse on both metrics");
    }
    if verdicts(&doc(1.0, [5.0, 13.0, 21.0])) != [Verdict::Unresolved, Verdict::Unresolved] {
        return fail("a wide spread must be unresolved");
    }
    if same_conditions(&base, &doc(2.0, [10.0, 10.0, 10.0])).is_ok() {
        return fail("different seeds must be refused");
    }
    Ok(())
}
