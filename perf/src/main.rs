//! `perf`: the benchmark of this repository. One harness, six named
//! workloads, end-to-end numbers from an untraced run and per-layer
//! numbers from a traced one. See `README.md` beside `Cargo.toml`.

mod check;
mod compare;
mod gen;
mod json;
mod layers;
mod queries;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::J;
use workloads::RunCfg;

const USAGE: &str = "\
usage:
  perf --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out FILE]
  perf --all [--seed N] [--seconds S] [--trace] [--smoke] [--runs N] [--out FILE]
  perf compare A.json B.json
  perf --self-test
Run from the repository root. The self-test runs first in every invocation.";

/// Box length when `--seconds` is not given: `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<f64, String> {
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite() && *n >= 0.0)
            .ok_or(format!("{flag}: '{text}' is not a number"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = Some(value(&mut i, "--workload")?),
            "--all" => parsed.all = true,
            "--seed" => parsed.seed = number(value(&mut i, "--seed")?, "--seed")? as u64,
            "--seconds" => {
                let s = number(value(&mut i, "--seconds")?, "--seconds")?;
                if s <= 0.0 || s > 600.0 {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand, `--trace` alone.
                parsed.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--runs" => parsed.runs = (number(value(&mut i, "--runs")?, "--runs")? as usize).max(1),
            "--out" => parsed.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(parsed)
}

fn self_test() -> Result<(), String> {
    stats::self_test()?;
    trace::self_test()?;
    json::self_test()?;
    gen::self_test()?;
    check::self_test()?;
    compare::self_test()?;
    report::self_test()
}

/// The commit being measured, read from `.git` without starting a process;
/// the driver's checkout is not a repository, so this may be unknown.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.len() >= 7 && sha.chars().all(|c| c.is_ascii_hexdigit()) {
        sha.to_string()
    } else {
        "unknown".to_string()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Removes the run's temporary directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `runs` holds, per run of the suite, the workloads' report objects.
fn document(args: &Args, seconds: f64, runs: Vec<Vec<(String, J)>>, total_s: f64) -> J {
    let runs_json = runs
        .into_iter()
        .map(|workloads| J::obj(vec![("workloads", J::Obj(workloads))]))
        .collect();
    J::obj(vec![
        ("harness", J::Str("hylite-perf".into())),
        ("git_sha", J::Str(git_sha())),
        ("nproc", J::Num(nproc() as f64)),
        ("seed", J::Num(args.seed as f64)),
        ("seconds", J::Num(seconds)),
        ("smoke", J::Bool(args.smoke)),
        ("trace", J::Bool(args.trace)),
        ("total_s", J::Num(total_s)),
        ("runs", J::Arr(runs_json)),
        // This harness measures; it claims no gain.
        ("claim", J::Null),
    ])
}

fn run(args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let tmp = TmpDir(
        std::env::current_dir()
            .map_err(|e| format!("current directory: {e}"))?
            .join(".bench_tmp")
            .join(std::process::id().to_string()),
    );
    let cfg = RunCfg {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        tmp: tmp.0.clone(),
    };
    println!(
        "perf: git {} nproc {} seed {} seconds {} smoke {} trace {}",
        git_sha(),
        nproc(),
        cfg.seed,
        seconds,
        cfg.smoke,
        cfg.trace
    );
    let started = Instant::now();

    if let Some(name) = &args.workload {
        let report = workloads::run(name, &cfg)?;
        report.print();
        let total_s = started.elapsed().as_secs_f64();
        println!("total: {total_s:.1} s");
        let ok = report.correct();
        let line = report.driver_line(cfg.trace);
        if let Some(path) = &args.out {
            let workloads = vec![(report.name.to_string(), report.to_json())];
            write_out(path, &document(args, seconds, vec![workloads], total_s))?;
        }
        println!("{line}");
        return Ok(ok);
    }

    // --all: each workload in a process of its own, as the driver runs
    // them — in one process a workload inherits the allocator state of
    // those before it (segments.scan ran a fifth slower that way). With
    // --trace, a second, traced process supplies the per-layer numbers.
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("create {}: {e}", tmp.0.display()))?;
    let mut runs = Vec::new();
    for run in 0..args.runs {
        let mut workloads = Vec::new();
        for name in workloads::NAMES {
            let t = Instant::now();
            let mut report = run_in_child(args, seconds, name, false, &tmp.0)?;
            if args.trace {
                let traced = run_in_child(args, seconds, name, true, &tmp.0)?;
                report = merge_traced(report, &traced);
            }
            println!(
                "  ({name} run {} took {:.1} s)",
                run + 1,
                t.elapsed().as_secs_f64()
            );
            workloads.push((name.to_string(), report));
        }
        runs.push(workloads);
    }
    let total_s = started.elapsed().as_secs_f64();
    println!("total: {total_s:.1} s");
    let ok = runs
        .iter()
        .flatten()
        .all(|(_, w)| w.get("correct") == Some(&J::Bool(true)));
    let last_run = &runs[runs.len() - 1];
    let summary = J::obj(vec![
        ("correct", J::Bool(ok)),
        (
            "workloads",
            J::Obj(
                last_run
                    .iter()
                    .map(|(name, w)| {
                        let metrics = report::END_TO_END
                            .iter()
                            .filter_map(|(def, _)| {
                                let value = w.get("end_to_end")?.get(def.name)?.get("value")?;
                                Some((def.name.to_string(), value.clone()))
                            })
                            .collect();
                        (name.clone(), J::Obj(metrics))
                    })
                    .collect(),
            ),
        ),
        ("total_s", J::Num(total_s)),
        ("claim", J::Null),
    ])
    .render();
    if let Some(path) = &args.out {
        write_out(path, &document(args, seconds, runs, total_s))?;
    }
    println!("{summary}");
    Ok(ok)
}

/// Run one workload in a child process of this executable, let it print
/// its report, wait for it, and read its report object back.
fn run_in_child(
    args: &Args,
    seconds: f64,
    name: &str,
    trace: bool,
    tmp: &std::path::Path,
) -> Result<J, String> {
    let out = tmp.join(format!("{name}.json"));
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if args.smoke {
        child.arg("--smoke");
    }
    let status = child.status().map_err(|e| format!("start {name}: {e}"))?;
    if !status.success() {
        return Err(format!("{name} ended with {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let doc = J::parse(&text)?;
    doc.get("runs")
        .and_then(J::arr)
        .and_then(|runs| runs.first())
        .and_then(|run| run.get("workloads")?.get(name))
        .cloned()
        .ok_or(format!("{}: no report for {name}", out.display()))
}

/// The untraced report with the traced run's per-layer parts added; it is
/// correct only if both runs were.
fn merge_traced(untraced: J, traced: &J) -> J {
    let J::Obj(mut fields) = untraced else {
        return untraced;
    };
    let both_correct = traced.get("correct") == Some(&J::Bool(true))
        && fields
            .iter()
            .any(|(k, v)| k == "correct" && *v == J::Bool(true));
    for (key, value) in fields.iter_mut() {
        if key == "correct" {
            *value = J::Bool(both_correct);
        }
    }
    for key in ["per_layer", "per_layer_by_kind", "span_self_times", "spans"] {
        if let Some(value) = traced.get(key) {
            fields.push((key.to_string(), value.clone()));
        }
    }
    J::Obj(fields)
}

fn write_out(path: &std::path::Path, doc: &J) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = self_test() {
        eprintln!("perf: {e}");
        return ExitCode::from(3);
    }
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            ExitCode::from(2)
        }
        Some("--self-test") => {
            println!("perf: self-test passed");
            ExitCode::SUCCESS
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("perf compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        Some(_) => match parse_args(&args).and_then(|a| run(&a)) {
            // A wrong answer is reported in the result (`correct: false`),
            // not by the exit code: the run itself completed.
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::from(2)
            }
        },
    }
}
