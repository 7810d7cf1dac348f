//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p hylite-bench --bin figures -- --all --scale 0.01
//! cargo run --release -p hylite-bench --bin figures -- --fig4a --scale 0.05
//! cargo run --release -p hylite-bench --bin figures -- --ablation-memory
//! cargo run --release -p hylite-bench --bin figures -- --ablation-lambda --ablation-csr
//! cargo run --release -p hylite-bench --bin figures -- --checkpoint --repl-catchup
//! ```
//!
//! The last four are not figures of the paper and not part of `--all`:
//! the lambda (A3) and CSR (A4) ablations, checkpoint cost (with stable
//! `checkpoint-report:` lines for scripts) and replica catch-up.
//!
//! `--scale` multiplies the paper's dataset sizes (1.0 = the original
//! 160k..500M tuple grid — only sensible on a very large machine).
//! Slow systems (the SQL layers and the UDF simulation) are skipped for
//! configurations above `--sql-cap` tuples (default 400k·scale-invariant)
//! and the skip is reported, never silent.

use hylite_bench::ablations;
use hylite_bench::report::{render_csv, render_figure, Measurement};
use hylite_bench::systems::{run_kmeans, run_naive_bayes, run_pagerank, System};
use hylite_bench::workloads;
use hylite_datagen::table1::{KMeansExperiment, Table1};
use hylite_graph::LdbcConfig;

/// The paper's tables and figures: what `--all`, and no section flag at
/// all, selects.
const PAPER: [&str; 8] = [
    "--table1",
    "--fig4a",
    "--fig4b",
    "--fig4c",
    "--fig5a",
    "--fig5b",
    "--fig5c",
    "--ablation-memory",
];

/// Measurements of `hylite_bench::ablations`, each on request only.
const ON_REQUEST: [&str; 4] = [
    "--ablation-lambda",
    "--ablation-csr",
    "--checkpoint",
    "--repl-catchup",
];

struct Options {
    scale: f64,
    sql_cap: usize,
    csv: bool,
    sections: Vec<String>,
}

impl Options {
    fn has(&self, section: &str) -> bool {
        self.sections.iter().any(|s| s == section)
    }
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut o = Options {
        scale: 0.01,
        sql_cap: 400_000,
        csv: false,
        sections: Vec::new(),
    };
    let all = || PAPER.iter().map(|s| s.to_string());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().expect("--scale takes a float");
                o.scale = value.parse().expect("--scale takes a float");
            }
            "--sql-cap" => {
                let value = args.next().expect("--sql-cap takes an integer");
                o.sql_cap = value.parse().expect("--sql-cap takes an integer");
            }
            "--csv" => o.csv = true,
            "--profile-kmeans" => {
                profile_kmeans();
                std::process::exit(0);
            }
            "--all" => o.sections.extend(all()),
            section if PAPER.contains(&section) || ON_REQUEST.contains(&section) => {
                o.sections.push(arg)
            }
            other => panic!("unknown argument '{other}'"),
        }
    }
    if o.sections.is_empty() {
        o.sections.extend(all());
    }
    o
}

/// Systems to run for a k-Means configuration of n tuples.
fn kmeans_systems(n: usize, sql_cap: usize) -> Vec<System> {
    let mut systems = vec![
        System::HyperOperator,
        System::Dataflow,
        System::SingleThread,
    ];
    if n <= sql_cap {
        systems.extend([System::HyperIterate, System::HyperSql, System::Udf]);
    } else {
        eprintln!(
            "note: skipping HyPer Iterate / HyPer SQL / MADlib-sim at n={n} \
             (> --sql-cap {sql_cap}); raise --sql-cap to include them"
        );
    }
    systems
}

fn kmeans_figure(
    title: &str,
    grid: &[KMeansExperiment],
    xlabel: impl Fn(&KMeansExperiment) -> String,
    opts: &Options,
) {
    let mut measurements = Vec::new();
    for exp in grid {
        let ctx = workloads::setup_kmeans(*exp, 42).expect("setup");
        for system in kmeans_systems(exp.n, opts.sql_cap) {
            match run_kmeans(system, &ctx) {
                Ok((t, _)) => measurements.push(Measurement {
                    system: system.to_string(),
                    x: xlabel(exp),
                    runtime: t,
                }),
                Err(e) => eprintln!("{system} failed on {exp:?}: {e}"),
            }
        }
    }
    emit(title, &measurements, opts);
}

fn emit(title: &str, measurements: &[Measurement], opts: &Options) {
    println!("{}", render_figure(title, measurements));
    if opts.csv {
        println!("{}", render_csv(measurements));
    }
}

fn main() {
    let opts = parse_args();
    let grid = Table1::scaled(opts.scale);

    if opts.has("--table1") {
        println!(
            "== Table 1: k-Means datasets (scale {}):\n{}",
            opts.scale,
            grid.render()
        );
    }
    if opts.has("--fig4a") {
        kmeans_figure(
            "Figure 4 (left): k-Means, varying number of tuples",
            &grid.varying_tuples(),
            |e| e.n.to_string(),
            &opts,
        );
    }
    if opts.has("--fig4b") {
        kmeans_figure(
            "Figure 4 (middle): k-Means, varying number of dimensions",
            &grid.varying_dimensions(),
            |e| e.d.to_string(),
            &opts,
        );
    }
    if opts.has("--fig4c") {
        kmeans_figure(
            "Figure 4 (right): k-Means, varying number of clusters",
            &grid.varying_clusters(),
            |e| e.k.to_string(),
            &opts,
        );
    }
    if opts.has("--fig5a") {
        let configs = [
            ("11k/452k", LdbcConfig::paper_small()),
            ("73k/4.6m", LdbcConfig::paper_medium()),
            ("499k/46m", LdbcConfig::paper_large()),
        ];
        let mut measurements = Vec::new();
        for (label, base) in configs {
            let config = base.scaled(opts.scale.max(0.002));
            let ctx = workloads::setup_pagerank(&config).expect("setup");
            // Paper parameters: d = 0.85, ε = 0, 45 iterations.
            let iterations = 45;
            for system in [
                System::HyperOperator,
                System::Dataflow,
                System::SingleThread,
            ] {
                match run_pagerank(system, &ctx, 0.85, iterations) {
                    Ok((t, _)) => measurements.push(Measurement {
                        system: system.to_string(),
                        x: label.to_string(),
                        runtime: t,
                    }),
                    Err(e) => eprintln!("{system} failed on {label}: {e}"),
                }
            }
            // SQL layers and UDF only on graphs that fit the cap.
            if ctx.src.len() <= opts.sql_cap * 4 {
                for system in [System::HyperIterate, System::HyperSql, System::Udf] {
                    match run_pagerank(system, &ctx, 0.85, iterations) {
                        Ok((t, _)) => measurements.push(Measurement {
                            system: system.to_string(),
                            x: label.to_string(),
                            runtime: t,
                        }),
                        Err(e) => eprintln!("{system} failed on {label}: {e}"),
                    }
                }
            } else {
                eprintln!(
                    "note: skipping SQL/UDF systems on {label} ({} edges > cap)",
                    ctx.src.len()
                );
            }
        }
        emit(
            "Figure 5 (left): PageRank on LDBC graphs (d=0.85, 45 iterations)",
            &measurements,
            &opts,
        );
    }
    if opts.has("--fig5b") {
        let mut measurements = Vec::new();
        for exp in grid.varying_tuples() {
            let ctx = workloads::setup_naive_bayes(exp.n, 10, 42).expect("setup");
            for system in kmeans_systems(exp.n, opts.sql_cap) {
                match run_naive_bayes(system, &ctx) {
                    Ok((t, _)) => measurements.push(Measurement {
                        system: system.to_string(),
                        x: exp.n.to_string(),
                        runtime: t,
                    }),
                    Err(e) => eprintln!("{system} failed at n={}: {e}", exp.n),
                }
            }
        }
        emit(
            "Figure 5 (middle): Naive Bayes training, varying number of tuples",
            &measurements,
            &opts,
        );
    }
    if opts.has("--fig5c") {
        let mut measurements = Vec::new();
        for exp in grid.varying_dimensions() {
            let ctx = workloads::setup_naive_bayes(exp.n, exp.d, 42).expect("setup");
            for system in kmeans_systems(exp.n, opts.sql_cap) {
                match run_naive_bayes(system, &ctx) {
                    Ok((t, _)) => measurements.push(Measurement {
                        system: system.to_string(),
                        x: exp.d.to_string(),
                        runtime: t,
                    }),
                    Err(e) => eprintln!("{system} failed at d={}: {e}", exp.d),
                }
            }
        }
        emit(
            "Figure 5 (right): Naive Bayes training, varying number of dimensions",
            &measurements,
            &opts,
        );
    }
    if opts.has("--ablation-memory") {
        ablation_memory();
    }
    let on_request: [(&str, &str, &dyn Fn() -> _); 6] = [
        (
            "--ablation-lambda",
            "Ablation A3 (§7): KMEANS, default kernel vs lambda distances",
            &|| ablations::ablation_lambda(opts.scale),
        ),
        (
            "--ablation-csr",
            "Ablation A4 (§6.3): PageRank, operator vs CSR build vs iterations vs ITERATE joins",
            &|| ablations::ablation_csr(opts.scale),
        ),
        (
            "--checkpoint",
            "Checkpoint: segment encode, one segment per data shape",
            &ablations::segment_encode,
        ),
        (
            "--checkpoint",
            "Checkpoint: steady state, incremental and no-op",
            &|| ablations::checkpoint(opts.scale),
        ),
        (
            "--repl-catchup",
            "Replica catch-up: WAL stream apply, per commits replayed",
            &|| ablations::repl_stream_apply(opts.scale),
        ),
        (
            "--repl-catchup",
            "Replica catch-up: bootstrap snapshot + install, per rows",
            &|| ablations::repl_bootstrap_install(opts.scale),
        ),
    ];
    for (section, title, measure) in on_request {
        if opts.has(section) {
            emit(title, &measure().expect(section), &opts);
        }
    }
}

/// Per-operator breakdown of the KMEANS operator path, driven by the
/// engine's own profiler: EXPLAIN ANALYZE gives the operator tree with
/// actual rows/time/memory, and the metrics registry gives per-iteration
/// wall-time and centroid-shift histograms.
fn profile_kmeans() {
    use hylite_analytics::{kmeans, KMeansConfig};
    use std::time::Instant;
    let exp = KMeansExperiment {
        n: 1_000_000,
        d: 10,
        k: 5,
        iterations: 3,
    };
    let ctx = workloads::setup_kmeans(exp, 42).expect("setup");
    let cols: Vec<String> = (0..exp.d).map(|i| format!("d.c{i}")).collect();
    let subquery = format!("SELECT {} FROM data d", cols.join(", "));

    let plan = ctx
        .db
        .execute(&format!(
            "EXPLAIN ANALYZE {}",
            hylite_bench::queries::kmeans_operator(exp.d, 3)
        ))
        .unwrap();
    println!(
        "== KMEANS operator, profiled plan:\n{}",
        plan.to_table_string()
    );

    let snapshot = ctx.db.metrics_snapshot();
    println!("== Engine metrics after the run:");
    for line in snapshot.render_text().lines() {
        if line.contains("kmeans") || line.contains("query.") {
            println!("  {line}");
        }
    }

    // Cross-check the operator against its building blocks.
    let t = Instant::now();
    let chunks = {
        let r = ctx.db.execute(&subquery).unwrap();
        r.chunks().to_vec()
    };
    println!(
        "materialize subquery: {:?} ({} chunks)",
        t.elapsed(),
        chunks.len()
    );

    let t = Instant::now();
    let result = kmeans(
        &chunks,
        ctx.centers.clone(),
        None,
        &KMeansConfig { max_iterations: 3 },
    )
    .unwrap();
    println!(
        "analytics::kmeans on chunks: {:?} ({} iters)",
        t.elapsed(),
        result.iterations
    );

    let t = Instant::now();
    let (centers2, _, _) = hylite_baselines::dataflow::kmeans(&ctx.dist, &ctx.centers, 3);
    println!(
        "dataflow sim: {:?} ({} centers)",
        t.elapsed(),
        centers2.len()
    );
}

/// §5.1 ablation: live intermediate tuples, ITERATE vs recursive CTE.
fn ablation_memory() {
    use hylite_core::Database;
    println!("== Ablation (§5.1): peak live intermediate tuples, n = 1000 rows");
    println!(
        "{:>10}  {:>10}  {:>14}  {:>14}  {:>8}",
        "iterations", "observed", "ITERATE", "recursive CTE", "ratio"
    );
    let db = Database::new();
    db.execute("CREATE TABLE base (v BIGINT)").expect("ddl");
    let rows: Vec<String> = (0..1000).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO base VALUES {}", rows.join(",")))
        .expect("insert");
    for iters in [10usize, 50, 100, 500] {
        let it = db
            .execute(&format!(
                "SELECT count(*) FROM ITERATE ((SELECT v, 0 AS i FROM base), \
                 (SELECT v + 1, i + 1 FROM iterate), \
                 (SELECT i FROM iterate WHERE i >= {iters}))"
            ))
            .expect("iterate");
        let cte = db
            .execute(&format!(
                "WITH RECURSIVE r (v, i) AS (SELECT v, 0 FROM base \
                 UNION ALL SELECT v + 1, i + 1 FROM r WHERE i < {iters}) \
                 SELECT count(*) FROM r"
            ))
            .expect("cte");
        println!(
            "{:>10}  {:>10}  {:>14}  {:>14}  {:>7.1}×",
            iters,
            it.stats.iterations,
            it.stats.peak_working_rows,
            cte.stats.peak_working_rows,
            cte.stats.peak_working_rows as f64 / it.stats.peak_working_rows.max(1) as f64
        );
    }
    let snapshot = db.metrics_snapshot();
    println!(
        "metrics: iterate.iterations_total={} cte.iterations_total={}",
        snapshot.counter("iterate.iterations_total"),
        snapshot.counter("cte.iterations_total"),
    );
}
