//! One timed runner per (algorithm × system).
//!
//! Systems follow §8.2: the three HyLite integration depths plus the
//! three comparator simulations. Timed regions cover the algorithm run
//! only — every system starts from its own pre-loaded data format, as in
//! the paper's methodology.

use std::fmt;
use std::time::{Duration, Instant};

use hylite_common::{HyError, Result};

use crate::queries;
use crate::workloads::{KMeansContext, NaiveBayesContext, PageRankContext};

/// The evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Layer 4: physical analytics operators ("HyPer Operator").
    HyperOperator,
    /// Layer 3: SQL with the non-appending ITERATE ("HyPer Iterate").
    HyperIterate,
    /// Layer 3 baseline: recursive CTEs ("HyPer SQL").
    HyperSql,
    /// Dedicated parallel dataflow engine (Spark-sim).
    Dataflow,
    /// Single-threaded analytics tool (MATLAB-sim).
    SingleThread,
    /// UDFs over an RDBMS (MADlib-sim).
    Udf,
}

impl System {
    /// All systems, in the paper's legend order.
    pub fn all() -> [System; 6] {
        [
            System::HyperOperator,
            System::HyperIterate,
            System::HyperSql,
            System::Dataflow,
            System::SingleThread,
            System::Udf,
        ]
    }

    /// The fast subset that can handle large grids in reasonable time.
    pub fn fast() -> [System; 3] {
        [
            System::HyperOperator,
            System::Dataflow,
            System::SingleThread,
        ]
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            System::HyperOperator => "HyPer Operator",
            System::HyperIterate => "HyPer Iterate",
            System::HyperSql => "HyPer SQL",
            System::Dataflow => "Spark-sim",
            System::SingleThread => "MATLAB-sim",
            System::Udf => "MADlib-sim",
        })
    }
}

pub(crate) fn time<T>(f: impl FnOnce() -> Result<T>) -> Result<(Duration, T)> {
    let start = Instant::now();
    let out = f()?;
    Ok((start.elapsed(), out))
}

/// Run k-Means on `system`; returns the wall time and a checksum (sum of
/// all final center coordinates) so results can be cross-validated.
pub fn run_kmeans(system: System, ctx: &KMeansContext) -> Result<(Duration, f64)> {
    let iters = ctx.exp.iterations;
    let d = ctx.exp.d;
    match system {
        System::HyperOperator => {
            let sql = queries::kmeans_operator(d, iters);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            // Columns: cluster_id, c0.., size.
            let mut sum = 0.0;
            for chunk in result.chunks() {
                for c in 1..=d {
                    sum += chunk.column(c).as_f64()?.iter().sum::<f64>();
                }
            }
            Ok((t, sum))
        }
        System::HyperIterate => {
            let sql = queries::kmeans_iterate(d, iters);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            Ok((t, center_sum_sql(&result, d)?))
        }
        System::HyperSql => {
            let sql = queries::kmeans_recursive_cte(d, iters);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            Ok((t, center_sum_sql(&result, d)?))
        }
        System::Dataflow => {
            let (t, (centers, _, _)) = time(|| {
                Ok(hylite_baselines::dataflow::kmeans(
                    &ctx.dist,
                    &ctx.centers,
                    iters,
                ))
            })?;
            Ok((t, matrix_sum(&centers)))
        }
        System::SingleThread => {
            let (t, (centers, _, _)) = time(|| {
                Ok(hylite_baselines::single_thread::kmeans(
                    &ctx.rows,
                    &ctx.centers,
                    iters,
                ))
            })?;
            Ok((t, matrix_sum(&centers)))
        }
        System::Udf => {
            let (t, (centers, _, _)) = time(|| {
                hylite_baselines::udf::kmeans(
                    ctx.db.catalog(),
                    "data",
                    1, // skip the id column
                    &ctx.centers,
                    iters,
                )
            })?;
            Ok((t, matrix_sum(&centers)))
        }
    }
}

fn center_sum_sql(result: &hylite_core::QueryResult, d: usize) -> Result<f64> {
    // Columns: cid, c0.., i.
    let mut sum = 0.0;
    for chunk in result.chunks() {
        for c in 1..=d {
            sum += chunk.column(c).as_f64()?.iter().sum::<f64>();
        }
    }
    Ok(sum)
}

fn matrix_sum(m: &[Vec<f64>]) -> f64 {
    m.iter().flat_map(|r| r.iter()).sum()
}

/// Run PageRank on `system`; returns wall time and the rank sum (≈ 1).
pub fn run_pagerank(
    system: System,
    ctx: &PageRankContext,
    damping: f64,
    iterations: usize,
) -> Result<(Duration, f64)> {
    match system {
        System::HyperOperator => {
            let sql = queries::pagerank_operator(damping, iterations);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            let mut sum = 0.0;
            for chunk in result.chunks() {
                sum += chunk.column(1).as_f64()?.iter().sum::<f64>();
            }
            Ok((t, sum))
        }
        System::HyperIterate => {
            let sql = queries::pagerank_iterate(ctx.vertices, damping, iterations);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            let mut sum = 0.0;
            for chunk in result.chunks() {
                sum += chunk.column(1).as_f64()?.iter().sum::<f64>();
            }
            Ok((t, sum))
        }
        System::HyperSql => {
            let sql = queries::pagerank_recursive_cte(ctx.vertices, damping, iterations);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            let mut sum = 0.0;
            for chunk in result.chunks() {
                sum += chunk.column(1).as_f64()?.iter().sum::<f64>();
            }
            Ok((t, sum))
        }
        System::Dataflow => {
            let (t, ranks) = time(|| {
                Ok(hylite_baselines::dataflow::pagerank(
                    &ctx.dist, damping, iterations,
                ))
            })?;
            Ok((t, ranks.values().sum()))
        }
        System::SingleThread => {
            let (t, ranks) = time(|| {
                Ok(hylite_baselines::single_thread::pagerank(
                    &ctx.src, &ctx.dest, damping, 0.0, iterations,
                ))
            })?;
            Ok((t, ranks.values().sum()))
        }
        System::Udf => {
            let (t, ranks) = time(|| {
                hylite_baselines::udf::pagerank(ctx.db.catalog(), "edges", damping, iterations)
            })?;
            Ok((t, ranks.values().sum()))
        }
    }
}

/// Run Naive Bayes training on `system`; returns wall time and a model
/// checksum (sum of priors + means) for cross-validation.
pub fn run_naive_bayes(system: System, ctx: &NaiveBayesContext) -> Result<(Duration, f64)> {
    match system {
        System::HyperOperator => {
            let sql = queries::naive_bayes_operator(ctx.d);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            Ok((t, model_sum_sql(&result)?))
        }
        // The ITERATE construct adds nothing to a single-pass algorithm;
        // the paper's SQL comparison for NB is the plain aggregation
        // query, which we use for both SQL-layer systems.
        System::HyperIterate | System::HyperSql => {
            let sql = queries::naive_bayes_sql(ctx.d);
            let (t, result) = time(|| ctx.db.execute(&sql))?;
            Ok((t, model_sum_sql(&result)?))
        }
        System::Dataflow => {
            let (t, model) = time(|| Ok(hylite_baselines::dataflow::naive_bayes_train(&ctx.dist)))?;
            Ok((t, model_sum(&model)))
        }
        System::SingleThread => {
            let (t, model) = time(|| {
                Ok(hylite_baselines::single_thread::naive_bayes_train(
                    &ctx.rows,
                    &ctx.labels,
                ))
            })?;
            Ok((t, model_sum(&model)))
        }
        System::Udf => {
            let (t, model) =
                time(|| hylite_baselines::udf::naive_bayes_train(ctx.db.catalog(), "nbdata"))?;
            Ok((t, model_sum(&model)))
        }
    }
}

fn model_sum(model: &[hylite_baselines::single_thread::NbClass]) -> f64 {
    model
        .iter()
        .map(|(_, prior, gs)| prior + gs.iter().map(|(m, _)| m).sum::<f64>())
        .sum()
}

fn model_sum_sql(result: &hylite_core::QueryResult) -> Result<f64> {
    // Model relation: class, attribute, prior, mean, stddev. Priors
    // repeat once per attribute; divide accordingly.
    let chunk = result.to_chunk()?;
    if chunk.is_empty() {
        return Err(HyError::Execution("empty model".into()));
    }
    let classes: std::collections::HashSet<String> = (0..chunk.len())
        .map(|i| chunk.column(0).value(i).to_string())
        .collect();
    let attrs = chunk.len() / classes.len().max(1);
    let priors: f64 = chunk.column(2).as_f64()?.iter().sum::<f64>() / attrs.max(1) as f64;
    let means: f64 = chunk.column(3).as_f64()?.iter().sum();
    Ok(priors + means)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use hylite_datagen::table1::KMeansExperiment;
    use hylite_graph::LdbcConfig;

    #[test]
    fn kmeans_all_systems_agree() {
        let ctx = workloads::setup_kmeans(
            KMeansExperiment {
                n: 400,
                d: 3,
                k: 3,
                iterations: 3,
            },
            11,
        )
        .unwrap();
        let mut sums = Vec::new();
        for system in System::all() {
            let (_, sum) =
                run_kmeans(system, &ctx).unwrap_or_else(|e| panic!("{system} failed: {e}"));
            sums.push((system, sum));
        }
        let reference = sums[0].1;
        for (system, sum) in &sums {
            assert!(
                (sum - reference).abs() < 1e-6 * reference.abs().max(1.0),
                "{system}: {sum} vs reference {reference}"
            );
        }
    }

    #[test]
    fn pagerank_all_systems_agree() {
        let ctx = workloads::setup_pagerank(&LdbcConfig {
            vertices: 200,
            edges: 1200,
            triangle_fraction: 0.2,
            seed: 5,
        })
        .unwrap();
        for system in System::all() {
            let (_, sum) = run_pagerank(system, &ctx, 0.85, 5)
                .unwrap_or_else(|e| panic!("{system} failed: {e}"));
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{system}: rank sum {sum} should be ≈ 1"
            );
        }
    }

    #[test]
    fn naive_bayes_all_systems_agree() {
        let ctx = workloads::setup_naive_bayes(500, 3, 9).unwrap();
        let mut sums = Vec::new();
        for system in System::all() {
            let (_, sum) =
                run_naive_bayes(system, &ctx).unwrap_or_else(|e| panic!("{system} failed: {e}"));
            sums.push((system, sum));
        }
        let reference = sums[0].1;
        for (system, sum) in &sums {
            assert!(
                (sum - reference).abs() < 1e-6 * reference.abs().max(1.0),
                "{system}: {sum} vs reference {reference}"
            );
        }
    }
}
