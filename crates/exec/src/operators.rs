//! Glue between the plan's analytics nodes and the `hylite-analytics`
//! operator implementations: materialize subplan inputs, run the
//! operator, shape the output relation.

use hylite_analytics::{
    class_stats_governed, kmeans_assign_governed, kmeans_governed, pagerank_governed, KMeansConfig,
    NaiveBayesModel, PageRankConfig,
};
use hylite_common::{Chunk, ColumnVector, DataType, HyError, Result};
use hylite_expr::BoundLambda;
use hylite_graph::CsrGraph;
use hylite_planner::{AnalyticsOp, LogicalPlan};
use std::sync::Arc;

use crate::executor::Executor;

impl Executor {
    /// Run the analytics operator `op` over `inputs` (SQL argument order;
    /// the binder built as many as the operator takes).
    pub(crate) fn exec_operator(
        &mut self,
        op: &AnalyticsOp,
        inputs: &[LogicalPlan],
        output_types: &[DataType],
    ) -> Result<Vec<Chunk>> {
        let result = match op {
            AnalyticsOp::KMeans {
                lambda,
                max_iterations,
            } => self.exec_kmeans(&inputs[0], &inputs[1], lambda.as_ref(), *max_iterations),
            AnalyticsOp::KMeansAssign { lambda } => {
                self.exec_kmeans_assign(&inputs[0], &inputs[1], lambda.as_ref())
            }
            AnalyticsOp::PageRank {
                weighted,
                damping,
                epsilon,
                max_iterations,
            } => self.exec_pagerank(&inputs[0], *weighted, *damping, *epsilon, *max_iterations),
            AnalyticsOp::NaiveBayesTrain { feature_names } => {
                self.exec_nb_train(&inputs[0], feature_names, output_types)
            }
            AnalyticsOp::NaiveBayesPredict { feature_names } => {
                self.exec_nb_predict(&inputs[0], &inputs[1], feature_names)
            }
            AnalyticsOp::ClassStats { feature_names } => {
                self.exec_class_stats(&inputs[0], feature_names, output_types)
            }
        };
        self.record_schedule();
        result
    }

    /// Publish what the morsel scheduler did for this operator (its inputs
    /// ran, and published, before it): the `sched.*` counters, and
    /// `threads` / `morsels` on the operator's profile span.
    fn record_schedule(&mut self) {
        let did = self.ctx.governor().sched().take();
        let m = self.ctx.metrics();
        for (name, n) in [
            ("sched.parallel_calls", did.parallel_calls),
            ("sched.inline_calls.one_morsel", did.inline_one_morsel),
            ("sched.inline_calls.single_thread", did.inline_single_thread),
            ("sched.inline_calls.no_permit", did.inline_no_permit),
            ("sched.morsels", did.morsels),
        ] {
            m.counter(name).add(n);
        }
        self.ctx.profile_note("threads", did.max_threads);
        self.ctx.profile_note("morsels", did.morsels);
    }

    /// Report an iterative analytics operator's run into the metrics
    /// registry (`<op>.runs`, `<op>.iterations_total`, `<op>.iteration_us`)
    /// and annotate the operator's profile span.
    fn record_iterations(
        &mut self,
        op: &str,
        iterations: usize,
        converged: bool,
        iter_micros: &[u64],
    ) {
        {
            let m = self.ctx.metrics();
            m.counter(&format!("{op}.runs")).inc();
            m.counter(&format!("{op}.iterations_total"))
                .add(iterations as u64);
            let per_iter = m.histogram(&format!("{op}.iteration_us"));
            for &us in iter_micros {
                per_iter.record(us);
            }
        }
        self.ctx.stats.iterations += iterations;
        self.ctx.profile_note("iterations", iterations);
        self.ctx.profile_note("converged", converged);
    }

    /// KMEANS(data, centers, λ, max_iter) → (cluster_id, dims..., size).
    fn exec_kmeans(
        &mut self,
        data: &LogicalPlan,
        centers: &LogicalPlan,
        lambda: Option<&BoundLambda>,
        max_iterations: usize,
    ) -> Result<Vec<Chunk>> {
        let data_chunks = self.execute(data)?;
        let center_rows = self.centers_matrix(centers)?;
        let governor = Arc::clone(self.ctx.governor());
        let result = kmeans_governed(
            &data_chunks,
            center_rows,
            lambda,
            &KMeansConfig { max_iterations },
            &governor,
        )?;
        self.record_iterations(
            "kmeans",
            result.iterations,
            result.converged,
            &result.iter_micros,
        );
        // Per-iteration centroid shift, scaled to integer micro-units for
        // the log-scale histogram.
        {
            let shift = self.ctx.metrics().histogram("kmeans.centroid_shift_micro");
            for &s in &result.shift_history {
                shift.record((s * 1e6) as u64);
            }
        }
        if let Some(&last) = result.shift_history.last() {
            self.ctx
                .profile_note("final_centroid_shift", format!("{last:.6}"));
        }
        let k = result.centers.len();
        let d = result.centers.first().map_or(0, Vec::len);
        let mut cols: Vec<ColumnVector> = Vec::with_capacity(d + 2);
        cols.push(ColumnVector::from_i64((0..k as i64).collect()));
        for dim in 0..d {
            cols.push(ColumnVector::from_f64(
                result.centers.iter().map(|c| c[dim]).collect(),
            ));
        }
        cols.push(ColumnVector::from_i64(
            result.sizes.iter().map(|&s| s as i64).collect(),
        ));
        Ok(vec![Chunk::new(cols)])
    }

    /// KMEANS_ASSIGN(data, centers, λ) → (dims..., cluster_id).
    fn exec_kmeans_assign(
        &mut self,
        data: &LogicalPlan,
        centers: &LogicalPlan,
        lambda: Option<&BoundLambda>,
    ) -> Result<Vec<Chunk>> {
        let data_chunks = self.execute(data)?;
        let center_rows = self.centers_matrix(centers)?;
        let assignments =
            kmeans_assign_governed(&data_chunks, &center_rows, lambda, self.ctx.governor())?;
        let out = data_chunks
            .iter()
            .zip(assignments)
            .map(|(chunk, assign)| {
                let mut cols = chunk.columns().to_vec();
                cols.push(std::sync::Arc::new(ColumnVector::from_i64(
                    assign.into_iter().map(i64::from).collect(),
                )));
                Chunk::from_arc_columns(cols)
            })
            .collect();
        Ok(out)
    }

    /// PAGERANK(edges, d, ε, max_iter) → (vertex, rank).
    fn exec_pagerank(
        &mut self,
        edges: &LogicalPlan,
        weighted: bool,
        damping: f64,
        epsilon: f64,
        max_iterations: usize,
    ) -> Result<Vec<Chunk>> {
        let edge_chunks = self.execute(edges)?;
        let governor = Arc::clone(self.ctx.governor());
        // Flatten the edge list into (src, dest[, weight]) arrays.
        let edges: usize = edge_chunks.iter().map(Chunk::len).sum();
        let mut src = Vec::with_capacity(edges);
        let mut dest = Vec::with_capacity(edges);
        let mut weights = Vec::with_capacity(if weighted { edges } else { 0 });
        for chunk in &edge_chunks {
            let s = chunk.column(0);
            let d = chunk.column(1);
            if s.null_count() > 0 || d.null_count() > 0 {
                return Err(HyError::Analytics(
                    "PAGERANK edge list must not contain NULLs".into(),
                ));
            }
            src.extend_from_slice(s.as_i64()?);
            dest.extend_from_slice(d.as_i64()?);
            if weighted {
                let w = chunk.column(2);
                if w.null_count() > 0 {
                    return Err(HyError::Analytics(
                        "PAGERANK edge weights must not contain NULLs".into(),
                    ));
                }
                weights.extend_from_slice(w.as_f64()?);
            }
        }
        // Query-local CSR with dense re-labeling (§6.3).
        let config = PageRankConfig {
            damping,
            epsilon,
            max_iterations,
        };
        // Charge the flattened edge arrays for the duration of the run.
        let edge_bytes = (src.len() + dest.len()) as u64 * 8 + weights.len() as u64 * 8;
        let _edges_charge = governor.reserve_scoped(edge_bytes)?;
        let (graph, result) = if weighted {
            let (graph, csr_weights) = CsrGraph::from_weighted_edges(&src, &dest, &weights)?;
            let result = hylite_analytics::pagerank::pagerank_weighted_governed(
                &graph,
                &csr_weights,
                &config,
                &governor,
            )?;
            (graph, result)
        } else {
            let graph = CsrGraph::from_edges(&src, &dest)?;
            let result = pagerank_governed(&graph, &config, &governor)?;
            (graph, result)
        };
        self.record_iterations(
            "pagerank",
            result.iterations,
            result.converged,
            &result.iter_micros,
        );
        // Per-iteration residual (summed |Δrank|), scaled to integer
        // nano-units — residuals shrink toward ε ≈ 1e-9.
        {
            let residual = self.ctx.metrics().histogram("pagerank.residual_nano");
            for &r in &result.residual_history {
                residual.record((r * 1e9) as u64);
            }
        }
        if let Some(&last) = result.residual_history.last() {
            self.ctx
                .profile_note("final_residual", format!("{last:.3e}"));
        }
        // Reverse mapping back to the original vertex ids.
        let vertices: Vec<i64> = (0..graph.num_vertices() as u32)
            .map(|v| graph.mapping().to_original(v))
            .collect();
        Ok(vec![Chunk::new(vec![
            ColumnVector::from_i64(vertices),
            ColumnVector::from_f64(result.ranks),
        ])])
    }

    /// NAIVE_BAYES_TRAIN(data) → (class, attribute, prior, mean, stddev).
    fn exec_nb_train(
        &mut self,
        data: &LogicalPlan,
        feature_names: &[String],
        output_types: &[DataType],
    ) -> Result<Vec<Chunk>> {
        let chunks = self.execute(data)?;
        let governor = Arc::clone(self.ctx.governor());
        let model = NaiveBayesModel::train_governed(&chunks, feature_names, &governor)?;
        let rows = model.to_rows();
        Ok(vec![Chunk::from_rows(output_types, &rows)?])
    }

    /// NAIVE_BAYES_PREDICT(model, data) → (features..., label).
    fn exec_nb_predict(
        &mut self,
        model: &LogicalPlan,
        data: &LogicalPlan,
        feature_names: &[String],
    ) -> Result<Vec<Chunk>> {
        let model_chunks = self.execute(model)?;
        let model = NaiveBayesModel::from_relation(&model_chunks, feature_names)?;
        let data_chunks = self.execute(data)?;
        let labels = model.predict_governed(&data_chunks, self.ctx.governor())?;
        let out = data_chunks
            .iter()
            .zip(labels)
            .map(|(chunk, label_col)| {
                let mut cols = chunk.columns().to_vec();
                cols.push(std::sync::Arc::new(label_col));
                Chunk::from_arc_columns(cols)
            })
            .collect();
        Ok(out)
    }

    /// CLASS_STATS(data) → (class, attribute, count, mean, stddev, min, max).
    fn exec_class_stats(
        &mut self,
        data: &LogicalPlan,
        feature_names: &[String],
        output_types: &[DataType],
    ) -> Result<Vec<Chunk>> {
        let chunks = self.execute(data)?;
        let rows: Vec<Vec<hylite_common::Value>> =
            class_stats_governed(&chunks, feature_names, self.ctx.governor())?
                .iter()
                .map(|r| r.to_values())
                .collect();
        Ok(vec![Chunk::from_rows(output_types, &rows)?])
    }

    /// Materialize a centers subplan into a k×d row-major matrix.
    fn centers_matrix(&mut self, centers: &LogicalPlan) -> Result<Vec<Vec<f64>>> {
        let chunks = self.execute(centers)?;
        let mut rows = Vec::new();
        for chunk in &chunks {
            let cols: Vec<&[f64]> = (0..chunk.num_columns())
                .map(|i| {
                    if chunk.column(i).null_count() > 0 {
                        return Err(HyError::Analytics(
                            "k-Means centers must not contain NULLs".into(),
                        ));
                    }
                    chunk.column(i).as_f64()
                })
                .collect::<Result<_>>()?;
            for i in 0..chunk.len() {
                rows.push(cols.iter().map(|c| c[i]).collect());
            }
        }
        if rows.is_empty() {
            return Err(HyError::Analytics(
                "k-Means requires a non-empty centers relation".into(),
            ));
        }
        Ok(rows)
    }
}
