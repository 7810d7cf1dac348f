//! Cardinality estimation for logical plans.
//!
//! §5.2 of the paper discusses why analytics operators are hard for a
//! cardinality estimator; the estimates here encode the special cases the
//! paper calls out: k-Means emits exactly k rows (the centers),
//! KMEANS_ASSIGN and the ITERATE operator preserve their input
//! cardinality, PageRank emits one row per vertex (estimated from the
//! edge count), and recursive CTEs grow with unknown depth (we assume a
//! small constant factor, as real optimizers do).

use crate::logical::{AnalyticsOp, JoinKind, LogicalPlan};

/// Default filter selectivity when nothing better is known.
pub const FILTER_SELECTIVITY: f64 = 0.25;

/// Assumed growth factor for recursive CTEs (unknown recursion depth).
pub const RECURSION_GROWTH: f64 = 10.0;

/// Estimate the output row count of a plan. `table_rows` supplies base
/// table cardinalities (usually from the catalog).
pub fn estimate_rows(plan: &LogicalPlan, table_rows: &dyn Fn(&str) -> usize) -> f64 {
    match plan {
        LogicalPlan::TableScan { table, filter, .. } => {
            let base = table_rows(table) as f64;
            if filter.is_some() {
                base * FILTER_SELECTIVITY
            } else {
                base
            }
        }
        LogicalPlan::Values { rows, .. } => rows.len() as f64,
        // System views are tiny virtual relations (one row per metric /
        // connection / replica); a small constant keeps them off the
        // build side of nothing important.
        LogicalPlan::SystemScan { .. } => 16.0,
        LogicalPlan::Empty { .. } => 1.0,
        LogicalPlan::Filter { input, .. } => estimate_rows(input, table_rows) * FILTER_SELECTIVITY,
        LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => {
            estimate_rows(input, table_rows)
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let inner = estimate_rows(input, table_rows);
            let after_offset = (inner - *offset as f64).max(0.0);
            match limit {
                Some(l) => after_offset.min(*l as f64),
                None => after_offset,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            ..
        } => {
            let l = estimate_rows(left, table_rows);
            let r = estimate_rows(right, table_rows);
            match (kind, condition) {
                (JoinKind::Cross, _) | (_, None) => l * r,
                // Equi-join heuristic: |L⋈R| ≈ max(L, R).
                _ => l.max(r),
            }
        }
        LogicalPlan::Aggregate {
            input, group_exprs, ..
        } => {
            let inner = estimate_rows(input, table_rows);
            if group_exprs.is_empty() {
                1.0
            } else {
                // Square-root heuristic for distinct groups.
                inner.sqrt().max(1.0)
            }
        }
        LogicalPlan::Union { inputs, all, .. } => {
            let sum: f64 = inputs.iter().map(|i| estimate_rows(i, table_rows)).sum();
            if *all {
                sum
            } else {
                sum * 0.5
            }
        }
        LogicalPlan::Distinct { input } => estimate_rows(input, table_rows) * 0.5,
        LogicalPlan::WorkingTable { .. } => 1000.0,
        LogicalPlan::RecursiveCte { init, .. } => {
            estimate_rows(init, table_rows) * RECURSION_GROWTH
        }
        // The paper's special cases:
        // ITERATE preserves the working-table cardinality (non-appending).
        LogicalPlan::Iterate { init, .. } => estimate_rows(init, table_rows),
        LogicalPlan::Operator { op, inputs, .. } => {
            let input = |i: usize| estimate_rows(&inputs[i], table_rows);
            match op {
                // k-Means outputs exactly the centers.
                AnalyticsOp::KMeans { .. } => input(1),
                // Assignment and prediction preserve the data cardinality.
                AnalyticsOp::KMeansAssign { .. } => input(0),
                AnalyticsOp::NaiveBayesPredict { .. } => input(1),
                // PageRank outputs one row per vertex; vertices ≈ edges / avg-deg.
                AnalyticsOp::PageRank { .. } => (input(0) / 10.0).max(1.0),
                // NB model: #classes × #attributes — both small; use a constant.
                AnalyticsOp::NaiveBayesTrain { .. } | AnalyticsOp::ClassStats { .. } => 32.0,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{DataType, Field, Schema};
    use hylite_expr::ScalarExpr;
    use std::sync::Arc;

    fn scan(name: &str) -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)]));
        LogicalPlan::TableScan {
            table: name.into(),
            table_schema: Arc::clone(&schema),
            projection: None,
            filter: None,
            schema,
        }
    }

    fn rows(name: &str) -> usize {
        match name {
            "big" => 1_000_000,
            "small" => 10,
            _ => 0,
        }
    }

    #[test]
    fn scan_and_filter() {
        assert_eq!(estimate_rows(&scan("big"), &rows), 1_000_000.0);
        let f = LogicalPlan::Filter {
            input: Box::new(scan("big")),
            predicate: ScalarExpr::literal(true),
        };
        assert_eq!(estimate_rows(&f, &rows), 250_000.0);
    }

    #[test]
    fn kmeans_outputs_centers() {
        let schema = Arc::new(Schema::empty());
        let plan = LogicalPlan::Operator {
            op: AnalyticsOp::KMeans {
                lambda: None,
                max_iterations: 3,
            },
            inputs: vec![scan("big"), scan("small")],
            schema,
        };
        assert_eq!(estimate_rows(&plan, &rows), 10.0);
    }

    #[test]
    fn iterate_preserves_cardinality() {
        let schema = Arc::new(Schema::empty());
        let plan = LogicalPlan::Iterate {
            init: Box::new(scan("small")),
            step: Box::new(scan("small")),
            stop: Box::new(scan("small")),
            max_iterations: 100,
            schema,
        };
        assert_eq!(estimate_rows(&plan, &rows), 10.0);
    }

    #[test]
    fn limit_caps() {
        let plan = LogicalPlan::Limit {
            input: Box::new(scan("big")),
            limit: Some(7),
            offset: 0,
        };
        assert_eq!(estimate_rows(&plan, &rows), 7.0);
    }
}
