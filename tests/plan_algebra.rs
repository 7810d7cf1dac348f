//! The plan algebra is declared once, in `planner/src/logical.rs`: where a
//! node keeps its inputs and its expressions. Every pass goes through the
//! four accessors checked here, over every node of every plan of a corpus
//! — and the plans themselves print as they did before the analytics
//! operators became one node.

mod common;

use hylite::planner::binder::BoundStatement;
use hylite::planner::{Binder, LogicalPlan, Optimizer};
use hylite::Rules;

/// The rules the EXPLAIN golden is printed under: every one but the
/// groupjoin, whose k-Means plans `groupjoin.rs` pins.
const NO_GROUPJOIN: Rules = Rules::ALL.without(Rules::GROUPJOIN);

/// The bound plan of `sql`, as written and optimized.
fn plans(db: &hylite::Database, sql: &str) -> [LogicalPlan; 2] {
    let stmt = hylite::sql::parse_statement(sql).unwrap();
    let bound = Binder::new(db.catalog()).bind_statement(&stmt);
    let Ok(BoundStatement::Query(bound)) = bound else {
        panic!("not a query: {sql}");
    };
    let optimized = Optimizer::new().optimize(bound.clone()).unwrap();
    [bound, optimized]
}

fn for_each_node(plan: &LogicalPlan, visit: &mut dyn FnMut(&LogicalPlan)) {
    visit(plan);
    for child in plan.children() {
        for_each_node(child, visit);
    }
}

/// Tables scanned below `plan`, left to right.
fn scanned(plan: &LogicalPlan) -> Vec<String> {
    let mut tables = Vec::new();
    for_each_node(plan, &mut |node| {
        if let LogicalPlan::TableScan { table, .. } = node {
            tables.push(table.clone());
        }
    });
    tables
}

#[test]
fn one_traversal_mutable_and_shared_agree_on_every_node() {
    let db = common::corpus_db();
    let (mut nodes, mut operators) = (0, 0);
    for sql in common::corpus() {
        for plan in plans(&db, &sql) {
            for_each_node(&plan, &mut |node| {
                nodes += 1;
                operators += usize::from(matches!(node, LogicalPlan::Operator { .. }));
                // The shared and the mutable accessors hand out the same
                // nodes and expressions, in the same order.
                let mut copy = node.clone();
                let children: Vec<LogicalPlan> = copy.children().cloned().collect();
                let children_mut: Vec<LogicalPlan> =
                    copy.children_mut().map(|c| c.clone()).collect();
                assert_eq!(children, children_mut, "{sql}\n{node}");
                let exprs: Vec<_> = copy.expressions().cloned().collect();
                let exprs_mut: Vec<_> = copy.expressions_mut().map(|e| e.clone()).collect();
                assert_eq!(exprs, exprs_mut, "{sql}\n{node}");
                // Writing through the mutable accessors is seen through the
                // shared ones at the same position.
                for i in 0..children.len() {
                    let mut marked = node.clone();
                    *marked.children_mut().nth(i).unwrap() = LogicalPlan::WorkingTable {
                        name: "marker".into(),
                        schema: children[i].schema(),
                    };
                    let names: Vec<&str> = marked.children().map(LogicalPlan::op_name).collect();
                    assert_eq!(names.len(), children.len());
                    assert_eq!(names[i], "WorkingTable");
                }
                for i in 0..exprs.len() {
                    let mut marked = node.clone();
                    let marker = hylite::expr::ScalarExpr::literal("marker");
                    *marked.expressions_mut().nth(i).unwrap() = marker.clone();
                    assert_eq!(marked.expressions().nth(i), Some(&marker));
                    assert_eq!(marked.expressions().count(), exprs.len());
                }
                // Rebuilding a node from its own children changes nothing.
                let mut seen = Vec::new();
                let rebuilt = node.clone().map_children(|child| {
                    seen.push(child.clone());
                    Ok(child)
                });
                assert_eq!(rebuilt.unwrap(), *node, "{sql}");
                assert_eq!(seen, children, "{sql}");
            });
        }
    }
    assert!(nodes > 600, "only {nodes} nodes walked");
    assert!(operators >= 20, "only {operators} operator nodes walked");
}

#[test]
fn operator_inputs_are_in_sql_argument_order() {
    let db = common::corpus_db();
    let inputs_of = |sql: &str, name: &str| -> Vec<Vec<String>> {
        let [bound, optimized] = plans(&db, sql);
        let mut found = Vec::new();
        for plan in [bound, optimized] {
            for_each_node(&plan, &mut |node| {
                if let LogicalPlan::Operator { inputs, .. } = node {
                    if node.op_name() == name {
                        found.push(inputs.iter().map(scanned).collect::<Vec<_>>().concat());
                    }
                }
            });
        }
        assert_eq!(found.len(), 2, "{name} as written and optimized: {sql}");
        found
    };
    let [kmeans, assign, pagerank, _, train, predict, stats, ..] = common::TABLE_FUNCTIONS else {
        panic!("the table-function corpus changed shape");
    };
    for (sql, name, tables) in [
        (kmeans, "KMeans", vec!["pts", "ctr"]),
        (assign, "KMeansAssign", vec!["pts", "ctr"]),
        (pagerank, "PageRank", vec!["edges"]),
        (train, "NaiveBayesTrain", vec!["nbdata"]),
        (predict, "NaiveBayesPredict", vec!["nbdata", "pts"]),
        (stats, "ClassStats", vec!["nbdata"]),
    ] {
        for found in inputs_of(sql, name) {
            assert_eq!(found, tables, "{sql}");
        }
    }
}

/// `cargo test --test plan_algebra -- --ignored --nocapture print_explain`
/// prints `golden/plan_algebra_explain.txt`.
#[test]
#[ignore]
fn print_explain_for_the_golden() {
    let db = common::corpus_db();
    print!("{}", common::explain_corpus(&db, NO_GROUPJOIN));
}

/// Bound plans and EXPLAIN output, byte for byte what the parent commit
/// printed for the same corpus over the same tables — with the groupjoin
/// off; `groupjoin.rs` pins what it makes of the two k-Means statements.
#[test]
fn explain_text_matches_the_golden_captured_before_the_change() {
    let golden = include_str!("golden/plan_algebra_explain.txt");
    let db = common::corpus_db();
    let now = common::explain_corpus(&db, NO_GROUPJOIN);
    for (line, (was, is)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(was, is, "golden line {}", line + 1);
    }
    assert_eq!(golden.len(), now.len());
}
