//! Morsel-driven table scans with fused filter/projection.

use hylite_common::governor::Governor;
use hylite_common::{Chunk, Result, CHUNK_ROWS};
use hylite_expr::{BinaryOp, ScalarExpr};
use hylite_storage::{ScanPruning, TableSnapshot, ZoneRange};

/// Rows per scan morsel. A multiple of the execution chunk size so each
/// morsel task produces a handful of chunks.
pub const MORSEL_ROWS: usize = 32 * CHUNK_ROWS;

/// Collect the ranges implied by a pushed-down filter: every conjunct of
/// the form `col <cmp> literal` (either orientation) becomes a
/// [`ZoneRange`] on the underlying table column. Zone maps prune whole
/// blocks with them and, under `SET encoded_scan = on`, storage evaluates
/// them on the encoded blocks that remain. Disjunctions, NULL literals
/// and computed operands contribute nothing, keeping both conservative —
/// the filter itself still runs over every surviving row.
///
/// The filter is evaluated against the *projected* chunk, so its column
/// indexes are translated through `projection` back into table columns
/// (the space zone maps live in).
pub fn extract_zone_ranges(filter: &ScalarExpr, projection: Option<&[usize]>) -> Vec<ZoneRange> {
    let mut out = Vec::new();
    collect_ranges(filter, projection, &mut out);
    out
}

fn collect_ranges(expr: &ScalarExpr, projection: Option<&[usize]>, out: &mut Vec<ZoneRange>) {
    let ScalarExpr::Binary {
        op, left, right, ..
    } = expr
    else {
        return;
    };
    match op {
        BinaryOp::And => {
            collect_ranges(left, projection, out);
            collect_ranges(right, projection, out);
        }
        BinaryOp::Eq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
            let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Column { index, .. }, ScalarExpr::Literal(v)) => (*index, v, *op),
                (ScalarExpr::Literal(v), ScalarExpr::Column { index, .. }) => {
                    (*index, v, flip(*op))
                }
                _ => return,
            };
            // `col <cmp> NULL` is never true; leave that to the filter.
            if lit.is_null() {
                return;
            }
            let col = projection.map_or(col, |p| p[col]);
            let (lower, upper) = match op {
                BinaryOp::Eq => (Some((lit.clone(), true)), Some((lit.clone(), true))),
                BinaryOp::Lt => (None, Some((lit.clone(), false))),
                BinaryOp::LtEq => (None, Some((lit.clone(), true))),
                BinaryOp::Gt => (Some((lit.clone(), false)), None),
                BinaryOp::GtEq => (Some((lit.clone(), true)), None),
                _ => unreachable!("comparison operators only"),
            };
            out.push(ZoneRange { col, lower, upper });
        }
        _ => {}
    }
}

/// Mirror a comparison for the `literal <cmp> col` orientation.
fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Scan a snapshot morsel by morsel, applying the scan-local column
/// projection and pushed-down filter inside each morsel task (pipeline
/// fusion).
///
/// Each morsel task starts with a governor check, so a cancelled or
/// timed-out statement stops the scan within one morsel even on very
/// large tables.
pub fn scan(
    snapshot: &TableSnapshot,
    projection: Option<&[usize]>,
    filter: Option<&ScalarExpr>,
    governor: &Governor,
) -> Result<Vec<Chunk>> {
    scan_pruned(snapshot, projection, filter, governor, false).map(|(chunks, _)| chunks)
}

/// What storage gets of a scan's ranges: all of them with `encoded_scan`
/// on, none with it off — every row of every block the zone maps left
/// then reaches the filter through the same reader.
fn pushed(ranges: &[ZoneRange], encoded_scan: bool) -> &[ZoneRange] {
    if encoded_scan {
        ranges
    } else {
        &[]
    }
}

/// [`scan`], additionally reporting what the scan skipped (for EXPLAIN
/// ANALYZE and the scan telemetry): blocks by zone map, then — with
/// `encoded_scan` — blocks and rows by evaluating the filter's ranges on
/// the encoded data, so that only the selected rows of the projected
/// columns are materialized.
pub fn scan_pruned(
    snapshot: &TableSnapshot,
    projection: Option<&[usize]>,
    filter: Option<&ScalarExpr>,
    governor: &Governor,
    encoded_scan: bool,
) -> Result<(Vec<Chunk>, ScanPruning)> {
    let ranges = filter.map_or_else(Vec::new, |f| extract_zone_ranges(f, projection));
    let (morsels, mut pruning) = snapshot.pruned_morsels(MORSEL_ROWS, &ranges);
    let ranges = pushed(&ranges, encoded_scan);
    let results: Vec<Result<(Option<Chunk>, usize, usize)>> = morsels
        .iter()
        .map(|m| {
            governor.check()?;
            let (chunk, emptied) = snapshot.read_morsel_selected(m, projection, ranges)?;
            let selected = chunk.len();
            let chunk = match filter {
                Some(pred) if !chunk.is_empty() => crate::util::apply_predicate(&chunk, pred)?,
                _ => chunk,
            };
            Ok(((!chunk.is_empty()).then_some(chunk), selected, emptied))
        })
        .collect();
    let mut out = Vec::new();
    for r in results {
        let (chunk, selected, emptied) = r?;
        out.extend(chunk);
        pruning.rows_selected += selected;
        pruning.blocks_skipped_encoded += emptied;
    }
    Ok((out, pruning))
}

/// Scan returning both surviving chunks and their global row ids
/// (sequential; used by UPDATE/DELETE to locate target rows). Blocks and
/// rows are skipped as in [`scan_pruned`]. Checks the governor once per
/// morsel.
pub fn scan_with_row_ids(
    snapshot: &TableSnapshot,
    filter: Option<&ScalarExpr>,
    governor: &Governor,
    encoded_scan: bool,
) -> Result<Vec<(Chunk, Vec<usize>)>> {
    let ranges = filter.map_or_else(Vec::new, |f| extract_zone_ranges(f, None));
    let mut out = Vec::new();
    for m in snapshot.pruned_morsels(MORSEL_ROWS, &ranges).0 {
        governor.check()?;
        let (chunk, ids) = snapshot.read_morsel(&m, pushed(&ranges, encoded_scan))?;
        if chunk.is_empty() {
            continue;
        }
        match filter {
            None => out.push((chunk, ids)),
            Some(pred) => {
                let col = pred.eval(&chunk)?;
                let sel = col.to_selection()?;
                let kept: Vec<usize> = sel.iter_ones().map(|i| ids[i]).collect();
                if !kept.is_empty() {
                    out.push((chunk.filter(&sel), kept));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{DataType, Field, Schema, Value};
    use hylite_expr::BinaryOp;
    use hylite_storage::Table;

    fn table(n: usize) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
        );
        let rows: Vec<Vec<Value>> = (0..n as i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 * 0.5)])
            .collect();
        t.insert_rows(&rows).unwrap();
        t.commit();
        t
    }

    #[test]
    fn full_scan_returns_all_rows() {
        let t = table(10_000);
        let chunks = scan(&t.snapshot(), None, None, &Governor::unlimited()).unwrap();
        assert_eq!(crate::util::total_rows(&chunks), 10_000);
    }

    #[test]
    fn projection_selects_columns() {
        let t = table(100);
        let chunks = scan(&t.snapshot(), Some(&[1]), None, &Governor::unlimited()).unwrap();
        assert_eq!(chunks[0].num_columns(), 1);
        assert_eq!(chunks[0].column(0).data_type(), DataType::Float64);
    }

    #[test]
    fn projected_scan_shares_the_resident_column() {
        // The projection reaches storage: a resident segment hands out the
        // one column asked for, by reference, and touches no other.
        let t = table(100);
        let snapshot = t.snapshot();
        let chunks = scan(&snapshot, Some(&[1]), None, &Governor::unlimited()).unwrap();
        let hylite_storage::SegmentHandle::Resident(segment) = &snapshot.segments()[0] else {
            panic!("a table that was never checkpointed is resident");
        };
        assert!(std::sync::Arc::ptr_eq(
            &chunks[0].columns()[0],
            &segment.columns()[1]
        ));
    }

    #[test]
    fn filter_fused_into_scan() {
        let t = table(1000);
        let pred = ScalarExpr::binary(
            BinaryOp::Lt,
            ScalarExpr::column(0, DataType::Int64),
            ScalarExpr::literal(10i64),
        )
        .unwrap();
        let chunks = scan(&t.snapshot(), None, Some(&pred), &Governor::unlimited()).unwrap();
        assert_eq!(crate::util::total_rows(&chunks), 10);
    }

    #[test]
    fn row_ids_track_matches() {
        let mut t = table(100);
        t.delete_rows(&[0, 1]).unwrap();
        t.commit();
        let pred = ScalarExpr::binary(
            BinaryOp::Lt,
            ScalarExpr::column(0, DataType::Int64),
            ScalarExpr::literal(5i64),
        )
        .unwrap();
        let hits =
            scan_with_row_ids(&t.snapshot(), Some(&pred), &Governor::unlimited(), true).unwrap();
        let ids: Vec<usize> = hits.iter().flat_map(|(_, ids)| ids.clone()).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }
}
