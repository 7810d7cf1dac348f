//! Model-based testing of the storage engine: a random sequence of
//! inserts, deletes, updates, commits and rollbacks is applied both to a
//! [`Table`] and to a trivial in-memory reference model; the visible
//! states must agree after every operation.
//!
//! Operation sequences are generated from a seeded RNG so every run
//! replays the same cases (the offline stand-in for proptest).

use hylite_common::{DataType, Field, Schema, Value};
use hylite_storage::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    /// Insert rows with the given payloads.
    Insert(Vec<i64>),
    /// Delete all live rows whose payload is ≡ k (mod 7).
    DeleteWhere(i64),
    /// Update all live rows ≡ k (mod 7) to payload + 1000.
    UpdateWhere(i64),
    /// Commit the working state.
    Commit,
    /// Roll back to the committed state.
    Rollback,
}

fn arb_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0u32..5) {
        0 => {
            let n = rng.gen_range(1usize..20);
            Op::Insert((0..n).map(|_| rng.gen_range(-100i64..100)).collect())
        }
        1 => Op::DeleteWhere(rng.gen_range(0i64..7)),
        2 => Op::UpdateWhere(rng.gen_range(0i64..7)),
        3 => Op::Commit,
        _ => Op::Rollback,
    }
}

/// The reference: committed rows and working rows as plain vectors.
#[derive(Default, Clone)]
struct Model {
    committed: Vec<i64>,
    working: Vec<i64>,
}

fn live_values(t: &Table) -> Vec<i64> {
    t.snapshot()
        .live_chunks()
        .unwrap()
        .iter()
        .flat_map(|c| c.column(0).as_i64().unwrap().to_vec())
        .collect()
}

fn committed_values(t: &Table) -> Vec<i64> {
    t.committed_snapshot()
        .live_chunks()
        .unwrap()
        .iter()
        .flat_map(|c| c.column(0).as_i64().unwrap().to_vec())
        .collect()
}

fn live_row_ids(t: &Table, pred: impl Fn(i64) -> bool) -> Vec<usize> {
    let snap = t.snapshot();
    let mut ids = Vec::new();
    for m in snap.morsels(1024) {
        let (chunk, rids) = snap.read_morsel(&m, &[]).unwrap();
        let vals = chunk.column(0).as_i64().unwrap();
        for (v, rid) in vals.iter().zip(rids) {
            if pred(*v) {
                ids.push(rid);
            }
        }
    }
    ids
}

#[test]
fn table_matches_reference_model() {
    let mut rng = StdRng::seed_from_u64(0x5708A6E);
    for case in 0..64 {
        let ops: Vec<Op> = (0..rng.gen_range(1usize..40))
            .map(|_| arb_op(&mut rng))
            .collect();
        let mut table = Table::new("t", Schema::new(vec![Field::new("v", DataType::Int64)]));
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Insert(vals) => {
                    let rows: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
                    table.insert_rows(&rows).unwrap();
                    model.working.extend(vals);
                }
                Op::DeleteWhere(k) => {
                    let ids = live_row_ids(&table, |v| v.rem_euclid(7) == *k);
                    table.delete_rows(&ids).unwrap();
                    model.working.retain(|v| v.rem_euclid(7) != *k);
                }
                Op::UpdateWhere(k) => {
                    let ids = live_row_ids(&table, |v| v.rem_euclid(7) == *k);
                    let new_rows: Vec<Vec<Value>> = {
                        // Mirror the table's delete+append order: matching
                        // rows move to the end with payload + 1000.
                        let snap = table.snapshot();
                        let mut moved = Vec::new();
                        for chunk in snap.live_chunks().unwrap() {
                            for &v in chunk.column(0).as_i64().unwrap() {
                                if v.rem_euclid(7) == *k {
                                    moved.push(v + 1000);
                                }
                            }
                        }
                        moved.iter().map(|&v| vec![Value::Int(v)]).collect()
                    };
                    let moved: Vec<i64> = new_rows.iter().map(|r| r[0].as_int().unwrap()).collect();
                    table.update_rows(&ids, new_rows).unwrap();
                    model.working.retain(|v| v.rem_euclid(7) != *k);
                    model.working.extend(moved);
                }
                Op::Commit => {
                    table.commit();
                    model.committed = model.working.clone();
                }
                Op::Rollback => {
                    table.rollback();
                    model.working = model.committed.clone();
                }
            }
            // Multisets must match (storage preserves insertion order of
            // live rows, so direct comparison works).
            assert_eq!(
                live_values(&table),
                model.working,
                "case {case}: working state after {op:?}"
            );
            assert_eq!(
                committed_values(&table),
                model.committed,
                "case {case}: committed state after {op:?}"
            );
            assert_eq!(table.live_rows(), model.working.len());
        }
        // Compaction must preserve the live working state exactly.
        table.commit();
        model.committed = model.working.clone();
        table.compact().unwrap();
        assert_eq!(live_values(&table), model.working);
    }
}
