//! Bulk CSV loading — the paper's §3 cites HyPer's Instant Loading
//! ("offers fast data loading, which is especially important for data
//! scientists"). This is a schema-directed CSV ingest: the text is split
//! into line batches, each parsed into a columnar chunk of its own and
//! appended as a whole segment.

use std::sync::Arc;

use hylite_common::{Chunk, ColumnVector, DataType, HyError, Result, Value};

use crate::database::Database;
use crate::session::{commit_ops, settle_table};

/// Options for CSV ingestion.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first line is a header to skip (default true).
    pub header: bool,
    /// String that denotes NULL (default empty field).
    pub null_marker: String,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            header: true,
            null_marker: String::new(),
        }
    }
}

/// Lines per parse batch (one columnar chunk each).
const BATCH_LINES: usize = 64 * 1024;

impl Database {
    /// Bulk-load CSV text into an existing table. Returns rows loaded.
    ///
    /// Fields are parsed according to the table schema; parse failures
    /// report the 1-based line number. Quoted fields (`"a,b"` with `""`
    /// escapes) are supported.
    pub fn copy_csv(&self, table: &str, csv: &str, options: &CsvOptions) -> Result<usize> {
        if self.is_replica() {
            return Err(HyError::ReadOnly(
                "this database is a read-only replica; bulk loads must go to the primary".into(),
            ));
        }
        let t = self.catalog().get_table(table)?;
        let schema = Arc::clone(t.read().schema());
        let types = schema.types();
        let mut lines: Vec<(usize, &str)> = csv
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        if options.header && !lines.is_empty() {
            lines.remove(0);
        }
        // One columnar chunk per line batch.
        let chunks: Vec<Result<Chunk>> = lines
            .chunks(BATCH_LINES)
            .map(|batch| {
                let mut cols: Vec<ColumnVector> =
                    types.iter().map(|&t| ColumnVector::empty(t)).collect();
                for &(lineno, line) in batch {
                    let fields = split_csv_line(line, options.delimiter);
                    if fields.len() != types.len() {
                        return Err(HyError::Execution(format!(
                            "CSV line {lineno}: expected {} fields, found {}",
                            types.len(),
                            fields.len()
                        )));
                    }
                    for ((field, col), &ty) in fields.iter().zip(&mut cols).zip(&types) {
                        let v = parse_field(field, ty, &options.null_marker).map_err(|e| {
                            HyError::Execution(format!("CSV line {lineno}: {}", e.message()))
                        })?;
                        col.push_value(&v)?;
                    }
                }
                Ok(Chunk::new(cols))
            })
            .collect();
        // The load is a write statement: take the database-wide writer
        // gate so no other session's staged rows can be swept into (or
        // destroyed by) this load's commit/rollback, and so WAL frame
        // order matches physical append order.
        let _gate = self.catalog().writer_gate().lock();
        let mut total = 0usize;
        let mut redo = Vec::new();
        let key = table.to_ascii_lowercase();
        // Stage under a short-lived table guard. The guard must be
        // released before the WAL commit lock is taken below — the
        // checkpointer acquires the commit lock first and table locks
        // second, so holding a table guard across the WAL append would
        // invert the lock order and deadlock.
        let staged = (|| -> Result<()> {
            let mut guard = t.write();
            for chunk in chunks {
                let chunk = chunk?;
                total += chunk.len();
                if self.is_durable() {
                    redo.push(hylite_storage::RedoOp::Insert {
                        table: key.clone(),
                        rows: chunk.clone(),
                    });
                }
                guard.insert_chunk(chunk)?;
            }
            Ok(())
        })();
        if let Err(e) = staged {
            t.write().rollback();
            return Err(e);
        }
        // The whole load is one WAL commit record: after a crash it is
        // either fully replayed or absent, never half a file.
        commit_ops(self.durability().map(Arc::as_ref), &redo, settle_table(&t))?;
        Ok(total)
    }
}

/// Split one CSV line honoring quotes.
fn split_csv_line(line: &str, delimiter: char) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                current.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut current));
        } else {
            current.push(c);
        }
    }
    fields.push(current);
    fields
}

fn parse_field(field: &str, ty: DataType, null_marker: &str) -> Result<Value> {
    let trimmed = field.trim();
    if trimmed == null_marker {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int64 => trimmed
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| HyError::Execution(format!("cannot parse '{trimmed}' as BIGINT"))),
        DataType::Float64 => trimmed
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| HyError::Execution(format!("cannot parse '{trimmed}' as DOUBLE"))),
        DataType::Bool => match trimmed.to_ascii_lowercase().as_str() {
            "true" | "t" | "1" => Ok(Value::Bool(true)),
            "false" | "f" | "0" => Ok(Value::Bool(false)),
            _ => Err(HyError::Execution(format!(
                "cannot parse '{trimmed}' as BOOLEAN"
            ))),
        },
        DataType::Varchar => Ok(Value::Str(field.to_owned())),
        DataType::Null => Ok(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::Value;

    #[test]
    fn loads_typed_csv() {
        let db = Database::new();
        db.execute("CREATE TABLE m (id BIGINT, score DOUBLE, name VARCHAR, ok BOOLEAN)")
            .unwrap();
        let csv = "id,score,name,ok\n1,3.5,alice,true\n2,4.0,bob,false\n3,,carol,1\n";
        let n = db.copy_csv("m", csv, &CsvOptions::default()).unwrap();
        assert_eq!(n, 3);
        let r = db.execute("SELECT sum(id), count(score) FROM m").unwrap();
        assert_eq!(r.value(0, 0).unwrap(), Value::Int(6));
        assert_eq!(r.value(0, 1).unwrap(), Value::Int(2), "empty field is NULL");
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let db = Database::new();
        db.execute("CREATE TABLE q (s VARCHAR, n BIGINT)").unwrap();
        let csv = "s,n\n\"a,b\",1\n\"say \"\"hi\"\"\",2\n";
        db.copy_csv("q", csv, &CsvOptions::default()).unwrap();
        let r = db.execute("SELECT s FROM q ORDER BY n").unwrap();
        assert_eq!(r.value(0, 0).unwrap(), Value::from("a,b"));
        assert_eq!(r.value(1, 0).unwrap(), Value::from("say \"hi\""));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let db = Database::new();
        db.execute("CREATE TABLE e (n BIGINT)").unwrap();
        let err = db
            .copy_csv("e", "n\n1\nnope\n", &CsvOptions::default())
            .unwrap_err();
        assert!(err.message().contains("line 3"), "{err}");
        // Nothing partially loaded from a failed batch... the failing
        // batch is atomic; earlier batches may have loaded. With one
        // batch here, the table stays empty.
        let r = db.execute("SELECT count(*) FROM e").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(0));
    }

    #[test]
    fn custom_delimiter_no_header() {
        let db = Database::new();
        db.execute("CREATE TABLE d (a BIGINT, b BIGINT)").unwrap();
        let opts = CsvOptions {
            delimiter: ';',
            header: false,
            null_marker: "NA".into(),
        };
        db.copy_csv("d", "1;2\n3;NA\n", &opts).unwrap();
        let r = db.execute("SELECT count(*), count(b) FROM d").unwrap();
        assert_eq!(r.value(0, 0).unwrap(), Value::Int(2));
        assert_eq!(r.value(0, 1).unwrap(), Value::Int(1));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let db = Database::new();
        db.execute("CREATE TABLE a (x BIGINT)").unwrap();
        let err = db
            .copy_csv("a", "x\n1,2\n", &CsvOptions::default())
            .unwrap_err();
        assert!(err.message().contains("expected 1 fields"));
    }

    #[test]
    fn large_csv_multiple_batches() {
        let db = Database::new();
        db.execute("CREATE TABLE big (i BIGINT)").unwrap();
        let mut csv = String::from("i\n");
        for i in 0..70_000 {
            csv.push_str(&format!("{i}\n"));
        }
        let n = db.copy_csv("big", &csv, &CsvOptions::default()).unwrap();
        assert_eq!(n, 70_000);
        let r = db.execute("SELECT max(i) FROM big").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(69_999));
    }
}
