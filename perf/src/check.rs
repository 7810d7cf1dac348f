//! Answer checks. A result is reduced to a [`Digest`] in one pass; the
//! warm-up digest of every kind is compared with one recomputed in plain
//! Rust from the generated data, and every timed result with the warm-up's.

use crate::layers::Chunk;

/// Order-independent summary of a result: row count, a wrapping checksum
/// of every integer, boolean and string, and the sum and the sum of
/// squares of every float (PageRank ranks always sum to one; their
/// squares do not).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    pub rows: u64,
    pub ints: u64,
    pub floats: f64,
    pub squares: f64,
}

/// Floats may differ by summation order between runs and implementations.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

pub fn text_checksum(s: &str) -> u64 {
    s.bytes()
        .fold(s.len() as u64, |acc, b| acc.wrapping_add(u64::from(b)))
}

impl Digest {
    pub fn of(chunks: &[Chunk]) -> Digest {
        let mut d = Digest::with_rows(0);
        for chunk in chunks {
            d.rows += chunk.len() as u64;
            for column in chunk.columns() {
                if let Ok(values) = column.as_i64() {
                    values.iter().for_each(|v| d.add_int(*v));
                } else if let Ok(values) = column.as_f64() {
                    values.iter().for_each(|v| d.add_float(*v));
                } else if let Ok(values) = column.as_varchar() {
                    values.iter().for_each(|v| d.add_text(v));
                } else if let Ok(values) = column.as_bool() {
                    d.add_int(values.iter().filter(|b| **b).count() as i64);
                }
            }
        }
        d
    }

    /// A digest to be filled in by a plain-Rust recomputation.
    pub fn with_rows(rows: usize) -> Digest {
        Digest {
            rows: rows as u64,
            ints: 0,
            floats: 0.0,
            squares: 0.0,
        }
    }

    pub fn add_int(&mut self, v: i64) {
        self.ints = self.ints.wrapping_add(v as u64);
    }

    pub fn add_text(&mut self, s: &str) {
        self.ints = self.ints.wrapping_add(text_checksum(s));
    }

    pub fn add_float(&mut self, v: f64) {
        self.floats += v;
        self.squares += v * v;
    }

    pub fn matches(&self, want: &Digest) -> bool {
        self.rows == want.rows
            && self.ints == want.ints
            && close(self.floats, want.floats, FLOAT_TOLERANCE)
            && close(self.squares, want.squares, FLOAT_TOLERANCE)
    }

    pub fn describe(&self) -> String {
        format!(
            "rows={} ints={} floats={:?} squares={:?}",
            self.rows, self.ints, self.floats, self.squares
        )
    }
}

pub fn close(a: f64, b: f64, relative: f64) -> bool {
    (a - b).abs() <= relative * a.abs().max(b.abs()).max(1e-300)
}

/// Every float of a result, ascending: how the k-Means centres of two
/// formulations are compared without relying on row order.
pub fn sorted_floats(chunks: &[Chunk]) -> Vec<f64> {
    let mut out = Vec::new();
    for chunk in chunks {
        for column in chunk.columns() {
            if let Ok(values) = column.as_f64() {
                out.extend_from_slice(values);
            }
        }
    }
    crate::stats::sorted(out)
}

pub fn all_close(a: &[f64], b: &[f64], relative: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y, relative))
}

pub fn self_test() -> Result<(), String> {
    use crate::layers::{chunk, float_column, int_column, text_column};
    let c = chunk(vec![
        int_column(vec![1, 2, -1]),
        float_column(vec![0.5, 0.25, 0.25]),
        text_column(vec!["ab".into(), "".into(), "c".into()]),
    ]);
    let d = Digest::of(std::slice::from_ref(&c));
    let want = Digest {
        rows: 3,
        ints: 2 + (2 + 97 + 98) + (1 + 99),
        floats: 1.0,
        squares: 0.375,
    };
    if !d.matches(&want) {
        return Err(format!("check self-test failed: {d:?} != {want:?}"));
    }
    let off = Digest {
        floats: 1.0 + 1e-6,
        ..want
    };
    if d.matches(&off) || !close(1.0, 1.0 + 1e-12, FLOAT_TOLERANCE) {
        return Err("check self-test failed: float tolerance".into());
    }
    if sorted_floats(&[c]) != [0.25, 0.25, 0.5] {
        return Err("check self-test failed: sorted_floats".into());
    }
    Ok(())
}
