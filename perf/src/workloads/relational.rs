//! `data` and `dim`, shared by `wire.read` (in memory, over the wire) and
//! `segments.scan` (encoded on disk, embedded): the loader, and the answer
//! to every statement kind recomputed in plain Rust from the columns.

use crate::check::Digest;
use crate::gen::{DimData, Fingerprint, RelData, GROUPS};
use crate::layers::{self, Database, Res};
use crate::queries;

/// Rows per loaded chunk.
const LOAD_CHUNK_ROWS: usize = 64 * 1024;

pub struct Tables {
    pub data: RelData,
    pub dim: DimData,
}

impl Tables {
    pub fn generate(rows: usize, dim_rows: usize, seed: u64) -> Tables {
        Tables {
            data: RelData::generate(rows, dim_rows, seed),
            dim: DimData::generate(dim_rows, seed),
        }
    }

    pub fn load(&self, db: &Database) -> Res<()> {
        layers::execute(db, queries::CREATE_DATA)?;
        layers::execute(db, queries::CREATE_DIM)?;
        let d = &self.data;
        let chunks = (0..d.rows())
            .step_by(LOAD_CHUNK_ROWS)
            .map(|from| {
                let to = (from + LOAD_CHUNK_ROWS).min(d.rows());
                layers::chunk(vec![
                    layers::int_column(d.id[from..to].to_vec()),
                    layers::int_column(d.g[from..to].to_vec()),
                    layers::int_column(d.k[from..to].to_vec()),
                    layers::float_column(d.c0[from..to].to_vec()),
                    layers::float_column(d.c1[from..to].to_vec()),
                    layers::text_column(d.tag[from..to].to_vec()),
                ])
            })
            .collect();
        layers::load_table(db, "data", chunks)?;
        let dim = layers::chunk(vec![
            layers::int_column(self.dim.k.clone()),
            layers::float_column(self.dim.w.clone()),
            layers::text_column(self.dim.name.clone()),
        ]);
        layers::load_table(db, "dim", vec![dim])
    }

    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        self.data.fingerprint(fp);
        self.dim.fingerprint(fp);
    }

    /// All six columns of the rows in `ids`.
    fn whole_rows(&self, ids: impl Iterator<Item = usize>) -> Digest {
        let d = &self.data;
        let mut out = Digest::with_rows(0);
        for i in ids {
            out.rows += 1;
            out.add_int(d.id[i]);
            out.add_int(d.g[i]);
            out.add_int(d.k[i]);
            out.add_float(d.c0[i]);
            out.add_float(d.c1[i]);
            out.add_text(&d.tag[i]);
        }
        out
    }

    /// `count(*), sum(c0)` over the rows that pass `keep`.
    fn count_and_sum(&self, keep: impl Fn(usize) -> bool) -> Digest {
        let mut count = 0;
        let mut sum = 0.0;
        for i in (0..self.data.rows()).filter(|i| keep(*i)) {
            count += 1;
            sum += self.data.c0[i];
        }
        let mut out = Digest::with_rows(1);
        out.add_int(count);
        out.add_float(sum);
        out
    }

    pub fn point(&self, id: i64) -> Digest {
        self.whole_rows(std::iter::once(id as usize))
    }

    pub fn fetch(&self, rows: usize) -> Digest {
        self.whole_rows(0..rows)
    }

    pub fn filter_agg(&self) -> Digest {
        let half = (self.dim.k.len() / 2) as i64;
        self.count_and_sum(|i| self.data.c1[i] < queries::FILTER_C1_BELOW && self.data.k[i] < half)
    }

    pub fn hot_range(&self, from: usize, to: usize) -> Digest {
        self.count_and_sum(|i| i >= from && i < to)
    }

    pub fn dict_eq(&self, tag: &str) -> Digest {
        self.count_and_sum(|i| self.data.tag[i] == tag)
    }

    /// `g, count(*), sum(c0), avg(c1)` per group.
    pub fn group_agg(&self) -> Digest {
        let groups = GROUPS as usize;
        let mut count = vec![0i64; groups];
        let mut sum_c0 = vec![0.0; groups];
        let mut sum_c1 = vec![0.0; groups];
        for i in 0..self.data.rows() {
            let g = self.data.g[i] as usize;
            count[g] += 1;
            sum_c0[g] += self.data.c0[i];
            sum_c1[g] += self.data.c1[i];
        }
        let present: Vec<usize> = (0..groups).filter(|g| count[*g] > 0).collect();
        let mut out = Digest::with_rows(present.len());
        for g in present {
            out.add_int(g as i64);
            out.add_int(count[g]);
            out.add_float(sum_c0[g]);
            out.add_float(sum_c1[g] / count[g] as f64);
        }
        out
    }

    /// `count(*), sum(d.c0 * m.w)` over data ⋈ dim on k where m.w is small.
    pub fn join_agg(&self) -> Digest {
        let mut count = 0;
        let mut sum = 0.0;
        for i in 0..self.data.rows() {
            let w = self.dim.w[self.data.k[i] as usize];
            if w < queries::JOIN_W_BELOW {
                count += 1;
                sum += self.data.c0[i] * w;
            }
        }
        let mut out = Digest::with_rows(1);
        out.add_int(count);
        out.add_float(sum);
        out
    }

    /// `id, c0` of the rows with the largest c0.
    pub fn topk(&self) -> Digest {
        let mut order: Vec<usize> = (0..self.data.rows()).collect();
        order.sort_by(|a, b| self.data.c0[*b].total_cmp(&self.data.c0[*a]));
        order.truncate(queries::TOPK);
        let mut out = Digest::with_rows(order.len());
        for i in order {
            out.add_int(self.data.id[i]);
            out.add_float(self.data.c0[i]);
        }
        out
    }

    /// `count(*), sum(c0), sum(c1), sum(k)` over everything.
    pub fn full_agg(&self) -> Digest {
        let d = &self.data;
        let mut out = Digest::with_rows(1);
        out.add_int(d.rows() as i64);
        out.add_int(d.k.iter().sum());
        out.add_float(d.c0.iter().sum());
        out.add_float(d.c1.iter().sum());
        out
    }
}
