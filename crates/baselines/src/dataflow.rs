//! The dedicated-dataflow stand-in (Spark/MLlib-style).
//!
//! Character reproduced: data must first be *loaded* out of the database
//! into the engine's own partitioned format (the ETL copy the paper says
//! integrated systems avoid); computation proceeds in *stages* whose
//! task closures are boxed (scheduled generically, not fused) and whose
//! outputs are fully materialized per partition; partitions are the unit
//! of scheduling, handed to the same morsel scheduler as the engine's
//! own operators (`run_tasks`) so the comparison stays core for core.
//! Fast — but every stage pays copy + dispatch + materialization.

use std::collections::HashMap;

use hylite_common::morsel::map_morsels;
use hylite_common::{Chunk, Governor};

/// The task seam: one task per partition on the engine's morsel
/// scheduler (its default thread count, as the operators it is compared
/// with), results in partition order.
fn run_tasks<P: Sync, T: Send>(partitions: &[P], task: impl Fn(&P) -> T + Sync) -> Vec<T> {
    map_morsels(&Governor::unlimited(), partitions, |p| Ok(task(p)))
        .expect("tasks cannot fail and an unlimited governor never aborts")
}

/// A partitioned, row-major dataset — the engine's internal format.
#[derive(Debug, Clone)]
pub struct DistDataset {
    partitions: Vec<Vec<Vec<f64>>>,
}

/// A boxed stage task: one partition in, one partition result out.
type Task<'a, T> = Box<dyn Fn(&[Vec<f64>]) -> T + Send + Sync + 'a>;

impl DistDataset {
    /// Load (copy) columnar database chunks into the engine: the ETL
    /// step. One partition per input chunk.
    pub fn load(chunks: &[Chunk]) -> DistDataset {
        let partitions = run_tasks(chunks, |chunk| {
            let d = chunk.num_columns();
            let cols: Vec<&[f64]> = (0..d)
                .map(|i| chunk.column(i).as_f64().expect("numeric input"))
                .collect();
            (0..chunk.len())
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect()
        });
        DistDataset { partitions }
    }

    /// Load row-major data, splitting into `parts` partitions.
    pub fn from_rows(rows: &[Vec<f64>], parts: usize) -> DistDataset {
        let parts = parts.max(1);
        let per = rows.len().div_ceil(parts);
        DistDataset {
            partitions: rows.chunks(per.max(1)).map(<[Vec<f64>]>::to_vec).collect(),
        }
    }

    /// Total rows.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Run one stage: apply a boxed task to every partition and
    /// materialize all results.
    pub fn run_stage<T: Send>(&self, task: Task<'_, T>) -> Vec<T> {
        run_tasks(&self.partitions, |p| task(p))
    }
}

/// k-Means on the dataflow engine: one stage per iteration; each stage
/// broadcasts the centers, computes per-partition partial sums, and the
/// driver reduces them.
pub fn kmeans(
    data: &DistDataset,
    initial_centers: &[Vec<f64>],
    max_iterations: usize,
) -> (Vec<Vec<f64>>, Vec<u64>, usize) {
    let k = initial_centers.len();
    let d = initial_centers.first().map_or(0, Vec::len);
    let mut centers = initial_centers.to_vec();
    let mut sizes = vec![0u64; k];
    let mut iterations = 0usize;
    while iterations < max_iterations {
        iterations += 1;
        let broadcast = centers.clone();
        // One boxed stage: partial (sums, counts) per partition.
        let partials: Vec<(Vec<Vec<f64>>, Vec<u64>)> = data.run_stage(Box::new(move |part| {
            let mut sums = vec![vec![0.0f64; d]; k];
            let mut counts = vec![0u64; k];
            for row in part {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, center) in broadcast.iter().enumerate() {
                    let mut dist = 0.0;
                    for (x, m) in row.iter().zip(center) {
                        let diff = x - m;
                        dist += diff * diff;
                    }
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                counts[best] += 1;
                for (s, x) in sums[best].iter_mut().zip(row) {
                    *s += x;
                }
            }
            (sums, counts)
        }));
        // Driver-side reduce (the "shuffle").
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0u64; k];
        for (ps, pc) in partials {
            for c in 0..k {
                counts[c] += pc[c];
                for dim in 0..d {
                    sums[c][dim] += ps[c][dim];
                }
            }
        }
        let mut moved = false;
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            for dim in 0..d {
                let new = sums[c][dim] / counts[c] as f64;
                if new != centers[c][dim] {
                    moved = true;
                    centers[c][dim] = new;
                }
            }
        }
        sizes = counts;
        if !moved {
            break;
        }
    }
    (centers, sizes, iterations)
}

/// A partitioned edge list for the graph workloads.
#[derive(Debug, Clone)]
pub struct DistEdges {
    partitions: Vec<Vec<(i64, i64)>>,
}

impl DistEdges {
    /// Load an edge list, splitting into `parts` partitions.
    pub fn load(src: &[i64], dest: &[i64], parts: usize) -> DistEdges {
        let pairs: Vec<(i64, i64)> = src.iter().copied().zip(dest.iter().copied()).collect();
        let per = pairs.len().div_ceil(parts.max(1)).max(1);
        DistEdges {
            partitions: pairs.chunks(per).map(<[(i64, i64)]>::to_vec).collect(),
        }
    }
}

/// PageRank on the dataflow engine: per iteration, a contribution stage
/// over edge partitions emits (dest, share) messages that the driver
/// aggregates — the shuffle-per-iteration pattern of Spark GraphX-style
/// implementations. No CSR index is built.
pub fn pagerank(edges: &DistEdges, damping: f64, max_iterations: usize) -> HashMap<i64, f64> {
    // Stage 0: degrees and vertex discovery.
    let partials: Vec<(HashMap<i64, u64>, Vec<i64>)> = run_tasks(&edges.partitions, |part| {
        let mut deg: HashMap<i64, u64> = HashMap::new();
        let mut verts = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(s, d) in part {
            *deg.entry(s).or_insert(0) += 1;
            for v in [s, d] {
                if seen.insert(v) {
                    verts.push(v);
                }
            }
        }
        (deg, verts)
    });
    let mut out_degree: HashMap<i64, u64> = HashMap::new();
    let mut vertices: Vec<i64> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (deg, verts) in partials {
        for (v, c) in deg {
            *out_degree.entry(v).or_insert(0) += c;
        }
        for v in verts {
            if seen.insert(v) {
                vertices.push(v);
            }
        }
    }
    let n = vertices.len();
    if n == 0 {
        return HashMap::new();
    }
    let inv_n = 1.0 / n as f64;
    let mut ranks: HashMap<i64, f64> = vertices.iter().map(|&v| (v, inv_n)).collect();
    for _ in 0..max_iterations {
        let dangling: f64 = vertices
            .iter()
            .filter(|v| !out_degree.contains_key(v))
            .map(|v| ranks[v])
            .sum();
        let base = (1.0 - damping) * inv_n + damping * dangling * inv_n;
        // Contribution stage: each edge partition materializes its
        // (dest, share) messages.
        let ranks_ref = &ranks;
        let deg_ref = &out_degree;
        let messages: Vec<HashMap<i64, f64>> = run_tasks(&edges.partitions, |part| {
            let mut local: HashMap<i64, f64> = HashMap::new();
            for &(s, d) in part {
                let share = damping * ranks_ref[&s] / deg_ref[&s] as f64;
                *local.entry(d).or_insert(0.0) += share;
            }
            local
        });
        // Driver-side shuffle/aggregate.
        let mut next: HashMap<i64, f64> = vertices.iter().map(|&v| (v, base)).collect();
        for local in messages {
            for (v, share) in local {
                *next.get_mut(&v).expect("vertex interned") += share;
            }
        }
        ranks = next;
    }
    ranks
}

/// Naive Bayes training on the dataflow engine (labels = last column of
/// each row): one moments stage + driver reduce.
pub fn naive_bayes_train(data: &DistDataset) -> Vec<crate::single_thread::NbClass> {
    type Moments = HashMap<i64, (u64, Vec<f64>, Vec<f64>)>;
    let partials: Vec<Moments> = data.run_stage(Box::new(|part| {
        let mut table: Moments = HashMap::new();
        for row in part {
            let d = row.len() - 1;
            let label = row[d] as i64;
            let entry = table
                .entry(label)
                .or_insert_with(|| (0, vec![0.0; d], vec![0.0; d]));
            entry.0 += 1;
            for (i, &x) in row[..d].iter().enumerate() {
                entry.1[i] += x;
                entry.2[i] += x * x;
            }
        }
        table
    }));
    let mut merged: HashMap<i64, (u64, Vec<f64>, Vec<f64>)> = HashMap::new();
    for local in partials {
        for (label, (n, sums, sum_sqs)) in local {
            let entry = merged
                .entry(label)
                .or_insert_with(|| (0, vec![0.0; sums.len()], vec![0.0; sums.len()]));
            entry.0 += n;
            for i in 0..sums.len() {
                entry.1[i] += sums[i];
                entry.2[i] += sum_sqs[i];
            }
        }
    }
    let total: u64 = merged.values().map(|(n, _, _)| n).sum();
    let num_classes = merged.len() as f64;
    let mut labels: Vec<i64> = merged.keys().copied().collect();
    labels.sort_unstable();
    labels
        .into_iter()
        .map(|label| {
            let (n, sums, sum_sqs) = &merged[&label];
            let prior = (*n as f64 + 1.0) / (total as f64 + num_classes);
            let nf = *n as f64;
            let gaussians = (0..sums.len())
                .map(|i| {
                    let mean = sums[i] / nf;
                    let var = if *n < 2 {
                        0.0
                    } else {
                        ((sum_sqs[i] - sums[i] * sums[i] / nf) / (nf - 1.0)).max(0.0)
                    };
                    (mean, var.sqrt().max(1e-9))
                })
                .collect();
            (label, prior, gaussians)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector;

    #[test]
    fn load_copies_chunks() {
        let chunk = Chunk::new(vec![
            ColumnVector::from_f64(vec![1.0, 2.0]),
            ColumnVector::from_f64(vec![3.0, 4.0]),
        ]);
        let ds = DistDataset::load(&[chunk.clone(), chunk]);
        assert_eq!(ds.count(), 4);
    }

    #[test]
    fn kmeans_matches_single_thread() {
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![9.0, 9.0],
            vec![9.2, 9.1],
        ];
        let init = vec![vec![1.0, 1.0], vec![8.0, 8.0]];
        let ds = DistDataset::from_rows(&rows, 2);
        let (centers, sizes, _) = kmeans(&ds, &init, 100);
        let (st_centers, st_sizes, _) = crate::single_thread::kmeans(&rows, &init, 100);
        assert_eq!(sizes, st_sizes);
        for (a, b) in centers.iter().zip(&st_centers) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pagerank_matches_single_thread() {
        let src = vec![0, 0, 1, 2, 3];
        let dest = vec![1, 2, 2, 0, 2];
        let edges = DistEdges::load(&src, &dest, 2);
        let df = pagerank(&edges, 0.85, 40);
        let st = crate::single_thread::pagerank(&src, &dest, 0.85, 0.0, 40);
        for (v, r) in &st {
            assert!((df[v] - r).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn nb_matches_single_thread() {
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.5, 0.0],
            vec![5.0, 1.0],
            vec![5.5, 1.0],
        ];
        let ds = DistDataset::from_rows(&rows, 3);
        let df = naive_bayes_train(&ds);
        let st = crate::single_thread::naive_bayes_train(
            &rows.iter().map(|r| vec![r[0]]).collect::<Vec<_>>(),
            &rows.iter().map(|r| r[1] as i64).collect::<Vec<_>>(),
        );
        assert_eq!(df.len(), st.len());
        for (a, b) in df.iter().zip(&st) {
            assert_eq!(a.0, b.0);
            assert!((a.1 - b.1).abs() < 1e-12);
            assert!((a.2[0].0 - b.2[0].0).abs() < 1e-12);
            assert!((a.2[0].1 - b.2[0].1).abs() < 1e-12);
        }
    }
}
