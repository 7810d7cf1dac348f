//! The physical k-Means operator (§6.1), lambda-parameterized (§7).
//!
//! Lloyd's algorithm with the paper's parallelization: "each thread
//! locally assigns data tuples to their nearest center and [...] sums up
//! the tuples' values. The data tuples themselves are consumed and
//! directly thrown away after processing. [...] Thread synchronization is
//! only needed for the very last steps, global aggregation of the local
//! intermediate results and the final update of the cluster centers."
//!
//! The distance is either the hand-tuned squared-L2 kernel (the paper's
//! default lambda) or an arbitrary user lambda evaluated *vectorized*:
//! the candidate center is substituted into the lambda body as constants
//! and the resulting expression runs over whole chunks.

use hylite_common::governor::Governor;
use hylite_common::morsel::map_morsels;
use hylite_common::{Chunk, DataType, HyError, Result, Value};
use hylite_expr::BoundLambda;

/// k-Means configuration.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iterations: 100,
        }
    }
}

/// Result of a k-Means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Final cluster centers (k × d).
    pub centers: Vec<Vec<f64>>,
    /// Rows assigned to each cluster in the final iteration.
    pub sizes: Vec<u64>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Whether the solution stabilized before the iteration cap.
    pub converged: bool,
    /// Total L2 distance the centroids moved, per iteration. The last
    /// entry is 0 when the run converged.
    pub shift_history: Vec<f64>,
    /// Wall time of each iteration in microseconds.
    pub iter_micros: Vec<u64>,
}

/// Thread-local accumulator: per-cluster sums and counts.
struct Locals {
    sums: Vec<f64>,   // k × d, row-major
    counts: Vec<u64>, // k
}

impl Locals {
    fn new(k: usize, d: usize) -> Locals {
        Locals {
            sums: vec![0.0; k * d],
            counts: vec![0; k],
        }
    }

    fn merge(mut self, other: Locals) -> Locals {
        for (a, b) in self.sums.iter_mut().zip(other.sums) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
        self
    }
}

/// Validate chunks: all-DOUBLE columns of the expected width, no NULLs.
fn validate(chunks: &[Chunk], d: usize, what: &str) -> Result<()> {
    for c in chunks {
        if c.num_columns() != d {
            return Err(HyError::Analytics(format!(
                "{what}: expected {d} columns, found {}",
                c.num_columns()
            )));
        }
        for col in c.columns() {
            col.as_f64()?;
            if col.null_count() > 0 {
                return Err(HyError::Analytics(format!(
                    "{what}: NULL values are not allowed"
                )));
            }
        }
    }
    Ok(())
}

/// Nearest center of every row under a user lambda: one vectorized
/// evaluation per center, folded into a running argmin.
fn nearest_centers(chunk: &Chunk, centers: &[Vec<f64>], lambda: &BoundLambda) -> Result<Vec<u32>> {
    let n = chunk.len();
    let mut best = vec![0u32; n];
    let mut best_d = vec![f64::INFINITY; n];
    for (c, center) in centers.iter().enumerate() {
        let vals: Vec<Value> = center.iter().map(|&v| Value::Float(v)).collect();
        let mut col = lambda.eval_broadcast(chunk, &vals)?;
        if col.data_type() != DataType::Float64 {
            col = col.cast_to(DataType::Float64)?;
        }
        for ((b, bd), &dist) in best.iter_mut().zip(&mut best_d).zip(col.as_f64()?) {
            if dist < *bd {
                *bd = dist;
                *b = c as u32;
            }
        }
    }
    Ok(best)
}

/// Fold rows `r..r + R` into the running `best` (distance, center) of each
/// row against centers `c0..c0 + K`. `centers` is dimension-major with
/// every value four times (`[((dim * k) + c) * 4 + lane]`), so a block's
/// rows and a center's value load as the same vector shape. The K × R
/// squared distances live in registers; each is summed in dimension order
/// and compared with a strict `<` in center order, so ties, NaN and ∞
/// resolve as a row-at-a-time loop does.
#[inline(always)]
fn score<const K: usize, const R: usize>(
    cols: &[&[f64]],
    r: usize,
    centers: &[f64],
    c0: usize,
    best: &mut [(f64, usize); R],
) {
    let k = centers.len() / (4 * cols.len());
    let mut acc = [[0.0f64; R]; K];
    for (dim, col) in cols.iter().enumerate() {
        let x: &[f64; R] = col[r..r + R].try_into().expect("R rows");
        let cvs = &centers[(dim * k + c0) * 4..][..K * 4];
        for (a, cv) in acc.iter_mut().zip(cvs.chunks_exact(4)) {
            for ((a, &x), &cv) in a.iter_mut().zip(x).zip(cv) {
                let diff = x - cv;
                *a += diff * diff;
            }
        }
    }
    // Read back through memory: otherwise LLVM vectorizes the loop above
    // across mismatched row pairs with a shuffle per step.
    for (c, a) in std::hint::black_box(acc).iter().enumerate() {
        for (b, &dist) in best.iter_mut().zip(a) {
            if dist < b.0 {
                *b = (dist, c0 + c);
            }
        }
    }
}

/// Fold row `r` into center `c`'s sums and count.
#[inline(always)]
fn fold_row(
    cols: &[&[f64]],
    r: usize,
    c: usize,
    locals: &mut Locals,
    record: &mut Option<&mut Vec<u32>>,
) {
    let d = cols.len();
    locals.counts[c] += 1;
    for (s, col) in locals.sums[c * d..(c + 1) * d].iter_mut().zip(cols) {
        *s += col[r];
    }
    if let Some(rec) = record.as_deref_mut() {
        rec.push(c as u32);
    }
}

/// Assign rows `r..r + R` to their nearest centers, in tiles of up to 8
/// centers, and fold them into `locals` in row order.
#[inline(always)]
fn assign_block<const R: usize>(
    cols: &[&[f64]],
    r: usize,
    centers: &[f64],
    locals: &mut Locals,
    record: &mut Option<&mut Vec<u32>>,
) {
    let k = locals.counts.len();
    let mut best = [(f64::INFINITY, 0usize); R];
    for c0 in (0..k).step_by(8) {
        match k - c0 {
            1 => score::<1, R>(cols, r, centers, c0, &mut best),
            2 => score::<2, R>(cols, r, centers, c0, &mut best),
            3 => score::<3, R>(cols, r, centers, c0, &mut best),
            4 => score::<4, R>(cols, r, centers, c0, &mut best),
            5 => score::<5, R>(cols, r, centers, c0, &mut best),
            6 => score::<6, R>(cols, r, centers, c0, &mut best),
            7 => score::<7, R>(cols, r, centers, c0, &mut best),
            _ => score::<8, R>(cols, r, centers, c0, &mut best),
        }
    }
    for (j, &(_, c)) in best.iter().enumerate() {
        fold_row(cols, r + j, c, locals, record);
    }
}

/// Assign every row of `chunk` to its nearest center; fold sums/counts
/// into `locals`; optionally record assignments.
fn assign_chunk(
    chunk: &Chunk,
    centers: &[Vec<f64>],
    lambda: Option<&BoundLambda>,
    locals: &mut Locals,
    mut record: Option<&mut Vec<u32>>,
) -> Result<()> {
    let (n, d, k) = (chunk.len(), centers[0].len(), centers.len());
    let cols: Vec<&[f64]> = (0..d)
        .map(|dim| chunk.column(dim).as_f64())
        .collect::<Result<_>>()?;
    if let Some(lambda) = lambda {
        let best = nearest_centers(chunk, centers, lambda)?;
        for (r, &c) in best.iter().enumerate() {
            fold_row(&cols, r, c as usize, locals, &mut record);
        }
        return Ok(());
    }
    // Default squared L2, fused: each block of four rows is read from the
    // columns once, scored against every center and folded into the sums
    // while it is in registers — the data-centric "consume and throw away"
    // loop the paper describes for this operator.
    let flat: Vec<f64> = (0..d * k * 4)
        .map(|i| centers[i / 4 % k][i / 4 / k])
        .collect();
    let mut r = 0;
    while r + 4 <= n {
        assign_block::<4>(&cols, r, &flat, locals, &mut record);
        r += 4;
    }
    for r in r..n {
        assign_block::<1>(&cols, r, &flat, locals, &mut record);
    }
    Ok(())
}

/// Run k-Means over columnar data.
///
/// `chunks` hold the data points (each column one dimension, all DOUBLE);
/// `initial_centers` supplies k starting centers of the same width;
/// `lambda` overrides the distance (None = squared L2). Converges when no
/// center moves, or stops at `config.max_iterations`.
pub fn kmeans(
    chunks: &[Chunk],
    initial_centers: Vec<Vec<f64>>,
    lambda: Option<&BoundLambda>,
    config: &KMeansConfig,
) -> Result<KMeansResult> {
    kmeans_governed(
        chunks,
        initial_centers,
        lambda,
        config,
        &Governor::unlimited(),
    )
}

/// [`kmeans`] under a resource [`Governor`]: each Lloyd iteration starts
/// with a cooperative cancellation/deadline check, the chunks of an
/// iteration are assigned and accumulated on the morsel scheduler (one
/// more check per chunk), and the per-chunk accumulator arrays are
/// charged against the statement's memory budget for the duration of the
/// run.
pub fn kmeans_governed(
    chunks: &[Chunk],
    initial_centers: Vec<Vec<f64>>,
    lambda: Option<&BoundLambda>,
    config: &KMeansConfig,
    governor: &Governor,
) -> Result<KMeansResult> {
    let k = initial_centers.len();
    if k == 0 {
        return Err(HyError::Analytics(
            "k-Means requires at least one center".into(),
        ));
    }
    let d = initial_centers[0].len();
    if d == 0 {
        return Err(HyError::Analytics(
            "k-Means requires at least one dimension".into(),
        ));
    }
    if initial_centers.iter().any(|c| c.len() != d) {
        return Err(HyError::Analytics(
            "k-Means centers have inconsistent dimensionality".into(),
        ));
    }
    validate(chunks, d, "k-Means data")?;
    if let Some(l) = lambda {
        if l.left_width() != d || l.right_width() != d {
            return Err(HyError::Analytics(format!(
                "distance lambda expects {}×{} attributes but data has {d} dimensions",
                l.left_width(),
                l.right_width()
            )));
        }
    }

    // Per-chunk accumulators: one Locals (k×d sums + k counts) per chunk.
    let locals_bytes = chunks.len() as u64 * (k as u64 * d as u64 * 8 + k as u64 * 8);
    let _scratch = governor.reserve_scoped(locals_bytes)?;

    let mut centers = initial_centers;
    let mut sizes = vec![0u64; k];
    let mut iterations = 0usize;
    let mut converged = false;
    let mut shift_history = Vec::new();
    let mut iter_micros = Vec::new();

    while iterations < config.max_iterations {
        governor.check()?;
        iterations += 1;
        let iter_start = std::time::Instant::now();
        // Per-chunk local assignment + accumulation; locals are merged in
        // deterministic chunk order so results are reproducible.
        let locals = map_morsels(governor, chunks, |chunk| {
            let mut l = Locals::new(k, d);
            assign_chunk(chunk, &centers, lambda, &mut l, None)?;
            Ok(l)
        })?;
        let merged = locals.into_iter().fold(Locals::new(k, d), Locals::merge);
        // Final update of the cluster centers (the only sync point).
        let mut moved = false;
        let mut shift = 0.0f64;
        #[allow(clippy::needless_range_loop)]
        for c in 0..k {
            if merged.counts[c] == 0 {
                // Empty cluster: keep its previous center.
                continue;
            }
            let inv = 1.0 / merged.counts[c] as f64;
            let mut dist_sq = 0.0;
            for dim in 0..d {
                let new = merged.sums[c * d + dim] * inv;
                let delta = new - centers[c][dim];
                dist_sq += delta * delta;
                if new != centers[c][dim] {
                    moved = true;
                    centers[c][dim] = new;
                }
            }
            shift += dist_sq.sqrt();
        }
        sizes = merged.counts;
        shift_history.push(shift);
        iter_micros.push(iter_start.elapsed().as_micros() as u64);
        if !moved {
            converged = true;
            break;
        }
    }
    Ok(KMeansResult {
        centers,
        sizes,
        iterations,
        converged,
        shift_history,
        iter_micros,
    })
}

/// The model-application step: assign each row of each chunk to its
/// nearest center, under a resource [`Governor`] — chunks are assigned on
/// the morsel scheduler, with a cancellation/deadline check per chunk.
/// Returns one assignment vector per input chunk.
pub fn kmeans_assign_governed(
    chunks: &[Chunk],
    centers: &[Vec<f64>],
    lambda: Option<&BoundLambda>,
    governor: &Governor,
) -> Result<Vec<Vec<u32>>> {
    if centers.is_empty() {
        return Err(HyError::Analytics(
            "assignment requires at least one center".into(),
        ));
    }
    let d = centers[0].len();
    validate(chunks, d, "k-Means assignment data")?;
    map_morsels(governor, chunks, |chunk| {
        let mut locals = Locals::new(centers.len(), d);
        let mut rec = Vec::with_capacity(chunk.len());
        assign_chunk(chunk, centers, lambda, &mut locals, Some(&mut rec))?;
        Ok(rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector;

    /// The default kernel before register blocking: columns staged into a
    /// row-major block of 512 rows, then one row at a time against every
    /// center. The oracle for [`assign_chunk`]'s default path.
    fn staged_assign(
        chunk: &Chunk,
        centers: &[Vec<f64>],
        locals: &mut Locals,
        mut record: Option<&mut Vec<u32>>,
    ) {
        let (n, d) = (chunk.len(), centers[0].len());
        let cols: Vec<&[f64]> = (0..d).map(|i| chunk.column(i).as_f64().unwrap()).collect();
        const BLOCK: usize = 512;
        let mut staged = vec![0.0f64; BLOCK * d];
        let mut start = 0;
        while start < n {
            let len = BLOCK.min(n - start);
            for (dim, col) in cols.iter().enumerate() {
                for (r, &x) in col[start..start + len].iter().enumerate() {
                    staged[r * d + dim] = x;
                }
            }
            for row in staged[..len * d].chunks_exact(d) {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, center) in centers.iter().enumerate() {
                    let mut dist = 0.0;
                    for (&x, &cv) in row.iter().zip(center) {
                        let diff = x - cv;
                        dist += diff * diff;
                    }
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                locals.counts[best] += 1;
                let sums = &mut locals.sums[best * d..(best + 1) * d];
                for (s, &x) in sums.iter_mut().zip(row) {
                    *s += x;
                }
                if let Some(rec) = record.as_deref_mut() {
                    rec.push(best as u32);
                }
            }
            start += len;
        }
    }

    #[test]
    fn default_kernel_matches_the_staged_kernel_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4B_3A_5E);
        // Mostly a handful of distinct values, so rows tie between
        // duplicate centers; now and then a NaN, an infinity or a -0.0.
        let coordinate = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0u32..40) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4..=19 => rng.gen_range(-3i32..4) as f64 * 0.5,
            _ => rng.gen_range(-10.0..10.0),
        };
        // Bits, with every NaN one NaN: which of two NaN operands an
        // addition returns is the hardware's and the compiler's choice.
        let bits = |v: &[f64]| {
            let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
            v.iter().map(|x| canonical(x).to_bits()).collect::<Vec<_>>()
        };
        for k in [1usize, 2, 3, 5, 8, 9, 17] {
            for d in [1usize, 2, 10, 17] {
                let mut centers: Vec<Vec<f64>> = (0..k)
                    .map(|_| (0..d).map(|_| coordinate(&mut rng)).collect())
                    .collect();
                if k > 1 {
                    centers[k - 1] = centers[0].clone();
                }
                for n in [1usize, 3, 4, 5, 4097, 65_536] {
                    let columns = (0..d)
                        .map(|_| {
                            ColumnVector::from_f64((0..n).map(|_| coordinate(&mut rng)).collect())
                        })
                        .collect();
                    let chunk = Chunk::new(columns);
                    for with_record in [false, true] {
                        let (mut want, mut got) = (Locals::new(k, d), Locals::new(k, d));
                        let (mut want_rec, mut got_rec) = (Vec::new(), Vec::new());
                        staged_assign(
                            &chunk,
                            &centers,
                            &mut want,
                            with_record.then_some(&mut want_rec),
                        );
                        assign_chunk(
                            &chunk,
                            &centers,
                            None,
                            &mut got,
                            with_record.then_some(&mut got_rec),
                        )
                        .unwrap();
                        let case = format!("k={k} d={d} n={n} record={with_record}");
                        assert_eq!(bits(&got.sums), bits(&want.sums), "{case}");
                        assert_eq!(got.counts, want.counts, "{case}");
                        assert_eq!(got_rec, want_rec, "{case}");
                        assert_eq!(got_rec.len(), if with_record { n } else { 0 }, "{case}");
                    }
                }
            }
        }
    }

    /// Two tight blobs around (0,0) and (10,10).
    fn blobs() -> Vec<Chunk> {
        let xs = vec![0.0, 0.1, -0.1, 10.0, 10.1, 9.9];
        let ys = vec![0.0, -0.1, 0.1, 10.0, 9.9, 10.1];
        vec![Chunk::new(vec![
            ColumnVector::from_f64(xs),
            ColumnVector::from_f64(ys),
        ])]
    }

    #[test]
    fn separates_two_blobs() {
        let r = kmeans(
            &blobs(),
            vec![vec![1.0, 1.0], vec![8.0, 8.0]],
            None,
            &KMeansConfig::default(),
        )
        .unwrap();
        assert!(r.converged);
        assert_eq!(r.sizes, vec![3, 3]);
        let c0 = &r.centers[0];
        let c1 = &r.centers[1];
        assert!((c0[0] - 0.0).abs() < 0.2 && (c0[1] - 0.0).abs() < 0.2);
        assert!((c1[0] - 10.0).abs() < 0.2 && (c1[1] - 10.0).abs() < 0.2);
    }

    #[test]
    fn respects_iteration_cap() {
        let r = kmeans(
            &blobs(),
            vec![vec![1.0, 1.0], vec![8.0, 8.0]],
            None,
            &KMeansConfig { max_iterations: 1 },
        )
        .unwrap();
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn centers_are_means_of_members() {
        let r = kmeans(
            &blobs(),
            vec![vec![1.0, 1.0], vec![8.0, 8.0]],
            None,
            &KMeansConfig::default(),
        )
        .unwrap();
        // Cluster 0 holds the first three points; its center is their mean.
        let mean_x = (0.0 + 0.1 - 0.1) / 3.0;
        assert!((r.centers[0][0] - mean_x).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_keeps_center() {
        // A far-away center attracts nothing and must stay put.
        let r = kmeans(
            &blobs(),
            vec![vec![5.0, 5.0], vec![1000.0, 1000.0]],
            None,
            &KMeansConfig::default(),
        )
        .unwrap();
        assert_eq!(r.centers[1], vec![1000.0, 1000.0]);
        assert_eq!(r.sizes[1], 0);
    }

    #[test]
    fn lambda_l2_matches_default() {
        let l = BoundLambda::default_squared_l2(2).unwrap();
        let init = vec![vec![1.0, 1.0], vec![8.0, 8.0]];
        let fast = kmeans(&blobs(), init.clone(), None, &KMeansConfig::default()).unwrap();
        let generic = kmeans(&blobs(), init, Some(&l), &KMeansConfig::default()).unwrap();
        assert_eq!(fast.centers, generic.centers);
        assert_eq!(fast.sizes, generic.sizes);
    }

    #[test]
    fn manhattan_lambda_changes_assignment() {
        // Point (3, 4): L2² to A(0,0)=25, to B(5,0)=20 → B.
        //              L1 to A = 7, to B = 6 → B. Pick a point where they
        // disagree: (4, 6): L2² A=52, B=37 → B; L1 A=10, B=7 → B. Use
        // (2, 5): L2² A=29, B=34 → A; L1 A=7, B=8 → A. Need disagreement:
        // (3, 5): L2² A=34, B=29 → B; L1 A=8, B=7 → B. Try (1, 6):
        // L2² A=37, B=52 → A; L1 A=7, B=10 → A. Hmm — with two centers on
        // the x-axis, L1 and L2 argmin agree by symmetry. Use three
        // centers where the metrics genuinely disagree.
        let data = Chunk::new(vec![
            ColumnVector::from_f64(vec![0.0, 6.0]),
            ColumnVector::from_f64(vec![0.0, 6.0]),
        ]);
        let centers = vec![vec![5.0, 5.0], vec![0.0, 9.0]];
        // Point (6,6): L2² to (5,5)=2, to (0,9)=45 → center 0.
        //              L1 to (5,5)=2, to (0,9)=9 → center 0. Still agree.
        // Rather than hunt for a disagreement, verify the *distances* the
        // lambda produces differ from L2, via assignment of (0,0):
        // L1 to (5,5)=10, to (0,9)=9 → center 1;
        // L2² to (5,5)=50, to (0,9)=81 → center 0.
        let l1 = BoundLambda::manhattan_l1(2).unwrap();
        let a_l2 = kmeans_assign_governed(
            std::slice::from_ref(&data),
            &centers,
            None,
            &Governor::unlimited(),
        )
        .unwrap();
        let a_l1 =
            kmeans_assign_governed(&[data], &centers, Some(&l1), &Governor::unlimited()).unwrap();
        assert_eq!(a_l2[0][0], 0, "L2 assigns (0,0) to (5,5)");
        assert_eq!(a_l1[0][0], 1, "L1 assigns (0,0) to (0,9)");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(kmeans(&blobs(), vec![], None, &KMeansConfig::default()).is_err());
        assert!(kmeans(
            &blobs(),
            vec![vec![0.0], vec![1.0, 1.0]],
            None,
            &KMeansConfig::default()
        )
        .is_err());
        // NULLs rejected.
        let mut col = ColumnVector::from_f64(vec![1.0]);
        col.push_null();
        let chunk = Chunk::new(vec![col.clone(), col]);
        assert!(kmeans(
            &[chunk],
            vec![vec![0.0, 0.0]],
            None,
            &KMeansConfig::default()
        )
        .is_err());
    }

    #[test]
    fn multi_chunk_matches_single_chunk() {
        let all = blobs();
        let split: Vec<Chunk> = vec![all[0].slice(0, 3), all[0].slice(3, 3)];
        let init = vec![vec![1.0, 1.0], vec![8.0, 8.0]];
        let a = kmeans(&all, init.clone(), None, &KMeansConfig::default()).unwrap();
        let b = kmeans(&split, init, None, &KMeansConfig::default()).unwrap();
        assert_eq!(a.sizes, b.sizes);
        for (ca, cb) in a.centers.iter().zip(&b.centers) {
            for (x, y) in ca.iter().zip(cb) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn assign_returns_per_chunk() {
        let data = blobs();
        let centers = vec![vec![0.0, 0.0], vec![10.0, 10.0]];
        let assigned =
            kmeans_assign_governed(&data, &centers, None, &Governor::unlimited()).unwrap();
        assert_eq!(assigned[0], vec![0, 0, 0, 1, 1, 1]);
    }
}
