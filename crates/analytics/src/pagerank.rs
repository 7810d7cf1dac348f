//! The physical PageRank operator (§6.3).
//!
//! Pull-based iteration over a query-local CSR index: "Because we have
//! dense internal vertex ids we are able to store the current and last
//! iteration's rank in arrays that can be directly indexed. Thus, every
//! neighbor rank access only involves a single read. At the end of each
//! iteration we aggregate each worker's data to determine how much the
//! new ranks differ from the previous iteration's."

use hylite_common::governor::Governor;
use hylite_common::morsel::map_morsels;
use hylite_common::Result;
use hylite_graph::CsrGraph;

/// PageRank configuration.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor d (the paper uses 0.85).
    pub damping: f64,
    /// Stop when the summed absolute rank change ≤ ε (0 disables).
    pub epsilon: f64,
    /// Maximum iterations (the paper's experiments run 45).
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            epsilon: 0.0001,
            max_iterations: 100,
        }
    }
}

/// Result of a PageRank run over dense vertex ids.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Rank per dense vertex id (sums to ≈ 1).
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether ε-convergence was reached before the cap.
    pub converged: bool,
    /// Summed absolute rank change per iteration ("how much the new
    /// ranks differ from the previous iteration's").
    pub residual_history: Vec<f64>,
    /// Wall time of each iteration in microseconds.
    pub iter_micros: Vec<u64>,
}

/// Run PageRank over a CSR graph (dense ids; callers translate back with
/// the graph's [`VertexMapping`](hylite_graph::VertexMapping)).
pub fn pagerank(graph: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
    pagerank_governed(graph, config, &Governor::unlimited())
        .expect("unlimited governor cannot abort")
}

/// Vertices per morsel of the pull loop.
const PULL_RANGE: usize = 256;

/// Below this many edges one round of the pull loop (≈ 0.7 ns per edge)
/// is not worth starting a helper thread for (≈ 60 µs, and the helper
/// takes its first range ≈ 45 µs in): the round is then a single morsel,
/// which the scheduler runs inline.
const PARALLEL_MIN_EDGES: usize = 1 << 18;

/// [`pagerank`] under a resource [`Governor`]: each power iteration starts
/// with a cooperative cancellation/deadline check, and the rank/share
/// arrays plus the transposed adjacency are charged against the
/// statement's memory budget for the duration of the run.
///
/// The O(edges) pull loop runs on the morsel scheduler over
/// 256-vertex ranges of the next rank array (`PULL_RANGE`; one more check
/// per range); a vertex's new rank depends on the previous round only, so
/// how the vertices are cut into ranges cannot show in the ranks. The
/// O(vertices) dangling, share and residual sums stay on the calling
/// thread, in vertex order, so `residual_history` too is the same bits at
/// every thread count.
pub fn pagerank_governed(
    graph: &CsrGraph,
    config: &PageRankConfig,
    governor: &Governor,
) -> Result<PageRankResult> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(PageRankResult {
            ranks: vec![],
            iterations: 0,
            converged: true,
            residual_history: vec![],
            iter_micros: vec![],
        });
    }
    // Scratch working set: ranks + next + share (f64 each) plus the
    // transposed CSR (offsets + edge targets).
    let scratch_bytes = 3 * n as u64 * 8 + (n as u64 + 1) * 8 + graph.num_edges() as u64 * 4;
    let _scratch = governor.reserve_scoped(scratch_bytes)?;
    // Pull-based: iterate over each vertex's in-neighbors.
    let incoming = graph.transpose();
    let out_degree = graph.out_degrees();
    let inv_n = 1.0 / n as f64;
    let d = config.damping;

    let range = if graph.num_edges() < PARALLEL_MIN_EDGES {
        n
    } else {
        PULL_RANGE
    };

    let mut ranks = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0usize;
    let mut converged = false;
    let mut residual_history = Vec::new();
    let mut iter_micros = Vec::new();

    while iterations < config.max_iterations {
        governor.check()?;
        iterations += 1;
        let iter_start = std::time::Instant::now();
        // Dangling mass: vertices with no out-edges spread uniformly.
        let dangling: f64 = ranks
            .iter()
            .zip(&out_degree)
            .filter(|(_, &deg)| deg == 0)
            .map(|(r, _)| *r)
            .sum();
        let base = (1.0 - d) * inv_n + d * dangling * inv_n;
        // Contribution each vertex sends along each out-edge.
        let share: Vec<f64> = ranks
            .iter()
            .zip(&out_degree)
            .map(|(r, &deg)| if deg == 0 { 0.0 } else { r / deg as f64 })
            .collect();
        // New ranks, each from the previous round only — nothing to
        // synchronize inside the loop.
        map_morsels(
            governor,
            next.chunks_mut(range).enumerate(),
            |(r, slots)| {
                for (slot, v) in slots.iter_mut().zip(r * range..) {
                    let mut acc = 0.0;
                    for &u in incoming.neighbors(v as u32) {
                        acc += share[u as usize];
                    }
                    *slot = base + d * acc;
                }
                Ok(())
            },
        )?;
        let diff: f64 = next.iter().zip(&ranks).map(|(n, r)| (n - r).abs()).sum();
        std::mem::swap(&mut ranks, &mut next);
        residual_history.push(diff);
        iter_micros.push(iter_start.elapsed().as_micros() as u64);
        if config.epsilon > 0.0 && diff <= config.epsilon {
            converged = true;
            break;
        }
    }
    Ok(PageRankResult {
        ranks,
        iterations,
        converged,
        residual_history,
        iter_micros,
    })
}

/// Weighted PageRank: a vertex's rank flows to its neighbors
/// proportionally to edge weights instead of uniformly — the paper's §4.3
/// example of lambda-style operator parameterization ("define edge
/// weights in PageRank"). `weights` must align with the graph's CSR edge
/// order (see `CsrGraph::from_weighted_edges`).
///
/// Runs under a resource [`Governor`] — see [`pagerank_governed`] for the
/// check/charge policy. The scatter is push-based (two vertices may add
/// to the same slot), so unlike the pull loop it is not handed to the
/// morsel scheduler: one thread.
pub fn pagerank_weighted_governed(
    graph: &CsrGraph,
    weights: &[f64],
    config: &PageRankConfig,
    governor: &Governor,
) -> Result<PageRankResult> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(PageRankResult {
            ranks: vec![],
            iterations: 0,
            converged: true,
            residual_history: vec![],
            iter_micros: vec![],
        });
    }
    assert_eq!(weights.len(), graph.num_edges(), "weight per edge");
    // Scratch working set: ranks + next + total_weight (f64 each).
    let _scratch = governor.reserve_scoped(3 * n as u64 * 8)?;
    // Total outgoing weight per vertex.
    let total_weight: Vec<f64> = (0..n as u32)
        .map(|v| graph.edge_range(v).map(|e| weights[e]).sum())
        .collect();
    let inv_n = 1.0 / n as f64;
    let d = config.damping;
    let mut ranks = vec![inv_n; n];
    let mut next = vec![0.0f64; n];
    let mut iterations = 0usize;
    let mut converged = false;
    let mut residual_history = Vec::new();
    let mut iter_micros = Vec::new();
    while iterations < config.max_iterations {
        governor.check()?;
        iterations += 1;
        let iter_start = std::time::Instant::now();
        let dangling: f64 = ranks
            .iter()
            .zip(&total_weight)
            .filter(|(_, &w)| w <= 0.0)
            .map(|(r, _)| *r)
            .sum();
        let base = (1.0 - d) * inv_n + d * dangling * inv_n;
        next.iter_mut().for_each(|v| *v = base);
        // Push-based: scatter each vertex's weighted shares.
        for v in 0..n as u32 {
            let w_total = total_weight[v as usize];
            if w_total <= 0.0 {
                continue;
            }
            let scale = d * ranks[v as usize] / w_total;
            for (e, &t) in graph.edge_range(v).zip(graph.neighbors(v)) {
                next[t as usize] += scale * weights[e];
            }
        }
        let diff: f64 = ranks.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut ranks, &mut next);
        residual_history.push(diff);
        iter_micros.push(iter_start.elapsed().as_micros() as u64);
        if config.epsilon > 0.0 && diff <= config.epsilon {
            converged = true;
            break;
        }
    }
    Ok(PageRankResult {
        ranks,
        iterations,
        converged,
        residual_history,
        iter_micros,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_graph::generators;

    fn run(src: &[i64], dest: &[i64], config: &PageRankConfig) -> (CsrGraph, PageRankResult) {
        let g = CsrGraph::from_edges(src, dest).unwrap();
        let r = pagerank(&g, config);
        (g, r)
    }

    #[test]
    fn ranks_sum_to_one() {
        let (s, d) = generators::cycle(10);
        let (_, r) = run(&s, &d, &PageRankConfig::default());
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn cycle_is_uniform() {
        let (s, d) = generators::cycle(8);
        let (_, r) = run(&s, &d, &PageRankConfig::default());
        for &x in &r.ranks {
            assert!((x - 1.0 / 8.0).abs() < 1e-9);
        }
        assert!(r.converged);
    }

    #[test]
    fn hub_outranks_leaves() {
        let (s, d) = generators::star_into_hub(10);
        let (g, r) = run(
            &s,
            &d,
            &PageRankConfig {
                epsilon: 1e-12,
                max_iterations: 200,
                ..Default::default()
            },
        );
        let hub = g.mapping().to_dense(0).unwrap() as usize;
        let leaf = g.mapping().to_dense(1).unwrap() as usize;
        assert!(r.ranks[hub] > 5.0 * r.ranks[leaf]);
    }

    #[test]
    fn matches_reference_on_known_graph() {
        // Classic 4-page example: A→B, A→C, B→C, C→A, D→C.
        let src = [0, 0, 1, 2, 3];
        let dest = [1, 2, 2, 0, 2];
        let (g, r) = run(
            &src,
            &dest,
            &PageRankConfig {
                damping: 0.85,
                epsilon: 1e-12,
                max_iterations: 500,
            },
        );
        // Reference values from an independent power-iteration (dangling
        // mass redistributed uniformly).
        let a = r.ranks[g.mapping().to_dense(0).unwrap() as usize];
        let c = r.ranks[g.mapping().to_dense(2).unwrap() as usize];
        let b = r.ranks[g.mapping().to_dense(1).unwrap() as usize];
        let d_ = r.ranks[g.mapping().to_dense(3).unwrap() as usize];
        assert!(c > a && a > b && b > d_, "ordering C > A > B > D");
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Fixpoint check: r = (1-d)/n + d·Σ in-shares (no vertex in this
        // graph is dangling — every page has an out-edge).
        for (v, &rv) in r.ranks.iter().enumerate() {
            let mut acc = 0.0;
            for u in 0..4u32 {
                if g.neighbors(u).contains(&(v as u32)) {
                    acc += r.ranks[u as usize] / g.out_degree(u) as f64;
                }
            }
            let expect = 0.15 / 4.0 + 0.85 * acc;
            assert!((rv - expect).abs() < 1e-9, "vertex {v}");
        }
    }

    #[test]
    fn epsilon_zero_runs_all_iterations() {
        let (s, d) = generators::cycle(5);
        let (_, r) = run(
            &s,
            &d,
            &PageRankConfig {
                epsilon: 0.0,
                max_iterations: 45,
                ..Default::default()
            },
        );
        assert_eq!(r.iterations, 45);
        assert!(!r.converged);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(&[], &[]).unwrap();
        let r = pagerank(&g, &PageRankConfig::default());
        assert!(r.ranks.is_empty());
    }

    #[test]
    fn weighted_uniform_matches_unweighted() {
        let (s, d) = generators::cycle(6);
        let (graph, weights) = CsrGraph::from_weighted_edges(&s, &d, &vec![2.5; s.len()]).unwrap();
        let config = PageRankConfig {
            epsilon: 1e-12,
            max_iterations: 300,
            ..Default::default()
        };
        let plain = pagerank(&graph, &config);
        let weighted =
            pagerank_weighted_governed(&graph, &weights, &config, &Governor::unlimited()).unwrap();
        for (a, b) in plain.ranks.iter().zip(&weighted.ranks) {
            assert!((a - b).abs() < 1e-9, "uniform weights must be a no-op");
        }
    }

    #[test]
    fn weighted_skews_flow() {
        // 0 → 1 (weight 9), 0 → 2 (weight 1); back edges keep it strongly
        // connected. Vertex 1 must outrank vertex 2.
        let src = [0i64, 0, 1, 2];
        let dest = [1i64, 2, 0, 0];
        let weights = [9.0, 1.0, 1.0, 1.0];
        let (graph, w) = CsrGraph::from_weighted_edges(&src, &dest, &weights).unwrap();
        let config = PageRankConfig {
            epsilon: 1e-12,
            max_iterations: 500,
            ..Default::default()
        };
        let r = pagerank_weighted_governed(&graph, &w, &config, &Governor::unlimited()).unwrap();
        let d1 = graph.mapping().to_dense(1).unwrap() as usize;
        let d2 = graph.mapping().to_dense(2).unwrap() as usize;
        assert!(
            r.ranks[d1] > 2.0 * r.ranks[d2],
            "heavy edge must carry more rank: {} vs {}",
            r.ranks[d1],
            r.ranks[d2]
        );
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_zero_out_weight_is_dangling() {
        let src = [0i64, 1];
        let dest = [1i64, 0];
        let weights = [1.0, 0.0]; // vertex 1's only edge has zero weight
        let (graph, w) = CsrGraph::from_weighted_edges(&src, &dest, &weights).unwrap();
        let r = pagerank_weighted_governed(
            &graph,
            &w,
            &PageRankConfig::default(),
            &Governor::unlimited(),
        )
        .unwrap();
        let total: f64 = r.ranks.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "mass conserved via dangling path"
        );
    }

    #[test]
    fn dangling_mass_conserved() {
        // Path graph: the last vertex is dangling.
        let (s, d) = generators::path(5);
        let (_, r) = run(&s, &d, &PageRankConfig::default());
        let total: f64 = r.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
