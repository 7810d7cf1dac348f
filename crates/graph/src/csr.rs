//! Compressed sparse row graphs with dense vertex re-labeling.
//!
//! The paper's PageRank operator "ensures [efficient neighbor traversal]
//! by efficiently creating a temporary compressed sparse row (CSR)
//! representation that is optimized for the query at hand. We avoid
//! storage overhead and an access indirection in this mapping by
//! re-labeling all vertices and doing a direct mapping" — exactly what
//! [`VertexMapping`] + [`CsrGraph::from_edges`] implement, including the
//! reverse mapping applied when results leave the operator.

use hylite_common::hash::FoldMap;
use hylite_common::{HyError, Result};

/// Maps arbitrary `i64` vertex ids to dense `0..n` ids and back.
#[derive(Debug, Clone, Default)]
pub struct VertexMapping {
    /// dense id → original id (the reverse mapping operator's table).
    originals: Vec<i64>,
    /// original id → dense id. Two lookups per edge make this table the
    /// CSR build's inner loop: it hashes with one multiply, folded because
    /// `HashMap` indexes with the low bits (see [`FoldMap`]).
    dense: FoldMap<i64, u32>,
}

impl VertexMapping {
    /// Empty mapping.
    pub fn new() -> VertexMapping {
        VertexMapping::default()
    }

    /// Intern an original id, returning its dense id.
    pub fn intern(&mut self, original: i64) -> u32 {
        *self.dense.entry(original).or_insert_with(|| {
            self.originals.push(original);
            (self.originals.len() - 1) as u32
        })
    }

    /// Dense id for an original id, if known.
    pub fn to_dense(&self, original: i64) -> Option<u32> {
        self.dense.get(&original).copied()
    }

    /// Original id for a dense id (the reverse mapping).
    pub fn to_original(&self, dense: u32) -> i64 {
        self.originals[dense as usize]
    }

    /// Number of interned vertices.
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// True when no vertex was interned.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// The dense→original table.
    pub fn originals(&self) -> &[i64] {
        &self.originals
    }
}

/// Adjacency lists over dense vertex ids in CSR form, without the
/// re-labeling table: what a kernel that only walks neighbors needs
/// ([`CsrGraph::transpose`] returns one).
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// `offsets[v]..offsets[v+1]` indexes `targets` with v's out-edges.
    offsets: Vec<usize>,
    /// Flattened adjacency lists.
    targets: Vec<u32>,
}

impl Adjacency {
    /// Counting sort of `edges` (`(from, to)` pairs over `0..n`, walked
    /// twice) by `from`; each list keeps the order the edges come in.
    fn from_pairs(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Adjacency {
        let mut offsets = vec![0usize; n + 1];
        for (from, _) in edges.clone() {
            offsets[from as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n]];
        for (from, to) in edges {
            let c = &mut cursor[from as usize];
            targets[*c] = to;
            *c += 1;
        }
        Adjacency { offsets, targets }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of a dense vertex.
    pub fn out_degree(&self, v: u32) -> usize {
        self.edge_range(v).len()
    }

    /// Out-neighbors of a dense vertex.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.edge_range(v)]
    }

    /// Edge slice bounds for vertex `v` (`offsets[v]..offsets[v+1]`),
    /// for indexing edge-aligned side arrays like weights.
    pub fn edge_range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }
}

/// A directed graph in CSR form over dense vertex ids: an [`Adjacency`]
/// (whose methods it derefs to) plus the re-labeling table.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    adjacency: Adjacency,
    /// Re-labeling table (dense ↔ original ids).
    mapping: VertexMapping,
}

impl std::ops::Deref for CsrGraph {
    type Target = Adjacency;

    fn deref(&self) -> &Adjacency {
        &self.adjacency
    }
}

impl CsrGraph {
    /// Build a CSR graph from parallel (src, dest) arrays of original ids,
    /// re-labeling vertices densely in first-seen order. Vertices that
    /// only appear as destinations are included (with no out-edges).
    pub fn from_edges(src: &[i64], dest: &[i64]) -> Result<CsrGraph> {
        if src.len() != dest.len() {
            return Err(HyError::Analytics(format!(
                "edge arrays differ in length: {} vs {}",
                src.len(),
                dest.len()
            )));
        }
        let mut mapping = VertexMapping::new();
        // Edge lists are usually clustered by one endpoint: the previous
        // edge's ids are looked at before the table.
        let (mut last_src, mut last_dest) = (None, None);
        let mut intern = |original: i64, last: &mut Option<(i64, u32)>| match *last {
            Some((id, dense)) if id == original => dense,
            _ => {
                let dense = mapping.intern(original);
                *last = Some((original, dense));
                dense
            }
        };
        let dense: Vec<(u32, u32)> = src
            .iter()
            .zip(dest)
            .map(|(&s, &d)| (intern(s, &mut last_src), intern(d, &mut last_dest)))
            .collect();
        Ok(CsrGraph {
            adjacency: Adjacency::from_pairs(mapping.len(), dense.iter().copied()),
            mapping,
        })
    }

    /// The vertex re-labeling table.
    pub fn mapping(&self) -> &VertexMapping {
        &self.mapping
    }

    /// The transposed adjacency (in-edges become out-edges) over the same
    /// dense ids. PageRank's pull-based iteration reads this.
    pub fn transpose(&self) -> Adjacency {
        let n = self.num_vertices();
        let reversed = (0..n as u32).flat_map(|v| self.neighbors(v).iter().map(move |&t| (t, v)));
        Adjacency::from_pairs(n, reversed)
    }

    /// Out-degrees of all vertices (used by PageRank for rank division).
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .map(|v| self.out_degree(v as u32))
            .collect()
    }

    /// Build a CSR graph together with per-edge weights aligned with
    /// [`Adjacency::neighbors`] order (for weighted PageRank: edge weights
    /// as a lambda-style parameterization of the operator).
    pub fn from_weighted_edges(
        src: &[i64],
        dest: &[i64],
        weight: &[f64],
    ) -> Result<(CsrGraph, Vec<f64>)> {
        if src.len() != weight.len() {
            return Err(HyError::Analytics(format!(
                "edge weights differ in length: {} edges vs {} weights",
                src.len(),
                weight.len()
            )));
        }
        let graph = CsrGraph::from_edges(src, dest)?;
        // Scatter weights into CSR order (same two-pass layout).
        let n = graph.num_vertices();
        let mut cursor: Vec<usize> = graph.offsets[..n].to_vec();
        let mut out = vec![0.0f64; weight.len()];
        for (&s, &w) in src.iter().zip(weight) {
            let dense = graph.mapping.to_dense(s).expect("interned in pass 1");
            let c = &mut cursor[dense as usize];
            out[*c] = w;
            *c += 1;
        }
        Ok((graph, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10 → 20 → 30, 10 → 30 (original ids intentionally sparse).
    fn sample() -> CsrGraph {
        CsrGraph::from_edges(&[10, 20, 10], &[20, 30, 30]).unwrap()
    }

    #[test]
    fn relabeling_is_dense_and_reversible() {
        let g = sample();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        let d10 = g.mapping().to_dense(10).unwrap();
        let d30 = g.mapping().to_dense(30).unwrap();
        assert_eq!(g.mapping().to_original(d10), 10);
        assert_eq!(g.mapping().to_original(d30), 30);
        // Dense ids cover 0..n.
        let mut ids: Vec<u32> = (0..3)
            .map(|i| g.mapping().to_dense([10, 20, 30][i]).unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn ids_that_are_multiples_of_a_power_of_two_build_like_dense_ones() {
        // `HashMap` indexes with the low hash bits and a multiplicative
        // hash leaves the low bits of `i << 20` zero: unfolded, all 20,000
        // vertices share one probe sequence and the build is quadratic
        // (hundreds of times slower, not a few per cent).
        let build = |shift: u32| {
            let id = |e: i64, step: i64| ((e * step) % 20_000) << shift;
            let src: Vec<i64> = (0..200_000).map(|e| id(e, 7919)).collect();
            let dest: Vec<i64> = (0..200_000).map(|e| id(e, 104_729)).collect();
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let g = CsrGraph::from_edges(&src, &dest).unwrap();
                    assert_eq!((g.num_vertices(), g.num_edges()), (20_000, 200_000));
                    started.elapsed()
                })
                .min()
                .unwrap()
        };
        let (dense, shifted) = (build(0), build(20));
        assert!(
            shifted < dense * 20,
            "0..n builds in {dense:?}, (0..n) << 20 in {shifted:?}"
        );
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = sample();
        let d10 = g.mapping().to_dense(10).unwrap();
        let d20 = g.mapping().to_dense(20).unwrap();
        let d30 = g.mapping().to_dense(30).unwrap();
        assert_eq!(g.out_degree(d10), 2);
        assert_eq!(g.out_degree(d20), 1);
        assert_eq!(g.out_degree(d30), 0);
        let mut n10: Vec<u32> = g.neighbors(d10).to_vec();
        n10.sort_unstable();
        let mut expect = vec![d20, d30];
        expect.sort_unstable();
        assert_eq!(n10, expect);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = sample();
        let t = g.transpose();
        assert_eq!(t.num_edges(), 3);
        let d10 = g.mapping().to_dense(10).unwrap();
        let d30 = g.mapping().to_dense(30).unwrap();
        // In the transpose, 30 has two out-edges (its two in-edges).
        assert_eq!(t.out_degree(d30), 2);
        assert_eq!(t.out_degree(d10), 0);
    }

    #[test]
    fn dest_only_vertices_included() {
        let g = CsrGraph::from_edges(&[1], &[2]).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.out_degree(g.mapping().to_dense(2).unwrap()), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(&[], &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn mismatched_arrays_rejected() {
        assert!(CsrGraph::from_edges(&[1], &[]).is_err());
    }

    #[test]
    fn self_loops_and_multi_edges_kept() {
        let g = CsrGraph::from_edges(&[1, 1, 1], &[1, 2, 2]).unwrap();
        let d1 = g.mapping().to_dense(1).unwrap();
        assert_eq!(g.out_degree(d1), 3);
    }
}
