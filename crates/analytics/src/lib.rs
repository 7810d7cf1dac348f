//! Physical analytics operators — the paper's layer-4 contribution (§6).
//!
//! Each operator follows the paper's parallelization pattern: morsel
//! inputs are folded into per-chunk local state on the engine's morsel
//! scheduler ([`hylite_common::morsel`]), merged once in chunk order, and
//! finalized — "thread synchronization is only needed for the very last
//! steps" — so every answer is the same bits at any thread count.
//! k-Means accepts a user-defined distance
//! [`BoundLambda`](hylite_expr::BoundLambda) (§7); PageRank builds a
//! query-local CSR index with dense re-labeling (§6.3); Naive Bayes keeps
//! per-class (N, Σa, Σa²) moments (§6.2), exposed separately as the
//! reusable [`class_stats_governed`] building block.

#![warn(missing_docs)]

pub mod kmeans;
pub mod naive_bayes;
pub mod pagerank;
pub mod stats;

pub use kmeans::{kmeans, kmeans_assign_governed, kmeans_governed, KMeansConfig, KMeansResult};
pub use naive_bayes::{LabelValue, NaiveBayesModel};
pub use pagerank::{pagerank, pagerank_governed, PageRankConfig, PageRankResult};
pub use stats::{class_stats_governed, ClassStatsRow};
