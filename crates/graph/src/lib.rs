//! Graph substrate: CSR representation with dense re-labeling (§6.3 of
//! the paper) and an LDBC-SNB-like social graph generator for the
//! PageRank evaluation (§8.1.3).

pub mod csr;
pub mod generators;
pub mod ldbc;

pub use csr::{Adjacency, CsrGraph, VertexMapping};
pub use ldbc::{LdbcConfig, LdbcGraph};
