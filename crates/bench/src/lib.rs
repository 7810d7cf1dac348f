//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§8).
//!
//! * [`queries`] — the SQL formulations behind the "HyPer Iterate" and
//!   "HyPer SQL" systems;
//! * [`workloads`] — dataset setup per experiment (Table 1 grid, LDBC
//!   graphs, labeled NB data), pre-loaded into every system's native
//!   format so timed regions cover the algorithm only;
//! * [`systems`] — one timed runner per (algorithm × system);
//! * [`report`] — gnuplot-ish text rendering of figure series;
//! * [`concurrent`] — the `concurrent-clients` serving workload: N wire
//!   connections with a mixed SQL + analytics statement stream;
//! * [`fleet`] — the router-fronted variant: 1 durable primary + N
//!   WAL-streaming replicas behind `HyliteRouter`, measuring the
//!   read-throughput scaling curve vs the single node;
//! * [`ablations`] — what `figures` measures beside the paper's figures:
//!   the lambda and CSR ablations, checkpoint cost, replica catch-up.
//!
//! The `figures` binary sweeps the grids (`--scale` controls dataset
//! sizes).

pub mod ablations;
pub mod chaos;
pub mod concurrent;
pub mod fleet;
pub mod queries;
pub mod report;
pub mod systems;
pub mod workloads;
