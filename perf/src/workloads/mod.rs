//! The six workloads, and what they share: the run configuration, the
//! repeated set-up, and temporary directories inside the checkout.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers::Res;
use crate::report::WorkloadReport;

pub mod analytics;
pub mod durable_write;
pub mod embedded;
pub mod relational;
pub mod segments_scan;
pub mod wire_read;
pub mod wire_rw;

/// In the order they run and are listed in `BENCHMARK.json`.
pub const NAMES: [&str; 6] = [
    "analytics.operator",
    "analytics.sql",
    "wire.read",
    "segments.scan",
    "durable.write",
    "wire.rw",
];

#[derive(Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the timed box.
    pub seconds: f64,
    pub trace: bool,
    /// All sizes divided by [`SMOKE_DIVISOR`], for a quick CI pass.
    pub smoke: bool,
    /// Directory for the durable workloads' files, inside the checkout.
    pub tmp: PathBuf,
}

pub const SMOKE_DIVISOR: usize = 20;

impl RunCfg {
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / SMOKE_DIVISOR).max(1)
        } else {
            full
        }
    }
}

/// Input fingerprints (CRC-32 over generated SQL and loaded column data)
/// at seed 1 and full size. A run at seed 1 that computes another value
/// fails: a generator drifted, and numbers are no longer comparable with
/// earlier ones. Change a value only together with the input it pins.
const SEED_1_FINGERPRINTS: [(&str, u32); 6] = [
    ("analytics.operator", 0xd69d_1a46),
    ("analytics.sql", 0xe8ee_d593),
    ("wire.read", 0x490b_a338),
    ("segments.scan", 0xa101_d6fa),
    ("durable.write", 0x22f2_aeba),
    ("wire.rw", 0x3fdf_c300),
];

pub fn run(name: &str, cfg: &RunCfg) -> Res<WorkloadReport> {
    let mut report = run_workload(name, cfg)?;
    if cfg.seed == 1 && !cfg.smoke {
        let pinned = SEED_1_FINGERPRINTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, fp)| *fp);
        if pinned != Some(report.fingerprint) {
            report.tally.fail(format!(
                "input fingerprint {:08x} differs from the pinned {:08x}",
                report.fingerprint,
                pinned.unwrap_or(0)
            ));
        }
    }
    Ok(report)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Res<WorkloadReport> {
    match name {
        "analytics.operator" => analytics::run_operator(cfg),
        "analytics.sql" => analytics::run_sql(cfg),
        "wire.read" => wire_read::run(cfg),
        "segments.scan" => segments_scan::run(cfg),
        "durable.write" => durable_write::run(cfg),
        "wire.rw" => wire_rw::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// Set up several times and keep the last: `setup_s` is the median of the
/// samples, so one slow allocation or page-cache miss does not decide it.
/// At least three set-ups; more, up to nine, while they are cheap.
pub fn repeated_setup<T>(mut build: impl FnMut(usize) -> Res<T>) -> Res<(T, Vec<f64>)> {
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 9;
    const CHEAP_TOTAL_S: f64 = 1.5;
    let mut samples = Vec::new();
    let mut rep = 0;
    loop {
        let started = Instant::now();
        let built = build(rep)?;
        samples.push(started.elapsed().as_secs_f64());
        rep += 1;
        let total: f64 = samples.iter().sum();
        if rep >= MAX_REPS || (rep >= MIN_REPS && total >= CHEAP_TOTAL_S) {
            return Ok((built, samples));
        }
        // Free the previous set-up before building the next one, so two
        // copies of the largest tables never coexist.
        drop(built);
    }
}

/// A fresh, empty directory under the run's temporary directory.
pub fn fresh_dir(cfg: &RunCfg, name: &str) -> Res<PathBuf> {
    let dir = cfg.tmp.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
