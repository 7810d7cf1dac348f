//! Statistics the reports are built from. Everything here is exercised by
//! `perf --self-test`, which also runs first in every invocation, because
//! a package outside the workspace is not reached by `cargo test`.

/// Sort a sample ascending (NaN-free by construction: all inputs are
/// elapsed times or counts).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile that still has at least ten samples beyond it,
/// with its value; `None` when the sample is too small for any candidate.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES.iter().find_map(|&p| {
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        (rank >= 1 && sorted.len() - rank >= 10).then(|| (p, sorted[rank - 1]))
    })
}

/// Geometric mean: the aggregate of per-kind medians, so a tenth lost on
/// a 0.05 ms kind weighs as much as a tenth lost on a 50 ms kind.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How the medians of one set of per-kind samples compare with another's:
/// the geometric mean over kinds of median(a) / median(b).
pub fn median_ratio(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .map(|(a, b)| median(&sorted(a.clone())) / median(&sorted(b.clone())))
        .collect();
    geomean(&ratios)
}

/// When request `i` of an open loop at `rate_per_s` is due, in seconds
/// after the loop started.
pub fn due_s(i: u64, rate_per_s: f64) -> f64 {
    i as f64 / rate_per_s
}

/// Open-loop timing of one request: latency counts from the due time (so
/// a stall charges every request it delayed) and lateness is how far
/// behind its schedule the generator sent it.
pub fn open_loop(due_s: f64, sent_s: f64, done_s: f64) -> (f64, f64) {
    (done_s - due_s, (sent_s - due_s).max(0.0))
}

/// Which direction is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric of run set B against run set A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is not worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// A set's own runs differ by more than the bound, so nothing can be
    /// said either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of `b` against `a`, signed so that positive is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The compare rule: unresolved when either set's spread exceeds the
/// bound, otherwise worse exactly when the medians differ by more than it.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Spread of a small run set: full range over median (quartiles of three
/// runs say little).
pub fn range_spread(sorted: &[f64]) -> f64 {
    (sorted[sorted.len() - 1] - sorted[0]) / median(sorted)
}

pub fn self_test() -> Result<(), String> {
    fn check(name: &str, ok: bool) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("stats self-test failed: {name}"))
        }
    }
    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    check("median even", median(&one_to_ten) == 5.0)?;
    check("median odd", median(&[1.0, 2.0, 9.0]) == 2.0)?;
    check("median single", median(&[7.0]) == 7.0)?;
    check("p100", percentile(&one_to_ten, 100.0) == 10.0)?;
    check("p0", percentile(&one_to_ten, 0.0) == 1.0)?;

    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    check("tail of 100", tail(&hundred) == Some((90.0, 90.0)))?;
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    check("tail of 1000", tail(&thousand) == Some((99.0, 990.0)))?;
    check("tail of 39", tail(&hundred[..39]).is_none())?;
    check("tail of 40", tail(&hundred[..40]) == Some((75.0, 30.0)))?;

    check("geomean", close(geomean(&[1.0, 100.0]), 10.0))?;

    check(
        "median ratio",
        close(
            median_ratio(&[vec![2.0, 4.0, 9.0], vec![1.0]], &[vec![2.0], vec![4.0]]),
            (2.0f64 * 0.25).sqrt(),
        ),
    )?;

    // 500/s: request 5 is due at 10 ms; sent 1 ms late, done 3 ms after due.
    check("due", close(due_s(5, 500.0), 0.010))?;
    let (latency, lateness) = open_loop(0.010, 0.011, 0.013);
    check("open loop", close(latency, 0.003) && close(lateness, 0.001))?;
    check("never early", open_loop(0.010, 0.009, 0.012).1 == 0.0)?;

    use Better::{Higher, Lower};
    check(
        "lower ok",
        verdict(10.0, 10.9, Lower, 0.1, 0.02) == Verdict::Ok,
    )?;
    check(
        "lower worse",
        verdict(10.0, 11.5, Lower, 0.1, 0.02) == Verdict::Worse,
    )?;
    check(
        "lower gain",
        verdict(10.0, 5.0, Lower, 0.1, 0.02) == Verdict::Ok,
    )?;
    check(
        "higher worse",
        verdict(10.0, 8.5, Higher, 0.1, 0.02) == Verdict::Worse,
    )?;
    check(
        "higher ok",
        verdict(10.0, 9.5, Higher, 0.1, 0.02) == Verdict::Ok,
    )?;
    check(
        "unresolved",
        verdict(10.0, 20.0, Lower, 0.1, 0.3) == Verdict::Unresolved,
    )?;
    check("range spread", close(range_spread(&[9.0, 10.0, 12.0]), 0.3))?;
    Ok(())
}
