//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Admission control makes overload rejection (`Overloaded`,
//! `QueueTimeout`) a *normal* server answer, so a well-behaved client
//! retries it instead of surfacing it — but with exponential backoff so a
//! fleet of rejected clients does not immediately stampede back, and with
//! jitter so they do not all come back in lockstep. The policy is bounded
//! twice: a maximum attempt count and a wall-clock deadline, whichever
//! trips first.

use std::time::Duration;

use hylite_common::hash::splitmix64;
use hylite_common::HyError;

/// When and how often to retry a retryable failure.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub initial_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Give up once the next sleep would cross this total elapsed budget.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The full (pre-jitter) backoff for retry number `retry` (0-based):
    /// `initial_backoff * 2^retry`, capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.min(20); // 2^20 × anything already saturates the cap
        self.initial_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }

    /// The backoff with jitter applied: uniform in `[backoff/2, backoff]`
    /// ("equal jitter"), derived deterministically from `seed` so tests
    /// can reproduce schedules.
    pub fn jittered_backoff(&self, retry: u32, seed: u64) -> Duration {
        let full = self.backoff(retry);
        let nanos = full.as_nanos() as u64;
        if nanos == 0 {
            return full;
        }
        let half = nanos / 2;
        let jitter = splitmix64(seed.wrapping_add(u64::from(retry))) % (nanos - half + 1);
        Duration::from_nanos(half + jitter)
    }
}

/// True when the failure is worth retrying: the server shed the work
/// without judging the SQL invalid (admission rejection, shutdown,
/// governed abort, disk-pressure degraded mode) or the connection could
/// not be established.
pub fn is_retryable(e: &HyError) -> bool {
    matches!(
        e,
        HyError::Unavailable(_)
            | HyError::Cancelled(_)
            | HyError::Timeout(_)
            | HyError::BudgetExceeded(_)
            | HyError::DiskFull(_)
    )
}

/// Annotate the error a retry loop gives up with, with how many attempts
/// were made — the variant (and therefore the wire error code and
/// retryability) is preserved, only the message grows a suffix, so a
/// caller reading "after 5 attempts" knows the budget was spent rather
/// than the first try failing.
pub fn with_attempts(e: HyError, attempts: u32) -> HyError {
    let annotate = |m: String| format!("{m} (after {attempts} attempts)");
    match e {
        HyError::Parse(m) => HyError::Parse(annotate(m)),
        HyError::Bind(m) => HyError::Bind(annotate(m)),
        HyError::Plan(m) => HyError::Plan(annotate(m)),
        HyError::Execution(m) => HyError::Execution(annotate(m)),
        HyError::Storage(m) => HyError::Storage(annotate(m)),
        HyError::Catalog(m) => HyError::Catalog(annotate(m)),
        HyError::Type(m) => HyError::Type(annotate(m)),
        HyError::Analytics(m) => HyError::Analytics(annotate(m)),
        HyError::Transaction(m) => HyError::Transaction(annotate(m)),
        HyError::Cancelled(m) => HyError::Cancelled(annotate(m)),
        HyError::Timeout(m) => HyError::Timeout(annotate(m)),
        HyError::BudgetExceeded(m) => HyError::BudgetExceeded(annotate(m)),
        HyError::Unavailable(m) => HyError::Unavailable(annotate(m)),
        HyError::ReadOnly(m) => HyError::ReadOnly(annotate(m)),
        HyError::DiskFull(m) => HyError::DiskFull(annotate(m)),
        HyError::Protocol(m) => HyError::Protocol(annotate(m)),
        HyError::Internal(m) => HyError::Internal(annotate(m)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(60),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(4), Duration::from_millis(100), "capped");
        assert_eq!(p.backoff(31), Duration::from_millis(100), "no overflow");
    }

    #[test]
    fn jitter_stays_in_equal_jitter_band_and_is_deterministic() {
        let p = RetryPolicy::default();
        for retry in 0..6 {
            let full = p.backoff(retry);
            for seed in 0..64u64 {
                let j = p.jittered_backoff(retry, seed);
                assert!(j >= full / 2 && j <= full, "retry {retry} seed {seed}");
                assert_eq!(j, p.jittered_backoff(retry, seed), "deterministic");
            }
        }
    }

    #[test]
    fn jitter_actually_varies_by_seed() {
        let p = RetryPolicy::default();
        let distinct: std::collections::BTreeSet<_> =
            (0..32u64).map(|s| p.jittered_backoff(3, s)).collect();
        assert!(
            distinct.len() > 16,
            "got {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn retryable_taxonomy() {
        assert!(is_retryable(&HyError::Unavailable("overloaded".into())));
        assert!(is_retryable(&HyError::Timeout("slow".into())));
        assert!(!is_retryable(&HyError::Parse("bad sql".into())));
        assert!(!is_retryable(&HyError::Protocol("bad frame".into())));
    }

    #[test]
    fn none_policy_has_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
