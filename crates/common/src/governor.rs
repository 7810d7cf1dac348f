//! Per-query resource governor: cooperative cancellation, statement
//! deadlines, and memory budgets.
//!
//! The paper's pitch is that analytics belongs *inside* the RDBMS because
//! the engine can govern long-running iterative workloads (ITERATE,
//! k-Means, PageRank) like any other query. This module provides the
//! mechanism: a [`Governor`] is created per statement and threaded through
//! the whole execution stack. Every operator dispatch, every scan morsel,
//! and every analytics iteration calls [`Governor::check`], so a runaway
//! query stops within one morsel or one iteration of the cancel request,
//! deadline, or budget violation.
//!
//! Three cooperating pieces:
//!
//! * [`CancelToken`] — an `Arc`-shareable atomic flag. A session hands the
//!   token out ([`CancelToken::cancel`] may be called from any thread);
//!   the executing query observes it at the next check point.
//! * a deadline — an absolute [`Instant`] derived from the session's
//!   `statement_timeout_ms` setting, checked at the same points.
//! * [`MemoryBudget`] — an atomic reservation/release accountant capped by
//!   the session's `memory_budget_mb` setting. Operators reserve bytes
//!   when they materialize intermediates and release them when those
//!   intermediates die; peak and denied reservations are tracked so the
//!   session can publish them into the engine's
//!   [`MetricsRegistry`](crate::telemetry::MetricsRegistry).
//!
//! Violations surface as the dedicated error taxonomy
//! [`HyError::Cancelled`], [`HyError::Timeout`], and
//! [`HyError::BudgetExceeded`], so callers (and tests) can tell *why* a
//! statement was aborted and react accordingly — the session itself stays
//! usable after any of the three.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::morsel::SchedStats;
use crate::{HyError, Result};

/// A cooperative cancellation flag, shared between the thread executing a
/// query and any thread that wants to stop it.
///
/// Cancellation is sticky: once [`cancel`](CancelToken::cancel) is called
/// the token stays set until [`reset`](CancelToken::reset). A session
/// resets its token after a statement actually aborted with
/// [`HyError::Cancelled`], so one cancel request kills at most one
/// statement and the session remains usable.
#[derive(Debug, Default)]
pub struct CancelToken(AtomicBool);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken(AtomicBool::new(false))
    }

    /// Request cancellation. Safe to call from any thread, any number of
    /// times; the running query aborts at its next governor check point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Clear the flag (called by the session once a statement has been
    /// aborted, so the *next* statement runs normally).
    pub fn reset(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// An atomic memory accountant with a hard cap.
///
/// Operators call [`try_reserve`](MemoryBudget::try_reserve) before (or
/// immediately after) materializing an intermediate and
/// [`release`](MemoryBudget::release) when it dies. The budget tracks the
/// current live total, the high-water mark, and how many reservations
/// were denied — all lock-free, so parallel morsel tasks can reserve
/// concurrently.
#[derive(Debug)]
pub struct MemoryBudget {
    /// Hard cap in bytes; `u64::MAX` means unlimited.
    limit: u64,
    /// Currently reserved (live) bytes.
    reserved: AtomicU64,
    /// High-water mark of `reserved`.
    peak: AtomicU64,
    /// Number of reservations refused because they would exceed `limit`.
    denied: AtomicU64,
}

impl MemoryBudget {
    /// A budget with no cap (every reservation succeeds).
    pub fn unlimited() -> MemoryBudget {
        MemoryBudget::with_limit(u64::MAX)
    }

    /// A budget capped at `limit_bytes`.
    pub fn with_limit(limit_bytes: u64) -> MemoryBudget {
        MemoryBudget {
            limit: limit_bytes,
            reserved: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            denied: AtomicU64::new(0),
        }
    }

    /// The cap in bytes (`u64::MAX` = unlimited).
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Try to reserve `bytes`; returns `false` (and records a denial)
    /// when the reservation would push the live total past the cap.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let prev = self.reserved.fetch_add(bytes, Ordering::AcqRel);
        let now = prev.saturating_add(bytes);
        if now > self.limit {
            self.reserved.fetch_sub(bytes, Ordering::AcqRel);
            self.denied.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        true
    }

    /// Return `bytes` to the budget. Releasing more than is reserved
    /// saturates at zero rather than wrapping.
    pub fn release(&self, bytes: u64) {
        let mut cur = self.reserved.load(Ordering::Acquire);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.reserved.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Currently reserved (live) bytes.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Acquire)
    }

    /// High-water mark of reserved bytes over the budget's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// How many reservations were denied.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }
}

/// The per-statement governor: one cancel token, one optional deadline,
/// one memory budget, one thread cap.
///
/// Cheap to construct (a handful of atomics), so the session builds a
/// fresh one for every statement from its current settings. Execution
/// code holds it behind an `Arc` and calls [`check`](Governor::check) at
/// every operator dispatch / morsel / iteration, and
/// [`reserve`](Governor::reserve) / [`release`](Governor::release) around
/// materialized intermediates.
#[derive(Debug)]
pub struct Governor {
    cancel: Arc<CancelToken>,
    /// Absolute deadline plus the originating timeout (for the error
    /// message); `None` = no timeout.
    deadline: Option<(Instant, Duration)>,
    budget: MemoryBudget,
    /// Most threads one [`map_morsels`](crate::morsel::map_morsels) call
    /// of this statement may run on; `0` = the scheduler's default (every
    /// core but one).
    threads: usize,
    sched: SchedStats,
}

impl Governor {
    /// A governor that never fires: no deadline, unlimited budget, the
    /// default thread cap, and a private token nobody cancels. Used
    /// wherever execution runs outside a session (unit tests, benches,
    /// internal subqueries).
    pub fn unlimited() -> Governor {
        Governor::new(Arc::new(CancelToken::new()), None, None)
    }

    /// A governor over a shared cancel token with an optional statement
    /// timeout (deadline = now + timeout) and an optional budget cap.
    pub fn new(
        cancel: Arc<CancelToken>,
        timeout: Option<Duration>,
        budget_bytes: Option<u64>,
    ) -> Governor {
        Governor {
            cancel,
            deadline: timeout.map(|t| (Instant::now() + t, t)),
            budget: budget_bytes.map_or_else(MemoryBudget::unlimited, MemoryBudget::with_limit),
            threads: 0,
            sched: SchedStats::default(),
        }
    }

    /// Cap the statement at `threads` threads (`SET threads`); `0` is the
    /// scheduler's default, `1` is serial execution.
    pub fn with_threads(mut self, threads: usize) -> Governor {
        self.threads = threads;
        self
    }

    /// The statement's thread cap (`0` = the scheduler's default).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// What the morsel scheduler did for this statement.
    pub fn sched(&self) -> &SchedStats {
        &self.sched
    }

    /// The shared cancel token.
    pub fn cancel_token(&self) -> &Arc<CancelToken> {
        &self.cancel
    }

    /// The memory budget.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// The cooperative check point: errors with [`HyError::Cancelled`] if
    /// cancellation was requested, or [`HyError::Timeout`] if the
    /// deadline has passed. Called at every operator dispatch, scan
    /// morsel, and analytics iteration — keep it cheap: one atomic load,
    /// plus one clock read when a deadline is set.
    pub fn check(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(HyError::Cancelled("query cancelled by user".into()));
        }
        if let Some((deadline, timeout)) = self.deadline {
            if Instant::now() >= deadline {
                return Err(HyError::Timeout(format!(
                    "statement timeout of {} ms exceeded",
                    timeout.as_millis()
                )));
            }
        }
        Ok(())
    }

    /// Reserve `bytes` against the budget, erroring with
    /// [`HyError::BudgetExceeded`] when the cap would be breached.
    pub fn reserve(&self, bytes: u64) -> Result<()> {
        if self.budget.try_reserve(bytes) {
            Ok(())
        } else {
            Err(HyError::BudgetExceeded(format!(
                "memory budget of {} bytes exceeded (live {} bytes + requested {} bytes)",
                self.budget.limit(),
                self.budget.reserved(),
                bytes
            )))
        }
    }

    /// Return `bytes` to the budget.
    pub fn release(&self, bytes: u64) {
        self.budget.release(bytes);
    }

    /// Reserve `bytes` and return an RAII guard that releases them when
    /// dropped — the idiomatic way to charge a transient working set
    /// (hash tables, analytics scratch arrays) for exactly its lifetime,
    /// including early-error paths.
    pub fn reserve_scoped(&self, bytes: u64) -> Result<Reservation<'_>> {
        self.reserve(bytes)?;
        Ok(Reservation {
            governor: self,
            bytes,
        })
    }
}

/// An RAII memory reservation from [`Governor::reserve_scoped`]; releases
/// its bytes on drop.
#[derive(Debug)]
pub struct Reservation<'a> {
    governor: &'a Governor,
    bytes: u64,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.governor.release(self.bytes);
    }
}

impl Default for Governor {
    fn default() -> Self {
        Governor::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn unlimited_governor_never_fires() {
        let g = Governor::unlimited();
        g.check().unwrap();
        g.reserve(u64::MAX / 2).unwrap();
        g.check().unwrap();
    }

    #[test]
    fn cancelled_governor_errors() {
        let g = Governor::unlimited();
        g.cancel_token().cancel();
        assert!(matches!(g.check(), Err(HyError::Cancelled(_))));
    }

    #[test]
    fn expired_deadline_errors() {
        let g = Governor::new(
            Arc::new(CancelToken::new()),
            Some(Duration::from_millis(0)),
            None,
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(g.check(), Err(HyError::Timeout(_))));
    }

    #[test]
    fn budget_reserve_release_peak_denied() {
        let b = MemoryBudget::with_limit(100);
        assert!(b.try_reserve(60));
        assert!(b.try_reserve(40));
        assert_eq!(b.reserved(), 100);
        assert_eq!(b.peak(), 100);
        assert!(!b.try_reserve(1), "over cap must be denied");
        assert_eq!(b.denied(), 1);
        b.release(50);
        assert_eq!(b.reserved(), 50);
        assert!(b.try_reserve(50));
        assert_eq!(b.peak(), 100, "peak is a high-water mark");
        // Saturating release never wraps.
        b.release(10_000);
        assert_eq!(b.reserved(), 0);
    }

    #[test]
    fn governor_budget_error_taxonomy() {
        let g = Governor::new(Arc::new(CancelToken::new()), None, Some(10));
        g.reserve(10).unwrap();
        let err = g.reserve(1).unwrap_err();
        assert!(matches!(err, HyError::BudgetExceeded(_)), "{err}");
        assert_eq!(err.stage(), "budget");
        g.release(10);
        g.reserve(10).unwrap();
    }

    #[test]
    fn scoped_reservation_releases_on_drop() {
        let g = Governor::new(Arc::new(CancelToken::new()), None, Some(100));
        {
            let _r = g.reserve_scoped(80).unwrap();
            assert_eq!(g.budget().reserved(), 80);
            assert!(g.reserve_scoped(40).is_err());
        }
        assert_eq!(g.budget().reserved(), 0);
        g.reserve_scoped(100).unwrap();
    }

    #[test]
    fn parallel_reservations_are_consistent() {
        let b = Arc::new(MemoryBudget::with_limit(1_000_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    if b.try_reserve(100) {
                        b.release(100);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.reserved(), 0);
    }
}
