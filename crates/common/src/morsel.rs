//! The engine's one way to run work on more than one core: a
//! deterministic morsel scheduler.
//!
//! [`map_morsels`] applies a function to a list of owned items (input
//! chunks, or disjoint `&mut` ranges of an output array) and returns the
//! results **in item order**, whichever thread ran what. Callers keep
//! their per-item partial states and ordered merges exactly as they were
//! on one thread — §6 of the paper: "each thread locally assigns …
//! thread synchronization is only needed for the very last steps" — so an
//! answer is the same bits at 1, 2 and N threads.
//!
//! The contract:
//!
//! * **Item order out.** `result[i]` belongs to `items[i]`. If items
//!   fail, the error of the first failing item *in item order* is
//!   returned (items are handed out in order, so every item before it has
//!   run). A panic inside an item is re-raised on the calling thread.
//! * **Dynamic hand-out.** Threads take the next item from one shared
//!   cursor. The calling thread always takes part, so a helper the OS
//!   does not schedule costs one morsel, not a fixed share of the input.
//! * **A check per morsel.** [`Governor::check`] runs before every item
//!   on whichever thread takes it: cancellation, or a passed deadline,
//!   stops every thread within one morsel.
//! * **One helper budget per process.** Helper threads are scoped
//!   (`std::thread::scope`; nothing outlives the call, no pool is kept)
//!   and are drawn without blocking from [`Budget::process`], which holds
//!   `available_parallelism() − 1` permits: many sessions running
//!   operators at once share the cores instead of oversubscribing them. A
//!   call that gets no permit, a call capped at one thread
//!   ([`Governor::threads`]) and a call with fewer than two items run
//!   inline on the caller — same code, same answer.
//! * **The default leaves a core free.** A statement that sets no cap
//!   (`SET threads = 0`) runs on as many threads as the budget has
//!   permits — every core but one, the caller included: the last core is
//!   the one the process does not own (other sessions, the server's
//!   threads, a shared host's neighbours). On a two-core host that is
//!   inline execution, and `SET threads = 2` asks for both cores.
//!
//! What each call did is counted in the statement's [`SchedStats`]
//! ([`Governor::sched`]); the executor publishes them as the `sched.*`
//! metrics and on `EXPLAIN ANALYZE`'s operator lines.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::governor::Governor;
use crate::Result;

/// A non-blocking budget of helper threads.
#[derive(Debug)]
pub struct Budget {
    cap: usize,
    busy: AtomicUsize,
}

impl Budget {
    /// A budget of `cap` helper threads (tests; the engine uses
    /// [`Budget::process`]).
    pub const fn new(cap: usize) -> Budget {
        Budget {
            cap,
            busy: AtomicUsize::new(0),
        }
    }

    /// The process-wide budget: one permit per core the process may run
    /// on, less one for the thread that calls [`map_morsels`].
    pub fn process() -> &'static Budget {
        static PROCESS: OnceLock<Budget> = OnceLock::new();
        PROCESS.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            Budget::new(cores - 1)
        })
    }

    /// Helper threads running right now.
    pub fn busy(&self) -> usize {
        self.busy.load(Ordering::SeqCst)
    }

    /// Take up to `want` permits, fewer (possibly none) if fewer are
    /// free. Never waits.
    pub fn try_acquire(&self, want: usize) -> Permit<'_> {
        let mut helpers = 0;
        if want > 0 {
            let _ = self
                .busy
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |busy| {
                    helpers = want.min(self.cap.saturating_sub(busy));
                    Some(busy + helpers)
                });
        }
        Permit {
            budget: self,
            helpers,
        }
    }
}

/// Permits for [`Permit::helpers`] helper threads, returned on drop
/// (also when the holder unwinds).
#[derive(Debug)]
pub struct Permit<'a> {
    budget: &'a Budget,
    helpers: usize,
}

impl Permit<'_> {
    /// How many helper threads this permit allows.
    pub fn helpers(&self) -> usize {
        self.helpers
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.budget.busy.fetch_sub(self.helpers, Ordering::SeqCst);
    }
}

/// What the scheduler did for one statement, counted on its
/// [`Governor`]. All `Relaxed`: statistics that publish no other data.
#[derive(Debug, Default)]
pub struct SchedStats {
    parallel_calls: AtomicU64,
    inline_one_morsel: AtomicU64,
    inline_single_thread: AtomicU64,
    inline_no_permit: AtomicU64,
    morsels: AtomicU64,
    max_threads: AtomicU64,
}

/// A reading of [`SchedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounts {
    /// Calls that ran on more than one thread.
    pub parallel_calls: u64,
    /// Calls that ran inline because they had fewer than two items.
    pub inline_one_morsel: u64,
    /// Calls that ran inline because the statement is capped at one thread.
    pub inline_single_thread: u64,
    /// Calls that ran inline because no helper permit was free.
    pub inline_no_permit: u64,
    /// Items processed.
    pub morsels: u64,
    /// Most threads any one call ran on (the caller included).
    pub max_threads: u64,
}

impl SchedStats {
    /// Read the counters and reset them, so that successive readings
    /// within a statement each cover their own stretch of work.
    pub fn take(&self) -> SchedCounts {
        let take = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
        SchedCounts {
            parallel_calls: take(&self.parallel_calls),
            inline_one_morsel: take(&self.inline_one_morsel),
            inline_single_thread: take(&self.inline_single_thread),
            inline_no_permit: take(&self.inline_no_permit),
            morsels: take(&self.morsels),
            max_threads: take(&self.max_threads),
        }
    }
}

/// Apply `f` to every item on up to [`Governor::threads`] threads (by
/// default every core but one) and return the results in item order — see
/// the module documentation for the contract.
pub fn map_morsels<I, R, F>(governor: &Governor, items: I, f: F) -> Result<Vec<R>>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> Result<R> + Sync,
{
    map_morsels_in(Budget::process(), governor, items, f)
}

/// [`map_morsels`] drawing its helpers from `budget`.
pub fn map_morsels_in<I, R, F>(
    budget: &Budget,
    governor: &Governor,
    items: I,
    f: F,
) -> Result<Vec<R>>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> Result<R> + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    let stats = governor.sched();
    stats.morsels.fetch_add(n as u64, Ordering::Relaxed);
    let run = |item| governor.check().and_then(|()| f(item));

    let cap = match governor.threads() {
        0 => budget.cap.max(1),
        threads => threads,
    };
    let want = cap.min(n);
    let permit = budget.try_acquire(want.saturating_sub(1));
    stats
        .max_threads
        .fetch_max(1 + permit.helpers() as u64, Ordering::Relaxed);
    if permit.helpers() == 0 {
        let reason = if n < 2 {
            &stats.inline_one_morsel
        } else if want < 2 {
            &stats.inline_single_thread
        } else {
            &stats.inline_no_permit
        };
        reason.fetch_add(1, Ordering::Relaxed);
        return items.map(run).collect();
    }
    stats.parallel_calls.fetch_add(1, Ordering::Relaxed);

    // One cursor for all threads; `stop` ends the hand-out after an error
    // or a panic. SeqCst: the flags are touched once per morsel.
    let queue = Mutex::new(items.enumerate());
    let stop = AtomicBool::new(false);
    let done = Mutex::new(Vec::with_capacity(n));
    let work = || {
        let _stop_if_unwinding = StopOnPanic(&stop);
        let mut mine = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            let next = queue
                .lock()
                .expect("morsel queue: an item iterator panicked")
                .next();
            let Some((index, item)) = next else { break };
            let result = run(item);
            if result.is_err() {
                stop.store(true, Ordering::SeqCst);
            }
            mine.push((index, result));
        }
        done.lock().expect("held for one extend").extend(mine);
    };
    let working = AtomicUsize::new(permit.helpers());
    let helper_panic = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..permit.helpers() {
            let helper = || {
                // Nothing of a panicking item's thread is looked at again:
                // the payload is re-raised below and `done` dropped.
                if let Err(panic) = catch_unwind(AssertUnwindSafe(work)) {
                    *helper_panic.lock().expect("held for one store") = Some(panic);
                }
                working.fetch_sub(1, Ordering::SeqCst);
            };
            let spawned = std::thread::Builder::new()
                .name("hylite-morsel".into())
                .spawn_scoped(scope, helper);
            if spawned.is_err() {
                // The OS has no thread to give: the caller takes the
                // morsels that helper would have.
                working.fetch_sub(1, Ordering::SeqCst);
            }
        }
        work();
        // The helpers are at most a morsel behind. Spin for them a
        // moment before the scope blocks: a thread that sleeps takes
        // ≈ 40 µs to wake on a virtualised host, once per call — a fifth
        // of a PageRank iteration.
        let waiting = Instant::now();
        while working.load(Ordering::SeqCst) > 0 && waiting.elapsed() < SPIN_BEFORE_BLOCKING {
            std::hint::spin_loop();
        }
    });
    drop(permit);
    if let Some(panic) = helper_panic.into_inner().expect("held for one store") {
        resume_unwind(panic);
    }

    let mut slots: Vec<Option<Result<R>>> = (0..n).map(|_| None).collect();
    for (index, result) in done.into_inner().expect("held for one extend") {
        slots[index] = Some(result);
    }
    // Items are taken in order, so nothing before the first error was
    // skipped: the scan meets that error before any empty slot.
    slots
        .into_iter()
        .map(|slot| slot.expect("an item before the first error did not run"))
        .collect()
}

/// How long the calling thread spins for its helpers' last morsels before
/// it blocks in the scope's join.
const SPIN_BEFORE_BLOCKING: Duration = Duration::from_micros(100);

/// Ends the hand-out when the thread holding it unwinds, so the other
/// threads stop at their next morsel instead of finishing the input.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::CancelToken;
    use crate::HyError;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};
    use std::thread::ThreadId;

    /// Eight real threads, whatever the host has: a private budget.
    const THREADS: usize = 8;

    fn budget() -> Budget {
        Budget::new(THREADS - 1)
    }

    /// A statement that asks for all eight (`SET threads = 8`).
    fn governor() -> Governor {
        Governor::unlimited().with_threads(THREADS)
    }

    #[test]
    fn results_come_back_in_item_order_from_eight_threads() {
        let (budget, governor) = (budget(), governor());
        // Each thread's first item waits for seven others: all eight
        // threads take part or the call never returns.
        let everyone = Barrier::new(THREADS);
        let ran_on: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let out = map_morsels_in(&budget, &governor, 0..1000usize, |i| {
            if ran_on.lock().unwrap().insert(std::thread::current().id()) {
                everyone.wait();
            }
            Ok(i * i)
        })
        .unwrap();
        assert_eq!(out, (0..1000usize).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(ran_on.lock().unwrap().len(), THREADS);
        assert_eq!(budget.busy(), 0, "permits returned");
        let did = governor.sched().take();
        assert_eq!((did.parallel_calls, did.morsels), (1, 1000));
        assert_eq!(did.max_threads, THREADS as u64);
        assert_eq!(
            governor.sched().take(),
            SchedCounts::default(),
            "take resets"
        );
    }

    #[test]
    fn owned_mutable_ranges_are_morsels_too() {
        let mut next = vec![0usize; 1000];
        map_morsels_in(
            &budget(),
            &governor(),
            next.chunks_mut(7).enumerate(),
            |(range, slots)| {
                for (slot, v) in slots.iter_mut().zip(range * 7..) {
                    *slot = v;
                }
                Ok(())
            },
        )
        .unwrap();
        assert!(next.iter().enumerate().all(|(v, slot)| v == *slot));
    }

    #[test]
    fn the_first_error_in_item_order_wins_and_ends_the_hand_out() {
        let (budget, governor) = (budget(), governor());
        let later_failed = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let err = map_morsels_in(&budget, &governor, 0..100_000, |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            match i {
                // Item 3 fails only after item 10 has: later in time,
                // earlier in item order.
                3 => {
                    while !later_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Err(HyError::Analytics("item 3".into()))
                }
                10 => {
                    later_failed.store(true, Ordering::SeqCst);
                    Err(HyError::Analytics("item 10".into()))
                }
                _ => Ok(i),
            }
        })
        .unwrap_err();
        assert_eq!(err, HyError::Analytics("item 3".into()));
        assert!(ran.load(Ordering::SeqCst) < 100_000, "stopped early");
        assert_eq!(budget.busy(), 0);
    }

    #[test]
    fn cancellation_is_seen_within_one_morsel_on_every_thread() {
        let budget = budget();
        let cancel = Arc::new(CancelToken::new());
        let governor = Governor::new(Arc::clone(&cancel), None, None).with_threads(THREADS);
        let ran = AtomicUsize::new(0);
        let (arrived, cancelled) = (Barrier::new(THREADS), Barrier::new(THREADS));
        let err = map_morsels_in(&budget, &governor, 0..1000, |_| {
            // Every thread is inside its first morsel when the token is
            // set; none may start a second.
            ran.fetch_add(1, Ordering::SeqCst);
            if arrived.wait().is_leader() {
                cancel.cancel();
            }
            cancelled.wait();
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, HyError::Cancelled(_)), "{err}");
        assert_eq!(ran.load(Ordering::SeqCst), THREADS);
    }

    #[test]
    fn a_passed_deadline_is_seen_within_one_morsel_on_every_thread() {
        let timeout = Duration::from_millis(20);
        let governor =
            Governor::new(Arc::new(CancelToken::new()), Some(timeout), None).with_threads(THREADS);
        let ran = AtomicUsize::new(0);
        let err = map_morsels_in(&budget(), &governor, 0..1000, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(2 * timeout);
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, HyError::Timeout(_)), "{err}");
        let ran = ran.load(Ordering::SeqCst);
        assert!((1..=THREADS).contains(&ran), "{ran} morsels ran");
    }

    #[test]
    fn a_helpers_panic_is_raised_on_the_caller_and_returns_its_permit() {
        let budget = Budget::new(1);
        let governor = Governor::unlimited().with_threads(2);
        let caller = std::thread::current().id();
        let both = Barrier::new(2);
        let raised = catch_unwind(AssertUnwindSafe(|| {
            map_morsels_in(&budget, &governor, 0..2, |_| {
                both.wait();
                if std::thread::current().id() != caller {
                    panic!("morsel went wrong");
                }
                Ok(())
            })
        }))
        .unwrap_err();
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"morsel went wrong"));
        assert_eq!(budget.busy(), 0, "the permit came back");
        // The budget is whole: the next call runs in parallel again.
        map_morsels_in(&budget, &governor, 0..2, |_| {
            both.wait();
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn no_permit_one_thread_or_one_morsel_runs_inline_with_the_same_answer() {
        let budget = budget();
        let square = |i: usize| Ok(i * i);
        let parallel = map_morsels_in(&budget, &governor(), 0..500usize, square).unwrap();

        // A concurrent statement holds every permit.
        let governor = governor();
        let held = budget.try_acquire(usize::MAX);
        assert_eq!((held.helpers(), budget.busy()), (THREADS - 1, THREADS - 1));
        let starved = map_morsels_in(&budget, &governor, 0..500usize, square).unwrap();
        drop(held);
        assert_eq!(starved, parallel);
        let did = governor.sched().take();
        assert_eq!((did.inline_no_permit, did.parallel_calls), (1, 0));
        assert_eq!(did.max_threads, 1);

        // `SET threads = 1`.
        let governor = Governor::unlimited().with_threads(1);
        let serial = map_morsels_in(&budget, &governor, 0..500usize, square).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(governor.sched().take().inline_single_thread, 1);

        // Fewer than two morsels; and a cap is a cap.
        let governor = Governor::unlimited().with_threads(3);
        map_morsels_in(&budget, &governor, 0..1usize, square).unwrap();
        map_morsels_in(&budget, &governor, 0..0usize, square).unwrap();
        map_morsels_in(&budget, &governor, 0..500usize, square).unwrap();
        let did = governor.sched().take();
        assert_eq!((did.inline_one_morsel, did.parallel_calls), (2, 1));
        assert_eq!(did.max_threads, 3);
        assert_eq!(budget.busy(), 0);
    }

    #[test]
    fn without_a_cap_a_call_leaves_one_core_free() {
        let square = |i: usize| Ok(i * i);
        // Eight cores: seven threads, six of the seven permits.
        let (budget, governor) = (budget(), Governor::unlimited());
        map_morsels_in(&budget, &governor, 0..500usize, square).unwrap();
        assert_eq!(governor.sched().take().max_threads, THREADS as u64 - 1);

        // Two cores: inline, until the statement asks for both.
        let two_cores = Budget::new(1);
        map_morsels_in(&two_cores, &governor, 0..500usize, square).unwrap();
        let did = governor.sched().take();
        assert_eq!((did.inline_single_thread, did.parallel_calls), (1, 0));
        let both = Governor::unlimited().with_threads(2);
        map_morsels_in(&two_cores, &both, 0..500usize, square).unwrap();
        assert_eq!(both.sched().take().max_threads, 2);
    }

    #[test]
    fn the_process_budget_leaves_one_core_to_the_caller() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let all = Budget::process().try_acquire(usize::MAX);
        assert!(all.helpers() < cores);
    }
}
