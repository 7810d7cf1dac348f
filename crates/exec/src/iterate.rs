//! Iteration constructs: the SQL:1999 recursive CTE (appending) and the
//! paper's ITERATE operator (non-appending, §5.1).

use std::sync::Arc;

use hylite_common::{Chunk, DataType, HyError, Result};
use hylite_planner::LogicalPlan;

use crate::aggregate::unseen_rows;
use crate::executor::Executor;
use crate::keys::{GroupIndex, KeyLayout};
use crate::util::total_rows;

/// Infinite-loop guard for recursive CTEs — the paper notes both
/// constructs "can produce infinite loops \[which\] need to be detected and
/// aborted by the database system".
pub const MAX_RECURSION_DEPTH: usize = 1_000_000;

impl Executor {
    /// Execute `WITH RECURSIVE name AS (init UNION [ALL] step)`.
    ///
    /// Appending semantics: the result accumulates every iteration's
    /// tuples. With `UNION` (not ALL) rows are de-duplicated and the
    /// fixpoint is reached when no *new* row appears; with `UNION ALL`
    /// iteration ends when the step yields no rows.
    pub(crate) fn exec_recursive_cte(
        &mut self,
        name: &str,
        init: &LogicalPlan,
        step: &LogicalPlan,
        all: bool,
    ) -> Result<Vec<Chunk>> {
        let types = init.schema().types();
        let mut working = self.execute(init)?;
        let mut seen = GroupIndex::for_grouping(KeyLayout::new(&types));
        if !all {
            working = dedup_against(&types, working, &mut seen)?;
        }
        let mut result: Vec<Chunk> = working.clone();
        let mut depth = 0usize;
        while total_rows(&working) > 0 {
            // One check per iteration: a cancelled or timed-out statement
            // stops the recursion within one step execution.
            self.ctx.check_governor()?;
            depth += 1;
            self.ctx.stats.iterations += 1;
            if depth > MAX_RECURSION_DEPTH {
                return Err(HyError::Execution(format!(
                    "recursive CTE '{name}' exceeded {MAX_RECURSION_DEPTH} iterations \
                     (infinite loop guard)"
                )));
            }
            self.ctx.push_working(name, Arc::new(working));
            let step_result = self.execute(step);
            self.pop_working(name);
            let mut new = step_result?;
            if !all {
                new = dedup_against(&types, new, &mut seen)?;
            }
            if total_rows(&new) == 0 {
                break;
            }
            result.extend(new.iter().cloned());
            // Appending semantics: the accumulated result is the live
            // intermediate state (this is what §5.1 charges the CTE for).
            self.ctx.stats.observe_working_rows(total_rows(&result));
            working = new;
        }
        self.ctx
            .metrics()
            .counter("cte.iterations_total")
            .add(depth as u64);
        self.ctx.profile_note("iterations", depth);
        self.ctx
            .profile_note("accumulated_rows", total_rows(&result));
        Ok(result)
    }

    /// Execute the non-appending `ITERATE(init, step, stop)` operator.
    ///
    /// The working table holds only the previous iteration; each step
    /// *replaces* it. Iteration stops when the stop subquery produces at
    /// least one row, or at `max_iterations`.
    pub(crate) fn exec_iterate(
        &mut self,
        init: &LogicalPlan,
        step: &LogicalPlan,
        stop: &LogicalPlan,
        max_iterations: usize,
    ) -> Result<Vec<Chunk>> {
        let mut current = Arc::new(self.execute(init)?);
        let budgeted = self.ctx.governor().budget().limit() != u64::MAX;
        let mut iterations = 0usize;
        loop {
            // One check per iteration: a cancelled or timed-out statement
            // stops the loop within one step execution.
            self.ctx.check_governor()?;
            self.ctx.push_working("iterate", Arc::clone(&current));
            let stop_rows = self.execute(stop);
            let stop_now = match &stop_rows {
                Ok(chunks) => {
                    // The stop subquery's output dies immediately; refund
                    // its budget charge so long loops don't accumulate it.
                    if budgeted {
                        self.ctx.release_scoped(crate::util::heap_bytes(chunks));
                    }
                    total_rows(chunks) > 0
                }
                Err(_) => {
                    self.pop_working("iterate");
                    stop_rows?;
                    unreachable!();
                }
            };
            if stop_now || iterations >= max_iterations {
                self.pop_working("iterate");
                break;
            }
            iterations += 1;
            self.ctx.stats.iterations += 1;
            let next = self.execute(step);
            self.pop_working("iterate");
            let next = next?;
            // At most two generations alive: `current` (previous) and
            // `next`. Record that before dropping the old generation.
            self.ctx
                .stats
                .observe_working_rows(total_rows(&current) + total_rows(&next));
            // Non-appending semantics: the old generation is dead once
            // replaced — refund its budget charge mid-loop.
            if budgeted {
                self.ctx.release_scoped(crate::util::heap_bytes(&current));
            }
            current = Arc::new(next);
        }
        self.ctx
            .metrics()
            .counter("iterate.iterations_total")
            .add(iterations as u64);
        self.ctx.profile_note("iterations", iterations);
        self.ctx
            .profile_note("peak_working_rows", self.ctx.stats.peak_working_rows);
        Ok(Arc::try_unwrap(current).unwrap_or_else(|a| (*a).clone()))
    }
}

/// Keep only rows not yet in `seen`, inserting the survivors.
fn dedup_against(
    types: &[DataType],
    chunks: Vec<Chunk>,
    seen: &mut GroupIndex,
) -> Result<Vec<Chunk>> {
    let mut ids = Vec::new();
    let kept = chunks
        .iter()
        .map(|chunk| unseen_rows(seen, chunk, types, &mut ids))
        .collect::<Result<Vec<Chunk>>>()?;
    if total_rows(&kept) == total_rows(&chunks) {
        return Ok(chunks);
    }
    Ok(vec![Chunk::concat(types, &kept)?])
}
