//! Solver phase profiling: cumulative counters for the work the window
//! search actually did — rows scored in full vs. served by the
//! cross-window carry, repair-journal activity, σ-cache reuse, and
//! windows evaluated.
//!
//! The counters are compile-always and disarmed-cheap: each is a plain
//! `u64` add on a path that already does orders of magnitude more work
//! (a full row scores `m` candidates through the σ engine; the increment
//! is one register add). They live inside the scratch structures the
//! search already threads everywhere, so no signature changes and no
//! atomics on the hot path. A serving worker snapshots
//! [`SolverWorkspace::prof`](crate::algorithm::SolverWorkspace::prof)
//! before and after a request and diffs with [`Prof::since`].

use serde::{Deserialize, Serialize};

/// Cumulative solver-phase counters (see the module docs for the
/// counting sites).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prof {
    /// Windows evaluated (`ChooseDesignPoints` sweeps, including the
    /// weighted-sequence re-costing's implicit window reuse is *not*
    /// counted — only full window evaluations).
    pub windows: u64,
    /// Windows entered with a matching cross-window carry (the previous
    /// window's per-row outcomes were reusable).
    pub carry_hits: u64,
    /// Windows evaluated from scratch (no usable carry).
    pub carry_misses: u64,
    /// Sweep rows scored in full: every candidate column of the window
    /// went through the suitability factors.
    pub rows_full: u64,
    /// Sweep rows served by the carry fast path: only the window's new
    /// fastest column was scored against the remembered winner.
    pub rows_carried: u64,
    /// Repair promotions recorded: one-shot journal entries plus, on the
    /// carried sweep, one per column step of each materialized repair
    /// run.
    pub journal_promotions: u64,
    /// Repair state undone: one-shot journal entries rolled back at row
    /// end plus carried-sweep chain entries dropped for
    /// re-materialization.
    pub journal_rollbacks: u64,
    /// σ-engine sequence evaluations.
    pub sigma_evals: u64,
    /// Sequence positions served from the σ suffix cache across those
    /// evaluations.
    pub sigma_reused: u64,
    /// Sequence positions recomputed (cache miss portion).
    pub sigma_fresh: u64,
}

impl Prof {
    /// The counter deltas accumulated since `earlier` was snapshotted
    /// (saturating, so a swapped or reset workspace yields zeros instead
    /// of wrapping).
    #[must_use]
    pub fn since(&self, earlier: &Prof) -> Prof {
        Prof {
            windows: self.windows.saturating_sub(earlier.windows),
            carry_hits: self.carry_hits.saturating_sub(earlier.carry_hits),
            carry_misses: self.carry_misses.saturating_sub(earlier.carry_misses),
            rows_full: self.rows_full.saturating_sub(earlier.rows_full),
            rows_carried: self.rows_carried.saturating_sub(earlier.rows_carried),
            journal_promotions: self
                .journal_promotions
                .saturating_sub(earlier.journal_promotions),
            journal_rollbacks: self
                .journal_rollbacks
                .saturating_sub(earlier.journal_rollbacks),
            sigma_evals: self.sigma_evals.saturating_sub(earlier.sigma_evals),
            sigma_reused: self.sigma_reused.saturating_sub(earlier.sigma_reused),
            sigma_fresh: self.sigma_fresh.saturating_sub(earlier.sigma_fresh),
        }
    }

    /// Adds `other`'s counters into `self` (aggregation across requests).
    pub fn merge(&mut self, other: &Prof) {
        self.windows += other.windows;
        self.carry_hits += other.carry_hits;
        self.carry_misses += other.carry_misses;
        self.rows_full += other.rows_full;
        self.rows_carried += other.rows_carried;
        self.journal_promotions += other.journal_promotions;
        self.journal_rollbacks += other.journal_rollbacks;
        self.sigma_evals += other.sigma_evals;
        self.sigma_reused += other.sigma_reused;
        self.sigma_fresh += other.sigma_fresh;
    }

    /// `true` when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == Prof::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_and_saturates() {
        let a = Prof {
            windows: 5,
            rows_full: 100,
            sigma_evals: 40,
            ..Prof::default()
        };
        let b = Prof {
            windows: 8,
            rows_full: 120,
            sigma_evals: 41,
            ..Prof::default()
        };
        let d = b.since(&a);
        assert_eq!((d.windows, d.rows_full, d.sigma_evals), (3, 20, 1));
        // A reset workspace (smaller counters) saturates to zero.
        let z = a.since(&b);
        assert!(z.is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let mut total = Prof::default();
        total.merge(&Prof {
            windows: 2,
            carry_hits: 1,
            ..Prof::default()
        });
        total.merge(&Prof {
            windows: 3,
            journal_promotions: 7,
            ..Prof::default()
        });
        assert_eq!(total.windows, 5);
        assert_eq!(total.carry_hits, 1);
        assert_eq!(total.journal_promotions, 7);
    }
}
