//! Per-query cost accounting, mirroring Table 2's columns.

use std::time::Duration;

use crate::cost::{CostModel, IoSnapshot};
use crate::error::StoreErrorKind;
use crate::tracker::CacheCounts;

/// Costs of one similarity query (or a sum over a workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Measured wall-clock CPU time of the query.
    pub cpu: Duration,
    /// Simulated I/O charged by the cost model (pages = buffer-pool
    /// misses; hits are free).
    pub io: IoSnapshot,
    /// Buffer-pool activity attributable to this query.
    pub cache: CacheCounts,
    /// Objects surviving the filter step (for filter/refine paths) or
    /// examined (for scans).
    pub candidates: u64,
    /// Exact (expensive) distance computations performed.
    pub refinements: u64,
    /// Refinements aborted early by the bounded matching kernel (a
    /// subset of `refinements`).
    pub pruned: u64,
    /// Candidates pulled from an incremental candidate stream (one
    /// filter ranking step per candidate; the multi-step engine's
    /// measure of how deep into the ranking a query had to look).
    pub filter_steps: u64,
    /// Stream candidates dismissed by the filter lower bound alone —
    /// pulled but never refined with the exact distance.
    pub refinements_saved: u64,
    /// Refinements dismissed by the `f32` filter-precision matching
    /// kernel alone — the exact `f64` solve never ran (a subset of
    /// `pruned`).
    pub f32_prefilter: u64,
    /// Objects inserted into a dynamic index during this operation.
    pub inserts: u64,
    /// Objects deleted (tombstoned) from a dynamic index.
    pub deletes: u64,
    /// Epoch-snapshot pins taken by readers of a dynamic index (one per
    /// query that latched a consistent snapshot before filtering).
    pub epoch_pins: u64,
    /// Index-level distance-function evaluations.
    pub distance_evals: u64,
    /// Why this query failed, if it did. A failed query still reports
    /// the costs it incurred before the error; batch runners record the
    /// kind here instead of aborting the whole workload.
    pub error: Option<StoreErrorKind>,
}

impl QueryStats {
    /// Simulated I/O time in seconds under the given cost model.
    pub fn io_seconds(&self, cm: &CostModel) -> f64 {
        cm.seconds(self.io)
    }

    /// CPU + simulated I/O, the paper's "total time".
    pub fn total_seconds(&self, cm: &CostModel) -> f64 {
        self.cpu.as_secs_f64() + self.io_seconds(cm)
    }

    /// Accumulate another query's stats (for averaging over workloads).
    /// The pattern names every field (no `..`), so a field added to
    /// `QueryStats` and not summed here is a compile error.
    pub fn accumulate(&mut self, other: &QueryStats) {
        let QueryStats {
            cpu,
            io,
            cache,
            candidates,
            refinements,
            pruned,
            filter_steps,
            refinements_saved,
            f32_prefilter,
            inserts,
            deletes,
            epoch_pins,
            distance_evals,
            error,
        } = *other;
        self.cpu += cpu;
        self.io = self.io + io;
        self.cache = self.cache + cache;
        self.candidates += candidates;
        self.refinements += refinements;
        self.pruned += pruned;
        self.filter_steps += filter_steps;
        self.refinements_saved += refinements_saved;
        self.f32_prefilter += f32_prefilter;
        self.inserts += inserts;
        self.deletes += deletes;
        self.epoch_pins += epoch_pins;
        self.distance_evals += distance_evals;
        self.error = self.error.or(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_combine_cpu_and_io() {
        let s = QueryStats {
            cpu: Duration::from_millis(100),
            io: IoSnapshot { pages: 10, bytes: 0 },
            ..Default::default()
        };
        let cm = CostModel::default();
        assert!((s.io_seconds(&cm) - 0.08).abs() < 1e-12);
        assert!((s.total_seconds(&cm) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = QueryStats {
            cpu: Duration::from_millis(5),
            io: IoSnapshot { pages: 1, bytes: 10 },
            cache: CacheCounts { hits: 3, misses: 1, evictions: 0 },
            candidates: 2,
            refinements: 1,
            pruned: 1,
            filter_steps: 3,
            refinements_saved: 2,
            f32_prefilter: 1,
            inserts: 4,
            deletes: 2,
            epoch_pins: 1,
            distance_evals: 9,
            error: None,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.cpu, Duration::from_millis(10));
        assert_eq!(a.io.pages, 2);
        assert_eq!(a.cache.hits, 6);
        assert_eq!(a.candidates, 4);
        assert_eq!(a.pruned, 2);
        assert_eq!(a.filter_steps, 6);
        assert_eq!(a.refinements_saved, 4);
        assert_eq!(a.f32_prefilter, 2);
        assert_eq!((a.inserts, a.deletes, a.epoch_pins), (8, 4, 2));
        assert_eq!(a.distance_evals, 18);
    }

    #[test]
    fn accumulate_keeps_the_first_error() {
        let mut a = QueryStats::default();
        assert_eq!(a.error, None);
        a.accumulate(&QueryStats { error: Some(StoreErrorKind::Corruption), ..Default::default() });
        a.accumulate(&QueryStats { error: Some(StoreErrorKind::Io), ..Default::default() });
        assert_eq!(a.error, Some(StoreErrorKind::Corruption), "first error wins");
    }
}
