//! The candidate-stream abstraction behind the optimal multi-step
//! query engine.
//!
//! A [`CandidateSource`] yields `(id, filter_dist)` pairs in
//! *nondecreasing* `filter_dist` order and covers every object exactly
//! once. That single contract is what the multi-step k-NN algorithm of
//! Seidl & Kriegel [SIGMOD'98] needs from an access path: pull
//! candidates lazily, refine them with the exact distance, and stop as
//! soon as the next filter distance exceeds the running k-th-best exact
//! distance. Two access paths implement it:
//!
//! * [`NnIter`] — best-first MINDIST ranking over
//!   the X-tree (Hjaltason/Samet traversal);
//! * [`SortedScan`] — a sequential scan sorted by filter distance
//!   (reads the whole file up front, then streams in order).
//!
//! Both read their pages through the [`QueryContext`] buffer pool, so
//! the planner can compare them purely on simulated I/O.
//!
//! [`QueryContext`]: vsim_store::QueryContext

use crate::xtree::NnIter;

/// An incremental stream of `(id, filter_dist)` candidates in
/// nondecreasing `filter_dist` order, covering each object exactly once.
///
/// `filter_dist` must be a lower bound of the exact distance for the
/// multi-step engine's termination test to be correct; producing the
/// bound (e.g. scaling a centroid distance by `k`, Lemma 2) is the
/// adapter's job — see [`Scaled`].
pub trait CandidateSource {
    /// The next candidate, or `None` when the stream is exhausted.
    fn next_candidate(&mut self) -> Option<(u64, f64)>;
}

impl CandidateSource for NnIter<'_> {
    fn next_candidate(&mut self) -> Option<(u64, f64)> {
        self.next()
    }
}

/// Adapter multiplying every filter distance by a constant factor.
///
/// The centroid filter ranks by Euclidean centroid distance `d`, but the
/// lower bound of Lemma 2 is `k·d`. Scaling inside the stream keeps the
/// nondecreasing order (the factor is nonnegative) and lets the
/// multi-step engine compare filter distances directly against exact
/// `dist_mm` values.
pub struct Scaled<S> {
    source: S,
    factor: f64,
}

impl<S: CandidateSource> Scaled<S> {
    /// Wrap `source`, scaling each emitted distance by `factor` (≥ 0).
    pub fn new(source: S, factor: f64) -> Self {
        debug_assert!(factor >= 0.0);
        Scaled { source, factor }
    }
}

impl<S: CandidateSource> CandidateSource for Scaled<S> {
    fn next_candidate(&mut self) -> Option<(u64, f64)> {
        self.source.next_candidate().map(|(id, d)| (id, self.factor * d))
    }
}

/// A fully materialized candidate list replayed in nondecreasing
/// distance order — the sequential-scan access path. The I/O for
/// producing the list (reading the whole file) is charged by whoever
/// builds it (e.g. [`PointFile::scan_ranked`]); streaming from the
/// sorted list is free.
///
/// [`PointFile::scan_ranked`]: crate::storage::PointFile::scan_ranked
pub struct SortedScan {
    /// Sorted ascending; the stable sort keeps input order among equal
    /// distances. The X-tree cursor orders ties by its heap — in a way
    /// fixed by the tree and the query alone, never by addresses or
    /// hashing, but not in input order — so among equal distances the
    /// paths may differ.
    sorted: Vec<(u64, f64)>,
    next: usize,
}

impl SortedScan {
    /// Sort `candidates` by distance (NaN-safe total order) and stream
    /// them smallest-first.
    pub fn new(mut candidates: Vec<(u64, f64)>) -> Self {
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        SortedScan { sorted: candidates, next: 0 }
    }

    /// Candidates not yet consumed.
    pub fn remaining(&self) -> usize {
        self.sorted.len() - self.next
    }
}

impl CandidateSource for SortedScan {
    fn next_candidate(&mut self) -> Option<(u64, f64)> {
        let c = self.sorted.get(self.next).copied();
        if c.is_some() {
            self.next += 1;
        }
        c
    }
}

/// Drain a source into a vector (test/debug helper; defeats the lazy
/// evaluation the abstraction exists for).
pub fn drain<S: CandidateSource + ?Sized>(source: &mut S) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    while let Some(c) = source.next_candidate() {
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_scan_streams_in_order() {
        let mut s = SortedScan::new(vec![(0, 3.0), (1, 1.0), (2, 2.0), (3, 1.0)]);
        assert_eq!(s.remaining(), 4);
        let got = drain(&mut s);
        let dists: Vec<f64> = got.iter().map(|c| c.1).collect();
        assert_eq!(dists, vec![1.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn scaled_preserves_order_and_ids() {
        let inner = SortedScan::new(vec![(7, 2.0), (9, 0.5)]);
        let mut s = Scaled::new(inner, 3.0);
        assert_eq!(s.next_candidate(), Some((9, 1.5)));
        assert_eq!(s.next_candidate(), Some((7, 6.0)));
        assert_eq!(s.next_candidate(), None);
    }

    #[test]
    fn sorted_scan_handles_nan_without_panicking() {
        let mut s = SortedScan::new(vec![(0, f64::NAN), (1, 1.0)]);
        // total_cmp orders NaN after every finite value.
        assert_eq!(s.next_candidate().unwrap().0, 1);
        assert!(s.next_candidate().unwrap().1.is_nan());
    }
}
