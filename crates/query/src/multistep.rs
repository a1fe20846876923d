//! The optimal multi-step query engine [Seidl & Kriegel, SIGMOD'98]
//! over any [`CandidateSource`], and the [`Query`] value it answers.
//!
//! A multi-step algorithm answers exact similarity queries through a
//! cheap filter: candidates arrive in nondecreasing filter-lower-bound
//! order, each is refined with the exact distance, and the query stops
//! as soon as the next lower bound proves that no unexamined object can
//! enter the result. For k-NN the stopping bound is the running k-th
//! exact distance; for ε-range it is ε itself. With a correct lower
//! bound the algorithm is *optimal*: it refines exactly the candidates
//! any correct multi-step algorithm must refine (see DESIGN.md §9 for
//! the derivation from the centroid bound of Lemma 2).
//!
//! There is one loop, `multi_step`: it is access-path agnostic (the
//! X-tree cursor and the sorted scan both drive it),
//! kind agnostic (its collector is a [`TopK`] or an ε-list) and
//! variant agnostic (an invariant query runs it once per query variant
//! into the same collector). It threads `filter_steps` /
//! `refinements_saved` through the [`QueryContext`], so per-query stats
//! show how deep into the ranking a query looked and how many exact
//! evaluations the early termination avoided.

use crate::planner::AccessPath;
use vsim_index::{CandidateSource, QueryContext, StoreResult};
use vsim_setdist::VectorSet;

/// What a [`Query`] collects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// The `k` nearest objects.
    Knn(usize),
    /// Every object within distance ε.
    Range(f64),
}

/// One similarity query as a value: the distance of an object `o` is
/// `min_T dist_mm(T(q), o)` over the supplied `variants` of the query
/// object — one variant for a plain query, the 24/48 transformed copies
/// for Section 3.2's invariance ("48 different permutations of the
/// query object at runtime"). Hits come back ascending by distance.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    pub variants: &'a [VectorSet],
    pub kind: QueryKind,
    /// The access path to pull candidates from; `None` lets the
    /// cost-based planner choose. The choice affects cost, never hits.
    pub path: Option<AccessPath>,
}

impl<'a> Query<'a> {
    /// `k`-NN under the minimum over `variants`, on the planner's path.
    pub fn knn(variants: &'a [VectorSet], k: usize) -> Self {
        Query { variants, kind: QueryKind::Knn(k), path: None }
    }

    /// ε-range under the minimum over `variants`, on the planner's path.
    pub fn range(variants: &'a [VectorSet], eps: f64) -> Self {
        Query { variants, kind: QueryKind::Range(eps), path: None }
    }

    /// The same query on an explicitly chosen access path.
    pub fn via(mut self, path: AccessPath) -> Self {
        self.path = Some(path);
        self
    }

    /// The empty result set this query fills, or `None` when nothing can
    /// qualify — no variants, `k = 0`, or a NaN ε — so the caller answers
    /// `Ok(vec![])` without opening a candidate stream.
    pub(crate) fn collector(&self) -> Option<Collector> {
        match self.kind {
            _ if self.variants.is_empty() => None,
            QueryKind::Knn(0) => None,
            QueryKind::Knn(k) => Some(Collector::Nearest(TopK::new(k))),
            QueryKind::Range(eps) if eps.is_nan() => None,
            QueryKind::Range(eps) => Some(Collector::Within { eps, hits: Vec::new() }),
        }
    }
}

/// A bounded result set: the `k` smallest `(id, distance)` pairs seen
/// so far, at most one per id (its smallest), kept sorted ascending.
/// Ties keep insertion order (the sort is stable), matching the
/// tie-breaking of a full sort-then-truncate — and the comparison is
/// `total_cmp`, so a NaN distance ranks last instead of poisoning the
/// order.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    items: Vec<(u64, f64)>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        TopK { k, items: Vec::with_capacity(k.min(1024) + 1) }
    }

    /// Insert a candidate, keeping only the `k` smallest. A second
    /// distance for an id already held replaces the first if smaller and
    /// is dropped otherwise (the minimum over query variants).
    pub fn push(&mut self, id: u64, d: f64) {
        match self.items.iter().position(|&(i, _)| i == id) {
            Some(at) if d < self.items[at].1 => {
                self.items.remove(at);
            }
            Some(_) => return,
            None => {}
        }
        self.items.push((id, d));
        self.items.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.items.truncate(self.k);
    }

    /// Whether `k` results have been collected.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.k
    }

    /// The current pruning bound: the k-th smallest distance once full,
    /// `+∞` before that; `−∞` for `k = 0`, which nothing can enter.
    pub fn bound(&self) -> f64 {
        match self.k {
            0 => f64::NEG_INFINITY,
            k if self.is_full() => self.items[k - 1].1,
            _ => f64::INFINITY,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The collected results, ascending by distance.
    pub fn into_vec(self) -> Vec<(u64, f64)> {
        self.items
    }
}

/// The result set of one [`Query`], shared by every variant's pass of
/// [`multi_step`].
#[derive(Debug)]
pub(crate) enum Collector {
    Nearest(TopK),
    Within { eps: f64, hits: Vec<(u64, f64)> },
}

impl Collector {
    /// Whether a filter lower bound of `lower` proves that this
    /// candidate, and so every later one, cannot enter the result.
    fn excludes(&self, lower: f64) -> bool {
        match self {
            Collector::Nearest(top) => top.is_full() && lower >= top.bound(),
            Collector::Within { eps, .. } => lower > *eps,
        }
    }

    /// The distance above which refining `id` is moot: the k-th best,
    /// and the entry `id` already holds from an earlier variant. (A
    /// refined id that is *not* held was pushed out of a full top-k, so
    /// its best distance is ≥ the k-th: no per-id map is needed.)
    fn upper(&self, id: u64) -> f64 {
        match self {
            Collector::Nearest(top) => {
                let held = top.items.iter().find(|h| h.0 == id).map_or(f64::INFINITY, |h| h.1);
                held.min(top.bound())
            }
            Collector::Within { eps, .. } => *eps,
        }
    }

    pub(crate) fn push(&mut self, id: u64, d: f64) {
        match self {
            Collector::Nearest(top) => top.push(id, d),
            Collector::Within { eps, hits } if d <= *eps => hits.push((id, d)),
            Collector::Within { .. } => {}
        }
    }

    /// The hits ascending by distance, one per id.
    pub(crate) fn into_vec(self) -> Vec<(u64, f64)> {
        match self {
            Collector::Nearest(top) => top.into_vec(),
            Collector::Within { mut hits, .. } => {
                // Smallest distance per id first, then a stable sort:
                // equal distances come out in ascending id order on
                // every access path.
                hits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                hits.dedup_by_key(|h| h.0);
                hits.sort_by(|a, b| a.1.total_cmp(&b.1));
                hits
            }
        }
    }
}

/// One pass of the optimal multi-step algorithm: pull candidates from
/// `source` into `result` until a lower bound excludes the rest.
///
/// `refine(id, upper)` computes the exact distance of object `id`,
/// allowed to abort (returning `Ok(None)`) as soon as the distance
/// provably exceeds `upper` — pruned refinements are counted by this
/// core; a refine that dismisses the candidate with the `f32`
/// filter-precision kernel additionally counts `f32_prefilter` itself
/// before returning `Ok(None)`, keeping `f32_prefilter ⊆ pruned` — and
/// to fail with a [`StoreError`](vsim_index::StoreError)
/// when the object's pages cannot be read; the error aborts this query
/// only. The terminating candidate (and, for a finite stream, nothing
/// else) is dismissed without refinement and counted as a saved
/// refinement, so `filter_steps = refinements + refinements_saved`.
pub(crate) fn multi_step<S, F>(
    source: &mut S,
    result: &mut Collector,
    ctx: &QueryContext,
    mut refine: F,
) -> StoreResult<()>
where
    S: CandidateSource + ?Sized,
    F: FnMut(u64, f64) -> StoreResult<Option<f64>>,
{
    while let Some((id, lower)) = source.next_candidate() {
        ctx.count_filter_steps(1);
        ctx.count_candidates(1);
        if result.excludes(lower) {
            // No unexamined object can enter the result: every later
            // candidate has an even larger lower bound.
            ctx.count_refinements_saved(1);
            break;
        }
        ctx.count_refinements(1);
        match refine(id, result.upper(id))? {
            Some(d) => result.push(id, d),
            None => ctx.count_pruned(1), // provably beyond the bound
        }
    }
    Ok(())
}

/// Optimal multi-step k-NN over one candidate stream: the one loop of
/// this module into a fresh [`TopK`]. The loop pulls candidates while the filter
/// lower bound stays below the running k-th exact distance, which is
/// also the `upper` handed to `refine`.
pub fn multi_step_knn<S, F>(
    source: &mut S,
    kq: usize,
    ctx: &QueryContext,
    refine: F,
) -> StoreResult<Vec<(u64, f64)>>
where
    S: CandidateSource + ?Sized,
    F: FnMut(u64, f64) -> StoreResult<Option<f64>>,
{
    let mut result = Collector::Nearest(TopK::new(kq));
    multi_step(source, &mut result, ctx, refine)?;
    Ok(result.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_index::SortedScan;

    #[test]
    fn topk_keeps_smallest_and_breaks_ties_by_insertion() {
        let mut t = TopK::new(3);
        assert!(t.is_empty());
        assert_eq!(t.bound(), f64::INFINITY);
        for (id, d) in [(1, 5.0), (2, 1.0), (3, 3.0), (4, 1.0), (5, 0.5)] {
            t.push(id, d);
        }
        assert!(t.is_full());
        assert_eq!(t.bound(), 1.0);
        // id 2 precedes id 4 at distance 1.0 (stable ties).
        assert_eq!(t.into_vec(), vec![(5, 0.5), (2, 1.0), (4, 1.0)]);
    }

    #[test]
    fn topk_zero_k_stays_empty() {
        let mut t = TopK::new(0);
        t.push(1, 1.0);
        assert_eq!(t.len(), 0);
        assert_eq!(t.bound(), f64::NEG_INFINITY, "nothing can enter: any lower bound excludes");
        assert!(t.into_vec().is_empty());
    }

    #[test]
    fn collectors_keep_the_minimum_per_id() {
        let mut top = Collector::Nearest(TopK::new(2));
        let mut within = Collector::Within { eps: 4.0, hits: Vec::new() };
        for (id, d) in [(7, 3.0), (8, 1.0), (7, 2.0), (7, 2.5), (9, 2.0), (9, 5.0)] {
            top.push(id, d);
            within.push(id, d);
        }
        // The abort bound of an id is its own entry or the k-th best.
        assert_eq!((top.upper(8), top.upper(9), within.upper(9)), (1.0, 2.0, 4.0));
        assert_eq!(top.into_vec(), vec![(8, 1.0), (7, 2.0)]);
        assert_eq!(within.into_vec(), vec![(8, 1.0), (7, 2.0), (9, 2.0)]);
    }

    #[test]
    fn knn_stops_at_first_unbeatable_lower_bound() {
        // Lower bounds equal exact distances: the stream IS the answer,
        // so exactly kq refinements happen plus one saved step.
        let mut src = SortedScan::new((0..100u64).map(|i| (i, i as f64)).collect());
        let ctx = QueryContext::ephemeral();
        let got = multi_step_knn(&mut src, 5, &ctx, |id, _| Ok(Some(id as f64))).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], (4, 4.0));
        let s = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(s.refinements, 5);
        assert_eq!(s.filter_steps, 6, "5 refined + 1 terminating pull");
        assert_eq!(s.refinements_saved, 1);
        assert_eq!(s.pruned, 0);
    }

    #[test]
    fn knn_pruned_refinements_do_not_enter_result() {
        let mut src = SortedScan::new((0..10u64).map(|i| (i, 0.0)).collect());
        let ctx = QueryContext::ephemeral();
        // Exact distance = id; pretend the kernel prunes odd ids once a
        // bound exists (their distance would exceed it anyway).
        let got = multi_step_knn(&mut src, 3, &ctx, |id, upper| {
            let d = id as f64;
            if d > upper {
                Ok(None)
            } else {
                Ok(Some(d))
            }
        })
        .unwrap();
        assert_eq!(got, vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
        let s = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(s.refinements, 10, "all lower bounds were 0: nothing terminates early");
        assert_eq!(s.pruned, 7);
    }

    #[test]
    fn range_refines_only_within_eps() {
        let mut src = SortedScan::new((0..50u64).map(|i| (i, i as f64 * 0.5)).collect());
        let ctx = QueryContext::ephemeral();
        let mut got = Collector::Within { eps: 3.0, hits: Vec::new() };
        multi_step(&mut src, &mut got, &ctx, |id, _| Ok(Some(id as f64 * 0.5))).unwrap();
        // lower = exact here: ids 0..=6 have distance ≤ 3.0.
        assert_eq!(got.into_vec().len(), 7);
        let s = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(s.refinements, 7);
        assert_eq!(s.refinements_saved, 1);
    }

    #[test]
    fn exhausted_stream_terminates_without_saved_refinement() {
        let mut src = SortedScan::new((0..3u64).map(|i| (i, i as f64)).collect());
        let ctx = QueryContext::ephemeral();
        let got = multi_step_knn(&mut src, 10, &ctx, |id, _| Ok(Some(id as f64))).unwrap();
        assert_eq!(got.len(), 3);
        let s = ctx.stats(std::time::Duration::ZERO);
        assert_eq!(s.refinements_saved, 0, "stream ended before the bound fired");
    }
}
