//! The reusable minimal-matching engine: the `O(k³)` Kuhn–Munkres
//! kernel of Section 4.2 stripped of every per-call allocation, behind
//! **one entry point**, [`MatchingEngine::distance`]`(x, y, upper)`.
//!
//! [`MinimalMatching::match_sets`] is the full-fidelity path: it builds
//! the cost matrix, solves and materializes the matched pairs. The
//! filter/refine query engine and OPTICS need none of that — they call
//! the distance `O(n)`–`O(n²)` times and consume only the scalar.
//! [`MatchingEngine`] serves that hot path:
//!
//! * each operand is a raw [`VectorSet`] or a [`PreparedSet`] (weights
//!   `w(x)` and padded `f64`/`f32` lane rows computed once per *object*
//!   instead of once per call) — any pairing, see [`Operand`];
//! * `upper` bounds the distance: the solve aborts as soon as the
//!   running partial-assignment cost — monotone under non-negative
//!   costs, read in O(1) from the dual (DESIGN.md §13) — proves the
//!   result exceeds it; `upper = ∞` never prunes and pays nothing for
//!   the bookkeeping;
//! * the **precision ladder** is internal policy: when the bound is
//!   finite and the dims fit the lane layout (≤ 8, both paper models),
//!   an `f32` bounded solve runs first with the bound widened by a
//!   derived margin δ, so its prunes are *provable* in `f64` terms
//!   (DESIGN.md §13 derives δ); only candidates it cannot dismiss reach
//!   the exact kernel, so results never depend on it;
//! * the [`hungarian::Workspace`] and the scratch cost/lane buffers live
//!   in the engine and are reused across calls, so the steady state
//!   performs **zero heap allocations per distance** (asserted by the
//!   `alloc_free` integration test for every operand pairing);
//! * cost rows are materialized lazily, right before the solver inserts
//!   them; for lane dims every entry is one fixed-width lane kernel
//!   ([`crate::simd`]) — bit-identical to the per-pair
//!   [`PointDistance::eval`](crate::matching::PointDistance::eval)
//!   calls `match_sets` makes, because both use the same fixed
//!   reduction tree.
//!
//! Results are bit-identical to [`MinimalMatching::match_sets`]
//! wherever nothing is pruned (property-tested below for both paper
//! models).

use crate::hungarian::{self, Workspace};
use crate::matching::MinimalMatching;
use crate::simd;
use crate::types::VectorSet;

/// Outcome of [`MatchingEngine::distance`]: the exact value, or which
/// stage of the precision ladder proved the bound violation — so
/// callers can count how much exact work the filter-precision stage
/// saved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefilteredDistance {
    /// The exact distance — bit-identical to the unbounded result (the
    /// bound and the f32 stage never alter the value, only skip work).
    /// Also returned when the exact value exceeds the bound but the
    /// solver happened to finish before the partial cost crossed it.
    Exact(f64),
    /// The f32 filter stage proved the distance exceeds the bound (by
    /// more than the δ margin); the exact kernel never ran.
    PrunedByF32,
    /// The exact f64 kernel pruned (the f32 stage could not decide).
    Pruned,
}

impl PrefilteredDistance {
    /// The exact value, if the computation was not pruned.
    pub fn value(self) -> Option<f64> {
        match self {
            PrefilteredDistance::Exact(d) => Some(d),
            _ => None,
        }
    }

    pub fn is_pruned(self) -> bool {
        !matches!(self, PrefilteredDistance::Exact(_))
    }

    /// Whether the cheap f32 stage alone decided the prune.
    pub fn pruned_by_f32(self) -> bool {
        matches!(self, PrefilteredDistance::PrunedByF32)
    }
}

/// A vector set with its per-element weights `w(xᵢ)` — and, for lane
/// dims (≤ 8), its padded `f64`/`f32` lane rows and `f32` weights —
/// precomputed for one [`MinimalMatching`] model. In OPTICS every
/// object participates in `O(n)` distance evaluations; preparing once
/// turns every weight-column cost into a table lookup and skips the
/// per-call row padding.
#[derive(Debug, Clone)]
pub struct PreparedSet {
    set: VectorSet,
    weights: Vec<f64>,
    /// `LANES`-strided padded rows; empty when `dim > LANES`.
    pad: Vec<f64>,
    /// `f32` twin of `pad` for the filter-precision stage.
    pad32: Vec<f32>,
    /// `f32` weight table (converted once from `weights`).
    weights32: Vec<f32>,
}

impl PreparedSet {
    /// Precompute the weights (and lane rows) of `set` under `mm`'s
    /// weight function.
    pub fn new(set: VectorSet, mm: &MinimalMatching) -> Self {
        let weights: Vec<f64> = set.iter().map(|v| mm.weight.eval(v)).collect();
        let weights32 = weights.iter().map(|&w| w as f32).collect();
        let mut pad = Vec::new();
        let mut pad32 = Vec::new();
        if set.dim() <= simd::LANES {
            simd::pad_rows(set.dim(), set.flat(), &mut pad);
            simd::pad_rows_f32(set.dim(), set.flat(), &mut pad32);
        }
        PreparedSet { set, weights, pad, pad32, weights32 }
    }

    pub fn set(&self) -> &VectorSet {
        &self.set
    }
}

/// One operand of [`MatchingEngine::distance`]: a raw set, or one whose
/// weights and lane rows [`MatchingEngine::prepare`] computed up front.
/// Callers pass `&VectorSet` / `&PreparedSet` directly (the `From`
/// impls below); preparing pays off for a set that takes part in many
/// distance calls (the query of a k-NN search, every OPTICS object), not
/// for a candidate streamed from storage once.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    Raw(&'a VectorSet),
    Prepared(&'a PreparedSet),
}

impl<'a> From<&'a VectorSet> for Operand<'a> {
    fn from(set: &'a VectorSet) -> Self {
        Operand::Raw(set)
    }
}

impl<'a> From<&'a PreparedSet> for Operand<'a> {
    fn from(prepared: &'a PreparedSet) -> Self {
        Operand::Prepared(prepared)
    }
}

impl<'a> Operand<'a> {
    fn set(self) -> &'a VectorSet {
        match self {
            Operand::Raw(set) => set,
            Operand::Prepared(p) => &p.set,
        }
    }

    fn prepared(self) -> Option<&'a PreparedSet> {
        match self {
            Operand::Raw(_) => None,
            Operand::Prepared(p) => Some(p),
        }
    }
}

/// Reusable, allocation-free minimal-matching distance kernel. Not
/// `Sync` — parallel callers hold one engine per worker thread (see
/// `vsim_parallel::par_tiles`).
#[derive(Debug)]
pub struct MatchingEngine {
    mm: MinimalMatching,
    ws: Workspace,
    /// Scratch `m × m` cost matrix, row-major.
    cost: Vec<f64>,
    /// `f32` scratch cost matrix for the filter-precision stage.
    cost32: Vec<f32>,
    /// `f32` scratch weight table for the larger set when it is not a
    /// [`PreparedSet`].
    wbig32: Vec<f32>,
    /// Padded lane rows for the smaller set (the larger set's rows are
    /// padded on demand inside the lazy cost fill).
    psmall: Vec<f64>,
    pbig32: Vec<f32>,
    psmall32: Vec<f32>,
}

impl MatchingEngine {
    pub fn new(mm: MinimalMatching) -> Self {
        MatchingEngine {
            mm,
            ws: Workspace::default(),
            cost: Vec::new(),
            cost32: Vec::new(),
            wbig32: Vec::new(),
            psmall: Vec::new(),
            pbig32: Vec::new(),
            psmall32: Vec::new(),
        }
    }

    /// The model this engine computes.
    pub fn model(&self) -> &MinimalMatching {
        &self.mm
    }

    /// Precompute the weight table of a set under this engine's model.
    pub fn prepare(&self, set: VectorSet) -> PreparedSet {
        PreparedSet::new(set, &self.mm)
    }

    /// The minimal matching distance of `x` and `y`, unless it provably
    /// exceeds `upper`. Whenever the exact distance is ≤ `upper` the
    /// result is `Exact` and bit-identical to
    /// `self.model().distance_value(x, y)`; `upper = ∞` never prunes.
    /// Either operand may be a `&VectorSet` or a `&PreparedSet` — same
    /// outcome for every pairing, zero steady-state allocations.
    pub fn distance<'a>(
        &mut self,
        x: impl Into<Operand<'a>>,
        y: impl Into<Operand<'a>>,
        upper: f64,
    ) -> PrefilteredDistance {
        self.solve(x.into(), y.into(), upper)
    }

    /// `distance(x, y, ∞)` as a plain value — what the pairwise matrix
    /// behind OPTICS calls.
    pub fn distance_prepared(&mut self, x: &PreparedSet, y: &PreparedSet) -> f64 {
        self.distance(x, y, f64::INFINITY).value().expect("unbounded solve cannot prune")
    }

    /// `distance(x, y, upper)` under the name the multi-step refinement
    /// loop calls it by: the query set is prepared once per query, each
    /// candidate streams in from storage exactly once and stays raw.
    pub fn distance_bounded_prefiltered_half(
        &mut self,
        x: &PreparedSet,
        y: &VectorSet,
        upper: f64,
    ) -> PrefilteredDistance {
        self.distance(x, y, upper)
    }

    /// The body of [`MatchingEngine::distance`] (not generic, so it is
    /// compiled once): orient, run the f32 filter stage when it can
    /// decide anything, then fill the scratch cost matrix lazily under
    /// the bounded cost-only Hungarian kernel.
    fn solve(&mut self, x: Operand<'_>, y: Operand<'_>, upper: f64) -> PrefilteredDistance {
        assert_eq!(x.set().dim(), y.set().dim(), "vector sets of different dimension");
        // Orient so that `big` pays the weight penalty for its surplus
        // elements (Definition 6, w.l.o.g. |X| >= |Y|) — the same
        // orientation as `match_sets`, for bit-identical results.
        let (big_op, small_op) = if x.set().len() >= y.set().len() { (x, y) } else { (y, x) };
        let (big, pbig_prep) = (big_op.set(), big_op.prepared());
        let (small, psmall_prep) = (small_op.set(), small_op.prepared());
        let m = big.len();
        let n = small.len();

        // Translate the bound on the *finished* distance into a bound on
        // the raw matched sum (the permutation model takes a square root
        // at the end, Section 4.2). The matched sum is non-negative, so
        // a negative bound prunes everything either way; clamp to keep
        // the square monotone.
        let upper = if self.mm.sqrt_of_total && upper.is_finite() {
            let u = upper.max(0.0);
            u * u
        } else {
            upper
        };

        if m == 0 {
            let total = 0.0;
            return if total > upper {
                PrefilteredDistance::Pruned
            } else {
                PrefilteredDistance::Exact(self.mm.finish(total))
            };
        }

        let dim = big.dim();
        let lanes = dim <= simd::LANES;

        // Stage 1: f32 filter-precision solve. Only worth running when a
        // finite bound exists (with `upper = ∞` nothing can prune) and
        // the dims fit the lane layout.
        if lanes && upper.is_finite() && self.f32_stage(big_op, small_op, upper).is_none() {
            return PrefilteredDistance::PrunedByF32;
        }

        // Stage 2: exact f64 kernel.
        let MatchingEngine { mm, ws, cost, psmall, .. } = self;

        // Square m × m cost matrix, identical layout to `match_sets`:
        // first n columns are point distances, the rest weight slots.
        // Grow-only: every slot is written by the fill below, so no
        // zeroing pass is needed.
        if cost.len() < m * m {
            cost.resize(m * m, 0.0);
        }
        cost.truncate(m * m);
        if let Some(p) = pbig_prep {
            debug_assert_eq!(p.weights.len(), m, "prepared weights out of sync with set");
        }
        // Rows are materialized lazily, right before the solver inserts
        // them: a solve the dual bound aborts after `r` rows never
        // computes the remaining `m - r` cost rows or their weights.
        let total = if lanes {
            // Pad the *small* side once (each of its rows is re-read by
            // every big row); big rows are padded into a stack lane
            // block inside the fill closure, so a pruned solve never
            // pads — or weighs — rows the solver didn't reach.
            let smallp: &[f64] = match psmall_prep {
                Some(p) => &p.pad,
                None => {
                    simd::pad_rows(dim, small.flat(), psmall);
                    psmall
                }
            };
            // Each row is the same fixed-width lane kernels as
            // `match_sets` evaluates (`eval_row` skips only `eval`'s
            // per-point pad), so the entries — and the non-pruned
            // result — stay bit-identical to it.
            let fill = |i: usize, out: &mut [f64]| {
                let padded;
                let bi: &[f64; simd::LANES] = match pbig_prep {
                    Some(p) => simd::row(&p.pad, i),
                    None => {
                        padded = simd::pad(big.get(i));
                        &padded
                    }
                };
                // `chunks_exact` hands LLVM a loop-invariant row length,
                // so the per-column `&[f64; LANES]` conversions compile
                // without bounds checks.
                for (slot, sp) in out.iter_mut().zip(smallp.chunks_exact(simd::LANES)) {
                    let sp: &[f64; simd::LANES] = sp.try_into().expect("LANES-strided row");
                    *slot = mm.point_distance.eval_lanes(bi, sp);
                }
                // Weight columns only exist for `n < m`; equal-size sets
                // skip the row weight (and its sqrt) entirely.
                if n < m {
                    let w = match pbig_prep {
                        Some(p) => p.weights[i],
                        None => mm.weight.eval_row(bi),
                    };
                    for slot in out.iter_mut().skip(n) {
                        *slot = w;
                    }
                }
            };
            hungarian::solve_cost_slice_bounded_lazy(m, m, cost, ws, upper, fill)
        } else {
            // No lane layout above `LANES` dims: the same lazy rows from
            // the sequential `lp` sums `match_sets` uses there.
            let fill = |i: usize, out: &mut [f64]| {
                let bi = big.get(i);
                for (j, slot) in out.iter_mut().take(n).enumerate() {
                    *slot = mm.point_distance.eval(bi, small.get(j));
                }
                if n < m {
                    let w = match pbig_prep {
                        Some(p) => p.weights[i],
                        None => mm.weight.eval(bi),
                    };
                    for slot in out.iter_mut().skip(n) {
                        *slot = w;
                    }
                }
            };
            hungarian::solve_cost_slice_bounded_lazy(m, m, cost, ws, upper, fill)
        };
        match total {
            Some(total) => PrefilteredDistance::Exact(mm.finish(total)),
            None => PrefilteredDistance::Pruned,
        }
    }

    /// The f32 filter stage: fill the f32 cost matrix from padded lane
    /// rows, widen the bound by the δ margin and run the f32 bounded
    /// core. `None` = the **f64** distance provably exceeds `upper`
    /// (DESIGN.md §13); `Some(total32)` = the f32 raw matched sum.
    /// Requires `m > 0`, `dim ≤ LANES` and `big`/`small` oriented as in
    /// [`MatchingEngine::solve`]; `upper` is on the raw matched-sum scale.
    fn f32_stage(&mut self, big: Operand<'_>, small: Operand<'_>, upper: f64) -> Option<f32> {
        let (big, pbig_prep) = (big.set(), big.prepared());
        let (small, psmall_prep) = (small.set(), small.prepared());
        let m = big.len();
        let n = small.len();
        let dim = big.dim();
        let MatchingEngine { mm, ws, cost32, wbig32, pbig32, psmall32, .. } = self;

        let bigp: &[f32] = match pbig_prep {
            Some(p) => &p.pad32,
            None => {
                simd::pad_rows_f32(dim, big.flat(), pbig32);
                pbig32
            }
        };
        let smallp: &[f32] = match psmall_prep {
            Some(p) => &p.pad32,
            None => {
                simd::pad_rows_f32(dim, small.flat(), psmall32);
                psmall32
            }
        };
        let weights32: &[f32] = match pbig_prep {
            Some(p) => &p.weights32,
            None => {
                wbig32.clear();
                wbig32.extend(big.iter().map(|v| mm.weight.eval(v) as f32));
                wbig32
            }
        };

        if cost32.len() < m * m {
            cost32.resize(m * m, 0.0);
        }
        cost32.truncate(m * m);
        let mut max_entry = 0.0f32;
        for i in 0..m {
            let bi = simd::row_f32(bigp, i);
            let row = &mut cost32[i * m..(i + 1) * m];
            for (j, slot) in row.iter_mut().take(n).enumerate() {
                *slot = mm.point_distance.eval_lanes_f32(bi, simd::row_f32(smallp, j));
            }
            let w = weights32[i];
            for slot in row.iter_mut().skip(n) {
                *slot = w;
            }
            for &c in row.iter() {
                max_entry = max_entry.max(c.abs());
            }
        }

        // δ margin (DESIGN.md §13): covers the f64→f32 input conversion,
        // the f32 cost-entry arithmetic, the solver's own rounding and
        // the f64→f32 conversion of the bound itself. Widening the bound
        // only ever makes the filter *less* aggressive, so overshooting
        // is safe; false prunes are what δ rules out.
        let upper32 = if upper.is_finite() {
            let mf = m as f32;
            let margin = mf * mf * 16.0 * f32::EPSILON * max_entry
                + 2.0 * f32::EPSILON * (upper as f32).abs();
            upper as f32 + margin
        } else {
            f32::INFINITY
        };

        hungarian::solve_cost_slice_bounded_f32(m, m, cost32, ws, upper32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use PrefilteredDistance::{Exact, Pruned, PrunedByF32};

    fn models() -> [MinimalMatching; 2] {
        [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()]
    }

    fn set_from(dim: usize, vals: &[f64]) -> VectorSet {
        VectorSet::from_flat(dim, vals.to_vec())
    }

    /// `distance(x, y, upper)` through all four raw/prepared operand
    /// pairings, asserted indistinguishable (same variant, same bits).
    fn distance_all_pairings(
        e: &mut MatchingEngine,
        x: &VectorSet,
        y: &VectorSet,
        upper: f64,
    ) -> PrefilteredDistance {
        let (px, py) = (e.prepare(x.clone()), e.prepare(y.clone()));
        let raw = e.distance(x, y, upper);
        let others =
            [e.distance(&px, y, upper), e.distance(x, &py, upper), e.distance(&px, &py, upper)];
        for (i, other) in others.into_iter().enumerate() {
            match (raw, other) {
                (Exact(a), Exact(b)) => assert_eq!(a.to_bits(), b.to_bits(), "pairing {i}"),
                _ => assert_eq!(raw, other, "pairing {i} at upper {upper}"),
            }
        }
        raw
    }

    #[test]
    fn empty_sets_and_bounds() {
        let mut e = MatchingEngine::new(MinimalMatching::vector_set_model());
        let empty = VectorSet::new(2);
        let x = set_from(2, &[3.0, 4.0]);
        let inf = f64::INFINITY;
        assert_eq!(distance_all_pairings(&mut e, &empty, &empty, inf), Exact(0.0));
        assert_eq!(distance_all_pairings(&mut e, &x, &empty, inf), Exact(5.0));
        assert_eq!(distance_all_pairings(&mut e, &empty, &x, 5.0), Exact(5.0));
        assert!(distance_all_pairings(&mut e, &x, &empty, 1.0).is_pruned());
        assert_eq!(distance_all_pairings(&mut e, &empty, &empty, -1.0), Pruned);
    }

    #[test]
    fn engine_reuse_across_sizes_is_sound() {
        // Grow, shrink, grow again: stale scratch must never leak — on
        // the lane path (dim 2) and the `lp` path above `LANES` dims.
        let mm = MinimalMatching::vector_set_model();
        for dim in [2usize, simd::LANES + 3] {
            let mut e = MatchingEngine::new(mm.clone());
            let sizes = [(4usize, 2usize), (1, 1), (3, 5), (2, 2), (6, 1)];
            for (round, &(a, b)) in sizes.iter().enumerate() {
                let coords = |card: usize, step: usize, off: f64| -> Vec<f64> {
                    (0..dim * card).map(|i| off + (i * step + round) as f64).collect()
                };
                let x = set_from(dim, &coords(a, 1, 0.1));
                let y = set_from(dim, &coords(b, 2, 0.7));
                let want = mm.distance_value(&x, &y);
                let got = distance_all_pairings(&mut e, &x, &y, f64::INFINITY);
                assert_eq!(
                    got.value().unwrap().to_bits(),
                    want.to_bits(),
                    "dim {dim} round {round}"
                );
            }
        }
    }

    /// Adversarial δ-bound check: cost matrices whose entries are not
    /// representable in `f32` (thirds, sevenths, tenths) and upper
    /// bounds swept through a tight neighborhood of the exact distance —
    /// ulp by ulp across the threshold. The f32 stage may only prune
    /// when the exact f64 distance is *strictly* above the bound; any
    /// under-sized margin δ fails here first, because the f32 solve of
    /// these matrices lands within a few ulps of the widened bound.
    #[test]
    fn f32_margin_never_false_prunes_near_the_threshold() {
        for mm in models() {
            for (cx, cy, seed) in [(5usize, 3usize, 1u64), (8, 8, 2), (2, 7, 3), (1, 1, 4)] {
                // Denominators 3, 7, 10 make every coordinate inexact in
                // binary at both precisions.
                let coords = |card: usize, s: u64| -> Vec<f64> {
                    (0..card * 6)
                        .map(|i| {
                            let t = (i as u64).wrapping_mul(2654435761).wrapping_add(s) % 97;
                            (t as f64 / 3.0 + i as f64 / 7.0) / 10.0
                        })
                        .collect()
                };
                let x = set_from(6, &coords(cx, seed));
                let y = set_from(6, &coords(cy, seed.wrapping_mul(31)));
                let exact = mm.distance_value(&x, &y);
                let mut e = MatchingEngine::new(mm.clone());

                // Sweep the bound across the threshold: wide relative
                // offsets down to single-ulp steps around `exact`.
                let mut uppers: Vec<f64> =
                    (-50i64..=50).map(|j| exact * (1.0 + j as f64 * 1e-8)).collect();
                for ulps in -4i64..=4 {
                    uppers.push(f64::from_bits((exact.to_bits() as i64 + ulps) as u64));
                }
                for upper in uppers {
                    match distance_all_pairings(&mut e, &x, &y, upper) {
                        Exact(d) => {
                            assert_eq!(d.to_bits(), exact.to_bits(), "{mm:?} {cx}x{cy}");
                        }
                        PrunedByF32 => assert!(
                            exact > upper,
                            "{mm:?} {cx}x{cy}: f32 stage FALSELY pruned at upper {upper} \
                             (exact {exact}, diff {:e})",
                            exact - upper
                        ),
                        Pruned => assert!(
                            exact > upper,
                            "{mm:?} {cx}x{cy}: f64 stage falsely pruned at upper {upper}"
                        ),
                    }
                }
            }
        }
    }

    proptest! {
        /// The engine's cost-only path is bit-identical to
        /// `match_sets` across both paper models, including unequal
        /// cardinalities and argument order.
        #[test]
        fn engine_is_bit_identical_to_match_sets(
            xs in proptest::collection::vec(-5.0f64..5.0, 1..=6),
            ys in proptest::collection::vec(-5.0f64..5.0, 1..=4),
            xs2 in proptest::collection::vec(-5.0f64..5.0, 6),
            ys2 in proptest::collection::vec(-5.0f64..5.0, 4),
        ) {
            let x = VectorSet::from_rows(2, &xs.iter().zip(&xs2).map(|(a, b)| [*a, *b]).collect::<Vec<_>>()
                .iter().map(|r| r.as_slice()).collect::<Vec<_>>());
            let y = VectorSet::from_rows(2, &ys.iter().zip(&ys2).map(|(a, b)| [*a, *b]).collect::<Vec<_>>()
                .iter().map(|r| r.as_slice()).collect::<Vec<_>>());
            for mm in models() {
                let naive = mm.match_sets(&x, &y).cost;
                let mut e = MatchingEngine::new(mm.clone());
                let inf = f64::INFINITY;
                prop_assert_eq!(e.distance(&x, &y, inf).value().unwrap().to_bits(), naive.to_bits());
                prop_assert_eq!(e.distance(&y, &x, inf).value().unwrap().to_bits(), naive.to_bits());
                // The prepared forward agrees too.
                let px = e.prepare(x.clone());
                let py = e.prepare(y.clone());
                prop_assert_eq!(e.distance_prepared(&px, &py).to_bits(), naive.to_bits());
            }
        }

        /// `distance` equals the exact distance whenever the result is
        /// ≤ upper, never prunes for upper = ∞, and only prunes when the
        /// exact distance really exceeds the bound — for every operand
        /// pairing, in both argument orders, on the lane path (dim 2)
        /// and above `LANES` dims (where no f32 stage runs).
        #[test]
        fn bounded_distance_contract(
            xs in proptest::collection::vec(0.0f64..5.0, 12 * 5),
            ys in proptest::collection::vec(0.0f64..5.0, 12 * 3),
            frac in 0.0f64..1.5,
        ) {
            for dim in [2usize, 12] {
                let x = set_from(dim, &xs[..dim * 5]);
                let y = set_from(dim, &ys[..dim * 3]);
                for mm in models() {
                    let exact = mm.distance_value(&x, &y);
                    let mut e = MatchingEngine::new(mm.clone());

                    // Never pruned at an infinite bound, bit-identical result.
                    let inf = distance_all_pairings(&mut e, &x, &y, f64::INFINITY);
                    prop_assert_eq!(inf.value().unwrap().to_bits(), exact.to_bits());

                    // A bound at the exact distance must not prune.
                    let at = distance_all_pairings(&mut e, &x, &y, exact);
                    prop_assert_eq!(at.value().unwrap().to_bits(), exact.to_bits());

                    // An arbitrary bound: Exact => bit-identical; pruned =>
                    // the exact distance genuinely exceeds the bound.
                    let upper = exact * frac;
                    for (a, b) in [(&x, &y), (&y, &x)] {
                        match distance_all_pairings(&mut e, a, b, upper) {
                            Exact(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                            PrunedByF32 => prop_assert!(dim <= simd::LANES && exact > upper),
                            Pruned => prop_assert!(exact > upper,
                                "pruned although exact {exact} <= upper {upper}"),
                        }
                    }
                }
            }
        }

        /// The precision ladder at the paper's dim 6: exact results
        /// bit-identical to the pure f64 path, prunes (either stage)
        /// only when the exact distance genuinely exceeds the bound —
        /// the δ-soundness property the multi-step bit-identity rests
        /// on — and the frozen forward is the same call.
        #[test]
        fn prefiltered_distance_contract(
            xs in proptest::collection::vec(-5.0f64..5.0, 6 * 5),
            ys in proptest::collection::vec(-5.0f64..5.0, 6 * 3),
            frac in 0.0f64..1.5,
        ) {
            let x = VectorSet::from_flat(6, xs);
            let y = VectorSet::from_flat(6, ys);
            for mm in models() {
                let exact = mm.distance_value(&x, &y);
                let mut e = MatchingEngine::new(mm.clone());
                let upper = exact * frac;

                let got = distance_all_pairings(&mut e, &x, &y, upper);
                match got {
                    Exact(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                    _ => prop_assert!(exact > upper,
                        "prefiltered prune although exact {exact} <= upper {upper}"),
                }

                // A bound at the exact distance must never prune — in
                // EITHER stage (this is where a wrong δ would fail).
                let at = distance_all_pairings(&mut e, &x, &y, exact);
                prop_assert_eq!(at.value().unwrap().to_bits(), exact.to_bits());

                // The name the query loop calls is the same computation.
                let px = e.prepare(x.clone());
                prop_assert_eq!(e.distance_bounded_prefiltered_half(&px, &y, upper), got);
            }
        }
    }
}
