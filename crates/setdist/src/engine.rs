//! The reusable minimal-matching engine: the `O(k³)` Kuhn–Munkres
//! kernel of Section 4.2 stripped of every per-call allocation, plus a
//! *bounded* variant that aborts as soon as the distance provably
//! exceeds a caller-supplied upper bound, and a **mixed-precision
//! prefilter** that dismisses most over-bound candidates with a cheap
//! `f32` solve before the exact `f64` kernel runs.
//!
//! [`MinimalMatching::match_sets`] is the full-fidelity path: it builds
//! the cost matrix, solves and materializes the matched pairs. The
//! filter/refine query engine and OPTICS need none of that — they call
//! the distance `O(n)`–`O(n²)` times and consume only the scalar.
//! [`MatchingEngine`] serves that hot path:
//!
//! * the [`hungarian::Workspace`] and the scratch cost/lane buffers live
//!   in the engine and are reused across calls, so the steady state
//!   performs **zero heap allocations per distance** (asserted by the
//!   `alloc_free` integration test);
//! * for the paper dims (≤ 8) rows are zero-padded once per call into
//!   `LANES`-strided scratch and every cost entry is one fixed-width
//!   lane kernel ([`crate::simd`]) — bit-identical to the per-pair
//!   [`PointDistance::eval`](crate::matching::PointDistance::eval)
//!   calls `match_sets` makes, because both use the same fixed
//!   reduction tree;
//! * [`MatchingEngine::distance_bounded`] exploits the monotone growth
//!   of the partial-assignment cost under non-negative costs to return
//!   [`BoundedDistance::Pruned`] early, with an O(1) per-row dual-cost
//!   check (DESIGN.md §13);
//! * [`MatchingEngine::distance_bounded_prefiltered`] runs an `f32`
//!   bounded solve first, with the bound widened by a derived margin δ
//!   so a prune is *provable* in `f64` terms (DESIGN.md §13 derives δ);
//!   only candidates the f32 stage cannot dismiss reach the exact
//!   kernel, so final results stay bit-identical to the pure-f64 path;
//! * per-set weights (`w(x) = ‖x‖₂` in the vector set model) are
//!   computed once per call into a scratch table — or once per *object*
//!   via [`PreparedSet`], which also caches the padded `f64`/`f32` lane
//!   rows.
//!
//! Results are bit-identical to [`MinimalMatching::match_sets`]
//! wherever nothing is pruned (property-tested below for both paper
//! models).

// lint-scope: no_alloc

use crate::hungarian::{self, Workspace};
use crate::matching::MinimalMatching;
use crate::simd;
use crate::types::VectorSet;

/// Outcome of a bounded distance computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedDistance {
    /// The exact distance (bit-identical to the unbounded kernel). Also
    /// returned when the exact value exceeds the bound but the solver
    /// happened to finish before the partial cost crossed it.
    Exact(f64),
    /// The distance provably exceeds the supplied upper bound; the
    /// remaining row insertions were skipped.
    Pruned,
}

impl BoundedDistance {
    /// The exact value, if the computation was not pruned.
    pub fn value(self) -> Option<f64> {
        match self {
            BoundedDistance::Exact(d) => Some(d),
            BoundedDistance::Pruned => None,
        }
    }

    pub fn is_pruned(self) -> bool {
        matches!(self, BoundedDistance::Pruned)
    }
}

/// Outcome of a mixed-precision bounded distance computation: like
/// [`BoundedDistance`], but a prune records *which* stage proved the
/// bound violation, so callers can count how much exact work the
/// filter-precision stage saved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefilteredDistance {
    /// The exact distance — bit-identical to [`MatchingEngine::distance`]
    /// (the f32 stage never alters the value, only skips work).
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
    // lint-allow: no-alloc-kernel one-time preparation, amortized over O(n) distance calls
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

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Recover the underlying set.
    pub fn into_set(self) -> VectorSet {
        self.set
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
    /// Scratch weight table for the larger set when no [`PreparedSet`]
    /// is supplied.
    wbig: Vec<f64>,
    /// `f32` scratch weight table.
    wbig32: Vec<f32>,
    /// Padded lane rows for the smaller set (the larger set's rows are
    /// padded on demand inside the lazy cost fill).
    psmall: Vec<f64>,
    pbig32: Vec<f32>,
    psmall32: Vec<f32>,
    /// Workspace of the preserved pre-SIMD kernel (baseline path).
    rws: hungarian::reference::RefWorkspace,
}

impl MatchingEngine {
    // lint-allow: no-alloc-kernel one-time constructor, not on the per-distance path
    pub fn new(mm: MinimalMatching) -> Self {
        MatchingEngine {
            mm,
            ws: Workspace::default(),
            cost: Vec::new(),
            cost32: Vec::new(),
            wbig: Vec::new(),
            wbig32: Vec::new(),
            psmall: Vec::new(),
            pbig32: Vec::new(),
            psmall32: Vec::new(),
            rws: hungarian::reference::RefWorkspace::default(),
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

    /// Cost-only minimal matching distance; bit-identical to
    /// `self.model().distance_value(x, y)` with zero steady-state
    /// allocations.
    pub fn distance(&mut self, x: &VectorSet, y: &VectorSet) -> f64 {
        self.solve(x, None, y, None, f64::INFINITY, false)
            .value()
            .expect("unbounded solve cannot prune")
    }

    /// Bounded distance: returns [`BoundedDistance::Pruned`] as soon as
    /// the running partial-matching cost proves the result exceeds
    /// `upper`. Whenever the exact distance is ≤ `upper` the result is
    /// `Exact` and bit-identical to [`MatchingEngine::distance`]; with
    /// `upper = ∞` it never prunes (and skips the bound bookkeeping
    /// entirely, so the unbounded fast path pays nothing).
    pub fn distance_bounded(
        &mut self,
        x: &VectorSet,
        y: &VectorSet,
        upper: f64,
    ) -> BoundedDistance {
        match self.solve(x, None, y, None, self.internal_upper(upper), false) {
            PrefilteredDistance::Exact(d) => BoundedDistance::Exact(d),
            _ => BoundedDistance::Pruned,
        }
    }

    /// [`MatchingEngine::distance_bounded`] with an `f32` filter stage
    /// in front of the exact kernel: the f32 bounded solve runs with
    /// the bound widened by a derived margin δ, so its prunes are
    /// provable in `f64` terms and the exact kernel is skipped for most
    /// over-bound candidates — the same filter/refine discipline the
    /// paper applies at query level, folded into the kernel. Exact
    /// results are bit-identical to [`MatchingEngine::distance`].
    pub fn distance_bounded_prefiltered(
        &mut self,
        x: &VectorSet,
        y: &VectorSet,
        upper: f64,
    ) -> PrefilteredDistance {
        self.solve(x, None, y, None, self.internal_upper(upper), true)
    }

    /// [`MatchingEngine::distance`] with precomputed weight tables.
    pub fn distance_prepared(&mut self, x: &PreparedSet, y: &PreparedSet) -> f64 {
        self.solve(&x.set, Some(x), &y.set, Some(y), f64::INFINITY, false)
            .value()
            .expect("unbounded solve cannot prune")
    }

    /// [`MatchingEngine::distance_bounded_prefiltered`] with the weight
    /// table of *one* side precomputed — the kernel the multi-step
    /// refinement loop calls: the query set is prepared once per query,
    /// while each candidate streams in from storage exactly once and is
    /// never worth preparing.
    pub fn distance_bounded_prefiltered_half(
        &mut self,
        x: &PreparedSet,
        y: &VectorSet,
        upper: f64,
    ) -> PrefilteredDistance {
        self.solve(&x.set, Some(x), y, None, self.internal_upper(upper), true)
    }

    /// Filter-precision bounded distance: the `f32` lane kernel alone.
    /// `None` only when the **exact** distance provably exceeds `upper`
    /// (the internal bound is widened by the δ margin of DESIGN.md §13,
    /// so an f32 prune is always sound); `Some(d)` is the f32-precision
    /// approximation of the distance, within δ of the exact value. Falls
    /// back to the exact kernel for `dim > 8` (no lane layout there).
    pub fn distance_bounded_f32(
        &mut self,
        x: &VectorSet,
        y: &VectorSet,
        upper: f64,
    ) -> Option<f64> {
        assert_eq!(x.dim(), y.dim(), "vector sets of different dimension");
        let (big, small) = if x.len() >= y.len() { (x, y) } else { (y, x) };
        let m = big.len();
        let upper_raw = self.internal_upper(upper);
        if m == 0 {
            return if 0.0 > upper_raw { None } else { Some(self.mm.finish(0.0)) };
        }
        if big.dim() > simd::LANES {
            return match self.distance_bounded(x, y, upper) {
                BoundedDistance::Exact(d) => Some(d),
                BoundedDistance::Pruned => None,
            };
        }
        self.f32_stage(big, None, small, None, upper_raw)
            .map(|total32| self.mm.finish(total32 as f64))
    }

    /// The pre-SIMD scalar engine path, preserved verbatim (sequential
    /// `lp` sums + branchy scalar kernel with the old O(m)-per-row bound
    /// check). `exp_bench_matching` measures its `ns_engine` baseline
    /// here so the reported SIMD speedup is a within-run comparison on
    /// the same machine. Values may differ from [`MatchingEngine::distance`]
    /// in the last bits (different summation order) — never use both
    /// paths for one query's candidates.
    pub fn distance_reference(&mut self, x: &VectorSet, y: &VectorSet) -> f64 {
        self.solve_reference(x, y, f64::INFINITY).expect("unbounded solve cannot prune")
    }

    /// Bounded twin of [`MatchingEngine::distance_reference`] — the old
    /// bounded path whose O(m) per-row check caused the k=9 regression.
    pub fn distance_bounded_reference(
        &mut self,
        x: &VectorSet,
        y: &VectorSet,
        upper: f64,
    ) -> Option<f64> {
        self.solve_reference(x, y, self.internal_upper(upper))
    }

    /// Translate a bound on the *finished* distance into a bound on the
    /// raw matched sum (the permutation model takes a square root at the
    /// end, Section 4.2).
    fn internal_upper(&self, upper: f64) -> f64 {
        if self.mm.sqrt_of_total && upper.is_finite() {
            // The matched sum is non-negative, so a negative bound prunes
            // everything either way; clamp to keep the square monotone.
            let u = upper.max(0.0);
            u * u
        } else {
            upper
        }
    }

    /// Orient, fill the scratch cost matrix and run the bounded
    /// cost-only Hungarian kernel, optionally behind the f32 filter
    /// stage. `upper` is already on the raw matched-sum scale.
    fn solve(
        &mut self,
        x: &VectorSet,
        px: Option<&PreparedSet>,
        y: &VectorSet,
        py: Option<&PreparedSet>,
        upper: f64,
        prefilter: bool,
    ) -> PrefilteredDistance {
        assert_eq!(x.dim(), y.dim(), "vector sets of different dimension");
        // Orient so that `big` pays the weight penalty for its surplus
        // elements (Definition 6, w.l.o.g. |X| >= |Y|) — the same
        // orientation as `match_sets`, for bit-identical results.
        let (big, pbig_prep, small, psmall_prep) =
            if x.len() >= y.len() { (x, px, y, py) } else { (y, py, x, px) };
        let m = big.len();
        let n = small.len();

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
        if prefilter
            && lanes
            && upper.is_finite()
            && self.f32_stage(big, pbig_prep, small, psmall_prep, upper).is_none()
        {
            return PrefilteredDistance::PrunedByF32;
        }

        // Stage 2: exact f64 kernel.
        let MatchingEngine { mm, ws, cost, wbig, psmall, .. } = self;

        // Square m × m cost matrix, identical layout to `match_sets`:
        // first n columns are point distances, the rest weight slots.
        // Grow-only: every slot is written by the fill below, so no
        // zeroing pass is needed.
        if cost.len() < m * m {
            cost.resize(m * m, 0.0);
        }
        cost.truncate(m * m);
        if lanes {
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
            if let Some(p) = pbig_prep {
                debug_assert_eq!(p.weights.len(), m, "prepared weights out of sync with set");
            }
            // Rows are materialized lazily, right before the solver
            // inserts them: a solve the dual bound aborts after `r` rows
            // never computes the remaining `m - r` cost rows or their
            // weights. Each row is the same fixed-width lane kernels as
            // the eager fill (`eval_row` skips only `eval`'s per-point
            // pad), so the entries — and the non-pruned result — stay
            // bit-identical to `match_sets`.
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
            return match hungarian::solve_cost_slice_bounded_lazy(m, m, cost, ws, upper, fill) {
                Some(total) => PrefilteredDistance::Exact(mm.finish(total)),
                None => PrefilteredDistance::Pruned,
            };
        }

        let weights: &[f64] = match pbig_prep {
            Some(p) => {
                debug_assert_eq!(p.weights.len(), m, "prepared weights out of sync with set");
                &p.weights
            }
            None => {
                wbig.clear();
                wbig.extend(big.iter().map(|v| mm.weight.eval(v)));
                wbig
            }
        };
        for i in 0..m {
            let bi = big.get(i);
            let row = &mut cost[i * m..(i + 1) * m];
            for (j, slot) in row.iter_mut().take(n).enumerate() {
                *slot = mm.point_distance.eval(bi, small.get(j));
            }
            let w = weights[i];
            for slot in row.iter_mut().skip(n) {
                *slot = w;
            }
        }

        match hungarian::solve_cost_slice_bounded(m, m, cost, ws, upper) {
            Some(total) => PrefilteredDistance::Exact(mm.finish(total)),
            None => PrefilteredDistance::Pruned,
        }
    }

    /// The f32 filter stage: fill the f32 cost matrix from padded lane
    /// rows, widen the bound by the δ margin and run the f32 bounded
    /// core. `None` = the **f64** distance provably exceeds `upper`
    /// (DESIGN.md §13); `Some(total32)` = the f32 raw matched sum.
    /// Requires `m > 0` and `dim ≤ LANES`.
    fn f32_stage(
        &mut self,
        big: &VectorSet,
        pbig_prep: Option<&PreparedSet>,
        small: &VectorSet,
        psmall_prep: Option<&PreparedSet>,
        upper: f64,
    ) -> Option<f32> {
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

    /// The preserved pre-SIMD path: sequential scalar cost fill plus the
    /// original branchy kernel (including its O(m)-per-row bound check).
    fn solve_reference(&mut self, x: &VectorSet, y: &VectorSet, upper: f64) -> Option<f64> {
        assert_eq!(x.dim(), y.dim(), "vector sets of different dimension");
        let (big, small) = if x.len() >= y.len() { (x, y) } else { (y, x) };
        let m = big.len();
        let n = small.len();

        if m == 0 {
            let total = 0.0;
            return if total > upper { None } else { Some(self.mm.finish(total)) };
        }

        let MatchingEngine { mm, rws, cost, wbig, .. } = self;

        wbig.clear();
        wbig.extend(big.iter().map(|v| mm.weight.eval_scalar(v)));

        cost.clear();
        cost.resize(m * m, 0.0);
        for i in 0..m {
            let bi = big.get(i);
            let row = &mut cost[i * m..(i + 1) * m];
            for (j, slot) in row.iter_mut().take(n).enumerate() {
                *slot = mm.point_distance.eval_scalar(bi, small.get(j));
            }
            let w = wbig[i];
            for slot in row.iter_mut().skip(n) {
                *slot = w;
            }
        }

        hungarian::reference::solve_cost_slice_bounded(m, m, cost, rws, upper)
            .map(|total| mm.finish(total))
    }
}

impl From<MinimalMatching> for MatchingEngine {
    fn from(mm: MinimalMatching) -> Self {
        MatchingEngine::new(mm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn models() -> [MinimalMatching; 2] {
        [MinimalMatching::vector_set_model(), MinimalMatching::permutation_model()]
    }

    fn set_from(dim: usize, vals: &[f64]) -> VectorSet {
        VectorSet::from_flat(dim, vals.to_vec())
    }

    #[test]
    fn empty_sets_and_bounds() {
        let mut e = MatchingEngine::new(MinimalMatching::vector_set_model());
        let empty = VectorSet::new(2);
        let x = set_from(2, &[3.0, 4.0]);
        assert_eq!(e.distance(&empty, &empty), 0.0);
        assert_eq!(e.distance(&x, &empty), 5.0);
        assert_eq!(e.distance_bounded(&x, &empty, 1.0), BoundedDistance::Pruned);
        assert_eq!(e.distance_bounded(&x, &empty, 5.0), BoundedDistance::Exact(5.0));
        assert_eq!(e.distance_bounded(&empty, &empty, f64::INFINITY).value(), Some(0.0));
        assert_eq!(e.distance_bounded_f32(&empty, &empty, f64::INFINITY), Some(0.0));
    }

    #[test]
    fn engine_reuse_across_sizes_is_sound() {
        // Grow, shrink, grow again: stale scratch must never leak.
        let mut e = MatchingEngine::new(MinimalMatching::vector_set_model());
        let mm = MinimalMatching::vector_set_model();
        let sizes = [(4usize, 2usize), (1, 1), (3, 5), (2, 2), (6, 1)];
        for (round, &(a, b)) in sizes.iter().enumerate() {
            let x = set_from(2, &(0..2 * a).map(|i| 0.1 + (i + round) as f64).collect::<Vec<_>>());
            let y =
                set_from(2, &(0..2 * b).map(|i| 0.7 + (i * 2 + round) as f64).collect::<Vec<_>>());
            let want = mm.distance_value(&x, &y);
            assert_eq!(e.distance(&x, &y).to_bits(), want.to_bits(), "round {round}");
        }
    }

    #[test]
    fn reference_path_agrees_with_lane_path_numerically() {
        let mut e = MatchingEngine::new(MinimalMatching::vector_set_model());
        let x = set_from(3, &[0.4, 1.2, -0.7, 2.0, 0.9, 1.1, -0.3, 0.0, 2.2]);
        let y = set_from(3, &[1.0, 0.2, 0.3, -1.5, 0.8, 0.25]);
        let lane = e.distance(&x, &y);
        let scalar = e.distance_reference(&x, &y);
        assert!((lane - scalar).abs() < 1e-12, "{lane} vs {scalar}");
        // The old bounded path honors its contract too.
        assert_eq!(e.distance_bounded_reference(&x, &y, f64::INFINITY), Some(scalar));
        assert_eq!(e.distance_bounded_reference(&x, &y, scalar * 0.5), None);
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
                    match e.distance_bounded_prefiltered(&x, &y, upper) {
                        PrefilteredDistance::Exact(d) => {
                            assert_eq!(d.to_bits(), exact.to_bits(), "{mm:?} {cx}x{cy}");
                        }
                        PrefilteredDistance::PrunedByF32 => assert!(
                            exact > upper,
                            "{mm:?} {cx}x{cy}: f32 stage FALSELY pruned at upper {upper} \
                             (exact {exact}, diff {:e})",
                            exact - upper
                        ),
                        PrefilteredDistance::Pruned => assert!(
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
                prop_assert_eq!(e.distance(&x, &y).to_bits(), naive.to_bits());
                prop_assert_eq!(e.distance(&y, &x).to_bits(), naive.to_bits());
                // Prepared path agrees too.
                let px = e.prepare(x.clone());
                let py = e.prepare(y.clone());
                prop_assert_eq!(e.distance_prepared(&px, &py).to_bits(), naive.to_bits());
            }
        }

        /// `distance_bounded` equals the exact distance whenever the
        /// result is ≤ upper, never prunes for upper = ∞, and only
        /// prunes when the exact distance really exceeds the bound.
        #[test]
        fn bounded_distance_contract(
            xs in proptest::collection::vec(0.0f64..5.0, 2 * 5),
            ys in proptest::collection::vec(0.0f64..5.0, 2 * 3),
            frac in 0.0f64..1.5,
        ) {
            let x = VectorSet::from_flat(2, xs);
            let y = VectorSet::from_flat(2, ys);
            for mm in models() {
                let exact = mm.distance_value(&x, &y);
                let mut e = MatchingEngine::new(mm.clone());

                // Never pruned at an infinite bound, bit-identical result.
                let inf = e.distance_bounded(&x, &y, f64::INFINITY);
                prop_assert_eq!(inf.value().unwrap().to_bits(), exact.to_bits());

                // A bound at the exact distance must not prune.
                let at = e.distance_bounded(&x, &y, exact);
                prop_assert_eq!(at.value().unwrap().to_bits(), exact.to_bits());

                // An arbitrary bound: Exact => bit-identical; Pruned =>
                // the exact distance genuinely exceeds the bound.
                let upper = exact * frac;
                match e.distance_bounded(&x, &y, upper) {
                    BoundedDistance::Exact(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                    BoundedDistance::Pruned => prop_assert!(exact > upper,
                        "pruned although exact {exact} <= upper {upper}"),
                }

                // Prepared weight tables change nothing.
                let px = e.prepare(x.clone());
                let py = e.prepare(y.clone());
                prop_assert_eq!(e.distance_prepared(&px, &py).to_bits(), exact.to_bits());

                // Half-prepared variant (query prepared, candidate raw)
                // honors the same contract in both argument orders.
                for (p, raw) in [(&px, &y), (&py, &x)] {
                    match e.distance_bounded_prefiltered_half(p, raw, upper) {
                        PrefilteredDistance::Exact(d) => {
                            prop_assert_eq!(d.to_bits(), exact.to_bits())
                        }
                        _ => prop_assert!(exact > upper),
                    }
                }
            }
        }

        /// The prefiltered kernel: exact results bit-identical to the
        /// pure f64 path, prunes (either stage) only when the exact
        /// distance genuinely exceeds the bound — the δ-soundness
        /// property the multi-step bit-identity rests on.
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

                match e.distance_bounded_prefiltered(&x, &y, upper) {
                    PrefilteredDistance::Exact(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                    _ => prop_assert!(exact > upper,
                        "prefiltered prune although exact {exact} <= upper {upper}"),
                }

                // A bound at the exact distance must never prune — in
                // EITHER stage (this is where a wrong δ would fail).
                let at = e.distance_bounded_prefiltered(&x, &y, exact);
                prop_assert_eq!(at.value().unwrap().to_bits(), exact.to_bits());

                // Half-prepared variant, as used by the query loop.
                let px = e.prepare(x.clone());
                match e.distance_bounded_prefiltered_half(&px, &y, upper) {
                    PrefilteredDistance::Exact(d) => prop_assert_eq!(d.to_bits(), exact.to_bits()),
                    _ => prop_assert!(exact > upper),
                }
                let at_half = e.distance_bounded_prefiltered_half(&px, &y, exact);
                prop_assert_eq!(at_half.value().unwrap().to_bits(), exact.to_bits());

                // The f32 approximation itself stays δ-close.
                if let Some(approx) = e.distance_bounded_f32(&x, &y, f64::INFINITY) {
                    let scale = 1.0 + exact.abs();
                    prop_assert!((approx - exact).abs() <= 1e-3 * 30.0 * scale,
                        "f32 approx {approx} strayed from exact {exact}");
                }
            }
        }
    }
}
