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
//! * `upper` bounds the distance: the result is `Exact(d)` iff
//!   `d ≤ upper`, and `upper = ∞` never prunes;
//! * the **precision ladder** is internal policy: when the bound is
//!   finite and the dims fit the lane layout (≤ 8, both paper models),
//!   an `f32` gate runs first. It solves nothing: each element of the
//!   larger set is matched or pays its weight, so the distance is at
//!   least the sum of each such element's least `f32` entry. The gate
//!   adds those row minima one row at a time and stops at the first
//!   partial sum above the bound widened by a derived margin δ
//!   (DESIGN.md §13), so its prunes are *provable* in `f64` terms; it
//!   only filters, so results never depend on it;
//! * the exact stage solves the **n × m** problem — row j is element j
//!   of the smaller set, column i element i of the larger, the entry
//!   `d(big_i, small_j) − w(big_i)` when n < m — in full, then re-sums
//!   the value from the matching in big-element order (`d` matched, `w`
//!   unmatched) and compares it with `upper` on the caller's scale;
//!   `match_sets` builds the same slice, so every exact value comes from
//!   one layout;
//! * the [`hungarian::Workspace`] and the scratch cost/lane buffers live
//!   in the engine and are reused across calls, so the steady state
//!   performs **zero heap allocations per distance** (asserted by the
//!   `alloc_free` integration test for every operand pairing);
//! * for lane dims every entry is one fixed-width lane kernel
//!   ([`crate::simd`]) — bit-identical to the per-pair point distances
//!   `match_sets` evaluates, because both use the same fixed reduction
//!   tree.
//!
//! Every `Exact` value is bit-identical to [`MinimalMatching::match_sets`]
//! (property-tested below for both paper models, on tie-heavy inputs).

use crate::hungarian::{self, Workspace};
use crate::matching::MinimalMatching;
use crate::simd;
use crate::types::VectorSet;

/// Outcome of [`MatchingEngine::distance`]: the exact value, or which
/// stage of the precision ladder proved the bound violation — so
/// callers can count how much exact work the f32 gate saved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefilteredDistance {
    /// The exact distance, which is ≤ the bound — bit-identical to the
    /// unbounded result (the bound and the f32 gate never alter the
    /// value, only skip work).
    Exact(f64),
    /// The f32 gate proved the distance exceeds the bound (its sum of
    /// row minima did, by more than the δ margin); the exact kernel
    /// never ran.
    PrunedByF32,
    /// The exact f64 distance exceeds the bound (the f32 gate could not
    /// decide).
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
}

/// A vector set with its per-element weights `w(xᵢ)` — and, for lane
/// dims (≤ 8), its padded `f64`/`f32` lane rows and largest `f32` norm —
/// precomputed for one [`MinimalMatching`] model. In OPTICS every
/// object participates in `O(n)` distance evaluations; preparing once
/// turns every weight into a table lookup and skips the per-call row
/// padding.
#[derive(Debug, Clone)]
pub struct PreparedSet {
    set: VectorSet,
    weights: Vec<f64>,
    /// `LANES`-strided padded rows; empty when `dim > LANES`.
    pad: Vec<f64>,
    /// `f32` twin of `pad` for the f32 gate.
    pad32: Vec<f32>,
    /// The largest `f32` element norm (0 without lane rows): this set's
    /// share of the gate's input scale.
    norm32: f32,
}

impl PreparedSet {
    /// Precompute the weights (and lane rows) of `set` under `mm`'s
    /// weight function.
    pub fn new(set: VectorSet, mm: &MinimalMatching) -> Self {
        let weights: Vec<f64> = set.iter().map(|v| mm.weight(v)).collect();
        let mut pad = Vec::new();
        let mut pad32 = Vec::new();
        if set.dim() <= simd::LANES {
            simd::pad_rows(set.dim(), set.flat(), &mut pad);
            simd::pad_rows_f32(set.dim(), set.flat(), &mut pad32);
        }
        let norm32 = max_norm_f32(&pad32);
        PreparedSet { set, weights, pad, pad32, norm32 }
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

    /// The `LANES`-strided padded rows (`dim ≤ LANES`): the prepared
    /// ones, or a raw set's padded into `scratch`.
    fn padded<'s>(self, scratch: &'s mut Vec<f64>) -> &'s [f64]
    where
        'a: 's,
    {
        match self {
            Operand::Prepared(p) => &p.pad,
            Operand::Raw(set) => {
                simd::pad_rows(set.dim(), set.flat(), scratch);
                scratch
            }
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
    /// Scratch `n × m` cost slice of the exact stage, row-major.
    cost: Vec<f64>,
    /// Scratch matching of the exact stage, one entry per big element.
    col_to_row: Vec<Option<usize>>,
    /// Padded lane rows of either set and weights of the larger set,
    /// for an operand that is not a [`PreparedSet`].
    pbig: Vec<f64>,
    psmall: Vec<f64>,
    wbig: Vec<f64>,
    /// `f32` padded lane rows of the smaller set for the f32 gate, when
    /// it is not a [`PreparedSet`].
    psmall32: Vec<f32>,
}

impl MatchingEngine {
    pub fn new(mm: MinimalMatching) -> Self {
        MatchingEngine {
            mm,
            ws: Workspace::default(),
            cost: Vec::new(),
            col_to_row: Vec::new(),
            pbig: Vec::new(),
            psmall: Vec::new(),
            wbig: Vec::new(),
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

    /// The minimal matching distance of `x` and `y`, unless it exceeds
    /// `upper`. Whenever the exact distance is ≤ `upper` the result is
    /// `Exact` and bit-identical to `self.model().distance_value(x, y)`;
    /// otherwise it is pruned; `upper = ∞` never prunes.
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
    /// compiled once): orient, run the f32 gate when it can decide
    /// anything, then solve the exact n × m problem in full and
    /// compare the finished distance with `upper`.
    fn solve(&mut self, x: Operand<'_>, y: Operand<'_>, upper: f64) -> PrefilteredDistance {
        assert_eq!(x.set().dim(), y.set().dim(), "vector sets of different dimension");
        // Orient so that `big` pays the weight penalty for its surplus
        // elements (Definition 6, w.l.o.g. |X| >= |Y|) — the same
        // orientation as `match_sets`, for bit-identical results.
        let (big_op, small_op) = if x.set().len() >= y.set().len() { (x, y) } else { (y, x) };
        let (big, pbig_prep) = (big_op.set(), big_op.prepared());
        let small = small_op.set();
        let m = big.len();
        let n = small.len();
        let dim = big.dim();
        let lanes = dim <= simd::LANES;

        // Stage 1: the f32 gate. Only worth running when a finite bound
        // exists (with `upper = ∞` nothing can prune) and the dims fit
        // the lane layout. It bounds the raw matched sum, so the
        // permutation model's bound is squared (Section 4.2); the sum is
        // non-negative, so a negative bound clamps to 0.
        if lanes && m > 0 && upper.is_finite() {
            let raw_upper = if self.mm.squared() {
                let u = upper.max(0.0);
                u * u
            } else {
                upper
            };
            if self.f32_prunes(big_op, small_op, raw_upper) {
                return PrefilteredDistance::PrunedByF32;
            }
        }

        // Stage 2: the exact f64 solve of the n × m problem, the layout
        // of `match_sets`: row j is small element j, column i is big
        // element i, and with n < m the entry is `d − w(big_i)` (a
        // matched element does not pay its weight). The entries can be
        // negative, so no partial-cost bound holds: the solve always
        // finishes.
        let MatchingEngine { mm, ws, cost, pbig, psmall, wbig, col_to_row, .. } = self;
        if let Some(p) = pbig_prep {
            debug_assert_eq!(p.weights.len(), m, "prepared weights out of sync with set");
        }
        // Both sides' rows are padded once, unless prepared: every big
        // row is read by all n small rows, every small row by the fill
        // and the re-sum.
        let (bigp, smallp): (&[f64], &[f64]) =
            if lanes { (big_op.padded(pbig), small_op.padded(psmall)) } else { (&[], &[]) };
        // Weights only exist for n < m: equal-size sets skip them (and
        // their square roots) entirely.
        let weights: &[f64] = match pbig_prep {
            _ if n == m => &[],
            Some(p) => &p.weights,
            None => {
                wbig.clear();
                if lanes {
                    wbig.extend((0..m).map(|i| mm.weight_row(simd::row(bigp, i))));
                } else {
                    wbig.extend(big.iter().map(|bi| mm.weight(bi)));
                }
                wbig
            }
        };
        // Every entry is the same kernel `match_sets` evaluates: the
        // fixed-width lane kernels for lane dims (`eval` only adds a
        // per-point pad), the sequential `lp` sums above `LANES`.
        let dist = |i: usize, j: usize| {
            if lanes {
                mm.point_distance_lanes(simd::row(bigp, i), simd::row(smallp, j))
            } else {
                mm.point_distance(big.get(i), small.get(j))
            }
        };
        cost.clear();
        for j in 0..n {
            cost.extend((0..m).map(|i| dist(i, j)));
            if n < m {
                for (c, &w) in cost[j * m..].iter_mut().zip(weights) {
                    *c -= w;
                }
            }
        }
        hungarian::solve_slice_into(n, m, cost, ws, col_to_row);

        // Re-sum in big-element order, exactly as `match_sets` does: `d`
        // for a matched element, `w` for an unmatched one.
        let mut total = 0.0;
        for (i, &j) in col_to_row.iter().enumerate() {
            total += match j {
                Some(j) if n == m => cost[j * m + i],
                Some(j) => dist(i, j),
                None => weights[i],
            };
        }
        // Compared on the caller's scale: the permutation model's root
        // is taken first.
        let d = mm.finish(total);
        if d > upper {
            PrefilteredDistance::Pruned
        } else {
            PrefilteredDistance::Exact(d)
        }
    }

    /// The f32 gate (DESIGN.md §13): `true` iff the **f64** distance
    /// provably exceeds `upper`. Every element of the larger set is
    /// either matched, paying its distance to one element of the smaller
    /// set, or unmatched, paying its weight; so the raw matched sum is at
    /// least the sum, over the larger set, of each element's least
    /// `f32` entry (its weight is a candidate only when n < m). The rows
    /// are added one by one, and the gate stops at the first partial sum
    /// above `upper` widened by the δ margin of the rows seen so far.
    /// No matrix is stored and nothing is solved. Requires `m > 0`,
    /// `dim ≤ LANES` and `big`/`small` oriented as in
    /// [`MatchingEngine::solve`]; `upper` is on the raw matched-sum scale.
    fn f32_prunes(&mut self, big: Operand<'_>, small: Operand<'_>, upper: f64) -> bool {
        let MatchingEngine { mm, psmall32, .. } = self;
        let m = big.set().len();
        let n = small.set().len();
        // Every small row is read by every big row: pad them once,
        // unless prepared.
        let (smallp, small_norm): (&[f32], f32) = match small {
            Operand::Prepared(p) => (&p.pad32, p.norm32),
            Operand::Raw(set) => {
                simd::pad_rows_f32(set.dim(), set.flat(), psmall32);
                (psmall32, max_norm_f32(psmall32))
            }
        };
        // δ margin (DESIGN.md §13). An f32 entry is off by less than 4ε
        // of its input scale — the sum of the two points' norms, on the
        // entry's own scale — and a weight by ε/2 of itself; the running
        // sum of i rows adds i·ε/2 of itself, the bound's conversion ε/2.
        // With M the largest of those scales over the rows seen so far,
        // the margin is twice that. Widening the bound only ever makes
        // the gate prune *less*; false prunes are what δ rules out.
        let squared = mm.squared();
        let input_scale = |norms: f32| {
            // Below this, squares round in f32's subnormal range, by an
            // absolute 2⁻¹⁵⁰ rather than relative to themselves.
            let norms = norms.max(1e-15);
            if squared {
                norms * norms
            } else {
                norms
            }
        };
        let upper32 = upper as f32;
        let bound = upper32 + (m + 2) as f32 * f32::EPSILON * upper32.abs();
        let per_scale = 8.0 * m as f32 * f32::EPSILON;
        let mut max_scale = 0.0f32;
        let mut sum = 0.0f32;
        for i in 0..m {
            // Big rows are read once each: a raw one is padded, and its
            // weight evaluated, only when the gate reaches it.
            let (bi, big_norm) = match big {
                Operand::Prepared(p) => (*simd::row_f32(&p.pad32, i), p.norm32),
                Operand::Raw(set) => {
                    let bi = simd::pad_f32(set.get(i));
                    (bi, simd::norm_f32(&bi))
                }
            };
            // The least distance to the smaller set. A Euclidean entry is
            // compared squared and rooted once: `sqrt` is monotone and
            // correctly rounded, so the least is the same value.
            let least_sq = least_f32(&bi, smallp);
            let nearest = if squared { least_sq } else { least_sq.sqrt() };
            // With n < m the element may stay unmatched and pay its weight.
            let weight = match big {
                _ if n == m => f32::INFINITY,
                Operand::Prepared(p) => p.weights[i] as f32,
                Operand::Raw(set) => mm.weight(set.get(i)) as f32,
            };
            let least = if weight < nearest || weight.is_nan() { weight } else { nearest };
            sum += least;
            max_scale = max_scale.max(least).max(input_scale(big_norm + small_norm));
            // Non-negative entries: the partial sums only grow, so one
            // above the widened bound proves the whole sum is. A NaN sum
            // prunes too, unless it came from inputs beyond f32's range
            // (an infinite scale), where the gate decides nothing.
            if sum > bound + per_scale * max_scale || sum.is_nan() && max_scale.is_finite() {
                return true;
            }
        }
        false
    }
}

/// The least squared distance from `b` to the rows of a `LANES`-strided
/// `f32` buffer (∞ when it is empty). Not `f32::min`, which skips a NaN:
/// a NaN entry must reach the gate's sum, and a NaN sum prunes.
fn least_f32(b: &[f32; simd::LANES], padded: &[f32]) -> f32 {
    let mut least = f32::INFINITY;
    for r in 0..padded.len() / simd::LANES {
        let d = simd::sq_l2_f32(b, simd::row_f32(padded, r));
        if d < least || d.is_nan() {
            least = d;
        }
    }
    least
}

/// The largest Euclidean norm of a `LANES`-strided `f32` row buffer (0
/// when it is empty).
fn max_norm_f32(padded: &[f32]) -> f32 {
    (0..padded.len() / simd::LANES)
        .map(|r| simd::sq_norm_f32(simd::row_f32(padded, r)))
        .fold(0.0, f32::max)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::brute_force_matching_distance;
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
        assert_eq!(distance_all_pairings(&mut e, &x, &empty, 1.0).value(), None);
        assert_eq!(distance_all_pairings(&mut e, &empty, &empty, -1.0), Pruned);
    }

    #[test]
    fn engine_reuse_across_sizes_is_sound() {
        // Grow, shrink, grow again: stale scratch must never leak — on
        // the lane path (dim 2) and the `lp` path above `LANES` dims.
        let mm = MinimalMatching::vector_set_model();
        for dim in [2usize, simd::LANES + 3] {
            let mut e = MatchingEngine::new(mm);
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

    /// Sweep `upper` across the exact distance of `x` and `y` — wide
    /// relative offsets down to single ulps — through every operand
    /// pairing: `Exact` must carry the exact bits, and either stage may
    /// prune only when the exact distance is *strictly* above the bound.
    fn assert_sound_across_exact(mm: &MinimalMatching, x: &VectorSet, y: &VectorSet, case: &str) {
        let exact = mm.distance_value(x, y);
        let mut e = MatchingEngine::new(*mm);
        let mut uppers: Vec<f64> = (-50i64..=50).map(|j| exact * (1.0 + j as f64 * 1e-8)).collect();
        for ulps in -4i64..=4 {
            uppers.push(f64::from_bits((exact.to_bits() as i64 + ulps) as u64));
        }
        for upper in uppers {
            match distance_all_pairings(&mut e, x, y, upper) {
                Exact(d) => assert_eq!(d.to_bits(), exact.to_bits(), "{mm:?} {case}"),
                PrunedByF32 => assert!(
                    exact > upper,
                    "{mm:?} {case}: f32 gate FALSELY pruned at upper {upper} \
                     (exact {exact}, diff {:e})",
                    exact - upper
                ),
                Pruned => assert!(
                    exact > upper,
                    "{mm:?} {case}: f64 stage falsely pruned at upper {upper}"
                ),
            }
        }
    }

    /// Coordinates that are inexact in binary at both precisions
    /// (denominators 3, 7 and 10), in `[0, 3.4)`.
    fn inexact_coords(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let t = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97;
                (t as f64 / 3.0 + i as f64 / 7.0) / 10.0
            })
            .collect()
    }

    /// Adversarial δ-bound check on f32-hostile inputs, with `upper`
    /// swept ulp by ulp across the exact distance; any under-sized
    /// margin fails here first. The offset cases put n = m sets far
    /// from the origin, each element of `y` within 1e-3 of one of `x`:
    /// there an f32 entry's error follows the coordinates' magnitude,
    /// not the entry's, which a margin scaled by the entries alone
    /// misses. At the ends of f32's range the gate must defer to the f64
    /// stage: squares below f32's normal range round by an absolute
    /// 2⁻¹⁵⁰ (a point 3e-23 from the origin is 3.7e-23 from it in f32),
    /// and coordinates beyond `f32::MAX` turn into `∞ − ∞ = NaN` in f32,
    /// which must not prune a pair whose distance is 0.
    #[test]
    fn f32_margin_never_false_prunes_near_the_threshold() {
        for mm in models() {
            for (cx, cy, seed) in [(5usize, 3usize, 1u64), (8, 8, 2), (2, 7, 3), (1, 1, 4)] {
                let x = set_from(6, &inexact_coords(cx * 6, seed));
                let y = set_from(6, &inexact_coords(cy * 6, seed.wrapping_mul(31)));
                assert_sound_across_exact(&mm, &x, &y, &format!("{cx}x{cy}"));
            }
            for offset in [1e2, 1e4, 1e6] {
                let xs: Vec<f64> = inexact_coords(5 * 6, 5).iter().map(|c| offset + c).collect();
                let noise = inexact_coords(5 * 6, 6);
                let ys: Vec<f64> = xs.iter().zip(&noise).map(|(c, n)| c + n * 3e-4).collect();
                let (x, y) = (set_from(6, &xs), set_from(6, &ys));
                assert_sound_across_exact(&mm, &x, &y, &format!("5x5 at offset {offset:e}"));
            }
            for v in [2.9e-23, 3e-23, 5e-23, 2e-22, 3e-21] {
                let x = set_from(6, &[v, 0.0, 0.0, 0.0, 0.0, 0.0]);
                let y = set_from(6, &[0.0; 6]);
                assert_sound_across_exact(&mm, &x, &y, &format!("1v1 at {v:e}"));
            }
            let huge = set_from(
                6,
                &inexact_coords(3 * 6, 13).iter().map(|c| 1e39 * (1.0 + c)).collect::<Vec<_>>(),
            );
            let mut e = MatchingEngine::new(mm);
            assert_eq!(distance_all_pairings(&mut e, &huge, &huge, 1.0), Exact(0.0), "{mm:?}");
        }
    }

    /// Where the gate is tight: each element of `y` is one of `x`'s
    /// moved by a little noise, and when n < m the surplus elements of
    /// `x` sit next to the origin, so every element's least entry is
    /// its term of the optimal matching and the sum of row minima *is*
    /// the exact distance. Below the exact value the gate prunes; swept
    /// ulp by ulp across it, it never prunes a bound at or above it. A
    /// gate without the δ margin prunes some of those.
    #[test]
    fn f32_gate_is_tight_where_row_minima_are_optimal() {
        for mm in models() {
            for (seed, surplus) in [(7u64, 0usize), (8, 0), (9, 2), (10, 3)] {
                let mut xs = inexact_coords(5 * 6, seed);
                let noise = inexact_coords(5 * 6, seed + 100);
                let ys: Vec<f64> =
                    xs.iter().zip(&noise).map(|(c, n)| c + (n - 1.7) * 6e-2).collect();
                xs.extend(inexact_coords(surplus * 6, seed + 200).iter().map(|c| c * 1e-3));
                let (x, y) = (set_from(6, &xs), set_from(6, &ys));
                let case = format!("5 + {surplus} v 5, seed {seed}");
                // The premise: the sum of row minima is the exact distance.
                let exact = mm.distance_value(&x, &y);
                let rows: f64 = x
                    .iter()
                    .map(|xi| {
                        let d = y.iter().map(|yj| mm.point_distance(xi, yj));
                        d.fold(if surplus > 0 { mm.weight(xi) } else { f64::INFINITY }, f64::min)
                    })
                    .sum();
                assert!(
                    (mm.finish(rows) - exact).abs() <= 1e-12 * exact,
                    "{case}: {rows} v {exact}"
                );
                assert_sound_across_exact(&mm, &x, &y, &case);
                let mut e = MatchingEngine::new(mm);
                assert_eq!(
                    distance_all_pairings(&mut e, &x, &y, exact * 0.9),
                    PrunedByF32,
                    "{case}"
                );
            }
        }
    }

    /// The first element of the larger set is far from every element of
    /// the smaller one, the rest coincide with some (n = m and n < m):
    /// the first row's least entry alone exceeds the bound, so the gate
    /// decides on one row.
    #[test]
    fn f32_gate_prunes_on_the_first_row() {
        for mm in models() {
            let y = set_from(2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
            for x in
                [&[9.0, 9.0, 0.0, 1.0, 1.0, 1.0][..], &[9.0, 9.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]]
            {
                let x = set_from(2, x);
                let first = y
                    .iter()
                    .map(|yj| mm.point_distance(x.get(0), yj))
                    .fold(f64::INFINITY, f64::min);
                let mut e = MatchingEngine::new(mm);
                let upper = mm.finish(first * 0.9);
                assert_eq!(distance_all_pairings(&mut e, &x, &y, upper), PrunedByF32, "{mm:?}");
            }
        }
    }

    /// A NaN coordinate in either set, with n = m and with n < m, makes
    /// the gate prune at every finite bound, for both paper models: a
    /// NaN entry reaches the row minimum and a NaN sum prunes. (Whether
    /// the exact stage should meet a NaN at all is still open.)
    #[test]
    fn f32_gate_prunes_nan_at_every_finite_bound() {
        for mm in models() {
            for (nb, ns) in [(3usize, 3usize), (4, 2), (2, 1)] {
                for (in_big, at) in [(true, 0usize), (true, 7), (false, 1), (false, 5)] {
                    let mut big = inexact_coords(nb * 6, 11);
                    let mut small = inexact_coords(ns * 6, 12);
                    let v = if in_big { &mut big } else { &mut small };
                    v[at] = f64::NAN;
                    let (x, y) = (set_from(6, &big), set_from(6, &small));
                    let mut e = MatchingEngine::new(mm);
                    for upper in [-1.0, 0.0, 1.0, 5.0, 1e3, 1e30, 1e39, 1e300, f64::MAX] {
                        assert_eq!(
                            distance_all_pairings(&mut e, &x, &y, upper),
                            PrunedByF32,
                            "{mm:?} {nb}v{ns}, NaN at {at} of the {} set, upper {upper:e}",
                            if in_big { "larger" } else { "smaller" }
                        );
                    }
                }
            }
        }
    }

    /// Every differential input one proptest case stands for: `nx`, `ny`
    /// ∈ 0..=6 elements, so n = 0, n < m and n = m all occur; dim 6 (the
    /// lane path) and 12 (the `lp` path); and each mix of near-ties —
    /// coordinates on a 0.5 grid, a duplicated vector in the larger set,
    /// one in the smaller set, copied from element `from` to another
    /// picked by `to`. A tie is where two layouts of one problem may pick
    /// different optimal matchings, and so sum the value in another order.
    fn set_pairs(
        coords: &[f64],
        (nx, ny): (usize, usize),
        (from, to): (usize, usize),
    ) -> Vec<(VectorSet, VectorSet)> {
        let mut pairs = Vec::new();
        for dim in [6, simd::LANES + 4] {
            // Bits of `ties`: the grid (1), a duplicate in the larger
            // set (2), a duplicate in the smaller set (4).
            for ties in 0u8..8 {
                let on_grid = |c: &f64| if ties & 1 != 0 { (c * 2.0).round() / 2.0 } else { *c };
                let mut x: Vec<f64> = coords[..dim * nx].iter().map(on_grid).collect();
                let mut y: Vec<f64> = coords[dim * 6..dim * (6 + ny)].iter().map(on_grid).collect();
                let (big, small) = if nx >= ny { (&mut x, &mut y) } else { (&mut y, &mut x) };
                for (bit, v) in [(2, big), (4, small)] {
                    let len = v.len() / dim;
                    if ties & bit != 0 && len >= 2 {
                        let src = from % len;
                        let dst = (src + 1 + to % (len - 1)) % len;
                        v.copy_within(src * dim..(src + 1) * dim, dst * dim);
                    }
                }
                pairs.push((set_from(dim, &x), set_from(dim, &y)));
            }
        }
        pairs
    }

    proptest! {
        /// One value per pair and argument order: every operand pairing
        /// at `upper ∈ {∞, exact, 2·exact}` returns `match_sets`' bits,
        /// which are within 1e-9 of the `k!` brute force — on tie-heavy
        /// inputs too, where a second cost layout for some bounds would
        /// pick another optimal matching and differ in the last bit.
        #[test]
        fn engine_is_bit_identical_to_match_sets(
            coords in proptest::collection::vec(-5.0f64..5.0, 2 * 6 * 12),
            nx in 0usize..=6,
            ny in 0usize..=6,
            from in 0usize..6,
            to in 0usize..5,
        ) {
            for (x, y) in set_pairs(&coords, (nx, ny), (from, to)) {
                for mm in models() {
                    let brute = brute_force_matching_distance(&mm, &x, &y);
                    let mut e = MatchingEngine::new(mm);
                    for (a, b) in [(&x, &y), (&y, &x)] {
                        let exact = mm.match_sets(a, b).cost;
                        prop_assert!((exact - brute).abs() <= 1e-9, "{exact} vs brute {brute}");
                        for upper in [f64::INFINITY, exact, 2.0 * exact] {
                            let got = distance_all_pairings(&mut e, a, b, upper).value();
                            prop_assert_eq!(got.map(f64::to_bits), Some(exact.to_bits()),
                                "{:?} at upper {}", mm, upper);
                        }
                        let (pa, pb) = (e.prepare(a.clone()), e.prepare(b.clone()));
                        prop_assert_eq!(e.distance_prepared(&pa, &pb).to_bits(), exact.to_bits());
                    }
                }
            }
        }

        /// `distance` is `Exact` — bit-identical to `match_sets` — iff
        /// the exact distance is ≤ upper, and prunes (in either stage)
        /// only when it really exceeds the bound: for every operand
        /// pairing, in both argument orders, on the lane path and above
        /// `LANES` dims (where no f32 gate runs).
        #[test]
        fn bounded_distance_contract(
            coords in proptest::collection::vec(-5.0f64..5.0, 2 * 6 * 12),
            nx in 0usize..=6,
            ny in 0usize..=6,
            from in 0usize..6,
            to in 0usize..5,
            frac in 0.0f64..1.5,
        ) {
            for (x, y) in set_pairs(&coords, (nx, ny), (from, to)) {
                let dim = x.dim();
                for mm in models() {
                    let mut e = MatchingEngine::new(mm);
                    for (a, b) in [(&x, &y), (&y, &x)] {
                        let exact = mm.match_sets(a, b).cost;
                        let upper = exact * frac;
                        match distance_all_pairings(&mut e, a, b, upper) {
                            Exact(d) => {
                                prop_assert_eq!(d.to_bits(), exact.to_bits());
                                prop_assert!(d <= upper, "exact {d} returned above upper {upper}");
                            }
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
                let mut e = MatchingEngine::new(mm);
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
