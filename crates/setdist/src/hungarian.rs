//! Kuhn–Munkres (Hungarian) algorithm for minimum-weight perfect
//! matching in bipartite graphs — the `O(k³)` engine behind the minimal
//! matching distance (Section 4.2, citing Kuhn [22] and Munkres [25]).
//!
//! The implementation is the potential-based shortest-augmenting-path
//! formulation: each of the `n` rows is inserted by growing an
//! alternating tree, with a worst-case `O(n · m)` per insertion, i.e.
//! `O(n² m)` in total (`O(k³)` for square instances).
//!
//! Since the SIMD PR the core is **branch-free and lane-parallel**: the
//! `used[]` bookkeeping of the textbook formulation is replaced by a
//! `+∞` sentinel written into `mask`/`minv` when a column joins the
//! alternating tree, so the relaxation + argmin scan
//! ([`crate::simd::relax_scan_f64`]) and the `minv -= delta` shift run
//! as straight-line vector code over the whole column range. The
//! bounded variant's per-row cost check is **O(1)**: the running
//! optimal partial-assignment cost equals `-v[0]`, the dual potential
//! of the virtual root column (DESIGN.md §13 derives this), instead of
//! an `O(m)` per-row primal re-summation — which made the bounded solve
//! *slower* than the unbounded one at k = 9.
//!
//! A `f32` twin of the core ([`solve_cost_slice_bounded_f32`]) backs
//! the filter-precision stage of `MatchingEngine::distance`; the
//! original scalar kernel survives verbatim as the test-only
//! `reference` module, the cross-validation oracle of the tests below.

use crate::simd;

/// Result of an assignment problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `row_to_col[i]` is the column assigned to row `i`.
    pub row_to_col: Vec<usize>,
    /// Total cost of the optimal assignment.
    pub cost: f64,
}

/// A dense cost matrix with `rows ≤ cols`.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl CostMatrix {
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols >= rows, "need 0 < rows <= cols");
        CostMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = CostMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(v.is_finite(), "costs must be finite");
        self.data[r * self.cols + c] = v;
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The row-major backing slice (the kernels operate on slices).
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Reusable buffers for repeated assignment solving (OPTICS runs evaluate
/// millions of matchings; per-call allocation is measurable), shared by
/// every kernel below. The `f`-suffixed twins back the `f32`
/// filter-precision core; the integer buffers (`p`, `way`, `used_list`)
/// are shared by both precisions.
#[derive(Debug, Default)]
pub struct Workspace {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    /// `+∞` for columns in the alternating tree, `0.0` otherwise — the
    /// branch-free replacement for the textbook `used[]` bitmap.
    mask: Vec<f64>,
    /// Columns added to the alternating tree this row insertion, in
    /// order (the dual update walks exactly these).
    used_list: Vec<usize>,
    uf: Vec<f32>,
    vf: Vec<f32>,
    minvf: Vec<f32>,
    maskf: Vec<f32>,
}

/// Row access for the SAP core: eager (a fully built cost slice) or
/// lazy (rows materialized on first touch). The augmenting search only
/// ever re-reads rows that were already inserted, so a lazy source that
/// fills row `i` at its first access observes exactly the values an
/// eager fill would have produced — and when the bound check aborts
/// after `r` rows, rows `r+1..` are never computed at all.
trait RowSource<T> {
    /// Row `i` (0-based), `m` entries.
    fn row(&mut self, i: usize) -> &[T];
}

struct EagerRows<'a, T> {
    data: &'a [T],
    stride: usize,
    m: usize,
}

impl<T> RowSource<T> for EagerRows<'_, T> {
    #[inline]
    fn row(&mut self, i: usize) -> &[T] {
        &self.data[i * self.stride..i * self.stride + self.m]
    }
}

struct LazyRows<'a, T, F> {
    data: &'a mut [T],
    stride: usize,
    m: usize,
    filled: usize,
    fill: F,
}

impl<T, F: FnMut(usize, &mut [T])> RowSource<T> for LazyRows<'_, T, F> {
    #[inline]
    fn row(&mut self, i: usize) -> &[T] {
        while self.filled <= i {
            let base = self.filled * self.stride;
            (self.fill)(self.filled, &mut self.data[base..base + self.m]);
            self.filled += 1;
        }
        &self.data[i * self.stride..i * self.stride + self.m]
    }
}

/// The shared shortest-augmenting-path core over a [`RowSource`]:
/// inserts the `n` rows one by one, maintaining dual potentials `u`/`v`
/// and the column matching `p[j]` (0 = unmatched).
///
/// When `upper` is finite, the optimal cost of the partial assignment
/// built so far — available in **O(1)** as `-v[0]`, see DESIGN.md §13 —
/// is checked once per row insertion; because that cost is monotone
/// non-decreasing in the row count for **non-negative costs**, exceeding
/// `upper` proves the final cost will too, and the insertion loop aborts,
/// returning `false`. With `upper = ∞` the comparison is a single dead
/// branch per row, so the bounded and unbounded paths are bit-identical
/// whenever nothing is pruned — and essentially equally fast.
macro_rules! sap_core_impl {
    ($name:ident, $f:ty, $relax:path,
     $u:ident, $v:ident, $minv:ident, $mask:ident, $slack:expr) => {
        fn $name<R: RowSource<$f>>(
            n: usize,
            m: usize,
            src: &mut R,
            ws: &mut Workspace,
            upper: $f,
        ) -> bool {
            const INF: $f = <$f>::INFINITY;
            debug_assert!(n > 0 && m >= n);

            ws.$u.clear();
            ws.$u.resize(n + 1, 0.0);
            ws.$v.clear();
            ws.$v.resize(m + 1, 0.0);
            ws.p.clear();
            ws.p.resize(m + 1, 0);
            // `way[j]` is written (via the relax scan) before any read on
            // every augmenting path — a column can only be walked in the
            // unwind after its `minv` improved this insertion — so stale
            // contents never leak and no per-call zeroing is needed.
            if ws.way.len() < m + 1 {
                ws.way.resize(m + 1, 0);
            }
            ws.$minv.resize(m + 1, INF);
            // `mask` is all-zero on entry (the invariant below restores
            // it before every return), so only growth needs writing.
            if ws.$mask.len() < m + 1 {
                ws.$mask.resize(m + 1, 0.0);
            }
            ws.used_list.reserve(m + 1);

            for i in 1..=n {
                ws.p[0] = i;
                let mut j0 = 0usize;
                for j in 0..=m {
                    ws.$minv[j] = INF;
                }
                ws.used_list.clear();
                loop {
                    // Sentinel-INF write instead of `used[j0] = true`:
                    // the column drops out of every strict `<` in the
                    // scan below without a branch.
                    ws.$mask[j0] = INF;
                    ws.$minv[j0] = INF;
                    ws.used_list.push(j0);
                    let i0 = ws.p[j0];
                    let u0 = ws.$u[i0];
                    let row = src.row(i0 - 1);
                    let (delta, jarg) = $relax(
                        row,
                        u0,
                        &ws.$v[1..=m],
                        &ws.$mask[1..=m],
                        &mut ws.$minv[1..=m],
                        &mut ws.way[1..=m],
                        j0,
                    );
                    let j1 = jarg + 1;
                    debug_assert!(delta.is_finite(), "no augmenting path found");
                    // Unconditional shift — tree columns hold the +INF
                    // sentinel and `INF - delta = INF`, so no mask is
                    // needed and the loop vectorizes.
                    for mv in ws.$minv[1..=m].iter_mut() {
                        *mv -= delta;
                    }
                    // Dual update only walks the columns actually in the
                    // alternating tree (`t` of them after `t` scans)
                    // instead of testing all `m + 1` per iteration.
                    for &ju in &ws.used_list {
                        ws.$u[ws.p[ju]] += delta;
                        ws.$v[ju] -= delta;
                    }
                    j0 = j1;
                    if ws.p[j0] == 0 {
                        break;
                    }
                }
                // Unwind the alternating path.
                loop {
                    let j1 = ws.way[j0];
                    ws.p[j0] = ws.p[j1];
                    j0 = j1;
                    if j0 == 0 {
                        break;
                    }
                }

                // Restore the all-zero `mask` invariant by touching only
                // the columns this insertion actually masked — cheaper
                // than the full `0..=m` sweep, and it runs before either
                // return below so the invariant holds on the pruned path
                // too.
                for &ju in &ws.used_list {
                    ws.$mask[ju] = 0.0;
                }

                // Hoisted O(1) bound check: `-v[0]` accumulates every
                // `delta` of every insertion so far, which equals the
                // optimal cost of assigning rows `1..=i` (DESIGN.md
                // §13). Tiny relative slack: the dual total and the
                // final row-order primal sum round differently, and
                // pruning less is always safe.
                if upper < INF {
                    let partial = -ws.$v[0];
                    if partial > upper + $slack * upper.abs() {
                        return false;
                    }
                }
            }
            true
        }
    };
}

sap_core_impl!(sap_core, f64, simd::relax_scan_f64, u, v, minv, mask, 1e-9);
sap_core_impl!(sap_core_f32, f32, simd::relax_scan_f32, uf, vf, minvf, maskf, 1e-5);

/// Sum the matched edges in **row order** (bit-identical to summing an
/// explicit `row_to_col` assignment) without allocating: `ws.minv` is
/// dead after [`sap_core`] and doubles as the per-row cost buffer.
macro_rules! matched_cost_impl {
    ($name:ident, $f:ty, $minv:ident) => {
        fn $name(n: usize, m: usize, stride: usize, data: &[$f], ws: &mut Workspace) -> $f {
            for j in 1..=m {
                if ws.p[j] != 0 {
                    ws.$minv[ws.p[j]] = data[(ws.p[j] - 1) * stride + (j - 1)];
                }
            }
            let mut total = 0.0;
            for i in 1..=n {
                total += ws.$minv[i];
            }
            total
        }
    };
}

matched_cost_impl!(matched_cost, f64, minv);
matched_cost_impl!(matched_cost_f32, f32, minvf);

/// Full solve over a borrowed row-major `n × m` slice (`n ≤ m`) into a
/// caller-owned assignment buffer: match every row to a distinct column
/// minimizing total cost. The `Workspace`-backed path behind
/// `match_sets`; returns the optimal cost summed in row order.
pub fn solve_slice_into(
    n: usize,
    m: usize,
    data: &[f64],
    ws: &mut Workspace,
    row_to_col: &mut Vec<usize>,
) -> f64 {
    sap_core(n, m, &mut EagerRows { data, stride: m, m }, ws, f64::INFINITY);
    row_to_col.clear();
    row_to_col.resize(n, usize::MAX);
    for j in 1..=m {
        if ws.p[j] != 0 {
            row_to_col[ws.p[j] - 1] = j - 1;
        }
    }
    let mut total = 0.0;
    for (i, &j) in row_to_col.iter().enumerate() {
        total += data[i * m + j];
    }
    total
}

/// Bounded cost-only solve over a borrowed row-major `rows × cols`
/// slice: no `row_to_col` materialization, zero heap allocations once
/// `ws` has reached steady-state capacity. Returns `None` as soon as the
/// partial optimal cost provably exceeds `upper` (requires non-negative
/// costs; see [`sap_core`]), `Some(total)` otherwise — exact, summed in
/// row order like [`solve_slice_into`]; `upper = ∞` never prunes.
pub fn solve_cost_slice_bounded(
    rows: usize,
    cols: usize,
    data: &[f64],
    ws: &mut Workspace,
    upper: f64,
) -> Option<f64> {
    debug_assert!(rows > 0 && cols >= rows && data.len() == rows * cols);
    if !sap_core(rows, cols, &mut EagerRows { data, stride: cols, m: cols }, ws, upper) {
        return None;
    }
    Some(matched_cost(rows, cols, cols, data, ws))
}

/// Bounded cost-only solve that materializes each cost row on demand,
/// immediately before that row's insertion: when the O(1) dual bound
/// check aborts after `r` rows, rows `r+1..` are never computed. The
/// augmenting search only re-reads rows already inserted, so the filled
/// prefix — and, on the non-pruned path, the result, bit for bit —
/// matches [`solve_cost_slice_bounded`] over an eagerly built matrix.
/// `fill_row(i, out)` must write all `cols` entries of row `i`.
pub fn solve_cost_slice_bounded_lazy(
    rows: usize,
    cols: usize,
    data: &mut [f64],
    ws: &mut Workspace,
    upper: f64,
    fill_row: impl FnMut(usize, &mut [f64]),
) -> Option<f64> {
    debug_assert!(rows > 0 && cols >= rows && data.len() == rows * cols);
    let mut src = LazyRows { data, stride: cols, m: cols, filled: 0, fill: fill_row };
    if !sap_core(rows, cols, &mut src, ws, upper) {
        return None;
    }
    Some(matched_cost(rows, cols, cols, src.data, ws))
}

/// `f32` filter-precision twin of [`solve_cost_slice_bounded`]: the
/// same branch-free core over an `f32` cost slice. `None` means the
/// partial cost exceeded `upper` (callers fold the ±δ conversion margin
/// into `upper` — see `MatchingEngine::f32_stage`);
/// `Some(total)` is the f32-precision optimal cost. Shares the integer
/// buffers of `ws` with the f64 core, so one workspace serves both
/// precisions without growing twice.
pub fn solve_cost_slice_bounded_f32(
    rows: usize,
    cols: usize,
    data: &[f32],
    ws: &mut Workspace,
    upper: f32,
) -> Option<f32> {
    debug_assert!(rows > 0 && cols >= rows && data.len() == rows * cols);
    if !sap_core_f32(rows, cols, &mut EagerRows { data, stride: cols, m: cols }, ws, upper) {
        return None;
    }
    Some(matched_cost_f32(rows, cols, cols, data, ws))
}

/// Brute-force assignment by enumerating all `cols! / (cols-rows)!`
/// injections — exponential; only for validating [`solve_slice_into`]
/// on small instances and for the paper's "all k! permutations" baseline.
pub fn solve_brute_force(cost: &CostMatrix) -> Assignment {
    let n = cost.rows();
    let m = cost.cols();
    assert!(m <= 10, "brute force limited to 10 columns");
    let mut best_cost = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut current = vec![usize::MAX; n];
    let mut used = vec![false; m];

    #[allow(clippy::too_many_arguments)]
    fn rec(
        i: usize,
        n: usize,
        m: usize,
        cost: &CostMatrix,
        current: &mut Vec<usize>,
        used: &mut Vec<bool>,
        acc: f64,
        best_cost: &mut f64,
        best: &mut Vec<usize>,
    ) {
        if i == n {
            if acc < *best_cost {
                *best_cost = acc;
                *best = current.clone();
            }
            return;
        }
        for j in 0..m {
            if !used[j] {
                used[j] = true;
                current[i] = j;
                rec(i + 1, n, m, cost, current, used, acc + cost.get(i, j), best_cost, best);
                used[j] = false;
            }
        }
    }

    rec(0, n, m, cost, &mut current, &mut used, 0.0, &mut best_cost, &mut best);
    Assignment { row_to_col: best, cost: best_cost }
}

/// The pre-SIMD scalar kernel, kept verbatim as the differential
/// reference of the branch-free core; compiled for tests only.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn solve_with(cost: &CostMatrix, ws: &mut Workspace) -> Assignment {
        let mut row_to_col = Vec::new();
        let total = solve_slice_into(cost.rows(), cost.cols(), cost.data(), ws, &mut row_to_col);
        Assignment { row_to_col, cost: total }
    }

    fn solve(cost: &CostMatrix) -> Assignment {
        solve_with(cost, &mut Workspace::default())
    }

    fn solve_cost_slice(rows: usize, cols: usize, data: &[f64], ws: &mut Workspace) -> f64 {
        solve_cost_slice_bounded(rows, cols, data, ws, f64::INFINITY).expect("∞ cannot prune")
    }

    /// [`solve_cost_slice_bounded_lazy`] over rows copied from `data` on
    /// demand; also returns how many rows the solver asked for.
    fn solve_lazy_counting(
        rows: usize,
        cols: usize,
        data: &[f64],
        ws: &mut Workspace,
        upper: f64,
    ) -> (Option<f64>, usize) {
        let mut scratch = vec![f64::NAN; rows * cols];
        let mut filled = 0;
        let total = solve_cost_slice_bounded_lazy(rows, cols, &mut scratch, ws, upper, |i, out| {
            out.copy_from_slice(&data[i * cols..(i + 1) * cols]);
            filled += 1;
        });
        (total, filled)
    }

    #[test]
    fn tiny_known_instance() {
        // Classic 3x3 example.
        let c = CostMatrix::from_fn(3, 3, |i, j| {
            [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]][i][j]
        });
        let a = solve(&c);
        assert_eq!(a.cost, 5.0);
        assert_eq!(a.row_to_col, vec![1, 0, 2]);
    }

    #[test]
    fn rectangular_instance_picks_cheap_columns() {
        // 2 rows, 4 cols: rows should pick their cheapest distinct columns.
        let c = CostMatrix::from_fn(2, 4, |i, j| ((i + 1) * (j + 1)) as f64);
        let a = solve(&c);
        // Row 0 cost = j+1, row 1 cost = 2(j+1); optimum: row1 -> col0 (2), row0 -> col1 (2).
        assert_eq!(a.cost, 4.0);
        assert_eq!(a.row_to_col[1], 0);
        assert_eq!(a.row_to_col[0], 1);
    }

    #[test]
    fn assignment_is_a_valid_injection() {
        let c = CostMatrix::from_fn(5, 7, |i, j| ((i * 31 + j * 17) % 13) as f64);
        let a = solve(&c);
        let mut seen = std::collections::HashSet::new();
        for &j in &a.row_to_col {
            assert!(j < 7);
            assert!(seen.insert(j), "column used twice");
        }
    }

    #[test]
    fn negative_costs_are_supported() {
        let c = CostMatrix::from_fn(2, 2, |i, j| if i == j { -5.0 } else { 1.0 });
        let a = solve(&c);
        assert_eq!(a.cost, -10.0);
        assert_eq!(a.row_to_col, vec![0, 1]);
    }

    #[test]
    fn single_row() {
        let c = CostMatrix::from_fn(1, 5, |_, j| (5 - j) as f64);
        let a = solve(&c);
        assert_eq!(a.row_to_col, vec![4]);
        assert_eq!(a.cost, 1.0);
    }

    #[test]
    fn workspace_solver_matches_allocating_solver() {
        let mut ws = Workspace::default();
        // Solve a series of differently-sized instances with one
        // workspace; results must match the reference solver each time.
        for (rows, cols, seed) in [(3usize, 3usize, 1u64), (5, 8, 2), (2, 2, 3), (7, 7, 4)] {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as f64 / 1e6
            };
            let c = CostMatrix::from_fn(rows, cols, |_, _| next());
            let a = solve(&c);
            let b = solve_with(&c, &mut ws);
            assert!((a.cost - b.cost).abs() < 1e-9);
            assert_eq!(a.row_to_col, b.row_to_col);
        }
    }

    #[test]
    fn cost_only_solvers_match_reference() {
        let mut ws = Workspace::default();
        for (rows, cols, seed) in [(3usize, 3usize, 11u64), (5, 8, 12), (2, 2, 13), (9, 9, 14)] {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15);
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as f64 / 1e6
            };
            let c = CostMatrix::from_fn(rows, cols, |_, _| next());
            let reference = solve(&c).cost;
            assert_eq!(
                solve_cost_slice(rows, cols, c.data(), &mut ws).to_bits(),
                reference.to_bits()
            );
            let (lazy, _) = solve_lazy_counting(rows, cols, c.data(), &mut ws, f64::INFINITY);
            assert_eq!(lazy.unwrap().to_bits(), reference.to_bits());
        }
    }

    /// Why a bounded solve is never slower than an unbounded one: below
    /// the optimum it stops asking for rows (so the engine never
    /// computes them), at `upper = ∞` it is the eager solve bit for bit.
    #[test]
    fn lazy_bounded_solve_skips_rows_when_pruned_and_equals_eager_when_not() {
        let mut ws = Workspace::default();
        for (rows, cols, seed) in [(8usize, 8usize, 21u64), (6, 9, 22), (3, 3, 23)] {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15);
            // Entries in [1, 2): after r insertions the partial cost is
            // at least r, and the optimum is below 2·rows.
            let data: Vec<f64> = (0..rows * cols)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    1.0 + (state >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            let eager = solve_cost_slice(rows, cols, &data, &mut ws);

            let (unbounded, filled) =
                solve_lazy_counting(rows, cols, &data, &mut ws, f64::INFINITY);
            assert_eq!(unbounded.unwrap().to_bits(), eager.to_bits(), "{rows}x{cols}");
            assert_eq!(filled, rows, "an unpruned solve inserts every row");

            // A third of the optimum is below 2·rows/3, which the
            // partial cost passes before the last row is inserted.
            let (pruned, filled) = solve_lazy_counting(rows, cols, &data, &mut ws, eager / 3.0);
            assert_eq!(pruned, None, "{rows}x{cols}: bound below the optimum must prune");
            assert!(filled < rows, "{rows}x{cols}: pruned solve still filled {filled}/{rows} rows");
            assert_eq!(solve_cost_slice_bounded(rows, cols, &data, &mut ws, eager / 3.0), None);
        }
    }

    proptest! {
        #[test]
        fn bounded_solver_is_exact_or_provably_above_bound(
            vals in proptest::collection::vec(0.0f64..20.0, 30),
            upper in 0.0f64..60.0,
        ) {
            let rows = 5;
            let cols = 6;
            let mut ws = Workspace::default();
            let exact = solve_cost_slice(rows, cols, &vals, &mut ws);
            match solve_cost_slice_bounded(rows, cols, &vals, &mut ws, upper) {
                Some(total) => prop_assert_eq!(total.to_bits(), exact.to_bits()),
                None => prop_assert!(exact > upper, "pruned although exact {exact} <= {upper}"),
            }
            // An infinite bound must never prune.
            let unbounded = solve_cost_slice_bounded(rows, cols, &vals, &mut ws, f64::INFINITY);
            prop_assert_eq!(unbounded.unwrap().to_bits(), exact.to_bits());
            // A bound at (or above) the exact cost must not prune either.
            let at_exact = solve_cost_slice_bounded(rows, cols, &vals, &mut ws, exact);
            prop_assert_eq!(at_exact.unwrap().to_bits(), exact.to_bits());
        }

        /// The branch-free lane core agrees with the preserved scalar
        /// kernel on every instance (the optimal cost is unique even
        /// when the optimal matching is not; tie-breaking may differ,
        /// so the comparison is on totals, to f64 tolerance).
        #[test]
        fn branch_free_core_matches_scalar_reference(
            vals in proptest::collection::vec(0.0f64..50.0, 42),
        ) {
            let mut ws = Workspace::default();
            let mut rws = reference::RefWorkspace::default();
            for (rows, cols) in [(6usize, 7usize), (3, 14), (1, 42), (6, 6)] {
                let take = rows * cols;
                let new = solve_cost_slice(rows, cols, &vals[..take], &mut ws);
                let old = reference::solve_cost_slice_bounded(
                    rows, cols, &vals[..take], &mut rws, f64::INFINITY,
                ).expect("∞ cannot prune");
                prop_assert!((new - old).abs() < 1e-9, "lane {new} vs scalar {old}");
            }
        }

        /// The O(1) dual bound check prunes exactly when the old O(m)
        /// primal re-summation would: never when `exact <= upper`.
        #[test]
        fn dual_bound_check_agrees_with_reference_on_prunes(
            vals in proptest::collection::vec(0.0f64..20.0, 36),
            frac in 0.0f64..1.5,
        ) {
            let mut ws = Workspace::default();
            let mut rws = reference::RefWorkspace::default();
            let exact = solve_cost_slice(6, 6, &vals, &mut ws);
            let upper = exact * frac;
            let new = solve_cost_slice_bounded(6, 6, &vals, &mut ws, upper);
            let old = reference::solve_cost_slice_bounded(6, 6, &vals, &mut rws, upper);
            // Both must satisfy the contract...
            if let Some(total) = new { prop_assert_eq!(total.to_bits(), exact.to_bits()); }
            if new.is_none() { prop_assert!(exact > upper); }
            if old.is_none() { prop_assert!(exact > upper); }
            // ...and a bound at the exact cost never prunes on either.
            prop_assert!(solve_cost_slice_bounded(6, 6, &vals, &mut ws, exact).is_some());
        }

        /// The f32 core tracks the f64 optimum within f32 noise and
        /// honors its bound contract.
        #[test]
        fn f32_core_tracks_f64_optimum(
            vals in proptest::collection::vec(0.0f64..10.0, 36),
        ) {
            let mut ws = Workspace::default();
            let exact = solve_cost_slice(6, 6, &vals, &mut ws);
            let vals32: Vec<f32> = vals.iter().map(|&x| x as f32).collect();
            let approx = solve_cost_slice_bounded_f32(6, 6, &vals32, &mut ws, f32::INFINITY)
                .expect("infinite bound cannot prune");
            let scale = vals.iter().cloned().fold(1.0, f64::max);
            prop_assert!((approx as f64 - exact).abs() <= 1e-4 * 36.0 * scale,
                "f32 {approx} strayed from f64 {exact}");
            // A bound comfortably above the optimum must not prune.
            let wide = (exact as f32) + 1e-2 * (scale as f32) + 1.0;
            prop_assert!(solve_cost_slice_bounded_f32(6, 6, &vals32, &mut ws, wide).is_some());
        }

        #[test]
        fn workspace_reuse_is_sound(
            vals in proptest::collection::vec(0.0f64..50.0, 36),
            vals2 in proptest::collection::vec(0.0f64..50.0, 12),
        ) {
            let mut ws = Workspace::default();
            // Big instance first, then a smaller one: stale buffer
            // contents must not leak into the second solve.
            let big = CostMatrix::from_fn(6, 6, |i, j| vals[i * 6 + j]);
            let _ = solve_with(&big, &mut ws);
            let small = CostMatrix::from_fn(3, 4, |i, j| vals2[i * 4 + j]);
            let a = solve_with(&small, &mut ws);
            let b = solve(&small);
            prop_assert!((a.cost - b.cost).abs() < 1e-9);
        }

        #[test]
        fn matches_brute_force_square(vals in proptest::collection::vec(0.0f64..100.0, 25)) {
            let c = CostMatrix::from_fn(5, 5, |i, j| vals[i * 5 + j]);
            let fast = solve(&c);
            let slow = solve_brute_force(&c);
            prop_assert!((fast.cost - slow.cost).abs() < 1e-9,
                "fast {} vs brute {}", fast.cost, slow.cost);
        }

        #[test]
        fn matches_brute_force_rectangular(vals in proptest::collection::vec(-50.0f64..50.0, 24)) {
            let c = CostMatrix::from_fn(4, 6, |i, j| vals[i * 6 + j]);
            let fast = solve(&c);
            let slow = solve_brute_force(&c);
            prop_assert!((fast.cost - slow.cost).abs() < 1e-9);
        }

        #[test]
        fn permutation_invariance(vals in proptest::collection::vec(0.0f64..10.0, 16)) {
            // Shuffling rows must not change the optimal cost.
            let c = CostMatrix::from_fn(4, 4, |i, j| vals[i * 4 + j]);
            let perm = [2usize, 0, 3, 1];
            let cp = CostMatrix::from_fn(4, 4, |i, j| vals[perm[i] * 4 + j]);
            prop_assert!((solve(&c).cost - solve(&cp).cost).abs() < 1e-9);
        }
    }
}
