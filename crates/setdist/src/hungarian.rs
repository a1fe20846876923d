//! Kuhn–Munkres (Hungarian) algorithm for minimum-weight perfect
//! matching in bipartite graphs — the `O(k³)` engine behind the minimal
//! matching distance (Section 4.2, citing Kuhn \[22\] and Munkres \[25\]).
//!
//! The implementation is the potential-based shortest-augmenting-path
//! formulation: each of the `n` rows is inserted by growing an
//! alternating tree, with a worst-case `O(n · m)` per insertion, i.e.
//! `O(n² m)` in total (`O(k³)` for square instances).
//!
//! Every exact matching distance solves the **n × m** problem, `n ≤ m`:
//! one row per element of the smaller set, one column per element of
//! the larger, so only the `n` real choices are inserted
//! ([`solve_slice_into`], behind `match_sets` and the engine's exact
//! stage).
//!
//! The core is **branch-free and lane-parallel**: the `used[]`
//! bookkeeping of the textbook formulation is replaced by a `+∞`
//! sentinel written into `mask`/`minv` when a column joins the
//! alternating tree, so the relaxation + argmin scan
//! ([`crate::simd::relax_scan_f64`]) and the `minv -= delta` shift run
//! as straight-line vector code over the whole column range. Every solve
//! runs to the end: nothing here aborts on a bound. The engine's `f32`
//! gate in front of the exact stage bounds the distance without solving
//! anything (DESIGN.md §13).
//!
//! The original scalar kernel survives verbatim as the test-only
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
/// every kernel below.
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
}

/// The shared shortest-augmenting-path core over the row-major `n × m`
/// slice `data`: inserts the `n` rows one by one, maintaining dual
/// potentials `u`/`v` and the column matching `p[j]` (0 = unmatched).
fn sap_core(n: usize, m: usize, data: &[f64], ws: &mut Workspace) {
    const INF: f64 = f64::INFINITY;
    debug_assert!(n > 0 && m >= n);

    ws.u.clear();
    ws.u.resize(n + 1, 0.0);
    ws.v.clear();
    ws.v.resize(m + 1, 0.0);
    ws.p.clear();
    ws.p.resize(m + 1, 0);
    // `way[j]` is written (via the relax scan) before any read on every
    // augmenting path — a column can only be walked in the unwind after
    // its `minv` improved this insertion — so stale contents never leak
    // and no per-call zeroing is needed.
    if ws.way.len() < m + 1 {
        ws.way.resize(m + 1, 0);
    }
    ws.minv.resize(m + 1, INF);
    // `mask` is all-zero on entry (the invariant below restores it
    // before every return), so only growth needs writing.
    if ws.mask.len() < m + 1 {
        ws.mask.resize(m + 1, 0.0);
    }
    ws.used_list.reserve(m + 1);

    for i in 1..=n {
        ws.p[0] = i;
        let mut j0 = 0usize;
        for j in 0..=m {
            ws.minv[j] = INF;
        }
        ws.used_list.clear();
        loop {
            // Sentinel-INF write instead of `used[j0] = true`: the column
            // drops out of every strict `<` in the scan below without a
            // branch.
            ws.mask[j0] = INF;
            ws.minv[j0] = INF;
            ws.used_list.push(j0);
            let i0 = ws.p[j0];
            let u0 = ws.u[i0];
            let row = &data[(i0 - 1) * m..i0 * m];
            let (delta, jarg) = simd::relax_scan_f64(
                row,
                u0,
                &ws.v[1..=m],
                &ws.mask[1..=m],
                &mut ws.minv[1..=m],
                &mut ws.way[1..=m],
                j0,
            );
            let j1 = jarg + 1;
            debug_assert!(delta.is_finite(), "no augmenting path found");
            // Unconditional shift — tree columns hold the +INF sentinel
            // and `INF - delta = INF`, so no mask is needed and the loop
            // vectorizes.
            for mv in ws.minv[1..=m].iter_mut() {
                *mv -= delta;
            }
            // Dual update only walks the columns actually in the
            // alternating tree (`t` of them after `t` scans) instead of
            // testing all `m + 1` per iteration.
            for &ju in &ws.used_list {
                ws.u[ws.p[ju]] += delta;
                ws.v[ju] -= delta;
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

        // Restore the all-zero `mask` invariant by touching only the
        // columns this insertion actually masked — cheaper than the full
        // `0..=m` sweep.
        for &ju in &ws.used_list {
            ws.mask[ju] = 0.0;
        }
    }
}

/// Sum the matched edges in **row order** (bit-identical to summing an
/// explicit `row_to_col` assignment) without allocating: `ws.minv` is
/// dead after [`sap_core`] and doubles as the per-row cost buffer.
fn matched_cost(n: usize, m: usize, data: &[f64], ws: &mut Workspace) -> f64 {
    for j in 1..=m {
        if ws.p[j] != 0 {
            ws.minv[ws.p[j]] = data[(ws.p[j] - 1) * m + (j - 1)];
        }
    }
    let mut total = 0.0;
    for i in 1..=n {
        total += ws.minv[i];
    }
    total
}

/// Full solve over a borrowed row-major `rows × cols` slice
/// (`rows ≤ cols`) into a caller-owned buffer: match every row to a
/// distinct column minimizing total cost, and leave `col_to_row[c]` as
/// the row matched to column `c` (`None` for the `cols - rows` free
/// columns). `rows = 0` solves nothing and leaves every column free.
/// The `Workspace`-backed path behind `match_sets` and the engine's
/// exact stage, which sum the distance from the matching themselves.
pub fn solve_slice_into(
    rows: usize,
    cols: usize,
    data: &[f64],
    ws: &mut Workspace,
    col_to_row: &mut Vec<Option<usize>>,
) {
    debug_assert!(cols >= rows && data.len() == rows * cols);
    col_to_row.clear();
    if rows == 0 {
        col_to_row.resize(cols, None);
        return;
    }
    sap_core(rows, cols, data, ws);
    col_to_row.extend(ws.p[1..=cols].iter().map(|&r| r.checked_sub(1)));
}

/// Cost-only solve over a borrowed row-major `rows × cols` slice: no
/// `row_to_col` materialization, zero heap allocations once `ws` has
/// reached steady-state capacity. The optimal total, summed in row order.
pub fn solve_cost_slice(rows: usize, cols: usize, data: &[f64], ws: &mut Workspace) -> f64 {
    debug_assert!(rows > 0 && cols >= rows && data.len() == rows * cols);
    sap_core(rows, cols, data, ws);
    matched_cost(rows, cols, data, ws)
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

    /// [`solve_slice_into`] as an [`Assignment`], its cost summed in
    /// row order.
    fn solve_with(cost: &CostMatrix, ws: &mut Workspace) -> Assignment {
        let mut col_to_row = Vec::new();
        solve_slice_into(cost.rows(), cost.cols(), cost.data(), ws, &mut col_to_row);
        let mut row_to_col = vec![usize::MAX; cost.rows()];
        for (c, r) in col_to_row.iter().enumerate() {
            if let Some(r) = *r {
                row_to_col[r] = c;
            }
        }
        let mut total = 0.0;
        for (r, &c) in row_to_col.iter().enumerate() {
            total += cost.get(r, c);
        }
        Assignment { row_to_col, cost: total }
    }

    fn solve(cost: &CostMatrix) -> Assignment {
        solve_with(cost, &mut Workspace::default())
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
        }
    }

    proptest! {
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
                let old = reference::solve_cost_slice(rows, cols, &vals[..take], &mut rws);
                prop_assert!((new - old).abs() < 1e-9, "lane {new} vs scalar {old}");
            }
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
