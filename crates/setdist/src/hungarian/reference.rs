//! The pre-SIMD scalar Kuhn–Munkres kernel, preserved verbatim: the
//! textbook `used[]` bitmap and branchy relaxation scan. Test-only — the
//! oracle `branch_free_core_matches_scalar_reference` compares the
//! branch-free lane core against.

/// The original solver buffers, including the branchy `used[]`
/// bitmap the branch-free core replaced.
#[derive(Debug, Default)]
pub struct RefWorkspace {
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
}

/// The original scalar shortest-augmenting-path core.
fn sap_core_ref<C: Fn(usize, usize) -> f64>(n: usize, m: usize, cost: C, ws: &mut RefWorkspace) {
    const INF: f64 = f64::INFINITY;

    ws.u.clear();
    ws.u.resize(n + 1, 0.0);
    ws.v.clear();
    ws.v.resize(m + 1, 0.0);
    ws.p.clear();
    ws.p.resize(m + 1, 0);
    ws.way.clear();
    ws.way.resize(m + 1, 0);
    ws.minv.resize(m + 1, INF);
    ws.used.resize(m + 1, false);

    for i in 1..=n {
        ws.p[0] = i;
        let mut j0 = 0usize;
        for j in 0..=m {
            ws.minv[j] = INF;
            ws.used[j] = false;
        }
        loop {
            ws.used[j0] = true;
            let i0 = ws.p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if ws.used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - ws.u[i0] - ws.v[j];
                if cur < ws.minv[j] {
                    ws.minv[j] = cur;
                    ws.way[j] = j0;
                }
                if ws.minv[j] < delta {
                    delta = ws.minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta.is_finite(), "no augmenting path found");
            for j in 0..=m {
                if ws.used[j] {
                    ws.u[ws.p[j]] += delta;
                    ws.v[j] -= delta;
                } else {
                    ws.minv[j] -= delta;
                }
            }
            j0 = j1;
            if ws.p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = ws.way[j0];
            ws.p[j0] = ws.p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
}

fn matched_cost_ref<C: Fn(usize, usize) -> f64>(
    n: usize,
    m: usize,
    cost: C,
    ws: &mut RefWorkspace,
) -> f64 {
    for j in 1..=m {
        if ws.p[j] != 0 {
            ws.minv[ws.p[j]] = cost(ws.p[j] - 1, j - 1);
        }
    }
    let mut total = 0.0;
    for i in 1..=n {
        total += ws.minv[i];
    }
    total
}

/// Cost-only solve with the original scalar kernel.
pub fn solve_cost_slice(rows: usize, cols: usize, data: &[f64], ws: &mut RefWorkspace) -> f64 {
    debug_assert!(rows > 0 && cols >= rows && data.len() == rows * cols);
    sap_core_ref(rows, cols, |i, j| data[i * cols + j], ws);
    matched_cost_ref(rows, cols, |i, j| data[i * cols + j], ws)
}
