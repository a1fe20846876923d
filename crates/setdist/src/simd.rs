//! Portable fixed-width lane kernels for the matching hot path.
//!
//! The paper's feature vectors have dimension 6 (cover model) or 7
//! (volume-extended model) — a perfect fit for one 8-wide lane block.
//! Everything here is plain stable Rust over fixed-size arrays: the
//! loops have constant trip counts and no data-dependent branches, so
//! LLVM autovectorizes them into SSE/AVX (or NEON) without `std::simd`
//! and without any target-feature gates, keeping the workspace
//! offline-buildable on stable.
//!
//! Two numeric contracts matter:
//!
//! * **Fixed reduction order.** [`sq_l2_f64`] sums its 8 squared
//!   differences with one fixed pairwise tree,
//!   `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, so every caller —
//!   `match_sets`' per-entry point distances, the engine's row-padded
//!   fill, prepared weight tables — produces
//!   **bit-identical** values for the same logical vectors. Padding
//!   with zeros is exact: the padded terms are `+0.0` squares and
//!   `x + 0.0 == x` bitwise for every non-negative `x`.
//! * **Sentinel masking.** [`relax_scan_f64`] implements the Hungarian
//!   `minv` update + delta argmin without a `used[]` branch: used
//!   columns carry `+∞` in `mask` (and in `minv`), which makes their
//!   candidate value `+∞`, loses every strict `<` comparison, and so
//!   silently drops out of both the relaxation and the argmin.
//!
//! The `f32` twins (`pad_f32`, `pad_rows_f32`, `sq_l2_f32`, …) serve
//! only the engine's f32 gate, which sums least lane distances and
//! solves nothing; every Kuhn–Munkres solve runs in `f64` through
//! [`relax_scan_f64`].
//!
//! See DESIGN.md §13 for the lane layout and why the scan's lane-major
//! argmin tie order is a safe deviation from the sequential scan.

/// Lane width of one padded row: the paper dims (6/7) plus zero padding.
pub const LANES: usize = 8;

/// Zero-pad one `dim ≤ 8` vector into a stack lane block.
#[inline]
pub fn pad(v: &[f64]) -> [f64; LANES] {
    debug_assert!(v.len() <= LANES);
    // Constant-trip-count lane loop (select per lane), as in `pad_rows`:
    // a runtime-length copy lowers to `memset` / `memcpy` calls, which
    // cost more than the whole block for these ≤ 8-lane rows.
    let mut out = [0.0; LANES];
    for (l, o) in out.iter_mut().enumerate() {
        *o = v.get(l).copied().unwrap_or(0.0);
    }
    out
}

/// Zero-pad one `dim ≤ 8` vector into an `f32` lane block (the f32
/// gate's input conversion).
#[inline]
pub fn pad_f32(v: &[f64]) -> [f32; LANES] {
    debug_assert!(v.len() <= LANES);
    let mut out = [0.0f32; LANES];
    for (o, x) in out.iter_mut().zip(v) {
        *o = *x as f32;
    }
    out
}

/// Zero-pad every row of a flat `dim`-strided buffer into `LANES`-strided
/// scratch. `out` is resized once and reused by the engine across calls.
pub fn pad_rows(dim: usize, flat: &[f64], out: &mut Vec<f64>) {
    debug_assert!(dim > 0 && dim <= LANES && flat.len().is_multiple_of(dim));
    let rows = flat.len() / dim;
    // Grow-only, then write every lane exactly once (values + zero
    // tail) — no full-buffer memset before the copy.
    if out.len() < rows * LANES {
        out.resize(rows * LANES, 0.0);
    }
    out.truncate(rows * LANES);
    for (dst, row) in out.chunks_exact_mut(LANES).zip(flat.chunks_exact(dim)) {
        // Constant-trip-count lane loop (select per lane) rather than a
        // runtime-length `copy_from_slice`, which lowers to a `memcpy`
        // call per row.
        for (l, d) in dst.iter_mut().enumerate() {
            *d = if l < dim { row[l] } else { 0.0 };
        }
    }
}

/// [`pad_rows`] into `f32` lanes.
pub fn pad_rows_f32(dim: usize, flat: &[f64], out: &mut Vec<f32>) {
    debug_assert!(dim > 0 && dim <= LANES && flat.len().is_multiple_of(dim));
    let rows = flat.len() / dim;
    if out.len() < rows * LANES {
        out.resize(rows * LANES, 0.0);
    }
    out.truncate(rows * LANES);
    for (dst, row) in out.chunks_exact_mut(LANES).zip(flat.chunks_exact(dim)) {
        // Constant-trip-count lane loop, mirroring `pad_rows`.
        for (l, d) in dst.iter_mut().enumerate() {
            *d = if l < dim { row[l] as f32 } else { 0.0 };
        }
    }
}

macro_rules! lane_math {
    ($f:ty, $sq_l2:ident, $l2:ident, $sq_norm:ident, $norm:ident) => {
        /// Squared Euclidean distance over one lane block, fixed pairwise
        /// reduction tree (see the module contract).
        #[inline]
        pub fn $sq_l2(a: &[$f; LANES], b: &[$f; LANES]) -> $f {
            let mut sq = [0.0 as $f; LANES];
            for l in 0..LANES {
                let d = a[l] - b[l];
                sq[l] = d * d;
            }
            ((sq[0] + sq[4]) + (sq[2] + sq[6])) + ((sq[1] + sq[5]) + (sq[3] + sq[7]))
        }

        /// Euclidean distance over one lane block.
        #[inline]
        pub fn $l2(a: &[$f; LANES], b: &[$f; LANES]) -> $f {
            $sq_l2(a, b).sqrt()
        }

        /// Squared Euclidean norm of one lane block.
        #[inline]
        pub fn $sq_norm(a: &[$f; LANES]) -> $f {
            let mut sq = [0.0 as $f; LANES];
            for l in 0..LANES {
                sq[l] = a[l] * a[l];
            }
            ((sq[0] + sq[4]) + (sq[2] + sq[6])) + ((sq[1] + sq[5]) + (sq[3] + sq[7]))
        }

        /// Euclidean norm of one lane block.
        #[inline]
        pub fn $norm(a: &[$f; LANES]) -> $f {
            $sq_norm(a).sqrt()
        }
    };
}

lane_math!(f64, sq_l2_f64, l2_f64, sq_norm_f64, norm_f64);
lane_math!(f32, sq_l2_f32, l2_f32, sq_norm_f32, norm_f32);

/// Borrow a `LANES`-wide block out of a padded row buffer.
#[inline]
pub fn row(padded: &[f64], r: usize) -> &[f64; LANES] {
    let s = &padded[r * LANES..(r + 1) * LANES];
    // Length is LANES by construction; the conversion cannot fail.
    s.try_into().expect("padded row buffer has LANES stride")
}

/// [`row`] for `f32` buffers.
#[inline]
pub fn row_f32(padded: &[f32], r: usize) -> &[f32; LANES] {
    let s = &padded[r * LANES..(r + 1) * LANES];
    s.try_into().expect("padded row buffer has LANES stride")
}

/// One branch-free relaxation + argmin pass of the Hungarian
/// augmenting-path scan, over the free-column window `1..=m`
/// passed in as 0-based slices of length `m`.
///
/// For every column `j`: `cur = row[j] - u0 - v[j] + mask[j]`
/// (`mask[j]` is `+∞` for used columns, `0.0` otherwise, so used
/// columns compute `+∞` and never win a strict `<`), then
/// `minv[j] = min(minv[j], cur)` with `way[j] = j0` on
/// improvement, and finally `(delta, argmin)` over the updated
/// `minv` (used columns hold the `+∞` sentinel there too).
///
/// The loop body is select-only — no data-dependent branches —
/// and processes four columns per iteration so LLVM can keep the
/// relaxation in vector registers. The returned argmin index is
/// 0-based into the slices; ties resolve lane-major (see
/// DESIGN.md §13: any deterministic tie order yields an optimal
/// matching, and every caller goes through this one scan).
#[inline]
pub fn relax_scan_f64(
    row: &[f64],
    u0: f64,
    v: &[f64],
    mask: &[f64],
    minv: &mut [f64],
    way: &mut [usize],
    j0: usize,
) -> (f64, usize) {
    let m = row.len();
    debug_assert!(v.len() == m && mask.len() == m && minv.len() == m && way.len() == m && m > 0);
    const W: usize = 4;
    let mut best = [f64::INFINITY; W];
    let mut barg = [0usize; W];
    let mut j = 0;
    while j + W <= m {
        for l in 0..W {
            let cur = row[j + l] - u0 - v[j + l] + mask[j + l];
            let better = cur < minv[j + l];
            minv[j + l] = if better { cur } else { minv[j + l] };
            way[j + l] = if better { j0 } else { way[j + l] };
            let wins = minv[j + l] < best[l];
            best[l] = if wins { minv[j + l] } else { best[l] };
            barg[l] = if wins { j + l } else { barg[l] };
        }
        j += W;
    }
    while j < m {
        let cur = row[j] - u0 - v[j] + mask[j];
        let better = cur < minv[j];
        minv[j] = if better { cur } else { minv[j] };
        way[j] = if better { j0 } else { way[j] };
        let wins = minv[j] < best[0];
        best[0] = if wins { minv[j] } else { best[0] };
        barg[0] = if wins { j } else { barg[0] };
        j += 1;
    }
    let mut delta = best[0];
    let mut arg = barg[0];
    // Lanes 1.. are only written by the W-wide loop; for m < W
    // they still hold +∞ and the reduction is a no-op — skip it
    // (one predictable branch) so tiny matrices don't pay it on
    // every scan.
    if m >= W {
        for l in 1..W {
            let wins = best[l] < delta;
            delta = if wins { best[l] } else { delta };
            arg = if wins { barg[l] } else { arg };
        }
    }
    (delta, arg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_is_bit_exact_for_short_vectors() {
        let a = [1.5, -2.25, 3.0, 0.5, -0.125, 7.0];
        let b = [0.5, 2.0, -1.0, 4.0, 0.25, -3.5];
        let pa = pad(&a);
        let pb = pad(&b);
        // Sequential reference over the unpadded dims, same tree shape.
        let mut sq = [0.0; LANES];
        for i in 0..6 {
            let d = a[i] - b[i];
            sq[i] = d * d;
        }
        let want = ((sq[0] + sq[4]) + (sq[2] + sq[6])) + ((sq[1] + sq[5]) + (sq[3] + sq[7]));
        assert_eq!(sq_l2_f64(&pa, &pb).to_bits(), want.to_bits());
        // Padding lanes contribute exactly nothing.
        assert_eq!(sq_l2_f64(&pad(&a[..4]), &pad(&b[..4])).to_bits(), {
            let mut s4 = [0.0; LANES];
            for i in 0..4 {
                let d = a[i] - b[i];
                s4[i] = d * d;
            }
            (((s4[0] + s4[4]) + (s4[2] + s4[6])) + ((s4[1] + s4[5]) + (s4[3] + s4[7]))).to_bits()
        });
    }

    #[test]
    fn lane_distances_match_scalar_reference_closely() {
        let a = [0.3, 0.9, 0.27, 0.81, 0.243, 0.729, 0.2187];
        let b = [0.5, 0.25, 0.125, 0.0625, 0.7, 0.49, 0.343];
        let pa = pad(&a);
        let pb = pad(&b);
        let seq_sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((sq_l2_f64(&pa, &pb) - seq_sq).abs() < 1e-15);
        assert!((l2_f64(&pa, &pb) - seq_sq.sqrt()).abs() < 1e-15);
        let seq_n: f64 = a.iter().map(|x| x * x).sum::<f64>();
        assert!((sq_norm_f64(&pa) - seq_n).abs() < 1e-15);
        assert!((norm_f64(&pa) - seq_n.sqrt()).abs() < 1e-15);
        // f32 twin stays within f32 noise of the f64 value.
        let qa = pad_f32(&a);
        let qb = pad_f32(&b);
        assert!((sq_l2_f32(&qa, &qb) as f64 - seq_sq).abs() < 1e-5);
        assert!((norm_f32(&qa) as f64 - seq_n.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn pad_rows_layout_and_reuse() {
        let flat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = Vec::new();
        pad_rows(3, &flat, &mut out);
        assert_eq!(out.len(), 2 * LANES);
        assert_eq!(row(&out, 0), &[1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(row(&out, 1), &[4.0, 5.0, 6.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Reuse with fewer rows must not leak stale lanes.
        pad_rows(2, &[9.0, 8.0], &mut out);
        assert_eq!(out.len(), LANES);
        assert_eq!(row(&out, 0), &[9.0, 8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut out32 = Vec::new();
        pad_rows_f32(2, &[0.5, -1.5, 2.5, 3.5], &mut out32);
        assert_eq!(row_f32(&out32, 1), &[2.5, 3.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    /// Reference scalar scan with the original branchy formulation.
    fn branchy_scan(
        row: &[f64],
        u0: f64,
        v: &[f64],
        used: &[bool],
        minv: &mut [f64],
        way: &mut [usize],
        j0: usize,
    ) -> (f64, usize) {
        let mut delta = f64::INFINITY;
        let mut arg = 0usize;
        for j in 0..row.len() {
            if used[j] {
                continue;
            }
            let cur = row[j] - u0 - v[j];
            if cur < minv[j] {
                minv[j] = cur;
                way[j] = j0;
            }
            if minv[j] < delta {
                delta = minv[j];
                arg = j;
            }
        }
        (delta, arg)
    }

    #[test]
    fn relax_scan_matches_branchy_reference() {
        // Deterministic pseudo-random instances of several widths.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 40) as f64 / (1u64 << 20) as f64
        };
        for m in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 16] {
            for round in 0..8 {
                let row: Vec<f64> = (0..m).map(|_| next()).collect();
                let v: Vec<f64> = (0..m).map(|_| next() - 5.0).collect();
                let used: Vec<bool> = (0..m).map(|j| (j + round) % 3 == 0 && j + 1 < m).collect();
                let mask: Vec<f64> =
                    used.iter().map(|&u| if u { f64::INFINITY } else { 0.0 }).collect();
                let mut minv_a: Vec<f64> =
                    (0..m).map(|j| if used[j] { f64::INFINITY } else { next() }).collect();
                let mut minv_b = minv_a.clone();
                let mut way_a = vec![0usize; m];
                let mut way_b = vec![0usize; m];
                let u0 = next();
                let (da, _ja) = relax_scan_f64(&row, u0, &v, &mask, &mut minv_a, &mut way_a, round);
                let (db, _jb) = branchy_scan(&row, u0, &v, &used, &mut minv_b, &mut way_b, round);
                assert_eq!(da.to_bits(), db.to_bits(), "m={m} round={round}");
                // minv/way agree exactly on free columns; used columns
                // keep their sentinel.
                for j in 0..m {
                    assert_eq!(minv_a[j].to_bits(), minv_b[j].to_bits(), "m={m} j={j}");
                    if !used[j] {
                        assert_eq!(way_a[j], way_b[j], "m={m} j={j}");
                    }
                }
                // The argmin values agree even if tie order differs.
                assert_eq!(da.to_bits(), db.to_bits());
            }
        }
    }

    #[test]
    fn relax_scan_never_picks_a_used_column() {
        let m = 9;
        let row = vec![1.0; m];
        let v = vec![0.0; m];
        let mut mask = vec![0.0; m];
        let mut minv = vec![f64::INFINITY; m];
        let mut way = vec![0usize; m];
        // Mark everything but column 5 used.
        for j in 0..m {
            if j != 5 {
                mask[j] = f64::INFINITY;
                minv[j] = f64::INFINITY;
            }
        }
        let (delta, arg) = relax_scan_f64(&row, 0.25, &v, &mask, &mut minv, &mut way, 3);
        assert_eq!(arg, 5);
        assert!((delta - 0.75).abs() < 1e-15);
        assert_eq!(way[5], 3);
    }
}
