//! Condensed pairwise distance matrices for whole-database clustering.
//!
//! OPTICS over the full dataset reads every object's distance row once.
//! The distance is evaluated once per pair into the strict upper
//! triangle — `n(n-1)/2` entries, half the naive `n²` — and
//! [`Optics::run_matrix`](crate::Optics::run_matrix) reads the rows in
//! place.
//!
//! [`pairwise_tiled`] builds the triangle in parallel tiles via
//! [`vsim_parallel::par_tiles`]: each worker thread owns one
//! caller-provided state (typically a `vsim_setdist::MatchingEngine`
//! with its workspace and scratch buffers) and reuses it across all of
//! its tiles, so the build performs no per-pair allocations.

/// Strict upper triangle of a symmetric `n × n` distance matrix in
/// condensed (row-major) layout: entry `(i, j)` with `i < j` lives at
/// `i*n - i*(i+1)/2 + (j - i - 1)`.
#[derive(Debug, Clone)]
pub struct CondensedDistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedDistanceMatrix {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The condensed buffer (length `n(n-1)/2`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between objects `i` and `j` (symmetric, zero diagonal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        use std::cmp::Ordering::*;
        match i.cmp(&j) {
            Less => self.data[self.index(i, j)],
            Equal => 0.0,
            Greater => self.data[self.index(j, i)],
        }
    }

    /// Copy row `p` into `out` (length `n`): contiguous in the buffer for
    /// `j > p`, strided for `j < p`, zero at `j = p`.
    pub(crate) fn row_into(&self, p: usize, out: &mut [f64]) {
        let n = self.n;
        debug_assert!(p < n && out.len() == n);
        // One past index(j, p), which is p - 1 at j = 0 and grows by
        // index(j + 1, p) - index(j, p) = n - j - 2.
        let mut at = p;
        for (j, v) in out[..p].iter_mut().enumerate() {
            *v = self.data[at - 1];
            at += n - j - 2;
        }
        out[p] = 0.0;
        let base = p * n - p * (p + 1) / 2;
        out[p + 1..].copy_from_slice(&self.data[base..base + (n - p - 1)]);
    }
}

/// Build the condensed upper triangle for `n` objects in parallel tiles.
///
/// `init` creates one worker-local state per thread; `dist` computes the
/// distance for a pair `(i, j)` with `i < j` using that state. Tiles are
/// `tile × tile` blocks of the triangle claimed dynamically, so slow
/// tiles (large sets) don't straggle behind a static partition.
///
/// Distances must be symmetric; only `i < j` pairs are ever requested,
/// and each exactly once, so the result is bit-identical to a sequential
/// build with the same `dist`.
pub fn pairwise_tiled<S, FS, D>(n: usize, tile: usize, init: FS, dist: D) -> CondensedDistanceMatrix
where
    S: Send,
    FS: Fn() -> S + Sync,
    D: Fn(&mut S, usize, usize) -> f64 + Sync,
{
    let len = n * n.saturating_sub(1) / 2;
    let mut data = vec![0.0f64; len];
    struct Cells(*mut f64);
    // SAFETY: workers write disjoint condensed ranges (each (i, j) pair
    // belongs to exactly one tile), so moving the base pointer across
    // threads cannot race.
    unsafe impl Send for Cells {}
    // SAFETY: as above — concurrent writers always target disjoint cells.
    unsafe impl Sync for Cells {}
    let cells = Cells(data.as_mut_ptr());
    let cells = &cells;
    vsim_parallel::par_tiles(n, tile, init, |state, rows, cols| {
        for i in rows {
            let row_base = i * n - i * (i + 1) / 2;
            for j in cols.start.max(i + 1)..cols.end {
                let d = dist(state, i, j);
                // SAFETY: idx < len because i < j < n, and no other tile
                // covers this (i, j).
                unsafe { *cells.0.add(row_base + (j - i - 1)) = d };
            }
        }
    });
    CondensedDistanceMatrix { n, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<f64> {
        vec![0.0, 0.1, 0.2, 0.3, 10.0, 10.1, 10.2, 10.3, 50.0, 51.0, 3.0]
    }

    fn build(tile: usize) -> CondensedDistanceMatrix {
        let p = pts();
        pairwise_tiled(
            p.len(),
            tile,
            || 0usize,
            |calls, i, j| {
                *calls += 1;
                (p[i] - p[j]).abs()
            },
        )
    }

    #[test]
    fn matrix_matches_direct_distances_for_all_pairs() {
        let p = pts();
        for tile in [1, 2, 3, 64] {
            let m = build(tile);
            assert_eq!(m.len(), p.len());
            assert_eq!(m.as_slice().len(), p.len() * (p.len() - 1) / 2);
            for i in 0..p.len() {
                for j in 0..p.len() {
                    let want = (p[i] - p[j]).abs();
                    assert_eq!(m.get(i, j), want, "tile {tile} pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton_matrices() {
        let m = pairwise_tiled(0, 4, || (), |_, _, _| unreachable!());
        assert!(m.is_empty());
        let m = pairwise_tiled(1, 4, || (), |_, _, _| unreachable!());
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }
}
