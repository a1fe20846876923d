//! Entry-major lane kernels of the X-tree.
//!
//! A node stores its entries in blocks of [`W`], coordinate-major
//! inside a block: row `r` of a block is `W` contiguous values, one per
//! entry. A leaf block has `dim` rows (coordinate `d` of `W` points); a
//! directory block has `2·dim` rows (row `2d` the low bound, row `2d+1`
//! the high bound of `W` children in dimension `d`).
//!
//! The lanes run across *entries*, never across dimensions: each lane
//! accumulates its own entry over `d = 0..dim` in order, which is the
//! operation order of the scalar loops these kernels replace and of
//! the sorted scan (`PointFile::scan_ranked`). Every distance computed
//! here therefore has the bits the scalar code produced, and the two
//! access paths keep emitting bit-identical filter distances. (A reduction
//! across dimensions — the pairwise tree of `vsim_setdist::simd` — would
//! be as fast and round differently.)
//!
//! The loops have constant trip counts over fixed-size arrays and no
//! data-dependent branches, so LLVM vectorizes them on every target
//! without intrinsics or feature gates. Lanes past a node's last entry
//! hold stale or zero values; callers take the first `len` results and
//! ignore the rest.

/// Entries per block.
pub(crate) const W: usize = 8;

/// Squared Euclidean distances from `center` to the points of one leaf
/// block.
#[inline]
pub(crate) fn leaf_dist2(block: &[f64], center: &[f64]) -> [f64; W] {
    let mut acc = [0.0; W];
    for (row, &c) in block.as_chunks::<W>().0.iter().zip(center) {
        for (a, &x) in acc.iter_mut().zip(row) {
            let t = x - c;
            *a += t * t;
        }
    }
    acc
}

/// Squared MINDISTs from `center` to the child rectangles of one
/// directory block. Per dimension the distance is the larger of
/// `lo − c`, `c − hi` and zero — the value the comparison chain
/// `c < lo`, `c > hi`, else zero selects, without its branches, which a
/// fresh query centre makes unpredictable (27 ns a child against 4.5).
/// `max` drops a NaN operand, so a NaN coordinate of `center` adds zero
/// as it did when it failed both comparisons, `∞ − ∞` against an
/// infinite bound does the same, and the result is never NaN.
#[inline]
pub(crate) fn child_mindist2(block: &[f64], center: &[f64]) -> [f64; W] {
    let mut acc = [0.0; W];
    for ([lo, hi], &c) in block.as_chunks::<W>().0.as_chunks::<2>().0.iter().zip(center) {
        for ((a, &lo), &hi) in acc.iter_mut().zip(lo).zip(hi) {
            let v = (lo - c).max(c - hi).max(0.0);
            *a += v * v;
        }
    }
    acc
}

/// Which child rectangles of one directory block hold `point`: a
/// coordinate inside `[low, high]` (bounds included) in every dimension.
/// A NaN coordinate is outside no rectangle — a cover keeps NaN out, so
/// it says nothing about the NaNs below it — and each lane's test is
/// the comparisons `low ≤ p`, `p ≤ high` of the scalar one.
#[inline]
pub(crate) fn child_holds(block: &[f64], point: &[f64]) -> [bool; W] {
    let mut holds = [true; W];
    for ([lo, hi], &p) in block.as_chunks::<W>().0.as_chunks::<2>().0.iter().zip(point) {
        if p.is_nan() {
            continue;
        }
        for ((h, &lo), &hi) in holds.iter_mut().zip(lo).zip(hi) {
            *h &= (lo <= p) & (p <= hi);
        }
    }
    holds
}

/// L1 enlargement needed to take `point` in, and current margin, of the
/// child rectangles of one directory block: `(enlargement, margin)`.
/// The grown bounds are compare-and-selects, which leave a bound where a
/// NaN coordinate is, as `max` / `min` do; they may pick the other sign
/// of a zero than `max` / `min` would, which changes no value the
/// caller compares.
#[inline]
pub(crate) fn enlargement(block: &[f64], point: &[f64]) -> ([f64; W], [f64; W]) {
    let mut enl = [0.0; W];
    let mut margin = [0.0; W];
    for ([lo, hi], &p) in block.as_chunks::<W>().0.as_chunks::<2>().0.iter().zip(point) {
        for (((e, m), &lo), &hi) in enl.iter_mut().zip(&mut margin).zip(lo).zip(hi) {
            let side = hi - lo;
            let (up, down) = (if p > hi { p } else { hi }, if p < lo { p } else { lo });
            *e += (up - down) - side;
            *m += side;
        }
    }
    (enl, margin)
}

/// One live point of an expanded leaf in the cursor's scratch.
#[derive(Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) dist2: f64,
    pub(crate) id: u64,
}

/// Position and squared distance of the nearest of `slots`, which must
/// not be empty. A NaN loses to every number, so one is returned only
/// when nothing else is left: a leaf holding both keeps its numbers in
/// order.
#[inline]
pub(crate) fn min_scan(slots: &[Slot]) -> (usize, f64) {
    let (blocks, tail) = slots.as_chunks::<W>();
    let mut mins = [f64::INFINITY; W];
    for block in blocks {
        for (m, s) in mins.iter_mut().zip(block) {
            *m = if s.dist2 < *m { s.dist2 } else { *m };
        }
    }
    let tail = tail.iter().map(|s| &s.dist2);
    let min = mins.iter().chain(tail).fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
    match slots.iter().position(|s| s.dist2 == min) {
        Some(at) => (at, min),
        None => (0, slots[0].dist2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One block of `rows` rows from entry-major `entries`.
    fn block(entries: &[Vec<f64>]) -> Vec<f64> {
        let rows = entries[0].len();
        let mut out = vec![0.0; rows * W];
        for (l, e) in entries.iter().enumerate() {
            for (r, &v) in e.iter().enumerate() {
                out[r * W + l] = v;
            }
        }
        out
    }

    #[test]
    fn leaf_distances_have_the_bits_of_the_sequential_sum() {
        let pts: Vec<Vec<f64>> = (0..W)
            .map(|i| (0..6).map(|d| (i * 7 + d) as f64 * 0.37 + 1.0 / (d + 3) as f64).collect())
            .collect();
        let c = [0.3, 1.7, -2.9, 4.1, 0.05, 9.9];
        let got = leaf_dist2(&block(&pts), &c);
        for (p, g) in pts.iter().zip(got) {
            let want: f64 = p.iter().zip(&c).map(|(a, b)| (a - b) * (a - b)).sum();
            assert_eq!(g.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn mindist_is_zero_inside_and_never_nan() {
        // Children as interleaved [lo0, hi0, lo1, hi1].
        let kids = vec![vec![0.0, 1.0, 0.0, 1.0], vec![2.0, 3.0, -1.0, f64::INFINITY]];
        let b = block(&kids);
        assert_eq!(child_mindist2(&b, &[0.5, 0.5])[..2], [0.0, 2.25]);
        assert_eq!(child_mindist2(&b, &[4.0, -3.0])[..2], [9.0 + 9.0, 1.0 + 4.0]);
        assert_eq!(child_mindist2(&b, &[f64::NAN, 0.5])[..2], [0.0, 0.0]);
        assert_eq!(child_mindist2(&b, &[f64::INFINITY, f64::INFINITY])[1], f64::INFINITY);
    }

    #[test]
    fn containment_takes_both_bounds_and_passes_nan() {
        let kids = vec![vec![0.0, 1.0, 0.0, 1.0], vec![2.0, 3.0, -1.0, f64::INFINITY]];
        let b = block(&kids);
        assert_eq!(child_holds(&b, &[0.0, 1.0])[..2], [true, false]);
        assert_eq!(child_holds(&b, &[3.0, f64::INFINITY])[..2], [false, true]);
        assert_eq!(child_holds(&b, &[f64::NAN, 0.5])[..2], [true, true]);
        assert_eq!(child_holds(&b, &[2.5, f64::NAN])[..2], [false, true]);
        assert_eq!(child_holds(&b, &[-0.0, -0.0])[..2], [true, false]);
    }

    #[test]
    fn enlargement_and_margin_match_the_scalar_formula() {
        let kids = vec![vec![0.0, 1.0, 0.0, 2.0], vec![-1.0, 0.5, 3.0, 3.0]];
        let (enl, margin) = enlargement(&block(&kids), &[2.0, 1.0]);
        assert_eq!(enl[..2], [1.0, 1.5 + 2.0]);
        assert_eq!(margin[..2], [3.0, 1.5]);
    }

    #[test]
    fn min_scan_prefers_numbers_to_nan_and_the_first_of_equals() {
        let scan = |d2: &[f64]| {
            let slots: Vec<Slot> = d2.iter().map(|&dist2| Slot { dist2, id: 0 }).collect();
            min_scan(&slots)
        };
        assert_eq!(scan(&[3.0, 1.0, 2.0, 1.0]), (1, 1.0));
        let long: Vec<f64> = (0..29).map(|i| ((i * 7 + 3) % 29) as f64).collect();
        assert_eq!(scan(&long), (12, 0.0));
        assert_eq!(scan(&[f64::NAN, f64::INFINITY, f64::NAN]), (1, f64::INFINITY));
        assert_eq!(scan(&[-f64::NAN, 5.0]), (1, 5.0));
        let (at, v) = scan(&[f64::NAN, f64::NAN]);
        assert!(at < 2 && v.is_nan());
    }

    /// This test binary's allocator: `System`, plus a count of the
    /// allocations each thread makes, so that tests running in parallel
    /// do not see each other's.
    #[allow(unsafe_code)]
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        }

        /// Allocations (and reallocations) made by this thread so far.
        pub(super) fn allocations() -> u64 {
            ALLOCATIONS.get()
        }

        struct Counting;

        // SAFETY: every operation delegates to `System`, adding only a
        // thread-local counter bump that never allocates (const
        // initialiser, no destructor), so `GlobalAlloc`'s contracts are
        // inherited.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                ALLOCATIONS.set(ALLOCATIONS.get() + 1);
                // SAFETY: the caller's layout, passed on unchanged.
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: `ptr` came from `System` with this layout.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                ALLOCATIONS.set(ALLOCATIONS.get() + 1);
                // SAFETY: `ptr` / `layout` came from `System`; `new_size`
                // is the caller's per the trait contract.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static ALLOCATOR: Counting = Counting;
    }

    #[test]
    fn lane_kernels_never_allocate() {
        use std::hint::black_box;
        let pts: Vec<Vec<f64>> =
            (0..W).map(|i| (0..6).map(|d| ((i * 5 + d * 3) % 11) as f64 - 4.5).collect()).collect();
        let kids: Vec<Vec<f64>> =
            pts.iter().map(|p| p.iter().flat_map(|&v| [v, v + 2.0]).collect()).collect();
        let (leaf, dir) = (block(&pts), block(&kids));
        let slots: Vec<Slot> =
            (0..29).map(|i| Slot { dist2: ((i * 7 + 3) % 29) as f64, id: i }).collect();
        let centers = [[0.3, 1.7, -2.9, 4.1, 0.05, 9.9], [f64::NAN, 0.0, 1.0, -1.0, 2.0, -2.0]];

        let before = counting::allocations();
        for c in &centers {
            black_box(leaf_dist2(black_box(&leaf), black_box(c)));
            black_box(child_mindist2(black_box(&dir), black_box(c)));
            black_box(enlargement(black_box(&dir), black_box(c)));
            black_box(child_holds(black_box(&dir), black_box(c)));
        }
        for len in [1, W, slots.len()] {
            black_box(min_scan(black_box(&slots[..len])));
        }
        assert_eq!(counting::allocations() - before, 0, "a lane kernel allocated");
    }
}
