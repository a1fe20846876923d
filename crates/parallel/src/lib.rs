#![forbid(unsafe_code)]
//! Minimal data-parallel helpers over `std::thread::scope` — no
//! external thread-pool dependency. All helpers preserve input order,
//! propagate worker panics, and cap the worker count at 16 (the
//! workloads here saturate memory bandwidth well before that).

/// Worker count: available parallelism clamped to `[1, 16]`.
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1).clamp(1, 16)
}

/// Map `f` over `0..n` in parallel, preserving order.
///
/// Workers claim indices one at a time through an atomic next-index,
/// so a few slow items cannot leave one worker with the tail of the
/// batch while another idles. Each worker collects `(index, value)`
/// pairs in claim order — increasing — and the caller thread merges
/// those runs into input order: no `Vec<Option<T>>` intermediate, no
/// unwrap pass.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    if n == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let mut parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_count().min(n))
            .map(|_| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut part = Vec::new();
                    loop {
                        // ORDERING: Relaxed — the counter publishes no
                        // data, and results reach the caller through
                        // `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break part;
                        }
                        part.push((i, f(i)));
                    }
                })
            })
            .collect();
        let mut parts = Vec::with_capacity(handles.len());
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part.into_iter().peekable()),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        parts
    });
    // Every index below `out.len()` is placed, so the next one heads
    // some worker's run: each pass over the runs places at least one.
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for part in &mut parts {
            while let Some((_, value)) = part.next_if(|&(i, _)| i == out.len()) {
                out.push(value);
            }
        }
    }
    out
}

/// Map `f` over the elements of a slice in parallel, preserving order.
/// The closure also receives the element index, so call sites that need
/// positional context (IDs, per-item seeds) don't have to pre-zip.
pub fn par_map_slice<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map(items.len(), |i| f(i, &items[i]))
}

/// Visit every tile of the strict upper triangle `{(i, j) : i < j < n}`
/// in parallel, with one worker-local state per thread.
///
/// The triangle is cut into `tile × tile` blocks; workers claim blocks
/// dynamically through an atomic counter (diagonal blocks carry roughly
/// half the work of off-diagonal ones, so static striping would
/// imbalance). `visit` receives the worker's `&mut` state plus the
/// block's row and column ranges; for diagonal blocks the caller must
/// still skip pairs with `j <= i` — iterate
/// `cols.start.max(i + 1)..cols.end`.
///
/// The per-thread state is what makes this the right substrate for the
/// minimal-matching kernel: each worker holds one `MatchingEngine`
/// (workspace + scratch buffers) and reuses it across every pair of its
/// tiles, so the whole distance-matrix build is allocation-free after
/// warm-up.
pub fn par_tiles<S, FS, F>(n: usize, tile: usize, init: FS, visit: F)
where
    S: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>, std::ops::Range<usize>) + Sync,
{
    assert!(tile > 0, "tile size must be positive");
    if n < 2 {
        return;
    }
    // Upper-triangle blocks (bi <= bj), row-major.
    let blocks: Vec<(usize, usize)> = (0..n.div_ceil(tile))
        .flat_map(|bi| (bi..n.div_ceil(tile)).map(move |bj| (bi, bj)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..worker_count().min(blocks.len()) {
            let (next, blocks, init, visit) = (&next, &blocks, &init, &visit);
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let b = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(bi, bj)) = blocks.get(b) else { break };
                    let rows = bi * tile..((bi + 1) * tile).min(n);
                    let cols = bj * tile..((bj + 1) * tile).min(n);
                    visit(&mut state, rows, cols);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_values() {
        let v = par_map(1000, |i| i * i);
        assert_eq!(v.len(), 1000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn par_map_visits_each_index_once_in_order_under_skew() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::time::Duration;
        for n in [1usize, 2, 3, 17, 1000] {
            let visits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let v = par_map(n, |i| {
                // The first items cost far more than the rest.
                if i < 3 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                visits[i].fetch_add(1, Ordering::Relaxed);
                (i, i * 7 + 1)
            });
            let want: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 7 + 1)).collect();
            assert_eq!(v, want, "n {n}: input order");
            assert!(
                visits.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n {n}: each index once"
            );
        }
    }

    #[test]
    fn par_map_slice_passes_index_and_element() {
        let items: Vec<u64> = (0..257).map(|i| i * 3).collect();
        let v = par_map_slice(&items, |i, &x| x + i as u64);
        for (i, y) in v.iter().enumerate() {
            assert_eq!(*y, items[i] + i as u64);
        }
    }

    #[test]
    fn par_tiles_covers_the_strict_upper_triangle_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for (n, tile) in [(0usize, 4usize), (1, 4), (2, 4), (9, 4), (16, 4), (33, 8), (7, 100)] {
            let counts: Vec<AtomicU32> = (0..n * n).map(|_| AtomicU32::new(0)).collect();
            par_tiles(
                n,
                tile,
                || (),
                |_, rows, cols| {
                    for i in rows {
                        for j in cols.start.max(i + 1)..cols.end {
                            counts[i * n + j].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                },
            );
            for i in 0..n {
                for j in 0..n {
                    let want = u32::from(i < j);
                    assert_eq!(
                        counts[i * n + j].load(Ordering::Relaxed),
                        want,
                        "n {n} tile {tile} pair ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn par_tiles_worker_state_is_private_and_reused() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Each worker counts pairs in its own state; states are summed
        // at drop time. Total must equal n(n-1)/2.
        static TOTAL: AtomicUsize = AtomicUsize::new(0);
        struct Tally(usize);
        impl Drop for Tally {
            fn drop(&mut self) {
                TOTAL.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let n = 57;
        TOTAL.store(0, Ordering::Relaxed);
        par_tiles(
            n,
            8,
            || Tally(0),
            |t, rows, cols| {
                for i in rows {
                    t.0 += (cols.start.max(i + 1)..cols.end).len();
                }
            },
        );
        assert_eq!(TOTAL.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = par_map(100, |i| {
            if i == 57 {
                panic!("boom");
            }
            i
        });
    }
}
