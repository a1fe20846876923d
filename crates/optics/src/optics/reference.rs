//! OPTICS as a seed min-heap with stale entries, one component per
//! unprocessed start object, each row copied through a distance oracle.

use super::{ClusterOrdering, Optics};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Seed {
    reach: f64,
    obj: usize,
}
impl PartialEq for Seed {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o).is_eq()
    }
}
impl Eq for Seed {}
impl Ord for Seed {
    fn cmp(&self, o: &Self) -> Ordering {
        // Min-heap on reachability, tie-break on index.
        o.reach.total_cmp(&self.reach).then_with(|| o.obj.cmp(&self.obj))
    }
}
impl PartialOrd for Seed {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}

pub(crate) fn run(opt: &Optics, n: usize, dist: impl Fn(usize, usize) -> f64) -> ClusterOrdering {
    let mut processed = vec![false; n];
    let mut reach = vec![f64::INFINITY; n];
    let mut out = ClusterOrdering {
        order: Vec::with_capacity(n),
        reachability: Vec::with_capacity(n),
        core_distance: Vec::with_capacity(n),
    };
    let mut heap: BinaryHeap<Seed> = BinaryHeap::new();
    for start in 0..n {
        if processed[start] {
            continue;
        }
        heap.clear();
        heap.push(Seed { reach: f64::INFINITY, obj: start });
        while let Some(Seed { reach: r, obj: p }) = heap.pop() {
            if processed[p] {
                continue; // stale heap entry
            }
            processed[p] = true;
            let row: Vec<f64> = (0..n).map(|j| if j == p { 0.0 } else { dist(p, j) }).collect();
            let mut within: Vec<f64> = row.iter().copied().filter(|&d| d <= opt.eps).collect();
            let core = if within.len() >= opt.min_pts {
                *within.select_nth_unstable_by(opt.min_pts - 1, |a, b| a.total_cmp(b)).1
            } else {
                f64::INFINITY
            };
            out.order.push(p);
            out.reachability.push(r);
            out.core_distance.push(core);
            if core.is_finite() {
                for o in 0..n {
                    if processed[o] || row[o] > opt.eps {
                        continue;
                    }
                    let new_reach = core.max(row[o]);
                    if new_reach < reach[o] {
                        reach[o] = new_reach;
                        heap.push(Seed { reach: new_reach, obj: o });
                    }
                }
            }
        }
    }
    out
}
