//! The correctness check every workload ends with: results against a
//! brute-force scan, compared by distance and not by id.
//!
//! The aircraft data has exact duplicates and neighbours one ulp apart,
//! so two correct k-NN answers can name different ids at the same rank.
//! A result is wrong only when it has the wrong number of hits or a
//! distance that differs rank by rank beyond `REL_TOL`; id disagreements
//! inside tolerance are counted as near ties and reported, not failed.

use vsim_index::QueryContext;
use vsim_query::FilterRefineIndex;
use vsim_setdist::VectorSet;

/// Relative tolerance on a distance, rank by rank.
pub const REL_TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Outcome of checking one answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    pub failed: bool,
    /// Ranks whose distance agrees but whose id does not.
    pub near_tie_ids: u64,
}

/// `got` against the reference `want`: same length, distances within
/// tolerance at every rank.
pub fn check_ranked(got: &[(u64, f64)], want: &[(u64, f64)]) -> Check {
    if got.len() != want.len() {
        return Check { failed: true, near_tie_ids: 0 };
    }
    let mut c = Check::default();
    for (g, w) in got.iter().zip(want) {
        if !close(g.1, w.1) {
            c.failed = true;
        } else if g.0 != w.0 {
            c.near_tie_ids += 1;
        }
    }
    c
}

/// Whether two answers are the same bits: ids and distances.
pub fn bit_identical(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The `k` nearest of `live` to `q` by exhaustive `dist`, ascending;
/// ties keep id order.
pub fn brute_force<'a>(
    live: impl Iterator<Item = (u64, &'a VectorSet)>,
    q: &VectorSet,
    k: usize,
    dist: impl Fn(&VectorSet, &VectorSet) -> f64,
) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = live.map(|(id, s)| (id, dist(q, s))).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all.truncate(k);
    all
}

/// `q` on every backend of one index (memory, file, mmap): the first
/// answer against the brute-force `want` rank by rank within tolerance,
/// the others against the first with **bit-identical distances** rank
/// by rank. Ids may differ where distances tie — the planner may pick
/// another access path for another backend, and paths order exact
/// duplicates differently — and are counted as near ties. Returns the
/// failures (of one operation per backend) and the near-tie id count.
pub fn check_backends(
    backends: &[&FilterRefineIndex],
    q: &VectorSet,
    k: usize,
    want: &[(u64, f64)],
) -> (u64, u64) {
    let (mut failed, mut near_ties) = (0, 0);
    let mut reference: Option<Vec<(u64, f64)>> = None;
    for index in backends {
        let got = index.knn_via_with(index.plan_knn(k).path, q, k, &QueryContext::ephemeral());
        let check = match (&got, &reference) {
            (Err(_), _) => Check { failed: true, near_tie_ids: 0 },
            (Ok(hits), None) => check_ranked(hits, want),
            (Ok(hits), Some(first)) => Check {
                failed: hits.len() != first.len()
                    || hits.iter().zip(first).any(|(h, f)| h.1.to_bits() != f.1.to_bits()),
                near_tie_ids: hits.iter().zip(first).filter(|(h, f)| h.0 != f.0).count() as u64,
            },
        };
        failed += u64::from(check.failed);
        near_ties += check.near_tie_ids;
        reference = reference.or(got.ok());
    }
    (failed, near_ties)
}
