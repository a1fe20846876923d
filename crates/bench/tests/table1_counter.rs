//! Table 1's permutation counter rides on the condensed-matrix build:
//! it sees each pair once, and the ordering it yields is the one the
//! figure experiments get without it.

use std::sync::atomic::{AtomicU64, Ordering};
use vsim_bench::{run_optics, Corpus, SimilarityModel};

#[test]
fn permutation_counter_counts_each_pair_once_and_keeps_the_ordering() {
    let n = 30;
    let p = Corpus::car(42, n, 7);
    let model = SimilarityModel::vector_set(7);
    let (needed, total) = (AtomicU64::new(0), AtomicU64::new(0));
    let counted = run_optics(&p, &model, 5, Some((&needed, &total)));
    let plain = run_optics(&p, &model, 5, None);

    assert_eq!(total.load(Ordering::Relaxed), (n * (n - 1) / 2) as u64);
    assert!(needed.load(Ordering::Relaxed) <= total.load(Ordering::Relaxed));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(counted.order, plain.order);
    assert_eq!(bits(&counted.reachability), bits(&plain.reachability));
    assert_eq!(bits(&counted.core_distance), bits(&plain.core_distance));
}
