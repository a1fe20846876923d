//! Table 1 — "Percentage of proper permutations": the fraction of
//! minimal-matching-distance computations during an OPTICS run in which
//! the optimal matching is *not* the identity permutation, for
//! k ∈ {3, 5, 7, 9} covers.
//!
//! The counter sits in the build of the condensed distance matrix that
//! OPTICS then orders, so "distance calcs" is `n(n-1)/2`: each pair is
//! evaluated once, in the orientation `(i, j)` with `i < j`.
//!
//! Paper values: k=3 → 68.2 %, k=5 → 95.1 %, k=7 → 99.0 %, k=9 → 99.4 %.
//!
//! `cargo run --release -p vsim-bench --bin exp_table1` (env: `CAR_N`)

use std::sync::atomic::{AtomicU64, Ordering};
use vsim_bench::{processed_car, run_optics, SimilarityModel};

fn main() {
    let p = processed_car(9);
    let paper = [(3usize, 68.2), (5, 95.1), (7, 99.0), (9, 99.4)];

    println!("\n=== Table 1: percentage of proper permutations (OPTICS run, Car Dataset) ===");
    println!(
        "{:>12} {:>14} {:>14} {:>16}",
        "No. covers", "paper [%]", "measured [%]", "distance calcs"
    );
    let mut measured = Vec::new();
    for &(k, paper_pct) in &paper {
        // Re-slice the k_max = 9 sequences to k covers (prefix property).
        let model = SimilarityModel::vector_set(k);
        let needed = AtomicU64::new(0);
        let total = AtomicU64::new(0);
        let _ordering = run_optics(&p, &model, 5, Some((&needed, &total)));
        let pct = 100.0 * needed.load(Ordering::Relaxed) as f64
            / total.load(Ordering::Relaxed).max(1) as f64;
        println!(
            "{:>12} {:>14.1} {:>14.1} {:>16}",
            k,
            paper_pct,
            pct,
            total.load(Ordering::Relaxed)
        );
        measured.push((k, pct));
    }

    // Shape check: monotone increase with k, high at k >= 7.
    let monotone = measured.windows(2).all(|w| w[1].1 >= w[0].1 - 1.0);
    println!(
        "\nshape: rate increases with k: {}  |  k=7 rate {:.1}% (paper 99.0%)",
        if monotone { "YES" } else { "NO" },
        measured.iter().find(|(k, _)| *k == 7).unwrap().1
    );
}
