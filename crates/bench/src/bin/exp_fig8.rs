//! Figure 8 — reachability plots of the cover sequence model under the
//! *minimum Euclidean distance under permutation* (Definition 4) with 7
//! covers, computed via the Kuhn-Munkres reduction of Section 4.2
//! (squared Euclidean point distance + squared-norm weights, square
//! root of the sum).
//!
//! Paper finding: these plots "look quite similar" to the vector set
//! model's (Figure 9) — the two models lead to basically equivalent
//! results.
//!
//! `cargo run --release -p vsim-bench --bin exp_fig8`

use vsim_bench::{
    figure_run, print_quality_table, processed_aircraft, processed_car, SimilarityModel,
};

fn main() {
    let car = processed_car(7);
    let air = processed_aircraft(7);
    let model = SimilarityModel::cover_sequence_permutation(7);

    let rows = vec![
        (
            "fig8a cover-seq permutation / car".to_string(),
            figure_run(&car, &model, "car", "fig8a_permutation", 5),
        ),
        (
            "fig8b cover-seq permutation / aircraft".to_string(),
            figure_run(&air, &model, "aircraft", "fig8b_permutation", 5),
        ),
    ];
    print_quality_table(&rows);
    println!(
        "\npaper expectation: quality close to exp_fig9's vector set model \
         (the two distances are order-free on the same covers)."
    );
}
