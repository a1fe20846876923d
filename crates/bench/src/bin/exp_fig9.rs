//! Figure 9 — reachability plots of the *vector set model* (minimal
//! matching distance) with 3 covers (a, b) and 7 covers (c, d) on both
//! datasets.
//!
//! Paper findings: the best model overall; 7 covers are needed — with
//! only 3 covers the model shows the same shortcomings as the plain
//! cover sequence model.
//!
//! `cargo run --release -p vsim-bench --bin exp_fig9`

use vsim_bench::{
    figure_run, print_quality_table, processed_aircraft, processed_car, SimilarityModel,
};

fn main() {
    let car = processed_car(7);
    let air = processed_aircraft(7);

    let rows = vec![
        (
            "fig9a vector-set k=3 / car".to_string(),
            figure_run(&car, &SimilarityModel::vector_set(3), "car", "fig9a_vset3", 5),
        ),
        (
            "fig9b vector-set k=3 / aircraft".to_string(),
            figure_run(&air, &SimilarityModel::vector_set(3), "aircraft", "fig9b_vset3", 5),
        ),
        (
            "fig9c vector-set k=7 / car".to_string(),
            figure_run(&car, &SimilarityModel::vector_set(7), "car", "fig9c_vset7", 5),
        ),
        (
            "fig9d vector-set k=7 / aircraft".to_string(),
            figure_run(&air, &SimilarityModel::vector_set(7), "aircraft", "fig9d_vset7", 5),
        ),
    ];
    print_quality_table(&rows);
    println!(
        "\npaper expectation: k=7 beats k=3; both beat the cover sequence \
         model (exp_fig7) and the histogram models (exp_fig6)."
    );
}
