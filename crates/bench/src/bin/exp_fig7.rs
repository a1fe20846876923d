//! Figure 7 — reachability plots of the *cover sequence model* with 7
//! covers (plain Euclidean distance on the 42-d one-vector features) on
//! the Car (a) and Aircraft (b) datasets.
//!
//! Paper findings: "considerably better" than the histogram models, but
//! (1) meaningful cluster hierarchies are lost, (2) some clusters are
//! missed, and (3) dissimilar objects end up in one class (class X) —
//! all due to the fixed cover order.
//!
//! `cargo run --release -p vsim-bench --bin exp_fig7`

use vsim_bench::{
    figure_run, print_quality_table, processed_aircraft, processed_car, SimilarityModel,
};

fn main() {
    let car = processed_car(7);
    let air = processed_aircraft(7);
    let model = SimilarityModel::cover_sequence(7);

    let rows = vec![
        (
            "fig7a cover-sequence / car".to_string(),
            figure_run(&car, &model, "car", "fig7a_coverseq", 5),
        ),
        (
            "fig7b cover-sequence / aircraft".to_string(),
            figure_run(&air, &model, "aircraft", "fig7b_coverseq", 5),
        ),
    ];
    print_quality_table(&rows);
    println!(
        "\npaper expectation: clearly better than fig6 (histograms), \
         clearly worse than fig9 (vector set)."
    );
}
