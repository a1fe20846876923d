//! Figure 6 — reachability plots of the *volume model* (a, b) and the
//! *solid-angle model* (c, d) on the Car and Aircraft datasets.
//!
//! Paper findings to reproduce in shape:
//! * volume model: "a minimum of structure" on both datasets (poor
//!   cluster quality);
//! * solid-angle model: "slightly better" — some clusters, but impure
//!   ones and missed families.
//!
//! `cargo run --release -p vsim-bench --bin exp_fig6`
//! (env: `CAR_N`, `AIRCRAFT_N`)

use vsim_bench::{
    figure_run, print_quality_table, processed_aircraft, processed_car, SimilarityModel,
};

fn main() {
    let car = processed_car(7);
    let air = processed_aircraft(7);

    let volume = SimilarityModel::volume(6);
    let solid = SimilarityModel::solid_angle(6, 3);

    let rows = vec![
        ("fig6a volume / car".to_string(), figure_run(&car, &volume, "car", "fig6a_volume", 5)),
        (
            "fig6b volume / aircraft".to_string(),
            figure_run(&air, &volume, "aircraft", "fig6b_volume", 5),
        ),
        (
            "fig6c solid-angle / car".to_string(),
            figure_run(&car, &solid, "car", "fig6c_solidangle", 5),
        ),
        (
            "fig6d solid-angle / aircraft".to_string(),
            figure_run(&air, &solid, "aircraft", "fig6d_solidangle", 5),
        ),
    ];

    print_quality_table(&rows);
    println!(
        "\npaper expectation: both models weak; solid-angle slightly better \
         than volume (compare F1/ARI columns against exp_fig7/exp_fig9)."
    );
}
