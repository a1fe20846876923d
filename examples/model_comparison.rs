//! Compare all four similarity models of the paper on one dataset:
//! volume, solid-angle, cover sequence (with and without permutation)
//! and vector set — reporting OPTICS-based cluster quality for each
//! (the quantitative analogue of Figures 6-9).
//!
//! Run with: `cargo run --release --example model_comparison [n_objects]`

use vsim_bench::{Corpus, SimilarityModel};
use vsim_core::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(120);

    println!("generating {n} synthetic car parts...");
    let corpus = Corpus::car(42, n, 7);
    let labels = corpus.processed.labels();

    let models = [
        SimilarityModel::volume(6),
        SimilarityModel::solid_angle(6, 3),
        SimilarityModel::cover_sequence(7),
        SimilarityModel::cover_sequence_permutation(7),
        SimilarityModel::vector_set(7),
        SimilarityModel::vector_set(3),
    ];

    println!(
        "\n{:34} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "model", "clusters", "noise", "purity", "F1", "ARI"
    );
    let optics = Optics { min_pts: 4, eps: f64::INFINITY };
    for model in &models {
        let reprs = model.representations(&corpus);
        let ordering = optics.run_matrix(&model.pairwise_matrix(&reprs));
        let q = best_cut(&ordering, &labels, 3, vsim_optics::DEFAULT_GRID);
        println!(
            "{:34} {:>9} {:>7} {:>7.3} {:>7.3} {:>7.3}",
            model.name(),
            q.num_clusters,
            q.noise,
            q.purity,
            q.f1,
            q.ari
        );
    }
    println!(
        "\nexpected ordering (paper, Sec. 5.3): volume < solid-angle < \
         cover-sequence < vector-set; permutation ≈ vector-set; k=3 < k=7."
    );
}
