//! OPTICS clustering of the Car Dataset under the vector set model —
//! the paper's Section 5 evaluation methodology, with an ASCII
//! reachability plot (Figure 9(c) analogue) and cluster quality scores
//! against the ground-truth part families.
//!
//! Run with: `cargo run --release --example car_clustering`

use vsim_core::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(200);

    println!("generating {n} synthetic car parts...");
    let data = car_dataset(42, n);
    let labels = data.labels();
    let class_names = data.class_names.clone();
    let hist = data.class_histogram();
    for (name, count) in class_names.iter().zip(&hist) {
        println!("  {name:14} x{count}");
    }

    println!("\ncomputing greedy cover sequences (k = 7)...");
    let sets = ProcessedDataset::build(data, 7).vector_sets(7);

    println!("running OPTICS (MinPts = 5)...");
    let matrix = matching_matrix(sets, MinimalMatching::vector_set_model());
    let ordering = Optics { min_pts: 5, eps: f64::INFINITY }.run_matrix(&matrix);

    let plot = ReachabilityPlot::from_ordering(&ordering);
    println!("\nreachability plot ({} objects, valleys = clusters):", plot.len());
    print!("{}", plot.ascii(100, 12));

    // Score the best epsilon-cut against the ground-truth families.
    let q = best_cut(&ordering, &labels, 4, vsim_optics::DEFAULT_GRID);
    println!(
        "\nbest cut: eps = {:.3} -> {} clusters, {} noise objects",
        q.eps, q.num_clusters, q.noise
    );
    println!(
        "cluster quality vs ground truth: purity = {:.3}, pairwise F1 = {:.3}, ARI = {:.3}",
        q.purity, q.f1, q.ari
    );

    // Show the majority family of each extracted cluster.
    let clustering = extract_clusters(&ordering, q.eps, 4);
    println!("\nclusters found:");
    for (ci, members) in clustering.clusters.iter().enumerate() {
        let mut counts = vec![0usize; class_names.len()];
        for &m in members {
            counts[labels[m]] += 1;
        }
        let (best_label, best_count) = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
        println!(
            "  cluster {ci:2}: {:3} objects, {:3}% {}",
            members.len(),
            100 * best_count / members.len(),
            class_names[best_label]
        );
    }
}
