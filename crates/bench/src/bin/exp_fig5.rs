//! Figure 5 — the didactic reachability plot: a 2-D sample dataset with
//! a cluster B and a cluster A that splits into A1 and A2 at a lower cut
//! level; the plot shows the corresponding valleys and the nested cuts.
//!
//! `cargo run --release -p vsim-bench --bin exp_fig5`

use rand::prelude::*;
use vsim_bench::out_dir;
use vsim_core::prelude::*;
use vsim_optics::{extract_clusters, pairwise_tiled};

fn main() {
    // Cluster A = two nearby sub-blobs A1, A2; cluster B farther away —
    // matching the figure's structure.
    let mut rng = StdRng::seed_from_u64(5);
    let mut pts: Vec<[f64; 2]> = Vec::new();
    let blob = |cx: f64, cy: f64, r: f64, n: usize, pts: &mut Vec<[f64; 2]>, rng: &mut StdRng| {
        for _ in 0..n {
            pts.push([cx + rng.gen_range(-r..r), cy + rng.gen_range(-r..r)]);
        }
    };
    blob(0.0, 0.0, 1.0, 40, &mut pts, &mut rng); // A1
    blob(3.5, 0.0, 1.0, 40, &mut pts, &mut rng); // A2 (close to A1)
    blob(20.0, 10.0, 1.5, 50, &mut pts, &mut rng); // B

    let dist = |_: &mut (), i: usize, j: usize| -> f64 {
        let (a, b) = (pts[i], pts[j]);
        ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
    };
    let matrix = pairwise_tiled(pts.len(), 32, || (), dist);
    let ordering = Optics { min_pts: 5, eps: f64::INFINITY }.run_matrix(&matrix);
    let plot = ReachabilityPlot::from_ordering(&ordering);

    println!("=== Figure 5: reachability plot of the 2-D sample dataset ===");
    print!("{}", plot.ascii(100, 12));

    // Two cut levels: eps1 separates A and B; eps2 additionally splits
    // A into A1 and A2 (the figure's epsilon_1 / epsilon_2).
    let eps1 = 8.0;
    let eps2 = 1.2;
    let c1 = extract_clusters(&ordering, eps1, 5);
    let c2 = extract_clusters(&ordering, eps2, 5);
    println!("cut at eps1 = {eps1}: {} clusters (paper: A, B)", c1.num_clusters());
    println!("cut at eps2 = {eps2}: {} clusters (paper: A1, A2, B)", c2.num_clusters());
    assert_eq!(c1.num_clusters(), 2);
    assert_eq!(c2.num_clusters(), 3);

    let path = out_dir().join("fig5_sample2d.csv");
    let f = std::fs::File::create(&path).unwrap();
    plot.write_csv(std::io::BufWriter::new(f)).unwrap();
    println!("series written to {}", path.display());
}
