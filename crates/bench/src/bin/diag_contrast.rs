//! Diagnostic (not a paper experiment): distance contrast per model —
//! mean inter-family distance divided by mean intra-family distance,
//! and nearest-neighbor classification accuracy. Higher = better
//! separation, independent of any clustering/cut heuristics.

use vsim_bench::{processed_car, SimilarityModel};

fn main() {
    let p = processed_car(9);
    let labels = p.processed.labels();
    let n = p.processed.len();

    let models = [
        SimilarityModel::volume(6),
        SimilarityModel::solid_angle(6, 3),
        SimilarityModel::cover_sequence(7),
        SimilarityModel::cover_sequence_permutation(7),
        SimilarityModel::vector_set(3),
        SimilarityModel::vector_set(5),
        SimilarityModel::vector_set(7),
        SimilarityModel::vector_set(9),
    ];
    println!("{:36} {:>10} {:>10} {:>10} {:>8}", "model", "intra", "inter", "contrast", "1NN-acc");
    for model in &models {
        let reprs = model.representations(&p);
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        let mut correct = 0usize;
        for i in 0..n {
            let mut best = (f64::INFINITY, usize::MAX);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = model.distance(&reprs[i], &reprs[j]);
                if j > i {
                    if labels[i] == labels[j] {
                        intra = (intra.0 + d, intra.1 + 1);
                    } else {
                        inter = (inter.0 + d, inter.1 + 1);
                    }
                }
                if d < best.0 {
                    best = (d, j);
                }
            }
            if labels[best.1] == labels[i] {
                correct += 1;
            }
        }
        let mi = intra.0 / intra.1 as f64;
        let me = inter.0 / inter.1 as f64;
        println!(
            "{:36} {:>10.4} {:>10.4} {:>10.3} {:>8.3}",
            model.name(),
            mi,
            me,
            me / mi,
            correct as f64 / n as f64
        );
    }
}
