//! Paper-level properties verified end to end on synthetic CAD data:
//! the claims of Sections 4 and 5 that do not need the full experiment
//! harness (those live in `crates/bench`).

use vsim_bench::{Corpus, SimilarityModel};
use vsim_core::prelude::*;
use vsim_setdist::matching::MinimalMatching;

fn processed_car(n: usize, k_max: usize, seed: u64) -> ProcessedDataset {
    ProcessedDataset::build(car_dataset(seed, n), k_max)
}

/// Section 4.2: the minimum Euclidean distance under permutation equals
/// the square root of the matching distance with squared Euclidean point
/// distance and squared-norm weights — verified against brute-force
/// permutation enumeration on real cover data.
#[test]
fn permutation_distance_equivalence_on_real_covers() {
    let p = processed_car(30, 4, 21);
    let sets = p.vector_sets(4);
    let mm = MinimalMatching::permutation_model();
    for i in (0..sets.len()).step_by(5) {
        for j in (0..sets.len()).step_by(7) {
            let fast = mm.distance_value(&sets[i], &sets[j]);
            let slow =
                vsim_setdist::matching::brute_force_matching_distance(&mm, &sets[i], &sets[j]);
            assert!(
                (fast - slow).abs() < 1e-9,
                "Kuhn-Munkres {fast} vs brute force {slow} for pair ({i},{j})"
            );
        }
    }
}

/// Table 1's trend: with more covers, a larger fraction of distance
/// computations requires a non-identity permutation.
#[test]
fn permutation_rate_increases_with_k() {
    let p = processed_car(60, 9, 22);
    let mut rates = Vec::new();
    for k in [3usize, 7] {
        let sets = p.vector_sets(k);
        let mm = MinimalMatching::vector_set_model();
        let mut needed = 0usize;
        let mut total = 0usize;
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                total += 1;
                if mm.match_sets(&sets[i], &sets[j]).permutation_needed {
                    needed += 1;
                }
            }
        }
        rates.push(needed as f64 / total as f64);
    }
    assert!(
        rates[1] > rates[0],
        "permutation rate must grow with k: k=3 -> {:.2}, k=7 -> {:.2}",
        rates[0],
        rates[1]
    );
    // The paper reports 68.2% already at k = 3 and 99% at k = 7.
    assert!(rates[1] > 0.5, "k=7 rate suspiciously low: {:.2}", rates[1]);
}

/// Lemma 1's conditions hold for the paper's instantiation on real data:
/// no cover has zero volume, so w(x) > 0, and the metric axioms hold on
/// a data sample.
#[test]
fn vector_set_distance_is_metric_on_real_data() {
    let p = processed_car(25, 7, 23);
    let sets = p.vector_sets(7);
    // Covers always have volume -> nonzero feature vectors.
    for s in &sets {
        for v in s.iter() {
            assert!(v[3] > 0.0 && v[4] > 0.0 && v[5] > 0.0, "cover with zero extent found");
        }
    }
    let mm = MinimalMatching::vector_set_model();
    vsim_setdist::metric::check_metric_axioms(&mm, &sets[..12], 1e-9).unwrap();
}

/// The centroid filter is not just correct but *selective*: on real
/// data, the lower bound is a decent fraction of the exact distance.
#[test]
fn centroid_filter_selectivity() {
    let p = processed_car(50, 7, 24);
    let sets = p.vector_sets(7);
    let omega = vec![0.0; 6];
    let mm = MinimalMatching::vector_set_model();
    let mut ratio_sum = 0.0;
    let mut count = 0;
    for i in (0..sets.len()).step_by(3) {
        let ci = extended_centroid(&sets[i], 7, &omega);
        for j in (i + 1..sets.len()).step_by(3) {
            let cj = extended_centroid(&sets[j], 7, &omega);
            let lb = centroid_lower_bound(&mm, &ci, &cj, 7);
            let exact = mm.distance_value(&sets[i], &sets[j]);
            if exact > 1e-12 {
                ratio_sum += lb / exact;
                count += 1;
            }
        }
    }
    let mean_ratio = ratio_sum / count as f64;
    assert!(
        mean_ratio > 0.05,
        "filter bound too loose to be useful: mean lb/exact = {mean_ratio:.3}"
    );
}

/// Section 5.3's headline: the vector set model separates part families
/// better than the volume model (quantified via OPTICS + best-cut F1).
#[test]
fn vector_set_beats_volume_model_on_clustering() {
    let p = Corpus::car(25, 80, 7);
    let labels = p.processed.labels();
    let optics = Optics { min_pts: 3, eps: f64::INFINITY };

    let score = |model: &SimilarityModel| {
        let reprs = model.representations(&p);
        let ordering = optics.run_matrix(&model.pairwise_matrix(&reprs));
        best_cut(&ordering, &labels, 3, vsim_optics::DEFAULT_GRID).f1
    };
    let f1_volume = score(&SimilarityModel::volume(6));
    let f1_vset = score(&SimilarityModel::vector_set(7));
    assert!(
        f1_vset > f1_volume,
        "vector set F1 {f1_vset:.3} must beat volume model F1 {f1_volume:.3}"
    );
}

/// Figures 8 vs 9: the permutation distance on the one-vector model and
/// the matching distance on the vector set model "lead to basically
/// equivalent results" — their k-NN rankings agree closely.
#[test]
fn permutation_and_vector_set_models_rank_alike() {
    let p = processed_car(60, 7, 26);
    let sets = p.vector_sets(7);
    let perm = MinimalMatching::permutation_model();
    let vset = MinimalMatching::vector_set_model();
    let mut overlap_sum = 0.0;
    let queries = [0usize, 10, 20, 30];
    for &q in &queries {
        let knn = |mm: &MinimalMatching| -> Vec<u64> {
            let mut all: Vec<(u64, f64)> = sets
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u64, mm.distance_value(&sets[q], s)))
                .collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1));
            all.truncate(10);
            all.into_iter().map(|(i, _)| i).collect()
        };
        let a: std::collections::HashSet<u64> = knn(&perm).into_iter().collect();
        let b: std::collections::HashSet<u64> = knn(&vset).into_iter().collect();
        overlap_sum += a.intersection(&b).count() as f64 / 10.0;
    }
    let mean_overlap = overlap_sum / queries.len() as f64;
    assert!(mean_overlap >= 0.6, "10-NN overlap between the two distances only {mean_overlap:.2}");
}
