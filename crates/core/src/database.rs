//! Processed datasets: the expensive per-object computations (greedy
//! cover sequences) done once, in parallel, and shared across models and
//! experiments.

use crate::model::{Invariance, Repr, SimilarityModel};
use vsim_datagen::Dataset;
use vsim_features::{greedy_cover_sequence, CoverSequence};
use vsim_optics::CondensedDistanceMatrix;
use vsim_parallel::par_map_slice;
use vsim_setdist::{MatchingEngine, PreparedSet, VectorSet};

/// A dataset plus its precomputed cover sequences.
///
/// The greedy construction is *incremental*: the sequence for `k` covers
/// is a prefix of the sequence for `k_max ≥ k` covers, so one pass at
/// `k_max` serves every smaller `k` (used by Table 1's k ∈ {3,5,7,9}
/// sweep and Figure 9's 3-vs-7 comparison).
pub struct ProcessedDataset {
    pub dataset: Dataset,
    pub sequences: Vec<CoverSequence>,
    pub k_max: usize,
}

impl ProcessedDataset {
    /// Compute cover sequences for every object (parallel).
    pub fn build(dataset: Dataset, k_max: usize) -> Self {
        let sequences =
            par_map_slice(&dataset.objects, |_, o| greedy_cover_sequence(&o.grid15, k_max));
        ProcessedDataset { dataset, sequences, k_max }
    }

    pub fn len(&self) -> usize {
        self.dataset.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dataset.is_empty()
    }

    pub fn labels(&self) -> Vec<usize> {
        self.dataset.labels()
    }

    /// Vector sets with at most `k ≤ k_max` covers.
    pub fn vector_sets(&self, k: usize) -> Vec<VectorSet> {
        assert!(k <= self.k_max, "k = {k} exceeds precomputed k_max = {}", self.k_max);
        let model = vsim_features::VectorSetModel::new(k);
        self.sequences.iter().map(|s| model.from_sequence(s)).collect()
    }

    /// `6k`-dimensional one-vector representations (with dummy covers).
    pub fn cover_vectors(&self, k: usize) -> Vec<Vec<f64>> {
        assert!(k <= self.k_max, "k = {k} exceeds precomputed k_max = {}", self.k_max);
        let model = vsim_features::CoverSequenceModel::new(k);
        self.sequences.iter().map(|s| model.from_sequence(s)).collect()
    }

    /// Representations of every object under `model`, reusing the
    /// precomputed sequences for cover-based models and extracting
    /// histograms in parallel otherwise.
    pub fn representations(&self, model: &SimilarityModel) -> Vec<Repr> {
        // Cover-based models reuse the shared sequences.
        if let Some(first) = self.sequences.first() {
            if let Some(_r) = model.from_sequence(first) {
                return self.sequences.iter().map(|s| model.from_sequence(s).unwrap()).collect();
            }
        }
        par_map_slice(&self.dataset.objects, |_, o| model.extract(o))
    }

    /// Materialize the full pairwise distance matrix (upper triangle
    /// only) in parallel tiles: the input of
    /// [`vsim_optics::Optics::run_matrix`].
    ///
    /// For set-based models without pose invariance, each worker thread
    /// holds one [`MatchingEngine`] and the per-object weight tables are
    /// precomputed once ([`PreparedSet`]), so the whole build performs
    /// no per-pair allocations. Entries are bit-identical to
    /// [`SimilarityModel::distance`] on the same representations.
    pub fn pairwise_matrix(
        &self,
        model: &SimilarityModel,
        reprs: &[Repr],
    ) -> CondensedDistanceMatrix {
        let n = reprs.len();
        let tile = 32;
        if model.invariance == Invariance::None {
            if let Some(mm) = model.matching() {
                let prepared: Vec<PreparedSet> =
                    reprs.iter().map(|r| PreparedSet::new(r.as_set().clone(), &mm)).collect();
                return vsim_optics::pairwise_tiled(
                    n,
                    tile,
                    || MatchingEngine::new(mm),
                    |engine, i, j| engine.distance_prepared(&prepared[i], &prepared[j]),
                );
            }
        }
        vsim_optics::pairwise_tiled(n, tile, || (), |_, i, j| model.distance(&reprs[i], &reprs[j]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use vsim_datagen::car::car_dataset;

    fn small() -> ProcessedDataset {
        ProcessedDataset::build(car_dataset(11, 20), 9)
    }

    #[test]
    fn sequences_cover_every_object() {
        let p = small();
        assert_eq!(p.sequences.len(), 20);
        for s in &p.sequences {
            assert!(!s.units.is_empty());
            assert!(s.units.len() <= 9);
        }
    }

    #[test]
    fn prefix_property_of_greedy_sequences() {
        // vector_sets(3) must be a prefix of vector_sets(7).
        let p = small();
        let v3 = p.vector_sets(3);
        let v7 = p.vector_sets(7);
        for (a, b) in v3.iter().zip(&v7) {
            assert!(a.len() <= 3);
            assert!(a.len() <= b.len());
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i));
            }
        }
    }

    #[test]
    fn cover_vectors_have_dummies_vector_sets_dont() {
        let p = small();
        let k = 7;
        let fv = p.cover_vectors(k);
        let vs = p.vector_sets(k);
        for (f, s) in fv.iter().zip(&vs) {
            assert_eq!(f.len(), 6 * k);
            if s.len() < k {
                // Dummy region must be zero.
                assert!(f[6 * s.len()..].iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn representations_match_kind() {
        let p = small();
        let vs = p.representations(&SimilarityModel::vector_set(5));
        assert!(matches!(vs[0], Repr::Set(_)));
        let vol = p.representations(&SimilarityModel::volume(5));
        assert!(matches!(vol[0], Repr::Vector(_)));
        if let Repr::Vector(v) = &vol[0] {
            assert_eq!(v.len(), 125);
        }
    }

    #[test]
    fn oracle_is_symmetric_and_zero_diagonal() {
        let p = small();
        let model =
            SimilarityModel { kind: ModelKind::VectorSet { k: 5 }, invariance: Default::default() };
        let reprs = p.representations(&model);
        let d = |i: usize, j: usize| model.distance(&reprs[i], &reprs[j]);
        for i in [0usize, 5, 12] {
            assert!(d(i, i).abs() < 1e-9);
            for j in [1usize, 7, 19] {
                assert!((d(i, j) - d(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pairwise_matrix_is_bit_identical_to_the_oracle() {
        let p = small();
        for model in [
            SimilarityModel::vector_set(5),
            SimilarityModel::cover_sequence_permutation(5),
            SimilarityModel::volume(5),
        ] {
            let reprs = p.representations(&model);
            let m = p.pairwise_matrix(&model, &reprs);
            let d = |i: usize, j: usize| model.distance(&reprs[i], &reprs[j]);
            assert_eq!(m.len(), p.len());
            for i in 0..p.len() {
                for j in (i + 1)..p.len() {
                    assert_eq!(
                        m.get(i, j).to_bits(),
                        d(i, j).to_bits(),
                        "{} pair ({i},{j})",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pairwise_matrix_honors_invariance_fallback() {
        let p = small();
        let model =
            SimilarityModel::vector_set(4).with_invariance(crate::model::Invariance::Rotation24);
        let reprs = p.representations(&model);
        let m = p.pairwise_matrix(&model, &reprs);
        let d = |i: usize, j: usize| model.distance(&reprs[i], &reprs[j]);
        for (i, j) in [(0usize, 1usize), (3, 9), (5, 17)] {
            assert_eq!(m.get(i, j).to_bits(), d(i, j).to_bits());
        }
    }

    #[test]
    #[should_panic]
    fn k_above_k_max_panics() {
        let p = ProcessedDataset::build(car_dataset(1, 5), 3);
        let _ = p.vector_sets(5);
    }
}
