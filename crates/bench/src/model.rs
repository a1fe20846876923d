//! The paper's five compared models (Section 3.3 and 4) behind one
//! `representations` / `distance` API, with Definition 2's invariance
//! handling (minimum distance over 24 rotations or 48 symmetries,
//! applied in feature space). The figure experiments compare them; the
//! library itself runs the vector set model alone.

use crate::cover::{cover_vector, transform_feature_vector};
use crate::histogram::{permute_histogram, solid_angle_histogram, volume_histogram};
use crate::Corpus;
use vsim_core::matching_matrix;
use vsim_features::cover::transform_vector_set;
use vsim_geom::Mat3;
use vsim_optics::{pairwise_tiled, CondensedDistanceMatrix};
use vsim_parallel::par_map_slice;
use vsim_setdist::{lp, MatchOutcome, MinimalMatching, VectorSet};

/// Which transforms Definition 2 minimizes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Invariance {
    /// Objects compared in their stored (normalized) pose.
    #[default]
    None,
    /// The 24 axis-aligned 90°-rotations.
    Rotation24,
    /// Rotations + reflections (48 symmetries) — what the paper's
    /// experiments use ("invariance with respect to translation,
    /// reflection, scaling and 90°-rotation").
    Symmetry48,
}

/// The compared models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelKind {
    /// Section 3.3.1 — `p³` voxel-count histogram at `r = 30`.
    Volume { p: usize },
    /// Section 3.3.2 — `p³` mean solid-angle histogram at `r = 30`.
    SolidAngle { p: usize, kernel_radius: usize },
    /// Section 3.3.3 — `6k`-dim cover sequence vector (with dummies),
    /// plain Euclidean distance, at `r = 15`.
    CoverSequence { k: usize },
    /// Definition 4 — cover sequence under the minimum Euclidean
    /// distance under permutation (computed via Kuhn–Munkres, Sec. 4.2).
    CoverSequencePermutation { k: usize },
    /// Section 4 — the vector set model under the minimal matching
    /// distance.
    VectorSet { k: usize },
}

/// Extracted representation of one object under some model.
#[derive(Debug, Clone, PartialEq)]
pub enum Repr {
    Vector(Vec<f64>),
    Set(VectorSet),
}

impl Repr {
    pub(crate) fn as_vector(&self) -> &[f64] {
        match self {
            Repr::Vector(v) => v,
            Repr::Set(_) => panic!("representation is a vector set"),
        }
    }

    pub(crate) fn as_set(&self) -> &VectorSet {
        match self {
            Repr::Set(s) => s,
            Repr::Vector(_) => panic!("representation is a single vector"),
        }
    }
}

/// A similarity model: a feature transform plus a distance, with
/// optional pose invariance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimilarityModel {
    kind: ModelKind,
    invariance: Invariance,
}

impl SimilarityModel {
    fn of(kind: ModelKind) -> Self {
        SimilarityModel { kind, invariance: Invariance::None }
    }

    pub fn volume(p: usize) -> Self {
        Self::of(ModelKind::Volume { p })
    }

    pub fn solid_angle(p: usize, kernel_radius: usize) -> Self {
        Self::of(ModelKind::SolidAngle { p, kernel_radius })
    }

    pub fn cover_sequence(k: usize) -> Self {
        Self::of(ModelKind::CoverSequence { k })
    }

    pub fn cover_sequence_permutation(k: usize) -> Self {
        Self::of(ModelKind::CoverSequencePermutation { k })
    }

    pub fn vector_set(k: usize) -> Self {
        Self::of(ModelKind::VectorSet { k })
    }

    pub fn with_invariance(mut self, inv: Invariance) -> Self {
        self.invariance = inv;
        self
    }

    /// Short display name (used by experiment outputs).
    pub fn name(&self) -> String {
        match self.kind {
            ModelKind::Volume { p } => format!("volume(p={p})"),
            ModelKind::SolidAngle { p, kernel_radius } => {
                format!("solid-angle(p={p},rad={kernel_radius})")
            }
            ModelKind::CoverSequence { k } => format!("cover-sequence(k={k})"),
            ModelKind::CoverSequencePermutation { k } => {
                format!("cover-sequence-permutation(k={k})")
            }
            ModelKind::VectorSet { k } => format!("vector-set(k={k})"),
        }
    }

    /// The representation of every object of `data`: the histograms from
    /// [`Corpus::grids30`] (`r = 30`, in parallel), the cover models from
    /// [`vector_sets`](vsim_core::ProcessedDataset::vector_sets)
    /// (`r = 15`) — the resolutions the paper tuned per model. Panics if
    /// a cover model's `k` exceeds `data.processed.k_max`.
    pub fn representations(&self, data: &Corpus) -> Vec<Repr> {
        match self.kind {
            ModelKind::Volume { p } => {
                par_map_slice(data.grids30(), |_, g| Repr::Vector(volume_histogram(g, p)))
            }
            ModelKind::SolidAngle { p, kernel_radius } => par_map_slice(data.grids30(), |_, g| {
                Repr::Vector(solid_angle_histogram(g, p, kernel_radius))
            }),
            ModelKind::CoverSequence { k } => data
                .processed
                .vector_sets(k)
                .iter()
                .map(|s| Repr::Vector(cover_vector(s, k)))
                .collect(),
            ModelKind::CoverSequencePermutation { k } | ModelKind::VectorSet { k } => {
                data.processed.vector_sets(k).into_iter().map(Repr::Set).collect()
            }
        }
    }

    /// The minimal matching distance of a set model (`None` for the
    /// one-vector models).
    fn matching(&self) -> Option<MinimalMatching> {
        match self.kind {
            ModelKind::CoverSequencePermutation { .. } => {
                Some(MinimalMatching::permutation_model())
            }
            ModelKind::VectorSet { .. } => Some(MinimalMatching::vector_set_model()),
            _ => None,
        }
    }

    fn base_distance(&self, a: &Repr, b: &Repr) -> f64 {
        match self.matching() {
            Some(mm) => mm.distance_value(a.as_set(), b.as_set()),
            None => lp::euclidean(a.as_vector(), b.as_vector()),
        }
    }

    fn transform(&self, r: &Repr, m: &Mat3) -> Repr {
        match (self.kind, r) {
            (ModelKind::Volume { p } | ModelKind::SolidAngle { p, .. }, Repr::Vector(v)) => {
                Repr::Vector(permute_histogram(v, p, m))
            }
            (ModelKind::CoverSequence { .. }, Repr::Vector(v)) => {
                Repr::Vector(transform_feature_vector(v, m))
            }
            (_, Repr::Set(s)) => Repr::Set(transform_vector_set(s, m)),
            _ => unreachable!("representation does not match model kind"),
        }
    }

    /// `simdist(a, b) = min over T of dist(a, T(b))` (Definition 2).
    pub fn distance(&self, a: &Repr, b: &Repr) -> f64 {
        let matrices = match self.invariance {
            Invariance::None => return self.base_distance(a, b),
            Invariance::Rotation24 => Mat3::cube_rotations(),
            Invariance::Symmetry48 => Mat3::cube_symmetries(),
        };
        matrices
            .iter()
            .map(|m| self.base_distance(a, &self.transform(b, m)))
            .fold(f64::INFINITY, f64::min)
    }

    /// For set models: the full matching outcome (pairs, whether a
    /// non-identity permutation was required — Table 1's statistic).
    /// `None` for one-vector models.
    pub(crate) fn match_outcome(&self, a: &Repr, b: &Repr) -> Option<MatchOutcome> {
        self.matching().map(|mm| mm.match_sets(a.as_set(), b.as_set()))
    }

    /// The condensed distance matrix of `reprs` (upper triangle, in
    /// parallel tiles): the input of [`vsim_optics::Optics::run_matrix`].
    /// A set model without invariance goes through
    /// [`matching_matrix`]; every entry is bit-identical to
    /// [`distance`](Self::distance).
    pub fn pairwise_matrix(&self, reprs: &[Repr]) -> CondensedDistanceMatrix {
        match self.matching().filter(|_| self.invariance == Invariance::None) {
            Some(mm) => matching_matrix(reprs.iter().map(|r| r.as_set().clone()).collect(), mm),
            None => pairwise_tiled(
                reprs.len(),
                32,
                || (),
                |_, i, j| self.distance(&reprs[i], &reprs[j]),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_core::ProcessedDataset;
    use vsim_datagen::{CadObject, Dataset};
    use vsim_voxel::{rotate_grid, VoxelGrid};

    /// `model`'s representations of objects given as `(r15, r30)` grid
    /// pairs.
    fn reprs_of(model: &SimilarityModel, grids: &[(VoxelGrid, VoxelGrid)]) -> Vec<Repr> {
        let objects = grids
            .iter()
            .enumerate()
            .map(|(i, (grid15, _))| CadObject { id: i as u64, label: 0, grid15: grid15.clone() })
            .collect();
        let data = Dataset { name: "grids", objects, class_names: vec!["part"] };
        let grids30 = grids.iter().map(|(_, grid30)| grid30.clone()).collect();
        model.representations(&Corpus::with_grids30(ProcessedDataset::build(data, 7), grids30))
    }

    fn sample_grids() -> (VoxelGrid, VoxelGrid) {
        // An L-shaped object at both resolutions.
        let build = |r: usize| {
            let mut g = VoxelGrid::cubic(r);
            for z in 0..r / 2 {
                for y in 0..r / 3 {
                    for x in 0..r {
                        g.set(x, y, z, true);
                    }
                }
            }
            for z in 0..r {
                for y in 0..r / 3 {
                    for x in 0..r / 4 {
                        g.set(x, y, z, true);
                    }
                }
            }
            g
        };
        (build(15), build(30))
    }

    fn small() -> Corpus {
        Corpus::car(11, 20, 9)
    }

    #[test]
    fn every_model_has_zero_self_distance() {
        for model in [
            SimilarityModel::volume(5),
            SimilarityModel::solid_angle(5, 2),
            SimilarityModel::cover_sequence(5),
            SimilarityModel::cover_sequence_permutation(5),
            SimilarityModel::vector_set(5),
        ] {
            let r = &reprs_of(&model, &[sample_grids()])[0];
            assert!(model.distance(r, r).abs() < 1e-9, "{} self-distance nonzero", model.name());
        }
    }

    #[test]
    fn invariant_distance_recognizes_rotated_objects() {
        let (g15, g30) = sample_grids();
        let m = Mat3::cube_rotations()[13];
        let rotated = (rotate_grid(&g15, &m), rotate_grid(&g30, &m));
        for model in [
            SimilarityModel::volume(5),
            SimilarityModel::vector_set(5),
            SimilarityModel::cover_sequence(5),
        ] {
            let r = reprs_of(&model, &[(g15.clone(), g30.clone()), rotated.clone()]);
            let plain = model.distance(&r[0], &r[1]);
            let inv = model.with_invariance(Invariance::Rotation24).distance(&r[0], &r[1]);
            assert!(inv < 1e-6, "{}: rotated copy not recognized (d = {inv})", model.name());
            // Without invariance, the rotated pose looks different.
            assert!(plain > inv, "{}: plain {plain} vs invariant {inv}", model.name());
        }
    }

    #[test]
    fn reflection_needs_symmetry48() {
        let (mut g15, mut g30) = sample_grids();
        // Make the object chiral by adding an off-axis tab.
        for z in 10..14 {
            g15.set(14, 4, z, true);
        }
        for z in 20..28 {
            g30.set(29, 9, z, true);
        }
        let refl = Mat3::reflect_x();
        let flipped = (rotate_grid(&g15, &refl), rotate_grid(&g30, &refl));
        let model = SimilarityModel::vector_set(6);
        let r = reprs_of(&model, &[(g15, g30), flipped]);
        let rot_only = model.with_invariance(Invariance::Rotation24).distance(&r[0], &r[1]);
        let full = model.with_invariance(Invariance::Symmetry48).distance(&r[0], &r[1]);
        assert!(full < 1e-6, "reflected copy must match under 48 symmetries");
        assert!(rot_only > full, "24 rotations must NOT suffice for a chiral part");
    }

    #[test]
    fn permutation_model_never_exceeds_plain_cover_distance() {
        // Definition 4 minimizes over cover orders, so it lower-bounds
        // the order-sensitive Euclidean distance on the same covers.
        let (a15, a30) = sample_grids();
        let mut b15 = a15.clone();
        // Perturb: remove a corner chunk.
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    b15.set(x, y, z, false);
                }
            }
        }
        let grids = [(a15, a30.clone()), (b15, a30)];
        let plain = SimilarityModel::cover_sequence(5);
        let perm = SimilarityModel::cover_sequence_permutation(5);
        let p = reprs_of(&plain, &grids);
        let s = reprs_of(&perm, &grids);
        assert!(perm.distance(&s[0], &s[1]) <= plain.distance(&p[0], &p[1]) + 1e-9);
    }

    #[test]
    fn match_outcome_reports_permutations() {
        let model = SimilarityModel::vector_set(3);
        let a = Repr::Set(VectorSet::from_rows(
            6,
            &[&[0.1, 0.1, 0.1, 0.2, 0.2, 0.2], &[0.8, 0.8, 0.8, 0.3, 0.3, 0.3]],
        ));
        let b = Repr::Set(VectorSet::from_rows(
            6,
            &[&[0.8, 0.8, 0.8, 0.3, 0.3, 0.3], &[0.1, 0.1, 0.1, 0.2, 0.2, 0.2]],
        ));
        let out = model.match_outcome(&a, &b).unwrap();
        assert!(out.permutation_needed);
        assert!(out.cost.abs() < 1e-12);
        assert!(model.match_outcome(&a, &a).is_some());
        let vol = SimilarityModel::volume(3);
        let hv = &reprs_of(&vol, &[sample_grids()])[0];
        assert!(vol.match_outcome(hv, hv).is_none());
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<String> = [
            SimilarityModel::volume(6),
            SimilarityModel::solid_angle(6, 3),
            SimilarityModel::cover_sequence(7),
            SimilarityModel::cover_sequence_permutation(7),
            SimilarityModel::vector_set(7),
        ]
        .iter()
        .map(|m| m.name())
        .collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn cover_vectors_have_dummies_vector_sets_dont() {
        let p = small();
        let k = 7;
        let fv = SimilarityModel::cover_sequence(k).representations(&p);
        let vs = p.processed.vector_sets(k);
        for (f, s) in fv.iter().zip(&vs) {
            let f = f.as_vector();
            assert_eq!(f.len(), 6 * k);
            assert_eq!(&f[..6 * s.len()], s.flat());
            // Dummy region must be zero.
            assert!(f[6 * s.len()..].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn representations_match_kind() {
        let p = small();
        let vs = SimilarityModel::vector_set(5).representations(&p);
        assert!(matches!(vs[0], Repr::Set(_)));
        let vol = SimilarityModel::volume(5).representations(&p);
        assert!(matches!(vol[0], Repr::Vector(_)));
        assert_eq!(vol[0].as_vector().len(), 125);
    }

    #[test]
    #[should_panic(expected = "exceeds precomputed k_max")]
    fn vector_set_above_k_max_panics() {
        let p = Corpus::car(1, 5, 7);
        let _ = SimilarityModel::vector_set(9).representations(&p);
    }

    #[test]
    #[should_panic(expected = "exceeds precomputed k_max")]
    fn cover_sequence_above_k_max_panics() {
        let p = Corpus::car(1, 5, 7);
        let _ = SimilarityModel::cover_sequence(9).representations(&p);
    }

    #[test]
    fn oracle_is_symmetric_and_zero_diagonal() {
        let p = small();
        let model = SimilarityModel::vector_set(5);
        let reprs = model.representations(&p);
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
            let reprs = model.representations(&p);
            let m = model.pairwise_matrix(&reprs);
            let d = |i: usize, j: usize| model.distance(&reprs[i], &reprs[j]);
            let n = p.processed.len();
            assert_eq!(m.len(), n);
            for i in 0..n {
                for j in (i + 1)..n {
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
        let model = SimilarityModel::vector_set(4).with_invariance(Invariance::Rotation24);
        let reprs = model.representations(&p);
        let m = model.pairwise_matrix(&reprs);
        let d = |i: usize, j: usize| model.distance(&reprs[i], &reprs[j]);
        for (i, j) in [(0usize, 1usize), (3, 9), (5, 17)] {
            assert_eq!(m.get(i, j).to_bits(), d(i, j).to_bits());
        }
    }
}
