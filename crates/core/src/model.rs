//! The unified similarity-model interface: all four models of the paper
//! behind one `extract` / `distance` API, with Definition 2's
//! invariance handling (minimum distance over 24 rotations or 48
//! symmetries, applied in feature space).

use vsim_datagen::CadObject;
use vsim_features::cover::{transform_feature_vector, transform_vector_set};
use vsim_features::histogram::permute_histogram;
use vsim_features::{CoverSequenceModel, SolidAngleModel, VectorSetModel, VolumeModel};
use vsim_geom::Mat3;
use vsim_setdist::matching::{MatchOutcome, MinimalMatching};
use vsim_setdist::{lp, VectorSet};
use vsim_voxel::VoxelGrid;

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

impl Invariance {
    fn matrices(self) -> Vec<Mat3> {
        match self {
            Invariance::None => vec![Mat3::IDENTITY],
            Invariance::Rotation24 => Mat3::cube_rotations(),
            Invariance::Symmetry48 => Mat3::cube_symmetries(),
        }
    }
}

/// The four similarity models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
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
    pub fn as_vector(&self) -> &[f64] {
        match self {
            Repr::Vector(v) => v,
            Repr::Set(_) => panic!("representation is a vector set"),
        }
    }

    pub fn as_set(&self) -> &VectorSet {
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
    pub kind: ModelKind,
    pub invariance: Invariance,
}

impl SimilarityModel {
    pub fn volume(p: usize) -> Self {
        SimilarityModel { kind: ModelKind::Volume { p }, invariance: Invariance::None }
    }

    pub fn solid_angle(p: usize, kernel_radius: usize) -> Self {
        SimilarityModel {
            kind: ModelKind::SolidAngle { p, kernel_radius },
            invariance: Invariance::None,
        }
    }

    pub fn cover_sequence(k: usize) -> Self {
        SimilarityModel { kind: ModelKind::CoverSequence { k }, invariance: Invariance::None }
    }

    pub fn cover_sequence_permutation(k: usize) -> Self {
        SimilarityModel {
            kind: ModelKind::CoverSequencePermutation { k },
            invariance: Invariance::None,
        }
    }

    pub fn vector_set(k: usize) -> Self {
        SimilarityModel { kind: ModelKind::VectorSet { k }, invariance: Invariance::None }
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

    /// Extract the representation from the two stored voxelizations
    /// (`r = 15` for cover-based models, `r = 30` for histograms — the
    /// resolutions the paper tuned per model).
    pub fn extract_grids(&self, grid15: &VoxelGrid, grid30: &VoxelGrid) -> Repr {
        match self.kind {
            ModelKind::Volume { p } => Repr::Vector(VolumeModel::new(p).extract(grid30)),
            ModelKind::SolidAngle { p, kernel_radius } => {
                Repr::Vector(SolidAngleModel::new(p, kernel_radius).extract(grid30))
            }
            ModelKind::CoverSequence { k } => {
                Repr::Vector(CoverSequenceModel::new(k).extract(grid15))
            }
            ModelKind::CoverSequencePermutation { k } | ModelKind::VectorSet { k } => {
                Repr::Set(VectorSetModel::new(k).extract(grid15))
            }
        }
    }

    pub fn extract(&self, obj: &CadObject) -> Repr {
        self.extract_grids(&obj.grid15, &obj.grid30)
    }

    /// Build the representation from a precomputed cover sequence
    /// (shared across cover-based models) or from the histogram grid.
    pub fn from_sequence(&self, seq: &vsim_features::CoverSequence) -> Option<Repr> {
        match self.kind {
            ModelKind::CoverSequence { k } => {
                Some(Repr::Vector(CoverSequenceModel::new(k).from_sequence(seq)))
            }
            ModelKind::CoverSequencePermutation { k } | ModelKind::VectorSet { k } => {
                Some(Repr::Set(VectorSetModel::new(k).from_sequence(seq)))
            }
            _ => None,
        }
    }

    /// The minimal-matching distance this model refines with, if it is
    /// set-based (`None` for the one-vector models). The returned value
    /// can seed a [`vsim_setdist::MatchingEngine`] so hot loops reuse
    /// one workspace instead of re-allocating per distance call.
    pub fn matching(&self) -> Option<MinimalMatching> {
        match self.kind {
            ModelKind::CoverSequencePermutation { .. } => {
                Some(MinimalMatching::permutation_model())
            }
            ModelKind::VectorSet { .. } => Some(MinimalMatching::vector_set_model()),
            _ => None,
        }
    }

    fn base_distance(&self, a: &Repr, b: &Repr) -> f64 {
        match self.kind {
            ModelKind::Volume { .. }
            | ModelKind::SolidAngle { .. }
            | ModelKind::CoverSequence { .. } => lp::euclidean(a.as_vector(), b.as_vector()),
            ModelKind::CoverSequencePermutation { .. } => {
                MinimalMatching::permutation_model().distance_value(a.as_set(), b.as_set())
            }
            ModelKind::VectorSet { .. } => {
                MinimalMatching::vector_set_model().distance_value(a.as_set(), b.as_set())
            }
        }
    }

    fn transform_repr(&self, r: &Repr, m: &Mat3) -> Repr {
        match (self.kind, r) {
            (ModelKind::Volume { p }, Repr::Vector(v))
            | (ModelKind::SolidAngle { p, .. }, Repr::Vector(v)) => {
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
        match self.invariance {
            Invariance::None => self.base_distance(a, b),
            inv => inv
                .matrices()
                .iter()
                .map(|m| self.base_distance(a, &self.transform_repr(b, m)))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// For set-based models: the full matching outcome (pairs, whether a
    /// non-identity permutation was required — Table 1's statistic).
    /// `None` for one-vector models.
    pub fn match_outcome(&self, a: &Repr, b: &Repr) -> Option<MatchOutcome> {
        let mm = match self.kind {
            ModelKind::CoverSequencePermutation { .. } => MinimalMatching::permutation_model(),
            ModelKind::VectorSet { .. } => MinimalMatching::vector_set_model(),
            _ => return None,
        };
        Some(mm.match_sets(a.as_set(), b.as_set()))
    }

    /// Convenience: extract and compare two raw grids (r15, r30 pairs).
    pub fn grid_distance(
        &self,
        a15: &VoxelGrid,
        a30: &VoxelGrid,
        b15: &VoxelGrid,
        b30: &VoxelGrid,
    ) -> f64 {
        let a = self.extract_grids(a15, a30);
        let b = self.extract_grids(b15, b30);
        self.distance(&a, &b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsim_voxel::rotate_grid;

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

    #[test]
    fn every_model_has_zero_self_distance() {
        let (g15, g30) = sample_grids();
        for model in [
            SimilarityModel::volume(5),
            SimilarityModel::solid_angle(5, 2),
            SimilarityModel::cover_sequence(5),
            SimilarityModel::cover_sequence_permutation(5),
            SimilarityModel::vector_set(5),
        ] {
            let r = model.extract_grids(&g15, &g30);
            assert!(model.distance(&r, &r).abs() < 1e-9, "{} self-distance nonzero", model.name());
        }
    }

    #[test]
    fn invariant_distance_recognizes_rotated_objects() {
        let (g15, g30) = sample_grids();
        let m = Mat3::cube_rotations()[13];
        let r15 = rotate_grid(&g15, &m);
        let r30 = rotate_grid(&g30, &m);
        for model in [
            SimilarityModel::volume(5),
            SimilarityModel::vector_set(5),
            SimilarityModel::cover_sequence(5),
        ] {
            let plain = model.grid_distance(&g15, &g30, &r15, &r30);
            let inv =
                model.with_invariance(Invariance::Rotation24).grid_distance(&g15, &g30, &r15, &r30);
            assert!(inv < 1e-6, "{}: rotated copy not recognized (d = {inv})", model.name());
            // Without invariance, the rotated pose looks different.
            assert!(plain > inv, "{}: plain {plain} vs invariant {inv}", model.name());
        }
    }

    #[test]
    fn reflection_needs_symmetry48() {
        let (g15, g30) = sample_grids();
        // Make the object chiral by adding an off-axis tab.
        let mut g15 = g15;
        for z in 10..14 {
            g15.set(14, 4, z, true);
        }
        let mut g30 = g30;
        for z in 20..28 {
            g30.set(29, 9, z, true);
        }
        let refl = Mat3::reflect_x();
        let f15 = rotate_grid(&g15, &refl);
        let f30 = rotate_grid(&g30, &refl);
        let model = SimilarityModel::vector_set(6);
        let rot_only =
            model.with_invariance(Invariance::Rotation24).grid_distance(&g15, &g30, &f15, &f30);
        let full =
            model.with_invariance(Invariance::Symmetry48).grid_distance(&g15, &g30, &f15, &f30);
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
        let plain = SimilarityModel::cover_sequence(5);
        let perm = SimilarityModel::cover_sequence_permutation(5);
        let pa = plain.extract_grids(&a15, &a30);
        let pb = plain.extract_grids(&b15, &a30);
        let sa = perm.extract_grids(&a15, &a30);
        let sb = perm.extract_grids(&b15, &a30);
        assert!(perm.distance(&sa, &sb) <= plain.distance(&pa, &pb) + 1e-9);
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
        let (g15, g30) = sample_grids();
        let hv = vol.extract_grids(&g15, &g30);
        assert!(vol.match_outcome(&hv, &hv).is_none());
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
}
