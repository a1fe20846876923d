//! Cross-crate integration: geometry -> voxelization -> features ->
//! distances, exercising the full extraction pipeline end to end.

use vsim_bench::{Corpus, Invariance, SimilarityModel};
use vsim_core::prelude::*;
use vsim_geom::solid::{CylinderZ, SolidExt, TorusZ};
use vsim_geom::{Mat3, TriMesh, Vec3};
use vsim_voxel::rotate_grid;

fn voxelize(s: &dyn vsim_geom::Solid, r: usize) -> VoxelGrid {
    voxelize_solid(s, r, NormalizeMode::Uniform).grid
}

/// `model`'s distances from the first object to each of the others, the
/// objects given as `(r = 15, r = 30)` grid pairs.
fn distances(model: &SimilarityModel, grids: &[(VoxelGrid, VoxelGrid)]) -> Vec<f64> {
    let objects = grids
        .iter()
        .enumerate()
        .map(|(i, (grid15, _))| CadObject { id: i as u64, label: 0, grid15: grid15.clone() })
        .collect();
    let data = Dataset { name: "parts", objects, class_names: vec!["part"] };
    let grids30 = grids.iter().map(|(_, grid30)| grid30.clone()).collect();
    let reprs =
        model.representations(&Corpus::with_grids30(ProcessedDataset::build(data, 7), grids30));
    reprs[1..].iter().map(|r| model.distance(&reprs[0], r)).collect()
}

#[test]
fn mesh_and_solid_paths_agree_on_features() {
    // The same cylinder via the implicit path and the tessellated path
    // must produce nearly identical vector sets.
    let solid = CylinderZ { radius: 1.0, half_height: 1.5 };
    let mesh = TriMesh::make_cylinder(1.0, 3.0, 64);
    let g_solid = voxelize(&solid, 15);
    let g_mesh = voxelize_mesh(&mesh, 15, NormalizeMode::Uniform).grid;

    let model = VectorSetModel::new(7);
    let a = model.extract(&g_solid);
    let b = model.extract(&g_mesh);
    let d = MinimalMatching::vector_set_model().distance_value(&a, &b);
    // Same object through two pipelines: clearly smaller distance than
    // to a genuinely different part. (Not near-zero: the conservative
    // mesh rasterization adds a one-voxel shell and the greedy cover
    // search then picks slightly different covers — extraction noise
    // that the matching distance absorbs but does not eliminate.)
    let torus = voxelize(&TorusZ { major: 2.0, minor: 0.5 }, 15);
    let c = model.extract(&torus);
    let d_other = MinimalMatching::vector_set_model().distance_value(&a, &c);
    assert!(d < 0.8 * d_other, "pipelines diverge: same {d} vs different {d_other}");
}

#[test]
fn similar_parts_are_closer_than_dissimilar_across_all_models() {
    let tire_a = TorusZ { major: 2.0, minor: 0.6 };
    let tire_b = TorusZ { major: 2.1, minor: 0.55 };
    let rod = CylinderZ { radius: 0.3, half_height: 3.0 };

    let grids = |s: &dyn vsim_geom::Solid| (voxelize(s, 15), voxelize(s, 30));
    let parts = [grids(&tire_a), grids(&tire_b), grids(&rod)];

    for model in [
        SimilarityModel::volume(5),
        SimilarityModel::solid_angle(5, 3),
        SimilarityModel::cover_sequence(7),
        SimilarityModel::cover_sequence_permutation(7),
        SimilarityModel::vector_set(7),
    ] {
        let [same, diff] = distances(&model, &parts)[..] else { unreachable!() };
        assert!(same < diff, "{}: similar {same} !< dissimilar {diff}", model.name());
    }
}

#[test]
fn rotation_invariance_end_to_end() {
    // A part rotated by a cube rotation is recognized under Definition 2
    // for every model, end to end from the voxel grids.
    let part = vsim_geom::solid::union(vec![
        CylinderZ { radius: 0.5, half_height: 2.0 }.boxed(),
        vsim_geom::solid::translated(
            TorusZ { major: 1.2, minor: 0.3 }.boxed(),
            Vec3::new(0.0, 0.0, 1.5),
        ),
    ]);
    let g15 = voxelize(part.as_ref(), 15);
    let g30 = voxelize(part.as_ref(), 30);
    let m = Mat3::cube_rotations()[17];
    let rotated = (rotate_grid(&g15, &m), rotate_grid(&g30, &m));
    let pair = [(g15, g30), rotated];

    // Histogram models: rotating the grid permutes cells exactly, so the
    // invariant distance is exactly zero.
    for model in [SimilarityModel::volume(5), SimilarityModel::solid_angle(5, 2)] {
        let inv = model.with_invariance(Invariance::Rotation24);
        let d = distances(&inv, &pair)[0];
        assert!(d < 1e-6, "{}: rotated copy at distance {d}", model.name());
    }
    // Cover-based model: re-extracting covers from the rotated grid is
    // subject to greedy tie-breaking, so the invariant distance is small
    // but not exactly zero; it must be far below the non-invariant
    // distance and below typical intra-family distances.
    let vset = SimilarityModel::vector_set(7);
    let plain = distances(&vset, &pair)[0];
    let inv = distances(&vset.with_invariance(Invariance::Rotation24), &pair)[0];
    assert!(inv < 0.5 * plain, "invariant {inv} vs plain {plain}");
    assert!(inv < 0.5, "rotated copy too far under invariant distance: {inv}");
}

#[test]
fn stl_roundtrip_preserves_features() {
    // Export a part to STL (both encodings), re-import, voxelize and
    // extract features: the vector sets must match the original's almost
    // exactly (binary STL quantizes to f32).
    let mesh = TriMesh::make_cylinder(1.0, 2.5, 48);
    let model = VectorSetModel::new(7);
    let extract = |m: &TriMesh| model.extract(&voxelize_mesh(m, 15, NormalizeMode::Uniform).grid);
    let original = extract(&mesh);

    let mut ascii = Vec::new();
    vsim_geom::stl::write_stl_ascii(&mesh, &mut ascii, "part").unwrap();
    let back_ascii = vsim_geom::stl::read_stl(&ascii[..]).unwrap();
    assert_eq!(extract(&back_ascii), original);

    let mut binary = Vec::new();
    vsim_geom::stl::write_stl_binary(&mesh, &mut binary).unwrap();
    let back_bin = vsim_geom::stl::read_stl(&binary[..]).unwrap();
    let d = MinimalMatching::vector_set_model().distance_value(&extract(&back_bin), &original);
    assert!(d < 1e-6, "binary STL roundtrip changed features by {d}");
}

#[test]
fn cover_sequences_approximate_objects_well() {
    // On real synthetic parts, 7 covers reduce the symmetric volume
    // difference strongly (the premise of the cover sequence model).
    let data = car_dataset(3, 30);
    for obj in &data.objects {
        let seq = greedy_cover_sequence(&obj.grid15, 7);
        let initial = seq.errors[0];
        let fin = seq.final_error();
        assert!(
            (fin as f64) < 0.45 * initial as f64,
            "object {}: error only dropped {initial} -> {fin}",
            obj.id
        );
        // Error accounting is consistent with an actual reconstruction.
        assert_eq!(fin, obj.grid15.xor_count(&seq.reconstruct()));
    }
}

#[test]
fn scaling_invariance_through_normalization() {
    // The same shape at 10x scale produces identical representations
    // because objects are stored normalized (Sec. 3.2); the scale factors
    // retain the size difference.
    let small = TorusZ { major: 1.0, minor: 0.3 };
    let big = TorusZ { major: 10.0, minor: 3.0 };
    let vs = voxelize_solid(&small, 15, NormalizeMode::Uniform);
    let vb = voxelize_solid(&big, 15, NormalizeMode::Uniform);
    assert_eq!(vs.grid, vb.grid);
    let ratio = vb.scale_factors.x / vs.scale_factors.x;
    assert!((ratio - 10.0).abs() < 1e-9);
}

#[test]
fn vector_set_cardinality_tracks_object_complexity() {
    // A plain box needs 1 cover; a multi-part assembly needs several.
    let box_grid = voxelize(&vsim_geom::solid::Cuboid::new(Vec3::new(1.0, 1.5, 2.0)), 15);
    let complex = vsim_geom::solid::union(vec![
        vsim_geom::solid::Cuboid::new(Vec3::new(2.0, 0.4, 0.4)).boxed(),
        vsim_geom::solid::translated(
            vsim_geom::solid::Cuboid::new(Vec3::new(0.4, 2.0, 0.4)).boxed(),
            Vec3::new(1.6, 2.0, 0.0),
        ),
        vsim_geom::solid::translated(
            vsim_geom::solid::Cuboid::new(Vec3::new(0.4, 0.4, 2.0)).boxed(),
            Vec3::new(-1.6, 0.0, 2.0),
        ),
    ]);
    let complex_grid = voxelize(complex.as_ref(), 15);
    let model = VectorSetModel::new(7);
    let simple_set = model.extract(&box_grid);
    let complex_set = model.extract(&complex_grid);
    assert_eq!(simple_set.len(), 1);
    assert!(complex_set.len() >= 3);
}
