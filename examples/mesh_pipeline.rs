//! The tessellated-CAD path: triangle meshes (the format real CAD
//! exports arrive in) through SAT rasterization + flood fill, feature
//! extraction, and an invariant similarity query — including a query
//! object in a rotated, reflected pose.
//!
//! Run with: `cargo run --release --example mesh_pipeline`

use vsim_core::prelude::*;
use vsim_features::cover::transform_vector_set;
use vsim_geom::{Iso, Mat3, TriMesh, Vec3};

fn main() {
    // 1. Build a small "database" of tessellated parts.
    let mut meshes: Vec<(String, TriMesh)> = Vec::new();
    for i in 0..6 {
        let r = 1.0 + 0.08 * i as f64;
        meshes.push((format!("sphere_{i}"), TriMesh::make_sphere(r, 16, 24)));
    }
    for i in 0..6 {
        let h = 2.0 + 0.3 * i as f64;
        meshes.push((format!("cylinder_{i}"), TriMesh::make_cylinder(0.8, h, 48)));
    }
    for i in 0..6 {
        let w = 1.0 + 0.2 * i as f64;
        meshes.push((
            format!("box_{i}"),
            TriMesh::make_box(Vec3::new(-w, -1.0, -0.4), Vec3::new(w, 1.0, 0.4)),
        ));
    }

    // 2. Voxelize (r = 15, normalized) and extract vector sets.
    let model = VectorSetModel::new(7);
    let sets: Vec<VectorSet> = meshes
        .iter()
        .map(|(_, m)| model.extract(&voxelize_mesh(m, 15, NormalizeMode::Uniform).grid))
        .collect();
    println!("{} meshes voxelized; cover cardinalities:", meshes.len());
    for ((name, _), s) in meshes.iter().zip(&sets) {
        println!("  {name:12} -> {} covers", s.len());
    }

    // 3. Index and query with a *transformed* query mesh: one of the
    //    boxes, rotated by a 90-degree pose and reflected, as a real
    //    retrieval scenario would pose it.
    let index = FilterRefineIndex::build(&sets, 6, 7);
    let target = 14; // box_2
    let mut query_mesh = meshes[target].1.clone();
    let pose = Mat3::cube_rotations()[7] * Mat3::reflect_x();
    query_mesh.transform(&Iso::from_linear(pose));
    let qset = model.extract(&voxelize_mesh(&query_mesh, 15, NormalizeMode::Uniform).grid);

    // Invariant query: 48 runtime permutations (Section 3.2).
    let variants: Vec<VectorSet> =
        Mat3::cube_symmetries().iter().map(|m| transform_vector_set(&qset, m)).collect();
    let (hits, stats) = index.run(&Query::knn(&variants, 3));
    println!("\ninvariant 3-NN of the rotated+reflected {}:", meshes[target].0);
    for (id, d) in &hits {
        println!("  {:12} d = {d:.4}", meshes[*id as usize].0);
    }
    println!("({} exact evaluations across {} variants)", stats.refinements, variants.len());
    assert_eq!(hits[0].0, target as u64, "the original box must be the top hit");
    assert!(meshes[hits[1].0 as usize].0.starts_with("box"), "runner-up should be another box");
}
