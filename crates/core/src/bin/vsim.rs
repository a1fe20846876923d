//! `vsim` — command-line front end for the similarity-search library.
//!
//! ```text
//! vsim info   <part.stl>                 mesh + voxelization statistics
//! vsim covers <part.stl> [k]             greedy cover sequence summary
//! vsim knn    <query.stl> <db.stl...> [--k 5]
//!                                        similarity search over STL files
//! vsim demo   [n]                        synthetic-dataset OPTICS demo
//! ```

use std::process::ExitCode;
use vsim_core::prelude::*;
use vsim_geom::stl::read_stl;
use vsim_geom::TriMesh;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("covers") => cmd_covers(&args[1..]),
        Some("knn") => cmd_knn(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        _ => {
            eprintln!(
                "usage: vsim <info|covers|knn|demo> ...\n\
                 \x20 vsim info   <part.stl>\n\
                 \x20 vsim covers <part.stl> [k]\n\
                 \x20 vsim knn    <query.stl> <db.stl...> [--k 5]\n\
                 \x20 vsim demo   [n]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vsim: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_mesh(path: &str) -> Result<TriMesh, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mesh = read_stl(std::io::BufReader::new(f)).map_err(|e| format!("{path}: {e}"))?;
    mesh.validate().map_err(|e| format!("{path}: invalid mesh: {e}"))?;
    Ok(mesh)
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing STL path")?;
    let mesh = load_mesh(path)?;
    println!("mesh: {path}");
    println!("  triangles     {}", mesh.triangles.len());
    println!("  vertices      {}", mesh.vertices.len());
    println!("  surface area  {:.4}", mesh.surface_area());
    println!("  volume        {:.4}", mesh.signed_volume());
    let bb = mesh.aabb();
    println!("  bounds        {:?} .. {:?}", bb.min.to_array(), bb.max.to_array());

    for r in [15usize, 30] {
        let v = voxelize_mesh(&mesh, r, NormalizeMode::Uniform);
        let g = &v.grid;
        println!(
            "voxelization r={r}: {} voxels ({} surface, {} interior), voxel size {:.4}",
            g.count(),
            g.surface().count(),
            g.interior().count(),
            v.scale_factors.x
        );
    }
    Ok(())
}

fn cmd_covers(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing STL path")?;
    let k: usize = args.get(1).map_or(Ok(7), |s| s.parse().map_err(|_| "bad k"))?;
    if k == 0 {
        return Err("k must be at least 1".into());
    }
    let mesh = load_mesh(path)?;
    let grid = voxelize_mesh(&mesh, 15, NormalizeMode::Uniform).grid;
    let seq = greedy_cover_sequence(&grid, k);
    println!("greedy cover sequence (k = {k}) of {path}: initial error {}", seq.errors[0]);
    for (i, u) in seq.units.iter().enumerate() {
        println!(
            "  C{} {} {:?}..{:?}  gain {}  err -> {}",
            i + 1,
            match u.sign {
                vsim_features::Sign::Plus => "+",
                vsim_features::Sign::Minus => "-",
            },
            u.cuboid.min,
            u.cuboid.max,
            u.gain,
            seq.errors[i + 1]
        );
    }
    let set = VectorSetModel::new(k).from_sequence(&seq);
    println!("vector set ({} x 6-d):", set.len());
    for v in set.iter() {
        println!(
            "  pos ({:+.3} {:+.3} {:+.3})  ext ({:.3} {:.3} {:.3})",
            v[0], v[1], v[2], v[3], v[4], v[5]
        );
    }
    Ok(())
}

fn cmd_knn(args: &[String]) -> Result<(), String> {
    let mut k_results = 5usize;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--k" {
            k_results =
                it.next().ok_or("--k needs a value")?.parse().map_err(|_| "bad --k value")?;
        } else {
            paths.push(a);
        }
    }
    if paths.len() < 2 {
        return Err("need a query STL and at least one database STL".into());
    }
    let (query_path, db_paths) = paths.split_first().unwrap();

    let model = VectorSetModel::new(7);
    let extract = |p: &str| -> Result<VectorSet, String> {
        let mesh = load_mesh(p)?;
        Ok(model.extract(&voxelize_mesh(&mesh, 15, NormalizeMode::Uniform).grid))
    };
    let qset = extract(query_path)?;
    let sets = db_paths.iter().map(|p| extract(p)).collect::<Result<Vec<_>, _>>()?;

    let index = FilterRefineIndex::build(&sets, 6, 7);
    let (hits, stats) = index.knn(&qset, k_results);
    println!("{k_results}-NN of {query_path} (minimal matching distance):");
    for (id, d) in hits {
        println!("  {:.6}  {}", d, db_paths[id as usize]);
    }
    println!("(filter refined {} of {} objects)", stats.refinements, sets.len());
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let n: usize = args.first().map_or(Ok(60), |s| s.parse().map_err(|_| "bad n"))?;
    println!("generating {n} synthetic car parts and clustering with OPTICS...");
    let data = car_dataset(42, n);
    let labels = data.labels();
    let sets = ProcessedDataset::build(data, 7).vector_sets(7);
    let matrix = matching_matrix(sets, MinimalMatching::vector_set_model());
    let ordering = Optics { min_pts: 4, eps: f64::INFINITY }.run_matrix(&matrix);
    let plot = ReachabilityPlot::from_ordering(&ordering);
    print!("{}", plot.ascii(80, 10));
    let q = best_cut(&ordering, &labels, 3, vsim_optics::DEFAULT_GRID);
    println!("best cut: {} clusters, purity {:.3}, F1 {:.3}", q.num_clusters, q.purity, q.f1);
    Ok(())
}
