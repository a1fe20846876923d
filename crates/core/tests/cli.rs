//! The `vsim` command line, run as a process.

use std::path::PathBuf;
use std::process::{Command, Output};
use vsim_geom::stl::write_stl_binary;
use vsim_geom::{TriMesh, Vec3};

/// A cube written as binary STL to a file of its own, removed on drop.
struct CubeStl(PathBuf);

impl CubeStl {
    fn new(test: &str) -> Self {
        let path = std::env::temp_dir().join(format!("vsim-cli-{}-{test}.stl", std::process::id()));
        let cube = TriMesh::make_box(Vec3::splat(-1.0), Vec3::splat(1.0));
        write_stl_binary(&cube, std::fs::File::create(&path).unwrap()).unwrap();
        CubeStl(path)
    }

    fn covers(&self, k: &str) -> Output {
        Command::new(env!("CARGO_BIN_EXE_vsim")).arg("covers").arg(&self.0).arg(k).output().unwrap()
    }
}

impl Drop for CubeStl {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn covers_refuses_zero_covers() {
    let out = CubeStl::new("zero").covers("0");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "vsim: k must be at least 1\n");
    assert!(out.stdout.is_empty());
}

#[test]
fn covers_approximates_a_cube_with_one_cover() {
    let out = CubeStl::new("seven").covers("7");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("greedy cover sequence (k = 7)"), "{stdout}");
    assert!(stdout.contains("  C1 + [0, 0, 0]..[15, 15, 15]"), "{stdout}");
    assert!(!stdout.contains("  C2 "), "{stdout}");
    assert!(stdout.contains("vector set (1 x 6-d):"), "{stdout}");
}

/// `vsim demo 40`'s whole stdout: the vector set model's reachability
/// plot and best cut over 40 car parts. A changed matrix cell, ordering
/// or cut shows here.
const DEMO_40: &str = "\
generating 40 synthetic car parts and clustering with OPTICS...
█   █                    █           ███
█   ██  █               ██           ███
█   ██  █   ██   ██     ██   ███    ████
██████████  ████████    ██   ███    ████
██████████████████████████   ███   █████
███████████████████████████  ███████████
███████████████████████████  ███████████
████████████████████████████████████████
████████████████████████████████████████
████████████████████████████████████████
────────────────────────────────────────
best cut: 7 clusters, purity 0.788, F1 0.661
";

#[test]
fn demo_prints_the_recorded_plot_and_cut() {
    let out = Command::new(env!("CARGO_BIN_EXE_vsim")).args(["demo", "40"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), DEMO_40);
}
