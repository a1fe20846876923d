//! Every experiment binary must be written up: an `exp_*` binary
//! nobody can interpret is dead weight in the reproduction.

use std::path::Path;

#[test]
fn every_experiment_binary_is_documented_in_experiments_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = std::fs::read_to_string(root.join("../../EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut experiments = 0;
    for entry in std::fs::read_dir(root.join("src/bin")).expect("src/bin") {
        let name = entry.expect("dir entry").file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".rs").filter(|s| s.starts_with("exp_")) else {
            continue;
        };
        experiments += 1;
        assert!(docs.contains(stem), "experiment binary `{stem}` is not in EXPERIMENTS.md");
    }
    assert!(experiments > 0, "no exp_*.rs found under src/bin: the check would be vacuous");
}
