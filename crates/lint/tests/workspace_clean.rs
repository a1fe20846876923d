//! The tier-1 gate: the actual workspace tree must lint clean, so
//! `cargo test -q` enforces every rule without a separate CI wiring.

use std::path::Path;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = vsim_lint::run(&root).expect("workspace walk failed");
    let listing = diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n");
    assert!(diags.is_empty(), "vsim-lint found {} violation(s):\n{listing}", diags.len());
}

#[test]
fn an_injected_violation_is_caught() {
    // End-to-end negative check against a scratch tree: once through
    // the library's walk + check path, once through the built CLI, whose
    // exit code is what the CI step gates on.
    let dir = std::env::temp_dir().join(format!("vsim-lint-negative-{}", std::process::id()));
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("scratch dir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn worst(v: &[f64]) -> f64 {\n\
             *v.iter().max_by(|a, b| a.partial_cmp(b).unwrap()).unwrap()\n\
         }\n",
    )
    .expect("scratch file");
    let diags = vsim_lint::run(&dir).expect("scratch walk failed");
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_vsim-lint"))
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("vsim-lint binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        diags.iter().any(|d| d.rule == vsim_lint::rules::FLOAT_ORDERING && d.line == 2),
        "expected a float-ordering hit, got: {diags:?}"
    );
    let stdout = String::from_utf8_lossy(&cli.stdout);
    assert_eq!(cli.status.code(), Some(1), "violations exit with code 1; stdout: {stdout}");
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2: float-ordering:"),
        "the CLI prints the finding as file:line: rule: message, got: {stdout}"
    );
}

#[test]
fn the_lint_model_still_sees_pool_shard_sites() {
    // `no-blocking-under-lock` keys on the hot `pool-shard` class by
    // field name: if a refactor renamed the field out from under the
    // registry, the site count would drop to zero and the rule would go
    // silently vacuous.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = vsim_lint::Workspace::load(&root).expect("workspace walk failed");
    let model = vsim_lint::model::WorkspaceModel::build(&ws);
    let class = vsim_lint::model::class_by_name("pool-shard").expect("registered class");
    assert!(model.class_site_count(class) > 0, "no acquisition sites observed for `pool-shard`");
}
