#![forbid(unsafe_code)]
//! # vsim-lint — workspace invariants, machine-enforced
//!
//! A self-contained static-analysis pass in the style of rustc's
//! `tools/tidy`: it walks every `.rs` file in the workspace (line
//! oriented, no `syn`, fully offline) and enforces the hand-maintained
//! invariants that neither rustc, privacy nor clippy can decide —
//! NaN-safe orderings on query paths, the allocation-free matching
//! kernel and no blocking work under a hot lock. See `DESIGN.md` §10 for
//! each rule's rationale (and where the retired rules' invariants live
//! now) and [`rules`] for the implementations.
//!
//! Violations can be suppressed with an inline waiver comment whose
//! body is exactly `lint-allow:` followed by a rule id and a mandatory
//! justification; written on its own line directly above an `fn`, the
//! waiver covers the whole function. Scope tags (`lint-scope:` plus a
//! scope name) opt a file into stricter rule sets — `no_alloc` marks
//! the matching-kernel and X-tree lane-kernel files whose steady-state
//! paths must not allocate.
//!
//! Two frontends share this engine: the `vsim-lint` binary (a CI step)
//! and the `workspace_clean` integration test, which makes `cargo test`
//! a tier-1 gate and also runs the binary against a seeded violation.

pub mod model;
pub mod rules;
pub mod source;

use std::fmt;
use std::path::{Path, PathBuf};

pub use source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (kebab-case, stable — used in waivers).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// The analyzed workspace a lint run sees.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walk `root` and analyze every tracked `.rs` file. `vendor/` (the
    /// offline stand-ins for external crates) and build output are not
    /// ours to lint and are skipped.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut paths: Vec<PathBuf> = Vec::new();
        for sub in ["crates", "tests", "examples"] {
            let dir = root.join(sub);
            if dir.is_dir() {
                walk(&dir, &mut paths)?;
            }
        }
        let mut files = Vec::with_capacity(paths.len());
        for p in &paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::new(&rel, &text));
        }
        Ok(Workspace { files })
    }

    /// Build a workspace from in-memory sources — the fixture entry
    /// point for rule tests.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Workspace { files: sources.iter().map(|(rel, text)| SourceFile::new(rel, text)).collect() }
    }

    /// The analyzed file at `rel`, if the workspace contains it.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run every rule over an analyzed workspace, apply waivers, and return
/// the surviving diagnostics sorted by file, line and rule.
///
/// This is the two-phase engine: phase one builds the cross-file
/// [`model::WorkspaceModel`] (functions, lock acquisitions with guard
/// live-ranges) exactly once; phase two
/// hands it to every rule.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let model = model::WorkspaceModel::build(ws);
    let mut diags: Vec<Diagnostic> = Vec::new();
    for rule in rules::all() {
        rule.check(ws, &model, &mut diags);
    }
    diags.retain(|d| {
        // The waiver validator must not be silenced by the thing it
        // validates.
        d.rule == rules::WAIVER_SYNTAX
            || !ws.file(&d.file).is_some_and(|f| f.is_waived(d.rule, d.line))
    });
    // Rules emit in whatever order they walk the workspace; the output
    // contract is (file, line, rule).
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    diags.dedup();
    diags
}

/// Load the workspace at `root` and lint it.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    Ok(check(&Workspace::load(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waived_diagnostics_are_dropped_and_output_is_sorted() {
        let ws = Workspace::from_sources(&[(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             fn b() {\n\
                 let mut v = vec![(0u64, 0.0f64)];\n\
                 v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap()); // lint-allow: float-ordering fixture keys are finite\n\
                 v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());\n\
             }\n",
        )]);
        let diags = check(&ws);
        assert_eq!(diags.len(), 1, "waived line suppressed, unwaived kept: {diags:?}");
        assert_eq!(diags[0].line, 5);
        assert_eq!(diags[0].rule, rules::FLOAT_ORDERING);
    }

    #[test]
    fn findings_across_files_come_out_in_path_line_rule_order() {
        // Two files, loaded in reverse path order, each with violations
        // on interleaving line numbers: the output must still sort by
        // (file, line, rule).
        let bad = "#![forbid(unsafe_code)]\n\
             fn s(v: &mut [(f64, f64)]) {\n\
                 v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());\n\
                 v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());\n\
             }\n";
        let ws = Workspace::from_sources(&[
            ("crates/zz/src/lib.rs", bad),
            ("crates/aa/src/lib.rs", bad),
        ]);
        let diags = check(&ws);
        let keys: Vec<(String, usize)> = diags.iter().map(|d| (d.file.clone(), d.line)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "diagnostics must be stably ordered");
        assert_eq!(keys[0].0, "crates/aa/src/lib.rs");
        assert!(keys.iter().filter(|(f, _)| f.starts_with("crates/zz")).count() >= 2);
    }
}
