//! The rule set. Each rule guards an invariant introduced by an
//! earlier PR; see DESIGN.md §10 for the full rationale table.

use crate::model::{WorkspaceModel, LOCK_CLASSES};
use crate::source::{directive_words, find_word, SourceFile};
use crate::{Diagnostic, Workspace};

pub const FLOAT_ORDERING: &str = "float-ordering";
pub const NO_ALLOC_KERNEL: &str = "no-alloc-kernel";
pub const NO_BLOCKING_UNDER_LOCK: &str = "no-blocking-under-lock";
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Rule ids a waiver may name. `waiver-syntax` is listed so a directive
/// naming it parses, but the engine never suppresses it.
pub const KNOWN_RULES: &[&str] =
    &[FLOAT_ORDERING, NO_ALLOC_KERNEL, NO_BLOCKING_UNDER_LOCK, WAIVER_SYNTAX];

/// Scope tags `lint-scope:` may declare.
pub const KNOWN_SCOPES: &[&str] = &["no_alloc"];

pub trait Rule {
    fn id(&self) -> &'static str;
    fn description(&self) -> &'static str;
    /// Phase two: report violations against the prebuilt cross-file
    /// model (phase one, built once per run in [`crate::check`]).
    fn check(&self, ws: &Workspace, model: &WorkspaceModel, out: &mut Vec<Diagnostic>);
}

/// Every rule, in the order they run.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(FloatOrdering),
        Box::new(NoAllocKernel),
        Box::new(NoBlockingUnderLock),
        Box::new(WaiverSyntax),
    ]
}

fn diag(f: &SourceFile, line: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic { file: f.rel.clone(), line, rule, message }
}

/// Byte index just past the `)` matching the `(` at `open`, scanning
/// blanked code (so literal parens are already gone).
fn skip_parens(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    debug_assert_eq!(bytes.get(open), Some(&b'('));
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
    }
    None
}

fn skip_ws(code: &str, mut i: usize) -> usize {
    let bytes = code.as_bytes();
    while i < bytes.len() && (bytes[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Whether the identifier-ish token at `at..at+len` starts at an
/// identifier boundary (so `SmallVec::new` doesn't match `Vec::new`).
fn starts_at_boundary(code: &str, at: usize) -> bool {
    at == 0 || {
        let c = code.as_bytes()[at - 1] as char;
        !(c.is_ascii_alphanumeric() || c == '_')
    }
}

/// Occurrences of `token` in `code` honouring a leading identifier
/// boundary when the token starts with an identifier character.
fn token_positions<'a>(code: &'a str, token: &'a str) -> impl Iterator<Item = usize> + 'a {
    let needs_boundary =
        token.chars().next().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while from <= code.len() {
            let rel = code[from..].find(token)?;
            let at = from + rel;
            from = at + token.len().max(1);
            if !needs_boundary || starts_at_boundary(code, at) {
                return Some(at);
            }
        }
        None
    })
}

/// The word immediately before byte `at`, if any.
fn word_before(code: &str, at: usize) -> Option<&str> {
    let head = code[..at].trim_end();
    let start = head.rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).map_or(0, |i| i + 1);
    if start < head.len() {
        Some(&head[start..])
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// L1: float-ordering
// ---------------------------------------------------------------------

/// PR 2 made every query-path comparator NaN-safe with `total_cmp`
/// after `partial_cmp(..).unwrap()` panicked on a NaN distance. This
/// rule keeps the unsafe form from creeping back in.
struct FloatOrdering;

impl Rule for FloatOrdering {
    fn id(&self) -> &'static str {
        FLOAT_ORDERING
    }

    fn description(&self) -> &'static str {
        "comparators must use total_cmp, never partial_cmp + unwrap/unwrap_or(Ordering)"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for f in &ws.files {
            for at in find_word(&f.code, "partial_cmp") {
                // Definitions of `fn partial_cmp` (PartialOrd impls) are
                // not call sites.
                if word_before(&f.code, at) == Some("fn") {
                    continue;
                }
                let after_name = skip_ws(&f.code, at + "partial_cmp".len());
                if f.code.as_bytes().get(after_name) != Some(&b'(') {
                    continue;
                }
                let Some(close) = skip_parens(&f.code, after_name) else { continue };
                let rest = &f.code[skip_ws(&f.code, close)..];
                let bad = ["unwrap()", "expect("]
                    .iter()
                    .any(|m| rest.strip_prefix('.').is_some_and(|r| r.trim_start().starts_with(m)))
                    || ["unwrap_or(", "unwrap_or_else("].iter().any(|m| {
                        rest.strip_prefix('.')
                            .and_then(|r| r.trim_start().strip_prefix(m))
                            .is_some_and(|args| args.contains("Ordering") || args.contains("Equal"))
                    });
                if bad {
                    out.push(diag(
                        f,
                        f.line_of(at),
                        FLOAT_ORDERING,
                        "NaN-unsafe comparator: replace `partial_cmp(..).unwrap…` with \
                         `total_cmp` (or waive with a reason)"
                            .to_owned(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// L2: no-alloc-kernel
// ---------------------------------------------------------------------

/// The matching kernel (PR 2) is allocation-free in steady state; a
/// counting-allocator test proves it for the paths it exercises, and
/// this rule covers new code paths at review time. So are the X-tree's
/// lane kernels (PR 19), which run once per node a query reads. Files
/// opt in with `lint-scope: no_alloc`; constructors carry
/// function-level waivers.
struct NoAllocKernel;

/// Files that must stay in the `no_alloc` scope (deleting the tag is
/// itself a violation).
const REQUIRED_NO_ALLOC: &[&str] = &[
    "crates/index/src/lanes.rs",
    "crates/setdist/src/engine.rs",
    "crates/setdist/src/hungarian.rs",
    "crates/setdist/src/simd.rs",
];

const ALLOC_TOKENS: &[&str] =
    &["Vec::new", "vec!", ".to_vec()", ".collect::<Vec", "Box::new", ".clone()", "String::new"];

impl Rule for NoAllocKernel {
    fn id(&self) -> &'static str {
        NO_ALLOC_KERNEL
    }

    fn description(&self) -> &'static str {
        "no allocation in files tagged `lint-scope: no_alloc` (the matching and X-tree lane kernels)"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for f in &ws.files {
            let tagged = f.scopes.iter().any(|s| s == "no_alloc");
            if REQUIRED_NO_ALLOC.contains(&f.rel.as_str()) && !tagged {
                out.push(diag(
                    f,
                    1,
                    NO_ALLOC_KERNEL,
                    "kernel file must carry `lint-scope: no_alloc`".to_owned(),
                ));
            }
            if !tagged {
                continue;
            }
            for (i, line) in f.lines.iter().enumerate() {
                if line.in_cfg_test {
                    continue;
                }
                for tok in ALLOC_TOKENS {
                    if token_positions(&line.code, tok).next().is_some() {
                        out.push(diag(
                            f,
                            i + 1,
                            NO_ALLOC_KERNEL,
                            format!("`{tok}` allocates inside the no_alloc kernel scope"),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// L9: no-blocking-under-lock
// ---------------------------------------------------------------------

/// The pool-shard mutexes sit on every page access of every query
/// thread: a critical section that does page I/O, saves an index, or
/// allocates a page-sized buffer turns one slow store into a stall for
/// every thread hashing to that stripe. Hot classes therefore admit
/// only pointer work while held.
struct NoBlockingUnderLock;

/// Calls that do (or can do) I/O-sized work.
const BLOCKING_CALLS: &[&str] =
    &[".read_into(", ".write_page(", ".sync(", ".sync_all(", ".sync_data(", ".set_len(", "save_"];

/// Allocation-heavy constructors (Arc/Rc clones are fine; page-sized
/// buffers are not).
const HEAVY_ALLOC: &[&str] = &["vec!", "Vec::new", "Vec::with_capacity", ".to_vec()", "Box::new"];

impl Rule for NoBlockingUnderLock {
    fn id(&self) -> &'static str {
        NO_BLOCKING_UNDER_LOCK
    }

    fn description(&self) -> &'static str {
        "no page I/O, save_*, heavy allocation, or second lock while a hot-class guard is live"
    }

    fn check(&self, ws: &Workspace, model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for a in &model.acquisitions {
            if !LOCK_CLASSES[a.class].hot || a.in_cfg_test {
                continue;
            }
            let Some(f) = ws.files.get(a.file) else { continue };
            let holder = LOCK_CLASSES[a.class].name;
            for i in a.live_from..=a.live_to.min(f.lines.len() - 1) {
                let line = &f.lines[i];
                for tok in BLOCKING_CALLS.iter().chain(HEAVY_ALLOC) {
                    if token_positions(&line.code, tok).next().is_some() {
                        out.push(diag(
                            f,
                            i + 1,
                            NO_BLOCKING_UNDER_LOCK,
                            format!(
                                "`{}` while the hot `{holder}` lock is held (acquired on \
                                 line {}): move the work outside the critical section",
                                tok.trim_start_matches('.').trim_end_matches('('),
                                a.line + 1
                            ),
                        ));
                    }
                }
            }
            // Taking any second lock under a hot guard blocks every
            // thread on this stripe behind the other lock's holder.
            for inner in &model.acquisitions {
                if inner.file == a.file
                    && inner.at > a.at
                    && inner.line >= a.live_from
                    && inner.line <= a.live_to
                {
                    out.push(diag(
                        f,
                        inner.line + 1,
                        NO_BLOCKING_UNDER_LOCK,
                        format!(
                            "acquiring `{}` while the hot `{holder}` lock is held \
                             (acquired on line {})",
                            LOCK_CLASSES[inner.class].name,
                            a.line + 1
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Meta: waiver-syntax
// ---------------------------------------------------------------------

/// A waiver that doesn't parse silently suppresses nothing — which
/// looks exactly like working enforcement. This meta-rule makes
/// malformed or unknown directives loud, and is itself unwaivable.
struct WaiverSyntax;

impl Rule for WaiverSyntax {
    fn id(&self) -> &'static str {
        WAIVER_SYNTAX
    }

    fn description(&self) -> &'static str {
        "lint-allow/lint-scope directives must parse and name known rules/scopes"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for f in &ws.files {
            for e in &f.directive_errors {
                out.push(diag(f, e.line, WAIVER_SYNTAX, e.message.clone()));
            }
            for w in &f.waivers {
                if !KNOWN_RULES.contains(&w.rule.as_str()) {
                    out.push(diag(
                        f,
                        w.first_line,
                        WAIVER_SYNTAX,
                        format!("lint-allow names unknown rule `{}`", w.rule),
                    ));
                }
            }
            for (i, line) in f.lines.iter().enumerate() {
                if let Some(words) = directive_words(&line.comment, "lint-scope:") {
                    if let Some(tag) = words.first() {
                        if !KNOWN_SCOPES.contains(&tag.as_str()) {
                            out.push(diag(
                                f,
                                i + 1,
                                WAIVER_SYNTAX,
                                format!("lint-scope names unknown scope `{tag}`"),
                            ));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{check, rules, Workspace};

    fn diags_for(sources: &[(&str, &str)]) -> Vec<crate::Diagnostic> {
        check(&Workspace::from_sources(sources))
    }

    fn rules_hit(sources: &[(&str, &str)], rule: &str) -> Vec<usize> {
        diags_for(sources).iter().filter(|d| d.rule == rule).map(|d| d.line).collect()
    }

    /// A minimal clean file so fixtures don't trip unrelated rules.
    const CLEAN: &str = "#![forbid(unsafe_code)]\npub fn id(x: u64) -> u64 {\n    x\n}\n";

    #[test]
    fn l1_flags_unwrap_and_unwrap_or_ordering_variants() {
        let bad = "#![forbid(unsafe_code)]\n\
            fn s(v: &mut [f64]) {\n\
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
                v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n\
                v.sort_by(|a, b| {\n\
                    a.partial_cmp(b)\n\
                        .unwrap()\n\
                });\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/q/src/lib.rs", bad)], rules::FLOAT_ORDERING),
            vec![3, 4, 6]
        );
    }

    #[test]
    fn l1_allows_total_cmp_handled_options_and_trait_impls() {
        let good = "#![forbid(unsafe_code)]\n\
            use std::cmp::Ordering;\n\
            struct W(f64);\n\
            impl PartialOrd for W {\n\
                fn partial_cmp(&self, o: &Self) -> Option<Ordering> {\n\
                    Some(self.0.total_cmp(&o.0))\n\
                }\n\
            }\n\
            fn s(v: &mut [f64]) {\n\
                v.sort_by(|a, b| a.total_cmp(b));\n\
                let _ = 1.0f64.partial_cmp(&2.0).map(Ordering::reverse);\n\
                let _ = 1.0f64.partial_cmp(&2.0).unwrap_or(Ordering::Less.reverse());\n\
            }\n";
        // The `unwrap_or(Ordering::…)` on line 12 *is* a violation; the
        // rest must stay clean.
        assert_eq!(rules_hit(&[("crates/q/src/lib.rs", good)], rules::FLOAT_ORDERING), vec![12]);
    }

    #[test]
    fn l2_flags_allocation_only_in_tagged_files_outside_tests() {
        let tagged = "#![forbid(unsafe_code)]\n\
            // lint-scope: no_alloc\n\
            fn hot(n: usize) -> usize {\n\
                let v = vec![0u8; n];\n\
                let w = v.to_vec();\n\
                w.len()\n\
            }\n\
            #[cfg(test)]\n\
            mod tests {\n\
                fn t() {\n\
                    let _ = Vec::<u8>::new();\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/k/src/hot.rs", tagged)], rules::NO_ALLOC_KERNEL),
            vec![4, 5]
        );
        // Same content untagged: no scope, no findings.
        let untagged = tagged.replace("// lint-scope: no_alloc", "");
        assert_eq!(
            rules_hit(&[("crates/k/src/hot.rs", &untagged)], rules::NO_ALLOC_KERNEL),
            vec![]
        );
    }

    #[test]
    fn l2_requires_the_kernel_files_to_stay_tagged() {
        for kernel in ["crates/setdist/src/engine.rs", "crates/index/src/lanes.rs"] {
            assert_eq!(rules_hit(&[(kernel, CLEAN)], rules::NO_ALLOC_KERNEL), vec![1], "{kernel}");
        }
    }

    #[test]
    fn l8_flags_lock_order_cycles_and_shard_self_nesting() {
        // The lock-order rule is retired: the one cycle it could see,
        // writer mutex against the published slot, is ruled out by the
        // slot's `&mut Working` write path. Its unconditional half stays
        // a finding of no-blocking-under-lock: a second shard under a
        // shard guard can hash to the same stripe and deadlock.
        let self_nest = "#![forbid(unsafe_code)]\n\
            impl Pool {\n\
                fn rehash(&self, other: &Shard) {\n\
                    let a = self.inner.lock().unwrap();\n\
                    let b = other.inner.lock().unwrap();\n\
                    a.merge(&b);\n\
                }\n\
            }\n";
        let diags: Vec<_> = diags_for(&[("crates/store/src/pool.rs", self_nest)])
            .into_iter()
            .filter(|d| d.rule == rules::NO_BLOCKING_UNDER_LOCK)
            .collect();
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![5]);
        assert!(diags[0].message.contains("acquiring `pool-shard` while the hot `pool-shard`"));
    }

    #[test]
    fn l9_flags_io_allocation_and_second_locks_under_a_hot_guard() {
        let bad = "#![forbid(unsafe_code)]\n\
            impl Shard {\n\
                fn fill(&self, store: &Store, id: u64) {\n\
                    let mut g = self.inner.lock().unwrap();\n\
                    let buf = vec![0u8; 4096];\n\
                    store.read_into(id, &mut g.frame);\n\
                    let d = self.data.lock().unwrap();\n\
                    g.install(buf, &d);\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/store/src/pool.rs", bad)], rules::NO_BLOCKING_UNDER_LOCK),
            vec![5, 6, 7]
        );
        // The same work staged *before* the guard is fine, as are the
        // cold store classes doing I/O-sized work.
        let good = "#![forbid(unsafe_code)]\n\
            impl Shard {\n\
                fn fill(&self, store: &Store, id: u64) {\n\
                    let mut buf = vec![0u8; 4096];\n\
                    store.read_into(id, &mut buf);\n\
                    let mut g = self.inner.lock().unwrap();\n\
                    g.install(buf);\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/store/src/pool.rs", good)], rules::NO_BLOCKING_UNDER_LOCK),
            vec![]
        );
        let cold = "#![forbid(unsafe_code)]\n\
            impl FileStore {\n\
                fn grow(&self) {\n\
                    let s = self.state.lock().unwrap();\n\
                    let buf = vec![0u8; 4096];\n\
                    s.file.set_len(buf.len() as u64);\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/store/src/file.rs", cold)], rules::NO_BLOCKING_UNDER_LOCK),
            vec![]
        );
    }

    #[test]
    fn waiver_syntax_is_loud_and_unwaivable() {
        let bad = "#![forbid(unsafe_code)]\n\
            // lint-allow: float-ordering\n\
            // lint-allow: no-such-rule because reasons\n\
            // lint-scope: no_such_scope\n\
            fn f() {}\n";
        assert_eq!(rules_hit(&[("crates/q/src/lib.rs", bad)], rules::WAIVER_SYNTAX), vec![2, 3, 4]);
    }
}
