//! Phase one of the two-phase analyzer: a cross-file model of the
//! workspace's lock acquisitions.
//!
//! The line-oriented lexer in [`source`](crate::source) tells code from
//! comments; this module reads the *code* views once more and extracts
//! the facts `no-blocking-under-lock` needs:
//!
//! - **Functions** — name, signature, body line range and crate, coarse
//!   enough to attribute a lock acquisition to the function holding it
//!   and to resolve same-crate helpers by name.
//! - **Lock acquisitions** — every `.lock()` / `.read()` / `.write()`
//!   site classified into a named *lock class* (see [`LOCK_CLASSES`]),
//!   either by the receiver field (`self.inner.lock()` in `crates/store/`
//!   → a pool shard) or through a *guard-returning helper* of the same
//!   crate (`shard.lock()` resolves through `Shard::lock(&self) ->
//!   MutexGuard<…>` → the pool-shard class). Each site carries a guard
//!   *live range* derived from brace depth: a `let`-bound guard lives
//!   to the end of its enclosing block (or an explicit `drop(guard)`),
//!   an `if let`/`while let` guard lives inside the block its condition
//!   opens, and an unbound temporary lives to the end of its statement.
//!
//! Everything here is lexical: the model is deliberately coarse (no
//! types, no borrows) but errs toward *missing* facts rather than
//! inventing them — an unclassifiable `m.lock()` is ignored, never
//! guessed. The rule built on top is therefore underapproximate and
//! waivable, like every other `vsim-lint` rule.

use crate::source::{find_word, SourceFile};
use crate::Workspace;

/// A named lock class: one logical lock, or a family of locks for the
/// striped pool shards.
#[derive(Debug)]
pub struct LockClassDef {
    /// Stable kebab-case name used in diagnostics.
    pub name: &'static str,
    /// Hot classes ban blocking work (page I/O, `save_*`,
    /// allocation-heavy calls, further lock acquisition) while held —
    /// the `no-blocking-under-lock` rule.
    pub hot: bool,
    /// Receiver field names whose `.lock()`/`.read()`/`.write()` means
    /// this class (`self.<field>.lock()`).
    pub fields: &'static [&'static str],
    /// Only classify field matches in files whose path contains this
    /// substring (`""` = anywhere) — belt and braces against generic
    /// field names like `inner` appearing in unrelated crates.
    pub file_hint: &'static str,
}

/// The store's lock classes. The file store's free map and the
/// in-memory store's page map are cold; the buffer-pool shard mutexes
/// are hot — every page access on every query path takes one, so they
/// must stay tiny and never nest. The cold classes are registered so
/// that taking one under a shard guard is seen.
pub const LOCK_CLASSES: &[LockClassDef] = &[
    LockClassDef { name: "free-state", hot: false, fields: &["state"], file_hint: "crates/store/" },
    LockClassDef { name: "page-data", hot: false, fields: &["data"], file_hint: "crates/store/" },
    LockClassDef { name: "pool-shard", hot: true, fields: &["inner"], file_hint: "crates/store/" },
];

/// Index into [`LOCK_CLASSES`].
pub type ClassId = usize;

pub fn class_by_name(name: &str) -> Option<ClassId> {
    LOCK_CLASSES.iter().position(|c| c.name == name)
}

/// One function (or method) in the workspace.
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    /// Index into `Workspace::files`.
    pub file: usize,
    /// `crates/<name>` prefix (or the top-level dir) the file lives in —
    /// the resolution scope for calls by name.
    pub krate: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the body's closing brace.
    pub end_line: usize,
    /// Brace depth just outside the body.
    pub base_depth: u32,
    /// Classes this function acquires *directly*.
    pub acquires: Vec<ClassId>,
    /// Whether the return type is a std lock guard (`MutexGuard`,
    /// `RwLockReadGuard`, `RwLockWriteGuard`) — callers of such a
    /// helper are acquisition sites themselves.
    pub returns_guard: bool,
}

/// One classified lock-acquisition site.
#[derive(Debug)]
pub struct Acquisition {
    pub class: ClassId,
    /// Index into `Workspace::files`.
    pub file: usize,
    /// 0-based line of the site.
    pub line: usize,
    /// Byte offset of the method name in the file's joined `code`.
    pub at: usize,
    /// 0-based inclusive line range the guard is live for.
    pub live_from: usize,
    pub live_to: usize,
    /// Enclosing function (index into `WorkspaceModel::fns`), if any.
    pub fn_idx: Option<usize>,
    pub in_cfg_test: bool,
}

/// The cross-file model phase two runs over.
#[derive(Debug)]
pub struct WorkspaceModel {
    pub fns: Vec<FnInfo>,
    pub acquisitions: Vec<Acquisition>,
}

fn krate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(top), _) => top.to_owned(),
        _ => String::new(),
    }
}

/// The identifier ending at byte `end` of `code`, if any.
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_ascii_alphanumeric() || c == '_' {
            start -= 1;
        } else {
            break;
        }
    }
    (start < end).then(|| &code[start..end])
}

/// Brace depth of `file` at byte offset `at` of its joined code.
fn depth_at(file: &SourceFile, at: usize) -> i64 {
    let line = file.line_of(at) - 1;
    let mut depth = file.lines[line].depth_start as i64;
    for b in file.code[file.line_start(line)..at].bytes() {
        match b {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// 0-based line of the `}` closing the innermost block around position
/// `(line, col)` at depth `start_depth` — the first point at or after
/// the position where brace depth drops below `below`. With
/// `opened == false` the scan first waits for depth to *reach* `below`
/// (used for `if let … {` guards, whose block opens after the
/// condition).
fn close_of_block(
    f: &SourceFile,
    line: usize,
    col: usize,
    start_depth: i64,
    below: i64,
    mut opened: bool,
) -> usize {
    let mut depth = start_depth;
    for i in line..f.lines.len() {
        let text =
            if i == line { f.lines[i].code.get(col..).unwrap_or("") } else { &f.lines[i].code };
        for b in text.bytes() {
            match b {
                b'{' => {
                    depth += 1;
                    if depth >= below {
                        opened = true;
                    }
                }
                b'}' => {
                    depth -= 1;
                    if opened && depth < below {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    f.lines.len().saturating_sub(1)
}

/// First 0-based line `>= line` ending the statement at `(line, col)`:
/// the next `;` — or `}`, for a tail expression closing its block.
fn statement_end(f: &SourceFile, line: usize, col: usize) -> usize {
    for (i, l) in f.lines.iter().enumerate().skip(line) {
        let hay = if i == line { l.code.get(col..).unwrap_or("") } else { &l.code };
        if hay.contains(';') || hay.contains('}') {
            return i;
        }
    }
    f.lines.len().saturating_sub(1)
}

/// Start column of the statement containing column `col` (after the
/// last `;` / `{` / `}` before it).
fn statement_start(code: &str, col: usize) -> usize {
    code[..col].rfind([';', '{', '}']).map_or(0, |i| i + 1)
}

/// `let [mut] <name> =` → `<name>` for simple identifier patterns.
fn binding_name(head: &str) -> Option<String> {
    let rest = head.strip_prefix("let")?.trim_start();
    let rest = rest.strip_prefix("mut ").map(str::trim_start).unwrap_or(rest);
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    (!name.is_empty() && rest[name.len()..].trim_start().starts_with('=')).then_some(name)
}

/// 0-based inclusive live range of the guard produced by the
/// acquisition whose method name starts at byte `at`.
fn guard_live_range(f: &SourceFile, at: usize) -> (usize, usize) {
    let line = f.line_of(at) - 1;
    let col = at - f.line_start(line);
    let depth = depth_at(f, at);
    let head = {
        let code = &f.lines[line].code;
        code[statement_start(code, col)..col].trim_start().to_owned()
    };
    if head.starts_with("if let") || head.starts_with("while let") {
        // Guard scoped to the block the condition opens.
        return (line, close_of_block(f, line, col, depth, depth + 1, false));
    }
    if head.starts_with("let") {
        // `let [mut] name = <acquisition>…;` — live to the end of the
        // enclosing block, or an explicit `drop(name)`.
        let end = close_of_block(f, line, col, depth, depth, true);
        if let Some(name) = binding_name(&head) {
            let drop_tok = format!("drop({name})");
            for (i, l) in f.lines.iter().enumerate().skip(line).take(end - line + 1) {
                let hay = if i == line { l.code.get(col..).unwrap_or("") } else { &l.code };
                if hay.contains(&drop_tok) {
                    return (line, i);
                }
            }
        }
        return (line, end);
    }
    // Unbound temporary: lives to the end of its statement.
    (line, statement_end(f, line, col))
}

impl WorkspaceModel {
    pub fn build(ws: &Workspace) -> WorkspaceModel {
        let mut model = WorkspaceModel { fns: Vec::new(), acquisitions: Vec::new() };
        for (fi, f) in ws.files.iter().enumerate() {
            model.collect_fns(fi, f);
        }
        // Pass 1: field-classified acquisitions (these also determine
        // which helpers are guard-returning acquirers).
        for (fi, f) in ws.files.iter().enumerate() {
            model.collect_field_acquisitions(fi, f);
        }
        model.summarize_fns();
        // Pass 2: acquisitions through guard-returning helper calls
        // (`shard.lock()`, `self.working()`), resolved per crate.
        for (fi, f) in ws.files.iter().enumerate() {
            model.collect_helper_acquisitions(fi, f);
        }
        model.acquisitions.sort_by_key(|a| (a.file, a.at));
        model
    }

    /// Extract `fn` items with their body ranges and whether they return
    /// a lock guard.
    fn collect_fns(&mut self, fi: usize, f: &SourceFile) {
        let krate = krate_of(&f.rel);
        let bytes = f.code.as_bytes();
        for at in find_word(&f.code, "fn") {
            let name: String = f.code[at + 2..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            // The body's opening brace: the first `{` after the
            // signature outside the parameter list; a `;` first means a
            // bodiless declaration.
            let mut open = None;
            let mut nesting = 0i32;
            let mut i = at;
            while i < bytes.len() {
                match bytes[i] {
                    b'(' | b'[' => nesting += 1,
                    b')' | b']' => nesting -= 1,
                    b'{' if nesting == 0 => {
                        open = Some(i);
                        break;
                    }
                    b';' if nesting == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            let Some(open) = open else { continue };
            // The matching closing brace.
            let mut depth = 0i32;
            let mut close = bytes.len().saturating_sub(1);
            for (j, &b) in bytes.iter().enumerate().skip(open) {
                match b {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            close = j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let returns_guard = f.code[at..open].split("->").nth(1).is_some_and(|ret| {
                ["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"]
                    .iter()
                    .any(|g| ret.contains(g))
            });
            self.fns.push(FnInfo {
                name,
                file: fi,
                krate: krate.clone(),
                sig_line: f.line_of(at) - 1,
                end_line: f.line_of(close) - 1,
                base_depth: depth_at(f, at).max(0) as u32,
                acquires: Vec::new(),
                returns_guard,
            });
        }
    }

    /// The innermost function containing 0-based `line` of file `fi`.
    pub fn fn_at(&self, fi: usize, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, g)| g.file == fi && g.sig_line <= line && line <= g.end_line)
            .max_by_key(|(_, g)| g.base_depth)
            .map(|(i, _)| i)
    }

    fn push_acquisition(&mut self, fi: usize, f: &SourceFile, at: usize, class: ClassId) {
        let line = f.line_of(at) - 1;
        let (live_from, live_to) = guard_live_range(f, at);
        self.acquisitions.push(Acquisition {
            class,
            file: fi,
            line,
            at,
            live_from,
            live_to,
            fn_idx: self.fn_at(fi, line),
            in_cfg_test: f.lines[line].in_cfg_test,
        });
    }

    fn collect_field_acquisitions(&mut self, fi: usize, f: &SourceFile) {
        for method in ["lock", "read", "write"] {
            let needle = format!(".{method}(");
            let mut from = 0usize;
            while let Some(rel) = f.code[from..].find(&needle) {
                let at = from + rel;
                from = at + needle.len();
                let Some(recv) = ident_ending_at(&f.code, at) else { continue };
                let class = LOCK_CLASSES.iter().position(|c| {
                    c.fields.contains(&recv)
                        && (c.file_hint.is_empty() || f.rel.contains(c.file_hint))
                });
                if let Some(class) = class {
                    self.push_acquisition(fi, f, at + 1, class);
                }
            }
        }
    }

    /// Fold each function's direct acquisitions into its summary.
    fn summarize_fns(&mut self) {
        for a in &self.acquisitions {
            if let Some(idx) = a.fn_idx {
                if !self.fns[idx].acquires.contains(&a.class) {
                    self.fns[idx].acquires.push(a.class);
                }
            }
        }
    }

    /// Guard-returning functions that acquire exactly one class are
    /// *acquirer helpers*: a call to one is an acquisition at the call
    /// site. Resolution is by bare name within the defining crate; a
    /// name defined twice with different classes is ambiguous and
    /// dropped.
    fn acquirer_helpers(&self) -> Vec<(String, String, ClassId)> {
        let mut out: Vec<(String, String, ClassId)> = Vec::new();
        let mut ambiguous: Vec<(String, String)> = Vec::new();
        for g in &self.fns {
            if !g.returns_guard || g.acquires.len() != 1 {
                continue;
            }
            let key = (g.name.clone(), g.krate.clone());
            if let Some(prev) = out.iter().find(|e| e.0 == key.0 && e.1 == key.1) {
                if prev.2 != g.acquires[0] {
                    ambiguous.push(key);
                }
                continue;
            }
            out.push((key.0, key.1, g.acquires[0]));
        }
        out.retain(|e| !ambiguous.iter().any(|k| k.0 == e.0 && k.1 == e.1));
        out
    }

    fn collect_helper_acquisitions(&mut self, fi: usize, f: &SourceFile) {
        let helpers = self.acquirer_helpers();
        let krate = krate_of(&f.rel);
        for (name, helper_krate, class) in helpers {
            if helper_krate != krate {
                continue;
            }
            let needle = format!(".{name}(");
            let mut from = 0usize;
            while let Some(rel) = f.code[from..].find(&needle) {
                let at = from + rel;
                from = at + needle.len();
                // A site pass 1 already classified by its field keeps
                // that (more precise) classification.
                let site = at + 1;
                if self.acquisitions.iter().any(|a| a.file == fi && a.at == site) {
                    continue;
                }
                self.push_acquisition(fi, f, site, class);
            }
        }
    }

    /// Non-test acquisition sites observed for `class`.
    pub fn class_site_count(&self, class: ClassId) -> usize {
        self.acquisitions.iter().filter(|a| a.class == class && !a.in_cfg_test).count()
    }
}

#[cfg(test)]
mod tests {

    use super::*;

    fn model_for(sources: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel::build(&Workspace::from_sources(sources))
    }

    #[test]
    fn let_bound_guard_lives_to_its_block_end() {
        let src = "\
struct S { inner: std::sync::Mutex<u64> }
impl S {
    fn f(&self) -> u64 {
        let g = self.inner.lock().unwrap();
        let x = *g + 1;
        x
    }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        assert_eq!(m.acquisitions.len(), 1);
        let a = &m.acquisitions[0];
        assert_eq!(LOCK_CLASSES[a.class].name, "pool-shard");
        // 0-based: acquired on line 3, enclosing block closes on line 6.
        assert_eq!((a.live_from, a.live_to), (3, 6));
        assert_eq!(m.fns[a.fn_idx.unwrap()].name, "f");
    }

    #[test]
    fn underscore_bindings_and_explicit_drop_terminate_the_range() {
        let src = "\
struct S { inner: std::sync::Mutex<u64> }
impl S {
    fn f(&self) {
        let _guard = self.inner.lock().unwrap();
        touch();
        drop(_guard);
        after();
    }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        let a = &m.acquisitions[0];
        assert_eq!((a.live_from, a.live_to), (3, 5), "drop(_guard) ends the range");
    }

    #[test]
    fn if_let_guards_are_scoped_to_the_condition_block() {
        let src = "\
struct S { inner: std::sync::Mutex<u64> }
impl S {
    fn f(&self) -> u64 {
        if let Ok(g) = self.inner.lock() {
            return *g;
        }
        0
    }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        let a = &m.acquisitions[0];
        assert_eq!((a.live_from, a.live_to), (3, 5), "guard dies at the if-let close brace");
    }

    #[test]
    fn sibling_branches_do_not_leak_guard_ranges() {
        // The `} else {` line both closes and opens a block; the first
        // branch's guard must not stay live into the second.
        let src = "\
struct S { inner: std::sync::Mutex<u64> }
impl S {
    fn f(&self, flip: bool) {
        if flip {
            let g = self.inner.lock().unwrap();
            touch(&g);
        } else {
            let h = self.inner.lock().unwrap();
            touch(&h);
        }
    }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        assert_eq!(m.acquisitions.len(), 2);
        assert_eq!((m.acquisitions[0].live_from, m.acquisitions[0].live_to), (4, 6));
        assert_eq!((m.acquisitions[1].live_from, m.acquisitions[1].live_to), (7, 9));
    }

    #[test]
    fn temporary_guards_end_mid_expression_with_their_statement() {
        let src = "\
struct S { inner: std::sync::Mutex<u64> }
impl S {
    fn peek(&self) -> u64 {
        *self.inner.lock().unwrap()
    }
    fn two(&self) -> u64 {
        self.inner.lock().unwrap().checked_add(1).unwrap_or(0);
        0
    }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        assert_eq!(m.acquisitions.len(), 2);
        // Tail expression: the temporary cannot outlive its line (the
        // enclosing block closes on the next).
        assert_eq!((m.acquisitions[0].live_from, m.acquisitions[0].live_to), (3, 4));
        // Statement temporary: dies at its own `;`.
        assert_eq!((m.acquisitions[1].live_from, m.acquisitions[1].live_to), (6, 6));
    }

    #[test]
    fn one_line_fn_bodies_are_modeled() {
        let src = "\
struct Shard { inner: std::sync::Mutex<u64> }
impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, u64> { self.inner.lock().unwrap() }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        let f = m.fns.iter().find(|f| f.name == "lock").expect("fn lock modeled");
        assert_eq!((f.sig_line, f.end_line), (2, 2));
        assert!(f.returns_guard);
        assert_eq!(f.acquires.len(), 1);
    }

    #[test]
    fn helper_calls_are_acquisition_sites_in_their_own_crate_only() {
        let pool = "\
pub struct Shard { inner: std::sync::Mutex<u64> }
impl Shard {
    pub fn lock(&self) -> std::sync::MutexGuard<'_, u64> { self.inner.lock().unwrap() }
}
pub struct Pool { shards: Vec<Shard> }
impl Pool {
    pub fn get(&self, i: usize) -> u64 {
        let g = self.shards[i].lock();
        *g
    }
}
";
        let other = "\
fn elsewhere(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}
";
        let m =
            model_for(&[("crates/store/src/pool.rs", pool), ("crates/query/src/exec.rs", other)]);
        // Two sites: the helper's own field acquisition and the call in
        // `get` — and nothing for the unrelated mutex in crates/query.
        assert_eq!(m.acquisitions.len(), 2, "{:?}", m.acquisitions);
        assert!(m.acquisitions.iter().all(|a| LOCK_CLASSES[a.class].name == "pool-shard"));
    }

    #[test]
    fn locks_inside_par_tiles_closures_are_scoped_to_the_closure() {
        let src = "\
struct S { inner: std::sync::Mutex<u64> }
impl S {
    fn f(&self, tiles: &[u64]) {
        par_tiles(tiles, |t| {
            let g = self.inner.lock().unwrap();
            consume(*g + t);
        });
        after(self);
    }
}
";
        let m = model_for(&[("crates/store/src/pool.rs", src)]);
        let a = &m.acquisitions[0];
        assert_eq!((a.live_from, a.live_to), (4, 6), "guard ends at the closure brace");
        assert_eq!(m.fns[a.fn_idx.unwrap()].name, "f");
    }
}
