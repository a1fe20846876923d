//! The rule set. Each rule guards an invariant introduced by an
//! earlier PR; see DESIGN.md §10 for the full rationale table.

use crate::model::{self, LockOp, WorkspaceModel, LOCK_CLASSES};
use crate::source::{directive_words, find_word, SourceFile};
use crate::{Diagnostic, Workspace};

pub const FLOAT_ORDERING: &str = "float-ordering";
pub const NO_ALLOC_KERNEL: &str = "no-alloc-kernel";
pub const STORAGE_BOUNDARY: &str = "storage-boundary";
pub const COUNTER_PARITY: &str = "counter-parity";
pub const UNSAFE_HYGIENE: &str = "unsafe-hygiene";
pub const EXPERIMENT_DOCS: &str = "experiment-docs";
pub const STORE_ERROR_HYGIENE: &str = "store-error-hygiene";
pub const LOCK_ORDER: &str = "lock-order";
pub const NO_BLOCKING_UNDER_LOCK: &str = "no-blocking-under-lock";
pub const ATOMICS_DISCIPLINE: &str = "atomics-discipline";
pub const EPOCH_PROTOCOL: &str = "epoch-protocol";
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Rule ids a waiver may name. `waiver-syntax` is listed so a directive
/// naming it parses, but the engine never suppresses it.
pub const KNOWN_RULES: &[&str] = &[
    FLOAT_ORDERING,
    NO_ALLOC_KERNEL,
    STORAGE_BOUNDARY,
    COUNTER_PARITY,
    UNSAFE_HYGIENE,
    EXPERIMENT_DOCS,
    STORE_ERROR_HYGIENE,
    LOCK_ORDER,
    NO_BLOCKING_UNDER_LOCK,
    ATOMICS_DISCIPLINE,
    EPOCH_PROTOCOL,
    WAIVER_SYNTAX,
];

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
        Box::new(StorageBoundary),
        Box::new(CounterParity),
        Box::new(UnsafeHygiene),
        Box::new(ExperimentDocs),
        Box::new(StoreErrorHygiene),
        Box::new(LockOrder),
        Box::new(NoBlockingUnderLock),
        Box::new(AtomicsDiscipline),
        Box::new(EpochProtocol),
        Box::new(WaiverSyntax),
    ]
}

fn diag(f: &SourceFile, line: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic { file: f.rel.clone(), line, rule, message }
}

/// Byte index just past the `)` matching the `(` at `open`, scanning
/// blanked code (so literal parens are already gone).
pub(crate) fn skip_parens(code: &str, open: usize) -> Option<usize> {
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

/// Number of top-level commas between the parens opening at `open`.
fn toplevel_commas(code: &str, open: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut commas = 0usize;
    for &b in bytes.iter().skip(open) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' if depth == 1 => break,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 1 => commas += 1,
            _ => {}
        }
    }
    commas
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

/// The `{ … }` body (and the byte offset of its header) of the first
/// item whose header contains `header` — good enough for the handful of
/// store items L4 cross-references.
fn item_body<'a>(code: &'a str, header: &str) -> Option<(usize, &'a str)> {
    let at = code.find(header)?;
    let open = at + code[at..].find('{')?;
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((at, &code[open + 1..i]));
                }
            }
            _ => {}
        }
    }
    None
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
/// this rule covers new code paths at review time. Files opt in with
/// `lint-scope: no_alloc`; constructors carry function-level waivers.
struct NoAllocKernel;

/// Files that must stay in the `no_alloc` scope (deleting the tag is
/// itself a violation).
const REQUIRED_NO_ALLOC: &[&str] = &[
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
        "no allocation in files tagged `lint-scope: no_alloc` (the matching kernel)"
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
// L3: storage-boundary
// ---------------------------------------------------------------------

/// PR 1's layering rule: outside `crates/store`, page reads and cost
/// accounting flow through `QueryContext` (3-argument `access`,
/// 2-argument `pin`), never straight at a `BufferPool`/`IoTracker`.
struct StorageBoundary;

/// Tracker plumbing reserved for the buffer pool itself.
const TRACKER_PLUMBING: &[&str] =
    &[".record_pages(", ".record_hit(", ".record_miss(", ".record_eviction(", ".read_page("];

impl Rule for StorageBoundary {
    fn id(&self) -> &'static str {
        STORAGE_BOUNDARY
    }

    fn description(&self) -> &'static str {
        "outside crates/store, page access goes through QueryContext, not BufferPool/IoTracker"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for f in &ws.files {
            if f.rel.starts_with("crates/store/") {
                continue;
            }
            for ctor in ["IoTracker::new", "IoTracker::default", "IoTracker {"] {
                for at in token_positions(&f.code, ctor) {
                    out.push(diag(
                        f,
                        f.line_of(at),
                        STORAGE_BOUNDARY,
                        "construct a QueryContext instead of a raw IoTracker".to_owned(),
                    ));
                }
            }
            for tok in TRACKER_PLUMBING {
                for at in token_positions(&f.code, tok) {
                    out.push(diag(
                        f,
                        f.line_of(at),
                        STORAGE_BOUNDARY,
                        format!(
                            "`{}` is buffer-pool plumbing; record costs via QueryContext",
                            &tok[1..tok.len() - 1]
                        ),
                    ));
                }
            }
            // BufferPool::access/pin take a trailing `&IoTracker`; the
            // QueryContext wrappers don't. Arg count tells them apart.
            for (method, ctx_commas) in [("access", 2usize), ("pin", 1usize)] {
                for at in find_word(&f.code, method) {
                    if at == 0 || f.code.as_bytes()[at - 1] != b'.' {
                        continue;
                    }
                    let open = skip_ws(&f.code, at + method.len());
                    if f.code.as_bytes().get(open) != Some(&b'(') {
                        continue;
                    }
                    if toplevel_commas(&f.code, open) > ctx_commas {
                        out.push(diag(
                            f,
                            f.line_of(at),
                            STORAGE_BOUNDARY,
                            format!("direct BufferPool::{method} bypasses QueryContext accounting"),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// L4: counter-parity
// ---------------------------------------------------------------------

/// Both `pruned` (PR 2) and `filter_steps` (PR 3) initially landed
/// half-threaded: counted on `IoTracker` but dropped on the floor
/// before reaching `QueryStats`. This rule cross-references the three
/// store files so a new counter must be wired end to end.
struct CounterParity;

const TRACKER_RS: &str = "crates/store/src/tracker.rs";
const STATS_RS: &str = "crates/store/src/stats.rs";
const CONTEXT_RS: &str = "crates/store/src/context.rs";
const POOL_RS: &str = "crates/store/src/pool.rs";

impl Rule for CounterParity {
    fn id(&self) -> &'static str {
        COUNTER_PARITY
    }

    fn description(&self) -> &'static str {
        "every IoTracker counter is threaded through snapshot/reset, QueryStats and QueryContext"
    }

    fn check(&self, ws: &Workspace, model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        let Some(tracker) = ws.file(TRACKER_RS) else { return };
        let stats = ws.file(STATS_RS);
        let context = ws.file(CONTEXT_RS);

        // The field lists come from the phase-one counter model, which
        // parses the struct bodies — a newly declared counter is under
        // parity enforcement the moment it exists, with no list to
        // update by hand.
        let counters = &model.counters;

        // The buffer pool keeps one `CacheCounts` per lock shard and
        // sums them with `Add` into `PoolStats`, so a field that misses
        // either side silently reads zero exactly when the pool is
        // sharded — the concurrency configuration the tests exercise
        // least. Cross-reference every field against both.
        {
            let pool = ws.file(POOL_RS);
            let add_body = item_body(&tracker.code, "fn add").map(|(_, b)| b);
            for (field, line0) in &counters.cache_fields {
                let line = line0 + 1;
                if add_body.is_some_and(|b| find_word(b, field).next().is_none()) {
                    out.push(diag(
                        tracker,
                        line,
                        COUNTER_PARITY,
                        format!(
                            "CacheCounts field `{field}` is missing from the Add impl, \
                             so per-shard totals would drop it"
                        ),
                    ));
                }
                if pool.is_some_and(|p| find_word(&p.code, field).next().is_none()) {
                    out.push(diag(
                        tracker,
                        line,
                        COUNTER_PARITY,
                        format!(
                            "CacheCounts field `{field}` is never maintained by the \
                             buffer pool's shards"
                        ),
                    ));
                }
            }
        }

        let snapshot_body = item_body(&tracker.code, "fn snapshot").map(|(_, b)| b);
        let reset_body = item_body(&tracker.code, "fn reset").map(|(_, b)| b);
        for (field, line0) in &counters.tracker_fields {
            let line = line0 + 1;
            for (body, what) in [(snapshot_body, "snapshot()"), (reset_body, "reset()")] {
                if body.is_some_and(|b| find_word(b, field).next().is_none()) {
                    out.push(diag(
                        tracker,
                        line,
                        COUNTER_PARITY,
                        format!("IoTracker field `{field}` is missing from {what}"),
                    ));
                }
            }
            // A counter nothing can increment is dead weight that reads
            // zero forever: every field needs a `count_<field>` or
            // `record_<field>` accessor (singular forms accepted, e.g.
            // `hits` → `record_hit`).
            let mut names = vec![format!("count_{field}"), format!("record_{field}")];
            if let Some(stem) = field.strip_suffix("es") {
                names.push(format!("record_{stem}"));
                names.push(format!("count_{stem}"));
            }
            if let Some(stem) = field.strip_suffix('s') {
                names.push(format!("record_{stem}"));
                names.push(format!("count_{stem}"));
            }
            if !names.iter().any(|n| tracker.code.contains(&format!("fn {n}("))) {
                out.push(diag(
                    tracker,
                    line,
                    COUNTER_PARITY,
                    format!(
                        "IoTracker field `{field}` has no count_/record_ accessor, \
                         so nothing can ever increment it"
                    ),
                ));
            }
        }

        // Every `count_X` accessor must surface `X` all the way to
        // QueryStats and the QueryContext forwarders.
        let stats_struct = stats.and_then(|s| item_body(&s.code, "struct QueryStats"));
        let from_snap = stats.and_then(|s| item_body(&s.code, "fn from_snapshot"));
        let accumulate = stats.and_then(|s| item_body(&s.code, "fn accumulate"));
        let snap_struct = item_body(&tracker.code, "struct TrackerSnapshot");
        for at in token_positions(&tracker.code, "pub fn count_") {
            let name_start = at + "pub fn ".len();
            let rest = &tracker.code[name_start..];
            let name_end =
                rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(rest.len());
            let method = &rest[..name_end];
            let counter = &method["count_".len()..];
            let line = tracker.line_of(at);
            let mut missing: Vec<&str> = Vec::new();
            if snap_struct.as_ref().is_some_and(|(_, b)| find_word(b, counter).next().is_none()) {
                missing.push("TrackerSnapshot");
            }
            if stats_struct.as_ref().is_some_and(|(_, b)| find_word(b, counter).next().is_none()) {
                missing.push("QueryStats");
            }
            if from_snap.as_ref().is_some_and(|(_, b)| find_word(b, counter).next().is_none()) {
                missing.push("QueryStats::from_snapshot");
            }
            if accumulate.as_ref().is_some_and(|(_, b)| find_word(b, counter).next().is_none()) {
                missing.push("QueryStats::accumulate");
            }
            if context.is_some_and(|c| !c.code.contains(&format!("fn {method}"))) {
                missing.push("QueryContext");
            }
            if !missing.is_empty() {
                out.push(diag(
                    tracker,
                    line,
                    COUNTER_PARITY,
                    format!("counter `{counter}` is not threaded through {}", missing.join(", ")),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// L5: unsafe-hygiene
// ---------------------------------------------------------------------

/// Unsafe stays auditable: each `unsafe` keyword carries a `SAFETY:`
/// comment, and crates that need none say so with
/// `#![forbid(unsafe_code)]` so a future block can't land silently.
struct UnsafeHygiene;

impl Rule for UnsafeHygiene {
    fn id(&self) -> &'static str {
        UNSAFE_HYGIENE
    }

    fn description(&self) -> &'static str {
        "`unsafe` requires a SAFETY: comment; unsafe-free crates declare forbid(unsafe_code)"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        let mut unsafe_crates: Vec<&str> = Vec::new();
        for f in &ws.files {
            let mut file_has_unsafe = false;
            for (i, line) in f.lines.iter().enumerate() {
                if find_word(&line.code, "unsafe").next().is_none() {
                    continue;
                }
                file_has_unsafe = true;
                if !f.comment_block_contains(i + 1, "SAFETY:") {
                    out.push(diag(
                        f,
                        i + 1,
                        UNSAFE_HYGIENE,
                        "`unsafe` without a `// SAFETY:` comment on or above it".to_owned(),
                    ));
                }
            }
            if file_has_unsafe {
                if let Some(name) = src_crate(&f.rel) {
                    unsafe_crates.push(name);
                }
            }
        }
        for f in &ws.files {
            let Some(name) = src_crate(&f.rel) else { continue };
            if f.rel != format!("crates/{name}/src/lib.rs") {
                continue;
            }
            if !unsafe_crates.contains(&name) && !f.code.contains("forbid(unsafe_code)") {
                out.push(diag(
                    f,
                    1,
                    UNSAFE_HYGIENE,
                    format!("crate `{name}` uses no unsafe: declare #![forbid(unsafe_code)]"),
                ));
            }
        }
    }
}

/// `crates/<name>/src/…` → `<name>`.
fn src_crate(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

// ---------------------------------------------------------------------
// L6: experiment-docs
// ---------------------------------------------------------------------

/// Every experiment binary must be written up: an `exp_*` binary nobody
/// can interpret is dead weight in the reproduction.
struct ExperimentDocs;

impl Rule for ExperimentDocs {
    fn id(&self) -> &'static str {
        EXPERIMENT_DOCS
    }

    fn description(&self) -> &'static str {
        "every crates/bench/src/bin/exp_*.rs binary is documented in EXPERIMENTS.md"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for f in &ws.files {
            let Some(name) = f.rel.strip_prefix("crates/bench/src/bin/") else { continue };
            if !name.starts_with("exp_") {
                continue;
            }
            let stem = name.trim_end_matches(".rs");
            let documented = ws.experiments_md.as_deref().is_some_and(|md| md.contains(stem));
            if !documented {
                out.push(diag(
                    f,
                    1,
                    EXPERIMENT_DOCS,
                    format!("experiment binary `{stem}` has no section in EXPERIMENTS.md"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// L7: store-error-hygiene
// ---------------------------------------------------------------------

/// The fault-injection PR made every storage fallibility typed: page
/// stores return `StoreResult`, lock poisoning is recovered with
/// `unwrap_or_else(PoisonError::into_inner)`, and callers see
/// `StoreError` instead of a panic. A single `.unwrap()` on an I/O path
/// inside `crates/store` would turn an injectable, testable fault back
/// into an abort, so none are allowed outside `#[cfg(test)]` code.
struct StoreErrorHygiene;

impl Rule for StoreErrorHygiene {
    fn id(&self) -> &'static str {
        STORE_ERROR_HYGIENE
    }

    fn description(&self) -> &'static str {
        "store/query/index library code propagates typed errors: no unwrap/expect outside tests"
    }

    fn check(&self, ws: &Workspace, _model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        // Promoted from crates/store alone once the query and index
        // layers grew their own lock- and I/O-bearing paths: everything
        // downstream of a page store can see an injected fault, so the
        // same no-panic standard applies. Integration tests under
        // `tests/` are all test code; only shipped sources are held to
        // it.
        const COVERED: &[&str] = &["crates/store/src/", "crates/query/src/", "crates/index/src/"];
        for f in &ws.files {
            if !COVERED.iter().any(|p| f.rel.starts_with(p)) {
                continue;
            }
            for (i, line) in f.lines.iter().enumerate() {
                if line.in_cfg_test {
                    continue;
                }
                for tok in [".unwrap()", ".expect("] {
                    for at in token_positions(&line.code, tok) {
                        let on_lock = line.code[..at].trim_end().ends_with(".lock()");
                        let message = if on_lock {
                            format!(
                                "panicking on a poisoned lock: recover with \
                                 `lock().unwrap_or_else(PoisonError::into_inner)` \
                                 instead of `{tok}`"
                            )
                        } else {
                            format!(
                                "`{tok}` in library code outside tests: propagate a \
                                 typed error (or waive with a reason)"
                            )
                        };
                        out.push(diag(f, i + 1, STORE_ERROR_HYGIENE, message));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// L8: lock-order
// ---------------------------------------------------------------------

/// The concurrency PRs (6–9) established one global acquisition order
/// over the named lock classes (writer mutex, before the epoch RwLock,
/// before the store-internal locks, before the pool shards). Two code
/// paths that acquire two classes in opposite orders can deadlock under
/// exactly the concurrent load the tests exercise least, so any cycle
/// in the observed acquisition-order graph is an error — and the hot
/// pool-shard locks must never nest inside themselves at all.
struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        LOCK_ORDER
    }

    fn description(&self) -> &'static str {
        "the acquisition-order graph over named lock classes stays acyclic; shard locks never self-nest"
    }

    fn check(&self, ws: &Workspace, model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for e in model.edges.iter().filter(|e| !e.in_cfg_test) {
            let Some(f) = ws.files.get(e.file) else { continue };
            let (from, to) = (&LOCK_CLASSES[e.from], &LOCK_CLASSES[e.to]);
            if e.from == e.to {
                let detail = if from.hot {
                    "shard-lock self-nesting: a second shard can map to the same stripe \
                     and deadlock"
                } else {
                    "re-acquiring a held lock class self-deadlocks on the same instance"
                };
                out.push(diag(
                    f,
                    e.line + 1,
                    LOCK_ORDER,
                    format!("`{}` acquired while already held — {detail}", from.name),
                ));
                continue;
            }
            // A cycle exists iff some rank-decreasing edge closes a loop
            // back to itself (rank-increasing edges alone are acyclic by
            // construction). Anchoring the report on the inverted edge
            // makes it the waivable site.
            if from.rank > to.rank && model.has_path(e.to, e.from) {
                out.push(diag(
                    f,
                    e.line + 1,
                    LOCK_ORDER,
                    format!(
                        "lock-order cycle: acquiring `{}` (rank {}) while holding `{}` \
                         (rank {}) inverts the workspace acquisition order — deadlock risk",
                        to.name, to.rank, from.name, from.rank
                    ),
                ));
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
const BLOCKING_CALLS: &[&str] = &[
    ".read_into(",
    ".write_page(",
    ".read_page(",
    ".sync(",
    ".sync_all(",
    ".sync_data(",
    ".set_len(",
    ".flush(",
    ".persist(",
    "save_",
];

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
// L10: atomics-discipline
// ---------------------------------------------------------------------

/// The statistics counters are deliberately `Relaxed` — they count, they
/// don't synchronize; publication ordering comes from the locks and the
/// epoch RwLock. A stray `SeqCst` on a counter taxes every hot-path
/// increment for nothing, and a load-bearing `Acquire`/`Release` that
/// *does* synchronize deserves the same visible justification that
/// `unsafe` blocks carry. Mirroring `unsafe-hygiene`: any non-Relaxed
/// ordering needs an adjacent `// ORDERING:` comment saying what it
/// orders, and the tracker counters must stay Relaxed outright.
struct AtomicsDiscipline;

impl Rule for AtomicsDiscipline {
    fn id(&self) -> &'static str {
        ATOMICS_DISCIPLINE
    }

    fn description(&self) -> &'static str {
        "counters use Relaxed; any SeqCst/Acquire/Release needs an `// ORDERING:` justification"
    }

    fn check(&self, ws: &Workspace, model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        for op in &model.atomics {
            let Some(f) = ws.files.get(op.file) else { continue };
            let non_relaxed: Vec<&str> = op
                .orderings
                .iter()
                .filter(|o| o.as_str() != "Relaxed")
                .map(String::as_str)
                .collect();
            if non_relaxed.is_empty() {
                continue;
            }
            let counter =
                op.receiver.as_deref().is_some_and(|r| model.counters.is_tracker_counter(r));
            if counter {
                out.push(diag(
                    f,
                    op.line + 1,
                    ATOMICS_DISCIPLINE,
                    format!(
                        "tracker counter `{}` uses Ordering::{} — statistics counters \
                         are Relaxed by design (locks provide all publication ordering)",
                        op.receiver.as_deref().unwrap_or("?"),
                        non_relaxed.join("/"),
                    ),
                ));
            } else if !f.comment_block_contains(op.line + 1, "ORDERING:") {
                out.push(diag(
                    f,
                    op.line + 1,
                    ATOMICS_DISCIPLINE,
                    format!(
                        "`{}` with Ordering::{} has no `// ORDERING:` comment \
                         justifying the stronger-than-Relaxed ordering",
                        op.method,
                        non_relaxed.join("/"),
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// L11: epoch-protocol
// ---------------------------------------------------------------------

/// The dynamic-index snapshot protocol (PR 9): `publish()` swaps the
/// published pointer only while the writer mutex is held, so
/// generations publish in order. No type says so — the slot is an
/// `RwLock` any method of the module can write — hence this rule. (That
/// code outside `epoch.rs` cannot construct an `IndexEpoch` or reach the
/// slot needs no rule: the fields are private and there is no
/// constructor.)
struct EpochProtocol;

const EPOCH_RS: &str = "crates/query/src/epoch.rs";

impl Rule for EpochProtocol {
    fn id(&self) -> &'static str {
        EPOCH_PROTOCOL
    }

    fn description(&self) -> &'static str {
        "publishing an epoch (write-locking the slot in epoch.rs) requires the writer lock"
    }

    fn check(&self, ws: &Workspace, model: &WorkspaceModel, out: &mut Vec<Diagnostic>) {
        let Some(writer) = model::class_by_name("writer-mutex") else { return };
        let Some(epoch) = model::class_by_name("epoch-rwlock") else { return };
        let Some((fi, f)) = ws.files.iter().enumerate().find(|(_, f)| f.rel == EPOCH_RS) else {
            return;
        };
        // Every write acquisition of the published slot must happen
        // under a live writer-mutex guard.
        for a in &model.acquisitions {
            if a.file != fi || a.class != epoch || a.op != LockOp::Write || a.in_cfg_test {
                continue;
            }
            let held = model.acquisitions.iter().any(|w| {
                w.file == fi
                    && w.class == writer
                    && w.at < a.at
                    && w.live_from <= a.line
                    && a.line <= w.live_to
            });
            if !held {
                out.push(diag(
                    f,
                    a.line + 1,
                    EPOCH_PROTOCOL,
                    "publishing an epoch (write-locking `published`) without \
                     holding the writer mutex: generations can publish out of order"
                        .to_owned(),
                ));
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
        check(&Workspace::from_sources(sources, None))
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
        assert_eq!(
            rules_hit(&[("crates/setdist/src/engine.rs", CLEAN)], rules::NO_ALLOC_KERNEL),
            vec![1]
        );
    }

    #[test]
    fn l3_flags_raw_trackers_and_four_arg_access() {
        let bad = "#![forbid(unsafe_code)]\n\
            fn q(pool: &BufferPool, store: StoreId) {\n\
                let t = IoTracker::default();\n\
                pool.access(store, 0, 4, &t);\n\
                t.record_hit();\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/q/src/lib.rs", bad)], rules::STORAGE_BOUNDARY),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn l3_allows_query_context_calls_and_store_internals() {
        let good = "#![forbid(unsafe_code)]\n\
            fn q(ctx: &QueryContext, store: StoreId) {\n\
                ctx.access(store, 0, 4);\n\
                let _guard = ctx.pin(store, 7);\n\
                ctx.record_bytes(128);\n\
            }\n";
        assert_eq!(rules_hit(&[("crates/q/src/lib.rs", good)], rules::STORAGE_BOUNDARY), vec![]);
        // The same raw-pool code *inside* crates/store is the pool's own
        // business.
        let internal = "fn f(pool: &BufferPool, s: StoreId, t: &IoTracker) {\n\
            pool.access(s, 0, 1, t);\n\
        }\n";
        assert_eq!(
            rules_hit(
                &[("crates/store/src/pool.rs", internal), ("crates/store/src/lib.rs", CLEAN)],
                rules::STORAGE_BOUNDARY
            ),
            vec![]
        );
    }

    /// Fixture store files where `lost` is counted on the tracker but
    /// never threaded to QueryStats/QueryContext.
    fn parity_fixture(thread_everywhere: bool) -> Vec<(&'static str, String)> {
        let extra_field = "    lost: AtomicU64,\n";
        let tracker = format!(
            "pub struct IoTracker {{\n    refinements: AtomicU64,\n{extra_field}}}\n\
             impl IoTracker {{\n\
                 pub fn count_refinements(&self, n: u64) {{ self.refinements.fetch_add(n, O); }}\n\
                 pub fn count_lost(&self, n: u64) {{ self.lost.fetch_add(n, O); }}\n\
                 pub fn snapshot(&self) -> TrackerSnapshot {{\n\
                     TrackerSnapshot {{ refinements: self.refinements.load(O), {} }}\n\
                 }}\n\
                 pub fn reset(&self) {{ self.refinements.store(0, O); {} }}\n\
             }}\n\
             pub struct TrackerSnapshot {{\n    pub refinements: u64,\n{}}}\n",
            if thread_everywhere { "lost: self.lost.load(O)" } else { "" },
            if thread_everywhere { "self.lost.store(0, O);" } else { "" },
            if thread_everywhere { "    pub lost: u64,\n" } else { "" },
        );
        let stats = format!(
            "pub struct QueryStats {{\n    pub refinements: u64,\n{}}}\n\
             impl QueryStats {{\n\
                 fn from_snapshot(s: TrackerSnapshot) -> Self {{\n\
                     QueryStats {{ refinements: s.refinements, {} }}\n\
                 }}\n\
                 pub fn accumulate(&mut self, o: &QueryStats) {{\n\
                     self.refinements += o.refinements;\n{}\
                 }}\n\
             }}\n",
            if thread_everywhere { "    pub lost: u64,\n" } else { "" },
            if thread_everywhere { "lost: s.lost" } else { "" },
            if thread_everywhere { "self.lost += o.lost;\n" } else { "" },
        );
        let context = format!(
            "impl QueryContext {{\n\
                 pub fn count_refinements(&self, n: u64) {{ self.t.count_refinements(n); }}\n{}\
             }}\n",
            if thread_everywhere {
                "pub fn count_lost(&self, n: u64) { self.t.count_lost(n); }\n"
            } else {
                ""
            },
        );
        vec![
            ("crates/store/src/tracker.rs", tracker),
            ("crates/store/src/stats.rs", stats),
            ("crates/store/src/context.rs", context),
            ("crates/store/src/lib.rs", CLEAN.to_owned()),
        ]
    }

    #[test]
    fn l4_flags_half_threaded_counters() {
        let sources = parity_fixture(false);
        let refs: Vec<(&str, &str)> = sources.iter().map(|(a, b)| (*a, b.as_str())).collect();
        let hits: Vec<String> = diags_for(&refs)
            .into_iter()
            .filter(|d| d.rule == rules::COUNTER_PARITY)
            .map(|d| d.message)
            .collect();
        assert!(hits.iter().any(|m| m.contains("`lost` is missing from snapshot()")), "{hits:?}");
        assert!(hits.iter().any(|m| m.contains("`lost` is missing from reset()")), "{hits:?}");
        assert!(
            hits.iter().any(|m| m.contains("`lost` is not threaded through")
                && m.contains("QueryStats")
                && m.contains("QueryContext")),
            "{hits:?}"
        );
    }

    #[test]
    fn l4_accepts_fully_threaded_counters() {
        let sources = parity_fixture(true);
        let refs: Vec<(&str, &str)> = sources.iter().map(|(a, b)| (*a, b.as_str())).collect();
        assert_eq!(rules_hit(&refs, rules::COUNTER_PARITY), vec![]);
    }

    /// Fixture store files carrying the dynamic-lifecycle counters
    /// (`inserts`/`deletes`/`epoch_pins`), each half-threaded in a
    /// *different* place when `thread_everywhere` is false: `inserts`
    /// never reaches snapshot()/reset(), `deletes` is dropped between
    /// TrackerSnapshot and QueryStats, and `epoch_pins` lacks its
    /// QueryContext forwarder.
    fn dynamic_parity_fixture(thread_everywhere: bool) -> Vec<(&'static str, String)> {
        let t = thread_everywhere;
        let tracker = format!(
            "pub struct IoTracker {{\n    inserts: AtomicU64,\n    deletes: AtomicU64,\n\
             \x20   epoch_pins: AtomicU64,\n}}\n\
             impl IoTracker {{\n\
                 pub fn count_inserts(&self, n: u64) {{ self.inserts.fetch_add(n, O); }}\n\
                 pub fn count_deletes(&self, n: u64) {{ self.deletes.fetch_add(n, O); }}\n\
                 pub fn count_epoch_pins(&self, n: u64) {{ self.epoch_pins.fetch_add(n, O); }}\n\
                 pub fn snapshot(&self) -> TrackerSnapshot {{\n\
                     TrackerSnapshot {{ {} deletes: self.deletes.load(O), \
                      epoch_pins: self.epoch_pins.load(O) }}\n\
                 }}\n\
                 pub fn reset(&self) {{ {} self.deletes.store(0, O); \
                  self.epoch_pins.store(0, O); }}\n\
             }}\n\
             pub struct TrackerSnapshot {{\n{}    pub deletes: u64,\n    pub epoch_pins: u64,\n}}\n",
            if t { "inserts: self.inserts.load(O)," } else { "" },
            if t { "self.inserts.store(0, O);" } else { "" },
            if t { "    pub inserts: u64,\n" } else { "" },
        );
        let stats = format!(
            "pub struct QueryStats {{\n    pub inserts: u64,\n{}    pub epoch_pins: u64,\n}}\n\
             impl QueryStats {{\n\
                 fn from_snapshot(s: TrackerSnapshot) -> Self {{\n\
                     QueryStats {{ inserts: s.inserts, {} epoch_pins: s.epoch_pins }}\n\
                 }}\n\
                 pub fn accumulate(&mut self, o: &QueryStats) {{\n\
                     self.inserts += o.inserts;\n{}\
                     self.epoch_pins += o.epoch_pins;\n\
                 }}\n\
             }}\n",
            if t { "    pub deletes: u64,\n" } else { "" },
            if t { "deletes: s.deletes," } else { "" },
            if t { "self.deletes += o.deletes;\n" } else { "" },
        );
        let context = format!(
            "impl QueryContext {{\n\
                 pub fn count_inserts(&self, n: u64) {{ self.t.count_inserts(n); }}\n\
                 pub fn count_deletes(&self, n: u64) {{ self.t.count_deletes(n); }}\n{}\
             }}\n",
            if t {
                "pub fn count_epoch_pins(&self, n: u64) { self.t.count_epoch_pins(n); }\n"
            } else {
                ""
            },
        );
        vec![
            ("crates/store/src/tracker.rs", tracker),
            ("crates/store/src/stats.rs", stats),
            ("crates/store/src/context.rs", context),
            ("crates/store/src/lib.rs", CLEAN.to_owned()),
        ]
    }

    #[test]
    fn l4_flags_half_threaded_dynamic_lifecycle_counters() {
        let sources = dynamic_parity_fixture(false);
        let refs: Vec<(&str, &str)> = sources.iter().map(|(a, b)| (*a, b.as_str())).collect();
        let hits: Vec<String> = diags_for(&refs)
            .into_iter()
            .filter(|d| d.rule == rules::COUNTER_PARITY)
            .map(|d| d.message)
            .collect();
        assert!(
            hits.iter().any(|m| m.contains("`inserts` is missing from snapshot()")),
            "{hits:?}"
        );
        assert!(hits.iter().any(|m| m.contains("`inserts` is missing from reset()")), "{hits:?}");
        assert!(
            hits.iter().any(
                |m| m.contains("`deletes` is not threaded through") && m.contains("QueryStats")
            ),
            "{hits:?}"
        );
        assert!(
            hits.iter().any(|m| m.contains("`epoch_pins` is not threaded through")
                && m.contains("QueryContext")),
            "{hits:?}"
        );
    }

    #[test]
    fn l4_accepts_fully_threaded_dynamic_lifecycle_counters() {
        let sources = dynamic_parity_fixture(true);
        let refs: Vec<(&str, &str)> = sources.iter().map(|(a, b)| (*a, b.as_str())).collect();
        assert_eq!(rules_hit(&refs, rules::COUNTER_PARITY), vec![]);
    }

    /// Fixture store files with a per-shard `CacheCounts` whose `stale`
    /// field is (optionally) dropped by the `Add` impl and the pool.
    fn cache_fixture(thread_everywhere: bool) -> Vec<(&'static str, String)> {
        let tracker = format!(
            "pub struct CacheCounts {{\n    pub hits: u64,\n    pub stale: u64,\n}}\n\
             impl std::ops::Add for CacheCounts {{\n\
                 type Output = CacheCounts;\n\
                 fn add(self, o: CacheCounts) -> CacheCounts {{\n\
                     CacheCounts {{ hits: self.hits + o.hits, {} }}\n\
                 }}\n\
             }}\n",
            if thread_everywhere { "stale: self.stale + o.stale" } else { "..self" },
        );
        let pool = format!(
            "impl BufferPool {{\n\
                 fn touch(&self) {{ self.totals.hits += 1; {} }}\n\
             }}\n",
            if thread_everywhere { "self.totals.stale += 1;" } else { "" },
        );
        vec![
            ("crates/store/src/tracker.rs", tracker),
            ("crates/store/src/pool.rs", pool),
            ("crates/store/src/lib.rs", CLEAN.to_owned()),
        ]
    }

    #[test]
    fn l4_flags_cache_fields_dropped_by_shard_summing() {
        let sources = cache_fixture(false);
        let refs: Vec<(&str, &str)> = sources.iter().map(|(a, b)| (*a, b.as_str())).collect();
        let hits: Vec<String> = diags_for(&refs)
            .into_iter()
            .filter(|d| d.rule == rules::COUNTER_PARITY)
            .map(|d| d.message)
            .collect();
        assert!(
            hits.iter().any(|m| m.contains("`stale` is missing from the Add impl")),
            "{hits:?}"
        );
        assert!(
            hits.iter().any(|m| m.contains("`stale` is never maintained by the buffer pool")),
            "{hits:?}"
        );
        assert!(!hits.iter().any(|m| m.contains("`hits`")), "{hits:?}");
    }

    #[test]
    fn l4_accepts_fully_summed_cache_fields() {
        let sources = cache_fixture(true);
        let refs: Vec<(&str, &str)> = sources.iter().map(|(a, b)| (*a, b.as_str())).collect();
        assert_eq!(rules_hit(&refs, rules::COUNTER_PARITY), vec![]);
    }

    #[test]
    fn l5_requires_safety_comments_and_forbid() {
        let bad = "pub fn f(p: *const u8) -> u8 {\n\
                unsafe { *p }\n\
            }\n";
        assert_eq!(rules_hit(&[("crates/u/src/lib.rs", bad)], rules::UNSAFE_HYGIENE), vec![2]);
        // An unsafe-free crate without the forbid attribute is flagged at
        // its lib.rs.
        let no_forbid = "pub fn id(x: u64) -> u64 {\n    x\n}\n";
        assert_eq!(
            rules_hit(&[("crates/u/src/lib.rs", no_forbid)], rules::UNSAFE_HYGIENE),
            vec![1]
        );
    }

    #[test]
    fn l5_accepts_documented_unsafe_and_forbid_crates() {
        let good = "// SAFETY: `p` is valid for reads by the caller's contract.\n\
            pub unsafe fn f(p: *const u8) -> u8 {\n\
                // SAFETY: see function contract above.\n\
                unsafe { *p }\n\
            }\n";
        assert_eq!(rules_hit(&[("crates/u/src/lib.rs", good)], rules::UNSAFE_HYGIENE), vec![]);
        assert_eq!(rules_hit(&[("crates/u/src/lib.rs", CLEAN)], rules::UNSAFE_HYGIENE), vec![]);
    }

    #[test]
    fn l6_requires_experiment_sections() {
        let ws = Workspace::from_sources(
            &[
                ("crates/bench/src/bin/exp_documented.rs", CLEAN),
                ("crates/bench/src/bin/exp_orphan.rs", CLEAN),
                ("crates/bench/src/lib.rs", CLEAN),
            ],
            Some("## exp_documented\nMeasures things.\n"),
        );
        let hits: Vec<String> = check(&ws)
            .into_iter()
            .filter(|d| d.rule == rules::EXPERIMENT_DOCS)
            .map(|d| d.file)
            .collect();
        assert_eq!(hits, vec!["crates/bench/src/bin/exp_orphan.rs".to_owned()]);
    }

    #[test]
    fn l7_flags_store_unwraps_outside_tests() {
        let bad = "#![forbid(unsafe_code)]\n\
            fn f(file: &std::fs::File, m: &std::sync::Mutex<u64>) -> u64 {\n\
                file.sync_all().unwrap();\n\
                let n = file.metadata().expect(\"stat\");\n\
                let g = m.lock().unwrap();\n\
                *g + n.len()\n\
            }\n\
            #[cfg(test)]\n\
            mod tests {\n\
                fn t() {\n\
                    std::fs::read(\"x\").unwrap();\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/store/src/file.rs", bad)], rules::STORE_ERROR_HYGIENE),
            vec![3, 4, 5]
        );
        // Lock-poisoning sites get the targeted recovery hint.
        let msgs: Vec<String> = diags_for(&[("crates/store/src/file.rs", bad)])
            .into_iter()
            .filter(|d| d.rule == rules::STORE_ERROR_HYGIENE && d.line == 5)
            .map(|d| d.message)
            .collect();
        assert!(msgs.iter().any(|m| m.contains("PoisonError::into_inner")), "{msgs:?}");
    }

    #[test]
    fn l7_allows_recovery_idioms_waivers_and_other_crates() {
        let good = "#![forbid(unsafe_code)]\n\
            use std::sync::PoisonError;\n\
            fn f(m: &std::sync::Mutex<u64>) -> u64 {\n\
                let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
                let n = std::fs::read(\"x\").unwrap_or_default().len() as u64;\n\
                *g + n\n\
            }\n\
            fn waived(m: &std::sync::Mutex<u64>) -> u64 {\n\
                *m.lock().unwrap() // lint-allow: store-error-hygiene demo of a justified panic\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/store/src/pool.rs", good)], rules::STORE_ERROR_HYGIENE),
            vec![]
        );
        // The same unwraps outside the covered library crates (store,
        // query, index) are not this rule's business.
        let elsewhere = "#![forbid(unsafe_code)]\n\
            fn f() {\n\
                std::fs::read(\"x\").unwrap();\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/bench/src/lib.rs", elsewhere)], rules::STORE_ERROR_HYGIENE),
            vec![]
        );
        // ... but query and index library code is now covered.
        assert_eq!(
            rules_hit(&[("crates/query/src/planner.rs", elsewhere)], rules::STORE_ERROR_HYGIENE),
            vec![3]
        );
        assert_eq!(
            rules_hit(&[("crates/index/src/storage.rs", elsewhere)], rules::STORE_ERROR_HYGIENE),
            vec![3]
        );
    }

    #[test]
    fn l8_flags_lock_order_cycles_and_shard_self_nesting() {
        // The good direction alone — writer mutex, then the epoch
        // RwLock — is rank-increasing and clean.
        let publish_only = "#![forbid(unsafe_code)]\n\
            impl Handle {\n\
                fn publish(&self) {\n\
                    let w = self.working.lock().unwrap();\n\
                    let mut slot = self.published.write().unwrap();\n\
                    *slot = w.snapshot();\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/query/src/epoch.rs", publish_only)], rules::LOCK_ORDER),
            vec![]
        );
        // Add a path that takes the same two classes in the opposite
        // order and the graph has a cycle; the inverted (rank-
        // decreasing) edge is the reported site.
        let with_inversion = "#![forbid(unsafe_code)]\n\
            impl Handle {\n\
                fn publish(&self) {\n\
                    let w = self.working.lock().unwrap();\n\
                    let mut slot = self.published.write().unwrap();\n\
                    *slot = w.snapshot();\n\
                }\n\
                fn inverted(&self) {\n\
                    let p = self.published.write().unwrap();\n\
                    let w = self.working.lock().unwrap();\n\
                    drop(w);\n\
                    drop(p);\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/query/src/epoch.rs", with_inversion)], rules::LOCK_ORDER),
            vec![10]
        );
        // Shard locks must never nest inside themselves, cycle or not.
        let self_nest = "#![forbid(unsafe_code)]\n\
            impl Pool {\n\
                fn rehash(&self, other: &Shard) {\n\
                    let a = self.inner.lock().unwrap();\n\
                    let b = other.inner.lock().unwrap();\n\
                    a.merge(&b);\n\
                }\n\
            }\n";
        let hits = rules_hit(&[("crates/store/src/pool.rs", self_nest)], rules::LOCK_ORDER);
        assert_eq!(hits, vec![5]);
        let msgs: Vec<String> = diags_for(&[("crates/store/src/pool.rs", self_nest)])
            .into_iter()
            .filter(|d| d.rule == rules::LOCK_ORDER)
            .map(|d| d.message)
            .collect();
        assert!(msgs[0].contains("self-nesting"), "{msgs:?}");
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
        // colder classes (writer mutex) doing I/O-sized work.
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
            impl Writer {\n\
                fn rebuild(&self) {\n\
                    let w = self.working.lock().unwrap();\n\
                    let buf = vec![0u8; 4096];\n\
                    w.save_index(buf);\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/query/src/writer.rs", cold)], rules::NO_BLOCKING_UNDER_LOCK),
            vec![]
        );
    }

    #[test]
    fn l10_atomics_need_relaxed_counters_and_justified_strong_orderings() {
        let tracker = "#![forbid(unsafe_code)]\n\
            use std::sync::atomic::{AtomicU64, Ordering};\n\
            pub struct IoTracker {\n\
                hits: AtomicU64,\n\
            }\n\
            impl IoTracker {\n\
                pub fn count_hits(&self) {\n\
                    self.hits.fetch_add(1, Ordering::SeqCst);\n\
                }\n\
            }\n";
        // A tracker counter with a strong ordering is wrong even if
        // somebody writes a justification comment.
        let hits =
            rules_hit(&[("crates/store/src/tracker.rs", tracker)], rules::ATOMICS_DISCIPLINE);
        assert_eq!(hits, vec![8]);
        let elsewhere = "#![forbid(unsafe_code)]\n\
            use std::sync::atomic::{AtomicU64, Ordering};\n\
            fn gen(flag: &AtomicU64) -> u64 {\n\
                flag.load(Ordering::Acquire)\n\
            }\n\
            fn publish(flag: &AtomicU64) {\n\
                // ORDERING: Release pairs with the Acquire load in gen().\n\
                flag.store(1, Ordering::Release);\n\
            }\n\
            fn relaxed(n: &AtomicU64) -> u64 {\n\
                n.load(Ordering::Relaxed)\n\
            }\n";
        // Line 4 has no ORDERING: comment; line 8 does; Relaxed is
        // always fine.
        assert_eq!(
            rules_hit(&[("crates/query/src/epochs.rs", elsewhere)], rules::ATOMICS_DISCIPLINE),
            vec![4]
        );
        // Non-atomic `.load(…)` calls (no Ordering argument) are not
        // atomic ops at all.
        let pool = "#![forbid(unsafe_code)]\n\
            fn f(pool: &Pool) -> Page {\n\
                pool.load(7).unwrap_or_default()\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/bench/src/lib.rs", pool)], rules::ATOMICS_DISCIPLINE),
            vec![]
        );
    }

    #[test]
    fn l11_epoch_protocol_guards_construction_publication_and_the_slot() {
        // Inside epoch.rs: write-locking the published slot without the
        // writer mutex held is flagged; the pin() read path and the
        // guarded publish path are the sanctioned doors. The same code
        // in any other file is privacy's business, not this rule's.
        let inside = "#![forbid(unsafe_code)]\n\
            impl Handle {\n\
                fn pin(&self) -> Arc<IndexEpoch> {\n\
                    self.published.read().unwrap().clone()\n\
                }\n\
                fn publish(&self) {\n\
                    let w = self.working.lock().unwrap();\n\
                    let mut slot = self.published.write().unwrap();\n\
                    *slot = w.snapshot();\n\
                }\n\
                fn rogue(&self) {\n\
                    let mut slot = self.published.write().unwrap();\n\
                    *slot = Arc::default();\n\
                }\n\
            }\n";
        assert_eq!(
            rules_hit(&[("crates/query/src/epoch.rs", inside)], rules::EPOCH_PROTOCOL),
            vec![12]
        );
        assert!(rules_hit(&[("crates/index/src/lib.rs", inside)], rules::EPOCH_PROTOCOL).is_empty());
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
